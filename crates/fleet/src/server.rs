//! The TCP ingest endpoint: a hand-rolled HTTP/1.1 server over the
//! shared `prefall-obsd` plumbing, hardened the way the fleet needs.
//!
//! ```text
//! http::Acceptor ──try_send──▶ bounded queue ──recv──▶ conn workers
//!  (blocking accept)                                        │
//!       │ (queue full)                                      ▼
//!       ▼                                   keep-alive request loop,
//!  429 + Retry-After                        per-request wall deadline
//!  straight on the socket
//! ```
//!
//! Robustness contract, in order of degradation:
//!
//! 1. **Deadlines** — every request read is armed with the time left
//!    until [`FleetConfig::conn_deadline`], and every write times out
//!    after it; a stalled or trickling client, or one that never reads
//!    its replies, is cut off (read stalls count as
//!    `fleet.conn_timeouts`).
//! 2. **Backpressure** — when in-flight pressure reaches
//!    [`FleetConfig::reject_at`], or the accept queue is full, the
//!    server answers `429 Too Many Requests` with a `Retry-After`
//!    hint. Consecutive rejections on one connection double the hint
//!    (exponential backoff, capped at 64× the base) so a storm of
//!    retries spreads out instead of thundering back.
//! 3. **Shedding** — between [`FleetConfig::shed_at`] and `reject_at`
//!    the fleet still serves every batch but skips inference,
//!    degrading triggering to the accel-confirmed-only policy; the
//!    reply carries `"shed": true` so clients know.
//! 4. Only past all of that are requests refused — never silently
//!    dropped.
//!
//! [`FleetConfig::conn_deadline`]: crate::FleetConfig::conn_deadline
//! [`FleetConfig::reject_at`]: crate::FleetConfig::reject_at
//! [`FleetConfig::shed_at`]: crate::FleetConfig::shed_at

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::protocol::{IngestBatch, IngestStatus};
use crate::Fleet;
use prefall_obsd::http;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running ingest server. Dropping it (or calling
/// [`FleetServer::shutdown`]) stops the accept thread, drains the
/// workers and joins them.
#[derive(Debug)]
pub struct FleetServer {
    acceptor: http::Acceptor,
    workers: Vec<JoinHandle<()>>,
}

impl FleetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving the
    /// fleet's ingest protocol on it.
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures and thread-spawn failures; a
    /// failed spawn first stops and joins the threads already started.
    pub fn start(addr: &str, fleet: Arc<Fleet>) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let cfg = fleet.config();
        let queue_cap = cfg.queue_cap.max(1);
        let n_workers = cfg.conn_workers.max(1);
        let base_retry_ms = cfg.retry_after_ms.max(1);

        let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicUsize::new(0));

        let acceptor = {
            let fleet = Arc::clone(&fleet);
            let queued = Arc::clone(&queued);
            // `tx` lives in this closure and drops when the accept
            // thread ends; the workers then drain and exit.
            http::Acceptor::spawn(
                listener,
                "prefall-fleet-accept",
                cfg.conn_deadline,
                move |accepted| {
                    let Ok(stream) = accepted else {
                        return;
                    };
                    fleet.pressure_inc();
                    let depth = queued.fetch_add(1, Ordering::Relaxed) + 1;
                    fleet.note_queue_depth(depth);
                    if let Err(
                        TrySendError::Full(mut stream) | TrySendError::Disconnected(mut stream),
                    ) = tx.try_send(stream)
                    {
                        // Queue full: refuse at the door with a retry hint
                        // rather than letting the connection rot.
                        queued.fetch_sub(1, Ordering::Relaxed);
                        fleet.pressure_dec();
                        let _ = Reply::too_many(TEXT, OVERLOADED, base_retry_ms).write(
                            &mut stream,
                            false,
                            false,
                        );
                    }
                },
            )?
        };

        // From here on, dropping `server` stops and joins every thread
        // started so far, so a failed worker spawn leaks none.
        let mut server = Self {
            acceptor,
            workers: Vec::with_capacity(n_workers),
        };
        for i in 0..n_workers {
            let fleet = Arc::clone(&fleet);
            let rx = Arc::clone(&rx);
            let queued = Arc::clone(&queued);
            let worker = std::thread::Builder::new()
                .name(format!("prefall-fleet-conn-{i}"))
                .spawn(move || loop {
                    // The lock is held only across `recv`, which never
                    // leaves the receiver half-updated, so a poisoned
                    // lock is safe to reuse.
                    let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok(stream) = next else {
                        return;
                    };
                    let depth = queued.fetch_sub(1, Ordering::Relaxed) - 1;
                    fleet.note_queue_depth(depth);
                    serve_connection(&fleet, stream);
                    fleet.pressure_dec();
                })?;
            server.workers.push(worker);
        }
        Ok(server)
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Stops accepting, drains in-flight connections and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.acceptor.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Exponential backoff hint: consecutive rejections on one connection
/// double the base, capped at 64×.
fn backoff_ms(base_ms: u64, consecutive_rejects: u32) -> u64 {
    base_ms.saturating_mul(1u64 << consecutive_rejects.saturating_sub(1).min(6))
}

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";
const OVERLOADED: &str = "overloaded; retry after backoff\n";

/// A response before it is written.
struct Reply {
    code: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
    /// The backoff hint every 429 carries, in milliseconds.
    retry_ms: Option<u64>,
}

impl Reply {
    fn new(
        code: u16,
        reason: &'static str,
        content_type: &'static str,
        body: impl Into<Vec<u8>>,
    ) -> Self {
        Self {
            code,
            reason,
            content_type,
            body: body.into(),
            retry_ms: None,
        }
    }

    /// `429 Too Many Requests` with the backoff hint.
    fn too_many(content_type: &'static str, body: impl Into<Vec<u8>>, retry_ms: u64) -> Self {
        Self {
            retry_ms: Some(retry_ms),
            ..Self::new(429, "Too Many Requests", content_type, body)
        }
    }

    /// Writes the reply; a 429 gets `Retry-After` (whole seconds,
    /// rounded up, as HTTP wants) and the precise `Retry-After-Ms`.
    fn write(&self, stream: &mut TcpStream, head_only: bool, keep_alive: bool) -> io::Result<()> {
        let hint = self.retry_ms.map(|ms| {
            [
                ("Retry-After", ms.div_ceil(1000).max(1).to_string()),
                ("Retry-After-Ms", ms.to_string()),
            ]
        });
        http::respond_with(
            stream,
            self.code,
            self.reason,
            self.content_type,
            &self.body,
            head_only,
            keep_alive,
            hint.as_ref().map_or(&[], |h| h.as_slice()),
        )
    }
}

/// Serves one connection's keep-alive request loop.
fn serve_connection(fleet: &Fleet, mut stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let cfg = fleet.config();
    let mut consecutive_rejects: u32 = 0;

    loop {
        let deadline = Instant::now() + cfg.conn_deadline;
        let request = match http::read_request(&mut reader, deadline, cfg.max_body) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                if http::is_timeout(&e) {
                    fleet.note_conn_timeout();
                } else if e.kind() == io::ErrorKind::InvalidData {
                    let _ = Reply::new(400, "Bad Request", TEXT, format!("{e}\n")).write(
                        &mut stream,
                        false,
                        false,
                    );
                }
                return;
            }
        };

        let reply = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/ingest") => ingest(fleet, &request.body, &mut consecutive_rejects),
            ("GET" | "HEAD", "/fleet") => {
                Reply::new(200, "OK", JSON, fleet.stats().to_json().to_string())
            }
            ("GET" | "HEAD", "/healthz") => Reply::new(200, "OK", TEXT, "ok\n"),
            ("GET" | "HEAD", "/") => Reply::new(
                200,
                "OK",
                TEXT,
                "prefall-fleet ingest: POST /ingest, GET /fleet /healthz\n",
            ),
            _ => Reply::new(404, "Not Found", TEXT, "not found\n"),
        };
        let head_only = request.method == "HEAD";
        if reply
            .write(&mut stream, head_only, request.keep_alive)
            .is_err()
            || !request.keep_alive
        {
            return;
        }
    }
}

/// Serves one `POST /ingest` body, applying the backpressure ladder.
fn ingest(fleet: &Fleet, body: &[u8], consecutive_rejects: &mut u32) -> Reply {
    let base_retry_ms = fleet.config().retry_after_ms.max(1);
    if fleet.should_reject() {
        *consecutive_rejects += 1;
        return Reply::too_many(
            TEXT,
            OVERLOADED,
            backoff_ms(base_retry_ms, *consecutive_rejects),
        );
    }
    let batch = match IngestBatch::from_bytes(body) {
        Ok(batch) => batch,
        Err(e) => return Reply::new(400, "Bad Request", TEXT, format!("{e}\n")),
    };

    let start = Instant::now();
    let reply = fleet.ingest_one(&batch);
    fleet.observe_ingest(start.elapsed().as_secs_f64());
    let json = reply.to_json().to_string();

    if reply.status == IngestStatus::Rejected {
        // Session capacity, not transport pressure — same contract:
        // explicit refusal plus a backoff hint, reply body included.
        *consecutive_rejects += 1;
        return Reply::too_many(JSON, json, backoff_ms(base_retry_ms, *consecutive_rejects));
    }
    *consecutive_rejects = 0;
    Reply::new(200, "OK", JSON, json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BatchSample, IngestReply};
    use crate::FleetConfig;
    use prefall_core::detector::{DetectorConfig, GuardConfig};
    use prefall_core::models::ModelKind;
    use prefall_core::pipeline::PipelineConfig;
    use prefall_core::session::ModelBundle;
    use prefall_dsp::segment::Overlap;
    use prefall_dsp::stats::Normalizer;
    use prefall_telemetry::JsonValue;
    use std::io::{BufRead, Read, Write};
    use std::time::Duration;

    fn bundle() -> ModelBundle {
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(400.0, Overlap::Half),
            threshold: 0.5,
            consecutive: 3,
            guard: GuardConfig::default(),
        };
        let window = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(window, 9, 1).unwrap();
        ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap()
    }

    fn start(cfg: FleetConfig) -> (Arc<Fleet>, FleetServer) {
        let fleet = Arc::new(Fleet::new(bundle(), cfg));
        let server = FleetServer::start("127.0.0.1:0", Arc::clone(&fleet)).unwrap();
        (fleet, server)
    }

    fn batch(wearer: u64, seq: u64, len: usize) -> IngestBatch {
        IngestBatch {
            wearer,
            seq,
            samples: (0..len)
                .map(|i| BatchSample::Sample {
                    accel: [0.01 * i as f32, -0.02, 1.0],
                    gyro: [0.3, -0.1 * i as f32, 0.0],
                })
                .collect(),
        }
    }

    struct Response {
        code: u16,
        headers: Vec<(String, String)>,
        body: Vec<u8>,
    }

    impl Response {
        fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str())
        }
        fn json(&self) -> JsonValue {
            JsonValue::parse(std::str::from_utf8(&self.body).unwrap()).unwrap()
        }
    }

    fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let code: u16 = status
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .unwrap();
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((n, v)) = line.split_once(':') {
                let (n, v) = (n.trim().to_string(), v.trim().to_string());
                if n.eq_ignore_ascii_case("content-length") {
                    content_length = v.parse().unwrap();
                }
                headers.push((n, v));
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        Response {
            code,
            headers,
            body,
        }
    }

    fn post_ingest(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        b: &IngestBatch,
    ) -> Response {
        let bytes = b.to_bytes();
        write!(
            stream,
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            bytes.len()
        )
        .unwrap();
        stream.write_all(&bytes).unwrap();
        read_response(reader)
    }

    fn connect(server: &FleetServer) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    #[test]
    fn ingest_round_trips_over_tcp_with_keep_alive() {
        let (fleet, server) = start(FleetConfig::default());
        let (mut stream, mut reader) = connect(&server);

        let first = post_ingest(&mut stream, &mut reader, &batch(7, 0, 60));
        assert_eq!(first.code, 200);
        let reply = IngestReply::from_json(&first.json()).unwrap();
        assert_eq!(reply.status, IngestStatus::Accepted);
        assert_eq!(reply.next_seq, 60);
        assert!(!reply.probs_bits.is_empty());

        // Second request on the same connection: keep-alive works, and
        // a duplicate is recognised, not re-applied.
        let dup = post_ingest(&mut stream, &mut reader, &batch(7, 0, 60));
        assert_eq!(dup.code, 200);
        let reply = IngestReply::from_json(&dup.json()).unwrap();
        assert_eq!(reply.status, IngestStatus::Duplicate);

        assert_eq!(fleet.stats().duplicates, 1);
        server.shutdown();
    }

    #[test]
    fn stats_and_health_endpoints_serve() {
        let (_fleet, server) = start(FleetConfig::default());
        let (mut stream, mut reader) = connect(&server);
        write!(stream, "GET /fleet HTTP/1.1\r\n\r\n").unwrap();
        let resp = read_response(&mut reader);
        assert_eq!(resp.code, 200);
        assert!(resp.json().get("sessions_active").is_some());
        write!(stream, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut reader).code, 200);
        write!(stream, "GET /nope HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut reader).code, 404);
        server.shutdown();
    }

    #[test]
    fn malformed_batches_get_400_and_the_connection_survives() {
        let (_fleet, server) = start(FleetConfig::default());
        let (mut stream, mut reader) = connect(&server);
        write!(stream, "POST /ingest HTTP/1.1\r\nContent-Length: 3\r\n\r\n").unwrap();
        stream.write_all(b"bad").unwrap();
        assert_eq!(read_response(&mut reader).code, 400);
        // Same connection still serves a good batch afterwards.
        let ok = post_ingest(&mut stream, &mut reader, &batch(1, 0, 10));
        assert_eq!(ok.code, 200);
        server.shutdown();
    }

    #[test]
    fn overload_rejections_carry_exponential_retry_hints() {
        // reject_at = 0: every ingest refuses, so the backoff ladder
        // is observable deterministically.
        let (_fleet, server) = start(FleetConfig {
            reject_at: 0,
            retry_after_ms: 250,
            ..FleetConfig::default()
        });
        let (mut stream, mut reader) = connect(&server);
        let mut hints = Vec::new();
        for _ in 0..4 {
            let resp = post_ingest(&mut stream, &mut reader, &batch(1, 0, 10));
            assert_eq!(resp.code, 429);
            assert!(resp.header("Retry-After").is_some());
            hints.push(
                resp.header("Retry-After-Ms")
                    .unwrap()
                    .parse::<u64>()
                    .unwrap(),
            );
        }
        assert_eq!(hints, vec![250, 500, 1000, 2000]);
        server.shutdown();
    }

    #[test]
    fn session_capacity_rejection_is_a_429_with_the_reply_body() {
        let (_fleet, server) = start(FleetConfig {
            shards: 1,
            max_sessions: 1,
            ..FleetConfig::default()
        });
        let (mut stream, mut reader) = connect(&server);
        assert_eq!(
            post_ingest(&mut stream, &mut reader, &batch(1, 0, 10)).code,
            200
        );
        let refused = post_ingest(&mut stream, &mut reader, &batch(2, 0, 10));
        assert_eq!(refused.code, 429);
        assert!(refused.header("Retry-After").is_some());
        let reply = IngestReply::from_json(&refused.json()).unwrap();
        assert_eq!(reply.status, IngestStatus::Rejected);
        // The accepted wearer is still served after the refusal.
        assert_eq!(
            post_ingest(&mut stream, &mut reader, &batch(1, 10, 10)).code,
            200
        );
        server.shutdown();
    }

    #[test]
    fn stalled_connections_are_cut_and_counted() {
        let (fleet, server) = start(FleetConfig {
            conn_deadline: Duration::from_millis(150),
            ..FleetConfig::default()
        });
        let (mut stream, _reader) = connect(&server);
        write!(stream, "POST /ing").unwrap();
        stream.flush().unwrap();
        let mut rest = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let n = stream.read_to_end(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "server closes a stalled connection silently");
        let deadline = Instant::now() + Duration::from_secs(2);
        while fleet.stats().conn_timeouts == 0 {
            assert!(Instant::now() < deadline, "timeout never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn a_client_that_never_reads_is_cut_at_the_write_deadline() {
        let (_fleet, server) = start(FleetConfig {
            conn_workers: 1,
            conn_deadline: Duration::from_millis(150),
            ..FleetConfig::default()
        });
        // Pipeline far more replies than the socket buffers hold (tens
        // of MB) and never read one: the only worker blocks in a write.
        let mut hog = TcpStream::connect(server.addr()).unwrap();
        hog.set_write_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let _ = hog.write_all(&b"GET /fleet HTTP/1.1\r\n\r\n".repeat(100_000));

        let (mut probe, mut reader) = connect(&server);
        // Without a write deadline the probe is never served; fail on
        // the read timeout instead of hanging.
        probe
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let start = Instant::now();
        write!(probe, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut reader).code, 200);
        assert!(start.elapsed() < Duration::from_secs(2));
        server.shutdown();
    }

    #[test]
    fn shutdown_with_no_client_is_prompt() {
        let (_fleet, server) = start(FleetConfig::default());
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "shutdown took {:?}",
            start.elapsed()
        );
    }
}
