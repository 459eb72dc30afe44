//! The TCP ingest endpoint: a hand-rolled HTTP/1.1 server over the
//! shared `prefall-obsd` plumbing, hardened the way the fleet needs.
//!
//! ```text
//! accept thread ──try_send──▶ bounded queue ──recv──▶ conn workers
//!       │ (queue full)                                     │
//!       ▼                                                  ▼
//!  429 + Retry-After                       keep-alive request loop,
//!  straight on the socket                  per-request wall deadline
//! ```
//!
//! Robustness contract, in order of degradation:
//!
//! 1. **Deadlines** — every request read is armed with the time left
//!    until [`FleetConfig::conn_deadline`]; a stalled or trickling
//!    client is cut off and counted (`fleet.conn_timeouts`).
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running ingest server. Dropping it (or calling
/// [`FleetServer::shutdown`]) stops the accept thread, drains the
/// workers and joins them.
#[derive(Debug)]
pub struct FleetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
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
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let cfg = fleet.config();
        let queue_cap = cfg.queue_cap.max(1);
        let n_workers = cfg.conn_workers.max(1);
        let base_retry_ms = cfg.retry_after_ms.max(1);

        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicUsize::new(0));

        let accept = {
            let fleet = Arc::clone(&fleet);
            let stop = Arc::clone(&stop);
            let queued = Arc::clone(&queued);
            std::thread::Builder::new()
                .name("prefall-fleet-accept".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                // Streams are served (and armed with
                                // deadlines) in blocking mode.
                                let _ = stream.set_nonblocking(false);
                                fleet.pressure_inc();
                                let depth = queued.fetch_add(1, Ordering::Relaxed) + 1;
                                fleet.note_queue_depth(depth);
                                if let Err(TrySendError::Full(mut stream))
                                | Err(TrySendError::Disconnected(mut stream)) =
                                    tx.try_send(stream)
                                {
                                    // Queue full: refuse at the door
                                    // with a retry hint rather than
                                    // letting the connection rot.
                                    queued.fetch_sub(1, Ordering::Relaxed);
                                    fleet.pressure_dec();
                                    let _ = respond_429(&mut stream, base_retry_ms, false);
                                }
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                    // `tx` drops here; workers drain and see the
                    // channel disconnect.
                })?
        };

        // From here on, dropping `server` stops and joins every thread
        // started so far, so a failed worker spawn leaks none.
        let mut server = Self {
            addr: local,
            stop: Arc::clone(&stop),
            accept: Some(accept),
            workers: Vec::with_capacity(n_workers),
        };
        for i in 0..n_workers {
            let fleet = Arc::clone(&fleet);
            let stop = Arc::clone(&stop);
            let rx = Arc::clone(&rx);
            let queued = Arc::clone(&queued);
            let worker = std::thread::Builder::new()
                .name(format!("prefall-fleet-conn-{i}"))
                .spawn(move || loop {
                    // The lock is held only across `recv_timeout`,
                    // which never leaves the receiver half-updated, so
                    // a poisoned lock is safe to reuse.
                    let next = rx
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .recv_timeout(Duration::from_millis(100));
                    match next {
                        Ok(stream) => {
                            let depth = queued.fetch_sub(1, Ordering::Relaxed) - 1;
                            fleet.note_queue_depth(depth);
                            serve_connection(&fleet, stream);
                            fleet.pressure_dec();
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                })?;
            server.workers.push(worker);
        }
        Ok(server)
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight connections and joins every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
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

/// Writes a `429 Too Many Requests` with `Retry-After` (whole seconds,
/// rounded up, as HTTP wants) and the precise `Retry-After-Ms` hint.
fn respond_429(stream: &mut TcpStream, retry_ms: u64, keep_alive: bool) -> io::Result<()> {
    let retry_s = retry_ms.div_ceil(1000).max(1);
    http::respond_with(
        stream,
        429,
        "Too Many Requests",
        "text/plain; charset=utf-8",
        b"overloaded; retry after backoff\n",
        false,
        keep_alive,
        &[
            ("Retry-After", retry_s.to_string()),
            ("Retry-After-Ms", retry_ms.to_string()),
        ],
    )
}

/// Serves one connection's keep-alive request loop.
fn serve_connection(fleet: &Fleet, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
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
                    let _ = http::respond_with(
                        &mut stream,
                        400,
                        "Bad Request",
                        "text/plain; charset=utf-8",
                        format!("{e}\n").as_bytes(),
                        false,
                        false,
                        &[],
                    );
                }
                return;
            }
        };

        let keep_alive = request.keep_alive;
        let served = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/ingest") => serve_ingest(fleet, &mut stream, &request.body, keep_alive, {
                &mut consecutive_rejects
            }),
            ("GET" | "HEAD", "/fleet") => http::respond_with(
                &mut stream,
                200,
                "OK",
                "application/json",
                fleet.stats().to_json().to_string().as_bytes(),
                request.method == "HEAD",
                keep_alive,
                &[],
            ),
            ("GET" | "HEAD", "/healthz") => http::respond_with(
                &mut stream,
                200,
                "OK",
                "text/plain; charset=utf-8",
                b"ok\n",
                request.method == "HEAD",
                keep_alive,
                &[],
            ),
            ("GET" | "HEAD", "/") => http::respond_with(
                &mut stream,
                200,
                "OK",
                "text/plain; charset=utf-8",
                b"prefall-fleet ingest: POST /ingest, GET /fleet /healthz\n",
                request.method == "HEAD",
                keep_alive,
                &[],
            ),
            _ => http::respond_with(
                &mut stream,
                404,
                "Not Found",
                "text/plain; charset=utf-8",
                b"not found\n",
                false,
                keep_alive,
                &[],
            ),
        };
        if served.is_err() || !keep_alive {
            return;
        }
    }
}

/// Serves one `POST /ingest` request, applying the backpressure ladder.
fn serve_ingest(
    fleet: &Fleet,
    stream: &mut TcpStream,
    body: &[u8],
    keep_alive: bool,
    consecutive_rejects: &mut u32,
) -> io::Result<()> {
    let cfg = fleet.config();
    if fleet.should_reject() {
        *consecutive_rejects += 1;
        return respond_429(
            stream,
            backoff_ms(cfg.retry_after_ms.max(1), *consecutive_rejects),
            keep_alive,
        );
    }
    let batch = match IngestBatch::from_bytes(body) {
        Ok(batch) => batch,
        Err(e) => {
            return http::respond_with(
                stream,
                400,
                "Bad Request",
                "text/plain; charset=utf-8",
                format!("{e}\n").as_bytes(),
                false,
                keep_alive,
                &[],
            );
        }
    };

    let start = Instant::now();
    let reply = fleet.ingest_one(&batch);
    fleet.observe_ingest(start.elapsed().as_secs_f64());

    if reply.status == IngestStatus::Rejected {
        // Session capacity, not transport pressure — same contract:
        // explicit refusal plus a backoff hint, reply body included.
        *consecutive_rejects += 1;
        let retry_ms = backoff_ms(cfg.retry_after_ms.max(1), *consecutive_rejects);
        let retry_s = retry_ms.div_ceil(1000).max(1);
        return http::respond_with(
            stream,
            429,
            "Too Many Requests",
            "application/json",
            reply.to_json().to_string().as_bytes(),
            false,
            keep_alive,
            &[
                ("Retry-After", retry_s.to_string()),
                ("Retry-After-Ms", retry_ms.to_string()),
            ],
        );
    }

    *consecutive_rejects = 0;
    http::respond_with(
        stream,
        200,
        "OK",
        "application/json",
        reply.to_json().to_string().as_bytes(),
        false,
        keep_alive,
        &[],
    )
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
}
