//! A hand-rolled HTTP/1.1 exporter on [`std::net::TcpListener`]: one
//! background thread, a shared [`Registry`], a handful of routes.
//!
//! | route | serves |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition of the live registry |
//! | `GET /healthz` | JSON liveness + lead-time-budget verdict (`503` when degraded) |
//! | `GET /snapshot` | full registry snapshot as JSON, plus derived `guard` / `detector_mode` objects |
//! | `GET /incidents` | summaries of recent incident dumps (with an [`IncidentSource`] attached) |
//! | `GET /incidents/{id}` | one full incident dump as JSON |
//! | `GET /trace` | the most recently drained Chrome trace (with a [`LastTrace`] attached) — save it and open in Perfetto |
//! | `GET /tsdb?series=&window=` | windowed points of one sampled series, or the series catalogue (with a [`WatchSource`] attached) |
//! | `GET /slo` | current SLO evaluation state: burn rates, firing flags |
//! | `GET /alerts` | recent alert fire/resolve transitions |
//! | `GET /drift?tenant=` | drift fingerprint scores, fleet-wide or per tenant (with a [`DriftSource`] attached) |
//!
//! The server deliberately implements only what a scraper needs:
//! `GET`/`HEAD`, `Connection: close`, `Content-Length` framing — the
//! shared dialect in [`crate::http`]. There is no TLS, keep-alive, or
//! chunking — it binds to loopback in every shipped configuration and
//! a real deployment would sit it behind the service mesh anyway.
//!
//! Every connection runs under [`ServerConfig::conn_deadline`]: a
//! client that dials in and trickles its request one byte at a time
//! (slowloris) is cut off when the budget runs out — the serving
//! thread is single and serial, so one stuck socket would otherwise
//! blind every scraper. Cut-offs are counted as `obsd.conn_timeouts`.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

use crate::drift::DriftSource;
use crate::health::HealthReport;
use crate::http;
use crate::incidents::IncidentSource;
use crate::prometheus;
use crate::watch::WatchSource;
use prefall_telemetry::{JsonValue, Registry, Snapshot};
use prefall_trace::LastTrace;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exporter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Namespace prefixed to every exported metric name.
    pub namespace: String,
    /// Airbag inflation budget (ms) the health probe judges lead times
    /// against.
    pub budget_ms: f64,
    /// Minimum acceptable fraction of lead times ≥ budget before
    /// `/healthz` degrades.
    pub min_budget_fraction: f64,
    /// Maximum acceptable sensor fault rate (`guard.faults` per
    /// `guard.samples`) before `/healthz` degrades.
    pub max_fault_rate: f64,
    /// Wall-clock budget for one whole connection (request read +
    /// response write). A scraper finishes in milliseconds; a
    /// slowloris is cut off here and counted as `obsd.conn_timeouts`.
    pub conn_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            namespace: "prefall".to_string(),
            budget_ms: 150.0,
            min_budget_fraction: 0.9,
            max_fault_rate: 0.05,
            conn_deadline: Duration::from_secs(5),
        }
    }
}

/// The optional providers an exporter serves from, beyond the registry.
/// `Sources::default()` attaches none: `/metrics`, `/healthz` and
/// `/snapshot` only.
#[derive(Default)]
pub struct Sources {
    /// Serves `/incidents` (summary list) and `/incidents/{id}` (full
    /// dump detail); every `/healthz` verdict is fed back to it so a
    /// flight recorder can dump on the healthy → degraded edge.
    pub incidents: Option<Arc<dyn IncidentSource>>,
    /// Serves `/trace`: the most recently drained Chrome trace-event
    /// JSON. Whoever drains (a profile run, the streaming detector's
    /// supervisor) publishes via [`LastTrace::store`] and any Perfetto
    /// user pulls it over HTTP.
    pub trace: Option<Arc<LastTrace>>,
    /// Serves `/tsdb`, `/slo` and `/alerts`; a firing SLO flips
    /// `/healthz` to `503` with the firing names listed under
    /// `"slo_firing"`.
    pub watch: Option<Arc<dyn WatchSource>>,
    /// Serves `/drift` (the global fingerprint-vs-reference scores) and
    /// `/drift?tenant=<wearer>` (the per-tenant view).
    pub drift: Option<Arc<dyn DriftSource>>,
}

/// A running metrics endpoint. Dropping the handle stops the listener
/// thread (see [`MetricsServer::shutdown`] for the explicit form).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9898`; port `0` picks a free port,
    /// see [`MetricsServer::addr`]) and starts serving the registry, plus
    /// whatever `sources` attaches, on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (`EADDRINUSE`, permission, bad address)
    /// and a failure to spawn the serving thread.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: Arc<Registry>,
        config: ServerConfig,
        sources: Sources,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the thread can notice the stop flag
        // without needing a wake-up connection.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("prefall-obsd".to_string())
            .spawn(move || serve_loop(listener, registry, config, sources, thread_stop))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Convenience base URL, e.g. `http://127.0.0.1:9898`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_loop(
    listener: TcpListener,
    registry: Arc<Registry>,
    config: ServerConfig,
    sources: Sources,
    stop: Arc<AtomicBool>,
) {
    use prefall_telemetry::Recorder;
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Scrapes are small and rare; handling them serially
                // keeps the server single-threaded and unkillable by
                // thread exhaustion. A stuck client is bounded by the
                // per-connection deadline.
                let _ = handle_connection(stream, &registry, &config, &sources);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                // Real accept failures (EMFILE, ECONNABORTED storms)
                // are invisible without a counter — a scraper just sees
                // timeouts. Count them where /metrics can see them.
                registry.counter_add("obsd.accept_errors", 1);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    registry: &Registry,
    config: &ServerConfig,
    sources: &Sources,
) -> std::io::Result<()> {
    use prefall_telemetry::Recorder;
    let incidents = sources.incidents.as_deref();
    let trace = sources.trace.as_deref();
    let watch = sources.watch.as_deref();
    let drift = sources.drift.as_deref();

    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(config.conn_deadline))?;
    // The whole exchange — however slowly the client dribbles it —
    // must fit in one deadline. `read_request` re-arms the socket
    // timeout with the remaining budget before every read.
    let deadline = Instant::now() + config.conn_deadline;
    let mut reader = BufReader::new(stream);
    let request = match http::read_request(&mut reader, deadline, 4096) {
        Ok(Some(request)) => request,
        // Peer closed before sending anything: nothing to do.
        Ok(None) => return Ok(()),
        Err(e) => {
            if http::is_timeout(&e) {
                // The slowloris counter: connections cut off mid-read.
                registry.counter_add("obsd.conn_timeouts", 1);
            }
            return Err(e);
        }
    };
    let method = request.method.as_str();
    let path = request.path.as_str();

    let mut stream = reader.into_inner();
    if method != "GET" && method != "HEAD" {
        return http::respond(
            &mut stream,
            405,
            "Method Not Allowed",
            TEXT,
            "method not allowed\n",
            method == "HEAD",
        );
    }

    // Strip any query string: `/metrics?format=…` still serves metrics.
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    let (code, reason, content_type, body) = match route {
        "/metrics" => (
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            prometheus::render(&registry.snapshot(), &config.namespace),
        ),
        "/healthz" => {
            let report = HealthReport::from_snapshot(
                &registry.snapshot(),
                config.budget_ms,
                config.min_budget_fraction,
                config.max_fault_rate,
            );
            let mut code = report.status.http_code();
            let mut doc = report.to_json();
            // A firing SLO degrades the probe even when the point-in-
            // time snapshot looks fine: burn-rate breaches are exactly
            // the failures a single snapshot can't see.
            let firing = watch.map(|w| w.firing_slos()).unwrap_or_default();
            if !firing.is_empty() {
                code = 503;
                if let JsonValue::Obj(fields) = &mut doc {
                    fields.push((
                        "slo_firing".to_string(),
                        JsonValue::Arr(firing.into_iter().map(JsonValue::Str).collect()),
                    ));
                    for (k, v) in fields.iter_mut() {
                        if k == "status" {
                            *v = JsonValue::Str("degraded".to_string());
                        }
                    }
                }
            }
            let reason = if code == 200 {
                "OK"
            } else {
                "Service Unavailable"
            };
            if let Some(src) = incidents {
                src.on_health_status(code != 200, &doc);
            }
            (code, reason, JSON, format!("{doc}\n"))
        }
        "/snapshot" => json_reply(&snapshot_json(&registry.snapshot())),
        "/incidents" => match incidents {
            Some(src) => json_reply(&src.list_json()),
            None => not_found("no incident source attached"),
        },
        p if p.starts_with("/incidents/") => {
            let id = p.strip_prefix("/incidents/").unwrap_or_default();
            match incidents.and_then(|src| src.get_json(id)) {
                Some(doc) => json_reply(&doc),
                None => not_found("unknown incident"),
            }
        }
        "/trace" => match trace.and_then(LastTrace::latest) {
            Some(body) => (200, "OK", JSON, body + "\n"),
            None if trace.is_some() => not_found("no trace drained yet"),
            None => not_found("no trace store attached"),
        },
        "/tsdb" => match watch {
            Some(w) => match query_param(query, "series") {
                Some(name) => {
                    let window = query_param(query, "window").and_then(|s| s.parse::<f64>().ok());
                    match w.tsdb_json(name, window) {
                        Some(doc) => json_reply(&doc),
                        None => not_found("unknown series"),
                    }
                }
                None => json_reply(&w.series_json()),
            },
            None => not_found("no watch source attached"),
        },
        "/slo" => match watch {
            Some(w) => json_reply(&w.slo_json()),
            None => not_found("no watch source attached"),
        },
        "/alerts" => match watch {
            Some(w) => json_reply(&w.alerts_json()),
            None => not_found("no watch source attached"),
        },
        "/drift" => match drift {
            Some(d) => match query_param(query, "tenant").map(|t| t.parse::<u64>()) {
                Some(Err(_)) => (
                    400,
                    "Bad Request",
                    TEXT,
                    "tenant must be an unsigned integer\n".to_string(),
                ),
                parsed => match d.drift_json(parsed.and_then(Result::ok)) {
                    Some(doc) => json_reply(&doc),
                    None => not_found("unknown tenant"),
                },
            },
            None => not_found("no drift source attached"),
        },
        "/" => (
            200,
            "OK",
            TEXT,
            "prefall-obsd: /metrics /healthz /snapshot /incidents /trace /tsdb?series=&window= /slo /alerts /drift?tenant=\n"
                .to_string(),
        ),
        _ => not_found("not found"),
    };
    http::respond(
        &mut stream,
        code,
        reason,
        content_type,
        &body,
        method == "HEAD",
    )
}

const JSON: &str = "application/json; charset=utf-8";
const TEXT: &str = "text/plain; charset=utf-8";

/// A response: status code, reason phrase, content type, body.
type Reply = (u16, &'static str, &'static str, String);

/// `200 OK` with a JSON document.
fn json_reply(doc: &JsonValue) -> Reply {
    (200, "OK", JSON, format!("{doc}\n"))
}

/// `404 Not Found` with a one-line plain-text reason.
fn not_found(reason: &str) -> Reply {
    (404, "Not Found", TEXT, format!("{reason}\n"))
}

/// The `/snapshot` document: the registry snapshot plus derived
/// `guard` (from the `guard.*` counters, [`GuardStatus`]-shaped) and
/// `detector_mode` (from the `detector.mode.*` gauges, as booleans)
/// objects, so degraded state is visible without parsing `/metrics`.
///
/// [`GuardStatus`]: https://docs.rs/prefall-core
fn snapshot_json(snap: &Snapshot) -> JsonValue {
    let mut doc = match snap.to_json() {
        JsonValue::Obj(fields) => fields,
        other => return other,
    };
    let guard: Vec<(String, JsonValue)> = snap
        .counters
        .iter()
        .filter_map(|(k, &v)| {
            k.strip_prefix("guard.")
                .map(|s| (s.to_string(), JsonValue::U64(v)))
        })
        .collect();
    doc.push(("guard".to_string(), JsonValue::Obj(guard)));
    let mode: Vec<(String, JsonValue)> = snap
        .gauges
        .iter()
        .filter_map(|(k, &v)| {
            k.strip_prefix("detector.mode.")
                .map(|s| (s.to_string(), JsonValue::Bool(v != 0.0)))
        })
        .collect();
    doc.push(("detector_mode".to_string(), JsonValue::Obj(mode)));
    JsonValue::Obj(doc)
}

/// The value of `key` in a raw query string (`a=1&b=2`). No percent
/// decoding — series names here are metric identifiers, which never
/// need it.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefall_telemetry::Recorder;
    use std::io::{Read, Write};

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let code = response
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    #[test]
    fn serves_metrics_health_and_snapshot() {
        let registry = Arc::new(Registry::new());
        registry.counter_add("detector.windows", 3);
        registry.observe("detector.infer_seconds", 4e-3);
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            Sources::default(),
        )
        .expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("prefall_detector_windows_total 3"), "{body}");
        assert!(body.contains("prefall_detector_infer_seconds_bucket"));

        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        assert!(body.contains("\"detector_live\":true"), "{body}");

        let (code, body) = get(addr, "/snapshot");
        assert_eq!(code, 200);
        let parsed = prefall_telemetry::JsonValue::parse(body.trim()).expect("valid json");
        assert!(parsed.get("counters").is_some());

        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);
        let (code, _) = get(addr, "/incidents");
        assert_eq!(code, 404, "no incident source attached");
        server.shutdown();
    }

    #[test]
    fn snapshot_exposes_guard_and_mode_state() {
        let registry = Arc::new(Registry::new());
        registry.counter_add("guard.samples", 500);
        registry.counter_add("guard.nonfinite", 3);
        registry.gauge_set("detector.mode.gyro_degraded", 1.0);
        registry.gauge_set("detector.mode.stale", 0.0);
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            Sources::default(),
        )
        .expect("bind");
        let (code, body) = get(server.addr(), "/snapshot");
        assert_eq!(code, 200);
        let parsed = prefall_telemetry::JsonValue::parse(body.trim()).expect("valid json");
        let guard = parsed.get("guard").expect("guard object");
        assert_eq!(guard.get("samples").and_then(|v| v.as_u64()), Some(500));
        assert_eq!(guard.get("nonfinite").and_then(|v| v.as_u64()), Some(3));
        let mode = parsed.get("detector_mode").expect("detector_mode object");
        assert_eq!(
            mode.get("gyro_degraded").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(mode.get("stale").and_then(|v| v.as_bool()), Some(false));
        server.shutdown();
    }

    /// A fixed two-incident source for route tests.
    #[derive(Debug)]
    struct FakeSource {
        health_calls: std::sync::Mutex<Vec<bool>>,
    }

    impl IncidentSource for FakeSource {
        fn list_json(&self) -> JsonValue {
            JsonValue::Arr(vec![JsonValue::Obj(vec![(
                "id".to_string(),
                JsonValue::Str("inc-1".to_string()),
            )])])
        }

        fn get_json(&self, id: &str) -> Option<JsonValue> {
            (id == "inc-1").then(|| {
                JsonValue::Obj(vec![
                    ("id".to_string(), JsonValue::Str("inc-1".to_string())),
                    ("reason".to_string(), JsonValue::Str("test".to_string())),
                ])
            })
        }

        fn on_health_status(&self, degraded: bool, _report: &JsonValue) {
            self.health_calls.lock().unwrap().push(degraded);
        }
    }

    #[test]
    fn serves_incidents_and_feeds_health_verdicts_back() {
        let registry = Arc::new(Registry::new());
        let source = Arc::new(FakeSource {
            health_calls: std::sync::Mutex::new(Vec::new()),
        });
        let sources = Sources {
            incidents: Some(Arc::clone(&source) as Arc<dyn IncidentSource>),
            ..Sources::default()
        };
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            sources,
        )
        .expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/incidents");
        assert_eq!(code, 200);
        assert!(body.contains("\"inc-1\""), "{body}");

        let (code, body) = get(addr, "/incidents/inc-1");
        assert_eq!(code, 200);
        assert!(body.contains("\"reason\":\"test\""), "{body}");

        let (code, _) = get(addr, "/incidents/inc-99");
        assert_eq!(code, 404);

        let (code, _) = get(addr, "/healthz");
        assert_eq!(code, 200);
        assert_eq!(source.health_calls.lock().unwrap().as_slice(), &[false]);
        server.shutdown();
    }

    #[test]
    fn healthz_degrades_on_short_lead_times() {
        let registry = Arc::new(Registry::new());
        registry.register_histogram(
            crate::health::LEAD_TIME_METRIC,
            vec![50.0, 100.0, 150.0, 500.0],
        );
        for _ in 0..10 {
            registry.observe(crate::health::LEAD_TIME_METRIC, 40.0);
        }
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            Sources::default(),
        )
        .expect("bind");
        let (code, body) = get(server.addr(), "/healthz");
        assert_eq!(code, 503);
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
    }

    #[test]
    fn healthz_degrades_on_sensor_fault_storm() {
        let registry = Arc::new(Registry::new());
        // A fault rate of 12 % against the default 5 % budget: the
        // model is fine (no lead times recorded) but the IMU is not.
        registry.counter_add(crate::health::GUARD_SAMPLES_METRIC, 1000);
        registry.counter_add(crate::health::GUARD_FAULTS_METRIC, 120);
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            Sources::default(),
        )
        .expect("bind");
        let (code, body) = get(server.addr(), "/healthz");
        assert_eq!(code, 503);
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("\"faults_over_budget\":true"), "{body}");
        server.shutdown();
    }

    #[test]
    fn serves_trace_when_attached_and_404s_otherwise() {
        let registry = Arc::new(Registry::new());
        let store = Arc::new(LastTrace::new());
        let sources = Sources {
            trace: Some(Arc::clone(&store)),
            ..Sources::default()
        };
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            sources,
        )
        .expect("bind");
        let addr = server.addr();

        // Attached but nothing drained yet.
        let (code, body) = get(addr, "/trace");
        assert_eq!(code, 404);
        assert!(body.contains("no trace drained yet"), "{body}");

        store.store("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}".to_string());
        let (code, body) = get(addr, "/trace");
        assert_eq!(code, 200);
        assert!(body.contains("\"traceEvents\""), "{body}");
        server.shutdown();

        // No store attached at all.
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            Sources::default(),
        )
        .expect("bind");
        let (code, body) = get(server.addr(), "/trace");
        assert_eq!(code, 404);
        assert!(body.contains("no trace store attached"), "{body}");
        server.shutdown();
    }

    /// A canned watch source for route tests.
    #[derive(Debug)]
    struct FakeWatch {
        firing: Vec<String>,
    }

    impl crate::watch::WatchSource for FakeWatch {
        fn tsdb_json(&self, series: &str, window_s: Option<f64>) -> Option<JsonValue> {
            (series == "detector.windows").then(|| {
                JsonValue::Obj(vec![
                    ("series".to_string(), JsonValue::Str(series.to_string())),
                    (
                        "window_s".to_string(),
                        JsonValue::F64(window_s.unwrap_or(-1.0)),
                    ),
                ])
            })
        }

        fn series_json(&self) -> JsonValue {
            JsonValue::Arr(vec![JsonValue::Str("detector.windows".to_string())])
        }

        fn slo_json(&self) -> JsonValue {
            JsonValue::Arr(vec![])
        }

        fn alerts_json(&self) -> JsonValue {
            JsonValue::Arr(vec![])
        }

        fn firing_slos(&self) -> Vec<String> {
            self.firing.clone()
        }
    }

    #[test]
    fn serves_watch_routes_and_parses_query() {
        let registry = Arc::new(Registry::new());
        let watch = Arc::new(FakeWatch { firing: vec![] });
        let sources = Sources {
            watch: Some(watch as Arc<dyn crate::watch::WatchSource>),
            ..Sources::default()
        };
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            sources,
        )
        .expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/tsdb?series=detector.windows&window=60");
        assert_eq!(code, 200);
        assert!(body.contains("\"window_s\":60.0"), "{body}");

        let (code, body) = get(addr, "/tsdb");
        assert_eq!(code, 200);
        assert!(body.contains("detector.windows"), "{body}");

        let (code, _) = get(addr, "/tsdb?series=nope");
        assert_eq!(code, 404);

        let (code, _) = get(addr, "/slo");
        assert_eq!(code, 200);
        let (code, _) = get(addr, "/alerts");
        assert_eq!(code, 200);

        // Healthy probe: no firing SLOs, snapshot fine.
        let (code, _) = get(addr, "/healthz");
        assert_eq!(code, 200);

        let (code, body) = get(addr, "/");
        assert_eq!(code, 200);
        for route in [
            "/metrics",
            "/healthz",
            "/snapshot",
            "/incidents",
            "/trace",
            "/tsdb",
            "/slo",
            "/alerts",
            "/drift",
        ] {
            assert!(body.contains(route), "index missing {route}: {body}");
        }
        server.shutdown();

        // Watch routes 404 without a source.
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            Sources::default(),
        )
        .expect("bind");
        let (code, body) = get(server.addr(), "/slo");
        assert_eq!(code, 404);
        assert!(body.contains("no watch source attached"), "{body}");
        server.shutdown();
    }

    #[test]
    fn firing_slo_degrades_healthz_and_names_the_slo() {
        let registry = Arc::new(Registry::new());
        let watch = Arc::new(FakeWatch {
            firing: vec!["fa_rate".to_string()],
        });
        let sources = Sources {
            watch: Some(watch as Arc<dyn crate::watch::WatchSource>),
            ..Sources::default()
        };
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            sources,
        )
        .expect("bind");
        let (code, body) = get(server.addr(), "/healthz");
        assert_eq!(code, 503);
        assert!(body.contains("\"slo_firing\":[\"fa_rate\"]"), "{body}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        server.shutdown();
    }

    #[test]
    fn rejects_post_and_serves_live_updates() {
        let registry = Arc::new(Registry::new());
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            Sources::default(),
        )
        .expect("bind");
        let addr = server.addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");

        // The registry is shared: a counter bumped after startup is
        // visible on the next scrape.
        registry.counter_add("live.updates", 1);
        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("prefall_live_updates_total 1"), "{body}");
    }

    /// A canned drift source: knows tenant 7 and the global view.
    #[derive(Debug)]
    struct FakeDrift;

    impl DriftSource for FakeDrift {
        fn drift_json(&self, tenant: Option<u64>) -> Option<JsonValue> {
            match tenant {
                None => Some(JsonValue::Obj(vec![(
                    "input_psi".to_string(),
                    JsonValue::F64(0.01),
                )])),
                Some(7) => Some(JsonValue::Obj(vec![(
                    "tenant".to_string(),
                    JsonValue::U64(7),
                )])),
                Some(_) => None,
            }
        }
    }

    #[test]
    fn serves_drift_views_with_tenant_validation() {
        let registry = Arc::new(Registry::new());
        let sources = Sources {
            drift: Some(Arc::new(FakeDrift) as Arc<dyn DriftSource>),
            ..Sources::default()
        };
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            sources,
        )
        .expect("bind");
        let addr = server.addr();

        let (code, body) = get(addr, "/drift");
        assert_eq!(code, 200);
        assert!(body.contains("\"input_psi\":0.01"), "{body}");

        let (code, body) = get(addr, "/drift?tenant=7");
        assert_eq!(code, 200);
        assert!(body.contains("\"tenant\":7"), "{body}");

        let (code, body) = get(addr, "/drift?tenant=99");
        assert_eq!(code, 404);
        assert!(body.contains("unknown tenant"), "{body}");

        let (code, body) = get(addr, "/drift?tenant=bogus");
        assert_eq!(code, 400);
        assert!(body.contains("unsigned integer"), "{body}");
        server.shutdown();

        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
            Sources::default(),
        )
        .expect("bind");
        let (code, body) = get(server.addr(), "/drift");
        assert_eq!(code, 404);
        assert!(body.contains("no drift source attached"), "{body}");
        server.shutdown();
    }

    #[test]
    fn slowloris_connections_are_cut_at_the_deadline_and_counted() {
        let registry = Arc::new(Registry::new());
        let config = ServerConfig {
            conn_deadline: Duration::from_millis(200),
            ..ServerConfig::default()
        };
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&registry),
            config,
            Sources::default(),
        )
        .expect("bind");
        let addr = server.addr();

        // The attack: dial in and never finish the request line. The
        // serving thread is serial, so before the deadline existed
        // this pinned every scraper for the full socket timeout.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metr").unwrap();
        stream.flush().unwrap();
        let start = Instant::now();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = Vec::new();
        let n = stream.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "server must hang up without a response");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cut-off must be deadline-bounded, took {:?}",
            start.elapsed()
        );

        // The thread survived the attack and counted it.
        let (code, _) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert_eq!(
            registry
                .snapshot()
                .counters
                .get("obsd.conn_timeouts")
                .copied(),
            Some(1)
        );
        server.shutdown();
    }
}
