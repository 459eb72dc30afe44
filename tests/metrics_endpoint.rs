//! End-to-end exporter test: a real detector-shaped registry served by
//! [`prefall::obsd::MetricsServer`] and scraped through a plain
//! `TcpStream`, exercising the same HTTP path a Prometheus scraper (or
//! the README's `curl` examples) would take.

use prefall::obsd::{MetricsServer, ServerConfig, Sources};
use prefall::telemetry::{Recorder, Registry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// One raw HTTP GET, returning (status-line, body).
fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

fn detector_shaped_registry() -> Arc<Registry> {
    let reg = Arc::new(Registry::new());
    reg.counter_add("detector.windows", 1234);
    reg.counter_add("quality.fall_events{task=39}", 5);
    reg.counter_add("quality.fall_missed{task=39}", 1);
    reg.counter_add("quality.adl_false_activations{risk=red}", 2);
    reg.gauge_set("quality.lead_budget_fraction", 0.93);
    reg.gauge_set("quality.lead_budget_ms", 150.0);
    reg.register_histogram("detector.infer_seconds", vec![1e-5, 1e-4, 1e-3]);
    for v in [2e-5, 5e-5, 8e-5, 2e-4] {
        reg.observe("detector.infer_seconds", v);
    }
    reg.register_histogram("detector.lead_time_ms", vec![150.0, 300.0, 600.0]);
    for v in [120.0, 250.0, 400.0, 500.0] {
        reg.observe("detector.lead_time_ms", v);
    }
    reg
}

#[test]
fn metrics_endpoint_round_trip() {
    let reg = detector_shaped_registry();
    let server = MetricsServer::start(
        "127.0.0.1:0",
        reg,
        ServerConfig::default(),
        Sources::default(),
    )
    .expect("server");
    let addr = server.addr();

    let (status, body) = get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");

    // Inference-latency histogram with cumulative buckets.
    assert!(body.contains("# TYPE prefall_detector_infer_seconds histogram"));
    assert!(body.contains("prefall_detector_infer_seconds_bucket{le=\"0.0001\"} 3"));
    assert!(body.contains("prefall_detector_infer_seconds_bucket{le=\"+Inf\"} 4"));
    assert!(body.contains("prefall_detector_infer_seconds_count 4"));

    // Per-activity confusion counters with real labels.
    assert!(body.contains("prefall_quality_fall_events_total{task=\"39\"} 5"));
    assert!(body.contains("prefall_quality_fall_missed_total{task=\"39\"} 1"));
    assert!(body.contains("prefall_quality_adl_false_activations_total{risk=\"red\"} 2"));

    // Lead-time-budget gauge.
    assert!(body.contains("prefall_quality_lead_budget_fraction 0.93"));
    assert!(body.contains("prefall_quality_lead_budget_ms 150.0"));
}

#[test]
fn healthz_reflects_lead_time_budget() {
    let reg = detector_shaped_registry();
    // 3 of 4 recorded lead times ≥ 150 ms; the 0.9 default floor makes
    // that degraded, a 0.5 floor healthy.
    let config = ServerConfig::default();
    let degraded = MetricsServer::start("127.0.0.1:0", reg.clone(), config, Sources::default())
        .expect("server");
    let (status, body) = get(degraded.addr(), "/healthz");
    assert!(status.contains("503"), "{status}: {body}");
    assert!(body.contains("degraded"));

    let relaxed = MetricsServer::start(
        "127.0.0.1:0",
        reg,
        ServerConfig {
            min_budget_fraction: 0.5,
            ..ServerConfig::default()
        },
        Sources::default(),
    )
    .expect("server");
    let (status, body) = get(relaxed.addr(), "/healthz");
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains("ok"));
}

#[test]
fn snapshot_endpoint_serves_registry_json() {
    let reg = detector_shaped_registry();
    let server = MetricsServer::start(
        "127.0.0.1:0",
        reg,
        ServerConfig::default(),
        Sources::default(),
    )
    .expect("server");
    let (status, body) = get(server.addr(), "/snapshot");
    assert!(status.contains("200"));
    let doc = prefall::telemetry::JsonValue::parse(body.trim()).expect("valid JSON");
    let counters = doc.get("counters").expect("counters section");
    assert_eq!(
        counters.get("detector.windows").and_then(|v| v.as_f64()),
        Some(1234.0)
    );
}

#[test]
fn trace_endpoint_serves_a_drained_timeline() {
    // Record a real (tiny) timeline through the public tracing API,
    // drain it to Chrome JSON, and serve it the way `prefall-profile`
    // does: `LastTrace` attached as `Sources::trace`.
    prefall::trace::arm(256);
    let span = prefall::trace::intern("e2e.trace_span");
    {
        let _g = prefall::trace::trace_span!(span);
    }
    prefall::trace::disarm();
    let chrome = prefall::trace::drain().to_chrome_json();
    assert!(chrome.contains("e2e.trace_span"), "span survives the drain");

    let store = Arc::new(prefall::trace::LastTrace::new());
    let sources = Sources {
        trace: Some(store.clone()),
        ..Sources::default()
    };
    let server = MetricsServer::start(
        "127.0.0.1:0",
        Arc::new(Registry::new()),
        ServerConfig::default(),
        sources,
    )
    .expect("server");

    // Before any trace is published: 404, not an empty document.
    let (status, _) = get(server.addr(), "/trace");
    assert!(status.contains("404"), "{status}");

    store.store(chrome);
    let (status, body) = get(server.addr(), "/trace");
    assert!(status.contains("200"), "{status}");
    let doc = prefall::telemetry::JsonValue::parse(body.trim()).expect("valid JSON");
    let events = doc.get("traceEvents").expect("traceEvents array");
    let rendered = events.to_string();
    assert!(rendered.contains("e2e.trace_span"), "{rendered}");
}

#[test]
fn unknown_path_is_404_and_post_is_405() {
    let reg = Arc::new(Registry::new());
    let server = MetricsServer::start(
        "127.0.0.1:0",
        reg,
        ServerConfig::default(),
        Sources::default(),
    )
    .expect("server");
    let (status, _) = get(server.addr(), "/nope");
    assert!(status.contains("404"), "{status}");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write!(
        stream,
        "POST /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");
}
