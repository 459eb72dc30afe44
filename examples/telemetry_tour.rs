//! Tour of `prefall-telemetry`: recorders, RAII spans, counters, gauges,
//! latency histograms, the mergeable registry snapshot, the rendered
//! summary table, the JSONL event stream — first hand-rolled, then
//! attached to a real instrumented experiment — then the
//! `prefall-obsd` exporter serving it all over HTTP, the flight
//! recorder's incident forensics, watch SLO burn-rate alerting, and
//! label-free drift fingerprints scoring a live stream against a
//! committed reference.
//!
//! ```text
//! cargo run --release --example telemetry_tour
//! ```

use prefall::core::experiment::{Experiment, ExperimentConfig};
use prefall::telemetry::{
    summary, FanoutRecorder, JsonValue, JsonlRecorder, Recorder, Registry, Snapshot, Span, Value,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A Registry is a Recorder that aggregates in memory. Histograms
    //    need their bucket layout registered up front; counters and
    //    gauges spring into existence on first use.
    println!("== 1. manual instrumentation ==");
    let registry = Arc::new(Registry::new());
    registry.register_histogram("tour.step_seconds", vec![1e-6, 1e-5, 1e-4, 1e-3, 1e-2]);

    for step in 0..100u64 {
        // A span times its scope and observes into the histogram of the
        // same name when dropped (or on an explicit `finish()`).
        let span = Span::enter(registry.as_ref(), "tour.step_seconds");
        let spin = (0..step * 50).map(|i| (i as f64).sqrt()).sum::<f64>();
        registry.gauge_set("tour.last_spin", spin);
        registry.counter_add("tour.steps", 1);
        span.finish();
    }
    print!("{}", summary::render(&registry.snapshot()));

    // 2. Snapshots merge associatively, so per-fold or per-thread
    //    registries can be combined after the fact.
    println!("\n== 2. snapshot merging ==");
    let other = Registry::new();
    other.register_histogram("tour.step_seconds", vec![1e-6, 1e-5, 1e-4, 1e-3, 1e-2]);
    other.observe("tour.step_seconds", 2e-4);
    other.counter_add("tour.steps", 1);
    let merged: Snapshot = registry.snapshot().merge(&other.snapshot());
    println!(
        "merged steps = {} (100 + 1), merged histogram count = {}",
        merged.counters["tour.steps"], merged.histograms["tour.step_seconds"].count
    );

    // 3. Recorders fan out: aggregate into a registry AND stream events
    //    as JSONL at the same time. The same fanout powers
    //    PREFALL_TELEMETRY_JSONL=<path> on every binary in this repo.
    println!("\n== 3. instrumented experiment with fanout + JSONL ==");
    let jsonl_path = std::env::temp_dir().join("prefall_telemetry_tour.jsonl");
    let jsonl = Arc::new(JsonlRecorder::new(std::fs::File::create(&jsonl_path)?));
    let run_registry = Arc::new(Registry::new());
    let rec = FanoutRecorder::new(vec![
        run_registry.clone() as Arc<dyn Recorder>,
        jsonl.clone() as Arc<dyn Recorder>,
    ]);
    rec.event(
        "tour.start",
        &[
            ("config", Value::from("fast")),
            ("cells", Value::from(1u64)),
        ],
    );

    let report = Experiment::new(ExperimentConfig::fast()).run_recorded(&rec)?;
    let cell = &report.cells[0];
    println!(
        "experiment done: {} @ {:.0} ms window, F1 {:.2}%",
        cell.model.name(),
        cell.window_ms,
        cell.metrics.f1
    );
    print!("{}", summary::render(&run_registry.snapshot()));

    // 3b. That experiment fanned its grid cells and CV folds out over
    //     the `prefall-par` work-stealing scheduler, and each task
    //     recorded into a *private* registry: counters, gauges and
    //     histograms are merged back into the outer recorder in
    //     task-index order when the task joins (only events stream
    //     live), so the snapshot above is deterministic for any
    //     PREFALL_THREADS — the same associative Snapshot::merge from
    //     section 2, applied automatically. The scheduler and the
    //     preprocessing cache publish their own counters into the same
    //     snapshot. Reading the par.* story:
    //
    //     * `par.tasks_coarsened` / `par.chunk_size` — how many tiny
    //       tasks were batched into ~250 µs chunks, and the last chunk
    //       size the calibrated cost estimate picked. If coarsening is
    //       near zero on a big grid, the cost estimate is broken and
    //       per-task overhead is eating the speedup.
    //     * `par.local_pops` vs `par.tasks_stolen` — deque traffic
    //       split into cache-friendly owner pops and cross-worker
    //       steals. Healthy runs are overwhelmingly local; stolen > 0
    //       shows balancing actually happens.
    //     * `par.maps_inline` — maps the scheduler refused to split
    //       because the whole map costs less than a split would. Only
    //       genuinely small maps should land here.
    //     * `par.parks` / `par.unparks` — workers sleeping between
    //       sessions instead of spinning (each also emits a trace
    //       instant on the prefall-trace timeline).
    println!("\n== 3b. per-worker telemetry, merged after join ==");
    let snap = run_registry.snapshot();
    for key in [
        "par.maps",
        "par.maps_inline",
        "par.tasks",
        "par.tasks_coarsened",
        "par.local_pops",
        "par.tasks_stolen",
        "par.workers_spawned",
        "cache.hits",
        "cache.misses",
        "cv.folds",
    ] {
        if let Some(v) = snap.counters.get(key) {
            println!("  {key:<22} {v}");
        }
    }
    if let Some(v) = snap.gauges.get("par.chunk_size") {
        println!("  {:<22} {v}", "par.chunk_size");
    }
    println!("  (results are bit-identical for any worker count — crates/core/tests/thread_determinism.rs)");

    // 4. The JSONL stream round-trips through the bundled parser.
    println!("\n== 4. JSONL event stream ({}) ==", jsonl_path.display());
    let text = std::fs::read_to_string(&jsonl_path)?;
    for line in text.lines().take(3) {
        let doc = JsonValue::parse(line)?;
        println!(
            "  t={:>8.3}s  {}",
            doc.get("t").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
            doc.get("event").map_or_else(String::new, |e| e.to_string()),
        );
    }
    println!("  ... {} events total", text.lines().count());

    // 5. The obsd exporter serves any registry live: /metrics in
    //    Prometheus text format, /healthz against the 150 ms lead-time
    //    budget, /snapshot as JSON. Port 0 picks a free port; set
    //    PREFALL_METRICS_ADDR on the bench binaries for the same thing.
    println!("\n== 5. live metrics endpoint ==");
    let server = prefall::obsd::MetricsServer::start(
        "127.0.0.1:0",
        run_registry.clone(),
        prefall::obsd::ServerConfig::default(),
        prefall::obsd::Sources::default(),
    )?;
    println!(
        "serving {} — e.g. curl {}/metrics",
        server.url(),
        server.url()
    );
    let body = {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(server.addr())?;
        write!(
            s,
            "GET /metrics HTTP/1.1\r\nHost: tour\r\nConnection: close\r\n\r\n"
        )?;
        let mut r = String::new();
        s.read_to_string(&mut r)?;
        r.split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default()
    };
    for line in body
        .lines()
        .filter(|l| l.contains("train_epoch_seconds"))
        .take(6)
    {
        println!("  {line}");
    }
    println!("  ... {} exposition lines total", body.lines().count());

    // 6. Forensics walkthrough: arm a detector with the flight
    //    recorder, stream a faulted fall trial, and work one incident
    //    from HTTP listing to bit-exact replay — the workflow after a
    //    real deployment fires (or fails to).
    println!("\n== 6. flight recorder & incident replay ==");
    let det_cfg = prefall::core::detector::DetectorConfig::paper_400ms();
    let window = det_cfg.pipeline.segmentation.window();
    let mut bundle = prefall::core::persist::DetectorBundle {
        model: prefall::core::models::ModelKind::ProposedCnn,
        window,
        channels: 9,
        init_seed: 7,
        pipeline: det_cfg.pipeline,
        normalizer: prefall::dsp::stats::Normalizer::identity(9),
        network: prefall::core::models::ModelKind::ProposedCnn.build(window, 9, 7)?,
    };
    let (mut detector, flight) = prefall::blackbox::armed_detector_from_bundle(
        &bundle.to_bytes(),
        0.5,
        1,
        prefall::core::detector::GuardConfig::default(),
        prefall::blackbox::FlightConfig::default(),
    )?;
    detector.session_mut().set_recorder(run_registry.clone());
    flight.set_recorder(run_registry.clone());

    // Stream one fall trial through dropout + NaN bursts; the trigger
    // (or the miss) freezes the rings into an incident dump.
    let dataset = prefall::imu::dataset::Dataset::combined_scaled(1, 1, 7)?;
    let trial = dataset
        .trials()
        .iter()
        .find(|t| t.is_fall())
        .expect("dataset has falls");
    let plan = prefall::faults::FaultPlan::dropout_nan(7, 0.05, 0.01, 5);
    prefall::faults::run_on_faulted_trial(&mut detector, trial, &plan, run_registry.as_ref());

    // The same dumps are served over HTTP next to /metrics: attach the
    // handle as the server's incident source.
    let forensics = prefall::obsd::MetricsServer::start(
        "127.0.0.1:0",
        run_registry.clone(),
        prefall::obsd::ServerConfig::default(),
        prefall::obsd::Sources {
            incidents: Some(Arc::new(flight.clone())),
            ..Default::default()
        },
    )?;
    println!(
        "incidents served at {}/incidents (and /incidents/<id>)",
        forensics.url()
    );

    let dump = flight.latest().expect("fall trial produced an incident");
    println!(
        "incident {} ({}): {} samples, {} windows, guard caught {} faults",
        dump.id,
        dump.kind.name(),
        dump.samples.len(),
        dump.windows.len(),
        dump.guard.faults()
    );
    // Decision trace: score + per-branch attribution, window by window.
    for w in dump
        .windows
        .iter()
        .rev()
        .take(3)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        let shares = prefall::nn::network::BranchStat::shares(w.attribution());
        println!(
            "  sample {:>5}: score {:.3}, branch shares {:?}{}",
            w.at_sample,
            w.score,
            shares
                .iter()
                .map(|s| (s * 100.0).round())
                .collect::<Vec<_>>(),
            if w.decision() { "  ← TRIGGER" } else { "" }
        );
    }
    // And the punchline: the dump is self-contained, so the incident
    // re-runs bit-exactly anywhere.
    let report = prefall::blackbox::replay(&dump)?;
    println!(
        "replay: bit_exact={} trigger_match={} over {} windows",
        report.bit_exact, report.trigger_match, report.windows_compared
    );

    // 7. Spans vs. trace events — the two time lenses in this repo.
    //    A telemetry `Span` observes one scope's duration into a
    //    histogram: an *aggregate* answer (p50/p95 over thousands of
    //    runs, cheap enough to leave on, what `/metrics` exports). A
    //    `prefall::trace` span writes begin/end events onto a
    //    *timeline*: an individual answer (where did THIS millisecond
    //    go, interleaved across threads, rendered in Perfetto). Same
    //    scope, both lenses at once:
    println!("\n== 7. spans (histograms) vs trace events (timelines) ==");
    prefall::trace::arm(4096);
    {
        let _telemetry = Span::enter(registry.as_ref(), "tour.step_seconds");
        let _trace = prefall::trace::trace_span!(prefall::trace::intern("tour.work"));
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    prefall::trace::disarm();
    let timeline = prefall::trace::drain();
    let agg = timeline.attribution().total("tour.work");
    println!(
        "  histogram lens: tour.step_seconds count is now {}",
        registry.snapshot().histograms["tour.step_seconds"].count
    );
    println!(
        "  timeline lens : tour.work ran {} time(s) for {:.2} ms (drains to Chrome JSON)",
        agg.count,
        agg.total_ns as f64 / 1e6
    );
    println!("  full tour     : cargo run --release --example trace_tour");

    // 8. The watch layer: a ring-buffer time-series store samples the
    //    registry, SLOs evaluate as multi-window burn rates, and alert
    //    transitions flow back into telemetry, /healthz, and (for
    //    quality SLOs) the blackbox. Driven here on a virtual clock so
    //    the whole fire → refractory → resolve lifecycle plays out in
    //    milliseconds of wall time; `watch.spawn()` runs the same loop
    //    against the wall clock in production.
    println!("\n== 8. watch: SLO burn-rate alerting ==");
    let watched = Arc::new(Registry::new());
    let watch = Arc::new(prefall::watch::Watch::new(
        watched.clone(),
        prefall::watch::WatchConfig {
            store: prefall::watch::StoreConfig::default(),
            slos: vec![prefall::watch::SloSpec::new(
                "fa_rate",
                prefall::watch::SloObjective::CounterRateCeiling {
                    counter: "detector.false_activations".into(),
                    per_seconds: 3600.0,
                    max: 30.0, // the paper's ≤30 false activations/hour
                },
            )
            .windows(60.0, 15.0)
            .burn(2.0, 1.0)
            .hold(30.0, 15.0)],
            alert_log_cap: 16,
        },
    ));
    watched.counter_add("detector.false_activations", 0);
    for t in 0..240u64 {
        // Scripted stream: healthy for a minute, a false-activation
        // storm for the next, then healthy again.
        if (60..120).contains(&t) {
            watched.counter_add("detector.false_activations", 1);
        }
        watch.tick_at(t as f64);
    }
    for a in watch.alerts() {
        println!(
            "  t={:>3.0}s  {} {} (short-window burn {:.1}x)",
            a.at,
            a.slo,
            if a.fired { "FIRED" } else { "resolved" },
            a.burn_short.unwrap_or(f64::NAN)
        );
    }

    // The same state is queryable over HTTP: attach the watch as the
    // server's WatchSource and /tsdb, /slo, /alerts go live (and a
    // firing SLO would flip /healthz to 503, naming itself).
    let slo_server = prefall::obsd::MetricsServer::start(
        "127.0.0.1:0",
        watched.clone(),
        prefall::obsd::ServerConfig::default(),
        prefall::obsd::Sources {
            watch: Some(watch.clone() as Arc<dyn prefall::obsd::WatchSource>),
            ..Default::default()
        },
    )?;
    let slo_body = {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(slo_server.addr())?;
        write!(
            s,
            "GET /slo HTTP/1.1\r\nHost: tour\r\nConnection: close\r\n\r\n"
        )?;
        let mut r = String::new();
        s.read_to_string(&mut r)?;
        r.split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default()
    };
    let slo_doc = JsonValue::parse(slo_body.trim())?;
    let fa = match &slo_doc {
        JsonValue::Arr(slos) => slos.first(),
        _ => None,
    }
    .expect("one SLO configured");
    println!(
        "  {}/slo → fa_rate fired {} time(s), firing now: {}",
        slo_server.url(),
        fa.get("times_fired")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        fa.get("firing")
            .and_then(JsonValue::as_bool)
            .unwrap_or(true),
    );

    // 9. Drift: label-free model & data health. Accuracy needs labels,
    //    and a deployed fall detector has none — so instead a
    //    `DriftMonitor` taps the streaming detector and folds every
    //    accepted sample, window score and branch attribution into
    //    integer-quantized sketches (a *fingerprint*: fixed-size,
    //    mergeable, bit-deterministic). The live view is scored
    //    against a reference fingerprint with PSI (population
    //    stability index — how much the binned distribution moved) and
    //    quantile shift (how far the deciles slid), published as
    //    `drift.*` gauges.
    println!("\n== 9. drift: label-free model & data health ==");
    let drift_detector =
        || -> Result<prefall::core::detector::StreamingDetector, Box<dyn std::error::Error>> {
            let cfg = prefall::core::detector::DetectorConfig::paper_400ms();
            let window = cfg.pipeline.segmentation.window();
            Ok(prefall::core::detector::StreamingDetector::new(
                prefall::core::models::ModelKind::ProposedCnn.build(window, 9, 7)?,
                prefall::dsp::stats::Normalizer::identity(9),
                cfg,
            )?)
        };
    let motion = |t: u64| -> ([f32; 3], [f32; 3]) {
        let x = t as f32 * 0.07;
        (
            [0.02 * x.sin(), -0.03 * (x * 0.9).cos(), 1.0],
            [6.0 * (x * 1.3).sin(), -4.0 * x.cos(), 1.5 * (x * 0.4).sin()],
        )
    };

    // The reference: stream healthy motion through a monitored
    // detector and export its lifetime fingerprint. Everything is
    // seeded and integer-binned, so a rebuild is byte-identical — the
    // repo commits one as ci/drift_reference.pfdf and a test re-derives
    // it byte for byte (`prefall_bench::driftref`).
    let build_reference = || -> Result<prefall::drift::Fingerprint, Box<dyn std::error::Error>> {
        let mut det = drift_detector()?;
        let handle = prefall::drift::DriftMonitor::install(&mut det, Default::default());
        for t in 0..2000u64 {
            let (a, g) = motion(t);
            let _ = det.push_sample(a, g);
        }
        Ok(handle.fingerprint())
    };
    let reference = build_reference()?;
    assert_eq!(
        reference.to_bytes(),
        build_reference()?.to_bytes(),
        "fingerprints are bit-deterministic"
    );
    println!(
        "  reference: {} samples, {} windows, {} bytes serialized (rebuild is byte-identical)",
        reference.samples(),
        reference.windows(),
        reference.to_bytes().len()
    );

    // A live monitor scoring against that reference: the same motion
    // distribution stays quiet...
    let mut live_det = drift_detector()?;
    let live = prefall::drift::DriftMonitor::install(&mut live_det, Default::default());
    live.set_recorder(watched.clone());
    live.set_reference(reference.clone());
    for t in 0..2000u64 {
        let (a, g) = motion(t);
        let _ = live_det.push_sample(a, g);
    }
    let quiet = live.publish_now().expect("reference set, so scored");
    println!(
        "  matching stream : input PSI {:.4}, score shift {:.4} → alarmed: {}",
        quiet.input_psi,
        quiet.score_shift,
        live.alarmed()
    );

    // ...and a degraded sensor (gyro railed at +30 rad/s) alarms, with
    // no labels involved.
    let mut railed_det = drift_detector()?;
    let railed = prefall::drift::DriftMonitor::install(&mut railed_det, Default::default());
    railed.set_reference(reference);
    for t in 0..2000u64 {
        let (a, _) = motion(t);
        let _ = railed_det.push_sample(a, [30.0, 30.0, 30.0]);
    }
    let loud = railed.publish_now().expect("scored");
    println!(
        "  railed gyro     : input PSI {:.4}, score shift {:.4} → alarmed: {}",
        loud.input_psi,
        loud.score_shift,
        railed.alarmed()
    );

    // The gauges close the loop with section 8: the production
    // WatchConfig carries input_drift (mean drift.input_psi ≤ 0.25)
    // and score_drift (mean drift.score_shift ≤ 0.15) quality SLOs,
    // so sustained drift burns through the budget, flips /healthz, and
    // captures a blackbox incident — the chain the drift tests in
    // prefall-bench replay end to end. The same state is served over HTTP:
    // a DriftHandle is a DriftSource, and the fleet registry serves
    // per-tenant views at /drift?tenant=<id>.
    let drift_server = prefall::obsd::MetricsServer::start(
        "127.0.0.1:0",
        watched.clone(),
        prefall::obsd::ServerConfig::default(),
        prefall::obsd::Sources {
            drift: Some(Arc::new(live.clone()) as Arc<dyn prefall::obsd::DriftSource>),
            ..Default::default()
        },
    )?;
    let drift_body = {
        use std::io::{Read, Write};
        let mut s = std::net::TcpStream::connect(drift_server.addr())?;
        write!(
            s,
            "GET /drift HTTP/1.1\r\nHost: tour\r\nConnection: close\r\n\r\n"
        )?;
        let mut r = String::new();
        s.read_to_string(&mut r)?;
        r.split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default()
    };
    let drift_doc = JsonValue::parse(drift_body.trim())?;
    println!(
        "  {}/drift → samples {}, input_psi {:.4}, alarm {}",
        drift_server.url(),
        drift_doc
            .get("samples")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        drift_doc
            .get("input_psi")
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN),
        drift_doc
            .get("alarm")
            .and_then(JsonValue::as_bool)
            .unwrap_or(true),
    );
    Ok(())
}
