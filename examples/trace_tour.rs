//! Tour of `prefall-trace`: arm the always-on timeline tracer, run a
//! real experiment grid over the worker pool, drain the per-thread
//! rings into a Chrome trace you can open in Perfetto, fold the same
//! timeline into a wall-clock attribution report, and measure what
//! arming costs on the streaming detector's real-time path.
//!
//! ```text
//! cargo run --release --example trace_tour
//! ```

use prefall::core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
use prefall::core::experiment::{Experiment, ExperimentConfig};
use prefall::core::models::ModelKind;
use prefall::dsp::stats::Normalizer;
use prefall::telemetry::NoopRecorder;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Arming is global and cheap to leave off: disarmed, every
    //    tracing entry point is one relaxed atomic load. Arm allocates
    //    one fixed ring per traced thread (here 64k events each) —
    //    after that, recording a span is allocation-free.
    println!("== 1. arm, trace, drain ==");
    prefall::trace::arm(1 << 16);
    let step = prefall::trace::intern("tour.step");
    for _ in 0..3 {
        let _span = prefall::trace::trace_span!(step);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    prefall::trace::disarm();
    let timeline = prefall::trace::drain();
    println!(
        "  drained {} events from {} thread(s), {} dropped to wraparound",
        timeline.event_count(),
        timeline.threads.len(),
        timeline.dropped()
    );

    // 2. A real workload: the experiment grid fans cells and CV folds
    //    out over the prefall-par pool, and every layer is already
    //    instrumented — pool tasks, steals, the fork-join barrier,
    //    experiment cells, folds, the preprocessing cache, and (in
    //    detail mode) each kernel of the forward pass.
    println!("\n== 2. trace an experiment grid across the worker pool ==");
    let mut config = ExperimentConfig::fast();
    config.threads = Some(2);
    prefall::trace::arm(1 << 16);
    let report = Experiment::new(config).run_recorded(&NoopRecorder)?;
    prefall::trace::disarm();
    let timeline = prefall::trace::drain();
    println!(
        "  {} grid cell(s) traced into {} events on {} threads",
        report.cells.len(),
        timeline.event_count(),
        timeline.threads.len()
    );

    // 3. The same drained timeline renders two ways. Chrome trace-event
    //    JSON is the visual one: load it at https://ui.perfetto.dev (or
    //    chrome://tracing) and scrub through every worker's lane.
    println!("\n== 3. render to Chrome trace JSON (Perfetto) ==");
    let chrome = timeline.to_chrome_json();
    let path = std::env::temp_dir().join("prefall_trace_tour.json");
    std::fs::write(&path, &chrome)?;
    println!(
        "  wrote {} ({} bytes) — open it at https://ui.perfetto.dev",
        path.display(),
        chrome.len()
    );

    // 4. The attribution report is the analytical one: per span name,
    //    total time, self time (minus instrumented children) and span
    //    count, merged across threads.
    println!("\n== 4. wall-clock attribution ==");
    let attr = timeline.attribution();
    println!(
        "  window spans {:.1} ms of wall clock",
        attr.wall_ns as f64 / 1e6
    );
    for (name, agg) in attr.by_total().into_iter().take(6) {
        println!(
            "  {name:<22} total {:>9.2} ms  self {:>9.2} ms  ×{}",
            agg.total_ns as f64 / 1e6,
            agg.self_ns as f64 / 1e6,
            agg.count
        );
    }

    // 5. The drained trace can be served live next to /metrics: the
    //    obsd server's /trace endpoint returns whatever was last stored
    //    (the prefall-profile bench does exactly this).
    println!("\n== 5. serve the trace over HTTP ==");
    let store = Arc::new(prefall::trace::LastTrace::new());
    store.store(chrome);
    let server = prefall::obsd::MetricsServer::start(
        "127.0.0.1:0",
        Arc::new(prefall::telemetry::Registry::new()),
        prefall::obsd::ServerConfig::default(),
        prefall::obsd::Sources {
            trace: Some(store),
            ..Default::default()
        },
    )?;
    println!("  curl {}/trace > trace.json", server.url());

    // 6. What does arming cost where it matters — the streaming
    //    detector's real-time path? Coarse mode adds one whole-pass
    //    span per classified window (the ≤ 3 % budget CI gates via
    //    prefall-overhead); detail mode adds a span per kernel and is
    //    opt-in for exactly that reason.
    println!("\n== 6. arming cost on the streaming path ==");
    let det_cfg = DetectorConfig {
        pipeline: prefall::core::pipeline::PipelineConfig::paper_400ms(),
        threshold: 1.1, // never trigger: measure pure classification
        consecutive: 1,
        guard: GuardConfig::default(),
    };
    let window = det_cfg.pipeline.segmentation.window();
    let net = ModelKind::ProposedCnn.build(window, 9, 1)?;
    let mut det = StreamingDetector::new(net, Normalizer::identity(9), det_cfg)?;
    for _ in 0..2 * window {
        let _ = det.push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0]);
    }
    let mut time_windows = |n: usize| {
        let mut total = 0.0f64;
        let mut done = 0usize;
        while done < n {
            let t0 = Instant::now();
            let p = det.push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0]);
            let dt = t0.elapsed().as_secs_f64();
            if p.is_some() {
                total += dt;
                done += 1;
            }
        }
        total / n as f64
    };
    prefall::trace::disarm();
    let off = time_windows(32);
    prefall::trace::arm(1 << 12);
    let coarse = time_windows(32);
    prefall::trace::set_detail(true);
    let detail = time_windows(32);
    prefall::trace::disarm();
    let _ = prefall::trace::drain();
    println!("  disarmed {:7.1} µs/window", off * 1e6);
    println!(
        "  coarse   {:7.1} µs/window (nn.infer span only — gated ≤ 3 %)",
        coarse * 1e6
    );
    println!(
        "  detail   {:7.1} µs/window (span per kernel — opt-in)",
        detail * 1e6
    );
    println!("\nfull report: cargo run --release -p prefall-bench --bin prefall-profile");
    Ok(())
}
