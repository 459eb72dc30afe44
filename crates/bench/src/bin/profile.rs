//! Timeline profiler: where does the wall-clock actually go?
//!
//! The repo benchmark (`benchmark/`) answers *how fast*; this binary
//! answers *where*. It arms the `prefall-trace` ring buffers, runs the
//! experiment grid, and folds the drained timeline into a wall-clock
//! attribution:
//!
//! * **% kernel** — time inside task bodies (experiment cells, CV
//!   folds, cache fills, training compute, forward-pass kernels);
//! * **% task overhead** — pool machinery: `par.map` self time (queue
//!   build, spawn, result placement, the inline claim loop);
//! * **% barrier** — the caller waiting at the fork-join barrier after
//!   finishing its own share of the queue;
//! * **% idle** — spawned workers between tasks (steal loop + waiting),
//!
//! plus per-worker utilization, steal/queue statistics from the new
//! `par.steal_attempts` / `par.queue_depth` accounting, and a per-layer
//! decomposition of the streaming forward pass (nanoseconds per window
//! in the fused conv, dense, … kernels).
//!
//! The per-layer decomposition runs with
//! `prefall_trace::set_detail(true)` — per-kernel spans are opt-in
//! exactly because they would not fit the coarse tracing budget that
//! `prefall-overhead` bounds inside a ~10 µs forward pass. That armed
//! tracing leaves this grid's report bit-identical is a leg of
//! `crates/core/tests/thread_determinism.rs`.
//!
//! ```text
//! cargo run --release -p prefall-bench --bin prefall-profile
//! PREFALL_TRACE_CAPACITY=262144 cargo run --release -p prefall-bench --bin prefall-profile
//! ```
//!
//! Output: `BENCH_trace.json` (telemetry snapshot) and
//! `BENCH_trace_chrome.json` (Chrome trace-event JSON — open it at
//! <https://ui.perfetto.dev> or `chrome://tracing`). With
//! `PREFALL_METRICS_ADDR` set, the trace is also served on the obsd
//! `/trace` endpoint for the duration of the run.

use prefall_bench::overhead::{median, probe_detector, time_classified_push};
use prefall_bench::telemetry_out;
use prefall_core::experiment::{Experiment, ExperimentConfig, ExperimentReport};
use prefall_core::models::ModelKind;
use prefall_telemetry::{JsonValue, Recorder, TelemetryEnv, Value};
use prefall_trace::{report::Attribution, EventKind, LastTrace, ThreadTimeline, Timeline};
use std::sync::Arc;
use std::time::Instant;

/// The telemetry snapshot; never clobbers `BENCH_telemetry.json`.
const BENCH_TRACE_PATH: &str = "BENCH_trace.json";

/// The Perfetto-loadable export of the grid run.
const CHROME_TRACE_PATH: &str = "BENCH_trace_chrome.json";

/// Classified windows to time in the detail-mode leg.
const INFER_WINDOWS: usize = 64;

/// Workers for the grid.
const GRID_THREADS: usize = 4;

/// A reduced grid: enough cells to exercise parallel workers, folds and
/// the cache, small enough for a CI trace job.
fn grid_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::fast();
    config.dataset.kfall_subjects = 3;
    config.dataset.self_collected_subjects = 3;
    config.windows_ms = vec![200.0, 400.0];
    config.models = vec![ModelKind::Mlp, ModelKind::ProposedCnn];
    config.cv.epochs = 3;
    config.with_env_overrides()
}

fn run_grid(
    config: &ExperimentConfig,
    rec: &dyn Recorder,
) -> Result<(ExperimentReport, f64), String> {
    let mut cfg = config.clone();
    cfg.threads = Some(GRID_THREADS);
    let start = Instant::now();
    let report = Experiment::new(cfg)
        .run_recorded(rec)
        .map_err(|e| format!("experiment failed: {e}"))?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// Times [`INFER_WINDOWS`] classified pushes on a fresh 400 ms
/// detector after three untimed warm-up windows.
fn measure_stream() -> Vec<f64> {
    let mut det = probe_detector(1.1); // never triggers: pure classification
    for _ in 0..3 {
        time_classified_push(&mut det);
    }
    (0..INFER_WINDOWS)
        .map(|_| time_classified_push(&mut det))
        .collect()
}

/// The four-way wall-clock split of a grid timeline, in nanoseconds.
struct Split {
    kernel: u64,
    overhead: u64,
    barrier: u64,
    idle: u64,
}

impl Split {
    fn from(attr: &Attribution) -> Self {
        // Self times partition in-span wall time exactly — every
        // nanosecond belongs to exactly one span's self time — so the
        // split stays honest under nested parallelism (fold-level maps
        // inside cell tasks nest par.task within par.task; span totals
        // would double-count those interiors). A task span's own self
        // time is the body's uninstrumented compute (training math,
        // telemetry-only stages), so it counts as kernel; the pool
        // machinery proper is the map span's self time (queue build,
        // spawn, result placement, the inline claim loop).
        let kernel = attr
            .total_matching(|n| !matches!(n, "par.map" | "par.worker" | "par.barrier"))
            .self_ns;
        let overhead = attr.total("par.map").self_ns;
        let barrier = attr.total("par.barrier").self_ns;
        // A worker span's self time is everything outside its tasks:
        // queue polls that found nothing plus plain waiting.
        let idle = attr.total("par.worker").self_ns;
        Split {
            kernel,
            overhead,
            barrier,
            idle,
        }
    }

    fn denom(&self) -> u64 {
        (self.kernel + self.overhead + self.barrier + self.idle).max(1)
    }

    fn pct(&self, part: u64) -> f64 {
        part as f64 / self.denom() as f64 * 100.0
    }
}

/// Flattened `par.task` busy time on one thread — the union of task
/// intervals via a depth counter, so fold-level maps nested inside
/// cell tasks count their interior once. Returns `(busy_ns, tasks)`.
fn flat_task_busy(t: &ThreadTimeline, task_name: Option<usize>) -> (u64, u64) {
    let Some(idx) = task_name else { return (0, 0) };
    let idx = idx as u32;
    let (mut busy, mut tasks) = (0u64, 0u64);
    let mut depth = 0u32;
    let mut open_ts = 0u64;
    for e in &t.events {
        if e.name != idx {
            continue;
        }
        match e.kind {
            EventKind::Begin => {
                if depth == 0 {
                    open_ts = e.ts_ns;
                }
                depth += 1;
                tasks += 1;
            }
            EventKind::End => {
                if depth > 0 {
                    depth -= 1;
                    if depth == 0 {
                        busy += e.ts_ns.saturating_sub(open_ts);
                    }
                }
            }
            EventKind::Instant => {}
        }
    }
    (busy, tasks)
}

/// The wall-clock window a thread was observed over (first to last
/// event), in nanoseconds, never zero.
fn thread_span_ns(t: &ThreadTimeline) -> u64 {
    match (t.events.first(), t.events.last()) {
        (Some(a), Some(b)) => b.ts_ns.saturating_sub(a.ts_ns).max(1),
        _ => 1,
    }
}

/// Per-worker utilization rows for the snapshot's `workers` field.
fn worker_rows(timeline: &Timeline) -> JsonValue {
    let task_name = timeline.names.iter().position(|n| n == "par.task");
    let rows = timeline
        .threads
        .iter()
        .filter_map(|t| {
            let (busy, tasks) = flat_task_busy(t, task_name);
            if tasks == 0 {
                return None;
            }
            let span_ns = thread_span_ns(t);
            Some(JsonValue::Obj(vec![
                ("tid".to_string(), JsonValue::U64(u64::from(t.tid))),
                ("label".to_string(), JsonValue::Str(t.label.clone())),
                ("tasks".to_string(), JsonValue::U64(tasks)),
                ("busy_ns".to_string(), JsonValue::U64(busy)),
                ("span_ns".to_string(), JsonValue::U64(span_ns)),
                (
                    "utilization".to_string(),
                    JsonValue::F64(busy as f64 / span_ns as f64),
                ),
            ]))
        })
        .collect();
    JsonValue::Arr(rows)
}

/// The per-layer forward-pass decomposition of a streaming timeline:
/// `(layer span name, total ns, spans, ns per classified window)`.
fn layer_rows(attr: &Attribution, windows: u64) -> Vec<(String, u64, u64, f64)> {
    attr.by_total()
        .into_iter()
        .filter(|(name, _)| name.starts_with("nn."))
        .map(|(name, agg)| {
            let per_window = agg.total_ns as f64 / windows.max(1) as f64;
            (name, agg.total_ns, agg.count, per_window)
        })
        .collect()
}

/// Runs the grid and the detail-mode stream leg and writes the report.
fn real_main() -> Result<(), String> {
    let quiet = TelemetryEnv::from_env().quiet;
    let say = |line: String| {
        if !quiet {
            println!("{line}");
        }
    };
    let (registry, rec) = telemetry_out::bench_recorder();
    let config = grid_config();
    let capacity: usize = std::env::var("PREFALL_TRACE_CAPACITY")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 18);

    // The grid, armed. Telemetry routes to the real recorder so the
    // dumped snapshot carries the par.* accounting.
    rec.event(
        "bench.phase",
        &[
            ("bench", Value::from("trace")),
            ("phase", Value::from("grid_armed")),
            ("threads", Value::from(GRID_THREADS)),
        ],
    );
    prefall_trace::arm(capacity);
    let (report, grid_s) = run_grid(&config, rec.as_ref())?;
    prefall_trace::disarm();
    let grid_timeline: Timeline = prefall_trace::drain();

    let attr = grid_timeline.attribution();
    let split = Split::from(&attr);
    registry.gauge_set("trace.pct_kernel", split.pct(split.kernel));
    registry.gauge_set("trace.pct_task_overhead", split.pct(split.overhead));
    registry.gauge_set("trace.pct_barrier", split.pct(split.barrier));
    registry.gauge_set("trace.pct_idle", split.pct(split.idle));
    registry.gauge_set("trace.grid_events", grid_timeline.event_count() as f64);
    registry.gauge_set("trace.grid_dropped", grid_timeline.dropped() as f64);

    let chrome = grid_timeline.to_chrome_json();
    let chrome_path = prefall_bench::telemetry_out::out_path(CHROME_TRACE_PATH);
    std::fs::write(&chrome_path, &chrome)
        .map_err(|e| format!("cannot write {chrome_path}: {e}"))?;
    let last = Arc::new(LastTrace::new());
    last.store(chrome);
    // With PREFALL_METRICS_ADDR set, serve the drained trace (and the
    // live registry) for the rest of the run.
    let _server = TelemetryEnv::from_env().metrics_addr.and_then(|addr| {
        prefall_obsd::MetricsServer::start(
            addr.as_str(),
            Arc::clone(&registry),
            prefall_obsd::ServerConfig::default(),
            prefall_obsd::Sources {
                trace: Some(Arc::clone(&last)),
                ..Default::default()
            },
        )
        .map_err(|e| eprintln!("profile: cannot bind {addr}: {e}"))
        .ok()
    });

    rec.event(
        "bench.phase",
        &[
            ("bench", Value::from("trace")),
            ("phase", Value::from("stream")),
        ],
    );
    // Per-layer decomposition needs detail mode (per-kernel spans are
    // opt-in precisely because of the coarse overhead budget).
    prefall_trace::arm(capacity);
    prefall_trace::set_detail(true);
    let mut detail_samples = measure_stream();
    prefall_trace::disarm();
    let stream_timeline = prefall_trace::drain();

    let detail_median = median(&mut detail_samples);
    registry.gauge_set("trace.stream_detail_p50_us", detail_median * 1e6);

    let stream_attr = stream_timeline.attribution();
    let windows = stream_attr.total("nn.infer").count;
    let layers = layer_rows(&stream_attr, windows);
    for (name, _, _, per_window) in &layers {
        registry.gauge_set(&format!("trace.{name}_ns_per_window"), *per_window);
    }

    // Human report.
    let snap = registry.snapshot();
    say("=== profile: wall-clock attribution (grid, armed) ===".to_string());
    say(format!(
        "grid wall    : {grid_s:8.2} s armed   ({} cells, {GRID_THREADS} threads)",
        report.cells.len()
    ));
    say(format!(
        "traced time  : {:8.2} s across {} events on {} threads ({} dropped)",
        split.denom() as f64 / 1e9,
        grid_timeline.event_count(),
        grid_timeline.threads.len(),
        grid_timeline.dropped()
    ));
    say(format!(
        "  kernel     : {:6.2} %   (task bodies: cells, folds, cache fills, training compute)",
        split.pct(split.kernel)
    ));
    say(format!(
        "  overhead   : {:6.2} %   (pool machinery: par.map self time)",
        split.pct(split.overhead)
    ));
    say(format!(
        "  barrier    : {:6.2} %   (caller waiting at the fork-join)",
        split.pct(split.barrier)
    ));
    say(format!(
        "  idle       : {:6.2} %   (workers between tasks: steal loop + waiting)",
        split.pct(split.idle)
    ));
    for key in [
        "par.tasks",
        "par.tasks_stolen",
        "par.steal_attempts",
        "par.maps",
        "par.maps_inline",
        "cache.hits",
        "cache.misses",
    ] {
        if let Some(v) = snap.counters.get(key) {
            say(format!("{key:<19}: {v}"));
        }
    }
    if let Some(depth) = snap.gauges.get("par.queue_depth") {
        say(format!("{:<19}: {depth}", "par.queue_depth"));
    }
    say("=== profile: per-worker utilization ===".to_string());
    let task_name = grid_timeline.names.iter().position(|n| n == "par.task");
    for t in &grid_timeline.threads {
        let (busy, tasks) = flat_task_busy(t, task_name);
        if tasks > 0 {
            say(format!(
                "  tid {:>3} {:<14} {:5} tasks  busy {:8.3} s  utilization {:5.1} %",
                t.tid,
                t.label,
                tasks,
                busy as f64 / 1e9,
                busy as f64 / thread_span_ns(t) as f64 * 100.0
            ));
        }
    }
    say("=== profile: streaming forward pass (400 ms window) ===".to_string());
    say(format!(
        "detail mode  : p50 {:7.1} µs with per-kernel spans on (opt-in, ungated)",
        detail_median * 1e6
    ));
    for (name, total_ns, count, per_window) in &layers {
        say(format!(
            "  {name:<26} {per_window:9.0} ns/window  ({count} spans, {:.3} ms total)",
            *total_ns as f64 / 1e6
        ));
    }

    telemetry_out::dump_to(
        BENCH_TRACE_PATH,
        "trace",
        &snap,
        vec![
            ("grid_armed_wall_s".to_string(), JsonValue::F64(grid_s)),
            ("threads".to_string(), JsonValue::U64(GRID_THREADS as u64)),
            (
                "grid_cells".to_string(),
                JsonValue::U64(report.cells.len() as u64),
            ),
            ("workers".to_string(), worker_rows(&grid_timeline)),
            (
                "chrome_trace".to_string(),
                JsonValue::Str(prefall_bench::telemetry_out::out_path(CHROME_TRACE_PATH)),
            ),
        ],
    );
    if !quiet {
        eprintln!(
            "profile: Chrome trace written to {} (open at https://ui.perfetto.dev)",
            prefall_bench::telemetry_out::out_path(CHROME_TRACE_PATH)
        );
    }
    Ok(())
}

fn main() {
    // All telemetry sinks (JSONL recorders flush on drop) live inside
    // real_main, so the exit below runs after they flushed.
    if let Err(e) = real_main() {
        eprintln!("prefall-profile: {e}");
        std::process::exit(1);
    }
}
