//! `grid`: the experiment grid (MLP and ProposedCnn × 200/300/400 ms
//! windows, subject-independent CV, fixed epochs) on a dataset seeded
//! from `--seed`. The operation timed is one whole `Experiment` run,
//! each on a fresh runner so every run fills its own preprocessing
//! cache; its latency is the [`stats::REPEAT_QUANTILE`] of the run's
//! repeats.
//!
//! The untraced runs use one thread. On a two-vCPU machine shared with
//! other tenants, the second vCPU's availability moved a two-thread
//! grid's wall by about ±20 % from one run to the next; the one-thread
//! wall held within about 5 %. The traced pass runs the grid at
//! `threads = 1` and `threads = nproc` in alternation, so the par
//! scheduler's contribution shows in `par.parallel_efficiency` and the
//! other par metrics.

use crate::report::{self, json_list, nproc, Report};
use crate::stats;
use prefall_core::cv::CvConfig;
use prefall_core::experiment::{Experiment, ExperimentConfig, ExperimentReport};
use prefall_core::models::ModelKind;
use prefall_dsp::segment::Overlap;
use prefall_imu::dataset::DatasetConfig;
use prefall_par::Pool;
use prefall_telemetry::{JsonValue, NoopRecorder, Recorder, Registry};
use prefall_trace::report::Attribution;
use std::time::{Duration, Instant};

/// Grid runs per untraced measurement, at least.
const MIN_RUNS: usize = 3;
const EPOCHS: usize = 2;
/// Ring events per traced thread; the run checks none were dropped.
const TRACE_CAPACITY: usize = 1 << 20;

fn config(seed: u64, threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        dataset: DatasetConfig {
            kfall_subjects: 4,
            self_collected_subjects: 4,
            trials_per_task: 1,
            duration_scale: 0.5,
            seed,
        },
        windows_ms: vec![200.0, 300.0, 400.0],
        overlap: Overlap::Half,
        models: vec![ModelKind::Mlp, ModelKind::ProposedCnn],
        cv: CvConfig {
            epochs: EPOCHS,
            patience: None,
            ..CvConfig::fast()
        },
        threads: Some(threads),
    }
}

fn run_grid(
    seed: u64,
    threads: usize,
    rec: &dyn Recorder,
) -> Result<(ExperimentReport, f64), String> {
    let t0 = Instant::now();
    let out = Experiment::new(config(seed, threads))
        .run_recorded(rec)
        .map_err(|e| format!("grid: {e}"))?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// One grid run with the tracer armed (`detail` adds the nn kernel
/// spans): the report, its wall time and the drained timeline.
fn traced_grid(
    seed: u64,
    threads: usize,
    rec: &dyn Recorder,
    detail: bool,
) -> Result<(ExperimentReport, f64, prefall_trace::Timeline), String> {
    prefall_trace::arm(TRACE_CAPACITY);
    prefall_trace::set_detail(detail);
    let run = run_grid(seed, threads, rec);
    prefall_trace::disarm();
    let timeline = prefall_trace::drain();
    let (report, wall) = run?;
    Ok((report, wall, timeline))
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let mut report = Report::new("grid", seed, trace, seconds);
    let budget = Duration::from_secs(seconds);
    let reports = if trace {
        report.load_shape(nproc(), 0);
        traced(&mut report, seed, nproc(), budget)?
    } else {
        report.load_shape(1, 0);
        untraced(&mut report, seed, budget)?
    };
    let differ = reports
        .iter()
        .filter(|r| r.cells != reports[0].cells)
        .count();
    report.check(
        "every grid run reports identical cells",
        differ == 0,
        format!("{differ} of {} runs differ", reports.len()),
    );
    report.attempted = reports.iter().map(|r| r.cells.len() as u64).sum();
    let samples = reports[0].dataset_stats.samples as u64;
    report.info("dataset_samples", JsonValue::U64(samples));
    Ok(report)
}

fn untraced(
    report: &mut Report,
    seed: u64,
    budget: Duration,
) -> Result<Vec<ExperimentReport>, String> {
    let setup = || {
        Experiment::new(config(seed, 1))
            .dataset()
            .map_err(|e| format!("dataset: {e}"))
    };
    let mut setups = vec![stats::timed(setup)?.1];
    report.phase("setup", Duration::from_secs_f64(setups[0]));

    let t = Instant::now();
    let (mut reports, mut walls) = (Vec::new(), Vec::new());
    while walls.len() < MIN_RUNS || t.elapsed() < budget {
        if stats::setup_due(setups.len(), t.elapsed(), budget) {
            setups.push(stats::timed(setup)?.1);
        }
        let (out, wall) = run_grid(seed, 1, &NoopRecorder)?;
        reports.push(out);
        walls.push(wall);
    }
    report.phase("measure", t.elapsed());

    let cells = reports[0].cells.len() as f64;
    report.info("walls_s", json_list(&walls));
    // One operation per run, repeated: p50 and p90 over one operation
    // are its latency.
    let wall = stats::percentile_of(&walls, stats::REPEAT_QUANTILE);
    report.setups(&setups);
    report.set("latency_p50_ms", wall * 1e3);
    report.set("latency_p90_ms", wall * 1e3);
    report.set("throughput_per_s", cells / wall);
    report.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(reports)
}

/// A detail-traced run, then rounds of a grid run at `threads = 1`, one
/// at `threads = p` and one traced at `threads = p`, repeated within
/// `budget`; the walls reduce to their [`stats::REPEAT_QUANTILE`] and
/// the traced counters and self times to their mean per run.
fn traced(
    report: &mut Report,
    seed: u64,
    p: usize,
    budget: Duration,
) -> Result<Vec<ExperimentReport>, String> {
    // The nn detail spans in a run of their own: their cost would
    // inflate every coarse self time below.
    let start = Instant::now();
    let (detailed, _, detail) = traced_grid(seed, p, &NoopRecorder, true)?;
    report.phase("grid detail", start.elapsed());

    let t = Instant::now();
    let registry = Registry::new();
    let mut reports = vec![detailed];
    let (mut t1, mut tp, mut tp_traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut attr = Attribution {
        wall_ns: 0,
        threads: Vec::new(),
    };
    let mut dropped = detail.dropped();
    // Stops before a round that would overrun the budget.
    while tp_traced.is_empty() || start.elapsed() + t.elapsed() / tp_traced.len() as u32 <= budget {
        let (serial, wall) = run_grid(seed, 1, &NoopRecorder)?;
        t1.push(wall);
        reports.push(serial);
        let (plain, wall) = run_grid(seed, p, &NoopRecorder)?;
        tp.push(wall);
        reports.push(plain);
        // Scheduler-wide par counters publish as deltas since the last
        // publish to an enabled recorder: flush what the untraced runs left.
        Pool::new(1).publish(&Registry::new());
        let (traced, wall, timeline) = traced_grid(seed, p, &registry, false)?;
        tp_traced.push(wall);
        reports.push(traced);
        dropped += timeline.dropped();
        attr.threads.extend(timeline.attribution().threads);
    }
    report.phase("grid rounds", t.elapsed());

    report.check(
        "trace dropped no events",
        dropped == 0,
        format!("{dropped} events dropped"),
    );
    let runs = tp_traced.len() as f64;
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let per_run = |name: &str| counter(name) / runs;
    let hist_sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum) / runs;
    let self_s = |span: &str| attr.total(span).self_ns as f64 / 1e9 / runs;
    let quick = |walls: &[f64]| stats::percentile_of(walls, stats::REPEAT_QUANTILE);
    let p = p as f64;
    report.set("par.parallel_efficiency", quick(&t1) / (p * quick(&tp)));
    report.set(
        "par.idle_frac",
        counter("par.idle_nanos") / 1e9 / (p * tp_traced.iter().sum::<f64>()),
    );
    report.set("par.tasks_stolen", per_run("par.tasks_stolen"));
    report.set("par.tasks_coarsened", per_run("par.tasks_coarsened"));
    report.set("par.maps_inline", per_run("par.maps_inline"));
    let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
    report.set("cache.hit_ratio", hits / (hits + misses).max(1.0));
    report.set("pipeline.filter_s", hist_sum("pipeline.filter_seconds"));
    report.set("pipeline.segment_s", hist_sum("pipeline.segment_seconds"));
    if let Some(h) = snap.histograms.get("train.epoch_seconds") {
        report.set("nn.train_epoch_s", h.sum / h.count.max(1) as f64);
    }
    report.set("experiment.cell_self_s", self_s("experiment.cell"));
    report.set("cv.fold_self_s", self_s("cv.fold"));
    let infer = attr.total("nn.infer");
    report.set(
        "nn.infer_us",
        infer.total_ns as f64 / infer.count.max(1) as f64 / 1e3,
    );
    crate::stream::set_kernels(report, &detail.attribution());
    report.set(
        "trace.overhead_pct",
        (quick(&tp_traced) / quick(&tp) - 1.0) * 100.0,
    );
    report.info("walls_threads1_s", json_list(&t1));
    report.info("walls_nproc_s", json_list(&tp));
    report.info("walls_nproc_traced_s", json_list(&tp_traced));
    Ok(reports)
}
