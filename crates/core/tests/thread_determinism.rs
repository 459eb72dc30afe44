//! Workspace parallelism must never change results: the experiment
//! grid, the CV folds and the mini-batch trainer all fan out over
//! `PREFALL_THREADS` workers — nested, through the shared
//! work-stealing scheduler — and every one of them is constructed so
//! the outcome is **bit-identical** for any thread count (independent
//! seeded tasks, index-ordered collection, per-sample gradient slots).
//! The blocked/fused kernels must not change results either: the grid
//! run on the naive reference kernels gives the same report. Nor may
//! tracing: the grid `prefall-profile` traces gives the same cells
//! with the trace rings armed.

use prefall_core::experiment::{Experiment, ExperimentConfig};
use prefall_core::models::ModelKind;
use prefall_nn::kernels::set_reference_kernels;
use prefall_telemetry::{NoopRecorder, Registry};

#[test]
fn experiment_report_is_bit_identical_for_any_thread_count() {
    let mut config = ExperimentConfig::fast();
    config.cv.epochs = 2;
    // Two windows so the grid itself has parallel cells.
    config.windows_ms = vec![200.0, 300.0];

    // Env access is serialised within this test; the runner executes
    // integration tests in their own process.
    let run_with = |threads: &str| {
        std::env::set_var("PREFALL_THREADS", threads);
        let report = Experiment::new(config.clone())
            .run_recorded(&NoopRecorder)
            .unwrap();
        std::env::remove_var("PREFALL_THREADS");
        report
    };

    let serial = run_with("1");
    let two = run_with("2");
    let eight = run_with("8");
    // The naive reference kernels, serial: the fast kernels (training
    // and inference) must reproduce them bit for bit at any thread
    // count. The switch is process-wide, and its outputs are identical
    // either way, so tests running alongside are unaffected.
    set_reference_kernels(true);
    let reference = run_with("1");
    set_reference_kernels(false);

    assert_eq!(serial.cells.len(), 2);
    // `ExperimentReport: PartialEq` compares every fold's metrics,
    // confusion counts and per-segment f32 probabilities exactly.
    assert_eq!(serial, two, "2 threads changed the report");
    assert_eq!(serial, eight, "8 threads changed the report");
    assert_eq!(
        reference, two,
        "the fast kernels diverged from the reference"
    );
}

#[test]
fn nested_maps_are_bit_identical_for_any_thread_count() {
    // The work-stealing scheduler shares one set of deques across
    // nested sessions: an outer map's chunks and an inner map's chunks
    // interleave, and a parked worker may steal either. f32 sums must
    // not care — each inner map folds its partials in item order into
    // a pre-sized slot, so the bits depend only on the data, never on
    // which worker ran which chunk.
    let run_with = |threads: usize| -> Vec<u32> {
        let outer_pool = prefall_par::Pool::new(threads);
        let cells: Vec<usize> = (0..24).collect();
        outer_pool.map(&cells, |_, &cell| {
            // `from_env` inherits the enclosing map's thread budget, so
            // the inner fan-out follows the same setting under test.
            let inner_pool = prefall_par::Pool::from_env();
            let items: Vec<usize> = (0..257).collect();
            let parts = inner_pool.map(&items, |_, &i| {
                let x = ((cell * 1009 + i * 31) % 97) as f32 / 97.0;
                (x * 1.618_034 + 0.5).sin() * (i as f32 + 1.0).sqrt()
            });
            parts.iter().fold(0.0f32, |acc, p| acc + p).to_bits()
        })
    };

    let serial = run_with(1);
    let two = run_with(2);
    let eight = run_with(8);
    assert_eq!(serial, two, "2 threads changed nested-map bits");
    assert_eq!(serial, eight, "8 threads changed nested-map bits");
}

#[test]
fn explicit_thread_override_does_not_change_results() {
    let mut config = ExperimentConfig::fast();
    config.cv.epochs = 2;
    config.threads = Some(4);

    std::env::set_var("PREFALL_THREADS", "1");
    let overridden = Experiment::new(config.clone())
        .run_recorded(&NoopRecorder)
        .unwrap();
    std::env::remove_var("PREFALL_THREADS");

    config.threads = None;
    let default = Experiment::new(config).run_recorded(&NoopRecorder).unwrap();
    assert_eq!(overridden, default);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release gate")]
fn armed_tracing_never_changes_the_profiled_grid() {
    // The grid `prefall-profile` traces, at the epochs it runs with.
    let mut config = ExperimentConfig::fast();
    config.dataset.kfall_subjects = 3;
    config.dataset.self_collected_subjects = 3;
    config.windows_ms = vec![200.0, 400.0];
    config.models = vec![ModelKind::Mlp, ModelKind::ProposedCnn];
    config.cv.epochs = 2;
    config.threads = Some(4);

    prefall_trace::disarm();
    let disarmed = Experiment::new(config.clone())
        .run_recorded(&NoopRecorder)
        .unwrap();
    // Process-wide, like the reference-kernel switch: spans of tests
    // running alongside land in the rings too, and are discarded.
    prefall_trace::arm(1 << 18);
    let armed = Experiment::new(config).run_recorded(&Registry::new());
    prefall_trace::disarm();
    let timeline = prefall_trace::drain();
    let armed = armed.unwrap();

    assert!(timeline.event_count() > 0, "the armed grid recorded spans");
    assert_eq!(armed.cells.len(), 4);
    assert_eq!(disarmed.cells, armed.cells, "tracing changed the report");
}

#[test]
fn recording_never_changes_the_report_and_emits_every_stage_metric() {
    let mut config = ExperimentConfig::fast();
    config.cv.epochs = 2;
    // Two models over two windows: each window's segment set is built
    // once and then hit, so the cache counters both appear.
    config.models = vec![ModelKind::Mlp, ModelKind::ProposedCnn];
    config.windows_ms = vec![200.0, 300.0];

    let quiet = Experiment::new(config.clone())
        .run_recorded(&NoopRecorder)
        .unwrap();
    let registry = Registry::new();
    let recorded = Experiment::new(config).run_recorded(&registry).unwrap();
    assert_eq!(quiet, recorded, "recording changed the report");

    // The grid benchmark reads these by name and takes a missing one as
    // 0, so a stage that stops receiving the recorder would go unseen.
    let snap = registry.snapshot();
    for histogram in [
        "pipeline.filter_seconds",
        "pipeline.segment_seconds",
        "pipeline.normalize_seconds",
        "train.epoch_seconds",
        "cv.fold_seconds",
    ] {
        assert!(
            snap.histograms.get(histogram).is_some_and(|h| h.count > 0),
            "histogram {histogram} missing"
        );
    }
    for counter in ["cv.folds", "cache.hits", "cache.misses"] {
        assert!(
            snap.counters.get(counter).is_some_and(|&c| c > 0),
            "counter {counter} missing"
        );
    }
}
