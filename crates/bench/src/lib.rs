//! Benchmark harness: every table and figure of the paper has a
//! regeneration binary in `src/bin/`, and the on-edge kernels (§IV-C)
//! are measured by the Criterion benches in `benches/`.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_context` | Table I context: threshold baseline vs the CNN at event level |
//! | `table2_activities` | Table II: the 44-task catalogue |
//! | `table3` | Table III: model × window segment-level comparison |
//! | `table4` | Table IV: event-level misclassification per task |
//! | `figure1` | Fig. 1: annotated fall-stage timeline |
//! | `edge_perf` | §IV-C: quantization + STM32F722 deployment envelope, lead time against the 150 ms budget |
//! | `sweep_windows` | §III-A: window × overlap grid |
//! | `ablations` | DESIGN.md ablation suite |
//! | `prefall-profile` | where the grid's wall clock goes: attribution split, per-worker utilization, Chrome trace |
//! | `prefall-overhead` | what arming tracing, the watch daemon and the drift tap costs a classified push |
//! | `prefall-replay` | record and inspect flight-recorder incident dumps |
//! | `prefall-fingerprint` | write and inspect the drift reference fingerprint |
//!
//! All binaries honour the `PREFALL_*` environment overrides documented
//! on [`prefall_core::experiment::ExperimentConfig`].
//!
//! The correctness bounds on what these binaries report — lead time,
//! the robustness sweep, the watch alert timeline, the drift legs —
//! are release-mode tests under `tests/`, sharing this library's
//! helpers ([`TrainedCnn`], [`watch_slos`], [`driftref`]). Only
//! `prefall-overhead` gates by exit code: its three arming ratios are
//! timings, measured by the one [`overhead::arming_medians`] harness.
//! Wall-clock speed is gated by the repo benchmark (`benchmark
//! compare`), not here.

pub mod driftref;
pub mod overhead;

use prefall_core::cv::{subject_folds, train_on_sets, CvConfig};
use prefall_core::models::ModelKind;
use prefall_core::pipeline::{Pipeline, PipelineConfig, SegmentSet};
use prefall_dsp::stats::Normalizer;
use prefall_imu::dataset::{Dataset, DatasetConfig};
use prefall_nn::network::Network;
use prefall_nn::quant::QuantizedNetwork;
use prefall_telemetry::Recorder;
use prefall_watch::{SloObjective, SloSpec};

/// The proposed CNN trained on the first subject fold of a seeded
/// dataset at the paper's 400 ms window: the model `edge_perf` deploys
/// and the lead-time and robustness tests stream.
pub struct TrainedCnn {
    /// The generated dataset; every trial is streamed afterwards.
    pub dataset: Dataset,
    /// The 400 ms paper pipeline the sets were segmented with.
    pub pipeline: Pipeline,
    /// The trained float network.
    pub net: Network,
    /// Normaliser fitted on the un-augmented training set.
    pub norm: Normalizer,
    /// The fold's training segments, un-augmented and un-normalised.
    pub train_set: SegmentSet,
    /// The fold's held-out test segments, un-normalised.
    pub test_set: SegmentSet,
}

impl TrainedCnn {
    /// Generates `dataset`, splits it into two subject folds (one
    /// validation subject) and trains on the first with
    /// [`CvConfig::paper_scaled`]`(8)` — or `epochs`, when given —
    /// from weight seed `seed`.
    ///
    /// # Panics
    ///
    /// When the dataset, the folds or the training fail; every caller
    /// passes a configuration known to train.
    pub fn train(
        dataset: &DatasetConfig,
        epochs: Option<usize>,
        seed: u64,
        rec: &dyn Recorder,
    ) -> Self {
        let mut cv = CvConfig::paper_scaled(8);
        cv.folds = 2;
        cv.val_subjects = 1;
        if let Some(epochs) = epochs {
            cv.epochs = epochs;
        }
        let dataset = Dataset::generate(dataset).expect("dataset");
        let pipeline = Pipeline::new(PipelineConfig::paper_400ms()).expect("pipeline");
        let full = pipeline.segment_set_recorded(dataset.trials(), rec);
        let splits = subject_folds(&dataset.subject_ids(), cv.folds, cv.val_subjects, cv.seed)
            .expect("folds");
        let split = &splits[0];
        let train_set = full.filter_subjects(&split.train);
        let val_set = full.filter_subjects(&split.val);
        let test_set = full.filter_subjects(&split.test);
        let (net, _preds, _epochs) = train_on_sets(
            &pipeline,
            train_set.clone(),
            val_set,
            test_set.clone(),
            ModelKind::ProposedCnn,
            &cv,
            seed,
            rec,
        )
        .expect("training");
        // Re-derive the normaliser on the raw training set (train_on_sets
        // fits its own on the augmented one; for streaming and
        // calibration the raw one is what a device would ship).
        let norm = pipeline.fit_normalizer(&train_set);
        Self {
            dataset,
            pipeline,
            net,
            norm,
            train_set,
            test_set,
        }
    }

    /// The int8 network, calibrated on the first 256 normalised
    /// training windows.
    ///
    /// # Panics
    ///
    /// When quantization fails.
    pub fn quantize(&mut self) -> QuantizedNetwork {
        let calib: Vec<Vec<f32>> = self.train_set.x[..self.train_set.x.len().min(256)]
            .iter()
            .map(|x| self.norm.apply(x))
            .collect();
        QuantizedNetwork::from_network(&mut self.net, &calib).expect("quantization")
    }
}

/// The SLOs the watch alert-timeline test replays and the watch arming
/// leg of `prefall-overhead` samples: tight windows, so a 600 s replay
/// covers fire + refractory + resolve with margin.
pub fn watch_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::new(
            "fa_rate",
            SloObjective::CounterRateCeiling {
                counter: "detector.false_activations".into(),
                per_seconds: 3600.0,
                max: 30.0,
            },
        )
        .windows(120.0, 30.0)
        .burn(2.0, 1.0)
        .hold(60.0, 30.0)
        .quality(),
        SloSpec::new(
            "degraded_rate",
            SloObjective::RatioCeiling {
                num: "guard.degraded_samples".into(),
                den: "guard.samples".into(),
                max: 0.05,
                min_den: 100.0,
            },
        )
        .windows(120.0, 30.0)
        .burn(2.0, 1.0)
        .hold(60.0, 30.0),
        SloSpec::new(
            "ingest_p99",
            SloObjective::QuantileCeiling {
                histogram: "detector.push_sample_seconds".into(),
                q: 0.99,
                max: 5e-3,
                min_count: 100.0,
            },
        )
        .windows(120.0, 30.0)
        .burn(2.0, 1.0)
        .hold(60.0, 30.0),
    ]
}

/// The paper's Table III values (%, macro-averaged), for side-by-side
/// printing: `(model, window_ms, accuracy, precision, recall, f1)`.
pub const PAPER_TABLE3: [(&str, f64, f64, f64, f64, f64); 12] = [
    ("MLP", 200.0, 96.76, 51.24, 50.00, 49.18),
    ("MLP", 300.0, 96.62, 53.02, 55.39, 54.13),
    ("MLP", 400.0, 96.45, 60.23, 54.63, 54.25),
    ("LSTM", 200.0, 97.28, 80.92, 68.62, 72.98),
    ("LSTM", 300.0, 97.43, 82.51, 72.08, 75.93),
    ("LSTM", 400.0, 97.60, 85.97, 75.74, 79.81),
    ("ConvLSTM2D", 200.0, 97.12, 81.24, 61.61, 66.37),
    ("ConvLSTM2D", 300.0, 97.21, 83.67, 63.55, 68.53),
    ("ConvLSTM2D", 400.0, 97.10, 85.57, 65.36, 70.75),
    ("CNN (Proposed)", 200.0, 97.93, 85.61, 78.85, 81.75),
    ("CNN (Proposed)", 300.0, 98.01, 86.38, 80.03, 82.85),
    ("CNN (Proposed)", 400.0, 98.28, 90.40, 83.95, 86.69),
];

/// Paper Table IVa: % of fall events misclassified as ADLs, per task.
pub const PAPER_TABLE4A: [(u8, f64); 21] = [
    (39, 16.00),
    (40, 12.00),
    (21, 9.47),
    (22, 8.42),
    (41, 8.00),
    (33, 6.95),
    (27, 5.35),
    (29, 4.42),
    (37, 4.00),
    (42, 4.00),
    (30, 3.85),
    (31, 3.37),
    (32, 3.17),
    (28, 2.73),
    (34, 2.72),
    (26, 2.19),
    (23, 2.17),
    (24, 1.61),
    (25, 1.60),
    (20, 1.60),
    (38, 0.00),
];

/// Paper Table IVb: % of ADL events misclassified as falls, per task.
pub const PAPER_TABLE4B: [(u8, f64); 23] = [
    (44, 20.00),
    (15, 11.29),
    (19, 6.74),
    (4, 6.35),
    (5, 2.16),
    (10, 2.13),
    (14, 1.63),
    (8, 1.62),
    (18, 1.10),
    (9, 0.56),
    (16, 0.56),
    (3, 0.54),
    (1, 0.00),
    (2, 0.00),
    (6, 0.00),
    (7, 0.00),
    (11, 0.00),
    (12, 0.00),
    (13, 0.00),
    (17, 0.00),
    (35, 0.00),
    (36, 0.00),
    (43, 0.00),
];

/// Paper headline event-level aggregates.
pub mod paper_aggregates {
    /// Overall % of fall events missed (Table IVa "All actions").
    pub const FALL_MISS_PCT: f64 = 4.17;
    /// Overall % of ADL events falsely flagged (Table IVb "All actions").
    pub const ADL_FP_PCT: f64 = 2.04;
    /// Red-task false-activation % (Table IVb).
    pub const RED_FP_PCT: f64 = 3.34;
    /// Green-task false-activation % (Table IVb).
    pub const GREEN_FP_PCT: f64 = 0.46;
}

/// Paper §IV-C on-edge envelope.
pub mod paper_edge {
    /// Model flash footprint in KiB.
    pub const MODEL_KIB: f64 = 67.03;
    /// Total RAM usage in KiB.
    pub const RAM_KIB: f64 = 16.87;
    /// Nominal inference latency in ms.
    pub const INFERENCE_MS: f64 = 4.0;
    /// Latency jitter in ms.
    pub const JITTER_MS: f64 = 3.0;
    /// Sensor-fusion pipeline latency in ms.
    pub const FUSION_MS: f64 = 3.0;
}

/// Shared telemetry plumbing for the bench binaries: every binary that
/// measures something routes its numbers through a
/// [`prefall_telemetry::Registry`] and dumps `BENCH_telemetry.json` for
/// machine consumption, alongside the human tables on stdout.
pub mod telemetry_out {
    use prefall_telemetry::{summary, JsonValue, Registry, Snapshot, TelemetryEnv};
    use std::io::Write;
    use std::sync::Arc;

    /// Directory every bench artifact lands in (gitignored; CI uploads
    /// from here). Keeping artifacts out of the repo root means a bench
    /// run never dirties `git status`.
    pub const BENCH_OUT_DIR: &str = "bench-out";

    /// The file every bench binary writes its telemetry snapshot to.
    pub const BENCH_TELEMETRY_PATH: &str = "BENCH_telemetry.json";

    /// `bench-out/<name>`, creating the directory on first use. Names
    /// that already carry a directory component pass through untouched
    /// (a caller that wants an explicit destination keeps it).
    pub fn out_path(name: &str) -> String {
        if name.contains('/') {
            return name.to_string();
        }
        if let Err(e) = std::fs::create_dir_all(BENCH_OUT_DIR) {
            eprintln!("bench: cannot create {BENCH_OUT_DIR}/: {e}");
            return name.to_string();
        }
        format!("{BENCH_OUT_DIR}/{name}")
    }

    /// The standard bench sinks: an aggregate [`Registry`] plus whatever
    /// progress recorder the environment asks for (stderr unless
    /// `PREFALL_QUIET=1`, JSONL when `PREFALL_TELEMETRY_JSONL` is set),
    /// already fanned out into one recorder.
    pub fn bench_recorder() -> (Arc<Registry>, Arc<dyn prefall_telemetry::Recorder>) {
        let registry = Arc::new(Registry::new());
        let progress = TelemetryEnv::from_env().progress_recorder();
        let fanout: Arc<dyn prefall_telemetry::Recorder> =
            Arc::new(prefall_telemetry::FanoutRecorder::new(vec![
                registry.clone(),
                progress,
            ]));
        (registry, fanout)
    }

    /// Writes `{"bench": name, ...extra, "counters": …, "gauges": …,
    /// "histograms": …}` to [`BENCH_TELEMETRY_PATH`] and prints the
    /// human-readable summary table on stderr (unless `PREFALL_QUIET`).
    pub fn dump(bench: &str, snapshot: &Snapshot, extra: Vec<(String, JsonValue)>) {
        dump_to(BENCH_TELEMETRY_PATH, bench, snapshot, extra);
    }

    /// Like [`dump`] but writing to an arbitrary file name, for
    /// binaries whose snapshot must not clobber `BENCH_telemetry.json`
    /// (e.g. `prefall-profile` writes `BENCH_trace.json`).
    /// Bare names are routed into [`BENCH_OUT_DIR`].
    pub fn dump_to(path: &str, bench: &str, snapshot: &Snapshot, extra: Vec<(String, JsonValue)>) {
        let path = &out_path(path);
        let mut fields = vec![("bench".to_string(), JsonValue::Str(bench.to_string()))];
        fields.extend(extra);
        if let JsonValue::Obj(sections) = snapshot.to_json() {
            fields.extend(sections);
        }
        let doc = JsonValue::Obj(fields);
        let quiet = TelemetryEnv::from_env().quiet;
        match std::fs::File::create(path) {
            Ok(mut f) => {
                if let Err(e) = writeln!(f, "{doc}") {
                    eprintln!("{bench}: cannot write {path}: {e}");
                } else if !quiet {
                    eprintln!("{bench}: telemetry snapshot written to {path}");
                }
            }
            Err(e) => eprintln!("{bench}: cannot create {path}: {e}"),
        }
        if !quiet {
            eprint!("{}", summary::render(snapshot));
        }
    }
}

/// Looks up a paper Table III row.
pub fn paper_table3(model: &str, window_ms: f64) -> Option<(f64, f64, f64, f64)> {
    PAPER_TABLE3
        .iter()
        .find(|(m, w, ..)| *m == model && (*w - window_ms).abs() < 1e-9)
        .map(|&(_, _, a, p, r, f)| (a, p, r, f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table3_lookup() {
        let (a, p, r, f) = paper_table3("CNN (Proposed)", 400.0).unwrap();
        assert_eq!((a, p, r, f), (98.28, 90.40, 83.95, 86.69));
        assert!(paper_table3("CNN (Proposed)", 500.0).is_none());
    }

    #[test]
    fn table4b_covers_all_23_adls() {
        let mut tasks: Vec<u8> = PAPER_TABLE4B.iter().map(|(t, _)| *t).collect();
        tasks.sort_unstable();
        tasks.dedup();
        assert_eq!(tasks.len(), 23);
        for t in &tasks {
            let a = prefall_imu::activity::Activity::from_task(*t).unwrap();
            assert!(!a.is_fall(), "task {t} in IVb must be an ADL");
        }
    }

    #[test]
    fn table4a_tasks_are_falls() {
        let mut tasks: Vec<u8> = PAPER_TABLE4A.iter().map(|(t, _)| *t).collect();
        tasks.sort_unstable();
        tasks.dedup();
        assert_eq!(tasks.len(), 21, "all 21 fall tasks present");
        for t in &tasks {
            let a = prefall_imu::activity::Activity::from_task(*t).unwrap();
            assert!(a.is_fall(), "task {t} in IVa must be a fall");
        }
    }
}
