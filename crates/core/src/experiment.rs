//! Reproducible experiment orchestration.
//!
//! The benchmark binaries (Table III, Table IV, sweeps, ablations) all
//! run through [`Experiment`]: one generated dataset, a grid of
//! (model × window) cells, subject-independent CV per cell.
//!
//! Scale knobs honour environment variables so the same binaries serve
//! quick runs and paper-scale runs:
//!
//! | variable | effect |
//! |---|---|
//! | `PREFALL_KFALL` / `PREFALL_SELF` | subjects per source |
//! | `PREFALL_EPOCHS` | max training epochs |
//! | `PREFALL_FOLDS` | CV folds |
//! | `PREFALL_TRIALS` | trials per task |
//! | `PREFALL_SEED` | master seed |
//! | `PREFALL_QUIET` | suppress progress events on stderr |
//! | `PREFALL_TELEMETRY_JSONL` | stream progress events to a JSONL file |

use crate::cache::SegmentCache;
use crate::cv::{run_cv_with_segments, CvConfig, CvOutcome};
use crate::events::EventReport;
use crate::metrics::TableMetrics;
use crate::models::ModelKind;
use crate::monitor::QualityMonitor;
use crate::pipeline::SegmentLabel;
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::CoreError;
use prefall_dsp::segment::Overlap;
use prefall_imu::dataset::{Dataset, DatasetConfig, DatasetStats};
use prefall_par::Pool;
use prefall_telemetry::{Recorder, TelemetryEnv, Value};
use std::sync::Arc;

/// Full experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Dataset generation parameters.
    pub dataset: DatasetConfig,
    /// Window lengths to evaluate, in ms.
    pub windows_ms: Vec<f64>,
    /// Overlap (the paper's grid fixes 50 % for Table III).
    pub overlap: Overlap,
    /// Models to evaluate.
    pub models: Vec<ModelKind>,
    /// Cross-validation protocol.
    pub cv: CvConfig,
    /// Worker-thread override for the experiment grid. `None` defers to
    /// `PREFALL_THREADS` (and ultimately the machine's parallelism).
    /// Results are bit-identical for any value.
    pub threads: Option<usize>,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.parse().ok()
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

impl ExperimentConfig {
    /// A minutes-scale Table III default: a reduced subject pool and
    /// epoch budget, full model × window grid, 5-fold protocol.
    pub fn table3_default() -> Self {
        Self {
            dataset: DatasetConfig {
                kfall_subjects: 6,
                self_collected_subjects: 6,
                trials_per_task: 1,
                duration_scale: 0.5,
                seed: 2025,
            },
            windows_ms: vec![200.0, 300.0, 400.0],
            overlap: Overlap::Half,
            models: ModelKind::ALL.to_vec(),
            cv: CvConfig {
                folds: 5,
                val_subjects: 2,
                epochs: 8,
                ..CvConfig::paper_scaled(8)
            },
            threads: None,
        }
    }

    /// A seconds-scale configuration for tests and the quickstart
    /// example: one window, the proposed CNN only.
    pub fn fast() -> Self {
        Self {
            dataset: DatasetConfig {
                kfall_subjects: 2,
                self_collected_subjects: 2,
                trials_per_task: 1,
                duration_scale: 0.4,
                seed: 7,
            },
            windows_ms: vec![200.0],
            overlap: Overlap::Half,
            models: vec![ModelKind::ProposedCnn],
            cv: CvConfig::fast(),
            threads: None,
        }
    }

    /// Applies the `PREFALL_*` environment overrides.
    pub fn with_env_overrides(mut self) -> Self {
        if let Some(n) = env_usize("PREFALL_KFALL") {
            self.dataset.kfall_subjects = n;
        }
        if let Some(n) = env_usize("PREFALL_SELF") {
            self.dataset.self_collected_subjects = n;
        }
        if let Some(n) = env_usize("PREFALL_TRIALS") {
            self.dataset.trials_per_task = n.max(1);
        }
        if let Some(n) = env_usize("PREFALL_EPOCHS") {
            self.cv.epochs = n.max(1);
        }
        if let Some(n) = env_usize("PREFALL_FOLDS") {
            self.cv.folds = n.max(2);
        }
        if let Some(s) = env_u64("PREFALL_SEED") {
            self.dataset.seed = s;
            self.cv.seed = s ^ 0xFA11;
        }
        self
    }
}

/// One grid cell's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The model evaluated.
    pub model: ModelKind,
    /// Window length in ms.
    pub window_ms: f64,
    /// Mean Table III columns over folds.
    pub metrics: TableMetrics,
    /// The full CV outcome (fold details, test predictions).
    pub cv: CvOutcome,
}

/// A completed experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Every (model × window) cell, in model-major order.
    pub cells: Vec<CellResult>,
    /// Statistics of the generated dataset.
    pub dataset_stats: DatasetStats,
    /// Overlap used.
    pub overlap: Overlap,
}

impl ExperimentReport {
    /// Finds a cell.
    pub fn cell(&self, model: ModelKind, window_ms: f64) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.model == model && (c.window_ms - window_ms).abs() < 1e-9)
    }
}

impl std::fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let windows: Vec<f64> = {
            let mut w: Vec<f64> = self.cells.iter().map(|c| c.window_ms).collect();
            w.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            w.dedup();
            w
        };
        writeln!(
            f,
            "segment-level results ({} overlap); columns: Accuracy Precision Recall F1 (%, macro)",
            self.overlap
        )?;
        write!(f, "{:<16}", "Model")?;
        for w in &windows {
            write!(f, " | {:>6.0} ms segment size       ", w)?;
        }
        writeln!(f)?;
        let mut models: Vec<ModelKind> = Vec::new();
        for c in &self.cells {
            if !models.contains(&c.model) {
                models.push(c.model);
            }
        }
        for m in models {
            write!(f, "{:<16}", m.name())?;
            for w in &windows {
                match self.cell(m, *w) {
                    Some(c) => write!(f, " | {}", c.metrics)?,
                    None => write!(f, " | {:>27}", "-")?,
                }
            }
            writeln!(f)?;
        }
        write!(
            f,
            "dataset: {} trials ({} falls), {} segments-equivalent samples, {:.2}% falling",
            self.dataset_stats.trials,
            self.dataset_stats.fall_trials,
            self.dataset_stats.samples,
            self.dataset_stats.falling_fraction * 100.0
        )
    }
}

/// An experiment runner.
///
/// Holds a content-hashed [`SegmentCache`]: grid cells that share a
/// filter + window configuration reuse the filtered, segmented trials
/// instead of recomputing them (the Table III grid runs four models per
/// window, so each window's preprocessing happens once, not four
/// times). The cache is shared by clones of the runner.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
    cache: Arc<SegmentCache>,
}

impl Experiment {
    /// Creates a runner.
    pub fn new(config: ExperimentConfig) -> Self {
        Self {
            config,
            cache: Arc::new(SegmentCache::default()),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Generates the dataset once (shared across all grid cells).
    ///
    /// # Errors
    ///
    /// Propagates dataset-generation errors.
    pub fn dataset(&self) -> Result<Dataset, CoreError> {
        Ok(Dataset::generate(&self.config.dataset)?)
    }

    /// Runs one grid cell on a pre-generated dataset, with telemetry
    /// threaded through the pipeline, CV protocol and training loop.
    ///
    /// # Errors
    ///
    /// Propagates pipeline and CV errors.
    pub fn run_cell(
        &self,
        dataset: &Dataset,
        model: ModelKind,
        window_ms: f64,
        rec: &dyn Recorder,
    ) -> Result<CellResult, CoreError> {
        let pipeline = Pipeline::new(PipelineConfig {
            segmentation: prefall_dsp::segment::Segmentation::from_millis(
                window_ms,
                prefall_imu::SAMPLE_RATE_HZ,
                self.config.overlap,
            )?,
            ..PipelineConfig::paper_400ms()
        })?;
        let full = self.cache.get_or_build(&pipeline, dataset.trials(), rec);
        let cv = run_cv_with_segments(dataset, &pipeline, &full, model, &self.config.cv, rec)?;
        if rec.enabled() {
            // Fold the cell's held-out predictions into the online
            // model-quality audit: calibration bins from raw sigmoid
            // outputs, Table IV event counters from the event report.
            let preds = cv.all_predictions();
            let mut monitor = QualityMonitor::new();
            for (meta, prob) in &preds {
                monitor.record_probability(*prob, meta.label == SegmentLabel::Falling);
            }
            let report = EventReport::from_predictions(&preds, 0.5);
            monitor.record_event_report(&report, rec);
            monitor.publish(rec);
        }
        Ok(CellResult {
            model,
            window_ms,
            metrics: cv.mean,
            cv,
        })
    }

    /// Runs the full grid. Progress is reported through the recorder
    /// selected by the environment ([`TelemetryEnv::from_env`]): stderr
    /// events by default, silence under `PREFALL_QUIET=1`, and a JSONL
    /// stream when `PREFALL_TELEMETRY_JSONL` names a file.
    ///
    /// # Errors
    ///
    /// Propagates any cell failure.
    pub fn run(&self) -> Result<ExperimentReport, CoreError> {
        self.run_recorded(TelemetryEnv::from_env().progress_recorder().as_ref())
    }

    /// [`Experiment::run`] against an explicit recorder: per-cell
    /// `experiment.cell_start` / `experiment.cell_done` events plus
    /// everything the lower layers emit (fold events, epoch events,
    /// stage timings).
    ///
    /// # Errors
    ///
    /// Propagates any cell failure.
    pub fn run_recorded(&self, rec: &dyn Recorder) -> Result<ExperimentReport, CoreError> {
        let dataset = self.dataset()?;
        // The grid in model-major order; cells are independent seeded
        // computations collected by index, so the report is
        // bit-identical for any thread count.
        let grid: Vec<(ModelKind, f64)> = self
            .config
            .models
            .iter()
            .flat_map(|&m| self.config.windows_ms.iter().map(move |&w| (m, w)))
            .collect();
        let total = grid.len();
        let pool = Pool::with_override(self.config.threads);
        let results =
            crate::worker::map_recorded(&pool, &grid, rec, |i, &(model, window_ms), rec| {
                let _cell_span = prefall_trace::trace_span!(crate::tracenames::trace_names().cell);
                let started = std::time::Instant::now();
                rec.event(
                    "experiment.cell_start",
                    &[
                        ("cell", Value::from(i + 1)),
                        ("total", Value::from(total)),
                        ("model", Value::from(model.name())),
                        ("window_ms", Value::from(window_ms)),
                    ],
                );
                let cell = self.run_cell(&dataset, model, window_ms, rec)?;
                rec.event(
                    "experiment.cell_done",
                    &[
                        ("cell", Value::from(i + 1)),
                        ("total", Value::from(total)),
                        ("model", Value::from(model.name())),
                        ("window_ms", Value::from(window_ms)),
                        ("f1", Value::from(cell.metrics.f1)),
                        ("seconds", Value::from(started.elapsed().as_secs_f64())),
                    ],
                );
                Ok(cell)
            });
        pool.publish(rec);
        let cells = results
            .into_iter()
            .collect::<Result<Vec<CellResult>, CoreError>>()?;
        Ok(ExperimentReport {
            cells,
            dataset_stats: dataset.stats(),
            overlap: self.config.overlap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_experiment_runs_end_to_end() {
        let report = Experiment::new(ExperimentConfig::fast()).run().unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = report.cell(ModelKind::ProposedCnn, 200.0).unwrap();
        assert!(cell.metrics.accuracy > 70.0);
        let text = report.to_string();
        assert!(text.contains("CNN (Proposed)"));
        assert!(text.contains("200 ms"));
    }

    #[test]
    fn env_overrides_apply() {
        // Serialised access: env vars are process-global.
        std::env::set_var("PREFALL_EPOCHS", "3");
        std::env::set_var("PREFALL_FOLDS", "4");
        let cfg = ExperimentConfig::table3_default().with_env_overrides();
        assert_eq!(cfg.cv.epochs, 3);
        assert_eq!(cfg.cv.folds, 4);
        std::env::remove_var("PREFALL_EPOCHS");
        std::env::remove_var("PREFALL_FOLDS");
    }

    #[test]
    fn table3_default_covers_the_grid() {
        let cfg = ExperimentConfig::table3_default();
        assert_eq!(cfg.models.len(), 4);
        assert_eq!(cfg.windows_ms, vec![200.0, 300.0, 400.0]);
        assert_eq!(cfg.cv.folds, 5);
    }
}
