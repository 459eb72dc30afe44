//! §III-C subject-independent k-fold cross-validation.
//!
//! Subjects (not segments!) are partitioned into `k` folds; each fold
//! serves once as the test set while a further `val_subjects` subjects
//! are held out of the remaining training pool for early stopping —
//! "this cross-validation methodology guarantees no overlap between the
//! training/validation and testing data, as they involve different
//! subjects".

use crate::augment::augment_positives;
use crate::metrics::{Confusion, TableMetrics};
use crate::models::ModelKind;
use crate::pipeline::{Pipeline, SegmentMeta, SegmentSet};
use crate::CoreError;
use prefall_imu::dataset::Dataset;
use prefall_imu::rng::GenRng;
use prefall_imu::subject::SubjectId;
use prefall_nn::loss::{initial_output_bias, WeightedBce};
use prefall_nn::network::Network;
use prefall_nn::optim::OptimizerKind;
use prefall_nn::train::{predict_proba, train, DataRef, TrainConfig};
use prefall_par::Pool;
use prefall_telemetry::{Recorder, Span, Value};
use serde::{Deserialize, Serialize};

/// Cross-validation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CvConfig {
    /// Number of folds (paper: 5).
    pub folds: usize,
    /// Subjects held out of each fold's training pool for validation
    /// (paper: 4).
    pub val_subjects: usize,
    /// Maximum training epochs (paper: 200; CPU defaults are smaller).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Early-stopping patience (paper: 20).
    pub patience: Option<usize>,
    /// Warped copies added per falling segment (0 disables §III-C
    /// augmentation).
    pub augment_factor: usize,
    /// Apply balanced class weights.
    pub class_weights: bool,
    /// Apply the output-bias initialisation (Eq. 1).
    pub bias_init: bool,
    /// Decision threshold on the sigmoid output.
    pub threshold: f32,
    /// Master seed.
    pub seed: u64,
}

impl CvConfig {
    /// The paper's protocol with a CPU-sized epoch budget.
    pub fn paper_scaled(epochs: usize) -> Self {
        Self {
            folds: 5,
            val_subjects: 4,
            epochs,
            batch_size: 32,
            learning_rate: 1e-3,
            patience: Some(20),
            augment_factor: 2,
            class_weights: true,
            bias_init: true,
            threshold: 0.5,
            seed: 0xFA11,
        }
    }

    /// A fast configuration for tests and examples.
    pub fn fast() -> Self {
        Self {
            folds: 2,
            val_subjects: 1,
            epochs: 4,
            batch_size: 32,
            learning_rate: 2e-3,
            patience: None,
            augment_factor: 1,
            class_weights: true,
            bias_init: true,
            threshold: 0.5,
            seed: 0xFA57,
        }
    }
}

/// The subject split of one fold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldSplit {
    /// Test subjects.
    pub test: Vec<SubjectId>,
    /// Validation subjects (early stopping).
    pub val: Vec<SubjectId>,
    /// Training subjects.
    pub train: Vec<SubjectId>,
}

/// Partitions subjects into `k` folds and derives each fold's
/// train/val/test split, deterministically from `seed`.
///
/// # Errors
///
/// Returns [`CoreError::InsufficientData`] when there are not enough
/// subjects for `k` folds plus `val_subjects`.
pub fn subject_folds(
    ids: &[SubjectId],
    k: usize,
    val_subjects: usize,
    seed: u64,
) -> Result<Vec<FoldSplit>, CoreError> {
    if k < 2 || ids.len() < k * 2 || ids.len() < k + val_subjects + 1 {
        return Err(CoreError::InsufficientData {
            reason: format!(
                "{} subjects cannot support {k}-fold CV with {val_subjects} validation subjects",
                ids.len()
            ),
        });
    }
    let mut shuffled = ids.to_vec();
    let mut rng = GenRng::seed_from_u64(seed);
    rng.shuffle(&mut shuffled);

    // Contiguous chunks of near-equal size.
    let mut folds: Vec<Vec<SubjectId>> = vec![Vec::new(); k];
    for (i, id) in shuffled.iter().enumerate() {
        folds[i % k].push(*id);
    }

    let mut splits = Vec::with_capacity(k);
    for (i, test) in folds.iter().enumerate() {
        let mut rest: Vec<SubjectId> = shuffled
            .iter()
            .filter(|id| !test.contains(id))
            .copied()
            .collect();
        let mut fold_rng = GenRng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x9E37));
        fold_rng.shuffle(&mut rest);
        let n_val = val_subjects.min(rest.len().saturating_sub(1));
        let val: Vec<SubjectId> = rest[..n_val].to_vec();
        let train: Vec<SubjectId> = rest[n_val..].to_vec();
        splits.push(FoldSplit {
            test: test.clone(),
            val,
            train,
        });
    }
    Ok(splits)
}

/// Per-fold outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldOutcome {
    /// Fold index.
    pub fold: usize,
    /// Segment-level confusion on the test subjects.
    pub confusion: Confusion,
    /// Table III columns for this fold.
    pub metrics: TableMetrics,
    /// Per-test-segment sigmoid probabilities with identity (feeds the
    /// Table IV event analysis).
    pub predictions: Vec<(SegmentMeta, f32)>,
    /// Epochs actually run.
    pub epochs_run: usize,
}

/// Aggregated cross-validation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CvOutcome {
    /// Every fold.
    pub folds: Vec<FoldOutcome>,
    /// Mean Table III columns over folds.
    pub mean: TableMetrics,
    /// Pooled confusion over all folds.
    pub pooled: Confusion,
}

impl CvOutcome {
    /// All test predictions across folds (every subject appears exactly
    /// once as a test subject).
    pub fn all_predictions(&self) -> Vec<(SegmentMeta, f32)> {
        self.folds
            .iter()
            .flat_map(|f| f.predictions.iter().copied())
            .collect()
    }
}

/// The trained network, per-test-segment predictions, and the number of
/// epochs run, as returned by [`train_on_sets`].
pub type TrainedParts = (Network, Vec<(SegmentMeta, f32)>, usize);

/// Applies the training-set augmentation [`train_on_sets`] runs before
/// it fits the normaliser: `cfg.augment_factor` warped copies of every
/// falling segment, seeded from `seed` (the seed passed to
/// [`train_on_sets`]). A deployment flow that re-fits the normaliser
/// outside [`train_on_sets`] calls this on its training split to get
/// the same statistics the network was trained under.
pub fn augment_training_set(set: &mut SegmentSet, cfg: &CvConfig, seed: u64) {
    augment_positives(set, cfg.augment_factor, seed ^ 0xAA99);
}

/// Trains one model on pre-split segment sets and returns the trained
/// network plus test predictions. This is the inner step of
/// [`run_cv`], exposed for ablations and deployment flows.
///
/// The splits must already be subject-disjoint. The training set is
/// augmented by [`augment_training_set`] and normalisation is fitted on
/// the augmented set only. Normalisation timings and per-epoch training
/// events go to `rec` (see [`Pipeline::normalize`] and [`train`]).
///
/// # Errors
///
/// Propagates training errors; returns [`CoreError::InsufficientData`]
/// when the training set lacks one of the classes.
#[allow(clippy::too_many_arguments)]
pub fn train_on_sets(
    pipeline: &Pipeline,
    mut train_set: SegmentSet,
    mut val_set: SegmentSet,
    mut test_set: SegmentSet,
    model: ModelKind,
    cfg: &CvConfig,
    seed: u64,
    rec: &dyn Recorder,
) -> Result<TrainedParts, CoreError> {
    augment_training_set(&mut train_set, cfg, seed);
    let n_pos = train_set.positives();
    let n_neg = train_set.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return Err(CoreError::InsufficientData {
            reason: format!("training set has {n_pos} positives and {n_neg} negatives"),
        });
    }

    let norm = pipeline.fit_normalizer(&train_set);
    pipeline.normalize(&mut train_set, &norm, rec);
    pipeline.normalize(&mut val_set, &norm, rec);
    pipeline.normalize(&mut test_set, &norm, rec);

    let mut net = model.build(train_set.window, train_set.channels, seed)?;
    if cfg.bias_init {
        let prior = train_set.positive_prior().clamp(1e-4, 1.0 - 1e-4);
        net.set_output_bias(&[initial_output_bias(prior)])?;
    }
    let loss = if cfg.class_weights {
        WeightedBce::balanced(n_pos, n_neg)
    } else {
        WeightedBce::unweighted()
    };
    let tc = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        learning_rate: cfg.learning_rate,
        optimizer: OptimizerKind::Adam,
        patience: cfg.patience,
        seed,
    };
    let val = (!val_set.is_empty()).then(|| DataRef::new(&val_set.x, &val_set.y));
    let report = train(
        &mut net,
        DataRef::new(&train_set.x, &train_set.y),
        val,
        loss,
        &tc,
        rec,
    )?;

    let probs = predict_proba(&mut net, &test_set.x);
    let predictions: Vec<(SegmentMeta, f32)> = test_set.meta.iter().copied().zip(probs).collect();
    Ok((net, predictions, report.epochs_run))
}

// The `benchmark/` package imports `train_on_sets` by this name.
#[doc(hidden)]
pub use self::train_on_sets as train_on_sets_recorded;

/// Runs the full subject-independent k-fold protocol for one model.
///
/// Telemetry goes to `rec`: segmentation counters and stage timings,
/// per-epoch training events, a `cv.fold_seconds` timing plus a
/// `cv.fold` event (macro F1, epochs run) per fold, and a `cv.folds`
/// counter.
///
/// # Errors
///
/// Returns [`CoreError::InsufficientData`] when the dataset cannot
/// support the fold configuration, and propagates training errors.
pub fn run_cv(
    dataset: &Dataset,
    pipeline: &Pipeline,
    model: ModelKind,
    cfg: &CvConfig,
    rec: &dyn Recorder,
) -> Result<CvOutcome, CoreError> {
    let full = pipeline.segment_set_recorded(dataset.trials(), rec);
    run_cv_with_segments(dataset, pipeline, &full, model, cfg, rec)
}

/// [`run_cv`] over an already-segmented dataset. The
/// preprocessing cache ([`crate::cache::SegmentCache`]) hands sweep
/// cells a shared segment set; this entry point runs the folds without
/// re-filtering and re-windowing the trials. `full` must be the
/// **pre-normalisation** segment set of `dataset.trials()` under
/// `pipeline`'s configuration (normalisation is fitted per fold on the
/// training subjects only).
///
/// Folds are independent given the shared segment set, so they run on a
/// [`Pool`] sized by `PREFALL_THREADS`. Every fold's seed derives only
/// from its index and results are collected in fold order, so the
/// outcome is bit-identical for any thread count.
///
/// # Errors
///
/// Same as [`run_cv`].
pub fn run_cv_with_segments(
    dataset: &Dataset,
    pipeline: &Pipeline,
    full: &SegmentSet,
    model: ModelKind,
    cfg: &CvConfig,
    rec: &dyn Recorder,
) -> Result<CvOutcome, CoreError> {
    let ids = dataset.subject_ids();
    let splits = subject_folds(&ids, cfg.folds, cfg.val_subjects, cfg.seed)?;

    let pool = Pool::from_env();
    let results = crate::worker::map_recorded(&pool, &splits, rec, |i, split, rec| {
        let _fold_trace = prefall_trace::trace_span!(crate::tracenames::trace_names().fold);
        let fold_span = Span::enter(rec, "cv.fold_seconds");
        let train_set = full.filter_subjects(&split.train);
        let val_set = full.filter_subjects(&split.val);
        let test_set = full.filter_subjects(&split.test);
        let test_labels: Vec<f32> = test_set.y.clone();

        let (_, predictions, epochs_run) = train_on_sets(
            pipeline,
            train_set,
            val_set,
            test_set,
            model,
            cfg,
            cfg.seed ^ ((i as u64 + 1) << 32),
            rec,
        )?;

        let probs: Vec<f32> = predictions.iter().map(|(_, p)| *p).collect();
        let confusion = Confusion::from_probs(&probs, &test_labels, cfg.threshold);
        let metrics = TableMetrics::from_confusion(&confusion);
        fold_span.finish();
        if rec.enabled() {
            rec.counter_add("cv.folds", 1);
            rec.event(
                "cv.fold",
                &[
                    ("fold", Value::from(i)),
                    ("f1", Value::from(metrics.f1)),
                    ("epochs_run", Value::from(epochs_run)),
                    ("test_segments", Value::from(test_labels.len())),
                ],
            );
        }
        Ok(FoldOutcome {
            fold: i,
            metrics,
            confusion,
            predictions,
            epochs_run,
        })
    });
    pool.publish(rec);
    let folds = results
        .into_iter()
        .collect::<Result<Vec<FoldOutcome>, CoreError>>()?;

    let mean = TableMetrics::mean(&folds.iter().map(|f| f.metrics).collect::<Vec<_>>());
    let mut pooled = Confusion::new();
    for f in &folds {
        pooled.merge(&f.confusion);
    }
    Ok(CvOutcome {
        folds,
        mean,
        pooled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use prefall_dsp::segment::Overlap;
    use prefall_telemetry::NoopRecorder;

    fn ids(n: usize) -> Vec<SubjectId> {
        (0..n as u16).map(SubjectId).collect()
    }

    #[test]
    fn folds_partition_subjects_disjointly() {
        let ids = ids(13);
        let splits = subject_folds(&ids, 5, 2, 7).unwrap();
        assert_eq!(splits.len(), 5);
        // Every subject appears in exactly one test fold.
        let mut seen: Vec<SubjectId> = splits.iter().flat_map(|s| s.test.clone()).collect();
        seen.sort();
        let mut expect = ids.clone();
        expect.sort();
        assert_eq!(seen, expect);
        for s in &splits {
            assert_eq!(s.val.len(), 2);
            for id in &s.test {
                assert!(!s.val.contains(id));
                assert!(!s.train.contains(id));
            }
            for id in &s.val {
                assert!(!s.train.contains(id));
            }
            assert_eq!(s.test.len() + s.val.len() + s.train.len(), 13);
        }
    }

    #[test]
    fn folds_are_deterministic_and_seed_sensitive() {
        let ids = ids(12);
        let a = subject_folds(&ids, 4, 2, 1).unwrap();
        let b = subject_folds(&ids, 4, 2, 1).unwrap();
        let c = subject_folds(&ids, 4, 2, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_too_few_subjects() {
        assert!(subject_folds(&ids(5), 5, 4, 1).is_err());
        assert!(subject_folds(&ids(3), 2, 0, 1).is_err());
    }

    #[test]
    fn paper_61_subjects_give_12ish_per_fold() {
        let splits = subject_folds(&ids(61), 5, 4, 3).unwrap();
        for s in &splits {
            assert!(s.test.len() == 12 || s.test.len() == 13);
            assert_eq!(s.val.len(), 4);
            assert!(s.train.len() >= 44);
        }
    }

    /// End-to-end: a tiny CV run learns something non-trivial.
    #[test]
    fn tiny_cv_run_beats_chance() {
        let dataset = prefall_imu::dataset::Dataset::combined_scaled(2, 2, 11).unwrap();
        let pipeline = Pipeline::new(PipelineConfig::paper(200.0, Overlap::Half)).unwrap();
        let mut cfg = CvConfig::fast();
        cfg.epochs = 6;
        let out = run_cv(
            &dataset,
            &pipeline,
            ModelKind::ProposedCnn,
            &cfg,
            &NoopRecorder,
        )
        .unwrap();
        assert_eq!(out.folds.len(), 2);
        // Every test segment got a probability.
        assert!(!out.all_predictions().is_empty());
        // Macro recall must beat the degenerate 50% baseline.
        assert!(
            out.mean.recall > 55.0,
            "macro recall {:.1} not better than chance",
            out.mean.recall
        );
        assert!(out.mean.accuracy > 80.0);
    }
}
