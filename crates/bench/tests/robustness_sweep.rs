//! The robustness sweep: the trained CNN streams every trial through
//! the hardened detector under increasingly severe sensor corruption
//! ([`FaultPlan::kitchen_sink`] at fault seed 7, scaled from 0 to 1).
//!
//! Three bounds:
//!
//! 1. **Clean-signal identity** — on the uncorrupted dataset the guard
//!    is a bit-exact no-op: every trial's `triggered_at` matches the
//!    guard-disabled path.
//! 2. **Finite probabilities** — no window at any intensity lets a
//!    non-finite probability escape the guard.
//! 3. **Monotone degradation** — detection may not rise by more than
//!    [`MONOTONE_TOLERANCE`] between adjacent intensities (the nested
//!    per-sample hashing makes lower intensities corrupt subsets of
//!    higher ones, so a real increase means a seeding bug).

use prefall_bench::TrainedCnn;
use prefall_core::detector::{run_on_trial, DetectorConfig, GuardConfig, StreamingDetector};
use prefall_faults::{run_on_faulted_trial, FaultPlan};
use prefall_imu::dataset::DatasetConfig;
use prefall_telemetry::{NoopRecorder, Registry};
use std::sync::Arc;

/// Fault seed of the sweep; it also seeds the network's weights.
const SEED: u64 = 7;
/// Fault intensities swept, in order.
const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Detection rate may rise by at most this much between adjacent
/// intensities before the sweep is declared non-monotone.
const MONOTONE_TOLERANCE: f64 = 0.05;

#[test]
#[cfg_attr(debug_assertions, ignore = "release gate")]
fn guard_is_a_clean_no_op_and_detection_degrades_monotonically() {
    let registry = Arc::new(Registry::new());
    let trained = TrainedCnn::train(
        &DatasetConfig {
            kfall_subjects: 2,
            self_collected_subjects: 2,
            trials_per_task: 1,
            duration_scale: 0.5,
            seed: 2025,
        },
        None,
        SEED,
        registry.as_ref(),
    );
    let trials = trained.dataset.trials();
    let mut detector =
        StreamingDetector::new(trained.net, trained.norm, DetectorConfig::paper_400ms())
            .expect("detector");
    detector.session_mut().set_recorder(registry.clone());

    let mut clean_pass = |guard: GuardConfig| -> Vec<Option<usize>> {
        detector.set_guard(guard);
        trials
            .iter()
            .map(|t| run_on_trial(&mut detector, t, &NoopRecorder).triggered_at)
            .collect()
    };
    let legacy = clean_pass(GuardConfig::disabled());
    let hardened = clean_pass(GuardConfig::default());
    let diverged = legacy.iter().zip(&hardened).filter(|(a, b)| a != b).count();
    assert_eq!(
        diverged,
        0,
        "hardened ingest changed {diverged}/{} clean-signal trigger decisions",
        legacy.len()
    );

    let mut rates = Vec::new();
    for intensity in INTENSITIES {
        let plan = FaultPlan::kitchen_sink(SEED).scaled(intensity);
        // Fresh guard counters per intensity.
        detector.set_guard(GuardConfig::default());
        let (mut falls, mut triggered) = (0u64, 0u64);
        for trial in trials {
            let out = run_on_faulted_trial(&mut detector, trial, &plan, registry.as_ref());
            if trial.is_fall() {
                falls += 1;
                triggered += u64::from(out.triggered_at.is_some());
            }
        }
        rates.push((intensity, triggered as f64 / falls.max(1) as f64));
    }

    let escaped = registry
        .snapshot()
        .counters
        .get("faults.nonfinite_probs")
        .copied()
        .unwrap_or(0);
    assert_eq!(escaped, 0, "non-finite probabilities escaped the guard");

    for pair in rates.windows(2) {
        let ((lo, before), (hi, after)) = (pair[0], pair[1]);
        assert!(
            after <= before + MONOTONE_TOLERANCE,
            "detection rose from {before:.3} (intensity {lo}) to {after:.3} (intensity {hi}): \
             {rates:?}"
        );
    }
}
