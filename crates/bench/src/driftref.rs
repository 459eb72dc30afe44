//! Deterministic reference-fingerprint construction for the drift
//! monitor — the one definition of "the training distribution" shared
//! by the `prefall-fingerprint` binary (which writes the committed
//! `ci/drift_reference.pfdf`), the drift tests in `tests/drift_legs.rs`
//! (which score clean and faulted replays against it) and the drift
//! arming leg of `prefall-overhead`.
//!
//! Everything here is bit-deterministic: the dataset generator is
//! seeded, model weights are seeded, inference is the same f32 path the
//! replay tests already prove reproducible, and the sketches accumulate
//! integers. Building the reference twice — on different machines, in
//! different years — yields byte-identical `PFDF` files, which is what
//! lets the tests below check the committed artifact instead of
//! trusting it.

use crate::overhead::probe_detector;
use prefall_core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
use prefall_core::pipeline::PipelineConfig;
use prefall_drift::{DriftConfig, DriftHandle, DriftMonitor, Fingerprint};
use prefall_dsp::segment::Overlap;
use prefall_imu::dataset::{Dataset, DatasetConfig};
use prefall_imu::trial::Trial;

/// Dataset seed the reference distribution is generated from. The
/// clean-replay leg of the drift bench deliberately uses a *different*
/// seed: same generator, same distribution, disjoint draws — the
/// honest "deployment looks like training" case.
pub const REFERENCE_SEED: u64 = 2025;

/// The detector shape the reference (and every scored replay) runs:
/// the paper's 400 ms window at half overlap, with an unreachable
/// threshold so trigger bookkeeping never perturbs the stream.
pub fn detector_config() -> DetectorConfig {
    DetectorConfig {
        pipeline: PipelineConfig::paper(400.0, Overlap::Half),
        threshold: 1.1,
        consecutive: 1,
        guard: GuardConfig::default(),
    }
}

/// A detector with a [`DriftMonitor`] installed as its tap (traced
/// inference path, so attribution shares are folded per window).
pub fn monitored_detector(cfg: DriftConfig) -> (StreamingDetector, DriftHandle) {
    let mut det = probe_detector(1.1);
    let handle = DriftMonitor::install(&mut det, cfg);
    (det, handle)
}

/// The ADL trials of a seeded synthetic dataset — the stand-in for a
/// free-living deployment stream (falls are rare events, not the
/// distribution's body). Seven subjects: with fewer, subject-level
/// variation dominates and two draws of the *same* generator can sit
/// a large PSI apart — the population has to be big enough that "same
/// distribution" is statistically meaningful.
pub fn adl_trials(seed: u64) -> Vec<Trial> {
    let dataset = Dataset::generate(&DatasetConfig {
        kfall_subjects: 4,
        self_collected_subjects: 3,
        trials_per_task: 1,
        duration_scale: 0.5,
        seed,
    })
    .expect("dataset generates");
    let adls: Vec<Trial> = dataset
        .trials()
        .iter()
        .filter(|t| !t.is_fall())
        .cloned()
        .collect();
    assert!(!adls.is_empty(), "dataset must contain ADL trials");
    adls
}

/// Streams one trial's raw channels through the detector sample by
/// sample, exactly as a wearer's device would.
pub fn stream_trial(det: &mut StreamingDetector, trial: &Trial) {
    let ch = trial.channels();
    // Six parallel channel slices share one sample index.
    #[allow(clippy::needless_range_loop)]
    for i in 0..trial.len() {
        let accel = [ch[0][i], ch[1][i], ch[2][i]];
        let gyro = [ch[3][i], ch[4][i], ch[5][i]];
        let _ = det.push_sample(accel, gyro);
    }
}

/// Builds the reference fingerprint: every ADL trial of the
/// [`REFERENCE_SEED`] dataset, streamed through a drift-tapped
/// detector. This is the artifact committed as
/// `ci/drift_reference.pfdf`.
pub fn build_reference() -> Fingerprint {
    let (mut det, handle) = monitored_detector(DriftConfig::default());
    for trial in &adl_trials(REFERENCE_SEED) {
        stream_trial(&mut det, trial);
    }
    handle.fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_reproducible_and_fully_populated() {
        let a = build_reference();
        let b = build_reference();
        assert_eq!(a.to_bytes(), b.to_bytes(), "two builds must be bit-equal");
        assert!(
            a.to_bytes() == include_bytes!("../../../ci/drift_reference.pfdf"),
            "ci/drift_reference.pfdf does not match the rebuilt reference; \
             regenerate it with `prefall-fingerprint write ci/drift_reference.pfdf`"
        );
        assert!(a.samples() > 1000, "samples {}", a.samples());
        assert!(a.windows() > 0, "windows folded");
        assert_eq!(
            a.shares[0].count(),
            a.windows(),
            "attribution folded per window"
        );
    }
}
