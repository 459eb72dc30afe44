//! Streams faulted trials through a (hardened) detector.

use crate::plan::FaultPlan;
use crate::stream::SampleEvent;
use prefall_core::detector::{stream_ticks, StreamingDetector, TrialOutcome};
use prefall_imu::trial::Trial;
use prefall_telemetry::Recorder;

/// Streams one trial through the detector with the plan's faults
/// applied live, through the same trigger → airbag loop as
/// [`prefall_core::detector::run_on_trial`]
/// ([`prefall_core::detector::stream_ticks`]): corrupted samples go
/// through [`StreamingDetector::push_sample`], dropped ticks through
/// [`StreamingDetector::push_missing`].
///
/// Emits `faults.trials`, `faults.dropped_samples` and
/// `faults.nonfinite_probs` counters (the latter stays at zero while
/// the guard is on — that is the guarantee under test).
pub fn run_on_faulted_trial(
    detector: &mut StreamingDetector,
    trial: &Trial,
    plan: &FaultPlan,
    rec: &dyn Recorder,
) -> TrialOutcome {
    let mut dropped: u64 = 0;
    let ticks = plan.stream(trial).inspect(|ev| {
        if *ev == SampleEvent::Dropped {
            dropped += 1;
        }
    });
    let (outcome, nonfinite_probs) = stream_ticks(detector, trial, ticks);
    if rec.enabled() {
        rec.counter_add("faults.trials", 1);
        if dropped > 0 {
            rec.counter_add("faults.dropped_samples", dropped);
        }
        if nonfinite_probs > 0 {
            rec.counter_add("faults.nonfinite_probs", nonfinite_probs);
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use prefall_core::detector::{run_on_trial, DetectorConfig, GuardConfig, StreamingDetector};
    use prefall_core::models::ModelKind;
    use prefall_dsp::stats::Normalizer;
    use prefall_imu::dataset::Dataset;
    use prefall_telemetry::NoopRecorder;

    fn detector() -> StreamingDetector {
        let cfg = DetectorConfig::paper_400ms();
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 1).unwrap();
        StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap()
    }

    /// Pins the one trial loop on both ingest paths: the guarded one
    /// and the guard-off one, which scores through `infer_unchecked`.
    #[test]
    fn empty_plan_matches_clean_run() {
        let ds = Dataset::combined_scaled(1, 1, 13).unwrap();
        let plan = FaultPlan::new(7);
        for guard in [GuardConfig::default(), GuardConfig::disabled()] {
            let mut d = detector();
            d.set_guard(guard);
            for trial in ds.trials().iter().take(6) {
                let clean = run_on_trial(&mut d, trial, &NoopRecorder);
                let faulted = run_on_faulted_trial(&mut d, trial, &plan, &NoopRecorder);
                assert_eq!(clean, faulted, "empty plan must be a no-op ({guard:?})");
            }
        }
    }

    #[test]
    fn acceptance_plan_stays_finite_on_every_fall() {
        let ds = Dataset::combined_scaled(2, 2, 7).unwrap();
        let mut d = detector();
        let plan = FaultPlan::dropout_nan(7, 0.05, 0.01, 5);
        let mut falls = 0;
        for trial in ds.trials().iter().filter(|t| t.is_fall()) {
            falls += 1;
            let out = run_on_faulted_trial(&mut d, trial, &plan, &NoopRecorder);
            if let Some(p) = out.peak_prob {
                assert!(p.is_finite(), "non-finite peak prob");
            }
        }
        assert!(falls > 0, "dataset has falls");
        let s = d.session().guard_status();
        assert!(s.gaps_filled > 0, "dropout exercised gap fill");
        assert!(s.nonfinite > 0, "NaN bursts exercised validation");
        assert_eq!(s.engine_rejects, 0, "guard kept segments clean");
    }
}
