//! Acceptance tests for the robustness work: the hardened detector
//! survives the issue's 5 % dropout + NaN-burst plan on every fall
//! trial, its fault counters surface through the Prometheus exposition,
//! and the unhardened (guard-off) path demonstrably fails the same
//! plan — it cannot account for a single fault and goes silently blind
//! after the first NaN poisons the IIR filter state.

use prefall::core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
use prefall::core::models::ModelKind;
use prefall::dsp::stats::Normalizer;
use prefall::faults::{run_on_faulted_trial, FaultPlan, SampleEvent};
use prefall::imu::dataset::Dataset;
use prefall::imu::trial::Trial;
use prefall::obsd::prometheus;
use prefall::telemetry::Registry;
use std::sync::Arc;

/// Untrained but seeded detector: enough to exercise the full ingest →
/// fusion → filter → window → engine path deterministically.
fn detector(guard: GuardConfig) -> StreamingDetector {
    let mut cfg = DetectorConfig::paper_400ms();
    cfg.guard = guard;
    let w = cfg.pipeline.segmentation.window();
    let net = ModelKind::ProposedCnn.build(w, 9, 7).unwrap();
    StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap()
}

fn fall_trials() -> Vec<Trial> {
    Dataset::combined_scaled(2, 2, 7)
        .unwrap()
        .trials()
        .iter()
        .filter(|t| t.is_fall())
        .cloned()
        .collect()
}

/// The issue's acceptance plan: 5 % dropout plus NaN bursts at seed 7.
fn acceptance_plan() -> FaultPlan {
    FaultPlan::dropout_nan(7, 0.05, 0.01, 5)
}

#[test]
fn hardened_detector_survives_the_acceptance_plan() {
    let falls = fall_trials();
    assert!(!falls.is_empty(), "dataset must contain fall trials");
    let registry = Arc::new(Registry::new());
    let mut det = detector(GuardConfig::default());
    det.session_mut().set_recorder(registry.clone());
    let plan = acceptance_plan();

    for trial in &falls {
        let out = run_on_faulted_trial(&mut det, trial, &plan, registry.as_ref());
        if let Some(p) = out.peak_prob {
            assert!(p.is_finite(), "non-finite peak probability");
        }
    }

    let snap = registry.snapshot();
    assert_eq!(
        snap.counters.get("faults.nonfinite_probs").copied(),
        None,
        "no non-finite probability may escape the guard"
    );
    let status = det.session().guard_status();
    assert!(status.nonfinite > 0, "NaN bursts must have been caught");
    assert!(status.gaps_filled > 0, "dropout must have been bridged");
    assert_eq!(status.engine_rejects, 0, "guard cleans segments upstream");

    // The fault accounting is scrape-visible: the guard counters land
    // in the Prometheus exposition under the configured namespace.
    let text = prometheus::render(&snap, "prefall");
    assert!(
        text.contains("prefall_guard_faults_total"),
        "guard fault counter missing from /metrics:\n{text}"
    );
    assert!(
        text.contains("prefall_guard_samples_total"),
        "guard sample counter missing from /metrics:\n{text}"
    );
}

#[test]
fn non_monotone_ticks_are_counted_and_recoverable() {
    use prefall::core::session::ModelBundle;

    let cfg = DetectorConfig::paper_400ms();
    let w = cfg.pipeline.segmentation.window();
    let net = ModelKind::ProposedCnn.build(w, 9, 7).unwrap();
    let bundle = ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap();
    let registry = Arc::new(Registry::new());

    // Every axis varies, so the stuck-axis watchdog stays quiet.
    let sample = |t: u64| {
        let x = t as f32 * 0.04;
        (
            [0.03 * x.sin(), 0.02 * x.cos(), 1.0 + 0.01 * (2.0 * x).sin()],
            [
                10.0 * x.cos(),
                -4.0 * (0.7 * x).sin(),
                0.5 * (1.3 * x).cos(),
            ],
        )
    };

    // A clean sequenced stream, as the bit-exact reference.
    let mut clean = bundle.new_session();
    let mut clean_probs = Vec::new();
    for t in 0..3 * w as u64 {
        let (a, g) = sample(t);
        clean.push_at(&bundle, t, a, g, &mut clean_probs);
    }

    // The same stream with the transport re-delivering old ticks: a
    // duplicate batch and an out-of-order straggler arrive mid-stream.
    let mut session = bundle.new_session();
    session.set_recorder(registry.clone());
    let mut probs = Vec::new();
    let mut regressions = 0u64;
    for t in 0..3 * w as u64 {
        let (a, g) = sample(t);
        let out = session.push_at(&bundle, t, a, g, &mut probs);
        assert!(!out.regressed, "in-order ticks must not count");
        if t == 50 {
            // Re-delivery of ticks 30..40 (behind the grid).
            for stale in 30..40 {
                let (a, g) = sample(stale);
                let out = session.push_at(&bundle, stale, a, g, &mut probs);
                assert!(out.regressed, "stale tick must be flagged");
                assert_eq!(out.windows, 0, "stale tick must not classify");
                regressions += 1;
            }
        }
    }

    // Counted as its own recoverable condition...
    let status = session.guard_status();
    assert_eq!(status.ts_regression, regressions);
    // ...that is *not* a fault: re-delivery is normal transport
    // behaviour and must not burn the /healthz fault-rate budget.
    assert_eq!(status.faults(), 0);
    // ...and the stream recovered bit-identically: the stale ticks
    // were dropped, not smeared into the gap-bridging math.
    let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&probs), bits(&clean_probs));

    // Scrape-visible like every other guard counter.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters.get("guard.ts_regression").copied(),
        Some(regressions)
    );
    let text = prometheus::render(&snap, "prefall");
    assert!(
        text.contains("prefall_guard_ts_regression_total"),
        "ts_regression missing from /metrics:\n{text}"
    );
}

#[test]
fn unhardened_path_fails_the_acceptance_plan() {
    let falls = fall_trials();
    let plan = acceptance_plan();
    let mut det = detector(GuardConfig::disabled());
    let window = DetectorConfig::paper_400ms().pipeline.segmentation.window();

    // Failure one: the legacy path has no fault accounting at all —
    // after streaming every corrupted fall it has counted nothing, so
    // the fleet-health story (fault rate over /metrics, degraded
    // /healthz) is impossible without the guard.
    for trial in &falls {
        run_on_faulted_trial(&mut det, trial, &plan, &prefall::telemetry::NoopRecorder);
    }
    let status = det.session().guard_status();
    assert_eq!(status.samples, 0, "unguarded ingest counts nothing");
    assert_eq!(status.faults(), 0, "unguarded ingest sees no faults");

    // Failure two: silent blindness. Once one NaN sample reaches the
    // Butterworth IIR state, every later filtered row is NaN; the
    // max-based layers then launder NaN to a constant, input-independent
    // score. Collect the probabilities emitted after a window has fully
    // filled with post-poison rows: they are frozen.
    let mut frozen_probs: Vec<f32> = Vec::new();
    'trials: for trial in &falls {
        det.session_mut().reset();
        let mut poisoned_at: Option<usize> = None;
        let mut probs: Vec<f32> = Vec::new();
        for (i, ev) in plan.stream(trial).enumerate() {
            match ev {
                SampleEvent::Sample { accel, gyro } => {
                    if poisoned_at.is_none()
                        && accel.iter().chain(gyro.iter()).any(|v| !v.is_finite())
                    {
                        poisoned_at = Some(i);
                    }
                    if let Some(p) = det.push_sample(accel, gyro) {
                        if poisoned_at.is_some_and(|s| i >= s + window) {
                            probs.push(p);
                        }
                    }
                }
                SampleEvent::Dropped => {
                    // The legacy path cannot even represent a missing
                    // tick: push_missing is a documented no-op that
                    // desynchronises the stream from the sensor clock.
                    assert!(det.push_missing().is_none());
                }
            }
        }
        if probs.len() >= 2 {
            frozen_probs = probs;
            break 'trials;
        }
    }
    assert!(
        frozen_probs.len() >= 2,
        "at least one fall must emit several post-poison windows"
    );
    assert!(
        frozen_probs.windows(2).all(|w| w[0] == w[1]),
        "unguarded detector should be frozen at one constant score, got {frozen_probs:?}"
    );
    // And the score is finite — the failure is invisible to any
    // output-side non-finite check, which is why validation must happen
    // at the ingest boundary.
    assert!(frozen_probs[0].is_finite());
}
