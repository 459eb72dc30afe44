//! The label-free drift monitor tells truth in both directions and
//! closes the loop into an incident dump.
//!
//! 1. **Clean replay** — a deployment stream drawn from the *same*
//!    generator as the reference (different seed) scores under the
//!    alarm PSI on every section of the lifetime fingerprint, and each
//!    section stays within 0.05 PSI of a committed run (absolute,
//!    because the healthy value sits near zero).
//! 2. **Degradation sweep** — a sensor-degradation plan at nested
//!    intensities 0.3 / 0.6 / 1.0 yields strictly increasing input
//!    PSI, and the top intensity alarms.
//! 3. **Drift → SLO → incident** — one steady wearer on a virtual
//!    clock, clean to 300 s, then the degradation plan to 900 s, under
//!    the production watch config: the `input_drift` / `score_drift`
//!    quality SLO stays quiet through the clean phase, fires during
//!    the storm and captures a blackbox incident dump.
//!
//! Legs 1–2 score *lifetime* fingerprints against the reference: the
//! deployment mix covers every ADL task, and only the whole-stream
//! distribution is comparable to the whole-corpus reference. The
//! monitor's sliding view — which sees whatever tasks the last minute
//! happened to contain — is exercised by leg 3, where the stream is
//! stationary by construction.

use prefall_bench::{driftref, overhead::probe_detector};
use prefall_blackbox::{FlightConfig, FlightRecorder};
use prefall_core::tap::TapFanout;
use prefall_drift::{compare, DriftConfig, DriftMonitor, DriftScore, Fingerprint};
use prefall_faults::{run_on_faulted_trial, Fault, FaultPlan, Sensor};
use prefall_imu::trial::Trial;
use prefall_imu::SAMPLE_PERIOD_MS;
use prefall_telemetry::{NoopRecorder, Registry};
use prefall_watch::{Watch, WatchConfig};
use std::sync::Arc;

/// Fault seed of the degradation plan.
const SEED: u64 = 7;

/// Dataset seed for the "deployment" streams: same generator as the
/// reference ([`driftref::REFERENCE_SEED`]), disjoint draws.
const CLEAN_SEED: u64 = 1234;

/// Degradation-sweep intensities; scaled plans corrupt nested subsets,
/// so drift evidence must be monotone across them.
const SWEEP: [f64; 3] = [0.3, 0.6, 1.0];

/// End-to-end timeline (virtual seconds): clean, then a fault storm.
const CLEAN_END_S: f64 = 300.0;
const REPLAY_END_S: f64 = 900.0;

/// Minimum samples in the steady-wearer reference of leg 3.
const STEADY_REF_SAMPLES: u64 = 30_000;

// Clean-leg PSI ceilings: the committed run's value + 0.05 (a quarter
// of the conventional 0.2 "moderate shift" reading). The leg is
// seeded, so a healthy replay drifting further from the reference
// means the pipeline or the sketches changed.
/// Ceiling on the clean input PSI; committed 0.005285.
const MAX_CLEAN_INPUT_PSI: f64 = 0.005285124223397256 + 0.05;
/// Ceiling on the clean score PSI; committed 0.015733.
const MAX_CLEAN_SCORE_PSI: f64 = 0.015733314720051773 + 0.05;
/// Ceiling on the clean attribution PSI; committed 0.038252.
const MAX_CLEAN_ATTRIBUTION_PSI: f64 = 0.0382523860935711 + 0.05;

/// The drift the monitor exists to catch: not the rare transient
/// artifacts of `FaultPlan::kitchen_sink` (the robustness sweep owns
/// those), but *distribution* shift — a rising noise floor, frequent
/// connector spikes, a gyro axis freezing for seconds at a time — the
/// way an aging or re-mounted sensor degrades in deployment. Every
/// component scales monotonically under [`FaultPlan::scaled`].
fn drift_plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .with(Fault::Noise {
            accel_sigma: 1.2,
            gyro_sigma: 8.0,
        })
        .with(Fault::Spike {
            rate: 0.08,
            magnitude: 9.0,
        })
        .with(Fault::StuckAxis {
            sensor: Sensor::Gyro,
            axis: 1,
            start: 0.2,
            len: 600,
        })
}

/// Streams every trial through a fresh monitored detector — faulted
/// when a plan is given — and scores the *lifetime* fingerprint
/// against `reference`.
fn lifetime_score(
    trials: &[Trial],
    plan: Option<&FaultPlan>,
    reference: &Fingerprint,
) -> DriftScore {
    let (mut det, handle) = driftref::monitored_detector(DriftConfig::default());
    for trial in trials {
        match plan {
            Some(p) => {
                let _ = run_on_faulted_trial(&mut det, trial, p, &NoopRecorder);
            }
            None => driftref::stream_trial(&mut det, trial),
        }
    }
    compare(reference, &handle.fingerprint())
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release gate")]
fn clean_stream_stays_quiet_and_degradation_raises_input_psi() {
    let alarm_psi = DriftConfig::default().alarm_psi;
    let reference = driftref::build_reference();
    let clean_trials = driftref::adl_trials(CLEAN_SEED);

    let clean = lifetime_score(&clean_trials, None, &reference);
    assert!(
        !clean.alarmed(alarm_psi),
        "healthy stream alarmed: {clean:?}"
    );
    for (what, psi, ceiling) in [
        ("input", clean.input_psi, MAX_CLEAN_INPUT_PSI),
        ("score", clean.score_psi, MAX_CLEAN_SCORE_PSI),
        (
            "attribution",
            clean.attribution_psi,
            MAX_CLEAN_ATTRIBUTION_PSI,
        ),
    ] {
        assert!(
            psi <= ceiling,
            "clean {what} PSI = {psi:.6}, ceiling {ceiling:.6}"
        );
    }

    let mut prev_psi = clean.input_psi;
    let mut top_alarmed = false;
    for intensity in SWEEP {
        let plan = drift_plan().scaled(intensity);
        let score = lifetime_score(&clean_trials, Some(&plan), &reference);
        assert!(
            score.input_psi > prev_psi,
            "input PSI not strictly increasing: {:.4} at intensity {intensity} after {prev_psi:.4}",
            score.input_psi
        );
        prev_psi = score.input_psi;
        top_alarmed = score.alarmed(alarm_psi);
    }
    assert!(
        top_alarmed,
        "full-intensity degradation stayed under the alarm: input_psi {prev_psi:.4}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release gate")]
fn drift_slo_fires_only_in_the_storm_and_captures_an_incident() {
    let registry = Arc::new(Registry::new());
    // One steady wearer: the longest clean ADL trial, truncated to a hop
    // multiple so the cycled stream is exactly periodic — every cycle
    // yields the same windows, the sliding view matches the in-run
    // reference bit for bit, and any PSI the storm produces is drift,
    // not window-phase slippage.
    let hop = driftref::detector_config().pipeline.segmentation.hop();
    let clean_trials = driftref::adl_trials(CLEAN_SEED);
    let full = clean_trials
        .iter()
        .max_by_key(|t| t.len())
        .expect("clean trials nonempty");
    let keep = (full.len() / hop) * hop;
    let steady_trial = Trial::from_channels(
        full.subject,
        full.task,
        full.trial_index,
        full.source,
        full.channels().iter().map(|c| c[..keep].to_vec()).collect(),
        None,
        None,
    )
    .expect("truncated trial");
    let steady_ref = {
        let (mut det, handle) = driftref::monitored_detector(DriftConfig::default());
        while handle.fingerprint().samples() < STEADY_REF_SAMPLES {
            driftref::stream_trial(&mut det, &steady_trial);
        }
        handle.fingerprint()
    };

    // Flight recorder and drift monitor share the tap slot.
    let mut det = probe_detector(1.1);
    let flight = FlightRecorder::install(&mut det, Vec::new(), FlightConfig::default());
    flight.set_recorder(registry.clone());
    let flight_tap = det.session_mut().take_tap().expect("flight tap installed");
    let (drift_tap, dh) = DriftMonitor::create(DriftConfig {
        publish_every: 1,
        ..DriftConfig::default()
    });
    dh.set_recorder(registry.clone());
    dh.set_reference(steady_ref);
    det.session_mut().set_tap(Box::new(
        TapFanout::new(vec![flight_tap]).with(Box::new(drift_tap)),
    ));

    let watch = Watch::new(Arc::clone(&registry), WatchConfig::production());
    watch.set_incident_capture(Arc::new(flight.clone()));

    let storm_plan = drift_plan().scaled(1.0);
    let mut vt = 0.0f64;
    let mut next_tick = 0.0f64;
    while vt < REPLAY_END_S {
        if vt < CLEAN_END_S {
            driftref::stream_trial(&mut det, &steady_trial);
        } else {
            let _ = run_on_faulted_trial(&mut det, &steady_trial, &storm_plan, registry.as_ref());
        }
        vt += steady_trial.len() as f64 * SAMPLE_PERIOD_MS / 1000.0;
        while next_tick <= vt {
            watch.tick_at(next_tick);
            next_tick += 1.0;
        }
    }

    let alerts = watch.alerts();
    let drift_alerts: Vec<_> = alerts
        .iter()
        .filter(|a| a.slo == "input_drift" || a.slo == "score_drift")
        .collect();
    if let Some(early) = drift_alerts.iter().find(|a| a.fired && a.at < CLEAN_END_S) {
        panic!(
            "{} fired at {:.0}s, inside the clean phase",
            early.slo, early.at
        );
    }
    let fired = drift_alerts
        .iter()
        .find(|a| a.fired)
        .expect("no drift SLO fired during the storm");
    assert!(
        fired.incident_requested && flight.incident_count() > 0,
        "drift quality breach did not capture a blackbox incident"
    );
}
