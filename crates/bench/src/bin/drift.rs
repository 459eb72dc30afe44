//! Drift-monitor bench: proves the label-free health monitor tells
//! truth in both directions, merges deterministically, costs (almost)
//! nothing, and closes the loop into an incident dump.
//!
//! Five gated legs (exit non-zero on violation):
//!
//! 1. **Clean replay** — a deployment stream drawn from the *same*
//!    generator as the reference (different seed) must score under the
//!    alarm PSI on every section of the lifetime fingerprint: no false
//!    drift alarms on healthy data. Recorded as
//!    `drift.clean_input_psi` / `drift.clean_score_psi` /
//!    `drift.clean_attribution_psi`, each of which must also stay
//!    within 0.05 PSI of the committed run's value (`MAX_CLEAN_*_PSI`;
//!    absolute, because the healthy value sits near zero).
//! 2. **Degradation sweep** — a sensor-degradation plan at intensities
//!    0.3 / 0.6 / 1.0 (lower intensities corrupt a *subset* of higher
//!    ones) must produce strictly increasing input PSI, with the top
//!    intensity past the alarm threshold: drift evidence is monotone
//!    in actual drift.
//! 3. **Merge determinism** — a fleet ingesting the same batches on
//!    1, 2 and 8 worker threads must export byte-identical merged
//!    fingerprints: the integer sketches make merge order invisible.
//! 4. **Arming overhead** — interleaved armed/unarmed rounds on one
//!    detector; the drift tap's fixed ~3 µs cost may eat at most about
//!    a fifth of a classified push now that the packed-kernel
//!    workspace path halved the unarmed denominator
//!    (`drift.arming_speedup` ≥ `MIN_ARMING_SPEEDUP`).
//! 5. **Drift → SLO → incident** — one steady wearer (a single ADL
//!    trial cycled, scored against its own in-run fingerprint, so the
//!    sliding view is stationary) on a virtual clock: clean to 300 s,
//!    then the degradation plan at full intensity to 900 s, under the
//!    production watch config. The `input_drift` / `score_drift`
//!    quality SLO must stay quiet through the clean phase, fire during
//!    the storm, and capture a blackbox incident dump when it does.
//!
//! Legs 1–2 score *lifetime* fingerprints against the committed
//! reference: the deployment mix covers every ADL task, and only the
//! whole-stream distribution is comparable to the whole-corpus
//! reference. The monitor's sliding view — which sees whatever tasks
//! the last minute happened to contain — is exercised by leg 5, where
//! the stream is stationary by construction.
//!
//! Output: `bench-out/BENCH_drift.json`.
//!
//! ```text
//! cargo run --release -p prefall-bench --bin prefall-drift
//! ```

use prefall_bench::overhead::{arming_medians, probe_detector};
use prefall_bench::{at_least, at_most, driftref, fail, telemetry_out};
use prefall_blackbox::{FlightConfig, FlightRecorder};
use prefall_core::models::ModelKind;
use prefall_core::session::ModelBundle;
use prefall_core::tap::{DetectorTap, TapFanout};
use prefall_drift::{compare, DriftConfig, DriftMonitor, DriftScore, Fingerprint};
use prefall_dsp::stats::Normalizer;
use prefall_faults::{run_on_faulted_trial, Fault, FaultPlan, Sensor};
use prefall_fleet::{BatchSample, Fleet, FleetConfig, IngestBatch};
use prefall_imu::trial::Trial;
use prefall_imu::SAMPLE_PERIOD_MS;
use prefall_telemetry::{JsonValue, Recorder, Value};
use prefall_watch::{Alert, Watch, WatchConfig};
use std::sync::Arc;

/// Dataset seed for the "deployment" streams: same generator as the
/// reference ([`driftref::REFERENCE_SEED`]), disjoint draws.
const CLEAN_SEED: u64 = 1234;

/// Degradation-sweep intensities; scaled plans corrupt nested subsets,
/// so drift evidence must be monotone across them.
const SWEEP: [f64; 3] = [0.3, 0.6, 1.0];

/// End-to-end timeline (virtual seconds): clean, then a fault storm.
const CLEAN_END_S: f64 = 300.0;
const REPLAY_END_S: f64 = 900.0;

/// Minimum samples in the steady-wearer reference of leg 5.
const STEADY_REF_SAMPLES: u64 = 30_000;

/// Classified windows per mode in the overhead leg.
const OVERHEAD_WINDOWS: usize = 200;

/// Classified windows per tap in/out round in the overhead leg.
const OVERHEAD_ROUND: usize = 20;

/// Floor on `drift.arming_speedup`: the committed ratio 0.82 × 0.97.
/// The ratio reads 0.82–0.9 run to run since the packed-kernel
/// workspace path cut the unarmed classified push from ~31 µs to
/// ~14 µs: the tap's ~3 µs is a larger slice of a cheaper push.
const MIN_ARMING_SPEEDUP: f64 = 0.82 * 0.97;

// Clean-leg PSI ceilings: the committed run's value + 0.05 (a quarter
// of the conventional 0.2 "moderate shift" reading). The leg is
// seeded, so a healthy replay drifting further from the reference
// means the pipeline or the sketches changed.
/// Ceiling on `drift.clean_input_psi`; committed 0.005285.
const MAX_CLEAN_INPUT_PSI: f64 = 0.005285124223397256 + 0.05;
/// Ceiling on `drift.clean_score_psi`; committed 0.015733.
const MAX_CLEAN_SCORE_PSI: f64 = 0.015733314720051773 + 0.05;
/// Ceiling on `drift.clean_attribution_psi`; committed 0.038252.
const MAX_CLEAN_ATTRIBUTION_PSI: f64 = 0.0382523860935711 + 0.05;

/// The drift the monitor exists to catch: not the rare transient
/// artifacts of `FaultPlan::kitchen_sink` (which the robustness bench
/// owns), but *distribution* shift — a rising noise floor, frequent
/// connector spikes, a gyro axis freezing for seconds at a time — the
/// way an aging or re-mounted sensor degrades in deployment. Every
/// component scales monotonically under [`FaultPlan::scaled`].
fn drift_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
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
    rec: &dyn Recorder,
) -> DriftScore {
    let (mut det, handle) = driftref::monitored_detector(DriftConfig::default());
    for trial in trials {
        match plan {
            Some(p) => {
                let _ = run_on_faulted_trial(&mut det, trial, p, rec);
            }
            None => driftref::stream_trial(&mut det, trial),
        }
    }
    compare(reference, &handle.fingerprint())
}

/// Deterministic per-wearer motion for the fleet leg (streams must
/// differ per wearer or the merge test proves nothing).
fn motion(wearer: u64, tick: u64) -> ([f32; 3], [f32; 3]) {
    let w = wearer as f32;
    let t = tick as f32 * 0.07;
    (
        [0.02 * (t + w).sin(), -0.03 * (t * 0.9).cos(), 1.0],
        [
            8.0 * (t * 1.3 + w).sin(),
            -5.0 * t.cos(),
            2.0 * (w * 0.1).sin(),
        ],
    )
}

fn batch_for(wearer: u64, seq: u64, len: usize) -> IngestBatch {
    IngestBatch {
        wearer,
        seq,
        samples: (0..len as u64)
            .map(|i| {
                let (accel, gyro) = motion(wearer, seq + i);
                BatchSample::Sample { accel, gyro }
            })
            .collect(),
    }
}

fn main() {
    let (registry, rec) = telemetry_out::bench_recorder();
    let _server = prefall_obsd::serve_from_env(&registry);

    let seed: u64 = std::env::var("PREFALL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let alarm_psi = DriftConfig::default().alarm_psi;

    let reference = driftref::build_reference();
    let clean_trials = driftref::adl_trials(CLEAN_SEED);
    println!(
        "reference   : {} samples, {} windows (seed {})",
        reference.samples(),
        reference.windows(),
        driftref::REFERENCE_SEED
    );

    // Leg 1: a healthy deployment stream must not alarm.
    rec.event("bench.phase", &[("phase", Value::from("clean"))]);
    let clean = lifetime_score(&clean_trials, None, &reference, rec.as_ref());
    if clean.alarmed(alarm_psi) {
        fail(
            "clean",
            format!(
                "healthy stream alarmed: input_psi {:.4}, score_psi {:.4}, \
                 attribution_psi {:.4} (alarm {alarm_psi})",
                clean.input_psi, clean.score_psi, clean.attribution_psi
            ),
        );
    }
    registry.gauge_set("drift.clean_input_psi", clean.input_psi);
    registry.gauge_set("drift.clean_score_psi", clean.score_psi);
    registry.gauge_set("drift.clean_attribution_psi", clean.attribution_psi);
    at_most("clean", "input_psi", clean.input_psi, MAX_CLEAN_INPUT_PSI);
    at_most("clean", "score_psi", clean.score_psi, MAX_CLEAN_SCORE_PSI);
    at_most(
        "clean",
        "attribution_psi",
        clean.attribution_psi,
        MAX_CLEAN_ATTRIBUTION_PSI,
    );
    println!(
        "clean       : input_psi {:.4}, score_psi {:.4}, attribution_psi {:.4} ({} samples)",
        clean.input_psi, clean.score_psi, clean.attribution_psi, clean.samples
    );

    // Leg 2: nested degradation intensities must yield monotone drift.
    rec.event("bench.phase", &[("phase", Value::from("sweep"))]);
    let mut sweep_out = Vec::new();
    let mut prev_psi = clean.input_psi;
    for &intensity in &SWEEP {
        let plan = drift_plan(seed).scaled(intensity);
        let score = lifetime_score(&clean_trials, Some(&plan), &reference, rec.as_ref());
        if score.input_psi <= prev_psi {
            fail(
                "sweep",
                format!(
                    "input PSI not strictly increasing: {:.4} at intensity {intensity} \
                     after {prev_psi:.4}",
                    score.input_psi
                ),
            );
        }
        println!(
            "sweep  {intensity:>4.1} : input_psi {:.4}, score_psi {:.4}{}",
            score.input_psi,
            score.score_psi,
            if score.alarmed(alarm_psi) {
                "  [alarm]"
            } else {
                ""
            }
        );
        sweep_out.push(JsonValue::Obj(vec![
            ("intensity".to_string(), JsonValue::F64(intensity)),
            ("input_psi".to_string(), JsonValue::F64(score.input_psi)),
            ("score_psi".to_string(), JsonValue::F64(score.score_psi)),
            (
                "alarmed".to_string(),
                JsonValue::Bool(score.alarmed(alarm_psi)),
            ),
        ]));
        if intensity == 1.0 && !score.alarmed(alarm_psi) {
            fail(
                "sweep",
                format!(
                    "full-intensity degradation stayed under the alarm: input_psi {:.4}",
                    score.input_psi
                ),
            );
        }
        prev_psi = score.input_psi;
    }

    // Leg 3: merged fleet fingerprints are thread-count invariant.
    rec.event("bench.phase", &[("phase", Value::from("merge"))]);
    let mut merged: Vec<Vec<u8>> = Vec::new();
    for &threads in &[1usize, 2, 8] {
        let cfg = driftref::detector_config();
        let window = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn
            .build(window, 9, 1)
            .expect("model builds");
        let bundle = ModelBundle::new(net, Normalizer::identity(9), cfg).expect("bundle");
        let fleet = Fleet::new(
            bundle,
            FleetConfig {
                threads: Some(threads),
                ..FleetConfig::default()
            },
        );
        for start in (0..600u64).step_by(25) {
            let batches: Vec<IngestBatch> = (0..9).map(|w| batch_for(w, start, 25)).collect();
            let _ = fleet.ingest_many(&batches);
        }
        merged.push(fleet.fleet_fingerprint().to_bytes());
    }
    if merged[0] != merged[1] || merged[1] != merged[2] {
        fail(
            "merge",
            "fleet fingerprints differ across 1/2/8 worker threads".into(),
        );
    }
    let merged_fp = Fingerprint::from_bytes(&merged[0]).expect("fleet bytes parse");
    println!(
        "merge       : 1/2/8-thread fleets byte-identical ({} samples, {} bytes)",
        merged_fp.samples(),
        merged[0].len()
    );

    // Leg 4: what does the armed drift tap cost a classified push?
    // Interleaved rounds on one detector so machine drift cancels; the
    // tap is installed/removed between rounds. Arming also switches
    // inference to the traced engine (attribution is part of the
    // price), so this measures the whole honest cost.
    rec.event("bench.phase", &[("phase", Value::from("overhead"))]);
    let (tap, dh) = DriftMonitor::create(DriftConfig::default());
    dh.set_reference(reference.clone());
    let mut parked: Option<Box<dyn DetectorTap>> = Some(Box::new(tap));
    let (unarmed_med, armed_med) = arming_medians(
        &mut probe_detector(1.1),
        OVERHEAD_WINDOWS,
        OVERHEAD_ROUND,
        |det, armed| {
            let session = det.session_mut();
            if armed {
                if let Some(tap) = parked.take() {
                    session.set_tap(tap);
                }
            } else if let Some(tap) = session.take_tap() {
                parked = Some(tap);
            }
        },
    );
    let speedup = unarmed_med / armed_med;
    registry.gauge_set("drift.arming_speedup", speedup);
    println!(
        "overhead    : push median unarmed {:.1} µs, armed {:.1} µs (speedup {:.3})",
        unarmed_med * 1e6,
        armed_med * 1e6,
        speedup
    );
    at_least(
        "overhead",
        "drift.arming_speedup",
        speedup,
        MIN_ARMING_SPEEDUP,
    );

    // Leg 5: the production loop end to end — drift gauges feed the
    // watch SLOs, a sustained breach fires, and the firing captures a
    // blackbox incident dump. One steady wearer: a single ADL trial
    // cycled, scored against an in-run fingerprint of the *same* cycled
    // stream, so the monitor's sliding view is stationary until the
    // degradation storm begins. Flight recorder and drift monitor share
    // the detector's tap slot through a fanout.
    rec.event("bench.phase", &[("phase", Value::from("slo"))]);
    // Truncate the wearer's trial to a hop multiple: the cycled stream
    // is then exactly periodic, every cycle yields the same windows,
    // and the sliding view matches the in-run reference bit for bit —
    // any PSI the storm produces is drift, not window-phase slippage.
    let hop = driftref::detector_config().pipeline.segmentation.hop();
    let steady_trial = {
        let full = clean_trials
            .iter()
            .max_by_key(|t| t.len())
            .expect("clean trials nonempty");
        let keep = (full.len() / hop) * hop;
        Trial::from_channels(
            full.subject,
            full.task,
            full.trial_index,
            full.source,
            full.channels().iter().map(|c| c[..keep].to_vec()).collect(),
            None,
            None,
        )
        .expect("truncated trial")
    };
    let steady_trial = &steady_trial;
    let steady_ref = {
        let (mut det, handle) = driftref::monitored_detector(DriftConfig::default());
        while handle.fingerprint().samples() < STEADY_REF_SAMPLES {
            driftref::stream_trial(&mut det, steady_trial);
        }
        handle.fingerprint()
    };

    let mut det = probe_detector(1.1);
    let flight = FlightRecorder::install(&mut det, Vec::new(), FlightConfig::default());
    flight.set_recorder(registry.clone());
    let flight_tap = det.session_mut().take_tap().expect("flight tap installed");
    let (drift_tap, dh) = DriftMonitor::create(DriftConfig {
        publish_every: 1,
        ..DriftConfig::default()
    });
    dh.set_recorder(registry.clone());
    dh.set_reference(steady_ref.clone());
    det.session_mut().set_tap(Box::new(
        TapFanout::new(vec![flight_tap]).with(Box::new(drift_tap)),
    ));

    let watch = Arc::new(Watch::new(Arc::clone(&registry), WatchConfig::production()));
    watch.set_incident_capture(Arc::new(flight.clone()));

    let storm_plan = drift_plan(seed).scaled(1.0);
    let mut vt = 0.0f64;
    let mut next_tick = 0.0f64;
    while vt < REPLAY_END_S {
        if vt < CLEAN_END_S {
            driftref::stream_trial(&mut det, steady_trial);
        } else {
            let _ = run_on_faulted_trial(&mut det, steady_trial, &storm_plan, rec.as_ref());
        }
        vt += steady_trial.len() as f64 * SAMPLE_PERIOD_MS / 1000.0;
        while next_tick <= vt {
            watch.tick_at(next_tick);
            next_tick += 1.0;
        }
    }
    let alerts = watch.alerts();
    let drift_alerts: Vec<&Alert> = alerts
        .iter()
        .filter(|a| a.slo == "input_drift" || a.slo == "score_drift")
        .collect();
    if let Some(early) = drift_alerts.iter().find(|a| a.fired && a.at < CLEAN_END_S) {
        fail(
            "slo",
            format!(
                "{} fired at {:.0}s, inside the clean phase",
                early.slo, early.at
            ),
        );
    }
    let fired = drift_alerts
        .iter()
        .find(|a| a.fired)
        .unwrap_or_else(|| fail("slo", "no drift SLO fired during the storm".into()));
    if !fired.incident_requested || flight.incident_count() == 0 {
        fail(
            "slo",
            "drift quality breach did not capture a blackbox incident".into(),
        );
    }
    println!(
        "slo         : {} fired {:.0}s into the replay, incident {}",
        fired.slo,
        fired.at,
        flight.latest().map(|d| d.id).unwrap_or_default()
    );

    telemetry_out::dump_to(
        "BENCH_drift.json",
        "drift",
        &registry.snapshot(),
        vec![
            ("fault_seed".to_string(), JsonValue::U64(seed)),
            (
                "reference_samples".to_string(),
                JsonValue::U64(reference.samples()),
            ),
            ("sweep".to_string(), JsonValue::Arr(sweep_out)),
            ("virtual_seconds".to_string(), JsonValue::F64(vt)),
            (
                "drift_alert".to_string(),
                JsonValue::Obj(vec![
                    ("slo".to_string(), JsonValue::Str(fired.slo.clone())),
                    ("at_s".to_string(), JsonValue::F64(fired.at)),
                    (
                        "incident".to_string(),
                        JsonValue::Bool(fired.incident_requested),
                    ),
                ]),
            ),
        ],
    );
}
