//! Acceptance tests for the flight recorder: every incident the
//! recorder dumps — on clean trials, under injected sensor faults, and
//! in degraded modes — survives a serialize → deserialize → replay
//! round trip with a **bit-exact** score trajectory, and dumps whose
//! ring wrapped refuse to replay rather than replaying wrongly.

use prefall::blackbox::{
    armed_detector_from_bundle, replay, BlackboxError, FlightConfig, IncidentDump, IncidentKind,
};
use prefall::core::detector::{run_on_trial, DetectorConfig, GuardConfig};
use prefall::core::models::ModelKind;
use prefall::core::persist::DetectorBundle;
use prefall::core::pipeline::Pipeline;
use prefall::core::session::ModelBundle;
use prefall::dsp::stats::Normalizer;
use prefall::faults::{run_on_faulted_trial, FaultPlan};
use prefall::imu::dataset::Dataset;
use prefall::imu::trial::Trial;
use prefall::nn::quant::QuantizedNetwork;
use prefall::obsd::IncidentSource;
use prefall::telemetry::NoopRecorder;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Serialized untrained-but-seeded detector bundle: enough to exercise
/// the full ingest → fusion → filter → window → engine path
/// deterministically, which is all bit-exact replay cares about.
fn bundle_blob() -> &'static [u8] {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let cfg = DetectorConfig::paper_400ms();
        let w = cfg.pipeline.segmentation.window();
        let mut bundle = DetectorBundle {
            model: ModelKind::ProposedCnn,
            window: w,
            channels: 9,
            init_seed: 7,
            pipeline: cfg.pipeline,
            normalizer: Normalizer::identity(9),
            network: ModelKind::ProposedCnn.build(w, 9, 7).unwrap(),
        };
        bundle.to_bytes()
    })
}

fn trials() -> &'static [Trial] {
    static DS: OnceLock<Vec<Trial>> = OnceLock::new();
    DS.get_or_init(|| Dataset::combined_scaled(2, 2, 7).unwrap().trials().to_vec())
}

/// Rings big enough that no test trial ever wraps them.
fn roomy() -> FlightConfig {
    FlightConfig {
        ring_samples: 20_000,
        ring_windows: 2_000,
        max_incidents: 64,
    }
}

/// Round-trips a dump through bytes and asserts the replay of the
/// decoded copy is bit-exact.
fn assert_replays_bit_exact(dump: &IncidentDump) {
    let decoded = IncidentDump::from_bytes(&dump.to_bytes()).expect("round trip");
    assert_eq!(decoded.to_bytes(), dump.to_bytes(), "encode is stable");
    let report = replay(&decoded).expect("replayable");
    assert!(
        report.bit_exact,
        "{} diverged: {:?}",
        dump.id, report.divergence
    );
    assert!(report.trigger_match, "{}: trigger flags diverged", dump.id);
    assert!(
        report.windows_compared > 0,
        "{}: no windows compared",
        dump.id
    );
    assert_eq!(report.samples_fed, dump.samples.len());
}

#[test]
fn clean_trials_dump_and_replay_bit_exact() {
    let (mut det, flight) =
        armed_detector_from_bundle(bundle_blob(), 0.5, 1, GuardConfig::default(), roomy()).unwrap();
    for trial in trials() {
        run_on_trial(&mut det, trial, &NoopRecorder);
    }
    // Every fall trial ends in either a trigger dump or a missed-fall
    // dump, so the recorder cannot be empty.
    let incidents = flight.incidents();
    assert!(!incidents.is_empty(), "fall trials must produce incidents");
    let mut kinds = Vec::new();
    for dump in &incidents {
        assert!(!dump.truncated, "roomy rings must not truncate");
        let trial = dump.trial.expect("trial meta patched in at trial end");
        if dump.kind == IncidentKind::MissedFall {
            assert!(trial.is_fall, "missed-fall dumps only exist for falls");
            assert!(dump.triggered_at.is_none());
        }
        assert!(
            dump.windows.iter().any(|w| w.n_branch > 0),
            "float engine windows must carry per-branch attribution"
        );
        assert_replays_bit_exact(dump);
        kinds.push(dump.kind);
    }
    // The untrained seeded net triggers on some trials and misses
    // others; both forensic paths must have been exercised.
    assert!(
        kinds.contains(&IncidentKind::Trigger) || kinds.contains(&IncidentKind::MissedFall),
        "expected trigger or missed-fall incidents, got {kinds:?}"
    );
}

#[test]
fn trigger_dumps_carry_lead_time_and_attribution() {
    let (mut det, flight) =
        armed_detector_from_bundle(bundle_blob(), 0.5, 1, GuardConfig::default(), roomy()).unwrap();
    let mut any_trigger = false;
    for trial in trials() {
        let outcome = run_on_trial(&mut det, trial, &NoopRecorder);
        if let (Some(dump), Some(t)) = (flight.latest(), outcome.triggered_at) {
            if dump.kind == IncidentKind::Trigger {
                any_trigger = true;
                assert_eq!(
                    dump.triggered_at,
                    Some(t as u64 + 1),
                    "patched trigger tick must match the outcome"
                );
                assert_eq!(dump.lead_time_ms, outcome.lead_time_ms);
                // The decision window is in the trace, flagged.
                assert!(dump.windows.iter().any(|w| w.decision()));
            }
        }
    }
    assert!(any_trigger, "threshold 0.5 must trigger on some trial");
}

#[test]
fn faulted_and_degraded_trials_replay_bit_exact() {
    let (mut det, flight) =
        armed_detector_from_bundle(bundle_blob(), 0.5, 1, GuardConfig::default(), roomy()).unwrap();
    // Dropout + NaN bursts (the robustness acceptance plan), then the
    // kitchen sink (stuck axes, saturation, outages) to push the guard
    // into degraded modes.
    for plan in [
        FaultPlan::dropout_nan(7, 0.05, 0.01, 5),
        FaultPlan::kitchen_sink(9),
    ] {
        for trial in trials().iter().filter(|t| t.is_fall()) {
            run_on_faulted_trial(&mut det, trial, &plan, &NoopRecorder);
        }
    }
    let incidents = flight.incidents();
    assert!(!incidents.is_empty());
    let mut saw_missing = false;
    let mut saw_degraded = false;
    for dump in &incidents {
        saw_missing |= dump.samples.iter().any(|s| s.missing());
        saw_degraded |= dump
            .samples
            .iter()
            .any(|s| s.flags & !prefall::blackbox::SampleRecord::MISSING != 0);
        assert_replays_bit_exact(dump);
    }
    assert!(saw_missing, "fault plans must have dropped samples");
    assert!(saw_degraded, "kitchen sink must have forced degraded modes");
}

#[test]
fn wrapped_rings_refuse_bit_exact_replay() {
    let tiny = FlightConfig {
        ring_samples: 64,
        ring_windows: 8,
        max_incidents: 4,
    };
    let (mut det, flight) =
        armed_detector_from_bundle(bundle_blob(), 0.5, 1, GuardConfig::default(), tiny).unwrap();
    let trial = &trials()[0];
    run_on_trial(&mut det, trial, &NoopRecorder);
    let dump = flight.dump_now("operator snapshot");
    assert!(
        dump.truncated,
        "a {}-sample trial must wrap a 64-slot ring",
        trial.len()
    );
    assert_eq!(replay(&dump), Err(BlackboxError::Truncated));
}

#[test]
fn incident_source_serves_replayable_dumps() {
    let (mut det, flight) =
        armed_detector_from_bundle(bundle_blob(), 0.5, 1, GuardConfig::default(), roomy()).unwrap();
    for trial in trials().iter().filter(|t| t.is_fall()).take(2) {
        run_on_trial(&mut det, trial, &NoopRecorder);
    }
    let listing = flight.list_json();
    let count = listing.get("count").and_then(|v| v.as_u64()).unwrap();
    assert_eq!(count as usize, flight.incident_count());
    assert!(count > 0);

    // The detail document carries the full dump as hex; an analyst can
    // reconstruct and replay the incident from the HTTP response alone.
    let first_id = flight.incidents()[0].id.clone();
    let doc = flight.get_json(&first_id).expect("incident served");
    let hex = doc.get("dump_hex").and_then(|v| v.as_str()).unwrap();
    let decoded = IncidentDump::from_hex(hex).unwrap();
    assert_replays_bit_exact(&decoded);
    assert!(flight.get_json("inc-nope").is_none());

    // A /healthz degradation rising edge takes a dump automatically.
    let before = flight.incident_count();
    flight.on_health_status(true, &prefall::telemetry::JsonValue::Null);
    flight.on_health_status(true, &prefall::telemetry::JsonValue::Null);
    assert_eq!(flight.incident_count(), before + 1, "rising edge only");
    assert_eq!(flight.latest().unwrap().kind, IncidentKind::HealthDegraded);
}

/// The committed fixture embeds its own model bundle and raw input
/// stream: replay reproduces the recorded score trajectory bit for bit
/// (`f32::to_bits`, no epsilon) and every trigger flag.
#[test]
fn committed_golden_incident_replays_bit_exact() {
    let dump = IncidentDump::from_bytes(include_bytes!("../ci/golden_incident.pfbb")).unwrap();
    assert_replays_bit_exact(&dump);
}

/// The deployed int8 engine, quantized from the golden incident's own
/// float network and calibrated on the golden stream's own normalised
/// windows, scores that stream within a fixed bound of the float
/// engine. The measured deviation and trigger agreement are recorded
/// in ROADMAP item 2.
#[test]
fn golden_incident_int8_scores_track_float() {
    let dump = IncidentDump::from_bytes(include_bytes!("../ci/golden_incident.pfbb")).unwrap();
    let bundle = DetectorBundle::from_bytes(&dump.model_blob).unwrap();
    let config = DetectorConfig {
        pipeline: bundle.pipeline,
        threshold: dump.threshold,
        consecutive: dump.consecutive as usize,
        guard: dump.guard_config,
    };

    // Calibration: the recorded stream's windows, through the offline
    // pipeline (non-finite readings held at the last finite value).
    let mut channels: Vec<Vec<f32>> = vec![Vec::new(); 9];
    let mut held = [0.0f32; 6];
    for s in &dump.samples {
        for (h, &v) in held.iter_mut().zip(s.accel.iter().chain(&s.gyro)) {
            if v.is_finite() {
                *h = v;
            }
        }
        // Euler channels are recomputed from accel and gyro below.
        for (ch, &v) in channels.iter_mut().zip(held.iter().chain(&[0.0; 3])) {
            ch.push(v);
        }
    }
    let meta = &trials()[0];
    let mut stream = Trial::from_channels(
        meta.subject,
        meta.task,
        meta.trial_index,
        meta.source,
        channels,
        None,
        None,
    )
    .unwrap();
    stream.recompute_euler();
    let pipeline = Pipeline::new(bundle.pipeline).unwrap();
    let mut calib = pipeline.segments_for_trial(&stream, &NoopRecorder).0;
    for w in &mut calib {
        bundle.normalizer.apply_in_place(w);
    }
    let mut net = bundle.network.clone();
    let qnet = QuantizedNetwork::from_network(&mut net, &calib).unwrap();

    let float = ModelBundle::new(net, bundle.normalizer.clone(), config).unwrap();
    let int8 = ModelBundle::new(qnet, bundle.normalizer.clone(), config).unwrap();
    let (mut fs, mut qs) = (float.new_session(), int8.new_session());
    let (mut windows, mut agree, mut max_dev) = (0, 0, 0.0f32);
    for s in &dump.samples {
        let (pf, pq) = if s.missing() {
            (fs.push_missing(&float), qs.push_missing(&int8))
        } else {
            (
                fs.push_sample(&float, s.accel, s.gyro),
                qs.push_sample(&int8, s.accel, s.gyro),
            )
        };
        assert_eq!(pf.is_some(), pq.is_some(), "both engines classify each hop");
        if let (Some(f), Some(q)) = (pf, pq) {
            windows += 1;
            max_dev = max_dev.max((f - q).abs());
            agree += usize::from(fs.trigger_decision() == qs.trigger_decision());
        }
    }
    assert_eq!(windows, dump.windows.len());
    println!(
        "golden incident: max |p_int8 - p_float| = {max_dev:.4}, \
         trigger decisions agree on {agree} of {windows} windows"
    );
    assert!(
        max_dev < 0.02,
        "int8 deviates from float by {max_dev} ({agree} of {windows} trigger decisions agree)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replay stays bit-exact for arbitrary dropout/NaN-burst fault
    /// plans: whatever the faults did to the stream, the dump captures
    /// the raw inputs faithfully enough to reproduce every score.
    #[test]
    fn replay_is_bit_exact_under_random_fault_plans(
        seed in 0u64..1000,
        dropout in 0.0f64..0.15,
        burst in 0.0f64..0.04,
    ) {
        let (mut det, flight) = armed_detector_from_bundle(
            bundle_blob(), 0.5, 1, GuardConfig::default(), roomy()).unwrap();
        let plan = FaultPlan::dropout_nan(seed, dropout, burst, 5);
        let trial = trials().iter().find(|t| t.is_fall()).unwrap();
        run_on_faulted_trial(&mut det, trial, &plan, &NoopRecorder);
        let dump = flight.latest().unwrap_or_else(|| flight.dump_now("proptest"));
        let report = replay(&IncidentDump::from_bytes(&dump.to_bytes()).unwrap()).unwrap();
        prop_assert!(report.bit_exact, "seed {} diverged: {:?}", seed, report.divergence);
        prop_assert!(report.trigger_match);
    }
}
