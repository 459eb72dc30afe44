//! Robustness sweep: trains the proposed CNN, then streams every trial
//! through the hardened [`StreamingDetector`] under increasingly severe
//! sensor corruption ([`FaultPlan::kitchen_sink`] scaled from 0 to 1)
//! and reports how detection degrades.
//!
//! Three gates make the binary a CI check rather than just a report:
//!
//! 1. **Clean-signal identity** — on the uncorrupted dataset the
//!    hardened guard must be a bit-exact no-op: every trial's
//!    `triggered_at` must match the guard-disabled legacy path.
//!    Mismatch → exit 1.
//! 2. **Finite probabilities** — no window under any fault intensity
//!    may produce a non-finite probability. Violation → exit 2.
//! 3. **Monotone degradation** — detection rate must not *increase*
//!    with fault intensity beyond a 5-point tolerance (the nested
//!    per-sample hashing makes lower intensities strict subsets of
//!    higher ones, so real increases indicate a seeding bug).
//!    Violation → exit 3.
//!
//! The telemetry snapshot lands in `BENCH_robustness.json` (not
//! `BENCH_telemetry.json`, so a run never overwrites `edge_perf`'s
//! snapshot). `PREFALL_SEED` picks the
//! fault seed (default 7); `PREFALL_EPOCHS`, `PREFALL_KFALL` and
//! `PREFALL_SELF` shrink or grow the training run as usual.
//!
//! ```text
//! cargo run --release -p prefall-bench --bin robustness
//! ```

use prefall_bench::telemetry_out;
use prefall_core::cv::{subject_folds, train_on_sets, CvConfig};
use prefall_core::detector::{
    run_on_trial, DetectorConfig, GuardConfig, StreamingDetector, TrialOutcome,
};
use prefall_core::models::ModelKind;
use prefall_core::pipeline::{Pipeline, PipelineConfig};
use prefall_faults::{run_on_faulted_trial, FaultPlan};
use prefall_imu::dataset::{Dataset, DatasetConfig};
use prefall_telemetry::{JsonValue, NoopRecorder, Recorder, Value};

/// Fault intensities swept, in order.
const INTENSITIES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// Detection rate may rise by at most this much between adjacent
/// intensities before the sweep is declared non-monotone.
const MONOTONE_TOLERANCE: f64 = 0.05;

/// Per-intensity aggregates over one pass of the dataset.
struct SweepPoint {
    intensity: f64,
    detection_rate: f64,
    lead_p50_ms: f64,
    false_activation_rate: f64,
    fault_rate: f64,
}

fn main() {
    let (registry, rec) = telemetry_out::bench_recorder();
    let _server = prefall_obsd::serve_from_env(&registry);

    let seed: u64 = std::env::var("PREFALL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    let mut dataset_cfg = DatasetConfig {
        kfall_subjects: 2,
        self_collected_subjects: 2,
        trials_per_task: 1,
        duration_scale: 0.5,
        seed: 2025,
    };
    if let Ok(n) = std::env::var("PREFALL_KFALL").map(|v| v.parse().unwrap_or(2)) {
        dataset_cfg.kfall_subjects = n;
    }
    if let Ok(n) = std::env::var("PREFALL_SELF").map(|v| v.parse().unwrap_or(2)) {
        dataset_cfg.self_collected_subjects = n;
    }
    let mut cv = CvConfig::paper_scaled(8);
    cv.folds = 2;
    cv.val_subjects = 1;
    if let Ok(n) = std::env::var("PREFALL_EPOCHS").map(|v| v.parse().unwrap_or(6)) {
        cv.epochs = n;
    }

    rec.event("bench.phase", &[("phase", Value::from("train"))]);
    let dataset = Dataset::generate(&dataset_cfg).expect("dataset");
    let pipeline = Pipeline::new(PipelineConfig::paper_400ms()).expect("pipeline");
    let full = pipeline.segment_set_recorded(dataset.trials(), rec.as_ref());
    let splits =
        subject_folds(&dataset.subject_ids(), cv.folds, cv.val_subjects, cv.seed).expect("folds");
    let split = &splits[0];
    let train_set = full.filter_subjects(&split.train);
    let val_set = full.filter_subjects(&split.val);
    let test_set = full.filter_subjects(&split.test);
    let (net, _preds, _epochs) = train_on_sets(
        &pipeline,
        train_set.clone(),
        val_set,
        test_set,
        ModelKind::ProposedCnn,
        &cv,
        seed,
        rec.as_ref(),
    )
    .expect("training");
    let norm = pipeline.fit_normalizer(&train_set);

    let mut detector =
        StreamingDetector::new(net, norm, DetectorConfig::paper_400ms()).expect("detector");
    detector.session_mut().set_recorder(registry.clone());

    // Gate 1: on clean signal the guard must change nothing. Run every
    // trial twice — guard off (the legacy byte-for-byte path), guard on
    // — and demand identical trigger samples.
    rec.event("bench.phase", &[("phase", Value::from("clean_gate"))]);
    let clean_pass = |d: &mut StreamingDetector| -> Vec<Option<usize>> {
        dataset
            .trials()
            .iter()
            .map(|t| run_on_trial(d, t, &NoopRecorder).triggered_at)
            .collect()
    };
    detector.set_guard(GuardConfig::disabled());
    let legacy = clean_pass(&mut detector);
    detector.set_guard(GuardConfig::default());
    let hardened = clean_pass(&mut detector);
    if legacy != hardened {
        let diverged = legacy.iter().zip(&hardened).filter(|(a, b)| a != b).count();
        eprintln!(
            "robustness: FAIL — hardened ingest changed {diverged}/{} clean-signal trigger \
             decisions (guard must be a no-op on valid data)",
            legacy.len()
        );
        std::process::exit(1);
    }
    println!(
        "clean gate  : guard on == guard off across {} trials",
        legacy.len()
    );

    // The sweep: same trained detector, same trials, ever nastier bus.
    rec.event("bench.phase", &[("phase", Value::from("sweep"))]);
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut nonfinite_total: u64 = 0;
    for &intensity in &INTENSITIES {
        let plan = FaultPlan::kitchen_sink(seed).scaled(intensity);
        // Fresh counters so this intensity's fault rate is its own.
        detector.set_guard(GuardConfig::default());
        let (mut falls, mut triggered, mut adls, mut false_act) = (0u64, 0u64, 0u64, 0u64);
        let mut leads: Vec<f64> = Vec::new();
        for trial in dataset.trials() {
            let out: TrialOutcome = run_on_faulted_trial(&mut detector, trial, &plan, rec.as_ref());
            if let Some(p) = out.peak_prob {
                assert!(p.is_finite(), "runner filters non-finite peaks");
            }
            if trial.is_fall() {
                falls += 1;
                if out.triggered_at.is_some() {
                    triggered += 1;
                }
                if let Some(l) = out.lead_time_ms {
                    leads.push(l);
                }
            } else {
                adls += 1;
                if out.false_activation {
                    false_act += 1;
                }
            }
        }
        let status = detector.session().guard_status();
        nonfinite_total += status.engine_rejects;
        leads.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lead_p50 = if leads.is_empty() {
            f64::NAN
        } else {
            leads[leads.len() / 2]
        };
        let point = SweepPoint {
            intensity,
            detection_rate: triggered as f64 / falls.max(1) as f64,
            lead_p50_ms: lead_p50,
            false_activation_rate: false_act as f64 / adls.max(1) as f64,
            fault_rate: status.fault_rate(),
        };
        registry.gauge_set(
            &format!("robustness.detection_rate{{intensity={intensity}}}"),
            point.detection_rate,
        );
        if point.lead_p50_ms.is_finite() {
            registry.gauge_set(
                &format!("robustness.lead_p50_ms{{intensity={intensity}}}"),
                point.lead_p50_ms,
            );
        }
        registry.gauge_set(
            &format!("robustness.false_activation_rate{{intensity={intensity}}}"),
            point.false_activation_rate,
        );
        registry.gauge_set(
            &format!("robustness.fault_rate{{intensity={intensity}}}"),
            point.fault_rate,
        );
        println!(
            "intensity {:4.2}: detection {:6.2} %  lead p50 {:7.1} ms  false-act {:5.2} %  \
             fault rate {:6.3}",
            intensity,
            point.detection_rate * 100.0,
            point.lead_p50_ms,
            point.false_activation_rate * 100.0,
            point.fault_rate
        );
        points.push(point);
    }

    // Gate 2: not one window anywhere in the sweep may have produced a
    // non-finite probability (engine_rejects counts segments the guard
    // had to veto at the network boundary; the runner separately counts
    // probabilities that escaped — both must be clean for the hardened
    // path, and the runner's counter is the authoritative one).
    let snap = registry.snapshot();
    let escaped = snap
        .counters
        .get("faults.nonfinite_probs")
        .copied()
        .unwrap_or(0);
    if escaped > 0 {
        eprintln!("robustness: FAIL — {escaped} non-finite probabilities escaped the guard");
        std::process::exit(2);
    }
    println!(
        "finite gate : 0 non-finite probabilities escaped ({} segments vetoed at the engine)",
        nonfinite_total
    );

    // Gate 3: monotone degradation.
    for pair in points.windows(2) {
        if pair[1].detection_rate > pair[0].detection_rate + MONOTONE_TOLERANCE {
            eprintln!(
                "robustness: FAIL — detection rate rose from {:.3} (intensity {}) to {:.3} \
                 (intensity {}): degradation curve is not monotone",
                pair[0].detection_rate,
                pair[0].intensity,
                pair[1].detection_rate,
                pair[1].intensity
            );
            std::process::exit(3);
        }
    }
    println!("monotone gate: detection rate non-increasing across the sweep");

    let curve = JsonValue::Arr(
        points
            .iter()
            .map(|p| {
                JsonValue::Obj(vec![
                    ("intensity".to_string(), JsonValue::F64(p.intensity)),
                    (
                        "detection_rate".to_string(),
                        JsonValue::F64(p.detection_rate),
                    ),
                    ("lead_p50_ms".to_string(), JsonValue::F64(p.lead_p50_ms)),
                    (
                        "false_activation_rate".to_string(),
                        JsonValue::F64(p.false_activation_rate),
                    ),
                    ("fault_rate".to_string(), JsonValue::F64(p.fault_rate)),
                ])
            })
            .collect(),
    );
    telemetry_out::dump_to(
        "BENCH_robustness.json",
        "robustness",
        &snap,
        vec![
            ("fault_seed".to_string(), JsonValue::U64(seed)),
            ("curve".to_string(), curve),
        ],
    );
}
