//! The paper's deployable claim, bounded: the int8 detector that
//! `edge_perf` deploys triggers on enough falls, and leads impact by
//! the 150 ms airbag inflation budget on nearly all of them.
//!
//! Each floor is 0.9 × the statistic of a committed `edge_perf` run
//! (143 triggered falls). Lead time is simulated, so it does not vary
//! by host.

use prefall_bench::TrainedCnn;
use prefall_core::detector::{
    lead_time_bounds_ms, run_on_trial, DetectorConfig, StreamingDetector,
};
use prefall_imu::dataset::DatasetConfig;
use prefall_imu::AIRBAG_INFLATION_MS;
use prefall_telemetry::Registry;
use std::sync::Arc;

/// Floor on the lead-time median; committed p50 347.32 ms.
const MIN_LEAD_P50_MS: f64 = 0.9 * 347.32396632346456;
/// Floor on the lead-time p95; committed p95 591.27 ms.
const MIN_LEAD_P95_MS: f64 = 0.9 * 591.274561112819;
/// Floor on the lead-time p99; committed p99 1081.25 ms.
const MIN_LEAD_P99_MS: f64 = 0.9 * 1081.2483308151154;
/// Floor on the lead-time mean; committed mean 363.01 ms.
const MIN_LEAD_MEAN_MS: f64 = 0.9 * 363.006993006993;
/// Floor on the share of triggered falls that lead by at least the
/// budget; committed 134 of 143, less 0.05.
const MIN_BUDGET_FRACTION: f64 = 134.0 / 143.0 - 0.05;
/// Lead-time observations needed before its quantiles mean anything;
/// fewer is itself a failure (a detector that never fires).
const MIN_LEAD_OBSERVATIONS: u64 = 20;

#[test]
#[cfg_attr(debug_assertions, ignore = "release gate")]
fn int8_detector_leads_impact_by_the_airbag_budget() {
    let registry = Arc::new(Registry::new());
    registry.register_histogram("detector.lead_time_ms", lead_time_bounds_ms());
    let mut trained = TrainedCnn::train(
        &DatasetConfig {
            kfall_subjects: 4,
            self_collected_subjects: 4,
            trials_per_task: 1,
            duration_scale: 0.5,
            seed: 2025,
        },
        None,
        7,
        registry.as_ref(),
    );
    let qnet = trained.quantize();
    let mut detector =
        StreamingDetector::new(qnet, trained.norm.clone(), DetectorConfig::paper_400ms())
            .expect("detector");
    detector.session_mut().set_recorder(registry.clone());

    let (mut triggered, mut lead_ok) = (0u64, 0u64);
    for trial in trained.dataset.trials().iter() {
        let outcome = run_on_trial(&mut detector, trial, registry.as_ref());
        if trial.is_fall() {
            triggered += u64::from(outcome.triggered_at.is_some());
            lead_ok +=
                u64::from(outcome.lead_time_ms.unwrap_or(f64::NEG_INFINITY) >= AIRBAG_INFLATION_MS);
        }
    }

    let snap = registry.snapshot();
    let lead = snap
        .histograms
        .get("detector.lead_time_ms")
        .filter(|h| h.count >= MIN_LEAD_OBSERVATIONS && triggered > 0)
        .unwrap_or_else(|| {
            panic!(
                "too few lead-time observations from {triggered} triggered falls, \
                 need {MIN_LEAD_OBSERVATIONS}"
            )
        });
    for (what, value, floor) in [
        ("p50", lead.p50, MIN_LEAD_P50_MS),
        ("p95", lead.p95, MIN_LEAD_P95_MS),
        ("p99", lead.p99, MIN_LEAD_P99_MS),
        ("mean", lead.mean(), MIN_LEAD_MEAN_MS),
    ] {
        assert!(
            value >= floor,
            "lead time {what} = {value:.2} ms, floor {floor:.2} ms"
        );
    }
    let fraction = lead_ok as f64 / triggered as f64;
    assert!(
        fraction >= MIN_BUDGET_FRACTION,
        "{lead_ok}/{triggered} triggered falls lead by the budget ({fraction:.4}), \
         floor {MIN_BUDGET_FRACTION:.4}"
    );
}
