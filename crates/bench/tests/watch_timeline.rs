//! The watch alert timeline: a long faulted stream replayed on a
//! **virtual clock** plays out the whole alert lifecycle — a quality
//! SLO fires during the fault storm, holds through its refractory
//! window and resolves after the stream heals.
//!
//! | phase | span | detector | signal |
//! |---|---|---|---|
//! | healthy-1 | 0 – 120 s | threshold 1.1 (never fires) | clean trials |
//! | storm | 120 – 300 s | threshold 0.0 (every window fires) + `FaultPlan::kitchen_sink(7)` | false activations + degraded guard samples |
//! | healthy-2 | 300 – 600 s | threshold 1.1 | clean trials |

use prefall_bench::{overhead::probe_detector, watch_slos};
use prefall_blackbox::{FlightConfig, FlightRecorder};
use prefall_core::detector::{run_on_trial, StreamingDetector};
use prefall_faults::{run_on_faulted_trial, FaultPlan};
use prefall_imu::dataset::{Dataset, DatasetConfig};
use prefall_imu::SAMPLE_PERIOD_MS;
use prefall_telemetry::{Recorder, Registry};
use prefall_watch::{Alert, StoreConfig, Watch, WatchConfig};
use std::sync::Arc;

/// Fault seed of the storm.
const SEED: u64 = 7;

/// Phase boundaries on the virtual clock (seconds).
const STORM_START_S: f64 = 120.0;
const STORM_END_S: f64 = 300.0;
const REPLAY_END_S: f64 = 600.0;

fn build_detector(threshold: f32, registry: &Arc<Registry>) -> StreamingDetector {
    let mut det = probe_detector(threshold);
    det.session_mut().set_recorder(registry.clone());
    det
}

fn transitions<'a>(alerts: &'a [Alert], slo: &str) -> Vec<&'a Alert> {
    alerts.iter().filter(|a| a.slo == slo).collect()
}

#[test]
fn fa_rate_fires_in_the_storm_holds_and_resolves() {
    let registry = Arc::new(Registry::new());
    let dataset = Dataset::generate(&DatasetConfig {
        kfall_subjects: 1,
        self_collected_subjects: 1,
        trials_per_task: 1,
        duration_scale: 0.5,
        seed: 2025,
    })
    .expect("dataset");
    // ADL trials only: the storm's scripted signal is *false*
    // activations, so fall trials (where triggering is correct) would
    // only dilute the timeline.
    let adls: Vec<_> = dataset.trials().iter().filter(|t| !t.is_fall()).collect();
    assert!(!adls.is_empty(), "dataset must contain ADL trials");

    let watch = Watch::new(
        Arc::clone(&registry),
        WatchConfig {
            store: StoreConfig {
                resolution_s: 1.0,
                retention_s: REPLAY_END_S + 60.0,
                max_series: 256,
            },
            slos: watch_slos(),
            alert_log_cap: 64,
        },
    );

    // The storm detector carries the flight recorder; its handle is the
    // incident sink quality SLOs dump through.
    let mut storm_detector = build_detector(0.0, &registry);
    let flight = FlightRecorder::install(&mut storm_detector, Vec::new(), FlightConfig::default());
    flight.set_recorder(registry.clone());
    watch.set_incident_capture(Arc::new(flight.clone()));
    let mut clean_detector = build_detector(1.1, &registry);

    // Materialise the storm counters up front so their series exist
    // from t=0 (a counter born mid-window would skew the first rate).
    registry.counter_add("detector.false_activations", 0);
    registry.counter_add("guard.degraded_samples", 0);

    let storm_plan = FaultPlan::kitchen_sink(SEED).scaled(1.0);
    let mut vt = 0.0f64; // virtual seconds
    let mut next_tick = 0.0f64;
    for (i, trial) in adls.iter().cycle().enumerate() {
        if vt >= REPLAY_END_S {
            break;
        }
        if (STORM_START_S..STORM_END_S).contains(&vt) {
            let out =
                run_on_faulted_trial(&mut storm_detector, trial, &storm_plan, registry.as_ref());
            // The faulted runner emits faults.* counters only; mirror
            // the outcome into the detector.* counters the SLOs watch.
            registry.counter_add("detector.trials", 1);
            if out.false_activation {
                registry.counter_add("detector.false_activations", 1);
            }
        } else {
            let out = run_on_trial(&mut clean_detector, trial, registry.as_ref());
            assert!(
                !out.false_activation,
                "threshold-1.1 detector fired on trial {}",
                i + 1
            );
        }
        vt += trial.len() as f64 * SAMPLE_PERIOD_MS / 1000.0;
        while next_tick <= vt {
            watch.tick_at(next_tick);
            next_tick += 1.0;
        }
    }
    let alerts = watch.alerts();

    // fa_rate: fires shortly after storm start, honours its 60 s
    // refractory hold, resolves inside healthy-2, captures an incident.
    let fa = transitions(&alerts, "fa_rate");
    let fired = fa
        .iter()
        .find(|a| a.fired)
        .expect("fa_rate never fired during the storm");
    assert!(
        (STORM_START_S..=STORM_START_S + 80.0).contains(&fired.at),
        "fa_rate fired at {:.0}s, expected shortly after storm start",
        fired.at
    );
    let resolved = fa
        .iter()
        .find(|a| !a.fired)
        .expect("fa_rate never resolved after the storm");
    assert!(
        resolved.at > STORM_END_S && resolved.at <= STORM_END_S + 180.0,
        "fa_rate resolved at {:.0}s, expected inside healthy-2",
        resolved.at
    );
    assert!(
        resolved.at >= fired.at + 60.0,
        "fa_rate resolved {:.0}s after firing: refractory hold (60 s) not honoured",
        resolved.at - fired.at
    );
    assert!(
        fired.incident_requested && flight.incident_count() > 0,
        "quality breach did not capture a blackbox incident"
    );

    // degraded_rate: breached inside the storm, recovered after it.
    let dg = transitions(&alerts, "degraded_rate");
    let dg_fired = dg
        .iter()
        .find(|a| a.fired)
        .expect("degraded_rate never fired during the storm");
    assert!(
        (STORM_START_S..STORM_END_S + 30.0).contains(&dg_fired.at),
        "degraded_rate fired at {:.0}s, expected inside the storm",
        dg_fired.at
    );
    assert!(
        dg.iter().any(|a| !a.fired),
        "degraded_rate never resolved after the storm"
    );

    // The latency SLO stays quiet: the push path is not what's faulted.
    assert!(
        !transitions(&alerts, "ingest_p99").iter().any(|a| a.fired),
        "latency SLO fired on an unloaded path"
    );
    assert!(
        watch.firing().is_empty(),
        "still firing at end: {:?}",
        watch.firing()
    );
}
