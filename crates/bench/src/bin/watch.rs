//! Watch-layer bench: replays a long faulted stream on a **virtual
//! clock** and asserts the full alert lifecycle — a quality SLO fires
//! during the fault storm, holds through its refractory window, and
//! resolves after the stream heals — then measures what the wall-clock
//! sampling daemon costs the hot ingest path.
//!
//! The scripted timeline (virtual seconds):
//!
//! | phase | span | detector | signal |
//! |---|---|---|---|
//! | healthy-1 | 0 – 120 s | threshold 1.1 (never fires) | clean trials |
//! | storm | 120 – 300 s | threshold 0.0 (every window fires) + `FaultPlan::kitchen_sink(1.0)` | false activations + degraded guard samples |
//! | healthy-2 | 300 – 600 s | threshold 1.1 | clean trials |
//!
//! Gates (exit non-zero on violation):
//!
//! 1. `fa_rate` (quality) fires inside the storm, is still firing at
//!    storm end, resolves in healthy-2 — and its firing captured a
//!    blackbox incident dump.
//! 2. `degraded_rate` fires inside the storm and resolves.
//! 3. `ingest_p99` never fires (the push path is not the thing being
//!    faulted).
//! 4. Overhead: streaming classification with the sampling daemon
//!    armed must stay within a few percent of the unarmed path —
//!    recorded as the `watch.arming_speedup` gauge, which must clear
//!    `MIN_ARMING_SPEEDUP` (3 % under the committed ratio).
//!
//! Output: `bench-out/BENCH_watch.json`.
//!
//! ```text
//! cargo run --release -p prefall-bench --bin prefall-watch
//! ```

use prefall_bench::overhead::{arming_medians, probe_detector};
use prefall_bench::{at_least, fail, telemetry_out};
use prefall_blackbox::{FlightConfig, FlightRecorder};
use prefall_core::detector::{run_on_trial, StreamingDetector};
use prefall_faults::{run_on_faulted_trial, FaultPlan};
use prefall_imu::dataset::{Dataset, DatasetConfig};
use prefall_imu::SAMPLE_PERIOD_MS;
use prefall_telemetry::{JsonValue, Recorder, Registry, Value};
use prefall_watch::{Alert, SloObjective, SloSpec, StoreConfig, Watch, WatchConfig};
use std::sync::Arc;

/// Phase boundaries on the virtual clock (seconds).
const STORM_START_S: f64 = 120.0;
const STORM_END_S: f64 = 300.0;
const REPLAY_END_S: f64 = 600.0;

/// Classified windows per mode in the overhead leg.
const OVERHEAD_WINDOWS: usize = 200;

/// Classified windows per daemon up/down round in the overhead leg: a
/// daemon spawned per window would time thread start, not sampling.
const OVERHEAD_ROUND: usize = 20;

/// Floor on `watch.arming_speedup`: the committed ratio 0.98912 × 0.97,
/// i.e. the armed daemon may cost at most 3 % more than it did then.
const MIN_ARMING_SPEEDUP: f64 = 0.9891159753295442 * 0.97;

/// The bench's SLO dynamics: tight windows so the 600 s replay covers
/// fire + refractory + resolve with margin.
fn bench_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::new(
            "fa_rate",
            SloObjective::CounterRateCeiling {
                counter: "detector.false_activations".into(),
                per_seconds: 3600.0,
                max: 30.0,
            },
        )
        .windows(120.0, 30.0)
        .burn(2.0, 1.0)
        .hold(60.0, 30.0)
        .quality(),
        SloSpec::new(
            "degraded_rate",
            SloObjective::RatioCeiling {
                num: "guard.degraded_samples".into(),
                den: "guard.samples".into(),
                max: 0.05,
                min_den: 100.0,
            },
        )
        .windows(120.0, 30.0)
        .burn(2.0, 1.0)
        .hold(60.0, 30.0),
        SloSpec::new(
            "ingest_p99",
            SloObjective::QuantileCeiling {
                histogram: "detector.push_sample_seconds".into(),
                q: 0.99,
                max: 5e-3,
                min_count: 100.0,
            },
        )
        .windows(120.0, 30.0)
        .burn(2.0, 1.0)
        .hold(60.0, 30.0),
    ]
}

fn build_detector(threshold: f32, registry: &Arc<Registry>) -> StreamingDetector {
    let mut det = probe_detector(threshold);
    det.session_mut().set_recorder(registry.clone());
    det
}

fn transitions<'a>(alerts: &'a [Alert], slo: &str) -> Vec<&'a Alert> {
    alerts.iter().filter(|a| a.slo == slo).collect()
}

fn main() {
    let (registry, rec) = telemetry_out::bench_recorder();
    let _server = prefall_obsd::serve_from_env(&registry);

    let seed: u64 = std::env::var("PREFALL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

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

    let config = WatchConfig {
        store: StoreConfig {
            resolution_s: 1.0,
            retention_s: REPLAY_END_S + 60.0,
            max_series: 256,
        },
        slos: bench_slos(),
        alert_log_cap: 64,
    };
    let watch = Arc::new(Watch::new(Arc::clone(&registry), config));

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

    rec.event("bench.phase", &[("phase", Value::from("replay"))]);
    let storm_plan = FaultPlan::kitchen_sink(seed).scaled(1.0);
    let mut vt = 0.0f64; // virtual seconds
    let mut next_tick = 0.0f64;
    let mut trial_idx = 0usize;
    let mut trials_run = 0u64;
    while vt < REPLAY_END_S {
        let trial = adls[trial_idx % adls.len()];
        trial_idx += 1;
        trials_run += 1;
        let in_storm = (STORM_START_S..STORM_END_S).contains(&vt);
        if in_storm {
            let out = run_on_faulted_trial(&mut storm_detector, trial, &storm_plan, rec.as_ref());
            // The faulted runner emits faults.* counters only; mirror
            // the outcome into the detector.* counters the SLOs watch.
            rec.counter_add("detector.trials", 1);
            if out.false_activation {
                rec.counter_add("detector.false_activations", 1);
            }
        } else {
            let out = run_on_trial(&mut clean_detector, trial, rec.as_ref());
            if out.false_activation {
                fail(
                    "clean phase",
                    format!("threshold-1.1 detector fired on trial {trial_idx}"),
                );
            }
        }
        vt += trial.len() as f64 * SAMPLE_PERIOD_MS / 1000.0;
        while next_tick <= vt {
            watch.tick_at(next_tick);
            next_tick += 1.0;
        }
    }
    println!(
        "replay      : {trials_run} trials over {:.0} virtual seconds ({} alerts)",
        vt,
        watch.alerts().len()
    );

    // Gate 1: the fa_rate lifecycle, at the scripted times.
    let alerts = watch.alerts();
    let fa = transitions(&alerts, "fa_rate");
    let fa_fired = fa
        .iter()
        .find(|a| a.fired)
        .unwrap_or_else(|| fail("fa_rate", "never fired during the storm".into()));
    if !(STORM_START_S..=STORM_START_S + 80.0).contains(&fa_fired.at) {
        fail(
            "fa_rate",
            format!(
                "fired at {:.0}s, expected shortly after storm start",
                fa_fired.at
            ),
        );
    }
    let fa_resolved = fa
        .iter()
        .find(|a| !a.fired)
        .unwrap_or_else(|| fail("fa_rate", "never resolved after the storm".into()));
    if fa_resolved.at <= STORM_END_S || fa_resolved.at > STORM_END_S + 180.0 {
        fail(
            "fa_rate",
            format!(
                "resolved at {:.0}s, expected inside healthy-2",
                fa_resolved.at
            ),
        );
    }
    if fa_resolved.at < fa_fired.at + 60.0 {
        fail(
            "fa_rate",
            format!(
                "resolved {:.0}s after firing — refractory hold (60 s) not honoured",
                fa_resolved.at - fa_fired.at
            ),
        );
    }
    if !fa_fired.incident_requested || flight.incident_count() == 0 {
        fail(
            "fa_rate",
            "quality breach did not capture a blackbox incident".into(),
        );
    }
    println!(
        "fa_rate     : fired {:.0}s resolved {:.0}s (hold {:.0}s), incident {}",
        fa_fired.at,
        fa_resolved.at,
        fa_resolved.at - fa_fired.at,
        flight.latest().map(|d| d.id).unwrap_or_default()
    );

    // Gate 2: degraded_rate breached and recovered.
    let dg = transitions(&alerts, "degraded_rate");
    let dg_fired = dg
        .iter()
        .find(|a| a.fired)
        .unwrap_or_else(|| fail("degraded_rate", "never fired during the storm".into()));
    if !(STORM_START_S..STORM_END_S + 30.0).contains(&dg_fired.at) {
        fail(
            "degraded_rate",
            format!("fired at {:.0}s, expected inside the storm", dg_fired.at),
        );
    }
    if !dg.iter().any(|a| !a.fired) {
        fail("degraded_rate", "never resolved after the storm".into());
    }
    println!(
        "degraded    : fired {:.0}s, resolved in healthy-2",
        dg_fired.at
    );

    // Gate 3: the latency SLO stayed quiet.
    if transitions(&alerts, "ingest_p99").iter().any(|a| a.fired) {
        fail("ingest_p99", "latency SLO fired on an unloaded path".into());
    }
    if !watch.firing().is_empty() {
        fail(
            "steady state",
            format!("still firing at end: {:?}", watch.firing()),
        );
    }
    println!("ingest_p99  : quiet across the replay");

    // Overhead leg: what does the wall-clock daemon cost the hot path?
    // Interleaved rounds (daemon up / daemon down) on one detector so
    // machine drift cancels; the daemon samples the same live registry
    // the detector records into, at a deliberately aggressive 10 ms
    // cadence (the production default is 1 s).
    rec.event("bench.phase", &[("phase", Value::from("overhead"))]);
    let overhead_watch = Arc::new(Watch::new(
        Arc::clone(&registry),
        WatchConfig {
            store: StoreConfig {
                resolution_s: 0.01,
                retention_s: 60.0,
                max_series: 256,
            },
            slos: bench_slos(),
            alert_log_cap: 16,
        },
    ));
    let mut daemon = None;
    let (unarmed_med, armed_med) = arming_medians(
        &mut build_detector(1.1, &registry),
        OVERHEAD_WINDOWS,
        OVERHEAD_ROUND,
        // Dropping the daemon stops and joins its thread.
        |_, armed| daemon = armed.then(|| overhead_watch.spawn()),
    );
    let speedup = unarmed_med / armed_med;
    registry.gauge_set("watch.arming_speedup", speedup);
    println!(
        "overhead    : push median unarmed {:.1} µs, armed {:.1} µs (speedup {:.3})",
        unarmed_med * 1e6,
        armed_med * 1e6,
        speedup
    );

    let timeline = JsonValue::Arr(
        alerts
            .iter()
            .map(|a| {
                JsonValue::Obj(vec![
                    ("slo".to_string(), JsonValue::Str(a.slo.clone())),
                    (
                        "state".to_string(),
                        JsonValue::Str(if a.fired { "fired" } else { "resolved" }.to_string()),
                    ),
                    ("at_s".to_string(), JsonValue::F64(a.at)),
                    (
                        "incident".to_string(),
                        JsonValue::Bool(a.incident_requested),
                    ),
                ])
            })
            .collect(),
    );
    telemetry_out::dump_to(
        "BENCH_watch.json",
        "watch",
        &registry.snapshot(),
        vec![
            ("fault_seed".to_string(), JsonValue::U64(seed)),
            ("virtual_seconds".to_string(), JsonValue::F64(vt)),
            ("trials".to_string(), JsonValue::U64(trials_run)),
            ("alert_timeline".to_string(), timeline),
        ],
    );
    at_least(
        "overhead",
        "watch.arming_speedup",
        speedup,
        MIN_ARMING_SPEEDUP,
    );
}
