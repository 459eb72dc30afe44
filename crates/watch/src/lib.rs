//! Watching the watcher: an in-process time-series store, SLO engine
//! and burn-rate alerting layer over the live detector telemetry.
//!
//! `prefall-telemetry` records what the detector does; `prefall-obsd`
//! serves the current totals. Neither answers the questions an
//! operator actually asks — *is the false-activation rate rising*,
//! *has p99 ingest latency breached its budget*, *did the guard spend
//! the last five minutes degraded* — because those are questions about
//! **windows of history**, not points in time. This crate holds that
//! history, allocation-bounded, and evaluates declarative SLOs over it:
//!
//! * [`store`] — fixed-capacity per-series rings of `(t, value)`
//!   sampled from the shared [`Registry`] on a cadence; counters and
//!   histogram buckets stored cumulatively, rates and windowed
//!   quantiles derived at query time. Zero allocations per tick once
//!   a series' rings exist.
//! * [`slo`] — SLOs as multi-window burn rates with hysteresis and a
//!   refractory hold, so a breach must be sustained to fire and
//!   transient recoveries don't flap the alert.
//! * [`alert`] — a bounded transition log, `watch.alert.*` telemetry
//!   events, and the [`IncidentCapture`] seam through which a quality
//!   SLO breach asks the blackbox flight recorder for a forensic dump.
//!
//! The [`Watch`] handle ties the three together and implements
//! [`prefall_obsd::WatchSource`], so one [`MetricsServer::start`] call
//! with it as [`Sources::watch`] exposes `/tsdb`, `/slo` and `/alerts`
//! — and flips `/healthz` to 503 while an SLO is firing.
//!
//! # Quickstart
//!
//! ```
//! use prefall_telemetry::{Recorder, Registry};
//! use prefall_watch::{SloObjective, SloSpec, Watch, WatchConfig};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(Registry::new());
//! let mut config = WatchConfig::default();
//! config.slos.push(
//!     SloSpec::new(
//!         "fa_rate",
//!         SloObjective::CounterRateCeiling {
//!             counter: "detector.false_activations".into(),
//!             per_seconds: 3600.0,
//!             max: 30.0,
//!         },
//!     )
//!     .windows(120.0, 30.0)
//!     .quality(),
//! );
//! let watch = Arc::new(Watch::new(Arc::clone(&registry), config));
//! // Deterministic replays drive the clock by hand; production spawns
//! // the daemon instead (`Watch::spawn`).
//! registry.counter_add("detector.windows", 10);
//! watch.tick_at(0.0);
//! watch.tick_at(1.0);
//! assert!(watch.firing().is_empty());
//! ```
//!
//! [`Registry`]: prefall_telemetry::Registry
//! [`MetricsServer::start`]: prefall_obsd::MetricsServer::start
//! [`Sources::watch`]: prefall_obsd::Sources::watch
//! [`IncidentCapture`]: alert::IncidentCapture

pub mod alert;
pub mod ring;
pub mod slo;
pub mod store;

pub use alert::{Alert, AlertLog, IncidentCapture};
pub use ring::PointRing;
pub use slo::{evaluate, SloObjective, SloSpec, SloState, SloTransition};
pub use store::{SeriesKind, StoreConfig, TsStore};

use prefall_telemetry::{JsonValue, Recorder, Registry, Value};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the watch layer needs to run.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    pub store: StoreConfig,
    /// The SLOs to evaluate each tick.
    pub slos: Vec<SloSpec>,
    /// Alert transitions retained for `/alerts`.
    pub alert_log_cap: usize,
}

impl Default for WatchConfig {
    fn default() -> Self {
        Self {
            store: StoreConfig::default(),
            slos: Vec::new(),
            alert_log_cap: 128,
        }
    }
}

impl WatchConfig {
    /// The repo's production SLO set over the detector pipeline:
    ///
    /// | name | objective |
    /// |---|---|
    /// | `fa_rate` | ≤ 30 false activations / hour (quality) |
    /// | `detection_rate` | ≥ 90 % of fall events detected (quality) |
    /// | `ingest_p99` | p99 `detector.push_sample_seconds` ≤ 5 ms |
    /// | `lead_time_p10` | p10 lead time ≥ 150 ms (quality) |
    /// | `degraded_rate` | ≤ 5 % of guard samples degraded |
    /// | `input_drift` | mean `drift.input_psi` ≤ 0.25 (quality) |
    /// | `score_drift` | mean `drift.score_shift` ≤ 0.15 (quality) |
    pub fn production() -> Self {
        let slos = vec![
            SloSpec::new(
                "fa_rate",
                SloObjective::CounterRateCeiling {
                    counter: "detector.false_activations".into(),
                    per_seconds: 3600.0,
                    max: 30.0,
                },
            )
            .quality(),
            SloSpec::new(
                "detection_rate",
                SloObjective::RatioFloor {
                    num: "quality.fall_detected".into(),
                    den: "quality.fall_events".into(),
                    min: 0.9,
                    min_den: 5.0,
                },
            )
            .quality(),
            SloSpec::new(
                "ingest_p99",
                SloObjective::QuantileCeiling {
                    histogram: "detector.push_sample_seconds".into(),
                    q: 0.99,
                    max: 5e-3,
                    min_count: 100.0,
                },
            ),
            SloSpec::new(
                "lead_time_p10",
                SloObjective::QuantileFloor {
                    histogram: "detector.lead_time_ms".into(),
                    q: 0.10,
                    min: 150.0,
                    min_count: 10.0,
                },
            )
            .quality(),
            SloSpec::new(
                "degraded_rate",
                SloObjective::RatioCeiling {
                    num: "guard.degraded_samples".into(),
                    den: "guard.samples".into(),
                    max: 0.05,
                    min_den: 100.0,
                },
            ),
            // Fleet serving: shedding is an honest degraded mode, but
            // more than 1 % of windows skipping inference means the
            // fleet is under-provisioned, not just riding out a spike.
            SloSpec::new(
                "fleet_shed_rate",
                SloObjective::RatioCeiling {
                    num: "fleet.shed_windows".into(),
                    den: "fleet.windows".into(),
                    max: 0.01,
                    min_den: 100.0,
                },
            ),
            // Per-batch ingest latency: a wearer's batch must clear the
            // sharded pipeline well inside the airbag budget.
            SloSpec::new(
                "fleet_ingest_p99",
                SloObjective::QuantileCeiling {
                    histogram: "fleet.ingest_seconds".into(),
                    q: 0.99,
                    max: 5e-3,
                    min_count: 100.0,
                },
            ),
            // Label-free validity: the drift monitor publishes drift
            // scores of the live input / score distributions against
            // the committed training-set fingerprint. A sustained
            // input PSI past 0.25 (the conventional "major shift"
            // reading) means the model is being asked about a
            // population it was not trained on — a quality breach even
            // though every latency SLO may be green, so firing
            // captures an incident dump. The score section pages on
            // quantile displacement, not PSI: the sliding view holds
            // only a few hundred window scores, and at that sample
            // size a handful of windows landing in reference-empty
            // histogram bins swings PSI by whole points (the floored
            // log ratio dominates), while the 10th–90th percentiles
            // are stable on healthy streams. `drift.score_psi` stays
            // published as an advisory gauge. The gauges only exist
            // once a reference fingerprint is committed; until then
            // these SLOs see no data and stay quiet. Burn 1.0: the
            // ceiling *is* the alarm line.
            SloSpec::new(
                "input_drift",
                SloObjective::GaugeCeiling {
                    gauge: "drift.input_psi".into(),
                    max: 0.25,
                },
            )
            .burn(1.0, 0.8)
            .quality(),
            SloSpec::new(
                "score_drift",
                SloObjective::GaugeCeiling {
                    gauge: "drift.score_shift".into(),
                    max: 0.15,
                },
            )
            .burn(1.0, 0.8)
            .quality(),
        ];
        Self {
            store: StoreConfig::default(),
            slos,
            alert_log_cap: 128,
        }
    }
}

struct WatchInner {
    store: TsStore,
    states: Vec<SloState>,
    log: AlertLog,
    ticks: u64,
    last_tick_at: Option<f64>,
}

/// The live watch: store + SLO engine + alert sink behind one mutex.
///
/// Drive it with [`Watch::tick_at`] (deterministic replays, tests) or
/// hand it to [`Watch::spawn`] for a wall-clock background daemon.
pub struct Watch {
    registry: Arc<Registry>,
    specs: Vec<SloSpec>,
    inner: Mutex<WatchInner>,
    capture: Mutex<Option<Arc<dyn IncidentCapture>>>,
}

impl std::fmt::Debug for Watch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watch")
            .field("slos", &self.specs.len())
            .finish_non_exhaustive()
    }
}

impl Watch {
    pub fn new(registry: Arc<Registry>, config: WatchConfig) -> Self {
        let states = config.slos.iter().map(|_| SloState::default()).collect();
        Self {
            registry,
            specs: config.slos,
            inner: Mutex::new(WatchInner {
                store: TsStore::new(config.store),
                states,
                log: AlertLog::new(config.alert_log_cap),
                ticks: 0,
                last_tick_at: None,
            }),
            capture: Mutex::new(None),
        }
    }

    /// Attaches the incident-capture sink (the blackbox's flight
    /// handle). Quality SLOs that fire afterwards request a dump.
    pub fn set_incident_capture(&self, capture: Arc<dyn IncidentCapture>) {
        *self.capture.lock().expect("capture poisoned") = Some(capture);
    }

    /// One sampling + evaluation step at time `now` (seconds on the
    /// caller's clock — wall for the daemon, virtual for replays).
    /// Allocation-free once every live series has rings and the
    /// watch's own metrics exist (in practice: after three ticks),
    /// except while an alert transitions.
    pub fn tick_at(&self, now: f64) {
        let mut fired: u64 = 0;
        let mut resolved: u64 = 0;
        {
            let mut inner = self.inner.lock().expect("watch poisoned");
            let inner = &mut *inner;
            inner.store.sample(&self.registry, now);
            inner.ticks += 1;
            inner.last_tick_at = Some(now);
            for (spec, state) in self.specs.iter().zip(inner.states.iter_mut()) {
                let transition = evaluate(spec, state, &inner.store, now);
                if transition == SloTransition::None {
                    continue;
                }
                let is_fire = transition == SloTransition::Fired;
                if is_fire {
                    fired += 1;
                } else {
                    resolved += 1;
                }
                let wants_capture = is_fire && spec.quality;
                let incident_requested = wants_capture && self.request_incident(&spec.name);
                inner.log.push(Alert {
                    id: 0,
                    slo: spec.name.clone(),
                    fired: is_fire,
                    at: now,
                    burn_short: state.last_burn_short,
                    value_short: state.last_value_short,
                    incident_requested,
                });
                self.registry.event(
                    if is_fire {
                        "watch.alert.fired"
                    } else {
                        "watch.alert.resolved"
                    },
                    &[
                        ("slo", Value::Str(&spec.name)),
                        ("at", Value::F64(now)),
                        (
                            "burn_short",
                            Value::F64(state.last_burn_short.unwrap_or(f64::NAN)),
                        ),
                        ("incident", Value::Bool(incident_requested)),
                    ],
                );
            }
            self.registry
                .gauge_set("watch.series", inner.store.series_count() as f64);
            self.registry.gauge_set(
                "watch.slos_firing",
                inner.states.iter().filter(|s| s.firing).count() as f64,
            );
        }
        // Counters bumped outside the inner lock: the registry lock is
        // the only one held at a time either way, but keeping the
        // critical sections disjoint makes the ordering obvious.
        self.registry.counter_add("watch.ticks", 1);
        if fired > 0 {
            self.registry.counter_add("watch.alerts_fired", fired);
        }
        if resolved > 0 {
            self.registry.counter_add("watch.alerts_resolved", resolved);
        }
    }

    fn request_incident(&self, slo: &str) -> bool {
        let capture = self.capture.lock().expect("capture poisoned");
        match capture.as_ref() {
            Some(sink) => sink.capture_incident(slo).is_some(),
            None => false,
        }
    }

    /// Names of the SLOs currently firing.
    pub fn firing(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("watch poisoned");
        self.specs
            .iter()
            .zip(inner.states.iter())
            .filter(|(_, s)| s.firing)
            .map(|(spec, _)| spec.name.clone())
            .collect()
    }

    /// Sampling ticks performed so far.
    pub fn ticks(&self) -> u64 {
        self.inner.lock().expect("watch poisoned").ticks
    }

    /// Runs `f` against the store under the lock (windowed queries in
    /// tests and benches without cloning series out).
    pub fn with_store<T>(&self, f: impl FnOnce(&TsStore) -> T) -> T {
        let inner = self.inner.lock().expect("watch poisoned");
        f(&inner.store)
    }

    /// Lifetime alert transitions `(fired, resolved)`.
    pub fn alert_totals(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("watch poisoned");
        (inner.log.total_fired(), inner.log.total_resolved())
    }

    /// Copies of the retained alert transitions, oldest first.
    pub fn alerts(&self) -> Vec<Alert> {
        let inner = self.inner.lock().expect("watch poisoned");
        inner.log.entries().to_vec()
    }

    /// Spawns the wall-clock sampling daemon: one background thread
    /// ticking every [`StoreConfig::resolution_s`] until the returned
    /// handle is dropped or [`WatchDaemon::shutdown`] runs. The wait
    /// between ticks is a receive on the stop channel, so shutdown ends
    /// it at once.
    pub fn spawn(self: &Arc<Self>) -> WatchDaemon {
        let watch = Arc::clone(self);
        let period = Duration::from_secs_f64(
            self.inner
                .lock()
                .expect("watch poisoned")
                .store
                .config()
                .resolution_s
                .max(1e-3),
        );
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("prefall-watch".to_string())
            .spawn(move || {
                let start = Instant::now();
                loop {
                    watch.tick_at(start.elapsed().as_secs_f64());
                    if stopped.recv_timeout(period) != Err(RecvTimeoutError::Timeout) {
                        return;
                    }
                }
            })
            .expect("spawn watch daemon");
        WatchDaemon {
            stop,
            handle: Some(handle),
        }
    }
}

/// A running sampling daemon; dropping it stops the thread.
#[derive(Debug)]
pub struct WatchDaemon {
    stop: mpsc::Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl WatchDaemon {
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WatchDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn opt_f64(v: Option<f64>) -> JsonValue {
    match v {
        Some(x) if x.is_finite() => JsonValue::F64(x),
        _ => JsonValue::Null,
    }
}

impl prefall_obsd::WatchSource for Watch {
    fn tsdb_json(&self, series: &str, window_s: Option<f64>) -> Option<JsonValue> {
        let inner = self.inner.lock().expect("watch poisoned");
        let now = inner.last_tick_at.unwrap_or(0.0);
        let window = window_s.unwrap_or(f64::INFINITY);
        let data = inner.store.get(series)?;
        let kind = data.kind();
        let points = inner.store.points(series, now, window)?;
        let mut doc = vec![
            ("series".to_string(), JsonValue::Str(series.to_string())),
            (
                "kind".to_string(),
                JsonValue::Str(kind.as_str().to_string()),
            ),
            ("now".to_string(), JsonValue::F64(now)),
            (
                "points".to_string(),
                JsonValue::Arr(
                    points
                        .iter()
                        .map(|&(t, v)| JsonValue::Arr(vec![JsonValue::F64(t), JsonValue::F64(v)]))
                        .collect(),
                ),
            ),
        ];
        let w = if window.is_finite() { window } else { 1e18 };
        match kind {
            SeriesKind::Counter => {
                doc.push((
                    "rate_per_s".to_string(),
                    opt_f64(inner.store.rate_per_s(series, now, w)),
                ));
                doc.push((
                    "increase".to_string(),
                    opt_f64(inner.store.increase(series, now, w)),
                ));
            }
            SeriesKind::Gauge => {
                doc.push(("last".to_string(), opt_f64(inner.store.gauge(series))));
            }
            SeriesKind::Histogram => {
                doc.push((
                    "count".to_string(),
                    opt_f64(inner.store.window_count(series, now, w)),
                ));
                for (label, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                    doc.push((
                        label.to_string(),
                        opt_f64(inner.store.quantile(series, q, now, w)),
                    ));
                }
            }
        }
        Some(JsonValue::Obj(doc))
    }

    fn series_json(&self) -> JsonValue {
        let inner = self.inner.lock().expect("watch poisoned");
        JsonValue::Obj(vec![
            (
                "series".to_string(),
                JsonValue::Arr(
                    inner
                        .store
                        .series_names()
                        .into_iter()
                        .map(|(name, kind, points)| {
                            JsonValue::Obj(vec![
                                ("name".to_string(), JsonValue::Str(name)),
                                (
                                    "kind".to_string(),
                                    JsonValue::Str(kind.as_str().to_string()),
                                ),
                                ("points".to_string(), JsonValue::U64(points as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "dropped_series".to_string(),
                JsonValue::U64(inner.store.dropped_series()),
            ),
            ("ticks".to_string(), JsonValue::U64(inner.ticks)),
        ])
    }

    fn slo_json(&self) -> JsonValue {
        let inner = self.inner.lock().expect("watch poisoned");
        JsonValue::Arr(
            self.specs
                .iter()
                .zip(inner.states.iter())
                .map(|(spec, state)| {
                    JsonValue::Obj(vec![
                        ("name".to_string(), JsonValue::Str(spec.name.clone())),
                        (
                            "objective".to_string(),
                            JsonValue::Str(spec.objective.kind().to_string()),
                        ),
                        (
                            "target".to_string(),
                            JsonValue::F64(spec.objective.target()),
                        ),
                        ("quality".to_string(), JsonValue::Bool(spec.quality)),
                        (
                            "long_window_s".to_string(),
                            JsonValue::F64(spec.long_window_s),
                        ),
                        (
                            "short_window_s".to_string(),
                            JsonValue::F64(spec.short_window_s),
                        ),
                        (
                            "burn_threshold".to_string(),
                            JsonValue::F64(spec.burn_threshold),
                        ),
                        ("firing".to_string(), JsonValue::Bool(state.firing)),
                        ("fired_at".to_string(), opt_f64(state.fired_at)),
                        ("value_long".to_string(), opt_f64(state.last_value_long)),
                        ("value_short".to_string(), opt_f64(state.last_value_short)),
                        ("burn_long".to_string(), opt_f64(state.last_burn_long)),
                        ("burn_short".to_string(), opt_f64(state.last_burn_short)),
                        ("times_fired".to_string(), JsonValue::U64(state.times_fired)),
                    ])
                })
                .collect(),
        )
    }

    fn alerts_json(&self) -> JsonValue {
        let inner = self.inner.lock().expect("watch poisoned");
        JsonValue::Obj(vec![
            (
                "alerts".to_string(),
                JsonValue::Arr(
                    inner
                        .log
                        .entries()
                        .iter()
                        .map(|a| {
                            JsonValue::Obj(vec![
                                ("id".to_string(), JsonValue::U64(a.id)),
                                ("slo".to_string(), JsonValue::Str(a.slo.clone())),
                                (
                                    "state".to_string(),
                                    JsonValue::Str(
                                        if a.fired { "fired" } else { "resolved" }.to_string(),
                                    ),
                                ),
                                ("at".to_string(), JsonValue::F64(a.at)),
                                ("burn_short".to_string(), opt_f64(a.burn_short)),
                                ("value_short".to_string(), opt_f64(a.value_short)),
                                (
                                    "incident_requested".to_string(),
                                    JsonValue::Bool(a.incident_requested),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "total_fired".to_string(),
                JsonValue::U64(inner.log.total_fired()),
            ),
            (
                "total_resolved".to_string(),
                JsonValue::U64(inner.log.total_resolved()),
            ),
        ])
    }

    fn firing_slos(&self) -> Vec<String> {
        self.firing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefall_obsd::WatchSource;

    fn storm_config() -> WatchConfig {
        let mut config = WatchConfig {
            store: StoreConfig {
                resolution_s: 1.0,
                retention_s: 300.0,
                max_series: 64,
            },
            ..WatchConfig::default()
        };
        config.slos.push(
            SloSpec::new(
                "fa_rate",
                SloObjective::CounterRateCeiling {
                    counter: "detector.false_activations".into(),
                    per_seconds: 3600.0,
                    max: 30.0,
                },
            )
            .windows(60.0, 15.0)
            .burn(2.0, 1.0)
            .hold(30.0, 10.0)
            .quality(),
        );
        config
    }

    struct FakeCapture {
        calls: Mutex<Vec<String>>,
    }

    impl IncidentCapture for FakeCapture {
        fn capture_incident(&self, reason: &str) -> Option<String> {
            self.calls.lock().unwrap().push(reason.to_string());
            Some(format!("inc-{reason}"))
        }
    }

    #[test]
    fn storm_fires_captures_incident_and_resolves() {
        let registry = Arc::new(Registry::new());
        let watch = Watch::new(Arc::clone(&registry), storm_config());
        let capture = Arc::new(FakeCapture {
            calls: Mutex::new(Vec::new()),
        });
        watch.set_incident_capture(Arc::clone(&capture) as Arc<dyn IncidentCapture>);
        for t in 0..=200u64 {
            if (40..80).contains(&t) {
                registry.counter_add("detector.false_activations", 1);
            }
            watch.tick_at(t as f64);
        }
        let (fired, resolved) = watch.alert_totals();
        assert_eq!(fired, 1);
        assert_eq!(resolved, 1);
        assert!(watch.firing().is_empty());
        assert_eq!(capture.calls.lock().unwrap().as_slice(), &["fa_rate"]);
        // The transitions surfaced as telemetry events and counters.
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("watch.alerts_fired"), Some(&1));
        assert_eq!(snap.counters.get("watch.alerts_resolved"), Some(&1));
        assert!(snap.counters.get("watch.ticks").copied().unwrap_or(0) >= 200);
        let events = registry.take_events();
        assert!(events.iter().any(|(n, _)| n == "watch.alert.fired"));
        assert!(events.iter().any(|(n, _)| n == "watch.alert.resolved"));
    }

    #[test]
    fn watch_source_serves_tsdb_slo_and_alert_documents() {
        let registry = Arc::new(Registry::new());
        let watch = Watch::new(Arc::clone(&registry), storm_config());
        for t in 0..10u64 {
            registry.counter_add("detector.windows", 7);
            watch.tick_at(t as f64);
        }
        let doc = watch
            .tsdb_json("detector.windows", Some(5.0))
            .expect("series");
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("counter"));
        // 7/s counter: windowed rate is exactly 7.
        let rate = doc.get("rate_per_s").and_then(|v| v.as_f64()).unwrap();
        assert!((rate - 7.0).abs() < 1e-9, "rate {rate}");
        assert!(watch.tsdb_json("unknown.metric", None).is_none());

        let catalogue = watch.series_json();
        let names = catalogue.get("series").expect("series list").to_string();
        assert!(names.contains("detector.windows"), "{names}");
        assert!(
            names.contains("watch.series"),
            "watch self-metrics sampled: {names}"
        );

        let slos = watch.slo_json().to_string();
        assert!(slos.contains("\"name\":\"fa_rate\""), "{slos}");
        assert!(slos.contains("\"firing\":false"), "{slos}");
        let alerts = watch.alerts_json();
        assert_eq!(alerts.get("total_fired").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn daemon_ticks_on_wall_clock() {
        let registry = Arc::new(Registry::new());
        let config = WatchConfig {
            store: StoreConfig {
                resolution_s: 0.01,
                retention_s: 10.0,
                max_series: 32,
            },
            ..WatchConfig::default()
        };
        let watch = Arc::new(Watch::new(Arc::clone(&registry), config));
        let daemon = watch.spawn();
        let deadline = Instant::now() + Duration::from_secs(5);
        while watch.ticks() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        daemon.shutdown();
        assert!(watch.ticks() >= 3, "daemon must tick");
    }

    #[test]
    fn daemon_shutdown_does_not_wait_out_the_period() {
        let registry = Arc::new(Registry::new());
        let config = WatchConfig {
            store: StoreConfig {
                resolution_s: 10.0,
                retention_s: 100.0,
                max_series: 32,
            },
            ..WatchConfig::default()
        };
        let watch = Arc::new(Watch::new(registry, config));
        let daemon = watch.spawn();
        let start = Instant::now();
        daemon.shutdown();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "shutdown took {:?}",
            start.elapsed()
        );
    }
}
