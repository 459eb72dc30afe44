//! Declarative SLOs evaluated as multi-window burn rates over the
//! [`TsStore`].
//!
//! Each SLO names an objective (a ceiling or floor over a derived
//! signal) and two windows. The **burn rate** is how many times over
//! budget the signal currently is (1.0 = exactly at the objective).
//! An SLO fires only when *both* the long and the short window burn at
//! or above the threshold — the long window proves the breach is
//! sustained, the short window proves it is still happening — and
//! resolves only after a refractory hold plus a continuous healthy
//! dwell on the short window. That combination is what keeps a noisy
//! signal from flapping the alert.

use crate::store::TsStore;

/// What an SLO measures, evaluated over a window `[now - w, now]`.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// Rate of a counter must stay at or below `max` events per
    /// `per_seconds` (e.g. false activations per hour).
    CounterRateCeiling {
        counter: String,
        per_seconds: f64,
        max: f64,
    },
    /// `num / den` (both counter increases over the window) must stay
    /// at or below `max`. Windows where `den` grew by less than
    /// `min_den` yield no data.
    RatioCeiling {
        num: String,
        den: String,
        max: f64,
        min_den: f64,
    },
    /// `num / den` must stay at or above `min` (e.g. detection rate).
    RatioFloor {
        num: String,
        den: String,
        min: f64,
        min_den: f64,
    },
    /// A windowed histogram quantile must stay at or below `max`.
    /// Windows with fewer than `min_count` observations yield no data.
    QuantileCeiling {
        histogram: String,
        q: f64,
        max: f64,
        min_count: f64,
    },
    /// A windowed histogram quantile must stay at or above `min`
    /// (e.g. p10 lead time).
    QuantileFloor {
        histogram: String,
        q: f64,
        min: f64,
        min_count: f64,
    },
    /// The windowed mean of a gauge must stay at or below `max`
    /// (e.g. the `drift.input_psi` score published by the drift
    /// monitor). Windows with no sampled points yield no data.
    GaugeCeiling { gauge: String, max: f64 },
}

impl SloObjective {
    /// The measured signal over `[now - window_s, now]`, or `None`
    /// when the store has no data for it.
    pub fn measure(&self, store: &TsStore, now: f64, window_s: f64) -> Option<f64> {
        match self {
            SloObjective::CounterRateCeiling {
                counter,
                per_seconds,
                ..
            } => store
                .rate_per_s(counter, now, window_s)
                .map(|r| r * per_seconds),
            SloObjective::RatioCeiling {
                num, den, min_den, ..
            }
            | SloObjective::RatioFloor {
                num, den, min_den, ..
            } => {
                let d = store.increase(den, now, window_s)?;
                if d < *min_den {
                    return None;
                }
                let n = store.increase(num, now, window_s)?;
                Some(n / d)
            }
            SloObjective::QuantileCeiling {
                histogram,
                q,
                min_count,
                ..
            }
            | SloObjective::QuantileFloor {
                histogram,
                q,
                min_count,
                ..
            } => {
                let n = store.window_count(histogram, now, window_s)?;
                if n < *min_count {
                    return None;
                }
                store.quantile(histogram, *q, now, window_s)
            }
            SloObjective::GaugeCeiling { gauge, .. } => store.gauge_mean(gauge, now, window_s),
        }
    }

    /// Burn rate of a measurement: multiples of the allowed budget
    /// consumed (ceilings: value / max; floors: min / value). 1.0 is
    /// exactly on budget, above 1.0 is out of budget.
    pub fn burn(&self, value: f64) -> f64 {
        match self {
            SloObjective::CounterRateCeiling { max, .. }
            | SloObjective::RatioCeiling { max, .. }
            | SloObjective::QuantileCeiling { max, .. }
            | SloObjective::GaugeCeiling { max, .. } => {
                if *max <= 0.0 {
                    if value > 0.0 {
                        f64::INFINITY
                    } else {
                        0.0
                    }
                } else {
                    value / max
                }
            }
            SloObjective::RatioFloor { min, .. } | SloObjective::QuantileFloor { min, .. } => {
                if value <= 0.0 {
                    f64::INFINITY
                } else {
                    min / value
                }
            }
        }
    }

    /// The budget boundary, for display.
    pub fn target(&self) -> f64 {
        match self {
            SloObjective::CounterRateCeiling { max, .. }
            | SloObjective::RatioCeiling { max, .. }
            | SloObjective::QuantileCeiling { max, .. }
            | SloObjective::GaugeCeiling { max, .. } => *max,
            SloObjective::RatioFloor { min, .. } | SloObjective::QuantileFloor { min, .. } => *min,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            SloObjective::CounterRateCeiling { .. } => "counter_rate_ceiling",
            SloObjective::RatioCeiling { .. } => "ratio_ceiling",
            SloObjective::RatioFloor { .. } => "ratio_floor",
            SloObjective::QuantileCeiling { .. } => "quantile_ceiling",
            SloObjective::QuantileFloor { .. } => "quantile_floor",
            SloObjective::GaugeCeiling { .. } => "gauge_ceiling",
        }
    }
}

/// A full SLO declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable identifier (`fa_rate`, `lead_time`, ...).
    pub name: String,
    pub objective: SloObjective,
    /// Long evaluation window (seconds) — proves the breach is real.
    pub long_window_s: f64,
    /// Short evaluation window — proves it is still happening.
    pub short_window_s: f64,
    /// Fire when both windows burn at or above this (≥ 1.0).
    pub burn_threshold: f64,
    /// Resolve requires the short-window burn below this (< the fire
    /// threshold — the hysteresis gap).
    pub resolve_threshold: f64,
    /// Minimum seconds an alert stays firing once raised.
    pub refractory_s: f64,
    /// Continuous healthy seconds (short window under the resolve
    /// threshold) required before resolving.
    pub resolve_after_s: f64,
    /// Quality SLOs ask the blackbox for an incident dump when they
    /// fire; plumbing SLOs (latency et al.) only alert.
    pub quality: bool,
}

impl SloSpec {
    /// A spec with the repo's default alerting dynamics: fire at 2×
    /// burn on 300 s / 60 s windows, hold 120 s, resolve after 60 s
    /// continuously under 1× burn.
    pub fn new(name: &str, objective: SloObjective) -> Self {
        Self {
            name: name.to_string(),
            objective,
            long_window_s: 300.0,
            short_window_s: 60.0,
            burn_threshold: 2.0,
            resolve_threshold: 1.0,
            refractory_s: 120.0,
            resolve_after_s: 60.0,
            quality: false,
        }
    }

    pub fn windows(mut self, long_s: f64, short_s: f64) -> Self {
        self.long_window_s = long_s;
        self.short_window_s = short_s;
        self
    }

    pub fn burn(mut self, fire: f64, resolve: f64) -> Self {
        self.burn_threshold = fire;
        self.resolve_threshold = resolve;
        self
    }

    pub fn hold(mut self, refractory_s: f64, resolve_after_s: f64) -> Self {
        self.refractory_s = refractory_s;
        self.resolve_after_s = resolve_after_s;
        self
    }

    pub fn quality(mut self) -> Self {
        self.quality = true;
        self
    }
}

/// Live evaluation state of one SLO.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloState {
    pub firing: bool,
    /// When the alert was raised (evaluation clock).
    pub fired_at: Option<f64>,
    /// Start of the current continuous healthy stretch while firing.
    pub healthy_since: Option<f64>,
    pub last_value_long: Option<f64>,
    pub last_value_short: Option<f64>,
    pub last_burn_long: Option<f64>,
    pub last_burn_short: Option<f64>,
    /// Lifetime transitions to firing.
    pub times_fired: u64,
}

/// What one evaluation step decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloTransition {
    None,
    Fired,
    Resolved,
}

/// Advances `state` for `spec` against the store at time `now`.
pub fn evaluate(spec: &SloSpec, state: &mut SloState, store: &TsStore, now: f64) -> SloTransition {
    let long = spec.objective.measure(store, now, spec.long_window_s);
    let short = spec.objective.measure(store, now, spec.short_window_s);
    let burn_long = long.map(|v| spec.objective.burn(v));
    let burn_short = short.map(|v| spec.objective.burn(v));
    state.last_value_long = long;
    state.last_value_short = short;
    state.last_burn_long = burn_long;
    state.last_burn_short = burn_short;

    if !state.firing {
        // Missing data never fires an alert.
        let over = matches!(burn_long, Some(b) if b >= spec.burn_threshold)
            && matches!(burn_short, Some(b) if b >= spec.burn_threshold);
        if over {
            state.firing = true;
            state.fired_at = Some(now);
            state.healthy_since = None;
            state.times_fired += 1;
            return SloTransition::Fired;
        }
        return SloTransition::None;
    }

    // Firing: track the healthy dwell on the short window. Missing
    // data counts as healthy — an idle system should resolve.
    let healthy = match burn_short {
        Some(b) => b < spec.resolve_threshold,
        None => true,
    };
    if healthy {
        if state.healthy_since.is_none() {
            state.healthy_since = Some(now);
        }
    } else {
        state.healthy_since = None;
    }
    let past_refractory = state.fired_at.is_none_or(|t| now >= t + spec.refractory_s);
    let dwelled = state
        .healthy_since
        .is_some_and(|t| now - t >= spec.resolve_after_s);
    if past_refractory && dwelled {
        state.firing = false;
        state.fired_at = None;
        state.healthy_since = None;
        return SloTransition::Resolved;
    }
    SloTransition::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use prefall_telemetry::{Recorder, Registry};

    fn fa_spec() -> SloSpec {
        // ≤ 30 false activations / hour; fire at 2× burn on 60 s / 15 s
        // windows, hold 30 s, resolve after 10 s under 1×.
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
    }

    #[test]
    fn fires_on_sustained_breach_holds_through_refractory_then_resolves() {
        let reg = Registry::new();
        let mut store = TsStore::new(StoreConfig {
            resolution_s: 1.0,
            retention_s: 300.0,
            max_series: 16,
        });
        let spec = fa_spec();
        let mut state = SloState::default();
        let mut fired_at = None;
        let mut resolved_at = None;
        for t in 0..=200u64 {
            // Storm in [40, 80): one false activation per second
            // = 3600/h = 120× the 30/h budget.
            if (40..80).contains(&t) {
                reg.counter_add("detector.false_activations", 1);
            }
            store.sample(&reg, t as f64);
            match evaluate(&spec, &mut state, &store, t as f64) {
                SloTransition::Fired if fired_at.is_none() => fired_at = Some(t),
                SloTransition::Resolved if resolved_at.is_none() => resolved_at = Some(t),
                _ => {}
            }
        }
        let fired = fired_at.expect("storm must fire");
        // Needs the long window's burn ≥ 2× (≈ 1 s of storm already
        // does: 60/h over 60 s) and the short window's too.
        assert!((40..=60).contains(&fired), "fired at {fired}");
        let resolved = resolved_at.expect("must resolve after storm");
        // Can't resolve before refractory (fired+30) nor before the
        // short window drains (80 + 15) plus the 10 s dwell.
        assert!(resolved >= fired + 30, "resolved at {resolved}");
        assert!(resolved >= 90, "resolved at {resolved}");
        assert!(resolved <= 130, "resolved too late: {resolved}");
        assert!(!state.firing);
        assert_eq!(state.times_fired, 1);
    }

    #[test]
    fn short_blip_does_not_fire() {
        let reg = Registry::new();
        let mut store = TsStore::new(StoreConfig {
            resolution_s: 1.0,
            retention_s: 300.0,
            max_series: 16,
        });
        // Long window must also breach: a 2 s blip of 2 events inside a
        // 60 s long window is 120/h → burn 4× ... so use a tighter
        // check: a *single* event. 1 event / 60 s = 60/h = 2× exactly;
        // over the short 15 s window right after, 1/15 s = 240/h fires.
        // To exercise the long-window guard, widen the long window.
        let spec = fa_spec().windows(600.0, 15.0);
        let mut state = SloState::default();
        let mut any_fire = false;
        for t in 0..=300u64 {
            if t == 100 {
                reg.counter_add("detector.false_activations", 1);
            }
            store.sample(&reg, t as f64);
            if evaluate(&spec, &mut state, &store, t as f64) == SloTransition::Fired {
                any_fire = true;
            }
        }
        // 1 event over 300+ s ≈ 12/h < 2×30/h on the long window.
        assert!(!any_fire, "single blip must not fire");
    }

    #[test]
    fn missing_data_never_fires_and_resolves_idle_alerts() {
        let store = TsStore::new(StoreConfig::default());
        let spec = fa_spec();
        let mut state = SloState::default();
        assert_eq!(
            evaluate(&spec, &mut state, &store, 0.0),
            SloTransition::None
        );
        assert!(!state.firing);
        // A firing alert over a now-empty signal resolves after
        // refractory + dwell.
        state.firing = true;
        state.fired_at = Some(0.0);
        state.times_fired = 1;
        let mut resolved = false;
        for t in 1..=60u64 {
            if evaluate(&spec, &mut state, &store, t as f64) == SloTransition::Resolved {
                resolved = true;
            }
        }
        assert!(resolved, "idle alert must resolve");
    }

    #[test]
    fn gauge_ceiling_fires_on_sustained_drift_and_stays_quiet_without_data() {
        let reg = Registry::new();
        let mut store = TsStore::new(StoreConfig {
            resolution_s: 1.0,
            retention_s: 300.0,
            max_series: 16,
        });
        let spec = SloSpec::new(
            "input_drift",
            SloObjective::GaugeCeiling {
                gauge: "drift.input_psi".into(),
                max: 0.25,
            },
        )
        .windows(60.0, 15.0)
        .burn(1.0, 0.8)
        .hold(20.0, 10.0);
        let mut state = SloState::default();

        // No reference committed → the gauge never published → the SLO
        // must never fire on missing data.
        for t in 0..30u64 {
            store.sample(&reg, t as f64);
            assert_eq!(
                evaluate(&spec, &mut state, &store, t as f64),
                SloTransition::None
            );
        }

        // Healthy drift scores, then a sustained breach past 0.25.
        let mut fired_at = None;
        let mut resolved_at = None;
        for t in 30..=300u64 {
            let psi = if (100..180).contains(&t) { 0.6 } else { 0.02 };
            reg.gauge_set("drift.input_psi", psi);
            store.sample(&reg, t as f64);
            match evaluate(&spec, &mut state, &store, t as f64) {
                SloTransition::Fired if fired_at.is_none() => fired_at = Some(t),
                SloTransition::Resolved if resolved_at.is_none() => resolved_at = Some(t),
                _ => {}
            }
        }
        let fired = fired_at.expect("sustained drift must fire");
        // The 60 s long-window mean needs enough 0.6 points to cross
        // 0.25 — roughly 25 s into the breach.
        assert!((100..180).contains(&fired), "fired at {fired}");
        let resolved = resolved_at.expect("must resolve after drift subsides");
        assert!(resolved > 180, "resolved at {resolved}");
        assert_eq!(state.times_fired, 1);
        assert!(!state.firing);
    }

    #[test]
    fn ratio_floor_fires_when_detection_rate_collapses() {
        let reg = Registry::new();
        let mut store = TsStore::new(StoreConfig {
            resolution_s: 1.0,
            retention_s: 300.0,
            max_series: 16,
        });
        let spec = SloSpec::new(
            "detection_rate",
            SloObjective::RatioFloor {
                num: "quality.fall_detected".into(),
                den: "quality.fall_events".into(),
                min: 0.9,
                min_den: 5.0,
            },
        )
        .windows(60.0, 20.0)
        .burn(1.5, 1.0)
        .hold(20.0, 10.0);
        let mut state = SloState::default();
        let mut fired = false;
        for t in 0..=120u64 {
            // One fall event per second; detected until t=60, missed
            // after → detection rate decays toward 0.
            reg.counter_add("quality.fall_events", 1);
            if t < 60 {
                reg.counter_add("quality.fall_detected", 1);
            }
            store.sample(&reg, t as f64);
            if evaluate(&spec, &mut state, &store, t as f64) == SloTransition::Fired {
                fired = true;
            }
        }
        assert!(fired, "collapsed detection rate must fire the floor SLO");
    }
}
