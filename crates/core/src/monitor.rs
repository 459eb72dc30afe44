//! Online model-quality monitoring: the Table IV event-level audit,
//! sigmoid-output calibration, and lead-time deciles — maintained *as
//! the detector runs* and published through a [`Recorder`] so the
//! `prefall-obsd` exporter can serve them live.
//!
//! *Watch Your Step* (Aderinola et al.) argues that streaming fall
//! detectors must be judged continuously on cost-sensitive event-level
//! signals, not one-shot segment metrics. This module is that judge:
//!
//! * **per-activity confusion counters** — every streamed trial bumps
//!   `quality.fall_events{task=NN}` / `quality.fall_detected{task=NN}` /
//!   `quality.fall_missed{task=NN}` (falls) or
//!   `quality.adl_events{task=NN}` /
//!   `quality.adl_false_activations{task=NN}` (ADLs, plus the red/green
//!   risk split of Table IVb), reproducing the Table IV audit online;
//! * **calibration/reliability bins** — predicted sigmoid outputs
//!   bucketed into equal-width confidence bins with empirical positive
//!   rates and an expected-calibration-error gauge;
//! * **lead-time decile gauges** — `quality.lead_time_decile_ms{q=10}`
//!   … `{q=90}` plus `quality.lead_budget_fraction`, the share of
//!   triggered falls whose lead time meets the 150 ms inflation budget.
//!
//! The inline-label convention (`base{key=value}`) is understood by the
//! Prometheus renderer in `prefall-obsd`; in the plain registry JSON the
//! labelled names are ordinary opaque keys.

use crate::detector::{lead_time_bounds_ms, GuardStatus, TrialOutcome};
use crate::events::EventReport;
use prefall_imu::activity::RiskGroup;
use prefall_imu::trial::Trial;
use prefall_imu::AIRBAG_INFLATION_MS;
use prefall_telemetry::{Histogram, Recorder};

/// Number of equal-width calibration bins over `[0, 1]`.
pub const CALIBRATION_BINS: usize = 10;

#[derive(Debug, Clone, Copy, Default)]
struct CalibrationBin {
    count: u64,
    positives: u64,
    confidence_sum: f64,
}

/// Aggregated event counts for one side of the Table IV audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct EventTally {
    events: u64,
    flagged: u64,
}

impl EventTally {
    fn rate(&self) -> f64 {
        if self.events == 0 {
            f64::NAN
        } else {
            self.flagged as f64 / self.events as f64
        }
    }
}

/// The online model-quality monitor.
///
/// Counters are emitted eagerly through the [`Recorder`] passed to the
/// `record_*` methods (so a live scrape sees them grow); derived gauges
/// (percentages, deciles, calibration) are written by
/// [`QualityMonitor::publish`], which is idempotent and cheap enough to
/// call after every trial.
#[derive(Debug)]
pub struct QualityMonitor {
    budget_ms: f64,
    bins: [CalibrationBin; CALIBRATION_BINS],
    lead: Histogram,
    lead_within_budget: u64,
    falls: EventTally,
    adls: EventTally,
    red: EventTally,
    green: EventTally,
    guard: GuardStatus,
}

impl Default for QualityMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl QualityMonitor {
    /// A monitor judging lead times against the paper's 150 ms budget.
    pub fn new() -> Self {
        Self::with_budget(AIRBAG_INFLATION_MS)
    }

    /// A monitor with a custom lead-time budget in ms.
    pub fn with_budget(budget_ms: f64) -> Self {
        Self {
            budget_ms,
            bins: [CalibrationBin::default(); CALIBRATION_BINS],
            lead: Histogram::with_bounds(lead_time_bounds_ms()),
            lead_within_budget: 0,
            falls: EventTally::default(),
            adls: EventTally::default(),
            red: EventTally::default(),
            green: EventTally::default(),
            guard: GuardStatus::default(),
        }
    }

    /// Tracks the detector's cumulative [`GuardStatus`] so the ingest
    /// fault rate and degraded-window rate publish next to the model
    /// quality. Pass the latest
    /// [`Session::guard_status`](crate::session::Session::guard_status)
    /// snapshot — counters there are cumulative, so the newest snapshot
    /// simply replaces the stored one.
    pub fn record_guard(&mut self, status: GuardStatus) {
        self.guard = status;
    }

    /// Faults per ingested sample over everything audited so far.
    pub fn fault_rate(&self) -> f64 {
        self.guard.fault_rate()
    }

    /// Fraction of classified windows that ran in a degraded mode.
    pub fn degraded_window_rate(&self) -> f64 {
        if self.guard.windows == 0 {
            0.0
        } else {
            self.guard.degraded_windows as f64 / self.guard.windows as f64
        }
    }

    /// The lead-time budget in ms.
    pub fn budget_ms(&self) -> f64 {
        self.budget_ms
    }

    /// Audits one streamed trial: per-activity confusion counters, the
    /// red/green risk split, lead-time tracking, and (when the trial
    /// produced a peak window probability) one calibration observation
    /// at event level.
    pub fn record_trial(&mut self, trial: &Trial, outcome: &TrialOutcome, rec: &dyn Recorder) {
        let task = trial.task.get();
        let activity = trial.activity();
        let triggered = outcome.triggered_at.is_some();

        if trial.is_fall() {
            self.falls.events += 1;
            // Unlabelled aggregates ride along so downstream consumers
            // (the watch layer's SLO ratios) never parse label syntax.
            rec.counter_add("quality.fall_events", 1);
            rec.counter_add(&format!("quality.fall_events{{task={task}}}"), 1);
            if triggered {
                self.falls.flagged += 1;
                rec.counter_add("quality.fall_detected", 1);
                rec.counter_add(&format!("quality.fall_detected{{task={task}}}"), 1);
            } else {
                rec.counter_add("quality.fall_missed", 1);
                rec.counter_add(&format!("quality.fall_missed{{task={task}}}"), 1);
            }
            if let Some(lead) = outcome.lead_time_ms {
                self.lead.observe(lead);
                if lead >= self.budget_ms {
                    self.lead_within_budget += 1;
                    rec.counter_add("quality.lead_within_budget", 1);
                } else {
                    rec.counter_add("quality.lead_below_budget", 1);
                }
            }
        } else {
            self.adls.events += 1;
            rec.counter_add("quality.adl_events", 1);
            rec.counter_add(&format!("quality.adl_events{{task={task}}}"), 1);
            let group = match activity.risk_group {
                Some(RiskGroup::Red) => {
                    self.red.events += 1;
                    "red"
                }
                Some(RiskGroup::Green) => {
                    self.green.events += 1;
                    "green"
                }
                None => "none",
            };
            if outcome.false_activation {
                self.adls.flagged += 1;
                rec.counter_add("quality.adl_false_activations", 1);
                rec.counter_add(&format!("quality.adl_false_activations{{task={task}}}"), 1);
                rec.counter_add(&format!("quality.adl_false_activations{{risk={group}}}"), 1);
                match activity.risk_group {
                    Some(RiskGroup::Red) => self.red.flagged += 1,
                    Some(RiskGroup::Green) => self.green.flagged += 1,
                    None => {}
                }
            }
        }

        if let Some(peak) = outcome.peak_prob {
            self.record_probability(peak, trial.is_fall());
        }
    }

    /// Folds a finished [`EventReport`] (the offline Table IV audit the
    /// experiment path produces per cell) into the same counters, task
    /// by task.
    pub fn record_event_report(&mut self, report: &EventReport, rec: &dyn Recorder) {
        for (task, stats) in &report.fall_tasks {
            self.falls.events += stats.events as u64;
            self.falls.flagged += stats.flagged as u64;
            rec.counter_add("quality.fall_events", stats.events as u64);
            rec.counter_add(
                &format!("quality.fall_events{{task={task}}}"),
                stats.events as u64,
            );
            rec.counter_add("quality.fall_detected", stats.flagged as u64);
            rec.counter_add(
                &format!("quality.fall_detected{{task={task}}}"),
                stats.flagged as u64,
            );
            rec.counter_add("quality.fall_missed", (stats.events - stats.flagged) as u64);
            rec.counter_add(
                &format!("quality.fall_missed{{task={task}}}"),
                (stats.events - stats.flagged) as u64,
            );
        }
        for (task, stats) in &report.adl_tasks {
            self.adls.events += stats.events as u64;
            self.adls.flagged += stats.flagged as u64;
            rec.counter_add("quality.adl_events", stats.events as u64);
            rec.counter_add(
                &format!("quality.adl_events{{task={task}}}"),
                stats.events as u64,
            );
            rec.counter_add("quality.adl_false_activations", stats.flagged as u64);
            rec.counter_add(
                &format!("quality.adl_false_activations{{task={task}}}"),
                stats.flagged as u64,
            );
            let tally = match prefall_imu::activity::Activity::from_task(*task)
                .ok()
                .and_then(|a| a.risk_group)
            {
                Some(RiskGroup::Red) => &mut self.red,
                Some(RiskGroup::Green) => &mut self.green,
                None => continue,
            };
            tally.events += stats.events as u64;
            tally.flagged += stats.flagged as u64;
        }
    }

    /// One calibration observation: a predicted sigmoid output and the
    /// ground truth it should have predicted.
    pub fn record_probability(&mut self, prob: f32, positive: bool) {
        let p = f64::from(prob).clamp(0.0, 1.0);
        let bin = ((p * CALIBRATION_BINS as f64) as usize).min(CALIBRATION_BINS - 1);
        self.bins[bin].count += 1;
        self.bins[bin].confidence_sum += p;
        if positive {
            self.bins[bin].positives += 1;
        }
    }

    /// Expected calibration error over the filled bins (NaN with no
    /// observations): `Σ (n_b / N) · |accuracy_b − confidence_b|`.
    pub fn expected_calibration_error(&self) -> f64 {
        let total: u64 = self.bins.iter().map(|b| b.count).sum();
        if total == 0 {
            return f64::NAN;
        }
        self.bins
            .iter()
            .filter(|b| b.count > 0)
            .map(|b| {
                let acc = b.positives as f64 / b.count as f64;
                let conf = b.confidence_sum / b.count as f64;
                (b.count as f64 / total as f64) * (acc - conf).abs()
            })
            .sum()
    }

    /// Fraction of recorded lead times that met the budget (NaN before
    /// the first triggered fall).
    pub fn lead_budget_fraction(&self) -> f64 {
        let n = self.lead.count();
        if n == 0 {
            f64::NAN
        } else {
            self.lead_within_budget as f64 / n as f64
        }
    }

    /// Event-level miss percentage over all audited fall events.
    pub fn fall_miss_pct(&self) -> f64 {
        (1.0 - self.falls.rate()) * 100.0
    }

    /// Event-level false-activation percentage over all audited ADLs.
    pub fn adl_fp_pct(&self) -> f64 {
        self.adls.rate() * 100.0
    }

    /// Writes every derived gauge. Idempotent: gauges are last-write-
    /// wins, so calling this after each trial keeps a live scrape fresh.
    pub fn publish(&self, rec: &dyn Recorder) {
        if !rec.enabled() {
            return;
        }
        for (i, b) in self.bins.iter().enumerate() {
            rec.gauge_set(
                &format!("quality.calibration_count{{bin={i}}}"),
                b.count as f64,
            );
            if b.count > 0 {
                rec.gauge_set(
                    &format!("quality.calibration_confidence{{bin={i}}}"),
                    b.confidence_sum / b.count as f64,
                );
                rec.gauge_set(
                    &format!("quality.calibration_positive_rate{{bin={i}}}"),
                    b.positives as f64 / b.count as f64,
                );
            }
        }
        rec.gauge_set(
            "quality.expected_calibration_error",
            self.expected_calibration_error(),
        );

        let lead = self.lead.snapshot();
        if lead.count > 0 {
            for q in (10..=90).step_by(10) {
                rec.gauge_set(
                    &format!("quality.lead_time_decile_ms{{q={q}}}"),
                    lead.quantile_from_buckets(q as f64 / 100.0),
                );
            }
        }
        rec.gauge_set("quality.lead_budget_fraction", self.lead_budget_fraction());
        rec.gauge_set("quality.lead_budget_ms", self.budget_ms);

        if self.falls.events > 0 {
            rec.gauge_set("quality.fall_miss_pct", self.fall_miss_pct());
        }
        if self.adls.events > 0 {
            rec.gauge_set("quality.adl_fp_pct", self.adl_fp_pct());
        }
        if self.red.events > 0 {
            rec.gauge_set("quality.adl_fp_pct{risk=red}", self.red.rate() * 100.0);
        }
        if self.green.events > 0 {
            rec.gauge_set("quality.adl_fp_pct{risk=green}", self.green.rate() * 100.0);
        }

        if self.guard.samples > 0 {
            rec.gauge_set("quality.fault_rate", self.fault_rate());
        }
        if self.guard.windows > 0 {
            rec.gauge_set("quality.degraded_window_rate", self.degraded_window_rate());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefall_telemetry::Registry;

    fn outcome(triggered: Option<usize>, lead: Option<f64>, false_act: bool) -> TrialOutcome {
        TrialOutcome {
            triggered_at: triggered,
            impact: None,
            lead_time_ms: lead,
            protected: None,
            false_activation: false_act,
            peak_prob: Some(if triggered.is_some() { 0.9 } else { 0.1 }),
        }
    }

    fn make_trial(task: u8) -> Trial {
        use prefall_imu::generator::render_script;
        use prefall_imu::rng::GenRng;
        use prefall_imu::script::script_for_task;
        use prefall_imu::subject::{DatasetSource, Subject, SubjectId};

        let mut rng = GenRng::seed_from_u64(11);
        let subject = Subject::sample(SubjectId(1), DatasetSource::SelfCollected, &mut rng);
        let a = prefall_imu::activity::Activity::from_task(task).unwrap();
        let script = script_for_task(a, subject.tempo_scale, &mut rng);
        let signals = render_script(&script, &subject, &mut rng);
        Trial::from_rendered(
            SubjectId(1),
            a.id,
            0,
            DatasetSource::SelfCollected,
            &signals,
        )
        .unwrap()
    }

    #[test]
    fn fall_audit_counts_per_task_and_aggregates() {
        let reg = Registry::new();
        let mut mon = QualityMonitor::new();
        let fall = make_trial(39); // task 39 is a fall
        assert!(fall.is_fall());
        mon.record_trial(&fall, &outcome(Some(100), Some(400.0), false), &reg);
        mon.record_trial(&fall, &outcome(None, None, false), &reg);
        mon.publish(&reg);

        let snap = reg.snapshot();
        assert_eq!(snap.counters["quality.fall_events{task=39}"], 2);
        assert_eq!(snap.counters["quality.fall_detected{task=39}"], 1);
        assert_eq!(snap.counters["quality.fall_missed{task=39}"], 1);
        assert_eq!(snap.counters["quality.lead_within_budget"], 1);
        assert!((snap.gauges["quality.fall_miss_pct"] - 50.0).abs() < 1e-9);
        assert!((snap.gauges["quality.lead_budget_fraction"] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn adl_audit_tracks_risk_groups() {
        let reg = Registry::new();
        let mut mon = QualityMonitor::new();
        let adl = make_trial(15); // jumping: red ADL
        assert!(!adl.is_fall());
        mon.record_trial(&adl, &outcome(Some(50), None, true), &reg);
        mon.record_trial(&adl, &outcome(None, None, false), &reg);
        mon.publish(&reg);

        let snap = reg.snapshot();
        assert_eq!(snap.counters["quality.adl_events{task=15}"], 2);
        assert_eq!(snap.counters["quality.adl_false_activations{task=15}"], 1);
        assert_eq!(snap.counters["quality.adl_false_activations{risk=red}"], 1);
        assert!((snap.gauges["quality.adl_fp_pct"] - 50.0).abs() < 1e-9);
        assert!((snap.gauges["quality.adl_fp_pct{risk=red}"] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_bins_and_ece() {
        let mut mon = QualityMonitor::new();
        // Perfectly calibrated at 0.95 and 0.05.
        for _ in 0..19 {
            mon.record_probability(0.95, true);
            mon.record_probability(0.05, false);
        }
        mon.record_probability(0.95, false);
        mon.record_probability(0.05, true);
        let ece = mon.expected_calibration_error();
        assert!(ece < 0.02, "well calibrated: {ece}");

        // Systematically overconfident predictions inflate the ECE.
        let mut bad = QualityMonitor::new();
        for _ in 0..10 {
            bad.record_probability(0.95, false);
        }
        assert!(bad.expected_calibration_error() > 0.8);
    }

    #[test]
    fn lead_deciles_are_monotone() {
        let reg = Registry::new();
        let mut mon = QualityMonitor::new();
        let fall = make_trial(20);
        for i in 0..20 {
            mon.record_trial(
                &fall,
                &outcome(Some(10), Some(100.0 + f64::from(i) * 40.0), false),
                &reg,
            );
        }
        mon.publish(&reg);
        let snap = reg.snapshot();
        let mut last = f64::NEG_INFINITY;
        for q in (10..=90).step_by(10) {
            let v = snap.gauges[&format!("quality.lead_time_decile_ms{{q={q}}}")];
            assert!(v >= last, "decile q={q} not monotone: {v} < {last}");
            last = v;
        }
        let frac = snap.gauges["quality.lead_budget_fraction"];
        assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn guard_status_publishes_fault_and_degradation_rates() {
        let reg = Registry::new();
        let mut mon = QualityMonitor::new();
        mon.publish(&reg);
        assert!(
            !reg.snapshot().gauges.contains_key("quality.fault_rate"),
            "no gauge before any ingest"
        );
        let status = GuardStatus {
            samples: 1000,
            nonfinite: 30,
            gaps_filled: 20,
            windows: 100,
            degraded_windows: 25,
            ..GuardStatus::default()
        };
        mon.record_guard(status);
        mon.publish(&reg);
        let snap = reg.snapshot();
        assert!((snap.gauges["quality.fault_rate"] - 0.05).abs() < 1e-12);
        assert!((snap.gauges["quality.degraded_window_rate"] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn publish_is_idempotent() {
        let reg = Registry::new();
        let mut mon = QualityMonitor::new();
        mon.record_probability(0.75, true);
        mon.publish(&reg);
        mon.publish(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["quality.calibration_count{bin=7}"], 1.0);
    }
}
