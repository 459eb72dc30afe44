//! Bench-snapshot regression diffing: the library behind the
//! `benchdiff` binary.
//!
//! Two `BENCH_telemetry.json` snapshots (a committed baseline and a
//! fresh candidate) are compared **by summary statistics** — p50, p95,
//! p99, mean — never by bucket layout, so a baseline recorded with the
//! coarse default buckets stays comparable after the histogram
//! resolution changes. No wall-clock latency or throughput rule
//! applies: baselines travel between machines, so speed is gated by
//! the repo benchmark, which runs parent and change on one host. The
//! rules that remain:
//!
//! * **lead time** (`detector.lead_time_ms`): simulation-domain, so a
//!   tight shrink threshold applies — higher is better here.
//! * **budget fraction** (`falls_lead_ge_budget / triggered_falls` from
//!   the snapshot's top-level fields): an absolute drop beyond the
//!   configured slack fails.
//! * **arming overhead** (gauges/fields whose name contains
//!   `speedup`, the disarmed ÷ armed ratios): shrink past the relative
//!   threshold fails.
//! * **clean-leg drift** (gauges/fields named `drift.clean_*_psi`):
//!   PSI of a healthy replay against the committed reference
//!   fingerprint. Growth past an *absolute* allowance fails — PSI is
//!   already a normalized divergence, so a relative gate on a
//!   near-zero baseline would be meaningless noise.

use prefall_telemetry::JsonValue;
use std::collections::BTreeMap;

/// Summary statistics of one histogram, as serialised by
/// [`crate::telemetry_out::dump`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStats {
    /// Observation count.
    pub count: f64,
    /// Sum of observations.
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (P² estimate).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// One parsed bench snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Which binary produced it (`"edge_perf"`, …).
    pub bench: String,
    /// Top-level scalar fields (`falls`, `triggered_falls`, …).
    pub fields: BTreeMap<String, f64>,
    /// Counter section.
    pub counters: BTreeMap<String, f64>,
    /// Gauge section.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistStats>,
}

fn num(obj: &JsonValue, key: &str) -> Option<f64> {
    obj.get(key).and_then(JsonValue::as_f64)
}

impl BenchSnapshot {
    /// Parses a `BENCH_telemetry.json` document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text.trim())?;
        let bench = match doc.get("bench") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err("missing \"bench\" field".to_string()),
        };
        let mut snap = Self {
            bench,
            fields: BTreeMap::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        let JsonValue::Obj(top) = &doc else {
            return Err("top level is not an object".to_string());
        };
        for (key, value) in top {
            match key.as_str() {
                "bench" => {}
                "counters" | "gauges" => {
                    let JsonValue::Obj(entries) = value else {
                        return Err(format!("\"{key}\" is not an object"));
                    };
                    let section = if key == "counters" {
                        &mut snap.counters
                    } else {
                        &mut snap.gauges
                    };
                    for (name, v) in entries {
                        if let Some(x) = v.as_f64() {
                            section.insert(name.clone(), x);
                        }
                    }
                }
                "histograms" => {
                    let JsonValue::Obj(entries) = value else {
                        return Err("\"histograms\" is not an object".to_string());
                    };
                    for (name, h) in entries {
                        let stats = HistStats {
                            count: num(h, "count").unwrap_or(0.0),
                            sum: num(h, "sum").unwrap_or(f64::NAN),
                            mean: num(h, "mean").unwrap_or(f64::NAN),
                            p50: num(h, "p50").unwrap_or(f64::NAN),
                            p95: num(h, "p95").unwrap_or(f64::NAN),
                            p99: num(h, "p99").unwrap_or(f64::NAN),
                        };
                        snap.histograms.insert(name.clone(), stats);
                    }
                }
                _ => {
                    if let Some(x) = value.as_f64() {
                        snap.fields.insert(key.clone(), x);
                    }
                }
            }
        }
        Ok(snap)
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// IO failures and parse failures, with the path in the message.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The lead-time-budget fraction encoded in the top-level fields,
    /// if the snapshot carries one.
    pub fn budget_fraction(&self) -> Option<f64> {
        let within = *self.fields.get("falls_lead_ge_budget")?;
        let triggered = *self.fields.get("triggered_falls")?;
        (triggered > 0.0).then(|| within / triggered)
    }
}

/// Regression thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Relative shrink (in %) a lead-time quantile may show.
    pub lead_pct: f64,
    /// Absolute shrink floor for lead time, in ms.
    pub lead_floor_ms: f64,
    /// Absolute drop the lead-time-budget fraction may show.
    pub budget_drop: f64,
    /// Relative shrink (in %) a speedup gauge or field (any metric
    /// whose name contains `speedup`) may show — higher is better, so
    /// only shrink gates.
    pub speedup_pct: f64,
    /// Absolute PSI growth a clean-leg drift gauge or field (any
    /// metric named `drift.clean_*_psi`) may show. Absolute, not
    /// relative: the clean baseline sits near zero by construction, so
    /// percentage change is meaningless — what matters is how much
    /// divergence a healthy replay accumulated against the committed
    /// reference. 0.05 is a quarter of the conventional 0.2 "moderate
    /// shift" reading.
    pub drift_abs: f64,
    /// Minimum observation count (on both sides) before a histogram can
    /// gate at all. A quantile of a handful of observations swings far
    /// from run to run; such histograms are reported but never fail.
    pub min_count: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            lead_pct: 10.0,
            lead_floor_ms: 5.0,
            budget_drop: 0.05,
            speedup_pct: 25.0,
            drift_abs: 0.05,
            min_count: 20.0,
        }
    }
}

/// One compared statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name (`detector.lead_time_ms`, …).
    pub metric: String,
    /// Statistic compared (`p95`, `mean`, `budget_fraction`, …).
    pub stat: &'static str,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
    /// Whether this delta trips the regression gate.
    pub regression: bool,
}

impl Delta {
    /// Relative change in percent (NaN when the baseline is zero or
    /// either side is non-finite).
    pub fn pct_change(&self) -> f64 {
        if self.base == 0.0 || !self.base.is_finite() || !self.cand.is_finite() {
            f64::NAN
        } else {
            (self.cand - self.base) / self.base * 100.0
        }
    }
}

/// A full comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Every compared statistic, regression or not.
    pub deltas: Vec<Delta>,
    /// Metrics present on only one side (informational).
    pub unmatched: Vec<String>,
}

impl DiffReport {
    /// The deltas that tripped the gate.
    pub fn regressions(&self) -> impl Iterator<Item = &Delta> {
        self.deltas.iter().filter(|d| d.regression)
    }

    /// True when any statistic regressed.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Human-readable table: one line per compared statistic, with
    /// regressions marked `FAIL`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34} {:<16} {:>12} {:>12} {:>9}  status\n",
            "metric", "stat", "baseline", "candidate", "change"
        ));
        for d in &self.deltas {
            let pct = d.pct_change();
            let change = if pct.is_nan() {
                "-".to_string()
            } else {
                format!("{pct:+.1}%")
            };
            out.push_str(&format!(
                "{:<34} {:<16} {:>12.6} {:>12.6} {:>9}  {}\n",
                d.metric,
                d.stat,
                d.base,
                d.cand,
                change,
                if d.regression { "FAIL" } else { "ok" }
            ));
        }
        for name in &self.unmatched {
            out.push_str(&format!("{name:<34} (present on one side only)\n"));
        }
        out
    }
}

fn is_lead_time(name: &str) -> bool {
    name.ends_with("lead_time_ms")
}

fn is_speedup(name: &str) -> bool {
    name.contains("speedup")
}

fn is_clean_drift(name: &str) -> bool {
    name.starts_with("drift.clean_") && name.ends_with("_psi")
}

fn drift_regressed(base: f64, cand: f64, t: &Thresholds) -> bool {
    base.is_finite() && cand.is_finite() && cand - base > t.drift_abs
}

fn speedup_regressed(base: f64, cand: f64, t: &Thresholds) -> bool {
    base.is_finite() && cand.is_finite() && cand < base * (1.0 - t.speedup_pct / 100.0)
}

fn lead_regressed(base: f64, cand: f64, t: &Thresholds) -> bool {
    base.is_finite()
        && cand.is_finite()
        && base - cand > t.lead_floor_ms
        && cand < base * (1.0 - t.lead_pct / 100.0)
}

/// Compares two snapshots under the given thresholds.
///
/// The lead-time histogram gates on quantile and mean shrink; the
/// budget fraction gates on an absolute drop; speedup gauges on
/// relative shrink; clean-leg drift on absolute growth. Histograms
/// under `min_count` observations on either side, and everything else,
/// are reported but never fail.
pub fn diff(base: &BenchSnapshot, cand: &BenchSnapshot, t: &Thresholds) -> DiffReport {
    let mut report = DiffReport::default();

    for (name, b) in &base.histograms {
        let Some(c) = cand.histograms.get(name) else {
            report.unmatched.push(name.clone());
            continue;
        };
        let gateable = b.count >= t.min_count && c.count >= t.min_count;
        let stats: [(&'static str, f64, f64); 4] = [
            ("p50", b.p50, c.p50),
            ("p95", b.p95, c.p95),
            ("p99", b.p99, c.p99),
            ("mean", b.mean, c.mean),
        ];
        for (stat, bv, cv) in stats {
            let regression = gateable && is_lead_time(name) && lead_regressed(bv, cv, t);
            report.deltas.push(Delta {
                metric: name.clone(),
                stat,
                base: bv,
                cand: cv,
                regression,
            });
        }
        report.deltas.push(Delta {
            metric: name.clone(),
            stat: "count",
            base: b.count,
            cand: c.count,
            regression: false,
        });
    }
    for name in cand.histograms.keys() {
        if !base.histograms.contains_key(name) {
            report.unmatched.push(name.clone());
        }
    }

    // Speedup gauges/fields: higher is better; only shrink past the
    // threshold gates. Clean-leg drift PSI: lower is better; only
    // absolute growth gates.
    for (section_base, section_cand) in [(&base.gauges, &cand.gauges), (&base.fields, &cand.fields)]
    {
        for (name, bv) in section_base {
            let rule: fn(f64, f64, &Thresholds) -> bool = if is_speedup(name) {
                speedup_regressed
            } else if is_clean_drift(name) {
                drift_regressed
            } else {
                continue;
            };
            let Some(cv) = section_cand.get(name) else {
                report.unmatched.push(name.clone());
                continue;
            };
            report.deltas.push(Delta {
                metric: name.clone(),
                stat: "value",
                base: *bv,
                cand: *cv,
                regression: rule(*bv, *cv, t),
            });
        }
    }

    if let (Some(bf), Some(cf)) = (base.budget_fraction(), cand.budget_fraction()) {
        report.deltas.push(Delta {
            metric: "lead_time_budget".to_string(),
            stat: "budget_fraction",
            base: bf,
            cand: cf,
            regression: bf - cf > t.budget_drop,
        });
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"bench":"edge_perf","budget_ms":150.0,"falls":100,
        "triggered_falls":98,"falls_lead_ge_budget":90,
        "counters":{"detector.windows":5000},
        "gauges":{"edge.inference_ms":4.2},
        "histograms":{
          "detector.infer_seconds":{"count":5000,"sum":0.3,"min":1e-5,
            "max":2e-3,"mean":6e-5,"p50":5.6e-5,"p95":7.3e-5,"p99":8.8e-5,
            "bounds":[1e-4],"counts":[5000,0]},
          "detector.lead_time_ms":{"count":98,"sum":40000.0,"min":50.0,
            "max":900.0,"mean":420.0,"p50":360.0,"p95":800.0,"p99":880.0,
            "bounds":[500.0],"counts":[60,38]}}}"#;

    fn tweaked(f: impl Fn(&mut BenchSnapshot)) -> BenchSnapshot {
        let mut s = BenchSnapshot::parse(BASE).unwrap();
        f(&mut s);
        s
    }

    #[test]
    fn parse_extracts_all_sections() {
        let s = BenchSnapshot::parse(BASE).unwrap();
        assert_eq!(s.bench, "edge_perf");
        assert_eq!(s.fields["falls"], 100.0);
        assert_eq!(s.counters["detector.windows"], 5000.0);
        assert_eq!(s.gauges["edge.inference_ms"], 4.2);
        assert_eq!(s.histograms["detector.infer_seconds"].p95, 7.3e-5);
        let frac = s.budget_fraction().unwrap();
        assert!((frac - 90.0 / 98.0).abs() < 1e-12);
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = BenchSnapshot::parse(BASE).unwrap();
        let report = diff(&s, &s, &Thresholds::default());
        assert!(!report.has_regressions(), "{}", report.render());
        assert!(!report.deltas.is_empty());
    }

    #[test]
    fn lead_time_shrink_fails() {
        let base = BenchSnapshot::parse(BASE).unwrap();
        let worse = tweaked(|s| {
            let h = s.histograms.get_mut("detector.lead_time_ms").unwrap();
            h.p50 = 250.0; // −30 %: well past the 10 % gate
        });
        let report = diff(&base, &worse, &Thresholds::default());
        assert!(report.has_regressions());
        assert!(report
            .regressions()
            .any(|d| d.metric == "detector.lead_time_ms" && d.stat == "p50"));
        // Lead time *growing* is an improvement, never a failure.
        let better = tweaked(|s| {
            s.histograms.get_mut("detector.lead_time_ms").unwrap().p50 = 500.0;
        });
        assert!(!diff(&base, &better, &Thresholds::default()).has_regressions());
    }

    #[test]
    fn budget_fraction_drop_fails() {
        let base = BenchSnapshot::parse(BASE).unwrap();
        let worse = tweaked(|s| {
            s.fields.insert("falls_lead_ge_budget".to_string(), 70.0);
        });
        let report = diff(&base, &worse, &Thresholds::default());
        assert!(
            report.regressions().any(|d| d.stat == "budget_fraction"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn different_bucket_layouts_still_compare() {
        // The candidate was recorded with different bounds: summary
        // stats are all that matter, so the same stats pass and a
        // shrunk median still fails.
        let rebucketed = BASE.replace(
            r#""bounds":[500.0],"counts":[60,38]"#,
            r#""bounds":[100.0,250.0,500.0,1000.0],"counts":[5,20,35,38,0]"#,
        );
        assert_ne!(rebucketed, BASE);
        let base = BenchSnapshot::parse(BASE).unwrap();
        let cand = BenchSnapshot::parse(&rebucketed).unwrap();
        assert!(!diff(&base, &cand, &Thresholds::default()).has_regressions());
        let shrunk =
            BenchSnapshot::parse(&rebucketed.replace(r#""p50":360.0"#, r#""p50":250.0"#)).unwrap();
        assert!(diff(&base, &shrunk, &Thresholds::default()).has_regressions());
    }

    #[test]
    fn low_count_histograms_never_gate() {
        // 3 observations: a −50 % median swing is noise, not a
        // regression.
        let shrunk = |count: f64| {
            tweaked(move |s| {
                let h = s.histograms.get_mut("detector.lead_time_ms").unwrap();
                h.count = count;
                h.p50 *= 0.5;
                h.mean *= 0.5;
            })
        };
        let low_base = tweaked(|s| {
            s.histograms.get_mut("detector.lead_time_ms").unwrap().count = 3.0;
        });
        assert!(!diff(&low_base, &shrunk(3.0), &Thresholds::default()).has_regressions());
        // The same swing at full count still fails.
        let full_base = BenchSnapshot::parse(BASE).unwrap();
        assert!(diff(&full_base, &shrunk(98.0), &Thresholds::default()).has_regressions());
    }

    #[test]
    fn speedup_shrink_fails_but_growth_and_noise_pass() {
        let t = Thresholds::default();
        let with_speedup = |v: f64| {
            tweaked(move |s| {
                s.gauges.insert("trace.arming_speedup".to_string(), v);
            })
        };
        let base = with_speedup(3.0);

        // Collapse to 1.0× (−67 %): well past the 25 % gate.
        let collapsed = with_speedup(1.0);
        let report = diff(&base, &collapsed, &t);
        assert!(
            report
                .regressions()
                .any(|d| d.metric == "trace.arming_speedup" && d.stat == "value"),
            "{}",
            report.render()
        );

        // −10 % is machine noise; growth is an improvement.
        assert!(!diff(&base, &with_speedup(2.7), &t).has_regressions());
        assert!(!diff(&base, &with_speedup(4.0), &t).has_regressions());

        // Speedup encoded as a top-level field gates identically.
        let fbase = tweaked(|s| {
            s.fields.insert("wall_speedup".to_string(), 2.5);
        });
        let fworse = tweaked(|s| {
            s.fields.insert("wall_speedup".to_string(), 1.0);
        });
        assert!(diff(&fbase, &fworse, &t).has_regressions());
    }

    #[test]
    fn clean_drift_growth_fails_absolutely_shrink_and_noise_pass() {
        let t = Thresholds::default();
        let with_psi = |v: f64| {
            tweaked(move |s| {
                s.gauges.insert("drift.clean_input_psi".to_string(), v);
            })
        };
        // A healthy clean leg sits near zero.
        let base = with_psi(0.004);

        // +0.2 PSI: a healthy replay now diverges from the reference —
        // the sketches, the pipeline, or the generator changed.
        let report = diff(&base, &with_psi(0.204), &t);
        assert!(
            report
                .regressions()
                .any(|d| d.metric == "drift.clean_input_psi" && d.stat == "value"),
            "{}",
            report.render()
        );

        // +0.03 is inside the absolute allowance even though it is a
        // +750 % relative change; shrink is an improvement.
        assert!(!diff(&base, &with_psi(0.034), &t).has_regressions());
        assert!(!diff(&base, &with_psi(0.0), &t).has_regressions());

        // Non-clean drift gauges (the live monitor's own output during
        // the storm legs) never gate.
        let storm = |v: f64| {
            tweaked(move |s| {
                s.gauges.insert("drift.input_psi".to_string(), v);
            })
        };
        assert!(!diff(&storm(0.1), &storm(6.0), &t).has_regressions());

        // Clean drift as a top-level field gates identically.
        let fbase = tweaked(|s| {
            s.fields.insert("drift.clean_score_psi".to_string(), 0.01);
        });
        let fworse = tweaked(|s| {
            s.fields.insert("drift.clean_score_psi".to_string(), 0.30);
        });
        assert!(diff(&fbase, &fworse, &t).has_regressions());
    }

    #[test]
    fn missing_histograms_are_reported_not_failed() {
        let base = BenchSnapshot::parse(BASE).unwrap();
        let cand = tweaked(|s| {
            s.histograms.remove("detector.lead_time_ms");
        });
        let report = diff(&base, &cand, &Thresholds::default());
        assert!(!report.has_regressions());
        assert!(report
            .unmatched
            .contains(&"detector.lead_time_ms".to_string()));
    }

    #[test]
    fn render_marks_failures() {
        let base = BenchSnapshot::parse(BASE).unwrap();
        let worse = tweaked(|s| {
            s.histograms.get_mut("detector.lead_time_ms").unwrap().p50 = 250.0;
        });
        let text = diff(&base, &worse, &Thresholds::default()).render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("detector.lead_time_ms"));
    }
}
