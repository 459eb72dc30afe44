//! The metric catalogue this binary emits, and the `BENCHMARK.json`
//! that publishes it with regression bounds.
//!
//! The tables below are the binary's side of the contract: a run with
//! tracing off reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], on every workload. A per-layer metric whose layer is
//! not on a workload's path reads 0 there (the dsp stages on `grid`,
//! the par scheduler on `stream-*`, ...). The tests check that
//! `BENCHMARK.json` lists the same names, units and directions.

use prefall_telemetry::JsonValue;
use std::collections::BTreeSet;

/// `true` when a smaller value is better.
pub type LowerIsBetter = bool;

/// The workloads, in `run --all` order.
pub const WORKLOADS: [&str; 5] = [
    "stream-float",
    "stream-int8",
    "fleet-steady",
    "fleet-churn",
    "grid",
];

/// Measured with tracing off.
pub const END_TO_END: [(&str, &str, LowerIsBetter); 5] = [
    ("setup_s", "s", true),
    ("latency_p50_ms", "ms", true),
    ("latency_p90_ms", "ms", true),
    ("throughput_per_s", "1/s", false),
    ("peak_rss_mb", "MB", true),
];

/// Measured in the traced pass.
pub const PER_LAYER: [(&str, &str, LowerIsBetter); 43] = [
    ("dsp.filter_ns_per_sample", "ns", true),
    ("dsp.fusion_ns_per_sample", "ns", true),
    ("dsp.normalize_ns_per_window", "ns", true),
    ("core.session_other_ns_per_sample", "ns", true),
    ("core.stage_coverage", "fraction", false),
    ("nn.infer_us", "us", true),
    ("nn.kernel.fused_conv_relu_pool_us", "us", true),
    ("nn.kernel.dense_us", "us", true),
    ("nn.kernel.relu_us", "us", true),
    ("nn.kernel.split_us", "us", true),
    ("nn.allocs_per_window", "count", true),
    ("nn.train_epoch_s", "s", true),
    ("par.parallel_efficiency", "fraction", false),
    ("par.idle_frac", "fraction", true),
    ("par.tasks_stolen", "count", false),
    ("par.tasks_coarsened", "count", false),
    ("par.maps_inline", "count", false),
    ("cache.hit_ratio", "fraction", false),
    ("pipeline.filter_s", "s", true),
    ("pipeline.segment_s", "s", true),
    ("experiment.cell_self_s", "s", true),
    ("cv.fold_self_s", "s", true),
    ("fleet.server_ingest_p50_us", "us", true),
    ("fleet.server_ingest_p90_us", "us", true),
    ("fleet.transport_us", "us", true),
    ("fleet.decode_us", "us", true),
    ("fleet.reply_encode_us", "us", true),
    ("fleet.queue_depth_hw", "count", true),
    ("fleet.max_rate_per_s", "1/s", false),
    ("fleet.connect_us", "us", true),
    ("fleet.first_batch_p50_ms", "ms", true),
    ("fleet.checkpoint_encode_us", "us", true),
    ("fleet.checkpoint_decode_us", "us", true),
    ("fleet.checkpoint_bytes", "B", true),
    ("fleet.sessions_created", "count", true),
    ("fleet.resumed", "count", false),
    ("fleet.reaped", "count", false),
    ("fleet.checkpoints_evicted", "count", true),
    ("drift.observe_ns_per_sample", "ns", true),
    ("generator.lag_p90_ms", "ms", true),
    ("client.encode_us", "us", true),
    ("trace.overhead_pct", "%", true),
    ("latency_p99_ms", "ms", true),
];

/// The catalogue for one trace mode.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str, LowerIsBetter)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One metric as `BENCHMARK.json` publishes it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
    pub run_seconds: u64,
}

impl Spec {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(text)?;
        let list = |key: &str| match doc.get(key) {
            Some(JsonValue::Arr(items)) => Ok(items.as_slice()),
            _ => Err(format!("`{key}` must be a list")),
        };
        let field = |item: &JsonValue, key: &str| {
            item.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry without a string `{key}`"))
        };
        let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let better = field(m, "better")?;
                    let lower_is_better = match better.as_str() {
                        "lower" => true,
                        "higher" => false,
                        other => return Err(format!("`better` must be lower/higher, not {other}")),
                    };
                    let bound = if bounded {
                        Some(
                            m.get("bound")
                                .and_then(JsonValue::as_f64)
                                .ok_or("end-to-end metric without a numeric `bound`")?,
                        )
                    } else {
                        None
                    };
                    Ok(MetricSpec {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        lower_is_better,
                        bound,
                    })
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .ok_or("`run_seconds` must be a whole number")?,
        })
    }

    /// The metrics a result of this trace mode must carry.
    pub fn metrics(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Checks names, counts and bounds against the published limits.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=8).contains(&self.workloads.len()) {
            return Err(format!("{} workloads, need 2 to 8", self.workloads.len()));
        }
        if !(1..=16).contains(&self.end_to_end.len()) {
            return Err(format!(
                "{} end-to-end metrics, need 1 to 16",
                self.end_to_end.len()
            ));
        }
        if !(1..=128).contains(&self.per_layer.len()) {
            return Err(format!(
                "{} per-layer metrics, need 1 to 128",
                self.per_layer.len()
            ));
        }
        if !(1..=60).contains(&self.run_seconds) {
            return Err(format!("run_seconds {} outside 1..=60", self.run_seconds));
        }
        let mut seen = BTreeSet::new();
        let names = self
            .workloads
            .iter()
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|m| &m.name));
        for name in names {
            if !valid_name(name) {
                return Err(format!("invalid name {name:?}"));
            }
            if !seen.insert(name.as_str()) {
                return Err(format!("name {name:?} used twice"));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            if !valid_unit(&m.unit) {
                return Err(format!("invalid unit {:?} on {}", m.unit, m.name));
            }
        }
        for m in &self.end_to_end {
            let bound = m.bound.unwrap_or(f64::NAN);
            if !(bound > 0.0 && bound <= 0.25) {
                return Err(format!("bound {bound} on {} outside (0, 0.25]", m.name));
            }
        }
        match self.end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && m.lower_is_better => Ok(()),
            _ => Err("end-to-end metrics need setup_s in s, lower is better".to_string()),
        }
    }
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PUBLISHED: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

    fn published() -> Spec {
        Spec::parse(PUBLISHED).expect("BENCHMARK.json parses")
    }

    #[test]
    fn published_spec_is_within_the_limits() {
        published().validate().expect("BENCHMARK.json is valid");
        assert!(PUBLISHED.len() <= 64 * 1024);
    }

    #[test]
    fn published_workloads_are_the_ones_this_binary_runs() {
        assert_eq!(published().workloads, WORKLOADS);
    }

    #[test]
    fn every_published_metric_is_one_the_binary_emits() {
        let spec = published();
        for trace in [false, true] {
            let emitted: Vec<(String, String, bool)> = catalogue(trace)
                .iter()
                .map(|&(n, u, l)| (n.to_string(), u.to_string(), l))
                .collect();
            let listed: Vec<(String, String, bool)> = spec
                .metrics(trace)
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone(), m.lower_is_better))
                .collect();
            assert_eq!(listed, emitted, "trace={trace}");
        }
    }

    #[test]
    fn names_follow_the_pattern() {
        assert!(valid_name("fleet.transport_us"));
        assert!(valid_name("stream-int8"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn validate_refuses_duplicates_counts_and_loose_bounds() {
        let good = published();
        let mut dup = good.clone();
        dup.per_layer.push(dup.end_to_end[0].clone());
        assert!(dup.validate().unwrap_err().contains("twice"));

        let mut few = good.clone();
        few.workloads.truncate(1);
        assert!(few.validate().is_err());

        let mut loose = good.clone();
        loose.end_to_end[1].bound = Some(0.3);
        assert!(loose.validate().unwrap_err().contains("bound"));

        let mut no_setup = good;
        no_setup.end_to_end.retain(|m| m.name != "setup_s");
        assert!(no_setup.validate().unwrap_err().contains("setup_s"));
    }
}
