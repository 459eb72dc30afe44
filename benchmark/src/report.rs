//! One run's outcome: the metrics of its trace mode, the oracle checks,
//! the load shape and phase durations — written as a result file and
//! summarised on the last line of standard output.

use crate::{spec, stats};
use prefall_telemetry::JsonValue;
use std::collections::BTreeMap;
use std::time::Duration;

/// Threads the process may run at once; the load generator stays
/// within it (threads and TCP connections).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn json_list(values: &[f64]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|&v| JsonValue::F64(v)).collect())
}

#[derive(Debug)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    /// Operations attempted (windows, requests or grid cells).
    pub attempted: u64,
    /// Operations that failed, were refused or never went out.
    pub failed: u64,
    threads: usize,
    connections: usize,
    values: BTreeMap<&'static str, f64>,
    checks: Vec<(String, bool, String)>,
    phases: Vec<(String, f64)>,
    info: Vec<(String, JsonValue)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool, seconds: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            trace,
            seconds,
            attempted: 0,
            failed: 0,
            threads: 1,
            connections: 0,
            values: BTreeMap::new(),
            checks: Vec::new(),
            phases: Vec::new(),
            info: Vec::new(),
        }
    }

    /// Records the load shape; the generator never exceeds nproc
    /// threads or connections.
    pub fn load_shape(&mut self, threads: usize, connections: usize) {
        assert!(
            threads <= nproc() && connections <= nproc(),
            "load generator exceeds nproc: {threads} threads, {connections} connections"
        );
        self.threads = threads;
        self.connections = connections;
    }

    /// Sets one metric of this run's trace mode.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::catalogue(self.trace).iter().any(|m| m.0 == name),
            "{name} is not a metric of this trace mode"
        );
        self.values.insert(name, value);
    }

    /// Sets `setup_s` to the median of the run's set-ups and keeps each
    /// one in the result file.
    pub fn setups(&mut self, seconds: &[f64]) {
        self.set("setup_s", stats::median(seconds));
        self.info("setups_s", json_list(seconds));
    }

    /// Records an output oracle; any failure makes the run incorrect.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn phase(&mut self, name: &str, took: Duration) {
        self.phases.push((name.to_string(), took.as_secs_f64()));
    }

    pub fn info(&mut self, key: &str, value: JsonValue) {
        self.info.push((key.to_string(), value));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
    }

    pub fn failed_checks(&self) -> impl Iterator<Item = &(String, bool, String)> {
        self.checks.iter().filter(|c| !c.1)
    }

    /// Every metric of the trace mode, in catalogue order. A per-layer
    /// metric the workload never set reads 0 (its layer is not on this
    /// workload's path); an end-to-end metric must always be measured.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        spec::catalogue(self.trace)
            .iter()
            .map(|&(name, unit, _)| {
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if self.trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "{name} measured as {value}");
                (name, value, unit)
            })
            .collect()
    }

    fn metrics_json(&self) -> JsonValue {
        JsonValue::Obj(
            self.metrics()
                .into_iter()
                .map(|(name, value, unit)| {
                    let doc = JsonValue::Obj(vec![
                        ("value".to_string(), JsonValue::F64(value)),
                        ("unit".to_string(), JsonValue::Str(unit.to_string())),
                    ]);
                    (name.to_string(), doc)
                })
                .collect(),
        )
    }

    /// The last line of standard output.
    pub fn summary_line(&self) -> String {
        JsonValue::Obj(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            (
                "attempted".to_string(),
                JsonValue::U64(self.attempted.max(1)),
            ),
            ("failed".to_string(), JsonValue::U64(self.failed)),
            ("metrics".to_string(), self.metrics_json()),
        ])
        .to_string()
    }

    /// The full result file.
    pub fn to_json(&self) -> JsonValue {
        let pairs = |v: &[(String, f64)]| {
            JsonValue::Obj(
                v.iter()
                    .map(|(k, s)| (k.clone(), JsonValue::F64(*s)))
                    .collect(),
            )
        };
        let checks = self
            .checks
            .iter()
            .map(|(name, passed, detail)| {
                JsonValue::Obj(vec![
                    ("name".to_string(), JsonValue::Str(name.clone())),
                    ("passed".to_string(), JsonValue::Bool(*passed)),
                    ("detail".to_string(), JsonValue::Str(detail.clone())),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            (
                "workload".to_string(),
                JsonValue::Str(self.workload.clone()),
            ),
            ("seed".to_string(), JsonValue::U64(self.seed)),
            ("trace".to_string(), JsonValue::U64(u64::from(self.trace))),
            ("seconds".to_string(), JsonValue::U64(self.seconds)),
            ("nproc".to_string(), JsonValue::U64(nproc() as u64)),
            ("threads".to_string(), JsonValue::U64(self.threads as u64)),
            (
                "connections".to_string(),
                JsonValue::U64(self.connections as u64),
            ),
            ("correct".to_string(), JsonValue::Bool(self.correct())),
            ("attempted".to_string(), JsonValue::U64(self.attempted)),
            ("failed".to_string(), JsonValue::U64(self.failed)),
            ("phases_s".to_string(), pairs(&self.phases)),
            ("checks".to_string(), JsonValue::Arr(checks)),
            ("info".to_string(), JsonValue::Obj(self.info.clone())),
            ("metrics".to_string(), self.metrics_json()),
        ])
    }

    /// `<workload>-s<seed>-t<trace>.json`, the layout `compare` reads.
    pub fn file_name(&self) -> String {
        format!(
            "{}-s{}-t{}.json",
            self.workload,
            self.seed,
            u8::from(self.trace)
        )
    }

    pub fn write(&self, dir: &str) -> Result<String, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/{}", self.file_name());
        std::fs::write(&path, self.to_json().to_string() + "\n")
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(path)
    }

    /// Human-readable lines: every metric with its unit, then the checks.
    pub fn print(&self) {
        println!(
            "{} seed={} trace={} threads={} connections={} nproc={}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.threads,
            self.connections,
            nproc()
        );
        for (name, secs) in &self.phases {
            println!("  phase {name:<24} {secs:10.3} s");
        }
        for (name, value, unit) in self.metrics() {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
        for (name, passed, detail) in &self.checks {
            let verdict = if *passed { "ok  " } else { "FAIL" };
            println!("  check {verdict} {name}: {detail}");
        }
        println!("  attempted {} failed {}", self.attempted, self.failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_carries_every_metric_of_the_mode() {
        let mut r = Report::new("grid", 1, true, 5);
        r.set("par.parallel_efficiency", 0.5);
        r.attempted = 6;
        r.check("cells", true, "identical");
        let line = JsonValue::parse(&r.summary_line()).expect("json");
        let metrics = line.get("metrics").expect("metrics");
        for (name, unit, _) in spec::PER_LAYER {
            let m = metrics.get(name).expect(name);
            assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(unit));
        }
        let eff = metrics
            .get("par.parallel_efficiency")
            .and_then(|m| m.get("value"));
        assert_eq!(eff.and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(JsonValue::as_u64), Some(6));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn an_unmeasured_end_to_end_metric_is_a_bug() {
        Report::new("grid", 1, false, 5).metrics();
    }

    #[test]
    #[should_panic(expected = "not a metric")]
    fn metrics_of_the_other_mode_are_refused() {
        Report::new("grid", 1, false, 5).set("par.tasks_stolen", 1.0);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::new("stream-float", 3, true, 5);
        r.check("a", true, "");
        r.check("b", false, "diverged");
        assert!(!r.correct());
        assert_eq!(r.failed_checks().count(), 1);
        assert_eq!(r.file_name(), "stream-float-s3-t1.json");
    }
}
