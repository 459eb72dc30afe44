//! `benchmark compare <setA/> <setB/>`: per (metric, workload) row, the
//! median and quartiles of each set of result files and one verdict
//! against the bound and direction `BENCHMARK.json` publishes.

use crate::spec::Spec;
use crate::stats::quartiles;
use prefall_telemetry::JsonValue;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, or every B run beats every A run.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's quartile spread is wider than the bound: the runs
    /// cannot tell a regression of that size from noise.
    Unresolved,
}

/// Spread between quartiles as a share of the median.
fn spread(q: [f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE)
}

/// Quartiles of one set; a single run has no spread.
fn set_quartiles(values: &[f64]) -> [f64; 3] {
    quartiles(values).unwrap_or([values[0]; 3])
}

/// The verdict for one metric on one workload, A the baseline.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (qa, qb) = (set_quartiles(a), set_quartiles(b));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let b_always_better = b.iter().all(|&vb| a.iter().all(|&va| better(vb, va)));
    let worse = if lower_is_better {
        qb[1] - qa[1]
    } else {
        qa[1] - qb[1]
    } / qa[1].abs().max(f64::MIN_POSITIVE);
    if b_always_better {
        Verdict::Ok
    } else if spread(qa).max(spread(qb)) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// (workload, trace) → metric → values over the set's runs.
type Set = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

fn load_set(dir: &str) -> Result<Set, String> {
    let mut set = Set::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let shown = path.display();
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{shown}: {e}"))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{shown}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{shown}: no workload"))?;
        let trace = doc.get("trace").and_then(JsonValue::as_u64) == Some(1);
        let Some(JsonValue::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{shown}: no metrics"));
        };
        let row = set.entry((workload.to_string(), trace)).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                row.entry(name.clone()).or_default().push(v);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{dir}: no result files"));
    }
    Ok(set)
}

/// Prints the comparison; exits 1 when any row regressed.
pub fn run(a_dir: &str, b_dir: &str, spec: &Spec) -> Result<i32, String> {
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    let mut regressed = 0;
    println!(
        "{:<34} {:<13} {:>34} {:>34}  verdict",
        "metric", "workload", "A median [q1, q3]", "B median [q1, q3]"
    );
    for ((workload, trace), a_rows) in &a {
        let Some(b_rows) = b.get(&(workload.clone(), *trace)) else {
            println!("{workload} (trace {}): only in {a_dir}", u8::from(*trace));
            continue;
        };
        for m in spec.metrics(*trace) {
            let (Some(va), Some(vb)) = (a_rows.get(&m.name), b_rows.get(&m.name)) else {
                println!("{:<34} {workload:<13} missing from a set", m.name);
                continue;
            };
            let (qa, qb) = (set_quartiles(va), set_quartiles(vb));
            let shown = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
            let verdict = match m.bound {
                Some(bound) => match verdict(va, vb, m.lower_is_better, bound) {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => {
                        regressed += 1;
                        "regressed"
                    }
                    Verdict::Unresolved => "unresolved",
                },
                None => "-",
            };
            println!(
                "{:<34} {workload:<13} {:>34} {:>34}  {verdict}",
                m.name,
                shown(qa),
                shown(qb)
            );
        }
    }
    Ok(i32::from(regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn the_same_runs_are_ok() {
        assert_eq!(verdict(&A, &A, true, 0.1), Verdict::Ok);
    }

    #[test]
    fn worse_by_more_than_the_bound_regresses_in_the_metric_direction() {
        let slower: Vec<f64> = A.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&A, &slower, true, 0.1), Verdict::Regressed);
        // Higher-is-better: more is an improvement, less a regression.
        assert_eq!(verdict(&A, &slower, false, 0.1), Verdict::Ok);
        let fewer: Vec<f64> = A.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&A, &fewer, false, 0.1), Verdict::Regressed);
    }

    #[test]
    fn worse_within_the_bound_is_ok() {
        let slower: Vec<f64> = A.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&A, &slower, true, 0.1), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 10.0, 15.0, 8.0, 12.0];
        assert_eq!(verdict(&A, &noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &A, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn b_better_in_every_run_is_ok_even_when_noisy() {
        let noisy = [20.0, 30.0, 25.0, 40.0, 22.0];
        let fast = [1.0, 3.0, 2.0, 1.5, 2.5];
        assert_eq!(verdict(&noisy, &fast, true, 0.1), Verdict::Ok);
    }

    #[test]
    fn single_runs_compare_on_their_values() {
        assert_eq!(verdict(&[10.0], &[10.5], true, 0.1), Verdict::Ok);
        assert_eq!(verdict(&[10.0], &[12.0], true, 0.1), Verdict::Regressed);
    }
}
