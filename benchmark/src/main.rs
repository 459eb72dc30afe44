//! The repository benchmark: five workloads measured end to end from
//! the client, with a separate traced pass that splits each workload
//! by layer. See `README.md` for the workloads and the metric glossary.
//!
//! ```text
//! benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! benchmark run --all --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! benchmark compare <setA/> <setB/> [--spec BENCHMARK.json]
//! benchmark check <result.json> [--spec BENCHMARK.json]
//! ```
//!
//! `run` prints every metric with its unit, writes a result file under
//! `--out` (default `bench-out/benchmark`), and ends its standard
//! output with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics of the trace mode. It exits 1 when an output oracle fails
//! and 2 on any other error.

mod alloc;
mod compare;
mod fleet;
mod grid;
mod model;
mod report;
mod spec;
mod stats;
mod stream;

use report::Report;
use spec::Spec;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measured seconds per run unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
const DEFAULT_OUT: &str = "bench-out/benchmark";
const DEFAULT_SPEC: &str = "BENCHMARK.json";

const USAGE: &str = "usage:
  benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
  benchmark run --all --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
  benchmark compare <setA/> <setB/> [--spec BENCHMARK.json]
  benchmark check <result.json> [--spec BENCHMARK.json]";

fn main() {
    // The program receives only the generated inputs: no PREFALL_*
    // override (threads, epochs, seeds, caches) may reshape a workload.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PREFALL_") {
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = real_main(&args).unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        2
    });
    std::process::exit(code);
}

fn real_main(args: &[String]) -> Result<i32, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let mut positional = Vec::new();
    let mut flags = std::collections::BTreeMap::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some("all") => {
                flags.insert("all", String::new());
            }
            Some(key @ ("workload" | "seed" | "seconds" | "trace" | "out" | "spec")) => {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key, value.clone());
            }
            Some(other) => return Err(format!("unknown flag --{other}\n{USAGE}")),
            None => positional.push(arg.as_str()),
        }
    }
    let flag =
        |key: &str, default: &str| flags.get(key).map_or(default, String::as_str).to_string();
    let spec_path = flag("spec", DEFAULT_SPEC);
    match (command.as_str(), positional.as_slice()) {
        ("run", []) => {
            let seed: u64 = flags
                .get("seed")
                .ok_or("run needs --seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?;
            let seconds: u64 = flag("seconds", &DEFAULT_SECONDS.to_string())
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?;
            if !(1..=60).contains(&seconds) {
                return Err("--seconds must be 1 to 60".to_string());
            }
            let trace = match flag("trace", "0").as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            let out = flag("out", DEFAULT_OUT);
            if flags.contains_key("all") {
                run_all(seed, seconds, trace, &out)
            } else {
                let workload = flags
                    .get("workload")
                    .ok_or("run needs --workload or --all")?;
                run_one(workload, seed, seconds, trace, &out)
            }
        }
        ("compare", [a, b]) => compare::run(a, b, &load_spec(&spec_path)?),
        ("check", [result]) => check(result, &load_spec(&spec_path)?),
        _ => Err(USAGE.to_string()),
    }
}

fn load_spec(path: &str) -> Result<Spec, String> {
    let spec = Spec::load(path)?;
    spec.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(spec)
}

fn run_one(workload: &str, seed: u64, seconds: u64, trace: bool, out: &str) -> Result<i32, String> {
    let report: Report = match workload {
        "stream-float" => stream::run(stream::Precision::Float, seed, seconds, trace)?,
        "stream-int8" => stream::run(stream::Precision::Int8, seed, seconds, trace)?,
        "fleet-steady" => fleet::run(fleet::Shape::Steady, seed, seconds, trace)?,
        "fleet-churn" => fleet::run(fleet::Shape::Churn, seed, seconds, trace)?,
        "grid" => grid::run(seed, seconds, trace)?,
        other => {
            return Err(format!(
                "unknown workload {other}; one of {}",
                spec::WORKLOADS.join(", ")
            ))
        }
    };
    report.print();
    let path = report.write(out)?;
    println!("  result file {path}");
    for (name, _, detail) in report.failed_checks() {
        eprintln!("benchmark: oracle failed: {name}: {detail}");
    }
    println!("{}", report.summary_line());
    Ok(if report.correct() { 0 } else { 1 })
}

/// Every workload, each in a fresh child process so `peak_rss_mb` and
/// the process-wide scheduler and tracer state are per workload.
fn run_all(seed: u64, seconds: u64, trace: bool, out: &str) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut worst = 0;
    for workload in spec::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .args(["--out", out])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        let code = status.code().unwrap_or(2);
        if code != 0 {
            eprintln!("benchmark: {workload} exited with {code}");
        }
        worst = worst.max(code);
    }
    Ok(worst)
}

/// Verifies a result file carries every metric `BENCHMARK.json` lists
/// for its trace mode, with the published unit and a finite value.
fn check(path: &str, spec: &Spec) -> Result<i32, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = prefall_telemetry::JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workload = doc
        .get("workload")
        .and_then(|w| w.as_str())
        .ok_or_else(|| format!("{path}: no workload"))?;
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!("{path}: workload {workload} is not in the spec"));
    }
    let trace = doc.get("trace").and_then(|t| t.as_u64()) == Some(1);
    let metrics = doc
        .get("metrics")
        .ok_or_else(|| format!("{path}: no metrics"))?;
    let mut missing = 0;
    for m in spec.metrics(trace) {
        let entry = metrics.get(&m.name);
        let value = entry.and_then(|e| e.get("value")).and_then(|v| v.as_f64());
        let unit = entry.and_then(|e| e.get("unit")).and_then(|u| u.as_str());
        if !value.is_some_and(f64::is_finite) || unit != Some(m.unit.as_str()) {
            println!("missing {} ({})", m.name, m.unit);
            missing += 1;
        }
    }
    println!(
        "{path}: {workload} trace {}: {} of {} metrics present",
        u8::from(trace),
        spec.metrics(trace).len() - missing,
        spec.metrics(trace).len()
    );
    Ok(i32::from(missing > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seconds_match_the_published_run_seconds() {
        let spec = Spec::parse(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        )))
        .expect("BENCHMARK.json parses");
        assert_eq!(spec.run_seconds, DEFAULT_SECONDS);
    }
}
