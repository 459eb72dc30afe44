//! Regression gate between two `BENCH_telemetry.json` snapshots.
//!
//! ```text
//! benchdiff <baseline.json> <candidate.json> [options]
//!
//!   --lead-pct <P>          lead-time shrink allowed, % (default 10)
//!   --lead-floor-ms <M>     absolute lead-time slack, ms (default 5)
//!   --budget-drop <F>       budget-fraction drop allowed (default 0.05)
//!   --speedup-pct <P>       speedup (`*speedup*`) shrink allowed, %
//!                           (default 25)
//!   --drift-abs <F>         absolute clean-leg drift PSI growth
//!                           (`drift.clean_*_psi`) allowed (default 0.05)
//!   --min-count <N>         observations needed before a histogram
//!                           can gate (default 20)
//! ```
//!
//! Exit codes: 0 clean, 1 regression detected, 2 usage or parse error.
//!
//! Wall-clock latency and throughput are not gated here: the repo
//! benchmark compares them parent against change on one host
//! (`ci/benchmark_compare.sh`).

use prefall_bench::diff::{diff, BenchSnapshot, Thresholds};

fn usage() -> ! {
    eprintln!(
        "usage: benchdiff <baseline.json> <candidate.json> \
         [--lead-pct P] [--lead-floor-ms M] [--budget-drop F] \
         [--speedup-pct P] [--drift-abs F] \
         [--min-count N]"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, String, Thresholds) {
    let mut paths = Vec::new();
    let mut t = Thresholds::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut flag = |t_field: &mut f64| match args.next().and_then(|v| v.parse().ok()) {
            Some(v) => *t_field = v,
            None => usage(),
        };
        match arg.as_str() {
            "--lead-pct" => flag(&mut t.lead_pct),
            "--lead-floor-ms" => flag(&mut t.lead_floor_ms),
            "--budget-drop" => flag(&mut t.budget_drop),
            "--speedup-pct" => flag(&mut t.speedup_pct),
            "--drift-abs" => flag(&mut t.drift_abs),
            "--min-count" => flag(&mut t.min_count),
            "-h" | "--help" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => paths.push(arg),
        }
    }
    if paths.len() != 2 {
        usage();
    }
    let candidate = paths.pop().expect("checked");
    let baseline = paths.pop().expect("checked");
    (baseline, candidate, t)
}

fn main() {
    let (baseline_path, candidate_path, thresholds) = parse_args();
    let load = |path: &str| {
        BenchSnapshot::load(path).unwrap_or_else(|e| {
            eprintln!("benchdiff: {e}");
            std::process::exit(2);
        })
    };
    let baseline = load(&baseline_path);
    let candidate = load(&candidate_path);
    if baseline.bench != candidate.bench {
        eprintln!(
            "benchdiff: comparing different benches ({} vs {})",
            baseline.bench, candidate.bench
        );
    }

    let report = diff(&baseline, &candidate, &thresholds);
    print!("{}", report.render());

    let failures: Vec<_> = report.regressions().collect();
    if failures.is_empty() {
        println!(
            "benchdiff: no regressions ({} stats compared)",
            report.deltas.len()
        );
    } else {
        println!("benchdiff: {} regression(s):", failures.len());
        for d in &failures {
            println!(
                "  {} {}: {} -> {} ({:+.1}%)",
                d.metric,
                d.stat,
                d.base,
                d.cand,
                d.pct_change()
            );
        }
        std::process::exit(1);
    }
}
