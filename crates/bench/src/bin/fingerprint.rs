//! Reference-fingerprint tool: builds the deterministic training
//! distribution fingerprint (see `prefall_bench::driftref`) and writes
//! it as a `PFDF` file, or prints a human summary of one.
//!
//! ```text
//! prefall-fingerprint write <path>   build the reference and write it
//! prefall-fingerprint show  <path>   parse and summarise a PFDF file
//! ```
//!
//! The builder is bit-deterministic, so the committed
//! `ci/drift_reference.pfdf` is reproducible from source: the test
//! `driftref::tests::reference_is_reproducible_and_fully_populated`
//! requires a fresh build to equal it byte for byte. Exit codes: 0 ok,
//! 2 usage/IO/format error.

use prefall_bench::driftref;
use prefall_drift::fingerprint::{INPUT_NAMES, INPUT_RANGES, SHARE_NAMES, UNIT_RANGE};
use prefall_drift::{AxisSketch, FeatureRange, Fingerprint};

fn usage() -> ! {
    eprintln!("usage: prefall-fingerprint <write|show> <path.pfdf>");
    std::process::exit(2);
}

fn load(path: &str) -> Fingerprint {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("prefall-fingerprint: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Fingerprint::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("prefall-fingerprint: {path}: {e}");
        std::process::exit(2);
    })
}

fn describe(name: &str, sketch: &AxisSketch, range: &FeatureRange) {
    match (
        sketch.mean(range),
        sketch.quantile(range, 0.5),
        sketch.quantile(range, 0.99),
    ) {
        (Some(mean), Some(p50), Some(p99)) => println!(
            "  {name:<10} count {:>8}  mean {mean:>9.4}  p50 {p50:>9.4}  p99 {p99:>9.4}  skipped {}",
            sketch.count(),
            sketch.skipped(),
        ),
        _ => println!("  {name:<10} (empty)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, path] = args.as_slice() else {
        usage();
    };
    match cmd.as_str() {
        "write" => {
            let fp = driftref::build_reference();
            let bytes = fp.to_bytes();
            if let Some(dir) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            std::fs::write(path, &bytes).unwrap_or_else(|e| {
                eprintln!("prefall-fingerprint: cannot write {path}: {e}");
                std::process::exit(2);
            });
            println!(
                "wrote {path}: {} bytes, {} samples, {} windows (dataset seed {})",
                bytes.len(),
                fp.samples(),
                fp.windows(),
                driftref::REFERENCE_SEED,
            );
        }
        "show" => {
            let fp = load(path);
            println!("{path}: {} samples, {} windows", fp.samples(), fp.windows());
            println!("input axes:");
            for (i, name) in INPUT_NAMES.iter().enumerate() {
                describe(name, &fp.input[i], &INPUT_RANGES[i]);
            }
            println!("window score:");
            describe("score", &fp.score, &UNIT_RANGE);
            println!("attribution shares:");
            for (i, name) in SHARE_NAMES.iter().enumerate() {
                describe(name, &fp.shares[i], &UNIT_RANGE);
            }
        }
        _ => usage(),
    }
}
