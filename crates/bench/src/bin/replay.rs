//! `prefall-replay`: record and inspect incident dumps from the
//! flight recorder.
//!
//! ```text
//! prefall-replay record-golden <path>   # record the canonical incident fixture
//! prefall-replay show <path>            # print the forensics document (JSON)
//! ```
//!
//! The recording recipe is fully seeded (dataset seed 7, weight-init
//! seed 7, the robustness acceptance fault plan), so `record-golden`
//! reproduces the committed `ci/golden_incident.pfbb` byte for byte on
//! the machine class that recorded it. That the committed fixture
//! replays bit-exactly is a test in `tests/blackbox_replay.rs`.

use prefall_blackbox::{armed_detector_from_bundle, FlightConfig, IncidentDump};
use prefall_core::detector::{DetectorConfig, GuardConfig};
use prefall_core::models::ModelKind;
use prefall_core::persist::DetectorBundle;
use prefall_dsp::stats::Normalizer;
use prefall_faults::{run_on_faulted_trial, FaultPlan};
use prefall_imu::dataset::Dataset;
use prefall_telemetry::NoopRecorder;
use std::process::ExitCode;

const SEED: u64 = 7;

fn bundle_blob() -> Vec<u8> {
    let cfg = DetectorConfig::paper_400ms();
    let w = cfg.pipeline.segmentation.window();
    let mut bundle = DetectorBundle {
        model: ModelKind::ProposedCnn,
        window: w,
        channels: 9,
        init_seed: SEED,
        pipeline: cfg.pipeline,
        normalizer: Normalizer::identity(9),
        network: ModelKind::ProposedCnn
            .build(w, 9, SEED)
            .expect("seeded build"),
    };
    bundle.to_bytes()
}

/// Streams seeded fall trials through a seeded detector under the
/// robustness acceptance fault plan until the flight recorder takes
/// its first incident — fully deterministic end to end.
fn record() -> IncidentDump {
    let blob = bundle_blob();
    let cfg = FlightConfig {
        ring_samples: 20_000,
        ring_windows: 2_000,
        max_incidents: 8,
    };
    let (mut det, flight) = armed_detector_from_bundle(&blob, 0.5, 1, GuardConfig::default(), cfg)
        .expect("seeded bundle is valid");
    let plan = FaultPlan::dropout_nan(SEED, 0.05, 0.01, 5);
    let dataset = Dataset::combined_scaled(2, 2, SEED).expect("seeded dataset");
    for trial in dataset.trials().iter().filter(|t| t.is_fall()) {
        run_on_faulted_trial(&mut det, trial, &plan, &NoopRecorder);
        if let Some(dump) = flight.latest() {
            return dump;
        }
    }
    unreachable!("every fall trial ends in a trigger or missed-fall incident")
}

fn load(path: &str) -> Result<IncidentDump, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    IncidentDump::from_bytes(&bytes).map_err(|e| format!("parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["record-golden", path] => {
            let dump = record();
            if let Err(e) = std::fs::write(path, dump.to_bytes()) {
                eprintln!("write {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "recorded {}: {} ({}) — {} samples, {} windows, truncated={}",
                path,
                dump.id,
                dump.kind.name(),
                dump.samples.len(),
                dump.windows.len(),
                dump.truncated
            );
            ExitCode::SUCCESS
        }
        ["show", path] => match load(path) {
            Ok(dump) => {
                println!("{}", dump.to_json(false));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: prefall-replay [record-golden <path> | show <path>]");
            ExitCode::FAILURE
        }
    }
}
