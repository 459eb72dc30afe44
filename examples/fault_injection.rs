//! Sensor fault injection against the hardened streaming detector:
//! takes one synthetic fall trial, corrupts its sensor bus with the
//! kitchen-sink fault plan at increasing intensity, and shows what the
//! ingest guard caught, which degraded modes it entered, and whether
//! the trial still triggered.
//!
//! Runs in a couple of seconds — the detector uses an untrained (but
//! seeded) network, because the point here is the ingest path, not the
//! classifier.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use prefall::core::detector::{DetectorConfig, StreamingDetector};
use prefall::core::models::ModelKind;
use prefall::dsp::stats::Normalizer;
use prefall::faults::{run_on_faulted_trial, FaultPlan};
use prefall::imu::dataset::Dataset;
use prefall::telemetry::NoopRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::combined_scaled(1, 1, 7)?;
    let trial = dataset
        .trials()
        .iter()
        .find(|t| t.is_fall())
        .expect("dataset contains falls");
    println!(
        "fall trial: subject {:?}, task {}, {} samples ({} faults composed per plan)",
        trial.subject,
        trial.task,
        trial.len(),
        FaultPlan::kitchen_sink(7).faults().len(),
    );

    let cfg = DetectorConfig::paper_400ms();
    let window = cfg.pipeline.segmentation.window();
    let net = ModelKind::ProposedCnn.build(window, 9, 7)?;
    let mut det = StreamingDetector::new(net, Normalizer::identity(9), cfg)?;

    println!();
    println!("intensity   faults  nonfinite  gaps  stuck  degraded-win  peak-prob");
    for intensity in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let plan = FaultPlan::kitchen_sink(7).scaled(intensity);
        // Fresh counters per intensity so each row stands alone.
        det.set_guard(prefall::core::detector::GuardConfig::default());
        let out = run_on_faulted_trial(&mut det, trial, &plan, &NoopRecorder);
        let s = det.session().guard_status();
        println!(
            "{intensity:9.2}  {:6}  {:9}  {:4}  {:5}  {:5}/{:<6}  {:.4}",
            s.faults(),
            s.nonfinite,
            s.gaps_filled,
            s.stuck_events,
            s.degraded_windows,
            s.windows,
            out.peak_prob.unwrap_or(f32::NAN),
        );
    }

    println!();
    println!(
        "every probability above is finite: the guard clamps, bridges and \
         masks at the ingest boundary, so the network never sees a NaN."
    );
    Ok(())
}
