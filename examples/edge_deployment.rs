//! Edge deployment walkthrough (§III-D + §IV-C): train the proposed
//! CNN, quantize it to int8, verify accuracy survives, fit it onto two
//! microcontroller targets, and emit the C weight header a firmware
//! build would link.
//!
//! ```text
//! cargo run --release --example edge_deployment
//! ```

use prefall::core::cv::{subject_folds, train_on_sets, CvConfig};
use prefall::core::metrics::{Confusion, TableMetrics};
use prefall::core::models::ModelKind;
use prefall::core::pipeline::{Pipeline, PipelineConfig};
use prefall::imu::dataset::Dataset;
use prefall::mcu::deploy::deploy;
use prefall::mcu::export::to_c_header;
use prefall::mcu::target::McuTarget;
use prefall::nn::quant::QuantizedNetwork;
use prefall::nn::train::predict_proba;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train on a subject-independent split (400 ms, the deployed config).
    let dataset = Dataset::combined_scaled(3, 3, 12)?;
    let pipeline = Pipeline::new(PipelineConfig::paper_400ms())?;
    let full = pipeline.segment_set(dataset.trials());
    let splits = subject_folds(&dataset.subject_ids(), 2, 1, 3)?;
    let split = &splits[0];

    let mut cfg = CvConfig::fast();
    cfg.epochs = 6;
    eprintln!("training the 400 ms proposed CNN...");
    let train_set = full.filter_subjects(&split.train);
    let test_raw = full.filter_subjects(&split.test);
    let test_labels = test_raw.y.clone();
    let (mut net, _, _) = train_on_sets(
        &pipeline,
        train_set.clone(),
        full.filter_subjects(&split.val),
        test_raw.clone(),
        ModelKind::ProposedCnn,
        &cfg,
        17,
        &prefall::telemetry::NoopRecorder,
    )?;

    // 2. Post-training int8 quantization, calibrated on training data.
    let norm = pipeline.fit_normalizer(&train_set);
    let calib: Vec<Vec<f32>> = train_set
        .x
        .iter()
        .take(200)
        .map(|x| norm.apply(x))
        .collect();
    let test_x: Vec<Vec<f32>> = test_raw.x.iter().map(|x| norm.apply(x)).collect();
    let qnet = QuantizedNetwork::from_network(&mut net, &calib)?;

    let float_probs = predict_proba(&mut net, &test_x);
    let quant_probs: Vec<f32> = test_x.iter().map(|x| qnet.predict_proba(x)).collect();
    let fm = TableMetrics::from_confusion(&Confusion::from_probs(&float_probs, &test_labels, 0.5));
    let qm = TableMetrics::from_confusion(&Confusion::from_probs(&quant_probs, &test_labels, 0.5));
    println!("float model  (Acc/Prec/Rec/F1 %): {fm}");
    println!("int8  model  (Acc/Prec/Rec/F1 %): {qm}");
    println!(
        "model blob: {} weights → {:.2} KiB int8 flash payload",
        net.param_count(),
        qnet.weight_bytes() as f64 / 1024.0
    );
    println!();

    // 3. Fit onto targets.
    for target in [McuTarget::stm32f722(), McuTarget::stm32l432()] {
        match deploy(&qnet, &target, 40, 9) {
            Ok(d) => {
                println!("{d}");
                println!(
                    "  hop deadline (200 ms): {}",
                    if d.meets_deadline(200.0) {
                        "met"
                    } else {
                        "MISSED"
                    }
                );
            }
            Err(e) => println!("deployment on {} failed: {e}", target.name),
        }
        println!();
    }

    // 4. Emit the firmware artifact.
    let header = to_c_header(&qnet, "prefall_model");
    let out = std::env::temp_dir().join("prefall_model.h");
    std::fs::write(&out, &header)?;
    println!(
        "wrote {} ({} KiB) — link it into the STM32 firmware image",
        out.display(),
        header.len() / 1024
    );
    Ok(())
}
