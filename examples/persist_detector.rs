//! Train once, deploy forever: persists a trained detector bundle
//! (weights + normaliser + preprocessing config) to disk and reloads it
//! into a live streaming detector — the workflow a product firmware/app
//! pair would use.
//!
//! ```text
//! cargo run --release --example persist_detector
//! ```

use prefall::core::cv::{augment_training_set, subject_folds, train_on_sets, CvConfig};
use prefall::core::detector::{run_on_trial, DetectorConfig, StreamingDetector};
use prefall::core::models::ModelKind;
use prefall::core::persist::DetectorBundle;
use prefall::core::pipeline::{Pipeline, PipelineConfig};
use prefall::imu::dataset::Dataset;
use prefall::telemetry::NoopRecorder;
use prefall_dsp::segment::Overlap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Train a small detector.
    let dataset = Dataset::combined_scaled(2, 2, 51)?;
    let pipeline = Pipeline::new(PipelineConfig::paper(200.0, Overlap::Half))?;
    let full = pipeline.segment_set(dataset.trials());
    let splits = subject_folds(&dataset.subject_ids(), 2, 1, 3)?;
    let split = &splits[0];

    let mut cfg = CvConfig::fast();
    cfg.epochs = 5;
    eprintln!("training...");
    let seed = 21u64;
    let (net, _, _) = train_on_sets(
        &pipeline,
        full.filter_subjects(&split.train),
        full.filter_subjects(&split.val),
        full.filter_subjects(&split.test),
        ModelKind::ProposedCnn,
        &cfg,
        seed,
        &NoopRecorder,
    )?;
    let mut aug_train = full.filter_subjects(&split.train);
    augment_training_set(&mut aug_train, &cfg, seed);
    let normalizer = pipeline.fit_normalizer(&aug_train);

    // Persist.
    let mut bundle = DetectorBundle {
        model: ModelKind::ProposedCnn,
        window: pipeline.window(),
        channels: 9,
        init_seed: seed,
        pipeline: *pipeline.config(),
        normalizer,
        network: net,
    };
    let path = std::env::temp_dir().join("prefall_detector.pfdb");
    std::fs::write(&path, bundle.to_bytes())?;
    println!(
        "saved detector bundle: {} ({} KiB)",
        path.display(),
        std::fs::metadata(&path)?.len() / 1024
    );

    // Reload in a "fresh process" and run on an unseen fall.
    let blob = std::fs::read(&path)?;
    let loaded = DetectorBundle::from_bytes(&blob)?;
    println!(
        "reloaded: {} @ {} samples/window, seed {}",
        loaded.model, loaded.window, loaded.init_seed
    );
    let mut detector = StreamingDetector::new(
        loaded.network,
        loaded.normalizer,
        DetectorConfig {
            pipeline: loaded.pipeline,
            // High operating point: the paper tunes for minimal false
            // activations.
            threshold: 0.9,
            consecutive: 1,
            guard: prefall::core::detector::GuardConfig::default(),
        },
    )?;

    let mut shown = 0;
    for trial in dataset
        .trials()
        .iter()
        .filter(|t| split.test.contains(&t.subject) && t.is_fall())
        .take(5)
    {
        let outcome = run_on_trial(&mut detector, trial, &NoopRecorder);
        println!(
            "task {:>2}: trigger {:?}, lead {:?} ms, protected {:?}",
            trial.task.get(),
            outcome.triggered_at,
            outcome.lead_time_ms.map(|m| m.round()),
            outcome.protected
        );
        shown += 1;
    }
    assert!(shown > 0, "no unseen fall trials found");
    Ok(())
}
