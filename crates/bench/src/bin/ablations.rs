//! Ablation suite for the design choices DESIGN.md calls out:
//!
//! 1. **150 ms truncation** — train with vs without removing the last
//!    150 ms of each falling phase (the paper argues the conventional
//!    labelling inflates scores while being useless for an airbag).
//! 2. **Modality split** — the proposed three-branch CNN vs a
//!    single-branch CNN of the same conv budget.
//! 3. **Augmentation** — time/window warping on vs off.
//! 4. **Class weights + bias init** — on vs off.
//!
//! ```text
//! cargo run --release -p prefall-bench --bin ablations
//! ```

use prefall_core::cv::{run_cv, CvConfig};
use prefall_core::metrics::TableMetrics;
use prefall_core::models::ModelKind;
use prefall_core::pipeline::{Pipeline, PipelineConfig};
use prefall_imu::dataset::{Dataset, DatasetConfig};
use prefall_telemetry::NoopRecorder;

struct Row {
    name: &'static str,
    metrics: TableMetrics,
}

fn main() {
    let dataset_cfg = DatasetConfig {
        kfall_subjects: 5,
        self_collected_subjects: 5,
        trials_per_task: 1,
        duration_scale: 0.5,
        seed: 2025,
    };
    let mut cv = CvConfig::paper_scaled(8);
    cv.folds = 3;
    cv.val_subjects = 1;
    if let Ok(n) = std::env::var("PREFALL_EPOCHS").map(|v| v.parse().unwrap_or(8)) {
        cv.epochs = n;
    }

    eprintln!("ablations: generating dataset...");
    let dataset = Dataset::generate(&dataset_cfg).expect("dataset");
    let paper_pipeline = Pipeline::new(PipelineConfig::paper_400ms()).expect("pipeline");

    let mut rows: Vec<Row> = Vec::new();
    let mut run = |name: &'static str, pipeline: &Pipeline, model: ModelKind, cfg: &CvConfig| {
        eprintln!("ablations: {name}...");
        match run_cv(&dataset, pipeline, model, cfg, &NoopRecorder) {
            Ok(out) => rows.push(Row {
                name,
                metrics: out.mean,
            }),
            Err(e) => eprintln!("  {name} failed: {e}"),
        }
    };

    // Reference configuration.
    run(
        "proposed (full method)",
        &paper_pipeline,
        ModelKind::ProposedCnn,
        &cv,
    );

    // 1. No 150 ms truncation (conventional labelling).
    let mut no_trunc_cfg = PipelineConfig::paper_400ms();
    no_trunc_cfg.airbag_budget_samples = 0;
    let no_trunc = Pipeline::new(no_trunc_cfg).expect("pipeline");
    run(
        "no 150 ms truncation",
        &no_trunc,
        ModelKind::ProposedCnn,
        &cv,
    );

    // 2. Single-branch CNN.
    run(
        "single-branch CNN",
        &paper_pipeline,
        ModelKind::MonolithicCnn,
        &cv,
    );

    // 3. No augmentation.
    let mut no_aug = cv;
    no_aug.augment_factor = 0;
    run(
        "no augmentation",
        &paper_pipeline,
        ModelKind::ProposedCnn,
        &no_aug,
    );

    // 4. No imbalance countermeasures.
    let mut no_weights = cv;
    no_weights.class_weights = false;
    no_weights.bias_init = false;
    run(
        "no class weights / bias init",
        &paper_pipeline,
        ModelKind::ProposedCnn,
        &no_weights,
    );

    println!("=== Ablations (400 ms, 50% overlap; Accuracy/Precision/Recall/F1 %, macro) ===");
    println!(
        "{:<30} {:>8} {:>9} {:>8} {:>8}",
        "Configuration", "Acc", "Prec", "Rec", "F1"
    );
    println!("{}", "-".repeat(68));
    for r in &rows {
        println!(
            "{:<30} {:>8.2} {:>9.2} {:>8.2} {:>8.2}",
            r.name, r.metrics.accuracy, r.metrics.precision, r.metrics.recall, r.metrics.f1
        );
    }
    println!();
    println!("expected shapes:");
    println!("  • 'no 150 ms truncation' scores HIGHER (the easy, airbag-useless task the paper refuses to optimise)");
    println!("  • the modality split and the imbalance countermeasures each buy recall/F1");
}
