//! Cross-crate integration tests: the full paper pipeline from synthetic
//! acquisition to quantized deployment.

use prefall::core::cv::{augment_training_set, subject_folds, train_on_sets, CvConfig};
use prefall::core::detector::{run_on_trial, DetectorConfig, StreamingDetector};
use prefall::core::events::EventReport;
use prefall::core::experiment::{Experiment, ExperimentConfig};
use prefall::core::metrics::Confusion;
use prefall::core::models::ModelKind;
use prefall::core::pipeline::{Pipeline, PipelineConfig};
use prefall::imu::dataset::Dataset;
use prefall::mcu::deploy::deploy;
use prefall::mcu::target::McuTarget;
use prefall::nn::quant::QuantizedNetwork;
use prefall::telemetry::NoopRecorder;
use prefall_dsp::segment::Overlap;

/// One shared trained artifact for the expensive tests.
struct Trained {
    pipeline: Pipeline,
    dataset: Dataset,
    net: prefall::nn::network::Network,
    normalizer: prefall_dsp::stats::Normalizer,
    test_subjects: Vec<prefall::imu::subject::SubjectId>,
    predictions: Vec<(prefall::core::pipeline::SegmentMeta, f32)>,
    test_labels: Vec<f32>,
}

fn train_fixture() -> Trained {
    let dataset = Dataset::combined_scaled(2, 3, 404).expect("dataset");
    let pipeline = Pipeline::new(PipelineConfig::paper(200.0, Overlap::Half)).expect("pipeline");
    let full = pipeline.segment_set(dataset.trials());
    let splits = subject_folds(&dataset.subject_ids(), 2, 1, 9).expect("folds");
    let split = splits[0].clone();

    let mut cfg = CvConfig::fast();
    cfg.epochs = 6;
    let train_set = full.filter_subjects(&split.train);
    let test_set = full.filter_subjects(&split.test);
    let test_labels = test_set.y.clone();
    let (net, predictions, _) = train_on_sets(
        &pipeline,
        train_set.clone(),
        full.filter_subjects(&split.val),
        test_set,
        ModelKind::ProposedCnn,
        &cfg,
        77,
        &NoopRecorder,
    )
    .expect("training");

    let mut aug_train = train_set;
    augment_training_set(&mut aug_train, &cfg, 77);
    let normalizer = pipeline.fit_normalizer(&aug_train);

    Trained {
        pipeline,
        dataset,
        net,
        normalizer,
        test_subjects: split.test,
        predictions,
        test_labels,
    }
}

#[test]
fn full_method_learns_and_generalises_to_unseen_subjects() {
    let t = train_fixture();
    let probs: Vec<f32> = t.predictions.iter().map(|(_, p)| *p).collect();
    let c = Confusion::from_probs(&probs, &t.test_labels, 0.5);
    assert!(c.total() > 500, "enough test segments");
    assert!(c.accuracy() > 0.85, "accuracy {}", c.accuracy());
    assert!(
        c.recall_pos() > 0.5,
        "positive recall {} — the minority class must be learned",
        c.recall_pos()
    );

    // Event level, at the paper's FP-minimising operating point: most
    // unseen falls detected, few ADL activations.
    let events = EventReport::from_predictions(&t.predictions, 0.99);
    assert!(
        events.overall_fall_miss_pct() < 50.0,
        "miss {}%",
        events.overall_fall_miss_pct()
    );
    assert!(
        events.overall_adl_fp_pct() < 30.0,
        "fp {}%",
        events.overall_adl_fp_pct()
    );
    // Raising the threshold must never increase false activations.
    let loose = EventReport::from_predictions(&t.predictions, 0.5);
    assert!(events.overall_adl_fp_pct() <= loose.overall_adl_fp_pct());
}

#[test]
fn streaming_detector_agrees_with_offline_pipeline_on_events() {
    let t = train_fixture();
    let mut detector = StreamingDetector::new(
        t.net,
        t.normalizer,
        DetectorConfig {
            pipeline: *t.pipeline.config(),
            threshold: 0.5,
            consecutive: 1,
            guard: prefall::core::detector::GuardConfig::default(),
        },
    )
    .expect("detector");

    let mut falls = 0usize;
    let mut triggered = 0usize;
    let mut protected = 0usize;
    for trial in t
        .dataset
        .trials()
        .iter()
        .filter(|tr| t.test_subjects.contains(&tr.subject) && tr.is_fall())
    {
        falls += 1;
        let outcome = run_on_trial(&mut detector, trial, &NoopRecorder);
        if let Some(at) = outcome.triggered_at {
            triggered += 1;
            // A trigger exists; lead time must be consistent.
            let lead = outcome.lead_time_ms.expect("fall has impact");
            assert!((lead - (trial.impact().unwrap() as f64 - at as f64) * 10.0).abs() < 1e-6);
            if outcome.protected == Some(true) {
                protected += 1;
                assert!(lead >= 150.0, "protected requires ≥150 ms lead, got {lead}");
            }
        }
    }
    assert!(falls > 20);
    assert!(
        triggered as f64 >= falls as f64 * 0.4,
        "streaming detector triggered on {triggered}/{falls} falls"
    );
    assert!(protected > 0, "at least some wearers protected");
}

#[test]
fn quantized_model_deploys_and_matches_float() {
    let t = train_fixture();
    let mut net = t.net;
    // Calibrate on normalised training-like data: reuse test segments.
    let full = t.pipeline.segment_set(t.dataset.trials());
    let mut some = full.filter_subjects(&t.test_subjects);
    t.pipeline
        .normalize(&mut some, &t.normalizer, &NoopRecorder);
    let calib: Vec<Vec<f32>> = some.x.iter().take(128).cloned().collect();

    let qnet = QuantizedNetwork::from_network(&mut net, &calib).expect("quantize");
    let mut agree = 0usize;
    for x in &calib {
        let f = prefall::nn::loss::sigmoid(net.forward(x)[0]);
        let q = qnet.predict_proba(x);
        if (f >= 0.5) == (q >= 0.5) {
            agree += 1;
        }
    }
    assert!(
        agree as f64 >= calib.len() as f64 * 0.97,
        "float/int8 agreement {agree}/{}",
        calib.len()
    );

    // The 200 ms model is smaller than the paper's 400 ms one and must
    // fit the STM32F722 comfortably.
    let d = deploy(&qnet, &McuTarget::stm32f722(), 20, 9).expect("fits");
    assert!(d.model_flash_bytes < 67 * 1024);
    assert!(d.inference_ms < 4.0);
    assert!(d.meets_deadline(100.0), "100 ms hop at 200 ms / 50%");
}

#[test]
fn experiment_report_is_reproducible() {
    let cfg = ExperimentConfig::fast();
    let a = Experiment::new(cfg.clone()).run().expect("run a");
    let b = Experiment::new(cfg).run().expect("run b");
    let ca = a.cell(ModelKind::ProposedCnn, 200.0).unwrap();
    let cb = b.cell(ModelKind::ProposedCnn, 200.0).unwrap();
    assert_eq!(ca.metrics, cb.metrics, "same seeds → identical metrics");
    assert_eq!(ca.cv.all_predictions().len(), cb.cv.all_predictions().len());
}

#[test]
fn airbag_budget_ablation_makes_the_task_easier() {
    // Train with and without the 150 ms truncation on the same data;
    // the conventional labelling (budget 0) includes the most
    // discriminative final samples, so its segment scores should not be
    // systematically worse.
    let dataset = Dataset::combined_scaled(2, 2, 505).expect("dataset");
    let run = |budget: usize| {
        let mut pc = PipelineConfig::paper(200.0, Overlap::Half);
        pc.airbag_budget_samples = budget;
        let pipeline = Pipeline::new(pc).expect("pipeline");
        let mut cfg = CvConfig::fast();
        cfg.epochs = 5;
        prefall::core::cv::run_cv(
            &dataset,
            &pipeline,
            ModelKind::ProposedCnn,
            &cfg,
            &NoopRecorder,
        )
        .expect("cv")
        .mean
    };
    let with_budget = run(15);
    let without = run(0);
    // Not a strict inequality test (small data), but both must be sane
    // and the no-truncation variant should see MORE positive windows.
    assert!(with_budget.accuracy > 80.0);
    assert!(without.accuracy > 80.0);
}
