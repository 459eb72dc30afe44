//! The motivating scenario: a wearable airbag jacket driven by the
//! streaming detector. Trains the proposed CNN on a group of subjects,
//! then streams *unseen* subjects' trials sample-by-sample through the
//! real-time detector and the 150 ms airbag model, reporting trigger
//! lead times, protection rate, and false activations.
//!
//! ```text
//! cargo run --release --example airbag_trigger
//! ```

use prefall::blackbox::{armed_detector_from_bundle, replay, FlightConfig, IncidentKind};
use prefall::core::cv::{augment_training_set, subject_folds, train_on_sets, CvConfig};
use prefall::core::detector::run_on_trial;
use prefall::core::models::ModelKind;
use prefall::core::persist::DetectorBundle;
use prefall::core::pipeline::{Pipeline, PipelineConfig};
use prefall::imu::dataset::{Dataset, DatasetConfig};
use prefall::nn::network::BranchStat;
use prefall::telemetry::NoopRecorder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data and pipeline (200 ms windows keep the example fast while
    //    still leaving the airbag a realistic reaction budget).
    let dataset = Dataset::generate(&DatasetConfig {
        kfall_subjects: 2,
        self_collected_subjects: 3,
        trials_per_task: 1,
        duration_scale: 0.5,
        seed: 99,
    })?;
    let pipeline = Pipeline::new(PipelineConfig::paper(
        200.0,
        prefall_dsp::segment::Overlap::Half,
    ))?;

    // 2. Subject-independent split: last fold's subjects are the wearers.
    let splits = subject_folds(&dataset.subject_ids(), 2, 1, 5)?;
    let split = &splits[0];
    let full = pipeline.segment_set(dataset.trials());

    let mut cfg = CvConfig::fast();
    cfg.epochs = 6;
    eprintln!("training on {} subjects...", split.train.len());
    let (net, _, _) = train_on_sets(
        &pipeline,
        full.filter_subjects(&split.train),
        full.filter_subjects(&split.val),
        full.filter_subjects(&split.test),
        ModelKind::ProposedCnn,
        &cfg,
        31,
        &NoopRecorder,
    )?;

    // The streaming detector needs the same normaliser used in training.
    let mut train_set = full.filter_subjects(&split.train);
    augment_training_set(&mut train_set, &cfg, 31);
    let norm = pipeline.fit_normalizer(&train_set);

    // Bundle the trained detector and deploy it with the flight
    // recorder armed: every trigger (and every missed fall) freezes
    // the last seconds of raw input, guard state and per-branch score
    // attribution into a replayable incident dump.
    let mut bundle = DetectorBundle {
        model: ModelKind::ProposedCnn,
        window: pipeline.window(),
        channels: 9,
        init_seed: 31,
        pipeline: *pipeline.config(),
        normalizer: norm,
        network: net,
    };
    let blob = bundle.to_bytes();
    let (mut detector, flight) = armed_detector_from_bundle(
        &blob,
        // High operating point: the paper tunes for minimal false
        // activations.
        0.9,
        1,
        prefall::core::detector::GuardConfig::default(),
        FlightConfig::default(),
    )?;

    // 3. Stream the unseen wearers' trials.
    println!("== streaming unseen subjects through detector + airbag (inflation 150 ms) ==");
    let mut falls = 0usize;
    let mut protected = 0usize;
    let mut lead_times = Vec::new();
    let mut adls = 0usize;
    let mut false_activations = 0usize;

    for trial in dataset
        .trials()
        .iter()
        .filter(|t| split.test.contains(&t.subject))
    {
        let outcome = run_on_trial(&mut detector, trial, &NoopRecorder);
        if trial.is_fall() {
            falls += 1;
            if outcome.protected == Some(true) {
                protected += 1;
            }
            if let Some(ms) = outcome.lead_time_ms {
                lead_times.push(ms);
                println!(
                    "  task {:>2} ({:<9}): trigger {:>4.0} ms before impact → {}",
                    trial.task.get(),
                    format!("{:?}", trial.activity().fall_category.unwrap()).to_lowercase(),
                    ms,
                    if outcome.protected == Some(true) {
                        "protected"
                    } else {
                        "TOO LATE"
                    }
                );
            } else {
                println!("  task {:>2}: fall MISSED", trial.task.get());
            }
        } else {
            adls += 1;
            if outcome.false_activation {
                false_activations += 1;
                println!(
                    "  task {:>2} (ADL): FALSE ACTIVATION at {} ms",
                    trial.task.get(),
                    outcome.triggered_at.unwrap_or(0) * 10
                );
            }
        }
    }

    println!();
    println!(
        "falls: {falls}; airbag fully inflated before impact: {protected} ({:.0}%)",
        protected as f64 / falls.max(1) as f64 * 100.0
    );
    if !lead_times.is_empty() {
        let mean = lead_times.iter().sum::<f64>() / lead_times.len() as f64;
        println!("mean trigger lead time: {mean:.0} ms (airbag needs 150 ms)");
    }
    println!(
        "ADL trials: {adls}; false activations: {false_activations} ({:.1}%)",
        false_activations as f64 / adls.max(1) as f64 * 100.0
    );

    // 4. Forensics: the flight recorder dumped an incident for every
    //    trigger and every missed fall. Walk the decision trace of the
    //    most interesting one — which modality branch drove the score,
    //    window by window, up to the firing decision.
    println!();
    println!(
        "== flight recorder: {} incident(s) captured ==",
        flight.incident_count()
    );
    let dump = flight
        .incidents()
        .into_iter()
        .find(|d| d.kind == IncidentKind::Trigger)
        .or_else(|| flight.latest());
    if let Some(dump) = dump {
        println!(
            "incident {} ({}): {} samples, {} windows, config {:016x}, model {:016x}",
            dump.id,
            dump.kind.name(),
            dump.samples.len(),
            dump.windows.len(),
            dump.config_hash(),
            dump.model_hash()
        );
        if let Some(ms) = dump.lead_time_ms {
            println!("trigger lead time in dump: {ms:.0} ms");
        }
        println!("decision trace (accel / gyro / euler branch shares):");
        for w in dump
            .windows
            .iter()
            .rev()
            .take(5)
            .collect::<Vec<_>>()
            .iter()
            .rev()
        {
            let shares = BranchStat::shares(w.attribution());
            let pct: Vec<String> = shares
                .iter()
                .map(|s| format!("{:>3.0}%", s * 100.0))
                .collect();
            println!(
                "  sample {:>5}: score {:.3} [{}]{}",
                w.at_sample,
                w.score,
                pct.join(" / "),
                if w.decision() { "  ← TRIGGER" } else { "" }
            );
        }

        // The dump is self-contained: persist it, reload it, and
        // re-run the incident bit-exactly.
        let path = std::env::temp_dir().join("prefall_incident.pfbb");
        std::fs::write(&path, dump.to_bytes())?;
        let reloaded = prefall::blackbox::IncidentDump::from_bytes(&std::fs::read(&path)?)?;
        match replay(&reloaded) {
            Ok(report) => println!(
                "replayed {} from {}: bit_exact={} over {} windows",
                dump.id,
                path.display(),
                report.bit_exact,
                report.windows_compared
            ),
            Err(e) => println!("replay unavailable: {e}"),
        }
    }
    Ok(())
}
