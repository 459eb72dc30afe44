//! Regenerates the **§IV-C on-edge performance** results: trains the
//! proposed CNN, applies int8 post-training quantization, verifies the
//! accuracy is unchanged, fits the model onto the STM32F722 deployment
//! model (flash / RAM / latency envelope), and streams every trial
//! through the quantized detector to measure host-side per-sample
//! latency (p50/p95/p99) and the detection lead time against the 150 ms
//! airbag-inflation budget.
//!
//! All measured numbers route through a telemetry registry and are
//! dumped to `BENCH_telemetry.json`; `PREFALL_QUIET=1` silences the
//! progress events and summary table. Setting `PREFALL_METRICS_ADDR`
//! (e.g. `127.0.0.1:9898`) additionally serves the registry live over
//! HTTP — `curl localhost:9898/metrics` during the run returns
//! Prometheus text with the inference-latency histograms, per-activity
//! confusion counters and the lead-time-budget gauges.
//!
//! The lead-time numbers it prints are bounded by the release-mode
//! test `crates/bench/tests/lead_time.rs`, which trains the same model
//! through the same [`TrainedCnn`] helper.
//!
//! ```text
//! cargo run --release -p prefall-bench --bin edge_perf
//! ```

use prefall_bench::{paper_edge, telemetry_out, TrainedCnn};
use prefall_core::detector::{
    lead_time_bounds_ms, run_on_trial, DetectorConfig, StreamingDetector,
};
use prefall_core::metrics::{Confusion, TableMetrics};
use prefall_core::monitor::QualityMonitor;
use prefall_imu::dataset::DatasetConfig;
use prefall_imu::AIRBAG_INFLATION_MS;
use prefall_mcu::deploy::deploy;
use prefall_mcu::export::to_c_header;
use prefall_mcu::target::McuTarget;
use prefall_nn::train::predict_proba;
use prefall_telemetry::{Histogram, JsonValue, Recorder, Value};

fn main() {
    let (registry, rec) = telemetry_out::bench_recorder();
    registry.register_histogram("detector.lead_time_ms", lead_time_bounds_ms());
    // Sub-ms per-sample latencies need finer resolution than the
    // default decade-of-five buckets give.
    let fine = Histogram::log_bounds(1e-8, 1.0, 10);
    registry.register_histogram("detector.push_sample_seconds", fine.clone());
    registry.register_histogram("detector.infer_seconds", fine);
    // Live exporter, when PREFALL_METRICS_ADDR asks for one. Held until
    // the end of main so a scrape can watch the whole run.
    let _server = prefall_obsd::serve_from_env(&registry);
    let phase = |name: &str| {
        rec.event(
            "bench.phase",
            &[
                ("bench", Value::from("edge_perf")),
                ("phase", Value::from(name)),
            ],
        );
    };

    let mut dataset_cfg = DatasetConfig {
        kfall_subjects: 4,
        self_collected_subjects: 4,
        trials_per_task: 1,
        duration_scale: 0.5,
        seed: 2025,
    };
    if let Ok(n) = std::env::var("PREFALL_KFALL").map(|v| v.parse().unwrap_or(4)) {
        dataset_cfg.kfall_subjects = n;
    }
    if let Ok(n) = std::env::var("PREFALL_SELF").map(|v| v.parse().unwrap_or(4)) {
        dataset_cfg.self_collected_subjects = n;
    }
    let epochs = std::env::var("PREFALL_EPOCHS")
        .ok()
        .map(|v| v.parse().unwrap_or(8));

    phase("train");
    let mut trained = TrainedCnn::train(&dataset_cfg, epochs, 7, rec.as_ref());
    let test_x: Vec<Vec<f32>> = trained
        .test_set
        .x
        .iter()
        .map(|x| trained.norm.apply(x))
        .collect();
    let test_labels = trained.test_set.y.clone();

    // Quantize and compare.
    phase("quantize");
    let qnet = trained.quantize();
    let TrainedCnn {
        dataset,
        mut net,
        norm,
        ..
    } = trained;
    let float_probs = predict_proba(&mut net, &test_x);
    let quant_probs: Vec<f32> = test_x.iter().map(|x| qnet.predict_proba(x)).collect();
    let float_m =
        TableMetrics::from_confusion(&Confusion::from_probs(&float_probs, &test_labels, 0.5));
    let quant_m =
        TableMetrics::from_confusion(&Confusion::from_probs(&quant_probs, &test_labels, 0.5));
    let agreement = float_probs
        .iter()
        .zip(&quant_probs)
        .filter(|(f, q)| (**f >= 0.5) == (**q >= 0.5))
        .count() as f64
        / float_probs.len().max(1) as f64
        * 100.0;
    registry.gauge_set("edge.float_f1_pct", float_m.f1);
    registry.gauge_set("edge.int8_f1_pct", quant_m.f1);
    registry.gauge_set("edge.float_int8_agreement_pct", agreement);
    registry.gauge_set("edge.params", net.param_count() as f64);

    println!("=== §IV-C (reproduced): quantization ===");
    println!("model parameters        : {}", net.param_count());
    println!("float  Acc/Prec/Rec/F1  : {float_m}");
    println!("int8   Acc/Prec/Rec/F1  : {quant_m}");
    println!("float↔int8 agreement    : {agreement:.2} % of test segments");
    println!();

    // Deployment envelope.
    let target = McuTarget::stm32f722();
    let d = deploy(&qnet, &target, 40, 9).expect("fits the STM32F722");
    registry.gauge_set("edge.model_flash_kib", d.model_flash_bytes as f64 / 1024.0);
    registry.gauge_set("edge.ram_kib", d.ram_bytes as f64 / 1024.0);
    registry.gauge_set("edge.inference_ms", d.inference_ms);
    registry.gauge_set("edge.inference_jitter_ms", d.inference_jitter_ms);
    registry.gauge_set("edge.fusion_ms", d.fusion_ms);
    println!("=== §IV-C (reproduced): deployment on {} ===", target.name);
    println!(
        "model flash : {:7.2} KiB   (paper: {:.2} KiB)",
        d.model_flash_bytes as f64 / 1024.0,
        paper_edge::MODEL_KIB
    );
    println!(
        "total ram   : {:7.2} KiB   (paper: {:.2} KiB)",
        d.ram_bytes as f64 / 1024.0,
        paper_edge::RAM_KIB
    );
    println!(
        "inference   : {:7.2} ms ± {:.2} ms   (paper: {:.0} ms ± {:.0} ms)",
        d.inference_ms,
        d.inference_jitter_ms,
        paper_edge::INFERENCE_MS,
        paper_edge::JITTER_MS
    );
    println!(
        "fusion      : {:7.2} ms   (paper: {:.0} ms)",
        d.fusion_ms,
        paper_edge::FUSION_MS
    );
    println!(
        "deadline    : total {:.2} ms per 200 ms hop → real-time: {}",
        d.total_latency_ms(),
        if d.meets_deadline(200.0) { "yes" } else { "NO" }
    );

    let header = to_c_header(&qnet, "prefall_model");
    println!(
        "C export    : {} bytes of weights → {} KiB header ({} lines)",
        qnet.weight_blob().len(),
        header.len() / 1024,
        header.lines().count()
    );
    println!();

    // Stream every trial through the quantized detector: host-side
    // per-sample latency plus the lead-time distribution against the
    // 150 ms inflation budget.
    phase("stream");
    let mut detector =
        StreamingDetector::new(qnet, norm, DetectorConfig::paper_400ms()).expect("detector");
    detector.session_mut().set_recorder(registry.clone());
    let mut monitor = QualityMonitor::new();
    let (mut falls, mut triggered_falls, mut protected, mut lead_ok, mut false_act) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for trial in dataset.trials() {
        let outcome = run_on_trial(&mut detector, trial, rec.as_ref());
        monitor.record_trial(trial, &outcome, rec.as_ref());
        monitor.record_guard(detector.session().guard_status());
        monitor.publish(rec.as_ref());
        if trial.is_fall() {
            falls += 1;
            if outcome.triggered_at.is_some() {
                triggered_falls += 1;
            }
            if outcome.protected == Some(true) {
                protected += 1;
            }
            if outcome.lead_time_ms.unwrap_or(f64::NEG_INFINITY) >= AIRBAG_INFLATION_MS {
                lead_ok += 1;
            }
        } else if outcome.false_activation {
            false_act += 1;
        }
    }

    let snap = registry.snapshot();
    let push = snap.histograms.get("detector.push_sample_seconds");
    let lead = snap.histograms.get("detector.lead_time_ms");
    println!("=== streaming detector (host-side measurements) ===");
    if let Some(h) = push {
        println!(
            "push_sample : {} samples, p50 {:.1} µs  p95 {:.1} µs  p99 {:.1} µs  max {:.1} µs",
            h.count,
            h.p50 * 1e6,
            h.p95 * 1e6,
            h.p99 * 1e6,
            h.max * 1e6
        );
    }
    if let Some(h) = lead {
        println!(
            "lead time   : {} triggered falls, p50 {:.0} ms (budget {:.0} ms); {}/{} falls lead ≥ budget, {}/{} protected, {} false activations",
            h.count, h.p50, AIRBAG_INFLATION_MS, lead_ok, falls, protected, falls, false_act
        );
    }

    telemetry_out::dump(
        "edge_perf",
        &snap,
        vec![
            ("budget_ms".to_string(), JsonValue::F64(AIRBAG_INFLATION_MS)),
            ("falls".to_string(), JsonValue::U64(falls)),
            (
                "triggered_falls".to_string(),
                JsonValue::U64(triggered_falls),
            ),
            ("falls_lead_ge_budget".to_string(), JsonValue::U64(lead_ok)),
            ("falls_protected".to_string(), JsonValue::U64(protected)),
            ("false_activations".to_string(), JsonValue::U64(false_act)),
        ],
    );
}
