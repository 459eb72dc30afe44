//! §III-A preprocessing kernels: Butterworth filtering, sensor fusion,
//! segmentation, and the full trial→segments pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use prefall_core::pipeline::{Pipeline, PipelineConfig};
use prefall_dsp::butterworth::Butterworth;
use prefall_dsp::fusion::ComplementaryFilter;
use prefall_dsp::segment::{Overlap, Segmentation};
use prefall_imu::dataset::Dataset;
use prefall_telemetry::NoopRecorder;
use std::hint::black_box;

fn one_second_channel() -> Vec<f32> {
    (0..100).map(|i| (i as f32 * 0.31).sin()).collect()
}

fn bench_filtering(c: &mut Criterion) {
    let design = Butterworth::lowpass(4, 5.0, 100.0).expect("design");
    let xs = one_second_channel();
    c.bench_function("butterworth4_1s_channel", |b| {
        let mut f = design.to_filter();
        b.iter(|| {
            f.reset();
            black_box(f.process_slice(black_box(&xs)))
        })
    });
}

fn bench_fusion(c: &mut Criterion) {
    let a = one_second_channel();
    c.bench_function("complementary_fusion_1s", |b| {
        let mut fusion = ComplementaryFilter::new(100.0, 0.98);
        b.iter(|| {
            fusion.reset();
            black_box(fusion.process_channels([&a, &a, &a], [&a, &a, &a]))
        })
    });
}

fn bench_segmentation(c: &mut Criterion) {
    let seg = Segmentation::new(40, Overlap::Half).expect("segmentation");
    let channels: Vec<Vec<f32>> = (0..9)
        .map(|k| {
            (0..1000)
                .map(|i| ((i + k * 31) as f32 * 0.17).sin())
                .collect()
        })
        .collect();
    c.bench_function("segment_extract_10s_9ch", |b| {
        b.iter(|| black_box(seg.extract(black_box(&channels))))
    });
}

fn bench_full_pipeline(c: &mut Criterion) {
    let ds = Dataset::combined_scaled(0, 1, 5).expect("dataset");
    let trial = ds.trials()[5].clone();
    let pipeline = Pipeline::new(PipelineConfig::paper_400ms()).expect("pipeline");
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(30);
    group.bench_function("trial_to_segments_400ms", |b| {
        b.iter(|| black_box(pipeline.segments_for_trial(black_box(&trial), &NoopRecorder)))
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset");
    group.sample_size(10);
    group.bench_function("generate_one_subject", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(Dataset::combined_scaled(0, 1, seed).expect("dataset"))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_filtering,
    bench_fusion,
    bench_segmentation,
    bench_full_pipeline,
    bench_generation
);
criterion_main!(benches);
