//! Training-side kernels: one epoch of each model on a small balanced
//! segment set, plus the fall-segment augmentations.

use criterion::{criterion_group, criterion_main, Criterion};
use prefall_core::augment::{time_warp_segment, window_warp_segment};
use prefall_core::models::ModelKind;
use prefall_imu::rng::GenRng;
use prefall_nn::loss::WeightedBce;
use prefall_nn::optim::OptimizerKind;
use prefall_nn::train::{train, DataRef, TrainConfig};
use std::hint::black_box;

fn toy_segments(n: usize, window: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
    let xs: Vec<Vec<f32>> = (0..n)
        .map(|k| {
            (0..window * 9)
                .map(|i| {
                    (((i * 7 + k * 131) % 97) as f32 / 48.0 - 1.0)
                        * if k % 5 == 0 { 2.0 } else { 1.0 }
                })
                .collect()
        })
        .collect();
    let ys: Vec<f32> = (0..n).map(|k| if k % 5 == 0 { 1.0 } else { 0.0 }).collect();
    (xs, ys)
}

fn bench_one_epoch(c: &mut Criterion) {
    let (xs, ys) = toy_segments(128, 40);
    let mut group = c.benchmark_group("train_one_epoch_128seg");
    group.sample_size(10);
    for kind in ModelKind::ALL {
        group.bench_function(format!("{kind:?}").to_lowercase(), |b| {
            b.iter(|| {
                let mut net = kind.build(40, 9, 3).expect("build");
                let cfg = TrainConfig {
                    epochs: 1,
                    batch_size: 32,
                    learning_rate: 1e-3,
                    optimizer: OptimizerKind::Adam,
                    patience: None,
                    seed: 1,
                };
                black_box(
                    train(
                        &mut net,
                        DataRef::new(&xs, &ys),
                        None,
                        WeightedBce::unweighted(),
                        &cfg,
                        &prefall_telemetry::NoopRecorder,
                    )
                    .expect("train"),
                )
            })
        });
    }
    group.finish();
}

fn bench_augmentation(c: &mut Criterion) {
    let seg: Vec<f32> = (0..40 * 9).map(|i| (i as f32 * 0.05).sin()).collect();
    c.bench_function("time_warp_40x9", |b| {
        let mut rng = GenRng::seed_from_u64(1);
        b.iter(|| black_box(time_warp_segment(black_box(&seg), 9, 0.25, &mut rng)))
    });
    c.bench_function("window_warp_40x9", |b| {
        let mut rng = GenRng::seed_from_u64(2);
        b.iter(|| black_box(window_warp_segment(black_box(&seg), 9, &mut rng)))
    });
}

criterion_group!(benches, bench_one_epoch, bench_augmentation);
criterion_main!(benches);
