//! §IV-C inference kernels: float and int8 forward passes of every
//! model at the paper's window sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use prefall_core::models::ModelKind;
use prefall_nn::quant::QuantizedNetwork;
use prefall_nn::workspace::Workspace;
use std::hint::black_box;

fn segment(window: usize) -> Vec<f32> {
    (0..window * 9)
        .map(|i| ((i * 37) % 100) as f32 / 50.0 - 1.0)
        .collect()
}

fn calib(window: usize) -> Vec<Vec<f32>> {
    (0..32)
        .map(|k| {
            (0..window * 9)
                .map(|i| (((i + 13 * k) * 37) % 100) as f32 / 50.0 - 1.0)
                .collect()
        })
        .collect()
}

fn bench_float_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("float_inference");
    group.sample_size(40);
    for window in [20usize, 30, 40] {
        let mut net = ModelKind::ProposedCnn.build(window, 9, 1).expect("build");
        let x = segment(window);
        group.bench_function(format!("cnn_{}ms", window * 10), |b| {
            b.iter(|| black_box(net.forward(black_box(&x))))
        });
    }
    for kind in [ModelKind::Mlp, ModelKind::Lstm, ModelKind::ConvLstm2d] {
        let mut net = kind.build(40, 9, 1).expect("build");
        let x = segment(40);
        group.bench_function(format!("{:?}_400ms", kind).to_lowercase(), |b| {
            b.iter(|| black_box(net.forward(black_box(&x))))
        });
    }
    group.finish();
}

fn bench_int8_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("int8_inference");
    group.sample_size(40);
    for window in [20usize, 30, 40] {
        let mut net = ModelKind::ProposedCnn.build(window, 9, 1).expect("build");
        let q = QuantizedNetwork::from_network(&mut net, &calib(window)).expect("quantize");
        let x = segment(window);
        group.bench_function(format!("cnn_{}ms", window * 10), |b| {
            b.iter(|| black_box(q.forward_logit(black_box(&x))))
        });
        // The packed engine the detector runs, on a warmed workspace.
        let mut ws = Workspace::new();
        group.bench_function(format!("cnn_{}ms_packed", window * 10), |b| {
            b.iter(|| black_box(q.infer_scalar(black_box(&x), &mut ws)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_float_inference, bench_int8_inference);
criterion_main!(benches);
