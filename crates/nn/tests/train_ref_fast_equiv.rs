//! The factored fast training path must be bit-identical to the
//! reference path: same trained weights, same loss history, same
//! predictions. `thread_determinism` checks the same end to end, on a
//! whole experiment grid run under each kernel set. This test lives in
//! its own integration binary (own process) because it toggles the
//! process-wide kernel switch.

use prefall_nn::kernels::set_reference_kernels;
use prefall_nn::loss::WeightedBce;
use prefall_nn::network::Network;
use prefall_nn::optim::OptimizerKind;
use prefall_nn::train::{predict_proba, train, DataRef, TrainConfig};

fn wave_data(n: usize, width: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 2000) as f32 / 1000.0 - 1.0
    };
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f32> = (0..width).map(|_| next()).collect();
        let y = if x.iter().sum::<f32>() > 0.0 {
            1.0
        } else {
            0.0
        };
        xs.push(x);
        ys.push(y);
    }
    (xs, ys)
}

/// A scaled-down ProposedCnn: three channel-split conv branches feeding
/// a dense head. Exercises the aux (conv) slot path, the rank-1 dense
/// path, and the fused workspace inference.
fn cnn(width_time: usize) -> Network {
    let branch = |sel: Vec<usize>| {
        (
            sel,
            Network::builder(vec![width_time, 3])
                .conv1d(6, 3)
                .unwrap()
                .relu()
                .maxpool(2)
                .unwrap(),
        )
    };
    Network::builder(vec![width_time, 9])
        .split(vec![
            branch(vec![0, 1, 2]),
            branch(vec![3, 4, 5]),
            branch(vec![6, 7, 8]),
        ])
        .unwrap()
        .dense(16)
        .unwrap()
        .relu()
        .dense(8)
        .unwrap()
        .relu()
        .dense(1)
        .unwrap()
        .build(0x5EED)
}

fn mlp(width: usize) -> Network {
    Network::builder(vec![width])
        .dense(24)
        .unwrap()
        .relu()
        .dense(12)
        .unwrap()
        .relu()
        .dense(1)
        .unwrap()
        .build(7)
}

fn weight_bits(net: &mut Network) -> Vec<u32> {
    let mut bits = Vec::new();
    net.visit_params(&mut |p| bits.extend(p.w.iter().map(|w| w.to_bits())));
    bits
}

fn run(mut net: Network, xs: &[Vec<f32>], ys: &[f32], reference: bool) -> (Vec<u32>, Vec<u32>) {
    set_reference_kernels(reference);
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 8,
        learning_rate: 2e-3,
        optimizer: OptimizerKind::Adam,
        patience: Some(20),
        seed: 0x5EED,
    };
    let n_val = xs.len() / 4;
    let report = train(
        &mut net,
        DataRef::new(&xs[n_val..], &ys[n_val..]),
        Some(DataRef::new(&xs[..n_val], &ys[..n_val])),
        WeightedBce::balanced(
            ys.iter().filter(|&&y| y > 0.5).count().max(1),
            ys.iter().filter(|&&y| y <= 0.5).count().max(1),
        ),
        &cfg,
        &prefall_telemetry::NoopRecorder,
    )
    .expect("training succeeds");
    let mut history_bits: Vec<u32> = Vec::new();
    for e in &report.history {
        history_bits.push(e.train_loss.to_bits());
        history_bits.push(e.val_loss.to_bits());
    }
    let probs: Vec<u32> = predict_proba(&mut net, xs)
        .iter()
        .map(|p| p.to_bits())
        .collect();
    set_reference_kernels(false);
    let mut all = weight_bits(&mut net);
    all.extend(&probs);
    (all, history_bits)
}

#[test]
fn cnn_training_is_bit_identical_across_kernel_modes() {
    let (xs, ys) = wave_data(96, 14 * 9, 21);
    let (ref_bits, ref_hist) = run(cnn(14), &xs, &ys, true);
    let (fast_bits, fast_hist) = run(cnn(14), &xs, &ys, false);
    assert_eq!(ref_hist, fast_hist, "loss history diverged");
    assert_eq!(ref_bits, fast_bits, "weights or predictions diverged");
}

#[test]
fn mlp_training_is_bit_identical_across_kernel_modes() {
    let (xs, ys) = wave_data(120, 20, 33);
    let (ref_bits, ref_hist) = run(mlp(20), &xs, &ys, true);
    let (fast_bits, fast_hist) = run(mlp(20), &xs, &ys, false);
    assert_eq!(ref_hist, fast_hist, "loss history diverged");
    assert_eq!(ref_bits, fast_bits, "weights or predictions diverged");
}
