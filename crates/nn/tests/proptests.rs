//! Crate-local property tests: whole-network gradient checks and
//! quantization invariants across random shapes.

use prefall_nn::loss::WeightedBce;
use prefall_nn::network::Network;
use prefall_nn::quant::QuantizedNetwork;
use prefall_nn::serialize::{load_weights, save_weights};
use prefall_nn::workspace::Workspace;
use proptest::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// One workspace for every case and shape, so stale buffer contents
    /// from a previous (larger or differently shaped) network would show.
    static WS: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Packed int8 logit bits (via the shared workspace) and reference bits.
fn packed_and_reference(q: &QuantizedNetwork, x: &[f32]) -> (Option<u32>, u32) {
    let packed = WS.with(|ws| q.infer_scalar(x, &mut ws.borrow_mut()));
    (packed.map(f32::to_bits), q.forward_logit(x).to_bits())
}

/// A conv stack over `[time, ch]`: Conv1d, then an optional ReLU and an
/// optional max pool (`pool == 1` for none).
fn conv_stack(
    time: usize,
    ch: usize,
    filters: usize,
    kernel: usize,
    relu: bool,
    pool: usize,
) -> prefall_nn::network::NetworkBuilder {
    let mut b = Network::builder(vec![time, ch])
        .conv1d(filters, kernel)
        .unwrap();
    if relu {
        b = b.relu();
    }
    if pool > 1 {
        b = b.maxpool(pool).unwrap();
    }
    b
}

fn gen_input(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2000) as f32 / 1000.0 - 1.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// End-to-end gradient check of a random small MLP: perturbing any
    /// parameter changes the loss as the analytic gradient predicts.
    #[test]
    fn whole_network_gradient_check(
        in_len in 2usize..6,
        hidden in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut net = Network::builder(vec![in_len])
            .dense(hidden).unwrap()
            .relu()
            .dense(1).unwrap()
            .build(seed);
        let x = gen_input(in_len, seed ^ 0xF00D);
        let y = if seed % 2 == 0 { 1.0 } else { 0.0 };
        let loss = WeightedBce::new(2.0, 0.5);

        net.zero_grads();
        let logit = net.forward(&x)[0];
        let dl = loss.dloss_dlogit(logit, y);
        let _ = net.backward(&[dl]);

        // Collect analytic grads.
        let mut grads: Vec<Vec<f32>> = Vec::new();
        net.visit_params(&mut |p| grads.push(p.g.clone()));

        // Check a handful of parameters by finite differences.
        let eps = 1e-2f32;
        let n_blocks = grads.len();
        #[allow(clippy::needless_range_loop)]
        for bi in 0..n_blocks {
            let wi = 0; // first weight of each block
            let perturb = |net: &mut Network, delta: f32| {
                let mut k = 0;
                net.visit_params(&mut |p| {
                    if k == bi && !p.w.is_empty() {
                        p.w[wi] += delta;
                    }
                    k += 1;
                });
            };
            perturb(&mut net, eps);
            let lp = loss.loss(net.forward(&x)[0], y);
            perturb(&mut net, -2.0 * eps);
            let lm = loss.loss(net.forward(&x)[0], y);
            perturb(&mut net, eps);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads[bi][wi];
            prop_assert!(
                (num - ana).abs() <= 0.05 * (1.0 + num.abs()),
                "block {bi}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Weight serialisation round-trips across random architectures.
    #[test]
    fn serialization_roundtrip(
        in_len in 1usize..8,
        h1 in 1usize..8,
        seed in 0u64..1000,
    ) {
        let build = |s: u64| {
            Network::builder(vec![in_len])
                .dense(h1).unwrap()
                .relu()
                .dense(1).unwrap()
                .build(s)
        };
        let mut a = build(seed);
        let blob = save_weights(&mut a);
        let mut b = build(seed ^ 0xDEAD);
        load_weights(&mut b, &blob).unwrap();
        let x = gen_input(in_len, seed);
        prop_assert_eq!(a.forward(&x), b.forward(&x));
    }

    /// Quantized inference tracks float inference within a few quanta
    /// for in-calibration-range inputs, across random dense networks.
    #[test]
    fn quantization_error_bounded(
        in_len in 2usize..10,
        hidden in 1usize..12,
        seed in 0u64..300,
    ) {
        let mut net = Network::builder(vec![in_len])
            .dense(hidden).unwrap()
            .relu()
            .dense(1).unwrap()
            .build(seed);
        let calib: Vec<Vec<f32>> = (0..48).map(|k| gen_input(in_len, seed ^ (k + 1))).collect();
        let q = QuantizedNetwork::from_network(&mut net, &calib).unwrap();
        for x in calib.iter().take(16) {
            let fl = net.forward(x)[0];
            let ql = q.forward_logit(x);
            prop_assert!((fl - ql).abs() < 0.25, "float {fl} vs int8 {ql}");
            let (packed, reference) = packed_and_reference(&q, x);
            prop_assert_eq!(packed, Some(reference));
        }
    }

    /// The packed int8 engine equals the reference bit for bit across
    /// random shapes that hit every tail: filter counts off the row
    /// block, odd `kernel·channels`, odd conv lengths under pool 2 and
    /// 3, convs without ReLU or pool, the three-branch split, the
    /// single-branch conv stack, a dense-only MLP and a pool on the
    /// raw input — on inputs far
    /// outside the calibration range as well as inside it.
    #[test]
    fn packed_int8_equals_reference(
        time in 6usize..20,
        ch in 1usize..4,
        filters in 1usize..11,
        kernel in 1usize..6,
        relu in 0usize..2,
        pool in 1usize..4,
        hidden in 1usize..10,
        scale in 1.0f32..40.0,
        seed in 0u64..1000,
    ) {
        prop_assume!(kernel + pool <= time);
        let relu = relu == 1;
        let head = |b: prefall_nn::network::NetworkBuilder| {
            b.dense(hidden).unwrap().relu().dense(1).unwrap().build(seed)
        };
        let split = Network::builder(vec![time, 3 * ch])
            .split((0..3).map(|i| {
                ((i * ch..(i + 1) * ch).collect(), conv_stack(time, ch, filters, kernel, relu, pool))
            }).collect())
            .unwrap();
        let single = conv_stack(time, ch, filters, kernel, relu, pool);
        let mlp = Network::builder(vec![time * ch]);
        // A pool straight on the input: the one max pool no conv absorbs.
        let pooled = Network::builder(vec![time, ch]).maxpool(pool.max(2)).unwrap();
        let layouts = [(split, 3 * ch), (single, ch), (mlp, ch), (pooled, ch)];
        for (builder, channels) in layouts {
            let mut net = head(builder);
            let len = time * channels;
            let calib: Vec<Vec<f32>> = (0..24).map(|k| gen_input(len, seed ^ (k + 7))).collect();
            let q = QuantizedNetwork::from_network(&mut net, &calib).unwrap();
            let mut wide = gen_input(len, seed ^ 0xBEEF);
            wide.iter_mut().for_each(|v| *v *= scale);
            let mut extreme = gen_input(len, seed ^ 0xCAFE);
            extreme[0] = 1e30;
            extreme[len - 1] = -1e30;
            for x in calib.iter().take(4).chain([&wide, &extreme]) {
                let (packed, reference) = packed_and_reference(&q, x);
                prop_assert_eq!(packed, Some(reference), "{} inputs", len);
            }
        }
    }

    /// Training a single step with zero learning-rate-like gradient
    /// scale leaves outputs unchanged (scale_grads(0) sanity).
    #[test]
    fn zero_scaled_gradients_do_not_move_weights(seed in 0u64..200) {
        let mut net = Network::builder(vec![4]).dense(3).unwrap().dense(1).unwrap().build(seed);
        let x = gen_input(4, seed);
        let before = net.forward(&x);
        net.zero_grads();
        let _ = net.forward(&x);
        let _ = net.backward(&[1.0]);
        net.scale_grads(0.0);
        let mut opt = prefall_nn::optim::Optimizer::sgd(0.1);
        opt.begin_step();
        net.visit_params(&mut |p| opt.step(p));
        prop_assert_eq!(net.forward(&x), before);
    }
}
