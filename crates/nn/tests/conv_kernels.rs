//! Property tests: the optimised conv and dense kernels, and the
//! lockstep branch attribution, are **exactly** bit-identical to the
//! naive reference over random shapes, weights and inputs.
//!
//! No ULP tolerance is needed anywhere in this suite: the blocked and
//! fused kernels only interleave *independent* accumulators and never
//! reassociate a single output's sum, so every output is required to
//! match under `f32::to_bits`. (Had a kernel reassociated — e.g. a
//! horizontal-add SIMD reduction — the affected comparisons would have
//! to document a ULP bound instead; none does.)

use prefall_nn::kernels::{
    conv1d_blocked, conv1d_reference, dense_forward_packed, fused_conv_relu_maxpool,
    maxpool_forward, pack_conv_weights, pack_dense_weights,
};
use prefall_nn::layers::{Conv1d, Layer};
use prefall_nn::network::BranchStat;
use proptest::prelude::*;

fn gen_values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 4000) as f32 / 1000.0 - 2.0
        })
        .collect()
}

/// [`gen_values`] with about one value in five replaced by NaN, ±inf
/// or ±0.
fn gen_special(len: usize, seed: u64) -> Vec<f32> {
    const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
    let mut v = gen_values(len, seed);
    for (i, x) in v.iter_mut().enumerate() {
        let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
        if h < 6 {
            *x = SPECIAL[h as usize % SPECIAL.len()];
        }
    }
    v
}

/// The naive per-output dot product: `bias + Σ w[o][j]·x[j]`, the sum
/// taken `j` ascending from `0.0`.
fn naive_dense(input: &[f32], w: &[f32], b: &[f32]) -> Vec<f32> {
    let in_len = input.len();
    (0..b.len())
        .map(|o| {
            let mut acc = 0.0f32;
            for j in 0..in_len {
                acc += w[o * in_len + j] * input[j];
            }
            b[o] + acc
        })
        .collect()
}

/// Conv → ReLU → max-pool composed from the reference kernels.
#[allow(clippy::too_many_arguments)]
fn composed_conv_relu_pool(
    input: &[f32],
    w: &[f32],
    b: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    pool: usize,
) -> Vec<f32> {
    let t_out = time - kernel + 1;
    let mut conv = vec![0.0f32; t_out * filters];
    conv1d_reference(input, w, b, time, in_ch, filters, kernel, &mut conv);
    let relu: Vec<f32> = conv.iter().map(|&v| v.max(0.0)).collect();
    let mut pooled = vec![0.0f32; t_out / pool * filters];
    maxpool_forward(&relu, filters, pool, &mut pooled);
    pooled
}

fn stat_bits(s: &BranchStat) -> (u32, u32, u32, u32) {
    (
        s.output_len,
        s.l2.to_bits(),
        s.mean_abs.to_bits(),
        s.peak.to_bits(),
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked conv == naive conv, bit for bit, over random shapes that
    /// exercise every combination of time/filter block tails.
    #[test]
    fn blocked_conv_is_bit_identical_to_reference(
        time in 1usize..14,
        in_ch in 1usize..7,
        filters in 1usize..=34,
        kernel in 1usize..6,
        seed in 0u64..1000,
    ) {
        let kernel = kernel.min(time);
        let t_out = time - kernel + 1;
        let input = gen_values(time * in_ch, seed);
        let w = gen_values(filters * kernel * in_ch, seed ^ 0xBEEF);
        let b = gen_values(filters, seed ^ 0xCAFE);
        let mut reference = vec![0.0f32; t_out * filters];
        let mut blocked = vec![0.0f32; t_out * filters];
        conv1d_reference(&input, &w, &b, time, in_ch, filters, kernel, &mut reference);
        let packed = pack_conv_weights(&w, in_ch, filters, kernel);
        conv1d_blocked(&input, &packed, &b, time, in_ch, filters, kernel, &mut blocked);
        prop_assert_eq!(bits(&reference), bits(&blocked));
    }

    /// Fused conv+ReLU+maxpool == the three ops composed from the
    /// reference kernels, bit for bit, over filter counts that give a
    /// lone group, pairs of groups and a partial last group, and pool
    /// widths odd and even.
    #[test]
    fn fused_kernel_is_bit_identical_to_composition(
        time in 2usize..16,
        in_ch in 1usize..6,
        filters in 1usize..=34,
        kernel in 1usize..5,
        pool in 1usize..=4,
        seed in 0u64..1000,
    ) {
        let kernel = kernel.min(time);
        let pool = pool.min(time - kernel + 1);
        let input = gen_values(time * in_ch, seed);
        let w = gen_values(filters * kernel * in_ch, seed ^ 0x1234);
        let b = gen_values(filters, seed ^ 0x5678);
        let want = composed_conv_relu_pool(&input, &w, &b, time, in_ch, filters, kernel, pool);
        let mut fused = vec![0.0f32; want.len()];
        fused_conv_relu_maxpool(&input, &w, &b, time, in_ch, filters, kernel, pool, &mut fused);
        prop_assert_eq!(bits(&want), bits(&fused));
    }

    /// `Conv1d::forward` (which dispatches to the blocked kernel)
    /// agrees bit for bit with the raw reference kernel on the layer's
    /// own weights — the layer-level view of the same guarantee.
    #[test]
    fn conv_layer_forward_is_bit_identical_to_reference_kernel(
        time in 2usize..12,
        in_ch in 1usize..5,
        filters in 1usize..8,
        kernel in 1usize..4,
        seed in 0u64..500,
    ) {
        let kernel = kernel.min(time);
        let t_out = time - kernel + 1;
        let mut layer = Conv1d::new(0, time, in_ch, filters, kernel).unwrap();
        let mut rng = prefall_nn::init::InitRng::new(seed);
        layer.init_weights(&mut rng);
        let input = gen_values(time * in_ch, seed ^ 0xABCD);
        let got = layer.forward(&input);

        // `visit_params` yields weights then bias, in that order.
        let mut params: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |p| params.push(p.w.clone()));
        let (w, b) = (params[0].clone(), params[1].clone());
        let mut want = vec![0.0f32; t_out * filters];
        conv1d_reference(&input, &w, &b, time, in_ch, filters, kernel, &mut want);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The packed dense kernel matches the naive per-output dot
    /// product, bit for bit, over output counts that give every mix of
    /// four-group passes, tail groups and a partial last group.
    #[test]
    fn dense_kernel_is_bit_identical_to_naive(
        in_len in 1usize..=40,
        out_len in 1usize..=80,
        seed in 0u64..1000,
    ) {
        let input = gen_values(in_len, seed);
        let w = gen_values(out_len * in_len, seed ^ 0x9999);
        let b = gen_values(out_len, seed ^ 0x7777);
        let packed = pack_dense_weights(&w, in_len, out_len);
        let mut got = vec![0.0f32; out_len];
        dense_forward_packed(&input, &packed, &b, &mut got);
        prop_assert_eq!(bits(&got), bits(&naive_dense(&input, &w, &b)));
    }

    /// One lockstep pass over a split's concatenated output gives each
    /// branch the stats `from_slice` gives it alone, bit for bit, for
    /// 1–5 branches of unequal length (empty ones included) with NaN,
    /// ±inf and ±0 among the activations.
    #[test]
    fn lockstep_branch_stats_match_from_slice(
        lens in proptest::collection::vec(0usize..40, 1..=5),
        seed in 0u64..1000,
    ) {
        let xs = gen_special(lens.iter().sum(), seed);
        let mut got = Vec::new();
        BranchStat::extend_from_concat(&mut got, &xs, lens.iter().copied());
        let mut offset = 0;
        let want: Vec<_> = lens
            .iter()
            .map(|&len| {
                offset += len;
                stat_bits(&BranchStat::from_slice(&xs[offset - len..offset]))
            })
            .collect();
        prop_assert_eq!(got.iter().map(stat_bits).collect::<Vec<_>>(), want);
    }
}

/// NaN and ±inf inputs and weights flow through every fast kernel as
/// they flow through its reference: same bits out, except that a NaN
/// output only has to be NaN. Rust leaves the sign and payload of a NaN
/// result unspecified (the compiler may commute an add whose operands
/// are two different NaNs), so the comparison maps every NaN to one.
#[test]
fn non_finite_values_match_the_references_bitwise() {
    let (time, in_ch, filters, kernel) = (12, 3, 20, 3);
    let t_out = time - kernel + 1;
    let canon = |v: &[f32]| -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    };
    for seed in 0..16u64 {
        let input = gen_special(time * in_ch, seed);
        let w = gen_special(filters * kernel * in_ch, seed ^ 0x1234);
        let b = gen_special(filters, seed ^ 0x5678);

        let mut want = vec![0.0f32; t_out * filters];
        conv1d_reference(&input, &w, &b, time, in_ch, filters, kernel, &mut want);
        let mut got = vec![0.0f32; want.len()];
        let packed = pack_conv_weights(&w, in_ch, filters, kernel);
        conv1d_blocked(&input, &packed, &b, time, in_ch, filters, kernel, &mut got);
        assert_eq!(canon(&want), canon(&got), "blocked conv, seed {seed}");

        for pool in 1..=4 {
            let want = composed_conv_relu_pool(&input, &w, &b, time, in_ch, filters, kernel, pool);
            let mut got = vec![0.0f32; want.len()];
            fused_conv_relu_maxpool(&input, &w, &b, time, in_ch, filters, kernel, pool, &mut got);
            assert_eq!(bits(&want), bits(&got), "fused, seed {seed}, pool {pool}");
        }

        let (in_len, out_len) = (time * in_ch, 37);
        let wd = gen_special(in_len * out_len, seed ^ 0x9999);
        let bd = gen_special(out_len, seed ^ 0x7777);
        let mut got = vec![0.0f32; out_len];
        dense_forward_packed(
            &input,
            &pack_dense_weights(&wd, in_len, out_len),
            &bd,
            &mut got,
        );
        assert_eq!(
            canon(&naive_dense(&input, &wd, &bd)),
            canon(&got),
            "dense, seed {seed}"
        );
    }
}
