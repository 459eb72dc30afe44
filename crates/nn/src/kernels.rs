//! Hand-tuned inference kernels, bit-compatible with the layer
//! implementations they accelerate.
//!
//! Every kernel here preserves the **per-output accumulation order** of
//! the naive layer code: each output starts from its bias (dense: from
//! `0.0`, the bias added last) and adds `w[j] * x[j]` for `j`
//! ascending, ReLU is `x.max(0.0)`, and max-pool compares candidates in
//! tap order starting from `f32::NEG_INFINITY`. Register blocking only
//! interleaves *independent* accumulators, so no float operation is
//! reassociated and every kernel is exactly `f32::to_bits`-identical to
//! its reference — the blackbox replay suite and `forward_traced_into`
//! rely on this, and the proptests in `crates/nn/tests/conv_kernels.rs`
//! assert it over random shapes. The one latitude is a NaN output's
//! sign and payload, which Rust leaves unspecified; it is NaN in both.
//!
//! The fast kernels read weights from a pack ([`pack_conv_weights`],
//! [`pack_dense_weights`]): groups of eight outputs, their weights side
//! by side per input index and zero-padded to a whole group, so the
//! inner loop is eight-lane multiply-then-add with no remainder path.
//! Each eight-lane group is two four-wide SIMD chains, and a float add
//! takes several cycles, so one group alone waits on its own latency.
//! The kernels therefore feed several groups (and conv time steps) from
//! each input load: the dense kernel four groups per pass over the
//! input, the conv kernels two groups × two time steps. The pack
//! interleaves the groups a pass shares, so a pass reads its weights as
//! one contiguous run, zipped with the input without an index check.
//!
//! The [`set_reference_kernels`] switch forces the naive reference
//! paths process-wide. `crates/core/tests/thread_determinism.rs` runs
//! the whole experiment grid (training and inference) under it and
//! asserts the report equals the fast run's bit for bit; the
//! benchmark's `stream-float` oracle does the same per window.

use std::sync::atomic::{AtomicBool, Ordering};

/// When `true`, [`Conv1d::forward`](crate::layers::Conv1d) and the
/// workspace inference path fall back to the naive reference kernels.
static REFERENCE_KERNELS: AtomicBool = AtomicBool::new(false);

/// Forces (or releases) the naive reference kernels process-wide.
/// Outputs are bit-identical either way; only speed changes.
pub fn set_reference_kernels(on: bool) {
    REFERENCE_KERNELS.store(on, Ordering::Relaxed);
}

/// Whether the naive reference kernels are currently forced.
pub fn reference_kernels() -> bool {
    REFERENCE_KERNELS.load(Ordering::Relaxed)
}

/// Outputs per weight group in a pack.
const G: usize = 8;

/// Checks a conv's input and bias lengths; returns the output steps.
fn check_conv_dims(
    input: &[f32],
    biases: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
) -> usize {
    assert!(kernel >= 1 && kernel <= time, "conv kernel/time mismatch");
    assert_eq!(input.len(), time * in_ch, "conv input length");
    assert_eq!(biases.len(), filters, "conv bias length");
    time - kernel + 1
}

/// The naive triple loop — the reference every other conv kernel is
/// validated against. Output layout `[T_out × F]`.
#[allow(clippy::too_many_arguments)]
pub fn conv1d_reference(
    input: &[f32],
    weights: &[f32],
    biases: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    out: &mut [f32],
) {
    let t_out = check_conv_dims(input, biases, time, in_ch, filters, kernel);
    let (c, k) = (in_ch, kernel);
    assert_eq!(weights.len(), filters * k * c, "conv weight length");
    assert_eq!(out.len(), t_out * filters, "conv output length");
    for t in 0..t_out {
        let window = &input[t * c..(t + k) * c];
        for f in 0..filters {
            let wf = &weights[f * k * c..(f + 1) * k * c];
            let mut acc = biases[f];
            for (wv, xv) in wf.iter().zip(window) {
                acc += wv * xv;
            }
            out[t * filters + f] = acc;
        }
    }
}

/// Transposes a row-major `[rows × cols]` matrix into groups of eight
/// rows, the last group zero-padded to eight, for kernels that run `B`
/// groups per pass. Groups go in blocks of `B`, and within a block the
/// groups' eight lanes sit side by side per column: column `j` of row
/// `(b·B + n)·8 + l` is at `b·B·cols·8 + (j·B + n)·8 + l`. Groups past
/// the last whole block follow one at a time (`B = 1`).
fn pack_rows<const B: usize>(weights: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    assert_eq!(weights.len(), rows * cols, "weight length");
    let blocked = rows.div_ceil(G) / B * B;
    let mut packed = vec![0.0f32; rows.div_ceil(G) * cols * G];
    for r in 0..rows {
        let g = r / G;
        let (block, width) = if g < blocked { (g / B * B, B) } else { (g, 1) };
        let dst = &mut packed[block * cols * G + (g - block) * G + r % G..];
        for (j, &w) in weights[r * cols..(r + 1) * cols].iter().enumerate() {
            dst[j * width * G] = w;
        }
    }
    packed
}

/// Filter groups per pass of the conv kernels, and per block of their
/// pack.
const CONV_BLOCK: usize = 2;

/// Output groups per pass of the dense kernel, and per block of its
/// pack.
const DENSE_BLOCK: usize = 4;

/// Packs a conv weight tensor `[F × K × C]` for the blocked kernels:
/// `⌈F / 8⌉` groups of eight filters, the last one's missing filters
/// zero, tap-major, pairs of groups interleaved per tap (see
/// `pack_rows`). One pass over `F·K·C` floats; layers cache the result
/// against a weight revision so steady-state inference never repacks
/// (or allocates).
pub fn pack_conv_weights(weights: &[f32], in_ch: usize, filters: usize, kernel: usize) -> Vec<f32> {
    pack_rows::<CONV_BLOCK>(weights, filters, kernel * in_ch)
}

/// Packs a row-major `[out × in]` dense weight matrix for
/// [`dense_forward_packed`]: `⌈out / 8⌉` groups of eight outputs, the
/// last one zero-padded, input-major, blocks of four groups interleaved
/// per input index (see `pack_rows`). Packing costs one pass over the
/// matrix — the same work as a single mat-vec — so it only pays when
/// the pack is reused across many forward calls (the
/// [`crate::layers::Dense`] layer caches it against a weight revision
/// counter).
pub fn pack_dense_weights(weights: &[f32], in_len: usize, out_len: usize) -> Vec<f32> {
    pack_rows::<DENSE_BLOCK>(weights, out_len, in_len)
}

/// The eight biases of the group starting at output `o`; lanes past the
/// last output are zero (their results are never stored).
#[inline(always)]
fn bias_lanes(biases: &[f32], o: usize) -> [f32; G] {
    let mut lanes = [0.0f32; G];
    let src = &biases[o..biases.len().min(o + G)];
    lanes[..src.len()].copy_from_slice(src);
    lanes
}

/// The block of `N` groups from group `g0` of a [`pack_rows`] pack
/// with `len` rows per group: per row, the groups' eight lanes each.
#[inline(always)]
fn block_rows<const N: usize>(rows: &[[f32; G]], g0: usize, len: usize) -> &[[[f32; G]; N]] {
    rows[g0 * len..][..N * len].as_chunks::<N>().0
}

/// Conv outputs of `N` filter groups at two time steps, whose K·C
/// patches are `x0` and `x1`: every lane starts from its bias and adds
/// `w[j]·x[j]` for `j` ascending, `4·N` independent SIMD chains sharing
/// each weight load.
#[inline(always)]
fn conv_two_steps<const N: usize>(
    w: &[[[f32; G]; N]],
    b: &[[f32; G]; N],
    x0: &[f32],
    x1: &[f32],
) -> ([[f32; G]; N], [[f32; G]; N]) {
    let (mut a0, mut a1) = (*b, *b);
    for ((&v0, &v1), wj) in x0.iter().zip(x1).zip(w) {
        for n in 0..N {
            for l in 0..G {
                a0[n][l] += wj[n][l] * v0;
                a1[n][l] += wj[n][l] * v1;
            }
        }
    }
    (a0, a1)
}

/// Register-blocked conv over a [`pack_conv_weights`] pack: the
/// training forward's kernel (the layer caches the pack). Two filter
/// groups × two time steps per pass over the K·C patch; because the
/// input is time-major, the patch for step `t` is the contiguous slice
/// `input[t·C .. t·C + K·C]`, so im2col needs no materialisation. Each
/// lane is one filter's own accumulator summing `j` in ascending order
/// from its bias, and Rust never fuses multiply-add, so every output's
/// rounding sequence is exactly the reference chain.
///
/// Bit-identical to [`conv1d_reference`].
#[allow(clippy::too_many_arguments)]
pub fn conv1d_blocked(
    input: &[f32],
    packed: &[f32],
    biases: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    out: &mut [f32],
) {
    let t_out = check_conv_dims(input, biases, time, in_ch, filters, kernel);
    assert_eq!(out.len(), t_out * filters, "conv output length");
    let kc = kernel * in_ch;
    let groups = filters.div_ceil(G);
    assert_eq!(packed.len(), groups * kc * G, "conv pack length");
    let (rows, _) = packed.as_chunks::<G>();
    let blocked = groups / CONV_BLOCK * CONV_BLOCK;
    for g in (0..blocked).step_by(CONV_BLOCK) {
        let w = block_rows::<CONV_BLOCK>(rows, g, kc);
        blocked_groups(input, w, biases, g, in_ch, kc, t_out, out);
    }
    for g in blocked..groups {
        blocked_groups::<1>(
            input,
            block_rows(rows, g, kc),
            biases,
            g,
            in_ch,
            kc,
            t_out,
            out,
        );
    }
}

/// [`conv1d_blocked`] for the `N` filter groups from `g0`, two steps at
/// a time; at an odd last step the second chain repeats it unstored.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn blocked_groups<const N: usize>(
    input: &[f32],
    w: &[[[f32; G]; N]],
    biases: &[f32],
    g0: usize,
    c: usize,
    kc: usize,
    t_out: usize,
    out: &mut [f32],
) {
    let filters = biases.len();
    let b: [[f32; G]; N] = std::array::from_fn(|n| bias_lanes(biases, (g0 + n) * G));
    for t in (0..t_out).step_by(2) {
        let t1 = (t + 1).min(t_out - 1);
        let (a0, a1) = conv_two_steps(w, &b, &input[t * c..][..kc], &input[t1 * c..][..kc]);
        for n in 0..N {
            let f = (g0 + n) * G;
            let m = (filters - f).min(G);
            out[t * filters + f..][..m].copy_from_slice(&a0[n][..m]);
            out[t1 * filters + f..][..m].copy_from_slice(&a1[n][..m]);
        }
    }
}

/// Fused conv + bias + ReLU + max-pool inference kernel: the pooled
/// activation is produced without materialising the conv or ReLU
/// planes. Output layout `[(T_out / pool) × F]` — conv steps past the
/// last full pool window are skipped, exactly as the pool layer drops
/// them. Packs the weights per call; the streaming path uses
/// [`fused_conv_relu_maxpool_packed`] with the layer's cached pack.
///
/// Bit-identical to `Conv1d → Relu → MaxPool1d` applied in sequence.
#[allow(clippy::too_many_arguments)]
pub fn fused_conv_relu_maxpool(
    input: &[f32],
    weights: &[f32],
    biases: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    pool: usize,
    out: &mut [f32],
) {
    let packed = pack_conv_weights(weights, in_ch, filters, kernel);
    fused_conv_relu_maxpool_packed(
        input, &packed, biases, time, in_ch, filters, kernel, pool, out,
    );
}

/// [`fused_conv_relu_maxpool`] against a caller-provided
/// [`pack_conv_weights`] pack — the allocation-free form the streaming
/// workspace path uses with the layer's cached pack. Two filter groups
/// × two pool taps per pass over the K·C patch; each pool window's
/// running max starts at `-inf` and takes its taps, through ReLU, in
/// tap order, whatever the pool width.
#[allow(clippy::too_many_arguments)]
pub fn fused_conv_relu_maxpool_packed(
    input: &[f32],
    packed: &[f32],
    biases: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    pool: usize,
    out: &mut [f32],
) {
    let t_out = check_conv_dims(input, biases, time, in_ch, filters, kernel);
    assert!(pool >= 1 && pool <= t_out, "pool width out of range");
    let p_out = t_out / pool;
    assert_eq!(out.len(), p_out * filters, "fused output length");
    let kc = kernel * in_ch;
    let groups = filters.div_ceil(G);
    assert_eq!(packed.len(), groups * kc * G, "conv pack length");
    let (rows, _) = packed.as_chunks::<G>();
    let blocked = groups / CONV_BLOCK * CONV_BLOCK;
    for g in (0..blocked).step_by(CONV_BLOCK) {
        let w = block_rows::<CONV_BLOCK>(rows, g, kc);
        fused_groups(input, w, biases, g, in_ch, kc, pool, out);
    }
    for g in blocked..groups {
        fused_groups::<1>(
            input,
            block_rows(rows, g, kc),
            biases,
            g,
            in_ch,
            kc,
            pool,
            out,
        );
    }
}

/// [`fused_conv_relu_maxpool_packed`] for the `N` filter groups from
/// `g0`. Taps go two at a time; at an odd pool width the last pair's
/// second chain repeats the last tap and is not folded.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fused_groups<const N: usize>(
    input: &[f32],
    w: &[[[f32; G]; N]],
    biases: &[f32],
    g0: usize,
    c: usize,
    kc: usize,
    pool: usize,
    out: &mut [f32],
) {
    let filters = biases.len();
    let b: [[f32; G]; N] = std::array::from_fn(|n| bias_lanes(biases, (g0 + n) * G));
    for (po, dst) in out.chunks_exact_mut(filters).enumerate() {
        let mut best = [[f32::NEG_INFINITY; G]; N];
        for s in (0..pool).step_by(2) {
            let t0 = po * pool + s;
            let t1 = po * pool + (s + 1).min(pool - 1);
            let (a0, a1) = conv_two_steps(w, &b, &input[t0 * c..][..kc], &input[t1 * c..][..kc]);
            fold_relu_max(&mut best, &a0);
            if t1 > t0 {
                fold_relu_max(&mut best, &a1);
            }
        }
        for (n, bn) in best.iter().enumerate() {
            let f = (g0 + n) * G;
            let m = (filters - f).min(G);
            dst[f..][..m].copy_from_slice(&bn[..m]);
        }
    }
}

/// One pool tap into the running max: ReLU, then `>` as the pool layer
/// compares, written as a select so the lanes vectorise without a
/// branch each.
#[inline(always)]
fn fold_relu_max<const N: usize>(best: &mut [[f32; G]; N], tap: &[[f32; G]; N]) {
    for (bn, an) in best.iter_mut().zip(tap) {
        for (b, &a) in bn.iter_mut().zip(an) {
            let r = a.max(0.0);
            *b = if r > *b { r } else { *b };
        }
    }
}

/// The naive dense loop — the reference the packed kernel is validated
/// against: `out[o] = bias[o] + Σ w[o][j]·x[j]`, the sum taken `j`
/// ascending from `0.0`. Weights row-major `[out × in]`.
pub fn dense_reference(input: &[f32], weights: &[f32], biases: &[f32], out: &mut [f32]) {
    let in_len = input.len();
    assert_eq!(weights.len(), in_len * out.len(), "dense weight length");
    assert_eq!(biases.len(), out.len(), "dense bias length");
    for (o, y) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for (wv, xv) in weights[o * in_len..(o + 1) * in_len].iter().zip(input) {
            acc += wv * xv;
        }
        *y = biases[o] + acc;
    }
}

/// Dense (fully connected) inference over a [`pack_dense_weights`]
/// pack, into a caller-provided buffer: four eight-output groups per
/// pass over the input, then the tail groups one at a time. Each lane
/// is one output's own accumulator summing `j` ascending from `0.0`
/// with the bias added last, so the bits match [`dense_reference`]
/// exactly.
pub fn dense_forward_packed(input: &[f32], packed: &[f32], biases: &[f32], out: &mut [f32]) {
    let in_len = input.len();
    assert_eq!(biases.len(), out.len(), "dense bias length");
    let groups = out.len().div_ceil(G);
    assert_eq!(packed.len(), groups * in_len * G, "dense pack length");
    let (rows, _) = packed.as_chunks::<G>();
    let blocked = groups / DENSE_BLOCK * DENSE_BLOCK;
    for g in (0..blocked).step_by(DENSE_BLOCK) {
        dense_block::<DENSE_BLOCK>(input, block_rows(rows, g, in_len), biases, g, out);
    }
    for g in blocked..groups {
        dense_block::<1>(input, block_rows(rows, g, in_len), biases, g, out);
    }
}

/// `N` output groups from group `g0` in one pass over the input.
#[inline(always)]
fn dense_block<const N: usize>(
    input: &[f32],
    w: &[[[f32; G]; N]],
    biases: &[f32],
    g0: usize,
    out: &mut [f32],
) {
    let mut a = [[0.0f32; G]; N];
    for (&v, wj) in input.iter().zip(w) {
        for n in 0..N {
            for l in 0..G {
                a[n][l] += wj[n][l] * v;
            }
        }
    }
    for (n, acc) in a.iter().enumerate() {
        let o = (g0 + n) * G;
        let b = bias_lanes(biases, o);
        let dst = &mut out[o..biases.len().min(o + G)];
        for ((y, &bl), &al) in dst.iter_mut().zip(&b).zip(acc) {
            *y = bl + al;
        }
    }
}

/// Standalone max-pool into a caller-provided buffer. Bit-identical to
/// `MaxPool1d::forward` (same `>` comparisons in tap order).
pub fn maxpool_forward(input: &[f32], ch: usize, pool: usize, out: &mut [f32]) {
    assert!(ch > 0 && pool > 0, "pool dims must be positive");
    let t_out = out.len() / ch;
    assert_eq!(out.len(), t_out * ch, "pool output length");
    assert!(input.len() >= t_out * pool * ch, "pool input too short");
    for to in 0..t_out {
        for c in 0..ch {
            let mut best = f32::NEG_INFINITY;
            for k in 0..pool {
                let v = input[(to * pool + k) * ch + c];
                if v > best {
                    best = v;
                }
            }
            out[to * ch + c] = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1u64 << 23) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn blocked_matches_reference_bitwise_on_odd_shapes() {
        // Shapes chosen to hit every block tail: odd t_out, a lone or
        // partial filter group.
        for (time, c, f, k) in [
            (7, 3, 5, 2),
            (9, 1, 4, 3),
            (4, 2, 7, 4),
            (5, 6, 1, 5),
            (8, 2, 20, 3),
        ] {
            let input = pseudo(time * c, 11);
            let w = pseudo(f * k * c, 22);
            let b = pseudo(f, 33);
            let t_out = time - k + 1;
            let mut reference = vec![0.0f32; t_out * f];
            let mut blocked = vec![0.0f32; t_out * f];
            conv1d_reference(&input, &w, &b, time, c, f, k, &mut reference);
            let packed = pack_conv_weights(&w, c, f, k);
            conv1d_blocked(&input, &packed, &b, time, c, f, k, &mut blocked);
            let rb: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = blocked.iter().map(|v| v.to_bits()).collect();
            assert_eq!(rb, bb, "shape ({time},{c},{f},{k})");
        }
    }

    #[test]
    fn fused_matches_conv_relu_pool_composition_bitwise() {
        let (time, c, f, k, pool) = (10, 3, 6, 3, 2);
        let input = pseudo(time * c, 7);
        let w = pseudo(f * k * c, 8);
        let b = pseudo(f, 9);
        let t_out = time - k + 1;
        let mut conv = vec![0.0f32; t_out * f];
        conv1d_reference(&input, &w, &b, time, c, f, k, &mut conv);
        let relu: Vec<f32> = conv.iter().map(|&v| v.max(0.0)).collect();
        let p_out = t_out / pool;
        let mut pooled = vec![0.0f32; p_out * f];
        maxpool_forward(&relu, f, pool, &mut pooled);
        let mut fused = vec![0.0f32; p_out * f];
        fused_conv_relu_maxpool(&input, &w, &b, time, c, f, k, pool, &mut fused);
        let want: Vec<u32> = pooled.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got);
    }

    #[test]
    fn reference_mode_switch_round_trips() {
        assert!(!reference_kernels());
        set_reference_kernels(true);
        assert!(reference_kernels());
        set_reference_kernels(false);
        assert!(!reference_kernels());
    }
}
