//! Hand-tuned inference kernels, bit-compatible with the layer
//! implementations they accelerate.
//!
//! Every kernel here preserves the **per-output accumulation order** of
//! the naive layer code: each output starts from its bias and adds
//! `w[j] * x[j]` for `j` ascending, ReLU is `x.max(0.0)`, and max-pool
//! compares candidates in tap order starting from `f32::NEG_INFINITY`.
//! Register blocking only interleaves *independent* accumulators, so no
//! float operation is reassociated and every kernel is exactly
//! `f32::to_bits`-identical to its reference — the blackbox replay
//! suite and `forward_traced_into` rely on this, and the proptests in
//! `crates/nn/tests/conv_kernels.rs` assert it over random shapes.
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

fn check_conv_dims(
    input: &[f32],
    weights: &[f32],
    biases: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
) -> usize {
    assert!(kernel >= 1 && kernel <= time, "conv kernel/time mismatch");
    let t_out = time - kernel + 1;
    assert_eq!(input.len(), time * in_ch, "conv input length");
    assert_eq!(
        weights.len(),
        filters * kernel * in_ch,
        "conv weight length"
    );
    assert_eq!(biases.len(), filters, "conv bias length");
    t_out
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
    let t_out = check_conv_dims(input, weights, biases, time, in_ch, filters, kernel);
    assert_eq!(out.len(), t_out * filters, "conv output length");
    let (c, k) = (in_ch, kernel);
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

/// Repacks a conv (or any `[F × taps]` row-major) weight tensor into
/// the filter-interleaved layout the blocked kernels consume: groups of
/// eight filters, tap-major within the group (`packed[j·8 + l]` = tap
/// `j` of the group's filter `l`). Remainder filters (`F % 8`) are not
/// packed — the kernels read them from the raw weights. One pass over
/// `F·K·C` floats; layers cache the result against a weight revision so
/// steady-state inference never repacks (or allocates).
pub fn pack_conv_weights(weights: &[f32], in_ch: usize, filters: usize, kernel: usize) -> Vec<f32> {
    let kc = kernel * in_ch;
    const G: usize = 8;
    let groups = filters / G;
    assert!(weights.len() >= filters * kc, "conv weight length");
    let mut packed = vec![0.0f32; groups * kc * G];
    for g in 0..groups {
        let dst = &mut packed[g * kc * G..(g + 1) * kc * G];
        for l in 0..G {
            let src = &weights[(g * G + l) * kc..(g * G + l + 1) * kc];
            for (j, &w) in src.iter().enumerate() {
                dst[j * G + l] = w;
            }
        }
    }
    packed
}

/// Register-blocked conv over the implicit im2col matrix, with the
/// weights repacked filter-interleaved per call.
///
/// Because the input is time-major, the K·C patch for output step `t`
/// is the contiguous slice `input[t·C .. t·C + K·C]` — im2col needs no
/// materialisation. The weight tensor is first transposed into groups
/// of eight filters with tap-major layout (`packed[j·8 + l]` = tap `j`
/// of filter `l`), one pass over `F·K·C` floats. That turns the hot
/// loop's weight access into contiguous eight-lane loads with the
/// input value broadcast across lanes, which the compiler vectorises
/// as elementwise multiply-then-add. Each lane is one filter's own
/// accumulator summing `j` in ascending order, and Rust never fuses
/// multiply-add, so every output's rounding sequence is exactly the
/// reference chain.
///
/// Bit-identical to [`conv1d_reference`].
#[allow(clippy::too_many_arguments)]
pub fn conv1d_blocked(
    input: &[f32],
    weights: &[f32],
    biases: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    out: &mut [f32],
) {
    let t_out = check_conv_dims(input, weights, biases, time, in_ch, filters, kernel);
    assert_eq!(out.len(), t_out * filters, "conv output length");
    let c = in_ch;
    let kc = kernel * c;
    const G: usize = 8;
    let groups = filters / G;
    let packed = pack_conv_weights(weights, in_ch, filters, kernel);
    let mut t = 0;
    while t + 2 <= t_out {
        let x0 = &input[t * c..t * c + kc];
        let x1 = &input[(t + 1) * c..(t + 1) * c + kc];
        for g in 0..groups {
            let w = &packed[g * kc * G..(g + 1) * kc * G];
            let f = g * G;
            let mut a0 = [0.0f32; G];
            let mut a1 = [0.0f32; G];
            a0.copy_from_slice(&biases[f..f + G]);
            a1.copy_from_slice(&biases[f..f + G]);
            for j in 0..kc {
                let wj = &w[j * G..(j + 1) * G];
                let (v0, v1) = (x0[j], x1[j]);
                for l in 0..G {
                    a0[l] += wj[l] * v0;
                    a1[l] += wj[l] * v1;
                }
            }
            out[t * filters + f..t * filters + f + G].copy_from_slice(&a0);
            out[(t + 1) * filters + f..(t + 1) * filters + f + G].copy_from_slice(&a1);
        }
        for f in groups * G..filters {
            let wf = &weights[f * kc..(f + 1) * kc];
            let mut a0 = biases[f];
            let mut a1 = a0;
            for j in 0..kc {
                a0 += wf[j] * x0[j];
                a1 += wf[j] * x1[j];
            }
            out[t * filters + f] = a0;
            out[(t + 1) * filters + f] = a1;
        }
        t += 2;
    }
    if t < t_out {
        let x0 = &input[t * c..t * c + kc];
        for g in 0..groups {
            let w = &packed[g * kc * G..(g + 1) * kc * G];
            let f = g * G;
            let mut a0 = [0.0f32; G];
            a0.copy_from_slice(&biases[f..f + G]);
            for j in 0..kc {
                let wj = &w[j * G..(j + 1) * G];
                let v0 = x0[j];
                for l in 0..G {
                    a0[l] += wj[l] * v0;
                }
            }
            out[t * filters + f..t * filters + f + G].copy_from_slice(&a0);
        }
        for f in groups * G..filters {
            let wf = &weights[f * kc..(f + 1) * kc];
            let mut acc = biases[f];
            for j in 0..kc {
                acc += wf[j] * x0[j];
            }
            out[t * filters + f] = acc;
        }
    }
}

/// Fused conv + bias + ReLU + max-pool inference kernel: the pooled
/// activation is produced without materialising the conv or ReLU
/// planes. Output layout `[(T_out / pool) × F]` — conv steps past the
/// last full pool window are skipped, exactly as the pool layer drops
/// them.
///
/// Uses the same filter-interleaved weight packing as
/// [`conv1d_blocked`], so the convolution inner loop vectorises as
/// eight-lane multiply-then-add; ReLU and the pool max are applied
/// per lane in the reference tap order.
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
        input, weights, &packed, biases, time, in_ch, filters, kernel, pool, out,
    );
}

/// [`fused_conv_relu_maxpool`] against a caller-provided
/// [`pack_conv_weights`] pack — the allocation-free form the streaming
/// workspace path uses with the layer's cached pack. `weights` is still
/// read for the `F % 8` remainder filters.
///
/// Bit-identical to the allocating wrapper (same loops, same pack).
#[allow(clippy::too_many_arguments)]
pub fn fused_conv_relu_maxpool_packed(
    input: &[f32],
    weights: &[f32],
    packed: &[f32],
    biases: &[f32],
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    pool: usize,
    out: &mut [f32],
) {
    let t_out = check_conv_dims(input, weights, biases, time, in_ch, filters, kernel);
    assert!(pool >= 1 && pool <= t_out, "pool width out of range");
    let p_out = t_out / pool;
    assert_eq!(out.len(), p_out * filters, "fused output length");
    let c = in_ch;
    let kc = kernel * c;
    const G: usize = 8;
    let groups = filters / G;
    assert_eq!(packed.len(), groups * kc * G, "conv pack length");
    for po in 0..p_out {
        for g in 0..groups {
            let w = &packed[g * kc * G..(g + 1) * kc * G];
            let f = g * G;
            let mut best = [f32::NEG_INFINITY; G];
            for s in 0..pool {
                let t = po * pool + s;
                let x = &input[t * c..t * c + kc];
                let mut a = [0.0f32; G];
                a.copy_from_slice(&biases[f..f + G]);
                for j in 0..kc {
                    let wj = &w[j * G..(j + 1) * G];
                    let v = x[j];
                    for l in 0..G {
                        a[l] += wj[l] * v;
                    }
                }
                for l in 0..G {
                    let r = a[l].max(0.0);
                    if r > best[l] {
                        best[l] = r;
                    }
                }
            }
            out[po * filters + f..po * filters + f + G].copy_from_slice(&best);
        }
        for f in groups * G..filters {
            let wf = &weights[f * kc..(f + 1) * kc];
            let mut best = f32::NEG_INFINITY;
            for s in 0..pool {
                let t = po * pool + s;
                let x = &input[t * c..t * c + kc];
                let mut acc = biases[f];
                for j in 0..kc {
                    acc += wf[j] * x[j];
                }
                let r = acc.max(0.0);
                if r > best {
                    best = r;
                }
            }
            out[po * filters + f] = best;
        }
    }
}

/// Dense (fully connected) inference into a caller-provided buffer,
/// eight output rows at a time (falling to four, then one, on the
/// tail). Each output is `bias[o] + Σ w[o][j]·x[j]` with `j` ascending —
/// the accumulators are independent, so the blocking hides FMA latency
/// without reassociating any sum, and the result is bit-identical to
/// `Dense::forward`.
pub fn dense_forward(input: &[f32], weights: &[f32], biases: &[f32], out: &mut [f32]) {
    let in_len = input.len();
    let out_len = out.len();
    assert_eq!(weights.len(), in_len * out_len, "dense weight length");
    assert_eq!(biases.len(), out_len, "dense bias length");
    let mut o = 0;
    while o + 8 <= out_len {
        let w0 = &weights[o * in_len..(o + 1) * in_len];
        let w1 = &weights[(o + 1) * in_len..(o + 2) * in_len];
        let w2 = &weights[(o + 2) * in_len..(o + 3) * in_len];
        let w3 = &weights[(o + 3) * in_len..(o + 4) * in_len];
        let w4 = &weights[(o + 4) * in_len..(o + 5) * in_len];
        let w5 = &weights[(o + 5) * in_len..(o + 6) * in_len];
        let w6 = &weights[(o + 6) * in_len..(o + 7) * in_len];
        let w7 = &weights[(o + 7) * in_len..(o + 8) * in_len];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let (mut a4, mut a5, mut a6, mut a7) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (j, &v) in input.iter().enumerate() {
            a0 += w0[j] * v;
            a1 += w1[j] * v;
            a2 += w2[j] * v;
            a3 += w3[j] * v;
            a4 += w4[j] * v;
            a5 += w5[j] * v;
            a6 += w6[j] * v;
            a7 += w7[j] * v;
        }
        out[o] = biases[o] + a0;
        out[o + 1] = biases[o + 1] + a1;
        out[o + 2] = biases[o + 2] + a2;
        out[o + 3] = biases[o + 3] + a3;
        out[o + 4] = biases[o + 4] + a4;
        out[o + 5] = biases[o + 5] + a5;
        out[o + 6] = biases[o + 6] + a6;
        out[o + 7] = biases[o + 7] + a7;
        o += 8;
    }
    while o + 4 <= out_len {
        let w0 = &weights[o * in_len..(o + 1) * in_len];
        let w1 = &weights[(o + 1) * in_len..(o + 2) * in_len];
        let w2 = &weights[(o + 2) * in_len..(o + 3) * in_len];
        let w3 = &weights[(o + 3) * in_len..(o + 4) * in_len];
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        for (j, &v) in input.iter().enumerate() {
            a0 += w0[j] * v;
            a1 += w1[j] * v;
            a2 += w2[j] * v;
            a3 += w3[j] * v;
        }
        out[o] = biases[o] + a0;
        out[o + 1] = biases[o + 1] + a1;
        out[o + 2] = biases[o + 2] + a2;
        out[o + 3] = biases[o + 3] + a3;
        o += 4;
    }
    while o < out_len {
        let row = &weights[o * in_len..(o + 1) * in_len];
        let mut acc = 0.0f32;
        for (wv, xv) in row.iter().zip(input) {
            acc += wv * xv;
        }
        out[o] = biases[o] + acc;
        o += 1;
    }
}

/// Transposes a row-major `[out × in]` dense weight matrix into
/// eight-output-interleaved groups (`packed[g·in·8 + j·8 + l]` = column
/// `j` of output `g·8 + l`) for [`dense_forward_packed`]. Outputs past
/// the last full group of eight are not packed; the packed kernel reads
/// them from the row-major matrix. Packing costs one pass over the
/// matrix — the same work as a single mat-vec — so it only pays when
/// the pack is reused across many forward calls (the [`crate::layers::Dense`]
/// layer caches it against a weight revision counter).
pub fn pack_dense_weights(weights: &[f32], in_len: usize, out_len: usize) -> Vec<f32> {
    assert_eq!(weights.len(), in_len * out_len, "dense weight length");
    const G: usize = 8;
    let groups = out_len / G;
    let mut packed = vec![0.0f32; groups * in_len * G];
    for g in 0..groups {
        let dst = &mut packed[g * in_len * G..(g + 1) * in_len * G];
        for l in 0..G {
            let src = &weights[(g * G + l) * in_len..(g * G + l + 1) * in_len];
            for (j, &w) in src.iter().enumerate() {
                dst[j * G + l] = w;
            }
        }
    }
    packed
}

/// [`dense_forward`] over a weight pack built by [`pack_dense_weights`].
/// The interleaved layout turns the weight access into contiguous
/// eight-lane loads with the input value broadcast, which vectorises as
/// elementwise multiply-then-add; each lane is still one output's own
/// accumulator summing `j` ascending from `0.0` with the bias added
/// last, so the bits match [`dense_forward`] exactly.
pub fn dense_forward_packed(
    input: &[f32],
    weights: &[f32],
    packed: &[f32],
    biases: &[f32],
    out: &mut [f32],
) {
    let in_len = input.len();
    let out_len = out.len();
    assert_eq!(weights.len(), in_len * out_len, "dense weight length");
    assert_eq!(biases.len(), out_len, "dense bias length");
    const G: usize = 8;
    let groups = out_len / G;
    assert_eq!(packed.len(), groups * in_len * G, "dense pack length");
    for g in 0..groups {
        let w = &packed[g * in_len * G..(g + 1) * in_len * G];
        let o = g * G;
        let mut a = [0.0f32; G];
        for (j, &v) in input.iter().enumerate() {
            let wj = &w[j * G..(j + 1) * G];
            for l in 0..G {
                a[l] += wj[l] * v;
            }
        }
        for l in 0..G {
            out[o + l] = biases[o + l] + a[l];
        }
    }
    for o in groups * G..out_len {
        let row = &weights[o * in_len..(o + 1) * in_len];
        let mut acc = 0.0f32;
        for (wv, xv) in row.iter().zip(input) {
            acc += wv * xv;
        }
        out[o] = biases[o] + acc;
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
        // Shapes chosen to hit every block tail: odd t_out, filters not
        // divisible by 4.
        for (time, c, f, k) in [(7, 3, 5, 2), (9, 1, 4, 3), (4, 2, 7, 4), (5, 6, 1, 5)] {
            let input = pseudo(time * c, 11);
            let w = pseudo(f * k * c, 22);
            let b = pseudo(f, 33);
            let t_out = time - k + 1;
            let mut reference = vec![0.0f32; t_out * f];
            let mut blocked = vec![0.0f32; t_out * f];
            conv1d_reference(&input, &w, &b, time, c, f, k, &mut reference);
            conv1d_blocked(&input, &w, &b, time, c, f, k, &mut blocked);
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
