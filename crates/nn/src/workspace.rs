//! Allocation-free scalar inference over reusable scratch buffers.
//!
//! [`Network::forward`] allocates a fresh activation vector per layer —
//! fine for training, wasteful on the streaming hot path where the
//! detector classifies a window every hop. [`Workspace`] owns a small
//! set of ping-pong buffers whose capacity grows to the network's
//! widest activation on the first call and is reused afterwards, so a
//! steady-state classification performs **zero** heap allocations
//! (`tests/noop_overhead.rs` proves this with a counting allocator).
//!
//! [`Network::infer_scalar`] walks the layer chain as an interpreter,
//! peephole-fusing `Conv1d → Relu → MaxPool1d` triples (both at the top
//! level and inside [`SplitConcat`] branches) into the single
//! [`kernels::fused_conv_relu_maxpool`] kernel. Every step is
//! bit-identical to the layer it replaces — the fused and blocked
//! kernels preserve the naive accumulation order exactly — so incident
//! replay and the traced forward see the same bits either way.
//!
//! Architectures the interpreter does not cover (LSTM, ConvLSTM, nested
//! splits, multi-output heads) return `None`; callers fall back to the
//! allocating [`Network::forward`].
//!
//! The same workspace also holds the int8 activations of
//! [`QuantizedNetwork::infer_scalar`], the packed integer engine (i16
//! ping-pong and branch buffers with a few slots of zero padding), so
//! one workspace serves a float and a quantized engine alike.
//!
//! [`QuantizedNetwork::infer_scalar`]: crate::quant::QuantizedNetwork::infer_scalar

use crate::kernels;
use crate::layers::{Conv1d, Dense, Layer, MaxPool1d, Relu, Sigmoid, SplitConcat};
use crate::network::{BranchStat, Network};
use crate::quant::Int8Buffers;
use std::sync::OnceLock;

/// Interned trace span names for the forward-pass timeline. Initialised
/// on the first *armed* span (via `trace_span!`'s armed check), so the
/// disarmed hot path never touches the interner and the armed
/// steady-state path performs zero allocations per span. Only the
/// whole-pass `nn.infer` span records in coarse armed mode; per-kernel
/// spans need `prefall_trace::set_detail(true)` — inside a ~10 µs
/// forward pass the extra events would otherwise blow the ≤ 3 % armed
/// overhead budget.
struct TraceNames {
    infer: prefall_trace::NameId,
    split: prefall_trace::NameId,
    fused: prefall_trace::NameId,
    dense: prefall_trace::NameId,
    relu: prefall_trace::NameId,
    sigmoid: prefall_trace::NameId,
    maxpool: prefall_trace::NameId,
    conv: prefall_trace::NameId,
}

fn trace_names() -> &'static TraceNames {
    static NAMES: OnceLock<TraceNames> = OnceLock::new();
    NAMES.get_or_init(|| TraceNames {
        infer: prefall_trace::intern("nn.infer"),
        split: prefall_trace::intern("nn.split"),
        fused: prefall_trace::intern("nn.fused_conv_relu_pool"),
        dense: prefall_trace::intern("nn.dense"),
        relu: prefall_trace::intern("nn.relu"),
        sigmoid: prefall_trace::intern("nn.sigmoid"),
        maxpool: prefall_trace::intern("nn.maxpool"),
        conv: prefall_trace::intern("nn.conv"),
    })
}

/// Reusable scratch buffers for [`Network::infer_scalar`] and
/// [`QuantizedNetwork::infer_scalar`]: f32 buffers for the float
/// interpreter, i16 buffers for the packed int8 engine.
///
/// One workspace serves any number of networks; buffers grow to the
/// largest activation seen and keep their capacity. Not `Sync` — give
/// each thread its own.
///
/// [`QuantizedNetwork::infer_scalar`]: crate::quant::QuantizedNetwork::infer_scalar
#[derive(Debug, Default, Clone)]
pub struct Workspace {
    buf_a: Vec<f32>,
    buf_b: Vec<f32>,
    branch_a: Vec<f32>,
    branch_b: Vec<f32>,
    int8: Int8Buffers,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows every buffer — float and int8 — to hold `len` values,
    /// so the first inference is allocation-free too.
    pub fn reserve(&mut self, len: usize) {
        for buf in [
            &mut self.buf_a,
            &mut self.buf_b,
            &mut self.branch_a,
            &mut self.branch_b,
        ] {
            if buf.capacity() < len {
                buf.reserve(len - buf.len());
            }
        }
        self.int8.reserve(len);
    }

    pub(crate) fn int8_buffers(&mut self) -> &mut Int8Buffers {
        &mut self.int8
    }
}

/// Applies one supported layer (or a fused triple) from `rest`, reading
/// `cur` and writing `nxt`. Returns how many layers were consumed, or
/// `None` when `rest[0]` is not supported by the interpreter.
fn step(rest: &[Box<dyn Layer>], cur: &[f32], nxt: &mut Vec<f32>) -> Option<usize> {
    // Peephole: Conv1d → Relu → MaxPool1d collapses into the fused
    // kernel (bit-identical to running the three layers in sequence).
    if rest.len() >= 3 {
        if let (Some(conv), Some(_), Some(pool)) = (
            rest[0].as_any().downcast_ref::<Conv1d>(),
            rest[1].as_any().downcast_ref::<Relu>(),
            rest[2].as_any().downcast_ref::<MaxPool1d>(),
        ) {
            if pool.channels() == conv.filters()
                && pool.in_time() == conv.out_time()
                && rest[1].input_len() == conv.output_len()
            {
                let _span = prefall_trace::trace_detail_span!(trace_names().fused);
                nxt.resize(rest[2].output_len(), 0.0);
                // A current cached pack keeps the hot path
                // allocation-free; a stale/absent one falls back to the
                // packing wrapper (bit-identical, allocates the pack).
                if let Some(packed) = conv.fresh_pack() {
                    kernels::fused_conv_relu_maxpool_packed(
                        cur,
                        packed,
                        conv.biases(),
                        conv.in_time(),
                        conv.in_channels(),
                        conv.filters(),
                        conv.kernel(),
                        pool.pool(),
                        nxt,
                    );
                } else {
                    kernels::fused_conv_relu_maxpool(
                        cur,
                        conv.weights(),
                        conv.biases(),
                        conv.in_time(),
                        conv.in_channels(),
                        conv.filters(),
                        conv.kernel(),
                        pool.pool(),
                        nxt,
                    );
                }
                return Some(3);
            }
        }
    }
    let layer = &rest[0];
    if let Some(d) = layer.as_any().downcast_ref::<Dense>() {
        let _span = prefall_trace::trace_detail_span!(trace_names().dense);
        nxt.resize(d.out_len(), 0.0);
        if let Some(packed) = d.fresh_pack() {
            kernels::dense_forward_packed(cur, packed, d.biases(), nxt);
        } else {
            kernels::dense_reference(cur, d.weights(), d.biases(), nxt);
        }
        return Some(1);
    }
    if layer.as_any().downcast_ref::<Relu>().is_some() {
        let _span = prefall_trace::trace_detail_span!(trace_names().relu);
        nxt.clear();
        nxt.extend(cur.iter().map(|&x| x.max(0.0)));
        return Some(1);
    }
    if layer.as_any().downcast_ref::<Sigmoid>().is_some() {
        let _span = prefall_trace::trace_detail_span!(trace_names().sigmoid);
        nxt.clear();
        nxt.extend(cur.iter().map(|&x| crate::layers::scalar_sigmoid(x)));
        return Some(1);
    }
    if let Some(p) = layer.as_any().downcast_ref::<MaxPool1d>() {
        let _span = prefall_trace::trace_detail_span!(trace_names().maxpool);
        nxt.resize(p.output_len(), 0.0);
        kernels::maxpool_forward(cur, p.channels(), p.pool(), nxt);
        return Some(1);
    }
    if let Some(conv) = layer.as_any().downcast_ref::<Conv1d>() {
        let _span = prefall_trace::trace_detail_span!(trace_names().conv);
        nxt.resize(conv.output_len(), 0.0);
        match conv.fresh_pack() {
            Some(packed) if !kernels::reference_kernels() => kernels::conv1d_blocked(
                cur,
                packed,
                conv.biases(),
                conv.in_time(),
                conv.in_channels(),
                conv.filters(),
                conv.kernel(),
                nxt,
            ),
            _ => kernels::conv1d_reference(
                cur,
                conv.weights(),
                conv.biases(),
                conv.in_time(),
                conv.in_channels(),
                conv.filters(),
                conv.kernel(),
                nxt,
            ),
        }
        return Some(1);
    }
    None
}

/// Runs a branch layer chain over ping-pong buffers with the input in
/// `a`. Returns `Some(true)` when the result lands in `a`,
/// `Some(false)` for `b`, `None` on an unsupported layer.
fn run_chain(layers: &[Box<dyn Layer>], a: &mut Vec<f32>, b: &mut Vec<f32>) -> Option<bool> {
    let mut in_a = true;
    let mut i = 0;
    while i < layers.len() {
        let consumed = if in_a {
            step(&layers[i..], a, b)?
        } else {
            step(&layers[i..], b, a)?
        };
        i += consumed;
        in_a = !in_a;
    }
    Some(in_a)
}

/// Gathers the selected channels of `input` for one branch into a
/// reusable buffer — mirrors [`SplitConcat::gather`] without
/// allocating.
fn gather_into(split: &SplitConcat, input: &[f32], branch: usize, out: &mut Vec<f32>) {
    out.clear();
    let sel = split.branches()[branch].channels();
    let c = split.in_channels();
    for t in 0..split.in_time() {
        let row = &input[t * c..(t + 1) * c];
        for &ch in sel {
            out.push(row[ch]);
        }
    }
}

impl Network {
    /// Single-output inference through the workspace interpreter:
    /// bit-identical to [`Network::forward`] but immutable (no layer
    /// caches touched) and allocation-free once the workspace has
    /// warmed up.
    ///
    /// Returns `None` when the architecture contains a layer the
    /// interpreter does not support (LSTM, ConvLSTM, nested splits) or
    /// the output is not a single scalar — callers fall back to
    /// [`Network::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input shape.
    pub fn infer_scalar(&self, input: &[f32], ws: &mut Workspace) -> Option<f32> {
        self.infer_impl(input, ws, None)
    }

    /// [`Network::infer_scalar`] that additionally taps the first
    /// [`SplitConcat`]'s per-branch outputs, exactly as
    /// [`Network::forward_traced_into`] does. `stats` is cleared first
    /// and reuses its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input shape.
    pub fn infer_scalar_traced(
        &self,
        input: &[f32],
        ws: &mut Workspace,
        stats: &mut Vec<BranchStat>,
    ) -> Option<f32> {
        stats.clear();
        self.infer_impl(input, ws, Some(stats))
    }

    fn infer_impl(
        &self,
        input: &[f32],
        ws: &mut Workspace,
        mut stats: Option<&mut Vec<BranchStat>>,
    ) -> Option<f32> {
        if self.output_len() != 1 {
            return None;
        }
        assert_eq!(input.len(), self.input_len(), "network input length");
        let _infer_span = prefall_trace::trace_span!(trace_names().infer);
        let layers = self.layers();
        let Workspace {
            buf_a,
            buf_b,
            branch_a,
            branch_b,
            ..
        } = ws;
        buf_a.clear();
        buf_a.extend_from_slice(input);
        let mut in_a = true;
        let mut i = 0;
        while i < layers.len() {
            if let Some(split) = layers[i].as_any().downcast_ref::<SplitConcat>() {
                let (cur, nxt) = if in_a {
                    (&*buf_a, &mut *buf_b)
                } else {
                    (&*buf_b, &mut *buf_a)
                };
                let _split_span = prefall_trace::trace_detail_span!(trace_names().split);
                nxt.clear();
                for (bi, branch) in split.branches().iter().enumerate() {
                    gather_into(split, cur, bi, branch_a);
                    let res_in_a = run_chain(branch.layers(), branch_a, branch_b)?;
                    nxt.extend_from_slice(if res_in_a { branch_a } else { branch_b });
                }
                // Attribution taps the first split only, all its
                // branches in one lockstep pass over the concatenation.
                if let Some(s) = stats.as_deref_mut().filter(|s| s.is_empty()) {
                    let lens = split.branches().iter().map(|b| b.output_len());
                    BranchStat::extend_from_concat(s, nxt, lens);
                }
                in_a = !in_a;
                i += 1;
                continue;
            }
            let consumed = if in_a {
                step(&layers[i..], buf_a, buf_b)?
            } else {
                step(&layers[i..], buf_b, buf_a)?
            };
            i += consumed;
            in_a = !in_a;
        }
        let out = if in_a { &*buf_a } else { &*buf_b };
        debug_assert_eq!(out.len(), 1);
        Some(out[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnn_like() -> Network {
        let branch = |sel: Vec<usize>| {
            (
                sel,
                Network::builder(vec![10, 3])
                    .conv1d(5, 3)
                    .unwrap()
                    .relu()
                    .maxpool(2)
                    .unwrap(),
            )
        };
        Network::builder(vec![10, 9])
            .split(vec![
                branch(vec![0, 1, 2]),
                branch(vec![3, 4, 5]),
                branch(vec![6, 7, 8]),
            ])
            .unwrap()
            .dense(16)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .build(42)
    }

    fn wave(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin() * 1.5).collect()
    }

    #[test]
    fn infer_scalar_is_bit_identical_to_forward() {
        let mut net = cnn_like();
        let x = wave(net.input_len());
        let want = net.forward(&x)[0];
        let mut ws = Workspace::new();
        let got = net.infer_scalar(&x, &mut ws).expect("supported");
        assert_eq!(want.to_bits(), got.to_bits());
        // And under the reference-kernel switch.
        kernels::set_reference_kernels(true);
        let got_ref = net.infer_scalar(&x, &mut ws).expect("supported");
        kernels::set_reference_kernels(false);
        assert_eq!(want.to_bits(), got_ref.to_bits());
    }

    #[test]
    fn infer_scalar_traced_matches_forward_traced() {
        let mut net = cnn_like();
        let x = wave(net.input_len());
        let (out, want_stats) = net.forward_traced(&x);
        let mut ws = Workspace::new();
        let mut stats = Vec::new();
        let got = net
            .infer_scalar_traced(&x, &mut ws, &mut stats)
            .expect("supported");
        assert_eq!(out[0].to_bits(), got.to_bits());
        assert_eq!(stats.len(), want_stats.len());
        for (a, b) in stats.iter().zip(&want_stats) {
            assert_eq!(a.l2.to_bits(), b.l2.to_bits());
            assert_eq!(a.mean_abs.to_bits(), b.mean_abs.to_bits());
            assert_eq!(a.peak.to_bits(), b.peak.to_bits());
            assert_eq!(a.output_len, b.output_len);
        }
    }

    #[test]
    fn plain_stacks_work_without_fusion() {
        // MLP: dense/relu/dense/sigmoid.
        let mut mlp = Network::builder(vec![12])
            .dense(7)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .sigmoid()
            .build(3);
        let x = wave(12);
        let want = mlp.forward(&x)[0];
        let mut ws = Workspace::new();
        let got = mlp.infer_scalar(&x, &mut ws).expect("supported");
        assert_eq!(want.to_bits(), got.to_bits());

        // Sequential conv stack without a split, including a lone
        // maxpool not preceded by relu (fusion must not fire).
        let mut cnn = Network::builder(vec![12, 2])
            .conv1d(4, 3)
            .unwrap()
            .maxpool(2)
            .unwrap()
            .conv1d(3, 2)
            .unwrap()
            .relu()
            .maxpool(2)
            .unwrap()
            .dense(1)
            .unwrap()
            .build(9);
        let x = wave(24);
        let want = cnn.forward(&x)[0];
        let got = cnn.infer_scalar(&x, &mut ws).expect("supported");
        assert_eq!(want.to_bits(), got.to_bits());
    }

    #[test]
    fn armed_inference_decomposes_into_layer_spans() {
        let net = cnn_like();
        let x = wave(net.input_len());
        let mut ws = Workspace::new();
        let _ = prefall_trace::drain(); // isolate from other tests
        prefall_trace::arm(4096);
        prefall_trace::set_detail(true); // per-kernel spans are opt-in
        let _ = net.infer_scalar(&x, &mut ws).expect("supported");
        prefall_trace::disarm();
        let attr = prefall_trace::drain().attribution();
        // cnn_like: split(3 × fused conv/relu/pool) → dense → relu → dense.
        assert!(attr.total("nn.infer").count >= 1);
        assert!(attr.total("nn.split").count >= 1);
        assert!(attr.total("nn.fused_conv_relu_pool").count >= 3);
        assert!(attr.total("nn.dense").count >= 2);
        // Layer time nests inside the infer span.
        let infer = attr.total("nn.infer");
        assert!(infer.self_ns <= infer.total_ns);
    }

    #[test]
    fn unsupported_architectures_return_none() {
        let mut lstm = Network::builder(vec![8, 3])
            .lstm(4)
            .unwrap()
            .dense(1)
            .unwrap()
            .build(1);
        let x = wave(24);
        let mut ws = Workspace::new();
        assert!(lstm.infer_scalar(&x, &mut ws).is_none());
        // Fallback still works.
        assert_eq!(lstm.forward(&x).len(), 1);

        // Multi-output head.
        let two = Network::builder(vec![4]).dense(2).unwrap().build(1);
        assert!(two.infer_scalar(&[0.0; 4], &mut ws).is_none());
    }
}
