//! Post-training 8-bit integer quantization (§III-D).
//!
//! The scheme mirrors what STM32Cube.AI / TFLite-Micro execute on the
//! target microcontroller:
//!
//! * **activations** — per-tensor affine int8: `real = scale · (q − zp)`,
//!   ranges calibrated on representative data;
//! * **weights** — per-output-channel symmetric int8 (`zp = 0`);
//! * **biases** — int32 at scale `s_in · s_w[ch]`;
//! * **arithmetic** — i32 accumulators, fixed-point requantization
//!   (`M = m0·2⁻³¹·2⁻ⁿ` with `m0 ∈ [2³⁰, 2³¹)`), ReLU fused into the
//!   output clamp;
//! * the final sigmoid runs in float on the single dequantized logit
//!   (exactly one transcendental per inference, as on the MCU).

use crate::layers::{Conv1d, Dense, Layer, MaxPool1d, Relu, Sigmoid, SplitConcat};
use crate::network::Network;
use crate::workspace::Workspace;
use crate::NnError;
use serde::{Deserialize, Serialize};

mod pack;

pub(crate) use pack::Int8Buffers;

/// Affine int8 quantization parameters for one activation tensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActQuant {
    /// Real value represented per quantum.
    pub scale: f32,
    /// The int8 code representing real 0.
    pub zero_point: i32,
}

impl ActQuant {
    /// Builds parameters covering `[min, max]` (the range is widened to
    /// include zero, as required for zero-padding correctness).
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either is non-finite.
    pub fn from_range(min: f32, max: f32) -> Self {
        assert!(
            min.is_finite() && max.is_finite() && min <= max,
            "bad range"
        );
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = (max - min).max(1e-6);
        let scale = span / 255.0;
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        Self { scale, zero_point }
    }

    /// Quantizes one real value, saturating at the int8 range for any
    /// input (a NaN maps to the zero point).
    pub fn quantize(&self, x: f32) -> i8 {
        ((x / self.scale).round() as i32)
            .saturating_add(self.zero_point)
            .clamp(-128, 127) as i8
    }

    /// Dequantizes one code.
    pub fn dequantize(&self, q: i8) -> f32 {
        (i32::from(q) - self.zero_point) as f32 * self.scale
    }

    /// Quantizes a slice.
    pub fn quantize_slice(&self, xs: &[f32]) -> Vec<i8> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }
}

/// Decomposes a positive real multiplier `m` into `(m0, shift)` with
/// `m = m0 · 2⁻³¹ · 2⁻ˢʰⁱᶠᵗ` and `m0 ∈ [2³⁰, 2³¹)`.
///
/// # Panics
///
/// Panics unless `m` is positive and finite.
pub fn quantize_multiplier(m: f64) -> (i32, i32) {
    assert!(m > 0.0 && m.is_finite(), "multiplier must be positive");
    let mut shift = 0i32;
    let mut frac = m;
    while frac < 0.5 {
        frac *= 2.0;
        shift += 1;
    }
    while frac >= 1.0 {
        frac /= 2.0;
        shift -= 1;
    }
    let mut m0 = (frac * f64::from(1u32 << 31)).round() as i64;
    if m0 == 1i64 << 31 {
        m0 /= 2;
        shift -= 1;
    }
    (m0 as i32, shift)
}

/// Applies the fixed-point multiplier to an i32 accumulator
/// (rounding-to-nearest, matching the TFLite reference kernels closely
/// enough for bit-stable behaviour in this crate).
#[inline]
pub fn apply_multiplier(acc: i32, m0: i32, shift: i32) -> i32 {
    let total = 31 + shift;
    debug_assert!(total >= 1, "multiplier shift underflow");
    let prod = i64::from(acc) * i64::from(m0);
    let round = 1i64 << (total - 1);
    ((prod + round) >> total) as i32
}

/// A quantized dense layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QDense {
    in_len: usize,
    out_len: usize,
    w: Vec<i8>,
    bias: Vec<i32>,
    mult: Vec<(i32, i32)>,
    input_q: ActQuant,
    output_q: ActQuant,
    relu: bool,
}

impl QDense {
    fn forward(&self, x: &[i8]) -> Vec<i8> {
        let zp_in = self.input_q.zero_point;
        let mut out = Vec::with_capacity(self.out_len);
        for o in 0..self.out_len {
            let row = &self.w[o * self.in_len..(o + 1) * self.in_len];
            let mut acc = self.bias[o];
            for (w, &xq) in row.iter().zip(x) {
                acc += i32::from(*w) * (i32::from(xq) - zp_in);
            }
            let (m0, shift) = self.mult[o];
            let y = apply_multiplier(acc, m0, shift) + self.output_q.zero_point;
            let lo = if self.relu {
                self.output_q.zero_point.max(-128)
            } else {
                -128
            };
            out.push(y.clamp(lo, 127) as i8);
        }
        out
    }
}

/// A quantized 1-D convolution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QConv1d {
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    w: Vec<i8>,
    bias: Vec<i32>,
    mult: Vec<(i32, i32)>,
    input_q: ActQuant,
    output_q: ActQuant,
    relu: bool,
}

impl QConv1d {
    fn out_time(&self) -> usize {
        self.time - self.kernel + 1
    }

    fn forward(&self, x: &[i8]) -> Vec<i8> {
        let (c, k, f_n) = (self.in_ch, self.kernel, self.filters);
        let zp_in = self.input_q.zero_point;
        let t_out = self.out_time();
        let mut out = Vec::with_capacity(t_out * f_n);
        for t in 0..t_out {
            let window = &x[t * c..(t + k) * c];
            for f in 0..f_n {
                let wf = &self.w[f * k * c..(f + 1) * k * c];
                let mut acc = self.bias[f];
                for (w, &xq) in wf.iter().zip(window) {
                    acc += i32::from(*w) * (i32::from(xq) - zp_in);
                }
                let (m0, shift) = self.mult[f];
                let y = apply_multiplier(acc, m0, shift) + self.output_q.zero_point;
                let lo = if self.relu {
                    self.output_q.zero_point.max(-128)
                } else {
                    -128
                };
                out.push(y.clamp(lo, 127) as i8);
            }
        }
        out
    }
}

/// A quantized max pool (scale-preserving).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QMaxPool {
    time: usize,
    ch: usize,
    pool: usize,
}

impl QMaxPool {
    fn forward(&self, x: &[i8]) -> Vec<i8> {
        let t_out = self.time / self.pool;
        let mut out = Vec::with_capacity(t_out * self.ch);
        for to in 0..t_out {
            for c in 0..self.ch {
                let mut best = i8::MIN;
                for k in 0..self.pool {
                    best = best.max(x[(to * self.pool + k) * self.ch + c]);
                }
                out.push(best);
            }
        }
        out
    }
}

/// A quantized branch of a split/concat.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QBranch {
    channels: Vec<usize>,
    layers: Vec<QLayer>,
    /// Requantization from the branch's own output scale to the shared
    /// concat scale.
    mult: (i32, i32),
    branch_zp: i32,
}

/// Quantized split/concat.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QSplitConcat {
    time: usize,
    in_ch: usize,
    branches: Vec<QBranch>,
    output_q: ActQuant,
}

impl QSplitConcat {
    fn forward(&self, x: &[i8]) -> Vec<i8> {
        let mut out = Vec::new();
        for b in &self.branches {
            // Gather channels.
            let mut xb = Vec::with_capacity(self.time * b.channels.len());
            for t in 0..self.time {
                for &c in &b.channels {
                    xb.push(x[t * self.in_ch + c]);
                }
            }
            for layer in &b.layers {
                xb = layer.forward(&xb);
            }
            // Requantize into the shared concat scale.
            for q in xb {
                let centered = i32::from(q) - b.branch_zp;
                let y = apply_multiplier(centered, b.mult.0, b.mult.1) + self.output_q.zero_point;
                out.push(y.clamp(-128, 127) as i8);
            }
        }
        out
    }
}

/// One quantized layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum QLayer {
    /// Quantized dense (ReLU possibly fused).
    Dense(QDense),
    /// Quantized convolution (ReLU possibly fused).
    Conv1d(QConv1d),
    /// Max pooling.
    MaxPool(QMaxPool),
    /// Split/concat with per-branch requantization.
    SplitConcat(QSplitConcat),
}

impl QLayer {
    fn forward(&self, x: &[i8]) -> Vec<i8> {
        match self {
            QLayer::Dense(l) => l.forward(x),
            QLayer::Conv1d(l) => l.forward(x),
            QLayer::MaxPool(l) => l.forward(x),
            QLayer::SplitConcat(l) => l.forward(x),
        }
    }

    fn output_len(&self) -> usize {
        match self {
            QLayer::Dense(l) => l.out_len,
            QLayer::Conv1d(l) => l.out_time() * l.filters,
            QLayer::MaxPool(l) => (l.time / l.pool) * l.ch,
            QLayer::SplitConcat(l) => l
                .branches
                .iter()
                .map(|b| b.layers.last().expect("non-empty branch").output_len())
                .sum(),
        }
    }

    fn weight_bytes(&self) -> usize {
        match self {
            QLayer::Dense(l) => l.w.len() + 4 * l.bias.len(),
            QLayer::Conv1d(l) => l.w.len() + 4 * l.bias.len(),
            QLayer::MaxPool(_) => 0,
            QLayer::SplitConcat(l) => l
                .branches
                .iter()
                .flat_map(|b| b.layers.iter())
                .map(QLayer::weight_bytes)
                .sum(),
        }
    }

    fn metadata_bytes(&self) -> usize {
        // Per-channel multiplier (i32 + i32) + activation params.
        match self {
            QLayer::Dense(l) => 8 * l.mult.len() + 16,
            QLayer::Conv1d(l) => 8 * l.mult.len() + 16,
            QLayer::MaxPool(_) => 8,
            QLayer::SplitConcat(l) => {
                16 + l
                    .branches
                    .iter()
                    .map(|b| 16 + b.layers.iter().map(QLayer::metadata_bytes).sum::<usize>())
                    .sum::<usize>()
            }
        }
    }

    fn macs(&self) -> usize {
        match self {
            QLayer::Dense(l) => l.in_len * l.out_len,
            QLayer::Conv1d(l) => l.out_time() * l.filters * l.kernel * l.in_ch,
            QLayer::MaxPool(_) => 0,
            QLayer::SplitConcat(l) => l
                .branches
                .iter()
                .flat_map(|b| b.layers.iter())
                .map(QLayer::macs)
                .sum(),
        }
    }
}

/// A fully int8 network: quantized input, int8 layers, float sigmoid on
/// the dequantized final logit.
///
/// Two engines run it, equal bit for bit: the allocating reference
/// [`QuantizedNetwork::forward_logit`], which walks the flash-image
/// layers one `Vec` per layer as the oracle, and the packed
/// [`QuantizedNetwork::infer_scalar`], which runs a host-side pack
/// built once by [`QuantizedNetwork::from_network`] through
/// [`Workspace`] buffers without allocating.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedNetwork {
    input_len: usize,
    input_q: ActQuant,
    layers: Vec<QLayer>,
    output_q: ActQuant,
    /// Derived from `layers`; `None` when the packed engine cannot run
    /// the network.
    #[serde(skip)]
    pack: Option<pack::Pack>,
}

impl QuantizedNetwork {
    /// Quantizes a trained float network using calibration inputs
    /// (representative, already preprocessed samples).
    ///
    /// Supported layers: `Dense`, `Conv1d`, `MaxPool1d`, `Relu` (fused),
    /// `SplitConcat` (of supported layers) and a trailing `Sigmoid`
    /// (executed in float). The float network is left unchanged apart
    /// from transient forward caches.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTraining`] for an empty calibration set
    /// and [`NnError::InvalidLayer`] for unsupported layers.
    pub fn from_network(net: &mut Network, calibration: &[Vec<f32>]) -> Result<Self, NnError> {
        if calibration.is_empty() {
            return Err(NnError::InvalidTraining {
                reason: "calibration set is empty".to_string(),
            });
        }
        let input_len = net.input_len();
        if let Some(bad) = calibration.iter().find(|x| x.len() != input_len) {
            return Err(NnError::ShapeMismatch {
                expected: input_len,
                actual: bad.len(),
            });
        }

        let input_q = ActQuant::from_range(range_of(calibration).0, range_of(calibration).1);
        let mut acts: Vec<Vec<f32>> = calibration.to_vec();
        let mut cur_q = input_q;
        let mut qlayers = Vec::new();

        let n = net.layers_mut().len();
        let mut i = 0;
        while i < n {
            // Determine fusion with a following ReLU before borrowing.
            let fuse_relu = i + 1 < n && net.layers()[i + 1].as_any().is::<Relu>();
            let kind_is_sigmoid = net.layers()[i].as_any().is::<Sigmoid>();
            if kind_is_sigmoid {
                if i != n - 1 {
                    return Err(NnError::InvalidLayer {
                        layer: "sigmoid",
                        reason: "only a final sigmoid is supported by the quantizer".to_string(),
                    });
                }
                break; // handled in float by predict()
            }

            let layer = &mut net.layers_mut()[i];
            let (qlayer, new_acts, out_q) =
                quantize_layer(layer.as_mut(), &acts, cur_q, fuse_relu)?;
            qlayers.push(qlayer);
            acts = new_acts;
            cur_q = out_q;
            i += if fuse_relu { 2 } else { 1 };
        }

        let mut q = Self {
            input_len,
            input_q,
            layers: qlayers,
            output_q: cur_q,
            pack: None,
        };
        q.pack = pack::Pack::new(&q);
        Ok(q)
    }

    /// Runs int8 inference on one float sample and returns the
    /// dequantized logit.
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches.
    pub fn forward_logit(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.input_len, "quantized input length");
        let mut q = self.input_q.quantize_slice(x);
        for layer in &self.layers {
            q = layer.forward(&q);
        }
        debug_assert_eq!(q.len(), 1, "binary head expected");
        self.output_q.dequantize(q[0])
    }

    /// Sigmoid probability from int8 inference.
    pub fn predict_proba(&self, x: &[f32]) -> f32 {
        crate::loss::sigmoid(self.forward_logit(x))
    }

    /// The dequantized logit from the packed engine: bit-identical to
    /// [`QuantizedNetwork::forward_logit`], and allocation-free once the
    /// workspace has warmed up.
    ///
    /// Returns `None` when the output is not one scalar or a split
    /// branch holds another split — the layouts the packed engine does
    /// not run, as [`Network::infer_scalar`] refuses them for float.
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches.
    // Out of line: inlined, the packed engine grows
    // `Engine::infer_unchecked` past the size LLVM inlines into the
    // session, and the float engine's windows measured ~8 % slower.
    #[inline(never)]
    pub fn infer_scalar(&self, x: &[f32], ws: &mut Workspace) -> Option<f32> {
        let pack = self.pack.as_ref()?;
        assert_eq!(x.len(), self.input_len, "quantized input length");
        Some(self.output_q.dequantize(pack.run(x, ws.int8_buffers())))
    }

    /// Flash bytes consumed by weights and biases.
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(QLayer::weight_bytes).sum()
    }

    /// Flash bytes for quantization metadata (multipliers, zero points).
    pub fn metadata_bytes(&self) -> usize {
        16 + self
            .layers
            .iter()
            .map(QLayer::metadata_bytes)
            .sum::<usize>()
    }

    /// Total model flash footprint (weights + metadata + graph
    /// structure), in bytes. This is the number compared against the
    /// paper's 67.03 KiB.
    pub fn flash_bytes(&self) -> usize {
        // Graph/structure overhead per layer (descriptor, shapes) mirrors
        // the ~100 B/tensor STM32Cube.AI spends.
        let structure = 512 + 128 * self.layers.len();
        self.weight_bytes() + self.metadata_bytes() + structure
    }

    /// Peak activation arena in bytes (the classic two-buffer scheme:
    /// the largest input+output pair alive at once, int8 each).
    pub fn activation_arena_bytes(&self) -> usize {
        let mut peak = 0usize;
        let mut cur = self.input_len;
        for l in &self.layers {
            let out = l.output_len();
            peak = peak.max(cur + out);
            cur = out;
        }
        peak
    }

    /// Total int8 multiply–accumulates per inference.
    pub fn macs(&self) -> usize {
        self.layers.iter().map(QLayer::macs).sum()
    }

    /// The quantized layer stack.
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// The flattened weight/bias blob in flash layout order (int8
    /// weights then little-endian i32 biases, per layer) — what a C
    /// export would place in `.rodata`.
    pub fn weight_blob(&self) -> Vec<u8> {
        fn push_layer(l: &QLayer, out: &mut Vec<u8>) {
            match l {
                QLayer::Dense(d) => {
                    out.extend(d.w.iter().map(|&v| v as u8));
                    for b in &d.bias {
                        out.extend_from_slice(&b.to_le_bytes());
                    }
                }
                QLayer::Conv1d(c) => {
                    out.extend(c.w.iter().map(|&v| v as u8));
                    for b in &c.bias {
                        out.extend_from_slice(&b.to_le_bytes());
                    }
                }
                QLayer::MaxPool(_) => {}
                QLayer::SplitConcat(s) => {
                    for b in &s.branches {
                        for l in &b.layers {
                            push_layer(l, out);
                        }
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.weight_bytes());
        for l in &self.layers {
            push_layer(l, &mut out);
        }
        out
    }

    /// Input quantization parameters.
    pub fn input_quant(&self) -> ActQuant {
        self.input_q
    }

    /// Flattened input length.
    pub fn input_len(&self) -> usize {
        self.input_len
    }
}

fn range_of(xs: &[Vec<f32>]) -> (f32, f32) {
    let mut min = f32::MAX;
    let mut max = f32::MIN;
    for v in xs {
        for &x in v {
            min = min.min(x);
            max = max.max(x);
        }
    }
    if min > max {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

/// Runs a float layer over all activations, optionally applying ReLU.
fn run_float(layer: &mut dyn Layer, acts: &[Vec<f32>], relu: bool) -> Vec<Vec<f32>> {
    acts.iter()
        .map(|x| {
            let mut y = layer.forward(x);
            if relu {
                for v in &mut y {
                    *v = v.max(0.0);
                }
            }
            y
        })
        .collect()
}

type QuantizedPiece = (QLayer, Vec<Vec<f32>>, ActQuant);

fn quantize_layer(
    layer: &mut dyn Layer,
    acts: &[Vec<f32>],
    in_q: ActQuant,
    fuse_relu: bool,
) -> Result<QuantizedPiece, NnError> {
    if let Some(dense) = layer.as_any().downcast_ref::<Dense>() {
        let (in_len, out_len) = (dense.in_len(), dense.out_len());
        let weights = dense.weights().to_vec();
        let biases = dense.biases().to_vec();
        let outs = run_float(layer, acts, fuse_relu);
        let (omin, omax) = range_of(&outs);
        let out_q = ActQuant::from_range(omin, omax);

        let mut wq = vec![0i8; weights.len()];
        let mut bq = vec![0i32; out_len];
        let mut mult = Vec::with_capacity(out_len);
        for o in 0..out_len {
            let row = &weights[o * in_len..(o + 1) * in_len];
            let s_w = per_channel_scale(row);
            for (j, &w) in row.iter().enumerate() {
                wq[o * in_len + j] = (w / s_w).round().clamp(-127.0, 127.0) as i8;
            }
            let s_bias = in_q.scale * s_w;
            bq[o] = (biases[o] / s_bias).round() as i32;
            mult.push(quantize_multiplier(
                f64::from(in_q.scale) * f64::from(s_w) / f64::from(out_q.scale),
            ));
        }
        let q = QDense {
            in_len,
            out_len,
            w: wq,
            bias: bq,
            mult,
            input_q: in_q,
            output_q: out_q,
            relu: fuse_relu,
        };
        return Ok((QLayer::Dense(q), outs, out_q));
    }

    if let Some(conv) = layer.as_any().downcast_ref::<Conv1d>() {
        let (time, in_ch, filters, kernel) = (
            conv.in_time(),
            conv.in_channels(),
            conv.filters(),
            conv.kernel(),
        );
        let weights = conv.weights().to_vec();
        let biases = conv.biases().to_vec();
        let outs = run_float(layer, acts, fuse_relu);
        let (omin, omax) = range_of(&outs);
        let out_q = ActQuant::from_range(omin, omax);

        let kc = kernel * in_ch;
        let mut wq = vec![0i8; weights.len()];
        let mut bq = vec![0i32; filters];
        let mut mult = Vec::with_capacity(filters);
        for f in 0..filters {
            let row = &weights[f * kc..(f + 1) * kc];
            let s_w = per_channel_scale(row);
            for (j, &w) in row.iter().enumerate() {
                wq[f * kc + j] = (w / s_w).round().clamp(-127.0, 127.0) as i8;
            }
            bq[f] = (biases[f] / (in_q.scale * s_w)).round() as i32;
            mult.push(quantize_multiplier(
                f64::from(in_q.scale) * f64::from(s_w) / f64::from(out_q.scale),
            ));
        }
        let q = QConv1d {
            time,
            in_ch,
            filters,
            kernel,
            w: wq,
            bias: bq,
            mult,
            input_q: in_q,
            output_q: out_q,
            relu: fuse_relu,
        };
        return Ok((QLayer::Conv1d(q), outs, out_q));
    }

    if let Some(pool) = layer.as_any().downcast_ref::<MaxPool1d>() {
        let q = QMaxPool {
            time: pool.in_time(),
            ch: pool.channels(),
            pool: pool.pool(),
        };
        let outs = run_float(layer, acts, fuse_relu);
        // Max pooling preserves scale/zero-point.
        return Ok((QLayer::MaxPool(q), outs, in_q));
    }

    if layer.as_any().is::<SplitConcat>() {
        return quantize_split(layer, acts, in_q, fuse_relu);
    }

    Err(NnError::InvalidLayer {
        layer: "quantize",
        reason: format!("layer kind '{}' is not quantizable", layer.kind()),
    })
}

fn quantize_split(
    layer: &mut dyn Layer,
    acts: &[Vec<f32>],
    in_q: ActQuant,
    fuse_relu: bool,
) -> Result<QuantizedPiece, NnError> {
    if fuse_relu {
        return Err(NnError::InvalidLayer {
            layer: "split_concat",
            reason: "relu directly after concat is not supported".to_string(),
        });
    }
    let split = layer
        .as_any_mut()
        .downcast_mut::<SplitConcat>()
        .expect("checked by caller");
    let time = split.in_time();
    let in_ch = split.in_channels();

    // Gather per-branch inputs first (immutably), then process branches.
    let n_branches = split.branches().len();
    let mut branch_inputs: Vec<Vec<Vec<f32>>> = Vec::with_capacity(n_branches);
    for bi in 0..n_branches {
        branch_inputs.push(acts.iter().map(|x| split.gather(x, bi)).collect());
    }

    let mut qbranches = Vec::with_capacity(n_branches);
    let mut branch_outs: Vec<Vec<Vec<f32>>> = Vec::with_capacity(n_branches);
    let mut branch_qs: Vec<ActQuant> = Vec::with_capacity(n_branches);
    for (bi, branch) in split.branches_mut().iter_mut().enumerate() {
        let channels = branch.channels().to_vec();
        let mut bacts = branch_inputs[bi].clone();
        let mut bq = in_q;
        let mut blayers: Vec<QLayer> = Vec::new();
        let layers = branch.layers_mut();
        let m = layers.len();
        let mut j = 0;
        while j < m {
            let fuse = j + 1 < m && layers[j + 1].as_any().is::<Relu>();
            let (ql, outs, oq) = quantize_layer(layers[j].as_mut(), &bacts, bq, fuse)?;
            blayers.push(ql);
            bacts = outs;
            bq = oq;
            j += if fuse { 2 } else { 1 };
        }
        branch_outs.push(bacts);
        branch_qs.push(bq);
        qbranches.push((channels, blayers));
    }

    // Shared concat scale across all branch outputs.
    let mut omin = f32::MAX;
    let mut omax = f32::MIN;
    for bo in &branch_outs {
        let (lo, hi) = range_of(bo);
        omin = omin.min(lo);
        omax = omax.max(hi);
    }
    let out_q = ActQuant::from_range(omin, omax);

    let branches = qbranches
        .into_iter()
        .zip(branch_qs)
        .map(|((channels, layers), bq)| QBranch {
            channels,
            layers,
            mult: quantize_multiplier(f64::from(bq.scale) / f64::from(out_q.scale)),
            branch_zp: bq.zero_point,
        })
        .collect();

    // Float outputs for downstream calibration: concatenation.
    let outs: Vec<Vec<f32>> = (0..acts.len())
        .map(|s| {
            let mut v = Vec::new();
            for bo in &branch_outs {
                v.extend_from_slice(&bo[s]);
            }
            v
        })
        .collect();

    let q = QSplitConcat {
        time,
        in_ch,
        branches,
        output_q: out_q,
    };
    Ok((QLayer::SplitConcat(q), outs, out_q))
}

/// Symmetric per-channel weight scale: `max |w| / 127`.
fn per_channel_scale(row: &[f32]) -> f32 {
    let max_abs = row.iter().fold(0.0f32, |a, &w| a.max(w.abs()));
    (max_abs / 127.0).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn calib(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2000) as f32 / 1000.0 - 1.0
        };
        (0..n).map(|_| (0..len).map(|_| next()).collect()).collect()
    }

    #[test]
    fn act_quant_roundtrips_within_half_scale() {
        let q = ActQuant::from_range(-2.0, 6.0);
        for &x in &[-2.0f32, -1.0, 0.0, 0.001, 3.0, 6.0] {
            let back = q.dequantize(q.quantize(x));
            assert!((back - x).abs() <= q.scale * 0.51, "{x} -> {back}");
        }
        // Zero is exactly representable.
        assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
    }

    #[test]
    fn quantize_saturates_on_huge_inputs() {
        // zp = 42 for (−2, 1); zp = −43 for (−1, 2).
        for (lo, hi) in [(-2.0f32, 1.0f32), (-1.0, 2.0)] {
            let q = ActQuant::from_range(lo, hi);
            assert_eq!(q.quantize(5.0), 127);
            assert_eq!(q.quantize(1e30), 127);
            assert_eq!(q.quantize(f32::MAX), 127);
            assert_eq!(q.quantize(-1e30), -128);
            assert_eq!(q.quantize(f32::MIN), -128);
        }
        assert_eq!(ActQuant::from_range(-2.0, 1.0).zero_point, 42);
        assert_eq!(ActQuant::from_range(-1.0, 2.0).zero_point, -43);
    }

    #[test]
    fn act_quant_clamps_outliers() {
        let q = ActQuant::from_range(0.0, 1.0);
        assert_eq!(q.quantize(100.0), 127);
        assert_eq!(q.quantize(-100.0), -128);
    }

    #[test]
    fn multiplier_decomposition_reconstructs() {
        for &m in &[0.5f64, 0.001, 0.9999, 0.25, 1.7, 3.3e-5] {
            let (m0, shift) = quantize_multiplier(m);
            let back = f64::from(m0) / f64::from(1u32 << 31) / 2f64.powi(shift);
            assert!((back - m).abs() < 1e-6 * m, "{m} -> {back}");
            assert!(m0 >= 1 << 30 && i64::from(m0) < 1i64 << 31);
        }
    }

    #[test]
    fn apply_multiplier_scales_accumulator() {
        let (m0, shift) = quantize_multiplier(0.25);
        assert_eq!(apply_multiplier(100, m0, shift), 25);
        assert_eq!(apply_multiplier(-100, m0, shift), -25);
        assert_eq!(apply_multiplier(0, m0, shift), 0);
    }

    #[test]
    fn quantized_dense_matches_float_closely() {
        let mut net = Network::builder(vec![16])
            .dense(8)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .build(5);
        let data = calib(64, 16, 3);
        let q = QuantizedNetwork::from_network(&mut net, &data).unwrap();
        for x in &data {
            let fl = net.forward(x)[0];
            let ql = q.forward_logit(x);
            assert!((fl - ql).abs() < 0.15, "float {fl} vs quant {ql}");
        }
    }

    #[test]
    fn quantized_cnn_classification_agrees_with_float() {
        // The paper's structure in miniature.
        let branch = |sel: Vec<usize>| {
            (
                sel,
                Network::builder(vec![10, 3])
                    .conv1d(4, 3)
                    .unwrap()
                    .relu()
                    .maxpool(2)
                    .unwrap(),
            )
        };
        let mut net = Network::builder(vec![10, 9])
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
            .build(11);
        let data = calib(128, 90, 7);
        let q = QuantizedNetwork::from_network(&mut net, &data).unwrap();
        let mut agree = 0;
        for x in &data {
            let fl = crate::loss::sigmoid(net.forward(x)[0]);
            let qp = q.predict_proba(x);
            assert!((fl - qp).abs() < 0.15, "prob {fl} vs {qp}");
            if (fl > 0.5) == (qp > 0.5) {
                agree += 1;
            }
        }
        assert!(agree >= 124, "agreement {agree}/128");
    }

    #[test]
    fn footprint_accounting_is_consistent() {
        let mut net = Network::builder(vec![16])
            .dense(8)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .build(5);
        let data = calib(16, 16, 3);
        let q = QuantizedNetwork::from_network(&mut net, &data).unwrap();
        // Weights: 16×8 + 8×1 int8 + (8+1) i32 biases.
        assert_eq!(q.weight_bytes(), 16 * 8 + 8 + 4 * 9);
        assert!(q.flash_bytes() > q.weight_bytes());
        assert!(q.activation_arena_bytes() >= 16 + 8);
        assert_eq!(q.macs(), net.macs());
    }

    #[test]
    fn rejects_unquantizable_and_bad_inputs() {
        let mut lstm_net = Network::builder(vec![4, 2])
            .lstm(3)
            .unwrap()
            .dense(1)
            .unwrap()
            .build(1);
        let data = calib(4, 8, 5);
        assert!(QuantizedNetwork::from_network(&mut lstm_net, &data).is_err());

        let mut dense_net = Network::builder(vec![8]).dense(1).unwrap().build(1);
        assert!(QuantizedNetwork::from_network(&mut dense_net, &[]).is_err());
        let bad = vec![vec![0.0; 5]];
        assert!(QuantizedNetwork::from_network(&mut dense_net, &bad).is_err());
    }

    #[test]
    fn packed_engine_is_bit_identical_to_reference() {
        let branch = |sel: Vec<usize>| {
            (
                sel,
                Network::builder(vec![40, 3])
                    .conv1d(18, 5)
                    .unwrap()
                    .relu()
                    .maxpool(2)
                    .unwrap(),
            )
        };
        let mut net = Network::builder(vec![40, 9])
            .split(vec![
                branch(vec![0, 1, 2]),
                branch(vec![3, 4, 5]),
                branch(vec![6, 7, 8]),
            ])
            .unwrap()
            .dense(64)
            .unwrap()
            .relu()
            .dense(32)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .build(11);
        let data = calib(64, 360, 7);
        let q = QuantizedNetwork::from_network(&mut net, &data).unwrap();
        let mut ws = Workspace::new();
        for x in calib(32, 360, 99).iter().chain(&data) {
            let want = q.forward_logit(x);
            let got = q.infer_scalar(x, &mut ws).expect("supported");
            assert_eq!(want.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn packed_engine_refuses_multi_output_heads() {
        let mut net = Network::builder(vec![6]).dense(2).unwrap().build(4);
        let data = calib(8, 6, 2);
        let q = QuantizedNetwork::from_network(&mut net, &data).unwrap();
        assert!(q.infer_scalar(&data[0], &mut Workspace::new()).is_none());
    }

    #[test]
    fn final_sigmoid_is_allowed_and_applied_in_float() {
        let mut net = Network::builder(vec![4])
            .dense(1)
            .unwrap()
            .sigmoid()
            .build(3);
        let data = calib(16, 4, 9);
        let q = QuantizedNetwork::from_network(&mut net, &data).unwrap();
        let p = q.predict_proba(&data[0]);
        assert!((0.0..=1.0).contains(&p));
    }
}
