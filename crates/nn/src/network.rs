//! Sequential network composition with build-time shape checking.

use crate::init::InitRng;
use crate::layers::{
    Branch, Conv1d, ConvLstm, Dense, Layer, Lstm, MaxPool1d, Relu, Sigmoid, SplitConcat,
};
use crate::param::Param;
use crate::NnError;

/// Per-branch activation statistics from one forward pass through the
/// modality split ([`SplitConcat`]): the flight-recorder tap that lets
/// a trigger decision be attributed to the accel / gyro / Euler branch
/// that drove it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchStat {
    /// Flattened output length of the branch.
    pub output_len: u32,
    /// L2 norm of the branch's output activations.
    pub l2: f32,
    /// Mean absolute activation.
    pub mean_abs: f32,
    /// Largest absolute activation.
    pub peak: f32,
}

impl BranchStat {
    /// The stats of one branch's output: one pass summing `v²` and
    /// `|v|` and taking the running max of `|v|`, in index order. The
    /// reference [`BranchStat::extend_from_concat`] is checked against.
    pub fn from_slice(xs: &[f32]) -> Self {
        let mut sq = 0.0f32;
        let mut abs = 0.0f32;
        let mut peak = 0.0f32;
        for &v in xs {
            sq += v * v;
            abs += v.abs();
            peak = peak.max(v.abs());
        }
        Self::finish(xs.len(), sq, abs, peak)
    }

    fn finish(len: usize, sq: f32, abs: f32, peak: f32) -> Self {
        Self {
            output_len: len as u32,
            l2: sq.sqrt(),
            mean_abs: if len == 0 { 0.0 } else { abs / len as f32 },
            peak,
        }
    }

    /// Appends one stat per branch for branch outputs laid back to back
    /// in `xs` (a [`SplitConcat`] output), branch `i` being `lens[i]`
    /// long. Bit-identical to [`BranchStat::from_slice`] on each branch.
    ///
    /// Each stat is three latency-bound chains (sum of squares, sum of
    /// magnitudes, running peak) that must run in index order, so one
    /// branch at a time keeps the core idle. Here up to four branches
    /// advance in lockstep, each chain still in its own index order.
    ///
    /// # Panics
    ///
    /// When `lens` does not sum to `xs.len()`.
    pub fn extend_from_concat(
        stats: &mut Vec<BranchStat>,
        xs: &[f32],
        lens: impl IntoIterator<Item = usize>,
    ) {
        let mut rest = xs;
        let mut batch: [&[f32]; 4] = [&[]; 4];
        let mut n = 0;
        for len in lens {
            assert!(len <= rest.len(), "branch lengths exceed the activations");
            let (part, tail) = rest.split_at(len);
            batch[n] = part;
            rest = tail;
            n += 1;
            if n == batch.len() {
                stats.extend(lockstep(batch));
                n = 0;
            }
        }
        assert!(rest.is_empty(), "branch lengths must cover the activations");
        match n {
            1 => stats.extend(lockstep([batch[0]])),
            2 => stats.extend(lockstep([batch[0], batch[1]])),
            3 => stats.extend(lockstep([batch[0], batch[1], batch[2]])),
            _ => {}
        }
    }

    /// Attribution shares (`l2_i / Σ l2`) for a set of branch stats.
    /// All-zero activations yield uniform shares.
    pub fn shares(stats: &[BranchStat]) -> Vec<f32> {
        let total: f32 = stats.iter().map(|s| s.l2).sum();
        if total > 0.0 {
            stats.iter().map(|s| s.l2 / total).collect()
        } else {
            vec![1.0 / stats.len().max(1) as f32; stats.len()]
        }
    }
}

/// [`BranchStat::from_slice`] over `K` slices at once: lockstep over
/// their common length, then each one's tail alone. The running peak is
/// a select rather than `f32::max`: a magnitude is never `-0.0`, and a
/// NaN one fails `>` and keeps the peak, as `max` does, so the bits
/// agree while the chain is one compare shorter.
fn lockstep<const K: usize>(parts: [&[f32]; K]) -> [BranchStat; K] {
    let common = parts.iter().map(|p| p.len()).min().unwrap_or(0);
    let heads = parts.map(|p| &p[..common]);
    let mut sums = [(0.0f32, 0.0f32, 0.0f32); K];
    let step = |(sq, abs, peak): &mut (f32, f32, f32), v: f32| {
        let a = v.abs();
        *sq += v * v;
        *abs += a;
        *peak = if a > *peak { a } else { *peak };
    };
    for i in 0..common {
        for (s, h) in sums.iter_mut().zip(&heads) {
            step(s, h[i]);
        }
    }
    for (s, p) in sums.iter_mut().zip(&parts) {
        for &v in &p[common..] {
            step(s, v);
        }
    }
    std::array::from_fn(|k| {
        let (sq, abs, peak) = sums[k];
        BranchStat::finish(parts[k].len(), sq, abs, peak)
    })
}

/// A feed-forward network: a chain of layers whose shapes were validated
/// at build time.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), prefall_nn::NnError> {
/// use prefall_nn::network::Network;
///
/// // The paper's MLP baseline on a 20×9 segment.
/// let mut mlp = Network::builder(vec![20, 9])
///     .dense(64)?
///     .relu()
///     .dense(32)?
///     .relu()
///     .dense(1)?
///     .build(42);
/// let logit = mlp.forward(&vec![0.0; 180]);
/// assert_eq!(logit.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    input_shape: Vec<usize>,
    seed: u64,
}

impl Network {
    /// Starts building a network for inputs of the given shape
    /// (`[features]` for flat inputs, `[time, channels]` for segments).
    pub fn builder(input_shape: Vec<usize>) -> NetworkBuilder {
        NetworkBuilder {
            shape: input_shape.clone(),
            input_shape,
            layers: Vec::new(),
            next_index: 0,
        }
    }

    /// Input shape the network was built for.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Flattened input length.
    pub fn input_len(&self) -> usize {
        self.input_shape.iter().product()
    }

    /// Flattened output length.
    pub fn output_len(&self) -> usize {
        self.layers
            .last()
            .map_or(self.input_len(), |l| l.output_len())
    }

    /// The seed the weights were initialised from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The layer chain.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable layer chain (used by the quantizer's calibration pass).
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Pre-builds the interleaved dense and conv weight packs —
    /// including inside [`SplitConcat`] branches — so the immutable
    /// [`Network::infer_scalar`](crate::workspace) path can use the
    /// packed kernels without allocating. Call after the weights settle
    /// (post-training, or before an evaluation sweep); without it
    /// inference falls back to slower — still bit-identical — kernels:
    /// the naive dense loop, and a fused conv that packs (and
    /// allocates) per call.
    pub fn prepare_inference(&mut self) {
        fn prep(layers: &mut [Box<dyn Layer>]) {
            for layer in layers {
                if let Some(d) = layer.as_any_mut().downcast_mut::<crate::layers::Dense>() {
                    d.ensure_packed();
                } else if let Some(c) = layer.as_any_mut().downcast_mut::<crate::layers::Conv1d>() {
                    c.ensure_packed();
                } else if let Some(s) = layer
                    .as_any_mut()
                    .downcast_mut::<crate::layers::SplitConcat>()
                {
                    for branch in s.branches_mut() {
                        prep(branch.layers_mut());
                    }
                }
            }
        }
        prep(&mut self.layers);
    }

    /// Forward pass for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input shape.
    pub fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "network input length");
        let mut x = input.to_vec();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Forward pass that additionally taps the first [`SplitConcat`]
    /// layer's per-branch outputs, returning one [`BranchStat`] per
    /// branch (empty for architectures without a modality split).
    ///
    /// The output is **bit-identical** to [`Network::forward`]: the
    /// trace only reads the intermediate activation buffer, it never
    /// re-orders or re-associates any arithmetic. Incident replay
    /// relies on this.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input shape.
    pub fn forward_traced(&mut self, input: &[f32]) -> (Vec<f32>, Vec<BranchStat>) {
        let mut stats = Vec::new();
        let out = self.forward_traced_into(input, &mut stats);
        (out, stats)
    }

    /// [`Network::forward_traced`] writing the branch statistics into a
    /// caller-owned buffer (cleared first), so a streaming caller can
    /// reuse its capacity and stay allocation-free per window.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` does not match the input shape.
    pub fn forward_traced_into(&mut self, input: &[f32], stats: &mut Vec<BranchStat>) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "network input length");
        let mut x = input.to_vec();
        stats.clear();
        for layer in &mut self.layers {
            x = layer.forward(&x);
            if stats.is_empty() {
                if let Some(split) = layer.as_any().downcast_ref::<SplitConcat>() {
                    let lens = split.branches().iter().map(|b| b.output_len());
                    BranchStat::extend_from_concat(stats, &x, lens);
                }
            }
        }
        x
    }

    /// Backward pass from an output gradient; accumulates parameter
    /// gradients and returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if the gradient length mismatches or `forward` was not
    /// called first.
    pub fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        let mut g = grad_out.to_vec();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Visits every trainable parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Scales all accumulated gradients (e.g. by `1/batch`).
    pub fn scale_grads(&mut self, k: f32) {
        self.visit_params(&mut |p| p.scale_grad(k));
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Total forward multiply–accumulates (drives the MCU latency model).
    pub fn macs(&self) -> usize {
        self.layers.iter().map(|l| l.macs()).sum()
    }

    /// Sets the bias of the final layer (which must be a [`Dense`]) —
    /// the paper's output-bias initialisation `b = log(p/(1−p))`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] when the last layer is not
    /// dense or the bias length mismatches.
    pub fn set_output_bias(&mut self, bias: &[f32]) -> Result<(), NnError> {
        let last = self.layers.last_mut().ok_or(NnError::InvalidLayer {
            layer: "output",
            reason: "network has no layers".to_string(),
        })?;
        let out_len = last.output_len();
        if bias.len() != out_len {
            return Err(NnError::InvalidLayer {
                layer: "output",
                reason: format!("bias length {} != output length {out_len}", bias.len()),
            });
        }
        // Walk params to find the last dense bias by name suffix.
        let mut found = false;
        last.visit_params(&mut |p| {
            if p.name.ends_with(".b") && p.w.len() == bias.len() {
                p.w.copy_from_slice(bias);
                found = true;
            }
        });
        if found {
            Ok(())
        } else {
            Err(NnError::InvalidLayer {
                layer: "output",
                reason: "final layer has no bias parameter".to_string(),
            })
        }
    }

    /// Snapshots every parameter value (for early-stopping restore).
    pub fn snapshot(&mut self) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| out.push(p.w.clone()));
        out
    }

    /// Restores parameter values from a snapshot taken on the same
    /// network.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot does not match the parameter structure.
    pub fn restore(&mut self, snapshot: &[Vec<f32>]) {
        let mut i = 0;
        self.visit_params(&mut |p| {
            assert!(i < snapshot.len(), "snapshot too short");
            assert_eq!(snapshot[i].len(), p.w.len(), "snapshot block size");
            p.w.copy_from_slice(&snapshot[i]);
            i += 1;
        });
        assert_eq!(i, snapshot.len(), "snapshot too long");
    }
}

/// Builder for [`Network`], tracking the running activation shape.
#[derive(Debug)]
pub struct NetworkBuilder {
    /// Running shape: `[len]` or `[time, channels]`.
    shape: Vec<usize>,
    input_shape: Vec<usize>,
    layers: Vec<Box<dyn Layer>>,
    next_index: usize,
}

impl NetworkBuilder {
    fn flat_len(&self) -> usize {
        self.shape.iter().product()
    }

    fn seq_dims(&self, layer: &'static str) -> Result<(usize, usize), NnError> {
        match self.shape[..] {
            [t, c] => Ok((t, c)),
            _ => Err(NnError::InvalidLayer {
                layer,
                reason: format!("requires a [time, channels] input, found {:?}", self.shape),
            }),
        }
    }

    fn bump(&mut self) -> usize {
        let i = self.next_index;
        self.next_index += 1;
        i
    }

    /// Appends a dense layer with `out` units (flattens the input).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] when `out == 0`.
    pub fn dense(mut self, out: usize) -> Result<Self, NnError> {
        if out == 0 {
            return Err(NnError::InvalidLayer {
                layer: "dense",
                reason: "output width must be positive".to_string(),
            });
        }
        let idx = self.bump();
        let layer = Dense::new(idx, self.flat_len(), out);
        self.layers.push(Box::new(layer));
        self.shape = vec![out];
        Ok(self)
    }

    /// Appends a ReLU activation.
    pub fn relu(mut self) -> Self {
        let len = self.flat_len();
        self.layers.push(Box::new(Relu::new(len)));
        self
    }

    /// Appends a sigmoid activation.
    pub fn sigmoid(mut self) -> Self {
        let len = self.flat_len();
        self.layers.push(Box::new(Sigmoid::new(len)));
        self
    }

    /// Appends a 1-D convolution over time.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] when the running shape is not
    /// `[time, channels]` or the kernel exceeds the window.
    pub fn conv1d(mut self, filters: usize, kernel: usize) -> Result<Self, NnError> {
        let (t, c) = self.seq_dims("conv1d")?;
        if kernel == 0 || kernel > t || filters == 0 {
            return Err(NnError::InvalidLayer {
                layer: "conv1d",
                reason: format!("filters {filters}, kernel {kernel} invalid for time {t}"),
            });
        }
        let idx = self.bump();
        let layer = Conv1d::new(idx, t, c, filters, kernel)?;
        self.shape = vec![layer.out_time(), filters];
        self.layers.push(Box::new(layer));
        Ok(self)
    }

    /// Appends max pooling over time.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for a non-sequence shape or a
    /// pool width that exceeds the remaining time steps.
    pub fn maxpool(mut self, pool: usize) -> Result<Self, NnError> {
        let (t, c) = self.seq_dims("maxpool1d")?;
        if pool == 0 || pool > t {
            return Err(NnError::InvalidLayer {
                layer: "maxpool1d",
                reason: format!("pool {pool} invalid for time {t}"),
            });
        }
        let layer = MaxPool1d::new(t, c, pool);
        self.shape = vec![layer.out_time(), c];
        self.layers.push(Box::new(layer));
        Ok(self)
    }

    /// Appends an LSTM returning the last hidden state.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for a non-sequence input.
    pub fn lstm(mut self, hidden: usize) -> Result<Self, NnError> {
        let (t, c) = self.seq_dims("lstm")?;
        if hidden == 0 {
            return Err(NnError::InvalidLayer {
                layer: "lstm",
                reason: "hidden size must be positive".to_string(),
            });
        }
        let idx = self.bump();
        self.layers.push(Box::new(Lstm::new(idx, t, c, hidden)));
        self.shape = vec![hidden];
        Ok(self)
    }

    /// Appends a ConvLSTM returning the flattened last hidden state.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] for a non-sequence input or an
    /// even kernel.
    pub fn conv_lstm(mut self, filters: usize, kernel: usize) -> Result<Self, NnError> {
        let (t, c) = self.seq_dims("convlstm")?;
        if filters == 0 || kernel.is_multiple_of(2) {
            return Err(NnError::InvalidLayer {
                layer: "convlstm",
                reason: format!("filters {filters}, kernel {kernel} (kernel must be odd)"),
            });
        }
        let idx = self.bump();
        self.layers
            .push(Box::new(ConvLstm::new(idx, t, c, filters, kernel)));
        self.shape = vec![c * filters];
        Ok(self)
    }

    /// Appends the paper's modality split: each `(channels, branch)` pair
    /// routes those input channels through the branch sub-network built
    /// from its own [`NetworkBuilder`] (whose input shape must be
    /// `[time, channels.len()]`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] on any shape inconsistency.
    pub fn split(mut self, branches: Vec<(Vec<usize>, NetworkBuilder)>) -> Result<Self, NnError> {
        let (t, c) = self.seq_dims("split_concat")?;
        let mut built = Vec::with_capacity(branches.len());
        for (i, (sel, bb)) in branches.into_iter().enumerate() {
            if sel.iter().any(|&ch| ch >= c) {
                return Err(NnError::InvalidLayer {
                    layer: "split_concat",
                    reason: format!("branch {i} selects channel out of range (C = {c})"),
                });
            }
            if bb.input_shape != vec![t, sel.len()] {
                return Err(NnError::InvalidLayer {
                    layer: "split_concat",
                    reason: format!(
                        "branch {i} was built for input {:?}, selection provides [{t}, {}]",
                        bb.input_shape,
                        sel.len()
                    ),
                });
            }
            if bb.layers.is_empty() {
                return Err(NnError::InvalidLayer {
                    layer: "split_concat",
                    reason: format!("branch {i} has no layers"),
                });
            }
            // Namespace branch parameter names so parallel branches built
            // from independent builders stay distinct.
            let mut layers = bb.layers;
            for layer in &mut layers {
                layer.visit_params(&mut |p| p.name = format!("b{i}.{}", p.name));
            }
            built.push(Branch::new(sel, layers));
        }
        let layer = SplitConcat::new(t, c, built);
        self.shape = vec![layer.output_len()];
        self.layers.push(Box::new(layer));
        self.next_index += 100; // keep later param names distinct from branch names
        Ok(self)
    }

    /// Finalises the network, initialising all weights from `seed`.
    pub fn build(self, seed: u64) -> Network {
        let mut net = Network {
            layers: self.layers,
            input_shape: self.input_shape,
            seed,
        };
        let mut rng = InitRng::new(seed);
        for layer in &mut net.layers {
            layer.init_weights(&mut rng);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cnn() -> Network {
        let branch = |sel: Vec<usize>| {
            (
                sel,
                Network::builder(vec![8, 2])
                    .conv1d(3, 3)
                    .unwrap()
                    .relu()
                    .maxpool(2)
                    .unwrap(),
            )
        };
        Network::builder(vec![8, 4])
            .split(vec![branch(vec![0, 1]), branch(vec![2, 3])])
            .unwrap()
            .dense(8)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .build(5)
    }

    #[test]
    fn builder_tracks_shapes() {
        let net = tiny_cnn();
        assert_eq!(net.input_len(), 32);
        assert_eq!(net.output_len(), 1);
        assert!(net.param_count() > 0);
        assert!(net.macs() > 0);
    }

    #[test]
    fn forward_traced_is_bit_identical_and_reports_branches() {
        let mut net = tiny_cnn();
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.17).sin()).collect();
        let plain = net.forward(&x);
        let (traced, stats) = net.forward_traced(&x);
        assert_eq!(plain, traced, "trace must not perturb the forward pass");
        assert_eq!(stats.len(), 2, "one stat per branch");
        for s in &stats {
            assert!(s.l2 >= 0.0 && s.peak >= 0.0 && s.mean_abs >= 0.0);
            assert!(s.output_len > 0);
        }
        let shares = BranchStat::shares(&stats);
        assert!((shares.iter().sum::<f32>() - 1.0).abs() < 1e-6);

        // An architecture without a split traces nothing.
        let mut mlp = Network::builder(vec![6]).dense(3).unwrap().build(1);
        let (_, stats) = mlp.forward_traced(&[0.1; 6]);
        assert!(stats.is_empty());
    }

    #[test]
    fn forward_backward_roundtrip() {
        let mut net = tiny_cnn();
        let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.2).sin()).collect();
        let y = net.forward(&x);
        assert_eq!(y.len(), 1);
        let gx = net.backward(&[1.0]);
        assert_eq!(gx.len(), 32);
        assert!(gx.iter().any(|&g| g != 0.0));
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(
            Network::builder(vec![10]).conv1d(4, 3).is_err(),
            "conv on flat"
        );
        assert!(
            Network::builder(vec![4, 2]).conv1d(4, 9).is_err(),
            "kernel too long"
        );
        assert!(
            Network::builder(vec![4, 2]).maxpool(5).is_err(),
            "pool too long"
        );
        assert!(Network::builder(vec![10]).dense(0).is_err(), "zero dense");
        assert!(Network::builder(vec![4, 2]).lstm(0).is_err(), "zero hidden");
        assert!(
            Network::builder(vec![4, 2]).conv_lstm(2, 2).is_err(),
            "even kernel"
        );
        // Branch built for the wrong shape.
        let b = Network::builder(vec![4, 3]).dense(2).unwrap();
        assert!(Network::builder(vec![4, 2])
            .split(vec![(vec![0], b)])
            .is_err());
    }

    #[test]
    fn same_seed_same_weights_different_seed_differs() {
        let mut a = Network::builder(vec![6]).dense(4).unwrap().build(9);
        let mut b = Network::builder(vec![6]).dense(4).unwrap().build(9);
        let mut c = Network::builder(vec![6]).dense(4).unwrap().build(10);
        let x = vec![0.5; 6];
        assert_eq!(a.forward(&x), b.forward(&x));
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut net = tiny_cnn();
        let x: Vec<f32> = (0..32).map(|i| i as f32 * 0.1).collect();
        let before = net.forward(&x);
        let snap = net.snapshot();
        // Perturb weights.
        net.visit_params(&mut |p| {
            for w in &mut p.w {
                *w += 0.5;
            }
        });
        assert_ne!(net.forward(&x), before);
        net.restore(&snap);
        assert_eq!(net.forward(&x), before);
    }

    #[test]
    fn set_output_bias_applies() {
        let mut net = Network::builder(vec![4]).dense(1).unwrap().build(1);
        net.set_output_bias(&[-3.3]).unwrap();
        let y = net.forward(&[0.0; 4]);
        assert!((y[0] + 3.3).abs() < 1e-6);
        assert!(net.set_output_bias(&[0.0, 1.0]).is_err());
    }

    #[test]
    fn zero_and_scale_grads() {
        let mut net = Network::builder(vec![3]).dense(2).unwrap().build(2);
        let _ = net.forward(&[1.0, 2.0, 3.0]);
        let _ = net.backward(&[1.0, 1.0]);
        let mut total: f32 = 0.0;
        net.visit_params(&mut |p| total += p.g.iter().map(|g| g.abs()).sum::<f32>());
        assert!(total > 0.0);
        net.scale_grads(0.0);
        let mut total2: f32 = 0.0;
        net.visit_params(&mut |p| total2 += p.g.iter().map(|g| g.abs()).sum::<f32>());
        assert_eq!(total2, 0.0);
    }

    #[test]
    fn param_names_are_unique() {
        let mut net = tiny_cnn();
        let mut names = Vec::new();
        net.visit_params(&mut |p| names.push(p.name.clone()));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate param names: {names:?}");
    }
}
