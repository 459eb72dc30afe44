//! Fully connected layer.

use super::Layer;
use crate::init::{he_uniform, InitRng};
use crate::kernels;
use crate::param::Param;

/// A fully connected (dense) layer: `y = W·x + b`.
///
/// Weights are stored row-major `[out × in]`.
///
/// The weight gradient of one sample is the outer product
/// `grad_out ⊗ input` — a rank-1 matrix the trainer never needs
/// materialised per sample. In *factored-gradient* mode
/// ([`Dense::set_fast_grad`]) `backward` therefore skips every `w.g` /
/// `b.g` write and instead caches `grad_out`; the trainer reads the
/// `(grad_out, input)` pair via [`Dense::rank1_grad`] and folds whole
/// batches at once through [`Dense::fold_rank1_batch`], which
/// reconstructs exactly the per-element accumulation chains the naive
/// per-sample fold would have produced.
#[derive(Debug, Clone)]
pub struct Dense {
    in_len: usize,
    out_len: usize,
    w: Param,
    b: Param,
    input_cache: Vec<f32>,
    /// Factored-gradient mode: `backward` caches `grad_out` instead of
    /// accumulating `w.g`/`b.g`.
    fast_grad: bool,
    /// `grad_out` of the most recent `backward` in factored mode.
    last_go: Vec<f32>,
    /// Interleaved weight pack (see [`kernels::pack_dense_weights`]),
    /// valid while `packed_rev == rev`.
    packed: Vec<f32>,
    /// Weight revision the pack was built from.
    packed_rev: u64,
    /// Bumped whenever the weights may have changed (`visit_params`,
    /// `init_weights`). Weight mutation must go through those paths for
    /// the pack cache to stay coherent.
    rev: u64,
}

impl Dense {
    /// Creates a dense layer with zeroed weights (call
    /// [`Layer::init_weights`] or load weights before use).
    ///
    /// `index` namespaces the parameter names (`dense<index>.w`).
    pub fn new(index: usize, in_len: usize, out_len: usize) -> Self {
        Self {
            in_len,
            out_len,
            w: Param::new(format!("dense{index}.w"), vec![0.0; in_len * out_len]),
            b: Param::new(format!("dense{index}.b"), vec![0.0; out_len]),
            input_cache: Vec::new(),
            fast_grad: false,
            last_go: Vec::new(),
            packed: Vec::new(),
            packed_rev: 0,
            rev: 1,
        }
    }

    /// Rebuilds the interleaved weight pack if the weights changed
    /// since the last build; a no-op when the pack is already fresh.
    pub fn ensure_packed(&mut self) {
        if self.packed_rev != self.rev {
            self.packed = kernels::pack_dense_weights(&self.w.w, self.in_len, self.out_len);
            self.packed_rev = self.rev;
        }
    }

    /// The interleaved weight pack, if it is up to date with the
    /// current weights. The immutable workspace inference path uses
    /// this when a prior forward (or
    /// [`crate::network::Network::prepare_inference`]) already paid for
    /// the pack; `None` means fall back to [`kernels::dense_reference`].
    pub fn fresh_pack(&self) -> Option<&[f32]> {
        (self.packed_rev == self.rev).then_some(&self.packed[..])
    }

    /// Immutable view of the weight matrix (row-major `[out × in]`).
    pub fn weights(&self) -> &[f32] {
        &self.w.w
    }

    /// Immutable view of the bias vector.
    pub fn biases(&self) -> &[f32] {
        &self.b.w
    }

    /// Overwrites the bias vector (used for the paper's output-bias
    /// initialisation `b = log(p/(1-p))`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != out_len`.
    pub fn set_biases(&mut self, b: &[f32]) {
        assert_eq!(b.len(), self.out_len, "bias length mismatch");
        self.b.w.copy_from_slice(b);
    }

    /// Input width.
    pub fn in_len(&self) -> usize {
        self.in_len
    }

    /// Output width.
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// Switches factored-gradient mode on or off (see the type docs).
    pub fn set_fast_grad(&mut self, on: bool) {
        self.fast_grad = on;
    }

    /// The `(grad_out, input)` factors of the last sample's weight
    /// gradient, valid after a factored-mode `backward`.
    pub fn rank1_grad(&self) -> (&[f32], &[f32]) {
        (&self.last_go, &self.input_cache)
    }

    /// Accumulates a batch of factored gradients into `w.g` / `b.g`.
    ///
    /// Each contribution is `(grad_out, input, input_finite)`. The loop
    /// runs param-major for locality, but every gradient *element* still
    /// sees its per-sample terms in slice order — the same chains as
    /// folding per-sample dense gradients one sample at a time, so the
    /// result is bit-identical to the reference fold. Rows with
    /// `grad_out[o] == 0.0` are skipped: their terms are `±0.0 · x`,
    /// which cannot move a running sum (the sum can never be `-0.0`) —
    /// unless `x` is non-finite, which is what the flag guards.
    pub fn fold_rank1_batch(&mut self, contribs: &[(&[f32], &[f32], bool)]) {
        for (go, _, _) in contribs {
            for (bg, &g) in self.b.g.iter_mut().zip(*go) {
                *bg += g;
            }
        }
        for o in 0..self.out_len {
            let row = &mut self.w.g[o * self.in_len..(o + 1) * self.in_len];
            for (go, x, finite) in contribs {
                let g = go[o];
                if g == 0.0 && *finite {
                    continue;
                }
                for (rv, &xv) in row.iter_mut().zip(*x) {
                    *rv += g * xv;
                }
            }
        }
    }
}

impl Layer for Dense {
    fn kind(&self) -> &'static str {
        "dense"
    }

    fn input_len(&self) -> usize {
        self.in_len
    }

    fn output_len(&self) -> usize {
        self.out_len
    }

    fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.in_len, "dense input length");
        self.input_cache.clear();
        self.input_cache.extend_from_slice(input);
        let mut out = vec![0.0f32; self.out_len];
        if kernels::reference_kernels() {
            kernels::dense_reference(input, &self.w.w, &self.b.w, &mut out);
        } else {
            // Bit-identical to the reference (each output's accumulator
            // still sums `j` ascending from 0.0). The pack is cached
            // across calls and rebuilt only when the weights change, so
            // its cost amortises over a whole batch of forwards.
            self.ensure_packed();
            kernels::dense_forward_packed(input, &self.packed, &self.b.w, &mut out);
        }
        out
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        assert_eq!(grad_out.len(), self.out_len, "dense grad length");
        assert_eq!(self.input_cache.len(), self.in_len, "forward not called");
        let mut grad_in = vec![0.0f32; self.in_len];
        if self.fast_grad {
            // Factored mode: cache grad_out for the trainer's rank-1
            // fold instead of materialising the outer product, and skip
            // zero rows of the input gradient (their `±0·w` terms
            // cannot change a running sum that is never `-0.0`).
            self.last_go.clear();
            self.last_go.extend_from_slice(grad_out);
            for (o, &go) in grad_out.iter().enumerate() {
                if go == 0.0 {
                    continue;
                }
                let row_w = &self.w.w[o * self.in_len..(o + 1) * self.in_len];
                for (gi, &wv) in grad_in.iter_mut().zip(row_w) {
                    *gi += go * wv;
                }
            }
            return grad_in;
        }
        for (o, &go) in grad_out.iter().enumerate() {
            self.b.g[o] += go;
            let row_w = &self.w.w[o * self.in_len..(o + 1) * self.in_len];
            let row_g = &mut self.w.g[o * self.in_len..(o + 1) * self.in_len];
            for i in 0..self.in_len {
                row_g[i] += go * self.input_cache[i];
                grad_in[i] += go * row_w[i];
            }
        }
        grad_in
    }

    fn init_weights(&mut self, rng: &mut InitRng) {
        self.w.w = he_uniform(rng, self.in_len, self.in_len * self.out_len);
        self.b.w = vec![0.0; self.out_len];
        self.rev += 1;
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
        // The visitor held `&mut` to the weights; assume they changed.
        self.rev += 1;
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn macs(&self) -> usize {
        self.in_len * self.out_len
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::check_layer;

    #[test]
    fn forward_matches_manual_computation() {
        let mut d = Dense::new(0, 3, 2);
        d.w.w = vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0];
        d.b.w = vec![0.1, -0.2];
        let y = d.forward(&[1.0, 1.0, 2.0]);
        assert!((y[0] - (0.1 + 1.0 + 2.0 + 6.0)).abs() < 1e-6);
        assert!((y[1] - (-0.2 - 1.0 + 0.5)).abs() < 1e-6);
    }

    #[test]
    fn gradient_check() {
        let mut d = Dense::new(0, 5, 4);
        let mut rng = InitRng::new(3);
        d.init_weights(&mut rng);
        let input: Vec<f32> = (0..5).map(|i| 0.3 * i as f32 - 0.7).collect();
        check_layer(&mut d, &input, 2e-2);
    }

    #[test]
    fn metadata() {
        let d = Dense::new(1, 10, 4);
        assert_eq!(d.kind(), "dense");
        assert_eq!(d.param_count(), 44);
        assert_eq!(d.macs(), 40);
        assert_eq!(d.input_len(), 10);
        assert_eq!(d.output_len(), 4);
    }

    #[test]
    fn set_biases_applies() {
        let mut d = Dense::new(0, 2, 1);
        d.set_biases(&[-3.17]);
        let y = d.forward(&[0.0, 0.0]);
        assert!((y[0] + 3.17).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn set_biases_rejects_wrong_len() {
        let mut d = Dense::new(0, 2, 1);
        d.set_biases(&[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "dense input length")]
    fn forward_rejects_wrong_len() {
        let mut d = Dense::new(0, 2, 1);
        let _ = d.forward(&[0.0; 3]);
    }

    #[test]
    fn init_is_seed_deterministic() {
        let mut a = Dense::new(0, 8, 8);
        let mut b = Dense::new(0, 8, 8);
        a.init_weights(&mut InitRng::new(9));
        b.init_weights(&mut InitRng::new(9));
        assert_eq!(a.w.w, b.w.w);
    }
}
