//! 1-D convolution over the time axis.

use super::Layer;
use crate::init::{he_uniform, InitRng};
use crate::kernels;
use crate::param::Param;
use crate::NnError;

/// A 1-D convolution over time: input `[T × C]` (time-major), output
/// `[(T − K + 1) × F]`, valid padding, stride 1.
///
/// Weights are stored `[F × K × C]`.
#[derive(Debug, Clone)]
pub struct Conv1d {
    time: usize,
    in_ch: usize,
    filters: usize,
    kernel: usize,
    w: Param,
    b: Param,
    input_cache: Vec<f32>,
    packed: Vec<f32>,
    packed_rev: u64,
    rev: u64,
}

impl Conv1d {
    /// Creates a convolution layer with zeroed weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLayer`] when any dimension is zero or
    /// `kernel > time`.
    pub fn new(
        index: usize,
        time: usize,
        in_ch: usize,
        filters: usize,
        kernel: usize,
    ) -> Result<Self, NnError> {
        if time == 0 || in_ch == 0 || filters == 0 || kernel == 0 {
            return Err(NnError::InvalidLayer {
                layer: "conv1d",
                reason: format!(
                    "dimensions must be positive \
                     (time {time}, channels {in_ch}, filters {filters}, kernel {kernel})"
                ),
            });
        }
        if kernel > time {
            return Err(NnError::InvalidLayer {
                layer: "conv1d",
                reason: format!("kernel {kernel} exceeds time {time}"),
            });
        }
        Ok(Self {
            time,
            in_ch,
            filters,
            kernel,
            w: Param::new(
                format!("conv{index}.w"),
                vec![0.0; filters * kernel * in_ch],
            ),
            b: Param::new(format!("conv{index}.b"), vec![0.0; filters]),
            input_cache: Vec::new(),
            packed: Vec::new(),
            packed_rev: 0,
            rev: 1,
        })
    }

    /// Output length along time.
    pub fn out_time(&self) -> usize {
        self.time - self.kernel + 1
    }

    /// Number of filters (output channels).
    pub fn filters(&self) -> usize {
        self.filters
    }

    /// Kernel width.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Input channels.
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Input time steps.
    pub fn in_time(&self) -> usize {
        self.time
    }

    /// The weight tensor `[F × K × C]`.
    pub fn weights(&self) -> &[f32] {
        &self.w.w
    }

    /// The per-filter biases.
    pub fn biases(&self) -> &[f32] {
        &self.b.w
    }

    /// Rebuilds the filter-interleaved weight pack
    /// ([`kernels::pack_conv_weights`]) if the weights have changed
    /// since the last build (or were never packed).
    pub fn ensure_packed(&mut self) {
        if self.packed_rev != self.rev {
            self.packed =
                kernels::pack_conv_weights(&self.w.w, self.in_ch, self.filters, self.kernel);
            self.packed_rev = self.rev;
        }
    }

    /// The cached weight pack, if it is current for the present
    /// weights — `None` means the caller must use an unpacked kernel
    /// (or call [`Conv1d::ensure_packed`] first).
    pub fn fresh_pack(&self) -> Option<&[f32]> {
        (self.packed_rev == self.rev).then_some(&self.packed[..])
    }
}

impl Layer for Conv1d {
    fn kind(&self) -> &'static str {
        "conv1d"
    }

    fn input_len(&self) -> usize {
        self.time * self.in_ch
    }

    fn output_len(&self) -> usize {
        self.out_time() * self.filters
    }

    fn forward(&mut self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.input_len(), "conv1d input length");
        self.input_cache.clear();
        self.input_cache.extend_from_slice(input);
        let mut out = vec![0.0f32; self.out_time() * self.filters];
        // Both kernels are bit-identical; the switch only exists so
        // tests can check the fast path against the naive one.
        if kernels::reference_kernels() {
            kernels::conv1d_reference(
                input,
                &self.w.w,
                &self.b.w,
                self.time,
                self.in_ch,
                self.filters,
                self.kernel,
                &mut out,
            );
        } else {
            // Repacks only when the weights may have changed since the
            // last pack (`init_weights`, `visit_params`).
            self.ensure_packed();
            kernels::conv1d_blocked(
                input,
                &self.packed,
                &self.b.w,
                self.time,
                self.in_ch,
                self.filters,
                self.kernel,
                &mut out,
            );
        }
        out
    }

    fn backward(&mut self, grad_out: &[f32]) -> Vec<f32> {
        assert_eq!(grad_out.len(), self.output_len(), "conv1d grad length");
        assert!(!self.input_cache.is_empty(), "forward not called");
        let (c, k, f_n) = (self.in_ch, self.kernel, self.filters);
        let t_out = self.out_time();
        let mut grad_in = vec![0.0f32; self.input_len()];
        if !kernels::reference_kernels() {
            // Slice-zipped variant of the reference loop below: same
            // (t, f, j) visit order and per-element expressions, so the
            // accumulation chains — and therefore the bits — match. The
            // zips just drop the per-access bounds checks.
            for t in 0..t_out {
                let base = t * c;
                let xs = &self.input_cache[base..base + k * c];
                let gi = &mut grad_in[base..base + k * c];
                for f in 0..f_n {
                    let go = grad_out[t * f_n + f];
                    if go == 0.0 {
                        continue;
                    }
                    self.b.g[f] += go;
                    let wf = &self.w.w[f * k * c..(f + 1) * k * c];
                    let gf = &mut self.w.g[f * k * c..(f + 1) * k * c];
                    for (((gf_v, &wv), &xv), gi_v) in
                        gf.iter_mut().zip(wf).zip(xs).zip(gi.iter_mut())
                    {
                        *gf_v += go * xv;
                        *gi_v += go * wv;
                    }
                }
            }
            return grad_in;
        }
        for t in 0..t_out {
            let base = t * c;
            for f in 0..f_n {
                let go = grad_out[t * f_n + f];
                if go == 0.0 {
                    continue;
                }
                self.b.g[f] += go;
                let wf = &self.w.w[f * k * c..(f + 1) * k * c];
                let gf = &mut self.w.g[f * k * c..(f + 1) * k * c];
                for j in 0..k * c {
                    gf[j] += go * self.input_cache[base + j];
                    grad_in[base + j] += go * wf[j];
                }
            }
        }
        grad_in
    }

    fn init_weights(&mut self, rng: &mut InitRng) {
        let fan_in = self.kernel * self.in_ch;
        self.w.w = he_uniform(rng, fan_in, self.filters * fan_in);
        self.b.w = vec![0.0; self.filters];
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
        self.out_time() * self.filters * self.kernel * self.in_ch
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
    fn identity_kernel_shifts_channels() {
        // One filter picking channel 0 at kernel tap 0.
        let mut conv = Conv1d::new(0, 4, 2, 1, 2).unwrap();
        conv.w.w = vec![1.0, 0.0, 0.0, 0.0]; // [f=0][k=0][c=0]=1
        let input = vec![
            1.0, 10.0, // t=0
            2.0, 20.0, // t=1
            3.0, 30.0, // t=2
            4.0, 40.0, // t=3
        ];
        let out = conv.forward(&input);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn averaging_kernel() {
        let mut conv = Conv1d::new(0, 3, 1, 1, 3).unwrap();
        conv.w.w = vec![1.0 / 3.0; 3];
        conv.b.w = vec![1.0];
        let out = conv.forward(&[3.0, 6.0, 9.0]);
        assert!((out[0] - 7.0).abs() < 1e-6);
    }

    #[test]
    fn shapes_and_counts_match_paper_branch() {
        // The paper's 400 ms branch: 40×3 input, 16 filters, kernel 5.
        let conv = Conv1d::new(0, 40, 3, 16, 5).unwrap();
        assert_eq!(conv.input_len(), 120);
        assert_eq!(conv.out_time(), 36);
        assert_eq!(conv.output_len(), 576);
        assert_eq!(conv.param_count(), 16 * 5 * 3 + 16);
        assert_eq!(conv.macs(), 36 * 16 * 15);
    }

    #[test]
    fn gradient_check() {
        let mut conv = Conv1d::new(0, 6, 2, 3, 3).unwrap();
        conv.init_weights(&mut InitRng::new(5));
        let input: Vec<f32> = (0..12).map(|i| (i as f32 * 0.7).sin()).collect();
        check_layer(&mut conv, &input, 2e-2);
    }

    #[test]
    fn rejects_bad_dimensions_with_errors() {
        let err = Conv1d::new(0, 3, 1, 1, 5).unwrap_err();
        assert!(
            matches!(&err, NnError::InvalidLayer { layer, reason }
                if *layer == "conv1d" && reason.contains("kernel 5 exceeds time 3")),
            "unexpected error: {err}"
        );
        for (time, in_ch, filters, kernel) in
            [(0, 1, 1, 1), (3, 0, 1, 1), (3, 1, 0, 1), (3, 1, 1, 0)]
        {
            let err = Conv1d::new(0, time, in_ch, filters, kernel).unwrap_err();
            assert!(
                matches!(&err, NnError::InvalidLayer { reason, .. }
                    if reason.contains("positive")),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "conv1d input length")]
    fn rejects_wrong_input_len() {
        let mut conv = Conv1d::new(0, 4, 2, 1, 2).unwrap();
        let _ = conv.forward(&[0.0; 7]);
    }
}
