//! The packed int8 engine behind [`QuantizedNetwork::infer_scalar`].
//!
//! [`Pack::new`] turns the quantized layer stack into a flat program
//! once, when the network is built: i16 copies of the int8 weights,
//! requantization constants per output channel, and fused steps. The
//! flash image the footprint accounting and the C export read (`w`,
//! `bias`, `mult`) is left as it is; the pack is host-side only.
//!
//! Every transformation is exact in integer arithmetic, so the packed
//! engine equals the reference [`QuantizedNetwork::forward_logit`] bit
//! for bit:
//!
//! * **Zero point folded into the bias.** `Σ w·(x − zp)` equals
//!   `Σ w·x − zp·Σ w`, so the pack stores `bias − zp·Σ w` and the inner
//!   loop is a plain dot product. Both sides wrap identically in i32.
//! * **i16 operands in adjacent pairs.** Activations and weights are
//!   i16, multiplied eight at a time and summed in adjacent pairs into
//!   four i32 lanes — x86-64's baseline `pmaddwd`, the host analogue of
//!   the Cortex-M7 `SMLAD` the `prefall-mcu` cycle model assumes. Rows
//!   are zero-padded to a multiple of [`LANES`], and row counts to a
//!   multiple of [`BLOCK`]; each kernel's input is zero-extended to the
//!   padded length it reads (at most [`SLACK`] slots more), so padding
//!   adds nothing to any sum.
//! * **Output rows in blocks.** [`BLOCK`] dense rows (or conv filters)
//!   share each pass over their input, and their four accumulators
//!   reduce together.
//! * **Conv → (ReLU) → max-pool fused on raw accumulators.** The pool
//!   takes the max of the i32 accumulators and requantizes once per
//!   pooled output. Requantization followed by the clamp never
//!   decreases as the accumulator grows, unless its i32 arithmetic can
//!   overflow; layers where it can (checked at pack time) requantize
//!   every tap before the max, as the reference does.
//! * **Branch outputs requantized in place.** Each split branch is
//!   gathered, run, and requantized straight into its slice of the
//!   concat buffer.

use super::{apply_multiplier, ActQuant, QConv1d, QDense, QLayer, QMaxPool, QuantizedNetwork};

/// i16 operands per padded row chunk: one 128-bit register.
const LANES: usize = 8;

/// Slots a kernel may read past its input's logical end: the zero
/// padding of one row chunk.
const SLACK: usize = LANES;

/// Output rows computed per pass over the input.
const BLOCK: usize = 4;

/// Reusable int8-engine activations (values in `-128..=127`, stored
/// as i16 for the paired multiply-accumulate).
#[derive(Debug, Default, Clone)]
pub(crate) struct Int8Buffers {
    a: Vec<i16>,
    b: Vec<i16>,
    branch_a: Vec<i16>,
    branch_b: Vec<i16>,
}

impl Int8Buffers {
    /// Pre-grows every buffer to hold `len` activations and their
    /// padding.
    pub(crate) fn reserve(&mut self, len: usize) {
        for buf in [
            &mut self.a,
            &mut self.b,
            &mut self.branch_a,
            &mut self.branch_b,
        ] {
            buf.reserve((len + SLACK).saturating_sub(buf.len()));
        }
    }
}

/// Requantization of one output channel: fixed-point multiply, zero
/// point, clamp (ReLU fused into `lo`).
#[derive(Debug, Clone, Copy)]
struct Requant {
    m0: i32,
    shift: i32,
    zp: i32,
    lo: i32,
}

impl Requant {
    fn new((m0, shift): (i32, i32), out: ActQuant, relu: bool) -> Self {
        let lo = if relu { out.zero_point.max(-128) } else { -128 };
        Self {
            m0,
            shift,
            zp: out.zero_point,
            lo,
        }
    }

    /// The reference kernels' output expression, verbatim.
    #[inline]
    fn apply(self, acc: i32) -> i16 {
        (apply_multiplier(acc, self.m0, self.shift) + self.zp).clamp(self.lo, 127) as i16
    }

    /// Whether [`Requant::apply`] is non-decreasing over every i32
    /// accumulator: the i64 value before the `as i32` cast is, and it
    /// stays in range (with the zero point added) at both extremes.
    fn monotone(self) -> bool {
        let total = 31 + self.shift;
        if self.m0 <= 0 || !(1..=62).contains(&total) {
            return false;
        }
        let at = |acc: i32| {
            ((i64::from(acc) * i64::from(self.m0) + (1i64 << (total - 1))) >> total)
                + i64::from(self.zp)
        };
        let range = i64::from(i32::MIN)..=i64::from(i32::MAX);
        range.contains(&at(i32::MIN)) && range.contains(&at(i32::MAX))
    }
}

/// `bias − zp·Σ w` per row, wrapping exactly as the reference
/// accumulator does.
fn fold_bias(bias: &[i32], zp: i32, w: &[i8], len: usize) -> Vec<i32> {
    bias.iter()
        .zip(w.chunks_exact(len))
        .map(|(&b, row)| {
            let sum = row.iter().fold(0i32, |s, &w| s.wrapping_add(i32::from(w)));
            b.wrapping_sub(zp.wrapping_mul(sum))
        })
        .collect()
}

/// The int8 rows of `len` as i16 rows of `stride`, zero-padded, plus
/// zero rows up to a multiple of [`BLOCK`].
fn widen_rows(w: &[i8], len: usize, stride: usize) -> Vec<i16> {
    let rows = w.len() / len;
    let mut out = vec![0i16; rows.next_multiple_of(BLOCK) * stride];
    for (dst, src) in out.chunks_exact_mut(stride).zip(w.chunks_exact(len)) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = i16::from(s);
        }
    }
    out
}

/// `Σ w·x` of [`BLOCK`] consecutive `x.len()`-long rows against `x`,
/// whose length is a multiple of [`LANES`], in wrapping i32 arithmetic.
/// Each input chunk is loaded once for all the rows.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[inline(always)]
fn dot_block(rows: &[i16], x: &[i16]) -> [i32; BLOCK] {
    let x = x.as_chunks::<LANES>().0;
    let rows = rows.as_chunks::<LANES>().0;
    let rows: [&[[i16; LANES]]; BLOCK] = std::array::from_fn(|r| &rows[r * x.len()..][..x.len()]);
    let mut acc = [simd::zero(); BLOCK];
    for (j, x) in x.iter().enumerate() {
        let x = simd::load(x);
        for (acc, row) in acc.iter_mut().zip(&rows) {
            *acc = simd::madd(*acc, simd::load(&row[j]), x);
        }
    }
    simd::hsum4(acc)
}

/// Portable [`dot_block`]; on x86-64 the tests check the SIMD one
/// against it.
#[cfg_attr(all(target_arch = "x86_64", target_feature = "sse2"), cfg(test))]
fn dot_block_scalar(rows: &[i16], x: &[i16]) -> [i32; BLOCK] {
    std::array::from_fn(|r| {
        let row = &rows[r * x.len()..][..x.len()];
        row.iter().zip(x).fold(0i32, |s, (&w, &x)| {
            s.wrapping_add(i32::from(w) * i32::from(x))
        })
    })
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
use dot_block_scalar as dot_block;

/// Safe wrappers over the SSE2 intrinsics of [`dot_block`]. The module
/// only compiles where `target_feature = "sse2"` is on (all of x86-64,
/// where it is baseline), which is the one requirement these
/// `#[target_feature]` intrinsics place on their callers.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod simd {
    use super::{BLOCK, LANES};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadu_si128, _mm_madd_epi16,
        _mm_setzero_si128, _mm_shuffle_epi32, _mm_unpackhi_epi32, _mm_unpackhi_epi64,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64,
    };

    #[inline(always)]
    pub(super) fn zero() -> __m128i {
        // SAFETY: SSE2 is enabled (module cfg).
        unsafe { _mm_setzero_si128() }
    }

    #[inline(always)]
    pub(super) fn load(v: &[i16; LANES]) -> __m128i {
        // SAFETY: SSE2 is enabled (module cfg); `v` is the 16 bytes the
        // unaligned load reads.
        unsafe { _mm_loadu_si128(v.as_ptr().cast()) }
    }

    /// `acc` plus the eight i16 products of `w` and `x`, summed in
    /// adjacent pairs into four i32 lanes (`pmaddwd`, then `paddd`;
    /// exact for int8-range operands).
    #[inline(always)]
    pub(super) fn madd(acc: __m128i, w: __m128i, x: __m128i) -> __m128i {
        // SAFETY: SSE2 is enabled (module cfg).
        unsafe { _mm_add_epi32(acc, _mm_madd_epi16(w, x)) }
    }

    /// The wrapping lane sum of each of four accumulators.
    #[inline(always)]
    pub(super) fn hsum4([a, b, c, d]: [__m128i; BLOCK]) -> [i32; BLOCK] {
        // SAFETY: SSE2 is enabled (module cfg).
        unsafe {
            // [a0+a2, b0+b2, a1+a3, b1+b3] and likewise for c, d.
            let ab = _mm_add_epi32(_mm_unpacklo_epi32(a, b), _mm_unpackhi_epi32(a, b));
            let cd = _mm_add_epi32(_mm_unpacklo_epi32(c, d), _mm_unpackhi_epi32(c, d));
            // [Σa, Σb, Σc, Σd].
            let s = _mm_add_epi32(_mm_unpacklo_epi64(ab, cd), _mm_unpackhi_epi64(ab, cd));
            [
                _mm_cvtsi128_si32(s),
                _mm_cvtsi128_si32(_mm_shuffle_epi32::<1>(s)),
                _mm_cvtsi128_si32(_mm_shuffle_epi32::<2>(s)),
                _mm_cvtsi128_si32(_mm_shuffle_epi32::<3>(s)),
            ]
        }
    }
}

/// A packed dense layer.
#[derive(Debug, Clone)]
struct Dense {
    /// Input length rounded up to a multiple of [`LANES`].
    stride: usize,
    /// Output rows of `stride`, zero-padded to a multiple of [`BLOCK`].
    w: Vec<i16>,
    bias: Vec<i32>,
    rq: Vec<Requant>,
}

impl Dense {
    fn new(d: &QDense) -> Self {
        let stride = d.in_len.next_multiple_of(LANES);
        Self {
            stride,
            w: widen_rows(&d.w, d.in_len, stride),
            bias: fold_bias(&d.bias, d.input_q.zero_point, &d.w, d.in_len),
            rq: d
                .mult
                .iter()
                .map(|&m| Requant::new(m, d.output_q, d.relu))
                .collect(),
        }
    }

    fn run(&self, x: &[i16], out: &mut [i16]) {
        let x = &x[..self.stride];
        let blocks = self.w.chunks_exact(BLOCK * self.stride);
        for (b, (out, rows)) in out.chunks_mut(BLOCK).zip(blocks).enumerate() {
            let sums = dot_block(rows, x);
            for (r, o) in out.iter_mut().enumerate() {
                let row = b * BLOCK + r;
                *o = self.rq[row].apply(self.bias[row].wrapping_add(sums[r]));
            }
        }
    }
}

/// A packed convolution, with the max-pool that follows it fused in
/// (`pool == 1` when none does).
#[derive(Debug, Clone)]
struct Conv {
    in_ch: usize,
    /// `kernel · in_ch` rounded up to a multiple of [`LANES`].
    taps: usize,
    filters: usize,
    pool: usize,
    /// Pooled output steps (conv steps when `pool == 1`).
    t_out: usize,
    /// Pool the raw accumulators (every channel's requantization is
    /// monotone), else requantize each tap first.
    raw_pool: bool,
    /// Filter rows of `taps`, zero-padded to a multiple of [`BLOCK`].
    w: Vec<i16>,
    bias: Vec<i32>,
    rq: Vec<Requant>,
}

impl Conv {
    fn new(c: &QConv1d, pool: Option<&QMaxPool>) -> Self {
        let kc = c.kernel * c.in_ch;
        let taps = kc.next_multiple_of(LANES);
        let rq: Vec<Requant> = c
            .mult
            .iter()
            .map(|&m| Requant::new(m, c.output_q, c.relu))
            .collect();
        let (pool, t_out) = match pool {
            Some(p) => (p.pool, p.time / p.pool),
            None => (1, c.out_time()),
        };
        Self {
            in_ch: c.in_ch,
            taps,
            filters: c.filters,
            pool,
            t_out,
            raw_pool: rq.iter().all(|r| r.monotone()),
            w: widen_rows(&c.w, kc, taps),
            bias: fold_bias(&c.bias, c.input_q.zero_point, &c.w, kc),
            rq,
        }
    }

    fn run(&self, x: &[i16], out: &mut [i16]) {
        let (c, taps) = (self.in_ch, self.taps);
        let blocks = self.w.chunks_exact(BLOCK * taps);
        for (tp, out) in out.chunks_exact_mut(self.filters).enumerate() {
            let x = &x[tp * self.pool * c..];
            for (b, (out, rows)) in out.chunks_mut(BLOCK).zip(blocks.clone()).enumerate() {
                let f0 = b * BLOCK;
                let mut raw = [i32::MIN; BLOCK];
                let mut req = [i16::MIN; BLOCK];
                for k in 0..self.pool {
                    let sums = dot_block(rows, &x[k * c..][..taps]);
                    for r in 0..out.len() {
                        let acc = self.bias[f0 + r].wrapping_add(sums[r]);
                        if self.raw_pool {
                            raw[r] = raw[r].max(acc);
                        } else {
                            req[r] = req[r].max(self.rq[f0 + r].apply(acc));
                        }
                    }
                }
                for (r, o) in out.iter_mut().enumerate() {
                    *o = if self.raw_pool {
                        self.rq[f0 + r].apply(raw[r])
                    } else {
                        req[r]
                    };
                }
            }
        }
    }

    /// Input slots read: the last step's tap row, padding included.
    fn reads(&self) -> usize {
        (self.t_out * self.pool).saturating_sub(1) * self.in_ch + self.taps
    }
}

/// A max pool not fused into a convolution.
#[derive(Debug, Clone)]
struct Pool {
    ch: usize,
    pool: usize,
    t_out: usize,
}

impl Pool {
    fn run(&self, x: &[i16], out: &mut [i16]) {
        for (to, out) in out.chunks_exact_mut(self.ch).enumerate() {
            let rows = &x[to * self.pool * self.ch..][..self.pool * self.ch];
            for (c, o) in out.iter_mut().enumerate() {
                *o = rows
                    .iter()
                    .skip(c)
                    .step_by(self.ch)
                    .fold(i16::from(i8::MIN), |b, &v| b.max(v));
            }
        }
    }
}

/// One packed step of a layer chain without splits.
#[derive(Debug, Clone)]
enum Kernel {
    Dense(Dense),
    Conv(Conv),
    Pool(Pool),
}

impl Kernel {
    fn out_len(&self) -> usize {
        match self {
            Kernel::Dense(d) => d.rq.len(),
            Kernel::Conv(c) => c.t_out * c.filters,
            Kernel::Pool(p) => p.t_out * p.ch,
        }
    }

    /// Reads `cur` (grown with zeros to the padded length the kernel
    /// reads, if shorter) and writes its output into `nxt`.
    fn run(&self, cur: &mut Vec<i16>, nxt: &mut Vec<i16>) {
        let reads = match self {
            Kernel::Dense(d) => d.stride,
            Kernel::Conv(c) => c.reads(),
            Kernel::Pool(_) => 0,
        };
        if cur.len() < reads {
            cur.resize(reads, 0);
        }
        nxt.resize(self.out_len(), 0);
        match self {
            Kernel::Dense(d) => d.run(cur, nxt),
            Kernel::Conv(c) => c.run(cur, nxt),
            Kernel::Pool(p) => p.run(cur, nxt),
        }
    }

    /// Packs a chain of layers, fusing each conv with a directly
    /// following max pool over its output. `None` for a split.
    fn chain(layers: &[QLayer]) -> Option<Vec<Kernel>> {
        let mut out = Vec::with_capacity(layers.len());
        let mut i = 0;
        while i < layers.len() {
            let kernel = match (&layers[i], layers.get(i + 1)) {
                (QLayer::Conv1d(c), Some(QLayer::MaxPool(p)))
                    if p.ch == c.filters && p.time == c.out_time() =>
                {
                    i += 1;
                    Kernel::Conv(Conv::new(c, Some(p)))
                }
                (QLayer::Conv1d(c), _) => Kernel::Conv(Conv::new(c, None)),
                (QLayer::Dense(d), _) => Kernel::Dense(Dense::new(d)),
                (QLayer::MaxPool(p), _) => Kernel::Pool(Pool {
                    ch: p.ch,
                    pool: p.pool,
                    t_out: p.time / p.pool,
                }),
                (QLayer::SplitConcat(_), _) => return None,
            };
            out.push(kernel);
            i += 1;
        }
        Some(out)
    }
}

/// Runs a chain over ping-pong buffers with the input in `a`; `true`
/// when the result lands in `a`.
fn run_chain(chain: &[Kernel], a: &mut Vec<i16>, b: &mut Vec<i16>) -> bool {
    let mut in_a = true;
    for kernel in chain {
        if in_a {
            kernel.run(a, b);
        } else {
            kernel.run(b, a);
        }
        in_a = !in_a;
    }
    in_a
}

/// One branch of a packed split/concat.
#[derive(Debug, Clone)]
struct Branch {
    channels: Vec<usize>,
    chain: Vec<Kernel>,
    branch_zp: i32,
    /// Branch scale → shared concat scale.
    rq: Requant,
}

/// A packed split/concat.
#[derive(Debug, Clone)]
struct Split {
    time: usize,
    in_ch: usize,
    branches: Vec<Branch>,
}

impl Split {
    /// `None` when a branch holds another split.
    fn new(s: &super::QSplitConcat) -> Option<Self> {
        let branches = s.branches.iter().map(|b| {
            Some(Branch {
                channels: b.channels.clone(),
                chain: Kernel::chain(&b.layers)?,
                branch_zp: b.branch_zp,
                rq: Requant::new(b.mult, s.output_q, false),
            })
        });
        Some(Self {
            time: s.time,
            in_ch: s.in_ch,
            branches: branches.collect::<Option<_>>()?,
        })
    }

    fn run(&self, x: &[i16], out: &mut Vec<i16>, ba: &mut Vec<i16>, bb: &mut Vec<i16>) {
        out.clear();
        for b in &self.branches {
            ba.clear();
            for row in x.chunks_exact(self.in_ch).take(self.time) {
                ba.extend(b.channels.iter().map(|&c| row[c]));
            }
            let res = if run_chain(&b.chain, ba, bb) {
                &*ba
            } else {
                &*bb
            };
            out.extend(res.iter().map(|&q| b.rq.apply(i32::from(q) - b.branch_zp)));
        }
    }
}

/// One top-level step.
#[derive(Debug, Clone)]
enum Stage {
    Kernel(Kernel),
    Split(Split),
}

/// The packed program of a [`QuantizedNetwork`].
#[derive(Debug, Clone)]
pub(crate) struct Pack {
    input_q: ActQuant,
    stages: Vec<Stage>,
}

impl Pack {
    /// Packs `net`, or `None` when the packed engine cannot run it: a
    /// split nested inside a split branch, or an output that is not
    /// one scalar.
    pub(crate) fn new(net: &QuantizedNetwork) -> Option<Self> {
        let out_len = net.layers.last().map_or(net.input_len, QLayer::output_len);
        if out_len != 1 {
            return None;
        }
        let mut stages = Vec::with_capacity(net.layers.len());
        for run in net
            .layers
            .split_inclusive(|l| matches!(l, QLayer::SplitConcat(_)))
        {
            let (split, chain) = match run.split_last() {
                Some((QLayer::SplitConcat(s), head)) => (Some(Split::new(s)?), head),
                _ => (None, run),
            };
            stages.extend(Kernel::chain(chain)?.into_iter().map(Stage::Kernel));
            stages.extend(split.map(Stage::Split));
        }
        Some(Self {
            input_q: net.input_q,
            stages,
        })
    }

    /// Runs the program on one float sample; returns the output code.
    pub(crate) fn run(&self, x: &[f32], bufs: &mut Int8Buffers) -> i8 {
        let Int8Buffers {
            a,
            b,
            branch_a,
            branch_b,
        } = bufs;
        a.clear();
        a.extend(x.iter().map(|&v| i16::from(self.input_q.quantize(v))));
        let mut in_a = true;
        for stage in &self.stages {
            let (cur, nxt) = if in_a {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            match stage {
                Stage::Kernel(k) => k.run(cur, nxt),
                Stage::Split(s) => s.run(cur, nxt, branch_a, branch_b),
            }
            in_a = !in_a;
        }
        let out = if in_a { &*a } else { &*b };
        out[0] as i8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_block_matches_scalar() {
        let mut s = 0x9E37_79B9_u32;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s % 256) as i16 - 128
        };
        for chunks in 1..6 {
            let len = chunks * LANES;
            let rows: Vec<i16> = (0..BLOCK * len).map(|_| next()).collect();
            let x: Vec<i16> = (0..len).map(|_| next()).collect();
            assert_eq!(dot_block(&rows, &x), dot_block_scalar(&rows, &x));
        }
        // Every product at its largest magnitude.
        let rows = vec![-128i16; BLOCK * 4 * LANES];
        let x = vec![-128i16; 4 * LANES];
        assert_eq!(dot_block(&rows, &x), [4 * 8 * 16_384; BLOCK]);
    }

    #[test]
    fn pool_requantizes_each_tap_when_requant_can_wrap() {
        // m = 4 on accumulators near 2²⁹: the i64 product wraps in the
        // `as i32` cast for some taps but not others, so the max of the
        // raw accumulators is not the max of the requantized taps.
        let unit = ActQuant {
            scale: 1.0,
            zero_point: 0,
        };
        let net = QuantizedNetwork {
            input_len: 4,
            input_q: unit,
            layers: vec![
                QLayer::Conv1d(QConv1d {
                    time: 4,
                    in_ch: 1,
                    filters: 1,
                    kernel: 1,
                    w: vec![1],
                    bias: vec![(1 << 29) - 100],
                    mult: vec![super::super::quantize_multiplier(4.0)],
                    input_q: unit,
                    output_q: unit,
                    relu: false,
                }),
                QLayer::MaxPool(QMaxPool {
                    time: 4,
                    ch: 1,
                    pool: 4,
                }),
            ],
            output_q: unit,
            pack: None,
        };
        let pack = Pack::new(&net).expect("packable");
        assert!(matches!(&pack.stages[0], Stage::Kernel(Kernel::Conv(c)) if !c.raw_pool));
        let net = QuantizedNetwork {
            pack: Some(pack),
            ..net
        };
        let mut ws = crate::workspace::Workspace::new();
        for x in [[-50.0, 120.0, 0.0, 99.0], [101.0, 100.0, 99.0, -128.0]] {
            let want = net.forward_logit(&x);
            let got = net.infer_scalar(&x, &mut ws).expect("scalar output");
            assert_eq!(want.to_bits(), got.to_bits(), "{x:?}");
        }
    }

    #[test]
    fn requant_monotone_flags_overflowing_multipliers() {
        let out = ActQuant {
            scale: 1.0,
            zero_point: -128,
        };
        let rq = |m| Requant::new(super::super::quantize_multiplier(m), out, false);
        // m = 0.25: every accumulator maps in range.
        assert!(rq(0.25).monotone());
        // m = 4: large accumulators overflow i32 before the clamp.
        assert!(!rq(4.0).monotone());
    }
}
