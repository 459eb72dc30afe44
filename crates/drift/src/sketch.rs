//! Allocation-bounded, exactly-mergeable streaming sketches.
//!
//! Everything a sketch accumulates is an **integer**: an observation is
//! clamped to its feature's range, quantized to one of 2²⁰ ticks, and
//! folded in as tick counts (moment sums in `i128`, fixed-bin
//! histogram counts in `u64`). Floating-point addition is not
//! associative, so a sketch that summed `f64`s would give different
//! bits depending on merge order — integer accumulation makes
//! [`AxisSketch::merge`] exactly associative *and* commutative, which
//! is what lets per-tenant sketches fold into a fleet-wide view in any
//! order (and on any thread count) and still produce bit-identical
//! fingerprints. Float math happens only at query time
//! ([`AxisSketch::mean`], [`AxisSketch::quantile`], [`psi`]).
//!
//! The structure is `Copy`-free but heap-free: a sketch is a fixed
//! `[u64; BINS]` histogram plus a handful of scalar accumulators, so
//! creating, clearing and merging sketches never allocates.

use crate::DriftError;
use prefall_telemetry::wire::{Reader, Writer};

/// Fixed histogram resolution of every quantile sketch.
pub const BINS: usize = 32;

/// Quantization ticks across a feature's range (2²⁰). A quantized
/// observation is an integer in `[0, Q_MAX]`.
pub const Q_MAX: i64 = (1 << Q_SHIFT) - 1;

/// `log2(Q_MAX + 1)`; bin index is `quantized * BINS >> Q_SHIFT`.
const Q_SHIFT: u32 = 20;

/// The closed value range a feature is sketched over. Observations
/// outside it clamp to the edge (mirroring the sample guard's physical
/// clamps); non-finite observations are skipped and counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureRange {
    /// Lower edge of the sketched range.
    pub lo: f64,
    /// Upper edge of the sketched range.
    pub hi: f64,
}

impl FeatureRange {
    /// A range over `[lo, hi]`.
    pub const fn new(lo: f64, hi: f64) -> Self {
        Self { lo, hi }
    }

    /// Width of the range.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Width of one histogram bin in feature units — the quantile
    /// sketch's worst-case error.
    pub fn bin_width(&self) -> f64 {
        self.width() / BINS as f64
    }

    /// Quantizes a finite observation to an integer tick in
    /// `[0, Q_MAX]`; `None` for NaN / infinities.
    pub fn quantize(&self, x: f64) -> Option<i64> {
        if !x.is_finite() {
            return None;
        }
        let t = ((x - self.lo) / self.width()).clamp(0.0, 1.0);
        Some((t * Q_MAX as f64).round() as i64)
    }

    /// Maps a (possibly fractional) tick back into feature units.
    pub fn dequantize(&self, q: f64) -> f64 {
        self.lo + (q / Q_MAX as f64) * self.width()
    }
}

fn bin_of(q: i64) -> usize {
    (((q as u64) * BINS as u64) >> Q_SHIFT).min(BINS as u64 - 1) as usize
}

/// Moment + fixed-bin quantile sketch of one scalar feature.
///
/// All accumulators are integers (see the [module docs](self)), so
/// [`AxisSketch::merge`] is exactly associative and commutative and
/// two sketches fed the same multiset of observations are `==` bit for
/// bit regardless of order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisSketch {
    count: u64,
    skipped: u64,
    sum: i128,
    sum_sq: i128,
    min_q: i64,
    max_q: i64,
    bins: [u64; BINS],
}

impl Default for AxisSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl AxisSketch {
    /// An empty sketch.
    pub const fn new() -> Self {
        Self {
            count: 0,
            skipped: 0,
            sum: 0,
            sum_sq: 0,
            min_q: i64::MAX,
            max_q: i64::MIN,
            bins: [0; BINS],
        }
    }

    /// Resets the sketch in place (no allocation).
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Folds one observation in. Non-finite values are not folded —
    /// they bump [`AxisSketch::skipped`] instead, so a NaN-bursting
    /// sensor is visible without poisoning the moments.
    pub fn observe(&mut self, range: &FeatureRange, x: f64) {
        match range.quantize(x) {
            Some(q) => self.observe_q(q),
            None => self.skipped = self.skipped.saturating_add(1),
        }
    }

    /// Folds one pre-quantized tick in.
    pub fn observe_q(&mut self, q: i64) {
        let q = q.clamp(0, Q_MAX);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(q as i128);
        self.sum_sq = self.sum_sq.saturating_add((q as i128) * (q as i128));
        self.min_q = self.min_q.min(q);
        self.max_q = self.max_q.max(q);
        self.bins[bin_of(q)] = self.bins[bin_of(q)].saturating_add(1);
    }

    /// Merges `other` into `self` — elementwise integer addition plus
    /// min/max, so exactly associative and commutative.
    pub fn merge(&mut self, other: &AxisSketch) {
        self.count = self.count.saturating_add(other.count);
        self.skipped = self.skipped.saturating_add(other.skipped);
        self.sum = self.sum.saturating_add(other.sum);
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
        self.min_q = self.min_q.min(other.min_q);
        self.max_q = self.max_q.max(other.max_q);
        for (dst, src) in self.bins.iter_mut().zip(other.bins.iter()) {
            *dst = dst.saturating_add(*src);
        }
    }

    /// Observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite observations refused.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The per-bin counts (they sum to [`AxisSketch::count`]).
    pub fn bins(&self) -> &[u64; BINS] {
        &self.bins
    }

    /// Mean in feature units, `None` when empty.
    pub fn mean(&self, range: &FeatureRange) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        Some(range.dequantize(self.sum as f64 / self.count as f64))
    }

    /// Population standard deviation in feature units, `None` when
    /// empty.
    pub fn std_dev(&self, range: &FeatureRange) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        let mean_q = self.sum as f64 / n;
        let var_q = (self.sum_sq as f64 / n - mean_q * mean_q).max(0.0);
        Some(var_q.sqrt() / Q_MAX as f64 * range.width())
    }

    /// Smallest observation seen, `None` when empty.
    pub fn min(&self, range: &FeatureRange) -> Option<f64> {
        (self.count > 0).then(|| range.dequantize(self.min_q as f64))
    }

    /// Largest observation seen, `None` when empty.
    pub fn max(&self, range: &FeatureRange) -> Option<f64> {
        (self.count > 0).then(|| range.dequantize(self.max_q as f64))
    }

    /// Approximate `phi`-quantile (rank `round(phi * (count - 1))`),
    /// interpolated inside the bin that holds the rank. The answer is
    /// within one [`FeatureRange::bin_width`] of the exact empirical
    /// quantile at that rank — asserted against sorted random streams
    /// by the property tests.
    pub fn quantile(&self, range: &FeatureRange, phi: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (phi.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < cum + c {
                // Interpolate linearly inside the bin.
                let frac = (rank - cum) as f64 / c as f64;
                let bin_ticks = (Q_MAX as f64 + 1.0) / BINS as f64;
                let q = (i as f64 + frac) * bin_ticks;
                return Some(range.dequantize(q).clamp(range.lo, range.hi));
            }
            cum += c;
        }
        Some(range.dequantize(self.max_q as f64))
    }

    /// Serialized length in bytes (fixed).
    pub(crate) const WIRE_LEN: usize = 8 + 8 + 16 + 16 + 8 + 8 + BINS * 8;

    pub(crate) fn write_bytes(&self, w: &mut Writer) {
        w.u64(self.count);
        w.u64(self.skipped);
        w.i128(self.sum);
        w.i128(self.sum_sq);
        w.i64(self.min_q);
        w.i64(self.max_q);
        for &b in &self.bins {
            w.u64(b);
        }
    }

    pub(crate) fn read_bytes(r: &mut Reader<'_>) -> Result<Self, DriftError> {
        let mut s = Self::new();
        s.count = r.u64()?;
        s.skipped = r.u64()?;
        s.sum = r.i128()?;
        s.sum_sq = r.i128()?;
        s.min_q = r.i64()?;
        s.max_q = r.i64()?;
        for b in s.bins.iter_mut() {
            *b = r.u64()?;
        }
        // Internal consistency: bins must account for every counted
        // observation, or the sketch was corrupted.
        let total: u64 = s.bins.iter().fold(0u64, |a, &b| a.saturating_add(b));
        if total != s.count {
            return Err(DriftError::Format("corrupt sketch".to_string()));
        }
        Ok(s)
    }
}

/// Population Stability Index between a reference and a live sketch's
/// bin distributions: `Σ (pᵢ - qᵢ) · ln(pᵢ / qᵢ)` with proportions
/// floored at `1e-4` so empty bins do not blow up. 0 means identical;
/// the conventional reading is < 0.1 stable, 0.1–0.25 moderate
/// shift, above 0.25 major shift. Returns 0 when either side is
/// empty — no evidence is not evidence of drift.
pub fn psi(reference: &AxisSketch, live: &AxisSketch) -> f64 {
    if reference.count == 0 || live.count == 0 {
        return 0.0;
    }
    const EPS: f64 = 1e-4;
    let rn = reference.count as f64;
    let ln = live.count as f64;
    let mut s = 0.0;
    for i in 0..BINS {
        let p = (reference.bins[i] as f64 / rn).max(EPS);
        let q = (live.bins[i] as f64 / ln).max(EPS);
        s += (p - q) * (p / q).ln();
    }
    s
}

/// Largest absolute quantile displacement between reference and live,
/// across the 10/25/50/75/90th percentiles, normalized by the feature
/// range (so 0.1 means "a decile moved by 10 % of the sensor's
/// range"). Returns 0 when either side is empty.
pub fn quantile_shift(reference: &AxisSketch, live: &AxisSketch, range: &FeatureRange) -> f64 {
    if reference.count == 0 || live.count == 0 {
        return 0.0;
    }
    let mut worst = 0.0f64;
    for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
        if let (Some(a), Some(b)) = (reference.quantile(range, phi), live.quantile(range, phi)) {
            worst = worst.max((a - b).abs() / range.width());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIT: FeatureRange = FeatureRange::new(0.0, 1.0);

    #[test]
    fn moments_match_hand_computed_values() {
        let mut s = AxisSketch::new();
        for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
            s.observe(&UNIT, x);
        }
        assert_eq!(s.count(), 5);
        let mean = s.mean(&UNIT).unwrap();
        assert!((mean - 0.5).abs() < 1e-5, "mean {mean}");
        let sd = s.std_dev(&UNIT).unwrap();
        assert!((sd - 0.35355).abs() < 1e-3, "std {sd}");
        assert!((s.min(&UNIT).unwrap() - 0.0).abs() < 1e-5);
        assert!((s.max(&UNIT).unwrap() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn non_finite_observations_are_skipped_not_folded() {
        let mut s = AxisSketch::new();
        s.observe(&UNIT, f64::NAN);
        s.observe(&UNIT, f64::INFINITY);
        s.observe(&UNIT, 0.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.skipped(), 2);
        assert!(s.mean(&UNIT).unwrap().is_finite());
    }

    #[test]
    fn out_of_range_observations_clamp_to_the_edges() {
        let r = FeatureRange::new(-1.0, 1.0);
        let mut s = AxisSketch::new();
        s.observe(&r, -50.0);
        s.observe(&r, 50.0);
        assert_eq!(s.min(&r), Some(-1.0));
        assert_eq!(s.max(&r), Some(1.0));
    }

    #[test]
    fn merge_equals_feeding_one_sketch() {
        let mut all = AxisSketch::new();
        let mut a = AxisSketch::new();
        let mut b = AxisSketch::new();
        for i in 0..100 {
            let x = (i as f64 * 0.37).sin() * 0.5 + 0.5;
            all.observe(&UNIT, x);
            if i % 2 == 0 {
                a.observe(&UNIT, x);
            } else {
                b.observe(&UNIT, x);
            }
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // Commutes exactly.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(other, all);
    }

    #[test]
    fn psi_is_zero_for_identical_and_grows_with_separation() {
        let mut reference = AxisSketch::new();
        for i in 0..1000 {
            reference.observe(&UNIT, 0.3 + 0.1 * ((i as f64) * 0.1).sin());
        }
        assert_eq!(psi(&reference, &reference), 0.0);
        // Live shifted by +0.1 and +0.4: PSI must grow with the shift.
        let mut near = AxisSketch::new();
        let mut far = AxisSketch::new();
        for i in 0..1000 {
            let base = 0.1 * ((i as f64) * 0.1).sin();
            near.observe(&UNIT, 0.4 + base);
            far.observe(&UNIT, 0.7 + base);
        }
        let p_near = psi(&reference, &near);
        let p_far = psi(&reference, &far);
        assert!(p_near > 0.0);
        assert!(p_far > p_near, "psi near {p_near} far {p_far}");
        // And the shift score agrees on direction.
        let s_near = quantile_shift(&reference, &near, &UNIT);
        let s_far = quantile_shift(&reference, &far, &UNIT);
        assert!(s_far > s_near, "shift near {s_near} far {s_far}");
    }

    #[test]
    fn empty_sides_yield_zero_scores() {
        let empty = AxisSketch::new();
        let mut live = AxisSketch::new();
        live.observe(&UNIT, 0.5);
        assert_eq!(psi(&empty, &live), 0.0);
        assert_eq!(psi(&live, &empty), 0.0);
        assert_eq!(quantile_shift(&empty, &live, &UNIT), 0.0);
    }

    #[test]
    fn quantiles_interpolate_within_one_bin_width() {
        let mut s = AxisSketch::new();
        let xs: Vec<f64> = (0..500).map(|i| (i as f64 * 0.777).fract()).collect();
        for &x in &xs {
            s.observe(&UNIT, x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for phi in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let rank = (phi * (sorted.len() - 1) as f64).round() as usize;
            let exact = sorted[rank];
            let approx = s.quantile(&UNIT, phi).unwrap();
            assert!(
                (approx - exact).abs() <= UNIT.bin_width() + 1e-9,
                "phi {phi}: approx {approx} exact {exact}"
            );
        }
    }
}
