//! The drift fingerprint: one [`AxisSketch`] per monitored feature,
//! with a versioned, checksummed binary form (`PFDF`) so a reference
//! fingerprint built from the training distribution can be committed
//! to the repo and verified bit for bit in CI.
//!
//! A fingerprint covers three sections:
//!
//! * **input** — the six raw IMU axes (accelerometer in g,
//!   gyroscope in rad/s) exactly as the detector tap sees them,
//!   sketched over the sample guard's physical clamp ranges;
//! * **score** — the sigmoid window score in `[0, 1]`;
//! * **attribution shares** — each modality branch's share of the
//!   activation L2 mass from
//!   [`forward_traced_into`](prefall_nn::network::Network::forward_traced_into)'s
//!   [`BranchStat`](prefall_nn::network::BranchStat)s, in `[0, 1]` —
//!   a label-free proxy for "which sensor the model is listening to".
//!
//! Because every sketch merge is exact (see [`crate::sketch`]),
//! [`Fingerprint::merge`] is associative and commutative and the
//! serialized bytes of a merged fleet view are identical for any
//! merge order or thread count.

use crate::sketch::{psi, quantile_shift, AxisSketch, FeatureRange, BINS};
use crate::DriftError;
use prefall_telemetry::wire::{Reader, Writer};

/// Raw IMU axes sketched in the input section.
pub const INPUT_AXES: usize = 6;

/// Modality branches sketched in the attribution section (accel,
/// gyro, Euler for the paper's CNN).
pub const SHARE_BRANCHES: usize = 3;

/// Display names of the input axes, section order.
pub const INPUT_NAMES: [&str; INPUT_AXES] = [
    "accel_x", "accel_y", "accel_z", "gyro_x", "gyro_y", "gyro_z",
];

/// Display names of the attribution branches, section order.
pub const SHARE_NAMES: [&str; SHARE_BRANCHES] = ["accel", "gyro", "euler"];

/// Sketch ranges of the input axes: ±16 g (the guard's accel clamp)
/// and ±35 rad/s (≈ 2000 °/s, the guard's gyro clamp).
pub const INPUT_RANGES: [FeatureRange; INPUT_AXES] = [
    FeatureRange::new(-16.0, 16.0),
    FeatureRange::new(-16.0, 16.0),
    FeatureRange::new(-16.0, 16.0),
    FeatureRange::new(-35.0, 35.0),
    FeatureRange::new(-35.0, 35.0),
    FeatureRange::new(-35.0, 35.0),
];

/// Scores and attribution shares both live in `[0, 1]`.
pub const UNIT_RANGE: FeatureRange = FeatureRange::new(0.0, 1.0);

const MAGIC: u32 = 0x5046_4446; // "PFDF"
const VERSION: u16 = 1;

/// Mergeable distribution fingerprint of a detector stream (or of a
/// whole fleet, after merging).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Per-axis input sketches, [`INPUT_NAMES`] order.
    pub input: [AxisSketch; INPUT_AXES],
    /// Window-score sketch.
    pub score: AxisSketch,
    /// Per-branch attribution-share sketches, [`SHARE_NAMES`] order.
    pub shares: [AxisSketch; SHARE_BRANCHES],
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// An empty fingerprint.
    pub const fn new() -> Self {
        Self {
            input: [
                AxisSketch::new(),
                AxisSketch::new(),
                AxisSketch::new(),
                AxisSketch::new(),
                AxisSketch::new(),
                AxisSketch::new(),
            ],
            score: AxisSketch::new(),
            shares: [AxisSketch::new(), AxisSketch::new(), AxisSketch::new()],
        }
    }

    /// Resets every sketch in place (no allocation).
    pub fn clear(&mut self) {
        for s in self.input.iter_mut() {
            s.clear();
        }
        self.score.clear();
        for s in self.shares.iter_mut() {
            s.clear();
        }
    }

    /// Folds one raw IMU sample (pre-guard accel in g, gyro in rad/s)
    /// into the input section.
    pub fn observe_sample(&mut self, accel: [f32; 3], gyro: [f32; 3]) {
        for i in 0..3 {
            self.input[i].observe(&INPUT_RANGES[i], f64::from(accel[i]));
            self.input[3 + i].observe(&INPUT_RANGES[3 + i], f64::from(gyro[i]));
        }
    }

    /// Folds one window score into the score section.
    pub fn observe_score(&mut self, score: f32) {
        self.score.observe(&UNIT_RANGE, f64::from(score));
    }

    /// Folds one set of branch shares (already normalized to sum 1)
    /// into the attribution section. Extra branches are ignored.
    pub fn observe_shares(&mut self, shares: &[f64]) {
        for (sketch, &s) in self.shares.iter_mut().zip(shares.iter()) {
            sketch.observe(&UNIT_RANGE, s);
        }
    }

    /// Merges `other` into `self`; exact, associative, commutative.
    pub fn merge(&mut self, other: &Fingerprint) {
        for (dst, src) in self.input.iter_mut().zip(other.input.iter()) {
            dst.merge(src);
        }
        self.score.merge(&other.score);
        for (dst, src) in self.shares.iter_mut().zip(other.shares.iter()) {
            dst.merge(src);
        }
    }

    /// Input samples folded in (all six axes see every sample, so any
    /// axis' count is the sample count).
    pub fn samples(&self) -> u64 {
        self.input[0].count()
    }

    /// Windows whose score was folded in.
    pub fn windows(&self) -> u64 {
        self.score.count()
    }

    /// Serializes to the versioned `PFDF` byte format with a trailing
    /// FNV-1a 64 checksum. Two fingerprints holding the same data
    /// produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(
            4 + 2 + 6 + (INPUT_AXES + 1 + SHARE_BRANCHES) * AxisSketch::WIRE_LEN + 8,
        );
        w.u32(MAGIC);
        w.u16(VERSION);
        w.u16(INPUT_AXES as u16);
        w.u16(SHARE_BRANCHES as u16);
        w.u16(BINS as u16);
        for s in self.sketches() {
            s.write_bytes(&mut w);
        }
        w.finish_checksummed()
    }

    /// Parses and validates `PFDF` bytes.
    ///
    /// # Errors
    ///
    /// [`DriftError::Format`] on a bad magic, unknown version, shape
    /// mismatch, truncation, trailing garbage, checksum mismatch, or
    /// internally inconsistent sketches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DriftError> {
        let mut r = Reader::checksummed(bytes)?;
        if r.u32()? != MAGIC {
            return Err(DriftError::Format(
                "bad magic (not a PFDF file)".to_string(),
            ));
        }
        let version = r.u16()?;
        if version != VERSION {
            return Err(DriftError::Format(format!("unsupported version {version}")));
        }
        let shape = [r.u16()?, r.u16()?, r.u16()?];
        if shape != [INPUT_AXES as u16, SHARE_BRANCHES as u16, BINS as u16] {
            return Err(DriftError::Format(format!(
                "shape mismatch: {} axes / {} branches / {} bins",
                shape[0], shape[1], shape[2]
            )));
        }
        let mut fp = Fingerprint::new();
        for s in fp.sketches_mut() {
            *s = AxisSketch::read_bytes(&mut r)?;
        }
        r.expect_end()?;
        Ok(fp)
    }

    /// Every sketch in wire order: input, score, shares.
    fn sketches(&self) -> impl Iterator<Item = &AxisSketch> {
        self.input
            .iter()
            .chain(std::iter::once(&self.score))
            .chain(&self.shares)
    }

    fn sketches_mut(&mut self) -> impl Iterator<Item = &mut AxisSketch> {
        self.input
            .iter_mut()
            .chain(std::iter::once(&mut self.score))
            .chain(&mut self.shares)
    }
}

/// Drift of a live fingerprint against a reference, per section.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DriftScore {
    /// Worst per-axis PSI across the six input sketches.
    pub input_psi: f64,
    /// PSI of the window-score distribution.
    pub score_psi: f64,
    /// Worst per-branch PSI across the attribution shares (0 when the
    /// live side has no attribution — e.g. untapped fleet sessions).
    pub attribution_psi: f64,
    /// Worst normalized quantile displacement across the input axes.
    pub input_shift: f64,
    /// Normalized quantile displacement of the score distribution.
    pub score_shift: f64,
    /// Input samples on the live side.
    pub samples: u64,
}

impl DriftScore {
    /// The worst PSI across every section — the headline drift number.
    pub fn max_psi(&self) -> f64 {
        self.input_psi.max(self.score_psi).max(self.attribution_psi)
    }

    /// Whether any section's PSI breaches `threshold`.
    pub fn alarmed(&self, threshold: f64) -> bool {
        self.max_psi() >= threshold
    }
}

/// Scores `live` against `reference`. Sections empty on either side
/// contribute 0 (no evidence is not evidence of drift), so a fleet
/// view without attribution data never false-alarms on that section.
pub fn compare(reference: &Fingerprint, live: &Fingerprint) -> DriftScore {
    let mut score = DriftScore {
        samples: live.samples(),
        ..DriftScore::default()
    };
    for (i, range) in INPUT_RANGES.iter().enumerate() {
        score.input_psi = score
            .input_psi
            .max(psi(&reference.input[i], &live.input[i]));
        score.input_shift =
            score
                .input_shift
                .max(quantile_shift(&reference.input[i], &live.input[i], range));
    }
    score.score_psi = psi(&reference.score, &live.score);
    score.score_shift = quantile_shift(&reference.score, &live.score, &UNIT_RANGE);
    for i in 0..SHARE_BRANCHES {
        score.attribution_psi = score
            .attribution_psi
            .max(psi(&reference.shares[i], &live.shares[i]));
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_fp(seed: u64, n: usize) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for i in 0..n {
            let t = (i as f64 + seed as f64 * 31.0) * 0.13;
            fp.observe_sample(
                [t.sin() as f32 * 0.1, t.cos() as f32 * 0.1, 1.0],
                [(t * 1.7).sin() as f32 * 5.0, 0.0, (t * 0.3).cos() as f32],
            );
            if i % 5 == 0 {
                fp.observe_score((0.2 + 0.1 * t.sin()) as f32);
                fp.observe_shares(&[0.5, 0.3, 0.2]);
            }
        }
        fp
    }

    #[test]
    fn bytes_round_trip_bit_exactly() {
        let fp = sample_fp(1, 500);
        let bytes = fp.to_bytes();
        let back = Fingerprint::from_bytes(&bytes).unwrap();
        assert_eq!(back, fp);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corruption_truncation_and_garbage_are_refused() {
        let bytes = sample_fp(2, 100).to_bytes();
        // Flip one byte mid-body: checksum must catch it.
        let mut bad = bytes.clone();
        bad[40] ^= 0x01;
        assert!(Fingerprint::from_bytes(&bad).is_err());
        // Truncate.
        assert!(Fingerprint::from_bytes(&bytes[..bytes.len() - 9]).is_err());
        // Trailing garbage (with a recomputed checksum it would still
        // fail shape/remaining checks; raw append fails the checksum).
        let mut long = bytes.clone();
        long.extend_from_slice(&[0u8; 4]);
        assert!(Fingerprint::from_bytes(&long).is_err());
        // Wrong magic.
        let mut wrong = bytes;
        wrong[0] ^= 0xFF;
        assert!(Fingerprint::from_bytes(&wrong).is_err());
    }

    #[test]
    fn merge_matches_single_stream_and_serializes_identically() {
        let whole = sample_fp(3, 400);
        // The same observations split across two fingerprints.
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        for i in 0..400usize {
            let t = (i as f64 + 3.0 * 31.0) * 0.13;
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.observe_sample(
                [t.sin() as f32 * 0.1, t.cos() as f32 * 0.1, 1.0],
                [(t * 1.7).sin() as f32 * 5.0, 0.0, (t * 0.3).cos() as f32],
            );
            if i % 5 == 0 {
                target.observe_score((0.2 + 0.1 * t.sin()) as f32);
                target.observe_shares(&[0.5, 0.3, 0.2]);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ab.to_bytes(), ba.to_bytes());
        assert_eq!(ab.to_bytes(), whole.to_bytes());
    }

    #[test]
    fn identical_distributions_score_zero_shifted_ones_do_not() {
        let reference = sample_fp(4, 1000);
        let live = sample_fp(4, 1000);
        let same = compare(&reference, &live);
        assert_eq!(same.max_psi(), 0.0);
        assert!(!same.alarmed(0.25));

        // A biased accelerometer: +4 g on x.
        let mut drifted = Fingerprint::new();
        for i in 0..1000usize {
            let t = (i as f64 + 4.0 * 31.0) * 0.13;
            drifted.observe_sample(
                [4.0 + t.sin() as f32 * 0.1, t.cos() as f32 * 0.1, 1.0],
                [(t * 1.7).sin() as f32 * 5.0, 0.0, (t * 0.3).cos() as f32],
            );
        }
        let off = compare(&reference, &drifted);
        assert!(off.input_psi > 0.25, "input psi {}", off.input_psi);
        assert!(off.input_shift > 0.0);
        // Score section is empty on the live side: contributes nothing.
        assert_eq!(off.score_psi, 0.0);
        assert!(off.alarmed(0.25));
    }
}
