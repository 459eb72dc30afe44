//! Property-based tests over the core invariants, spanning crates.

use prefall::dsp::butterworth::Butterworth;
use prefall::dsp::interp::{resample_linear, sample_catmull_rom, sample_linear};
use prefall::dsp::rotation::{Mat3, Vec3};
use prefall::dsp::segment::{Overlap, Segmentation};
use prefall::dsp::stats::Normalizer;
use prefall::nn::loss::{initial_output_bias, sigmoid, WeightedBce};
use prefall::nn::quant::{apply_multiplier, quantize_multiplier, ActQuant};
use prefall_core::augment::{time_warp_segment, window_warp_segment};
use prefall_imu::rng::GenRng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every valid Butterworth design is stable, has unity DC gain and
    /// hits -3 dB at its cutoff.
    #[test]
    fn butterworth_designs_are_well_behaved(
        order in 1usize..8,
        cutoff in 0.5f64..45.0,
    ) {
        let f = Butterworth::lowpass(order, cutoff, 100.0).unwrap().into_filter();
        prop_assert!(f.is_stable());
        prop_assert!((f.magnitude_at(0.0, 100.0) - 1.0).abs() < 1e-9);
        let g = f.magnitude_at(cutoff, 100.0);
        prop_assert!((g - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
    }

    /// Window iteration never overruns the signal and respects the hop.
    #[test]
    fn segmentation_windows_are_in_bounds(
        window in 1usize..100,
        len in 0usize..1000,
        overlap_idx in 0usize..4,
    ) {
        let seg = Segmentation::new(window, Overlap::ALL[overlap_idx]).unwrap();
        let mut prev_start = None;
        let mut count = 0;
        for r in seg.windows(len) {
            prop_assert_eq!(r.len(), window);
            prop_assert!(r.end <= len);
            if let Some(p) = prev_start {
                prop_assert_eq!(r.start - p, seg.hop());
            }
            prev_start = Some(r.start);
            count += 1;
        }
        prop_assert_eq!(count, seg.num_windows(len));
    }

    /// Rodrigues rotations preserve norms and compose into proper
    /// rotations.
    #[test]
    fn rotations_preserve_geometry(
        ax in -1.0f64..1.0, ay in -1.0f64..1.0, az in -1.0f64..1.0,
        angle in -6.0f64..6.0,
        vx in -5.0f64..5.0, vy in -5.0f64..5.0, vz in -5.0f64..5.0,
    ) {
        let axis = Vec3::new(ax, ay, az);
        prop_assume!(axis.norm() > 1e-3);
        let r = Mat3::from_axis_angle(axis, angle).unwrap();
        prop_assert!(r.is_rotation(1e-9));
        let v = Vec3::new(vx, vy, vz);
        prop_assert!((r.apply(v).norm() - v.norm()).abs() < 1e-9);
    }

    /// Interpolation stays within the convex hull for linear sampling
    /// and is exact at integer knots for both schemes.
    #[test]
    fn interpolation_knots_are_exact(xs in prop::collection::vec(-10.0f32..10.0, 2..50)) {
        for (i, &x) in xs.iter().enumerate() {
            let l = sample_linear(&xs, i as f64);
            let c = sample_catmull_rom(&xs, i as f64);
            prop_assert!((l - x).abs() < 1e-4);
            prop_assert!((c - x).abs() < 1e-3);
        }
        let up = resample_linear(&xs, xs.len() * 3);
        let (lo, hi) = xs.iter().fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        for &v in &up {
            prop_assert!(v >= lo - 1e-4 && v <= hi + 1e-4);
        }
    }

    /// The normaliser is an affine bijection: apply then invert by hand.
    #[test]
    fn normalizer_is_invertible(
        rows in prop::collection::vec(prop::collection::vec(-100.0f32..100.0, 3), 2..20),
    ) {
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let norm = Normalizer::fit(std::slice::from_ref(&flat), 3);
        let z = norm.apply(&flat);
        for (i, (&orig, &zv)) in flat.iter().zip(&z).enumerate() {
            let ch = i % 3;
            let back = zv * norm.stds()[ch] + norm.means()[ch];
            prop_assert!((back - orig).abs() < 1e-2, "row {i}: {back} vs {orig}");
        }
    }

    /// BCE loss is non-negative, zero only for perfect confident
    /// predictions, and its gradient is bounded by the class weight.
    #[test]
    fn bce_loss_properties(logit in -30.0f32..30.0, w_pos in 0.1f32..20.0, w_neg in 0.1f32..20.0) {
        let loss = WeightedBce::new(w_pos, w_neg);
        for y in [0.0f32, 1.0] {
            let l = loss.loss(logit, y);
            prop_assert!(l >= 0.0);
            let g = loss.dloss_dlogit(logit, y);
            let w = if y > 0.5 { w_pos } else { w_neg };
            prop_assert!(g.abs() <= w + 1e-4);
        }
    }

    /// The output-bias initialisation inverts the sigmoid prior.
    #[test]
    fn bias_init_matches_prior(p in 0.001f64..0.999) {
        let b = initial_output_bias(p);
        prop_assert!((f64::from(sigmoid(b)) - p).abs() < 1e-3);
    }

    /// Activation quantization round-trips within half a quantum and
    /// always represents zero exactly.
    #[test]
    fn act_quant_roundtrip(min in -50.0f32..0.0, span in 0.001f32..100.0, x in -60.0f32..60.0) {
        let q = ActQuant::from_range(min, min + span);
        prop_assert_eq!(q.dequantize(q.quantize(0.0)), 0.0);
        let clamped = x.clamp(min.min(0.0), (min + span).max(0.0));
        let back = q.dequantize(q.quantize(clamped));
        prop_assert!((back - clamped).abs() <= q.scale * 0.51 + 1e-6);
    }

    /// The fixed-point multiplier decomposition reconstructs the real
    /// multiplier and scales accumulators accurately.
    #[test]
    fn fixed_point_multiplier_accurate(m in 1e-5f64..4.0, acc in -100_000i32..100_000) {
        let (m0, shift) = quantize_multiplier(m);
        let approx = apply_multiplier(acc, m0, shift);
        let exact = f64::from(acc) * m;
        prop_assert!((f64::from(approx) - exact).abs() <= exact.abs() * 1e-4 + 1.0);
    }

    /// Augmentations preserve segment shape and produce finite values.
    #[test]
    fn augmentations_preserve_shape(seed in 0u64..1000, t in 8usize..60) {
        let channels = 9;
        let seg: Vec<f32> = (0..t * channels).map(|i| ((i as f32) * 0.17).sin()).collect();
        let mut rng = GenRng::seed_from_u64(seed);
        let a = time_warp_segment(&seg, channels, 0.25, &mut rng);
        let b = window_warp_segment(&seg, channels, &mut rng);
        prop_assert_eq!(a.len(), seg.len());
        prop_assert_eq!(b.len(), seg.len());
        prop_assert!(a.iter().chain(&b).all(|v| v.is_finite()));
    }
}

/// A hardened streaming detector with an untrained but seeded network
/// and identity normalisation — enough to exercise the full ingest →
/// filter → window → engine path without a training run.
fn guarded_detector(seed: u64) -> prefall::core::detector::StreamingDetector {
    use prefall::core::detector::{DetectorConfig, StreamingDetector};
    use prefall::core::models::ModelKind;
    let cfg = DetectorConfig::paper_400ms();
    let w = cfg.pipeline.segmentation.window();
    let net = ModelKind::ProposedCnn.build(w, 9, seed).unwrap();
    StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap()
}

/// One sensor reading that may be garbage: finite in-range, finite
/// out-of-range, or non-finite.
fn hostile_value() -> impl Strategy<Value = f32> {
    prop_oneof![
        8 => -20.0f32..20.0,
        1 => Just(f32::NAN),
        1 => Just(f32::INFINITY),
        1 => Just(f32::NEG_INFINITY),
        1 => Just(f32::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The hardened ingest invariant: no matter what the sensor bus
    /// delivers — NaN, ±Inf, absurd magnitudes — `push_sample` never
    /// emits a non-finite probability, and every probability stays a
    /// valid sigmoid output in [0, 1].
    #[test]
    fn push_sample_never_emits_nonfinite(
        seed in 0u64..100,
        samples in prop::collection::vec(
            (hostile_value(), hostile_value(), hostile_value(),
             hostile_value(), hostile_value(), hostile_value()),
            100..220),
    ) {
        let mut det = guarded_detector(seed);
        for &(ax, ay, az, gx, gy, gz) in &samples {
            if let Some(p) = det.push_sample([ax, ay, az], [gx, gy, gz]) {
                prop_assert!(p.is_finite(), "non-finite probability {p}");
                prop_assert!((0.0..=1.0).contains(&p), "out-of-range probability {p}");
            }
        }
        // The guard saw every tick; its books must balance.
        prop_assert_eq!(det.session().guard_status().samples, samples.len() as u64);
    }

    /// `reset()` fully recovers a detector poisoned by a NaN burst:
    /// after the reset it produces bit-identical probabilities to a
    /// same-seed detector that never saw the burst (seeded builds are
    /// deterministic, so any divergence would be leaked filter or
    /// fusion state).
    #[test]
    fn reset_recovers_from_nan_burst(seed in 0u64..100, burst in 5usize..40) {
        let mut poisoned = guarded_detector(seed);
        let mut fresh = guarded_detector(seed);
        for _ in 0..burst {
            let _ = poisoned.push_sample([f32::NAN; 3], [f32::NAN; 3]);
        }
        for i in 0..60u32 {
            let x = (i as f32 * 0.37).sin() * 0.05;
            let _ = poisoned.push_sample([x, -x, 1.0 + x], [x, 0.1, -x]);
        }
        poisoned.session_mut().reset();
        for i in 0..120u32 {
            let x = (i as f32 * 0.23).sin() * 0.1;
            let accel = [x, 0.02 - x, 1.0 - x * 0.5];
            let gyro = [0.3 * x, -0.2 * x, x];
            let a = poisoned.push_sample(accel, gyro);
            let b = fresh.push_sample(accel, gyro);
            prop_assert_eq!(a, b, "divergence at sample {}", i);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated trials always satisfy the label invariants regardless
    /// of seed: labels are ordered, in-range, and fall trials expose a
    /// usable range only when long enough.
    #[test]
    fn generated_trials_have_consistent_labels(seed in 0u64..200) {
        let ds = prefall::imu::dataset::Dataset::combined_scaled(0, 1, seed).unwrap();
        for t in ds.trials() {
            match (t.fall_start(), t.impact()) {
                (Some(fs), Some(im)) => {
                    prop_assert!(fs < im);
                    prop_assert!(im < t.len());
                    if let Some(r) = t.usable_fall_range() {
                        prop_assert_eq!(r.start, fs);
                        prop_assert!(r.end <= im);
                    }
                }
                (None, None) => {}
                other => prop_assert!(false, "half-labelled trial: {other:?}"),
            }
            for ch in t.channels() {
                prop_assert_eq!(ch.len(), t.len());
            }
        }
    }
}
