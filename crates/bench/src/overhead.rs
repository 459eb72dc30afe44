//! The one armed-vs-disarmed overhead harness behind the three arming
//! legs of `prefall-overhead`: coarse tracing, the watch sampling
//! daemon and the drift tap.
//!
//! Each leg times classified pushes on ONE live detector and switches
//! its observer on and off between blocks of `round` windows, outside
//! the timed region. A-then-B ordering folds clock-frequency and
//! noisy-neighbour drift into whichever mode drew the slow stretch;
//! interleaving puts the two populations close together in time, so
//! the ratio of medians isolates the arming cost.

use crate::driftref;
use prefall_core::detector::{DetectorConfig, StreamingDetector};
use prefall_core::models::ModelKind;
use prefall_dsp::stats::Normalizer;
use std::time::Instant;

/// The sample every timed push feeds: a still wearer, so the cost is
/// pure classification.
const STILL: ([f32; 3], [f32; 3]) = ([0.01, -0.02, 1.0], [0.0, 0.1, 0.0]);

/// An untrained proposed CNN (seeded weights, identity normaliser) on
/// the paper's 400 ms, half-overlap window, firing at `threshold`.
/// `1.1` never fires; `0.0` fires on every window.
pub fn probe_detector(threshold: f32) -> StreamingDetector {
    let cfg = DetectorConfig {
        threshold,
        ..driftref::detector_config()
    };
    let window = cfg.pipeline.segmentation.window();
    let net = ModelKind::ProposedCnn
        .build(window, 9, 1)
        .expect("model builds");
    StreamingDetector::new(net, Normalizer::identity(9), cfg).expect("detector builds")
}

/// Pushes still samples until one completes a hop and returns the wall
/// time, in seconds, of that classifying push (segment assembly,
/// normalisation and the forward pass) — the paper's real-time path.
pub fn time_classified_push(det: &mut StreamingDetector) -> f64 {
    loop {
        let t0 = Instant::now();
        let p = det.push_sample(STILL.0, STILL.1);
        let elapsed = t0.elapsed().as_secs_f64();
        if p.is_some() {
            return elapsed;
        }
    }
}

/// Median of `samples` (the upper one for an even count).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `windows` classified pushes per mode on `det` and returns the
/// `(disarmed, armed)` medians, in seconds.
///
/// The detector is first warmed in both modes (two windows of samples
/// each, untimed), so first-use buffer sizing is not timed. The timed
/// part then runs blocks of `round` windows — disarmed, armed,
/// disarmed, … — switching through `set_armed` between blocks, never
/// inside the timed region. A final `set_armed(det, false)` leaves the
/// detector disarmed.
///
/// # Panics
///
/// When `windows` or `round` is zero.
pub fn arming_medians(
    det: &mut StreamingDetector,
    windows: usize,
    round: usize,
    mut set_armed: impl FnMut(&mut StreamingDetector, bool),
) -> (f64, f64) {
    assert!(
        windows > 0 && round > 0,
        "windows and round must be positive"
    );
    let window = det.bundle().config().pipeline.segmentation.window();
    for armed in [false, true] {
        set_armed(det, armed);
        for _ in 0..2 * window {
            let _ = det.push_sample(STILL.0, STILL.1);
        }
    }
    let mut samples = [Vec::with_capacity(windows), Vec::with_capacity(windows)];
    let mut left = windows;
    while left > 0 {
        let block = round.min(left);
        for (armed, sink) in [false, true].into_iter().zip(samples.iter_mut()) {
            set_armed(det, armed);
            sink.extend((0..block).map(|_| time_classified_push(det)));
        }
        left -= block;
    }
    set_armed(det, false);
    let [mut disarmed, mut armed] = samples;
    (median(&mut disarmed), median(&mut armed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefall_telemetry::Registry;
    use std::sync::Arc;

    #[test]
    fn modes_alternate_per_round_with_n_windows_each_and_end_disarmed() {
        let (n, round) = (5, 2);
        let registry = Arc::new(Registry::new());
        let mut det = probe_detector(1.1);
        det.session_mut().set_recorder(registry.clone());
        let windows = || {
            registry
                .snapshot()
                .counters
                .get("detector.windows")
                .copied()
                .unwrap_or(0)
        };
        // Every switch, with the classified-window count at that moment.
        let mut calls: Vec<(bool, u64)> = Vec::new();
        let (disarmed, armed) = arming_medians(&mut det, n, round, |_, on| {
            calls.push((on, windows()));
        });
        assert!(disarmed > 0.0 && armed > 0.0);

        // Warm-up: one switch per mode, disarmed first.
        assert!(!calls[0].0 && calls[1].0);
        // Timed part: blocks alternate disarmed/armed, each `round`
        // windows long except the last pair, which takes the rest.
        let timed = &calls[2..];
        let (mut per_mode, mut blocks) = ([0u64; 2], Vec::new());
        for (i, pair) in timed.windows(2).enumerate() {
            assert_eq!(pair[0].0, i % 2 == 1, "modes alternate, disarmed first");
            let block = pair[1].1 - pair[0].1;
            per_mode[usize::from(pair[0].0)] += block;
            blocks.push(block);
        }
        assert_eq!(per_mode, [n as u64; 2], "exactly n windows per mode");
        assert_eq!(blocks, [2, 2, 2, 2, 1, 1], "one switch every round");
        assert_eq!(calls.last(), Some(&(false, windows())), "ends disarmed");
    }
}
