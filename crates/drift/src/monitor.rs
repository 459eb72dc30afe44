//! The live drift monitor: a [`DetectorTap`] that folds every ingest
//! event into streaming sketches and scores them against a reference
//! fingerprint, publishing `drift.*` gauges.
//!
//! Tap discipline (see `prefall_core::tap`): the per-sample path must
//! not allocate after warm-up. Every sketch here is fixed-size and
//! updated in place; branch shares are computed inline from the
//! borrowed [`BranchStat`](prefall_nn::network::BranchStat) slice
//! (never through the allocating
//! [`shares`](prefall_nn::network::BranchStat::shares) helper); epoch
//! rotation is a `mem::swap` plus an in-place clear; and gauge publishes use
//! static metric names. The workspace `noop_overhead` test counts
//! allocations across an armed monitor's steady state and asserts
//! zero.
//!
//! Scoring uses a **two-epoch sliding view** rather than the lifetime
//! sketch: the monitor scores the merge of the previous and current
//! epoch against the reference, so a drift that begins mid-stream is
//! visible within roughly one epoch instead of being diluted by hours
//! of healthy history. The lifetime sketch is still kept — it is the
//! deployment fingerprint [`DriftHandle::fingerprint`] exports.

use crate::fingerprint::{compare, DriftScore, Fingerprint, SHARE_BRANCHES};
use prefall_core::detector::StreamingDetector;
use prefall_core::tap::{DetectorTap, SampleTapCtx};
use prefall_telemetry::Recorder;
use std::sync::{Arc, Mutex};

/// Drift-monitor cadence and alarm threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Samples per scoring epoch. The sliding view scores the last
    /// one-to-two epochs; the default (3000 = 30 s at 100 Hz) reacts
    /// to a mid-stream drift within about a minute.
    pub epoch_samples: u64,
    /// Classified windows between gauge publishes (drift moves slowly;
    /// re-scoring every window would be wasted work).
    pub publish_every: u64,
    /// PSI at or above which [`DriftHandle::alarmed`] reports drift
    /// (0.25 is the conventional "major shift" reading).
    pub alarm_psi: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            epoch_samples: 3000,
            publish_every: 25,
            alarm_psi: 0.25,
        }
    }
}

struct DriftState {
    cfg: DriftConfig,
    reference: Option<Fingerprint>,
    /// Lifetime sketch — the exported fingerprint.
    total: Fingerprint,
    /// Last completed epoch.
    prev: Fingerprint,
    /// Epoch currently filling.
    cur: Fingerprint,
    /// Reused scratch for the prev+cur sliding view (cleared and
    /// re-merged at each scoring, never reallocated).
    recent: Fingerprint,
    windows: u64,
    last: Option<DriftScore>,
    rec: Arc<dyn Recorder>,
}

impl DriftState {
    fn rescore(&mut self) {
        let Some(reference) = &self.reference else {
            return;
        };
        self.recent.clear();
        self.recent.merge(&self.prev);
        self.recent.merge(&self.cur);
        let score = compare(reference, &self.recent);
        self.rec.gauge_set("drift.input_psi", score.input_psi);
        self.rec.gauge_set("drift.score_psi", score.score_psi);
        self.rec
            .gauge_set("drift.attribution_psi", score.attribution_psi);
        self.rec.gauge_set("drift.input_shift", score.input_shift);
        self.rec.gauge_set("drift.score_shift", score.score_shift);
        self.rec.gauge_set("drift.samples", score.samples as f64);
        self.rec.gauge_set(
            "drift.alarm",
            if score.alarmed(self.cfg.alarm_psi) {
                1.0
            } else {
                0.0
            },
        );
        self.last = Some(score);
    }
}

/// Shared, cloneable view of the drift monitor: holds the reference,
/// exports fingerprints and the latest score. Mirrors the blackbox
/// `FlightHandle` pattern — [`DriftMonitor::install`] returns one.
#[derive(Clone)]
pub struct DriftHandle {
    state: Arc<Mutex<DriftState>>,
}

impl std::fmt::Debug for DriftHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().expect("drift state poisoned");
        f.debug_struct("DriftHandle")
            .field("samples", &s.total.samples())
            .field("windows", &s.windows)
            .field("reference", &s.reference.is_some())
            .finish()
    }
}

impl DriftHandle {
    /// Installs a telemetry recorder for the `drift.*` gauges.
    pub fn set_recorder(&self, rec: Arc<dyn Recorder>) {
        let mut s = self.state.lock().expect("drift state poisoned");
        s.rec = rec;
    }

    /// Sets (or replaces) the reference fingerprint scores are
    /// computed against. Without one the monitor only accumulates.
    pub fn set_reference(&self, reference: Fingerprint) {
        let mut s = self.state.lock().expect("drift state poisoned");
        s.reference = Some(reference);
    }

    /// A copy of the reference fingerprint, if one is set.
    pub fn reference(&self) -> Option<Fingerprint> {
        let s = self.state.lock().expect("drift state poisoned");
        s.reference.clone()
    }

    /// A copy of the lifetime fingerprint (every sample since install
    /// or [`DriftHandle::reset_live`]).
    pub fn fingerprint(&self) -> Fingerprint {
        let s = self.state.lock().expect("drift state poisoned");
        s.total.clone()
    }

    /// A copy of the sliding view being scored (last one-to-two
    /// epochs).
    pub fn recent(&self) -> Fingerprint {
        let s = self.state.lock().expect("drift state poisoned");
        let mut out = Fingerprint::new();
        out.merge(&s.prev);
        out.merge(&s.cur);
        out
    }

    /// The latest computed drift score, if a reference is set and at
    /// least one publish has happened.
    pub fn score(&self) -> Option<DriftScore> {
        let s = self.state.lock().expect("drift state poisoned");
        s.last
    }

    /// Recomputes and publishes the score right now (benches and the
    /// obsd endpoint use this; the hot path publishes on its own
    /// cadence).
    pub fn publish_now(&self) -> Option<DriftScore> {
        let mut s = self.state.lock().expect("drift state poisoned");
        s.rescore();
        s.last
    }

    /// Whether the latest score breaches the configured alarm PSI.
    pub fn alarmed(&self) -> bool {
        let s = self.state.lock().expect("drift state poisoned");
        s.last.is_some_and(|sc| sc.alarmed(s.cfg.alarm_psi))
    }

    /// The configuration the monitor was created with.
    pub fn config(&self) -> DriftConfig {
        let s = self.state.lock().expect("drift state poisoned");
        s.cfg
    }

    /// Clears every live sketch (lifetime, epochs, last score). The
    /// reference is kept.
    pub fn reset_live(&self) {
        let mut s = self.state.lock().expect("drift state poisoned");
        s.total.clear();
        s.prev.clear();
        s.cur.clear();
        s.windows = 0;
        s.last = None;
    }
}

/// The [`DetectorTap`] half of the drift monitor. Created by
/// [`DriftMonitor::install`] (which also sets it as the detector's
/// tap) or [`DriftMonitor::create`] (for callers composing taps or
/// installing on a `Session`).
pub struct DriftMonitor {
    state: Arc<Mutex<DriftState>>,
}

impl std::fmt::Debug for DriftMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DriftMonitor")
    }
}

impl DriftMonitor {
    /// Builds a monitor, installs it as `detector`'s tap, and returns
    /// the shared [`DriftHandle`].
    pub fn install(detector: &mut StreamingDetector, cfg: DriftConfig) -> DriftHandle {
        let (tap, handle) = Self::create(cfg);
        detector.session_mut().set_tap(Box::new(tap));
        handle
    }

    /// Builds the tap/handle pair without installing it — for
    /// composing with other taps (e.g. alongside a flight recorder in
    /// a [`TapFanout`](prefall_core::tap::TapFanout)) or for session
    /// paths that own their tap slot.
    pub fn create(cfg: DriftConfig) -> (DriftMonitor, DriftHandle) {
        let state = Arc::new(Mutex::new(DriftState {
            cfg,
            reference: None,
            total: Fingerprint::new(),
            prev: Fingerprint::new(),
            cur: Fingerprint::new(),
            recent: Fingerprint::new(),
            windows: 0,
            last: None,
            rec: prefall_telemetry::noop(),
        }));
        (
            DriftMonitor {
                state: Arc::clone(&state),
            },
            DriftHandle { state },
        )
    }
}

impl DetectorTap for DriftMonitor {
    fn on_sample(&mut self, ctx: &SampleTapCtx<'_>) {
        let mut s = self.state.lock().expect("drift state poisoned");
        let s = &mut *s;
        // Gap-fill ticks repeat the held sample; folding them would
        // weight stuck values double. The outage itself is visible
        // through the guard counters, not the input distribution.
        if !ctx.missing {
            s.total.observe_sample(ctx.accel, ctx.gyro);
            s.cur.observe_sample(ctx.accel, ctx.gyro);
        }
        if let Some(w) = &ctx.window {
            s.total.observe_score(w.score);
            s.cur.observe_score(w.score);
            if !w.attribution.is_empty() {
                // Inline L2-share computation over the borrowed stats;
                // `prefall_nn::network::shares` allocates a Vec, which
                // is off-limits on this path.
                let mut l2 = [0.0f64; SHARE_BRANCHES];
                let mut sum = 0.0f64;
                let n = w.attribution.len().min(SHARE_BRANCHES);
                for (slot, stat) in l2.iter_mut().zip(w.attribution.iter()) {
                    *slot = f64::from(stat.l2);
                    sum += *slot;
                }
                if sum > 0.0 {
                    for slot in l2.iter_mut().take(n) {
                        *slot /= sum;
                    }
                } else {
                    for slot in l2.iter_mut().take(n) {
                        *slot = 1.0 / n as f64;
                    }
                }
                s.total.observe_shares(&l2[..n]);
                s.cur.observe_shares(&l2[..n]);
            }
            s.windows += 1;
            if s.windows.is_multiple_of(s.cfg.publish_every.max(1)) {
                s.rescore();
            }
        }
        if s.cur.samples() >= s.cfg.epoch_samples.max(1) {
            std::mem::swap(&mut s.prev, &mut s.cur);
            s.cur.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefall_core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
    use prefall_core::models::ModelKind;
    use prefall_core::pipeline::PipelineConfig;
    use prefall_dsp::segment::Overlap;
    use prefall_dsp::stats::Normalizer;
    use prefall_telemetry::Registry;

    fn detector() -> StreamingDetector {
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(400.0, Overlap::Half),
            threshold: 0.5,
            consecutive: 3,
            guard: GuardConfig::default(),
        };
        let window = cfg.pipeline.segmentation.window();
        StreamingDetector::new(
            ModelKind::ProposedCnn.build(window, 9, 1).unwrap(),
            Normalizer::identity(9),
            cfg,
        )
        .unwrap()
    }

    fn motion(t: u64) -> ([f32; 3], [f32; 3]) {
        let x = t as f32 * 0.07;
        (
            [0.02 * x.sin(), -0.03 * (x * 0.9).cos(), 1.0],
            [6.0 * (x * 1.3).sin(), -4.0 * x.cos(), 1.5 * (x * 0.4).sin()],
        )
    }

    #[test]
    fn monitor_accumulates_samples_scores_and_attribution() {
        let mut det = detector();
        let handle = DriftMonitor::install(&mut det, DriftConfig::default());
        for t in 0..300u64 {
            let (a, g) = motion(t);
            let _ = det.push_sample(a, g);
        }
        let fp = handle.fingerprint();
        assert_eq!(fp.samples(), 300);
        assert!(fp.windows() > 0, "windows classified");
        assert!(
            fp.shares[0].count() == fp.windows(),
            "attribution folded per window"
        );
    }

    #[test]
    fn matching_stream_stays_quiet_and_biased_stream_alarms() {
        // Reference: the same motion distribution.
        let mut det = detector();
        let handle = DriftMonitor::install(&mut det, DriftConfig::default());
        for t in 0..2000u64 {
            let (a, g) = motion(t);
            let _ = det.push_sample(a, g);
        }
        let reference = handle.fingerprint();

        // A fresh monitor over the same distribution: quiet.
        let mut det2 = detector();
        let h2 = DriftMonitor::install(&mut det2, DriftConfig::default());
        h2.set_reference(reference.clone());
        for t in 0..2000u64 {
            let (a, g) = motion(t);
            let _ = det2.push_sample(a, g);
        }
        let quiet = h2.publish_now().expect("scored");
        assert!(quiet.input_psi < 0.05, "clean psi {}", quiet.input_psi);
        assert!(!h2.alarmed());

        // A biased gyro (stuck at rail): alarms.
        let mut det3 = detector();
        let h3 = DriftMonitor::install(&mut det3, DriftConfig::default());
        h3.set_reference(reference);
        for t in 0..2000u64 {
            let (a, _) = motion(t);
            let _ = det3.push_sample(a, [30.0, 30.0, 30.0]);
        }
        let loud = h3.publish_now().expect("scored");
        assert!(loud.input_psi > 0.25, "biased psi {}", loud.input_psi);
        assert!(h3.alarmed());
    }

    #[test]
    fn epoch_rotation_bounds_the_scored_view() {
        let mut det = detector();
        let handle = DriftMonitor::install(
            &mut det,
            DriftConfig {
                epoch_samples: 100,
                ..DriftConfig::default()
            },
        );
        for t in 0..1000u64 {
            let (a, g) = motion(t);
            let _ = det.push_sample(a, g);
        }
        // Lifetime keeps everything; the sliding view holds at most
        // two epochs.
        assert_eq!(handle.fingerprint().samples(), 1000);
        assert!(handle.recent().samples() <= 200);
        assert!(handle.recent().samples() > 0);
    }

    #[test]
    fn gauges_publish_on_cadence() {
        let reg = Arc::new(Registry::new());
        let mut det = detector();
        let handle = DriftMonitor::install(
            &mut det,
            DriftConfig {
                publish_every: 1,
                ..DriftConfig::default()
            },
        );
        handle.set_recorder(reg.clone());
        handle.set_reference(Fingerprint::new());
        for t in 0..200u64 {
            let (a, g) = motion(t);
            let _ = det.push_sample(a, g);
        }
        let snap = reg.snapshot();
        for want in [
            "drift.input_psi",
            "drift.score_psi",
            "drift.attribution_psi",
            "drift.samples",
            "drift.alarm",
        ] {
            assert!(snap.gauges.contains_key(want), "missing gauge {want}");
        }
    }

    #[test]
    fn reset_live_keeps_the_reference() {
        let (_tap, handle) = DriftMonitor::create(DriftConfig::default());
        handle.set_reference(Fingerprint::new());
        handle.reset_live();
        assert!(handle.reference().is_some());
        assert_eq!(handle.fingerprint().samples(), 0);
    }
}
