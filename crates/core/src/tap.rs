//! Observation taps: a per-sample hook on the streaming detector.
//!
//! A [`DetectorTap`] installed with
//! [`Session::set_tap`](crate::session::Session::set_tap) (on a
//! detector, `det.session_mut().set_tap(..)`) sees every ingest event
//! *after* it was processed — the raw pre-guard sensor values, the
//! resulting [`DetectorMode`], a copy of the cumulative [`GuardStatus`]
//! counters, and, on hop boundaries,
//! the classified window (score, arming state, policy-aware trigger
//! decision, and per-branch score attribution from
//! [`Network::forward_traced`](prefall_nn::network::Network::forward_traced)).
//!
//! The hook exists for flight recording and forensics
//! (`crates/blackbox`): because the tap observes the *raw* inputs in
//! arrival order — delivered samples and missing grid ticks alike — a
//! recorded stream can later be replayed through a fresh detector and
//! must reproduce the exact same score trajectory bit for bit.
//!
//! Tap discipline: callbacks run on the hot ingest path, so an
//! implementation must not allocate per call (after its own warm-up)
//! and must not panic. The session holds the tap by `Box` and invokes
//! it via take/put-back, so a tap never observes the session itself.

use crate::detector::{DetectorMode, GuardStatus, TrialOutcome};
use prefall_imu::trial::Trial;
use prefall_nn::network::BranchStat;

/// One classified window, handed to [`DetectorTap::on_sample`] when
/// the triggering ingest event completed a hop.
#[derive(Debug, Clone, Copy)]
pub struct WindowTap<'a> {
    /// Sigmoid window score (always finite on the guarded path).
    pub score: f32,
    /// Raw arming state after this window
    /// ([`Session::trigger_armed`](crate::session::Session::trigger_armed)).
    pub armed: bool,
    /// Policy-aware trigger decision after this window
    /// ([`Session::trigger_decision`](crate::session::Session::trigger_decision)).
    pub decision: bool,
    /// Per-branch activation statistics from the modality split, in
    /// branch order (accel, gyro, Euler for the paper's CNN). Empty
    /// for quantized engines and models without a split layer.
    pub attribution: &'a [BranchStat],
}

/// Context for one ingest event (one 100 Hz grid tick), handed to
/// [`DetectorTap::on_sample`] after the detector processed it.
#[derive(Debug, Clone, Copy)]
pub struct SampleTapCtx<'a> {
    /// Raw accelerometer reading in g, exactly as passed to
    /// [`Session::push_sample`](crate::session::Session::push_sample)
    /// (pre-guard, possibly non-finite). The gap-fill hold value when
    /// `missing` is set.
    pub accel: [f32; 3],
    /// Raw gyroscope reading in rad/s (see `accel`).
    pub gyro: [f32; 3],
    /// `true` when this tick was reported via
    /// [`Session::push_missing`](crate::session::Session::push_missing).
    pub missing: bool,
    /// Degraded modes active after this event.
    pub mode: DetectorMode,
    /// Cumulative guard counters after this event.
    pub guard: GuardStatus,
    /// The classified window, when this event completed a hop.
    pub window: Option<WindowTap<'a>>,
}

/// A per-sample observer on the streaming detector's ingest path.
///
/// See the [module docs](self) for the contract. All methods have
/// empty defaults except [`DetectorTap::on_sample`].
pub trait DetectorTap: std::fmt::Debug + Send {
    /// Called once per ingest event, after processing.
    fn on_sample(&mut self, ctx: &SampleTapCtx<'_>);

    /// Called from [`Session::reset`](crate::session::Session::reset):
    /// streaming state was cleared, a new stream begins.
    fn on_stream_reset(&mut self) {}

    /// Called when a trial finished streaming (from
    /// [`stream_ticks`](crate::detector::stream_ticks), which every
    /// trial runner goes through), with the final outcome.
    fn on_trial_end(&mut self, _trial: &Trial, _outcome: &TrialOutcome) {}
}

/// Fans one tap slot out to several observers, in installation order.
///
/// The detector holds exactly one tap, but deployments often want
/// more — a flight recorder *and* a drift monitor, say. A fanout is
/// itself a tap: its callbacks forward to every child, allocate
/// nothing per call, and inherit the children's discipline (each child
/// must honour the per-sample no-allocation contract on its own).
#[derive(Debug, Default)]
pub struct TapFanout {
    taps: Vec<Box<dyn DetectorTap>>,
}

impl TapFanout {
    /// A fanout over the given taps.
    pub fn new(taps: Vec<Box<dyn DetectorTap>>) -> Self {
        Self { taps }
    }

    /// Adds another observer (builder style).
    pub fn with(mut self, tap: Box<dyn DetectorTap>) -> Self {
        self.taps.push(tap);
        self
    }

    /// How many observers the fanout forwards to.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Whether the fanout has no observers.
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }
}

impl DetectorTap for TapFanout {
    fn on_sample(&mut self, ctx: &SampleTapCtx<'_>) {
        for tap in self.taps.iter_mut() {
            tap.on_sample(ctx);
        }
    }

    fn on_stream_reset(&mut self) {
        for tap in self.taps.iter_mut() {
            tap.on_stream_reset();
        }
    }

    fn on_trial_end(&mut self, trial: &Trial, outcome: &TrialOutcome) {
        for tap in self.taps.iter_mut() {
            tap.on_trial_end(trial, outcome);
        }
    }
}
