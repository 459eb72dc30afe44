//! The detector split for fleet serving: a shared immutable
//! [`ModelBundle`] and a compact, poolable [`Session`].
//!
//! A [`StreamingDetector`](crate::detector::StreamingDetector) pairs one
//! of each and serves exactly one wearer; it adds only the pushes, and
//! everything else — state, checkpoints, recorder, tap — is read and set
//! on its [`Session`]. A fleet server instead builds one `ModelBundle`
//! (engine weights, normaliser, configuration, filter prototype —
//! everything immutable and identical across wearers), wraps it in an
//! `Arc`, and pools thousands of `Session`s against it:
//! each session is only the per-stream state (ingest guard, IIR filter
//! delay lines, fusion attitude, sliding window, nn scratch
//! [`Workspace`], optional tap). Sessions are `Send`, reset cleanly for
//! recycling without releasing their buffers, and checkpoint/restore
//! bit-exactly so a reconnecting wearer resumes with a warm window.
//!
//! # Shared inference
//!
//! There is one route from a session to the engine: every push borrows
//! the [`ModelBundle`] shared and classifies through `&Engine`, on the
//! allocation-free scalar interpreter (float) or the int8 kernels —
//! for a one-wearer [`StreamingDetector`](crate::detector::StreamingDetector)
//! and a fleet of thousands alike. [`ModelBundle::new`] refuses
//! architectures the interpreter cannot run (the LSTM/ConvLSTM
//! baselines), so no constructed bundle can reject windows at runtime
//! for its architecture.
//!
//! # Tick grid and out-of-order delivery
//!
//! [`Session::push_at`] ingests a sample at an explicit 100 Hz grid
//! tick. Ticks already consumed are dropped and counted
//! (`guard.ts_regression`) — duplicate and reordered batches become
//! idempotent re-deliveries instead of silently corrupting the
//! gap-bridging math. Ticks ahead of the grid bridge the gap through
//! the existing [`SampleGuard`] exactly as [`Session::push_missing`]
//! would, with gaps beyond
//! [`GuardConfig::max_gap_fill`](crate::detector::GuardConfig::max_gap_fill)
//! collapsed into one accounting step (same counters, no per-tick tap
//! callbacks) so a reconnect after minutes costs O(1), not O(gap).

use crate::detector::{
    emit_guard_deltas, DetectorConfig, DetectorMode, Engine, GuardConfig, GuardStatus, SampleGuard,
    TrialOutcome,
};
use crate::tap::{DetectorTap, SampleTapCtx, WindowTap};
use crate::CoreError;
use prefall_dsp::biquad::SosFilter;
use prefall_dsp::butterworth::Butterworth;
use prefall_dsp::fusion::{ComplementaryFilter, EulerAngles};
use prefall_dsp::stats::Normalizer;
use prefall_imu::channel::NUM_CHANNELS;
use prefall_imu::trial::{Trial, FUSION_ALPHA};
use prefall_imu::SAMPLE_RATE_HZ;
use prefall_nn::network::BranchStat;
use prefall_nn::workspace::Workspace;
use prefall_telemetry::wire::{Reader, Writer};
use prefall_telemetry::{Recorder, Span};
use std::collections::VecDeque;
use std::sync::Arc;

/// The immutable, shareable half of a streaming detector: engine
/// weights, fitted normaliser, configuration and the designed filter
/// prototype. One bundle serves any number of [`Session`]s — wrap it
/// in an `Arc` and every session created from it classifies against
/// the same weights without copying them.
#[derive(Debug)]
pub struct ModelBundle {
    pub(crate) engine: Engine,
    pub(crate) normalizer: Normalizer,
    pub(crate) config: DetectorConfig,
    filter_proto: SosFilter,
}

impl ModelBundle {
    /// Builds a bundle from a trained engine and its fitted normaliser.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the engine input does
    /// not match the configured window, the architecture cannot run on
    /// the allocation-free `&self` interpreter (the LSTM/ConvLSTM
    /// baselines), or the filter design fails.
    pub fn new(
        engine: impl Into<Engine>,
        normalizer: Normalizer,
        config: DetectorConfig,
    ) -> Result<Self, CoreError> {
        let engine = engine.into();
        let window = config.pipeline.segmentation.window();
        if engine.input_len() != window * NUM_CHANNELS {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "engine expects {} inputs, window provides {}",
                    engine.input_len(),
                    window * NUM_CHANNELS
                ),
            });
        }
        let design = Butterworth::lowpass(
            config.pipeline.filter_order,
            config.pipeline.filter_cutoff_hz,
            SAMPLE_RATE_HZ,
        )?;
        // Probe the interpreter once: an architecture it cannot run
        // would reject every window, so refuse it here instead.
        let probe = vec![0.0f32; engine.input_len()];
        if engine
            .infer_unchecked(&probe, &mut Workspace::new(), None)
            .is_none()
        {
            return Err(CoreError::InvalidConfig {
                reason: "architecture unsupported by the allocation-free interpreter".to_string(),
            });
        }
        Ok(Self {
            engine,
            normalizer,
            config,
            filter_proto: design.to_filter(),
        })
    }

    /// The detector configuration every session created from this
    /// bundle starts with.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The shared inference engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The fitted per-channel normaliser.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }

    /// Creates a fresh, cold session against this bundle.
    pub fn new_session(&self) -> Session {
        let window = self.config.pipeline.segmentation.window();
        Session {
            window_len: window,
            hop: self.config.pipeline.segmentation.hop(),
            threshold: self.config.threshold,
            consecutive: self.config.consecutive,
            filters: (0..NUM_CHANNELS)
                .map(|_| self.filter_proto.clone())
                .collect(),
            fusion: ComplementaryFilter::new(SAMPLE_RATE_HZ, FUSION_ALPHA),
            window: VecDeque::with_capacity(window),
            samples_seen: 0,
            positives_in_a_row: 0,
            guard: SampleGuard::new(self.config.guard),
            rec: prefall_telemetry::noop(),
            tap: None,
            last_trace: Vec::new(),
            published_mode: None,
            ws: Workspace::new(),
            scratch_seg: Vec::with_capacity(window * NUM_CHANNELS),
        }
    }
}

/// What happened to one tick pushed via [`Session::push_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickOutcome {
    /// Windows classified by this push (delivered sample plus any
    /// gap-bridged fills), appended to the caller's output in order.
    pub windows: usize,
    /// Window boundaries crossed while load-shedding (cadence
    /// advanced, inference skipped).
    pub shed_windows: usize,
    /// The tick was behind the grid (duplicate or reordered delivery):
    /// dropped and counted in `guard.ts_regression`.
    pub regressed: bool,
}

/// The compact, poolable per-wearer half of a streaming detector.
///
/// Holds every piece of state that differs between wearers — ingest
/// guard, filter delay lines, fusion attitude, sliding window, arming
/// run, nn scratch — and nothing that doesn't. All pushes borrow the
/// model from a [`ModelBundle`]; one bundle in an `Arc` serves every
/// session in a fleet.
///
/// [`Session::reset`] clears streaming state without releasing buffer
/// capacity, so recycling a session through a pool allocates nothing
/// in steady state.
#[derive(Debug)]
pub struct Session {
    window_len: usize,
    hop: usize,
    threshold: f32,
    consecutive: usize,
    filters: Vec<SosFilter>,
    fusion: ComplementaryFilter,
    window: VecDeque<[f32; NUM_CHANNELS]>,
    samples_seen: usize,
    positives_in_a_row: usize,
    guard: SampleGuard,
    rec: Arc<dyn Recorder>,
    tap: Option<Box<dyn DetectorTap>>,
    last_trace: Vec<BranchStat>,
    published_mode: Option<DetectorMode>,
    ws: Workspace,
    scratch_seg: Vec<f32>,
}

impl Session {
    /// Installs a telemetry recorder. Every push lands in the
    /// `detector.push_sample_seconds` histogram, each classified window
    /// in `detector.infer_seconds` plus the `detector.windows` counter.
    /// The default is the shared no-op recorder, which never reads the
    /// clock.
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.rec = rec;
    }

    /// Installs a [`DetectorTap`]: a per-sample observer that sees
    /// every ingest event (raw values, guard state, classified windows
    /// with per-branch attribution). While a tap is installed,
    /// inference runs through the traced engine path — bit-identical
    /// scores, plus branch statistics. Replaces any previous tap.
    pub fn set_tap(&mut self, tap: Box<dyn DetectorTap>) {
        self.tap = Some(tap);
    }

    /// Removes and returns the installed tap, if any.
    pub fn take_tap(&mut self) -> Option<Box<dyn DetectorTap>> {
        self.tap.take()
    }

    /// Whether a [`DetectorTap`] is currently installed.
    pub fn has_tap(&self) -> bool {
        self.tap.is_some()
    }

    /// Resets all streaming state (filters, fusion, window, guard
    /// stream state, tick grid). Cumulative [`GuardStatus`] counters
    /// survive. No buffer is released: a reset session re-streams
    /// without allocating.
    pub fn reset(&mut self) {
        for f in &mut self.filters {
            f.reset();
        }
        self.fusion.reset();
        self.window.clear();
        self.samples_seen = 0;
        self.positives_in_a_row = 0;
        self.guard.reset_stream();
        self.published_mode = None;
        if let Some(mut tap) = self.tap.take() {
            tap.on_stream_reset();
            self.tap = Some(tap);
        }
    }

    /// Replaces the guard configuration, resetting all guard state
    /// including the cumulative counters. On a
    /// [`StreamingDetector`](crate::detector::StreamingDetector) use
    /// its `set_guard`, which also updates the bundle's configuration.
    pub fn set_guard(&mut self, cfg: GuardConfig) {
        self.guard = SampleGuard::new(cfg);
    }

    /// The currently active degraded modes.
    pub fn mode(&self) -> DetectorMode {
        self.guard.mode
    }

    /// Cumulative guard intervention counters.
    pub fn guard_status(&self) -> GuardStatus {
        self.guard.status
    }

    /// Whether the accelerometer branch currently confirms a fall-like
    /// event: accel magnitude left the 1 g rest band within the last
    /// [`GuardConfig::accel_confirm_window`] samples.
    pub fn accel_confirms(&self) -> bool {
        self.guard.anomaly_age as usize <= self.guard.cfg.accel_confirm_window
    }

    /// Whether the trigger condition (N consecutive positive windows)
    /// is currently met. This is the raw arming state; it deliberately
    /// ignores degraded modes — see [`Session::trigger_decision`] for
    /// the policy-aware check.
    pub fn trigger_armed(&self) -> bool {
        self.positives_in_a_row >= self.consecutive
    }

    /// The policy-aware trigger: armed *and* permitted by the
    /// degraded-trigger policy (see the
    /// [`detector`](crate::detector) module docs). While degraded, a
    /// trigger requires a healthy, non-stale accelerometer whose
    /// magnitude recently confirmed a dynamic event; a probability
    /// computed from masked or gap-filled data never fires the airbag on
    /// its own.
    pub fn trigger_decision(&self) -> bool {
        self.trigger_armed() && self.guard_allows_trigger()
    }

    /// The load-shed trigger decision: with inference shed, this is
    /// the degraded-trigger policy standing alone — a healthy,
    /// non-stale accelerometer whose magnitude recently confirmed a
    /// dynamic event. A fleet under overload degrades to this
    /// accel-confirmed-trigger-only mode instead of dropping the
    /// wearer silently.
    pub fn shed_trigger(&self) -> bool {
        let m = self.guard.mode;
        !m.accel_degraded && !m.stale && self.accel_confirms()
    }

    /// Grid ticks consumed so far (next expected tick for
    /// [`Session::push_at`]).
    pub fn next_tick(&self) -> u64 {
        self.guard.next_tick
    }

    /// Total samples folded into the sliding window (survives
    /// checkpoint/restore; used to verify a warm resume).
    pub fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    /// Notifies an installed [`DetectorTap`] that a trial finished
    /// streaming. [`run_on_trial`](crate::detector::run_on_trial) and
    /// the faulted-trial runner call this automatically; call it
    /// yourself when driving the session sample-by-sample and the tap
    /// needs trial boundaries (e.g. the flight recorder classifying a
    /// missed fall).
    pub fn notify_trial_end(&mut self, trial: &Trial, outcome: &TrialOutcome) {
        if let Some(mut tap) = self.tap.take() {
            tap.on_trial_end(trial, outcome);
            self.tap = Some(tap);
        }
    }

    /// Feeds one raw 100 Hz sample (accelerometer in g, gyroscope in
    /// rad/s), classifying against `bundle`'s engine. Returns the
    /// window probability when a full hop completed, `None` otherwise.
    ///
    /// With [`GuardConfig::enabled`] (the default) the sample passes
    /// through the [`SampleGuard`] first and the returned probability
    /// is always finite and computed from validated data. With the
    /// guard disabled this is the naive ingest: a single NaN axis
    /// reading permanently poisons the Butterworth and fusion state,
    /// after which every window is NaN and the network's `max`-based
    /// layers launder it into a constant garbage score — the detector
    /// goes silently blind.
    pub fn push_sample(
        &mut self,
        bundle: &ModelBundle,
        accel: [f32; 3],
        gyro: [f32; 3],
    ) -> Option<f32> {
        self.push_tick(bundle, accel, gyro, true).0
    }

    /// Reports a missing grid tick (the sensor bus delivered nothing at
    /// this 100 Hz slot). Returns a probability if bridging the gap
    /// completed a hop.
    ///
    /// Gaps up to [`GuardConfig::max_gap_fill`] ticks are bridged by
    /// re-ingesting the last good sample (counted as `gaps_filled`);
    /// longer gaps mark the session stale, flush the window when real
    /// data resumes, and are counted as `gap_lost`.
    ///
    /// With the guard disabled this is a no-op returning `None`: the
    /// naive detector simply never learns a tick passed, so its window
    /// silently loses grid alignment — the failure mode the guard
    /// exists to prevent.
    pub fn push_missing(&mut self, bundle: &ModelBundle) -> Option<f32> {
        if !self.guard.cfg.enabled {
            // The naive path never learns a tick passed — but a tap
            // still records the event so a replay stays faithful.
            let (accel, gyro) = self.guard.fill_value();
            self.tap_after(accel, gyro, true, None);
            return None;
        }
        self.push_missing_tick(bundle, true).0
    }

    /// Ingests a sample at an explicit grid tick, tolerating
    /// duplicate, reordered and gap delivery (module docs). Window
    /// probabilities — from the delivered sample and any gap-bridging
    /// fills — are appended to `out` in emission order.
    pub fn push_at(
        &mut self,
        bundle: &ModelBundle,
        tick: u64,
        accel: [f32; 3],
        gyro: [f32; 3],
        out: &mut Vec<f32>,
    ) -> TickOutcome {
        self.push_at_impl(bundle, tick, accel, gyro, Some(out), true)
    }

    /// [`Session::push_at`] under load shedding: guard, filters,
    /// window and cadence advance exactly as normal, but window
    /// boundaries skip inference (counted in
    /// [`TickOutcome::shed_windows`]); pair with
    /// [`Session::shed_trigger`] for the degraded trigger decision.
    pub fn push_at_shed(
        &mut self,
        bundle: &ModelBundle,
        tick: u64,
        accel: [f32; 3],
        gyro: [f32; 3],
    ) -> TickOutcome {
        self.push_at_impl(bundle, tick, accel, gyro, None, false)
    }

    /// Captures the complete per-stream state for crash-safe resume.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        let mut filters = Vec::with_capacity(self.filters.len());
        for f in &self.filters {
            let mut state = Vec::with_capacity(f.num_sections());
            f.export_state(&mut state);
            filters.push(state);
        }
        let (fusion_angles, fusion_init) = self.fusion.state();
        SessionCheckpoint {
            samples_seen: self.samples_seen as u64,
            positives_in_a_row: self.positives_in_a_row as u64,
            window: self.window.iter().copied().collect(),
            filters,
            fusion_angles,
            fusion_init,
            guard: GuardSnapshot::capture(&self.guard),
        }
    }

    /// Restores state captured by [`Session::checkpoint`]: the next
    /// push continues bit-identically to the session that was
    /// checkpointed. The guard *configuration* is not part of a
    /// checkpoint — the session keeps its own.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the checkpoint's
    /// shape (filter sections, window rows) does not fit this
    /// session's configuration; the session is left unchanged.
    pub fn restore(&mut self, ck: &SessionCheckpoint) -> Result<(), CoreError> {
        if ck.filters.len() != self.filters.len() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "checkpoint has {} filter channels, session has {}",
                    ck.filters.len(),
                    self.filters.len()
                ),
            });
        }
        for (f, state) in self.filters.iter().zip(&ck.filters) {
            if state.len() != f.num_sections() {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "checkpoint has {} filter sections, session has {}",
                        state.len(),
                        f.num_sections()
                    ),
                });
            }
        }
        if ck.window.len() > self.window_len {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "checkpoint window has {} rows, session window holds {}",
                    ck.window.len(),
                    self.window_len
                ),
            });
        }
        for (f, state) in self.filters.iter_mut().zip(&ck.filters) {
            let ok = f.restore_state(state);
            debug_assert!(ok, "shape checked above");
        }
        self.fusion.restore(ck.fusion_angles, ck.fusion_init);
        self.window.clear();
        self.window.extend(ck.window.iter().copied());
        self.samples_seen = ck.samples_seen as usize;
        self.positives_in_a_row = ck.positives_in_a_row as usize;
        ck.guard.restore_into(&mut self.guard);
        self.published_mode = None;
        self.last_trace.clear();
        Ok(())
    }

    /// One delivered tick: guard (or raw) ingest, then the tap.
    /// Returns `(probability, shed_boundary)`.
    fn push_tick(
        &mut self,
        bundle: &ModelBundle,
        accel: [f32; 3],
        gyro: [f32; 3],
        infer: bool,
    ) -> (Option<f32>, bool) {
        let (prob, shed) = if self.guard.cfg.enabled {
            self.guard.next_tick = self.guard.next_tick.wrapping_add(1);
            self.push_guarded(bundle, accel, gyro, false, infer)
        } else {
            self.push_raw(bundle, accel, gyro, infer)
        };
        self.tap_after(accel, gyro, false, prob);
        (prob, shed)
    }

    /// One missing tick on the guarded path. Returns
    /// `(probability, shed_boundary)`.
    fn push_missing_tick(&mut self, bundle: &ModelBundle, infer: bool) -> (Option<f32>, bool) {
        let before = self.guard.status;
        self.guard.status.samples += 1;
        self.guard.next_tick = self.guard.next_tick.wrapping_add(1);
        self.guard.gap_run += 1;
        let bridged = self.guard.gap_run <= self.guard.cfg.max_gap_fill;
        if bridged {
            self.guard.status.gaps_filled += 1;
            if self.guard.mode.is_degraded() {
                self.guard.status.degraded_samples += 1;
            }
        } else {
            self.guard.status.gap_lost += 1;
            self.guard.mode.stale = true;
            self.guard.pending_flush = true;
        }
        if self.rec.enabled() {
            let rec = Arc::clone(&self.rec);
            // Emit only this method's own increments; the guarded push
            // below emits its own deltas.
            emit_guard_deltas(rec.as_ref(), &before, &self.guard.status);
            self.publish_mode(rec.as_ref());
        }
        let (accel, gyro) = self.guard.fill_value();
        let (prob, shed) = if bridged {
            self.push_guarded(bundle, accel, gyro, true, infer)
        } else {
            (None, false)
        };
        self.tap_after(accel, gyro, true, prob);
        (prob, shed)
    }

    fn push_at_impl(
        &mut self,
        bundle: &ModelBundle,
        tick: u64,
        accel: [f32; 3],
        gyro: [f32; 3],
        mut out: Option<&mut Vec<f32>>,
        infer: bool,
    ) -> TickOutcome {
        let mut res = TickOutcome::default();
        let mut collect = |res: &mut TickOutcome, prob: Option<f32>, shed: bool| {
            if let Some(p) = prob {
                res.windows += 1;
                if let Some(out) = out.as_deref_mut() {
                    out.push(p);
                }
            }
            if shed {
                res.shed_windows += 1;
            }
        };
        if !self.guard.cfg.enabled {
            // The naive path has no grid: ingest in arrival order.
            let (prob, shed) = self.push_tick(bundle, accel, gyro, infer);
            collect(&mut res, prob, shed);
            return res;
        }
        let expected = self.guard.next_tick;
        if tick < expected {
            let before = self.guard.status;
            self.guard.status.ts_regression += 1;
            if self.rec.enabled() {
                let rec = Arc::clone(&self.rec);
                emit_guard_deltas(rec.as_ref(), &before, &self.guard.status);
            }
            res.regressed = true;
            return res;
        }
        if tick > expected {
            // A delivery gap: bridge through the guard exactly as a
            // run of `push_missing` calls would, with the unbridgeable
            // remainder collapsed into one accounting step.
            let mut remaining = tick - expected;
            let max_fill = self.guard.cfg.max_gap_fill as u64;
            while remaining > 0 && (self.guard.gap_run as u64) < max_fill {
                let (prob, shed) = self.push_missing_tick(bundle, infer);
                collect(&mut res, prob, shed);
                remaining -= 1;
            }
            if remaining > 0 {
                let before = self.guard.status;
                self.guard.status.samples += remaining;
                self.guard.status.gap_lost += remaining;
                self.guard.gap_run = self
                    .guard
                    .gap_run
                    .saturating_add(usize::try_from(remaining).unwrap_or(usize::MAX));
                self.guard.mode.stale = true;
                self.guard.pending_flush = true;
                self.guard.next_tick = tick;
                if self.rec.enabled() {
                    let rec = Arc::clone(&self.rec);
                    emit_guard_deltas(rec.as_ref(), &before, &self.guard.status);
                    self.publish_mode(rec.as_ref());
                }
            }
        }
        let (prob, shed) = self.push_tick(bundle, accel, gyro, infer);
        collect(&mut res, prob, shed);
        res
    }

    /// Invokes the installed tap (if any) for one completed ingest
    /// event. Take/put-back keeps the borrow checker happy without an
    /// allocation, and lets the tap live outside the session's own
    /// mutable state.
    fn tap_after(&mut self, accel: [f32; 3], gyro: [f32; 3], missing: bool, prob: Option<f32>) {
        let Some(mut tap) = self.tap.take() else {
            return;
        };
        let window = prob.map(|score| WindowTap {
            score,
            armed: self.trigger_armed(),
            decision: self.trigger_decision(),
            attribution: self.last_trace.as_slice(),
        });
        tap.on_sample(&SampleTapCtx {
            accel,
            gyro,
            missing,
            mode: self.guard.mode,
            guard: self.guard.status,
            window,
        });
        self.tap = Some(tap);
    }

    /// Publishes `detector.mode.*` gauges (0/1) when the mode changed
    /// since the last publish. Static names, no allocation.
    fn publish_mode(&mut self, rec: &dyn Recorder) {
        let m = self.guard.mode;
        if self.published_mode == Some(m) {
            return;
        }
        self.published_mode = Some(m);
        let flag = |b: bool| if b { 1.0 } else { 0.0 };
        rec.gauge_set("detector.mode.accel_degraded", flag(m.accel_degraded));
        rec.gauge_set("detector.mode.gyro_degraded", flag(m.gyro_degraded));
        rec.gauge_set("detector.mode.stale", flag(m.stale));
        rec.gauge_set("detector.mode.degraded", flag(m.is_degraded()));
    }

    /// The hardened ingest path. `synthetic` marks a gap-fill sample,
    /// which skips validation and watchdog updates (its values are the
    /// already-clean hold sample and must not look "stuck"). `infer`
    /// off is load shedding: cadence advances, inference is skipped.
    /// Returns `(probability, shed_boundary)`.
    fn push_guarded(
        &mut self,
        bundle: &ModelBundle,
        accel: [f32; 3],
        gyro: [f32; 3],
        synthetic: bool,
        infer: bool,
    ) -> (Option<f32>, bool) {
        // Cloning the Arc (one atomic bump, no allocation) frees `self`
        // for the mutable streaming state below.
        let rec = Arc::clone(&self.rec);
        let _push_span = Span::enter(rec.as_ref(), "detector.push_sample_seconds");
        let before = self.guard.status;

        if self.guard.pending_flush && !synthetic {
            // Real data after an unbridgeable gap: the window mixes
            // pre- and post-gap time, so drop it and refill.
            self.window.clear();
            self.positives_in_a_row = 0;
            self.guard.pending_flush = false;
            self.guard.gap_run = 0;
            self.guard.mode.stale = false;
            self.guard.status.window_flushes += 1;
        }

        let (accel, gyro) = if synthetic {
            (accel, gyro)
        } else {
            self.guard.sanitize(accel, gyro)
        };

        // Degraded gyro: run fusion accel-only so the Euler channels
        // stay posture-driven instead of integrating garbage.
        let fused_gyro = if self.guard.mode.gyro_degraded {
            [0.0; 3]
        } else {
            gyro
        };
        let mut shed_boundary = false;
        let prob = if !self.ingest(accel, gyro, fused_gyro) {
            None
        } else if !infer {
            // Load shedding: the window boundary passes unclassified.
            // The arming run is frozen — a shed fleet falls back to
            // the accel-confirmed trigger, never to stale scores.
            shed_boundary = true;
            None
        } else {
            // Degraded channels are masked to the normalised zero point.
            let mode = self.guard.mode;
            let p = self
                .classify(bundle, rec.as_ref(), mode, true)
                .unwrap_or_else(|| {
                    self.guard.status.engine_rejects += 1;
                    0.0
                });
            self.guard.status.windows += 1;
            if mode.is_degraded() {
                self.guard.status.degraded_windows += 1;
            }
            self.arm(p, rec.as_ref());
            if self.trigger_armed() && !self.guard_allows_trigger() {
                self.guard.status.suppressed_triggers += 1;
            }
            Some(p)
        };

        if rec.enabled() {
            emit_guard_deltas(rec.as_ref(), &before, &self.guard.status);
            self.publish_mode(rec.as_ref());
        }
        (prob, shed_boundary)
    }

    /// The legacy unhardened ingest, byte-for-byte the pre-guard
    /// behaviour: no validation, no masking, unchecked scoring.
    /// Returns `(probability, shed_boundary)`.
    fn push_raw(
        &mut self,
        bundle: &ModelBundle,
        accel: [f32; 3],
        gyro: [f32; 3],
        infer: bool,
    ) -> (Option<f32>, bool) {
        let rec = Arc::clone(&self.rec);
        let _push_span = Span::enter(rec.as_ref(), "detector.push_sample_seconds");
        if !self.ingest(accel, gyro, gyro) {
            return (None, false);
        }
        if !infer {
            return (None, true);
        }
        // `None` only for an unsupported architecture, which
        // `ModelBundle::new` refuses; NaN is the honest "no score".
        let prob = self
            .classify(bundle, rec.as_ref(), DetectorMode::default(), false)
            .unwrap_or(f32::NAN);
        self.arm(prob, rec.as_ref());
        (Some(prob), false)
    }

    /// Fusion → filter → window: runs the on-edge sensor fusion (with
    /// `fused_gyro`, which a degraded gyro zeroes) and the causal
    /// low-pass on one sample and slides it into the window. Returns
    /// whether the full window now sits on a hop boundary.
    fn ingest(&mut self, accel: [f32; 3], gyro: [f32; 3], fused_gyro: [f32; 3]) -> bool {
        let euler = self.fusion.update(
            [
                f64::from(accel[0]),
                f64::from(accel[1]),
                f64::from(accel[2]),
            ],
            [
                f64::from(fused_gyro[0]),
                f64::from(fused_gyro[1]),
                f64::from(fused_gyro[2]),
            ],
        );
        let raw = [
            accel[0],
            accel[1],
            accel[2],
            gyro[0],
            gyro[1],
            gyro[2],
            euler.pitch as f32,
            euler.roll as f32,
            euler.yaw as f32,
        ];
        let mut row = [0.0f32; NUM_CHANNELS];
        for (c, (f, &v)) in self.filters.iter_mut().zip(&raw).enumerate() {
            row[c] = f.process(v);
        }

        let w = self.window_len;
        if self.window.len() == w {
            self.window.pop_front();
        }
        self.window.push_back(row);
        self.samples_seen += 1;
        self.window.len() == w && (self.samples_seen - w).is_multiple_of(self.hop)
    }

    /// Window → score: assembles the window into the scratch segment,
    /// normalises it, zeroes the channels of the sensors `masked`
    /// marks degraded, and classifies through the shared engine —
    /// `validated` ([`Engine::infer`]) or, for the guard-off ingest,
    /// unchecked. Traced into `last_trace` while a tap is installed.
    /// No per-window heap allocation.
    fn classify(
        &mut self,
        bundle: &ModelBundle,
        rec: &dyn Recorder,
        masked: DetectorMode,
        validated: bool,
    ) -> Option<f32> {
        let seg = &mut self.scratch_seg;
        seg.clear();
        for r in &self.window {
            seg.extend_from_slice(r);
        }
        bundle.normalizer.apply_in_place(seg);
        if masked.accel_degraded || masked.gyro_degraded {
            let from = if masked.accel_degraded { 0 } else { 3 };
            let to = if masked.gyro_degraded { 6 } else { 3 };
            for row in seg.chunks_exact_mut(NUM_CHANNELS) {
                row[from..to].fill(0.0);
            }
        }
        let _infer_span = Span::enter(rec, "detector.infer_seconds");
        let trace = self.tap.is_some().then_some(&mut self.last_trace);
        if validated {
            bundle.engine.infer(seg, &mut self.ws, trace)
        } else {
            bundle.engine.infer_unchecked(seg, &mut self.ws, trace)
        }
    }

    /// Counts a classified window and advances the arming run.
    fn arm(&mut self, p: f32, rec: &dyn Recorder) {
        if rec.enabled() {
            rec.counter_add("detector.windows", 1);
        }
        if p >= self.threshold {
            self.positives_in_a_row += 1;
        } else {
            self.positives_in_a_row = 0;
        }
    }

    fn guard_allows_trigger(&self) -> bool {
        if !self.guard.cfg.enabled {
            return true;
        }
        let m = self.guard.mode;
        if !m.is_degraded() {
            return true;
        }
        !m.accel_degraded && !m.stale && self.accel_confirms()
    }
}

/// The guard's per-stream state inside a [`SessionCheckpoint`]
/// (configuration excluded — the restoring session keeps its own).
#[derive(Debug, Clone, PartialEq)]
struct GuardSnapshot {
    last_good: Option<([f32; 3], [f32; 3])>,
    gap_run: u64,
    pending_flush: bool,
    axis_last: [f32; 6],
    axis_run: [u32; 6],
    bad_run: [u32; 2],
    stuck: [bool; 2],
    anomaly_age: u32,
    mode: DetectorMode,
    status: GuardStatus,
    next_tick: u64,
}

impl GuardSnapshot {
    fn capture(g: &SampleGuard) -> Self {
        Self {
            last_good: g.last_good,
            gap_run: g.gap_run as u64,
            pending_flush: g.pending_flush,
            axis_last: g.axis_last,
            axis_run: g.axis_run,
            bad_run: g.bad_run,
            stuck: g.stuck,
            anomaly_age: g.anomaly_age,
            mode: g.mode,
            status: g.status,
            next_tick: g.next_tick,
        }
    }

    fn restore_into(&self, g: &mut SampleGuard) {
        g.last_good = self.last_good;
        g.gap_run = usize::try_from(self.gap_run).unwrap_or(usize::MAX);
        g.pending_flush = self.pending_flush;
        g.axis_last = self.axis_last;
        g.axis_run = self.axis_run;
        g.bad_run = self.bad_run;
        g.stuck = self.stuck;
        g.anomaly_age = self.anomaly_age;
        g.mode = self.mode;
        g.status = self.status;
        g.next_tick = self.next_tick;
    }
}

/// A complete, self-contained snapshot of one [`Session`]'s streaming
/// state: filter delay lines, fusion attitude, window rows, arming
/// run, and the guard's stream state and counters.
///
/// Serialises to a versioned, checksummed byte format
/// ([`SessionCheckpoint::to_bytes`]); a truncated or corrupted blob is
/// refused on load, never half-restored — that is what makes resuming
/// a reconnecting wearer crash-safe.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    samples_seen: u64,
    positives_in_a_row: u64,
    window: Vec<[f32; NUM_CHANNELS]>,
    filters: Vec<Vec<(f64, f64)>>,
    fusion_angles: EulerAngles,
    fusion_init: bool,
    guard: GuardSnapshot,
}

/// `"PFSC"` — prefall session checkpoint.
const CHECKPOINT_MAGIC: u32 = 0x5046_5343;
const CHECKPOINT_VERSION: u16 = 1;

/// Longest window, in rows, a persisted detector may declare (~40 s
/// at 100 Hz — no real configuration comes close). Session
/// checkpoints and detector bundles both refuse anything longer.
pub const MAX_WINDOW_ROWS: usize = 4096;

impl SessionCheckpoint {
    /// Serialises to the versioned `PFSC` byte format with a trailing
    /// FNV-1a checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(128 + self.window.len() * NUM_CHANNELS * 4);
        w.u32(CHECKPOINT_MAGIC);
        w.u16(CHECKPOINT_VERSION);
        w.u16(NUM_CHANNELS as u16);
        w.u64(self.samples_seen);
        w.u64(self.positives_in_a_row);

        w.u32(u32::try_from(self.window.len()).expect("window rows"));
        for &v in self.window.iter().flatten() {
            w.f32(v);
        }

        w.u16(u16::try_from(self.filters.len()).expect("channels"));
        let sections = self.filters.first().map_or(0, Vec::len);
        w.u16(u16::try_from(sections).expect("sections"));
        for states in &self.filters {
            debug_assert_eq!(states.len(), sections, "ragged filter cascade");
            for &(s1, s2) in states {
                w.f64(s1);
                w.f64(s2);
            }
        }

        let a = &self.fusion_angles;
        for v in [a.pitch, a.roll, a.yaw] {
            w.f64(v);
        }
        w.bool(self.fusion_init);

        let g = &self.guard;
        w.bool(g.last_good.is_some());
        let (la, lg) = g.last_good.unwrap_or(([0.0; 3], [0.0; 3]));
        for &v in la.iter().chain(&lg) {
            w.f32(v);
        }
        w.u64(g.gap_run);
        w.bool(g.pending_flush);
        for v in g.axis_last {
            w.f32(v);
        }
        for &v in g.axis_run.iter().chain(&g.bad_run) {
            w.u32(v);
        }
        for v in g.stuck {
            w.bool(v);
        }
        w.u32(g.anomaly_age);
        for v in [g.mode.accel_degraded, g.mode.gyro_degraded, g.mode.stale] {
            w.bool(v);
        }
        let s = &g.status;
        for v in [
            s.samples,
            s.nonfinite,
            s.clamped,
            s.gaps_filled,
            s.gap_lost,
            s.stuck_events,
            s.degraded_samples,
            s.degraded_windows,
            s.window_flushes,
            s.suppressed_triggers,
            s.engine_rejects,
            s.windows,
            s.ts_regression,
        ] {
            w.u64(v);
        }
        w.u64(g.next_tick);
        w.finish_checksummed()
    }

    /// Deserialises a checkpoint produced by
    /// [`SessionCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a bad magic/version,
    /// truncation, trailing garbage, a checksum mismatch, or an
    /// implausible shape — a damaged checkpoint is refused outright.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CoreError> {
        let bad = |reason: &str| CoreError::InvalidConfig {
            reason: reason.to_string(),
        };
        let mut r = Reader::checksummed(bytes)?;
        if r.u32()? != CHECKPOINT_MAGIC {
            return Err(bad("not a session checkpoint (bad magic)"));
        }
        if r.u16()? != CHECKPOINT_VERSION {
            return Err(bad("unsupported session checkpoint version"));
        }
        if r.u16()? != NUM_CHANNELS as u16 {
            return Err(bad("session checkpoint channel count mismatch"));
        }
        let samples_seen = r.u64()?;
        let positives_in_a_row = r.u64()?;

        let rows = r.u32()? as usize;
        if rows > MAX_WINDOW_ROWS {
            return Err(bad("implausible session checkpoint window length"));
        }
        let mut window = Vec::with_capacity(r.count(rows, NUM_CHANNELS * 4)?);
        for _ in 0..rows {
            let mut row = [0.0f32; NUM_CHANNELS];
            for v in &mut row {
                *v = r.f32()?;
            }
            window.push(row);
        }

        let channels = usize::from(r.u16()?);
        let sections = usize::from(r.u16()?);
        if channels == 0 && sections != 0 {
            return Err(bad("implausible session checkpoint filter shape"));
        }
        let mut filters = Vec::with_capacity(r.count(channels, sections * 16)?);
        for _ in 0..channels {
            let mut states = Vec::with_capacity(sections);
            for _ in 0..sections {
                states.push((r.f64()?, r.f64()?));
            }
            filters.push(states);
        }

        let fusion_angles = EulerAngles::new(r.f64()?, r.f64()?, r.f64()?);
        let fusion_init = r.bool()?;

        let has_last_good = r.bool()?;
        let mut la = [0.0f32; 3];
        let mut lg = [0.0f32; 3];
        for v in la.iter_mut().chain(lg.iter_mut()) {
            *v = r.f32()?;
        }
        if !has_last_good && la.iter().chain(&lg).any(|v| v.to_bits() != 0) {
            return Err(bad("session checkpoint holds a stray last-good sample"));
        }
        let gap_run = r.u64()?;
        let pending_flush = r.bool()?;
        let mut axis_last = [0.0f32; 6];
        for v in &mut axis_last {
            *v = r.f32()?;
        }
        let mut axis_run = [0u32; 6];
        let mut bad_run = [0u32; 2];
        for v in axis_run.iter_mut().chain(bad_run.iter_mut()) {
            *v = r.u32()?;
        }
        let stuck = [r.bool()?, r.bool()?];
        let anomaly_age = r.u32()?;
        let mode = DetectorMode {
            accel_degraded: r.bool()?,
            gyro_degraded: r.bool()?,
            stale: r.bool()?,
        };
        let status = GuardStatus {
            samples: r.u64()?,
            nonfinite: r.u64()?,
            clamped: r.u64()?,
            gaps_filled: r.u64()?,
            gap_lost: r.u64()?,
            stuck_events: r.u64()?,
            degraded_samples: r.u64()?,
            degraded_windows: r.u64()?,
            window_flushes: r.u64()?,
            suppressed_triggers: r.u64()?,
            engine_rejects: r.u64()?,
            windows: r.u64()?,
            ts_regression: r.u64()?,
        };
        let next_tick = r.u64()?;
        r.expect_end()?;
        Ok(Self {
            samples_seen,
            positives_in_a_row,
            window,
            filters,
            fusion_angles,
            fusion_init,
            guard: GuardSnapshot {
                last_good: has_last_good.then_some((la, lg)),
                gap_run,
                pending_flush,
                axis_last,
                axis_run,
                bad_run,
                stuck,
                anomaly_age,
                mode,
                status,
                next_tick,
            },
        })
    }

    /// Samples folded into the checkpointed window (a quick warmth
    /// check for a resumed wearer).
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Rows held in the checkpointed sliding window.
    pub fn window_rows(&self) -> usize {
        self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::StreamingDetector;
    use crate::models::ModelKind;
    use crate::pipeline::PipelineConfig;
    use prefall_dsp::segment::Overlap;

    fn config() -> DetectorConfig {
        DetectorConfig {
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            threshold: 0.5,
            consecutive: 1,
            guard: GuardConfig::default(),
        }
    }

    fn bundle() -> ModelBundle {
        let cfg = config();
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 5).unwrap();
        ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap()
    }

    /// A lightly varying, physically plausible sample.
    fn wiggle(i: u64) -> ([f32; 3], [f32; 3]) {
        let t = i as f32 * 0.07;
        (
            [
                0.05 * t.sin(),
                0.04 * (1.3 * t).cos(),
                1.0 + 0.06 * (0.9 * t).sin(),
            ],
            [
                0.2 * (1.1 * t).sin(),
                0.15 * (0.7 * t).cos(),
                0.1 * (1.7 * t).sin(),
            ],
        )
    }

    #[test]
    fn shared_session_matches_serial_detector_bitwise() {
        let b = bundle();
        let mut session = b.new_session();
        let cfg = config();
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 5).unwrap();
        let mut serial = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();

        for i in 0..300 {
            let (a, g) = wiggle(i);
            let ps = session.push_sample(&b, a, g);
            let pd = serial.push_sample(a, g);
            assert_eq!(ps.map(f32::to_bits), pd.map(f32::to_bits), "sample {i}");
            assert_eq!(
                session.trigger_decision(),
                serial.session().trigger_decision()
            );
        }
    }

    #[test]
    fn push_at_in_order_matches_push_sample() {
        let b = bundle();
        let mut seq = b.new_session();
        let mut plain = b.new_session();
        let mut out = Vec::new();
        for i in 0..120 {
            let (a, g) = wiggle(i);
            out.clear();
            let res = seq.push_at(&b, i, a, g, &mut out);
            let p = plain.push_sample(&b, a, g);
            assert!(!res.regressed);
            assert_eq!(out.len(), usize::from(p.is_some()));
            if let Some(p) = p {
                assert_eq!(out[0].to_bits(), p.to_bits());
            }
        }
        assert_eq!(seq.next_tick(), 120);
    }

    #[test]
    fn duplicate_and_reordered_ticks_are_dropped_and_counted() {
        let b = bundle();
        let mut s = b.new_session();
        let mut out = Vec::new();
        for i in 0..50 {
            let (a, g) = wiggle(i);
            s.push_at(&b, i, a, g, &mut out);
        }
        let windows_before = s.guard_status().windows;
        let samples_before = s.guard_status().samples;
        // Re-deliver an already-consumed range (duplicate batch).
        for i in 30..40 {
            let (a, g) = wiggle(i);
            let res = s.push_at(&b, i, a, g, &mut out);
            assert!(res.regressed);
            assert_eq!(res.windows, 0);
        }
        let st = s.guard_status();
        assert_eq!(st.ts_regression, 10);
        assert_eq!(st.windows, windows_before, "no window from stale ticks");
        assert_eq!(st.samples, samples_before, "stale ticks not ingested");
        assert_eq!(s.next_tick(), 50, "grid unmoved");
        // The stream continues unharmed.
        let (a, g) = wiggle(50);
        let res = s.push_at(&b, 50, a, g, &mut out);
        assert!(!res.regressed);
    }

    #[test]
    fn tick_gaps_bridge_like_push_missing() {
        let b = bundle();
        let mut seq = b.new_session();
        let mut imp = b.new_session();
        let mut out = Vec::new();
        let mut seq_probs = Vec::new();
        let mut imp_probs = Vec::new();
        for i in 0..60 {
            if (25..30).contains(&i) {
                // Sequenced side: simply never delivers these ticks —
                // the jump at tick 30 bridges them.
                if let Some(p) = imp.push_missing(&b) {
                    imp_probs.push(p.to_bits());
                }
                continue;
            }
            let (a, g) = wiggle(i);
            out.clear();
            seq.push_at(&b, i, a, g, &mut out);
            seq_probs.extend(out.iter().map(|p| p.to_bits()));
            if let Some(p) = imp.push_sample(&b, a, g) {
                imp_probs.push(p.to_bits());
            }
        }
        assert_eq!(seq_probs, imp_probs, "gap bridging must be bit-identical");
        assert_eq!(seq.guard_status().gaps_filled, 5);
        assert_eq!(seq.guard_status().gap_lost, 0);
    }

    #[test]
    fn huge_tick_jump_costs_o1_and_goes_stale() {
        let b = bundle();
        let mut s = b.new_session();
        let mut out = Vec::new();
        for i in 0..30 {
            let (a, g) = wiggle(i);
            s.push_at(&b, i, a, g, &mut out);
        }
        // A reconnect after ~10 minutes of silence: bridging all 60k
        // ticks individually would be O(gap); the collapse is O(1).
        let jump = 60_000u64;
        let (a, g) = wiggle(jump);
        let res = s.push_at(&b, jump, a, g, &mut out);
        assert!(!res.regressed);
        assert_eq!(s.next_tick(), jump + 1);
        let st = s.guard_status();
        let max_fill = GuardConfig::default().max_gap_fill as u64;
        assert_eq!(st.gaps_filled, max_fill);
        assert_eq!(st.gap_lost, jump - 30 - max_fill);
        assert_eq!(st.samples, jump + 1, "every tick accounted for");
        assert_eq!(st.window_flushes, 1, "mixed window flushed on arrival");
    }

    /// One ingest event of the checkpoint stream.
    #[derive(Clone, Copy)]
    enum Event {
        Sample([f32; 3], [f32; 3]),
        Missing,
    }

    /// 200 ticks that drive every piece of guard state through a
    /// transition: a NaN burst (degraded modes, fault debounce), a
    /// bridged 5-tick gap (`gap_run`), and an unbridgeable 16-tick gap
    /// (`gap_lost`, stale, `pending_flush` until data resumes).
    fn eventful_stream() -> Vec<Event> {
        (0..200u64)
            .map(|i| match i {
                40..48 => Event::Sample([f32::NAN; 3], [f32::NAN, 0.1, f32::INFINITY]),
                90..95 | 130..146 => Event::Missing,
                _ => {
                    let (a, g) = wiggle(i);
                    Event::Sample(a, g)
                }
            })
            .collect()
    }

    fn feed(s: &mut Session, b: &ModelBundle, e: Event) -> Option<u32> {
        match e {
            Event::Sample(a, g) => s.push_sample(b, a, g),
            Event::Missing => s.push_missing(b),
        }
        .map(f32::to_bits)
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let b = bundle();
        let events = eventful_stream();
        // The uninterrupted run, checkpointing before every tick.
        let mut s = b.new_session();
        let mut blobs = Vec::with_capacity(events.len() + 1);
        let mut expect = Vec::with_capacity(events.len());
        for &e in &events {
            blobs.push(s.checkpoint().to_bytes());
            expect.push(feed(&mut s, &b, e));
        }
        blobs.push(s.checkpoint().to_bytes());
        let end = s.checkpoint();

        let mut seen = (false, false, false);
        for (k, blob) in blobs.iter().enumerate() {
            let loaded = SessionCheckpoint::from_bytes(blob).unwrap();
            assert_eq!(&loaded.to_bytes(), blob, "byte round-trip at tick {k}");
            let g = &loaded.guard;
            seen.0 |= g.pending_flush;
            seen.1 |= g.gap_run > 0 && !g.pending_flush;
            seen.2 |= g.mode.accel_degraded || g.mode.gyro_degraded;

            let mut resumed = b.new_session();
            resumed.restore(&loaded).unwrap();
            for (i, &e) in events.iter().enumerate().skip(k) {
                assert_eq!(feed(&mut resumed, &b, e), expect[i], "split {k}, tick {i}");
            }
            assert_eq!(resumed.checkpoint(), end, "final state after split {k}");
        }
        assert!(seen.0, "a checkpoint caught a pending flush");
        assert!(seen.1, "a checkpoint caught a bridged gap run");
        assert!(seen.2, "a checkpoint caught a degraded mode");
    }

    #[test]
    fn corrupted_checkpoints_are_refused() {
        let b = bundle();
        let mut s = b.new_session();
        for i in 0..40 {
            let (a, g) = wiggle(i);
            let _ = s.push_sample(&b, a, g);
        }
        let blob = s.checkpoint().to_bytes();
        assert!(SessionCheckpoint::from_bytes(&blob).is_ok());
        // Every truncation, the empty blob included.
        for len in 0..blob.len() {
            assert!(
                SessionCheckpoint::from_bytes(&blob[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
        // Every single-bit flip, checksum bytes included.
        let mut flipped = blob.clone();
        for bit in 0..blob.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                SessionCheckpoint::from_bytes(&flipped).is_err(),
                "bit {bit} flip accepted"
            );
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checkpoint_bytes_are_pinned() {
        // Pins the PFSC byte layout: any change to it changes the hash.
        let b = bundle();
        let mut s = b.new_session();
        for i in 0..40 {
            let (a, g) = wiggle(i);
            let _ = s.push_sample(&b, a, g);
        }
        let _ = s.push_missing(&b);
        assert_eq!(
            crate::fnv1a64(&s.checkpoint().to_bytes()),
            0xddeb_9817_ce98_4375
        );
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let big = bundle(); // 200 ms window (20 rows)
        let cfg_small = DetectorConfig {
            pipeline: PipelineConfig::paper(100.0, Overlap::Half),
            ..config()
        };
        let w = cfg_small.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 5).unwrap();
        let small = ModelBundle::new(net, Normalizer::identity(9), cfg_small).unwrap();

        let mut s = big.new_session();
        for i in 0..40 {
            let (a, g) = wiggle(i);
            let _ = s.push_sample(&big, a, g);
        }
        let ck = s.checkpoint();
        let mut target = small.new_session();
        assert!(target.restore(&ck).is_err(), "20-row window into 10-row");
    }

    #[test]
    fn shedding_freezes_inference_but_keeps_cadence() {
        let b = bundle();
        let mut shed = b.new_session();
        let mut full = b.new_session();
        let mut out = Vec::new();
        let mut shed_windows = 0;
        for i in 0..100 {
            let (a, g) = wiggle(i);
            let res = shed.push_at_shed(&b, i, a, g);
            assert_eq!(res.windows, 0, "shed path never classifies");
            shed_windows += res.shed_windows;
            out.clear();
            full.push_at(&b, i, a, g, &mut out);
        }
        assert_eq!(
            shed_windows,
            full.guard_status().windows as usize,
            "every boundary the full path classified, the shed path counted"
        );
        assert_eq!(shed.guard_status().windows, 0);
        assert!(!shed.trigger_armed(), "no scores, no arming");
        // Guard state still tracks reality: recovery to full service
        // continues seamlessly on the same grid.
        let (a, g) = wiggle(100);
        out.clear();
        let res = shed.push_at(&b, 100, a, g, &mut out);
        assert!(!res.regressed);
        assert_eq!(shed.next_tick(), 101);
    }

    #[test]
    fn reset_retains_buffers_and_restreams() {
        let b = bundle();
        let mut s = b.new_session();
        for i in 0..55 {
            let (a, g) = wiggle(i);
            let _ = s.push_sample(&b, a, g);
        }
        let faults = s.guard_status().faults();
        s.reset();
        assert_eq!(s.next_tick(), 0);
        assert_eq!(s.samples_seen(), 0);
        assert_eq!(s.guard_status().faults(), faults, "counters survive");
        let mut fresh = b.new_session();
        for i in 0..60 {
            let (a, g) = wiggle(i);
            let pa = s.push_sample(&b, a, g);
            let pb = fresh.push_sample(&b, a, g);
            assert_eq!(pa.map(f32::to_bits), pb.map(f32::to_bits));
        }
    }

    #[test]
    fn unsupported_architectures_are_refused() {
        let cfg = config();
        let w = cfg.pipeline.segmentation.window();
        for kind in [ModelKind::Lstm, ModelKind::ConvLstm2d] {
            let net = || kind.build(w, 9, 5).unwrap();
            assert!(
                matches!(
                    ModelBundle::new(net(), Normalizer::identity(9), cfg),
                    Err(CoreError::InvalidConfig { .. })
                ),
                "{kind:?} bundle must be refused"
            );
            assert!(
                matches!(
                    StreamingDetector::new(net(), Normalizer::identity(9), cfg),
                    Err(CoreError::InvalidConfig { .. })
                ),
                "{kind:?} detector must be refused"
            );
        }
    }
}
