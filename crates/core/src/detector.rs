//! The real-time streaming detector and the airbag trigger controller.
//!
//! This is the deployment-side counterpart of the training pipeline: raw
//! accelerometer/gyroscope samples stream in at 100 Hz; the detector
//! runs the on-edge preprocessing (complementary-filter fusion, causal
//! Butterworth low-pass) sample by sample, and every hop it classifies
//! the trailing window. A positive classification triggers the airbag,
//! which needs 150 ms to reach full extension.
//!
//! # Hardened ingest and degraded modes
//!
//! Real IMUs misbehave: samples drop, axes freeze, values saturate or
//! go NaN after a bus glitch. When [`GuardConfig::enabled`] is set (the
//! default), every sample first passes through a [`SampleGuard`] stage
//! that
//!
//! * rejects non-finite values and clamps out-of-range ones to the
//!   configured physical limits, substituting the last good sample;
//! * fills short gaps (via [`Session::push_missing`]) by holding the
//!   last good sample, and flushes the window after gaps too long to
//!   bridge;
//! * runs a stuck/stale watchdog that flags a frozen axis or a
//!   flat-lined sensor;
//! * switches the detector into explicit degraded modes
//!   ([`DetectorMode`]): a degraded sensor's channels are masked to the
//!   normalised zero point before inference (e.g. accel-only operation
//!   when the gyro is out) instead of feeding the network garbage.
//!
//! Every intervention is counted in [`GuardStatus`] and mirrored to the
//! telemetry [`Recorder`] under `guard.*` counters.
//!
//! # Degraded-trigger policy
//!
//! A window classified while any degraded mode is active may only fire
//! the airbag when the accelerometer branch independently confirms the
//! event: the accel channel must itself be healthy, the detector must
//! not be stale from an unbridged gap, and the accel magnitude must
//! have left the 1 g rest band within the last
//! [`GuardConfig::accel_confirm_window`] samples. Inflating the airbag
//! is irreversible and disruptive, so a probability computed from
//! masked or interpolated data is never trusted on its own —
//! [`Session::trigger_decision`] encodes this policy and [`run_on_trial`]
//! fires the airbag from it.
//!
//! # Fleet split
//!
//! [`StreamingDetector`] is the one-wearer pairing of the two-part core:
//! an immutable [`ModelBundle`] (weights, normaliser, configuration)
//! and one poolable [`Session`] (guard, filters, window, scratch). It
//! adds only the pushes, which need both halves; everything else is
//! read or set on the halves themselves (`det.session().mode()`,
//! `det.session_mut().set_tap(..)`). A fleet server shares one bundle
//! across thousands of sessions — see [`crate::session`].
//!
//! # Trial runner
//!
//! [`run_on_trial`] streams a recorded trial through the detector and
//! the airbag. Its per-tick trigger → airbag → [`TrialOutcome`] loop,
//! [`stream_ticks`], is the only one: the faulted-trial runner feeds it
//! a corrupted [`SampleEvent`] stream instead of the clean samples.

use crate::pipeline::PipelineConfig;
use crate::session::{ModelBundle, Session, TickOutcome};
use crate::CoreError;
use prefall_dsp::stats::Normalizer;
use prefall_imu::trial::Trial;
use prefall_imu::{AIRBAG_INFLATION_SAMPLES, SAMPLE_PERIOD_MS};
use prefall_nn::network::{BranchStat, Network};
use prefall_nn::quant::QuantizedNetwork;
use prefall_nn::workspace::Workspace;
use prefall_telemetry::{Recorder, Value};

/// Upper bounds (ms) for the `detector.lead_time_ms` histogram: 25 ms
/// bins from 0 to 1 s, bracketing the 150 ms airbag-inflation budget.
pub fn lead_time_bounds_ms() -> Vec<f64> {
    (1..=40).map(|i| f64::from(i) * 25.0).collect()
}

/// Streaming detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Preprocessing configuration (window, overlap, filter).
    pub pipeline: PipelineConfig,
    /// Decision threshold on the sigmoid output.
    pub threshold: f32,
    /// Number of consecutive positive windows required to trigger
    /// (1 = trigger on the first positive window).
    pub consecutive: usize,
    /// Ingest hardening configuration (see the module docs).
    pub guard: GuardConfig,
}

impl DetectorConfig {
    /// The paper's deployed configuration: 400 ms windows, 50 % overlap,
    /// trigger on the first positive window, hardened ingest on.
    pub fn paper_400ms() -> Self {
        Self {
            pipeline: PipelineConfig::paper_400ms(),
            threshold: 0.5,
            consecutive: 1,
            guard: GuardConfig::default(),
        }
    }
}

/// Configuration of the [`SampleGuard`] ingest-hardening stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Master switch. Disabled reproduces the naive ingest exactly:
    /// non-finite values reach the filters and NaN propagates to the
    /// output probability.
    pub enabled: bool,
    /// Physical accelerometer range in g; readings clamp to ±limit.
    /// Default 16 g (the wide range of typical wearable IMUs).
    pub accel_limit_g: f32,
    /// Physical gyroscope range in rad/s; readings clamp to ±limit.
    /// Default ≈ 34.9 rad/s (2000 °/s).
    pub gyro_limit_rads: f32,
    /// Longest gap (in samples) bridged by holding the last good
    /// sample. Longer gaps flush the window and mark the detector
    /// stale until real data resumes. Default 10 (100 ms).
    pub max_gap_fill: usize,
    /// Identical consecutive readings on an axis before the watchdog
    /// calls it stuck. Default 25 (250 ms — real sensors jitter every
    /// sample).
    pub stuck_window: usize,
    /// Debounce for value-level faults: a sensor enters its degraded
    /// mode once its recent fault pressure reaches this level, and
    /// leaves it again after roughly twice as many clean samples.
    /// Default 5.
    pub fault_debounce: u32,
    /// How recently (in samples) the accel magnitude must have left the
    /// rest band for [`Session::accel_confirms`] to hold. Default 40
    /// (400 ms, one paper window).
    pub accel_confirm_window: usize,
    /// Half-width of the accel rest band around 1 g. Default 0.35 g.
    pub accel_confirm_dev_g: f32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            accel_limit_g: 16.0,
            gyro_limit_rads: 34.9,
            max_gap_fill: 10,
            stuck_window: 25,
            fault_debounce: 5,
            accel_confirm_window: 40,
            accel_confirm_dev_g: 0.35,
        }
    }
}

impl GuardConfig {
    /// The guard switched off: the legacy, unhardened ingest path.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Which degraded modes are currently active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectorMode {
    /// Accelerometer channels are masked (stuck or persistently
    /// faulty accel).
    pub accel_degraded: bool,
    /// Gyroscope channels are masked and fusion runs accel-only.
    pub gyro_degraded: bool,
    /// An unbridged sample gap invalidated the window; cleared when
    /// real data resumes.
    pub stale: bool,
}

impl DetectorMode {
    /// `true` when any degraded mode is active.
    pub fn is_degraded(&self) -> bool {
        self.accel_degraded || self.gyro_degraded || self.stale
    }
}

/// Cumulative [`SampleGuard`] intervention counters.
///
/// Counters survive [`Session::reset`] (they describe the deployment,
/// not one trial); [`Session::set_guard`] starts them over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardStatus {
    /// Grid ticks seen (delivered + missing).
    pub samples: u64,
    /// Non-finite axis readings replaced by the last good value.
    pub nonfinite: u64,
    /// Out-of-range axis readings clamped to the physical limit.
    pub clamped: u64,
    /// Missing ticks bridged by holding the last good sample.
    pub gaps_filled: u64,
    /// Missing ticks beyond [`GuardConfig::max_gap_fill`] (window lost).
    pub gap_lost: u64,
    /// Stuck-axis watchdog activations (transitions into stuck).
    pub stuck_events: u64,
    /// Samples ingested while any degraded mode was active.
    pub degraded_samples: u64,
    /// Windows classified while any degraded mode was active.
    pub degraded_windows: u64,
    /// Window flushes forced by unbridgeable gaps.
    pub window_flushes: u64,
    /// Armed triggers vetoed by the degraded-trigger policy.
    pub suppressed_triggers: u64,
    /// Segments the engine refused (non-finite in or out), scored 0.
    pub engine_rejects: u64,
    /// Windows classified through the guarded path.
    pub windows: u64,
    /// Ticks delivered behind the grid (duplicate or reordered
    /// batches) and dropped by [`Session::push_at`]. Counted, not a
    /// fault: re-delivery is normal transport behaviour, and dropping
    /// the stale tick is the correct (idempotent) response — so this
    /// deliberately does not feed [`GuardStatus::faults`] or the
    /// `/healthz` fault-rate budget.
    pub ts_regression: u64,
}

impl GuardStatus {
    /// Total faulty inputs handled: non-finite + clamped + filled +
    /// lost + stuck events.
    pub fn faults(&self) -> u64 {
        self.nonfinite + self.clamped + self.gaps_filled + self.gap_lost + self.stuck_events
    }

    /// Faults per ingested grid tick (0 when nothing was ingested).
    pub fn fault_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.faults() as f64 / self.samples as f64
        }
    }
}

/// Neutral rest reading used before any good sample has arrived.
const REST_SAMPLE: ([f32; 3], [f32; 3]) = ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);

/// The ingest-hardening stage: validates, clamps and gap-fills raw
/// samples, runs the stuck watchdog, and tracks the degraded modes.
///
/// Owned by a [`Session`]; its streaming state resets with the session
/// while its [`GuardStatus`] counters accumulate across trials. Uses
/// only fixed-size state — no allocation on the sample path.
#[derive(Debug, Clone)]
pub struct SampleGuard {
    pub(crate) cfg: GuardConfig,
    pub(crate) last_good: Option<([f32; 3], [f32; 3])>,
    pub(crate) gap_run: usize,
    pub(crate) pending_flush: bool,
    pub(crate) axis_last: [f32; 6],
    pub(crate) axis_run: [u32; 6],
    pub(crate) bad_run: [u32; 2],
    pub(crate) stuck: [bool; 2],
    pub(crate) anomaly_age: u32,
    pub(crate) mode: DetectorMode,
    pub(crate) status: GuardStatus,
    /// The next expected 100 Hz grid tick for explicitly-sequenced
    /// ingest ([`Session::push_at`]); the implicit push paths keep it
    /// in step so a stream can switch to sequenced delivery at any
    /// point.
    pub(crate) next_tick: u64,
}

impl SampleGuard {
    pub(crate) fn new(cfg: GuardConfig) -> Self {
        Self {
            cfg,
            last_good: None,
            gap_run: 0,
            pending_flush: false,
            axis_last: [f32::NAN; 6],
            axis_run: [0; 6],
            bad_run: [0; 2],
            stuck: [false; 2],
            anomaly_age: u32::MAX,
            mode: DetectorMode::default(),
            status: GuardStatus::default(),
            next_tick: 0,
        }
    }

    /// Clears per-stream state; cumulative counters survive.
    pub(crate) fn reset_stream(&mut self) {
        self.last_good = None;
        self.gap_run = 0;
        self.pending_flush = false;
        self.axis_last = [f32::NAN; 6];
        self.axis_run = [0; 6];
        self.bad_run = [0; 2];
        self.stuck = [false; 2];
        self.anomaly_age = u32::MAX;
        self.mode = DetectorMode::default();
        self.next_tick = 0;
    }

    /// The sample used to bridge a gap.
    pub(crate) fn fill_value(&self) -> ([f32; 3], [f32; 3]) {
        self.last_good.unwrap_or(REST_SAMPLE)
    }

    /// Validates one delivered sample, returning the cleaned values.
    pub(crate) fn sanitize(&mut self, accel: [f32; 3], gyro: [f32; 3]) -> ([f32; 3], [f32; 3]) {
        self.status.samples += 1;
        self.gap_run = 0;
        let (fill_a, fill_g) = self.fill_value();
        let mut clean = [accel[0], accel[1], accel[2], gyro[0], gyro[1], gyro[2]];
        let fill = [
            fill_a[0], fill_a[1], fill_a[2], fill_g[0], fill_g[1], fill_g[2],
        ];
        let mut bad = [false; 2];
        for (k, v) in clean.iter_mut().enumerate() {
            let s = k / 3;
            let limit = if s == 0 {
                self.cfg.accel_limit_g
            } else {
                self.cfg.gyro_limit_rads
            };
            if !v.is_finite() {
                self.status.nonfinite += 1;
                bad[s] = true;
                *v = fill[k];
            } else if v.abs() > limit {
                self.status.clamped += 1;
                bad[s] = true;
                *v = v.clamp(-limit, limit);
            }
        }

        // Stuck watchdog on the cleaned values: an axis repeating the
        // exact same reading is electrically suspicious (real sensors
        // jitter in the low bits every sample).
        for (k, &v) in clean.iter().enumerate() {
            if v == self.axis_last[k] {
                self.axis_run[k] = self.axis_run[k].saturating_add(1);
            } else {
                self.axis_run[k] = 0;
                self.axis_last[k] = v;
            }
        }
        let w = self.cfg.stuck_window as u32;
        for s in 0..2 {
            let runs = &self.axis_run[s * 3..s * 3 + 3];
            let min = *runs.iter().min().expect("3 axes");
            let max = *runs.iter().max().expect("3 axes");
            // Dead: the whole sensor flat-lines. Frozen: one axis stops
            // while its siblings keep moving.
            let stuck_now = min >= w || (max >= w && min < w / 2);
            if stuck_now && !self.stuck[s] {
                self.status.stuck_events += 1;
            }
            self.stuck[s] = stuck_now;
        }

        // Debounced value-fault pressure per sensor.
        for (s, &was_bad) in bad.iter().enumerate() {
            if was_bad {
                self.bad_run[s] = (self.bad_run[s] + 2).min(2 * self.cfg.fault_debounce);
            } else {
                self.bad_run[s] = self.bad_run[s].saturating_sub(1);
            }
        }

        self.mode.accel_degraded = self.stuck[0] || self.bad_run[0] >= self.cfg.fault_debounce;
        self.mode.gyro_degraded = self.stuck[1] || self.bad_run[1] >= self.cfg.fault_debounce;

        // Accel-confirmation age: has the magnitude left the 1 g rest
        // band recently?
        let a = [clean[0], clean[1], clean[2]];
        let norm = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
        if (norm - 1.0).abs() > self.cfg.accel_confirm_dev_g {
            self.anomaly_age = 0;
        } else {
            self.anomaly_age = self.anomaly_age.saturating_add(1);
        }

        let out = (a, [clean[3], clean[4], clean[5]]);
        self.last_good = Some(out);
        if self.mode.is_degraded() {
            self.status.degraded_samples += 1;
        }
        out
    }
}

/// Emits the change in each `guard.*` counter between two
/// [`GuardStatus`] snapshots. Static names, no allocation.
pub(crate) fn emit_guard_deltas(rec: &dyn Recorder, before: &GuardStatus, after: &GuardStatus) {
    let pairs: [(&'static str, u64, u64); 13] = [
        ("guard.samples", before.samples, after.samples),
        ("guard.nonfinite", before.nonfinite, after.nonfinite),
        ("guard.clamped", before.clamped, after.clamped),
        ("guard.gaps_filled", before.gaps_filled, after.gaps_filled),
        ("guard.gap_lost", before.gap_lost, after.gap_lost),
        (
            "guard.stuck_events",
            before.stuck_events,
            after.stuck_events,
        ),
        (
            "guard.degraded_samples",
            before.degraded_samples,
            after.degraded_samples,
        ),
        (
            "guard.degraded_windows",
            before.degraded_windows,
            after.degraded_windows,
        ),
        (
            "guard.window_flushes",
            before.window_flushes,
            after.window_flushes,
        ),
        (
            "guard.suppressed_triggers",
            before.suppressed_triggers,
            after.suppressed_triggers,
        ),
        (
            "guard.engine_rejects",
            before.engine_rejects,
            after.engine_rejects,
        ),
        (
            "guard.ts_regression",
            before.ts_regression,
            after.ts_regression,
        ),
        ("guard.faults", before.faults(), after.faults()),
    ];
    for (name, b, a) in pairs {
        if a > b {
            rec.counter_add(name, a - b);
        }
    }
}

/// The inference engine a detector runs: the float training network or
/// the int8 model actually deployed on the microcontroller.
///
/// Every call scores through `&self` and a caller-owned [`Workspace`]:
/// float engines run the allocation-free scalar interpreter, quantized
/// engines score directly, so one engine serves any number of
/// [`Session`]s at once. The allocating [`Network::forward`] is not on
/// this path; it stays the test oracle the interpreter is checked
/// against.
#[derive(Debug)]
pub enum Engine {
    /// Float inference (development/evaluation).
    Float(Network),
    /// int8 inference — what the STM32 firmware executes.
    Quantized(QuantizedNetwork),
}

impl Engine {
    /// Flattened input length expected by the engine.
    pub fn input_len(&self) -> usize {
        match self {
            Engine::Float(n) => n.input_len(),
            Engine::Quantized(q) => q.input_len(),
        }
    }

    /// Validated inference: the sigmoid probability for one
    /// preprocessed segment, or `None` when the segment contains a
    /// non-finite value, the engine produces one, or the architecture
    /// is one the interpreter cannot run (the LSTM/ConvLSTM baselines,
    /// which [`ModelBundle::new`] refuses). The input check is the only
    /// reliable one — see [`Engine::infer_unchecked`] for why the
    /// output side cannot detect a poisoned segment. The hardened
    /// detector maps `None` to probability 0 and counts the reject.
    ///
    /// With `trace`, per-branch activations of the modality split are
    /// written into it (cleared first, even when the segment is
    /// rejected; left empty for quantized engines and split-less
    /// models). The probability is **bit-identical** either way —
    /// incident replay relies on this.
    pub fn infer(
        &self,
        segment: &[f32],
        ws: &mut Workspace,
        mut trace: Option<&mut Vec<BranchStat>>,
    ) -> Option<f32> {
        if segment.iter().any(|v| !v.is_finite()) {
            if let Some(t) = trace.as_deref_mut() {
                t.clear();
            }
            return None;
        }
        let p = self.infer_unchecked(segment, ws, trace)?;
        p.is_finite().then_some(p)
    }

    /// [`Engine::infer`] without tracing — the fleet's and the
    /// benchmark's per-window call.
    pub fn try_predict_proba_shared(&self, segment: &[f32], ws: &mut Workspace) -> Option<f32> {
        self.infer(segment, ws, None)
    }

    /// Unvalidated inference, kept for the guard-off ingest only.
    /// `None` only for an architecture the interpreter cannot run.
    ///
    /// Worse than NaN-in/NaN-out: the ReLU and max-pool layers use
    /// `f32::max`, which maps NaN to the other operand, so a corrupted
    /// segment is silently *laundered* into a finite but meaningless
    /// score. Validate at the input boundary with [`Engine::infer`]
    /// when the segment may be corrupted.
    pub fn infer_unchecked(
        &self,
        segment: &[f32],
        ws: &mut Workspace,
        trace: Option<&mut Vec<BranchStat>>,
    ) -> Option<f32> {
        match self {
            Engine::Float(n) => match trace {
                Some(t) => n.infer_scalar_traced(segment, ws, t),
                None => n.infer_scalar(segment, ws),
            }
            .map(prefall_nn::loss::sigmoid),
            Engine::Quantized(q) => {
                if let Some(t) = trace {
                    t.clear();
                }
                Some(q.predict_proba(segment))
            }
        }
    }
}

impl From<Network> for Engine {
    fn from(mut n: Network) -> Self {
        // Weights are settled once a network becomes a detector engine:
        // build the interleaved conv/dense packs now so the streaming
        // workspace path classifies with zero per-window allocations.
        n.prepare_inference();
        Engine::Float(n)
    }
}

impl From<QuantizedNetwork> for Engine {
    fn from(q: QuantizedNetwork) -> Self {
        Engine::Quantized(q)
    }
}

/// A streaming pre-impact fall detector: one [`ModelBundle`] and the one
/// [`Session`] streaming against it.
///
/// The pushes are the only methods that need both halves — the session
/// classifies through the bundle's shared `&self` engine, exactly as a
/// fleet session does (see [`crate::session`]). Everything else lives on
/// the halves: read state with [`StreamingDetector::session`], install
/// a recorder or tap with [`StreamingDetector::session_mut`].
#[derive(Debug)]
pub struct StreamingDetector {
    bundle: ModelBundle,
    session: Session,
}

impl StreamingDetector {
    /// Creates a detector from a trained network (or a quantized model
    /// via [`Engine`]'s `From` impls) and its fitted normaliser.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the engine input does
    /// not match the configured window, the architecture cannot run on
    /// the allocation-free interpreter (see [`ModelBundle::new`]), or
    /// the filter design fails.
    pub fn new(
        engine: impl Into<Engine>,
        normalizer: Normalizer,
        config: DetectorConfig,
    ) -> Result<Self, CoreError> {
        let bundle = ModelBundle::new(engine, normalizer, config)?;
        let session = bundle.new_session();
        Ok(Self { bundle, session })
    }

    /// The shared model half: engine, normaliser and configuration.
    pub fn bundle(&self) -> &ModelBundle {
        &self.bundle
    }

    /// The per-stream session half: guard state, trigger state,
    /// checkpoints.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The per-stream session half, mutably: reset, recorder, tap,
    /// restore.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Replaces the guard configuration on both halves, resetting all
    /// guard state *including* the cumulative [`GuardStatus`] counters.
    /// Lets one detector be compared with the guard on and off without
    /// rebuilding the engine or re-running training. The bundle's copy
    /// is what incident dumps record as the detector's configuration.
    pub fn set_guard(&mut self, cfg: GuardConfig) {
        self.bundle.config.guard = cfg;
        self.session.set_guard(cfg);
    }

    /// Feeds one raw 100 Hz sample; see [`Session::push_sample`].
    pub fn push_sample(&mut self, accel: [f32; 3], gyro: [f32; 3]) -> Option<f32> {
        self.session.push_sample(&self.bundle, accel, gyro)
    }

    /// Ingests a sample at an explicit 100 Hz grid tick; see
    /// [`Session::push_at`].
    pub fn push_at(
        &mut self,
        tick: u64,
        accel: [f32; 3],
        gyro: [f32; 3],
        out: &mut Vec<f32>,
    ) -> TickOutcome {
        self.session.push_at(&self.bundle, tick, accel, gyro, out)
    }

    /// Reports a missing grid tick; see [`Session::push_missing`].
    pub fn push_missing(&mut self) -> Option<f32> {
        self.session.push_missing(&self.bundle)
    }
}

/// What the (possibly faulty) sensor bus delivered at one 100 Hz grid
/// tick — the input of [`stream_ticks`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleEvent {
    /// A sample arrived (its values may still be corrupted).
    Sample {
        /// Accelerometer reading in g.
        accel: [f32; 3],
        /// Gyroscope reading in rad/s.
        gyro: [f32; 3],
    },
    /// The grid tick passed with no sample (dropout).
    Dropped,
}

/// Airbag state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AirbagState {
    /// Waiting for a trigger.
    Idle,
    /// Gas generator fired; counting down the 150 ms inflation.
    Inflating {
        /// Sample index at which the trigger fired.
        triggered_at: usize,
    },
    /// Fully inflated.
    Inflated {
        /// Sample index at which the trigger fired.
        triggered_at: usize,
        /// Sample index at which full extension was reached.
        full_at: usize,
    },
}

/// The wearable airbag model: fires once, takes 150 ms to inflate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AirbagController {
    state: AirbagState,
}

impl Default for AirbagController {
    fn default() -> Self {
        Self::new()
    }
}

impl AirbagController {
    /// A fresh, idle airbag.
    pub fn new() -> Self {
        Self {
            state: AirbagState::Idle,
        }
    }

    /// Current state.
    pub fn state(&self) -> AirbagState {
        self.state
    }

    /// Advances time to sample `now`, firing if `trigger` is set.
    /// Returns the new state.
    ///
    /// `trigger` is trusted blindly — pass the policy-aware
    /// [`Session::trigger_decision`] so degraded-mode probabilities
    /// cannot fire the irreversible gas generator (see the
    /// degraded-trigger policy in the module docs). A raw
    /// [`Session::trigger_armed`] bypasses that policy and is only
    /// appropriate when the ingest is known clean.
    pub fn step(&mut self, now: usize, trigger: bool) -> AirbagState {
        self.state = match self.state {
            AirbagState::Idle if trigger => AirbagState::Inflating { triggered_at: now },
            AirbagState::Inflating { triggered_at }
                if now >= triggered_at + AIRBAG_INFLATION_SAMPLES =>
            {
                AirbagState::Inflated {
                    triggered_at,
                    full_at: triggered_at + AIRBAG_INFLATION_SAMPLES,
                }
            }
            s => s,
        };
        self.state
    }

    /// Whether the wearer is protected at the given impact sample (the
    /// bag reached full extension in time).
    pub fn protects_at(&self, impact: usize) -> bool {
        match self.state {
            AirbagState::Inflated { full_at, .. } => full_at <= impact,
            AirbagState::Inflating { triggered_at } => {
                triggered_at + AIRBAG_INFLATION_SAMPLES <= impact
            }
            AirbagState::Idle => false,
        }
    }
}

/// Outcome of streaming one trial through a detector + airbag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Sample index where the detector fired, if it did.
    pub triggered_at: Option<usize>,
    /// The trial's impact index, if it is a fall.
    pub impact: Option<usize>,
    /// Milliseconds between trigger and impact (negative = after
    /// impact), when both exist.
    pub lead_time_ms: Option<f64>,
    /// For falls: did the airbag reach full extension before impact?
    pub protected: Option<bool>,
    /// For ADLs: did the detector fire at all (false activation)?
    pub false_activation: bool,
    /// Highest window probability emitted during the trial — the
    /// event-level confidence score the calibration monitor bins.
    pub peak_prob: Option<f32>,
}

/// Streams a recorded trial sample-by-sample through the detector and
/// the airbag ([`stream_ticks`] over the trial's clean samples), with
/// outcome telemetry: the lead time before impact lands in the
/// `detector.lead_time_ms` histogram (register [`lead_time_bounds_ms`]
/// for 25 ms bins), plus the `detector.trials` / `detector.triggered` /
/// `detector.protected` / `detector.false_activations` counters and a
/// `detector.trigger` event per firing. Pass
/// [`NoopRecorder`](prefall_telemetry::NoopRecorder) for none.
/// Per-sample latency telemetry is separate — it goes through the
/// recorder installed with [`Session::set_recorder`].
pub fn run_on_trial(
    detector: &mut StreamingDetector,
    trial: &Trial,
    rec: &dyn Recorder,
) -> TrialOutcome {
    let ch = trial.channels();
    let samples = (0..trial.len()).map(|i| SampleEvent::Sample {
        accel: [ch[0][i], ch[1][i], ch[2][i]],
        gyro: [ch[3][i], ch[4][i], ch[5][i]],
    });
    let (outcome, _) = stream_ticks(detector, trial, samples);
    if rec.enabled() {
        rec.counter_add("detector.trials", 1);
        if outcome.triggered_at.is_some() {
            rec.counter_add("detector.triggered", 1);
        }
        if outcome.protected == Some(true) {
            rec.counter_add("detector.protected", 1);
        }
        if outcome.false_activation {
            rec.counter_add("detector.false_activations", 1);
        }
        if let Some(lt) = outcome.lead_time_ms {
            rec.observe("detector.lead_time_ms", lt);
        }
        if let Some(t) = outcome.triggered_at {
            rec.event(
                "detector.trigger",
                &[
                    ("at_sample", Value::from(t)),
                    ("is_fall", Value::from(trial.is_fall())),
                    (
                        "lead_time_ms",
                        Value::from(outcome.lead_time_ms.unwrap_or(f64::NAN)),
                    ),
                ],
            );
        }
    }
    outcome
}

/// The per-tick trigger → airbag → [`TrialOutcome`] loop: resets the
/// detector, feeds it one [`SampleEvent`] per grid tick (a dropped
/// tick goes to [`StreamingDetector::push_missing`]), fires the airbag
/// once from the policy-aware [`Session::trigger_decision`], and
/// notifies an installed tap that the trial ended.
///
/// `ticks` is read as the trial's grid, tick `i` at sample index `i`.
/// Returns the outcome and the number of non-finite window
/// probabilities, which never count toward
/// [`TrialOutcome::peak_prob`] (with the guard on there are none).
pub fn stream_ticks(
    detector: &mut StreamingDetector,
    trial: &Trial,
    ticks: impl IntoIterator<Item = SampleEvent>,
) -> (TrialOutcome, u64) {
    detector.session.reset();
    let mut airbag = AirbagController::new();
    let mut triggered_at = None;
    let mut peak_prob: Option<f32> = None;
    let mut nonfinite_probs: u64 = 0;

    for (i, ev) in ticks.into_iter().enumerate() {
        let prob = match ev {
            SampleEvent::Sample { accel, gyro } => detector.push_sample(accel, gyro),
            SampleEvent::Dropped => detector.push_missing(),
        };
        if let Some(p) = prob {
            if p.is_finite() {
                peak_prob = Some(peak_prob.map_or(p, |q| q.max(p)));
            } else {
                nonfinite_probs += 1;
            }
        }
        let fire = detector.session.trigger_decision() && triggered_at.is_none();
        if fire {
            triggered_at = Some(i);
        }
        airbag.step(i, fire);
    }

    let impact = trial.impact();
    let lead_time_ms = match (triggered_at, impact) {
        (Some(t), Some(im)) => Some((im as f64 - t as f64) * SAMPLE_PERIOD_MS),
        _ => None,
    };
    let protected = impact.map(|im| airbag.protects_at(im));
    let outcome = TrialOutcome {
        triggered_at,
        impact,
        lead_time_ms,
        protected,
        false_activation: !trial.is_fall() && triggered_at.is_some(),
        peak_prob,
    };
    detector.session.notify_trial_end(trial, &outcome);
    (outcome, nonfinite_probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use prefall_dsp::segment::Overlap;

    fn dummy_detector(window_ms: f64) -> StreamingDetector {
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(window_ms, Overlap::Half),
            threshold: 0.5,
            consecutive: 1,
            guard: GuardConfig::default(),
        };
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 1).unwrap();
        StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap()
    }

    #[test]
    fn emits_probability_every_hop() {
        let mut d = dummy_detector(200.0); // window 20, hop 10
        let mut emissions = Vec::new();
        for i in 0..60 {
            let p = d.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
            if p.is_some() {
                emissions.push(i);
            }
        }
        // First at sample index 19 (window filled), then every 10.
        assert_eq!(emissions, vec![19, 29, 39, 49, 59]);
    }

    #[test]
    fn rejects_mismatched_network() {
        let cfg = DetectorConfig::paper_400ms(); // window 40
        let net = ModelKind::ProposedCnn.build(20, 9, 1).unwrap();
        assert!(StreamingDetector::new(net, Normalizer::identity(9), cfg).is_err());
    }

    #[test]
    fn reset_restores_cadence() {
        let mut d = dummy_detector(200.0);
        for _ in 0..25 {
            let _ = d.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
        }
        d.session_mut().reset();
        let mut first = None;
        for i in 0..30 {
            if d.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]).is_some() {
                first = Some(i);
                break;
            }
        }
        assert_eq!(first, Some(19));
    }

    #[test]
    fn quantized_engine_streams_like_float() {
        use prefall_nn::quant::QuantizedNetwork;
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            threshold: 0.5,
            consecutive: 1,
            guard: GuardConfig::default(),
        };
        let w = cfg.pipeline.segmentation.window();
        let mut net = ModelKind::ProposedCnn.build(w, 9, 7).unwrap();
        // Calibrate on plausible filtered/normalised ranges.
        let calib: Vec<Vec<f32>> = (0..32)
            .map(|k| {
                (0..w * 9)
                    .map(|i| (((i + 7 * k) as f32) * 0.13).sin() * 2.0)
                    .collect()
            })
            .collect();
        let qnet = QuantizedNetwork::from_network(&mut net, &calib).unwrap();

        let mut float_d = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();
        let mut quant_d = StreamingDetector::new(qnet, Normalizer::identity(9), cfg).unwrap();

        let mut max_dev = 0.0f32;
        for i in 0..120 {
            let t = i as f32 / 100.0;
            let a = [
                0.1 * (6.0 * t).sin(),
                0.1 * (5.0 * t).cos(),
                1.0 + 0.2 * (7.0 * t).sin(),
            ];
            let g = [0.3 * (4.0 * t).sin(), 0.2 * (3.0 * t).cos(), 0.0];
            let pf = float_d.push_sample(a, g);
            let pq = quant_d.push_sample(a, g);
            assert_eq!(pf.is_some(), pq.is_some(), "emission cadence matches");
            if let (Some(f), Some(q)) = (pf, pq) {
                max_dev = max_dev.max((f - q).abs());
            }
        }
        assert!(max_dev < 0.12, "float/int8 streaming deviation {max_dev}");
    }

    #[test]
    fn consecutive_requirement_delays_arming() {
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            threshold: 0.0, // every window counts as positive
            consecutive: 3,
            guard: GuardConfig::default(),
        };
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 1).unwrap();
        let mut d = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();
        let mut armed_at = None;
        for i in 0..60 {
            let _ = d.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
            if d.session().trigger_armed() && armed_at.is_none() {
                armed_at = Some(i);
            }
        }
        // Windows complete at 19, 29, 39 → third positive arms at 39.
        assert_eq!(armed_at, Some(39));
    }

    #[test]
    fn airbag_inflates_after_150ms() {
        let mut bag = AirbagController::new();
        assert_eq!(bag.state(), AirbagState::Idle);
        bag.step(100, true);
        assert!(matches!(
            bag.state(),
            AirbagState::Inflating { triggered_at: 100 }
        ));
        bag.step(110, false);
        assert!(matches!(bag.state(), AirbagState::Inflating { .. }));
        bag.step(115, false);
        assert!(matches!(
            bag.state(),
            AirbagState::Inflated {
                triggered_at: 100,
                full_at: 115
            }
        ));
    }

    #[test]
    fn protection_requires_full_inflation_before_impact() {
        let mut bag = AirbagController::new();
        bag.step(100, true);
        bag.step(120, false);
        assert!(bag.protects_at(115), "exactly at full extension");
        assert!(bag.protects_at(130));
        assert!(!bag.protects_at(110), "impact during inflation");
        assert!(
            !AirbagController::new().protects_at(1000),
            "never triggered"
        );
    }

    #[test]
    fn airbag_fires_only_once() {
        let mut bag = AirbagController::new();
        bag.step(50, true);
        bag.step(60, true); // second trigger ignored
        bag.step(70, false);
        assert!(matches!(
            bag.state(),
            AirbagState::Inflated {
                triggered_at: 50,
                ..
            }
        ));
    }

    /// A lightly varying, physically plausible sample: ~1 g accel with
    /// jitter so the stuck watchdog stays quiet.
    fn wiggle(i: usize) -> ([f32; 3], [f32; 3]) {
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
    fn guard_keeps_probabilities_finite_under_nan_burst() {
        let mut d = dummy_detector(200.0);
        for i in 0..120 {
            let (a, g) = wiggle(i);
            let (a, g) = if (40..48).contains(&i) {
                ([f32::NAN; 3], [f32::INFINITY, f32::NAN, f32::NEG_INFINITY])
            } else {
                (a, g)
            };
            if let Some(p) = d.push_sample(a, g) {
                assert!(p.is_finite(), "non-finite prob at sample {i}");
            }
        }
        let s = d.session().guard_status();
        assert!(
            s.nonfinite >= 8 * 6,
            "counted {} nonfinite axes",
            s.nonfinite
        );
        assert!(s.faults() > 0);
        assert!(s.fault_rate() > 0.0);
    }

    #[test]
    fn unguarded_path_goes_silently_blind_after_nan_burst() {
        // The naive ingest's failure is worse than emitting NaN: the
        // burst poisons the IIR filter state for good, every later
        // window is all-NaN, and the network's `max`-based layers
        // launder that into one constant, input-independent score.
        let run = |guarded: bool| -> Vec<f32> {
            let mut d = dummy_detector(200.0);
            if !guarded {
                d.set_guard(GuardConfig::disabled());
            }
            let mut probs = Vec::new();
            for i in 0..240 {
                let (a, g) = if (40..48).contains(&i) {
                    ([f32::NAN; 3], [f32::NAN; 3])
                } else if i >= 120 {
                    // Violent, varied motion the detector must see.
                    let t = i as f32 * 0.31;
                    (
                        [4.0 * t.sin(), 3.0 * t.cos(), 5.0 * (0.7 * t).sin()],
                        [8.0 * t.cos(), 6.0 * t.sin(), 7.0 * (1.3 * t).cos()],
                    )
                } else {
                    wiggle(i)
                };
                if let Some(p) = d.push_sample(a, g) {
                    if i >= 120 {
                        probs.push(p);
                    }
                }
            }
            probs
        };
        let blind = run(false);
        let hardened = run(true);
        assert!(
            blind.windows(2).all(|w| w[0] == w[1]),
            "unguarded detector should be frozen at one garbage score: {blind:?}"
        );
        assert!(
            hardened.windows(2).any(|w| w[0] != w[1]),
            "guarded detector should still respond to motion: {hardened:?}"
        );
        assert!(hardened.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn guard_clamps_out_of_range_values() {
        let mut d = dummy_detector(200.0);
        for i in 0..60 {
            let (mut a, g) = wiggle(i);
            if i == 30 {
                a[0] = 500.0; // far beyond 16 g
            }
            let _ = d.push_sample(a, g);
        }
        assert_eq!(d.session().guard_status().clamped, 1);
    }

    #[test]
    fn short_gaps_are_bridged_and_keep_cadence() {
        let mut d = dummy_detector(200.0); // window 20, hop 10
        let mut emissions = Vec::new();
        for i in 0..60 {
            let p = if (25..30).contains(&i) {
                d.push_missing()
            } else {
                let (a, g) = wiggle(i);
                d.push_sample(a, g)
            };
            if p.is_some() {
                emissions.push(i);
            }
        }
        assert_eq!(emissions, vec![19, 29, 39, 49, 59], "cadence preserved");
        let s = d.session().guard_status();
        assert_eq!(s.gaps_filled, 5);
        assert_eq!(s.gap_lost, 0);
        assert_eq!(s.window_flushes, 0);
    }

    #[test]
    fn long_gaps_flush_the_window_and_go_stale() {
        let mut d = dummy_detector(200.0);
        for i in 0..30 {
            let (a, g) = wiggle(i);
            let _ = d.push_sample(a, g);
        }
        for _ in 0..15 {
            // 15 > max_gap_fill (10): bridging gives up part-way.
            assert!(d.push_missing().is_none() || d.session().guard_status().gap_lost == 0);
        }
        assert!(
            d.session().mode().stale,
            "detector stale after unbridgeable gap"
        );
        let s = d.session().guard_status();
        assert_eq!(s.gaps_filled, 10);
        assert_eq!(s.gap_lost, 5);
        // Real data resumes: the mixed window flushes, mode recovers.
        let (a, g) = wiggle(45);
        let _ = d.push_sample(a, g);
        assert!(!d.session().mode().stale);
        assert_eq!(d.session().guard_status().window_flushes, 1);
    }

    #[test]
    fn gyro_outage_enters_degraded_mode_and_recovers() {
        let mut d = dummy_detector(200.0);
        for i in 0..200 {
            let (a, mut g) = wiggle(i);
            if (50..120).contains(&i) {
                g = [0.25; 3]; // gyro flat-lines at a frozen value
            }
            let _ = d.push_sample(a, g);
            if i == 119 {
                assert!(d.session().mode().gyro_degraded, "frozen gyro not flagged");
                assert!(!d.session().mode().accel_degraded);
            }
        }
        assert!(
            !d.session().mode().gyro_degraded,
            "mode should clear on recovery"
        );
        assert!(d.session().guard_status().stuck_events >= 1);
        assert!(d.session().guard_status().degraded_windows >= 1);
    }

    #[test]
    fn degraded_trigger_needs_accel_confirmation() {
        // threshold 0 ⇒ every window arms the detector.
        let cfg = DetectorConfig {
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            threshold: 0.0,
            consecutive: 1,
            guard: GuardConfig::default(),
        };
        let w = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(w, 9, 1).unwrap();
        let mut d = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();

        // Quiet wearer, dead gyro: armed but vetoed.
        for i in 0..120 {
            let (a, _) = wiggle(i);
            let _ = d.push_sample(a, [0.5; 3]);
        }
        assert!(d.session().mode().gyro_degraded);
        assert!(d.session().trigger_armed());
        assert!(!d.session().accel_confirms(), "wearer at rest");
        assert!(
            !d.session().trigger_decision(),
            "degraded + unconfirmed must veto"
        );
        assert!(d.session().guard_status().suppressed_triggers > 0);
        let mut bag = AirbagController::new();
        bag.step(120, d.session().trigger_decision());
        assert_eq!(bag.state(), AirbagState::Idle);

        // A real dynamic event on the accel branch lifts the veto.
        for i in 120..140 {
            let t = i as f32 * 0.3;
            let _ = d.push_sample([2.5 * t.sin(), 1.5 * t.cos(), 3.0], [0.5; 3]);
        }
        assert!(d.session().mode().gyro_degraded, "gyro still dead");
        assert!(d.session().accel_confirms());
        assert!(
            d.session().trigger_decision(),
            "accel-confirmed trigger allowed"
        );
        bag.step(140, d.session().trigger_decision());
        assert!(matches!(bag.state(), AirbagState::Inflating { .. }));
    }

    #[test]
    fn reset_keeps_cumulative_guard_counters_but_clears_mode() {
        let mut d = dummy_detector(200.0);
        for _ in 0..40 {
            let _ = d.push_sample([f32::NAN; 3], [0.0, 0.1, 0.2]);
        }
        assert!(d.session().mode().accel_degraded);
        let faults = d.session().guard_status().faults();
        assert!(faults > 0);
        d.session_mut().reset();
        assert!(
            !d.session().mode().is_degraded(),
            "mode clears with the stream"
        );
        assert_eq!(
            d.session().guard_status().faults(),
            faults,
            "counters survive"
        );
        d.set_guard(GuardConfig::default());
        assert_eq!(
            d.session().guard_status().faults(),
            0,
            "set_guard starts over"
        );
    }

    #[test]
    fn infer_rejects_nonfinite_segments() {
        let w = 20;
        let net = ModelKind::ProposedCnn.build(w, 9, 1).unwrap();
        let engine = Engine::from(net);
        let mut ws = Workspace::new();
        let good = vec![0.1f32; w * 9];
        let mut bad = good.clone();
        bad[57] = f32::NAN;
        assert!(engine.try_predict_proba_shared(&good, &mut ws).is_some());
        assert!(engine.try_predict_proba_shared(&bad, &mut ws).is_none());
        // The unchecked path launders the NaN through `max`-based
        // layers into a finite garbage score — which is exactly why the
        // validated path must check the input, not the output.
        let laundered = engine.infer_unchecked(&bad, &mut ws, None);
        assert!(laundered.is_some_and(f32::is_finite), "silent laundering");
    }

    #[test]
    fn traced_inference_is_bit_identical_and_cleared_on_reject() {
        let w = 20;
        let net = ModelKind::ProposedCnn.build(w, 9, 3).unwrap();
        let engine = Engine::from(net);
        let mut ws = Workspace::new();
        let seg: Vec<f32> = (0..w * 9).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut trace = Vec::new();
        let traced = engine.infer(&seg, &mut ws, Some(&mut trace)).unwrap();
        let plain = engine.try_predict_proba_shared(&seg, &mut ws).unwrap();
        assert_eq!(traced.to_bits(), plain.to_bits());
        assert_eq!(trace.len(), 3, "one stat per modality branch");
        let mut bad = seg.clone();
        bad[0] = f32::INFINITY;
        assert!(engine.infer(&bad, &mut ws, Some(&mut trace)).is_none());
        assert!(trace.is_empty(), "a rejected segment leaves no stale trace");
    }
}
