//! The flight recorder: an allocation-bounded [`DetectorTap`] that
//! continuously captures the last few seconds of detector activity
//! and freezes it into an [`IncidentDump`] when something noteworthy
//! happens.
//!
//! All storage is allocated up front ([`Ring`] buffers sized by
//! [`FlightConfig`]); the per-sample path copies fixed-size records
//! into the rings and never touches the heap. Allocation happens only
//! on the incident path — when a trigger fires, a fall trial ends
//! untriggered, `/healthz` degrades, or an operator asks for a manual
//! dump — which is rare by construction.
//!
//! Incidents that fire mid-trial (trigger dumps) are created
//! immediately with what is known at that instant, then patched with
//! trial identity and lead time when
//! [`Session::notify_trial_end`] delivers the outcome.
//!
//! [`Session::notify_trial_end`]: prefall_core::session::Session::notify_trial_end

use crate::dump::{
    IncidentDump, IncidentKind, SampleRecord, TrialMeta, WindowRecord, MAX_BRANCHES,
};
use crate::ring::Ring;
use crate::BlackboxError;
use prefall_core::detector::{
    DetectorConfig, GuardConfig, GuardStatus, StreamingDetector, TrialOutcome,
};
use prefall_core::persist::DetectorBundle;
use prefall_core::tap::{DetectorTap, SampleTapCtx};
use prefall_imu::trial::Trial;
use prefall_telemetry::Recorder;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Sizing of the flight recorder's pre-allocated storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Sample-ring capacity. The default (3000) holds 30 s of 100 Hz
    /// input — far more than the paper's 400 ms window plus the
    /// longest pre-fall phase in the protocol.
    pub ring_samples: usize,
    /// Window-ring capacity (600 ≈ the windows classified over the
    /// sample ring at 50 % overlap, with slack).
    pub ring_windows: usize,
    /// Most incidents held in memory; the oldest is evicted beyond
    /// this.
    pub max_incidents: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self {
            ring_samples: 3000,
            ring_windows: 600,
            max_incidents: 8,
        }
    }
}

struct FlightState {
    cfg: FlightConfig,
    threshold: f32,
    consecutive: u32,
    guard_config: GuardConfig,
    model_blob: Arc<Vec<u8>>,
    samples: Ring<SampleRecord>,
    windows: Ring<WindowRecord>,
    last_guard: GuardStatus,
    prev_decision: bool,
    /// Recording has observed a stream reset, so the sample ring
    /// starts at the true stream start (until it wraps).
    synced: bool,
    health_degraded: bool,
    seq: u64,
    incidents: VecDeque<IncidentDump>,
    /// Ids of trigger incidents from the current stream, awaiting
    /// trial identity and lead time at trial end.
    pending: Vec<String>,
    rec: Arc<dyn Recorder>,
}

impl FlightState {
    fn truncated(&self) -> bool {
        self.samples.wrapped() || self.windows.wrapped() || !self.synced
    }

    fn make_dump(&mut self, kind: IncidentKind, reason: &str) -> IncidentDump {
        self.seq += 1;
        let dump = IncidentDump {
            id: format!("inc-{}", self.seq),
            kind,
            reason: reason.to_string(),
            created_at_sample: self.samples.total(),
            truncated: self.truncated(),
            trial: None,
            triggered_at: (kind == IncidentKind::Trigger).then(|| self.samples.total()),
            lead_time_ms: None,
            threshold: self.threshold,
            consecutive: self.consecutive,
            guard_config: self.guard_config,
            guard: self.last_guard,
            model_blob: self.model_blob.as_ref().clone(),
            samples: self.samples.iter().copied().collect(),
            windows: self.windows.iter().copied().collect(),
        };
        self.rec.counter_add("blackbox.incidents", 1);
        self.rec
            .counter_add(&format!("blackbox.incident.{}", kind.name()), 1);
        dump
    }

    fn store(&mut self, dump: IncidentDump) {
        while self.incidents.len() >= self.cfg.max_incidents.max(1) {
            if let Some(evicted) = self.incidents.pop_front() {
                self.pending.retain(|id| *id != evicted.id);
                self.rec.counter_add("blackbox.evicted", 1);
            }
        }
        self.incidents.push_back(dump);
        self.rec
            .gauge_set("blackbox.incidents.held", self.incidents.len() as f64);
    }
}

/// Shared, cloneable view of the flight recorder: lists and fetches
/// incidents, takes manual dumps, and (via the
/// [`IncidentSource`](prefall_obsd::IncidentSource) impl) backs the
/// obsd server's `/incidents` endpoints.
#[derive(Clone)]
pub struct FlightHandle {
    state: Arc<Mutex<FlightState>>,
}

impl std::fmt::Debug for FlightHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock().expect("flight state poisoned");
        f.debug_struct("FlightHandle")
            .field("incidents", &s.incidents.len())
            .field("samples_buffered", &s.samples.len())
            .finish()
    }
}

impl FlightHandle {
    /// Takes a manual dump of the current rings (kind
    /// [`IncidentKind::Manual`]), stores it, and returns a copy.
    pub fn dump_now(&self, reason: &str) -> IncidentDump {
        let mut s = self.state.lock().expect("flight state poisoned");
        let dump = s.make_dump(IncidentKind::Manual, reason);
        s.store(dump.clone());
        dump
    }

    /// Copies of all held incidents, oldest first.
    pub fn incidents(&self) -> Vec<IncidentDump> {
        let s = self.state.lock().expect("flight state poisoned");
        s.incidents.iter().cloned().collect()
    }

    /// The incident with the given id, if still held.
    pub fn incident(&self, id: &str) -> Option<IncidentDump> {
        let s = self.state.lock().expect("flight state poisoned");
        s.incidents.iter().find(|d| d.id == id).cloned()
    }

    /// The most recent incident, if any.
    pub fn latest(&self) -> Option<IncidentDump> {
        let s = self.state.lock().expect("flight state poisoned");
        s.incidents.back().cloned()
    }

    /// Number of incidents currently held.
    pub fn incident_count(&self) -> usize {
        let s = self.state.lock().expect("flight state poisoned");
        s.incidents.len()
    }

    /// Installs a telemetry recorder for the `blackbox.*` counters
    /// (incidents by kind, evictions, incidents held). The hot path
    /// emits nothing — only incident creation does.
    pub fn set_recorder(&self, rec: Arc<dyn Recorder>) {
        let mut s = self.state.lock().expect("flight state poisoned");
        s.rec = rec;
    }

    /// Records a `/healthz` verdict; a rising edge into degraded takes
    /// a [`IncidentKind::HealthDegraded`] dump. Exposed for the
    /// [`IncidentSource`](prefall_obsd::IncidentSource) impl and for
    /// deployments polling health out-of-band.
    pub fn record_health(&self, degraded: bool, reason: &str) {
        let mut s = self.state.lock().expect("flight state poisoned");
        let rising = degraded && !s.health_degraded;
        s.health_degraded = degraded;
        if rising {
            let dump = s.make_dump(IncidentKind::HealthDegraded, reason);
            s.store(dump);
        }
    }
}

/// The [`DetectorTap`] half of the flight recorder. Created by
/// [`FlightRecorder::install`]; you normally only keep the returned
/// [`FlightHandle`].
pub struct FlightRecorder {
    state: Arc<Mutex<FlightState>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FlightRecorder")
    }
}

impl FlightRecorder {
    /// Builds a flight recorder around `detector` (reading its live
    /// configuration), installs it as the detector's tap, and returns
    /// the shared [`FlightHandle`].
    ///
    /// `model_blob` is the serialized [`DetectorBundle`] the detector
    /// was built from; it is embedded verbatim in every dump so replay
    /// reconstructs the exact same engine.
    pub fn install(
        detector: &mut StreamingDetector,
        model_blob: Vec<u8>,
        cfg: FlightConfig,
    ) -> FlightHandle {
        let dc = detector.bundle().config();
        let state = Arc::new(Mutex::new(FlightState {
            cfg,
            threshold: dc.threshold,
            consecutive: dc.consecutive as u32,
            guard_config: dc.guard,
            model_blob: Arc::new(model_blob),
            samples: Ring::new(cfg.ring_samples),
            windows: Ring::new(cfg.ring_windows),
            last_guard: GuardStatus::default(),
            prev_decision: false,
            synced: false,
            health_degraded: false,
            seq: 0,
            incidents: VecDeque::with_capacity(cfg.max_incidents.max(1)),
            pending: Vec::new(),
            rec: prefall_telemetry::noop(),
        }));
        detector.session_mut().set_tap(Box::new(FlightRecorder {
            state: Arc::clone(&state),
        }));
        FlightHandle { state }
    }
}

impl DetectorTap for FlightRecorder {
    fn on_sample(&mut self, ctx: &SampleTapCtx<'_>) {
        let mut s = self.state.lock().expect("flight state poisoned");
        let s = &mut *s;
        let mut flags = 0u8;
        if ctx.missing {
            flags |= SampleRecord::MISSING;
        }
        if ctx.mode.accel_degraded {
            flags |= SampleRecord::ACCEL_DEGRADED;
        }
        if ctx.mode.gyro_degraded {
            flags |= SampleRecord::GYRO_DEGRADED;
        }
        if ctx.mode.stale {
            flags |= SampleRecord::STALE;
        }
        s.samples.push(SampleRecord {
            flags,
            accel: ctx.accel,
            gyro: ctx.gyro,
        });
        s.last_guard = ctx.guard;
        let Some(w) = &ctx.window else {
            return;
        };
        let mut wflags = 0u8;
        if w.armed {
            wflags |= WindowRecord::ARMED;
        }
        if w.decision {
            wflags |= WindowRecord::DECISION;
        }
        if ctx.mode.accel_degraded {
            wflags |= WindowRecord::ACCEL_DEGRADED;
        }
        if ctx.mode.gyro_degraded {
            wflags |= WindowRecord::GYRO_DEGRADED;
        }
        if ctx.mode.stale {
            wflags |= WindowRecord::STALE;
        }
        let mut record = WindowRecord {
            at_sample: s.samples.total(),
            score: w.score,
            flags: wflags,
            n_branch: w.attribution.len().min(MAX_BRANCHES) as u8,
            ..WindowRecord::default()
        };
        for (dst, src) in record.branches.iter_mut().zip(w.attribution.iter()) {
            *dst = *src;
        }
        s.windows.push(record);
        // Rising edge of the policy-aware decision: the airbag fired.
        // Freeze the rings now; trial identity and lead time are
        // patched in at trial end.
        if w.decision && !s.prev_decision {
            let dump = s.make_dump(IncidentKind::Trigger, "trigger decision went true");
            s.pending.push(dump.id.clone());
            s.store(dump);
        }
        s.prev_decision = w.decision;
    }

    fn on_stream_reset(&mut self) {
        let mut s = self.state.lock().expect("flight state poisoned");
        s.samples.clear();
        s.windows.clear();
        s.prev_decision = false;
        s.synced = true;
        s.pending.clear();
    }

    fn on_trial_end(&mut self, trial: &Trial, outcome: &TrialOutcome) {
        let mut s = self.state.lock().expect("flight state poisoned");
        let s = &mut *s;
        let meta = TrialMeta {
            subject: u32::from(trial.subject.0),
            task: u32::from(trial.task.get()),
            trial_index: u32::from(trial.trial_index),
            is_fall: trial.is_fall(),
            impact: trial.impact().map(|i| i as u64),
        };
        for id in s.pending.drain(..) {
            if let Some(d) = s.incidents.iter_mut().find(|d| d.id == id) {
                d.trial = Some(meta);
                d.lead_time_ms = outcome.lead_time_ms;
                if let Some(t) = outcome.triggered_at {
                    d.triggered_at = Some(t as u64 + 1);
                }
            }
        }
        // A fall trial that ended with no trigger is exactly the
        // incident a pre-impact system most needs forensics for.
        if trial.is_fall() && outcome.triggered_at.is_none() {
            let mut dump = s.make_dump(IncidentKind::MissedFall, "fall trial ended untriggered");
            dump.trial = Some(meta);
            s.store(dump);
        }
    }
}

/// Builds a [`StreamingDetector`] from serialized [`DetectorBundle`]
/// bytes and arms it with a flight recorder — the deployment entry
/// point, and the construction [`replay`](crate::replay()) mirrors.
///
/// # Errors
///
/// [`BlackboxError::Replay`] when the bundle bytes do not parse or the
/// detector rejects the configuration.
pub fn armed_detector_from_bundle(
    bundle_bytes: &[u8],
    threshold: f32,
    consecutive: usize,
    guard: GuardConfig,
    cfg: FlightConfig,
) -> Result<(StreamingDetector, FlightHandle), BlackboxError> {
    let bundle = DetectorBundle::from_bytes(bundle_bytes)
        .map_err(|e| BlackboxError::Replay(format!("bad detector bundle: {e}")))?;
    let config = DetectorConfig {
        pipeline: bundle.pipeline,
        threshold,
        consecutive,
        guard,
    };
    let mut detector = StreamingDetector::new(bundle.network, bundle.normalizer, config)
        .map_err(|e| BlackboxError::Replay(format!("detector rejected bundle: {e}")))?;
    let handle = FlightRecorder::install(&mut detector, bundle_bytes.to_vec(), cfg);
    Ok((detector, handle))
}
