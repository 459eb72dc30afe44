//! The self-contained, versioned incident record.
//!
//! An [`IncidentDump`] freezes everything needed to explain — and
//! bit-exactly re-run — one airbag decision: the raw pre-guard input
//! stream (delivered samples and missing grid ticks, in arrival
//! order), every classified window with its score, arming state,
//! policy decision and per-branch attribution, the guard counters, the
//! detector configuration, and the full trained model as an embedded
//! [`DetectorBundle`] blob. FNV-1a hashes of the configuration and the
//! model blob are stored alongside and re-verified on load, so a dump
//! that drifted from the code that produced it is rejected instead of
//! silently replayed against the wrong model.
//!
//! Binary format (little-endian, magic `PFBB`, version 1):
//!
//! ```text
//! magic "PFBB" | u32 version | u8 kind | str id | str reason
//! | u64 created_at_sample | u8 truncated
//! | option trial: u32 subject, u32 task, u32 trial_index, u8 is_fall,
//!   option u64 impact
//! | option u64 triggered_at | option f64 lead_time_ms
//! | config: f32 threshold, u32 consecutive, guard (u8 enabled,
//!   f32 accel_limit_g, f32 gyro_limit_rads, u32 max_gap_fill,
//!   u32 stuck_window, u32 fault_debounce, u32 accel_confirm_window,
//!   f32 accel_confirm_dev_g)
//! | u64 config_hash | u64 model_hash | guard status: 12 × u64
//! | u32 model-blob len | model blob (PFDB bundle)
//! | u32 n samples × (u8 flags, 6 × f32)
//! | u32 n windows × (u64 at_sample, f32 score, u8 flags, u8 n_branch,
//!   n_branch × (u32 output_len, f32 l2, f32 mean_abs, f32 peak))
//! ```
//!
//! `str` is `u16 len + UTF-8 bytes`; `option` is a `u8` presence tag.
//! Floats are stored as raw IEEE-754 bits, so NaN inputs survive the
//! round-trip exactly.
//!
//! [`DetectorBundle`]: prefall_core::persist::DetectorBundle

use crate::BlackboxError;
use bytes::{Buf, BufMut, BytesMut};
use prefall_core::detector::{GuardConfig, GuardStatus};
use prefall_nn::network::BranchStat;
use prefall_telemetry::JsonValue;

/// The workspace checksum, re-exported where the PFBB format uses it.
pub use prefall_core::fnv1a64;

const MAGIC: &[u8; 4] = b"PFBB";
const VERSION: u32 = 1;

/// Most modality branches a [`WindowRecord`] can carry (the paper's
/// CNN has three: accel, gyro, Euler).
pub const MAX_BRANCHES: usize = 4;

/// What flipped the ring buffer into a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// The policy-aware trigger decision went true (airbag fired).
    Trigger,
    /// A fall trial ended without any trigger.
    MissedFall,
    /// The `/healthz` probe crossed into degraded.
    HealthDegraded,
    /// Operator-requested snapshot.
    Manual,
}

impl IncidentKind {
    fn tag(self) -> u8 {
        match self {
            IncidentKind::Trigger => 0,
            IncidentKind::MissedFall => 1,
            IncidentKind::HealthDegraded => 2,
            IncidentKind::Manual => 3,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        Some(match t {
            0 => IncidentKind::Trigger,
            1 => IncidentKind::MissedFall,
            2 => IncidentKind::HealthDegraded,
            3 => IncidentKind::Manual,
            _ => return None,
        })
    }

    /// Stable lowercase name (used in JSON and filenames).
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::Trigger => "trigger",
            IncidentKind::MissedFall => "missed_fall",
            IncidentKind::HealthDegraded => "health_degraded",
            IncidentKind::Manual => "manual",
        }
    }
}

/// Which trial the incident happened in (when known).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialMeta {
    /// Subject id.
    pub subject: u32,
    /// Table II task number.
    pub task: u32,
    /// Repetition index.
    pub trial_index: u32,
    /// Whether the trial is a fall.
    pub is_fall: bool,
    /// Impact sample index for falls.
    pub impact: Option<u64>,
}

/// One recorded ingest event (one 100 Hz grid tick).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleRecord {
    /// Bit set over [`SampleRecord::MISSING`] …
    /// [`SampleRecord::STALE`].
    pub flags: u8,
    /// Raw pre-guard accelerometer reading in g (the hold value for
    /// missing ticks).
    pub accel: [f32; 3],
    /// Raw pre-guard gyroscope reading in rad/s.
    pub gyro: [f32; 3],
}

impl SampleRecord {
    /// The tick was reported missing (no sample delivered).
    pub const MISSING: u8 = 1;
    /// Accel-degraded mode was active after this event.
    pub const ACCEL_DEGRADED: u8 = 2;
    /// Gyro-degraded mode was active after this event.
    pub const GYRO_DEGRADED: u8 = 4;
    /// The detector was stale after this event.
    pub const STALE: u8 = 8;

    /// Whether this tick was a missing-sample report.
    pub fn missing(&self) -> bool {
        self.flags & Self::MISSING != 0
    }
}

/// One classified window with its decision trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRecord {
    /// 1-based count of ingest events when this window classified
    /// (i.e. the window completed on the `at_sample`-th tick of the
    /// stream).
    pub at_sample: u64,
    /// Sigmoid window score.
    pub score: f32,
    /// Bit set over [`WindowRecord::ARMED`] …
    /// [`WindowRecord::STALE`].
    pub flags: u8,
    /// Branches held in `branches` (0 for quantized engines).
    pub n_branch: u8,
    /// Per-branch activation statistics, `..n_branch` valid.
    pub branches: [BranchStat; MAX_BRANCHES],
}

const EMPTY_STAT: BranchStat = BranchStat {
    output_len: 0,
    l2: 0.0,
    mean_abs: 0.0,
    peak: 0.0,
};

impl Default for WindowRecord {
    fn default() -> Self {
        Self {
            at_sample: 0,
            score: 0.0,
            flags: 0,
            n_branch: 0,
            branches: [EMPTY_STAT; MAX_BRANCHES],
        }
    }
}

impl WindowRecord {
    /// The raw trigger condition (N consecutive positives) held.
    pub const ARMED: u8 = 1;
    /// The policy-aware trigger decision was true.
    pub const DECISION: u8 = 2;
    /// Accel-degraded mode was active.
    pub const ACCEL_DEGRADED: u8 = 4;
    /// Gyro-degraded mode was active.
    pub const GYRO_DEGRADED: u8 = 8;
    /// The detector was stale.
    pub const STALE: u8 = 16;

    /// The valid branch statistics.
    pub fn attribution(&self) -> &[BranchStat] {
        &self.branches[..self.n_branch as usize]
    }

    /// Whether the policy-aware trigger decision was true.
    pub fn decision(&self) -> bool {
        self.flags & Self::DECISION != 0
    }

    /// Whether the raw arming condition held.
    pub fn armed(&self) -> bool {
        self.flags & Self::ARMED != 0
    }
}

/// A self-contained incident record — see the [module docs](self) for
/// the format and guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentDump {
    /// Stable id (`inc-<seq>`).
    pub id: String,
    /// What caused the dump.
    pub kind: IncidentKind,
    /// Human-readable cause detail.
    pub reason: String,
    /// Ingest events seen on this stream when the dump was taken.
    pub created_at_sample: u64,
    /// The sample ring wrapped (or recording started mid-stream):
    /// the record does not reach back to the stream start, so replay
    /// cannot reconstruct filter state bit-exactly.
    pub truncated: bool,
    /// The trial streamed when the incident happened, when known.
    pub trial: Option<TrialMeta>,
    /// Stream tick at which the trigger fired (trigger incidents).
    pub triggered_at: Option<u64>,
    /// Milliseconds between trigger and impact (patched in at trial
    /// end; negative = fired after impact).
    pub lead_time_ms: Option<f64>,
    /// Decision threshold the detector ran with.
    pub threshold: f32,
    /// Consecutive-positive-windows requirement.
    pub consecutive: u32,
    /// Ingest hardening configuration.
    pub guard_config: GuardConfig,
    /// Cumulative guard counters at dump time.
    pub guard: GuardStatus,
    /// The full trained model + pipeline + normaliser as a serialized
    /// [`DetectorBundle`](prefall_core::persist::DetectorBundle).
    pub model_blob: Vec<u8>,
    /// The recorded input stream, oldest first.
    pub samples: Vec<SampleRecord>,
    /// The recorded score trajectory, oldest first.
    pub windows: Vec<WindowRecord>,
}

fn put_str(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    buf.put_u16_le(bytes.len().min(u16::MAX as usize) as u16);
    buf.put_slice(&bytes[..bytes.len().min(u16::MAX as usize)]);
}

fn put_opt_u64(buf: &mut BytesMut, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            buf.put_u64_le(v);
        }
        None => buf.put_u8(0),
    }
}

fn put_opt_f64(buf: &mut BytesMut, v: Option<f64>) {
    match v {
        Some(v) => {
            buf.put_u8(1);
            buf.put_f64_le(v);
        }
        None => buf.put_u8(0),
    }
}

/// Bounded reader helpers returning `BlackboxError::Format` on
/// truncation instead of panicking.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn need(&self, n: usize, what: &str) -> Result<(), BlackboxError> {
        if self.buf.remaining() < n {
            return Err(BlackboxError::Format(format!("truncated {what}")));
        }
        Ok(())
    }

    fn u8(&mut self, what: &str) -> Result<u8, BlackboxError> {
        self.need(1, what)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self, what: &str) -> Result<u16, BlackboxError> {
        self.need(2, what)?;
        Ok(self.buf.get_u16_le())
    }

    fn u32(&mut self, what: &str) -> Result<u32, BlackboxError> {
        self.need(4, what)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self, what: &str) -> Result<u64, BlackboxError> {
        self.need(8, what)?;
        Ok(self.buf.get_u64_le())
    }

    fn f32(&mut self, what: &str) -> Result<f32, BlackboxError> {
        self.need(4, what)?;
        Ok(self.buf.get_f32_le())
    }

    fn f64(&mut self, what: &str) -> Result<f64, BlackboxError> {
        self.need(8, what)?;
        Ok(self.buf.get_f64_le())
    }

    fn str(&mut self, what: &str) -> Result<String, BlackboxError> {
        let n = self.u16(what)? as usize;
        self.need(n, what)?;
        let s = std::str::from_utf8(&self.buf[..n])
            .map_err(|_| BlackboxError::Format(format!("non-UTF-8 {what}")))?
            .to_string();
        self.buf.advance(n);
        Ok(s)
    }

    fn opt_u64(&mut self, what: &str) -> Result<Option<u64>, BlackboxError> {
        Ok(match self.u8(what)? {
            0 => None,
            _ => Some(self.u64(what)?),
        })
    }

    fn opt_f64(&mut self, what: &str) -> Result<Option<f64>, BlackboxError> {
        Ok(match self.u8(what)? {
            0 => None,
            _ => Some(self.f64(what)?),
        })
    }
}

fn guard_status_fields(g: &GuardStatus) -> [u64; 12] {
    [
        g.samples,
        g.nonfinite,
        g.clamped,
        g.gaps_filled,
        g.gap_lost,
        g.stuck_events,
        g.degraded_samples,
        g.degraded_windows,
        g.window_flushes,
        g.suppressed_triggers,
        g.engine_rejects,
        g.windows,
    ]
}

impl IncidentDump {
    /// The serialized detector-configuration section (threshold,
    /// consecutive, guard) — the bytes [`IncidentDump::config_hash`]
    /// covers.
    fn config_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_f32_le(self.threshold);
        buf.put_u32_le(self.consecutive);
        let g = &self.guard_config;
        buf.put_u8(u8::from(g.enabled));
        buf.put_f32_le(g.accel_limit_g);
        buf.put_f32_le(g.gyro_limit_rads);
        buf.put_u32_le(g.max_gap_fill as u32);
        buf.put_u32_le(g.stuck_window as u32);
        buf.put_u32_le(g.fault_debounce);
        buf.put_u32_le(g.accel_confirm_window as u32);
        buf.put_f32_le(g.accel_confirm_dev_g);
        buf.to_vec()
    }

    /// FNV-1a hash of the detector configuration the incident ran
    /// with.
    pub fn config_hash(&self) -> u64 {
        fnv1a64(&self.config_bytes())
    }

    /// FNV-1a hash of the embedded model bundle blob.
    pub fn model_hash(&self) -> u64 {
        fnv1a64(&self.model_blob)
    }

    /// Serialises the dump (see the [module docs](self) for the
    /// layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let config = self.config_bytes();
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u8(self.kind.tag());
        put_str(&mut buf, &self.id);
        put_str(&mut buf, &self.reason);
        buf.put_u64_le(self.created_at_sample);
        buf.put_u8(u8::from(self.truncated));
        match &self.trial {
            Some(t) => {
                buf.put_u8(1);
                buf.put_u32_le(t.subject);
                buf.put_u32_le(t.task);
                buf.put_u32_le(t.trial_index);
                buf.put_u8(u8::from(t.is_fall));
                put_opt_u64(&mut buf, t.impact);
            }
            None => buf.put_u8(0),
        }
        put_opt_u64(&mut buf, self.triggered_at);
        put_opt_f64(&mut buf, self.lead_time_ms);
        buf.put_slice(&config);
        buf.put_u64_le(fnv1a64(&config));
        buf.put_u64_le(self.model_hash());
        for v in guard_status_fields(&self.guard) {
            buf.put_u64_le(v);
        }
        buf.put_u32_le(self.model_blob.len() as u32);
        buf.put_slice(&self.model_blob);
        buf.put_u32_le(self.samples.len() as u32);
        for s in &self.samples {
            buf.put_u8(s.flags);
            for v in s.accel.iter().chain(s.gyro.iter()) {
                buf.put_f32_le(*v);
            }
        }
        buf.put_u32_le(self.windows.len() as u32);
        for w in &self.windows {
            buf.put_u64_le(w.at_sample);
            buf.put_f32_le(w.score);
            buf.put_u8(w.flags);
            buf.put_u8(w.n_branch);
            for b in w.attribution() {
                buf.put_u32_le(b.output_len);
                buf.put_f32_le(b.l2);
                buf.put_f32_le(b.mean_abs);
                buf.put_f32_le(b.peak);
            }
        }
        buf.to_vec()
    }

    /// Deserialises and integrity-checks a dump.
    ///
    /// # Errors
    ///
    /// [`BlackboxError::Format`] on malformed or truncated input, and
    /// on a config/model hash mismatch — a dump whose stored hashes do
    /// not match its own content must not be replayed.
    pub fn from_bytes(blob: &[u8]) -> Result<Self, BlackboxError> {
        let mut r = Reader { buf: blob };
        r.need(8, "header")?;
        if &r.buf[..4] != MAGIC {
            return Err(BlackboxError::Format("bad magic".to_string()));
        }
        r.buf.advance(4);
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(BlackboxError::Format(format!(
                "unsupported version {version}"
            )));
        }
        let kind = IncidentKind::from_tag(r.u8("kind")?)
            .ok_or_else(|| BlackboxError::Format("unknown incident kind".to_string()))?;
        let id = r.str("id")?;
        let reason = r.str("reason")?;
        let created_at_sample = r.u64("created_at_sample")?;
        let truncated = r.u8("truncated")? != 0;
        let trial = match r.u8("trial tag")? {
            0 => None,
            _ => Some(TrialMeta {
                subject: r.u32("trial")?,
                task: r.u32("trial")?,
                trial_index: r.u32("trial")?,
                is_fall: r.u8("trial")? != 0,
                impact: r.opt_u64("trial impact")?,
            }),
        };
        let triggered_at = r.opt_u64("triggered_at")?;
        let lead_time_ms = r.opt_f64("lead_time_ms")?;
        let threshold = r.f32("config")?;
        let consecutive = r.u32("config")?;
        let guard_config = GuardConfig {
            enabled: r.u8("config")? != 0,
            accel_limit_g: r.f32("config")?,
            gyro_limit_rads: r.f32("config")?,
            max_gap_fill: r.u32("config")? as usize,
            stuck_window: r.u32("config")? as usize,
            fault_debounce: r.u32("config")?,
            accel_confirm_window: r.u32("config")? as usize,
            accel_confirm_dev_g: r.f32("config")?,
        };
        let config_hash = r.u64("config_hash")?;
        let model_hash = r.u64("model_hash")?;
        let mut gs = [0u64; 12];
        for v in &mut gs {
            *v = r.u64("guard status")?;
        }
        let guard = GuardStatus {
            samples: gs[0],
            nonfinite: gs[1],
            clamped: gs[2],
            gaps_filled: gs[3],
            gap_lost: gs[4],
            stuck_events: gs[5],
            degraded_samples: gs[6],
            degraded_windows: gs[7],
            window_flushes: gs[8],
            suppressed_triggers: gs[9],
            engine_rejects: gs[10],
            windows: gs[11],
            // Not part of the v1 wire format: grid regressions are a
            // transport condition, invisible to the single-stream
            // replay this dump feeds.
            ts_regression: 0,
        };
        let blob_len = r.u32("model blob len")? as usize;
        r.need(blob_len, "model blob")?;
        let model_blob = r.buf[..blob_len].to_vec();
        r.buf.advance(blob_len);
        let n_samples = r.u32("sample count")? as usize;
        r.need(n_samples * 25, "samples")?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let flags = r.u8("sample")?;
            let mut vals = [0f32; 6];
            for v in &mut vals {
                *v = r.f32("sample")?;
            }
            samples.push(SampleRecord {
                flags,
                accel: [vals[0], vals[1], vals[2]],
                gyro: [vals[3], vals[4], vals[5]],
            });
        }
        let n_windows = r.u32("window count")? as usize;
        let mut windows = Vec::with_capacity(n_windows.min(1 << 20));
        for _ in 0..n_windows {
            let at_sample = r.u64("window")?;
            let score = r.f32("window")?;
            let flags = r.u8("window")?;
            let n_branch = r.u8("window")?;
            if n_branch as usize > MAX_BRANCHES {
                return Err(BlackboxError::Format(format!(
                    "window holds {n_branch} branches (max {MAX_BRANCHES})"
                )));
            }
            let mut branches = [EMPTY_STAT; MAX_BRANCHES];
            for b in branches.iter_mut().take(n_branch as usize) {
                *b = BranchStat {
                    output_len: r.u32("branch")?,
                    l2: r.f32("branch")?,
                    mean_abs: r.f32("branch")?,
                    peak: r.f32("branch")?,
                };
            }
            windows.push(WindowRecord {
                at_sample,
                score,
                flags,
                n_branch,
                branches,
            });
        }
        let dump = Self {
            id,
            kind,
            reason,
            created_at_sample,
            truncated,
            trial,
            triggered_at,
            lead_time_ms,
            threshold,
            consecutive,
            guard_config,
            guard,
            model_blob,
            samples,
            windows,
        };
        if dump.config_hash() != config_hash {
            return Err(BlackboxError::Format("config hash mismatch".to_string()));
        }
        if dump.model_hash() != model_hash {
            return Err(BlackboxError::Format("model hash mismatch".to_string()));
        }
        Ok(dump)
    }

    /// The binary dump as lowercase hex (transport-safe for JSON).
    pub fn to_hex(&self) -> String {
        let bytes = self.to_bytes();
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            out.push_str(&format!("{b:02x}"));
        }
        out
    }

    /// Parses a dump from [`IncidentDump::to_hex`] output.
    ///
    /// # Errors
    ///
    /// [`BlackboxError::Format`] on non-hex input or any
    /// [`IncidentDump::from_bytes`] failure.
    pub fn from_hex(hex: &str) -> Result<Self, BlackboxError> {
        let hex = hex.trim();
        if !hex.len().is_multiple_of(2) {
            return Err(BlackboxError::Format("odd hex length".to_string()));
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for i in (0..hex.len()).step_by(2) {
            let b = u8::from_str_radix(&hex[i..i + 2], 16)
                .map_err(|_| BlackboxError::Format("non-hex digit".to_string()))?;
            bytes.push(b);
        }
        Self::from_bytes(&bytes)
    }

    /// Compact summary for the `/incidents` listing.
    pub fn summary_json(&self) -> JsonValue {
        let mut fields = vec![
            ("id".to_string(), JsonValue::Str(self.id.clone())),
            (
                "kind".to_string(),
                JsonValue::Str(self.kind.name().to_string()),
            ),
            ("reason".to_string(), JsonValue::Str(self.reason.clone())),
            (
                "created_at_sample".to_string(),
                JsonValue::U64(self.created_at_sample),
            ),
            ("truncated".to_string(), JsonValue::Bool(self.truncated)),
            (
                "samples".to_string(),
                JsonValue::U64(self.samples.len() as u64),
            ),
            (
                "windows".to_string(),
                JsonValue::U64(self.windows.len() as u64),
            ),
        ];
        if let Some(lt) = self.lead_time_ms {
            fields.push(("lead_time_ms".to_string(), JsonValue::F64(lt)));
        }
        if let Some(t) = self.triggered_at {
            fields.push(("triggered_at".to_string(), JsonValue::U64(t)));
        }
        JsonValue::Obj(fields)
    }

    /// Full detail document: the summary plus trial metadata, hashes,
    /// guard counters, the decision trace (score trajectory with
    /// per-branch attribution shares), and — when `include_blob` —
    /// the complete binary dump as `dump_hex` for download-and-replay.
    pub fn to_json(&self, include_blob: bool) -> JsonValue {
        let mut fields = match self.summary_json() {
            JsonValue::Obj(f) => f,
            _ => unreachable!("summary is an object"),
        };
        if let Some(t) = &self.trial {
            let mut tf = vec![
                ("subject".to_string(), JsonValue::U64(u64::from(t.subject))),
                ("task".to_string(), JsonValue::U64(u64::from(t.task))),
                (
                    "trial_index".to_string(),
                    JsonValue::U64(u64::from(t.trial_index)),
                ),
                ("is_fall".to_string(), JsonValue::Bool(t.is_fall)),
            ];
            if let Some(im) = t.impact {
                tf.push(("impact".to_string(), JsonValue::U64(im)));
            }
            fields.push(("trial".to_string(), JsonValue::Obj(tf)));
        }
        fields.push((
            "config_hash".to_string(),
            JsonValue::Str(format!("{:016x}", self.config_hash())),
        ));
        fields.push((
            "model_hash".to_string(),
            JsonValue::Str(format!("{:016x}", self.model_hash())),
        ));
        fields.push((
            "model_bytes".to_string(),
            JsonValue::U64(self.model_blob.len() as u64),
        ));
        fields.push((
            "guard".to_string(),
            JsonValue::Obj(
                [
                    ("samples", self.guard.samples),
                    ("nonfinite", self.guard.nonfinite),
                    ("clamped", self.guard.clamped),
                    ("gaps_filled", self.guard.gaps_filled),
                    ("gap_lost", self.guard.gap_lost),
                    ("stuck_events", self.guard.stuck_events),
                    ("degraded_samples", self.guard.degraded_samples),
                    ("degraded_windows", self.guard.degraded_windows),
                    ("window_flushes", self.guard.window_flushes),
                    ("suppressed_triggers", self.guard.suppressed_triggers),
                    ("engine_rejects", self.guard.engine_rejects),
                    ("windows", self.guard.windows),
                    ("faults", self.guard.faults()),
                ]
                .iter()
                .map(|(k, v)| (k.to_string(), JsonValue::U64(*v)))
                .collect(),
            ),
        ));
        let trace: Vec<JsonValue> = self
            .windows
            .iter()
            .map(|w| {
                let shares = BranchStat::shares(w.attribution());
                let mut wf = vec![
                    ("at_sample".to_string(), JsonValue::U64(w.at_sample)),
                    ("score".to_string(), JsonValue::F64(f64::from(w.score))),
                    ("armed".to_string(), JsonValue::Bool(w.armed())),
                    ("decision".to_string(), JsonValue::Bool(w.decision())),
                ];
                if w.n_branch > 0 {
                    wf.push((
                        "attribution".to_string(),
                        JsonValue::Arr(
                            shares
                                .iter()
                                .map(|&s| JsonValue::F64(f64::from(s)))
                                .collect(),
                        ),
                    ));
                }
                JsonValue::Obj(wf)
            })
            .collect();
        fields.push(("trace".to_string(), JsonValue::Arr(trace)));
        if include_blob {
            fields.push(("dump_hex".to_string(), JsonValue::Str(self.to_hex())));
        }
        JsonValue::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dump() -> IncidentDump {
        IncidentDump {
            id: "inc-1".to_string(),
            kind: IncidentKind::Trigger,
            reason: "trigger decision went true".to_string(),
            created_at_sample: 321,
            truncated: false,
            trial: Some(TrialMeta {
                subject: 3,
                task: 20,
                trial_index: 1,
                is_fall: true,
                impact: Some(300),
            }),
            triggered_at: Some(280),
            lead_time_ms: Some(200.0),
            threshold: 0.5,
            consecutive: 1,
            guard_config: GuardConfig::default(),
            guard: GuardStatus {
                samples: 321,
                nonfinite: 6,
                ..GuardStatus::default()
            },
            model_blob: vec![1, 2, 3, 4, 5],
            samples: vec![
                SampleRecord {
                    flags: 0,
                    accel: [0.0, 0.0, 1.0],
                    gyro: [0.0; 3],
                },
                SampleRecord {
                    flags: SampleRecord::MISSING | SampleRecord::STALE,
                    accel: [f32::NAN, 0.5, -0.5],
                    gyro: [f32::INFINITY, 0.0, 0.0],
                },
            ],
            windows: vec![WindowRecord {
                at_sample: 2,
                score: 0.75,
                flags: WindowRecord::ARMED | WindowRecord::DECISION,
                n_branch: 2,
                branches: [
                    BranchStat {
                        output_len: 4,
                        l2: 1.5,
                        mean_abs: 0.5,
                        peak: 1.0,
                    },
                    BranchStat {
                        output_len: 4,
                        l2: 0.5,
                        mean_abs: 0.2,
                        peak: 0.4,
                    },
                    EMPTY_STAT,
                    EMPTY_STAT,
                ],
            }],
        }
    }

    #[test]
    fn binary_roundtrip_is_exact_including_nonfinite_floats() {
        let d = dump();
        let back = IncidentDump::from_bytes(&d.to_bytes()).unwrap();
        // NaN != NaN, so compare the bit patterns for the samples.
        assert_eq!(back.id, d.id);
        assert_eq!(back.kind, d.kind);
        assert_eq!(back.trial, d.trial);
        assert_eq!(back.guard, d.guard);
        assert_eq!(back.windows, d.windows);
        assert_eq!(back.samples.len(), d.samples.len());
        for (a, b) in back.samples.iter().zip(&d.samples) {
            assert_eq!(a.flags, b.flags);
            for k in 0..3 {
                assert_eq!(a.accel[k].to_bits(), b.accel[k].to_bits());
                assert_eq!(a.gyro[k].to_bits(), b.gyro[k].to_bits());
            }
        }
        let hex_back = IncidentDump::from_hex(&d.to_hex()).unwrap();
        assert_eq!(hex_back.to_bytes(), d.to_bytes());
    }

    #[test]
    fn corruption_is_rejected() {
        let d = dump();
        let blob = d.to_bytes();
        assert!(IncidentDump::from_bytes(b"nope").is_err());
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'X';
        assert!(IncidentDump::from_bytes(&bad_magic).is_err());
        let mut truncated = blob.clone();
        truncated.truncate(blob.len() - 3);
        assert!(IncidentDump::from_bytes(&truncated).is_err());
        // Flip a byte inside the model blob: the stored model hash no
        // longer matches and the dump must refuse to load.
        let needle = [5u8, 0, 0, 0, 1, 2, 3, 4, 5]; // u32 len + blob
        let at = (0..blob.len() - needle.len())
            .find(|&i| blob[i..i + needle.len()] == needle)
            .expect("model blob present in serialisation");
        let mut tampered = blob.clone();
        tampered[at + 4] ^= 0xff;
        assert!(IncidentDump::from_bytes(&tampered).is_err());
        assert!(IncidentDump::from_hex("zz").is_err());
        assert!(IncidentDump::from_hex("abc").is_err());
    }

    #[test]
    fn json_has_the_forensic_fields() {
        let d = dump();
        let doc = d.to_json(true);
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("inc-1"));
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("trigger"));
        assert!(doc.get("config_hash").is_some());
        assert!(doc.get("model_hash").is_some());
        assert!(doc.get("trial").and_then(|t| t.get("impact")).is_some());
        let trace = match doc.get("trace") {
            Some(JsonValue::Arr(t)) => t,
            other => panic!("trace missing: {other:?}"),
        };
        assert_eq!(trace.len(), 1);
        assert_eq!(
            trace[0].get("decision").and_then(|v| v.as_bool()),
            Some(true)
        );
        let hex = doc.get("dump_hex").and_then(|v| v.as_str()).unwrap();
        let back = IncidentDump::from_hex(hex).unwrap();
        assert_eq!(back.to_bytes(), d.to_bytes());
        assert!(d.to_json(false).get("dump_hex").is_none());
    }
}
