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
use prefall_core::detector::{GuardConfig, GuardStatus};
use prefall_nn::network::BranchStat;
use prefall_telemetry::wire::{Reader, Writer};
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
        let mut w = Writer::default();
        w.f32(self.threshold);
        w.u32(self.consecutive);
        let g = &self.guard_config;
        w.bool(g.enabled);
        w.f32(g.accel_limit_g);
        w.f32(g.gyro_limit_rads);
        w.u32(g.max_gap_fill as u32);
        w.u32(g.stuck_window as u32);
        w.u32(g.fault_debounce);
        w.u32(g.accel_confirm_window as u32);
        w.f32(g.accel_confirm_dev_g);
        w.finish()
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
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u8(self.kind.tag());
        w.str(&self.id);
        w.str(&self.reason);
        w.u64(self.created_at_sample);
        w.bool(self.truncated);
        w.option(self.trial, |w, t| {
            w.u32(t.subject);
            w.u32(t.task);
            w.u32(t.trial_index);
            w.bool(t.is_fall);
            w.option(t.impact, Writer::u64);
        });
        w.option(self.triggered_at, Writer::u64);
        w.option(self.lead_time_ms, Writer::f64);
        w.bytes(&config);
        w.u64(fnv1a64(&config));
        w.u64(self.model_hash());
        for v in guard_status_fields(&self.guard) {
            w.u64(v);
        }
        w.u32(self.model_blob.len() as u32);
        w.bytes(&self.model_blob);
        w.u32(self.samples.len() as u32);
        for s in &self.samples {
            w.u8(s.flags);
            for &v in s.accel.iter().chain(&s.gyro) {
                w.f32(v);
            }
        }
        w.u32(self.windows.len() as u32);
        for rec in &self.windows {
            w.u64(rec.at_sample);
            w.f32(rec.score);
            w.u8(rec.flags);
            w.u8(rec.n_branch);
            for b in rec.attribution() {
                w.u32(b.output_len);
                w.f32(b.l2);
                w.f32(b.mean_abs);
                w.f32(b.peak);
            }
        }
        w.finish()
    }

    /// Deserialises and integrity-checks a dump.
    ///
    /// # Errors
    ///
    /// [`BlackboxError::Format`] on malformed, truncated or trailing
    /// input, and on a config/model hash mismatch — a dump whose
    /// stored hashes do not match its own content must not be
    /// replayed.
    pub fn from_bytes(blob: &[u8]) -> Result<Self, BlackboxError> {
        let mut r = Reader::new(blob);
        if r.take(4)? != MAGIC {
            return Err(BlackboxError::Format("bad magic".to_string()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(BlackboxError::Format(format!(
                "unsupported version {version}"
            )));
        }
        let kind = IncidentKind::from_tag(r.u8()?)
            .ok_or_else(|| BlackboxError::Format("unknown incident kind".to_string()))?;
        let id = r.str()?;
        let reason = r.str()?;
        let created_at_sample = r.u64()?;
        let truncated = r.bool()?;
        let trial = r.option(|r| {
            Ok(TrialMeta {
                subject: r.u32()?,
                task: r.u32()?,
                trial_index: r.u32()?,
                is_fall: r.bool()?,
                impact: r.option(Reader::u64)?,
            })
        })?;
        let triggered_at = r.option(Reader::u64)?;
        let lead_time_ms = r.option(Reader::f64)?;
        let threshold = r.f32()?;
        let consecutive = r.u32()?;
        let guard_config = GuardConfig {
            enabled: r.bool()?,
            accel_limit_g: r.f32()?,
            gyro_limit_rads: r.f32()?,
            max_gap_fill: r.u32()? as usize,
            stuck_window: r.u32()? as usize,
            fault_debounce: r.u32()?,
            accel_confirm_window: r.u32()? as usize,
            accel_confirm_dev_g: r.f32()?,
        };
        let config_hash = r.u64()?;
        let model_hash = r.u64()?;
        let guard = GuardStatus {
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
            // Not part of the v1 wire format: grid regressions are a
            // transport condition, invisible to the single-stream
            // replay this dump feeds.
            ts_regression: 0,
        };
        let blob_len = r.u32()? as usize;
        let model_blob = r.take(blob_len)?.to_vec();
        // A sample is a flags byte and six f32s.
        let n_samples = r.u32()? as usize;
        let mut samples = Vec::with_capacity(r.count(n_samples, 25)?);
        for _ in 0..n_samples {
            samples.push(SampleRecord {
                flags: r.u8()?,
                accel: [r.f32()?, r.f32()?, r.f32()?],
                gyro: [r.f32()?, r.f32()?, r.f32()?],
            });
        }
        // A window is at least at_sample, score, flags and n_branch.
        let n_windows = r.u32()? as usize;
        let mut windows = Vec::with_capacity(r.count(n_windows, 14)?);
        for _ in 0..n_windows {
            let at_sample = r.u64()?;
            let score = r.f32()?;
            let flags = r.u8()?;
            let n_branch = r.u8()?;
            if n_branch as usize > MAX_BRANCHES {
                return Err(BlackboxError::Format(format!(
                    "window holds {n_branch} branches (max {MAX_BRANCHES})"
                )));
            }
            let mut branches = [EMPTY_STAT; MAX_BRANCHES];
            for b in branches.iter_mut().take(n_branch as usize) {
                *b = BranchStat {
                    output_len: r.u32()?,
                    l2: r.f32()?,
                    mean_abs: r.f32()?,
                    peak: r.f32()?,
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
        r.expect_end()?;
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
        let hex = hex.trim().as_bytes();
        if !hex.len().is_multiple_of(2) {
            return Err(BlackboxError::Format("odd hex length".to_string()));
        }
        let digit = |c: u8| {
            char::from(c)
                .to_digit(16)
                .ok_or_else(|| BlackboxError::Format("non-hex digit".to_string()))
        };
        let bytes = hex
            .chunks_exact(2)
            .map(|pair| Ok(((digit(pair[0])? << 4) | digit(pair[1])?) as u8))
            .collect::<Result<Vec<u8>, BlackboxError>>()?;
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
        // A multi-byte character where a hex pair should be.
        assert!(IncidentDump::from_hex("aé0").is_err());
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
