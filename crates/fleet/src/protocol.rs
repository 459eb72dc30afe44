//! The ingest wire format: compact binary batches in, JSON replies
//! out.
//!
//! A wearer's device uplinks IMU samples in small batches (a few
//! hundred milliseconds each) tagged with the **grid tick of the first
//! sample** as the batch sequence number. Ticks are cumulative over
//! the session's life, so the sequence number is not a per-batch
//! counter but an absolute position on the 100 Hz grid — which is what
//! makes delivery idempotent: a duplicate batch covers ticks the
//! session has already consumed and is recognised without any
//! per-batch bookkeeping, a reordered batch is partially or wholly
//! stale in exactly the way [`Session::push_at`] already tolerates,
//! and a gap simply starts at a later tick and is bridged by the
//! sample guard.
//!
//! [`Session::push_at`]: prefall_core::session::Session::push_at
//!
//! The binary layout (all little-endian):
//!
//! ```text
//! magic   u32   0x5046_4942 ("PFIB")
//! version u16   1
//! wearer  u64
//! seq     u64   grid tick of samples[0]
//! count   u16
//! count × { kind u8 (0 = missing, 1 = sample)
//!           if sample: ax ay az gx gy gz (6 × f32) }
//! ```

use prefall_telemetry::wire::{Reader, Writer};
use prefall_telemetry::JsonValue;

/// Wire magic: `"PFIB"` as a little-endian `u32`.
pub const BATCH_MAGIC: u32 = 0x5046_4942;
/// Wire format version.
pub const BATCH_VERSION: u16 = 1;
/// Hard cap on samples per batch: at 100 Hz this is ~40 s of signal,
/// far beyond any sane uplink cadence, and it bounds the allocation a
/// hostile header can demand.
pub const MAX_BATCH_SAMPLES: usize = 4096;

/// One slot in a batch: a real sample or an explicit gap marker the
/// device emits when its own sensor dropped a reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchSample {
    /// The device knows it lost this tick.
    Missing,
    /// A real accelerometer + gyroscope reading.
    Sample {
        /// Accelerometer reading, g.
        accel: [f32; 3],
        /// Gyroscope reading, deg/s.
        gyro: [f32; 3],
    },
}

/// One uplinked batch of consecutive grid ticks for one wearer.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestBatch {
    /// Stable wearer identity (sessions key on this).
    pub wearer: u64,
    /// Grid tick of `samples[0]`; sample `i` lands at `seq + i`.
    pub seq: u64,
    /// The consecutive samples.
    pub samples: Vec<BatchSample>,
}

impl IngestBatch {
    /// Serialises the batch into the wire layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(24 + self.samples.len() * 25);
        w.u32(BATCH_MAGIC);
        w.u16(BATCH_VERSION);
        w.u64(self.wearer);
        w.u64(self.seq);
        w.u16(self.samples.len() as u16);
        for s in &self.samples {
            match s {
                BatchSample::Missing => w.u8(0),
                BatchSample::Sample { accel, gyro } => {
                    w.u8(1);
                    for &v in accel.iter().chain(gyro) {
                        w.f32(v);
                    }
                }
            }
        }
        w.finish()
    }

    /// Parses a batch, refusing truncation, bad magic/version, and
    /// counts past [`MAX_BATCH_SAMPLES`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed construct.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        if r.u32()? != BATCH_MAGIC {
            return Err("bad batch magic".into());
        }
        if r.u16()? != BATCH_VERSION {
            return Err("unsupported batch version".into());
        }
        let wearer = r.u64()?;
        let seq = r.u64()?;
        let count = usize::from(r.u16()?);
        if count > MAX_BATCH_SAMPLES {
            return Err(format!("batch of {count} samples exceeds cap"));
        }
        let mut samples = Vec::with_capacity(r.count(count, 1)?);
        for _ in 0..count {
            match r.u8()? {
                0 => samples.push(BatchSample::Missing),
                1 => samples.push(BatchSample::Sample {
                    accel: [r.f32()?, r.f32()?, r.f32()?],
                    gyro: [r.f32()?, r.f32()?, r.f32()?],
                }),
                k => return Err(format!("unknown sample kind {k}")),
            }
        }
        r.expect_end()?;
        Ok(Self {
            wearer,
            seq,
            samples,
        })
    }
}

/// How the fleet disposed of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestStatus {
    /// Processed (possibly partially stale ticks, possibly shed).
    Accepted,
    /// Every tick was already consumed — an idempotent re-delivery.
    Duplicate,
    /// No session capacity for a new wearer; retry after backoff.
    Rejected,
}

impl IngestStatus {
    fn as_str(self) -> &'static str {
        match self {
            IngestStatus::Accepted => "accepted",
            IngestStatus::Duplicate => "duplicate",
            IngestStatus::Rejected => "rejected",
        }
    }
}

/// The per-batch reply. `probs_bits` carries each emitted window
/// probability as `f32::to_bits` so clients (and the bench's
/// bit-identity gate) compare exactly, immune to float formatting.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReply {
    /// Echoed wearer identity.
    pub wearer: u64,
    /// Disposition of the whole batch.
    pub status: IngestStatus,
    /// The next tick the session expects — the client's resume point
    /// after a gap, duplicate, or reconnect.
    pub next_seq: u64,
    /// Windows classified while consuming this batch.
    pub windows: u64,
    /// Window boundaries crossed under load shedding (no inference).
    pub shed_windows: u64,
    /// Whether the batch was served in shed (accel-confirm-only) mode.
    pub shed: bool,
    /// The trigger decision after this batch (degraded policy when
    /// `shed`).
    pub trigger: bool,
    /// Whether any tick in the batch regressed behind the grid (was
    /// dropped and counted, not applied).
    pub regressed: bool,
    /// Emitted window probabilities, bit-exact.
    pub probs_bits: Vec<u32>,
}

impl IngestReply {
    /// The reply as a JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("wearer".to_string(), JsonValue::U64(self.wearer)),
            (
                "status".to_string(),
                JsonValue::Str(self.status.as_str().to_string()),
            ),
            ("next_seq".to_string(), JsonValue::U64(self.next_seq)),
            ("windows".to_string(), JsonValue::U64(self.windows)),
            (
                "shed_windows".to_string(),
                JsonValue::U64(self.shed_windows),
            ),
            ("shed".to_string(), JsonValue::Bool(self.shed)),
            ("trigger".to_string(), JsonValue::Bool(self.trigger)),
            ("regressed".to_string(), JsonValue::Bool(self.regressed)),
            (
                "probs_bits".to_string(),
                JsonValue::Arr(
                    self.probs_bits
                        .iter()
                        .map(|&b| JsonValue::U64(u64::from(b)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a reply produced by [`IngestReply::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(doc: &JsonValue) -> Result<Self, String> {
        let u = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing field {k}"))
        };
        let b = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("missing field {k}"))
        };
        let status = match doc.get("status") {
            Some(JsonValue::Str(s)) if s == "accepted" => IngestStatus::Accepted,
            Some(JsonValue::Str(s)) if s == "duplicate" => IngestStatus::Duplicate,
            Some(JsonValue::Str(s)) if s == "rejected" => IngestStatus::Rejected,
            _ => return Err("missing or unknown status".into()),
        };
        let probs_bits = match doc.get("probs_bits") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| "bad probs_bits entry".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?,
            _ => return Err("missing probs_bits".into()),
        };
        Ok(Self {
            wearer: u("wearer")?,
            status,
            next_seq: u("next_seq")?,
            windows: u("windows")?,
            shed_windows: u("shed_windows")?,
            shed: b("shed")?,
            trigger: b("trigger")?,
            regressed: b("regressed")?,
            probs_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> IngestBatch {
        IngestBatch {
            wearer: 42,
            seq: 1700,
            samples: vec![
                BatchSample::Sample {
                    accel: [0.01, -0.02, 1.0],
                    gyro: [0.5, -0.25, 0.125],
                },
                BatchSample::Missing,
                BatchSample::Sample {
                    accel: [f32::MIN_POSITIVE, 0.0, -1.0],
                    gyro: [360.0, -360.0, 0.0],
                },
            ],
        }
    }

    #[test]
    fn batch_round_trips_bit_exactly() {
        let batch = sample_batch();
        let again = IngestBatch::from_bytes(&batch.to_bytes()).unwrap();
        assert_eq!(batch, again);
    }

    #[test]
    fn corrupted_batches_are_refused() {
        let bytes = sample_batch().to_bytes();
        for cut in [0, 1, 5, 12, bytes.len() - 1] {
            assert!(IngestBatch::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(IngestBatch::from_bytes(&bad_magic).is_err());
        let mut bad_kind = bytes.clone();
        bad_kind[24] = 7;
        assert!(IngestBatch::from_bytes(&bad_kind).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(IngestBatch::from_bytes(&trailing).is_err());
    }

    #[test]
    fn oversized_counts_are_refused_before_allocation() {
        // A hostile header claiming 65535 samples with no payload.
        let mut b = Vec::new();
        b.extend_from_slice(&BATCH_MAGIC.to_le_bytes());
        b.extend_from_slice(&BATCH_VERSION.to_le_bytes());
        b.extend_from_slice(&1u64.to_le_bytes());
        b.extend_from_slice(&0u64.to_le_bytes());
        b.extend_from_slice(&u16::MAX.to_le_bytes());
        let err = IngestBatch::from_bytes(&b).unwrap_err();
        assert!(err.contains("cap"), "{err}");
    }

    #[test]
    fn batch_bytes_are_pinned() {
        // Pins the PFIB byte layout: any change to it changes the hash.
        let bytes = sample_batch().to_bytes();
        assert_eq!(prefall_core::fnv1a64(&bytes), 0x2f10_8598_4ad1_4825);
    }

    #[test]
    fn reply_round_trips_through_json() {
        let reply = IngestReply {
            wearer: 7,
            status: IngestStatus::Accepted,
            next_seq: 1234,
            windows: 3,
            shed_windows: 1,
            shed: true,
            trigger: false,
            regressed: true,
            probs_bits: vec![0.25f32.to_bits(), f32::NAN.to_bits()],
        };
        let text = reply.to_json().to_string();
        let again = IngestReply::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(reply, again);
    }
}
