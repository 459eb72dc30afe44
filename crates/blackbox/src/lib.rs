//! Flight recorder, trigger forensics and deterministic incident
//! replay for the streaming pre-impact fall detector.
//!
//! A pre-impact airbag gets one chance per fall, and the interesting
//! question after every deployment — and every missed fall — is *why*.
//! This crate is the black box that answers it:
//!
//! * [`recorder`] — [`FlightRecorder`] installs as a
//!   [`DetectorTap`](prefall_core::tap::DetectorTap) on the
//!   [`StreamingDetector`](prefall_core::detector::StreamingDetector)
//!   and continuously captures the last ~30 s of raw samples, guard
//!   state, window scores and per-branch attribution into
//!   pre-allocated [`ring`] buffers — zero heap allocations per sample
//!   after warm-up.
//! * [`dump`] — on a trigger, a missed fall, a `/healthz` degradation
//!   or an operator request, the rings freeze into an
//!   [`IncidentDump`]: a self-contained, versioned binary record
//!   embedding the full model bundle, the detector configuration,
//!   FNV-1a config/model hashes (verified on load) and the complete
//!   decision trace.
//! * [`replay`](crate::replay()) — rebuilds the detector from the dump
//!   and re-runs the incident, asserting the score trajectory matches
//!   **bit for bit** ([`f32::to_bits`], no epsilon).
//! * [`store`] — [`FlightHandle`] implements
//!   [`prefall_obsd::IncidentSource`], serving `/incidents` and
//!   `/incidents/{id}` from the live obsd server.
//!
//! ```no_run
//! use prefall_blackbox::{armed_detector_from_bundle, replay, FlightConfig};
//! use prefall_core::detector::GuardConfig;
//!
//! # let bundle_bytes: Vec<u8> = vec![];
//! let (mut detector, flight) = armed_detector_from_bundle(
//!     &bundle_bytes, 0.5, 1, GuardConfig::default(), FlightConfig::default())?;
//! // ... stream trials through `detector` ...
//! if let Some(incident) = flight.latest() {
//!     let report = replay(&incident)?;
//!     assert!(report.bit_exact);
//! }
//! # Ok::<(), prefall_blackbox::BlackboxError>(())
//! ```

#![deny(missing_docs)]

pub mod dump;
pub mod recorder;
pub mod replay;
pub mod ring;
pub mod store;

pub use dump::{IncidentDump, IncidentKind, SampleRecord, TrialMeta, WindowRecord};
pub use recorder::{armed_detector_from_bundle, FlightConfig, FlightHandle, FlightRecorder};
pub use replay::{replay, Divergence, ReplayReport};

/// Errors produced while encoding, decoding or replaying incidents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlackboxError {
    /// Malformed, truncated or hash-mismatched dump bytes.
    Format(String),
    /// The dump's sample ring wrapped (or recording started
    /// mid-stream): filter state at the first retained sample is
    /// unknown, so bit-exact replay is impossible.
    Truncated,
    /// The embedded model bundle or recorded configuration could not
    /// be turned back into a runnable detector.
    Replay(String),
}

impl std::fmt::Display for BlackboxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlackboxError::Format(m) => write!(f, "malformed incident dump: {m}"),
            BlackboxError::Truncated => {
                write!(
                    f,
                    "dump is truncated (ring wrapped); cannot replay bit-exactly"
                )
            }
            BlackboxError::Replay(m) => write!(f, "replay setup failed: {m}"),
        }
    }
}

impl From<prefall_telemetry::wire::WireError> for BlackboxError {
    fn from(e: prefall_telemetry::wire::WireError) -> Self {
        BlackboxError::Format(e.to_string())
    }
}

impl std::error::Error for BlackboxError {}
