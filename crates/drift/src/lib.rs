//! Label-free model and data health monitoring for the pre-impact
//! fall detector.
//!
//! The observability stack can prove the detector is *fast* and
//! *alive*; nothing proves it is still *valid*. QualityMonitor needs
//! ground-truth labels, which a deployed airbag never has — and
//! free-living streams depart sharply from the trial-style training
//! distribution (*Watch Your Step*, Aderinola et al.). This crate is
//! the label-free answer:
//!
//! * [`sketch`] — allocation-bounded streaming sketches whose
//!   accumulators are **integers**, making merges exactly associative
//!   and commutative: per-axis moments plus fixed-bin quantile
//!   histograms, with [`psi`] (Population Stability Index) and
//!   [`quantile_shift`] scoring at query time;
//! * [`fingerprint`] — a [`Fingerprint`] bundles the sketches of one
//!   stream (six raw IMU axes, the window-score distribution, and the
//!   per-branch attribution shares from traced inference), with a
//!   versioned, checksummed `PFDF` byte format so a **reference
//!   fingerprint** built from the training distribution can be
//!   committed and verified bit for bit;
//! * [`monitor`] — [`DriftMonitor`] installs as a
//!   [`DetectorTap`](prefall_core::tap::DetectorTap) (zero heap
//!   allocations per sample after warm-up, proven by the workspace
//!   `noop_overhead` test), scores a two-epoch sliding view against
//!   the reference, and publishes `drift.*` gauges that
//!   `prefall-watch` turns into SLOs;
//! * [`source`] — the [`DriftSource`](prefall_obsd::DriftSource) impl
//!   serving the obsd `/drift` endpoint.
//!
//! # Example
//!
//! ```
//! use prefall_core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
//! use prefall_core::models::ModelKind;
//! use prefall_core::pipeline::PipelineConfig;
//! use prefall_drift::{DriftConfig, DriftMonitor};
//! use prefall_dsp::segment::Overlap;
//! use prefall_dsp::stats::Normalizer;
//!
//! let cfg = DetectorConfig {
//!     pipeline: PipelineConfig::paper(400.0, Overlap::Half),
//!     threshold: 0.5,
//!     consecutive: 3,
//!     guard: GuardConfig::default(),
//! };
//! let window = cfg.pipeline.segmentation.window();
//! let net = ModelKind::ProposedCnn.build(window, 9, 1).unwrap();
//! let mut det = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();
//! let drift = DriftMonitor::install(&mut det, DriftConfig::default());
//! for t in 0..500u64 {
//!     let x = t as f32 * 0.07;
//!     let _ = det.push_sample([0.02 * x.sin(), 0.0, 1.0], [x.cos(), 0.0, 0.0]);
//! }
//! // The accumulated fingerprint can become tomorrow's reference…
//! let fp = drift.fingerprint();
//! assert_eq!(fp.samples(), 500);
//! // …or be scored against one committed from the training set.
//! drift.set_reference(fp);
//! let score = drift.publish_now().unwrap();
//! assert!(score.input_psi < 0.25);
//! ```

#![deny(missing_docs)]

pub mod fingerprint;
pub mod monitor;
pub mod sketch;
pub mod source;

pub use fingerprint::{compare, DriftScore, Fingerprint};
pub use monitor::{DriftConfig, DriftHandle, DriftMonitor};
pub use sketch::{psi, quantile_shift, AxisSketch, FeatureRange};
pub use source::drift_doc;

/// Errors produced while decoding fingerprint bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriftError {
    /// Malformed, truncated or checksum-mismatched fingerprint bytes.
    Format(String),
}

impl std::fmt::Display for DriftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriftError::Format(m) => write!(f, "malformed drift fingerprint: {m}"),
        }
    }
}

impl std::error::Error for DriftError {}

impl From<prefall_telemetry::wire::WireError> for DriftError {
    fn from(e: prefall_telemetry::wire::WireError) -> Self {
        DriftError::Format(e.to_string())
    }
}
