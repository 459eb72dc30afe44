//! Pre-impact fall detection: the paper's primary contribution.
//!
//! This crate ties the substrates together into the method of
//! *A Lightweight CNN for Real-Time Pre-Impact Fall Detection*
//! (DATE 2025):
//!
//! * [`pipeline`] — §III-A preprocessing: 4th-order Butterworth low-pass
//!   (5 Hz), sliding-window segmentation, per-channel normalisation, and
//!   the **150 ms label policy** (the falling class ends 150 ms before
//!   impact — the airbag inflation budget).
//! * [`augment`] — §III-C data augmentation: time warping and window
//!   warping of falling segments.
//! * [`models`] — §III-B the proposed three-branch lightweight CNN and
//!   the paper's baselines (MLP, LSTM, ConvLSTM2D).
//! * [`metrics`] — segment-level Accuracy/Precision/Recall/F1 (Table III
//!   reports macro-averaged scores).
//! * [`cv`] — §III-C subject-independent k-fold cross-validation with a
//!   held-out validation subject group, class weights and output-bias
//!   initialisation.
//! * [`events`] — §IV-B event-level analysis (Table IV): missed falls
//!   and per-ADL false activations, with the red/green risk grouping.
//! * [`threshold`] — the threshold-based detector family of Table I
//!   (refs \[10\], \[11\]) as a comparison point.
//! * [`tuning`] — ROC/AUC analysis and the event-level FP-minimising
//!   operating-point search (§IV-B).
//! * [`persist`] — save/load trained detector bundles (weights +
//!   normaliser + preprocessing configuration).
//! * [`detector`] — the real-time streaming detector and the airbag
//!   trigger controller (150 ms inflation model).
//! * [`session`] — the fleet split of the detector: a shared immutable
//!   `ModelBundle` plus compact poolable `Session`s with tick-sequenced
//!   ingest and crash-safe checkpointing (used by `prefall-fleet`).
//! * [`tap`] — per-sample observation hooks on the detector's ingest
//!   path (used by the `prefall-blackbox` flight recorder).
//! * [`phases`] — Fig. 1: fall-stage annotation of a trial.
//! * [`experiment`] — reproducible experiment orchestration used by the
//!   benchmark binaries.
//!
//! # Example
//!
//! ```
//! use prefall_core::pipeline::{Pipeline, PipelineConfig};
//! use prefall_imu::dataset::Dataset;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = Dataset::combined_scaled(1, 1, 7)?;
//! let pipeline = Pipeline::new(PipelineConfig::paper_400ms())?;
//! let set = pipeline.segment_set(dataset.trials());
//! assert!(set.x.len() > 100);
//! // A small minority of segments are falling — the imbalance the
//! // paper fights with class weights and augmentation.
//! let positives = set.y.iter().filter(|&&y| y > 0.5).count();
//! assert!(positives > 0 && positives < set.y.len() / 8);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod augment;
pub mod cache;
pub mod cv;
pub mod detector;
pub mod events;
pub mod experiment;
pub mod metrics;
pub mod models;
pub mod monitor;
pub mod persist;
pub mod phases;
pub mod pipeline;
pub mod session;
pub mod tap;
pub mod threshold;
pub mod tuning;

mod error;
mod tracenames;
mod worker;

pub use error::CoreError;
/// The one checksum behind every checksummed binary format (session
/// checkpoints, PFDF fingerprints) and the PFBB content hashes.
pub use prefall_telemetry::wire::fnv1a64;
