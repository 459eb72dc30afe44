//! Seeded, composable sensor-fault injection for robustness evaluation.
//!
//! Real IMUs drop samples, emit NaN bursts after bus glitches, freeze an
//! axis, clip at the ADC rails, spike, drift in noise, and occasionally
//! lose a whole sensor. Curated datasets contain none of that, so a
//! detector tuned on them can degrade sharply in deployment (*Watch
//! Your Step*, Aderinola et al.). This crate makes those artifacts
//! reproducible:
//!
//! * [`Fault`] — the taxonomy: [`Fault::Dropout`], [`Fault::NanBurst`],
//!   [`Fault::StuckAxis`], [`Fault::Saturation`], [`Fault::Spike`],
//!   [`Fault::Noise`] and [`Fault::Outage`], each with intensity knobs;
//! * [`FaultPlan`] — a seeded composition of faults that corrupts a
//!   [`Trial`] ([`FaultPlan::corrupt_trial`]) or a live sample stream
//!   ([`FaultPlan::stream`]). All randomness is a pure hash of
//!   `(seed, fault, trial, sample)`, so every run reproduces exactly
//!   and corruption at a lower [`FaultPlan::scaled`] intensity is a
//!   *subset* of the corruption at a higher one — degradation curves
//!   swept over intensity are meaningfully monotone;
//! * [`runner`] — streams a faulted trial through a hardened
//!   [`StreamingDetector`], mapping dropped samples onto
//!   [`StreamingDetector::push_missing`];
//! * [`net`] — the transport-level counterpart ([`NetFaultPlan`]):
//!   stalls, partial writes, reorder/duplicate delivery, mid-batch
//!   disconnects and reconnect storms, acted out by the fleet's chaos
//!   test (`crates/fleet/tests/tcp_chaos.rs`).
//!
//! [`Trial`]: prefall_imu::trial::Trial
//! [`StreamingDetector`]: prefall_core::detector::StreamingDetector
//! [`StreamingDetector::push_missing`]: prefall_core::detector::StreamingDetector::push_missing
//!
//! # Example
//!
//! ```
//! use prefall_faults::{Fault, FaultPlan, SampleEvent};
//! use prefall_imu::dataset::Dataset;
//!
//! let ds = Dataset::combined_scaled(0, 1, 7).unwrap();
//! let trial = &ds.trials()[0];
//! let plan = FaultPlan::new(7)
//!     .with(Fault::Dropout { rate: 0.05 })
//!     .with(Fault::NanBurst { rate: 0.01, len: 5 });
//! let events: Vec<SampleEvent> = plan.stream(trial).collect();
//! assert_eq!(events.len(), trial.len());
//! // Same plan, same trial → the exact same corruption.
//! let again: Vec<SampleEvent> = plan.stream(trial).collect();
//! assert_eq!(format!("{events:?}"), format!("{again:?}"));
//! ```

#![deny(missing_docs)]

pub mod net;
pub mod plan;
pub mod runner;
pub mod stream;

pub use net::{NetActions, NetFault, NetFaultPlan};
pub use plan::{Fault, FaultPlan, Sensor};
pub use runner::run_on_faulted_trial;
pub use stream::{FaultStream, SampleEvent};
