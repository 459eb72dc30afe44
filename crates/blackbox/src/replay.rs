//! Deterministic incident replay.
//!
//! [`replay`] rebuilds a [`StreamingDetector`] from the model bundle
//! embedded in an [`IncidentDump`] and re-feeds the recorded raw input
//! stream through it, sample by sample, exactly as the original
//! ingest saw it (missing ticks included). The whole stack is
//! deterministic f32 arithmetic — same inputs, same code path, same
//! IEEE-754 operations in the same order — so the replayed score
//! trajectory must match the recorded one *bit for bit*. Any
//! divergence is evidence of a real problem (a changed model, a
//! changed pipeline, or a corrupted dump), which is why the comparison
//! uses [`f32::to_bits`] rather than an epsilon.
//!
//! Dumps whose sample ring wrapped (or that started recording
//! mid-stream) are refused: the IIR filter and fusion state at the
//! first retained sample depends on samples the ring no longer holds,
//! so bit-exactness is unprovable. Such dumps still carry the full
//! decision trace for forensics — they just cannot be re-run.

use crate::dump::IncidentDump;
use crate::BlackboxError;
use prefall_core::detector::{DetectorConfig, StreamingDetector};
use prefall_core::persist::DetectorBundle;

/// First point where a replayed score differed from the recorded one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// Index into [`IncidentDump::windows`].
    pub window: usize,
    /// The score the flight recorder captured.
    pub recorded: f32,
    /// The score the replay produced.
    pub replayed: f32,
}

/// Result of a deterministic replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Ingest events re-fed (delivered and missing).
    pub samples_fed: usize,
    /// Window scores compared against the recording.
    pub windows_compared: usize,
    /// Every replayed score matched the recorded one bit for bit, and
    /// the two runs emitted the same number of windows.
    pub bit_exact: bool,
    /// The first mismatch, when not bit-exact.
    pub divergence: Option<Divergence>,
    /// The replayed arming/decision flags matched the recording on
    /// every window.
    pub trigger_match: bool,
    /// The replayed score trajectory, for side-by-side inspection.
    pub scores: Vec<f32>,
}

/// Rebuilds the detector recorded in `dump` and re-runs the incident.
///
/// # Errors
///
/// * [`BlackboxError::Truncated`] — the dump does not reach back to
///   the stream start, so filter state cannot be reconstructed.
/// * [`BlackboxError::Replay`] — the embedded model bundle fails to
///   parse or the detector rejects the recorded configuration.
pub fn replay(dump: &IncidentDump) -> Result<ReplayReport, BlackboxError> {
    if dump.truncated {
        return Err(BlackboxError::Truncated);
    }
    let bundle = DetectorBundle::from_bytes(&dump.model_blob)
        .map_err(|e| BlackboxError::Replay(format!("embedded bundle: {e}")))?;
    let config = DetectorConfig {
        pipeline: bundle.pipeline,
        threshold: dump.threshold,
        consecutive: dump.consecutive as usize,
        guard: dump.guard_config,
    };
    let mut detector = StreamingDetector::new(bundle.network, bundle.normalizer, config)
        .map_err(|e| BlackboxError::Replay(format!("recorded config rejected: {e}")))?;
    // A fresh detector is exactly the post-`reset()` state the
    // recording started from (the recorder refuses unsynced dumps
    // above), so no state restoration is needed — just re-feed.
    let mut scores = Vec::with_capacity(dump.windows.len());
    let mut divergence = None;
    let mut trigger_match = true;
    for s in &dump.samples {
        let emitted = if s.missing() {
            detector.push_missing()
        } else {
            detector.push_sample(s.accel, s.gyro)
        };
        let Some(p) = emitted else {
            continue;
        };
        let idx = scores.len();
        scores.push(p);
        if let Some(w) = dump.windows.get(idx) {
            if divergence.is_none() && p.to_bits() != w.score.to_bits() {
                divergence = Some(Divergence {
                    window: idx,
                    recorded: w.score,
                    replayed: p,
                });
            }
            let session = detector.session();
            if session.trigger_armed() != w.armed() || session.trigger_decision() != w.decision() {
                trigger_match = false;
            }
        }
    }
    let bit_exact = divergence.is_none() && scores.len() == dump.windows.len();
    Ok(ReplayReport {
        samples_fed: dump.samples.len(),
        windows_compared: scores.len().min(dump.windows.len()),
        bit_exact,
        divergence,
        trigger_match: trigger_match && bit_exact,
        scores,
    })
}
