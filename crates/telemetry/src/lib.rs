//! Observability layer for the pre-impact fall-detection stack.
//!
//! The paper's headline claim is a latency budget — 4 ms ± 3 ms inference
//! inside a 150 ms airbag-inflation window — and this crate is how the
//! repository measures it. Everything funnels through one object-safe
//! [`Recorder`] trait:
//!
//! * **counters** ([`Recorder::counter_add`]) — monotone totals
//!   (segments produced, windows classified, epochs run);
//! * **gauges** ([`Recorder::gauge_set`]) — last-written values
//!   (current learning rate, model parameter count);
//! * **histograms** ([`Recorder::observe`]) — distributions with
//!   fixed-bucket counts *and* streaming P² quantile estimates
//!   (per-`push_sample` latency, per-stage pipeline timings,
//!   detection lead time before impact);
//! * **events** ([`Recorder::event`]) — structured moments in time
//!   (epoch finished, fold finished, early stopping fired);
//! * **spans** ([`Span`]) — RAII wall-clock timing scopes whose
//!   elapsed time lands in a histogram on drop.
//!
//! The disabled path is honest: [`NoopRecorder::enabled`] returns
//! `false`, [`Span::enter`] therefore never calls
//! [`std::time::Instant::now`], and no method allocates — the
//! MCU-modelled hot path pays one virtual call and a branch. This is
//! asserted by the counting-allocator smoke test in the workspace root
//! (`tests/noop_overhead.rs`).
//!
//! Concrete sinks live in the submodules: an in-memory [`Registry`]
//! with mergeable [`Snapshot`]s, a [`JsonlWriter`] event log,
//! a stderr [`ConsoleRecorder`] for progress lines, and a
//! human-readable summary table ([`summary::render`]).
//!
//! The crate also holds the workspace's codecs — [`JsonValue`] and
//! the bounded binary [`wire`] codec behind all six binary formats.

pub mod env;
pub mod histogram;
pub mod jsonl;
pub mod registry;
pub mod summary;
pub mod wire;

pub use env::TelemetryEnv;
pub use histogram::{Histogram, HistogramSnapshot};
pub use jsonl::{JsonValue, JsonlRecorder, JsonlWriter};
pub use registry::{Registry, RegistryVisitor, Snapshot};

use std::fmt::Debug;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A dynamically typed event-field value, borrowed where possible so
/// emitting an event on an enabled recorder costs at most one small
/// slice allocation at the call site and nothing on the no-op path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(&'a str),
    Bool(bool),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<f32> for Value<'_> {
    fn from(v: f32) -> Self {
        Value::F64(f64::from(v))
    }
}
impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The sink interface every instrumented call site talks to.
///
/// Object-safe on purpose: instrumented structs store
/// `Arc<dyn Recorder>` and hot paths borrow `&dyn Recorder`, so the
/// recording backend is swappable without generics rippling through
/// the stack.
pub trait Recorder: Send + Sync + Debug {
    /// Whether this recorder records anything at all. Call sites use
    /// this to skip *measurement* (not just emission): a `false` here
    /// means spans never read the clock.
    fn enabled(&self) -> bool;

    /// Adds `delta` to the named monotone counter.
    fn counter_add(&self, name: &str, delta: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge_set(&self, name: &str, value: f64);

    /// Records one observation into the named histogram.
    fn observe(&self, name: &str, value: f64);

    /// Emits a structured event.
    fn event(&self, name: &str, fields: &[(&str, Value<'_>)]);

    /// Folds a frozen [`Snapshot`] into this recorder. Parallel workers
    /// aggregate into private [`Registry`] instances and the fork-join
    /// caller merges the per-worker snapshots back, in a deterministic
    /// order, through this method.
    ///
    /// The default implementation replays counters and gauges through
    /// the normal recording interface and **drops histograms** (their
    /// individual observations are gone, so they cannot be replayed).
    /// [`Registry`] overrides this with a full merge that preserves
    /// histogram distributions; [`FanoutRecorder`] forwards to every
    /// sink.
    fn merge_snapshot(&self, snap: &Snapshot) {
        for (name, delta) in &snap.counters {
            self.counter_add(name, *delta);
        }
        for (name, value) in &snap.gauges {
            self.gauge_set(name, *value);
        }
    }
}

/// The always-disabled recorder: every method is a no-op and
/// [`Recorder::enabled`] is `false`, so instrumentation collapses to a
/// virtual call and a predictable branch. No method allocates.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
    #[inline]
    fn counter_add(&self, _name: &str, _delta: u64) {}
    #[inline]
    fn gauge_set(&self, _name: &str, _value: f64) {}
    #[inline]
    fn observe(&self, _name: &str, _value: f64) {}
    #[inline]
    fn event(&self, _name: &str, _fields: &[(&str, Value<'_>)]) {}
    #[inline]
    fn merge_snapshot(&self, _snap: &Snapshot) {}
}

/// The shared no-op recorder, for defaulting `Arc<dyn Recorder>` fields
/// without a fresh allocation per construction.
pub fn noop() -> Arc<dyn Recorder> {
    static NOOP: OnceLock<Arc<dyn Recorder>> = OnceLock::new();
    Arc::clone(NOOP.get_or_init(|| Arc::new(NoopRecorder)))
}

/// An RAII wall-clock timing scope. Created by [`Span::enter`]; on drop
/// it records the elapsed seconds into the recorder's histogram under
/// the span's name. `prefall_trace::trace_span!` is the other span: it
/// writes to the process-global timeline, not to a recorder.
///
/// When the recorder is disabled the span holds no start time — the
/// clock is never read on the disabled path.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct Span<'r> {
    rec: &'r dyn Recorder,
    name: &'r str,
    start: Option<Instant>,
}

impl<'r> Span<'r> {
    /// Opens a timing scope named `name` on `rec`.
    #[inline]
    pub fn enter(rec: &'r dyn Recorder, name: &'r str) -> Self {
        let start = rec.enabled().then(Instant::now);
        Self { rec, name, start }
    }

    /// Ends the scope early, recording now instead of at drop.
    pub fn finish(self) {}
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.rec.observe(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// A recorder that prints events as human-readable progress lines on
/// stderr (and ignores counters, gauges and observations). Compose it
/// with a [`Registry`] through [`FanoutRecorder`] to get both live
/// progress and aggregates.
#[derive(Debug, Default)]
pub struct ConsoleRecorder {
    /// When set, only events whose name starts with one of these
    /// prefixes are printed (keeps per-epoch chatter off the console
    /// while a JSONL or registry sink still sees everything).
    prefixes: Option<Vec<String>>,
}

impl ConsoleRecorder {
    /// Prints every event.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prints only events matching one of the given name prefixes.
    pub fn with_prefixes<I, S>(prefixes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            prefixes: Some(prefixes.into_iter().map(Into::into).collect()),
        }
    }
}

impl Recorder for ConsoleRecorder {
    fn enabled(&self) -> bool {
        true
    }
    fn counter_add(&self, _name: &str, _delta: u64) {}
    fn gauge_set(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}

    fn event(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        if let Some(prefixes) = &self.prefixes {
            if !prefixes.iter().any(|p| name.starts_with(p.as_str())) {
                return;
            }
        }
        let mut line = String::with_capacity(64);
        line.push_str(name);
        for (k, v) in fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            match v {
                Value::U64(x) => line.push_str(&x.to_string()),
                Value::I64(x) => line.push_str(&x.to_string()),
                Value::F64(x) => line.push_str(&format!("{x:.4}")),
                Value::Str(s) => line.push_str(s),
                Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
            }
        }
        eprintln!("[prefall] {line}");
    }
}

/// Broadcasts every call to each inner recorder. Enabled when any
/// inner recorder is.
#[derive(Debug, Default)]
pub struct FanoutRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl FanoutRecorder {
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        Self { sinks }
    }
}

impl Recorder for FanoutRecorder {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
    fn counter_add(&self, name: &str, delta: u64) {
        for s in &self.sinks {
            s.counter_add(name, delta);
        }
    }
    fn gauge_set(&self, name: &str, value: f64) {
        for s in &self.sinks {
            s.gauge_set(name, value);
        }
    }
    fn observe(&self, name: &str, value: f64) {
        for s in &self.sinks {
            s.observe(name, value);
        }
    }
    fn event(&self, name: &str, fields: &[(&str, Value<'_>)]) {
        for s in &self.sinks {
            s.event(name, fields);
        }
    }
    fn merge_snapshot(&self, snap: &Snapshot) {
        for s in &self.sinks {
            s.merge_snapshot(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_span_never_reads_clock() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        let span = Span::enter(&rec, "x");
        assert!(span.start.is_none(), "disabled span must not hold a start");
        drop(span);
    }

    #[test]
    fn enabled_span_records_elapsed() {
        let reg = Registry::new();
        {
            let _g = Span::enter(&reg, "work");
            std::hint::black_box(1 + 1);
        }
        let snap = reg.snapshot();
        let h = snap.histograms.get("work").expect("span recorded");
        assert_eq!(h.count, 1);
        assert!(h.max >= 0.0);
    }

    #[test]
    fn fanout_reaches_all_sinks() {
        let a = Arc::new(Registry::new());
        let b = Arc::new(Registry::new());
        let fan = FanoutRecorder::new(vec![a.clone(), b.clone()]);
        fan.counter_add("c", 2);
        fan.observe("h", 1.0);
        fan.gauge_set("g", 3.5);
        for r in [&a, &b] {
            let s = r.snapshot();
            assert_eq!(s.counters["c"], 2);
            assert_eq!(s.histograms["h"].count, 1);
            assert_eq!(s.gauges["g"], 3.5);
        }
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(1.5f32), Value::F64(1.5));
        assert_eq!(Value::from("s"), Value::Str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
