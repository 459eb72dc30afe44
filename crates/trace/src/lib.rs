//! # prefall-trace — always-on timeline tracing
//!
//! The telemetry crate answers *what happened* (counters, histograms);
//! this crate answers *where the time went*. It is a std-only,
//! allocation-free-after-warmup timeline tracer:
//!
//! * **Fixed-size events** — every [`begin`] / [`end`] / [`instant`]
//!   writes one 16-byte record (monotonic nanosecond timestamp, interned
//!   `u32` name, event kind) into a **thread-local ring buffer** that is
//!   pre-allocated when the thread first traces. After that warm-up, an
//!   armed event performs **zero heap allocations** — the workspace-root
//!   counting-allocator test (`tests/noop_overhead.rs`) proves it on the
//!   streaming detector path.
//! * **Interned names** — span names are interned once (usually at
//!   module init through a `OnceLock`) into [`NameId`]s; the hot path
//!   never hashes or copies strings.
//! * **Disarmed is nearly free** — when [`armed`] is `false` (the
//!   default), every tracing entry point is one relaxed atomic load and
//!   a branch. Arm with [`arm`], stop with [`disarm`].
//! * **Two granularities** — coarse spans (experiment cells, CV folds,
//!   pool tasks, whole forward passes) record whenever armed; per-kernel
//!   spans sit behind the opt-in **detail level** ([`set_detail`],
//!   [`trace_detail_span!`]). An emitted event costs ~2× a monotonic
//!   clock read, which is real money inside a ~10 µs forward pass —
//!   coarse mode keeps the armed streaming detector within its ≤ 3 %
//!   overhead budget, detail mode buys the per-layer decomposition when
//!   you ask for it.
//! * **Drain, don't stream** — [`drain`] snapshots every thread's ring
//!   (oldest event first), clears them, and returns a [`Timeline`] that
//!   renders to Chrome trace-event JSON ([`Timeline::to_chrome_json`],
//!   loadable in Perfetto or `chrome://tracing`) or folds into a
//!   wall-clock [`report::Attribution`].
//!
//! Rings are bounded: when a thread outruns its capacity the oldest
//! events are overwritten and counted in [`ThreadTimeline::dropped`] —
//! tracing never stalls or grows the heap mid-flight.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod report;

use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events) when [`arm`] is given zero.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// An interned span name. Obtain via [`intern`]; cheap to copy and
/// compare, and the only name form the hot path touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(u32);

impl NameId {
    /// The raw interning index (an index into [`Timeline::names`]).
    pub fn index(self) -> u32 {
        self.0
    }
}

/// What one trace event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened.
    Begin,
    /// A span closed.
    End,
    /// A point in time with no duration.
    Instant,
}

const KIND_BEGIN: u8 = 0;
const KIND_END: u8 = 1;
const KIND_INSTANT: u8 = 2;

/// One fixed-size ring record.
#[derive(Debug, Clone, Copy)]
struct Event {
    ts_ns: u64,
    name: u32,
    kind: u8,
}

/// A drained event (kind decoded, timestamps relative to the process
/// trace epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch (first traced event of the
    /// process).
    pub ts_ns: u64,
    /// Interned name; index into [`Timeline::names`].
    pub name: u32,
    /// Begin / end / instant.
    pub kind: EventKind,
}

/// One thread's drained slice of the timeline, oldest event first.
#[derive(Debug, Clone)]
pub struct ThreadTimeline {
    /// Stable per-thread id (registration order, starting at 1).
    pub tid: u32,
    /// The thread's name at registration, or `thread-{tid}`.
    pub label: String,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Events overwritten by ring wraparound since the last drain.
    pub dropped: u64,
}

/// A drained snapshot of every traced thread.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Per-thread event streams (threads with no events are omitted).
    pub threads: Vec<ThreadTimeline>,
    /// The interned-name table; `TraceEvent::name` indexes into it.
    pub names: Vec<String>,
}

impl Timeline {
    /// Total drained events across threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events lost to ring wraparound across threads.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Renders the timeline as Chrome trace-event JSON (the
    /// `{"traceEvents": […]}` object form), loadable in Perfetto and
    /// `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }

    /// Folds the timeline into a per-name / per-thread wall-clock
    /// attribution report.
    pub fn attribution(&self) -> report::Attribution {
        report::attribute(self)
    }
}

// ---------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------

static ARMED: AtomicBool = AtomicBool::new(false);
static DETAIL: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Default)]
struct Interner {
    index: HashMap<String, u32>,
    names: Vec<String>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::default()))
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

#[derive(Debug)]
struct RingBuf {
    events: Vec<Event>,
    /// Next overwrite position once the buffer is full.
    head: usize,
    /// Events overwritten since the last drain.
    dropped: u64,
}

impl RingBuf {
    fn with_capacity(cap: usize) -> Self {
        Self {
            events: Vec::with_capacity(cap.max(1)),
            head: 0,
            dropped: 0,
        }
    }

    /// Empties the ring and sizes it for `cap` events, keeping the
    /// allocation when the size is unchanged (re-arming at the same
    /// capacity then touches no allocator).
    fn reset(&mut self, cap: usize) {
        if self.events.capacity() == cap.max(1) {
            self.events.clear();
            self.head = 0;
            self.dropped = 0;
        } else {
            *self = Self::with_capacity(cap);
        }
    }

    #[inline]
    fn push(&mut self, e: Event) {
        if self.events.len() < self.events.capacity() {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head = (self.head + 1) % self.events.len();
            self.dropped += 1;
        }
    }

    /// Copies the buffered events oldest-first and resets the ring,
    /// keeping its allocation.
    fn drain_ordered(&mut self) -> (Vec<TraceEvent>, u64) {
        let decode = |e: &Event| TraceEvent {
            ts_ns: e.ts_ns,
            name: e.name,
            kind: match e.kind {
                KIND_BEGIN => EventKind::Begin,
                KIND_END => EventKind::End,
                _ => EventKind::Instant,
            },
        };
        let mut out = Vec::with_capacity(self.events.len());
        if self.events.len() == self.events.capacity() && self.head > 0 {
            out.extend(self.events[self.head..].iter().map(decode));
            out.extend(self.events[..self.head].iter().map(decode));
        } else {
            out.extend(self.events.iter().map(decode));
        }
        let dropped = self.dropped;
        self.events.clear();
        self.head = 0;
        self.dropped = 0;
        (out, dropped)
    }
}

#[derive(Debug)]
struct ThreadRing {
    tid: u32,
    label: String,
    buf: Mutex<RingBuf>,
}

thread_local! {
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

fn register_current_thread() -> Arc<ThreadRing> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let label = std::thread::current()
        .name()
        .map(str::to_owned)
        .unwrap_or_else(|| format!("thread-{tid}"));
    let ring = Arc::new(ThreadRing {
        tid,
        label,
        buf: Mutex::new(RingBuf::with_capacity(CAPACITY.load(Ordering::Relaxed))),
    });
    registry()
        .lock()
        .expect("trace registry poisoned")
        .push(Arc::clone(&ring));
    ring
}

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

/// Whether events are currently being recorded. The disarmed fast path
/// of every tracing entry point is this load plus a branch.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Starts recording. `capacity_per_thread` sizes each thread's ring in
/// events (`0` keeps [`DEFAULT_CAPACITY`]); rings of already-registered
/// threads are cleared and resized, so arming is also a reset.
pub fn arm(capacity_per_thread: usize) {
    let cap = if capacity_per_thread == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity_per_thread
    };
    CAPACITY.store(cap, Ordering::Relaxed);
    for ring in registry().lock().expect("trace registry poisoned").iter() {
        ring.buf.lock().expect("trace ring poisoned").reset(cap);
    }
    // Initialise the epoch before the first event so early timestamps
    // don't race the OnceLock.
    let _ = epoch();
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops recording (and drops back out of detail mode). Buffered
/// events stay drainable.
pub fn disarm() {
    ARMED.store(false, Ordering::Relaxed);
    DETAIL.store(false, Ordering::Relaxed);
}

/// Whether per-kernel detail spans ([`trace_detail_span!`]) are
/// currently recording. Always `false` while disarmed.
#[inline]
pub fn detailed() -> bool {
    DETAIL.load(Ordering::Relaxed) && armed()
}

/// Switches per-kernel detail spans on or off (requires [`arm`] to have
/// any effect). Coarse armed mode costs ~2 spans per classified window
/// on the streaming detector; detail mode adds a span per layer/kernel
/// inside the forward pass — an order of magnitude more events and the
/// reason it is opt-in.
pub fn set_detail(on: bool) {
    DETAIL.store(on, Ordering::Relaxed);
}

/// Interns `name`, returning a stable [`NameId`]. Repeated calls with
/// the same string return the same id. This allocates — call it at
/// setup (e.g. from a `OnceLock` initialiser), not per event.
pub fn intern(name: &str) -> NameId {
    let mut inner = interner().lock().expect("trace interner poisoned");
    if let Some(&id) = inner.index.get(name) {
        return NameId(id);
    }
    let id = u32::try_from(inner.names.len()).expect("interned name table overflow");
    inner.names.push(name.to_owned());
    inner.index.insert(name.to_owned(), id);
    NameId(id)
}

#[inline]
fn emit(name: NameId, kind: u8) {
    if !armed() {
        return;
    }
    let ts_ns = epoch().elapsed().as_nanos() as u64;
    RING.with(|cell| {
        let ring = cell.get_or_init(register_current_thread);
        ring.buf.lock().expect("trace ring poisoned").push(Event {
            ts_ns,
            name: name.index(),
            kind,
        });
    });
}

/// Marks the start of a span on the current thread.
#[inline]
pub fn begin(name: NameId) {
    emit(name, KIND_BEGIN);
}

/// Marks the end of a span on the current thread.
#[inline]
pub fn end(name: NameId) {
    emit(name, KIND_END);
}

/// Marks an instantaneous point on the current thread.
#[inline]
pub fn instant(name: NameId) {
    emit(name, KIND_INSTANT);
}

/// RAII span: emits a begin on construction and the matching end on
/// drop. If tracing is disarmed between the two, the end is still
/// suppressed by the armed check, so a later drain sees at worst an
/// unmatched begin — which [`report::attribute`] tolerates.
#[must_use = "a trace span ends on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    name: NameId,
    live: bool,
}

impl SpanGuard {
    /// Opens a span (no-op when disarmed).
    #[inline]
    pub fn enter(name: NameId) -> Self {
        let live = armed();
        if live {
            begin(name);
        }
        Self { name, live }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.live {
            end(self.name);
        }
    }
}

/// Opens a [`SpanGuard`] without evaluating the name expression when
/// tracing is disarmed — use this on hot paths where even the lazy
/// `OnceLock` name lookup should be skipped:
///
/// ```ignore
/// let _g = prefall_trace::trace_span!(names().conv);
/// ```
#[macro_export]
macro_rules! trace_span {
    ($id:expr) => {
        if $crate::armed() {
            Some($crate::SpanGuard::enter($id))
        } else {
            None
        }
    };
}

/// Like [`trace_span!`], but the span only records in detail mode
/// ([`set_detail`]) — use it for per-kernel spans inside hot loops
/// where coarse armed tracing must stay within its overhead budget.
#[macro_export]
macro_rules! trace_detail_span {
    ($id:expr) => {
        if $crate::detailed() {
            Some($crate::SpanGuard::enter($id))
        } else {
            None
        }
    };
}

/// Drains every thread's ring: events are returned oldest-first per
/// thread, rings are cleared (capacity kept), and threads that recorded
/// nothing since the last drain are omitted. Safe to call while armed —
/// events racing the drain land in the next one.
pub fn drain() -> Timeline {
    let names = interner()
        .lock()
        .expect("trace interner poisoned")
        .names
        .clone();
    let mut threads = Vec::new();
    for ring in registry().lock().expect("trace registry poisoned").iter() {
        let (events, dropped) = ring
            .buf
            .lock()
            .expect("trace ring poisoned")
            .drain_ordered();
        if events.is_empty() && dropped == 0 {
            continue;
        }
        threads.push(ThreadTimeline {
            tid: ring.tid,
            label: ring.label.clone(),
            events,
            dropped,
        });
    }
    threads.sort_by_key(|t| t.tid);
    Timeline { threads, names }
}

/// The most recently drained trace, rendered as Chrome JSON — the
/// hand-off point between whatever drains (a profile run, an example)
/// and the `prefall-obsd` `/trace` endpoint that serves it.
#[derive(Debug, Default)]
pub struct LastTrace {
    json: Mutex<Option<String>>,
}

impl LastTrace {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the stored trace.
    pub fn store(&self, chrome_json: String) {
        *self.json.lock().expect("last-trace poisoned") = Some(chrome_json);
    }

    /// The stored trace, if any drain has been published yet.
    pub fn latest(&self) -> Option<String> {
        self.json.lock().expect("last-trace poisoned").clone()
    }
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_records_nothing() {
        let _guard = test_lock();
        disarm();
        let before = drain().event_count();
        assert_eq!(before, 0, "pre-drain leaves rings empty");
        let a = intern("noop.span");
        begin(a);
        end(a);
        instant(a);
        let _g = trace_span!(intern("noop.guard"));
        assert_eq!(drain().event_count(), 0);
    }

    #[test]
    fn begin_end_round_trips_through_drain() {
        let _guard = test_lock();
        arm(1024);
        let work = intern("test.work");
        let mark = intern("test.mark");
        begin(work);
        instant(mark);
        end(work);
        disarm();
        let tl = drain();
        let my: Vec<&TraceEvent> = tl
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.name == work.index() || e.name == mark.index())
            .collect();
        assert_eq!(my.len(), 3);
        assert_eq!(my[0].kind, EventKind::Begin);
        assert_eq!(my[1].kind, EventKind::Instant);
        assert_eq!(my[2].kind, EventKind::End);
        assert!(my[0].ts_ns <= my[1].ts_ns && my[1].ts_ns <= my[2].ts_ns);
        assert_eq!(tl.names[work.index() as usize], "test.work");
        // A second drain is empty.
        assert_eq!(drain().event_count(), 0);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let _guard = test_lock();
        arm(8);
        let name = intern("test.wrap");
        for _ in 0..20 {
            instant(name);
        }
        disarm();
        let tl = drain();
        let t = tl
            .threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == name.index()))
            .expect("this thread drained");
        assert_eq!(t.events.len(), 8, "ring keeps exactly its capacity");
        assert_eq!(t.dropped, 12);
        for pair in t.events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns, "oldest-first order");
        }
    }

    #[test]
    fn detail_spans_gate_on_the_detail_level() {
        let _guard = test_lock();
        arm(256);
        let fine = intern("test.detail");
        {
            let _g = trace_detail_span!(fine);
        }
        assert!(!detailed(), "arming alone must not enable detail");
        set_detail(true);
        assert!(detailed());
        {
            let _g = trace_detail_span!(fine);
        }
        disarm();
        assert!(!detailed(), "disarm drops detail too");
        let tl = drain();
        let fine_events = tl
            .threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.name == fine.index())
            .count();
        assert_eq!(fine_events, 2, "only the detail-enabled span recorded");
    }

    #[test]
    fn intern_is_stable_and_deduplicating() {
        let a = intern("stable.name");
        let b = intern("stable.name");
        let c = intern("stable.other");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn last_trace_stores_and_serves() {
        let store = LastTrace::new();
        assert!(store.latest().is_none());
        store.store("{\"traceEvents\":[]}".to_string());
        assert_eq!(store.latest().as_deref(), Some("{\"traceEvents\":[]}"));
    }
}
