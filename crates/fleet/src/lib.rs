//! Fault-tolerant multi-stream detector serving.
//!
//! One process, one immutable model, thousands of wearers: this crate
//! turns the single-stream detector of `prefall-core` into a fleet
//! server. The refactored core split — [`ModelBundle`] (shared,
//! immutable weights + normaliser + filter prototype) plus compact
//! poolable [`Session`]s (per-wearer filters, window, guard,
//! workspace) — is what makes that cheap: a
//! session is a few kilobytes of reusable buffers, and inference runs
//! against the shared bundle without copying the network.
//!
//! * [`Fleet`] — the sharded session registry. Batches are grouped by
//!   shard and processed across the `prefall-par` pool
//!   ([`Fleet::ingest_many`]), each shard serving its wearers in input
//!   order so results are deterministic for any thread count.
//! * [`protocol`] — the ingest wire format: tick-sequenced binary
//!   batches whose sequence numbers make delivery idempotent
//!   (duplicates recognised, reorders tolerated, gaps bridged by the
//!   sample guard).
//! * [`server`] — a hand-rolled TCP ingest endpoint on the shared
//!   `prefall-obsd` HTTP plumbing: per-connection deadlines, a bounded
//!   accept queue, `429 + Retry-After` backpressure with exponential
//!   backoff hints.
//! * Load shedding: past [`FleetConfig::shed_at`] in-flight work the
//!   fleet keeps every session's guard, filters and window advancing
//!   but skips inference, and triggering degrades to the
//!   accel-confirmed-only policy
//!   ([`Session::shed_trigger`](prefall_core::session::Session::shed_trigger))
//!   — an honest degraded mode, counted per window, instead of
//!   silently dropping wearers.
//! * Supervision: [`Fleet::reap_idle`] (or the background
//!   [`Supervisor`]) parks stalled sessions as crash-safe
//!   [`SessionCheckpoint`]s and recycles their buffers through a
//!   per-shard free list — a
//!   reconnecting wearer resumes with a warm window, and steady-state
//!   churn allocates nothing.
//!
//! # Example
//!
//! ```
//! use prefall_core::detector::{DetectorConfig, GuardConfig};
//! use prefall_core::models::ModelKind;
//! use prefall_core::pipeline::PipelineConfig;
//! use prefall_core::session::ModelBundle;
//! use prefall_dsp::segment::Overlap;
//! use prefall_dsp::stats::Normalizer;
//! use prefall_fleet::{BatchSample, Fleet, FleetConfig, IngestBatch, IngestStatus};
//!
//! let cfg = DetectorConfig {
//!     pipeline: PipelineConfig::paper(400.0, Overlap::Half),
//!     threshold: 0.5,
//!     consecutive: 3,
//!     guard: GuardConfig::default(),
//! };
//! let window = cfg.pipeline.segmentation.window();
//! let net = ModelKind::ProposedCnn.build(window, 9, 1).unwrap();
//! let bundle = ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap();
//! let fleet = Fleet::new(bundle, FleetConfig::default());
//!
//! let batch = IngestBatch {
//!     wearer: 1,
//!     seq: 0,
//!     samples: (0..10)
//!         .map(|_| BatchSample::Sample {
//!             accel: [0.01, -0.02, 1.0],
//!             gyro: [0.0, 0.1, 0.0],
//!         })
//!         .collect(),
//! };
//! let reply = fleet.ingest_one(&batch);
//! assert_eq!(reply.status, IngestStatus::Accepted);
//! assert_eq!(reply.next_seq, 10);
//! // Re-delivering the same batch is recognised, not re-applied.
//! assert_eq!(fleet.ingest_one(&batch).status, IngestStatus::Duplicate);
//! ```

#![deny(missing_docs)]

pub mod protocol;
pub mod server;

pub use protocol::{BatchSample, IngestBatch, IngestReply, IngestStatus};
pub use server::FleetServer;

use prefall_core::session::{ModelBundle, Session, SessionCheckpoint};
use prefall_core::CoreError;
use prefall_drift::{compare, drift_doc, Fingerprint};
use prefall_obsd::DriftSource;
use prefall_par::Pool;
use prefall_telemetry::{JsonValue, Recorder};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fleet sizing, backpressure thresholds and supervision cadence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Session-registry shards (each its own lock + free list).
    pub shards: usize,
    /// Worker-thread override for [`Fleet::ingest_many`]; `None` reads
    /// `PREFALL_THREADS` / available parallelism (see `prefall-par`).
    pub threads: Option<usize>,
    /// Total active-session capacity; a new wearer past this is
    /// rejected with a retry hint instead of evicting someone else.
    pub max_sessions: usize,
    /// Total parked-checkpoint capacity; oldest checkpoints evict
    /// first, so memory stays bounded under reconnect churn.
    pub max_parked: usize,
    /// In-flight pressure at which ingest degrades to shed
    /// (accel-confirm-only) mode.
    pub shed_at: usize,
    /// In-flight pressure at which new requests are refused with
    /// `429 + Retry-After` rather than queued.
    pub reject_at: usize,
    /// Accepted-but-unserved connections the ingest server queues
    /// before answering `429` at accept time.
    pub queue_cap: usize,
    /// Connection-serving worker threads in the ingest server.
    pub conn_workers: usize,
    /// Wall-clock budget for one request/response exchange on an
    /// ingest connection (slowloris bound).
    pub conn_deadline: Duration,
    /// Base `Retry-After` hint in milliseconds; consecutive rejections
    /// on one connection double it (capped at 64×).
    pub retry_after_ms: u64,
    /// Largest request body the ingest server accepts.
    pub max_body: usize,
    /// Idle time after which the supervisor parks a session.
    pub idle_timeout: Duration,
    /// How often the supervisor sweeps.
    pub supervise_interval: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            threads: None,
            max_sessions: 1024,
            max_parked: 1024,
            shed_at: 8,
            reject_at: 64,
            queue_cap: 128,
            conn_workers: 4,
            conn_deadline: Duration::from_secs(5),
            retry_after_ms: 250,
            max_body: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            supervise_interval: Duration::from_secs(1),
        }
    }
}

/// One wearer's live session plus its supervision bookkeeping.
struct Slot {
    session: Session,
    last_used: Instant,
    /// Per-wearer drift fingerprint (raw inputs + window scores).
    /// Fleet sessions run untapped, so the attribution-share section
    /// stays empty and contributes zero PSI by design. The sketch is
    /// heap-free, so slots keep their zero-steady-state-allocation
    /// property.
    sketch: Fingerprint,
}

/// One registry shard: its own lock, active map, recycled-session free
/// list, and bounded parked-checkpoint store.
struct Shard {
    active: HashMap<u64, Slot>,
    free: Vec<Session>,
    parked: HashMap<u64, SessionCheckpoint>,
    parked_order: VecDeque<u64>,
    /// Reused per-batch probability scratch, so steady-state ingest
    /// does not allocate inside the shard lock.
    scratch: Vec<f32>,
    /// Drift evidence of wearers whose sessions were parked or
    /// recycled, merged in [`Fleet::reap_idle`] so the fleet-wide
    /// fingerprint never forgets samples it already saw.
    retired: Fingerprint,
}

impl Shard {
    fn new() -> Self {
        Self {
            active: HashMap::new(),
            free: Vec::new(),
            parked: HashMap::new(),
            parked_order: VecDeque::new(),
            scratch: Vec::new(),
            retired: Fingerprint::new(),
        }
    }
}

/// Monotone totals mirrored into the recorder as `fleet.*` counters.
#[derive(Default)]
struct Totals {
    batches: AtomicU64,
    windows: AtomicU64,
    shed_windows: AtomicU64,
    shed_batches: AtomicU64,
    duplicates: AtomicU64,
    rejected: AtomicU64,
    conn_timeouts: AtomicU64,
    reaped: AtomicU64,
    resumed: AtomicU64,
    created: AtomicU64,
    evicted: AtomicU64,
}

/// Aggregated fleet state for `/fleet` and the fleet tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    /// Wearers with a live session.
    pub sessions_active: usize,
    /// Recycled sessions waiting on free lists.
    pub sessions_free: usize,
    /// Parked checkpoints awaiting a reconnect.
    pub sessions_parked: usize,
    /// Sessions ever allocated (free-list misses).
    pub sessions_created: u64,
    /// Batches ingested.
    pub batches: u64,
    /// Windows classified.
    pub windows: u64,
    /// Window boundaries crossed without inference (shed mode).
    pub shed_windows: u64,
    /// Batches served in shed mode.
    pub shed_batches: u64,
    /// Batches recognised as idempotent re-deliveries.
    pub duplicates: u64,
    /// Batches refused for capacity (fleet-level, not transport 429s).
    pub rejected: u64,
    /// Ingest connections cut at the per-connection deadline.
    pub conn_timeouts: u64,
    /// Sessions parked by the supervisor.
    pub reaped: u64,
    /// Sessions resumed warm from a parked checkpoint.
    pub resumed: u64,
    /// Parked checkpoints evicted by the [`FleetConfig::max_parked`]
    /// bound.
    pub checkpoints_evicted: u64,
    /// High-water mark of the ingest server's accept queue.
    pub queue_depth_hw: usize,
    /// Current in-flight pressure.
    pub pressure: usize,
}

impl FleetStats {
    /// The stats as the `/fleet` JSON document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            (
                "sessions_active".to_string(),
                JsonValue::U64(self.sessions_active as u64),
            ),
            (
                "sessions_free".to_string(),
                JsonValue::U64(self.sessions_free as u64),
            ),
            (
                "sessions_parked".to_string(),
                JsonValue::U64(self.sessions_parked as u64),
            ),
            (
                "sessions_created".to_string(),
                JsonValue::U64(self.sessions_created),
            ),
            ("batches".to_string(), JsonValue::U64(self.batches)),
            ("windows".to_string(), JsonValue::U64(self.windows)),
            (
                "shed_windows".to_string(),
                JsonValue::U64(self.shed_windows),
            ),
            (
                "shed_batches".to_string(),
                JsonValue::U64(self.shed_batches),
            ),
            ("duplicates".to_string(), JsonValue::U64(self.duplicates)),
            ("rejected".to_string(), JsonValue::U64(self.rejected)),
            (
                "conn_timeouts".to_string(),
                JsonValue::U64(self.conn_timeouts),
            ),
            ("reaped".to_string(), JsonValue::U64(self.reaped)),
            ("resumed".to_string(), JsonValue::U64(self.resumed)),
            (
                "checkpoints_evicted".to_string(),
                JsonValue::U64(self.checkpoints_evicted),
            ),
            (
                "queue_depth_hw".to_string(),
                JsonValue::U64(self.queue_depth_hw as u64),
            ),
            ("pressure".to_string(), JsonValue::U64(self.pressure as u64)),
        ])
    }
}

/// The sharded multi-stream session registry.
pub struct Fleet {
    bundle: ModelBundle,
    cfg: FleetConfig,
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    parked_per_shard: usize,
    pool: Pool,
    rec: Arc<dyn Recorder>,
    totals: Totals,
    pressure: AtomicUsize,
    queue_depth_hw: AtomicUsize,
    drift: Mutex<DriftRef>,
}

/// The committed drift reference (if any) and its alarm ceiling.
struct DriftRef {
    reference: Option<Fingerprint>,
    alarm_psi: f64,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("shards", &self.shards.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

/// Decrements the fleet's in-flight pressure on drop. Hold one across
/// each unit of externally-driven work (the ingest server holds one
/// per queued-or-serving request).
pub struct PressureGuard<'a> {
    fleet: &'a Fleet,
}

impl Drop for PressureGuard<'_> {
    fn drop(&mut self) {
        self.fleet.pressure.fetch_sub(1, Ordering::Relaxed);
    }
}

fn shard_hash(wearer: u64) -> u64 {
    // splitmix64 finaliser: wearer IDs are often sequential, and this
    // spreads them evenly over any shard count.
    let mut z = wearer.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Fleet {
    /// Builds a fleet over one shared model. Shard and capacity knobs
    /// are clamped to at least one.
    pub fn new(bundle: ModelBundle, cfg: FleetConfig) -> Self {
        let shards = cfg.shards.max(1);
        let per_shard_cap = cfg.max_sessions.max(1).div_ceil(shards);
        let parked_per_shard = cfg.max_parked / shards;
        Self {
            bundle,
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_cap,
            parked_per_shard,
            pool: Pool::with_override(cfg.threads),
            rec: prefall_telemetry::noop(),
            totals: Totals::default(),
            pressure: AtomicUsize::new(0),
            queue_depth_hw: AtomicUsize::new(0),
            drift: Mutex::new(DriftRef {
                reference: None,
                alarm_psi: prefall_drift::DriftConfig::default().alarm_psi,
            }),
            cfg,
        }
    }

    /// Attaches a telemetry recorder; `fleet.*` counters and gauges
    /// mirror the internal totals from here on.
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.rec = rec;
    }

    /// The configuration the fleet was built with.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The shared model bundle.
    pub fn bundle(&self) -> &ModelBundle {
        &self.bundle
    }

    fn bump(&self, field: &AtomicU64, name: &str, delta: u64) {
        if delta > 0 {
            field.fetch_add(delta, Ordering::Relaxed);
            self.rec.counter_add(name, delta);
        }
    }

    /// Raises in-flight pressure by one until the guard drops.
    pub fn pressure_guard(&self) -> PressureGuard<'_> {
        self.pressure.fetch_add(1, Ordering::Relaxed);
        PressureGuard { fleet: self }
    }

    /// Manual pressure accounting for the ingest server, where the
    /// raise (accept thread) and release (worker after the connection
    /// closes) happen on different threads.
    pub(crate) fn pressure_inc(&self) {
        self.pressure.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn pressure_dec(&self) {
        self.pressure.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts an ingest connection cut at its deadline.
    pub fn note_conn_timeout(&self) {
        self.bump(&self.totals.conn_timeouts, "fleet.conn_timeouts", 1);
    }

    /// Records one request's ingest latency into the
    /// `fleet.ingest_seconds` histogram (the p99 SLO series).
    pub fn observe_ingest(&self, seconds: f64) {
        self.rec.observe("fleet.ingest_seconds", seconds);
    }

    /// Current in-flight pressure.
    pub fn pressure(&self) -> usize {
        self.pressure.load(Ordering::Relaxed)
    }

    /// Whether ingest should run in shed (accel-confirm-only) mode.
    pub fn should_shed(&self) -> bool {
        self.pressure() >= self.cfg.shed_at
    }

    /// Whether new work should be refused outright with a retry hint.
    pub fn should_reject(&self) -> bool {
        self.pressure() >= self.cfg.reject_at
    }

    /// Records the ingest server's current accept-queue depth
    /// (tracks the high-water mark and the `fleet.queue_depth` gauge).
    pub fn note_queue_depth(&self, depth: usize) {
        self.queue_depth_hw.fetch_max(depth, Ordering::Relaxed);
        self.rec.gauge_set("fleet.queue_depth", depth as f64);
    }

    fn shard_index(&self, wearer: u64) -> usize {
        (shard_hash(wearer) % self.shards.len() as u64) as usize
    }

    /// Ingests one batch on the calling thread (the ingest server's
    /// per-request path). Shed mode follows the current pressure.
    pub fn ingest_one(&self, batch: &IngestBatch) -> IngestReply {
        let shed = self.should_shed();
        let mut shard = self.shards[self.shard_index(batch.wearer)]
            .lock()
            .expect("shard lock");
        self.process_batch(&mut shard, batch, shed)
    }

    /// Ingests a slice of batches, sharded across the worker pool.
    ///
    /// Batches for the same wearer are served in slice order; replies
    /// come back in slice order; and because each shard's work is a
    /// pure function of its own sessions plus the immutable bundle,
    /// the replies are **identical for any thread count**.
    pub fn ingest_many(&self, batches: &[IngestBatch]) -> Vec<IngestReply> {
        self.ingest_many_with(batches, self.should_shed())
    }

    /// [`Fleet::ingest_many`] with shed mode forced on or off — the
    /// deterministic entry point for tests and benches.
    pub fn ingest_many_with(&self, batches: &[IngestBatch], shed: bool) -> Vec<IngestReply> {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut by_shard: HashMap<usize, usize> = HashMap::new();
        for (i, b) in batches.iter().enumerate() {
            let s = self.shard_index(b.wearer);
            let g = *by_shard.entry(s).or_insert_with(|| {
                groups.push((s, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(i);
        }
        let per_group: Vec<Vec<(usize, IngestReply)>> =
            self.pool.map(&groups, |_, (shard_idx, idxs)| {
                let mut shard = self.shards[*shard_idx].lock().expect("shard lock");
                idxs.iter()
                    .map(|&i| (i, self.process_batch(&mut shard, &batches[i], shed)))
                    .collect()
            });
        let mut out: Vec<Option<IngestReply>> = vec![None; batches.len()];
        for group in per_group {
            for (i, reply) in group {
                out[i] = Some(reply);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every batch processed"))
            .collect()
    }

    /// Serves one batch against one locked shard. All session
    /// acquisition (resume from parked, recycle from the free list,
    /// fresh allocation, capacity rejection) happens here.
    fn process_batch(&self, shard: &mut Shard, batch: &IngestBatch, shed: bool) -> IngestReply {
        let wearer = batch.wearer;
        self.bump(&self.totals.batches, "fleet.batches", 1);
        if shed {
            self.bump(&self.totals.shed_batches, "fleet.shed_batches", 1);
        }

        if !shard.active.contains_key(&wearer) {
            if let Some(ck) = shard.parked.remove(&wearer) {
                shard.parked_order.retain(|w| *w != wearer);
                let mut session = match shard.free.pop() {
                    Some(s) => s,
                    None => {
                        self.bump(&self.totals.created, "fleet.sessions_created", 1);
                        self.bundle.new_session()
                    }
                };
                if session.restore(&ck).is_ok() {
                    self.bump(&self.totals.resumed, "fleet.resumed", 1);
                } else {
                    // A checkpoint from an incompatible configuration:
                    // start the wearer cold rather than corrupt state.
                    session.reset();
                }
                shard.active.insert(
                    wearer,
                    Slot {
                        session,
                        last_used: Instant::now(),
                        sketch: Fingerprint::new(),
                    },
                );
            } else if shard.active.len() >= self.per_shard_cap {
                self.bump(&self.totals.rejected, "fleet.rejected", 1);
                return IngestReply {
                    wearer,
                    status: IngestStatus::Rejected,
                    next_seq: 0,
                    windows: 0,
                    shed_windows: 0,
                    shed,
                    trigger: false,
                    regressed: false,
                    probs_bits: Vec::new(),
                };
            } else {
                let session = match shard.free.pop() {
                    Some(s) => s,
                    None => {
                        self.bump(&self.totals.created, "fleet.sessions_created", 1);
                        self.bundle.new_session()
                    }
                };
                shard.active.insert(
                    wearer,
                    Slot {
                        session,
                        last_used: Instant::now(),
                        sketch: Fingerprint::new(),
                    },
                );
            }
        }

        let slot = shard.active.get_mut(&wearer).expect("session just ensured");
        slot.last_used = Instant::now();
        let session = &mut slot.session;

        let n = batch.samples.len() as u64;
        if n > 0 && batch.seq.saturating_add(n) <= session.next_tick() {
            // Every tick already consumed: idempotent re-delivery.
            self.bump(&self.totals.duplicates, "fleet.duplicates", 1);
            return IngestReply {
                wearer,
                status: IngestStatus::Duplicate,
                next_seq: session.next_tick(),
                windows: 0,
                shed_windows: 0,
                shed,
                trigger: if shed {
                    session.shed_trigger()
                } else {
                    session.trigger_decision()
                },
                regressed: false,
                probs_bits: Vec::new(),
            };
        }

        let mut windows = 0u64;
        let mut shed_windows = 0u64;
        let mut regressed = false;
        shard.scratch.clear();
        for (i, s) in batch.samples.iter().enumerate() {
            let tick = batch.seq + i as u64;
            match *s {
                BatchSample::Missing => {
                    // Explicit device-side gap markers are consumed in
                    // arrival order; the grid advances by one.
                    if let Some(p) = session.push_missing(&self.bundle) {
                        shard.scratch.push(p);
                        windows += 1;
                    }
                }
                BatchSample::Sample { accel, gyro } => {
                    // Fold only fresh ticks into the drift sketch:
                    // overlapping re-deliveries must not double-weight
                    // the distribution (decided *before* the push,
                    // which advances the grid).
                    let fresh = tick >= session.next_tick();
                    if shed {
                        let o = session.push_at_shed(&self.bundle, tick, accel, gyro);
                        windows += o.windows as u64;
                        shed_windows += o.shed_windows as u64;
                        regressed |= o.regressed;
                    } else {
                        let o =
                            session.push_at(&self.bundle, tick, accel, gyro, &mut shard.scratch);
                        windows += o.windows as u64;
                        shed_windows += o.shed_windows as u64;
                        regressed |= o.regressed;
                    }
                    if fresh {
                        slot.sketch.observe_sample(accel, gyro);
                    }
                }
            }
        }
        // Window scores (gap-fill windows included — they are real
        // classifier outputs) feed the score-distribution sketch.
        for &p in shard.scratch.iter() {
            slot.sketch.observe_score(p);
        }
        self.bump(&self.totals.windows, "fleet.windows", windows);
        self.bump(
            &self.totals.shed_windows,
            "fleet.shed_windows",
            shed_windows,
        );

        IngestReply {
            wearer,
            status: IngestStatus::Accepted,
            next_seq: session.next_tick(),
            windows,
            shed_windows,
            shed,
            trigger: if shed {
                session.shed_trigger()
            } else {
                session.trigger_decision()
            },
            regressed,
            probs_bits: shard.scratch.iter().map(|p| p.to_bits()).collect(),
        }
    }

    /// Parks every session idle for at least `idle_for`: the session's
    /// full state becomes a bounded parked checkpoint and its buffers
    /// return to the shard free list for reuse. Returns how many were
    /// parked.
    pub fn reap_idle(&self, idle_for: Duration) -> usize {
        let now = Instant::now();
        let mut reaped = 0usize;
        for shard in &self.shards {
            let mut s = shard.lock().expect("shard lock");
            let expired: Vec<u64> = s
                .active
                .iter()
                .filter(|(_, slot)| {
                    now.checked_duration_since(slot.last_used)
                        .is_some_and(|idle| idle >= idle_for)
                })
                .map(|(w, _)| *w)
                .collect();
            for wearer in expired {
                let mut slot = s.active.remove(&wearer).expect("listed above");
                // The wearer's drift evidence outlives the session:
                // merged into the shard accumulator before recycling.
                s.retired.merge(&slot.sketch);
                if self.parked_per_shard > 0 {
                    let ck = slot.session.checkpoint();
                    if s.parked.insert(wearer, ck).is_none() {
                        s.parked_order.push_back(wearer);
                    }
                    while s.parked.len() > self.parked_per_shard {
                        match s.parked_order.pop_front() {
                            Some(old) => {
                                if s.parked.remove(&old).is_some() {
                                    self.bump(&self.totals.evicted, "fleet.checkpoints_evicted", 1);
                                }
                            }
                            None => break,
                        }
                    }
                }
                slot.session.reset();
                s.free.push(slot.session);
                reaped += 1;
            }
        }
        self.bump(&self.totals.reaped, "fleet.reaped", reaped as u64);
        self.publish_gauges();
        reaped
    }

    /// Exports the wearer's current state (live session or parked
    /// checkpoint) as crash-safe bytes.
    pub fn export_checkpoint(&self, wearer: u64) -> Option<Vec<u8>> {
        let shard = self.shards[self.shard_index(wearer)]
            .lock()
            .expect("shard lock");
        if let Some(slot) = shard.active.get(&wearer) {
            return Some(slot.session.checkpoint().to_bytes());
        }
        shard.parked.get(&wearer).map(SessionCheckpoint::to_bytes)
    }

    /// Parks a previously exported checkpoint, so the wearer's next
    /// batch resumes warm (e.g. after a process restart). A live
    /// session for the wearer takes precedence over the import.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint validation failures (truncation, checksum
    /// mismatch, implausible shapes).
    pub fn import_checkpoint(&self, wearer: u64, bytes: &[u8]) -> Result<(), CoreError> {
        let ck = SessionCheckpoint::from_bytes(bytes)?;
        let mut shard = self.shards[self.shard_index(wearer)]
            .lock()
            .expect("shard lock");
        if self.parked_per_shard == 0 {
            return Ok(());
        }
        if shard.parked.insert(wearer, ck).is_none() {
            shard.parked_order.push_back(wearer);
        }
        while shard.parked.len() > self.parked_per_shard {
            match shard.parked_order.pop_front() {
                Some(old) => {
                    if shard.parked.remove(&old).is_some() {
                        self.bump(&self.totals.evicted, "fleet.checkpoints_evicted", 1);
                    }
                }
                None => break,
            }
        }
        Ok(())
    }

    /// A consistent-enough aggregate of the fleet's state (each shard
    /// is sampled under its own lock).
    pub fn stats(&self) -> FleetStats {
        let mut active = 0usize;
        let mut free = 0usize;
        let mut parked = 0usize;
        for shard in &self.shards {
            let s = shard.lock().expect("shard lock");
            active += s.active.len();
            free += s.free.len();
            parked += s.parked.len();
        }
        let t = &self.totals;
        FleetStats {
            sessions_active: active,
            sessions_free: free,
            sessions_parked: parked,
            sessions_created: t.created.load(Ordering::Relaxed),
            batches: t.batches.load(Ordering::Relaxed),
            windows: t.windows.load(Ordering::Relaxed),
            shed_windows: t.shed_windows.load(Ordering::Relaxed),
            shed_batches: t.shed_batches.load(Ordering::Relaxed),
            duplicates: t.duplicates.load(Ordering::Relaxed),
            rejected: t.rejected.load(Ordering::Relaxed),
            conn_timeouts: t.conn_timeouts.load(Ordering::Relaxed),
            reaped: t.reaped.load(Ordering::Relaxed),
            resumed: t.resumed.load(Ordering::Relaxed),
            checkpoints_evicted: t.evicted.load(Ordering::Relaxed),
            queue_depth_hw: self.queue_depth_hw.load(Ordering::Relaxed),
            pressure: self.pressure(),
        }
    }

    /// Publishes the gauge-shaped stats (`fleet.sessions_active`,
    /// `fleet.sessions_parked`, `fleet.queue_depth` high-water) to the
    /// recorder, plus the `drift.*` gauges when a reference
    /// fingerprint has been committed.
    pub fn publish_gauges(&self) {
        let stats = self.stats();
        self.rec
            .gauge_set("fleet.sessions_active", stats.sessions_active as f64);
        self.rec
            .gauge_set("fleet.sessions_parked", stats.sessions_parked as f64);
        self.rec
            .gauge_set("fleet.sessions_free", stats.sessions_free as f64);
        self.rec
            .gauge_set("fleet.queue_depth_hw", stats.queue_depth_hw as f64);
        self.rec
            .gauge_set("fleet.shed_total", stats.shed_windows as f64);
        self.publish_drift_gauges();
    }

    /// Commits the training-distribution reference the fleet's live
    /// fingerprint is scored against, and the PSI ceiling above which
    /// `drift.alarm` reads 1. Until a reference is set, the `drift.*`
    /// gauges are not published and `/drift` reports scores of zero.
    pub fn set_drift_reference(&self, reference: Fingerprint, alarm_psi: f64) {
        let mut d = self.drift.lock().expect("drift lock");
        d.reference = Some(reference);
        d.alarm_psi = alarm_psi;
    }

    /// The fleet-wide drift fingerprint: every active wearer's sketch
    /// merged with each shard's retired accumulator. Sketch merges are
    /// exact integer operations, so the serialized bytes are identical
    /// for any shard/thread interleaving that consumed the same
    /// samples.
    pub fn fleet_fingerprint(&self) -> Fingerprint {
        let mut total = Fingerprint::new();
        for shard in &self.shards {
            let s = shard.lock().expect("shard lock");
            total.merge(&s.retired);
            for slot in s.active.values() {
                total.merge(&slot.sketch);
            }
        }
        total
    }

    /// One wearer's live drift fingerprint, or `None` when the wearer
    /// has no active session (a parked wearer's evidence lives on in
    /// the fleet-wide view, not per tenant).
    pub fn tenant_fingerprint(&self, wearer: u64) -> Option<Fingerprint> {
        let shard = self.shards[self.shard_index(wearer)]
            .lock()
            .expect("shard lock");
        shard.active.get(&wearer).map(|slot| slot.sketch.clone())
    }

    /// Scores the fleet-wide fingerprint against the committed
    /// reference and publishes the same `drift.*` gauge names the
    /// single-detector `DriftMonitor` uses, so the watch drift SLOs
    /// apply unchanged to both deployment shapes. No-op without a
    /// reference.
    fn publish_drift_gauges(&self) {
        let (reference, alarm_psi) = {
            let d = self.drift.lock().expect("drift lock");
            match &d.reference {
                Some(r) => (r.clone(), d.alarm_psi),
                None => return,
            }
        };
        let live = self.fleet_fingerprint();
        let score = compare(&reference, &live);
        self.rec.gauge_set("drift.input_psi", score.input_psi);
        self.rec.gauge_set("drift.score_psi", score.score_psi);
        self.rec
            .gauge_set("drift.attribution_psi", score.attribution_psi);
        self.rec.gauge_set("drift.input_shift", score.input_shift);
        self.rec.gauge_set("drift.score_shift", score.score_shift);
        self.rec.gauge_set("drift.samples", score.samples as f64);
        self.rec.gauge_set(
            "drift.alarm",
            if score.alarmed(alarm_psi) { 1.0 } else { 0.0 },
        );
    }

    /// Starts the background supervisor: every
    /// [`FleetConfig::supervise_interval`] it parks sessions idle past
    /// [`FleetConfig::idle_timeout`] and republishes the fleet gauges.
    /// The wait between sweeps is a receive on the stop channel, so
    /// shutdown ends it at once.
    pub fn spawn_supervisor(self: &Arc<Self>) -> Supervisor {
        let fleet = Arc::clone(self);
        let (stop, stopped) = mpsc::channel();
        let handle = std::thread::Builder::new()
            .name("prefall-fleet-supervisor".to_string())
            .spawn(move || {
                while stopped.recv_timeout(fleet.cfg.supervise_interval)
                    == Err(RecvTimeoutError::Timeout)
                {
                    fleet.reap_idle(fleet.cfg.idle_timeout);
                }
            })
            .expect("spawn fleet supervisor");
        Supervisor {
            stop,
            handle: Some(handle),
        }
    }
}

impl DriftSource for Fleet {
    fn drift_json(&self, tenant: Option<u64>) -> Option<JsonValue> {
        let (reference, alarm_psi) = {
            let d = self.drift.lock().expect("drift lock");
            (d.reference.clone(), d.alarm_psi)
        };
        let live = match tenant {
            Some(wearer) => self.tenant_fingerprint(wearer)?,
            None => self.fleet_fingerprint(),
        };
        Some(drift_doc(reference.as_ref(), &live, alarm_psi))
    }
}

/// Handle to the background session supervisor. Dropping it stops the
/// sweep thread.
#[derive(Debug)]
pub struct Supervisor {
    stop: mpsc::Sender<()>,
    handle: Option<JoinHandle<()>>,
}

impl Supervisor {
    /// Stops the sweep thread and waits for it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefall_core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
    use prefall_core::models::ModelKind;
    use prefall_core::pipeline::PipelineConfig;
    use prefall_dsp::segment::Overlap;
    use prefall_dsp::stats::Normalizer;

    fn detector_config() -> DetectorConfig {
        DetectorConfig {
            pipeline: PipelineConfig::paper(400.0, Overlap::Half),
            threshold: 0.5,
            consecutive: 3,
            guard: GuardConfig::default(),
        }
    }

    fn bundle() -> ModelBundle {
        let cfg = detector_config();
        let window = cfg.pipeline.segmentation.window();
        let net = ModelKind::ProposedCnn.build(window, 9, 1).unwrap();
        ModelBundle::new(net, Normalizer::identity(9), cfg).unwrap()
    }

    fn fleet(cfg: FleetConfig) -> Fleet {
        Fleet::new(bundle(), cfg)
    }

    /// Deterministic per-wearer motion so streams differ.
    fn motion(wearer: u64, tick: u64) -> ([f32; 3], [f32; 3]) {
        let w = wearer as f32;
        let t = tick as f32 * 0.07;
        (
            [0.02 * (t + w).sin(), -0.03 * (t * 0.9).cos(), 1.0],
            [
                8.0 * (t * 1.3 + w).sin(),
                -5.0 * t.cos(),
                2.0 * (w * 0.1).sin(),
            ],
        )
    }

    fn batch_for(wearer: u64, seq: u64, len: usize) -> IngestBatch {
        IngestBatch {
            wearer,
            seq,
            samples: (0..len as u64)
                .map(|i| {
                    let (accel, gyro) = motion(wearer, seq + i);
                    BatchSample::Sample { accel, gyro }
                })
                .collect(),
        }
    }

    #[test]
    fn fleet_streams_match_the_serial_detector_bitwise() {
        let f = fleet(FleetConfig {
            threads: Some(3),
            ..FleetConfig::default()
        });
        let wearers: Vec<u64> = (0..6).collect();
        let total = 300usize;
        let batch_len = 25usize;

        // Interleave every wearer's batches in one big slice.
        let mut fleet_probs: HashMap<u64, Vec<u32>> = HashMap::new();
        for start in (0..total).step_by(batch_len) {
            let batches: Vec<IngestBatch> = wearers
                .iter()
                .map(|&w| batch_for(w, start as u64, batch_len))
                .collect();
            for reply in f.ingest_many(&batches) {
                assert_eq!(reply.status, IngestStatus::Accepted);
                assert!(!reply.shed);
                fleet_probs
                    .entry(reply.wearer)
                    .or_default()
                    .extend(reply.probs_bits);
            }
        }

        // The serial single-stream path, one wearer at a time.
        for &w in &wearers {
            let mut det = StreamingDetector::new(
                ModelKind::ProposedCnn
                    .build(detector_config().pipeline.segmentation.window(), 9, 1)
                    .unwrap(),
                Normalizer::identity(9),
                detector_config(),
            )
            .unwrap();
            let mut serial: Vec<u32> = Vec::new();
            for t in 0..total as u64 {
                let (a, g) = motion(w, t);
                if let Some(p) = det.push_sample(a, g) {
                    serial.push(p.to_bits());
                }
            }
            assert!(!serial.is_empty());
            assert_eq!(
                fleet_probs.get(&w),
                Some(&serial),
                "wearer {w} diverged from the serial path"
            );
        }
    }

    #[test]
    fn duplicate_and_overlapping_batches_are_idempotent() {
        let f = fleet(FleetConfig::default());
        let b0 = batch_for(1, 0, 50);
        let first = f.ingest_one(&b0);
        assert_eq!(first.status, IngestStatus::Accepted);
        assert_eq!(first.next_seq, 50);

        // Exact re-delivery: recognised, nothing re-applied.
        let dup = f.ingest_one(&b0);
        assert_eq!(dup.status, IngestStatus::Duplicate);
        assert_eq!(dup.windows, 0);
        assert_eq!(dup.next_seq, 50);

        // Overlapping re-delivery (retransmit from tick 30): the stale
        // ticks are dropped by the guard, the new ones consumed.
        let overlap = batch_for(1, 30, 40);
        let reply = f.ingest_one(&overlap);
        assert_eq!(reply.status, IngestStatus::Accepted);
        assert!(reply.regressed, "stale ticks must be counted as regressed");
        assert_eq!(reply.next_seq, 70);
        assert_eq!(f.stats().duplicates, 1);
    }

    #[test]
    fn gaps_between_batches_are_bridged() {
        let f = fleet(FleetConfig::default());
        let _ = f.ingest_one(&batch_for(2, 0, 40));
        // The uplink lost ticks 40..60; the next batch starts at 60.
        let reply = f.ingest_one(&batch_for(2, 60, 20));
        assert_eq!(reply.status, IngestStatus::Accepted);
        assert_eq!(reply.next_seq, 80, "gap bridged, grid caught up");
    }

    #[test]
    fn capacity_rejection_is_explicit_not_silent() {
        let f = fleet(FleetConfig {
            shards: 1,
            max_sessions: 2,
            ..FleetConfig::default()
        });
        assert_eq!(
            f.ingest_one(&batch_for(1, 0, 10)).status,
            IngestStatus::Accepted
        );
        assert_eq!(
            f.ingest_one(&batch_for(2, 0, 10)).status,
            IngestStatus::Accepted
        );
        let reply = f.ingest_one(&batch_for(3, 0, 10));
        assert_eq!(reply.status, IngestStatus::Rejected);
        assert_eq!(f.stats().rejected, 1);
        // Existing wearers keep being served at capacity.
        assert_eq!(
            f.ingest_one(&batch_for(1, 10, 10)).status,
            IngestStatus::Accepted
        );
    }

    #[test]
    fn reaped_sessions_resume_warm_and_bit_identical() {
        let f = fleet(FleetConfig {
            shards: 2,
            ..FleetConfig::default()
        });
        let mut interrupted: Vec<u32> = Vec::new();
        let r = f.ingest_one(&batch_for(9, 0, 73));
        interrupted.extend(r.probs_bits);

        // Supervisor parks the idle session; its buffers are recycled.
        assert_eq!(f.reap_idle(Duration::ZERO), 1);
        let stats = f.stats();
        assert_eq!(stats.sessions_active, 0);
        assert_eq!(stats.sessions_parked, 1);
        assert_eq!(stats.sessions_free, 1);

        // The wearer reconnects and continues from tick 73.
        let r = f.ingest_one(&batch_for(9, 73, 127));
        assert_eq!(r.status, IngestStatus::Accepted);
        interrupted.extend(r.probs_bits);
        assert_eq!(f.stats().resumed, 1);
        // No fresh allocation: the recycled session was reused.
        assert_eq!(f.stats().sessions_created, 1);

        // An uninterrupted fleet sees the identical probability stream.
        let g = fleet(FleetConfig::default());
        let mut unbroken: Vec<u32> = Vec::new();
        unbroken.extend(g.ingest_one(&batch_for(9, 0, 73)).probs_bits);
        unbroken.extend(g.ingest_one(&batch_for(9, 73, 127)).probs_bits);
        assert_eq!(interrupted, unbroken);
    }

    #[test]
    fn shed_mode_keeps_cadence_and_degrades_the_trigger() {
        let f = fleet(FleetConfig::default());
        // 8 wearers x 200 ticks, forced shed, in 40-tick waves.
        let (wearers, ticks, wave_len) = (8u64, 200u64, 40usize);
        let mut replied_shed = 0u64;
        for seq in (0..ticks).step_by(wave_len) {
            let wave: Vec<IngestBatch> =
                (0..wearers).map(|w| batch_for(w, seq, wave_len)).collect();
            for r in f.ingest_many_with(&wave, true) {
                assert!(r.shed);
                assert_eq!(r.windows, 0, "no inference under shed");
                assert!(r.probs_bits.is_empty());
                replied_shed += r.shed_windows;
            }
        }
        assert!(replied_shed > 0, "cadence still counted");
        assert_eq!(f.stats().shed_windows, replied_shed);
        assert_eq!(f.stats().shed_batches, wearers * ticks / wave_len as u64);

        // Recovery: the same wearers continue on the grid with
        // inference restored.
        let wave: Vec<IngestBatch> = (0..wearers)
            .map(|w| batch_for(w, ticks, wave_len))
            .collect();
        for r in f.ingest_many_with(&wave, false) {
            assert!(r.windows > 0);
            assert!(!r.shed);
        }
    }

    #[test]
    fn pressure_thresholds_drive_shed_and_reject() {
        let f = fleet(FleetConfig {
            shed_at: 2,
            reject_at: 4,
            ..FleetConfig::default()
        });
        assert!(!f.should_shed());
        let _g1 = f.pressure_guard();
        let _g2 = f.pressure_guard();
        assert!(f.should_shed());
        assert!(!f.should_reject());
        {
            let _g3 = f.pressure_guard();
            let _g4 = f.pressure_guard();
            assert!(f.should_reject());
        }
        assert!(!f.should_reject());
        drop(_g1);
        drop(_g2);
        assert!(!f.should_shed());
        assert_eq!(f.pressure(), 0);
    }

    #[test]
    fn parked_checkpoints_stay_bounded() {
        let f = fleet(FleetConfig {
            shards: 1,
            max_parked: 3,
            max_sessions: 64,
            ..FleetConfig::default()
        });
        for w in 0..10 {
            let _ = f.ingest_one(&batch_for(w, 0, 10));
        }
        assert_eq!(f.reap_idle(Duration::ZERO), 10);
        let stats = f.stats();
        assert_eq!(stats.sessions_parked, 3, "oldest checkpoints evicted");
        assert_eq!(stats.checkpoints_evicted, 7);
        assert_eq!(stats.sessions_free, 10);
    }

    #[test]
    fn checkpoint_export_import_survives_a_restart() {
        let f = fleet(FleetConfig::default());
        let mut probs: Vec<u32> = Vec::new();
        probs.extend(f.ingest_one(&batch_for(5, 0, 90)).probs_bits);
        let bytes = f.export_checkpoint(5).expect("live session exports");

        // "Restart": a brand-new fleet process imports the checkpoint.
        let g = fleet(FleetConfig::default());
        g.import_checkpoint(5, &bytes).unwrap();
        let r = g.ingest_one(&batch_for(5, 90, 110));
        assert_eq!(r.status, IngestStatus::Accepted);
        probs.extend(r.probs_bits);
        assert_eq!(g.stats().resumed, 1);

        // Bit-identical to never having restarted.
        let h = fleet(FleetConfig::default());
        let mut unbroken: Vec<u32> = Vec::new();
        unbroken.extend(h.ingest_one(&batch_for(5, 0, 90)).probs_bits);
        unbroken.extend(h.ingest_one(&batch_for(5, 90, 110)).probs_bits);
        assert_eq!(probs, unbroken);

        // Corrupted checkpoints are refused.
        let mut bad = f.export_checkpoint(5).unwrap();
        bad[10] ^= 0x40;
        assert!(g.import_checkpoint(5, &bad).is_err());
    }

    #[test]
    fn stats_json_names_every_field() {
        let f = fleet(FleetConfig::default());
        let _ = f.ingest_one(&batch_for(1, 0, 10));
        let doc = f.stats().to_json();
        for key in [
            "sessions_active",
            "sessions_parked",
            "windows",
            "shed_windows",
            "duplicates",
            "rejected",
            "queue_depth_hw",
            "pressure",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            doc.get("sessions_active").and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn fleet_fingerprint_merges_tenant_views_and_survives_reaping() {
        let f = fleet(FleetConfig::default());
        for &w in &[1u64, 2, 3] {
            let _ = f.ingest_one(&batch_for(w, 0, 100));
        }
        // Fleet-wide view == the merge of every tenant view.
        let mut manual = Fingerprint::new();
        for &w in &[1u64, 2, 3] {
            manual.merge(&f.tenant_fingerprint(w).expect("active tenant"));
        }
        let whole = f.fleet_fingerprint();
        assert_eq!(whole.to_bytes(), manual.to_bytes());
        assert_eq!(whole.samples(), 300);
        assert!(whole.windows() > 0, "window scores folded");

        // Parking a wearer moves its evidence into the shard
        // accumulator: the tenant view disappears, the fleet-wide
        // fingerprint is unchanged.
        assert_eq!(f.reap_idle(Duration::ZERO), 3);
        assert!(f.tenant_fingerprint(1).is_none());
        assert_eq!(f.fleet_fingerprint().to_bytes(), whole.to_bytes());
    }

    #[test]
    fn duplicate_deliveries_do_not_double_count_drift_evidence() {
        let f = fleet(FleetConfig::default());
        let b = batch_for(7, 0, 60);
        let _ = f.ingest_one(&b);
        let once = f.fleet_fingerprint();
        // Exact re-delivery and an overlapping retransmit: only the
        // genuinely fresh ticks (60..80) may add evidence.
        let _ = f.ingest_one(&b);
        assert_eq!(f.fleet_fingerprint().to_bytes(), once.to_bytes());
        let _ = f.ingest_one(&batch_for(7, 40, 40));
        assert_eq!(f.fleet_fingerprint().samples(), 80);
    }

    #[test]
    fn fleet_fingerprint_is_bit_identical_across_thread_counts() {
        let mut bytes: Vec<Vec<u8>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let f = fleet(FleetConfig {
                threads: Some(threads),
                ..FleetConfig::default()
            });
            for start in (0..600u64).step_by(25) {
                let batches: Vec<IngestBatch> = (0..9).map(|w| batch_for(w, start, 25)).collect();
                let _ = f.ingest_many(&batches);
            }
            bytes.push(f.fleet_fingerprint().to_bytes());
        }
        assert_eq!(bytes[0], bytes[1]);
        assert_eq!(bytes[1], bytes[2]);
    }

    #[test]
    fn drift_source_serves_global_and_tenant_documents() {
        let f = fleet(FleetConfig::default());
        let _ = f.ingest_one(&batch_for(1, 0, 120));
        let _ = f.ingest_one(&batch_for(2, 0, 120));

        // Reference = the fleet's own distribution: no alarm.
        f.set_drift_reference(f.fleet_fingerprint(), 0.25);
        let doc = f.drift_json(None).expect("global view");
        assert!(matches!(doc.get("reference"), Some(JsonValue::Bool(true))));
        assert!(matches!(doc.get("alarm"), Some(JsonValue::Bool(false))));
        assert_eq!(doc.get("samples").and_then(JsonValue::as_u64), Some(240));

        let tenant = f.drift_json(Some(1)).expect("tenant view");
        assert_eq!(tenant.get("samples").and_then(JsonValue::as_u64), Some(120));
        assert!(f.drift_json(Some(99)).is_none(), "unknown tenant is 404");
    }

    #[test]
    fn drift_gauges_publish_once_a_reference_is_committed() {
        use prefall_telemetry::Registry;
        let mut f = fleet(FleetConfig::default());
        let reg = Arc::new(Registry::new());
        f.set_recorder(reg.clone());
        let _ = f.ingest_one(&batch_for(3, 0, 100));

        f.publish_gauges();
        assert!(
            !reg.snapshot().gauges.contains_key("drift.input_psi"),
            "no reference, no drift gauges"
        );
        f.set_drift_reference(f.fleet_fingerprint(), 0.25);
        f.publish_gauges();
        let snap = reg.snapshot();
        for g in [
            "drift.input_psi",
            "drift.score_psi",
            "drift.samples",
            "drift.alarm",
        ] {
            assert!(snap.gauges.contains_key(g), "missing {g}");
        }
        assert_eq!(snap.gauges["drift.alarm"], 0.0);
    }

    #[test]
    fn supervisor_thread_parks_idle_sessions() {
        let f = Arc::new(fleet(FleetConfig {
            idle_timeout: Duration::from_millis(1),
            supervise_interval: Duration::from_millis(20),
            ..FleetConfig::default()
        }));
        let _ = f.ingest_one(&batch_for(1, 0, 10));
        let sup = f.spawn_supervisor();
        let deadline = Instant::now() + Duration::from_secs(5);
        while f.stats().sessions_parked == 0 {
            assert!(Instant::now() < deadline, "supervisor never reaped");
            std::thread::sleep(Duration::from_millis(5));
        }
        sup.shutdown();
        assert_eq!(f.stats().sessions_active, 0);
    }

    #[test]
    fn supervisor_shutdown_does_not_wait_out_the_interval() {
        let f = Arc::new(fleet(FleetConfig {
            supervise_interval: Duration::from_secs(10),
            ..FleetConfig::default()
        }));
        let sup = f.spawn_supervisor();
        let start = Instant::now();
        sup.shutdown();
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "shutdown took {:?}",
            start.elapsed()
        );
    }
}
