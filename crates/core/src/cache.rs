//! Content-hashed preprocessing cache.
//!
//! Sweep and experiment grids evaluate several models against the same
//! filtered + segmented data: every (model × window) cell with the same
//! window re-runs the identical Butterworth filter and windowing over
//! the identical trials. [`SegmentCache`] keys the **pre-normalisation**
//! [`SegmentSet`] (normalisation is per-fold and stays out of the
//! cache) by an FNV-1a content hash over the full pipeline
//! configuration and the trial data, so cells that share a
//! filter + window config reuse the work and cells that differ in any
//! input cannot collide silently.
//!
//! Entries hold an [`OnceLock`], so two workers racing on the same key
//! compute the set once and share it. The cache is bounded (LRU by
//! access tick) and can be disabled with `PREFALL_PREPROC_CACHE=0` —
//! the perf bench's baseline leg uses that to time the uncached path.
//!
//! Activity is published as `cache.hits` / `cache.misses` /
//! `cache.evictions` counters through the recorder passed to
//! [`SegmentCache::get_or_build`].

use crate::pipeline::{Pipeline, PipelineConfig, SegmentSet};
use prefall_imu::subject::DatasetSource;
use prefall_imu::trial::Trial;
use prefall_telemetry::Recorder;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable: set to `0` to bypass the cache entirely.
pub const CACHE_ENV: &str = "PREFALL_PREPROC_CACHE";

/// Default number of cached segment sets (one per distinct window
/// config in flight; the Table III grid needs three).
pub const DEFAULT_CAPACITY: usize = 8;

fn cache_disabled() -> bool {
    std::env::var(CACHE_ENV).is_ok_and(|v| v.trim() == "0")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Content hash of everything that determines a segment set: the full
/// pipeline configuration plus every trial's identity, fall markers and
/// raw channel data (`f32::to_bits`, so any single-sample change moves
/// the key).
fn content_key(config: &PipelineConfig, trials: &[Trial]) -> u64 {
    let mut h = Fnv::new();
    h.f64(config.filter_cutoff_hz);
    h.u64(config.filter_order as u64);
    h.u64(config.segmentation.window() as u64);
    h.u64(config.segmentation.hop() as u64);
    h.f64(config.positive_overlap);
    h.f64(config.discard_margin_s);
    h.u64(config.airbag_budget_samples as u64);
    h.u64(trials.len() as u64);
    for trial in trials {
        h.u64(u64::from(trial.subject.0));
        h.u64(u64::from(trial.task.get()));
        h.u64(u64::from(trial.trial_index));
        h.u64(match trial.source {
            DatasetSource::KFall => 0,
            DatasetSource::SelfCollected => 1,
        });
        h.u64(trial.fall_start().map_or(u64::MAX, |s| s as u64));
        h.u64(trial.impact().map_or(u64::MAX, |s| s as u64));
        h.u64(trial.len() as u64);
        for ch in trial.channels() {
            for &v in ch {
                h.u64(u64::from(v.to_bits()));
            }
        }
    }
    h.0
}

struct Entry {
    cell: Arc<OnceLock<Arc<SegmentSet>>>,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// A bounded, content-addressed cache of preprocessed segment sets.
#[derive(Debug)]
pub struct SegmentCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("entries", &self.map.len())
            .field("tick", &self.tick)
            .finish()
    }
}

impl Default for SegmentCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl SegmentCache {
    /// A cache holding at most `capacity` segment sets (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Number of resident entries (including in-flight computations).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the pre-normalisation segment set for `trials` under the
    /// pipeline's configuration, computing it at most once per distinct
    /// content. Emits `cache.hits` / `cache.misses` /
    /// `cache.evictions` counters; with `PREFALL_PREPROC_CACHE=0` the
    /// cache is bypassed and every call recomputes.
    ///
    /// On a hit the pipeline's per-stage spans and segment counters are
    /// **not** re-emitted — the work they would time never runs.
    pub fn get_or_build(
        &self,
        pipeline: &Pipeline,
        trials: &[Trial],
        rec: &dyn Recorder,
    ) -> Arc<SegmentSet> {
        if cache_disabled() {
            return Arc::new(pipeline.segment_set_recorded(trials, rec));
        }
        let key = content_key(pipeline.config(), trials);
        let (cell, hit) = {
            let mut inner = self.inner.lock().expect("cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                (Arc::clone(&entry.cell), true)
            } else {
                if inner.map.len() >= self.capacity {
                    if let Some((&victim, _)) =
                        inner.map.iter().min_by_key(|(_, entry)| entry.last_used)
                    {
                        inner.map.remove(&victim);
                        if rec.enabled() {
                            rec.counter_add("cache.evictions", 1);
                        }
                    }
                }
                let cell = Arc::new(OnceLock::new());
                inner.map.insert(
                    key,
                    Entry {
                        cell: Arc::clone(&cell),
                        last_used: tick,
                    },
                );
                (cell, false)
            }
        };
        if rec.enabled() {
            rec.counter_add(if hit { "cache.hits" } else { "cache.misses" }, 1);
        }
        if hit && prefall_trace::armed() {
            prefall_trace::instant(crate::tracenames::trace_names().cache_hit);
        }
        // Compute outside the map lock; racing callers on the same key
        // block here and share the first result. The fill span only
        // covers an actual computation — a hit that merely clones the
        // cached Arc stays span-free.
        Arc::clone(cell.get_or_init(|| {
            let _fill_span =
                prefall_trace::trace_span!(crate::tracenames::trace_names().cache_fill);
            Arc::new(pipeline.segment_set_recorded(trials, rec))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use prefall_dsp::segment::Overlap;
    use prefall_imu::dataset::Dataset;
    use prefall_telemetry::Registry;

    /// Serialises the tests that read [`CACHE_ENV`] against the one
    /// that sets it: the environment is process-wide.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn dataset() -> Dataset {
        Dataset::combined_scaled(1, 1, 42).unwrap()
    }

    #[test]
    fn hit_returns_the_same_set_without_recompute() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ds = dataset();
        let p = Pipeline::new(PipelineConfig::paper(200.0, Overlap::Half)).unwrap();
        let cache = SegmentCache::default();
        let reg = Registry::new();
        let a = cache.get_or_build(&p, ds.trials(), &reg);
        let b = cache.get_or_build(&p, ds.trials(), &reg);
        assert!(Arc::ptr_eq(&a, &b), "hit must share the cached set");
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("cache.misses"), Some(&1));
        assert_eq!(snap.counters.get("cache.hits"), Some(&1));
        // Contents match an uncached run exactly.
        let fresh = p.segment_set(ds.trials());
        assert_eq!(*a, fresh);
    }

    #[test]
    fn different_configs_get_different_entries() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ds = dataset();
        let p200 = Pipeline::new(PipelineConfig::paper(200.0, Overlap::Half)).unwrap();
        let p400 = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let cache = SegmentCache::default();
        let reg = Registry::new();
        let a = cache.get_or_build(&p200, ds.trials(), &reg);
        let b = cache.get_or_build(&p400, ds.trials(), &reg);
        assert_ne!(a.window, b.window);
        assert_eq!(cache.len(), 2);
        assert_eq!(reg.snapshot().counters.get("cache.misses"), Some(&2));
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ds = dataset();
        let cache = SegmentCache::with_capacity(2);
        let reg = Registry::new();
        let mk = |ms: f64| Pipeline::new(PipelineConfig::paper(ms, Overlap::Half)).unwrap();
        cache.get_or_build(&mk(100.0), ds.trials(), &reg);
        cache.get_or_build(&mk(200.0), ds.trials(), &reg);
        // Touch 100 ms so 200 ms becomes the LRU victim.
        cache.get_or_build(&mk(100.0), ds.trials(), &reg);
        cache.get_or_build(&mk(300.0), ds.trials(), &reg);
        assert_eq!(cache.len(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("cache.evictions"), Some(&1));
        // 200 ms was evicted: asking again misses.
        cache.get_or_build(&mk(200.0), ds.trials(), &reg);
        assert_eq!(reg.snapshot().counters.get("cache.misses"), Some(&4));
    }

    #[test]
    fn env_kill_switch_bypasses_the_cache() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let ds = dataset();
        let p = Pipeline::new(PipelineConfig::paper(200.0, Overlap::Half)).unwrap();
        let cache = SegmentCache::default();
        let reg = Registry::new();
        std::env::set_var(CACHE_ENV, "0");
        let a = cache.get_or_build(&p, ds.trials(), &reg);
        let b = cache.get_or_build(&p, ds.trials(), &reg);
        std::env::remove_var(CACHE_ENV);
        assert!(!Arc::ptr_eq(&a, &b), "bypass must recompute");
        assert!(cache.is_empty());
        assert_eq!(*a, *b);
    }

    #[test]
    fn trial_content_participates_in_the_key() {
        let ds_a = Dataset::combined_scaled(1, 1, 42).unwrap();
        let ds_b = Dataset::combined_scaled(1, 1, 43).unwrap();
        let p = Pipeline::new(PipelineConfig::paper(200.0, Overlap::Half)).unwrap();
        assert_ne!(
            content_key(p.config(), ds_a.trials()),
            content_key(p.config(), ds_b.trials())
        );
    }
}
