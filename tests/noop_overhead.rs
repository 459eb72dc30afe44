//! Proof that disabled telemetry is (near-)free: with the default
//! [`NoopRecorder`] installed, a steady-state [`StreamingDetector::push_sample`]
//! call on a non-classifying sample performs **zero heap allocations**
//! and never reads the clock (the span holds no start time). The same
//! holds with the flight recorder armed: its rings are pre-allocated,
//! so the per-sample tap path stays allocation-free after warm-up.
//!
//! A counting global allocator makes the claim checkable; the file
//! holds exactly one test so no concurrent test pollutes the counter.

use prefall_blackbox::{FlightConfig, FlightRecorder};
use prefall_core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
use prefall_core::models::ModelKind;
use prefall_core::pipeline::PipelineConfig;
use prefall_drift::{DriftConfig, DriftMonitor, Fingerprint};
use prefall_dsp::segment::Overlap;
use prefall_dsp::stats::Normalizer;
use prefall_telemetry::{NoopRecorder, Recorder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn noop_recorder_push_sample_does_not_allocate() {
    assert!(!NoopRecorder.enabled());

    let cfg = DetectorConfig {
        pipeline: PipelineConfig::paper(200.0, Overlap::Half),
        threshold: 0.5,
        consecutive: 1,
        // The guard stays on: the zero-allocation claim must hold for
        // the hardened ingest path, not just the legacy one.
        guard: GuardConfig::default(),
    };
    let window = cfg.pipeline.segmentation.window();
    let hop = cfg.pipeline.segmentation.hop();
    let net = ModelKind::ProposedCnn.build(window, 9, 1).unwrap();
    let mut det = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();

    // Reach steady state: the window ring is full and a classification
    // just happened, so the next `hop - 1` samples are pure streaming.
    for _ in 0..window {
        let _ = det.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..hop - 1 {
        let p = det.push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0]);
        assert!(p.is_none(), "these samples must not complete a hop");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state push_sample with the no-op recorder must not allocate"
    );

    // The classification itself is allocation-free too: inference runs
    // through the detector-owned workspace (fused conv+ReLU+pool and
    // buffered dense kernels write into reusable scratch), and the
    // window is assembled into a reusable segment buffer. Warm up with
    // one classified window (first use sizes the buffers), then demand
    // zero allocations across entire hop cycles *including* their
    // classified windows.
    let p = det.push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0]);
    assert!(p.is_some(), "warm-up sample must complete the hop");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut classified = 0;
    for _ in 0..2 * hop {
        if det
            .push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0])
            .is_some()
        {
            classified += 1;
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(classified, 2, "two hop cycles classify twice");
    assert_eq!(
        after - before,
        0,
        "a classified window on the workspace inference path must not allocate"
    );

    // Same claim with the flight recorder armed: the tap path copies
    // fixed-size records into pre-allocated rings, so a steady-state
    // streaming sample still performs zero heap allocations, and a
    // full hop cycle (including one traced classification) allocates
    // exactly as much as the previous cycle — nothing accumulates.
    let cfg = DetectorConfig {
        pipeline: PipelineConfig::paper(200.0, Overlap::Half),
        // Unreachable threshold: the sigmoid never exceeds 1, so no
        // trigger fires and no incident dump (which may allocate) is
        // taken mid-measurement.
        threshold: 1.1,
        consecutive: 1,
        guard: GuardConfig::default(),
    };
    let net = ModelKind::ProposedCnn.build(window, 9, 1).unwrap();
    let mut det = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();
    let flight = FlightRecorder::install(&mut det, Vec::new(), FlightConfig::default());
    det.session_mut().reset(); // sync the recorder to the stream start

    // Warm up: fill the window, classify once (warms the branch-trace
    // buffer), then settle into steady state.
    for _ in 0..window + hop {
        let _ = det.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..hop - 1 {
        let p = det.push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0]);
        assert!(p.is_none(), "these samples must not complete a hop");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state push_sample with the flight recorder armed must not allocate"
    );

    // Two consecutive full hop cycles allocate identically: the traced
    // inference reuses its buffers, and the ring writes are in-place.
    let measure_cycle = |det: &mut StreamingDetector| {
        let start = ALLOCATIONS.load(Ordering::Relaxed);
        let mut classified = 0;
        for _ in 0..hop {
            if det
                .push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0])
                .is_some()
            {
                classified += 1;
            }
        }
        assert_eq!(classified, 1, "each hop cycle classifies exactly once");
        ALLOCATIONS.load(Ordering::Relaxed) - start
    };
    let first = measure_cycle(&mut det);
    let second = measure_cycle(&mut det);
    assert_eq!(
        first, second,
        "hop cycles with the flight recorder armed must not accumulate allocations"
    );
    assert_eq!(flight.incident_count(), 0, "no incident should have fired");

    // Same claim with the drift monitor armed and scoring: every
    // sketch is fixed-size and updated in place, branch shares fold
    // through a stack array, epoch rotation is a `mem::swap`, and the
    // rescore (forced every window via `publish_every: 1`, with a
    // reference set so `compare` actually runs) merges into a
    // pre-allocated scratch fingerprint and publishes through static
    // gauge names. Steady-state streaming allocates zero; full hop
    // cycles — each including a traced classification *and* a rescore
    // against the reference — allocate nothing beyond their first.
    let cfg = DetectorConfig {
        pipeline: PipelineConfig::paper(200.0, Overlap::Half),
        threshold: 1.1, // never trigger: no incident path mid-measurement
        consecutive: 1,
        guard: GuardConfig::default(),
    };
    let net = ModelKind::ProposedCnn.build(window, 9, 1).unwrap();
    let mut det = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();
    let handle = DriftMonitor::install(
        &mut det,
        DriftConfig {
            publish_every: 1,
            ..DriftConfig::default()
        },
    );
    // A small but non-empty reference so the PSI/quantile comparison
    // paths all execute.
    handle.set_reference({
        let mut reference = Fingerprint::new();
        for t in 0..200u64 {
            let x = t as f32 * 0.07;
            reference.observe_sample(
                [0.02 * x.sin(), -0.03 * x.cos(), 1.0],
                [0.5 * x.sin(), -0.4 * x.cos(), 0.1],
            );
        }
        reference.observe_score(0.01);
        reference
    });

    for _ in 0..window + hop {
        let _ = det.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..hop - 1 {
        let p = det.push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0]);
        assert!(p.is_none(), "these samples must not complete a hop");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state push_sample with the drift monitor armed must not allocate"
    );

    let first = measure_cycle(&mut det);
    let second = measure_cycle(&mut det);
    assert_eq!(
        first, second,
        "hop cycles with the drift monitor armed and scoring must not \
         accumulate allocations"
    );
    assert!(
        handle.score().is_some(),
        "the armed monitor really did rescore during the measurement"
    );

    // Same claim with timeline tracing armed — in full per-kernel
    // detail, the most event-dense configuration. Warm-up pays the
    // one-time costs (ring registration for this thread, span-name
    // interning through each crate's `OnceLock`); after that every
    // begin/end writes one fixed-size record into the pre-allocated
    // ring, so entire hop cycles *including* their traced
    // classification allocate nothing.
    let cfg = DetectorConfig {
        pipeline: PipelineConfig::paper(200.0, Overlap::Half),
        threshold: 1.1, // never trigger: no incident dump mid-measurement
        consecutive: 1,
        guard: GuardConfig::default(),
    };
    let net = ModelKind::ProposedCnn.build(window, 9, 1).unwrap();
    let mut det = StreamingDetector::new(net, Normalizer::identity(9), cfg).unwrap();
    prefall_trace::arm(4096);
    prefall_trace::set_detail(true);
    for _ in 0..window + hop {
        let _ = det.push_sample([0.0, 0.0, 1.0], [0.0, 0.0, 0.0]);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut classified = 0;
    for _ in 0..2 * hop {
        if det
            .push_sample([0.01, -0.02, 1.0], [0.0, 0.1, 0.0])
            .is_some()
        {
            classified += 1;
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    prefall_trace::disarm();
    assert_eq!(classified, 2, "two hop cycles classify twice");
    assert_eq!(
        after - before,
        0,
        "armed detail tracing must write spans without allocating"
    );

    // The rings really did record the traced classifications.
    let timeline = prefall_trace::drain();
    let attr = timeline.attribution();
    assert!(
        attr.total("nn.infer").count >= 2,
        "both traced classifications appear in the drained timeline"
    );

    // Finally, the watch sampler: after warm-up (first sight of each
    // series creates its pre-sized rings), a tick over a stable
    // registry is pure in-place work — the visitor reads counters and
    // gauges by `&str` lookup, histogram buckets copy into fixed
    // `Box<[f64]>` rings, and SLO evaluation is arithmetic over ring
    // indices. No alert transitions occur (transitions are the one
    // documented allocating path), so fifty ticks must allocate zero.
    let registry = std::sync::Arc::new(prefall_telemetry::Registry::new());
    registry.counter_add("detector.false_activations", 3);
    registry.gauge_set("par.queue_depth", 2.0);
    for i in 0..32 {
        registry.observe("detector.push_sample_seconds", 1e-5 * (i + 1) as f64);
    }
    let watch = prefall_watch::Watch::new(
        std::sync::Arc::clone(&registry),
        prefall_watch::WatchConfig::production(),
    );
    for t in 0..3 {
        watch.tick_at(t as f64); // warm-up: series creation allocates
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for t in 3..53 {
        watch.tick_at(t as f64);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "a warm watch sampler tick must not allocate"
    );
    assert_eq!(watch.ticks(), 53);
}
