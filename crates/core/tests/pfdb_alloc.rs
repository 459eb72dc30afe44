//! A PFDB detector bundle decodes in memory proportional to its own
//! length: a small hostile blob cannot make `DetectorBundle::from_bytes`
//! allocate a network its weight blob could never fill.
//!
//! A peak-tracking global allocator makes the claim checkable; the file
//! holds exactly one test so no concurrent test pollutes the counters.

use prefall_core::models::ModelKind;
use prefall_core::persist::DetectorBundle;
use prefall_core::pipeline::PipelineConfig;
use prefall_dsp::segment::Overlap;
use prefall_dsp::stats::Normalizer;
use prefall_telemetry::wire::Writer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAllocator = PeakAllocator;

/// Peak bytes allocated by one decode may not exceed this multiple of
/// the blob length. A legitimate bundle needs about three: the weights
/// are held once as the network's parameters, once as their gradients,
/// and once while the PFNN blob is read.
const PEAK_PER_BLOB_BYTE: usize = 4;

/// Peak bytes allocated while decoding `blob`, above what was live
/// before, and whether the decode succeeded.
fn decode_peak(blob: &[u8]) -> (usize, bool) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let ok = DetectorBundle::from_bytes(blob).is_ok();
    (PEAK.load(Ordering::Relaxed) - base, ok)
}

/// An 870-byte PFDB header for an MLP over `4096 × 100` inputs (26M
/// parameters) with an empty weight blob.
fn amplification_probe() -> Vec<u8> {
    let (window, channels) = (4096u32, 100u32);
    let mut w = Writer::default();
    w.bytes(b"PFDB");
    w.u32(1);
    w.u8(0); // ModelKind::Mlp
    w.u32(window);
    w.u32(channels);
    w.u64(1);
    w.f64(5.0); // filter cutoff
    w.u32(4); // filter order
    w.u32(window);
    w.u8(2); // Overlap::Half
    w.f64(0.5);
    w.f64(0.0);
    w.u32(15);
    w.u32(channels);
    for v in [0.0f32, 1.0] {
        for _ in 0..channels {
            w.f32(v);
        }
    }
    w.u32(0); // weight-blob length
    w.finish()
}

#[test]
fn pfdb_decode_peak_allocation_is_bounded_by_blob_length() {
    let probe = amplification_probe();
    assert_eq!(probe.len(), 870);
    let (peak, ok) = decode_peak(&probe);
    assert!(!ok, "the probe must be refused");
    assert!(
        peak <= PEAK_PER_BLOB_BYTE * probe.len(),
        "refusing an {}-byte blob peaked at {peak} bytes",
        probe.len()
    );

    let window = 40;
    let mut bundle = DetectorBundle {
        model: ModelKind::ProposedCnn,
        window,
        channels: 9,
        init_seed: 5,
        pipeline: PipelineConfig::paper(400.0, Overlap::Half),
        normalizer: Normalizer::identity(9),
        network: ModelKind::ProposedCnn.build(window, 9, 5).unwrap(),
    };
    let blob = bundle.to_bytes();
    let (peak, ok) = decode_peak(&blob);
    assert!(ok, "a round-tripped bundle must decode");
    assert!(
        peak <= PEAK_PER_BLOB_BYTE * blob.len(),
        "decoding a {}-byte bundle peaked at {peak} bytes",
        blob.len()
    );
}
