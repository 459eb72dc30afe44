//! `prefall-overhead`: what arming each observer costs the real-time
//! path — coarse tracing, the watch sampling daemon and the drift tap.
//!
//! Each leg times classified pushes on one live detector and switches
//! its observer on and off between blocks of windows through
//! [`prefall_bench::overhead::arming_medians`], so both medians sample
//! the same machine state. The ratio disarmed ÷ armed median
//! (`1.0` means free) must clear a floor, 3 % under a committed run:
//!
//! | leg | windows / round | floor |
//! |---|---|---|
//! | `trace.arming_speedup` | 300 / 1 | 1.0 × 0.97 |
//! | `watch.arming_speedup` | 200 / 20 | 0.98912 × 0.97 |
//! | `drift.arming_speedup` | 200 / 20 | 0.82 × 0.97 |
//!
//! Watch and drift switch every 20 windows: a daemon spawned per
//! window would time thread start, not sampling. Every leg runs; the
//! binary then exits 1 if any ratio fell below its floor, printing
//! `prefall-overhead: FAIL (<gate>) — <detail>` for each.
//!
//! ```text
//! cargo run --release -p prefall-bench --bin prefall-overhead
//! ```

use prefall_bench::overhead::{arming_medians, probe_detector};
use prefall_bench::{driftref, watch_slos};
use prefall_core::tap::DetectorTap;
use prefall_drift::{DriftConfig, DriftMonitor};
use prefall_telemetry::Registry;
use prefall_watch::{StoreConfig, Watch, WatchConfig};
use std::sync::Arc;

/// Floor on `trace.arming_speedup`: the committed ratio 1.0 × 0.97,
/// i.e. coarse tracing may cost the classified push at most 3 %.
const MIN_TRACE_SPEEDUP: f64 = 0.97;

/// Floor on `watch.arming_speedup`: the committed ratio 0.98912 × 0.97.
const MIN_WATCH_SPEEDUP: f64 = 0.9891159753295442 * 0.97;

/// Floor on `drift.arming_speedup`: the committed ratio 0.82 × 0.97,
/// committed when the tap cost ~3 µs of a ~16 µs classified push. With
/// the branch attribution taken in one lockstep pass the tap costs
/// ~1 µs of a ~10.5 µs push, and the ratio reads ~0.92.
const MIN_DRIFT_SPEEDUP: f64 = 0.82 * 0.97;

/// One arming leg: its `(disarmed, armed)` median push times, in
/// seconds.
type Leg = fn() -> (f64, f64);

/// Coarse tracing (the whole-pass `nn.infer` span — what production
/// would leave on) against disarmed, switching every window. The small
/// ring keeps each switch's reset cheap; its events are discarded.
fn trace_leg() -> (f64, f64) {
    let medians = arming_medians(&mut probe_detector(1.1), 300, 1, |_, armed| {
        if armed {
            prefall_trace::arm(4096);
        } else {
            prefall_trace::disarm();
        }
    });
    let _ = prefall_trace::drain();
    medians
}

/// The wall-clock watch daemon, sampling the live registry the detector
/// records into at a deliberately aggressive 10 ms cadence (the
/// production default is 1 s).
fn watch_leg() -> (f64, f64) {
    let registry = Arc::new(Registry::new());
    let watch = Arc::new(Watch::new(
        Arc::clone(&registry),
        WatchConfig {
            store: StoreConfig {
                resolution_s: 0.01,
                retention_s: 60.0,
                max_series: 256,
            },
            slos: watch_slos(),
            alert_log_cap: 16,
        },
    ));
    let mut det = probe_detector(1.1);
    det.session_mut().set_recorder(registry);
    let mut daemon = None;
    // Dropping the daemon stops and joins its thread.
    arming_medians(&mut det, 200, 20, |_, armed| {
        daemon = armed.then(|| watch.spawn());
    })
}

/// The drift tap against the committed reference, installed and
/// removed between rounds. Arming also switches inference to the
/// traced engine (attribution is part of the price).
fn drift_leg() -> (f64, f64) {
    let (tap, handle) = DriftMonitor::create(DriftConfig::default());
    handle.set_reference(driftref::build_reference());
    let mut parked: Option<Box<dyn DetectorTap>> = Some(Box::new(tap));
    arming_medians(&mut probe_detector(1.1), 200, 20, |det, armed| {
        let session = det.session_mut();
        if armed {
            if let Some(tap) = parked.take() {
                session.set_tap(tap);
            }
        } else if let Some(tap) = session.take_tap() {
            parked = Some(tap);
        }
    })
}

fn main() {
    let legs: [(&str, Leg, f64); 3] = [
        ("trace", trace_leg, MIN_TRACE_SPEEDUP),
        ("watch", watch_leg, MIN_WATCH_SPEEDUP),
        ("drift", drift_leg, MIN_DRIFT_SPEEDUP),
    ];
    let mut failed = Vec::new();
    for (gate, leg, floor) in legs {
        let (disarmed, armed) = leg();
        let speedup = disarmed / armed;
        println!(
            "{gate:<6}: push median disarmed {:.1} µs, armed {:.1} µs \
             ({gate}.arming_speedup {speedup:.3}, floor {floor:.5})",
            disarmed * 1e6,
            armed * 1e6,
        );
        if speedup.is_nan() || speedup < floor {
            failed.push(format!(
                "prefall-overhead: FAIL ({gate}) — {gate}.arming_speedup = {speedup:.6}, \
                 floor {floor:.6}"
            ));
        }
    }
    for line in &failed {
        eprintln!("{line}");
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
