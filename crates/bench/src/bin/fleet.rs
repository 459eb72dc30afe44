//! Fleet-serving bench: drives the `prefall-fleet` ingest server with
//! real TCP clients — a clean leg, a chaos leg and a shed leg — and
//! gates the robustness contract. It gates no wall-clock number: fleet
//! latency and throughput are measured end to end by the repo
//! benchmark's `fleet-steady` and `fleet-churn` workloads.
//!
//! Legs:
//!
//! 1. **clean** — N concurrent wearers stream tick-sequenced batches
//!    over keep-alive connections. Gates: every batch accepted, zero
//!    shedding, and every wearer's probability stream **bit-identical**
//!    (`f32::to_bits`) to the serial single-stream detector.
//! 2. **chaos** — [`NetFaultPlan::storm`] clients act out stalls,
//!    partial writes, reorders, duplicates, mid-batch disconnects and
//!    reconnect storms against the live server while a fast supervisor
//!    reaps idle sessions underneath. Gates: no rejection, no
//!    cross-contamination (clean wearers stay bit-identical to serial),
//!    every faulty wearer converges to the full tick count, duplicates
//!    recognised, memory bounded (sessions, parked checkpoints, accept
//!    queue).
//! 3. **shed** — forced load-shedding accounting: every shed window
//!    counted, none classified, recovery restores inference; plus the
//!    transport backpressure contract (429 + exponentially growing
//!    `Retry-After` hints) checked over TCP.
//!
//! Output: `bench-out/BENCH_fleet.json` (informational; the exit code
//! is the gate).
//!
//! ```text
//! cargo run --release -p prefall-bench --bin prefall-fleet
//! ```

use prefall_bench::{fail, telemetry_out};
use prefall_core::detector::{DetectorConfig, GuardConfig, StreamingDetector};
use prefall_core::models::ModelKind;
use prefall_core::pipeline::PipelineConfig;
use prefall_core::session::ModelBundle;
use prefall_dsp::segment::Overlap;
use prefall_dsp::stats::Normalizer;
use prefall_faults::NetFaultPlan;
use prefall_fleet::{
    BatchSample, Fleet, FleetConfig, FleetServer, IngestBatch, IngestReply, IngestStatus,
};
use prefall_telemetry::{JsonValue, Recorder};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Clean leg: wearers × ticks over TCP.
const CLEAN_WEARERS: u64 = 12;
const CLEAN_TICKS: u64 = 400;
const CLEAN_BATCH: u64 = 40;

/// Chaos leg: faulty + clean streams, ticks each.
const CHAOS_FAULTY: u64 = 10;
const CHAOS_CLEAN: u64 = 4;
const CHAOS_BATCHES: u64 = 10;
const CHAOS_BATCH: u64 = 30;

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
    let net = ModelKind::ProposedCnn
        .build(cfg.pipeline.segmentation.window(), 9, 1)
        .expect("model builds");
    ModelBundle::new(net, Normalizer::identity(9), cfg).expect("bundle")
}

/// Deterministic wearer-distinct motion, every axis varying.
fn motion(wearer: u64, tick: u64) -> ([f32; 3], [f32; 3]) {
    let w = wearer as f32;
    let t = tick as f32 * 0.06;
    (
        [
            0.05 * (t + w).sin(),
            -0.03 * (t * 0.9 + w).cos(),
            1.0 + 0.02 * (2.1 * t).sin(),
        ],
        [
            11.0 * (t * 1.3 + w).sin(),
            -6.0 * (t + 0.2 * w).cos(),
            3.0 * (0.7 * t + w).sin(),
        ],
    )
}

fn batch_for(wearer: u64, seq: u64, len: u64) -> IngestBatch {
    IngestBatch {
        wearer,
        seq,
        samples: (0..len)
            .map(|i| {
                let (accel, gyro) = motion(wearer, seq + i);
                BatchSample::Sample { accel, gyro }
            })
            .collect(),
    }
}

/// The serial single-stream reference: one wearer, one detector,
/// bit-exact probability stream.
fn serial_probs(wearer: u64, ticks: u64) -> Vec<u32> {
    let cfg = detector_config();
    let net = ModelKind::ProposedCnn
        .build(cfg.pipeline.segmentation.window(), 9, 1)
        .expect("model builds");
    let mut det = StreamingDetector::new(net, Normalizer::identity(9), cfg).expect("detector");
    let mut probs = Vec::new();
    for t in 0..ticks {
        let (a, g) = motion(wearer, t);
        if let Some(p) = det.push_sample(a, g) {
            probs.push(p.to_bits());
        }
    }
    probs
}

// ---------------------------------------------------------------------
// Minimal HTTP/1.1 ingest client
// ---------------------------------------------------------------------

struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

struct HttpReply {
    code: u16,
    retry_after_ms: Option<u64>,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            addr,
            stream,
            reader,
        })
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        *self = Self::connect(self.addr)?;
        Ok(())
    }

    fn request_bytes(batch: &[u8]) -> Vec<u8> {
        let mut req = format!(
            "POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            batch.len()
        )
        .into_bytes();
        req.extend_from_slice(batch);
        req
    }

    fn read_reply(&mut self) -> std::io::Result<HttpReply> {
        let mut status = String::new();
        if self.reader.read_line(&mut status)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let code: u16 = status
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut content_length = 0usize;
        let mut retry_after_ms = None;
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("retry-after-ms") {
                    retry_after_ms = value.parse().ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(HttpReply {
            code,
            retry_after_ms,
            body,
        })
    }

    /// One clean request/response exchange.
    fn post(&mut self, batch: &IngestBatch) -> std::io::Result<HttpReply> {
        self.stream
            .write_all(&Self::request_bytes(&batch.to_bytes()))?;
        self.stream.flush()?;
        self.read_reply()
    }
}

fn parse_reply(body: &[u8]) -> IngestReply {
    let text = std::str::from_utf8(body)
        .unwrap_or_else(|e| fail("protocol", format!("non-UTF-8 reply body: {e}")));
    let doc = JsonValue::parse(text)
        .unwrap_or_else(|e| fail("protocol", format!("unparseable reply: {e}")));
    IngestReply::from_json(&doc).unwrap_or_else(|e| fail("protocol", format!("bad reply: {e}")))
}

// ---------------------------------------------------------------------
// Legs
// ---------------------------------------------------------------------

/// Clean TCP leg: concurrent streams, bit-identity gate, server-side
/// ingest latency histogram.
fn clean_leg(rec: &Arc<dyn prefall_telemetry::Recorder>) {
    let mut fleet = Fleet::new(
        bundle(),
        FleetConfig {
            // Pressure thresholds out of reach: this leg *defines* the
            // bit-identity contract, so shedding must never engage.
            shed_at: 1 << 20,
            reject_at: 1 << 20,
            ..FleetConfig::default()
        },
    );
    fleet.set_recorder(Arc::clone(rec));
    let fleet = Arc::new(fleet);
    let server = FleetServer::start("127.0.0.1:0", Arc::clone(&fleet)).expect("bind");
    let addr = server.addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..CLEAN_WEARERS)
        .map(|w| {
            std::thread::spawn(move || -> Vec<u32> {
                let mut client = Client::connect(addr).expect("connect");
                let mut probs = Vec::new();
                for seq in (0..CLEAN_TICKS).step_by(CLEAN_BATCH as usize) {
                    let reply = client
                        .post(&batch_for(w, seq, CLEAN_BATCH))
                        .unwrap_or_else(|e| fail("clean", format!("wearer {w} io: {e}")));
                    if reply.code != 200 {
                        fail("clean", format!("wearer {w} got HTTP {}", reply.code));
                    }
                    let reply = parse_reply(&reply.body);
                    if reply.status != IngestStatus::Accepted || reply.shed {
                        fail(
                            "clean",
                            format!("wearer {w}: {:?} shed={}", reply.status, reply.shed),
                        );
                    }
                    probs.extend(reply.probs_bits);
                }
                probs
            })
        })
        .collect();
    let streams: Vec<Vec<u32>> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();
    let wall = start.elapsed().as_secs_f64();

    for (w, probs) in streams.iter().enumerate() {
        let serial = serial_probs(w as u64, CLEAN_TICKS);
        if probs != &serial {
            fail(
                "clean bit-identity",
                format!("wearer {w} diverged from the serial detector"),
            );
        }
    }
    let stats = fleet.stats();
    if stats.shed_windows != 0 || stats.rejected != 0 {
        fail(
            "clean",
            format!(
                "unexpected degradation: shed={} rejected={}",
                stats.shed_windows, stats.rejected
            ),
        );
    }
    println!(
        "clean       : {CLEAN_WEARERS} streams x {CLEAN_TICKS} ticks over TCP in {:.2}s, \
         {} windows, bit-identical to serial",
        wall, stats.windows
    );
    server.shutdown();
}

/// One faulty chaos stream: acts out the plan's transport faults,
/// returns (final next_seq, duplicates seen, regressions seen).
fn run_faulty_stream(addr: SocketAddr, wearer: u64, plan: &NetFaultPlan) -> (u64, u64, u64) {
    let mut client = Client::connect(addr).expect("connect");
    let batches: Vec<Vec<u8>> = (0..CHAOS_BATCHES)
        .map(|k| batch_for(wearer, k * CHAOS_BATCH, CHAOS_BATCH).to_bytes())
        .collect();

    // Apply reorders up front: a reordered batch swaps places with its
    // successor on the wire.
    let mut order: Vec<usize> = (0..batches.len()).collect();
    let mut k = 0;
    while k + 1 < order.len() {
        if plan.actions(wearer, k as u64).reorder_with_next {
            order.swap(k, k + 1);
            k += 2;
        } else {
            k += 1;
        }
    }

    let mut next_seq = 0u64;
    let mut duplicates = 0u64;
    let mut regressions = 0u64;
    for &i in &order {
        let acts = plan.actions(wearer, i as u64);
        for _ in 0..acts.reconnect_burst {
            client.reconnect().expect("reconnect burst");
        }
        if acts.stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(acts.stall_ms));
        }
        let req = Client::request_bytes(&batches[i]);
        if acts.disconnect_mid_batch {
            // Half a request, then the connection dies.
            let _ = client.stream.write_all(&req[..req.len() / 2]);
            let _ = client.stream.flush();
            client.reconnect().expect("reconnect after mid-batch drop");
        }
        let sends = if acts.duplicate { 2 } else { 1 };
        for _ in 0..sends {
            let outcome = (|| -> std::io::Result<HttpReply> {
                if acts.partial_write {
                    let half = req.len() / 2;
                    client.stream.write_all(&req[..half])?;
                    client.stream.flush()?;
                    std::thread::sleep(Duration::from_millis(2));
                    client.stream.write_all(&req[half..])?;
                } else {
                    client.stream.write_all(&req)?;
                }
                client.stream.flush()?;
                client.read_reply()
            })();
            let http = match outcome {
                Ok(http) => http,
                Err(_) => {
                    // Cut mid-exchange: reconnect and retransmit — the
                    // tick-sequenced protocol makes the retry safe.
                    client.reconnect().expect("reconnect after cut");
                    client.stream.write_all(&req).expect("retransmit");
                    client.read_reply().expect("reply after retransmit")
                }
            };
            if http.code != 200 {
                fail(
                    "chaos",
                    format!("faulty wearer {wearer} got HTTP {}", http.code),
                );
            }
            let reply = parse_reply(&http.body);
            if reply.wearer != wearer {
                fail(
                    "chaos cross-contamination",
                    format!("wearer {wearer} got wearer {}'s reply", reply.wearer),
                );
            }
            match reply.status {
                IngestStatus::Rejected => {
                    fail("chaos", format!("wearer {wearer} rejected mid-stream"))
                }
                IngestStatus::Duplicate => duplicates += 1,
                IngestStatus::Accepted => {}
            }
            if reply.regressed {
                regressions += 1;
            }
            next_seq = next_seq.max(reply.next_seq);
        }
    }
    (next_seq, duplicates, regressions)
}

/// Chaos leg: faulty and clean streams share the server while the
/// supervisor reaps underneath.
fn chaos_leg(rec: &Arc<dyn prefall_telemetry::Recorder>, seed: u64) -> (u64, u64) {
    let cfg = FleetConfig {
        // Shedding stays out of reach so the concurrently-served clean
        // streams keep their bit-identity guarantee (the shed leg
        // exercises degradation separately).
        shed_at: 1 << 20,
        reject_at: 1 << 20,
        max_parked: 64,
        // An aggressive supervisor: stalled streams get parked quickly
        // and must resume warm when their wearer retransmits.
        idle_timeout: Duration::from_millis(200),
        supervise_interval: Duration::from_millis(50),
        ..FleetConfig::default()
    };
    let queue_cap = cfg.queue_cap;
    let mut fleet = Fleet::new(bundle(), cfg);
    fleet.set_recorder(Arc::clone(rec));
    let fleet = Arc::new(fleet);
    let supervisor = fleet.spawn_supervisor();
    let server = FleetServer::start("127.0.0.1:0", Arc::clone(&fleet)).expect("bind");
    let addr = server.addr();
    let plan = NetFaultPlan::storm(seed);
    let total_ticks = CHAOS_BATCHES * CHAOS_BATCH;

    let faulty: Vec<_> = (0..CHAOS_FAULTY)
        .map(|i| {
            let plan = plan.clone();
            let wearer = 100 + i;
            std::thread::spawn(move || run_faulty_stream(addr, wearer, &plan))
        })
        .collect();
    let clean: Vec<_> = (0..CHAOS_CLEAN)
        .map(|i| {
            let wearer = 200 + i;
            std::thread::spawn(move || -> (u64, Vec<u32>) {
                let mut client = Client::connect(addr).expect("connect");
                let mut probs = Vec::new();
                for seq in (0..total_ticks).step_by(CHAOS_BATCH as usize) {
                    let http = client
                        .post(&batch_for(wearer, seq, CHAOS_BATCH))
                        .unwrap_or_else(|e| fail("chaos", format!("clean wearer {wearer}: {e}")));
                    if http.code != 200 {
                        fail(
                            "chaos",
                            format!("clean wearer {wearer} got HTTP {}", http.code),
                        );
                    }
                    let reply = parse_reply(&http.body);
                    if reply.status != IngestStatus::Accepted || reply.wearer != wearer {
                        fail("chaos", format!("clean wearer {wearer} mis-served"));
                    }
                    probs.extend(reply.probs_bits);
                }
                (wearer, probs)
            })
        })
        .collect();

    let mut duplicates = 0u64;
    let mut regressions = 0u64;
    for h in faulty {
        let (next_seq, dups, regs) = h.join().expect("faulty stream panicked");
        if next_seq != total_ticks {
            fail(
                "chaos convergence",
                format!("faulty stream stopped at tick {next_seq} of {total_ticks}"),
            );
        }
        duplicates += dups;
        regressions += regs;
    }
    for h in clean {
        let (wearer, probs) = h.join().expect("clean stream panicked");
        if probs != serial_probs(wearer, total_ticks) {
            fail(
                "chaos cross-contamination",
                format!("clean wearer {wearer} diverged under concurrent chaos"),
            );
        }
    }

    // Bounded memory: sessions never exceed the wearer population,
    // parked checkpoints and the accept queue stay within their caps,
    // and the free-list accounting balances.
    let stats = fleet.stats();
    let population = CHAOS_FAULTY + CHAOS_CLEAN;
    if stats.sessions_created > population {
        fail(
            "chaos memory",
            format!(
                "{} sessions created for {population} wearers",
                stats.sessions_created
            ),
        );
    }
    if stats.sessions_parked > 64 {
        fail(
            "chaos memory",
            "parked checkpoints exceeded max_parked".into(),
        );
    }
    if stats.queue_depth_hw > queue_cap {
        fail("chaos memory", "accept queue exceeded its cap".into());
    }
    if stats.sessions_created != (stats.sessions_active + stats.sessions_free) as u64 {
        fail("chaos memory", "session accounting leaked".into());
    }
    if stats.duplicates == 0 {
        fail(
            "chaos coverage",
            "storm produced no duplicate deliveries — plan not exercised".into(),
        );
    }
    if stats.shed_windows != 0 {
        fail("chaos", "unexpected shedding in the chaos leg".into());
    }
    println!(
        "chaos       : {CHAOS_FAULTY} faulty + {CHAOS_CLEAN} clean streams converged \
         ({} dups, {} regressions, {} reaped, {} resumed), memory bounded",
        duplicates, regressions, stats.reaped, stats.resumed
    );
    server.shutdown();
    supervisor.shutdown();
    (duplicates, regressions)
}

/// Shed accounting + transport backpressure contract.
fn shed_leg(rec: &Arc<dyn prefall_telemetry::Recorder>) -> f64 {
    let mut fleet = Fleet::new(bundle(), FleetConfig::default());
    fleet.set_recorder(Arc::clone(rec));
    let wearers = 8u64;
    let ticks = 200u64;

    // Forced shed: cadence advances, nothing classifies.
    let mut replied_shed = 0u64;
    for seq in (0..ticks).step_by(CLEAN_BATCH as usize) {
        let wave: Vec<IngestBatch> = (0..wearers)
            .map(|w| batch_for(w, seq, CLEAN_BATCH))
            .collect();
        for reply in fleet.ingest_many_with(&wave, true) {
            if !reply.shed || !reply.probs_bits.is_empty() || reply.windows != 0 {
                fail("shed", "forced shed still ran inference".into());
            }
            replied_shed += reply.shed_windows;
        }
    }
    let stats = fleet.stats();
    if stats.shed_windows != replied_shed || replied_shed == 0 {
        fail(
            "shed accounting",
            format!(
                "counted {} shed windows, replies said {replied_shed}",
                stats.shed_windows
            ),
        );
    }
    // Recovery: inference resumes on the same sessions.
    let wave: Vec<IngestBatch> = (0..wearers)
        .map(|w| batch_for(w, ticks, CLEAN_BATCH))
        .collect();
    if !fleet
        .ingest_many_with(&wave, false)
        .iter()
        .all(|r| r.windows > 0 && !r.shed)
    {
        fail(
            "shed recovery",
            "inference did not resume after shed".into(),
        );
    }
    let stats = fleet.stats();
    let shed_rate = stats.shed_windows as f64 / (stats.shed_windows + stats.windows) as f64;

    // Transport backpressure: a saturated fleet answers 429 with
    // exponentially growing retry hints.
    let mut bp = Fleet::new(
        bundle(),
        FleetConfig {
            reject_at: 0,
            retry_after_ms: 100,
            ..FleetConfig::default()
        },
    );
    bp.set_recorder(Arc::clone(rec));
    let bp = Arc::new(bp);
    let server = FleetServer::start("127.0.0.1:0", Arc::clone(&bp)).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut hints = Vec::new();
    for _ in 0..3 {
        let http = client.post(&batch_for(1, 0, 10)).expect("post");
        if http.code != 429 {
            fail("backpressure", format!("expected 429, got {}", http.code));
        }
        hints.push(http.retry_after_ms.unwrap_or(0));
    }
    if hints != [100, 200, 400] {
        fail(
            "backpressure",
            format!("retry hints not exponential: {hints:?}"),
        );
    }
    server.shutdown();
    println!(
        "shed        : {replied_shed} shed windows accounted exactly (rate {:.3}), \
         429 hints {hints:?}",
        shed_rate
    );
    shed_rate
}

fn main() {
    let (registry, rec) = telemetry_out::bench_recorder();
    let seed: u64 = std::env::var("PREFALL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    clean_leg(&rec);
    let (duplicates, regressions) = chaos_leg(&rec, seed);
    let shed_rate = shed_leg(&rec);
    registry.gauge_set("fleet.shed_rate", shed_rate);

    telemetry_out::dump_to(
        "BENCH_fleet.json",
        "fleet",
        &registry.snapshot(),
        vec![
            ("fault_seed".to_string(), JsonValue::U64(seed)),
            ("clean_streams".to_string(), JsonValue::U64(CLEAN_WEARERS)),
            (
                "chaos_streams".to_string(),
                JsonValue::U64(CHAOS_FAULTY + CHAOS_CLEAN),
            ),
            ("chaos_duplicates".to_string(), JsonValue::U64(duplicates)),
            ("chaos_regressions".to_string(), JsonValue::U64(regressions)),
            ("shed_rate".to_string(), JsonValue::F64(shed_rate)),
        ],
    );
}
