//! The fleet's robustness contract, over real TCP against a live
//! [`FleetServer`]:
//!
//! * **clean** — concurrent wearers stream tick-sequenced batches over
//!   keep-alive connections: every batch accepted, nothing shed, and
//!   every wearer's probability stream **bit-identical**
//!   (`f32::to_bits`) to the serial single-stream detector;
//! * **chaos** — [`NetFaultPlan::storm`] clients act out stalls, partial
//!   writes, reorders, duplicates, mid-batch disconnects and reconnect
//!   storms while clean streams share the server and a fast supervisor
//!   reaps idle sessions underneath: no rejection, no
//!   cross-contamination, every faulty wearer converges to the full
//!   tick count, duplicates recognised, memory bounded (sessions,
//!   parked checkpoints, accept queue).
//!
//! Shed accounting and the 429 retry ladder are unit tests of the crate
//! (`shed_mode_keeps_cadence_and_degrades_the_trigger`,
//! `overload_rejections_carry_exponential_retry_hints`).

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
use prefall_telemetry::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Fault seed of the chaos storm.
const SEED: u64 = 7;

/// Clean leg: wearers × ticks over TCP, in batches.
const CLEAN_WEARERS: u64 = 12;
const CLEAN_TICKS: u64 = 400;
const CLEAN_BATCH: u64 = 40;

/// Chaos leg: faulty + clean streams, batches × ticks each.
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

/// The shared model: an untrained proposed CNN with seeded weights.
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
    (0..ticks)
        .filter_map(|t| {
            let (a, g) = motion(wearer, t);
            det.push_sample(a, g).map(f32::to_bits)
        })
        .collect()
}

/// A minimal HTTP/1.1 ingest client on one keep-alive connection.
struct Client {
    addr: SocketAddr,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

struct HttpReply {
    code: u16,
    body: Vec<u8>,
}

impl HttpReply {
    fn ingest(&self) -> IngestReply {
        let text = std::str::from_utf8(&self.body).expect("UTF-8 reply body");
        IngestReply::from_json(&JsonValue::parse(text).expect("JSON reply")).expect("ingest reply")
    }
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
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(HttpReply { code, body })
    }

    /// One clean request/response exchange.
    fn post(&mut self, batch: &IngestBatch) -> std::io::Result<HttpReply> {
        self.stream
            .write_all(&Self::request_bytes(&batch.to_bytes()))?;
        self.stream.flush()?;
        self.read_reply()
    }
}

/// Streams `ticks` ticks of `wearer` in `batch`-tick posts on one
/// connection, requiring every post accepted and unshed, and returns
/// the probability stream.
fn clean_stream(addr: SocketAddr, wearer: u64, ticks: u64, batch: u64) -> Vec<u32> {
    let mut client = Client::connect(addr).expect("connect");
    let mut probs = Vec::new();
    for seq in (0..ticks).step_by(batch as usize) {
        let http = client
            .post(&batch_for(wearer, seq, batch))
            .unwrap_or_else(|e| panic!("wearer {wearer} io: {e}"));
        assert_eq!(http.code, 200, "wearer {wearer} got HTTP {}", http.code);
        let reply = http.ingest();
        assert!(
            reply.status == IngestStatus::Accepted && reply.wearer == wearer && !reply.shed,
            "wearer {wearer} mis-served: {:?} wearer={} shed={}",
            reply.status,
            reply.wearer,
            reply.shed
        );
        probs.extend(reply.probs_bits);
    }
    probs
}

#[test]
fn clean_tcp_streams_are_bit_identical_to_the_serial_detector() {
    let fleet = Arc::new(Fleet::new(
        bundle(),
        FleetConfig {
            // Pressure thresholds out of reach: this leg *defines* the
            // bit-identity contract, so shedding must never engage.
            shed_at: 1 << 20,
            reject_at: 1 << 20,
            ..FleetConfig::default()
        },
    ));
    let server = FleetServer::start("127.0.0.1:0", Arc::clone(&fleet)).expect("bind");
    let addr = server.addr();

    let handles: Vec<_> = (0..CLEAN_WEARERS)
        .map(|w| std::thread::spawn(move || clean_stream(addr, w, CLEAN_TICKS, CLEAN_BATCH)))
        .collect();
    for (w, h) in handles.into_iter().enumerate() {
        let probs = h.join().expect("clean stream panicked");
        assert!(
            probs == serial_probs(w as u64, CLEAN_TICKS),
            "wearer {w} diverged from the serial detector"
        );
    }
    let stats = fleet.stats();
    assert_eq!(
        (stats.shed_windows, stats.rejected),
        (0, 0),
        "unexpected degradation"
    );
    server.shutdown();
}

/// One faulty chaos stream: acts out the plan's transport faults and
/// returns the final `next_seq`.
fn run_faulty_stream(addr: SocketAddr, wearer: u64, plan: &NetFaultPlan) -> u64 {
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
            assert_eq!(
                http.code, 200,
                "faulty wearer {wearer} got HTTP {}",
                http.code
            );
            let reply = http.ingest();
            assert_eq!(
                reply.wearer, wearer,
                "cross-contamination: wearer {wearer} got wearer {}'s reply",
                reply.wearer
            );
            assert_ne!(
                reply.status,
                IngestStatus::Rejected,
                "wearer {wearer} rejected mid-stream"
            );
            next_seq = next_seq.max(reply.next_seq);
        }
    }
    next_seq
}

#[test]
fn chaos_storm_converges_without_cross_contamination_in_bounded_memory() {
    let cfg = FleetConfig {
        // Shedding stays out of reach so the concurrently-served clean
        // streams keep their bit-identity guarantee.
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
    let fleet = Arc::new(Fleet::new(bundle(), cfg));
    let supervisor = fleet.spawn_supervisor();
    let server = FleetServer::start("127.0.0.1:0", Arc::clone(&fleet)).expect("bind");
    let addr = server.addr();
    let plan = NetFaultPlan::storm(SEED);
    let total_ticks = CHAOS_BATCHES * CHAOS_BATCH;

    let faulty: Vec<_> = (0..CHAOS_FAULTY)
        .map(|i| {
            let plan = plan.clone();
            std::thread::spawn(move || run_faulty_stream(addr, 100 + i, &plan))
        })
        .collect();
    let clean: Vec<_> = (0..CHAOS_CLEAN)
        .map(|i| {
            let wearer = 200 + i;
            std::thread::spawn(move || {
                (wearer, clean_stream(addr, wearer, total_ticks, CHAOS_BATCH))
            })
        })
        .collect();

    for h in faulty {
        let next_seq = h.join().expect("faulty stream panicked");
        assert_eq!(
            next_seq, total_ticks,
            "faulty stream stopped at tick {next_seq} of {total_ticks}"
        );
    }
    for h in clean {
        let (wearer, probs) = h.join().expect("clean stream panicked");
        assert!(
            probs == serial_probs(wearer, total_ticks),
            "clean wearer {wearer} diverged under concurrent chaos"
        );
    }

    // Bounded memory: sessions never exceed the wearer population,
    // parked checkpoints and the accept queue stay within their caps,
    // and the free-list accounting balances.
    let stats = fleet.stats();
    let population = CHAOS_FAULTY + CHAOS_CLEAN;
    assert!(
        stats.sessions_created <= population,
        "{} sessions created for {population} wearers",
        stats.sessions_created
    );
    assert!(
        stats.sessions_parked <= 64,
        "parked checkpoints exceeded max_parked"
    );
    assert!(
        stats.queue_depth_hw <= queue_cap,
        "accept queue exceeded its cap"
    );
    assert_eq!(
        stats.sessions_created,
        (stats.sessions_active + stats.sessions_free) as u64,
        "session accounting leaked"
    );
    assert!(
        stats.duplicates > 0,
        "storm produced no duplicate deliveries: plan not exercised"
    );
    assert_eq!(
        stats.shed_windows, 0,
        "unexpected shedding in the chaos leg"
    );
    server.shutdown();
    supervisor.shutdown();
}
