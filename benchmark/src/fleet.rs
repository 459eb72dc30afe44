//! `fleet-steady` and `fleet-churn`: an in-process `FleetServer`
//! driven over loopback TCP by at most nproc client threads, each with
//! at most one connection open, every wearer pinned to one thread.
//!
//! Untraced runs spend 70 % of `--seconds` in an **open loop** (requests
//! sent on a fixed schedule, each timed from when it was *due*, so a
//! stall also delays the requests queued behind it), run as repeated
//! rounds of one schedule, and 30 % in a **closed loop** (each thread
//! sends its next request as soon as the reply arrives), which gives
//! the throughput.
//!
//! * steady: 10 wearers on keep-alive connections, 40-sample batches
//!   every 400 ms per wearer — 25 batches/s.
//! * churn: 24 wearers, a visit due every 200 ms: a new connection,
//!   4 batches due 25 ms apart, close — 20 batches/s. The fleet's own
//!   supervisor parks idle sessions (150 ms idle timeout, 50 ms sweep),
//!   so a wearer's later visits resume from a parked checkpoint.

use crate::model::{self, Tick};
use crate::report::{self, nproc, Report};
use crate::stats::{self, Tails};
use prefall_core::session::{ModelBundle, SessionCheckpoint};
use prefall_drift::Fingerprint;
use prefall_fleet::{
    BatchSample, Fleet, FleetConfig, FleetServer, IngestBatch, IngestReply, IngestStatus,
};
use prefall_telemetry::{JsonValue, NoopRecorder, Recorder, Registry, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Steady,
    Churn,
}

/// Samples per batch: 400 ms of signal at 100 Hz.
const BATCH: u64 = 40;
const STEADY_WEARERS: u64 = 10;
/// Reference rate of the steady open loop, batches/s.
const STEADY_RATE: f64 = 25.0;
const CHURN_WEARERS: u64 = 24;
const VISIT_EVERY: Duration = Duration::from_millis(200);
const VISIT_BATCHES: u64 = 4;
const VISIT_GAP: Duration = Duration::from_millis(25);
/// Rate ladder (batches/s) over its own wearers, after the reference.
const LADDER_RATES: [f64; 7] = [50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0];
const LADDER_WEARERS: u64 = 64;
const LADDER_BASE: u64 = 1000;
/// The watch SLO's ingest limit and the generator's tolerated lag.
const SLO_P90_MS: f64 = 5.0;
const LAG_LIMIT_MS: f64 = 5.0;
/// A request still unsent this long after its phase ends is counted
/// as failed and skipped.
const GRACE: Duration = Duration::from_secs(2);
/// Open-loop rounds per untraced run, each on fresh connections. A
/// request's latency is the [`stats::REPEAT_QUANTILE`] of the requests
/// at its place in the schedule over the rounds.
const ROUNDS: u32 = 7;

fn fleet_config(shape: Shape) -> FleetConfig {
    match shape {
        Shape::Steady => FleetConfig::default(),
        Shape::Churn => FleetConfig {
            idle_timeout: Duration::from_millis(150),
            supervise_interval: Duration::from_millis(50),
            ..FleetConfig::default()
        },
    }
}

// ---------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------

/// Wearer input: every wearer streams the held-out trials from its own
/// offset, so wearers differ and each tick is a pure function of
/// (wearer, tick) — the serial oracle replays exactly what was sent.
struct Feed {
    ticks: Vec<Tick>,
}

impl Feed {
    fn tick(&self, wearer: u64, t: u64) -> Tick {
        let n = self.ticks.len() as u64;
        self.ticks[((wearer.wrapping_mul(7919) + t) % n) as usize]
    }

    fn batch(&self, wearer: u64, seq: u64) -> IngestBatch {
        IngestBatch {
            wearer,
            seq,
            samples: (seq..seq + BATCH)
                .map(|t| {
                    let (accel, gyro) = self.tick(wearer, t);
                    BatchSample::Sample { accel, gyro }
                })
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Schedules and accounting
// ---------------------------------------------------------------------

/// One scheduled request of an open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    due: Duration,
    wearer: u64,
    /// Open a fresh connection before sending.
    connect: bool,
    /// Close the connection after the reply.
    close: bool,
}

/// `rate` batches/s round-robin over `wearers` ids from `base`, for
/// `span`: batch k is due at k / rate.
fn arrivals(rate: f64, base: u64, wearers: u64, span: Duration) -> Vec<Step> {
    let n = (span.as_secs_f64() * rate).floor() as u64;
    (0..n)
        .map(|k| Step {
            due: Duration::from_secs_f64(k as f64 / rate),
            wearer: base + k % wearers,
            connect: false,
            close: false,
        })
        .collect()
}

/// Churn visits over `span`: visit v is due at v × 200 ms for wearer
/// (first + v) mod 24, and its batches 25 ms apart on one fresh
/// connection.
fn visits(span: Duration, first: u64) -> Vec<Step> {
    let n = (span.as_secs_f64() / VISIT_EVERY.as_secs_f64()).floor() as u64;
    (0..n)
        .flat_map(|v| {
            (0..VISIT_BATCHES).map(move |j| Step {
                due: VISIT_EVERY * v as u32 + VISIT_GAP * j as u32,
                wearer: (first + v) % CHURN_WEARERS,
                connect: j == 0,
                close: j + 1 == VISIT_BATCHES,
            })
        })
        .collect()
}

#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Replied {
        code: u16,
        body: Vec<u8>,
    },
    IoError,
    /// Still unsent when its phase's grace ran out.
    Unsent,
}

/// One request's record. Times are seconds since the phase start.
#[derive(Debug, Clone, PartialEq)]
struct Exchange {
    wearer: u64,
    seq: u64,
    due: f64,
    sent: f64,
    done: f64,
    first_of_visit: bool,
    outcome: Outcome,
}

impl Exchange {
    /// Due-time latency: includes any wait behind an earlier stall.
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }

    /// How late the generator sent it.
    fn lag_ms(&self) -> f64 {
        (self.sent - self.due) * 1e3
    }

    fn rtt_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }
}

/// One rung of the rate ladder, as the pass rule sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rung {
    rate: f64,
    p90_ms: f64,
    /// Every due request answered 200 and Accepted.
    all_accepted: bool,
    /// Generator lag of the rung's last request.
    end_lag_ms: f64,
}

impl Rung {
    fn of(rate: f64, log: &[Exchange]) -> Self {
        let lat: Vec<f64> = log.iter().map(Exchange::latency_ms).collect();
        let last = log.iter().max_by(|a, b| a.due.total_cmp(&b.due));
        Self {
            rate,
            p90_ms: stats::percentile_of(&lat, 0.9),
            all_accepted: !log.is_empty() && log.iter().all(|e| accepted(e).is_some()),
            end_lag_ms: last.map_or(f64::INFINITY, Exchange::lag_ms),
        }
    }

    fn passes(&self) -> bool {
        self.all_accepted && self.p90_ms <= SLO_P90_MS && self.end_lag_ms <= LAG_LIMIT_MS
    }
}

/// The highest rate of the leading run of passing rungs (reference
/// first), 0 when the first rung fails. Rungs after the first failure
/// are never run; any listed are ignored.
fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.passes())
        .last()
        .map_or(0.0, |r| r.rate)
}

/// The parsed reply of a request the fleet accepted, else `None`.
fn accepted(e: &Exchange) -> Option<IngestReply> {
    let Outcome::Replied { code: 200, body } = &e.outcome else {
        return None;
    };
    let doc = JsonValue::parse(std::str::from_utf8(body).ok()?).ok()?;
    let reply = IngestReply::from_json(&doc).ok()?;
    let fits = reply.status == IngestStatus::Accepted
        && reply.wearer == e.wearer
        && !reply.shed
        && reply.next_seq == e.seq + BATCH;
    fits.then_some(reply)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // The client writes each request in one call; no Nagle delay
        // on this side, so any stall measured is the server's.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { stream, reader })
    }

    fn exchange(&mut self, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let mut req = format!(
            "POST /ingest HTTP/1.1\r\nHost: fleet\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let code = line
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut reply = vec![0u8; length];
        self.reader.read_exact(&mut reply)?;
        Ok((code, reply))
    }
}

/// One generator thread: its wearers' tick positions, its connection,
/// and everything it measured.
struct Client<'f> {
    addr: SocketAddr,
    feed: &'f Feed,
    conn: Option<Conn>,
    seqs: BTreeMap<u64, u64>,
    log: Vec<Exchange>,
    connect_us: Vec<f64>,
    encode_us: Vec<f64>,
    /// Wearers with an I/O error: the server may hold ticks the client
    /// never saw answered, so the oracle skips them.
    tainted: BTreeSet<u64>,
    closed: Tally,
}

/// Closed-loop requests, counted as their replies land.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    requests: u64,
    /// Not answered 200 and `Accepted`.
    failed: u64,
    /// When the last reply landed, seconds since the loop's start.
    end_s: f64,
}

impl<'f> Client<'f> {
    fn new(addr: SocketAddr, feed: &'f Feed) -> Self {
        Self {
            addr,
            feed,
            conn: None,
            seqs: BTreeMap::new(),
            log: Vec::new(),
            connect_us: Vec::new(),
            encode_us: Vec::new(),
            tainted: BTreeSet::new(),
            closed: Tally::default(),
        }
    }

    fn send(&mut self, step: &Step, start: Instant) {
        let due = step.due.as_secs_f64();
        let seq = self.seqs.get(&step.wearer).copied().unwrap_or(0);
        let record = |outcome, sent, done| Exchange {
            wearer: step.wearer,
            seq,
            due,
            sent,
            done,
            first_of_visit: step.connect,
            outcome,
        };
        if step.connect || self.conn.is_none() {
            let t0 = Instant::now();
            match Conn::open(self.addr) {
                Ok(c) => {
                    self.connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    self.conn = Some(c);
                }
                Err(_) => {
                    let now = start.elapsed().as_secs_f64();
                    self.log.push(record(Outcome::IoError, now, now));
                    return;
                }
            }
        }
        let t0 = Instant::now();
        let bytes = self.feed.batch(step.wearer, seq).to_bytes();
        self.encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let conn = self.conn.as_mut().expect("connected above");
        let sent = start.elapsed().as_secs_f64();
        let result = conn.exchange(&bytes);
        let done = start.elapsed().as_secs_f64();
        self.seqs.insert(step.wearer, seq + BATCH);
        let outcome = match result {
            Ok((code, body)) => Outcome::Replied { code, body },
            Err(_) => {
                self.conn = None;
                self.tainted.insert(step.wearer);
                Outcome::IoError
            }
        };
        if step.close {
            self.conn = None;
        }
        self.log.push(record(outcome, sent, done));
    }

    /// Sends each step at its due time, or at once when running late.
    fn open_loop(&mut self, plan: &[Step], start: Instant, span: Duration) {
        for step in plan {
            let now = Instant::now();
            if now > start + span + GRACE {
                let late = now.duration_since(start).as_secs_f64();
                self.log.push(Exchange {
                    wearer: step.wearer,
                    seq: self.seqs.get(&step.wearer).copied().unwrap_or(0),
                    due: step.due.as_secs_f64(),
                    sent: late,
                    done: late,
                    first_of_visit: step.connect,
                    outcome: Outcome::Unsent,
                });
                continue;
            }
            if let Some(wait) = (start + step.due).checked_duration_since(now) {
                std::thread::sleep(wait);
            }
            self.send(step, start);
        }
    }

    /// Back-to-back requests (or visits) round-robin over `wearers`
    /// until `span` has passed; each request is due when it is sent.
    /// Replies are checked as they land and not kept: a log would grow
    /// with the server's speed, and a faster server would read as a
    /// larger one in `peak_rss_mb`. The stream oracle covers the open
    /// loop, which precedes this.
    fn closed_loop(&mut self, wearers: &[u64], visits: bool, start: Instant, span: Duration) {
        let per_wearer = if visits { VISIT_BATCHES } else { 1 };
        'run: loop {
            for &wearer in wearers {
                for j in 0..per_wearer {
                    let now = start.elapsed();
                    if now >= span && j == 0 {
                        break 'run;
                    }
                    let step = Step {
                        due: now,
                        wearer,
                        connect: visits && j == 0,
                        close: visits && j + 1 == per_wearer,
                    };
                    self.send(&step, start);
                    let e = self.log.pop().expect("send logs every request");
                    self.closed.requests += 1;
                    self.closed.failed += u64::from(accepted(&e).is_none());
                    self.closed.end_s = self.closed.end_s.max(e.done);
                }
            }
        }
    }
}

/// Runs one phase on every client thread at once.
fn phase<'f>(
    clients: &mut [Client<'f>],
    run: impl Fn(usize, &mut Client<'f>, Instant) + Sync,
) -> Vec<Vec<Exchange>> {
    let start = Instant::now();
    let marks: Vec<usize> = clients.iter().map(|c| c.log.len()).collect();
    std::thread::scope(|s| {
        for (i, c) in clients.iter_mut().enumerate() {
            let run = &run;
            s.spawn(move || run(i, c, start));
        }
    });
    clients
        .iter()
        .zip(marks)
        .map(|(c, m)| c.log[m..].to_vec())
        .collect()
}

/// An open phase with the tracer armed (`detail` adds the nn kernel
/// spans); the server's threads trace too, so the drained timeline
/// holds their `nn.*` spans.
fn traced_phase(
    clients: &mut [Client<'_>],
    plan: &[Step],
    span: Duration,
    detail: bool,
) -> (Vec<Exchange>, prefall_trace::Timeline) {
    prefall_trace::arm(1 << 17);
    prefall_trace::set_detail(detail);
    let log = open_phase(clients, plan, span);
    prefall_trace::disarm();
    (log, prefall_trace::drain())
}

/// Splits a schedule over the client threads by wearer.
fn assign(plan: &[Step], threads: usize) -> Vec<Vec<Step>> {
    let mut out = vec![Vec::new(); threads];
    for s in plan {
        out[(s.wearer % threads as u64) as usize].push(*s);
    }
    out
}

/// The wearers `assign` pins to one thread.
fn wearers_of(n: u64, thread: usize, threads: usize) -> Vec<u64> {
    (0..n)
        .filter(|w| (w % threads as u64) as usize == thread)
        .collect()
}

// ---------------------------------------------------------------------
// Server and oracles
// ---------------------------------------------------------------------

/// Captures `fleet.ingest_seconds` observations exactly (the traced
/// pass's view of server-side ingest time).
#[derive(Debug, Default)]
struct IngestCapture {
    seconds: Mutex<Vec<f64>>,
}

impl IngestCapture {
    fn take(&self) -> Vec<f64> {
        std::mem::take(&mut *self.seconds.lock().expect("capture lock"))
    }
}

impl Recorder for IngestCapture {
    fn enabled(&self) -> bool {
        true
    }
    fn counter_add(&self, _: &str, _: u64) {}
    fn gauge_set(&self, _: &str, _: f64) {}
    fn observe(&self, name: &str, value: f64) {
        if name == "fleet.ingest_seconds" {
            self.seconds.lock().expect("capture lock").push(value);
        }
    }
    fn event(&self, _: &str, _: &[(&str, Value<'_>)]) {}
}

struct Served {
    fleet: Arc<Fleet>,
    server: FleetServer,
    supervisor: Option<prefall_fleet::Supervisor>,
}

impl Served {
    fn stop(self) {
        self.server.shutdown();
        if let Some(s) = self.supervisor {
            s.shutdown();
        }
    }
}

/// Set-up: dataset, training, bundle, fleet and a listening server.
fn serve(
    shape: Shape,
    seed: u64,
    train_rec: &dyn Recorder,
    capture: Option<Arc<IngestCapture>>,
) -> Result<(Served, Feed), String> {
    let trained = model::train(seed, train_rec)?;
    let bundle = ModelBundle::new(trained.net, trained.norm, model::detector_config())
        .map_err(|e| format!("bundle: {e}"))?;
    let mut fleet = Fleet::new(bundle, fleet_config(shape));
    if let Some(c) = capture {
        fleet.set_recorder(c);
    }
    let fleet = Arc::new(fleet);
    let supervisor = (shape == Shape::Churn).then(|| fleet.spawn_supervisor());
    let server =
        FleetServer::start("127.0.0.1:0", Arc::clone(&fleet)).map_err(|e| format!("bind: {e}"))?;
    let served = Served {
        fleet,
        server,
        supervisor,
    };
    Ok((
        served,
        Feed {
            ticks: trained.stream,
        },
    ))
}

/// Failed operations: I/O errors, unsent, non-200 or not Accepted.
fn failures(log: &[Exchange]) -> u64 {
    log.iter().filter(|e| accepted(e).is_none()).count() as u64
}

/// Each wearer's probability stream, concatenated across its requests
/// (and visits), against one serial `Session` fed the same ticks.
fn check_streams(report: &mut Report, clients: &[Client<'_>], bundle: &ModelBundle, feed: &Feed) {
    let (mut checked, mut diverged, mut guard_faults) = (0, Vec::new(), 0u64);
    for c in clients {
        let mut by_wearer: BTreeMap<u64, Vec<&Exchange>> = BTreeMap::new();
        for e in c.log.iter().filter(|e| e.outcome != Outcome::Unsent) {
            by_wearer.entry(e.wearer).or_default().push(e);
        }
        for (wearer, log) in by_wearer {
            if c.tainted.contains(&wearer) {
                continue;
            }
            let mut served = Vec::new();
            let mut complete = true;
            for e in &log {
                match accepted(e) {
                    Some(reply) => served.extend(reply.probs_bits),
                    None => complete = false,
                }
            }
            if !complete {
                continue;
            }
            // The logged requests are the wearer's first ones: the
            // closed loop, which keeps no log, runs after every open one.
            let ticks = log.iter().map(|e| e.seq + BATCH).max().unwrap_or(0);
            let mut session = bundle.new_session();
            let mut probs = Vec::new();
            for t in 0..ticks {
                let (accel, gyro) = feed.tick(wearer, t);
                session.push_at(bundle, t, accel, gyro, &mut probs);
            }
            let g = session.guard_status();
            guard_faults += g.clamped + g.nonfinite + g.stuck_events + g.degraded_windows;
            checked += 1;
            if probs.iter().map(|p| p.to_bits()).ne(served) {
                diverged.push(wearer);
            }
        }
    }
    report.check(
        "every wearer's stream equals a serial Session",
        diverged.is_empty() && checked > 0,
        format!("{checked} wearers checked, diverged: {diverged:?}"),
    );
    report.check(
        "seeded input trips no guard fault",
        guard_faults == 0,
        format!("{guard_faults} guard interventions"),
    );
}

fn check_fleet(report: &mut Report, fleet: &Fleet) {
    let s = fleet.stats();
    report.check(
        "no shedding, rejection or connection timeout",
        s.shed_windows == 0 && s.rejected == 0 && s.conn_timeouts == 0,
        format!(
            "shed windows {} rejected {} timeouts {}",
            s.shed_windows, s.rejected, s.conn_timeouts
        ),
    );
}

fn latencies(log: &[Exchange]) -> Vec<f64> {
    let mut by_due: Vec<&Exchange> = log.iter().collect();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    by_due.into_iter().map(Exchange::latency_ms).collect()
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

pub fn run(shape: Shape, seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let name = match shape {
        Shape::Steady => "fleet-steady",
        Shape::Churn => "fleet-churn",
    };
    let mut report = Report::new(name, seed, trace, seconds);
    let threads = nproc().min(2);
    report.load_shape(threads, threads);
    let budget = Duration::from_secs(seconds);
    if trace {
        traced(&mut report, shape, seed, threads, budget)?;
    } else {
        untraced(&mut report, shape, seed, threads, budget)?;
    }
    Ok(report)
}

/// The open-loop schedule of `span` for this workload; successive
/// churn rounds carry on through the wearer rotation.
fn reference_plan(shape: Shape, span: Duration, round: u32) -> Vec<Step> {
    match shape {
        Shape::Steady => arrivals(STEADY_RATE, 0, STEADY_WEARERS, span),
        Shape::Churn => {
            let per_round = (span.as_secs_f64() / VISIT_EVERY.as_secs_f64()).floor() as u64;
            visits(span, u64::from(round) * per_round)
        }
    }
}

fn population(shape: Shape) -> u64 {
    match shape {
        Shape::Steady => STEADY_WEARERS,
        Shape::Churn => CHURN_WEARERS,
    }
}

/// Every open loop starts on fresh connections. A loopback keep-alive
/// connection's delayed-ACK state depends on its history: once requests
/// have gone out back to back, the server's separate header and body
/// writes stall ~40 ms each, and an open loop running behind keeps it
/// that way. Fresh connections give every phase the same start state.
fn open_phase(clients: &mut [Client<'_>], plan: &[Step], span: Duration) -> Vec<Exchange> {
    for c in clients.iter_mut() {
        c.conn = None;
    }
    let plans = assign(plan, clients.len());
    phase(clients, |i, c, start| c.open_loop(&plans[i], start, span)).concat()
}

fn untraced(
    report: &mut Report,
    shape: Shape,
    seed: u64,
    threads: usize,
    budget: Duration,
) -> Result<(), String> {
    let setup = || serve(shape, seed, &NoopRecorder, None);
    let ((served, feed), first) = stats::timed(setup)?;
    let mut setups = vec![first];
    report.phase("setup", Duration::from_secs_f64(first));

    let mut clients: Vec<Client<'_>> = (0..threads)
        .map(|_| Client::new(served.server.addr(), &feed))
        .collect();
    let open_span = budget * 7 / 10;
    let round_span = open_span / ROUNDS;
    let t = Instant::now();
    let mut rounds = Vec::with_capacity(ROUNDS as usize);
    for r in 0..ROUNDS {
        if stats::setup_due(setups.len(), t.elapsed(), open_span) {
            let ((extra, _), took) = stats::timed(setup)?;
            extra.stop();
            setups.push(took);
        }
        let plan = reference_plan(shape, round_span, r);
        rounds.push(open_phase(&mut clients, &plan, round_span));
    }
    report.phase("open loop", t.elapsed());

    let t = Instant::now();
    let closed_span = budget - open_span;
    phase(&mut clients, |i, c, start| {
        let wearers = wearers_of(population(shape), i, threads);
        c.closed_loop(&wearers, shape == Shape::Churn, start, closed_span);
    });
    let closed = clients.iter().fold(Tally::default(), |sum, c| Tally {
        requests: sum.requests + c.closed.requests,
        failed: sum.failed + c.closed.failed,
        end_s: sum.end_s.max(c.closed.end_s),
    });
    report.phase("closed loop", t.elapsed());
    for c in &mut clients {
        c.conn = None;
    }

    let t = Instant::now();
    check_streams(report, &clients, served.fleet.bundle(), &feed);
    check_fleet(report, &served.fleet);
    report.phase("oracles", t.elapsed());
    served.stop();

    let open = rounds.concat();
    report.attempted = open.len() as u64 + closed.requests;
    report.failed = failures(&open) + closed.failed;
    let per_round: Vec<Vec<f64>> = rounds.iter().map(|r| latencies(r)).collect();
    let tails = Tails::of(&stats::itemwise(&per_round));
    report.info("open_loop_requests", JsonValue::U64(open.len() as u64));
    report.info("closed_loop_requests", JsonValue::U64(closed.requests));
    report.setups(&setups);
    report.set("latency_p50_ms", tails.p50);
    report.set("latency_p90_ms", tails.p90);
    report.set(
        "throughput_per_s",
        (closed.requests - closed.failed) as f64 / closed.end_s,
    );
    report.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(())
}

fn traced(
    report: &mut Report,
    shape: Shape,
    seed: u64,
    threads: usize,
    budget: Duration,
) -> Result<(), String> {
    let t = Instant::now();
    let registry = Registry::new();
    let capture = Arc::new(IngestCapture::default());
    let (served, feed) = serve(shape, seed, &registry, Some(Arc::clone(&capture)))?;
    if let Some(h) = registry.snapshot().histograms.get("train.epoch_seconds") {
        report.set("nn.train_epoch_s", h.sum / h.count.max(1) as f64);
    }
    report.phase("setup", t.elapsed());

    let mut clients: Vec<Client<'_>> = (0..threads)
        .map(|_| Client::new(served.server.addr(), &feed))
        .collect();
    let span = budget * 3 / 10;
    let plan = reference_plan(shape, span, 0);

    // Untraced open loop: the baseline for the tracing overhead, the
    // reference rung of the ladder and the generator's lag.
    let t = Instant::now();
    let plain = open_phase(&mut clients, &plan, span);
    report.phase("open loop untraced", t.elapsed());

    // The same schedule with the tracer armed and the server's ingest
    // histogram captured; then a shorter one with the nn detail spans,
    // whose own cost would otherwise inflate `nn.infer`.
    let t = Instant::now();
    capture.take();
    let (traced, timeline) = traced_phase(&mut clients, &plan, span, false);
    let server_us: Vec<f64> = capture.take().iter().map(|s| s * 1e6).collect();
    report.phase("open loop traced", t.elapsed());
    let t = Instant::now();
    let detail_span = budget * 2 / 10;
    let (_, detail) = traced_phase(
        &mut clients,
        &reference_plan(shape, detail_span, 0),
        detail_span,
        true,
    );
    report.phase("open loop detail", t.elapsed());

    let mut rungs = vec![Rung::of(STEADY_RATE, &plain)];
    if shape == Shape::Steady && rungs[0].passes() {
        let t = Instant::now();
        for rate in LADDER_RATES {
            let rung_span = budget / 10;
            let log = open_phase(
                &mut clients,
                &arrivals(rate, LADDER_BASE, LADDER_WEARERS, rung_span),
                rung_span,
            );
            rungs.push(Rung::of(rate, &log));
            if !rungs.last().is_some_and(Rung::passes) {
                break;
            }
        }
        report.phase("rate ladder", t.elapsed());
    }
    for c in &mut clients {
        c.conn = None;
    }

    let t = Instant::now();
    check_streams(report, &clients, served.fleet.bundle(), &feed);
    check_fleet(report, &served.fleet);
    let dropped = timeline.dropped() + detail.dropped();
    report.check(
        "trace dropped no events",
        dropped == 0,
        format!("{dropped} events dropped"),
    );
    report.phase("oracles", t.elapsed());
    report.attempted = clients.iter().map(|c| c.log.len() as u64).sum();
    report.failed = clients.iter().map(|c| failures(&c.log)).sum();

    // Layer costs timed from outside on this run's own traffic.
    let t = Instant::now();
    let bodies: Vec<Vec<u8>> = traced
        .iter()
        .map(|e| feed.batch(e.wearer, e.seq).to_bytes())
        .collect();
    let replies: Vec<IngestReply> = traced.iter().filter_map(accepted).collect();
    let samples: Vec<Tick> = traced
        .iter()
        .flat_map(|e| (e.seq..e.seq + BATCH).map(move |t| (e.wearer, t)))
        .map(|(w, t)| feed.tick(w, t))
        .collect();
    report.set(
        "fleet.decode_us",
        mean_us(&bodies, |b| IngestBatch::from_bytes(b).is_ok()),
    );
    report.set(
        "fleet.reply_encode_us",
        mean_us(&replies, |r| r.to_json().to_string().len()),
    );
    let mut sketch = Fingerprint::new();
    report.set(
        "drift.observe_ns_per_sample",
        mean_us(&samples, |&(a, g)| sketch.observe_sample(a, g)) * 1e3,
    );
    if shape == Shape::Churn {
        let wearers: Vec<u64> = (0..CHURN_WEARERS).collect();
        let blobs: Vec<Vec<u8>> = wearers
            .iter()
            .filter_map(|&w| served.fleet.export_checkpoint(w))
            .collect();
        report.set(
            "fleet.checkpoint_encode_us",
            mean_us(&wearers, |&w| {
                served.fleet.export_checkpoint(w).map(|b| b.len())
            }),
        );
        report.set(
            "fleet.checkpoint_decode_us",
            mean_us(&blobs, |b| SessionCheckpoint::from_bytes(b).is_ok()),
        );
        let bytes: Vec<f64> = blobs.iter().map(|b| b.len() as f64).collect();
        report.set("fleet.checkpoint_bytes", stats::median(&bytes));
        let connects: Vec<f64> = clients.iter().flat_map(|c| c.connect_us.clone()).collect();
        report.set("fleet.connect_us", stats::median(&connects));
        let first: Vec<f64> = plain
            .iter()
            .filter(|e| e.first_of_visit)
            .map(Exchange::latency_ms)
            .collect();
        report.set("fleet.first_batch_p50_ms", stats::median(&first));
    } else {
        report.set("fleet.max_rate_per_s", max_rate(&rungs));
        report.info(
            "ladder",
            JsonValue::Arr(
                rungs
                    .iter()
                    .map(|r| {
                        JsonValue::Obj(vec![
                            ("rate".to_string(), JsonValue::F64(r.rate)),
                            ("p90_ms".to_string(), JsonValue::F64(r.p90_ms)),
                            ("all_accepted".to_string(), JsonValue::Bool(r.all_accepted)),
                            ("end_lag_ms".to_string(), JsonValue::F64(r.end_lag_ms)),
                        ])
                    })
                    .collect(),
            ),
        );
    }
    report.phase("layer probes", t.elapsed());

    let stats_now = served.fleet.stats();
    served.stop();
    let server = Tails::of(&server_us);
    let rtt_us: Vec<f64> = traced.iter().map(|e| e.rtt_ms() * 1e3).collect();
    report.set("fleet.server_ingest_p50_us", server.p50);
    report.set("fleet.server_ingest_p90_us", server.p90);
    report.set("fleet.transport_us", stats::median(&rtt_us) - server.p50);
    report.set("fleet.queue_depth_hw", stats_now.queue_depth_hw as f64);
    report.set("fleet.sessions_created", stats_now.sessions_created as f64);
    report.set("fleet.resumed", stats_now.resumed as f64);
    report.set("fleet.reaped", stats_now.reaped as f64);
    report.set(
        "fleet.checkpoints_evicted",
        stats_now.checkpoints_evicted as f64,
    );
    let encode: Vec<f64> = clients.iter().flat_map(|c| c.encode_us.clone()).collect();
    report.set("client.encode_us", stats::median(&encode));
    let infer = timeline.attribution().total("nn.infer");
    report.set(
        "nn.infer_us",
        infer.total_ns as f64 / infer.count.max(1) as f64 / 1e3,
    );
    crate::stream::set_kernels(report, &detail.attribution());
    let lags: Vec<f64> = plain.iter().map(Exchange::lag_ms).collect();
    report.set("generator.lag_p90_ms", stats::percentile_of(&lags, 0.9));
    let (lat_plain, lat_traced) = (latencies(&plain), latencies(&traced));
    report.set(
        "trace.overhead_pct",
        (stats::median(&lat_traced) / stats::median(&lat_plain) - 1.0) * 100.0,
    );
    report.set("latency_p99_ms", Tails::of(&lat_plain).p99);
    Ok(())
}

/// Mean microseconds per call of `f` over `items`, repeating the sweep
/// until at least 20 ms have been timed.
fn mean_us<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let (mut calls, t0) = (0usize, Instant::now());
    while calls == 0 || t0.elapsed() < Duration::from_millis(20) {
        for item in items {
            std::hint::black_box(f(std::hint::black_box(item)));
        }
        calls += items.len();
    }
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(due: f64, sent: f64, done: f64) -> Exchange {
        Exchange {
            wearer: 0,
            seq: 0,
            due,
            sent,
            done,
            first_of_visit: false,
            outcome: Outcome::IoError,
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lag_from_the_send() {
        // Due at 1.0 s, sent 30 ms late behind a stall, answered 5 ms later.
        let e = ex(1.0, 1.030, 1.035);
        assert!((e.latency_ms() - 35.0).abs() < 1e-9);
        assert!((e.lag_ms() - 30.0).abs() < 1e-9);
        assert!((e.rtt_ms() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        // 25/s schedule; the first reply takes 100 ms, the rest 1 ms
        // each once sent: requests due meanwhile wait for the stall.
        let mut log = Vec::new();
        let mut free = 0.0f64;
        for k in 0..5 {
            let due = k as f64 * 0.04;
            let sent = due.max(free);
            let done = sent + if k == 0 { 0.1 } else { 0.001 };
            free = done;
            log.push(ex(due, sent, done));
        }
        let lat: Vec<f64> = latencies(&log);
        assert!((lat[0] - 100.0).abs() < 1e-9);
        assert!((lat[1] - 61.0).abs() < 1e-9, "{lat:?}");
        assert!((lat[2] - 22.0).abs() < 1e-9, "{lat:?}");
        assert!((lat[3] - 1.0).abs() < 1e-9, "{lat:?}");
        // A closed loop would have hidden the queueing: RTTs stay tiny.
        assert!(log[1..].iter().all(|e| e.rtt_ms() <= 1.0 + 1e-9));
    }

    #[test]
    fn arrivals_spread_wearers_evenly_at_the_rate() {
        let plan = arrivals(25.0, 0, 10, Duration::from_secs(2));
        assert_eq!(plan.len(), 50);
        assert_eq!(plan[1].due, Duration::from_millis(40));
        // Each wearer every 400 ms.
        let w3: Vec<Duration> = plan
            .iter()
            .filter(|s| s.wearer == 3)
            .map(|s| s.due)
            .collect();
        assert_eq!(w3[1] - w3[0], Duration::from_millis(400));
        let by_thread = assign(&plan, 2);
        assert!(by_thread[0].iter().all(|s| s.wearer % 2 == 0));
        assert_eq!(by_thread[0].len() + by_thread[1].len(), 50);
    }

    #[test]
    fn visits_open_send_four_and_close() {
        let plan = visits(Duration::from_secs(1), 0);
        assert_eq!(plan.len(), 5 * 4);
        let v1 = &plan[4..8];
        assert!(v1.iter().all(|s| s.wearer == 1));
        assert!(v1[0].connect && !v1[0].close);
        assert!(v1[3].close && !v1[3].connect);
        assert_eq!(v1[3].due - v1[0].due, Duration::from_millis(75));
        assert_eq!(v1[0].due, Duration::from_millis(200));
        // A later round carries on through the rotation.
        let later = visits(Duration::from_secs(1), 23);
        assert_eq!((later[0].wearer, later[4].wearer), (23, 0));
    }

    fn rung(rate: f64, p90_ms: f64, ok: bool, lag: f64) -> Rung {
        Rung {
            rate,
            p90_ms,
            all_accepted: ok,
            end_lag_ms: lag,
        }
    }

    #[test]
    fn a_rung_passes_only_within_the_slo_every_reply_and_the_lag() {
        assert!(rung(50.0, 4.9, true, 1.0).passes());
        assert!(rung(50.0, 5.0, true, 5.0).passes());
        assert!(!rung(50.0, 5.1, true, 1.0).passes());
        assert!(!rung(50.0, 1.0, false, 1.0).passes());
        assert!(!rung(50.0, 1.0, true, 5.1).passes());
    }

    #[test]
    fn max_rate_is_the_last_rung_before_the_first_failure() {
        let pass = |r| rung(r, 1.0, true, 0.5);
        let fail = |r| rung(r, 44.0, true, 0.5);
        assert_eq!(max_rate(&[pass(25.0), pass(50.0), fail(100.0)]), 50.0);
        assert_eq!(max_rate(&[pass(25.0), fail(50.0)]), 25.0);
        // The reference failing means no rate meets the SLO.
        assert_eq!(max_rate(&[fail(25.0)]), 0.0);
        // Nothing after the first failure counts.
        assert_eq!(max_rate(&[pass(25.0), fail(50.0), pass(100.0)]), 25.0);
        assert_eq!(max_rate(&[]), 0.0);
    }

    #[test]
    fn a_rung_of_failed_requests_fails() {
        let log = vec![ex(0.0, 0.0, 0.001)];
        assert!(!Rung::of(25.0, &log).passes());
        assert!(!Rung::of(25.0, &[]).passes());
    }
}
