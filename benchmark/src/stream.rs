//! `stream-float` and `stream-int8`: one wearer, closed loop, one
//! thread. The held-out trials go through `Session::push_at` sample by
//! sample; the operation timed is the push that classifies a window
//! (sample in → score and trigger decision). Every pass replays the
//! same stream, so each window is timed once per pass: its latency is
//! the [`stats::REPEAT_QUANTILE`] of its passes (up to [`KEPT_PASSES`],
//! thinned evenly over the run), and p50 / p90 are taken over windows.
//! Throughput is samples per second of time inside
//! `push_at`, at the same quantile of the passes.
//!
//! The traced pass replays the same samples through a bench-side
//! **stage replay** that calls each layer's public function in the
//! order `Session` does — `ComplementaryFilter::update`, nine
//! `SosFilter`s, the window ring, `Normalizer::apply_in_place`, the
//! engine, threshold/consecutive — with a `prefall_trace` span around
//! each call. Its scores must equal the session's bit for bit.

use crate::alloc::count_allocs;
use crate::model::{self, Tick, Trained};
use crate::report::{self, Report};
use crate::stats::{self, Tails};
use prefall_core::detector::Engine;
use prefall_core::session::{ModelBundle, Session};
use prefall_dsp::biquad::SosFilter;
use prefall_dsp::butterworth::Butterworth;
use prefall_dsp::fusion::ComplementaryFilter;
use prefall_imu::channel::NUM_CHANNELS;
use prefall_imu::trial::FUSION_ALPHA;
use prefall_imu::SAMPLE_RATE_HZ;
use prefall_nn::kernels::set_reference_kernels;
use prefall_nn::quant::QuantizedNetwork;
use prefall_nn::workspace::Workspace;
use prefall_telemetry::{NoopRecorder, Recorder, Registry};
use prefall_trace::report::Attribution;
use prefall_trace::{NameId, SpanGuard};
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Passes over the stream per untraced run, at least.
const MIN_PASSES: usize = 10;
/// Passes whose per-window times are kept for the latency estimate.
const KEPT_PASSES: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    Float,
    Int8,
}

/// The bundle under test plus the float network it came from (the
/// float oracle, and the reference for int8/float agreement).
struct Model {
    bundle: ModelBundle,
    trained: Trained,
}

fn build(precision: Precision, seed: u64, rec: &dyn Recorder) -> Result<Model, String> {
    let mut trained = model::train(seed, rec)?;
    let engine: Engine = match precision {
        Precision::Float => trained.net.clone().into(),
        Precision::Int8 => QuantizedNetwork::from_network(&mut trained.net, &trained.calib)
            .map_err(|e| format!("quantisation: {e}"))?
            .into(),
    };
    let bundle = ModelBundle::new(engine, trained.norm.clone(), model::detector_config())
        .map_err(|e| format!("bundle: {e}"))?;
    Ok(Model { bundle, trained })
}

struct Stages {
    fusion: NameId,
    filter: NameId,
    normalize: NameId,
    engine: NameId,
}

fn stages() -> &'static Stages {
    static NAMES: OnceLock<Stages> = OnceLock::new();
    NAMES.get_or_init(|| Stages {
        fusion: prefall_trace::intern("stage.fusion"),
        filter: prefall_trace::intern("stage.filter"),
        normalize: prefall_trace::intern("stage.normalize"),
        engine: prefall_trace::intern("stage.engine"),
    })
}

/// The stage replay: `Session`'s streaming path rebuilt from the
/// layers' public functions, each call inside a trace span (free while
/// tracing is disarmed). For clean input the ingest guard passes
/// samples through unchanged, so it has no stage here; the run checks
/// that the session's guard never intervened.
struct Replay<'b> {
    bundle: &'b ModelBundle,
    fusion: ComplementaryFilter,
    filters: Vec<SosFilter>,
    ring: VecDeque<[f32; NUM_CHANNELS]>,
    window: usize,
    hop: usize,
    seen: usize,
    seg: Vec<f32>,
    ws: Workspace,
    positives: usize,
    count_allocs: bool,
    allocs: u64,
    rejects: u64,
}

impl<'b> Replay<'b> {
    fn new(bundle: &'b ModelBundle) -> Result<Self, String> {
        let cfg = bundle.config();
        let design = Butterworth::lowpass(
            cfg.pipeline.filter_order,
            cfg.pipeline.filter_cutoff_hz,
            SAMPLE_RATE_HZ,
        )
        .map_err(|e| format!("filter design: {e}"))?;
        let window = cfg.pipeline.segmentation.window();
        Ok(Self {
            bundle,
            fusion: ComplementaryFilter::new(SAMPLE_RATE_HZ, FUSION_ALPHA),
            filters: (0..NUM_CHANNELS).map(|_| design.to_filter()).collect(),
            ring: VecDeque::with_capacity(window),
            window,
            hop: cfg.pipeline.segmentation.hop(),
            seen: 0,
            seg: Vec::with_capacity(window * NUM_CHANNELS),
            ws: Workspace::new(),
            positives: 0,
            count_allocs: false,
            allocs: 0,
            rejects: 0,
        })
    }

    /// One sample in; `(score, trigger decision)` when it closes a window.
    fn push(&mut self, (accel, gyro): Tick) -> Option<(f32, bool)> {
        let st = stages();
        let euler = {
            let _span = SpanGuard::enter(st.fusion);
            self.fusion.update(
                [
                    f64::from(accel[0]),
                    f64::from(accel[1]),
                    f64::from(accel[2]),
                ],
                [f64::from(gyro[0]), f64::from(gyro[1]), f64::from(gyro[2])],
            )
        };
        let raw = [
            accel[0],
            accel[1],
            accel[2],
            gyro[0],
            gyro[1],
            gyro[2],
            euler.pitch as f32,
            euler.roll as f32,
            euler.yaw as f32,
        ];
        let mut row = [0.0f32; NUM_CHANNELS];
        {
            let _span = SpanGuard::enter(st.filter);
            for (out, (f, &v)) in row.iter_mut().zip(self.filters.iter_mut().zip(&raw)) {
                *out = f.process(v);
            }
        }
        if self.ring.len() == self.window {
            self.ring.pop_front();
        }
        self.ring.push_back(row);
        self.seen += 1;
        if self.ring.len() < self.window || !(self.seen - self.window).is_multiple_of(self.hop) {
            return None;
        }
        self.seg.clear();
        for r in &self.ring {
            self.seg.extend_from_slice(r);
        }
        {
            let _span = SpanGuard::enter(st.normalize);
            self.bundle.normalizer().apply_in_place(&mut self.seg);
        }
        let engine = self.bundle.engine();
        let scored = {
            let _span = SpanGuard::enter(st.engine);
            if self.count_allocs {
                let (p, n) =
                    count_allocs(|| engine.try_predict_proba_shared(&self.seg, &mut self.ws));
                self.allocs += n;
                p
            } else {
                engine.try_predict_proba_shared(&self.seg, &mut self.ws)
            }
        };
        let p = scored.unwrap_or_else(|| {
            self.rejects += 1;
            0.0
        });
        let cfg = self.bundle.config();
        if p >= cfg.threshold {
            self.positives += 1;
        } else {
            self.positives = 0;
        }
        Some((p, self.positives >= cfg.consecutive))
    }
}

/// One pass of the replay over the whole stream.
#[derive(Default)]
struct ReplayOut {
    scores: Vec<u32>,
    triggers: Vec<bool>,
    segments: Vec<Vec<f32>>,
    rejects: u64,
}

fn replay_pass(
    bundle: &ModelBundle,
    ticks: &[Tick],
    keep_segments: bool,
) -> Result<ReplayOut, String> {
    let mut replay = Replay::new(bundle)?;
    let mut out = ReplayOut::default();
    for &tick in ticks {
        if let Some((p, fire)) = replay.push(tick) {
            out.scores.push(p.to_bits());
            out.triggers.push(fire);
            if keep_segments {
                out.segments.push(replay.seg.clone());
            }
        }
    }
    out.rejects = replay.rejects;
    Ok(out)
}

/// Heap allocations per window inside the engine call, counted on a
/// second pass so the workspace has reached its steady size.
fn allocs_per_window(bundle: &ModelBundle, ticks: &[Tick]) -> Result<f64, String> {
    let mut replay = Replay::new(bundle)?;
    for &tick in ticks {
        replay.push(tick);
    }
    replay.count_allocs = true;
    let windows = ticks
        .iter()
        .filter(|&&tick| replay.push(tick).is_some())
        .count();
    Ok(replay.allocs as f64 / windows.max(1) as f64)
}

/// One pass of the session with every push timed.
struct SessionPass {
    window_ms: Vec<f64>,
    busy_s: f64,
    mismatches: usize,
}

fn timed_session_pass(
    bundle: &ModelBundle,
    session: &mut Session,
    ticks: &[Tick],
    expect: &ReplayOut,
) -> SessionPass {
    session.reset();
    let mut out = Vec::with_capacity(4);
    let mut window_ms = Vec::with_capacity(expect.scores.len());
    let mut busy = Duration::ZERO;
    let mut mismatches = 0;
    let mut k = 0;
    for (tick, &(accel, gyro)) in (0u64..).zip(ticks) {
        out.clear();
        let t0 = Instant::now();
        let o = session.push_at(bundle, tick, accel, gyro, &mut out);
        let fire = session.trigger_decision();
        let dt = t0.elapsed();
        busy += dt;
        if o.windows > 0 {
            window_ms.push(dt.as_secs_f64() * 1e3);
            for p in &out {
                let same = expect.scores.get(k) == Some(&p.to_bits())
                    && expect.triggers.get(k) == Some(&fire);
                mismatches += usize::from(!same);
                k += 1;
            }
        }
    }
    mismatches += expect.scores.len().abs_diff(k);
    SessionPass {
        window_ms,
        busy_s: busy.as_secs_f64(),
        mismatches,
    }
}

/// Wall time of one untimed-per-push session pass.
fn session_wall(bundle: &ModelBundle, session: &mut Session, ticks: &[Tick]) -> f64 {
    session.reset();
    let mut out = Vec::with_capacity(4);
    let t0 = Instant::now();
    for (tick, &(accel, gyro)) in (0u64..).zip(ticks) {
        out.clear();
        session.push_at(bundle, tick, accel, gyro, &mut out);
        std::hint::black_box(session.trigger_decision());
    }
    t0.elapsed().as_secs_f64()
}

/// Output oracles on the reference replay, outside every timed region.
fn check_engine(report: &mut Report, model: &mut Model, reference: &ReplayOut) {
    let n = reference.scores.len();
    let pairs = reference.segments.iter().zip(&reference.scores);
    match model.bundle.engine() {
        Engine::Float(_) => {
            set_reference_kernels(true);
            let net = &mut model.trained.net;
            let bad = pairs
                .filter(|&(seg, &bits)| {
                    prefall_nn::loss::sigmoid(net.forward(seg)[0]).to_bits() != bits
                })
                .count();
            set_reference_kernels(false);
            report.check(
                "float scores equal Network::forward with reference kernels",
                bad == 0,
                format!("{bad} of {n} windows differ"),
            );
        }
        Engine::Quantized(q) => {
            let bad = pairs
                .filter(|&(seg, &bits)| q.predict_proba(seg).to_bits() != bits)
                .count();
            report.check(
                "int8 scores equal QuantizedNetwork::predict_proba",
                bad == 0,
                format!("{bad} of {n} windows differ"),
            );
            let float =
                prefall_nn::train::predict_proba(&mut model.trained.net, &reference.segments);
            let threshold = model.bundle.config().threshold;
            let agree = float
                .iter()
                .zip(&reference.scores)
                .filter(|&(f, &q)| (*f >= threshold) == (f32::from_bits(q) >= threshold))
                .count();
            report.info(
                "int8_float_window_agreement",
                prefall_telemetry::JsonValue::F64(agree as f64 / n.max(1) as f64),
            );
        }
    }
    report.check("stream has windows", n > 0, format!("{n} windows per pass"));
}

fn check_guard(report: &mut Report, session: &Session) {
    let g = session.guard_status();
    report.check(
        "seeded input trips no guard fault",
        g.clamped == 0 && g.nonfinite == 0 && g.degraded_windows == 0 && g.stuck_events == 0,
        format!(
            "clamped {} nonfinite {} stuck {} degraded windows {}",
            g.clamped, g.nonfinite, g.stuck_events, g.degraded_windows
        ),
    );
}

pub fn run(precision: Precision, seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let name = match precision {
        Precision::Float => "stream-float",
        Precision::Int8 => "stream-int8",
    };
    let mut report = Report::new(name, seed, trace, seconds);
    report.load_shape(1, 0);
    let budget = Duration::from_secs(seconds);
    if trace {
        traced(&mut report, precision, seed, budget)?;
    } else {
        untraced(&mut report, precision, seed, budget)?;
    }
    Ok(report)
}

fn untraced(
    report: &mut Report,
    precision: Precision,
    seed: u64,
    budget: Duration,
) -> Result<(), String> {
    let setup = || build(precision, seed, &NoopRecorder);
    let (mut model, first) = stats::timed(setup)?;
    let mut setups = vec![first];
    report.phase("setup", Duration::from_secs_f64(first));

    let t = Instant::now();
    let ticks = std::mem::take(&mut model.trained.stream);
    let reference = replay_pass(&model.bundle, &ticks, true)?;
    check_engine(report, &mut model, &reference);
    report.phase("oracles", t.elapsed());

    let t = Instant::now();
    let bundle = &model.bundle;
    let mut session = bundle.new_session();
    let warm = timed_session_pass(bundle, &mut session, &ticks, &reference);
    let mut mismatches = warm.mismatches;
    let (mut passes, mut rates) = (stats::Thinned::new(KEPT_PASSES), Vec::new());
    let mut windows = 0;
    while passes.seen() < MIN_PASSES || t.elapsed() < budget {
        if stats::setup_due(setups.len(), t.elapsed(), budget) {
            setups.push(stats::timed(setup)?.1);
        }
        let pass = timed_session_pass(bundle, &mut session, &ticks, &reference);
        mismatches += pass.mismatches;
        windows += pass.window_ms.len() as u64;
        rates.push(ticks.len() as f64 / pass.busy_s);
        passes.push(pass.window_ms);
    }
    report.phase("measure", t.elapsed());

    report.check(
        "session scores equal the stage replay",
        mismatches == 0,
        format!("{mismatches} windows differ"),
    );
    check_guard(report, &session);
    report.attempted = windows;
    report.failed = session.guard_status().engine_rejects;
    let tails = Tails::of(&stats::itemwise(passes.kept()));
    report.info(
        "passes",
        prefall_telemetry::JsonValue::U64(passes.seen() as u64),
    );
    report.info(
        "windows_per_pass",
        prefall_telemetry::JsonValue::U64(reference.scores.len() as u64),
    );
    report.setups(&setups);
    report.set("latency_p50_ms", tails.p50);
    report.set("latency_p90_ms", tails.p90);
    report.set(
        "throughput_per_s",
        stats::percentile_of(&rates, 1.0 - stats::REPEAT_QUANTILE),
    );
    report.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(())
}

/// Span totals summed over the traced replay passes: stage totals
/// from coarse passes (bench spans plus `nn.infer`), kernel self times
/// from detail passes, whose per-kernel spans would inflate the stages.
#[derive(Default)]
struct StageTotals {
    samples: u64,
    windows: u64,
    fusion_ns: u64,
    filter_ns: u64,
    normalize_ns: u64,
    engine_ns: u64,
    /// Per coarse pass: stage-span time ÷ the pass's wall.
    coverage: Vec<f64>,
    dropped: u64,
    mismatches: usize,
}

/// The nn detail spans the benchmarked models hit, with their metric
/// names (the fused kernel replaces `nn.conv` and `nn.maxpool`, and the
/// sigmoid is applied outside the network).
const KERNELS: [(&str, &str); 4] = [
    (
        "nn.fused_conv_relu_pool",
        "nn.kernel.fused_conv_relu_pool_us",
    ),
    ("nn.dense", "nn.kernel.dense_us"),
    ("nn.relu", "nn.kernel.relu_us"),
    ("nn.split", "nn.kernel.split_us"),
];

/// Sets each nn kernel's self time per `nn.infer` call, from a
/// timeline recorded with the detail spans on. The int8 engine has no
/// kernel spans, so its kernels read 0.
pub(crate) fn set_kernels(report: &mut Report, detail: &Attribution) {
    let calls = detail.total("nn.infer").count.max(1) as f64;
    for (span, metric) in KERNELS {
        report.set(metric, detail.total(span).self_ns as f64 / calls / 1e3);
    }
}

/// One replay pass with the tracer armed (`detail` adds the nn kernel
/// spans): the pass, its wall time and the drained timeline.
fn traced_replay(
    bundle: &ModelBundle,
    ticks: &[Tick],
    capacity: usize,
    detail: bool,
) -> Result<(ReplayOut, f64, prefall_trace::Timeline), String> {
    prefall_trace::arm(capacity);
    prefall_trace::set_detail(detail);
    let t0 = Instant::now();
    let pass = replay_pass(bundle, ticks, false);
    let wall = t0.elapsed().as_secs_f64();
    prefall_trace::disarm();
    let timeline = prefall_trace::drain();
    Ok((pass?, wall, timeline))
}

fn traced(
    report: &mut Report,
    precision: Precision,
    seed: u64,
    budget: Duration,
) -> Result<(), String> {
    let t = Instant::now();
    let registry = Registry::new();
    let mut model = build(precision, seed, &registry)?;
    if let Some(h) = registry.snapshot().histograms.get("train.epoch_seconds") {
        report.set("nn.train_epoch_s", h.sum / h.count.max(1) as f64);
    }
    report.phase("setup", t.elapsed());

    let t = Instant::now();
    let ticks = std::mem::take(&mut model.trained.stream);
    let reference = replay_pass(&model.bundle, &ticks, true)?;
    check_engine(report, &mut model, &reference);
    report.set(
        "nn.allocs_per_window",
        allocs_per_window(&model.bundle, &ticks)?,
    );
    report.phase("oracles", t.elapsed());

    // Session passes without per-push timers, then untraced,
    // coarse-traced and detail-traced replay passes, interleaved so all
    // four sample the same machine state.
    let t = Instant::now();
    let bundle = &model.bundle;
    let mut session = bundle.new_session();
    let timed = timed_session_pass(bundle, &mut session, &ticks, &reference);
    let capacity = (4 * ticks.len() + 64 * reference.scores.len() + 1024).next_power_of_two();
    let (mut wall_session, mut wall_off, mut wall_on) = (Vec::new(), Vec::new(), Vec::new());
    let mut totals = StageTotals::default();
    let mut detail_attr = Attribution {
        wall_ns: 0,
        threads: Vec::new(),
    };
    while wall_on.len() < 3 || t.elapsed() < budget {
        wall_session.push(session_wall(bundle, &mut session, &ticks));
        let t0 = Instant::now();
        replay_pass(bundle, &ticks, false)?;
        wall_off.push(t0.elapsed().as_secs_f64());

        for detail in [false, true] {
            let (pass, wall, timeline) = traced_replay(bundle, &ticks, capacity, detail)?;
            totals.dropped += timeline.dropped();
            totals.mismatches +=
                usize::from(pass.scores != reference.scores || pass.triggers != reference.triggers);
            let attr = timeline.attribution();
            if detail {
                detail_attr.threads.extend(attr.threads);
            } else {
                let stage = |name| attr.total(name).total_ns;
                let stages = [
                    stage("stage.fusion"),
                    stage("stage.filter"),
                    stage("stage.normalize"),
                    stage("stage.engine"),
                ];
                wall_on.push(wall);
                totals
                    .coverage
                    .push(stages.iter().sum::<u64>() as f64 / 1e9 / wall);
                totals.samples += ticks.len() as u64;
                totals.windows += pass.scores.len() as u64;
                totals.fusion_ns += stages[0];
                totals.filter_ns += stages[1];
                totals.normalize_ns += stages[2];
                totals.engine_ns += stages[3];
            }
        }
    }
    report.phase("passes", t.elapsed());

    report.check(
        "session scores equal the stage replay",
        timed.mismatches == 0,
        format!("{} windows differ", timed.mismatches),
    );
    report.check(
        "traced replay equals the session bit for bit",
        totals.mismatches == 0,
        format!("{} traced passes differ", totals.mismatches),
    );
    report.check(
        "trace dropped no events",
        totals.dropped == 0,
        format!("{} events dropped", totals.dropped),
    );
    check_guard(report, &session);
    report.attempted = reference.scores.len() as u64;
    report.failed = reference.rejects;

    let per_sample = |ns: u64| ns as f64 / totals.samples as f64;
    let per_window = |ns: u64| ns as f64 / totals.windows as f64;
    // A pass's wall per sample, at the repeat quantile of its passes.
    let wall_ns = |walls: &[f64]| {
        stats::percentile_of(walls, stats::REPEAT_QUANTILE) * 1e9 / ticks.len() as f64
    };
    let (session_ns, replay_ns) = (wall_ns(&wall_session), wall_ns(&wall_off));
    report.set("dsp.fusion_ns_per_sample", per_sample(totals.fusion_ns));
    report.set("dsp.filter_ns_per_sample", per_sample(totals.filter_ns));
    report.set(
        "dsp.normalize_ns_per_window",
        per_window(totals.normalize_ns),
    );
    // Both untraced: what the session does beyond the replayed stages.
    report.set("core.session_other_ns_per_sample", session_ns - replay_ns);
    // Both traced: the share of the replay's wall inside stage spans.
    report.set("core.stage_coverage", stats::median(&totals.coverage));
    report.set("nn.infer_us", per_window(totals.engine_ns) / 1e3);
    set_kernels(report, &detail_attr);
    report.set(
        "trace.overhead_pct",
        (wall_ns(&wall_on) / replay_ns - 1.0) * 100.0,
    );
    report.set("latency_p99_ms", Tails::of(&timed.window_ms).p99);
    report.info(
        "session_ns_per_sample",
        prefall_telemetry::JsonValue::F64(session_ns),
    );
    report.info(
        "replay_ns_per_sample",
        prefall_telemetry::JsonValue::F64(replay_ns),
    );
    Ok(())
}
