//! Mini-batch training with early stopping.
//!
//! Mirrors the paper's §III-C: up to 200 epochs, early stopping on
//! validation loss with patience 20, restoring the best epoch's weights;
//! class weights and output-bias initialisation handle the imbalance.

use crate::kernels;
use crate::layers::Dense;
use crate::loss::WeightedBce;
use crate::network::Network;
use crate::optim::{Optimizer, OptimizerKind};
use crate::workspace::Workspace;
use crate::NnError;
use prefall_par::Pool;
use prefall_telemetry::{Recorder, Span, Value};
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, MutexGuard};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum epochs (paper: 200).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Early-stopping patience in epochs (paper: 20); `None` disables
    /// early stopping.
    pub patience: Option<usize>,
    /// Shuffle seed (shuffling order is deterministic given this).
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's configuration, with a scaled-down epoch budget
    /// suitable for CPU runs (`epochs` replaces the paper's 200).
    pub fn paper(epochs: usize) -> Self {
        Self {
            epochs,
            batch_size: 32,
            learning_rate: 1e-3,
            optimizer: OptimizerKind::Adam,
            patience: Some(20),
            seed: 0x5EED,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean weighted training loss.
    pub train_loss: f32,
    /// Mean weighted validation loss (`NaN`-free; equals train loss when
    /// no validation set was given).
    pub val_loss: f32,
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually run.
    pub epochs_run: usize,
    /// Epoch whose weights the network ended with.
    pub best_epoch: usize,
    /// Whether early stopping fired.
    pub early_stopped: bool,
    /// Loss history.
    pub history: Vec<EpochStats>,
}

/// A borrowed training set: row-major samples and binary labels.
#[derive(Debug, Clone, Copy)]
pub struct DataRef<'a> {
    /// Samples, each of the network's input length.
    pub x: &'a [Vec<f32>],
    /// Labels in `{0.0, 1.0}`, same length as `x`.
    pub y: &'a [f32],
}

impl<'a> DataRef<'a> {
    /// Creates a data reference.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` lengths differ.
    pub fn new(x: &'a [Vec<f32>], y: &'a [f32]) -> Self {
        assert_eq!(x.len(), y.len(), "samples and labels must pair up");
        Self { x, y }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// One top-level [`Dense`] layer's segment of a factored gradient slot.
struct DenseSeg {
    /// Index into [`Network::layers`].
    layer: usize,
    out_len: usize,
    in_len: usize,
    /// Offset of the cached `grad_out` (`out_len` floats).
    go_off: usize,
    /// Offset of the cached input (`in_len` floats).
    x_off: usize,
    /// Offset of the input-finiteness flag (1.0 = finite).
    flag_off: usize,
}

/// Layout of a per-sample gradient slot on the factored fast path:
/// non-dense ("aux") gradients stored flat in layer order, followed by
/// each top-level dense layer's `(grad_out, input, finite)` factors.
/// For the paper's CNN this shrinks a slot from ~65 k floats (dominated
/// by dense weight matrices) to ~2.6 k.
struct FastLayout {
    aux_len: usize,
    dense: Vec<DenseSeg>,
    slot_len: usize,
}

impl FastLayout {
    fn of(net: &mut Network) -> Self {
        let mut aux_len = 0usize;
        let mut dims = Vec::new();
        for (li, layer) in net.layers_mut().iter_mut().enumerate() {
            if let Some(d) = layer.as_any().downcast_ref::<Dense>() {
                dims.push((li, d.out_len(), d.in_len()));
            } else {
                layer.visit_params(&mut |p| aux_len += p.g.len());
            }
        }
        let mut off = aux_len;
        let dense = dims
            .into_iter()
            .map(|(layer, out_len, in_len)| {
                let go_off = off;
                let x_off = go_off + out_len;
                let flag_off = x_off + in_len;
                off = flag_off + 1;
                DenseSeg {
                    layer,
                    out_len,
                    in_len,
                    go_off,
                    x_off,
                    flag_off,
                }
            })
            .collect();
        FastLayout {
            aux_len,
            dense,
            slot_len: off,
        }
    }
}

/// Zeroes every gradient except top-level dense ones — in factored mode
/// the dense grads of a replica are never written, so they stay at
/// their initial zero and need no per-sample sweep.
fn zero_aux_grads(net: &mut Network) {
    for layer in net.layers_mut() {
        if layer.as_any().downcast_ref::<Dense>().is_some() {
            continue;
        }
        layer.visit_params(&mut |p| p.g.iter_mut().for_each(|g| *g = 0.0));
    }
}

/// Copies a replica's per-sample gradient into `slot` using the
/// factored layout: aux grads flat, dense grads as rank-1 factors.
fn export_fast_slot(replica: &mut Network, layout: &FastLayout, slot: &mut [f32]) {
    let mut off = 0usize;
    let mut di = 0usize;
    for (li, layer) in replica.layers_mut().iter_mut().enumerate() {
        if di < layout.dense.len() && layout.dense[di].layer == li {
            let seg = &layout.dense[di];
            let d = layer
                .as_any()
                .downcast_ref::<Dense>()
                .expect("layout marks a dense layer");
            let (go, x) = d.rank1_grad();
            slot[seg.go_off..seg.go_off + seg.out_len].copy_from_slice(go);
            slot[seg.x_off..seg.x_off + seg.in_len].copy_from_slice(x);
            slot[seg.flag_off] = if x.iter().all(|v| v.is_finite()) {
                1.0
            } else {
                0.0
            };
            di += 1;
        } else {
            layer.visit_params(&mut |p| {
                slot[off..off + p.g.len()].copy_from_slice(&p.g);
                off += p.g.len();
            });
        }
    }
    debug_assert_eq!(off, layout.aux_len);
}

/// Folds a batch of factored slots into the master network's grads, in
/// sample (slice) order per gradient element — bit-identical to folding
/// the flat per-sample slots one at a time.
fn fold_fast_slots(net: &mut Network, layout: &FastLayout, slots: &[&[f32]]) {
    let mut off = 0usize;
    let mut di = 0usize;
    for (li, layer) in net.layers_mut().iter_mut().enumerate() {
        if di < layout.dense.len() && layout.dense[di].layer == li {
            let seg = &layout.dense[di];
            let contribs: Vec<(&[f32], &[f32], bool)> = slots
                .iter()
                .map(|s| {
                    (
                        &s[seg.go_off..seg.go_off + seg.out_len],
                        &s[seg.x_off..seg.x_off + seg.in_len],
                        s[seg.flag_off] != 0.0,
                    )
                })
                .collect();
            layer
                .as_any_mut()
                .downcast_mut::<Dense>()
                .expect("layout marks a dense layer")
                .fold_rank1_batch(&contribs);
            di += 1;
        } else {
            layer.visit_params(&mut |p| {
                let n = p.g.len();
                for slot in slots {
                    for (g, v) in p.g.iter_mut().zip(&slot[off..off + n]) {
                        *g += v;
                    }
                }
                off += n;
            });
        }
    }
    debug_assert_eq!(off, layout.aux_len);
}

/// A worker-side copy of the master network plus the master weight
/// version it last synced to. Replicas sync lazily: a stale replica
/// copies the master's flat weights the moment a worker borrows it, so
/// replicas that sat idle for a batch (common when task coarsening puts
/// a whole batch on one worker) never pay the broadcast.
struct Replica {
    net: Network,
    synced_to: u64,
}

/// Borrows a replica network for one sample: sweep for any free one
/// starting at the calling thread's home replica, fall back to blocking
/// on it. The home replica is keyed by scheduler worker identity (the
/// helping caller thread gets slot 0, workers get 1..), so each thread
/// keeps reusing one replica's memory instead of cycling through all of
/// them — that keeps the replica's weights and caches hot and means an
/// idle replica is never synced. Which replica serves a sample is
/// irrelevant to the result — all replicas sync to the same master
/// weights and are zeroed before use.
fn lock_replica(replicas: &[Mutex<Replica>]) -> MutexGuard<'_, Replica> {
    let home = prefall_par::worker_index().map_or(0, |i| i + 1) % replicas.len();
    for k in 0..replicas.len() {
        if let Ok(g) = replicas[(home + k) % replicas.len()].try_lock() {
            return g;
        }
    }
    replicas[home].lock().expect("replica poisoned")
}

/// Brings a stale replica up to the master weight version by copying the
/// flattened master weights in. No-op when already current.
fn sync_replica(replica: &mut Replica, flat_w: &[f32], version: u64) {
    if replica.synced_to == version {
        return;
    }
    let mut off = 0usize;
    replica.net.visit_params(&mut |p| {
        let n = p.w.len();
        p.w.copy_from_slice(&flat_w[off..off + n]);
        off += n;
    });
    replica.synced_to = version;
}

/// A tiny deterministic shuffler (xorshift) for epoch ordering.
fn shuffle_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let j = (s % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// Trains a network in place.
///
/// Returns the epoch history; on completion the network holds the
/// best-validation-loss weights (when early stopping is enabled) or the
/// final weights otherwise. Telemetry goes to `rec`: per-epoch
/// `train.epoch` events (loss, validation loss), `train.epoch_seconds`
/// timings, a `train.epochs` counter, the `train.learning_rate` /
/// `train.params` gauges, and a `train.early_stop` event when patience
/// fires.
///
/// # Errors
///
/// Returns [`NnError::InvalidTraining`] for an empty training set, zero
/// batch size or zero epochs, and [`NnError::ShapeMismatch`] when sample
/// lengths do not match the network input.
pub fn train(
    net: &mut Network,
    train_data: DataRef<'_>,
    val_data: Option<DataRef<'_>>,
    loss: WeightedBce,
    config: &TrainConfig,
    rec: &dyn Recorder,
) -> Result<TrainReport, NnError> {
    if train_data.is_empty() {
        return Err(NnError::InvalidTraining {
            reason: "training set is empty".to_string(),
        });
    }
    if config.batch_size == 0 || config.epochs == 0 {
        return Err(NnError::InvalidTraining {
            reason: "batch size and epochs must be positive".to_string(),
        });
    }
    let in_len = net.input_len();
    if let Some(bad) = train_data.x.iter().find(|s| s.len() != in_len) {
        return Err(NnError::ShapeMismatch {
            expected: in_len,
            actual: bad.len(),
        });
    }
    if net.output_len() != 1 {
        return Err(NnError::InvalidTraining {
            reason: format!(
                "binary training expects a single logit output, network has {}",
                net.output_len()
            ),
        });
    }

    if rec.enabled() {
        rec.gauge_set("train.learning_rate", f64::from(config.learning_rate));
        rec.gauge_set("train.params", net.param_count() as f64);
    }

    // Parallel mini-batch gradient accumulation. The slot machinery is
    // used at every thread count: each sample's gradient lands in its
    // own per-sample slot and the slots are folded into the master
    // network in sample order, so the trained weights are identical no
    // matter how many workers ran (`PREFALL_THREADS=1,2,8` agree
    // bit-for-bit).
    let pool = Pool::from_env();
    let mut flat_params = 0usize;
    net.visit_params(&mut |p| flat_params += p.w.len());
    // The factored fast path skips materialising dense weight gradients
    // per sample; it is bit-identical to the flat reference fold and
    // only disabled together with the reference kernels.
    let fast = !kernels::reference_kernels();
    let layout = fast.then(|| FastLayout::of(net));
    let slot_len = layout.as_ref().map_or(flat_params, |l| l.slot_len);
    let max_batch = config.batch_size.min(train_data.len());
    let replica_count = pool.threads().min(max_batch).max(1);
    let replicas: Vec<Mutex<Replica>> = (0..replica_count)
        .map(|_| {
            let mut r = net.clone();
            if fast {
                for layer in r.layers_mut() {
                    if let Some(d) = layer.as_any_mut().downcast_mut::<Dense>() {
                        d.set_fast_grad(true);
                    }
                }
            }
            Mutex::new(Replica {
                net: r,
                synced_to: 0,
            })
        })
        .collect();
    let grad_slots: Vec<Mutex<Vec<f32>>> = (0..max_batch)
        .map(|_| Mutex::new(vec![0.0f32; slot_len]))
        .collect();
    let mut flat_w = vec![0.0f32; flat_params];
    let mut version = 0u64;
    if rec.enabled() {
        rec.gauge_set("train.threads", pool.threads() as f64);
    }

    let mut optimizer = Optimizer::new(config.optimizer, config.learning_rate);
    let mut history = Vec::with_capacity(config.epochs);
    let mut best_val = f32::INFINITY;
    let mut best_epoch = 0;
    let mut best_snapshot: Option<Vec<Vec<f32>>> = None;
    let mut since_best = 0usize;
    let mut early_stopped = false;

    for epoch in 0..config.epochs {
        let _epoch_span = Span::enter(rec, "train.epoch_seconds");
        let order = shuffle_indices(train_data.len(), config.seed ^ (epoch as u64) << 17);
        let mut epoch_loss = 0.0f64;

        for batch in order.chunks(config.batch_size) {
            // Fan the batch's forward/backward passes out over the
            // pool; each chunk borrows a replica network once (keyed to
            // the worker running it, so the same weight arrays stay hot
            // in that worker's cache) and every sample in the chunk
            // reuses it as its arena, writing the per-sample gradient
            // into that sample's slot.
            let losses = pool.map_init(
                batch,
                || {
                    let mut replica = lock_replica(&replicas);
                    sync_replica(&mut replica, &flat_w, version);
                    replica
                },
                |replica, bi, &si| {
                    let replica = &mut replica.net;
                    match &layout {
                        Some(_) => zero_aux_grads(replica),
                        None => replica.zero_grads(),
                    }
                    let logit = replica.forward(&train_data.x[si])[0];
                    let y = train_data.y[si];
                    let dl = loss.dloss_dlogit(logit, y);
                    let _ = replica.backward(&[dl]);
                    let mut slot = grad_slots[bi].lock().expect("grad slot poisoned");
                    match &layout {
                        Some(l) => export_fast_slot(replica, l, &mut slot),
                        None => {
                            let mut off = 0usize;
                            replica.visit_params(&mut |p| {
                                let n = p.g.len();
                                slot[off..off + n].copy_from_slice(&p.g);
                                off += n;
                            });
                        }
                    }
                    f64::from(loss.loss(logit, y))
                },
            );
            // Fold losses and gradients in sample order, exactly as the
            // serial loop would have visited them.
            for l in losses {
                epoch_loss += l;
            }
            net.zero_grads();
            let guards: Vec<MutexGuard<'_, Vec<f32>>> = grad_slots
                .iter()
                .take(batch.len())
                .map(|s| s.lock().expect("grad slot poisoned"))
                .collect();
            match &layout {
                Some(l) => {
                    let views: Vec<&[f32]> = guards.iter().map(|g| g.as_slice()).collect();
                    fold_fast_slots(net, l, &views);
                }
                None => {
                    for slot in &guards {
                        let mut off = 0usize;
                        net.visit_params(&mut |p| {
                            let n = p.g.len();
                            for (g, s) in p.g.iter_mut().zip(&slot[off..off + n]) {
                                *g += s;
                            }
                            off += n;
                        });
                    }
                }
            }
            drop(guards);
            net.scale_grads(1.0 / batch.len() as f32);
            optimizer.begin_step();
            net.visit_params(&mut |p| optimizer.step(p));
            // Publish the stepped weights: flatten once and bump the
            // version. Replicas pick the new weights up lazily the next
            // time a worker borrows them (`sync_replica`), so idle
            // replicas cost nothing per batch.
            let mut off = 0usize;
            net.visit_params(&mut |p| {
                let n = p.w.len();
                flat_w[off..off + n].copy_from_slice(&p.w);
                off += n;
            });
            version += 1;
        }
        let train_loss = (epoch_loss / train_data.len() as f64) as f32;

        let val_loss = match val_data {
            Some(v) if !v.is_empty() => evaluate_loss(net, v, loss),
            _ => train_loss,
        };
        history.push(EpochStats {
            epoch,
            train_loss,
            val_loss,
        });
        if rec.enabled() {
            rec.counter_add("train.epochs", 1);
            rec.event(
                "train.epoch",
                &[
                    ("epoch", Value::from(epoch)),
                    ("train_loss", Value::from(train_loss)),
                    ("val_loss", Value::from(val_loss)),
                ],
            );
        }

        if val_loss < best_val {
            best_val = val_loss;
            best_epoch = epoch;
            since_best = 0;
            if config.patience.is_some() {
                best_snapshot = Some(net.snapshot());
            }
        } else {
            since_best += 1;
            if let Some(patience) = config.patience {
                if since_best >= patience {
                    early_stopped = true;
                    if rec.enabled() {
                        rec.event(
                            "train.early_stop",
                            &[
                                ("epoch", Value::from(epoch)),
                                ("best_epoch", Value::from(best_epoch)),
                                ("best_val_loss", Value::from(best_val)),
                            ],
                        );
                    }
                    break;
                }
            }
        }
    }

    if let Some(snap) = best_snapshot {
        net.restore(&snap);
    }
    pool.publish(rec);

    Ok(TrainReport {
        epochs_run: history.len(),
        best_epoch,
        early_stopped,
        history,
    })
}

/// One logit: the workspace interpreter when fast kernels are allowed
/// and the architecture supports it, the allocating forward otherwise.
/// Bit-identical either way.
fn logit_of(net: &mut Network, x: &[f32], ws: &mut Workspace, fast: bool) -> f32 {
    let ws_logit = if fast { net.infer_scalar(x, ws) } else { None };
    ws_logit.unwrap_or_else(|| net.forward(x)[0])
}

/// Mean weighted loss of a network over a dataset (no gradients).
pub fn evaluate_loss(net: &mut Network, data: DataRef<'_>, loss: WeightedBce) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let fast = !kernels::reference_kernels();
    if fast {
        // One pack rebuild up front so every sample in the sweep hits
        // the packed dense kernel (bit-identical either way).
        net.prepare_inference();
    }
    let mut ws = Workspace::new();
    let mut total = 0.0f64;
    for (x, &y) in data.x.iter().zip(data.y) {
        let logit = logit_of(net, x, &mut ws, fast);
        total += f64::from(loss.loss(logit, y));
    }
    (total / data.len() as f64) as f32
}

/// Sigmoid probabilities of a network over a dataset.
pub fn predict_proba(net: &mut Network, xs: &[Vec<f32>]) -> Vec<f32> {
    let fast = !kernels::reference_kernels();
    if fast {
        net.prepare_inference();
    }
    let mut ws = Workspace::new();
    xs.iter()
        .map(|x| crate::loss::sigmoid(logit_of(net, x, &mut ws, fast)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use prefall_telemetry::NoopRecorder;

    /// A linearly separable toy problem: y = 1 iff x0 + x1 > 0.
    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f32>) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 2000) as f32 / 1000.0 - 1.0
        };
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a = next();
            let b = next();
            xs.push(vec![a, b]);
            ys.push(if a + b > 0.0 { 1.0 } else { 0.0 });
        }
        (xs, ys)
    }

    /// Unweighted training without validation or telemetry.
    fn fit(
        net: &mut Network,
        xs: &[Vec<f32>],
        ys: &[f32],
        cfg: &TrainConfig,
    ) -> Result<TrainReport, NnError> {
        let data = DataRef::new(xs, ys);
        train(
            net,
            data,
            None,
            WeightedBce::unweighted(),
            cfg,
            &NoopRecorder,
        )
    }

    fn accuracy(net: &mut Network, xs: &[Vec<f32>], ys: &[f32]) -> f64 {
        let p = predict_proba(net, xs);
        let correct = p
            .iter()
            .zip(ys)
            .filter(|(&p, &y)| (p > 0.5) == (y > 0.5))
            .count();
        correct as f64 / ys.len() as f64
    }

    #[test]
    fn learns_linearly_separable_problem() {
        let (xs, ys) = toy_data(400, 3);
        let mut net = Network::builder(vec![2])
            .dense(8)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .build(7);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 16,
            learning_rate: 0.01,
            optimizer: OptimizerKind::Adam,
            patience: None,
            seed: 1,
        };
        let report = fit(&mut net, &xs, &ys, &cfg).unwrap();
        assert_eq!(report.epochs_run, 30);
        let acc = accuracy(&mut net, &xs, &ys);
        assert!(acc > 0.95, "accuracy {acc}");
        // Loss decreased substantially.
        assert!(report.history.last().unwrap().train_loss < 0.5 * report.history[0].train_loss);
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let (xs, ys) = toy_data(200, 5);
        let (vx, vy) = toy_data(80, 11);
        let mut net = Network::builder(vec![2])
            .dense(4)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .build(3);
        let cfg = TrainConfig {
            epochs: 200,
            // Huge LR to force divergence after initial progress.
            learning_rate: 0.5,
            batch_size: 8,
            optimizer: OptimizerKind::Adam,
            patience: Some(5),
            seed: 2,
        };
        let report = train(
            &mut net,
            DataRef::new(&xs, &ys),
            Some(DataRef::new(&vx, &vy)),
            WeightedBce::unweighted(),
            &cfg,
            &NoopRecorder,
        )
        .unwrap();
        assert!(report.epochs_run <= 200);
        // The network's final weights correspond to the best epoch.
        let best = report
            .history
            .iter()
            .map(|e| e.val_loss)
            .fold(f32::INFINITY, f32::min);
        let final_loss = evaluate_loss(&mut net, DataRef::new(&vx, &vy), WeightedBce::unweighted());
        assert!(
            (final_loss - best).abs() < 1e-4,
            "final {final_loss} vs best {best}"
        );
    }

    #[test]
    fn class_weights_shift_decision_toward_minority() {
        // 95/5 imbalance: unweighted training predicts mostly negative;
        // balanced weights should recover much better positive recall.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut s = 17u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f32 / 1000.0
        };
        for i in 0..400 {
            if i % 20 == 0 {
                // Minority positives live slightly above the boundary.
                xs.push(vec![0.55 + 0.3 * next(), next()]);
                ys.push(1.0);
            } else {
                xs.push(vec![0.45 * next(), next()]);
                ys.push(0.0);
            }
        }
        let n_pos = ys.iter().filter(|&&y| y > 0.5).count();
        let n_neg = ys.len() - n_pos;

        let run = |loss: WeightedBce| {
            let mut net = Network::builder(vec![2])
                .dense(8)
                .unwrap()
                .relu()
                .dense(1)
                .unwrap()
                .build(9);
            let cfg = TrainConfig {
                epochs: 25,
                batch_size: 16,
                learning_rate: 0.01,
                optimizer: OptimizerKind::Adam,
                patience: None,
                seed: 3,
            };
            train(
                &mut net,
                DataRef::new(&xs, &ys),
                None,
                loss,
                &cfg,
                &NoopRecorder,
            )
            .unwrap();
            // Positive recall.
            let p = predict_proba(&mut net, &xs);
            let tp = p
                .iter()
                .zip(&ys)
                .filter(|(&p, &y)| y > 0.5 && p > 0.5)
                .count();
            tp as f64 / n_pos as f64
        };

        let recall_weighted = run(WeightedBce::balanced(n_pos, n_neg));
        assert!(recall_weighted > 0.8, "weighted recall {recall_weighted}");
    }

    #[test]
    fn rejects_bad_configs() {
        let (xs, ys) = toy_data(10, 1);
        let mut net = Network::builder(vec![2]).dense(1).unwrap().build(1);
        let mut cfg = TrainConfig::paper(1);
        cfg.batch_size = 0;
        assert!(fit(&mut net, &xs, &ys, &cfg).is_err());

        let empty_x: Vec<Vec<f32>> = Vec::new();
        let empty_y: Vec<f32> = Vec::new();
        assert!(fit(&mut net, &empty_x, &empty_y, &TrainConfig::paper(1)).is_err());

        // Wrong sample width.
        let bad_x = vec![vec![0.0; 3]];
        let bad_y = vec![0.0];
        assert!(matches!(
            fit(&mut net, &bad_x, &bad_y, &TrainConfig::paper(1)),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = toy_data(100, 9);
        let cfg = TrainConfig::paper(5);
        let run = || {
            let mut net = Network::builder(vec![2])
                .dense(4)
                .unwrap()
                .relu()
                .dense(1)
                .unwrap()
                .build(11);
            fit(&mut net, &xs, &ys, &cfg)
                .unwrap()
                .history
                .last()
                .unwrap()
                .train_loss
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trained_weights_are_identical_for_any_thread_count() {
        let (xs, ys) = toy_data(64, 21);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            learning_rate: 0.01,
            optimizer: OptimizerKind::Adam,
            patience: None,
            seed: 4,
        };
        let run = |threads: usize| {
            std::env::set_var(prefall_par::THREADS_ENV, threads.to_string());
            let mut net = Network::builder(vec![2])
                .dense(6)
                .unwrap()
                .relu()
                .dense(1)
                .unwrap()
                .build(13);
            fit(&mut net, &xs, &ys, &cfg).unwrap();
            std::env::remove_var(prefall_par::THREADS_ENV);
            let mut bits = Vec::new();
            net.visit_params(&mut |p| bits.extend(p.w.iter().map(|w| w.to_bits())));
            bits
        };
        let w1 = run(1);
        assert_eq!(w1, run(2), "2 threads diverged from 1");
        assert_eq!(w1, run(8), "8 threads diverged from 1");
    }

    #[test]
    fn shuffle_is_permutation_and_varies_by_seed() {
        let a = shuffle_indices(100, 1);
        let b = shuffle_indices(100, 2);
        assert_ne!(a, b);
        let mut sa = a.clone();
        sa.sort_unstable();
        assert_eq!(sa, (0..100).collect::<Vec<_>>());
    }
}
