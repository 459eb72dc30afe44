//! Persistence of trained detector bundles.
//!
//! A deployable detector is more than weights: it needs the exact
//! preprocessing configuration and the normaliser fitted on its training
//! data. [`DetectorBundle`] packages all three into one binary blob so a
//! detector trained today can be reloaded bit-identically tomorrow (or
//! shipped next to the firmware image).
//!
//! Format (little-endian):
//!
//! ```text
//! magic "PFDB" | u32 version
//! | u8 model kind | u32 window | u32 channels | u64 init seed
//! | pipeline: f64 cutoff, u32 order, u32 window, u8 overlap,
//!   f64 pos_overlap, f64 discard_margin, u32 airbag_budget
//! | normalizer: u32 n, f32 means × n, f32 stds × n
//! | u32 weight-blob len | weight blob (prefall-nn serialize format)
//! ```

use crate::models::ModelKind;
use crate::pipeline::PipelineConfig;
use crate::session::MAX_WINDOW_ROWS;
use crate::CoreError;
use prefall_dsp::segment::{Overlap, Segmentation};
use prefall_dsp::stats::Normalizer;
use prefall_nn::network::Network;
use prefall_nn::serialize::{load_weights, save_weights};
use prefall_telemetry::wire::{Reader, Writer};

const MAGIC: &[u8; 4] = b"PFDB";
const VERSION: u32 = 1;

/// A self-contained, serialisable trained detector.
#[derive(Debug)]
pub struct DetectorBundle {
    /// Which architecture the weights belong to.
    pub model: ModelKind,
    /// Window length in samples.
    pub window: usize,
    /// Channels per snapshot.
    pub channels: usize,
    /// Weight-init seed used to rebuild the architecture.
    pub init_seed: u64,
    /// Preprocessing configuration.
    pub pipeline: PipelineConfig,
    /// The training-set normaliser.
    pub normalizer: Normalizer,
    /// The trained network.
    pub network: Network,
}

fn model_tag(m: ModelKind) -> u8 {
    match m {
        ModelKind::Mlp => 0,
        ModelKind::Lstm => 1,
        ModelKind::ConvLstm2d => 2,
        ModelKind::ProposedCnn => 3,
        ModelKind::MonolithicCnn => 4,
    }
}

fn model_from_tag(t: u8) -> Option<ModelKind> {
    Some(match t {
        0 => ModelKind::Mlp,
        1 => ModelKind::Lstm,
        2 => ModelKind::ConvLstm2d,
        3 => ModelKind::ProposedCnn,
        4 => ModelKind::MonolithicCnn,
        _ => return None,
    })
}

fn overlap_tag(o: Overlap) -> u8 {
    match o {
        Overlap::None => 0,
        Overlap::Quarter => 1,
        Overlap::Half => 2,
        Overlap::ThreeQuarters => 3,
        // `Overlap` is non-exhaustive; new grid values need a new tag.
        _ => unreachable!("unknown overlap variant"),
    }
}

fn overlap_from_tag(t: u8) -> Option<Overlap> {
    Some(match t {
        0 => Overlap::None,
        1 => Overlap::Quarter,
        2 => Overlap::Half,
        3 => Overlap::ThreeQuarters,
        _ => return None,
    })
}

impl DetectorBundle {
    /// Serialises the bundle.
    pub fn to_bytes(&mut self) -> Vec<u8> {
        let weights = save_weights(&mut self.network);
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u8(model_tag(self.model));
        w.u32(self.window as u32);
        w.u32(self.channels as u32);
        w.u64(self.init_seed);

        let p = &self.pipeline;
        w.f64(p.filter_cutoff_hz);
        w.u32(p.filter_order as u32);
        w.u32(p.segmentation.window() as u32);
        w.u8(overlap_tag(p.segmentation.overlap()));
        w.f64(p.positive_overlap);
        w.f64(p.discard_margin_s);
        w.u32(p.airbag_budget_samples as u32);

        w.u32(self.normalizer.channels() as u32);
        for &v in self.normalizer.means().iter().chain(self.normalizer.stds()) {
            w.f32(v);
        }

        w.u32(weights.len() as u32);
        w.bytes(&weights);
        w.finish()
    }

    /// Deserialises a bundle, rebuilding the architecture and loading
    /// the weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for malformed blobs —
    /// including a header `window`/`channels` that disagrees with the
    /// stored segmentation or normaliser, a window longer than
    /// [`MAX_WINDOW_ROWS`], or a network with more parameters than the
    /// weight blob carries (checked before the network is allocated, so
    /// a decode never allocates much more than the blob's own size) —
    /// and propagates model/weight errors.
    pub fn from_bytes(blob: &[u8]) -> Result<Self, CoreError> {
        let bad = |reason: &str| CoreError::InvalidConfig {
            reason: format!("detector bundle: {reason}"),
        };
        let mut r = Reader::new(blob);
        if r.take(4)? != MAGIC {
            return Err(bad("bad magic"));
        }
        if r.u32()? != VERSION {
            return Err(bad("unsupported version"));
        }
        let model = model_from_tag(r.u8()?).ok_or_else(|| bad("unknown model tag"))?;
        let window = r.u32()? as usize;
        let channels = r.u32()? as usize;
        let init_seed = r.u64()?;

        let pipeline = PipelineConfig {
            filter_cutoff_hz: r.f64()?,
            filter_order: r.u32()? as usize,
            segmentation: Segmentation::new(
                r.u32()? as usize,
                overlap_from_tag(r.u8()?).ok_or_else(|| bad("unknown overlap tag"))?,
            )?,
            positive_overlap: r.f64()?,
            discard_margin_s: r.f64()?,
            airbag_budget_samples: r.u32()? as usize,
        };
        if window != pipeline.segmentation.window() {
            return Err(bad("window disagrees with the segmentation window"));
        }
        if window > MAX_WINDOW_ROWS {
            return Err(bad("implausible window length"));
        }

        let n = r.u32()? as usize;
        r.count(n, 8)?;
        let means = (0..n).map(|_| r.f32()).collect::<Result<Vec<_>, _>>()?;
        let stds = (0..n).map(|_| r.f32()).collect::<Result<Vec<_>, _>>()?;
        let normalizer = Normalizer::from_parts(means, stds)
            .map_err(|reason| bad(&format!("normalizer: {reason}")))?;
        if channels != n {
            return Err(bad("channels disagree with the normalizer"));
        }

        let weights_len = r.u32()? as usize;
        let weights = r.take(weights_len)?;
        r.expect_end()?;
        // Every parameter is one f32 in the weight blob: a header whose
        // network outgrows the blob is refused before it is allocated.
        if model.param_count(window, channels) > weights_len / 4 {
            return Err(bad("network larger than its weight blob"));
        }
        let mut network = model.build(window, channels, init_seed)?;
        load_weights(&mut network, weights)?;

        Ok(Self {
            model,
            window,
            channels,
            init_seed,
            pipeline,
            normalizer,
            network,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefall_imu::SAMPLE_RATE_HZ;

    fn bundle() -> DetectorBundle {
        let window = 20;
        let net = ModelKind::ProposedCnn.build(window, 9, 5).unwrap();
        DetectorBundle {
            model: ModelKind::ProposedCnn,
            window,
            channels: 9,
            init_seed: 5,
            pipeline: PipelineConfig::paper(200.0, Overlap::Half),
            normalizer: Normalizer::identity(9),
            network: net,
        }
    }

    #[test]
    fn roundtrip_preserves_behaviour_and_config() {
        let mut b = bundle();
        let x: Vec<f32> = (0..180).map(|i| (i as f32 * 0.1).sin()).collect();
        let before = b.network.forward(&x);
        let blob = b.to_bytes();
        let mut back = DetectorBundle::from_bytes(&blob).unwrap();
        assert_eq!(back.model, ModelKind::ProposedCnn);
        assert_eq!(back.window, 20);
        assert_eq!(back.pipeline, b.pipeline);
        assert_eq!(back.normalizer, b.normalizer);
        assert_eq!(back.network.forward(&x), before);
    }

    #[test]
    fn rejects_corruption() {
        let mut b = bundle();
        let blob = b.to_bytes();
        assert!(DetectorBundle::from_bytes(b"short").is_err());
        let mut bad_magic = blob.clone();
        bad_magic[0] = b'X';
        assert!(DetectorBundle::from_bytes(&bad_magic).is_err());
        let mut truncated = blob.clone();
        truncated.truncate(blob.len() / 2);
        assert!(DetectorBundle::from_bytes(&truncated).is_err());
        let mut bad_model = blob;
        bad_model[8] = 99;
        assert!(DetectorBundle::from_bytes(&bad_model).is_err());
    }

    #[test]
    fn hostile_headers_are_refused_before_building() {
        let blob = bundle().to_bytes();
        let patch = |blob: &[u8], at: usize, v: u32| {
            let mut b = blob.to_vec();
            b[at..at + 4].copy_from_slice(&v.to_le_bytes());
            b
        };
        // Header window at byte 9, channels at 13, segmentation
        // window at 37.
        let huge = patch(&blob, 9, 1 << 30);
        assert!(DetectorBundle::from_bytes(&huge).is_err());
        assert!(DetectorBundle::from_bytes(&patch(&huge, 37, 1 << 30)).is_err());
        assert!(DetectorBundle::from_bytes(&patch(&blob, 13, 10)).is_err());
    }

    #[test]
    fn sample_rate_is_implied_not_stored() {
        // The bundle assumes the global 100 Hz rate; document-by-test.
        assert_eq!(SAMPLE_RATE_HZ, 100.0);
    }
}
