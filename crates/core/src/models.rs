//! §III-B model zoo: the proposed three-branch lightweight CNN and the
//! paper's baselines (MLP, LSTM, ConvLSTM2D).

use crate::CoreError;
use prefall_imu::channel::Modality;
use prefall_nn::network::{Network, NetworkBuilder};
use serde::{Deserialize, Serialize};

/// Which model architecture to build (the four rows of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Multi-layer perceptron baseline.
    Mlp,
    /// LSTM baseline.
    Lstm,
    /// ConvLSTM2D baseline.
    ConvLstm2d,
    /// The proposed three-branch lightweight CNN.
    ProposedCnn,
    /// Ablation: the same conv budget without the modality split (not a
    /// Table III row; used by the ablation bench).
    MonolithicCnn,
}

impl ModelKind {
    /// The four models in Table III row order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Mlp,
        ModelKind::Lstm,
        ModelKind::ConvLstm2d,
        ModelKind::ProposedCnn,
    ];

    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Mlp => "MLP",
            ModelKind::Lstm => "LSTM",
            ModelKind::ConvLstm2d => "ConvLSTM2D",
            ModelKind::ProposedCnn => "CNN (Proposed)",
            ModelKind::MonolithicCnn => "CNN (single-branch)",
        }
    }

    /// Builds the model for `[window × channels]` segments.
    ///
    /// The proposed CNN splits the nine channels by modality into three
    /// `window × 3` branches (Conv1D(18, k=5) + ReLU + MaxPool(2)),
    /// concatenates, then Dense(64) → Dense(32) → Dense(1 logit).
    /// Hidden sizes of the baselines are chosen to be competitive at
    /// comparable budgets (the paper does not publish theirs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Nn`] when the window is too small for the
    /// architecture (e.g. fewer than 10 samples for the CNN).
    pub fn build(self, window: usize, channels: usize, seed: u64) -> Result<Network, CoreError> {
        let net = match self {
            ModelKind::MonolithicCnn => return monolithic_cnn(window, channels, seed),
            ModelKind::Mlp => Network::builder(vec![window, channels])
                .dense(64)?
                .relu()
                .dense(32)?
                .relu()
                .dense(1)?
                .build(seed),
            ModelKind::Lstm => Network::builder(vec![window, channels])
                .lstm(32)?
                .dense(32)?
                .relu()
                .dense(1)?
                .build(seed),
            ModelKind::ConvLstm2d => Network::builder(vec![window, channels])
                .conv_lstm(8, 3)?
                .dense(32)?
                .relu()
                .dense(1)?
                .build(seed),
            ModelKind::ProposedCnn => {
                if channels != 9 {
                    return Err(CoreError::InvalidConfig {
                        reason: format!(
                            "the proposed CNN expects 9 channels (3 modalities), got {channels}"
                        ),
                    });
                }
                let branch = |idx: &[usize; 3]| -> Result<NetworkBuilder, CoreError> {
                    let _ = idx;
                    Ok(Network::builder(vec![window, 3])
                        .conv1d(18, 5)?
                        .relu()
                        .maxpool(2)?)
                };
                let sels: Vec<(Vec<usize>, NetworkBuilder)> = Modality::ALL
                    .iter()
                    .map(|m| {
                        let sel = m.channel_indices().to_vec();
                        branch(&m.channel_indices()).map(|b| (sel, b))
                    })
                    .collect::<Result<_, _>>()?;
                Network::builder(vec![window, 9])
                    .split(sels)?
                    .dense(64)?
                    .relu()
                    .dense(32)?
                    .relu()
                    .dense(1)?
                    .build(seed)
            }
        };
        Ok(net)
    }

    /// The parameter count of `build(window, channels, _)`, computed
    /// arithmetically without allocating — what a decoder checks an
    /// untrusted header against before it builds the network.
    /// Saturates at `usize::MAX`; meaningless for shapes `build`
    /// refuses.
    pub fn param_count(self, window: usize, channels: usize) -> usize {
        // Dense(inputs → outputs): weights plus biases.
        let dense =
            |inputs: usize, outputs: usize| inputs.saturating_add(1).saturating_mul(outputs);
        // The shared head: Dense(64) → Dense(32) → Dense(1).
        let head = |inputs: usize| dense(inputs, 64).saturating_add(dense(64, 32) + dense(32, 1));
        // Conv1D(18, k=5) + MaxPool(2): parameters, flattened output.
        let conv = |ch: usize| {
            let flat = (window.saturating_sub(4) / 2).saturating_mul(18);
            (dense(ch.saturating_mul(5), 18), flat)
        };
        match self {
            ModelKind::Mlp => head(window.saturating_mul(channels)),
            // LSTM(32): four gates over [input, hidden] plus biases.
            ModelKind::Lstm => dense(channels.saturating_add(32), 4 * 32)
                .saturating_add(dense(32, 32) + dense(32, 1)),
            // ConvLSTM(8 filters, k=3): four gates over the input and
            // hidden kernels plus biases, flattened over the channels.
            ModelKind::ConvLstm2d => (4 * 8 * 3 * (1 + 8) + 4 * 8_usize)
                .saturating_add(dense(channels.saturating_mul(8), 32))
                .saturating_add(dense(32, 1)),
            ModelKind::ProposedCnn => {
                let (branch, flat) = conv(3);
                (3 * branch).saturating_add(head(flat.saturating_mul(3)))
            }
            ModelKind::MonolithicCnn => {
                let (params, flat) = conv(channels);
                params.saturating_add(head(flat))
            }
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A single-branch CNN over all 9 channels at once — the ablation
/// partner of the proposed modality split (same conv budget, no split).
pub fn monolithic_cnn(window: usize, channels: usize, seed: u64) -> Result<Network, CoreError> {
    Ok(Network::builder(vec![window, channels])
        .conv1d(18, 5)?
        .relu()
        .maxpool(2)?
        .dense(64)?
        .relu()
        .dense(32)?
        .relu()
        .dense(1)?
        .build(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_build_for_paper_windows() {
        for kind in ModelKind::ALL {
            for window in [20, 30, 40] {
                let net = kind.build(window, 9, 1).unwrap();
                assert_eq!(net.input_len(), window * 9, "{kind} w={window}");
                assert_eq!(net.output_len(), 1, "{kind}");
                assert!(net.param_count() > 0);
            }
        }
    }

    #[test]
    fn proposed_cnn_size_matches_paper_envelope() {
        // The 400 ms model quantizes to ≈67 KiB (§IV-C); its f32
        // parameter count must therefore sit near 64k.
        let net = ModelKind::ProposedCnn.build(40, 9, 1).unwrap();
        let params = net.param_count();
        assert!(
            (58_000..72_000).contains(&params),
            "param count {params} outside the paper's size envelope"
        );
    }

    #[test]
    fn proposed_cnn_rejects_non_nine_channels() {
        assert!(ModelKind::ProposedCnn.build(40, 6, 1).is_err());
    }

    #[test]
    fn proposed_cnn_is_cheaper_than_lstm_per_inference() {
        let cnn = ModelKind::ProposedCnn.build(40, 9, 1).unwrap();
        let lstm = ModelKind::Lstm.build(40, 9, 1).unwrap();
        // The entire point of the paper: deployable compute budget.
        assert!(cnn.macs() < 2 * lstm.macs());
    }

    #[test]
    fn forward_works_for_all_models() {
        let x: Vec<f32> = (0..20 * 9).map(|i| (i as f32 * 0.1).sin()).collect();
        for kind in ModelKind::ALL {
            let mut net = kind.build(20, 9, 3).unwrap();
            let y = net.forward(&x);
            assert!(y[0].is_finite(), "{kind}");
        }
    }

    #[test]
    fn monolithic_ablation_builds() {
        let net = monolithic_cnn(40, 9, 1).unwrap();
        assert_eq!(net.output_len(), 1);
        // Different structure from the proposed CNN.
        let proposed = ModelKind::ProposedCnn.build(40, 9, 1).unwrap();
        assert_ne!(net.param_count(), proposed.param_count());
    }

    #[test]
    fn param_count_matches_the_built_network() {
        let kinds = ModelKind::ALL.into_iter().chain([ModelKind::MonolithicCnn]);
        for kind in kinds {
            for window in [10, 20, 31, 40] {
                for channels in [6, 9] {
                    let Ok(net) = kind.build(window, channels, 1) else {
                        continue;
                    };
                    assert_eq!(
                        kind.param_count(window, channels),
                        net.param_count(),
                        "{kind} w={window} c={channels}"
                    );
                }
            }
            assert_eq!(kind.param_count(usize::MAX, usize::MAX), usize::MAX);
        }
    }

    #[test]
    fn names_match_table_iii() {
        assert_eq!(ModelKind::ProposedCnn.to_string(), "CNN (Proposed)");
        assert_eq!(ModelKind::ConvLstm2d.name(), "ConvLSTM2D");
    }
}
