//! Set-up shared by the stream and fleet workloads: a seeded dataset,
//! a fixed-epoch ProposedCnn, its fitted normaliser, and the held-out
//! trials every workload replays as wearer input.

use prefall_core::cv::{subject_folds, train_on_sets_recorded, CvConfig};
use prefall_core::detector::DetectorConfig;
use prefall_core::models::ModelKind;
use prefall_core::pipeline::Pipeline;
use prefall_dsp::stats::Normalizer;
use prefall_imu::channel::Channel;
use prefall_imu::dataset::{Dataset, DatasetConfig};
use prefall_nn::network::Network;
use prefall_telemetry::Recorder;

/// One IMU reading: accelerometer (g), gyroscope (rad/s).
pub type Tick = ([f32; 3], [f32; 3]);

/// Training epochs: fixed, with early stopping off, so set-up does the
/// same work for every seed.
const EPOCHS: usize = 2;

/// Calibration segments for int8 quantisation.
const CALIBRATION: usize = 256;

/// The paper's deployed configuration: 400 ms windows, 50 % overlap,
/// trigger on the first positive window, ingest guard on.
pub fn detector_config() -> DetectorConfig {
    DetectorConfig::paper_400ms()
}

#[derive(Debug)]
pub struct Trained {
    pub net: Network,
    pub norm: Normalizer,
    /// Normalised training segments for int8 calibration.
    pub calib: Vec<Vec<f32>>,
    /// The held-out subjects' trials back to back: one wearer's stream.
    pub stream: Vec<Tick>,
}

/// Generates the dataset from `seed`, trains on three subjects
/// (one more validates) and holds out the trials of the other two.
pub fn train(seed: u64, rec: &dyn Recorder) -> Result<Trained, String> {
    let dataset = Dataset::generate(&DatasetConfig {
        kfall_subjects: 3,
        self_collected_subjects: 3,
        trials_per_task: 1,
        duration_scale: 0.5,
        seed,
    })
    .map_err(|e| format!("dataset: {e}"))?;
    let pipeline =
        Pipeline::new(detector_config().pipeline).map_err(|e| format!("pipeline: {e}"))?;
    let cv = CvConfig {
        epochs: EPOCHS,
        patience: None,
        ..CvConfig::fast()
    };
    let splits =
        subject_folds(&dataset.subject_ids(), 3, 1, seed).map_err(|e| format!("folds: {e}"))?;
    let split = &splits[0];
    let full = pipeline.segment_set(dataset.trials());
    let train_set = full.filter_subjects(&split.train);
    let norm = pipeline.fit_normalizer(&train_set);
    let calib = train_set.x[..train_set.x.len().min(CALIBRATION)]
        .iter()
        .map(|x| norm.apply(x))
        .collect();
    let (net, _, _) = train_on_sets_recorded(
        &pipeline,
        train_set,
        full.filter_subjects(&split.val),
        full.filter_subjects(&split.test),
        ModelKind::ProposedCnn,
        &cv,
        seed,
        rec,
    )
    .map_err(|e| format!("training: {e}"))?;

    let mut stream = Vec::new();
    for trial in dataset
        .trials()
        .iter()
        .filter(|t| split.test.contains(&t.subject))
    {
        let ch = |c| trial.channel(c);
        let (ax, ay, az) = (
            ch(Channel::AccelX),
            ch(Channel::AccelY),
            ch(Channel::AccelZ),
        );
        let (gx, gy, gz) = (ch(Channel::GyroX), ch(Channel::GyroY), ch(Channel::GyroZ));
        stream.extend((0..trial.len()).map(|i| ([ax[i], ay[i], az[i]], [gx[i], gy[i], gz[i]])));
    }
    Ok(Trained {
        net,
        norm,
        calib,
        stream,
    })
}
