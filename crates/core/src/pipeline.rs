//! §III-A preprocessing: low-pass filtering, segmentation, labelling
//! (with the 150 ms airbag budget), and normalisation.

use crate::CoreError;
use prefall_dsp::butterworth::Butterworth;
use prefall_dsp::segment::{Overlap, Segmentation};
use prefall_dsp::stats::Normalizer;
use prefall_imu::activity::TaskId;
use prefall_imu::channel::NUM_CHANNELS;
use prefall_imu::subject::SubjectId;
use prefall_imu::trial::Trial;
use prefall_imu::SAMPLE_RATE_HZ;
use prefall_telemetry::{NoopRecorder, Recorder, Span};
use serde::{Deserialize, Serialize};

/// Label of one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentLabel {
    /// Activity of daily living (negative class).
    Adl,
    /// Falling, early enough to trigger the airbag (positive class).
    Falling,
    /// Unusable for training: the window touches the last 150 ms before
    /// impact, the impact itself, or only grazes the falling phase.
    Discard,
}

/// Identity and label of one segment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Subject the segment came from.
    pub subject: SubjectId,
    /// Task of the source trial.
    pub task: TaskId,
    /// Repetition index of the source trial.
    pub trial_index: u16,
    /// First sample index of the window within the trial.
    pub start: usize,
    /// The label.
    pub label: SegmentLabel,
}

/// A labelled, preprocessed set of segments (`Discard` windows removed).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSet {
    /// Window length in samples.
    pub window: usize,
    /// Channels per snapshot (9).
    pub channels: usize,
    /// Row-major `[window × channels]` segment matrices.
    pub x: Vec<Vec<f32>>,
    /// Labels: 1.0 falling, 0.0 ADL.
    pub y: Vec<f32>,
    /// Per-segment identity.
    pub meta: Vec<SegmentMeta>,
}

impl SegmentSet {
    /// Number of segments.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Number of positive (falling) segments.
    pub fn positives(&self) -> usize {
        self.y.iter().filter(|&&y| y > 0.5).count()
    }

    /// Positive-class prior `p` (Eq. 2 of the paper).
    pub fn positive_prior(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.positives() as f64 / self.len() as f64
        }
    }

    /// Keeps only segments from the given subjects (subject-independent
    /// splits).
    pub fn filter_subjects(&self, subjects: &[SubjectId]) -> SegmentSet {
        let keep: Vec<usize> = self
            .meta
            .iter()
            .enumerate()
            .filter(|(_, m)| subjects.contains(&m.subject))
            .map(|(i, _)| i)
            .collect();
        SegmentSet {
            window: self.window,
            channels: self.channels,
            x: keep.iter().map(|&i| self.x[i].clone()).collect(),
            y: keep.iter().map(|&i| self.y[i]).collect(),
            meta: keep.iter().map(|&i| self.meta[i]).collect(),
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Low-pass cutoff in Hz (paper: 5 Hz).
    pub filter_cutoff_hz: f64,
    /// Filter order (paper: 4).
    pub filter_order: usize,
    /// Window length and overlap.
    pub segmentation: Segmentation,
    /// Minimum fraction of the window that must lie inside the usable
    /// falling range for a `Falling` label (windows with smaller but
    /// non-zero overlap are discarded as ambiguous).
    pub positive_overlap: f64,
    /// Post-impact margin (seconds) whose windows are discarded (impact
    /// spike + ring-down are neither "falling" nor normal activity).
    pub discard_margin_s: f64,
    /// The airbag inflation budget in samples: the trailing part of the
    /// falling phase removed from the positive class (paper: 15 samples
    /// = 150 ms). Setting 0 reproduces the *conventional* labelling of
    /// the Table I literature — the paper's key ablation.
    pub airbag_budget_samples: usize,
}

impl PipelineConfig {
    /// The paper's best configuration: 400 ms windows, 50 % overlap.
    pub fn paper_400ms() -> Self {
        Self::paper(400.0, Overlap::Half)
    }

    /// A paper-style configuration with the given window and overlap.
    pub fn paper(window_ms: f64, overlap: Overlap) -> Self {
        Self {
            filter_cutoff_hz: 5.0,
            filter_order: 4,
            segmentation: Segmentation::from_millis(window_ms, SAMPLE_RATE_HZ, overlap)
                .expect("paper window sizes are valid"),
            positive_overlap: 0.5,
            discard_margin_s: 0.5,
            airbag_budget_samples: prefall_imu::AIRBAG_INFLATION_SAMPLES,
        }
    }
}

/// The preprocessing pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    filter_design: Butterworth,
}

impl Pipeline {
    /// Builds a pipeline, validating the filter design.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dsp`] for an invalid filter configuration
    /// and [`CoreError::InvalidConfig`] for a bad overlap threshold.
    pub fn new(config: PipelineConfig) -> Result<Self, CoreError> {
        if !(0.0..=1.0).contains(&config.positive_overlap) {
            return Err(CoreError::InvalidConfig {
                reason: format!("positive_overlap {} not in [0, 1]", config.positive_overlap),
            });
        }
        let filter_design =
            Butterworth::lowpass(config.filter_order, config.filter_cutoff_hz, SAMPLE_RATE_HZ)?;
        Ok(Self {
            config,
            filter_design,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Window length in samples.
    pub fn window(&self) -> usize {
        self.config.segmentation.window()
    }

    /// Hop between windows in samples.
    pub fn hop(&self) -> usize {
        self.config.segmentation.hop()
    }

    /// Causally low-pass-filters all nine channels of a trial (what the
    /// firmware does sample by sample), timing the stage into the
    /// `pipeline.filter_seconds` histogram.
    ///
    /// Guards the offline boundary the way the streaming
    /// [`SampleGuard`](crate::detector::SampleGuard) guards the live
    /// one: a non-finite input value would poison the IIR filter state
    /// for the rest of the channel, so each is replaced by the previous
    /// finite value (hold-last; 0.0 at the channel head) and counted in
    /// `pipeline.nonfinite_inputs`.
    pub fn filter_trial(&self, trial: &Trial, rec: &dyn Recorder) -> Vec<Vec<f32>> {
        let _span = Span::enter(rec, "pipeline.filter_seconds");
        let mut nonfinite: u64 = 0;
        let filtered = trial
            .channels()
            .iter()
            .map(|ch| {
                let mut f = self.filter_design.to_filter();
                if ch.iter().all(|v| v.is_finite()) {
                    f.process_slice(ch)
                } else {
                    let mut held = 0.0f32;
                    ch.iter()
                        .map(|&v| {
                            if v.is_finite() {
                                held = v;
                            } else {
                                nonfinite += 1;
                            }
                            f.process(held)
                        })
                        .collect()
                }
            })
            .collect();
        if nonfinite > 0 && rec.enabled() {
            rec.counter_add("pipeline.nonfinite_inputs", nonfinite);
        }
        filtered
    }

    /// Labels one window of a trial.
    pub fn label_window(&self, trial: &Trial, start: usize) -> SegmentLabel {
        let w = self.window();
        let end = start + w;
        let (Some(fs), Some(im)) = (trial.fall_start(), trial.impact()) else {
            return SegmentLabel::Adl;
        };
        let usable_end = im.saturating_sub(self.config.airbag_budget_samples);

        // A real-time window classified at its last sample must complete
        // before `impact − 150 ms` to leave the airbag its budget; any
        // window reaching past that point contains data the deployed
        // detector could never act on — excluded from both classes, as
        // are impact/ring-down windows. Post-fall lying far after the
        // impact is ordinary (negative) data again.
        if end > usable_end {
            let margin = (self.config.discard_margin_s * SAMPLE_RATE_HZ) as usize;
            if start >= (im + margin).min(trial.len()) {
                return SegmentLabel::Adl;
            }
            return SegmentLabel::Discard;
        }

        // Window ends inside the usable region: label by falling overlap.
        let overlap = end.min(usable_end).saturating_sub(start.max(fs));
        if overlap as f64 >= self.config.positive_overlap * w as f64 {
            SegmentLabel::Falling
        } else if overlap > 0 {
            SegmentLabel::Discard
        } else {
            SegmentLabel::Adl
        }
    }

    /// Extracts labelled segments from one trial (after filtering).
    /// `Discard` windows are *included* here (callers that train filter
    /// them out via [`Pipeline::segment_set`]). The filter is timed into
    /// `pipeline.filter_seconds`, windowing + labelling into
    /// `pipeline.segment_seconds`.
    pub fn segments_for_trial(
        &self,
        trial: &Trial,
        rec: &dyn Recorder,
    ) -> (Vec<Vec<f32>>, Vec<SegmentMeta>) {
        let filtered = self.filter_trial(trial, rec);
        let _span = Span::enter(rec, "pipeline.segment_seconds");
        let seg = &self.config.segmentation;
        let xs = seg.extract(&filtered);
        let metas: Vec<SegmentMeta> = seg
            .windows(trial.len())
            .map(|r| SegmentMeta {
                subject: trial.subject,
                task: trial.task,
                trial_index: trial.trial_index,
                start: r.start,
                label: self.label_window(trial, r.start),
            })
            .collect();
        debug_assert_eq!(xs.len(), metas.len());
        (xs, metas)
    }

    /// Builds the training-ready segment set over many trials,
    /// dropping `Discard` windows.
    pub fn segment_set(&self, trials: &[Trial]) -> SegmentSet {
        self.segment_set_recorded(trials, &NoopRecorder)
    }

    /// [`Pipeline::segment_set`] with telemetry: stage timings via
    /// [`Pipeline::segments_for_trial`] plus the
    /// `pipeline.segments_adl` / `pipeline.segments_falling` /
    /// `pipeline.segments_discarded` counters.
    pub fn segment_set_recorded(&self, trials: &[Trial], rec: &dyn Recorder) -> SegmentSet {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut meta = Vec::new();
        let (mut n_adl, mut n_fall, mut n_discard) = (0u64, 0u64, 0u64);
        for trial in trials {
            let (xs, metas) = self.segments_for_trial(trial, rec);
            for (xi, mi) in xs.into_iter().zip(metas) {
                match mi.label {
                    SegmentLabel::Adl => {
                        n_adl += 1;
                        x.push(xi);
                        y.push(0.0);
                        meta.push(mi);
                    }
                    SegmentLabel::Falling => {
                        n_fall += 1;
                        x.push(xi);
                        y.push(1.0);
                        meta.push(mi);
                    }
                    SegmentLabel::Discard => n_discard += 1,
                }
            }
        }
        if rec.enabled() {
            rec.counter_add("pipeline.segments_adl", n_adl);
            rec.counter_add("pipeline.segments_falling", n_fall);
            rec.counter_add("pipeline.segments_discarded", n_discard);
        }
        SegmentSet {
            window: self.window(),
            channels: NUM_CHANNELS,
            x,
            y,
            meta,
        }
    }

    /// Fits a per-channel normaliser on a (training) segment set.
    pub fn fit_normalizer(&self, set: &SegmentSet) -> Normalizer {
        if set.is_empty() {
            Normalizer::identity(NUM_CHANNELS)
        } else {
            Normalizer::fit(&set.x, NUM_CHANNELS)
        }
    }

    /// Applies a fitted normaliser to a segment set in place, timing the
    /// stage into the `pipeline.normalize_seconds` histogram.
    pub fn normalize(&self, set: &mut SegmentSet, norm: &Normalizer, rec: &dyn Recorder) {
        let _span = Span::enter(rec, "pipeline.normalize_seconds");
        for x in &mut set.x {
            norm.apply_in_place(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefall_imu::dataset::Dataset;

    fn dataset() -> Dataset {
        Dataset::combined_scaled(1, 1, 42).unwrap()
    }

    #[test]
    fn paper_configs_build() {
        for ms in [100.0, 200.0, 300.0, 400.0] {
            for ov in Overlap::ALL {
                let p = Pipeline::new(PipelineConfig::paper(ms, ov)).unwrap();
                assert_eq!(p.window(), (ms / 10.0) as usize);
            }
        }
    }

    #[test]
    fn rejects_bad_overlap_threshold() {
        let mut cfg = PipelineConfig::paper_400ms();
        cfg.positive_overlap = 1.5;
        assert!(Pipeline::new(cfg).is_err());
    }

    #[test]
    fn filtering_preserves_length_and_smooths() {
        let ds = dataset();
        let trial = &ds.trials()[0];
        let p = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let filtered = p.filter_trial(trial, &NoopRecorder);
        assert_eq!(filtered.len(), 9);
        assert_eq!(filtered[0].len(), trial.len());
        // High-frequency energy reduced: compare sample-to-sample diffs.
        let raw = trial.channels();
        let rough = |v: &[f32]| -> f32 { v.windows(2).map(|w| (w[1] - w[0]).abs()).sum() };
        let raw_r: f32 = raw.iter().map(|c| rough(c)).sum();
        let fil_r: f32 = filtered.iter().map(|c| rough(c)).sum();
        assert!(fil_r < raw_r, "filtered {fil_r} vs raw {raw_r}");
    }

    #[test]
    fn fall_trials_have_positive_segments_with_150ms_guard() {
        let ds = dataset();
        let p = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let mut saw_fall = false;
        for trial in ds.trials().iter().filter(|t| t.is_fall()) {
            let (_, metas) = p.segments_for_trial(trial, &NoopRecorder);
            let usable_end = trial.impact().unwrap() - prefall_imu::AIRBAG_INFLATION_SAMPLES;
            for m in &metas {
                if m.label == SegmentLabel::Falling {
                    saw_fall = true;
                    // At least half the window sits inside the usable
                    // falling range, which ends 150 ms before impact.
                    let end = m.start + p.window();
                    let ov = end
                        .min(usable_end)
                        .saturating_sub(m.start.max(trial.fall_start().unwrap()));
                    assert!(ov * 2 >= p.window(), "weak overlap at {}", m.start);
                }
            }
        }
        assert!(saw_fall, "no falling segments in any fall trial");
    }

    #[test]
    fn windows_touching_inflation_budget_are_discarded() {
        let ds = dataset();
        let p = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let trial = ds.trials().iter().find(|t| t.is_fall()).unwrap();
        let im = trial.impact().unwrap();
        let usable_end = im - prefall_imu::AIRBAG_INFLATION_SAMPLES;
        let (_, metas) = p.segments_for_trial(trial, &NoopRecorder);
        for m in &metas {
            let end = m.start + p.window();
            // Any window containing the last-150ms zone must not be Falling.
            if end > usable_end && m.start < im {
                assert_ne!(m.label, SegmentLabel::Falling, "window at {}", m.start);
            }
        }
    }

    #[test]
    fn adl_trials_are_all_negative() {
        let ds = dataset();
        let p = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        for trial in ds.trials().iter().filter(|t| !t.is_fall()) {
            let (_, metas) = p.segments_for_trial(trial, &NoopRecorder);
            assert!(metas.iter().all(|m| m.label == SegmentLabel::Adl));
        }
    }

    #[test]
    fn segment_set_is_imbalanced_like_the_paper() {
        let ds = Dataset::combined_scaled(2, 2, 9).unwrap();
        let p = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let set = p.segment_set(ds.trials());
        let prior = set.positive_prior();
        assert!(
            (0.005..0.15).contains(&prior),
            "positive prior {prior} out of the expected imbalance band"
        );
        assert_eq!(set.x.len(), set.y.len());
        assert_eq!(set.x.len(), set.meta.len());
        assert!(set.x.iter().all(|x| x.len() == set.window * set.channels));
    }

    #[test]
    fn filter_subjects_partitions() {
        let ds = dataset();
        let p = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let set = p.segment_set(ds.trials());
        let ids = ds.subject_ids();
        let a = set.filter_subjects(&ids[..1]);
        let b = set.filter_subjects(&ids[1..]);
        assert_eq!(a.len() + b.len(), set.len());
        assert!(a.meta.iter().all(|m| m.subject == ids[0]));
    }

    #[test]
    fn normalization_zero_means_training_channels() {
        let ds = dataset();
        let p = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let mut set = p.segment_set(ds.trials());
        let norm = p.fit_normalizer(&set);
        p.normalize(&mut set, &norm, &NoopRecorder);
        // Channel 0 mean over all rows ≈ 0.
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for x in &set.x {
            for row in x.chunks(set.channels) {
                sum += f64::from(row[0]);
                n += 1;
            }
        }
        assert!((sum / n as f64).abs() < 1e-3);
    }

    #[test]
    fn nonfinite_inputs_are_held_at_the_filter_boundary() {
        let ds = dataset();
        let mut trial = ds.trials()[0].clone();
        let clean_len = trial.len();
        // Poison a stretch of one accel channel.
        let mut channels: Vec<Vec<f32>> = trial.channels().to_vec();
        for v in &mut channels[0][50..60] {
            *v = f32::NAN;
        }
        channels[3][70] = f32::INFINITY;
        trial = Trial::from_channels(
            trial.subject,
            trial.task,
            trial.trial_index,
            trial.source,
            channels,
            trial.fall_start(),
            trial.impact(),
        )
        .unwrap();
        let p = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let filtered = p.filter_trial(&trial, &NoopRecorder);
        assert_eq!(filtered[0].len(), clean_len);
        for ch in &filtered {
            assert!(
                ch.iter().all(|v| v.is_finite()),
                "hold-last guard must keep the filter state finite"
            );
        }
    }

    #[test]
    fn shorter_windows_make_more_segments() {
        let ds = dataset();
        let p200 = Pipeline::new(PipelineConfig::paper(200.0, Overlap::Half)).unwrap();
        let p400 = Pipeline::new(PipelineConfig::paper_400ms()).unwrap();
        let s200 = p200.segment_set(ds.trials());
        let s400 = p400.segment_set(ds.trials());
        assert!(s200.len() > s400.len());
    }
}
