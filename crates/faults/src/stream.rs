//! Streaming fault application: one [`SampleEvent`] per 100 Hz grid tick.

use crate::plan::{gaussian, key, mix64, unit, Fault, FaultPlan};
use prefall_imu::trial::Trial;

/// What the (possibly faulty) sensor bus delivered at one grid tick;
/// defined next to the trial loop that consumes it.
pub use prefall_core::detector::SampleEvent;

/// Iterator over a trial's raw accel/gyro samples with a
/// [`FaultPlan`] applied. Yields exactly [`Trial::len`] events.
///
/// Faults apply in plan-composition order, except that any
/// [`Fault::Dropout`] is evaluated first: a dropped tick yields
/// [`SampleEvent::Dropped`] and no value-level fault runs for it.
pub struct FaultStream<'a> {
    plan: &'a FaultPlan,
    trial: &'a Trial,
    salt: u64,
    i: usize,
    n: usize,
}

impl<'a> FaultStream<'a> {
    pub(crate) fn new(plan: &'a FaultPlan, trial: &'a Trial) -> Self {
        let salt = trial_salt(trial);
        Self {
            plan,
            trial,
            salt,
            i: 0,
            n: trial.len(),
        }
    }

    fn event_at(&self, i: usize) -> SampleEvent {
        let seed = self.plan.seed();
        let salt = self.salt;
        let su = i as u64;

        // Dropout wins: a tick that never arrives cannot carry values.
        for (f, fault) in self.plan.faults().iter().enumerate() {
            if let Fault::Dropout { rate } = fault {
                if unit(seed, salt, f as u64, 0, su) < *rate {
                    return SampleEvent::Dropped;
                }
            }
        }

        let ch = self.trial.channels();
        let mut raw = [0.0f32; 6];
        for (k, r) in raw.iter_mut().enumerate() {
            *r = ch[k][i];
        }

        for (f, fault) in self.plan.faults().iter().enumerate() {
            let fu = f as u64;
            match *fault {
                Fault::Dropout { .. } => {}
                Fault::Noise {
                    accel_sigma,
                    gyro_sigma,
                } => {
                    for (k, r) in raw.iter_mut().enumerate() {
                        let sigma = if k < 3 { accel_sigma } else { gyro_sigma };
                        if sigma > 0.0 {
                            *r += sigma * gaussian(seed, salt, fu, 1 + k as u64, su) as f32;
                        }
                    }
                }
                Fault::Spike { rate, magnitude } => {
                    if unit(seed, salt, fu, 0, su) < rate {
                        let h = key(seed, salt, fu, 7, su);
                        let axis = (h % 6) as usize;
                        let sign = if h & 0x40 == 0 { 1.0 } else { -1.0 };
                        raw[axis] += sign * magnitude;
                    }
                }
                Fault::StuckAxis {
                    sensor,
                    axis,
                    start,
                    len,
                } => {
                    let onset = frac_index(start, self.n);
                    if i >= onset && i < onset.saturating_add(len) {
                        let k = sensor.axes().start + axis.min(2);
                        raw[k] = ch[k][onset.min(self.n - 1)];
                    }
                }
                Fault::Saturation { accel_g, gyro_rads } => {
                    for (k, r) in raw.iter_mut().enumerate() {
                        let limit = if k < 3 { accel_g } else { gyro_rads };
                        *r = r.clamp(-limit, limit);
                    }
                }
                Fault::Outage {
                    sensor,
                    start,
                    duration,
                } => {
                    let onset = frac_index(start, self.n);
                    let end = frac_index(start + duration, self.n);
                    if i >= onset && i < end {
                        for k in sensor.axes() {
                            raw[k] = 0.0;
                        }
                    }
                }
                Fault::NanBurst { rate, len } => {
                    let window = len.max(1);
                    let from = i.saturating_sub(window - 1);
                    for j in from..=i {
                        let ju = j as u64;
                        if unit(seed, salt, fu, 0, ju) < rate {
                            let h = key(seed, salt, fu, 8, ju);
                            let poison = match h % 3 {
                                0 => f32::NAN,
                                1 => f32::INFINITY,
                                _ => f32::NEG_INFINITY,
                            };
                            raw.fill(poison);
                            break;
                        }
                    }
                }
            }
        }

        SampleEvent::Sample {
            accel: [raw[0], raw[1], raw[2]],
            gyro: [raw[3], raw[4], raw[5]],
        }
    }
}

impl Iterator for FaultStream<'_> {
    type Item = SampleEvent;

    fn next(&mut self) -> Option<SampleEvent> {
        if self.i >= self.n {
            return None;
        }
        let ev = self.event_at(self.i);
        self.i += 1;
        Some(ev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FaultStream<'_> {}

/// Per-trial salt so distinct trials draw independent corruption even
/// under the same plan.
fn trial_salt(trial: &Trial) -> u64 {
    mix64(
        mix64(trial.subject.0 as u64)
            ^ mix64(0x7A5C_u64 ^ trial.task.get() as u64)
            ^ mix64(0xC3D2_u64 ^ trial.trial_index as u64),
    )
}

fn frac_index(frac: f64, n: usize) -> usize {
    ((frac.clamp(0.0, 1.0) * n as f64) as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Sensor;
    use prefall_imu::dataset::Dataset;

    fn trials() -> Vec<Trial> {
        Dataset::combined_scaled(1, 2, 11)
            .unwrap()
            .trials()
            .to_vec()
    }

    #[test]
    fn clean_plan_reproduces_the_trial() {
        let trial = &trials()[0];
        let plan = FaultPlan::new(5);
        let ch = trial.channels();
        for (i, ev) in plan.stream(trial).enumerate() {
            match ev {
                SampleEvent::Sample { accel, gyro } => {
                    assert_eq!(accel, [ch[0][i], ch[1][i], ch[2][i]]);
                    assert_eq!(gyro, [ch[3][i], ch[4][i], ch[5][i]]);
                }
                SampleEvent::Dropped => panic!("clean plan dropped sample {i}"),
            }
        }
    }

    #[test]
    fn dropout_rate_is_roughly_honoured_and_deterministic() {
        let trial = &trials()[0];
        let plan = FaultPlan::new(7).with(Fault::Dropout { rate: 0.2 });
        let dropped = |p: &FaultPlan| {
            p.stream(trial)
                .filter(|e| matches!(e, SampleEvent::Dropped))
                .count()
        };
        let d = dropped(&plan);
        let frac = d as f64 / trial.len() as f64;
        assert!((frac - 0.2).abs() < 0.08, "drop fraction {frac}");
        assert_eq!(d, dropped(&plan), "same plan, same drops");
    }

    #[test]
    fn scaled_dropout_drops_a_subset() {
        let trial = &trials()[0];
        let full = FaultPlan::new(3).with(Fault::Dropout { rate: 0.3 });
        let half = full.scaled(0.5);
        let drops = |p: &FaultPlan| -> Vec<usize> {
            p.stream(trial)
                .enumerate()
                .filter(|(_, e)| matches!(e, SampleEvent::Dropped))
                .map(|(i, _)| i)
                .collect()
        };
        let lo = drops(&half);
        let hi = drops(&full);
        assert!(!lo.is_empty() && lo.len() < hi.len());
        for i in &lo {
            assert!(hi.contains(i), "tick {i} dropped at 0.5 but not 1.0");
        }
    }

    #[test]
    fn nan_burst_poisons_whole_samples_for_len_ticks() {
        let trial = &trials()[0];
        let plan = FaultPlan::new(9).with(Fault::NanBurst { rate: 0.02, len: 5 });
        let events: Vec<SampleEvent> = plan.stream(trial).collect();
        let bad: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| match e {
                SampleEvent::Sample { accel, gyro } => {
                    accel.iter().chain(gyro.iter()).any(|v| !v.is_finite())
                }
                SampleEvent::Dropped => false,
            })
            .map(|(i, _)| i)
            .collect();
        assert!(!bad.is_empty(), "expected at least one burst");
        // Bursts come in runs: every poisoned tick has a poisoned
        // neighbour (len 5 ≫ 1).
        for &i in &bad {
            assert!(
                bad.contains(&(i + 1)) || i > 0 && bad.contains(&(i - 1)),
                "isolated poisoned tick {i}"
            );
        }
    }

    #[test]
    fn outage_zeroes_only_the_dead_sensor() {
        let trial = &trials()[0];
        let plan = FaultPlan::new(2).with(Fault::Outage {
            sensor: Sensor::Gyro,
            start: 0.25,
            duration: 0.5,
        });
        let n = trial.len();
        let mid = n / 2;
        match plan.stream(trial).nth(mid).unwrap() {
            SampleEvent::Sample { accel, gyro } => {
                assert_eq!(gyro, [0.0; 3]);
                assert_ne!(accel, [0.0; 3], "accel untouched by gyro outage");
            }
            SampleEvent::Dropped => panic!("no dropout fault composed"),
        }
    }

    #[test]
    fn saturation_clamps_to_the_rails() {
        let trial = &trials()[0];
        let plan = FaultPlan::new(2).with(Fault::Saturation {
            accel_g: 0.5,
            gyro_rads: 0.25,
        });
        for ev in plan.stream(trial) {
            if let SampleEvent::Sample { accel, gyro } = ev {
                for v in accel {
                    assert!(v.abs() <= 0.5);
                }
                for v in gyro {
                    assert!(v.abs() <= 0.25);
                }
            }
        }
    }

    #[test]
    fn stuck_axis_freezes_one_axis() {
        let trial = &trials()[0];
        let n = trial.len();
        let plan = FaultPlan::new(2).with(Fault::StuckAxis {
            sensor: Sensor::Accel,
            axis: 2,
            start: 0.1,
            len: n,
        });
        let onset = (0.1 * n as f64) as usize;
        let frozen = trial.channels()[2][onset];
        let events: Vec<SampleEvent> = plan.stream(trial).collect();
        for (i, ev) in events.iter().enumerate().skip(onset) {
            if let SampleEvent::Sample { accel, .. } = ev {
                assert_eq!(accel[2], frozen, "axis moved at tick {i}");
            }
        }
    }

    #[test]
    fn different_trials_corrupt_differently() {
        let ts = trials();
        let plan = FaultPlan::new(7).with(Fault::Dropout { rate: 0.2 });
        let sig = |t: &Trial| -> Vec<bool> {
            plan.stream(t)
                .take(200)
                .map(|e| matches!(e, SampleEvent::Dropped))
                .collect()
        };
        assert_ne!(sig(&ts[0]), sig(&ts[1]), "salt should differ per trial");
    }

    #[test]
    fn corrupt_trial_keeps_shape_and_labels() {
        let trial = trials()
            .into_iter()
            .find(|t| t.is_fall())
            .expect("dataset contains falls");
        let plan = FaultPlan::dropout_nan(7, 0.05, 0.01, 5);
        let bad = plan.corrupt_trial(&trial);
        assert_eq!(bad.len(), trial.len());
        assert_eq!(bad.fall_start(), trial.fall_start());
        assert_eq!(bad.impact(), trial.impact());
        assert_eq!(bad.subject, trial.subject);
        let n_nan = bad.channels()[0].iter().filter(|v| !v.is_finite()).count();
        assert!(n_nan > 0, "NaN burst should reach the stored channels");
    }
}
