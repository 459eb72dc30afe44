//! Order statistics: the percentile and item-wise repeat estimators
//! every timing goes through, the schedule of repeated set-ups, and the
//! quartiles `compare` reports.

use std::time::{Duration, Instant};

/// Linear-interpolation percentile of an ascending slice, `p` in
/// `[0, 1]`. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts a copy and takes its percentile.
pub fn percentile_of(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

pub fn median(values: &[f64]) -> f64 {
    percentile_of(values, 0.5)
}

/// p50 / p90 / p99 of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tails {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Tails {
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            p50: percentile(&v, 0.50),
            p90: percentile(&v, 0.90),
            p99: percentile(&v, 0.99),
        }
    }
}

/// How an operation's repeats reduce to its latency: the 10th
/// percentile. Other tenants of a shared machine only ever add time, in
/// bursts that cover some repeats and not others; a low percentile of
/// many repeats is the operation's own cost with those bursts removed,
/// and it stays put where a median moves with the neighbours' load.
pub const REPEAT_QUANTILE: f64 = 0.1;

/// Each item's [`REPEAT_QUANTILE`] over repeated passes of the same
/// work (`passes[p][k]` is item k's time in pass p; items a pass lacks
/// are skipped).
pub fn itemwise(passes: &[Vec<f64>]) -> Vec<f64> {
    let items = passes.iter().map(Vec::len).max().unwrap_or(0);
    (0..items)
        .map(|k| {
            let repeats: Vec<f64> = passes.iter().filter_map(|p| p.get(k).copied()).collect();
            percentile_of(&repeats, REPEAT_QUANTILE)
        })
        .collect()
}

/// At most `cap` of a run's repeated passes, thinned evenly over the
/// run: once full, every other kept pass is dropped and only every
/// second later pass is kept. The memory they take is then the same
/// whatever the pass rate, so a faster program cannot read as a larger
/// one in `peak_rss_mb`.
#[derive(Debug)]
pub struct Thinned<T> {
    cap: usize,
    stride: usize,
    seen: usize,
    kept: Vec<T>,
}

impl<T> Thinned<T> {
    /// `cap` must be even, so the first pass after a thinning is kept.
    pub fn new(cap: usize) -> Self {
        assert!(
            cap >= 2 && cap.is_multiple_of(2),
            "cap {cap} must be even and >= 2"
        );
        Self {
            cap,
            stride: 1,
            seen: 0,
            kept: Vec::with_capacity(cap),
        }
    }

    pub fn push(&mut self, pass: T) {
        let index = self.seen;
        self.seen += 1;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        if self.kept.len() == self.cap {
            let mut keep = false;
            self.kept.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride *= 2;
        }
        self.kept.push(pass);
    }

    /// Passes pushed, kept or not.
    pub fn seen(&self) -> usize {
        self.seen
    }

    pub fn kept(&self) -> &[T] {
        &self.kept
    }
}

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Whether the next set-up is due after `done` of them, `elapsed` into
/// a measured span of `span`. The first set-up precedes the span and
/// the rest are spread evenly over it: a burst of other tenants' load
/// lasting a second or two then covers one set-up, not the median.
pub fn setup_due(done: usize, elapsed: Duration, span: Duration) -> bool {
    done < SETUPS && elapsed.as_secs_f64() * SETUPS as f64 >= span.as_secs_f64() * done as f64
}

/// Runs a set-up and returns its result with its wall time in seconds.
pub fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let out = setup()?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) computes them, so the spreads reported here are the ones an
/// external check of the same runs sees. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    if m < 2 {
        return None;
    }
    let n = 4usize;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn itemwise_ignores_bursts_in_most_passes() {
        let calm = vec![1.0, 2.0, 3.0];
        // Interference in 8 of 10 passes, on different items each time.
        let mut passes = vec![calm.clone(); 2];
        for p in 0..8 {
            let mut slow = calm.clone();
            slow[p % 3] *= 10.0;
            slow[(p + 1) % 3] *= 5.0;
            passes.push(slow);
        }
        let filtered = itemwise(&passes);
        for (f, c) in filtered.iter().zip(&calm) {
            assert!((f - c).abs() < 1e-12, "{filtered:?}");
        }
        // Ragged passes: the short one simply lacks the last item.
        let ragged = vec![vec![1.0, 4.0], vec![3.0]];
        assert_eq!(itemwise(&ragged), vec![1.2, 4.0]);
        assert!(itemwise(&[]).is_empty());
    }

    #[test]
    fn thinned_passes_stay_bounded_and_evenly_spaced() {
        let mut t = Thinned::new(8);
        for p in 0..5 {
            t.push(p);
        }
        assert_eq!(t.kept(), &[0, 1, 2, 3, 4]);
        for p in 5..100 {
            t.push(p);
        }
        assert_eq!(t.seen(), 100);
        // Stride 16 after four thinnings: passes 0, 16, 32, ..., 96.
        assert_eq!(t.kept(), &[0, 16, 32, 48, 64, 80, 96]);
        let mut full = Thinned::new(4);
        (0..4).for_each(|p| full.push(p));
        full.push(4);
        assert_eq!(full.kept(), &[0, 2, 4]);
    }

    #[test]
    fn setups_are_spread_evenly_over_the_span() {
        let span = Duration::from_secs(10);
        let ms = Duration::from_millis;
        assert!(setup_due(0, Duration::ZERO, span));
        assert!(!setup_due(1, ms(1_999), span));
        assert!(setup_due(1, ms(2_000), span));
        assert!(!setup_due(4, ms(7_999), span));
        assert!(setup_due(4, ms(8_000), span));
        // Never more than SETUPS, however long the span runs on.
        assert!(!setup_due(SETUPS, ms(60_000), span));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
