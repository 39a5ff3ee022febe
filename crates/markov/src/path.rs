//! Sample-path recording and summary statistics.

use serde::{Deserialize, Serialize};

/// A piecewise-constant sample path of a scalar observable of a CTMC.
///
/// The path holds `(time, value)` pairs where `value` is the observable
/// immediately *after* the jump at `time` (the first entry is the initial
/// condition at time 0), plus the final time up to which the last value held.
///
/// # Examples
///
/// ```
/// use markov::SamplePath;
/// let mut p = SamplePath::new(0.0, 2.0);
/// p.record(1.0, 4.0);
/// p.record(3.0, 0.0);
/// p.finish(5.0);
/// // time average: 2*1 + 4*2 + 0*2 over 5 time units
/// assert!((p.time_average_values() - 2.0).abs() < 1e-12);
/// assert_eq!(p.max_value(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SamplePath {
    times: Vec<f64>,
    values: Vec<f64>,
    end_time: f64,
}

impl SamplePath {
    /// Creates a path with the given initial value at time `t0`.
    #[must_use]
    pub fn new(t0: f64, initial: f64) -> Self {
        SamplePath {
            times: vec![t0],
            values: vec![initial],
            end_time: t0,
        }
    }

    /// Records a new value holding from time `t` onward.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last recorded time.
    #[expect(
        clippy::expect_used,
        reason = "SamplePath::new records the initial point and nothing removes one"
    )]
    pub fn record(&mut self, t: f64, value: f64) {
        let last = *self.times.last().expect("path is never empty");
        assert!(t >= last, "times must be non-decreasing ({t} < {last})");
        self.times.push(t);
        self.values.push(value);
        self.end_time = self.end_time.max(t);
    }

    /// Declares the end of observation at time `t`.
    pub fn finish(&mut self, t: f64) {
        assert!(
            t >= self.end_time,
            "finish time must not precede the last event"
        );
        self.end_time = t;
    }

    /// Number of recorded points (including the initial one).
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if only the initial point was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.len() <= 1
    }

    /// The recorded jump times.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The recorded values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The end of the observation window.
    #[must_use]
    pub fn end_time(&self) -> f64 {
        self.end_time
    }

    /// The last recorded value.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "SamplePath::new records the initial point and nothing removes one"
    )]
    pub fn last_value(&self) -> f64 {
        *self.values.last().expect("path is never empty")
    }

    /// The largest recorded value.
    #[must_use]
    pub fn max_value(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Time-average of the observable over the whole observation window.
    ///
    /// Returns the initial value if the window has zero length.
    #[must_use]
    pub fn time_average_values(&self) -> f64 {
        self.time_average_over(self.times[0], self.end_time)
    }

    /// Time-average over the window `[from, to]` (clamped to the observation
    /// window).
    #[must_use]
    pub fn time_average_over(&self, from: f64, to: f64) -> f64 {
        let from = from.max(self.times[0]);
        let to = to.min(self.end_time);
        if to <= from {
            return self.value_at(from);
        }
        let mut acc = 0.0;
        for i in 0..self.times.len() {
            let seg_start = self.times[i].max(from);
            let seg_end = if i + 1 < self.times.len() {
                self.times[i + 1]
            } else {
                self.end_time
            }
            .min(to);
            if seg_end > seg_start {
                acc += self.values[i] * (seg_end - seg_start);
            }
        }
        acc / (to - from)
    }

    /// The value of the path at time `t` (the value of the last jump at or
    /// before `t`; the initial value if `t` precedes the window).
    #[must_use]
    pub fn value_at(&self, t: f64) -> f64 {
        match self.times.binary_search_by(|x| x.total_cmp(&t)) {
            Ok(i) => self.values[i],
            Err(0) => self.values[0],
            Err(i) => self.values[i - 1],
        }
    }

    /// Samples the path at `n + 1` equally spaced times across the window.
    #[must_use]
    pub fn resample(&self, n: usize) -> Vec<(f64, f64)> {
        let t0 = self.times[0];
        let t1 = self.end_time;
        if n == 0 || t1 <= t0 {
            return vec![(t0, self.values[0])];
        }
        (0..=n)
            .map(|i| {
                let t = t0 + (t1 - t0) * i as f64 / n as f64;
                (t, self.value_at(t))
            })
            .collect()
    }

    /// Least-squares linear trend of the observable against time over the
    /// later fraction `tail_fraction` of the window (e.g. `0.5` for the
    /// second half), evaluated on an even resampling of the path.
    ///
    /// Transient (unstable) parameterisations of the P2P model exhibit a
    /// positive slope of the peer count proportional to the one-club growth
    /// rate; positive-recurrent ones have slope near zero.
    #[must_use]
    pub fn trend(&self, tail_fraction: f64) -> TrendEstimate {
        let tail_fraction = tail_fraction.clamp(0.01, 1.0);
        let t0 = self.times[0];
        let t1 = self.end_time;
        let from = t1 - (t1 - t0) * tail_fraction;
        let samples: Vec<(f64, f64)> = self
            .resample(512)
            .into_iter()
            .filter(|&(t, _)| t >= from)
            .collect();
        TrendEstimate::from_samples(&samples)
    }

    /// Fraction of the observation window during which the value was at or
    /// below `level`.
    #[must_use]
    pub fn fraction_at_or_below(&self, level: f64) -> f64 {
        let total = self.end_time - self.times[0];
        if total <= 0.0 {
            return if self.values[0] <= level { 1.0 } else { 0.0 };
        }
        let mut acc = 0.0;
        for i in 0..self.times.len() {
            let seg_end = if i + 1 < self.times.len() {
                self.times[i + 1]
            } else {
                self.end_time
            };
            if self.values[i] <= level {
                acc += seg_end - self.times[i];
            }
        }
        acc / total
    }

    /// Number of upcrossings of `level`: transitions from `<= level` to
    /// `> level`. Used as a crude return-frequency statistic.
    #[must_use]
    pub fn upcrossings_of(&self, level: f64) -> usize {
        let mut count = 0;
        for w in self.values.windows(2) {
            if w[0] <= level && w[1] > level {
                count += 1;
            }
        }
        count
    }
}

/// Result of a least-squares linear fit `value ≈ intercept + slope · t`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrendEstimate {
    /// Fitted slope (units of observable per unit time).
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination of the fit (0 when degenerate).
    pub r_squared: f64,
    /// Number of samples used.
    pub samples: usize,
}

impl TrendEstimate {
    /// Fits a line to `(t, value)` samples. Returns a zero-slope estimate if
    /// fewer than two distinct times are provided.
    #[must_use]
    pub fn from_samples(samples: &[(f64, f64)]) -> Self {
        let n = samples.len();
        if n < 2 {
            let intercept = samples.first().map_or(0.0, |&(_, v)| v);
            return TrendEstimate {
                slope: 0.0,
                intercept,
                r_squared: 0.0,
                samples: n,
            };
        }
        let nf = n as f64;
        let mean_t = samples.iter().map(|&(t, _)| t).sum::<f64>() / nf;
        let mean_v = samples.iter().map(|&(_, v)| v).sum::<f64>() / nf;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for &(t, v) in samples {
            sxx += (t - mean_t) * (t - mean_t);
            sxy += (t - mean_t) * (v - mean_v);
            syy += (v - mean_v) * (v - mean_v);
        }
        if sxx <= 0.0 {
            return TrendEstimate {
                slope: 0.0,
                intercept: mean_v,
                r_squared: 0.0,
                samples: n,
            };
        }
        let slope = sxy / sxx;
        let intercept = mean_v - slope * mean_t;
        let r_squared = if syy > 0.0 {
            (sxy * sxy) / (sxx * syy)
        } else {
            0.0
        };
        TrendEstimate {
            slope,
            intercept,
            r_squared,
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_path() -> SamplePath {
        let mut p = SamplePath::new(0.0, 2.0);
        p.record(1.0, 4.0);
        p.record(3.0, 0.0);
        p.finish(5.0);
        p
    }

    #[test]
    fn time_average_piecewise() {
        let p = example_path();
        // 2*1 + 4*2 + 0*2 = 10 over 5
        assert!((p.time_average_values() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_average_subwindow() {
        let p = example_path();
        // over [1, 3]: constant 4
        assert!((p.time_average_over(1.0, 3.0) - 4.0).abs() < 1e-12);
        // over [2, 4]: 4*1 + 0*1 over 2
        assert!((p.time_average_over(2.0, 4.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn value_at_lookup() {
        let p = example_path();
        assert_eq!(p.value_at(0.0), 2.0);
        assert_eq!(p.value_at(0.5), 2.0);
        assert_eq!(p.value_at(1.0), 4.0);
        assert_eq!(p.value_at(2.9), 4.0);
        assert_eq!(p.value_at(4.9), 0.0);
        assert_eq!(p.value_at(-1.0), 2.0);
    }

    #[test]
    fn min_max_last() {
        let p = example_path();
        assert_eq!(p.max_value(), 4.0);
        assert_eq!(p.last_value(), 0.0);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn record_rejects_time_going_backwards() {
        let mut p = SamplePath::new(0.0, 1.0);
        p.record(2.0, 1.0);
        p.record(1.0, 1.0);
    }

    #[test]
    fn trend_of_linear_path_recovers_slope() {
        let mut p = SamplePath::new(0.0, 0.0);
        for i in 1..=100 {
            let t = i as f64;
            p.record(t, 3.0 * t + 1.0);
        }
        p.finish(100.0);
        let trend = p.trend(0.5);
        assert!((trend.slope - 3.0).abs() < 0.05, "slope {}", trend.slope);
        assert!(trend.r_squared > 0.99);
    }

    #[test]
    fn trend_of_flat_path_is_zero() {
        let mut p = SamplePath::new(0.0, 5.0);
        p.record(10.0, 5.0);
        p.finish(100.0);
        let trend = p.trend(0.5);
        assert!(trend.slope.abs() < 1e-9);
    }

    #[test]
    fn trend_estimate_degenerate_inputs() {
        let t = TrendEstimate::from_samples(&[]);
        assert_eq!(t.slope, 0.0);
        let t = TrendEstimate::from_samples(&[(1.0, 7.0)]);
        assert_eq!(t.intercept, 7.0);
        let t = TrendEstimate::from_samples(&[(1.0, 7.0), (1.0, 9.0)]);
        assert_eq!(t.slope, 0.0);
    }

    #[test]
    fn fraction_at_or_below_and_upcrossings() {
        let p = example_path();
        // value <= 2 during [0,1) and [3,5]: 3 of 5 time units
        assert!((p.fraction_at_or_below(2.0) - 0.6).abs() < 1e-12);
        assert_eq!(p.upcrossings_of(2.0), 1);
        assert_eq!(p.upcrossings_of(10.0), 0);
    }

    #[test]
    fn resample_endpoints() {
        let p = example_path();
        let s = p.resample(10);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0], (0.0, 2.0));
        assert_eq!(s[10].0, 5.0);
        assert_eq!(s[10].1, 0.0);
    }
}
