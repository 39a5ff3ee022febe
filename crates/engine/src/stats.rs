//! Streaming aggregation: Welford mean/variance, min/max, and
//! normal-approximation confidence intervals.

use serde::{Deserialize, Serialize};

/// Welford's online algorithm for mean and variance, plus min/max.
///
/// Values are pushed one at a time; the engine always pushes in replication
/// order (0, 1, 2, …) regardless of which worker produced each value, so
/// the aggregate is bit-for-bit independent of scheduling.
///
/// Non-finite observations (NaN, ±∞) are **rejected, not aggregated**:
/// `min`/`max` would silently ignore a NaN while mean/m2 — and every
/// confidence interval derived from them — went NaN, so verdict comparisons
/// would quietly default. [`Welford::push`] instead counts the rejected
/// observation in [`Welford::non_finite`] and leaves the moments untouched;
/// callers that must fail loudly check the counter (the session layer turns
/// a non-finite replication metric into a typed invariant error before the
/// value ever reaches an accumulator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    non_finite: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Welford {
            count: 0,
            non_finite: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Pushes one observation. A non-finite value (NaN, ±∞) is rejected —
    /// counted in [`Welford::non_finite`] and excluded from every moment —
    /// instead of poisoning mean/m2 while `f64::min`/`max` silently skip it.
    pub fn push(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of rejected non-finite observations (NaN, ±∞). These were
    /// counted but never aggregated; a nonzero value means some producer
    /// emitted a poisoned metric.
    #[must_use]
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`−inf` if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Decomposes the accumulator into `(count, non_finite, mean, m2, min,
    /// max)` for bit-exact external serialization (checkpoint files
    /// round-trip the floats through [`f64::to_bits`]). Inverse of
    /// [`Welford::from_raw_parts`].
    #[must_use]
    pub fn to_raw_parts(&self) -> (u64, u64, f64, f64, f64, f64) {
        (
            self.count,
            self.non_finite,
            self.mean,
            self.m2,
            self.min,
            self.max,
        )
    }

    /// Rebuilds an accumulator from parts produced by
    /// [`Welford::to_raw_parts`]. The parts are trusted verbatim — this is
    /// a deserialization hook, not a constructor for hand-made state.
    #[must_use]
    pub fn from_raw_parts(
        count: u64,
        non_finite: u64,
        mean: f64,
        m2: f64,
        min: f64,
        max: f64,
    ) -> Self {
        Welford {
            count,
            non_finite,
            mean,
            m2,
            min,
            max,
        }
    }

    /// Snapshot with a normal-approximation confidence interval at the
    /// given confidence level.
    #[must_use]
    pub fn estimate(&self, confidence: f64) -> Estimate {
        let half_width = if self.count < 2 {
            f64::NAN
        } else {
            normal_quantile(0.5 + confidence / 2.0) * self.std_dev() / (self.count as f64).sqrt()
        };
        Estimate {
            n: self.count,
            mean: self.mean(),
            std_dev: self.std_dev(),
            min: self.min,
            max: self.max,
            confidence,
            ci_half_width: half_width,
        }
    }
}

/// A point estimate with its spread and confidence interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Sample size.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Confidence level of the interval.
    pub confidence: f64,
    /// Half-width of the normal-approximation interval
    /// `mean ± z_{(1+conf)/2} · s/√n` (NaN below two observations).
    pub ci_half_width: f64,
}

/// Standard-normal quantile (inverse CDF) via Acklam's rational
/// approximation — absolute error below `1.2e-9`, far tighter than any
/// Monte-Carlo interval reported here.
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0, 1), got {p}");

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_match_direct_computation() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for v in values {
            w.push(v);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic data set is 32/7.
        assert!(
            (w.variance() - 32.0 / 7.0).abs() < 1e-12,
            "{}",
            w.variance()
        );
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn normal_quantile_hits_known_values() {
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-5);
        assert!((normal_quantile(0.995) - 2.575_829).abs() < 1e-5);
        assert!((normal_quantile(0.025) + 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn estimate_interval_shrinks_with_n() {
        let mut small = Welford::new();
        let mut large = Welford::new();
        // Same spread, different n: half-width scales like 1/√n.
        for i in 0..16 {
            small.push(f64::from(i % 4));
        }
        for i in 0..1024 {
            large.push(f64::from(i % 4));
        }
        let s = small.estimate(0.95);
        let l = large.estimate(0.95);
        assert!(
            l.ci_half_width < s.ci_half_width / 6.0,
            "{} vs {}",
            l.ci_half_width,
            s.ci_half_width
        );
    }

    #[test]
    fn raw_parts_round_trip_bit_exactly() {
        let mut w = Welford::new();
        for i in 0..17 {
            w.push((i as f64).cos() * 3.0);
        }
        w.push(f64::NAN);
        let (count, non_finite, mean, m2, min, max) = w.to_raw_parts();
        let back = Welford::from_raw_parts(count, non_finite, mean, m2, min, max);
        assert_eq!(back, w);
        assert_eq!(back.non_finite(), 1);
        assert_eq!(back.mean().to_bits(), w.mean().to_bits());
        assert_eq!(back.variance().to_bits(), w.variance().to_bits());
    }

    #[test]
    fn non_finite_observations_are_counted_not_aggregated() {
        let mut w = Welford::new();
        w.push(2.0);
        w.push(f64::NAN);
        w.push(4.0);
        w.push(f64::INFINITY);
        w.push(f64::NEG_INFINITY);
        assert_eq!(w.count(), 2);
        assert_eq!(w.non_finite(), 3);
        // The moments are those of the finite observations alone.
        assert!((w.mean() - 3.0).abs() < 1e-12);
        assert!(w.variance().is_finite());
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 4.0);
        assert!(w.estimate(0.95).mean.is_finite());
    }

    #[test]
    fn degenerate_estimates_are_flagged() {
        let mut w = Welford::new();
        w.push(1.0);
        assert!(w.estimate(0.95).ci_half_width.is_nan());
        assert_eq!(w.variance(), 0.0);
    }
}
