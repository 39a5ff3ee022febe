//! Sampling helpers for exponential waiting times and weighted categorical
//! draws.
//!
//! The `rand` crate alone (without `rand_distr`) does not ship an exponential
//! distribution, so it is sampled here by inverse transform; the categorical
//! samplers pick a jump or an arrival type with probability proportional to
//! its rate.

use rand::Rng;

/// Samples an `Exp(rate)` waiting time (mean `1/rate`) by inverse transform.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
pub fn sample_exp<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "exponential rate must be positive and finite"
    );
    // Use 1 - u to avoid ln(0); u in [0, 1).
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

/// Precomputed cumulative weights for repeated categorical sampling.
///
/// Construction runs one prefix-sum pass; every
/// [`sample`](CumulativeWeights::sample) then consumes exactly one uniform
/// draw — the same single draw [`sample_weighted_index`] consumes — and
/// resolves it by binary search in `O(log n)` instead of a linear walk.
/// Two samplers built from the *same* weight slice map the same uniform
/// draw to the same index, which is what lets the two draw-compatible
/// simulation kernels share arrival trajectories while only one of them
/// caches the table.
#[derive(Debug, Clone, PartialEq)]
pub struct CumulativeWeights {
    /// `cum[i] = w_0 + … + w_i` (sequential left-to-right summation).
    cum: Vec<f64>,
    /// The last index with a strictly positive weight (the clamp target for
    /// a draw that rounds past the final prefix sum).
    last_positive: usize,
}

impl CumulativeWeights {
    /// Builds the table. Returns `None` if the weights are empty, contain a
    /// negative or NaN entry, or sum to a non-positive / non-finite total.
    #[must_use]
    pub fn new(weights: &[f64]) -> Option<Self> {
        if weights.iter().any(|w| w.is_nan() || *w < 0.0) {
            return None;
        }
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0f64;
        for &w in weights {
            acc += w;
            cum.push(acc);
        }
        if !(acc.is_finite() && acc > 0.0) {
            return None;
        }
        let last_positive = weights.iter().rposition(|&w| w > 0.0)?;
        Some(CumulativeWeights { cum, last_positive })
    }

    /// Number of categories.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// Returns `true` if the table holds no categories (never, by
    /// construction — present for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// The total weight.
    #[must_use]
    pub fn total(&self) -> f64 {
        *self.cum.last().expect("non-empty by construction")
    }

    /// Draws a category proportionally to the weights from a single uniform
    /// draw, by binary search over the prefix sums. Zero-weight categories
    /// are never returned.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let target = rng.gen::<f64>() * self.total();
        // First index whose prefix sum strictly exceeds the target: a
        // zero-weight category shares its prefix sum with its predecessor,
        // so it can never be the first strict exceeder.
        let idx = self.cum.partition_point(|&c| c <= target);
        idx.min(self.last_positive)
    }
}

/// Samples a categorical index with the given non-negative weights.
///
/// Returns `None` if all weights are zero or the slice is empty.
pub fn sample_weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    if total.is_nan() || total <= 0.0 {
        return None;
    }
    sample_weighted_index_of(rng, total, weights.iter().copied())
}

/// The walk behind [`sample_weighted_index`], over weights computed one at
/// a time: `total` must be the positive left-to-right sum of all of them.
///
/// Consumes one uniform draw, scales it by `total` and walks the weights in
/// order, skipping zero weights; the walk stops at the index it picks, so
/// the weights after it are never computed. If rounding carries the walk
/// past the end, the last positive-weight index is returned; `None` only if
/// no weight is positive.
pub fn sample_weighted_index_of<R: Rng + ?Sized>(
    rng: &mut R,
    total: f64,
    weights: impl IntoIterator<Item = f64>,
) -> Option<usize> {
    let mut target = rng.gen::<f64>() * total;
    let mut last_positive = None;
    for (i, w) in weights.into_iter().enumerate() {
        if w <= 0.0 {
            continue;
        }
        if target < w {
            return Some(i);
        }
        target -= w;
        last_positive = Some(i);
    }
    // Floating-point slack: return the last positive-weight index.
    last_positive
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let rate = 2.5;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| sample_exp(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sample_exp(&mut rng, 0.0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = StdRng::seed_from_u64(8);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[sample_weighted_index(&mut rng, &weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_all_zero_returns_none() {
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(sample_weighted_index(&mut rng, &[0.0, 0.0]), None);
        assert_eq!(sample_weighted_index(&mut rng, &[]), None);
    }

    #[test]
    fn walk_over_weights_one_at_a_time_stops_at_its_pick() {
        // The walk computes no weight after the index it picks, and never
        // picks a zero weight.
        let weights = [0.0, 0.5, 0.0, 2.5, 1.0, 0.0, 0.25, 0.0];
        let total: f64 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(14);
        let mut picked_ever = [false; 8];
        for _ in 0..20_000 {
            let mut computed = 0;
            let lazy = weights.iter().map(|&w| {
                computed += 1;
                w
            });
            let picked = sample_weighted_index_of(&mut rng, total, lazy).expect("positive total");
            assert_eq!(computed, picked + 1);
            picked_ever[picked] = true;
        }
        assert_eq!(picked_ever, weights.map(|w| w > 0.0));
        // A total rounded above the weights' sum lands on the last positive
        // weight, not on the trailing zero; no positive weight gives `None`.
        assert_eq!(sample_weighted_index_of(&mut rng, 1e300, weights), Some(6));
        assert_eq!(sample_weighted_index_of(&mut rng, 1.0, [0.0, 0.0]), None);
    }

    #[test]
    fn cumulative_weights_reject_degenerate_inputs() {
        assert!(CumulativeWeights::new(&[]).is_none());
        assert!(CumulativeWeights::new(&[0.0, 0.0]).is_none());
        assert!(CumulativeWeights::new(&[1.0, -1.0]).is_none());
        assert!(CumulativeWeights::new(&[f64::NAN]).is_none());
        assert!(CumulativeWeights::new(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn cumulative_weights_respect_weights_and_skip_zeros() {
        let weights = [0.0, 1.0, 0.0, 3.0, 0.0];
        let table = CumulativeWeights::new(&weights).unwrap();
        assert_eq!(table.len(), 5);
        assert!((table.total() - 4.0).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(10);
        let mut counts = [0usize; 5];
        for _ in 0..40_000 {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[0] + counts[2] + counts[4], 0);
        let ratio = counts[3] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn cumulative_weights_match_linear_walk_on_shared_draws() {
        // The binary-search sampler consumes the identical single uniform
        // draw as the linear walk; on a shared stream they must agree.
        let weights = [0.5, 0.0, 2.5, 1.0, 0.0, 0.25];
        let table = CumulativeWeights::new(&weights).unwrap();
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..20_000 {
            assert_eq!(
                table.sample(&mut a),
                sample_weighted_index(&mut b, &weights).unwrap()
            );
        }
    }
}
