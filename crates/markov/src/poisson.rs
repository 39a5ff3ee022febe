//! Sampling helpers for exponential waiting times, their sums, binomial
//! counts and weighted categorical draws.
//!
//! The `rand` crate alone (without `rand_distr`) ships none of these
//! distributions, so they are sampled here: the exponential by inverse
//! transform, the integer-shape gamma and the binomial by exact methods
//! (see [`sample_gamma`] and [`sample_binomial`]); the categorical samplers
//! pick a jump or an arrival type with probability proportional to its
//! rate.

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

/// Below this shape, [`sample_gamma`] multiplies uniforms; from it on, it
/// runs Marsaglia and Tsang's method, which draws about four uniforms at
/// any shape.
const GAMMA_PRODUCT_LIMIT: u64 = 5;

/// Samples a `Gamma(shape, rate)` variate of integer `shape`: the sum of
/// `shape` independent `Exp(rate)` waiting times, with mean `shape / rate`.
/// A zero shape returns `0.0` and consumes no draw.
///
/// Both methods are exact. A shape below 5 takes `−ln(u_1 ⋯ u_shape) /
/// rate`, one uniform per unit of shape and a single logarithm. Larger
/// shapes take Marsaglia and Tsang's squeeze-and-reject method ("A Simple
/// Method for Generating Gamma Variables", ACM TOMS 26(3), 2000): a
/// standard normal, a uniform, and a logarithm in the rare case the squeeze
/// does not accept, with an acceptance rate above 98% at every shape ≥ 5.
///
/// # Panics
///
/// Panics if `rate` is not strictly positive and finite.
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: u64, rate: f64) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "gamma rate must be positive and finite"
    );
    if shape < GAMMA_PRODUCT_LIMIT {
        // `1 − u` lies in (0, 1], so the product never reaches zero.
        let product: f64 = (0..shape).map(|_| 1.0 - rng.gen::<f64>()).product();
        return -product.ln() / rate;
    }
    let d = shape as f64 - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen();
        let x2 = x * x;
        if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 0.5 * x2 + d * (1.0 - v + v.ln()) {
            return d * v / rate;
        }
    }
}

/// Samples a standard normal variate by Marsaglia's polar method, which is
/// exact; the second normal of each accepted pair is discarded.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Below this count, [`sample_binomial`] sums Bernoulli trials.
const BINOMIAL_TRIAL_LIMIT: u64 = 16;

/// Samples a `Binomial(n, p)` count: how many of `n` independent trials
/// succeed with probability `p`. A `p` at or below zero (or NaN) gives 0,
/// and one at or above one gives `n`.
///
/// The method is exact at every `n`: below 16 trials it draws each one; a
/// larger `n` is split on the `a`-th smallest of its `n` uniforms, `Y ~
/// Beta(a, n + 1 − a)` with `a = 1 + n/2`, drawn as a ratio of two
/// integer-shape gammas. The trials below `Y` are uniform on `(0, Y)` and
/// those above it uniform on `(Y, 1)`, so the count continues on one half
/// with a rescaled `p` (Knuth, "The Art of Computer Programming", vol. 2,
/// §3.4.1). Each split halves `n`, so a draw costs `O(log n)` gamma
/// variates.
pub fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, mut n: u64, mut p: f64) -> u64 {
    let mut count = 0;
    while n >= BINOMIAL_TRIAL_LIMIT {
        if p.is_nan() || p <= 0.0 {
            return count;
        }
        if p >= 1.0 {
            return count + n;
        }
        let a = 1 + n / 2;
        let below = sample_gamma(rng, a, 1.0);
        let above = sample_gamma(rng, n + 1 - a, 1.0);
        let y = below / (below + above);
        if p < y {
            n = a - 1;
            p /= y;
        } else {
            count += a;
            n -= a;
            p = (p - y) / (1.0 - y);
        }
    }
    count + (0..n).map(|_| u64::from(rng.gen::<f64>() < p)).sum::<u64>()
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

    /// Sample mean and variance of `n` draws, and the standard errors of
    /// each (the latter from the sample's fourth central moment).
    fn moments(draws: &[f64]) -> (f64, f64, f64, f64) {
        let n = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let m4 = draws.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n;
        (mean, var, (var / n).sqrt(), ((m4 - var * var) / n).sqrt())
    }

    #[test]
    fn gamma_mean_and_variance_match_the_shape() {
        // Shapes on both sides of the product/Marsaglia–Tsang switch.
        let mut rng = StdRng::seed_from_u64(15);
        let rate = 2.5;
        for shape in [1, 2, 4, 5, 6, 37, 10_000] {
            let draws: Vec<f64> = (0..40_000)
                .map(|_| sample_gamma(&mut rng, shape, rate))
                .collect();
            let (mean, var, mean_se, var_se) = moments(&draws);
            let k = shape as f64;
            assert!(
                (mean - k / rate).abs() < 5.0 * mean_se,
                "shape {shape}: mean {mean} vs {}",
                k / rate
            );
            assert!(
                (var - k / (rate * rate)).abs() < 5.0 * var_se,
                "shape {shape}: variance {var} vs {}",
                k / (rate * rate)
            );
        }
        assert_eq!(sample_gamma(&mut rng, 0, rate), 0.0);
    }

    #[test]
    fn gamma_of_shape_zero_consumes_no_draw() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut twin = rng.clone();
        let _ = sample_gamma(&mut rng, 0, 1.0);
        assert_eq!(rng.gen::<u64>(), twin.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gamma_rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sample_gamma(&mut rng, 3, 0.0);
    }

    #[test]
    fn binomial_mean_and_variance_match_n_and_p() {
        // Counts below, at and far above the trial/split switch.
        let mut rng = StdRng::seed_from_u64(17);
        for (n, p) in [
            (1, 0.5),
            (15, 0.3),
            (16, 0.3),
            (17, 0.95),
            (1_000, 0.02),
            (1_000_000, 0.4),
        ] {
            let draws: Vec<f64> = (0..20_000)
                .map(|_| sample_binomial(&mut rng, n, p) as f64)
                .collect();
            assert!(draws.iter().all(|&x| x <= n as f64));
            let (mean, var, mean_se, var_se) = moments(&draws);
            let (expected_mean, expected_var) = (n as f64 * p, n as f64 * p * (1.0 - p));
            assert!(
                (mean - expected_mean).abs() < 5.0 * mean_se,
                "Bin({n}, {p}): mean {mean} vs {expected_mean}"
            );
            assert!(
                (var - expected_var).abs() < 5.0 * var_se,
                "Bin({n}, {p}): variance {var} vs {expected_var}"
            );
        }
    }

    #[test]
    fn binomial_edges_are_exact() {
        let mut rng = StdRng::seed_from_u64(18);
        for n in [0, 5, 40, 1 << 40] {
            assert_eq!(sample_binomial(&mut rng, n, 0.0), 0);
            assert_eq!(sample_binomial(&mut rng, n, -1.0), 0);
            assert_eq!(sample_binomial(&mut rng, n, f64::NAN), 0);
            assert_eq!(sample_binomial(&mut rng, n, 1.0), n);
        }
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
}
