//! Walker/Vose alias tables: O(1) categorical sampling.
//!
//! [`sample_weighted_index`](crate::poisson::sample_weighted_index) walks the
//! weight slice linearly on every draw. An [`AliasTable`] spends `O(n)` once
//! to build two parallel arrays — an acceptance probability and an alias
//! index per column — after which every draw costs exactly one uniform
//! integer, one uniform float, and one comparison, independent of the number
//! of categories. This is the sampler behind the turbo simulation kernel's
//! arrival draws.
//!
//! Unlike the linear walk, an alias table consumes *two* uniform draws per
//! sample and maps them to indices differently, so it is **not**
//! draw-compatible with the walk — use it only where trajectory parity is
//! not required.
//!
//! # Examples
//!
//! ```
//! use markov::alias::AliasTable;
//! use rand::SeedableRng;
//!
//! let table = AliasTable::new(&[1.0, 0.0, 3.0]).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut counts = [0u32; 3];
//! for _ in 0..4000 {
//!     counts[table.sample(&mut rng)] += 1;
//! }
//! assert_eq!(counts[1], 0, "zero-weight categories are never drawn");
//! assert!(counts[2] > counts[0]);
//! ```

use rand::Rng;

/// A Walker/Vose alias table over `n` categories: `O(n)` construction,
/// `O(1)` sampling, rebuildable in place without reallocating.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AliasTable {
    /// Acceptance probability of column `i` (scaled to mean 1).
    prob: Vec<f64>,
    /// Fallback category of column `i` when the acceptance test fails.
    alias: Vec<u32>,
    /// Construction worklists, kept so rebuilds reuse their capacity.
    small: Vec<u32>,
    large: Vec<u32>,
}

impl AliasTable {
    /// Builds a table for the given non-negative weights.
    ///
    /// Returns `None` if the weights are empty, contain a negative or
    /// non-finite entry, or sum to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Option<Self> {
        let mut table = AliasTable::default();
        table.rebuild(weights).then_some(table)
    }

    /// Rebuilds the table in place for new weights, reusing every internal
    /// buffer. Returns `false` (leaving the table empty) under the same
    /// conditions [`AliasTable::new`] returns `None`.
    pub fn rebuild(&mut self, weights: &[f64]) -> bool {
        self.prob.clear();
        self.alias.clear();
        self.small.clear();
        self.large.clear();
        let n = weights.len();
        if n == 0 || n > u32::MAX as usize {
            return false;
        }
        let total: f64 = weights.iter().sum();
        if !(total.is_finite() && total > 0.0) || weights.iter().any(|w| !w.is_finite() || *w < 0.0)
        {
            return false;
        }
        // Vose's method: scale weights to mean 1, pair each deficient
        // ("small") column with a surplus ("large") one.
        let scale = n as f64 / total;
        self.alias.resize(n, 0);
        for (i, &w) in weights.iter().enumerate() {
            let p = w * scale;
            self.prob.push(p);
            if p < 1.0 {
                self.small.push(i as u32);
            } else {
                self.large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (self.small.last(), self.large.last()) {
            self.small.pop();
            let (s, l) = (s as usize, l as usize);
            self.alias[s] = l as u32;
            // The large column donates the small column's deficit.
            self.prob[l] = (self.prob[l] + self.prob[s]) - 1.0;
            if self.prob[l] < 1.0 {
                self.large.pop();
                self.small.push(l as u32);
            }
        }
        // Float slack leaves stragglers on either list; they are full columns.
        for &i in self.small.iter().chain(self.large.iter()) {
            self.prob[i as usize] = 1.0;
        }
        self.small.clear();
        self.large.clear();
        true
    }

    /// Number of categories (zero when the table has not been built).
    #[must_use]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Returns `true` if the table holds no categories.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a category index proportionally to the build weights: one
    /// uniform column pick plus one acceptance test, `O(1)` regardless of
    /// the number of categories.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty (construction failed or never happened).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        assert!(!self.prob.is_empty(), "sampling from an empty alias table");
        let column = rng.gen_range(0..self.prob.len());
        if rng.gen::<f64>() < self.prob[column] {
            column
        } else {
            self.alias[column] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(AliasTable::new(&[]).is_none());
        assert!(AliasTable::new(&[0.0, 0.0]).is_none());
        assert!(AliasTable::new(&[1.0, -2.0]).is_none());
        assert!(AliasTable::new(&[f64::NAN]).is_none());
        assert!(AliasTable::new(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn single_category_always_drawn() {
        let table = AliasTable::new(&[0.7]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn frequencies_match_weights() {
        let weights = [4.0, 1.0, 0.0, 2.0, 3.0];
        let table = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[2], 0);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "category {i}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn rebuild_reuses_the_table() {
        let mut table = AliasTable::new(&[1.0, 1.0]).unwrap();
        assert!(table.rebuild(&[0.0, 5.0]));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert_eq!(table.sample(&mut rng), 1);
        }
        assert!(!table.rebuild(&[]));
        assert!(table.is_empty());
    }
}
