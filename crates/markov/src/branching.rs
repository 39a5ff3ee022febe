//! Multi-type branching-process calculations.
//!
//! The transience proof of Theorem 1 (Section VI) couples the original system
//! to an *autonomous branching system* (ABS) whose offspring means form a
//! small matrix. The quantity of interest is one plus the expected total
//! number of descendants of each type, which is finite iff the mean offspring
//! matrix is subcritical, and then equals `(I − M)⁻¹ · 1`.

use crate::linalg::Matrix;
use crate::MarkovError;

/// A multi-type Galton–Watson branching process described by its mean
/// offspring matrix `M`, where `M[i][j]` is the expected number of type-`j`
/// offspring of a type-`i` individual.
#[derive(Debug, Clone, PartialEq)]
pub struct BranchingProcess {
    mean_offspring: Matrix,
}

impl BranchingProcess {
    /// Creates a branching process from its mean offspring matrix (row `i`:
    /// expected offspring counts of a type-`i` parent, by offspring type).
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidParameter`] if the matrix is not square,
    /// is empty, or has negative entries.
    pub fn new(mean_offspring: Matrix) -> Result<Self, MarkovError> {
        if mean_offspring.rows() == 0 || mean_offspring.rows() != mean_offspring.cols() {
            return Err(MarkovError::InvalidParameter(
                "mean offspring matrix must be square and non-empty".into(),
            ));
        }
        for i in 0..mean_offspring.rows() {
            for j in 0..mean_offspring.cols() {
                let v = mean_offspring[(i, j)];
                if !v.is_finite() || v < 0.0 {
                    return Err(MarkovError::InvalidParameter(format!(
                        "mean offspring entry ({i},{j}) = {v} must be finite and non-negative"
                    )));
                }
            }
        }
        Ok(BranchingProcess { mean_offspring })
    }

    /// Convenience constructor from nested rows.
    ///
    /// # Errors
    ///
    /// See [`BranchingProcess::new`].
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MarkovError> {
        Self::new(Matrix::from_rows(rows))
    }

    /// Number of types.
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.mean_offspring.rows()
    }

    /// The mean offspring matrix.
    #[must_use]
    pub fn mean_offspring(&self) -> &Matrix {
        &self.mean_offspring
    }

    /// Spectral radius of the mean offspring matrix.
    ///
    /// # Errors
    ///
    /// Propagates [`MarkovError::NoConvergence`] from the power iteration.
    pub fn spectral_radius(&self) -> Result<f64, MarkovError> {
        self.mean_offspring.spectral_radius(100_000)
    }

    /// For a subcritical process, returns the vector `m` where `m[i]` is one
    /// plus the expected total number of descendants of a single type-`i`
    /// individual (the individual itself counts as the "one plus").
    ///
    /// This is the minimum non-negative solution of `m = 1 + M·m`, i.e.
    /// `(I − M)·m = 1`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidParameter`] if the process is not
    /// subcritical (the expectation would be infinite), or a linear-algebra
    /// error if the solve fails.
    pub fn expected_total_progeny(&self) -> Result<Vec<f64>, MarkovError> {
        let r = self.spectral_radius()?;
        if r >= 1.0 {
            return Err(MarkovError::InvalidParameter(format!(
                "expected total progeny is infinite: spectral radius {r} >= 1"
            )));
        }
        let n = self.num_types();
        let mut a = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] -= self.mean_offspring[(i, j)];
            }
        }
        a.solve(&vec![1.0; n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcritical_two_type_progeny() {
        // M = [[0.2, 0.3], [0.1, 0.4]]
        let bp = BranchingProcess::from_rows(&[vec![0.2, 0.3], vec![0.1, 0.4]]).unwrap();
        let m = bp.expected_total_progeny().unwrap();
        // Solve (I - M) m = 1 by hand: [0.8, -0.3; -0.1, 0.6] m = [1,1]
        // det = 0.45; m0 = (0.6 + 0.3)/0.45 = 2, m1 = (0.8+0.1)/0.45 = 2
        assert!((m[0] - 2.0).abs() < 1e-9);
        assert!((m[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn supercritical_progeny_is_error() {
        let bp = BranchingProcess::from_rows(&[vec![1.5]]).unwrap();
        assert!(bp.expected_total_progeny().is_err());
    }

    #[test]
    fn abs_rank_one_matrix_matches_paper_solution() {
        // The ABS offspring matrix of Section VI:
        //   [ xi*(a), a ]
        //   [ xi*(b), b ]
        // with a = (K-1)/(1-xi) + mu/gamma and b = mu/gamma.
        // The paper gives the closed form solution for (m_b, m_f).
        let (k, xi, mu_over_gamma) = (4.0_f64, 0.05_f64, 0.5_f64);
        let a_val = (k - 1.0) / (1.0 - xi) + mu_over_gamma;
        let b_val = mu_over_gamma;
        let bp = BranchingProcess::from_rows(&[vec![xi * a_val, a_val], vec![xi * b_val, b_val]])
            .unwrap();
        let denom = 1.0 - xi * a_val - b_val;
        assert!(
            denom > 0.0,
            "test parameters must satisfy the subcriticality condition (6)"
        );
        let m = bp.expected_total_progeny().unwrap();
        let expected_mb = 1.0 + (1.0 + xi) / denom * a_val;
        let expected_mf = 1.0 + (1.0 + xi) / denom * b_val;
        assert!(
            (m[0] - expected_mb).abs() < 1e-8,
            "m_b {} vs {}",
            m[0],
            expected_mb
        );
        assert!(
            (m[1] - expected_mf).abs() < 1e-8,
            "m_f {} vs {}",
            m[1],
            expected_mf
        );
    }

    #[test]
    fn rejects_bad_matrices() {
        assert!(BranchingProcess::from_rows(&[vec![0.1, 0.2]]).is_err());
        assert!(BranchingProcess::from_rows(&[vec![-0.1]]).is_err());
        assert!(BranchingProcess::new(Matrix::zeros(0, 0)).is_err());
        assert!(BranchingProcess::from_rows(&[vec![f64::NAN]]).is_err());
    }

    #[test]
    fn zero_offspring_progeny_is_one() {
        let bp = BranchingProcess::from_rows(&[vec![0.0, 0.0], vec![0.0, 0.0]]).unwrap();
        let m = bp.expected_total_progeny().unwrap();
        assert_eq!(m, vec![1.0, 1.0]);
    }
}
