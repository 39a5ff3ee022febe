//! Coding vectors over `GF(q)`.

use crate::{CodingError, GaloisField};
use serde::{Deserialize, Serialize};

/// A coding vector: the coefficients `(θ_1, …, θ_K)` of a coded piece
/// `e = Σ θ_i m_i` with respect to the original data pieces.
///
/// # Examples
///
/// ```
/// use netcoding::{CodingVector, GaloisField};
/// let f = GaloisField::new(7).unwrap();
/// let a = CodingVector::from_coeffs(f, vec![1, 2, 0]).unwrap();
/// let b = CodingVector::unit(f, 3, 1);
/// let c = a.add(&b).unwrap();
/// assert_eq!(c.coeffs(), &[1, 3, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CodingVector {
    field: GaloisField,
    coeffs: Vec<u32>,
}

impl CodingVector {
    /// The zero vector of length `len`.
    #[must_use]
    pub fn zero(field: GaloisField, len: usize) -> Self {
        CodingVector {
            field,
            coeffs: vec![0; len],
        }
    }

    /// The `i`-th unit vector of length `len` (the coding vector of the
    /// uncoded data piece `i`).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn unit(field: GaloisField, len: usize, index: usize) -> Self {
        assert!(index < len, "unit index out of range");
        let mut v = Self::zero(field, len);
        v.coeffs[index] = 1;
        v
    }

    /// Builds a vector from explicit coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::ElementOutOfRange`] if a coefficient is not a
    /// field element.
    pub fn from_coeffs(field: GaloisField, coeffs: Vec<u32>) -> Result<Self, CodingError> {
        for &c in &coeffs {
            field.check(c)?;
        }
        Ok(CodingVector { field, coeffs })
    }

    /// Samples a uniformly random vector of length `len`.
    pub fn random<R: rand::Rng + ?Sized>(field: GaloisField, len: usize, rng: &mut R) -> Self {
        CodingVector {
            field,
            coeffs: (0..len).map(|_| field.random_element(rng)).collect(),
        }
    }

    /// The field the vector lives over.
    #[must_use]
    pub fn field(&self) -> GaloisField {
        self.field
    }

    /// The coefficient slice.
    #[must_use]
    pub fn coeffs(&self) -> &[u32] {
        &self.coeffs
    }

    /// Vector length `K`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Returns `true` if every coefficient is zero (a useless coded piece).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Returns `true` if the vector has length zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Component-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::Mismatch`] if the vectors have different fields
    /// or lengths.
    pub fn add(&self, other: &Self) -> Result<Self, CodingError> {
        self.compatible(other)?;
        let coeffs = self
            .coeffs
            .iter()
            .zip(&other.coeffs)
            .map(|(&a, &b)| self.field.add(a, b))
            .collect();
        Ok(CodingVector {
            field: self.field,
            coeffs,
        })
    }

    /// Scalar multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::ElementOutOfRange`] if `scalar` is not a field
    /// element.
    pub fn scale(&self, scalar: u32) -> Result<Self, CodingError> {
        self.field.check(scalar)?;
        Ok(CodingVector {
            field: self.field,
            coeffs: self
                .coeffs
                .iter()
                .map(|&c| self.field.mul(c, scalar))
                .collect(),
        })
    }

    /// `self + scalar · other`, the elementary row operation used by Gaussian
    /// elimination and by random linear combining.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::Mismatch`] on incompatible operands or
    /// [`CodingError::ElementOutOfRange`] for an invalid scalar.
    pub fn add_scaled(&self, other: &Self, scalar: u32) -> Result<Self, CodingError> {
        self.add(&other.scale(scalar)?)
    }

    /// Index of the first non-zero coefficient, if any.
    #[must_use]
    pub fn leading_index(&self) -> Option<usize> {
        self.coeffs.iter().position(|&c| c != 0)
    }

    fn compatible(&self, other: &Self) -> Result<(), CodingError> {
        if self.field != other.field {
            return Err(CodingError::Mismatch(
                "vectors over different fields".into(),
            ));
        }
        if self.coeffs.len() != other.coeffs.len() {
            return Err(CodingError::Mismatch(format!(
                "vector lengths differ: {} vs {}",
                self.coeffs.len(),
                other.coeffs.len()
            )));
        }
        Ok(())
    }
}

impl core::fmt::Display for CodingVector {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.coeffs.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gf7() -> GaloisField {
        GaloisField::new(7).unwrap()
    }

    #[test]
    fn zero_and_unit_vectors() {
        let z = CodingVector::zero(gf7(), 4);
        assert!(z.is_zero());
        assert_eq!(z.len(), 4);
        let u = CodingVector::unit(gf7(), 4, 2);
        assert_eq!(u.coeffs(), &[0, 0, 1, 0]);
        assert_eq!(u.leading_index(), Some(2));
        assert_eq!(z.leading_index(), None);
    }

    #[test]
    fn from_coeffs_validates() {
        assert!(CodingVector::from_coeffs(gf7(), vec![0, 6]).is_ok());
        assert!(CodingVector::from_coeffs(gf7(), vec![7]).is_err());
    }

    #[test]
    fn addition_and_scaling() {
        let a = CodingVector::from_coeffs(gf7(), vec![1, 2, 3]).unwrap();
        let b = CodingVector::from_coeffs(gf7(), vec![6, 5, 4]).unwrap();
        assert_eq!(a.add(&b).unwrap().coeffs(), &[0, 0, 0]);
        assert_eq!(a.scale(2).unwrap().coeffs(), &[2, 4, 6]);
        assert_eq!(a.add_scaled(&b, 2).unwrap().coeffs(), &[6, 5, 4]);
    }

    #[test]
    fn mismatched_operands_rejected() {
        let a = CodingVector::zero(gf7(), 3);
        let b = CodingVector::zero(gf7(), 4);
        assert!(a.add(&b).is_err());
        let c = CodingVector::zero(GaloisField::new(8).unwrap(), 3);
        assert!(a.add(&c).is_err());
        assert!(a.scale(9).is_err());
    }

    #[test]
    fn random_vectors_have_full_range() {
        let f = GaloisField::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let v = CodingVector::random(f, 2, &mut rng);
            seen.insert(v.coeffs().to_vec());
        }
        assert_eq!(seen.len(), 16, "all 16 vectors over GF(4)^2 should appear");
    }

    #[test]
    fn display_format() {
        let a = CodingVector::from_coeffs(gf7(), vec![1, 0, 5]).unwrap();
        assert_eq!(a.to_string(), "[1 0 5]");
    }
}
