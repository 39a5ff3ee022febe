//! Subspaces of `F_q^K` maintained in reduced row-echelon form.

use crate::{CodingError, CodingVector, GaloisField};
use serde::{Deserialize, Serialize};

/// A subspace `V ⊆ F_q^K`, the *type* of a peer under network coding
/// (Section VIII-B of the paper).
///
/// The subspace is stored as a reduced-row-echelon basis, so equality of
/// subspaces is structural equality of the representation.
///
/// # Examples
///
/// ```
/// use netcoding::{GaloisField, Subspace, CodingVector};
/// let f = GaloisField::new(4).unwrap();
/// let mut v = Subspace::empty(f, 3);
/// assert_eq!(v.dimension(), 0);
/// v.insert(&CodingVector::unit(f, 3, 0)).unwrap();
/// v.insert(&CodingVector::unit(f, 3, 1)).unwrap();
/// assert_eq!(v.dimension(), 2);
/// assert!(!v.is_full());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Subspace {
    field: GaloisField,
    ambient_dim: usize,
    /// RREF basis rows, sorted by pivot column.
    basis: Vec<Vec<u32>>,
}

impl Subspace {
    /// The zero subspace of `F_q^K`.
    #[must_use]
    pub fn empty(field: GaloisField, ambient_dim: usize) -> Self {
        Subspace {
            field,
            ambient_dim,
            basis: Vec::new(),
        }
    }

    /// The full space `F_q^K` (the type of a peer that can decode the file).
    #[must_use]
    pub fn full(field: GaloisField, ambient_dim: usize) -> Self {
        let basis = (0..ambient_dim)
            .map(|i| {
                let mut row = vec![0; ambient_dim];
                row[i] = 1;
                row
            })
            .collect();
        Subspace {
            field,
            ambient_dim,
            basis,
        }
    }

    /// Builds the span of the given vectors.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::Mismatch`] if a vector has the wrong length or
    /// field.
    pub fn span(
        field: GaloisField,
        ambient_dim: usize,
        vectors: &[CodingVector],
    ) -> Result<Self, CodingError> {
        let mut s = Subspace::empty(field, ambient_dim);
        for v in vectors {
            s.insert(v)?;
        }
        Ok(s)
    }

    /// The field of the subspace.
    #[must_use]
    pub fn field(&self) -> GaloisField {
        self.field
    }

    /// The ambient dimension `K`.
    #[must_use]
    pub fn ambient_dim(&self) -> usize {
        self.ambient_dim
    }

    /// The dimension of the subspace.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.basis.len()
    }

    /// Returns `true` if this is the zero subspace.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.basis.is_empty()
    }

    /// Returns `true` if the subspace equals the full ambient space, i.e. the
    /// peer can decode the original file.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.dimension() == self.ambient_dim
    }

    /// The RREF basis rows.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "basis rows are reduced field elements of the ambient length, which from_coeffs accepts"
    )]
    pub fn basis(&self) -> Vec<CodingVector> {
        self.basis
            .iter()
            .map(|row| {
                CodingVector::from_coeffs(self.field, row.clone()).expect("basis rows are valid")
            })
            .collect()
    }

    /// Reduces `v` against the current basis; returns the residual row.
    fn reduce(&self, v: &CodingVector) -> Vec<u32> {
        let mut row = v.coeffs().to_vec();
        self.reduce_in_place(&mut row);
        row
    }

    /// Reduces a raw coefficient row against the current basis in place.
    fn reduce_in_place(&self, row: &mut [u32]) {
        let f = self.field;
        for b in &self.basis {
            // Basis rows are non-zero; a zero row would reduce nothing.
            let Some(pivot) = b.iter().position(|&c| c != 0) else {
                continue;
            };
            let coeff = row[pivot];
            if coeff != 0 {
                // row -= coeff * b  (basis pivots are normalised to 1)
                for (r, &bc) in row.iter_mut().zip(b) {
                    *r = f.sub(*r, f.mul(coeff, bc));
                }
            }
        }
    }

    /// Returns `true` if `v` lies in the subspace.
    #[must_use]
    pub fn contains(&self, v: &CodingVector) -> bool {
        if v.len() != self.ambient_dim || v.field() != self.field {
            return false;
        }
        self.reduce(v).iter().all(|&c| c == 0)
    }

    /// Inserts a vector, returning `true` if the dimension increased.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::Mismatch`] if the vector has the wrong length
    /// or field.
    pub fn insert(&mut self, v: &CodingVector) -> Result<bool, CodingError> {
        if v.field() != self.field {
            return Err(CodingError::Mismatch(
                "vector over a different field".into(),
            ));
        }
        if v.len() != self.ambient_dim {
            return Err(CodingError::Mismatch(format!(
                "vector length {} does not match ambient dimension {}",
                v.len(),
                self.ambient_dim
            )));
        }
        let mut row = self.reduce(v);
        let Some(pivot) = row.iter().position(|&c| c != 0) else {
            return Ok(false);
        };
        // Normalise the pivot to one.
        let f = self.field;
        let inv = f.inv(row[pivot])?;
        for c in &mut row {
            *c = f.mul(*c, inv);
        }
        // Back-substitute into existing rows to keep the basis reduced.
        for b in &mut self.basis {
            let coeff = b[pivot];
            if coeff != 0 {
                for (bc, &rc) in b.iter_mut().zip(&row) {
                    *bc = f.sub(*bc, f.mul(coeff, rc));
                }
            }
        }
        // Insert keeping rows ordered by pivot column.
        let pos = self
            .basis
            .iter()
            .position(|b| b.iter().position(|&c| c != 0).is_some_and(|p| p > pivot))
            .unwrap_or(self.basis.len());
        self.basis.insert(pos, row);
        Ok(true)
    }

    /// Reduces the raw coefficient row `row` against the basis and, if it is
    /// independent, absorbs it into the subspace; returns `true` when the
    /// dimension increased. The allocation-free counterpart of
    /// [`Subspace::insert`] used by the coded simulation kernel's hot path:
    /// `row` is reduced *in place*, and on success its buffer is moved into
    /// the basis (leaving `row` empty), so a useless piece costs no
    /// allocation at all.
    ///
    /// Coefficients must already be valid field elements (the samplers in
    /// this crate only produce such rows); this is checked in debug builds.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::Mismatch`] if `row` does not have the ambient
    /// length.
    pub fn absorb(&mut self, row: &mut Vec<u32>) -> Result<bool, CodingError> {
        if row.len() != self.ambient_dim {
            return Err(CodingError::Mismatch(format!(
                "row length {} does not match ambient dimension {}",
                row.len(),
                self.ambient_dim
            )));
        }
        debug_assert!(row.iter().all(|&c| self.field.contains(c)));
        self.reduce_in_place(row);
        let Some(pivot) = row.iter().position(|&c| c != 0) else {
            return Ok(false);
        };
        let f = self.field;
        let inv = f.inv(row[pivot])?;
        for c in row.iter_mut() {
            *c = f.mul(*c, inv);
        }
        for b in &mut self.basis {
            let coeff = b[pivot];
            if coeff != 0 {
                for (bc, &rc) in b.iter_mut().zip(row.iter()) {
                    *bc = f.sub(*bc, f.mul(coeff, rc));
                }
            }
        }
        let pos = self
            .basis
            .iter()
            .position(|b| b.iter().position(|&c| c != 0).is_some_and(|p| p > pivot))
            .unwrap_or(self.basis.len());
        self.basis.insert(pos, std::mem::take(row));
        Ok(true)
    }

    /// Writes a uniformly random vector of the subspace (a random linear
    /// combination of the basis with uniform coefficients) into `out`
    /// without allocating — the coded piece an uploading peer sends, in the
    /// form [`Subspace::absorb`] consumes. Produces the zero row for the
    /// trivial subspace.
    pub fn random_combination_into<R: rand::Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.ambient_dim, 0);
        let f = self.field;
        for b in &self.basis {
            let coeff = f.random_element(rng);
            if coeff != 0 {
                for (o, &bc) in out.iter_mut().zip(b) {
                    *o = f.add(*o, f.mul(coeff, bc));
                }
            }
        }
    }

    /// Returns the subspace sum `self + other` (the span of the union).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::Mismatch`] for incompatible operands.
    pub fn sum(&self, other: &Self) -> Result<Self, CodingError> {
        if self.field != other.field || self.ambient_dim != other.ambient_dim {
            return Err(CodingError::Mismatch(
                "subspaces in different ambient spaces".into(),
            ));
        }
        let mut out = self.clone();
        for b in other.basis() {
            out.insert(&b)?;
        }
        Ok(out)
    }

    /// Dimension of the intersection `self ∩ other`, via
    /// `dim(A) + dim(B) − dim(A + B)`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::Mismatch`] for incompatible operands.
    pub fn intersection_dim(&self, other: &Self) -> Result<usize, CodingError> {
        let sum = self.sum(other)?;
        Ok(self.dimension() + other.dimension() - sum.dimension())
    }

    /// Returns `true` if `self ⊆ other`.
    #[must_use]
    pub fn is_subspace_of(&self, other: &Self) -> bool {
        self.basis().iter().all(|b| other.contains(b))
    }

    /// Samples a uniformly random vector of the subspace: the row
    /// [`Subspace::random_combination_into`] writes, from the same draws, as
    /// a [`CodingVector`].
    ///
    /// Returns the zero vector for the trivial subspace.
    #[expect(
        clippy::expect_used,
        reason = "a combination of basis rows holds field elements, which from_coeffs accepts"
    )]
    pub fn random_vector<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> CodingVector {
        let mut row = Vec::new();
        self.random_combination_into(rng, &mut row);
        CodingVector::from_coeffs(self.field, row).expect("field elements")
    }

    /// Probability that a uniformly random vector of `uploader` is useful to
    /// `self`, i.e. `1 − q^{dim(self ∩ uploader) − dim(uploader)}`
    /// (Section VIII-B).
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::Mismatch`] for incompatible operands.
    pub fn useful_probability_from(&self, uploader: &Self) -> Result<f64, CodingError> {
        if uploader.is_trivial() {
            return Ok(0.0);
        }
        let inter = self.intersection_dim(uploader)? as i64;
        let q = f64::from(self.field.order());
        Ok(1.0 - q.powi((inter - uploader.dimension() as i64) as i32))
    }
}

impl core::fmt::Display for Subspace {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "<dim {} subspace of {}^{}>",
            self.dimension(),
            self.field,
            self.ambient_dim
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gf(q: u64) -> GaloisField {
        GaloisField::new(q).unwrap()
    }

    #[test]
    fn empty_and_full() {
        let f = gf(4);
        let e = Subspace::empty(f, 3);
        assert_eq!(e.dimension(), 0);
        assert!(e.is_trivial());
        assert!(!e.is_full());
        let full = Subspace::full(f, 3);
        assert_eq!(full.dimension(), 3);
        assert!(full.is_full());
        assert!(e.is_subspace_of(&full));
        assert!(!full.is_subspace_of(&e));
    }

    #[test]
    fn insert_increases_dimension_only_for_independent_vectors() {
        let f = gf(7);
        let mut s = Subspace::empty(f, 3);
        let v1 = CodingVector::from_coeffs(f, vec![1, 2, 3]).unwrap();
        let v2 = CodingVector::from_coeffs(f, vec![2, 4, 6]).unwrap(); // 2*v1
        let v3 = CodingVector::from_coeffs(f, vec![0, 1, 0]).unwrap();
        assert!(s.insert(&v1).unwrap());
        assert!(!s.insert(&v2).unwrap());
        assert_eq!(s.dimension(), 1);
        assert!(s.insert(&v3).unwrap());
        assert_eq!(s.dimension(), 2);
        assert!(s.contains(&v2));
        assert!(!s.contains(&CodingVector::unit(f, 3, 2)));
    }

    #[test]
    fn zero_vector_never_useful() {
        let f = gf(4);
        let mut s = Subspace::empty(f, 3);
        let z = CodingVector::zero(f, 3);
        assert!(s.contains(&z));
        assert!(!s.insert(&z).unwrap());
        assert_eq!(s.dimension(), 0);
    }

    #[test]
    fn basis_is_reduced_and_within_space() {
        let f = gf(8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Subspace::empty(f, 5);
        for _ in 0..3 {
            let v = CodingVector::random(f, 5, &mut rng);
            let _ = s.insert(&v).unwrap();
        }
        for b in s.basis() {
            assert!(s.contains(&b));
            // pivot coefficient is one
            let lead = b.leading_index().unwrap();
            assert_eq!(b.coeffs()[lead], 1);
        }
    }

    #[test]
    fn sum_and_intersection_dims() {
        let f = gf(5);
        let a = Subspace::span(
            f,
            4,
            &[CodingVector::unit(f, 4, 0), CodingVector::unit(f, 4, 1)],
        )
        .unwrap();
        let b = Subspace::span(
            f,
            4,
            &[CodingVector::unit(f, 4, 1), CodingVector::unit(f, 4, 2)],
        )
        .unwrap();
        let sum = a.sum(&b).unwrap();
        assert_eq!(sum.dimension(), 3);
        assert_eq!(a.intersection_dim(&b).unwrap(), 1);
        assert!(!a.is_subspace_of(&b));
        assert!(!b.is_subspace_of(&a));
        assert!(a.is_subspace_of(&a.clone()));
    }

    #[test]
    fn random_vector_lies_in_subspace() {
        let f = gf(16);
        let mut rng = StdRng::seed_from_u64(2);
        let s = Subspace::span(
            f,
            6,
            &[CodingVector::unit(f, 6, 1), CodingVector::unit(f, 6, 4)],
        )
        .unwrap();
        for _ in 0..100 {
            let v = s.random_vector(&mut rng);
            assert!(s.contains(&v));
        }
        let t = Subspace::empty(f, 6);
        assert!(t.random_vector(&mut rng).is_zero());
    }

    #[test]
    fn useful_probability_matches_paper_formula() {
        let f = gf(4);
        // A = span(e0), B = span(e0, e1): P(useful from B to A) = 1 - q^{1-2} = 1 - 1/4.
        let a = Subspace::span(f, 3, &[CodingVector::unit(f, 3, 0)]).unwrap();
        let b = Subspace::span(
            f,
            3,
            &[CodingVector::unit(f, 3, 0), CodingVector::unit(f, 3, 1)],
        )
        .unwrap();
        let p = a.useful_probability_from(&b).unwrap();
        assert!((p - 0.75).abs() < 1e-12);
        // Uploads from a subspace of A are never useful to A.
        let p = b.useful_probability_from(&a).unwrap();
        assert!((p - 0.0).abs() < 1e-12);
        // Trivial uploader can never help.
        assert_eq!(
            a.useful_probability_from(&Subspace::empty(f, 3)).unwrap(),
            0.0
        );
    }

    #[test]
    fn useful_probability_empirically_validated() {
        let f = gf(4);
        let mut rng = StdRng::seed_from_u64(3);
        let a = Subspace::span(f, 3, &[CodingVector::unit(f, 3, 0)]).unwrap();
        let b = Subspace::full(f, 3);
        let p_theory = a.useful_probability_from(&b).unwrap();
        let trials = 20_000;
        let mut useful = 0;
        for _ in 0..trials {
            if !a.contains(&b.random_vector(&mut rng)) {
                useful += 1;
            }
        }
        let p_emp = useful as f64 / trials as f64;
        assert!((p_emp - p_theory).abs() < 0.02, "{p_emp} vs {p_theory}");
    }

    #[test]
    fn mismatch_errors() {
        let f = gf(4);
        let g = gf(8);
        let mut s = Subspace::empty(f, 3);
        assert!(s.insert(&CodingVector::zero(g, 3)).is_err());
        assert!(s.insert(&CodingVector::zero(f, 4)).is_err());
        let t = Subspace::empty(f, 4);
        assert!(s.sum(&t).is_err());
        assert!(s.intersection_dim(&t).is_err());
        assert!(!s.contains(&CodingVector::zero(f, 4)));
    }

    #[test]
    fn span_of_random_vectors_reaches_full_dimension() {
        // With q = 16 and enough random vectors the span is full w.h.p.
        let f = gf(16);
        let mut rng = StdRng::seed_from_u64(4);
        let vectors: Vec<CodingVector> = (0..10)
            .map(|_| CodingVector::random(f, 4, &mut rng))
            .collect();
        let s = Subspace::span(f, 4, &vectors).unwrap();
        assert!(s.is_full());
        assert_eq!(s, Subspace::full(f, 4));
    }

    #[test]
    fn display_format() {
        let f = gf(4);
        let s = Subspace::full(f, 2);
        assert_eq!(s.to_string(), "<dim 2 subspace of GF(4)^2>");
    }

    #[test]
    fn absorb_agrees_with_insert() {
        let f = gf(8);
        let mut rng = StdRng::seed_from_u64(7);
        let mut via_insert = Subspace::empty(f, 5);
        let mut via_absorb = Subspace::empty(f, 5);
        for _ in 0..20 {
            let v = CodingVector::random(f, 5, &mut rng);
            let grew = via_insert.insert(&v).unwrap();
            let mut row = v.coeffs().to_vec();
            assert_eq!(via_absorb.absorb(&mut row).unwrap(), grew);
            if grew {
                assert!(row.is_empty(), "the absorbed buffer moves into the basis");
            }
            assert_eq!(via_insert, via_absorb);
        }
        assert!(via_absorb.is_full());
        let mut short = vec![0u32; 3];
        assert!(via_absorb.absorb(&mut short).is_err());
    }

    #[test]
    fn random_combination_into_matches_random_vector_support() {
        let f = gf(4);
        let mut rng = StdRng::seed_from_u64(8);
        let s = Subspace::span(
            f,
            4,
            &[CodingVector::unit(f, 4, 0), CodingVector::unit(f, 4, 2)],
        )
        .unwrap();
        let mut row = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..400 {
            s.random_combination_into(&mut rng, &mut row);
            let v = CodingVector::from_coeffs(f, row.clone()).unwrap();
            assert!(s.contains(&v));
            seen.insert(row.clone());
        }
        // |S| = q^dim = 16 members, all reachable.
        assert_eq!(seen.len(), 16);
        // Trivial subspace → the zero row.
        Subspace::empty(f, 4).random_combination_into(&mut rng, &mut row);
        assert!(row.iter().all(|&c| c == 0));
    }
}
