//! Bitsliced subspaces of `F_2^K`: packed `u64` rows, XOR reduction,
//! trailing-bit pivots.
//!
//! Over `GF(2)` a coding vector is a bit pattern and vector addition is XOR,
//! so a reduced-row-echelon basis fits in `dim` rows of `⌈K/64⌉` machine
//! words and every [`Subspace`](crate::Subspace) operation the coded
//! simulation kernel needs collapses to word arithmetic:
//!
//! * **Reduction** of a row against the basis is one XOR per basis row whose
//!   pivot bit the row carries — no field multiplies, no per-coefficient
//!   loops.
//! * **Pivots** are trailing-bit positions (`trailing_zeros`), and pivot
//!   normalisation is free: the only non-zero field element is one.
//! * **Rank** is the row count; a row's support is a popcount away.
//! * **Random combinations** draw one `u64` of coefficient bits per 64 basis
//!   rows instead of one field element per row.
//!
//! [`BitSubspace`] agrees with [`Subspace`](crate::Subspace) over `GF(2)` on
//! rank, membership, and the RREF row set (property-tested in
//! `crates/netcoding/tests/bitspace_props.rs`); it exists because the coded
//! turbo kernel stores tens of thousands of peer bases and touches them on
//! every nontrivial contact.
//!
//! # Examples
//!
//! ```
//! use netcoding::BitSubspace;
//!
//! let mut s = BitSubspace::empty(4);
//! assert!(s.absorb(&mut [0b0011]));
//! assert!(s.absorb(&mut [0b0110]));
//! assert!(!s.absorb(&mut [0b0101])); // 0101 = 0011 ^ 0110
//! assert_eq!(s.dimension(), 2);
//! assert!(s.contains(&[0b0101]));
//! assert!(!s.is_full());
//! ```

use rand::Rng;

/// A subspace of `F_2^K` held as a reduced-row-echelon basis of packed
/// `u64` rows (see the module-level docs).
///
/// Rows are `⌈K/64⌉` words, bit `i` of word `i / 64` being coordinate `i`;
/// the basis is ordered by ascending pivot column, so equal subspaces have
/// identical representations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSubspace {
    ambient_dim: usize,
    words_per_row: usize,
    /// Mask of valid bits in the last word of a row.
    last_word_mask: u64,
    /// Pivot column of each basis row, ascending.
    pivots: Vec<u32>,
    /// Basis rows, `words_per_row` words each, ordered like `pivots`.
    rows: Vec<u64>,
}

/// The word count and valid-bit mask of the last word for a `K`-bit row.
fn row_shape(ambient_dim: usize) -> (usize, u64) {
    let tail = ambient_dim % 64;
    (
        ambient_dim.div_ceil(64),
        if tail == 0 {
            u64::MAX
        } else {
            (1u64 << tail) - 1
        },
    )
}

impl BitSubspace {
    /// The zero subspace of `F_2^K`.
    ///
    /// # Panics
    ///
    /// Panics if `ambient_dim` is zero.
    #[must_use]
    pub fn empty(ambient_dim: usize) -> Self {
        assert!(ambient_dim >= 1, "the ambient space needs a dimension");
        let (words_per_row, last_word_mask) = row_shape(ambient_dim);
        BitSubspace {
            ambient_dim,
            words_per_row,
            last_word_mask,
            pivots: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Clears the basis and reconfigures for a (possibly different) ambient
    /// dimension, keeping the allocated capacity — the scratch-reuse
    /// companion of [`BitSubspace::empty`] for arenas that recycle bases
    /// across peers and replications.
    ///
    /// # Panics
    ///
    /// Panics if `ambient_dim` is zero.
    pub fn reset(&mut self, ambient_dim: usize) {
        assert!(ambient_dim >= 1, "the ambient space needs a dimension");
        let (words_per_row, last_word_mask) = row_shape(ambient_dim);
        self.ambient_dim = ambient_dim;
        self.words_per_row = words_per_row;
        self.last_word_mask = last_word_mask;
        self.pivots.clear();
        self.rows.clear();
    }

    /// The ambient dimension `K`.
    #[must_use]
    pub fn ambient_dim(&self) -> usize {
        self.ambient_dim
    }

    /// Number of `u64` words per row: `⌈K/64⌉`.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The dimension of the subspace (the basis row count).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.pivots.len()
    }

    /// Returns `true` if this is the zero subspace.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.pivots.is_empty()
    }

    /// Returns `true` if the subspace equals the full ambient space.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.pivots.len() == self.ambient_dim
    }

    /// The RREF basis rows in ascending pivot order, each `⌈K/64⌉` words.
    pub fn basis_rows(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.rows.chunks_exact(self.words_per_row)
    }

    /// The pivot columns of the basis rows, ascending.
    #[must_use]
    pub fn pivots(&self) -> &[u32] {
        &self.pivots
    }

    /// Reduces `row` in place against the basis (XOR per matching pivot).
    #[inline]
    fn reduce_in_place(&self, row: &mut [u64]) {
        let w = self.words_per_row;
        for (i, &p) in self.pivots.iter().enumerate() {
            let (word, bit) = (p as usize / 64, p % 64);
            if row[word] >> bit & 1 == 1 {
                for (r, &b) in row.iter_mut().zip(&self.rows[i * w..(i + 1) * w]) {
                    *r ^= b;
                }
            }
        }
    }

    /// Reduces `row` against the basis in place and, if a non-zero residual
    /// remains, absorbs it as a new basis row, keeping the representation
    /// reduced; returns `true` when the dimension increased. On success
    /// `row` holds the inserted RREF row; on failure it is zero.
    ///
    /// This is the `GF(2)` counterpart of
    /// [`Subspace::absorb`](crate::Subspace::absorb): the simulation
    /// kernel's hot path, with the per-coefficient field arithmetic replaced
    /// by whole-word XOR and the pivot search by `trailing_zeros`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `⌈K/64⌉` words; bits beyond column `K` must be
    /// clear (checked in debug builds).
    pub fn absorb(&mut self, row: &mut [u64]) -> bool {
        let w = self.words_per_row;
        assert_eq!(row.len(), w, "row must span the ambient space");
        debug_assert!(
            row[w - 1] & !self.last_word_mask == 0,
            "bits beyond column K must be clear"
        );
        self.reduce_in_place(row);
        let Some(word) = row.iter().position(|&x| x != 0) else {
            return false;
        };
        let pivot = word * 64 + row[word].trailing_zeros() as usize;
        // Back-substitution: clear the new pivot bit from every existing row
        // (only rows with a smaller pivot can carry it).
        for (i, &p) in self.pivots.iter().enumerate() {
            if (p as usize) < pivot && self.rows[i * w + word] >> (pivot % 64) & 1 == 1 {
                for (b, &r) in self.rows[i * w..(i + 1) * w].iter_mut().zip(row.iter()) {
                    *b ^= r;
                }
            }
        }
        let pos = self.pivots.partition_point(|&q| (q as usize) < pivot);
        self.pivots.insert(pos, pivot as u32);
        self.rows.splice(pos * w..pos * w, row.iter().copied());
        true
    }

    /// Returns `true` if the bit row lies in the subspace (the zero row
    /// always does).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `⌈K/64⌉` words.
    #[must_use]
    pub fn contains(&self, row: &[u64]) -> bool {
        assert_eq!(
            row.len(),
            self.words_per_row,
            "row must span the ambient space"
        );
        let mut tmp = row.to_vec();
        self.reduce_in_place(&mut tmp);
        tmp.iter().all(|&x| x == 0)
    }

    /// Absorbs the unit vector `e_index`; returns `true` when the dimension
    /// increased.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside `0..K`.
    pub fn insert_unit(&mut self, index: usize) -> bool {
        assert!(index < self.ambient_dim, "unit index outside the ambient");
        let mut row = vec![0u64; self.words_per_row];
        row[index / 64] = 1u64 << (index % 64);
        self.absorb(&mut row)
    }

    /// Replaces the basis with the span of the unit vectors named by `bits`
    /// (bit `i` set ⇒ `e_i` in the basis) — directly, without any absorb
    /// loop, since unit rows with ascending pivots already *are* an RREF
    /// basis. This is how the coded turbo kernel materialises a peer whose
    /// subspace is exactly an uncoded piece collection.
    ///
    /// # Panics
    ///
    /// Panics if a set bit names a column at or beyond `min(K, 64)`.
    pub fn set_units(&mut self, bits: u64) {
        assert!(
            self.ambient_dim >= 64 || bits >> self.ambient_dim == 0,
            "unit bits outside a {}-dimensional ambient space",
            self.ambient_dim
        );
        self.pivots.clear();
        self.rows.clear();
        let mut rest = bits;
        while rest != 0 {
            let i = rest.trailing_zeros();
            rest &= rest - 1;
            self.pivots.push(i);
            self.rows.push(1u64 << i);
            self.rows
                .extend(std::iter::repeat_n(0, self.words_per_row - 1));
        }
    }

    /// Writes a uniformly random vector of the subspace into `out`: one
    /// `u64` of coefficient bits per 64 basis rows, then an XOR per selected
    /// row. Produces the zero row for the trivial subspace (with probability
    /// `2^{-dim}` in general) — the `GF(2)` counterpart of
    /// [`Subspace::random_combination_into`](crate::Subspace::random_combination_into).
    pub fn random_combination_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.words_per_row, 0);
        let w = self.words_per_row;
        for (chunk, rows) in self.rows.chunks(64 * w).enumerate() {
            let mut coeffs = rng.gen::<u64>();
            if chunk * 64 + 64 > self.pivots.len() {
                coeffs &= (1u64 << (self.pivots.len() - chunk * 64)) - 1;
            }
            let mut rest = coeffs;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                for (o, &b) in out.iter_mut().zip(&rows[i * w..(i + 1) * w]) {
                    *o ^= b;
                }
            }
        }
    }

    /// Writes a uniformly random vector of the *ambient* space `F_2^K` into
    /// `out` — the coded piece a fixed seed uploads, and the raw material
    /// for sampling uniform subspaces by repeated absorption.
    pub fn random_ambient_row_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        out.clear();
        out.extend((0..self.words_per_row).map(|_| rng.gen::<u64>()));
        *out.last_mut().expect("at least one word") &= self.last_word_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_full_and_reset() {
        let e = BitSubspace::empty(5);
        assert_eq!(e.dimension(), 0);
        assert!(e.is_trivial());
        assert!(!e.is_full());
        assert_eq!(e.words_per_row(), 1);
        let mut f = BitSubspace::empty(5);
        f.set_units(0b1_1111);
        assert!(f.is_full());
        assert_eq!(f.dimension(), 5);
        assert!(f.contains(&[0b10110]));
        f.reset(70);
        assert!(f.is_trivial());
        assert_eq!(f.ambient_dim(), 70);
        assert_eq!(f.words_per_row(), 2);
    }

    #[test]
    fn absorb_builds_a_reduced_basis() {
        let mut s = BitSubspace::empty(8);
        assert!(s.absorb(&mut [0b1100_0000]));
        assert!(s.absorb(&mut [0b0100_0001]));
        // Dependent: the sum of the first two.
        assert!(!s.absorb(&mut [0b1000_0001]));
        assert_eq!(s.dimension(), 2);
        // RREF: each pivot bit appears in exactly one row.
        for (i, row) in s.basis_rows().enumerate() {
            let pivot = s.pivots()[i];
            assert_eq!(row[0].trailing_zeros(), pivot);
            for (j, other) in s.basis_rows().enumerate() {
                if i != j {
                    assert_eq!(other[0] >> pivot & 1, 0, "pivot {pivot} leaked");
                }
            }
        }
        assert!(s.contains(&[0]));
        assert!(s.contains(&[0b1000_0001]));
        assert!(!s.contains(&[0b0000_0001]));
    }

    #[test]
    fn unit_helpers_match_absorbed_units() {
        let mut direct = BitSubspace::empty(40);
        direct.set_units(0b1010_0110);
        let mut absorbed = BitSubspace::empty(40);
        for i in [1, 2, 5, 7] {
            assert!(absorbed.insert_unit(i));
        }
        assert_eq!(direct, absorbed);
        assert!(!absorbed.insert_unit(5), "duplicate unit is dependent");
    }

    #[test]
    fn multiword_rows_work_across_the_word_boundary() {
        let mut s = BitSubspace::empty(100);
        let mut row = vec![1u64 << 63, 0b11];
        assert!(s.absorb(&mut row));
        assert!(s.insert_unit(63));
        assert_eq!(s.dimension(), 2);
        // The first absorbed row had pivot 63; inserting e63 re-reduces it.
        assert!(s.contains(&[0, 0b11]));
        assert!(!s.contains(&[0, 0b01]));
        assert_eq!(s.pivots(), &[63, 64]);
    }

    #[test]
    fn random_combinations_stay_in_the_span_and_cover_it() {
        let mut s = BitSubspace::empty(6);
        s.set_units(0b101);
        let mut rng = StdRng::seed_from_u64(9);
        let mut row = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            s.random_combination_into(&mut rng, &mut row);
            assert!(s.contains(&row));
            seen.insert(row[0]);
        }
        assert_eq!(seen.len(), 4, "all 2^dim members reachable");
    }

    #[test]
    fn ambient_rows_respect_the_last_word_mask() {
        let s = BitSubspace::empty(10);
        let mut rng = StdRng::seed_from_u64(11);
        let mut row = Vec::new();
        for _ in 0..50 {
            s.random_ambient_row_into(&mut rng, &mut row);
            assert_eq!(row.len(), 1);
            assert_eq!(row[0] >> 10, 0, "bits beyond K stay clear");
        }
    }
}
