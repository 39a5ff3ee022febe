//! A packed peer × piece bit matrix: every peer's piece collection stored as
//! a row of `u64` words.
//!
//! The agent-based simulator keeps thousands of peers, each holding a subset
//! of the file's `K` pieces. [`PieceMatrix`] backs those collections with one
//! flat `Vec<u64>` — `⌈K/64⌉` words per peer, rows contiguous — so the hot
//! queries of the turbo kernel (does a peer hold a piece? which pieces does
//! it still need? which pieces could an uploader usefully send?) are
//! word-wise mask operations with **no allocation and no pointer chasing**,
//! and a departing peer is a `swap_remove` of one row.
//!
//! Rows are addressed by index; the matrix does not know what a row *means*
//! (the simulator keeps its per-peer metadata in a parallel array). For
//! files of at most [`crate::MAX_PIECES`] pieces a row converts losslessly to
//! a [`PieceSet`]; wider files stay in multi-word form.
//!
//! # Examples
//!
//! ```
//! use pieceset::{PieceMatrix, PieceSet, PieceId};
//!
//! let mut m = PieceMatrix::new(5);
//! let a = m.push_set(PieceSet::from_pieces([PieceId::new(0), PieceId::new(3)]));
//! let b = m.push_set(PieceSet::empty());
//! assert!(m.contains(a, PieceId::new(3)));
//! // pieces `a` could usefully upload to `b`:
//! assert_eq!(m.useful_set(a, b), m.as_set(a));
//! m.insert(b, PieceId::new(3));
//! assert_eq!(m.useful_set(a, b), PieceSet::singleton(PieceId::new(0)));
//! assert_eq!(m.missing_set(b).len(), 4);
//! ```

use crate::{PieceId, PieceSet};

/// Packed piece collections for a population of peers: one row of
/// `⌈K/64⌉` `u64` words per peer (see the crate docs for the design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PieceMatrix {
    num_pieces: usize,
    words_per_row: usize,
    /// Mask of valid bits in the last word of a row.
    last_word_mask: u64,
    data: Vec<u64>,
}

impl PieceMatrix {
    /// Creates an empty matrix for a `K = num_pieces` file.
    ///
    /// # Panics
    ///
    /// Panics if `num_pieces` is zero.
    #[must_use]
    pub fn new(num_pieces: usize) -> Self {
        assert!(num_pieces >= 1, "a file must have at least one piece");
        let words_per_row = num_pieces.div_ceil(64);
        let tail = num_pieces % 64;
        PieceMatrix {
            num_pieces,
            words_per_row,
            last_word_mask: if tail == 0 {
                u64::MAX
            } else {
                (1u64 << tail) - 1
            },
            data: Vec::new(),
        }
    }

    /// Reserves capacity for `rows` additional peers.
    pub fn reserve(&mut self, rows: usize) {
        self.data.reserve(rows * self.words_per_row);
    }

    /// Reconfigures the matrix for a (possibly different) `K`-piece file and
    /// removes every row, keeping the allocated capacity — the scratch-reuse
    /// companion of [`PieceMatrix::new`] for simulators that run many
    /// replications back to back.
    ///
    /// # Panics
    ///
    /// Panics if `num_pieces` is zero.
    pub fn reset(&mut self, num_pieces: usize) {
        assert!(num_pieces >= 1, "a file must have at least one piece");
        let tail = num_pieces % 64;
        self.num_pieces = num_pieces;
        self.words_per_row = num_pieces.div_ceil(64);
        self.last_word_mask = if tail == 0 {
            u64::MAX
        } else {
            (1u64 << tail) - 1
        };
        self.data.clear();
    }

    /// Number of rows (peers) currently stored.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.data.len() / self.words_per_row
    }

    #[inline]
    fn row(&self, row: usize) -> &[u64] {
        let start = row * self.words_per_row;
        &self.data[start..start + self.words_per_row]
    }

    #[inline]
    fn row_mut(&mut self, row: usize) -> &mut [u64] {
        let start = row * self.words_per_row;
        &mut self.data[start..start + self.words_per_row]
    }

    /// Appends an empty row and returns its index.
    pub fn push_empty(&mut self) -> usize {
        self.data.resize(self.data.len() + self.words_per_row, 0);
        self.rows() - 1
    }

    /// Appends a row holding the pieces of `set` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `set` uses pieces outside `0..K`.
    pub fn push_set(&mut self, set: PieceSet) -> usize {
        debug_assert!(
            self.num_pieces >= 64 || set.bits() >> self.num_pieces == 0,
            "set {set} uses pieces outside a {}-piece file",
            self.num_pieces
        );
        let row = self.push_empty();
        self.row_mut(row)[0] = set.bits();
        row
    }

    /// Removes `row` by swapping the last row into its place (the order of
    /// the remaining rows is preserved except for that move), mirroring
    /// `Vec::swap_remove`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn swap_remove_row(&mut self, row: usize) {
        let rows = self.rows();
        assert!(row < rows, "row {row} out of range ({rows} rows)");
        let w = self.words_per_row;
        let (dst, src) = (row * w, (rows - 1) * w);
        if dst != src {
            for i in 0..w {
                self.data[dst + i] = self.data[src + i];
            }
        }
        self.data.truncate(src);
    }

    /// Returns `true` if `row` holds `piece`.
    #[must_use]
    #[inline]
    pub fn contains(&self, row: usize, piece: PieceId) -> bool {
        let i = piece.index();
        self.row(row)[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Gives `piece` to `row`; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, row: usize, piece: PieceId) -> bool {
        let i = piece.index();
        debug_assert!(i < self.num_pieces, "piece {piece} outside the file");
        let word = &mut self.row_mut(row)[i / 64];
        let bit = 1u64 << (i % 64);
        let newly = *word & bit == 0;
        *word |= bit;
        newly
    }

    /// The pieces missing from `row`, as a [`PieceSet`].
    ///
    /// # Panics
    ///
    /// Panics if the file is wider than [`crate::MAX_PIECES`] (the set type's
    /// single-word limit); wide files must stay in multi-word form.
    #[must_use]
    pub fn missing_set(&self, row: usize) -> PieceSet {
        PieceSet::from_bits(!self.as_set(row).bits() & self.last_word_mask)
    }

    /// The difference `a − b` as a [`PieceSet`] (useful pieces of an
    /// `a → b` contact).
    ///
    /// # Panics
    ///
    /// Panics if the file is wider than [`crate::MAX_PIECES`].
    #[must_use]
    #[inline]
    pub fn useful_set(&self, a: usize, b: usize) -> PieceSet {
        self.assert_single_word();
        PieceSet::from_bits(self.row(a)[0] & !self.row(b)[0])
    }

    /// The collection of `row` as a [`PieceSet`].
    ///
    /// # Panics
    ///
    /// Panics if the file is wider than [`crate::MAX_PIECES`].
    #[must_use]
    #[inline]
    pub fn as_set(&self, row: usize) -> PieceSet {
        self.assert_single_word();
        PieceSet::from_bits(self.row(row)[0])
    }

    /// Iterates over the pieces `row` holds, in increasing index order.
    pub fn pieces(&self, row: usize) -> impl Iterator<Item = PieceId> + '_ {
        self.row(row).iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            core::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let i = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(PieceId::new(w * 64 + i))
                }
            })
        })
    }

    fn assert_single_word(&self) {
        assert!(
            self.words_per_row == 1,
            "a {}-piece file does not fit a single-word PieceSet",
            self.num_pieces
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(indices: &[usize]) -> PieceSet {
        indices.iter().map(|&i| PieceId::new(i)).collect()
    }

    fn held(m: &PieceMatrix, row: usize) -> Vec<usize> {
        m.pieces(row).map(PieceId::index).collect()
    }

    #[test]
    fn push_query_round_trip() {
        let mut m = PieceMatrix::new(6);
        let a = m.push_set(set(&[0, 2, 5]));
        assert_eq!(m.rows(), 1);
        assert!(m.contains(a, PieceId::new(2)));
        assert!(!m.contains(a, PieceId::new(1)));
        assert_eq!(m.as_set(a), set(&[0, 2, 5]));
        assert_eq!(m.missing_set(a), set(&[1, 3, 4]));
        assert_eq!(held(&m, a), vec![0, 2, 5]);
    }

    #[test]
    fn insert_and_fullness() {
        let mut m = PieceMatrix::new(2);
        let r = m.push_empty();
        assert!(m.insert(r, PieceId::new(0)));
        assert!(!m.insert(r, PieceId::new(0)));
        assert!(m.insert(r, PieceId::new(1)));
        assert_eq!(m.as_set(r), PieceSet::full(2));
        assert!(m.missing_set(r).is_empty());
    }

    #[test]
    fn useful_queries_match_set_algebra() {
        let mut m = PieceMatrix::new(8);
        let a = m.push_set(set(&[0, 1, 4, 7]));
        let b = m.push_set(set(&[1, 2, 7]));
        assert_eq!(m.useful_set(a, b), set(&[0, 4]));
        assert_eq!(m.useful_set(b, a), set(&[2]));
        assert_eq!(m.useful_set(a, b), m.as_set(a).difference(m.as_set(b)));
    }

    #[test]
    fn multi_word_rows() {
        // 130 pieces → 3 words per row.
        let mut m = PieceMatrix::new(130);
        let a = m.push_empty();
        let b = m.push_empty();
        for i in [0usize, 63, 64, 127, 128, 129] {
            m.insert(a, PieceId::new(i));
        }
        m.insert(b, PieceId::new(64));
        assert_eq!(held(&m, a), vec![0, 63, 64, 127, 128, 129]);
        assert_eq!(held(&m, b), vec![64]);
        assert!(m.contains(a, PieceId::new(128)));
        assert!(!m.contains(b, PieceId::new(128)));
    }

    #[test]
    fn swap_remove_moves_last_row() {
        let mut m = PieceMatrix::new(4);
        let a = m.push_set(set(&[0]));
        let _b = m.push_set(set(&[1]));
        let _c = m.push_set(set(&[2]));
        m.swap_remove_row(a);
        assert_eq!(m.rows(), 2);
        // row 0 is now the old last row
        assert_eq!(m.as_set(0), set(&[2]));
        assert_eq!(m.as_set(1), set(&[1]));
        // removing the (new) last row shrinks without moving anything
        m.swap_remove_row(1);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.as_set(0), set(&[2]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn swap_remove_out_of_range_panics() {
        let mut m = PieceMatrix::new(2);
        m.swap_remove_row(0);
    }

    #[test]
    fn reset_reconfigures_width_and_clears_rows() {
        let mut m = PieceMatrix::new(4);
        m.push_set(set(&[0, 3]));
        m.reset(130);
        assert_eq!(m.rows(), 0);
        let r = m.push_empty();
        m.insert(r, PieceId::new(129));
        assert_eq!(held(&m, r), vec![129]);
        // Back to one word per row: single-word conversions work again.
        m.reset(2);
        let r = m.push_set(set(&[0, 1]));
        assert_eq!(m.as_set(r), PieceSet::full(2));
        assert!(m.missing_set(r).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn wide_rows_refuse_single_word_conversion() {
        let mut m = PieceMatrix::new(100);
        let r = m.push_empty();
        let _ = m.as_set(r);
    }
}
