//! Enumeration of the type space `C` (all subsets of `{1..K}`) with a dense
//! canonical index, used by the exact CTMC state vector and the
//! stability-region computations.

use crate::{PieceSet, PieceSetError, MAX_PIECES};
use serde::{Deserialize, Serialize};

/// Maximum `K` for which the full `2^K` type space can be enumerated.
///
/// The exact CTMC state vector and the Lyapunov-function evaluation need to
/// enumerate every type, which is exponential in `K`; 24 keeps this below a
/// few tens of millions of entries.
pub const MAX_ENUMERABLE_PIECES: usize = 24;

/// Dense index of a type within a [`TypeSpace`].
///
/// The canonical index of a type `C` is simply its bitmask interpreted as an
/// integer, so type `∅` has index 0 and the full collection has index
/// `2^K − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TypeIndex(pub usize);

impl TypeIndex {
    /// Returns the underlying dense index.
    #[must_use]
    pub const fn value(self) -> usize {
        self.0
    }
}

impl core::fmt::Display for TypeIndex {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "type#{}", self.0)
    }
}

/// The set of all `2^K` peer types for a `K`-piece file.
///
/// Provides a bijection between [`PieceSet`]s (restricted to `K` pieces) and
/// dense indices `0..2^K`, plus convenient iterators over all types, all
/// strict subsets of a type, and all strict supersets.
///
/// # Examples
///
/// ```
/// use pieceset::{TypeSpace, PieceSet};
/// let space = TypeSpace::new(3).unwrap();
/// assert_eq!(space.num_types(), 8);
/// let full = space.full_type();
/// assert_eq!(space.index_of(full).value(), 7);
/// assert_eq!(space.type_at(space.index_of(full)), full);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeSpace {
    num_pieces: usize,
}

impl TypeSpace {
    /// Creates the type space for a `K = num_pieces` file.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_pieces` is zero or larger than
    /// [`MAX_ENUMERABLE_PIECES`].
    pub fn new(num_pieces: usize) -> Result<Self, PieceSetError> {
        if num_pieces == 0 {
            return Err(PieceSetError::ZeroPieces);
        }
        if num_pieces > MAX_ENUMERABLE_PIECES || num_pieces > MAX_PIECES {
            return Err(PieceSetError::TooManyPieces {
                requested: num_pieces,
            });
        }
        Ok(TypeSpace { num_pieces })
    }

    /// Number of pieces `K`.
    #[must_use]
    pub const fn num_pieces(&self) -> usize {
        self.num_pieces
    }

    /// Number of types, `2^K`.
    #[must_use]
    pub const fn num_types(&self) -> usize {
        1usize << self.num_pieces
    }

    /// The empty type `∅`.
    #[must_use]
    pub const fn empty_type(&self) -> PieceSet {
        PieceSet::empty()
    }

    /// The full collection `F = {1..K}` (the peer-seed type).
    #[must_use]
    pub fn full_type(&self) -> PieceSet {
        PieceSet::full(self.num_pieces)
    }

    /// Returns `true` if the given set only uses pieces `< K`.
    #[must_use]
    pub fn contains_type(&self, set: PieceSet) -> bool {
        set.is_subset_of(self.full_type())
    }

    /// Canonical dense index of a type.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `set` uses pieces outside this space.
    #[must_use]
    pub fn index_of(&self, set: PieceSet) -> TypeIndex {
        debug_assert!(
            self.contains_type(set),
            "type {set} not in a {}-piece space",
            self.num_pieces
        );
        TypeIndex(set.bits() as usize)
    }

    /// The type at a canonical index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn type_at(&self, index: TypeIndex) -> PieceSet {
        assert!(
            index.0 < self.num_types(),
            "type index {} out of range",
            index.0
        );
        PieceSet::from_bits(index.0 as u64)
    }

    /// Iterates over every type, in canonical index order (`∅` first, `F` last).
    pub fn iter(&self) -> impl Iterator<Item = PieceSet> + '_ {
        (0..self.num_types()).map(|bits| PieceSet::from_bits(bits as u64))
    }

    /// Iterates over every type except the full collection `F`.
    pub fn iter_non_full(&self) -> impl Iterator<Item = PieceSet> + '_ {
        let full = self.full_type();
        self.iter().filter(move |&c| c != full)
    }

    /// Iterates over all subsets of `of` (including `∅` and `of` itself).
    ///
    /// This is the set `E_C = {C' : C' ⊆ C}` from the paper's Lyapunov
    /// function — the types that are, or can become, type `of` peers.
    #[must_use]
    pub fn subsets_of(&self, of: PieceSet) -> SubsetsIter {
        SubsetsIter::new(of)
    }

    /// Iterates over all types *not* contained in `of` (i.e. `H_C`): the types
    /// that can help a type-`of` peer.
    pub fn helpers_of(&self, of: PieceSet) -> impl Iterator<Item = PieceSet> + '_ {
        self.iter().filter(move |c| !c.is_subset_of(of))
    }
}

/// Iterator over all subsets of a given [`PieceSet`].
///
/// Uses the standard sub-mask enumeration trick; yields `2^|C|` sets,
/// starting with `C` itself and ending with `∅`.
#[derive(Debug, Clone)]
pub struct SubsetsIter {
    mask: u64,
    current: u64,
    done: bool,
}

impl SubsetsIter {
    fn new(of: PieceSet) -> Self {
        SubsetsIter {
            mask: of.bits(),
            current: of.bits(),
            done: false,
        }
    }
}

impl Iterator for SubsetsIter {
    type Item = PieceSet;

    fn next(&mut self) -> Option<PieceSet> {
        if self.done {
            return None;
        }
        let out = PieceSet::from_bits(self.current);
        if self.current == 0 {
            self.done = true;
        } else {
            self.current = (self.current - 1) & self.mask;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PieceId;

    #[test]
    fn new_rejects_bad_sizes() {
        assert!(TypeSpace::new(0).is_err());
        assert!(TypeSpace::new(MAX_ENUMERABLE_PIECES + 1).is_err());
        assert!(TypeSpace::new(1).is_ok());
        assert!(TypeSpace::new(MAX_ENUMERABLE_PIECES).is_ok());
    }

    #[test]
    fn num_types_is_power_of_two() {
        let space = TypeSpace::new(5).unwrap();
        assert_eq!(space.num_types(), 32);
        assert_eq!(space.iter().count(), 32);
    }

    #[test]
    fn index_round_trip() {
        let space = TypeSpace::new(4).unwrap();
        for c in space.iter() {
            assert_eq!(space.type_at(space.index_of(c)), c);
        }
    }

    #[test]
    fn empty_and_full_indices() {
        let space = TypeSpace::new(3).unwrap();
        assert_eq!(space.index_of(space.empty_type()).value(), 0);
        assert_eq!(space.index_of(space.full_type()).value(), 7);
    }

    #[test]
    fn subsets_of_counts() {
        let space = TypeSpace::new(5).unwrap();
        let c = PieceSet::from_pieces([PieceId::new(0), PieceId::new(2), PieceId::new(4)]);
        let subs: Vec<PieceSet> = space.subsets_of(c).collect();
        assert_eq!(subs.len(), 8);
        assert!(subs.contains(&PieceSet::empty()));
        assert!(subs.contains(&c));
        for s in subs {
            assert!(s.is_subset_of(c));
        }
    }

    #[test]
    fn helpers_are_exactly_non_subsets() {
        let space = TypeSpace::new(4).unwrap();
        let c = PieceSet::from_pieces([PieceId::new(0)]);
        let helpers: Vec<PieceSet> = space.helpers_of(c).collect();
        // Non-subsets of a 1-element set in a 16-type space: 16 - 2 = 14.
        assert_eq!(helpers.len(), 14);
        for h in helpers {
            assert!(h.can_help(c));
        }
    }

    #[test]
    fn single_piece_space() {
        let space = TypeSpace::new(1).unwrap();
        assert_eq!(space.num_types(), 2);
    }
}
