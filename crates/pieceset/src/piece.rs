//! Single-piece identifiers.

use serde::{Deserialize, Serialize};

/// Identifier of a single piece of the shared file.
///
/// Pieces are indexed from `0` to `K - 1` internally. The paper numbers pieces
/// `1..=K`; [`PieceId::paper_number`] converts to that convention for display.
///
/// # Examples
///
/// ```
/// use pieceset::PieceId;
/// let p = PieceId::new(0);
/// assert_eq!(p.index(), 0);
/// assert_eq!(p.paper_number(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PieceId(u32);

impl PieceId {
    /// Creates a new piece identifier from a 0-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32` (practically unreachable
    /// because [`crate::MAX_PIECES`] is far smaller).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the documented panic: no valid piece index comes near u32::MAX"
    )]
    pub fn new(index: usize) -> Self {
        PieceId(u32::try_from(index).expect("piece index fits in u32"))
    }

    /// Returns the 0-based index of the piece.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the 1-based number used in the paper's notation (`1..=K`).
    #[must_use]
    pub fn paper_number(self) -> usize {
        self.0 as usize + 1
    }
}

impl core::fmt::Display for PieceId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "piece {}", self.paper_number())
    }
}

impl From<usize> for PieceId {
    fn from(index: usize) -> Self {
        PieceId::new(index)
    }
}

impl From<PieceId> for usize {
    fn from(piece: PieceId) -> usize {
        piece.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_index_round_trip() {
        for i in [0usize, 1, 5, 63] {
            assert_eq!(PieceId::new(i).index(), i);
        }
    }

    #[test]
    fn paper_number_is_one_based() {
        assert_eq!(PieceId::new(0).paper_number(), 1);
        assert_eq!(PieceId::new(7).paper_number(), 8);
    }

    #[test]
    fn display_uses_paper_numbering() {
        assert_eq!(PieceId::new(2).to_string(), "piece 3");
    }

    #[test]
    fn conversions() {
        let p: PieceId = 4usize.into();
        assert_eq!(usize::from(p), 4);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(PieceId::new(1) < PieceId::new(2));
        assert_eq!(PieceId::new(3), PieceId::new(3));
    }
}
