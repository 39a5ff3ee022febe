//! Compact piece-subset types for the peer-to-peer stability model.
//!
//! In the model of Zhu & Hajek (PODC 2011) a file is divided into `K` pieces
//! and a peer's *type* is the subset of pieces it currently holds. This crate
//! provides:
//!
//! * [`PieceId`] — a newtype for a single piece index (0-based internally,
//!   pieces are numbered `1..=K` in the paper),
//! * [`PieceSet`] — a bitset over at most [`MAX_PIECES`] pieces with the set
//!   algebra used throughout the model (useful pieces, subset tests, …),
//! * [`TypeSpace`] — an enumeration of all `2^K` types with a canonical dense
//!   index, used by the exact CTMC state vector and by the stability-region
//!   computations.
//!
//! A [`PieceSet`] is one `u64`, so the turbo simulator keeps each peer's
//! collection inside the peer's own record, and its hot queries
//! (membership, missing pieces, the useful pieces of a contact) are single
//! word operations.
//!
//! # Examples
//!
//! ```
//! use pieceset::{PieceSet, PieceId};
//!
//! let full = PieceSet::full(4);
//! let holder = PieceSet::from_pieces([PieceId::new(0), PieceId::new(2)]);
//! // pieces the holder still needs:
//! let needed = full.difference(holder);
//! assert_eq!(needed.len(), 2);
//! assert!(needed.contains(PieceId::new(1)));
//! assert!(!holder.is_superset_of(full));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests seed their own generators and may time themselves; the determinism contracts bind library code"
    )
)]

mod enumerate;
mod piece;
mod set;

pub use enumerate::{SubsetsIter, TypeIndex, TypeSpace, MAX_ENUMERABLE_PIECES};
pub use piece::PieceId;
pub use set::{PieceSet, PieceSetIter, MAX_PIECES};

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PieceSetError {
    /// A piece index was at least the number of pieces `K` in context.
    PieceOutOfRange {
        /// The offending piece index.
        piece: usize,
        /// The number of pieces in the file.
        num_pieces: usize,
    },
    /// The requested number of pieces exceeds [`MAX_PIECES`].
    TooManyPieces {
        /// The requested `K`.
        requested: usize,
    },
    /// `K` must be at least one.
    ZeroPieces,
}

impl core::fmt::Display for PieceSetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PieceSetError::PieceOutOfRange { piece, num_pieces } => {
                write!(
                    f,
                    "piece index {piece} out of range for a {num_pieces}-piece file"
                )
            }
            PieceSetError::TooManyPieces { requested } => {
                write!(
                    f,
                    "requested {requested} pieces but at most {MAX_PIECES} are supported"
                )
            }
            PieceSetError::ZeroPieces => write!(f, "a file must have at least one piece"),
        }
    }
}

impl std::error::Error for PieceSetError {}
