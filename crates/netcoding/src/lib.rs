//! Finite-field arithmetic and subspace types for random linear network
//! coding, as used in the network-coding extension (Theorem 15) of the
//! Zhu–Hajek P2P stability model.
//!
//! With network coding, a peer's *type* is no longer a subset of pieces but
//! the subspace `V_A ⊆ F_q^K` spanned by the coding vectors of the coded
//! pieces it holds. The crate provides:
//!
//! * [`GaloisField`] — arithmetic in `GF(q)` for `q` a prime or a power of
//!   two up to `2^16`,
//! * [`CodingVector`] — length-`K` vectors over `GF(q)` with the operations
//!   needed for random linear combinations,
//! * [`Subspace`] — a subspace of `F_q^K` maintained in reduced row-echelon
//!   form, with dimension, membership, sums, random-vector sampling and the
//!   usefulness probabilities from Section VIII-B of the paper.
//!
//! # Examples
//!
//! ```
//! use netcoding::{GaloisField, Subspace, CodingVector};
//! use rand::SeedableRng;
//!
//! let field = GaloisField::new(8).unwrap();     // GF(2^3)
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut space = Subspace::empty(field, 4);
//! let v = CodingVector::random(field, 4, &mut rng);
//! space.insert(&v).unwrap();
//! assert!(space.dimension() <= 1);
//! assert!(space.contains(&v));
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

mod bitspace;
mod gf;
mod subspace;
mod vector;

pub use bitspace::BitSubspace;
pub use gf::GaloisField;
pub use subspace::Subspace;
pub use vector::CodingVector;

/// Errors produced by the network-coding types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodingError {
    /// The requested field order is not supported (must be a prime `< 2^16`
    /// or a power of two `≤ 2^16`).
    UnsupportedFieldOrder {
        /// The requested order `q`.
        order: u64,
    },
    /// An element was not a valid member of the field.
    ElementOutOfRange {
        /// The offending element.
        element: u64,
        /// The field order.
        order: u64,
    },
    /// Division by zero was attempted.
    DivisionByZero,
    /// Two operands belong to different fields or have different lengths.
    Mismatch(String),
}

impl core::fmt::Display for CodingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodingError::UnsupportedFieldOrder { order } => {
                write!(
                    f,
                    "unsupported field order {order}: must be a prime or power of two up to 65536"
                )
            }
            CodingError::ElementOutOfRange { element, order } => {
                write!(f, "element {element} out of range for GF({order})")
            }
            CodingError::DivisionByZero => write!(f, "division by zero in a finite field"),
            CodingError::Mismatch(msg) => write!(f, "operand mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CodingError {}
