//! The Zhu–Hajek peer-to-peer swarm model (PODC 2011): generator, stability
//! region, proof machinery, and simulators.
//!
//! This crate is the paper's primary contribution rendered as a library:
//!
//! * [`SwarmParams`] / [`SwarmModel`] — the CTMC of Section III (states are
//!   per-type peer counts, transitions follow eq. (1)),
//! * [`stability`] — Theorem 1: the stability region, the `Δ_S` quantities of
//!   eq. (4), and critical-parameter solvers,
//! * [`lyapunov`] — the Lyapunov function of the positive-recurrence proof
//!   (Section VII) with numeric drift evaluation,
//! * [`branching_analysis`] — the autonomous branching system of the
//!   transience proof (Section VI),
//! * [`policy`] / [`sim`] — a peer-level (agent-based) simulator with
//!   pluggable piece-selection policies (Theorem 14), Fig.-2 group
//!   tracking, flash-crowd schedules, and one uncoded kernel (turbo, on
//!   packed rows and index pools) beside the two coded ones,
//! * [`coded`] — the network-coding variant (Theorem 15),
//! * [`mu_infinity`] — the `µ = ∞` watched process of the borderline analysis
//!   (Section VIII-D, Fig. 3).
//!
//! # Quick start
//!
//! ```
//! use swarm::{SwarmParams, SwarmModel, stability};
//! use rand::SeedableRng;
//!
//! // Example 1 of the paper: single piece, fixed seed, peer seeds dwell 1/γ.
//! let params = SwarmParams::builder(1)
//!     .seed_rate(1.0)
//!     .contact_rate(1.0)
//!     .seed_departure_rate(2.0)
//!     .fresh_arrivals(1.5)
//!     .build()
//!     .unwrap();
//!
//! // Theorem 1 says this point is stable: λ0 = 1.5 < U_s / (1 − µ/γ) = 2.
//! assert!(stability::classify(&params).verdict.is_stable());
//!
//! // And simulation agrees.
//! let model = SwarmModel::new(params);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let verdict = model.simulate_and_classify(model.empty_state(), 2_000.0, &mut rng);
//! assert_eq!(verdict.class, markov::PathClass::Stable);
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

pub mod branching_analysis;
mod error;
pub mod lyapunov;
mod model;
mod params;
pub mod rates;
pub mod stability;
mod state;

pub mod coded;
pub mod groups;
pub mod metrics;
pub mod mu_infinity;
pub mod policy;
pub mod sim;

pub use error::SwarmError;
pub use model::SwarmModel;
pub use params::{SwarmParams, SwarmParamsBuilder};
pub use stability::{StabilityReport, StabilityVerdict};
pub use state::SwarmState;

// Re-export the foundational crates so downstream users need only depend on
// `swarm` for common tasks.
pub use markov;
pub use netcoding;
pub use pieceset;
