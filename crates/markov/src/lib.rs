//! Continuous-time Markov chain (CTMC) infrastructure for the P2P stability
//! reproduction.
//!
//! The Zhu–Hajek model is a countable-state CTMC. This crate holds the CTMC
//! machinery the reproduction uses (exact-jump simulation, Foster–Lyapunov
//! drift, multi-type branching means, truncated stationary laws),
//! independent of the P2P model itself:
//!
//! * [`Ctmc`] — the generator abstraction: a model enumerates out-going
//!   transitions `(state, rate)` from any state.
//! * [`gillespie`] — the exact-jump (Gillespie / stochastic simulation
//!   algorithm) loop with its stopping rules, which a chain plugs into by
//!   listing its transitions or by stepping its state in place.
//! * [`poisson`] — exponential waiting times and weighted categorical
//!   draws.
//! * [`alias`] — Walker/Vose alias tables for `O(1)` categorical sampling
//!   (the turbo simulation kernel's arrival draws).
//! * [`path`] — sample-path recording, time averages, linear-trend
//!   estimation.
//! * [`hitting`] — excursion statistics of a recorded sample path.
//! * [`drift`] — numeric Foster–Lyapunov drift `QV(x)` evaluation.
//! * [`branching`] — multi-type branching process means: subcriticality and
//!   expected total progeny.
//! * [`linalg`] — small dense matrices: Gaussian elimination and spectral
//!   radii.
//! * [`stationary`] — stationary distribution of a truncated CTMC by
//!   uniformization and power iteration.
//! * [`classify`] — heuristic transience / stability classification of
//!   finite simulated paths.
//!
//! # Examples
//!
//! Simulating a simple M/M/1 queue and checking its stationary mean:
//!
//! ```
//! use markov::{Ctmc, gillespie::{Simulator, StopRule}};
//! use rand::SeedableRng;
//!
//! struct Mm1 { lambda: f64, mu: f64 }
//! impl Ctmc for Mm1 {
//!     type State = u64;
//!     fn transitions(&self, s: &u64, out: &mut Vec<(u64, f64)>) {
//!         out.push((s + 1, self.lambda));
//!         if *s > 0 { out.push((s - 1, self.mu)); }
//!     }
//! }
//!
//! let model = Mm1 { lambda: 0.5, mu: 1.0 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let sim = Simulator::new(&model).observe(|s| *s as f64);
//! let run = sim.run(0u64, StopRule::at_time(20_000.0), &mut rng);
//! let mean = run.path.time_average_values();
//! assert!((mean - 1.0).abs() < 0.15); // rho/(1-rho) = 1 for rho = 0.5
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests seed their own generators and may time themselves; the determinism contracts bind library code"
    )
)]

pub mod alias;
pub mod branching;
pub mod classify;
pub mod drift;
pub mod gillespie;
pub mod hitting;
pub mod linalg;
pub mod path;
pub mod poisson;
pub mod stationary;

pub use classify::{PathClass, PathClassifier};
pub use gillespie::{Simulator, SimulatorRun, StopRule};
pub use path::{SamplePath, TrendEstimate};

/// A continuous-time Markov chain described by its generator.
///
/// Implementors enumerate the positive entries of the generator row of a
/// state: each `(target, rate)` pair with `rate > 0` contributes
/// `q(state, target) = rate`. Self-loops (`target == state`) are permitted
/// and ignored by the simulator and drift computations.
pub trait Ctmc {
    /// The state type of the chain.
    type State: Clone + PartialEq + core::fmt::Debug;

    /// Appends the out-going transitions of `state` to `out`.
    ///
    /// `out` is cleared by the caller before the call. Rates must be finite
    /// and non-negative; zero-rate entries are allowed and ignored.
    fn transitions(&self, state: &Self::State, out: &mut Vec<(Self::State, f64)>);
}

/// Errors produced by the numeric routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// A matrix passed to a solver was singular (or numerically so).
    SingularMatrix,
    /// Input dimensions were inconsistent.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        got: usize,
    },
    /// A rate, probability, or other parameter was out of its valid range.
    InvalidParameter(String),
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed.
        iterations: usize,
    },
}

impl core::fmt::Display for MarkovError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MarkovError::SingularMatrix => write!(f, "matrix is singular"),
            MarkovError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            MarkovError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            MarkovError::NoConvergence { iterations } => {
                write!(
                    f,
                    "iteration failed to converge after {iterations} iterations"
                )
            }
        }
    }
}

impl std::error::Error for MarkovError {}
