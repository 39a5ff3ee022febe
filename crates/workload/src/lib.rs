//! Workloads and experiment harnesses for the reproduction of *Stability
//! of a Peer-to-Peer Communication System* (Zhu & Hajek, PODC 2011).
//!
//! The paper's "evaluation" consists of Theorem 1, three worked examples
//! (Fig. 1), the peer-flow picture of the missing-piece syndrome (Fig. 2),
//! the `µ = ∞` borderline process (Fig. 3) and the extension theorems. Every
//! one of these maps to an experiment in [`experiments`]; `DESIGN.md` and
//! `EXPERIMENTS.md` in the repository root index them.
//!
//! * [`error`] — the typed [`SpecError`] hierarchy of the scenario file
//!   format and registry (no stringly errors in the public API),
//! * [`scenario`] — builders for the paper's example networks and the
//!   workloads the experiments sweep over,
//! * [`registry`] — the declarative scenario registry: serde-style JSON
//!   scenario files (heterogeneous arrivals, flash crowds, multi-seed
//!   starts, retry speed-up, policy choice) executed deterministically on
//!   the engine's agent backend via `run_experiments --scenario`,
//! * [`ndjson`] — the strict validator of the engine's metrics NDJSON
//!   export (`run_experiments --metrics`): framing, schema, and the
//!   counter algebra all checked line by line,
//! * [`report`] — plain-text tables, the output format of every experiment,
//! * [`experiments`] — one entry point per table/figure/claim (E1–E12);
//!   the Theorem 1 sweeps and the E5 region map run straight on
//!   [`engine::Session`].
//!
//! # Examples
//!
//! ```
//! use workload::scenario;
//! use swarm::stability;
//!
//! // The K = 1 network of Example 1 at a stable operating point.
//! let params = scenario::example1(1.0, 1.0, 1.0, 2.0).unwrap();
//! assert!(stability::classify(&params).verdict.is_stable());
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

pub mod error;
pub mod experiments;
mod json;
pub mod ndjson;
pub mod registry;
pub mod report;
pub mod scenario;

pub use error::SpecError;
pub use ndjson::NdjsonSummary;
pub use registry::{Registry, ScenarioRunOptions, ScenarioRunReport, ScenarioSpec};
pub use report::{ExperimentReport, Table};
