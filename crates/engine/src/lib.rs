//! Parallel Monte-Carlo replication engine for the Zhu–Hajek reproduction.
//!
//! The paper's verdicts (Theorem 1/14/15) are checked against *simulated*
//! sample paths, and near the stability boundary a single finite-horizon
//! replication is noise: the same parameter point can classify as `Stable`
//! or `Growing` depending on one exponential draw. This crate is the
//! workspace's scale-and-speed substrate for doing that comparison honestly,
//! and [`Session`] is its single typed entry point:
//!
//! * [`session`] — [`Session`] / [`SessionBuilder`] / [`Workload`]: one
//!   builder covering CTMC batches, agent batches, `(λ₀, µ, γ, K)` phase
//!   grids, and Theorem 15 coded grids, executed as a batch
//!   ([`Session::run`]) or streamed into a [`ReplicationSink`]
//!   ([`Session::stream`]) with O(1)-memory incremental aggregation —
//!   both bit-identical at any worker count,
//! * [`error`] — the typed [`Error`] hierarchy; every failure mode is
//!   rejected by [`SessionBuilder::build`] before anything runs,
//! * [`replicate`] — the replication and outcome types both workload
//!   kinds share ([`ReplicationOutcome`], [`ScenarioOutcome`]), and the
//!   CTMC scenario with its per-replication unit of work,
//! * [`agent`] — the same contract for **agent-based scenarios** (piece
//!   policies, retry speed-up, flash crowds, large `K`) that the
//!   type-count CTMC cannot express, with `max_events` truncation
//!   surfaced per scenario,
//! * [`rng`] — deterministic per-replication ChaCha streams keyed by
//!   `(master seed, scenario id, replication id)`, so results are
//!   bit-for-bit reproducible at *any* worker count,
//! * [`stats`] — Welford mean/variance, min/max, and normal-approximation
//!   confidence intervals, pushed in replication order whatever the thread
//!   scheduling,
//! * [`grid`] / [`coded`] — phase-diagram rectangle and diagram types,
//! * [`labels`] — the one canonical verdict/class naming and glyph map,
//! * [`artifact`] — CSV and JSON emitters for batch and grid results,
//! * [`progress`] — [`ProgressSink`], the built-in [`ReplicationSink`]
//!   that reports decile progress on stderr,
//! * [`metrics`] — the telemetry export path: [`ReplicationTelemetry`]
//!   (per-replication kernel counters and wall time, attached to records
//!   when [`EngineConfig::metrics`] is set) and [`MetricsSink`], an NDJSON
//!   exporter that wraps any sink without perturbing the stream.
//!
//! Parallelism is data parallelism over the flat `(scenario, replication)`
//! task list with in-order result delivery behind a bounded reorder
//! window; the worker count only changes the schedule, never the numbers.
//! [`ordered_map`] puts the same scheduler behind a plain map over a list,
//! for work that is not a replication batch.
//!
//! # Example
//!
//! ```
//! use engine::{EngineConfig, Scenario, Session, Workload};
//! use swarm::SwarmParams;
//!
//! let params = SwarmParams::builder(1)
//!     .seed_rate(1.0)
//!     .contact_rate(1.0)
//!     .seed_departure_rate(2.0)
//!     .fresh_arrivals(1.0)
//!     .build()?;
//! let session = Session::builder()
//!     .config(
//!         EngineConfig::default()
//!             .with_replications(4)
//!             .with_horizon(300.0)
//!             .with_master_seed(7)
//!             .with_jobs(2),
//!     )
//!     .workload(Workload::ctmc(vec![Scenario::new(0, "example-1 stable", params)]))
//!     .build()
//!     .expect("valid session");
//! let outcomes = session.run().into_ctmc().expect("a CTMC workload");
//! assert_eq!(outcomes.len(), 1);
//! assert_eq!(outcomes[0].votes.total(), 4);
//! # Ok::<(), swarm::SwarmError>(())
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

pub mod agent;
pub mod artifact;
pub mod checkpoint;
pub mod coded;
pub mod config;
pub mod error;
pub mod faults;
pub mod grid;
pub mod labels;
pub mod metrics;
pub mod progress;
pub mod replicate;
pub mod rng;
pub mod session;
pub mod stats;

pub use agent::{run_agent_replication, AgentScenario};
pub use checkpoint::CheckpointSpec;
pub use coded::{CodedGridSpec, CodedPhaseCell, CodedPhaseDiagram};
pub use config::{EngineConfig, FailurePolicy};
pub use error::Error;
pub use faults::{FaultKind, FaultParseError, FaultPlan};
pub use grid::{Axis, GridSpec, PhaseCell, PhaseDiagram};
pub use metrics::{MetricsSink, ReplicationTelemetry};
pub use progress::ProgressSink;
pub use replicate::{
    run_replication_on, verdict_agrees, ClassVotes, ReplicationOutcome, Scenario, ScenarioOutcome,
};
pub use rng::{derive_seed, replication_rng};
pub use session::{
    ordered_map, NullSink, ReplicationFailure, ReplicationRecord, ReplicationSink, Session,
    SessionBuilder, SessionOutput, StreamPlan, StreamStats, Workload,
};
pub use stats::{Estimate, Welford};
