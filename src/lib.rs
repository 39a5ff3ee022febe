//! # p2p-stability
//!
//! A reproduction of *Stability of a Peer-to-Peer Communication System*
//! (Ji Zhu and Bruce Hajek, PODC 2011) as a Rust workspace.
//!
//! This facade crate re-exports the workspace members so downstream users and
//! the runnable examples only need one dependency:
//!
//! * [`pieceset`] — piece-subset types and type-space enumeration,
//! * [`markov`] — the CTMC engine, drift / branching / stationary-law toolbox,
//! * [`netcoding`] — `GF(q)` arithmetic and subspace types,
//! * [`swarm`] — the paper's model, Theorem 1/14/15 analysis, Lyapunov and
//!   branching machinery, and the two simulators,
//! * [`telemetry`] — the zero-cost instrumentation core: kernel counters,
//!   log₂ histograms, and span timers behind a `Recorder` trait whose no-op
//!   default compiles away,
//! * [`engine`] — the parallel Monte-Carlo replication engine behind one
//!   typed entry point (`engine::Session`): deterministic per-replication
//!   RNG streams, streaming `ReplicationSink` delivery with O(1)-memory
//!   aggregation, phase-diagram grids, CSV/JSON artifact emitters, and the
//!   NDJSON metrics export (`engine::MetricsSink`),
//! * [`workload`] — scenarios, the JSON scenario registry
//!   (`run_experiments --scenario`), sweeps, and the experiment harnesses
//!   E1–E12, running on the engine.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ```
//! use p2p_stability::swarm::{stability, SwarmParams};
//!
//! let params = SwarmParams::builder(1)
//!     .seed_rate(1.0)
//!     .contact_rate(1.0)
//!     .seed_departure_rate(2.0)
//!     .fresh_arrivals(1.5)
//!     .build()?;
//! assert!(stability::classify(&params).verdict.is_stable());
//! # Ok::<(), p2p_stability::swarm::SwarmError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use engine;
pub use markov;
pub use netcoding;
pub use pieceset;
pub use swarm;
pub use telemetry;
pub use workload;
