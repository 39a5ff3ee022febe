//! The engine's single typed entry point: [`Session`].
//!
//! A session is one configured unit of Monte-Carlo work — a CTMC batch, an
//! agent-simulator batch, a `(λ₀, µ, γ, K)` phase grid, or a Theorem 15
//! coded grid — built once through [`SessionBuilder`] and executed either
//! as a batch ([`Session::run`]) or streamed ([`Session::stream`]) into a
//! caller-supplied [`ReplicationSink`].
//!
//! Everything that can fail — scenario validation, duplicate stream keys,
//! unusable configurations — is rejected by [`SessionBuilder::build`], so
//! execution itself is infallible and a validated session can be run any
//! number of times.
//!
//! # Streaming contract
//!
//! Replication results are **delivered to the sink in a deterministic,
//! scheduling-independent order**: scenario-major, replication-minor,
//! exactly the order a single-threaded run would produce. Workers complete
//! tasks out of order; a bounded reorder window puts them back in sequence
//! before the sink (and the engine's own incremental Welford aggregation)
//! sees them. Consequences:
//!
//! * `run()` and `stream(sink)` produce bit-identical outputs at any
//!   [`EngineConfig::jobs`] value — `run` *is* `stream` with a
//!   [`NullSink`].
//! * aggregation is O(1) memory per scenario: no per-replication `Vec` is
//!   ever collected, so a million-replication scenario aggregates in the
//!   same peak memory as a ten-replication one (the reorder buffer is
//!   hard-capped by the window, which depends on the worker count, never
//!   on the replication count — see [`StreamStats::reorder_window`]).
//!
//! # Fault tolerance
//!
//! A replication that panics is handled according to
//! [`EngineConfig::failure_policy`]: propagated ([`FailurePolicy::FailFast`],
//! the default), caught and delivered in order as a typed
//! [`ReplicationFailure`] ([`FailurePolicy::Quarantine`]), or re-run on the
//! same derived stream ([`FailurePolicy::Retry`]). Sessions built with
//! [`SessionBuilder::checkpoint`] periodically write a crash-consistent
//! checkpoint file, and [`Session::resume`] continues an interrupted run
//! from its completed prefix — producing output byte-identical to an
//! uninterrupted run. [`SessionBuilder::faults`] injects deterministic
//! faults (keyed by stream key, never wall clock) for chaos testing.
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
//!             .with_replications(3)
//!             .with_horizon(200.0)
//!             .with_master_seed(7)
//!             .with_jobs(2),
//!     )
//!     .workload(Workload::ctmc(vec![Scenario::new(0, "stable point", params)]))
//!     .build()
//!     .expect("valid session");
//! let outcomes = session.run().into_ctmc().expect("a CTMC workload");
//! assert_eq!(outcomes.len(), 1);
//! assert_eq!(outcomes[0].votes.total(), 3);
//! # Ok::<(), swarm::SwarmError>(())
//! ```

use crate::agent::{run_agent_replication, AgentScenario, DEFAULT_SYNC_WINDOW};
use crate::checkpoint::{self, AggSnapshot, CheckpointData, CheckpointSpec};
use crate::coded::{CodedGridSpec, CodedPhaseCell, CodedPhaseDiagram};
use crate::config::{EngineConfig, FailurePolicy};
use crate::error::Error;
use crate::faults::FaultPlan;
use crate::grid::{GridSpec, PhaseCell, PhaseDiagram};
use crate::metrics::ReplicationTelemetry;
use crate::progress::ProgressSink;
use crate::replicate::{
    run_replication_on, verdict_agrees, ReplicationOutcome, Scenario, ScenarioOutcome,
};
use markov::PathClass;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use swarm::coded::CodedParams;
use swarm::sim::{SimScratch, CODED_DRAW_ORDER, TURBO_DRAW_ORDER};
use swarm::{stability, StabilityVerdict, SwarmModel, SwarmParams};
use telemetry::{Histogram, Span};

/// One replication's result, as delivered to a [`ReplicationSink`].
///
/// Records arrive in deterministic scenario-major, replication-minor order
/// regardless of the worker count. CTMC replications report `events`,
/// `transfers`, and `truncated` as zero/false (the type-count simulator
/// does not track them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationRecord {
    /// Index of the scenario within the workload (input order).
    pub scenario_index: usize,
    /// The scenario's stream key.
    pub scenario_id: u64,
    /// Replication index within the scenario.
    pub replication: u32,
    /// Classification of the simulated peer-count path.
    pub class: PathClass,
    /// Tail growth rate of the peer count (peers per unit time).
    pub tail_slope: f64,
    /// Time-average of the peer count over the tail window.
    pub tail_average: f64,
    /// Simulated events executed (agent replications only).
    pub events: u64,
    /// Successful piece transfers (agent replications only).
    pub transfers: u64,
    /// Whether the run hit the `max_events` safety valve (agent
    /// replications only).
    pub truncated: bool,
    /// Per-replication kernel counters and wall time, populated for agent
    /// replications when [`EngineConfig::metrics`] is set (`None` for CTMC
    /// replications and whenever metrics are off). The counters never
    /// perturb the run: records are otherwise identical with metrics on or
    /// off.
    pub telemetry: Option<ReplicationTelemetry>,
}

/// One replication's *failure*, delivered (in stream order, in place of
/// its [`ReplicationRecord`]) when the session's
/// [`EngineConfig::failure_policy`] quarantines a panicking replication
/// instead of aborting.
///
/// The `(scenario_id, replication)` pair is the failed replication's
/// stream key: it is enough to re-run exactly that replication in
/// isolation under a debugger, on any machine, at any worker count —
/// with [`crate::run_replication_on`] for a CTMC scenario, or with
/// [`crate::run_agent_replication`] on a fresh [`SimScratch`] for an agent
/// scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationFailure {
    /// Index of the scenario within the workload (input order).
    pub scenario_index: usize,
    /// The scenario's stream key.
    pub scenario_id: u64,
    /// Replication index within the scenario.
    pub replication: u32,
    /// Attempts made (1 under `Quarantine`; up to the configured budget
    /// under `Retry`).
    pub attempts: u32,
    /// The panic payload (stringified), or the internal-invariant message
    /// for non-panic failures.
    pub payload: String,
}

/// What a stream is about to deliver, announced via
/// [`ReplicationSink::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPlan {
    /// Number of scenarios in the workload (after grid-cell skipping).
    pub scenarios: usize,
    /// Replications per scenario.
    pub replications: u32,
    /// Total deliveries the sink will receive — successful records plus
    /// quarantined failures. A resumed stream counts the *remaining*
    /// replications plus the checkpointed failures (which are re-announced
    /// right after `begin`), not the already-delivered prefix.
    pub total: u64,
}

/// Post-stream accounting, delivered via [`ReplicationSink::end`].
///
/// Beyond the delivery counts, the stats carry the scheduler's own
/// telemetry: how many workers ran, how the tasks spread across them, and
/// log₂ histograms of per-task wall time, frontier-window waits, and
/// reorder-buffer occupancy. The timing fields are wall-clock (and thus
/// vary run to run); every *delivered record* stays bit-identical at any
/// worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Successful records delivered (equals the plan's total minus
    /// `failed`).
    pub delivered: u64,
    /// Replications that failed and were quarantined (0 under
    /// [`FailurePolicy::FailFast`], which aborts instead).
    pub failed: u64,
    /// Extra attempts spent re-running failed replications under
    /// [`FailurePolicy::Retry`].
    pub retries: u64,
    /// Failures caused by a replication classifying to a non-finite
    /// statistic (NaN/∞ tail slope or tail average). Each is a subset of
    /// [`StreamStats::failed`]: the session rejects the value as a typed
    /// failure instead of letting it poison the scenario aggregates.
    pub non_finite: u64,
    /// High-water mark of the out-of-order reorder buffer. Always strictly
    /// below [`StreamStats::reorder_window`]; independent of the
    /// replication count.
    pub max_pending: usize,
    /// The bounded reorder window: a worker may run at most this many
    /// replications ahead of the delivery frontier, which caps the
    /// buffered results regardless of how many replications the stream
    /// carries.
    pub reorder_window: usize,
    /// Worker threads that actually ran (after clamping to the task
    /// count; `0` for an empty stream).
    pub workers: usize,
    /// Wall-clock duration of the whole stream, begin to end, in seconds.
    pub wall_seconds: f64,
    /// Replications completed per worker, sorted descending — the shape of
    /// the dynamic load balance, stated scheduling-independently.
    pub per_worker: Vec<u64>,
    /// Log₂ histogram of per-task wall times, in nanoseconds (one sample
    /// per replication, any workload kind).
    pub task_nanos: Histogram,
    /// Log₂ histogram of time workers spent blocked on the bounded reorder
    /// window, in nanoseconds (one sample per blocking episode; empty when
    /// no worker ever had to wait).
    pub queue_wait_nanos: Histogram,
    /// Log₂ histogram of the reorder buffer's occupancy observed after
    /// each result was pushed (a single worker never buffers, so at
    /// `jobs = 1` every sample is zero).
    pub reorder_occupancy: Histogram,
}

impl StreamStats {
    /// Stats for a degenerate single-worker stream that delivered
    /// `delivered` records in `wall_seconds` — a convenience for sinks
    /// exercised outside [`Session::stream`] (tests, adapters).
    #[must_use]
    pub fn inline(delivered: u64, wall_seconds: f64) -> Self {
        StreamStats {
            delivered,
            failed: 0,
            retries: 0,
            non_finite: 0,
            max_pending: 0,
            reorder_window: reorder_window(1),
            workers: 1,
            wall_seconds,
            per_worker: vec![delivered],
            task_nanos: Histogram::new(),
            queue_wait_nanos: Histogram::new(),
            reorder_occupancy: Histogram::new(),
        }
    }
}

/// Observer for streamed replication results.
///
/// All methods have empty default implementations, so a sink only
/// implements what it needs. Methods are called from the streaming
/// machinery in deterministic order: one `begin`, then exactly
/// `plan.total` `record` calls (scenario-major, replication-minor), then
/// one `end`. Sinks must be [`Send`]: delivery may happen on worker
/// threads (serialized — never concurrently).
pub trait ReplicationSink {
    /// Announces the stream's shape before the first record.
    fn begin(&mut self, plan: &StreamPlan) {
        let _ = plan;
    }

    /// Receives one replication's result.
    fn record(&mut self, record: &ReplicationRecord) {
        let _ = record;
    }

    /// Receives one replication's quarantined failure (never called under
    /// [`FailurePolicy::FailFast`]). Failures arrive in the same
    /// deterministic stream position their record would have occupied.
    fn failure(&mut self, failure: &ReplicationFailure) {
        let _ = failure;
    }

    /// Announces the end of the stream with its accounting.
    fn end(&mut self, stats: &StreamStats) {
        let _ = stats;
    }
}

/// A sink that discards everything — [`Session::run`] streams into this.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ReplicationSink for NullSink {}

/// The work a [`Session`] executes. Construct one with [`Workload::ctmc`],
/// [`Workload::agent`], [`Workload::grid`], or [`Workload::coded`].
#[derive(Debug, Clone)]
pub struct Workload {
    kind: WorkloadKind,
}

#[derive(Debug, Clone)]
enum WorkloadKind {
    Ctmc(Vec<Scenario>),
    Agent(Vec<AgentScenario>),
    Grid {
        spec: GridSpec,
        coords: Vec<(usize, f64, f64, f64)>,
        scenarios: Vec<Scenario>,
        skipped: usize,
    },
    Coded {
        spec: CodedGridSpec,
        coords: Vec<(usize, u64, f64)>,
        scenarios: Vec<AgentScenario>,
        skipped: usize,
    },
}

impl Workload {
    /// A batch of type-count CTMC scenarios (the Theorem 1 path).
    #[must_use]
    pub fn ctmc(scenarios: Vec<Scenario>) -> Self {
        Workload {
            kind: WorkloadKind::Ctmc(scenarios),
        }
    }

    /// A batch of agent-simulator scenarios (policies, flash crowds, retry
    /// speed-up, coded kernels).
    #[must_use]
    pub fn agent(scenarios: Vec<AgentScenario>) -> Self {
        Workload {
            kind: WorkloadKind::Agent(scenarios),
        }
    }

    /// A `(λ₀, µ, γ, K)` phase-diagram sweep. `make_params` constructs the
    /// model at each cell; cells where it returns `None` are skipped (and
    /// counted in [`PhaseDiagram::skipped`]). Scenario ids are the cell's
    /// linear index in the rectangle, so a cell's random streams depend
    /// only on its position and the master seed — not on how many other
    /// cells were skipped.
    #[must_use]
    pub fn grid<F>(spec: &GridSpec, make_params: F) -> Self
    where
        F: Fn(usize, f64, f64, f64) -> Option<SwarmParams>,
    {
        let mut coords = Vec::new();
        let mut scenarios = Vec::new();
        let mut skipped = 0usize;
        let mut linear_index = 0u64;
        for &k in &spec.pieces {
            for &mu in &spec.mu.values {
                for &gamma in &spec.gamma.values {
                    for &lambda0 in &spec.lambda0.values {
                        match make_params(k, mu, gamma, lambda0) {
                            Some(params) => {
                                let label = format!(
                                    "K={k},{}={mu},{}={gamma},{}={lambda0}",
                                    spec.mu.label, spec.gamma.label, spec.lambda0.label
                                );
                                coords.push((k, mu, gamma, lambda0));
                                scenarios.push(Scenario::new(linear_index, label, params));
                            }
                            None => skipped += 1,
                        }
                        linear_index += 1;
                    }
                }
            }
        }
        Workload {
            kind: WorkloadKind::Grid {
                spec: spec.clone(),
                coords,
                scenarios,
                skipped,
            },
        }
    }

    /// A Theorem 15 `(f, q, K)` coded phase-diagram sweep on the coded
    /// kernel. Cells whose parameters fail to construct (an unsupported
    /// field order, an invalid fraction) are skipped and counted in
    /// [`CodedPhaseDiagram::skipped`]; scenario ids are linear cell
    /// indices.
    #[must_use]
    pub fn coded(spec: &CodedGridSpec) -> Self {
        let mut coords = Vec::new();
        let mut scenarios = Vec::new();
        let mut skipped = 0usize;
        let mut linear_index = 0u64;
        for &k in &spec.pieces {
            for &q in &spec.field_orders {
                for &f in &spec.gift_fraction.values {
                    match CodedParams::gift_example(
                        k,
                        q,
                        spec.lambda_total,
                        f,
                        spec.seed_rate,
                        spec.contact_rate,
                        spec.seed_departure_rate,
                    ) {
                        Ok(params) => {
                            let mut scenario = AgentScenario::new(
                                linear_index,
                                format!("K={k},q={q},f={f}"),
                                params.base.clone(),
                            );
                            scenario.coding = Some(params.gifts());
                            scenario.config = spec.sim;
                            coords.push((k, q, f));
                            scenarios.push(scenario);
                        }
                        Err(_) => skipped += 1,
                    }
                    linear_index += 1;
                }
            }
        }
        Workload {
            kind: WorkloadKind::Coded {
                spec: spec.clone(),
                coords,
                scenarios,
                skipped,
            },
        }
    }

    /// Number of scenarios the workload will replicate (after grid-cell
    /// skipping).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.kind {
            WorkloadKind::Ctmc(s) | WorkloadKind::Grid { scenarios: s, .. } => s.len(),
            WorkloadKind::Agent(s) | WorkloadKind::Coded { scenarios: s, .. } => s.len(),
        }
    }

    /// Returns `true` if the workload has no scenarios to run.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The result of executing a [`Session`] — one variant per workload kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutput {
    /// Aggregated CTMC outcomes, in input order.
    Ctmc(Vec<ScenarioOutcome>),
    /// Aggregated agent outcomes, in input order.
    Agent(Vec<ScenarioOutcome>),
    /// An evaluated `(λ₀, µ, γ, K)` phase diagram.
    Grid(PhaseDiagram),
    /// An evaluated Theorem 15 coded phase diagram.
    Coded(CodedPhaseDiagram),
}

impl SessionOutput {
    /// The CTMC outcomes, if this was a [`Workload::ctmc`] session.
    #[must_use]
    pub fn into_ctmc(self) -> Option<Vec<ScenarioOutcome>> {
        match self {
            SessionOutput::Ctmc(outcomes) => Some(outcomes),
            _ => None,
        }
    }

    /// The agent outcomes, if this was a [`Workload::agent`] session.
    #[must_use]
    pub fn into_agent(self) -> Option<Vec<ScenarioOutcome>> {
        match self {
            SessionOutput::Agent(outcomes) => Some(outcomes),
            _ => None,
        }
    }

    /// The phase diagram, if this was a [`Workload::grid`] session.
    #[must_use]
    pub fn into_grid(self) -> Option<PhaseDiagram> {
        match self {
            SessionOutput::Grid(diagram) => Some(diagram),
            _ => None,
        }
    }

    /// The coded phase diagram, if this was a [`Workload::coded`] session.
    #[must_use]
    pub fn into_coded(self) -> Option<CodedPhaseDiagram> {
        match self {
            SessionOutput::Coded(diagram) => Some(diagram),
            _ => None,
        }
    }
}

/// Builder for a [`Session`]; all validation happens in
/// [`SessionBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    config: Option<EngineConfig>,
    workload: Option<Workload>,
    faults: Option<FaultPlan>,
    checkpoint: Option<CheckpointSpec>,
}

impl SessionBuilder {
    /// Sets the execution configuration (defaults to
    /// [`EngineConfig::default`] when omitted).
    #[must_use]
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Sets the workload to execute.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Injects deterministic faults at the plan's stream keys (chaos
    /// testing). An empty plan is equivalent to not setting one.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enables crash-consistent checkpointing: the session atomically
    /// rewrites `spec.path` every `spec.every` delivered records (and once
    /// at stream end), so an interrupted run can continue via
    /// [`Session::resume`]. Checkpoint *write* failures never abort the
    /// run; they are reported on stderr and the run continues.
    #[must_use]
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Validates the configuration and every scenario, returning a session
    /// whose execution cannot fail.
    ///
    /// # Errors
    ///
    /// * [`Error::MissingWorkload`] — no workload was supplied,
    /// * [`Error::InvalidConfig`] — a horizon that is not finite and
    ///   positive,
    /// * [`Error::DuplicateScenarioId`] — two scenarios share a stream
    ///   key,
    /// * [`Error::Scenario`] — an agent scenario's policy, simulator
    ///   configuration, initial population, or flash schedule failed
    ///   validation.
    pub fn build(self) -> Result<Session, Error> {
        let config = self.config.unwrap_or_default();
        let workload = self.workload.ok_or(Error::MissingWorkload)?;
        if !(config.horizon.is_finite() && config.horizon > 0.0) {
            return Err(Error::InvalidConfig(format!(
                "horizon must be finite and positive, got {}",
                config.horizon
            )));
        }
        match &workload.kind {
            WorkloadKind::Ctmc(scenarios) => {
                check_unique_ids(scenarios.iter().map(|s| s.id))?;
            }
            WorkloadKind::Agent(scenarios) => {
                check_unique_ids(scenarios.iter().map(|s| s.id))?;
                validate_agent_scenarios(scenarios)?;
            }
            // Grid cells carry their linear rectangle index as id: unique
            // by construction.
            WorkloadKind::Grid { .. } => {}
            WorkloadKind::Coded { scenarios, .. } => validate_agent_scenarios(scenarios)?,
        }
        Ok(Session {
            config,
            workload,
            faults: self.faults.filter(|plan| !plan.is_empty()),
            checkpoint: self.checkpoint,
        })
    }
}

fn check_unique_ids(ids: impl Iterator<Item = u64>) -> Result<(), Error> {
    let mut seen: Vec<u64> = ids.collect();
    seen.sort_unstable();
    for pair in seen.windows(2) {
        if pair[0] == pair[1] {
            return Err(Error::DuplicateScenarioId(pair[0]));
        }
    }
    Ok(())
}

fn validate_agent_scenarios(scenarios: &[AgentScenario]) -> Result<(), Error> {
    for scenario in scenarios {
        scenario
            .validate()
            .and_then(|()| scenario.validate_sharding())
            .map_err(|source| Error::Scenario {
                label: scenario.label.clone(),
                source,
            })?;
    }
    Ok(())
}

/// A validated, repeatedly executable unit of Monte-Carlo work.
///
/// See the [module docs](self) for the streaming contract and an example.
#[derive(Debug, Clone)]
pub struct Session {
    config: EngineConfig,
    workload: Workload,
    faults: Option<FaultPlan>,
    checkpoint: Option<CheckpointSpec>,
}

impl Session {
    /// Starts building a session.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The session's execution configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The session's workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Runs the workload as a batch and returns the aggregated output.
    ///
    /// Implemented on top of [`Session::stream`] with a [`NullSink`], so
    /// batch and streaming execution are one code path and produce
    /// bit-identical results.
    #[must_use]
    pub fn run(&self) -> SessionOutput {
        self.stream(&mut NullSink)
    }

    /// Runs the workload, delivering every replication's result to `sink`
    /// in deterministic scenario-major, replication-minor order, and
    /// returns the same aggregated output as [`Session::run`].
    ///
    /// When [`EngineConfig::progress`] is set, a built-in
    /// [`ProgressSink`] additionally reports decile progress on stderr.
    pub fn stream<S: ReplicationSink + Send>(&self, sink: &mut S) -> SessionOutput {
        self.stream_from(sink, None)
    }

    /// Resumes an interrupted run from a checkpoint file and returns the
    /// completed output (batch mode; see [`Session::resume_stream`]).
    ///
    /// The finished output is byte-identical to an uninterrupted
    /// [`Session::run`]: the checkpoint restores the exact aggregation
    /// state of the completed prefix, and the remaining replications run
    /// on their own derived streams as always.
    ///
    /// # Errors
    ///
    /// * [`Error::CheckpointIo`] — the file cannot be read,
    /// * [`Error::CheckpointCorrupt`] — the file fails structural
    ///   validation (bad header, torn write, checksum mismatch) or does
    ///   not fit this workload's shape,
    /// * [`Error::CheckpointMismatch`] — the file was written by a session
    ///   with a different config or workload.
    pub fn resume(&self, path: impl AsRef<Path>) -> Result<SessionOutput, Error> {
        self.resume_stream(path, &mut NullSink)
    }

    /// Resumes an interrupted run from a checkpoint file, streaming the
    /// *remaining* replications (and re-announcing any checkpointed
    /// failures right after `begin`) into `sink`.
    ///
    /// # Errors
    ///
    /// See [`Session::resume`].
    pub fn resume_stream<S: ReplicationSink + Send>(
        &self,
        path: impl AsRef<Path>,
        sink: &mut S,
    ) -> Result<SessionOutput, Error> {
        let path = path.as_ref();
        let data = checkpoint::load(path)?;
        let expected = self.checkpoint_digest();
        if data.digest != expected {
            return Err(Error::CheckpointMismatch {
                path: path.display().to_string(),
                found: data.digest,
                expected,
            });
        }
        let reps = u64::from(self.config.replications.max(1));
        let total = self.workload.len() as u64 * reps;
        if data.kind != self.kind_tag() || data.total != total || data.reps != reps {
            return Err(Error::CheckpointCorrupt {
                path: path.display().to_string(),
                message: format!(
                    "shape mismatch: checkpoint is {} {}×{}, session is {} {}×{}",
                    data.kind,
                    data.total,
                    data.reps,
                    self.kind_tag(),
                    total,
                    reps
                ),
            });
        }
        Ok(self.stream_from(sink, Some(data)))
    }

    /// The digest binding checkpoints to this session: a content hash of
    /// every config field that influences the numbers (worker count,
    /// progress, and metrics are deliberately excluded — they never change
    /// results) plus the full workload description.
    ///
    /// `initial_one_club`, `confidence`, `shards` and `sync_window` were
    /// config fields once. Their text stays, at the values every session
    /// now runs with, so checkpoints written by earlier builds resume.
    ///
    /// An agent scenario on the unsharded turbo kernel also folds in
    /// [`swarm::sim::TURBO_DRAW_ORDER`], and a coded scenario
    /// [`swarm::sim::CODED_DRAW_ORDER`]: their config and workload are the
    /// same under any draw order, and a checkpoint written under another
    /// order would resume into a mix of two streams that matches neither
    /// build's uninterrupted run.
    fn checkpoint_digest(&self) -> u64 {
        let c = &self.config;
        let mut desc = format!(
            "replications={} horizon={:016x} master_seed={:016x} \
             initial_one_club=0 confidence={:016x} policy={:?} shards=1 \
             sync_window={:016x} kind={}\n",
            c.replications,
            c.horizon.to_bits(),
            c.master_seed,
            CONFIDENCE.to_bits(),
            c.failure_policy,
            DEFAULT_SYNC_WINDOW.to_bits(),
            self.kind_tag(),
        );
        match &self.workload.kind {
            WorkloadKind::Ctmc(scenarios) | WorkloadKind::Grid { scenarios, .. } => {
                for s in scenarios {
                    desc.push_str(&format!("{s:?}\n"));
                }
            }
            WorkloadKind::Agent(scenarios) | WorkloadKind::Coded { scenarios, .. } => {
                for s in scenarios {
                    desc.push_str(&format!("{s:?}\n"));
                    if s.coding.is_some() {
                        desc.push_str(&format!("draw_order={CODED_DRAW_ORDER}\n"));
                    } else if s.shard_plan(1).is_none() {
                        desc.push_str(&format!("draw_order={TURBO_DRAW_ORDER}\n"));
                    }
                }
            }
        }
        checkpoint::fnv1a64(desc.as_bytes())
    }

    /// The checkpoint family tag of this workload's replication path.
    fn kind_tag(&self) -> &'static str {
        match &self.workload.kind {
            WorkloadKind::Ctmc(_) | WorkloadKind::Grid { .. } => "ctmc",
            WorkloadKind::Agent(_) | WorkloadKind::Coded { .. } => "agent",
        }
    }

    fn stream_from<S: ReplicationSink + Send>(
        &self,
        sink: &mut S,
        resume: Option<CheckpointData>,
    ) -> SessionOutput {
        match &self.workload.kind {
            WorkloadKind::Ctmc(scenarios) => {
                SessionOutput::Ctmc(self.stream_ctmc(scenarios, sink, resume))
            }
            WorkloadKind::Agent(scenarios) => {
                SessionOutput::Agent(self.stream_agent(scenarios, sink, resume))
            }
            WorkloadKind::Grid {
                spec,
                coords,
                scenarios,
                skipped,
            } => {
                let outcomes = self.stream_ctmc(scenarios, sink, resume);
                let cells = coords
                    .iter()
                    .zip(outcomes)
                    .map(|(&(pieces, mu, gamma, lambda0), outcome)| PhaseCell {
                        pieces,
                        mu,
                        gamma,
                        lambda0,
                        outcome,
                    })
                    .collect();
                SessionOutput::Grid(PhaseDiagram {
                    spec: spec.clone(),
                    cells,
                    skipped: *skipped,
                })
            }
            WorkloadKind::Coded {
                spec,
                coords,
                scenarios,
                skipped,
            } => {
                let outcomes = self.stream_agent(scenarios, sink, resume);
                let cells = coords
                    .iter()
                    .zip(outcomes)
                    .map(
                        |(&(pieces, field_order, gift_fraction), outcome)| CodedPhaseCell {
                            pieces,
                            field_order,
                            gift_fraction,
                            outcome,
                        },
                    )
                    .collect();
                SessionOutput::Coded(CodedPhaseDiagram {
                    spec: spec.clone(),
                    cells,
                    skipped: *skipped,
                })
            }
        }
    }

    fn stream_ctmc<S: ReplicationSink + Send>(
        &self,
        scenarios: &[Scenario],
        sink: &mut S,
        resume: Option<CheckpointData>,
    ) -> Vec<ScenarioOutcome> {
        // One model per scenario, shared (read-only) by its replications —
        // the `2^K` type space is built once, not per replication.
        let models: Vec<SwarmModel> = scenarios
            .iter()
            .map(|s| SwarmModel::new(s.params.clone()))
            .collect();
        self.stream_replications(
            scenarios,
            sink,
            resume,
            || (),
            |s, r, ()| {
                let outcome = run_replication_on(&models[s], &scenarios[s], &self.config, r);
                Ok((outcome, None))
            },
        )
    }

    fn stream_agent<S: ReplicationSink + Send>(
        &self,
        scenarios: &[AgentScenario],
        sink: &mut S,
        resume: Option<CheckpointData>,
    ) -> Vec<ScenarioOutcome> {
        let config = &self.config;
        // Session-level worker allocation: when the stream has fewer
        // replication tasks than workers (the single-giant-replication
        // case sharding exists for), the surplus workers go to each task's
        // shard segments instead of idling. Pure scheduling — shard_jobs
        // never changes any result.
        let remaining = (scenarios.len() * config.replications.max(1) as usize)
            .saturating_sub(resume.as_ref().map_or(0, |d| d.frontier as usize));
        let workers = effective_jobs(config.jobs);
        let shard_jobs = (workers / workers.min(remaining.max(1))).max(1);
        // One scratch arena per worker: every replication a worker serves
        // reuses its buffers, so a warm stream allocates nothing per task.
        // The scratch never changes the numbers.
        self.stream_replications(scenarios, sink, resume, SimScratch::new, |s, r, scratch| {
            // A post-validation simulator error is an internal invariant
            // violation: it becomes a structured failure (or, under
            // FailFast, a panic) instead of an unwrap.
            run_agent_replication(&scenarios[s], config, r, scratch, shard_jobs).map_err(|e| {
                format!(
                    "internal invariant violated: scenario `{}` failed \
                     after session validation: {e}",
                    scenarios[s].label
                )
            })
        })
    }

    /// The one replication loop behind every workload kind: resumes from a
    /// checkpoint, runs `run(scenario index, replication, worker context)`
    /// for every remaining replication under the failure policy, rejects
    /// injected or real non-finite statistics, delivers records and
    /// failures in order, folds them into one [`AggSnapshot`] per scenario,
    /// and writes checkpoints. `make_ctx` builds each worker's context
    /// (and rebuilds it after a caught panic).
    fn stream_replications<Sc, S, C>(
        &self,
        scenarios: &[Sc],
        sink: &mut S,
        resume: Option<CheckpointData>,
        make_ctx: impl Fn() -> C + Sync,
        run: impl Fn(usize, u32, &mut C) -> Result<Replication, String> + Sync,
    ) -> Vec<ScenarioOutcome>
    where
        Sc: Replicable,
        S: ReplicationSink + Send,
    {
        let config = &self.config;
        let start = resume.as_ref().map_or(0, |d| d.frontier as usize);
        let carried = resume.as_ref().map_or(0, |d| d.failures.len());
        let mut framing = StreamFraming::begin(config, scenarios.len(), start, carried, sink);
        let (total, window, reps) = (framing.total, framing.window, framing.reps);

        let mut outcomes = Vec::with_capacity(scenarios.len());
        let mut agg = AggSnapshot::new(StabilityVerdict::Borderline);
        let mut failures: Vec<ReplicationFailure> = Vec::new();
        let keep_snaps = self.checkpoint.is_some();
        let ckpt_digest = if keep_snaps {
            self.checkpoint_digest()
        } else {
            0
        };
        let mut completed_snaps: Vec<AggSnapshot> = Vec::new();

        if let Some(data) = resume {
            framing.retries = data.retries;
            failures = data.failures;
            for f in &failures {
                framing.failure(f);
            }
            let completed = start / reps;
            for (s, snap) in data.snapshots.iter().enumerate().take(completed) {
                outcomes.push(scenario_outcome(&scenarios[s], snap));
            }
            if keep_snaps {
                completed_snaps = data.snapshots[..completed].to_vec();
            }
            if !start.is_multiple_of(reps) {
                agg = data.snapshots[completed].clone();
            }
        }

        let policy = config.failure_policy;
        let faults = self.faults.as_ref();
        let sched = run_ordered(
            start,
            total,
            config.jobs,
            window,
            &make_ctx,
            |index, ctx: &mut C| {
                let (s, r) = (index / reps, (index % reps) as u32);
                let id = scenarios[s].id();
                run_with_policy(policy, faults, id, r, ctx, &make_ctx, |_, ctx| {
                    let (mut outcome, telemetry) = run(s, r, ctx)?;
                    // Injected metric corruption (chaos `nan` faults)
                    // poisons the classification after the run, exercising
                    // the same rejection a real estimator bug would hit.
                    if faults.is_some_and(|p| p.corrupts_metrics(id, r)) {
                        outcome.tail_slope = f64::NAN;
                    }
                    check_finite(&outcome, scenarios[s].label())?;
                    Ok((outcome, telemetry))
                })
            },
            |index, result: TaskOutput<Replication>| {
                let (s, r) = (index / reps, index % reps);
                if r == 0 {
                    agg = AggSnapshot::new(scenarios[s].theory());
                }
                match result {
                    TaskOutput::Ok {
                        value: (outcome, telemetry),
                        retries,
                    } => {
                        framing.retries += u64::from(retries);
                        framing.record(&ReplicationRecord {
                            scenario_index: s,
                            scenario_id: scenarios[s].id(),
                            replication: r as u32,
                            class: outcome.class,
                            tail_slope: outcome.tail_slope,
                            tail_average: outcome.tail_average,
                            events: outcome.events,
                            transfers: outcome.transfers,
                            truncated: outcome.truncated,
                            telemetry,
                        });
                        agg.push(&outcome);
                    }
                    TaskOutput::Failed { attempts, payload } => quarantine(
                        &mut framing,
                        &mut agg.failed,
                        &mut failures,
                        policy,
                        ReplicationFailure {
                            scenario_index: s,
                            scenario_id: scenarios[s].id(),
                            replication: r as u32,
                            attempts,
                            payload,
                        },
                    ),
                }
                if r + 1 == reps {
                    if keep_snaps {
                        completed_snaps.push(agg.clone());
                    }
                    outcomes.push(scenario_outcome(&scenarios[s], &agg));
                }
                if let Some(spec) = &self.checkpoint {
                    write_checkpoint(
                        spec,
                        ckpt_digest,
                        self.kind_tag(),
                        index,
                        total,
                        reps,
                        &framing,
                        &failures,
                        &completed_snaps,
                        || agg.clone(),
                    );
                }
            },
        );

        framing.end(sched);
        outcomes
    }
}

/// One replication's result as every workload kind reports it: the
/// classified run plus its telemetry (agent replications with
/// [`EngineConfig::metrics`] set; `None` otherwise).
type Replication = (ReplicationOutcome, Option<ReplicationTelemetry>);

/// What the replication loop needs from a scenario of either kind: its
/// stream key, label and theory verdict.
trait Replicable: Sync {
    fn id(&self) -> u64;
    fn label(&self) -> &str;
    fn theory(&self) -> StabilityVerdict;
}

/// Confidence level of every reported interval.
const CONFIDENCE: f64 = 0.95;

/// A scenario's outcome from its aggregate, for either workload kind.
fn scenario_outcome(scenario: &impl Replicable, agg: &AggSnapshot) -> ScenarioOutcome {
    let majority = agg.votes.majority();
    ScenarioOutcome {
        scenario_id: scenario.id(),
        label: scenario.label().to_owned(),
        theory: agg.theory,
        votes: agg.votes,
        majority,
        tail_slope: agg.slope.estimate(CONFIDENCE),
        tail_average: agg.average.estimate(CONFIDENCE),
        agreement: if agg.count == 0 {
            1.0
        } else {
            f64::from(agg.agreeing) / f64::from(agg.count)
        },
        agrees: verdict_agrees(agg.theory, majority),
        truncated_replications: agg.truncated,
        mean_events: agg.events.mean(),
        failed_replications: agg.failed,
    }
}

impl Replicable for Scenario {
    fn id(&self) -> u64 {
        self.id
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn theory(&self) -> StabilityVerdict {
        stability::classify(&self.params).verdict
    }
}

impl Replicable for AgentScenario {
    fn id(&self) -> u64 {
        self.id
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn theory(&self) -> StabilityVerdict {
        crate::agent::scenario_theory(self)
    }
}

/// Prefix of every failure payload produced by [`check_finite`]; the
/// framing counts payloads carrying it into [`StreamStats::non_finite`].
const NON_FINITE_MARKER: &str = "non-finite statistic";

/// Rejects a replication whose classification produced a non-finite
/// statistic: a NaN or infinite tail slope / tail average would silently
/// poison the scenario's Welford aggregates (the accumulator now counts
/// rather than absorbs such values, but a vote from a garbage trajectory
/// is still a vote). The error becomes a typed quarantined failure — or a
/// panic under [`FailurePolicy::FailFast`] — never a silently-NaN
/// artifact.
fn check_finite(outcome: &ReplicationOutcome, label: &str) -> Result<(), String> {
    for (name, value) in [
        ("tail_slope", outcome.tail_slope),
        ("tail_average", outcome.tail_average),
    ] {
        if !value.is_finite() {
            return Err(format!(
                "{NON_FINITE_MARKER}: scenario `{label}` replication {} \
                 classified with {name} = {value}; rejecting the replication \
                 instead of aggregating it",
                outcome.replication
            ));
        }
    }
    Ok(())
}

/// The per-failure delivery path shared by the CTMC and agent streams:
/// forwards the typed failure to the sink, counts it in the scenario
/// aggregate, and enforces the quarantine budget (exhaustion aborts the
/// stream by panicking, which [`FailurePolicy::FailFast`]-style propagates
/// out of `run`/`stream`).
fn quarantine<S: ReplicationSink>(
    framing: &mut StreamFraming<'_, S>,
    agg_failed: &mut u32,
    failures: &mut Vec<ReplicationFailure>,
    policy: FailurePolicy,
    failure: ReplicationFailure,
) {
    // The attempts beyond the first were retries, even though they never
    // produced a record — account for them so the end-frame algebra covers
    // exhausted replications too.
    framing.retries += u64::from(failure.attempts.saturating_sub(1));
    framing.failure(&failure);
    *agg_failed += 1;
    failures.push(failure);
    if let FailurePolicy::Quarantine { max_failures } = policy {
        if failures.len() as u64 > u64::from(max_failures) {
            panic!(
                "session aborted: {} replications failed, exceeding the \
                 quarantine budget of {max_failures}",
                failures.len()
            );
        }
    }
}

/// Writes a checkpoint when the delivery frontier crosses the spec's
/// interval (or finishes the stream). Write failures warn and continue:
/// losing a checkpoint must never take down an otherwise healthy run.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is a separate borrow of the stream's state at the delivery frontier; a struct would only rename them"
)]
fn write_checkpoint<S: ReplicationSink>(
    spec: &CheckpointSpec,
    digest: u64,
    kind: &'static str,
    index: usize,
    total: usize,
    reps: usize,
    framing: &StreamFraming<'_, S>,
    failures: &[ReplicationFailure],
    completed_snaps: &[AggSnapshot],
    partial: impl FnOnce() -> AggSnapshot,
) {
    let frontier = (index + 1) as u64;
    if !frontier.is_multiple_of(spec.every) && frontier != total as u64 {
        return;
    }
    let mut snapshots = completed_snaps.to_vec();
    if !frontier.is_multiple_of(reps as u64) {
        snapshots.push(partial());
    }
    let data = CheckpointData {
        digest,
        kind,
        total: total as u64,
        reps: reps as u64,
        frontier,
        retries: framing.retries,
        failures: failures.to_vec(),
        snapshots,
    };
    if let Err(error) = checkpoint::save(&spec.path, &data) {
        eprintln!(
            "warning: failed to write checkpoint {}: {error}",
            spec.path.display()
        );
    }
}

/// What one replication task produced: a value (possibly after retries) or
/// a quarantined failure.
enum TaskOutput<T> {
    Ok {
        value: T,
        /// Extra attempts spent before succeeding (0 on first try).
        retries: u32,
    },
    Failed {
        /// Total attempts made.
        attempts: u32,
        /// Stringified panic payload or invariant message.
        payload: String,
    },
}

/// Stringifies a caught panic payload (`String` and `&str` payloads pass
/// through verbatim; anything else gets a fixed marker so failure records
/// stay deterministic).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one replication attempt (or several, under `Retry`) according to
/// the failure policy, applying any injected faults first.
///
/// Under [`FailurePolicy::FailFast`] there is no `catch_unwind` at all —
/// the historical zero-overhead path: a panic unwinds through the worker
/// and aborts the session, and an invariant failure is converted into a
/// panic with the same payload. The other policies catch the unwind and
/// return a typed [`TaskOutput::Failed`]; after a caught panic the worker
/// context is rebuilt with `fresh` (the panic may have left it
/// mid-mutation). Invariant failures (`Err` from `attempt`) are never
/// retried — they are deterministic, so re-running cannot help.
fn run_with_policy<T, C>(
    policy: FailurePolicy,
    faults: Option<&FaultPlan>,
    scenario_id: u64,
    replication: u32,
    ctx: &mut C,
    fresh: impl Fn() -> C,
    attempt: impl Fn(u32, &mut C) -> Result<T, String>,
) -> TaskOutput<T> {
    let inject = |n: u32| {
        if let Some(plan) = faults {
            plan.apply(scenario_id, replication, n);
        }
    };
    let budget = match policy {
        FailurePolicy::FailFast => {
            inject(0);
            return match attempt(0, ctx) {
                Ok(value) => TaskOutput::Ok { value, retries: 0 },
                Err(message) => std::panic::panic_any(message),
            };
        }
        FailurePolicy::Quarantine { .. } => 1,
        FailurePolicy::Retry { attempts, .. } => attempts.max(1),
    };
    let backoff_ms = match policy {
        FailurePolicy::Retry { backoff_ms, .. } => backoff_ms,
        _ => 0,
    };
    let mut last_payload = String::new();
    for n in 0..budget {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inject(n);
            attempt(n, &mut *ctx)
        }));
        match caught {
            Ok(Ok(value)) => return TaskOutput::Ok { value, retries: n },
            Ok(Err(message)) => {
                return TaskOutput::Failed {
                    attempts: n + 1,
                    payload: message,
                }
            }
            Err(payload) => {
                *ctx = fresh();
                last_payload = panic_message(payload);
                if n + 1 < budget && backoff_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(
                        backoff_ms * u64::from(n + 1),
                    ));
                }
            }
        }
    }
    TaskOutput::Failed {
        attempts: budget,
        payload: last_payload,
    }
}

/// The begin/record/end sink protocol shared by every workload kind: one
/// place announces the plan, fans each record out to the caller's sink
/// (and, when [`EngineConfig::progress`] is set, the built-in
/// [`ProgressSink`]), and emits the closing [`StreamStats`] — so the CTMC
/// and agent paths cannot drift apart on the sink contract.
struct StreamFraming<'s, S: ReplicationSink> {
    sink: &'s mut S,
    progress: Option<ProgressSink>,
    /// Total records of the full stream (absolute, including any resumed
    /// prefix).
    total: usize,
    /// Bounded reorder window for this stream's worker count.
    window: usize,
    /// Replications per scenario (clamped to at least one).
    reps: usize,
    /// Successful records delivered to the sink.
    delivered: u64,
    /// Failures delivered to the sink (including re-announced checkpointed
    /// failures on a resumed stream).
    failed: u64,
    /// Retry attempts spent, including any carried over from a checkpoint.
    retries: u64,
    /// Failures whose payload marks a non-finite statistic.
    non_finite: u64,
    /// Wall clock of the whole stream, begin to end.
    span: Span,
}

impl<'s, S: ReplicationSink> StreamFraming<'s, S> {
    /// Announces the plan for a stream resuming at record index `start`
    /// (0 for a fresh stream) that will additionally re-announce
    /// `carried_failures` checkpointed failures.
    fn begin(
        config: &EngineConfig,
        scenarios: usize,
        start: usize,
        carried_failures: usize,
        sink: &'s mut S,
    ) -> Self {
        let reps = config.replications.max(1) as usize;
        let total = scenarios * reps;
        let window = reorder_window(effective_jobs(config.jobs));
        let plan = StreamPlan {
            scenarios,
            replications: reps as u32,
            total: (total - start + carried_failures) as u64,
        };
        let mut progress = config.progress.then(|| ProgressSink::new("session"));
        sink.begin(&plan);
        if let Some(p) = &mut progress {
            p.begin(&plan);
        }
        StreamFraming {
            sink,
            progress,
            total,
            window,
            reps,
            delivered: 0,
            failed: 0,
            retries: 0,
            non_finite: 0,
            span: Span::start(),
        }
    }

    fn record(&mut self, record: &ReplicationRecord) {
        self.delivered += 1;
        self.sink.record(record);
        if let Some(p) = &mut self.progress {
            p.record(record);
        }
    }

    fn failure(&mut self, failure: &ReplicationFailure) {
        self.failed += 1;
        self.non_finite += u64::from(failure.payload.starts_with(NON_FINITE_MARKER));
        self.sink.failure(failure);
        if let Some(p) = &mut self.progress {
            p.failure(failure);
        }
    }

    fn end(mut self, sched: SchedulerStats) {
        let stats = StreamStats {
            delivered: self.delivered,
            failed: self.failed,
            retries: self.retries,
            non_finite: self.non_finite,
            max_pending: sched.max_pending,
            reorder_window: self.window,
            workers: sched.workers,
            wall_seconds: self.span.seconds(),
            per_worker: sched.per_worker,
            task_nanos: sched.task_nanos,
            queue_wait_nanos: sched.queue_wait_nanos,
            reorder_occupancy: sched.reorder_occupancy,
        };
        if let Some(p) = &mut self.progress {
            p.end(&stats);
        }
        self.sink.end(&stats);
    }
}

/// Resolves a `jobs` setting (0 = one worker per available core).
fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    }
}

/// The bounded reorder window for a worker count: how far a worker may run
/// ahead of the delivery frontier. Scales with the worker count only, so
/// the reorder buffer's peak size is independent of the replication count.
fn reorder_window(jobs: usize) -> usize {
    (jobs * 4).max(64)
}

/// What the scheduler observed about itself while running one stream:
/// worker shape, load balance, and the wall-time histograms surfaced on
/// [`StreamStats`].
#[derive(Debug, Default)]
struct SchedulerStats {
    max_pending: usize,
    workers: usize,
    /// Tasks completed per worker, sorted descending.
    per_worker: Vec<u64>,
    task_nanos: Histogram,
    queue_wait_nanos: Histogram,
    reorder_occupancy: Histogram,
}

/// The in-order delivery frontier shared by the workers.
struct Emitter<T, D: FnMut(usize, T)> {
    next: usize,
    pending: BTreeMap<usize, T>,
    max_pending: usize,
    /// Buffer occupancy observed after each push (under the lock the push
    /// already holds, so the sample is free of extra synchronization).
    occupancy: Histogram,
    panicked: bool,
    deliver: D,
}

impl<T, D: FnMut(usize, T)> Emitter<T, D> {
    fn push(&mut self, index: usize, value: T) {
        if index == self.next {
            (self.deliver)(index, value);
            self.next += 1;
            while let Some(value) = self.pending.remove(&self.next) {
                let index = self.next;
                (self.deliver)(index, value);
                self.next += 1;
            }
        } else {
            self.pending.insert(index, value);
            self.max_pending = self.max_pending.max(self.pending.len());
        }
        self.occupancy.record(self.pending.len() as u64);
    }
}

/// Takes a mutex even when a panicking holder poisoned it. The emitter's
/// protected state is kept consistent by construction (every mutation is a
/// complete push or a flag set), and panic delivery is *expected* under
/// quarantine-budget aborts — surviving workers must still be able to see
/// `panicked` and retire cleanly rather than amplify the abort into a
/// poisoned-mutex panic of their own.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Calls `task(index, &items[index])` for every item on `jobs` workers
/// (`0` = one per core) and returns the results in item order, whatever
/// order the workers finish in. This is the scheduler behind every
/// [`Session`], for work that is not a replication batch, such as a
/// report's demo trajectories.
///
/// Workers take the next item off an atomic counter; no more workers start
/// than there are items, and one worker runs the tasks inline on the
/// calling thread. If a task panics, the other workers stop taking items
/// and the first panic is re-raised on the calling thread with its own
/// payload.
///
/// ```
/// let labels = engine::ordered_map(2, &["a", "b", "c"], |i, name| format!("{i}:{name}"));
/// assert_eq!(labels, ["0:a", "1:b", "2:c"]);
/// ```
pub fn ordered_map<I, T, F>(jobs: usize, items: &[I], task: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let jobs = effective_jobs(jobs);
    let mut results = Vec::with_capacity(items.len());
    run_ordered(
        0,
        items.len(),
        jobs,
        reorder_window(jobs),
        || (),
        |index, (): &mut ()| task(index, &items[index]),
        |_, value| results.push(value),
    );
    results
}

/// Runs indexed tasks `start..total` over `jobs` workers (the calling
/// thread and `jobs − 1` scoped threads), delivering each result through
/// `deliver` in strict index order, and returns the scheduler's
/// self-observation (reorder high-water mark, per-worker load, timing
/// histograms). A nonzero `start` is how a resumed session skips
/// its checkpointed prefix — the frontier opens at `start`, not 0.
///
/// Workers self-schedule off an atomic counter (dynamic load balancing)
/// but may run at most `window` tasks ahead of the delivery frontier, so
/// at most `window − 1` results are ever buffered — bounded memory
/// regardless of `total`. Delivery happens under a lock on whichever
/// worker completes the frontier task; calls are serialized and in order,
/// which is what makes streamed aggregation bit-identical at any worker
/// count. The instrumentation reads the wall clock per task and merges
/// worker-local histograms once at exit — it takes no extra locks on the
/// hot path and never influences scheduling.
///
/// If a task or `deliver` panics (a `FailFast` replication, a quarantine
/// budget abort, a sink bug), every other worker — including ones blocked
/// on the reorder window — observes the `panicked` flag through
/// poison-tolerant locking, stops taking work, and retires without
/// panicking itself. The first panic's payload is captured and re-raised
/// from the calling thread once the workers have shut down, so callers see
/// the original panic message rather than the thread scope's generic
/// "a scoped thread panicked".
fn run_ordered<T, C, MkCtx, Task, Deliver>(
    start: usize,
    total: usize,
    jobs: usize,
    window: usize,
    make_ctx: MkCtx,
    task: Task,
    deliver: Deliver,
) -> SchedulerStats
where
    T: Send,
    MkCtx: Fn() -> C + Sync,
    Task: Fn(usize, &mut C) -> T + Sync,
    Deliver: FnMut(usize, T) + Send,
{
    let remaining = total.saturating_sub(start);
    if remaining == 0 {
        return SchedulerStats::default();
    }
    let jobs = effective_jobs(jobs).min(remaining);

    /// What one worker accumulates locally (merged under a lock only once,
    /// when the worker retires).
    struct WorkerLocal {
        completed: u64,
        task_nanos: Histogram,
        queue_wait_nanos: Histogram,
    }

    let counter = AtomicUsize::new(start);
    let shared = Mutex::new(Emitter {
        next: start,
        pending: BTreeMap::new(),
        max_pending: 0,
        occupancy: Histogram::new(),
        panicked: false,
        deliver,
    });
    let frontier_moved = Condvar::new();
    let locals: Mutex<Vec<WorkerLocal>> = Mutex::new(Vec::with_capacity(jobs));
    // The first worker panic, re-raised below with its original payload.
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        let worker = || {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // If this worker panics, mark the stream dead and wake
                // every window-waiter so the panic propagates through the
                // scope instead of deadlocking the others.
                struct Abort<'a, T, D: FnMut(usize, T)> {
                    shared: &'a Mutex<Emitter<T, D>>,
                    frontier_moved: &'a Condvar,
                }
                impl<T, D: FnMut(usize, T)> Drop for Abort<'_, T, D> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            // A deliver-panic poisons the mutex while this
                            // very thread unwinds — take it anyway, or the
                            // flag never gets set and waiters hang.
                            lock_clean(self.shared).panicked = true;
                            self.frontier_moved.notify_all();
                        }
                    }
                }
                let _abort = Abort {
                    shared: &shared,
                    frontier_moved: &frontier_moved,
                };

                let mut ctx = make_ctx();
                let mut local = WorkerLocal {
                    completed: 0,
                    task_nanos: Histogram::new(),
                    queue_wait_nanos: Histogram::new(),
                };
                loop {
                    let index = counter.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    {
                        // Bounded window: wait until the frontier is close
                        // enough that this result cannot over-fill the
                        // reorder buffer.
                        let mut emitter = lock_clean(&shared);
                        if index >= emitter.next + window && !emitter.panicked {
                            let wait = Span::start();
                            while index >= emitter.next + window && !emitter.panicked {
                                emitter = frontier_moved
                                    .wait(emitter)
                                    .unwrap_or_else(PoisonError::into_inner);
                            }
                            local.queue_wait_nanos.record(wait.nanos());
                        }
                        if emitter.panicked {
                            return;
                        }
                    }
                    let span = Span::start();
                    let value = task(index, &mut ctx);
                    local.task_nanos.record(span.nanos());
                    local.completed += 1;
                    let mut emitter = lock_clean(&shared);
                    // The stream may have aborted while this task ran;
                    // delivering now would call into a sink that is being
                    // unwound past. Drop the result instead.
                    if emitter.panicked {
                        return;
                    }
                    emitter.push(index, value);
                    drop(emitter);
                    frontier_moved.notify_all();
                }
                lock_clean(&locals).push(local);
            }));
            if let Err(payload) = caught {
                let mut slot = lock_clean(&first_panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        };
        // The calling thread is one of the workers: it would otherwise only
        // wait for the others.
        for _ in 1..jobs {
            scope.spawn(worker);
        }
        worker();
    });

    if let Some(payload) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        std::panic::resume_unwind(payload);
    }

    let emitter = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut stats = SchedulerStats {
        max_pending: emitter.max_pending,
        workers: jobs,
        per_worker: Vec::with_capacity(jobs),
        task_nanos: Histogram::new(),
        queue_wait_nanos: Histogram::new(),
        reorder_occupancy: emitter.occupancy,
    };
    for local in locals.into_inner().unwrap_or_else(PoisonError::into_inner) {
        stats.per_worker.push(local.completed);
        stats.task_nanos.merge(&local.task_nanos);
        stats.queue_wait_nanos.merge(&local.queue_wait_nanos);
    }
    // Scheduling decides which worker ran what; sorting states the load
    // balance shape independently of thread identity.
    stats.per_worker.sort_unstable_by(|a, b| b.cmp(a));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn ordered_delivery_is_in_index_order_at_any_worker_count() {
        for jobs in [1usize, 2, 4, 8] {
            let mut seen = Vec::new();
            let sched = run_ordered(
                0,
                257,
                jobs,
                reorder_window(jobs),
                || (),
                |i, (): &mut ()| i * 3,
                |i, v| {
                    assert_eq!(v, i * 3);
                    seen.push(i);
                },
            );
            assert_eq!(seen, (0..257).collect::<Vec<_>>(), "jobs = {jobs}");
            assert!(sched.max_pending < reorder_window(jobs), "jobs = {jobs}");
            assert_eq!(sched.workers, jobs, "jobs = {jobs}");
            assert_eq!(
                sched.per_worker.iter().sum::<u64>(),
                257,
                "every task is accounted to exactly one worker at jobs = {jobs}"
            );
            assert!(
                sched.per_worker.windows(2).all(|w| w[0] >= w[1]),
                "per-worker load is reported sorted descending"
            );
            assert_eq!(sched.task_nanos.count(), 257, "one timing sample per task");
        }
    }

    #[test]
    fn reorder_buffer_is_bounded_by_the_window_even_with_a_stalled_frontier() {
        // Task 0 is made much slower than everything else, so the other
        // workers sprint ahead — the window must stop them.
        let window = 8;
        let mut count = 0usize;
        let sched = run_ordered(
            0,
            10_000,
            4,
            window,
            || (),
            |i, (): &mut ()| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                i
            },
            |_, _| count += 1,
        );
        assert_eq!(count, 10_000);
        assert!(
            sched.max_pending < window,
            "pending {} must stay below the window {window}",
            sched.max_pending
        );
        // The stalled frontier forced workers to block on the window at
        // least once, and that blocking shows up in the wait histogram.
        assert!(
            sched.queue_wait_nanos.count() > 0,
            "a stalled frontier must register queue waits"
        );
        assert!(
            sched.reorder_occupancy.max() as usize <= window,
            "occupancy never exceeds the window"
        );
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        // Tasks 0 and 1 each wait for the other, so two different workers
        // run them; with two workers, one of those is the caller.
        let caller = std::thread::current().id();
        let both_started = std::sync::Barrier::new(2);
        let on_caller = AtomicU64::new(0);
        let sched = run_ordered(
            0,
            16,
            2,
            reorder_window(2),
            || (),
            |i, (): &mut ()| {
                if i < 2 {
                    both_started.wait();
                }
                if std::thread::current().id() == caller {
                    on_caller.fetch_add(1, Ordering::Relaxed);
                }
                i
            },
            |_, _| {},
        );
        assert_eq!(sched.workers, 2);
        assert!(
            on_caller.load(Ordering::Relaxed) > 0,
            "the calling thread ran no task"
        );
    }

    #[test]
    fn worker_contexts_are_per_worker() {
        let contexts = AtomicU64::new(0);
        let mut delivered = 0u64;
        run_ordered(
            0,
            64,
            4,
            64,
            || {
                contexts.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |_, local: &mut u64| {
                *local += 1;
                *local
            },
            |_, _| delivered += 1,
        );
        assert_eq!(delivered, 64);
        assert!(contexts.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn ordered_map_returns_results_in_item_order_with_uneven_task_costs() {
        let items: Vec<u64> = (0..23).collect();
        for jobs in [0usize, 1, 2, 7] {
            // With two or more workers, item 0 waits until every other item
            // has finished, so it completes last.
            let finished = (Mutex::new(0usize), Condvar::new());
            let results = ordered_map(jobs, &items, |index, &i| {
                assert_eq!(index as u64, i);
                let (count, changed) = &finished;
                if i == 0 && jobs >= 2 {
                    let mut count = count.lock().unwrap();
                    while *count < items.len() - 1 {
                        count = changed.wait(count).unwrap();
                    }
                }
                let spins = (23 - i) % 6 * 20_000;
                let value = (0..spins).fold(i * 10, |acc, k| std::hint::black_box(acc ^ k) ^ k);
                if i != 0 {
                    *count.lock().unwrap() += 1;
                    changed.notify_all();
                }
                value
            });
            let expected: Vec<u64> = items.iter().map(|i| i * 10).collect();
            assert_eq!(results, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn ordered_map_of_no_items_is_empty() {
        let calls = AtomicU64::new(0);
        let results = ordered_map(4, &[] as &[u32], |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert!(results.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ordered_map_re_raises_a_panicking_task_with_its_own_payload() {
        let items: Vec<u32> = (0..8).collect();
        for jobs in [1usize, 2, 3] {
            let payload = std::panic::catch_unwind(|| {
                ordered_map(jobs, &items, |_, &i| {
                    assert!(i != 5, "demo run 5 failed");
                    i
                })
            })
            .expect_err("task 5 panics");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("demo run 5 failed"), "jobs = {jobs}");
        }
    }
}
