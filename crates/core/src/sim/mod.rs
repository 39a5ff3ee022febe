//! Peer-level (agent-based) discrete-event simulator.
//!
//! The type-count CTMC of [`crate::SwarmModel`] is exact but cannot express
//! per-peer identities: which peers are gifted or infected (Fig. 2), how a
//! non-random piece-selection policy behaves (Theorem 14), or the
//! faster-retry variant of Section VIII-C. This simulator keeps every peer as
//! an agent with its own piece collection and simulates the same stochastic
//! dynamics exactly (exponential clocks, uniform random contacts), with
//! pluggable [`crate::policy::PiecePolicy`], optional retry speed-up, and
//! scheduled [`FlashCrowd`] injections.
//!
//! # Kernels
//!
//! Four interchangeable kernels implement the bookkeeping behind the shared
//! event loop (see [`KernelKind`]):
//!
//! * **Turbo** (the default) — each peer is one packed 32-byte record that
//!   holds its piece collection (a one-word [`pieceset::PieceSet`]) beside
//!   its pool positions, flags and group, and the Fig.-2 group decomposition
//!   follows every arrival, transfer, and departure in `O(1)`, so snapshots
//!   cost `O(1)`. Arrivals draw from alias tables ([`markov::alias`]),
//!   swap-remove index pools make boosted-vs-normal uploader selection and
//!   seed departures direct `O(1)` picks instead of rejection loops, and a
//!   [`SimScratch`] arena reuses every buffer across replications.
//! * **Legacy scan** — the original array-of-structs kernel that recomputes
//!   the group decomposition by scanning every peer at each snapshot,
//!   rejection-samples the uploader by clock rate, and falls back to an
//!   `O(n)` scan when sampling a departing seed. It is turbo's reference: it samples
//!   each event's outcome from the same distribution but consumes different
//!   draws, so the two kernels agree statistically, not byte for byte.
//! * **Coded** — the network-coding kernel (Section VIII-B, Theorem 15):
//!   peer state is a subspace of `F_q^K` in reduced row-echelon form with
//!   the dimension cached in a packed per-peer record, uploads are random
//!   linear combinations, and departures fire at dimension `K`.
//! * **Coded turbo** — the bitsliced `GF(2)` coded kernel: peer subspaces
//!   as packed `u64` rows ([`netcoding::BitSubspace`]) in a recycled arena,
//!   *lazy peers* that carry only a cached dimension (plus an arrival unit
//!   mask) until a peer-to-peer transfer actually needs a basis, and the
//!   turbo tricks (alias tables, swap-remove pools, [`SimScratch`] reuse).
//!   `GF(2)` only.
//!
//! [`AgentSwarm::with_coded`] builds either coded kernel.
//! `tests/simulators_agree.rs` holds both to the exact stationary law of the
//! `K = 1` chain at upload rates thinned by `1 − 1/q`, and the
//! distributional battery in `crates/core/tests/coded_distributional.rs`
//! holds them to each other over `GF(2)`.
//!
//! The turbo kernel is pinned against the scan kernel by a *distributional*
//! differential test (`crates/core/tests/turbo_distributional.rs`): over
//! replication ensembles, its sojourn, population, watch-piece, group,
//! event, useless-contact and transfer statistics must match the scan
//! kernel's within confidence intervals, and the same test proves it
//! rejects a turbo run with skewed arrival rates.
//!
//! Aggregate exponential clocks are maintained per peer class — total
//! arrival rate, (possibly boosted) fixed-seed rate, total peer contact rate
//! split into normal and boosted sub-populations, and the peer-seed
//! departure rate — and updated in `O(1)` per state change; no per-event
//! rescan of the population happens in any kernel. The clock advances once
//! per *stretch*: events that change no state and no rate (self-loops,
//! such as useless contacts) are drawn and counted against the unchanged
//! state until one event changes it, and one `Gamma` draw sums their
//! holding times (see `drive`, and [`TURBO_DRAW_ORDER`]).

mod coded;
mod coded_turbo;
mod scan;
mod sharded;
mod turbo;

pub use sharded::{ShardBias, ShardPlan};
pub use turbo::SimScratch;

use crate::coded::{CodedGifts, CodedParams};
use crate::metrics::SimResult;
use crate::policy::{PiecePolicy, RandomUseful};
use crate::{SwarmError, SwarmParams};
use markov::poisson::{sample_binomial, sample_exp, sample_gamma, sample_weighted_index_of};
use pieceset::{PieceId, PieceSet};
use rand::Rng;
use telemetry::{NullRecorder, Recorder};

/// The draw order of the unsharded [`KernelKind::Turbo`] kernel, named so
/// that a checkpoint can bind to it: the engine folds it into the digest of
/// every session that runs turbo unsharded, and a checkpoint written under
/// another order is refused instead of resumed into a mix of two streams.
/// Change it whenever that order changes. The current order advances the
/// clock once per state change (the [module docs](self)' stretches).
pub const TURBO_DRAW_ORDER: &str = "one clock draw per state change";

/// Which simulation kernel executes the run (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The original scan-based kernel: group decomposition recomputed by a
    /// full population scan at every snapshot. Kept as the turbo kernel's
    /// reference in the distributional differential test.
    LegacyScan,
    /// The default kernel: alias-table arrivals, direct `O(1)` pool-based
    /// uploader and departure sampling (no rejection loops), `O(1)`
    /// snapshots, and [`SimScratch`] buffer reuse. Validated
    /// distributionally against [`KernelKind::LegacyScan`].
    #[default]
    Turbo,
    /// The network-coding kernel (Section VIII-B, Theorem 15): peer state is
    /// the subspace `V_A ⊆ F_q^K` held in reduced row-echelon form, contacts
    /// transfer random linear combinations, and peers depart on reaching
    /// dimension `K`. Requires coded parameters — construct the simulator
    /// with [`AgentSwarm::with_coded`]. Validated against the exact `K = 1`
    /// stationary law (`tests/simulators_agree.rs`).
    Coded,
    /// The bitsliced `GF(2)` coded kernel: subspaces as packed `u64` rows
    /// ([`netcoding::BitSubspace`]) in a recycled arena, lazy peers that
    /// materialize a basis only when a peer-to-peer transfer needs one, and
    /// the turbo sampling tricks. Requires coded parameters over `GF(2)` —
    /// construct the simulator with [`AgentSwarm::with_coded`].
    /// Parity-free; validated against the exact `K = 1` stationary law and
    /// distributionally against the coded kernel.
    CodedTurbo,
}

impl KernelKind {
    /// Every kernel, in declaration order: the table scenario JSON and the
    /// `--kernel` flag parse names against.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::LegacyScan,
        KernelKind::Turbo,
        KernelKind::Coded,
        KernelKind::CodedTurbo,
    ];

    /// The kernel's name in scenario JSON and on the command line. The
    /// match is exhaustive, so a new kernel does not build until it is
    /// named here; list it in [`KernelKind::ALL`] too.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            KernelKind::LegacyScan => "legacy-scan",
            KernelKind::Turbo => "turbo",
            KernelKind::Coded => "coded",
            KernelKind::CodedTurbo => "coded-turbo",
        }
    }

    /// The kernel called `name`, if there is one.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// Configuration of the agent-based simulator beyond the model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentConfig {
    /// The piece whose spread is tracked for the Fig.-2 decomposition
    /// (piece one in the paper).
    pub watch_piece: PieceId,
    /// Retry speed-up factor `η ≥ 1` of Section VIII-C: a peer (or the fixed
    /// seed) whose last contact found nothing useful runs its clock `η`
    /// times faster until its next contact. `1.0` recovers the base model.
    pub retry_speedup: f64,
    /// Interval between recorded snapshots. Snapshot times are snapped to
    /// the grid `i · interval` (computed by multiplication, not by
    /// accumulating floats), so they do not drift over long horizons.
    pub snapshot_interval: f64,
    /// Hard cap on the number of simulated events (safety valve). A run that
    /// hits it stops early and reports [`SimResult::truncated`].
    pub max_events: u64,
    /// The kernel executing the run.
    pub kernel: KernelKind,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            watch_piece: PieceId::new(0),
            retry_speedup: 1.0,
            snapshot_interval: 10.0,
            max_events: 50_000_000,
            kernel: KernelKind::Turbo,
        }
    }
}

/// A scheduled mass arrival: `count` peers of type `pieces` join at `time`.
///
/// Flash crowds model the scenario-registry workloads where a burst of
/// (typically empty-handed) peers hits an operating swarm — the stress that
/// provokes the missing-piece syndrome. Injection is deterministic (no
/// random draws), so a schedule does not perturb the RNG stream of the
/// surrounding Poisson dynamics beyond the state change itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Simulated time of the burst (must be finite and non-negative).
    pub time: f64,
    /// Number of peers joining at once.
    pub count: usize,
    /// The piece collection every member of the crowd arrives with.
    pub pieces: PieceSet,
}

/// The most peers a run may start with and inject through flash crowds,
/// together. The turbo and coded-turbo kernels index peers and pool
/// positions in `u32` and keep `u32::MAX` free as their "not in a pool"
/// sentinel, so every index of a population this size fits. Every validation path applies the bound
/// through [`checked_population`] before a peer table is allocated.
pub const MAX_PEERS: usize = u32::MAX as usize;

/// Adds up peer `counts` without overflow, failing once the total passes
/// [`MAX_PEERS`].
///
/// # Errors
///
/// Returns [`SwarmError::InvalidParameter`] if the counts sum past
/// [`MAX_PEERS`].
pub fn checked_population(counts: impl IntoIterator<Item = usize>) -> Result<usize, SwarmError> {
    counts
        .into_iter()
        .try_fold(0usize, |total, n| {
            total.checked_add(n).filter(|&t| t <= MAX_PEERS)
        })
        .ok_or_else(|| {
            SwarmError::InvalidParameter(format!(
                "the initial population and flash crowds add up to more than \
                 {MAX_PEERS} peers, the most a run can index"
            ))
        })
}

/// The agent-based swarm simulator.
///
/// # Examples
///
/// ```
/// use swarm::{sim::AgentSwarm, SwarmParams};
/// use rand::SeedableRng;
///
/// let params = SwarmParams::builder(2)
///     .seed_rate(1.0)
///     .contact_rate(1.0)
///     .seed_departure_rate(2.0)
///     .fresh_arrivals(0.5)
///     .build()
///     .unwrap();
/// let sim = AgentSwarm::new(params).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let result = sim.run(&[], 200.0, &mut rng);
/// assert!(result.final_snapshot().time >= 199.9);
/// assert!(!result.truncated);
/// ```
pub struct AgentSwarm {
    params: SwarmParams,
    config: AgentConfig,
    policy: Box<dyn PiecePolicy>,
    /// Coded arrival mix, present exactly when the kernel is a coded one
    /// (established by [`AgentSwarm::with_coded`]).
    coded: Option<CodedGifts>,
}

impl AgentSwarm {
    /// Creates a simulator with the default configuration and the paper's
    /// random-useful policy.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] if the configuration is
    /// invalid (see [`AgentSwarm::with_config`]).
    pub fn new(params: SwarmParams) -> Result<Self, SwarmError> {
        Self::with_config(params, AgentConfig::default(), Box::new(RandomUseful))
    }

    /// Creates a simulator with an explicit configuration and policy.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] if the watch piece is outside
    /// the file, the retry speed-up is less than one, or the snapshot
    /// interval is not positive.
    pub fn with_config(
        params: SwarmParams,
        config: AgentConfig,
        policy: Box<dyn PiecePolicy>,
    ) -> Result<Self, SwarmError> {
        if config.kernel == KernelKind::Coded || config.kernel == KernelKind::CodedTurbo {
            return Err(SwarmError::InvalidParameter(
                "the coded kernels need coded parameters; construct the \
                 simulator with AgentSwarm::with_coded"
                    .into(),
            ));
        }
        Self::validate_config(&params, &config)?;
        Ok(AgentSwarm {
            params,
            config,
            policy,
            coded: None,
        })
    }

    /// Creates a simulator for the network-coded swarm of Section VIII-B on
    /// the coded kernel `config.kernel` names: peers hold subspaces of
    /// `F_q^K`, arrivals carry `d` uniformly random coded pieces per
    /// [`CodedParams::gift_dimensions`], and the fixed seed and peer
    /// contacts upload random linear combinations. [`KernelKind::Coded`]
    /// runs any field; [`KernelKind::CodedTurbo`] is bitsliced over `GF(2)`
    /// only.
    ///
    /// Piece-selection policies do not apply (a coded upload is always a
    /// random combination of everything the uploader holds), and the
    /// Section VIII-C retry speed-up is not modelled for the coded system.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] if `config.kernel` is not a
    /// coded kernel, the coded-turbo kernel is given a field other than
    /// `GF(2)`, the retry speed-up is not 1, the gift mix fails
    /// [`CodedGifts::validate_for`], or the configuration is invalid.
    pub fn with_coded(params: CodedParams, config: AgentConfig) -> Result<Self, SwarmError> {
        if !matches!(config.kernel, KernelKind::Coded | KernelKind::CodedTurbo) {
            return Err(SwarmError::InvalidParameter(
                "coded parameters run on a coded kernel; set AgentConfig::kernel \
                 to KernelKind::Coded or KernelKind::CodedTurbo"
                    .into(),
            ));
        }
        if config.kernel == KernelKind::CodedTurbo && params.field.order() != 2 {
            return Err(SwarmError::InvalidParameter(format!(
                "the coded-turbo kernel is bitsliced over GF(2); GF({}) \
                 scenarios route to the coded kernel (KernelKind::Coded)",
                params.field.order()
            )));
        }
        if config.retry_speedup != 1.0 {
            return Err(SwarmError::InvalidParameter(format!(
                "the {} kernel does not model the Section VIII-C retry \
                 speed-up (retry_speedup must be 1)",
                config.kernel.name()
            )));
        }
        let gifts = params.gifts();
        gifts.validate_for(&params.base)?;
        Self::validate_config(&params.base, &config)?;
        Ok(AgentSwarm {
            params: params.base,
            config,
            policy: Box::new(RandomUseful),
            coded: Some(gifts),
        })
    }

    /// The kernel-independent configuration checks shared by the
    /// constructors.
    fn validate_config(params: &SwarmParams, config: &AgentConfig) -> Result<(), SwarmError> {
        if config.watch_piece.index() >= params.num_pieces() {
            return Err(SwarmError::InvalidParameter(format!(
                "watch piece {} outside a {}-piece file",
                config.watch_piece,
                params.num_pieces()
            )));
        }
        if !(config.retry_speedup >= 1.0 && config.retry_speedup.is_finite()) {
            return Err(SwarmError::InvalidParameter(format!(
                "retry speed-up η = {} must be a finite value ≥ 1",
                config.retry_speedup
            )));
        }
        if config.snapshot_interval.is_nan() || config.snapshot_interval <= 0.0 {
            return Err(SwarmError::InvalidParameter(
                "snapshot interval must be positive".into(),
            ));
        }
        Ok(())
    }

    /// The coded arrival mix when the simulator runs a coded kernel, `None`
    /// otherwise.
    #[must_use]
    pub fn coded_gifts(&self) -> Option<&CodedGifts> {
        self.coded.as_ref()
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &SwarmParams {
        &self.params
    }

    /// The simulator configuration.
    #[must_use]
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// The name of the piece-selection policy in use.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Runs the simulation from an initial population (`initial[i]` is the
    /// piece collection of the `i`-th initial peer) up to `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if the initial population fails [`AgentSwarm::validate_run`]
    /// (a collection outside the file, or a complete collection while
    /// `γ = ∞`). Use [`AgentSwarm::run_with_schedule`] for the fallible
    /// form.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented infallible convenience wrapper; fallible callers use run_with_schedule"
    )]
    pub fn run<R: Rng>(&self, initial: &[PieceSet], horizon: f64, rng: &mut R) -> SimResult {
        self.run_with_schedule(initial, &[], horizon, rng)
            .expect("valid initial population")
    }

    /// Runs from a one-club initial condition: `n` peers all missing exactly
    /// the watch piece.
    #[must_use]
    pub fn run_from_one_club<R: Rng>(&self, n: usize, horizon: f64, rng: &mut R) -> SimResult {
        let club = self.params.full_type().without(self.config.watch_piece);
        let initial = vec![club; n];
        self.run(&initial, horizon, rng)
    }

    /// Validates an initial population and flash schedule without running:
    /// together they may hold at most [`MAX_PEERS`] peers, every collection
    /// must stay inside the `K`-piece file, crowd times must be finite and
    /// non-negative, and — mirroring the builder's `λ_F = 0` convention — no
    /// *complete* collection may be injected when `γ = ∞` (such a peer
    /// would never depart and act as a phantom permanent seed).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] describing the first
    /// violation.
    pub fn validate_run(
        &self,
        initial: &[PieceSet],
        flash: &[FlashCrowd],
    ) -> Result<(), SwarmError> {
        checked_population(std::iter::once(initial.len()).chain(flash.iter().map(|c| c.count)))?;
        let full = self.params.full_type();
        let check_type = |pieces: PieceSet, what: &str| -> Result<(), SwarmError> {
            if !pieces.is_subset_of(full) {
                return Err(SwarmError::InvalidParameter(format!(
                    "{what} type {} uses pieces outside a {}-piece file",
                    pieces.paper_notation(),
                    self.params.num_pieces()
                )));
            }
            if self.params.departs_immediately() && pieces == full {
                return Err(SwarmError::InvalidParameter(format!(
                    "{what} peers hold the complete collection, but with γ = ∞ \
                     complete peers leave instantly and may never be injected \
                     (the paper's λ_F = 0 convention)"
                )));
            }
            Ok(())
        };
        for &pieces in initial {
            check_type(pieces, "initial")?;
        }
        for crowd in flash {
            if !(crowd.time.is_finite() && crowd.time >= 0.0) {
                return Err(SwarmError::InvalidParameter(format!(
                    "flash crowd time {} must be finite and non-negative",
                    crowd.time
                )));
            }
            check_type(crowd.pieces, "flash crowd")?;
        }
        Ok(())
    }

    /// Runs with a schedule of [`FlashCrowd`] injections on top of the
    /// Poisson arrival process. Crowds past the horizon are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] if the initial population or
    /// schedule fails [`AgentSwarm::validate_run`].
    pub fn run_with_schedule<R: Rng>(
        &self,
        initial: &[PieceSet],
        flash: &[FlashCrowd],
        horizon: f64,
        rng: &mut R,
    ) -> Result<SimResult, SwarmError> {
        self.run_with_scratch(initial, flash, horizon, rng, &mut SimScratch::new())
    }

    /// Runs like [`AgentSwarm::run_with_schedule`], reusing the buffers of
    /// `scratch` instead of allocating fresh state.
    ///
    /// With the [`KernelKind::Turbo`] and [`KernelKind::CodedTurbo`] kernels
    /// the entire peer table — piece rows, per-peer metadata, sampling
    /// pools, snapshot buffer — lives in the scratch arena, so a replication
    /// loop that calls this repeatedly (and returns each result via
    /// [`SimScratch::recycle`]) performs no per-replication allocation once
    /// the buffers have grown to the workload's high-water mark. The scan
    /// and coded kernels reuse the recycled snapshot buffer only and rebuild
    /// their peer state per run.
    ///
    /// The scratch never influences the trajectory: for a fixed RNG stream
    /// the result is identical whether the scratch is fresh or warm.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] if the initial population or
    /// schedule fails [`AgentSwarm::validate_run`].
    pub fn run_with_scratch<R: Rng>(
        &self,
        initial: &[PieceSet],
        flash: &[FlashCrowd],
        horizon: f64,
        rng: &mut R,
        scratch: &mut SimScratch,
    ) -> Result<SimResult, SwarmError> {
        self.run_metered(initial, flash, horizon, rng, scratch, &mut NullRecorder)
    }

    /// Runs like [`AgentSwarm::run_with_scratch`] with an instrumentation
    /// [`Recorder`] threaded through the kernel hot loops.
    ///
    /// The recorder observes the run — contacts, useful vs. useless
    /// transfers, pool churn, rejection retries, RREF absorbs, and the rest
    /// of the [`telemetry::Counter`] taxonomy — but never influences it:
    /// recorders consume no randomness, so for a fixed RNG stream the result
    /// is byte-identical to the unmetered run. With the default
    /// [`NullRecorder`] (what [`AgentSwarm::run_with_scratch`] passes) every
    /// recorder call monomorphizes to an empty inlined body, keeping the
    /// disabled hot path branch-free.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] if the initial population or
    /// schedule fails [`AgentSwarm::validate_run`].
    pub fn run_metered<R: Rng, T: Recorder>(
        &self,
        initial: &[PieceSet],
        flash: &[FlashCrowd],
        horizon: f64,
        rng: &mut R,
        scratch: &mut SimScratch,
        recorder: &mut T,
    ) -> Result<SimResult, SwarmError> {
        self.validate_run(initial, flash)?;
        let mut schedule: Vec<FlashCrowd> = flash.to_vec();
        schedule.sort_by(|a, b| a.time.total_cmp(&b.time));
        Ok(match self.config.kernel {
            KernelKind::LegacyScan => drive(
                self,
                scan::State::new(self, initial, scratch.take_snapshots(), recorder),
                &schedule,
                horizon,
                rng,
            ),
            KernelKind::Turbo => drive(
                self,
                turbo::State::new(self, initial, scratch, recorder),
                &schedule,
                horizon,
                rng,
            ),
            KernelKind::Coded | KernelKind::CodedTurbo => {
                #[expect(
                    clippy::expect_used,
                    reason = "with_coded establishes the gift mix before a coded kernel is selectable"
                )]
                let gifts = self
                    .coded
                    .as_ref()
                    .expect("with_coded establishes the gift mix for the coded kernels");
                if self.config.kernel == KernelKind::Coded {
                    drive(
                        self,
                        coded::State::new(self, gifts, initial, scratch.take_snapshots(), recorder),
                        &schedule,
                        horizon,
                        rng,
                    )
                } else {
                    drive(
                        self,
                        coded_turbo::State::new(self, gifts, initial, scratch, recorder),
                        &schedule,
                        horizon,
                        rng,
                    )
                }
            }
        })
    }
}

/// Which of the driver's four aggregate clocks fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A Poisson arrival.
    Arrival,
    /// The fixed seed's contact clock.
    SeedTick,
    /// Some peer's contact clock.
    PeerTick,
    /// A peer-seed departure.
    SeedDeparture,
}

impl Event {
    /// The events in the order of the driver's rate array.
    const ALL: [Event; 4] = [
        Event::Arrival,
        Event::SeedTick,
        Event::PeerTick,
        Event::SeedDeparture,
    ];
}

/// The bookkeeping interface a kernel exposes to the shared driver loop.
///
/// The driver owns time, the aggregate rate computation, event selection,
/// the snapshot grid, the flash schedule, and truncation; kernels own the
/// population state and the per-event updates. An event's outcome is split
/// in two: [`decide`](KernelState::decide) draws it against the current
/// state, and [`apply`](KernelState::apply) makes the change. Every kernel
/// must sample each outcome from the model's distribution; no kernel has to
/// consume the same draws as another. The scan kernel's draw order is fixed
/// all the same: its ensembles are the turbo kernel's reference and the
/// engine's golden master pins its trajectories across commits, so moving
/// one of its draws moves the reference.
trait KernelState {
    /// An outcome [`decide`](KernelState::decide) drew, waiting to be
    /// applied.
    type Change;
    /// Reserves capacity for about `capacity` snapshots before the run
    /// starts (the driver derives it from the horizon and snapshot grid, so
    /// recording never reallocates mid-run on the happy path).
    fn reserve_snapshots(&mut self, capacity: usize);
    /// Current population size `n`.
    fn population(&self) -> usize;
    /// Current number of peer seeds (complete collections).
    fn seed_count(&self) -> usize;
    /// Current number of peers running a boosted retry clock.
    fn boosted_count(&self) -> usize;
    /// Whether the fixed seed runs a boosted retry clock.
    fn seed_boosted(&self) -> bool;
    /// Records a snapshot at `time`.
    fn record_snapshot(&mut self, time: f64);
    /// Draws the outcome of `event` against the current state and changes
    /// nothing. Returns `None` for a *self-loop*: an outcome that would
    /// change no state and no rate, such as a useless contact that boosts
    /// no clock. A kernel may also defer every draw to
    /// [`apply`](KernelState::apply) and never return `None`.
    fn decide<R: Rng>(&mut self, event: Event, rng: &mut R) -> Option<Self::Change>;
    /// Applies a decided outcome at `time`.
    fn apply<R: Rng>(&mut self, change: Self::Change, time: f64, rng: &mut R);
    /// Counts `count` self-loops, each one useless contact. Only kernels
    /// whose [`decide`](KernelState::decide) returns `None` see any; the
    /// default serves the others.
    fn record_self_loops(&mut self, count: u64) {
        debug_assert_eq!(count, 0, "this kernel decides no self-loops");
    }
    /// Injects a flash crowd (no random draws).
    fn inject(&mut self, time: f64, pieces: PieceSet, count: usize);
    /// Consumes the kernel into the run's result.
    fn finish(self, events: u64, truncated: bool, horizon: f64) -> SimResult;
}

/// The snapshot grid `i · interval`, computed by multiplication so long
/// horizons do not accumulate floating-point drift.
struct SnapshotGrid {
    interval: f64,
    /// Index of the next grid time to record.
    next: u64,
    /// The last grid time recorded.
    last: f64,
}

impl SnapshotGrid {
    /// Records a snapshot at every grid time up to and including `limit`.
    fn record_until<S: KernelState>(&mut self, state: &mut S, limit: f64) {
        while (self.next as f64) * self.interval <= limit {
            let t = (self.next as f64) * self.interval;
            state.record_snapshot(t);
            self.last = t;
            self.next += 1;
        }
    }
}

/// The shared event loop: aggregate exponential clocks per peer class,
/// updated `O(1)` per state change from the kernel's maintained counts.
///
/// The clock advances once per *stretch*, not once per event. After the
/// usual exponential draw for the next event, the loop keeps drawing
/// candidate events (type, then outcome) against the unchanged state until
/// one of them changes it; every candidate before it is a self-loop (see
/// [`KernelState::decide`]), which only adds to a count. The holding times
/// are iid `Exp(total)` and independent of the candidates' outcomes, so
/// after the first, which fires at `t₁`, the other `loops` of them sum to
/// one `Gamma(loops, total)` draw. A flash crowd or the horizon at `c`
/// inside a stretch cuts it: the stretch's intermediate event times are
/// sorted uniforms on `(t₁, t_end)`, so `1 + Binomial(loops − 1, (c − t₁) /
/// (t_end − t₁))` self-loops fall before `c`, and the decided change is
/// dropped, which is exact by memorylessness. The event budget ends a
/// stretch at its last counted self-loop. A kernel that never returns a
/// self-loop gets stretches of one event and consumes the draws it always
/// did.
fn drive<S: KernelState, R: Rng>(
    sim: &AgentSwarm,
    mut state: S,
    flash: &[FlashCrowd],
    horizon: f64,
    rng: &mut R,
) -> SimResult {
    let params = &sim.params;
    let eta = sim.config.retry_speedup;
    let gamma_finite = !params.departs_immediately();
    let interval = sim.config.snapshot_interval;
    // Loop-invariant rate constants, hoisted: `total_arrival_rate` in
    // particular walks the arrival map, which is far too expensive to redo
    // on every event.
    let arrival_rate = params.total_arrival_rate();
    let us = params.seed_rate();
    let mu = params.contact_rate();
    let gamma = if gamma_finite {
        params.seed_departure_rate()
    } else {
        0.0
    };

    // Pre-reserve the snapshot vector for the whole grid (initial + final
    // snapshots included), capped so an absurd horizon/interval combination
    // degrades to incremental growth instead of an up-front OOM.
    const MAX_PRE_RESERVED_SNAPSHOTS: usize = 1 << 20;
    if horizon.is_finite() && horizon >= 0.0 {
        let grid_points = (horizon / interval).min(MAX_PRE_RESERVED_SNAPSHOTS as f64) as usize;
        state.reserve_snapshots(grid_points.saturating_add(2));
    }

    state.record_snapshot(0.0);
    let mut grid = SnapshotGrid {
        interval,
        next: 1,
        last: 0.0,
    };
    let mut time = 0.0f64;
    let mut events = 0u64;
    let mut truncated = false;
    let mut next_flash = 0usize;

    loop {
        if events >= sim.config.max_events {
            truncated = true;
            break;
        }
        let n = state.population();
        let seeds = if gamma_finite { state.seed_count() } else { 0 };
        let boosted = state.boosted_count();

        let seed_tick_rate = if n > 0 {
            us * if state.seed_boosted() { eta } else { 1.0 }
        } else {
            0.0
        };
        let peer_tick_rate = mu * ((n - boosted) as f64 + eta * boosted as f64);
        let departure_rate = if gamma_finite {
            gamma * seeds as f64
        } else {
            0.0
        };
        let rates = [arrival_rate, seed_tick_rate, peer_tick_rate, departure_rate];
        let total: f64 = rates.iter().sum();
        debug_assert!(total > 0.0, "λ_total > 0 guarantees a positive total rate");

        let first = time + sample_exp(rng, total);
        let crowd_time = flash
            .get(next_flash)
            .map_or(f64::INFINITY, |crowd| crowd.time);

        // A scheduled flash crowd pre-empts the sampled event: jump to the
        // crowd, inject it, and resample (the exponential clocks are
        // memoryless, so discarding the sampled jump is exact).
        if crowd_time <= first.min(horizon) {
            grid.record_until(&mut state, crowd_time);
            time = crowd_time;
            inject_next(&mut state, flash, &mut next_flash, time);
            continue;
        }
        if first > horizon {
            grid.record_until(&mut state, horizon);
            time = horizon;
            break;
        }

        // Grid times up to the first event see the current state whatever
        // the stretch decides.
        grid.record_until(&mut state, first);

        // The stretch: candidates against the unchanged state until one
        // changes it or the event budget runs out.
        let candidate = |state: &mut S, rng: &mut R| {
            #[expect(
                clippy::expect_used,
                reason = "total rate > 0 here: a zero-rate state takes the infinite-horizon break above"
            )]
            let event = sample_weighted_index_of(rng, total, rates).expect("positive total rate");
            state.decide(Event::ALL[event], rng)
        };
        if let Some(change) = candidate(&mut state, rng) {
            // A stretch of one event, the usual case where most events
            // change the state: the step of a plain per-event loop.
            time = first;
            events += 1;
            state.apply(change, time, rng);
            continue;
        }
        let budget = sim.config.max_events - events;
        let mut loops = 1u64;
        let change = loop {
            if loops == budget {
                break None;
            }
            if let Some(change) = candidate(&mut state, rng) {
                break Some(change);
            }
            loops += 1;
        };
        let counted = loops + u64::from(change.is_some());
        let last = first + sample_gamma(rng, counted - 1, total);

        let crowd_cuts = crowd_time <= last.min(horizon);
        if crowd_cuts || last > horizon {
            // Only a stretch of two or more events reaches here, and every
            // event before its last is a self-loop.
            debug_assert!(counted >= 2 && last > first);
            let cut = if crowd_cuts { crowd_time } else { horizon };
            let before = 1 + sample_binomial(rng, counted - 2, (cut - first) / (last - first));
            events += before;
            state.record_self_loops(before);
            grid.record_until(&mut state, cut);
            time = cut;
            if !crowd_cuts {
                break;
            }
            inject_next(&mut state, flash, &mut next_flash, time);
            continue;
        }

        // Snapshots crossed inside the stretch see the state before the
        // change.
        grid.record_until(&mut state, last);
        time = last;
        events += counted;
        state.record_self_loops(loops);
        if let Some(change) = change {
            state.apply(change, time, rng);
        }
    }

    // Final snapshot at the horizon (or at the truncation point).
    let end = time.max(grid.last);
    state.record_snapshot(end);
    state.finish(events, truncated, end)
}

/// Injects the flash crowd `flash[*next]` at `time` and moves past it.
fn inject_next<S: KernelState>(state: &mut S, flash: &[FlashCrowd], next: &mut usize, time: f64) {
    if let Some(crowd) = flash.get(*next) {
        state.inject(time, crowd.pieces, crowd.count);
        *next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RarestFirst, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(k: usize, us: f64, mu: f64, gamma: f64, lambda0: f64) -> SwarmParams {
        let mut b = SwarmParams::builder(k)
            .seed_rate(us)
            .contact_rate(mu)
            .fresh_arrivals(lambda0);
        if gamma.is_finite() {
            b = b.seed_departure_rate(gamma);
        }
        b.build().unwrap()
    }

    #[test]
    fn kernel_names_round_trip_through_the_table() {
        for (index, kind) in KernelKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, index, "ALL is in declaration order");
            assert_eq!(KernelKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(KernelKind::from_name("warp"), None);
    }

    #[test]
    fn config_validation() {
        let p = params(2, 1.0, 1.0, 1.0, 1.0);
        let bad_watch = AgentConfig {
            watch_piece: PieceId::new(5),
            ..Default::default()
        };
        assert!(AgentSwarm::with_config(p.clone(), bad_watch, Box::new(RandomUseful)).is_err());
        let bad_eta = AgentConfig {
            retry_speedup: 0.5,
            ..Default::default()
        };
        assert!(AgentSwarm::with_config(p.clone(), bad_eta, Box::new(RandomUseful)).is_err());
        let bad_snap = AgentConfig {
            snapshot_interval: 0.0,
            ..Default::default()
        };
        assert!(AgentSwarm::with_config(p.clone(), bad_snap, Box::new(RandomUseful)).is_err());
        assert!(AgentSwarm::new(p).is_ok());
    }

    #[test]
    fn flash_schedule_validation() {
        let p = params(2, 1.0, 1.0, 2.0, 1.0);
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bad_time = FlashCrowd {
            time: -1.0,
            count: 5,
            pieces: PieceSet::empty(),
        };
        assert!(sim
            .run_with_schedule(&[], &[bad_time], 10.0, &mut rng)
            .is_err());
        let bad_type = FlashCrowd {
            time: 1.0,
            count: 5,
            pieces: PieceSet::singleton(PieceId::new(7)),
        };
        assert!(sim
            .run_with_schedule(&[], &[bad_type], 10.0, &mut rng)
            .is_err());
        // Populations are bounded by the kernels' u32 peer indices; the
        // check runs without allocating and cannot overflow.
        let crowd = |count| FlashCrowd {
            time: 1.0,
            count,
            pieces: PieceSet::empty(),
        };
        assert!(sim.validate_run(&[], &[crowd(MAX_PEERS)]).is_ok());
        assert!(sim
            .validate_run(&[PieceSet::empty()], &[crowd(MAX_PEERS)])
            .is_err());
        assert!(sim
            .validate_run(&[], &[crowd(usize::MAX), crowd(usize::MAX)])
            .is_err());
    }

    #[test]
    fn gamma_infinite_rejects_injected_complete_peers() {
        // With immediate departure a complete peer would never leave (a
        // phantom permanent seed), so validation refuses it in both the
        // initial population and flash crowds; finite γ allows it.
        let p = params(2, 1.0, 1.0, f64::INFINITY, 1.0);
        let sim = AgentSwarm::new(p).unwrap();
        let full = PieceSet::full(2);
        assert!(sim.validate_run(&[full], &[]).is_err());
        let crowd = FlashCrowd {
            time: 1.0,
            count: 5,
            pieces: full,
        };
        assert!(sim.validate_run(&[], &[crowd]).is_err());
        let p = params(2, 1.0, 1.0, 2.0, 1.0);
        let sim = AgentSwarm::new(p).unwrap();
        assert!(sim.validate_run(&[full], &[crowd]).is_ok());
    }

    #[test]
    fn stable_system_keeps_population_bounded() {
        // Example 1 inside the stability region: λ0 = 1 < U_s/(1−µ/γ) = 4.
        let p = params(1, 2.0, 1.0, 2.0, 1.0);
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let result = sim.run(&[], 2_000.0, &mut rng);
        let path = result.peer_count_path();
        let classifier = markov::PathClassifier::new(1.0, 30.0);
        assert_eq!(classifier.classify(&path).class, markov::PathClass::Stable);
        assert!(
            result.sojourns.departures > 100,
            "plenty of peers complete and leave"
        );
    }

    #[test]
    fn transient_system_grows_at_predicted_rate() {
        // Example 1 outside the region: λ0 = 4 > U_s/(1−µ/γ) = 2.
        // The one-club (= type ∅ here) grows at rate ≈ λ0 − U_s/(1−µ/γ) = 2.
        let p = params(1, 1.0, 1.0, 2.0, 4.0);
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let result = sim.run(&[], 1_500.0, &mut rng);
        let trend = result.peer_count_path().trend(0.5);
        assert!(trend.slope > 1.0, "slope {}", trend.slope);
        assert!(
            (trend.slope - 2.0).abs() < 0.7,
            "slope {} should be near 2",
            trend.slope
        );
    }

    #[test]
    fn one_club_initial_condition_grows_when_unstable() {
        // K = 3, no seed help for the watch piece beyond a weak fixed seed.
        let p = params(3, 0.2, 1.0, 4.0, 3.0);
        assert_eq!(
            crate::stability::classify(&p).verdict,
            crate::StabilityVerdict::Transient
        );
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let result = sim.run_from_one_club(100, 500.0, &mut rng);
        let first = result.snapshots.first().unwrap();
        let last = result.final_snapshot();
        assert_eq!(first.groups.one_club, 100);
        assert!(
            last.groups.one_club > 200,
            "one club should keep growing, got {}",
            last.groups.one_club
        );
    }

    #[test]
    fn group_decomposition_partitions_the_population() {
        let p = SwarmParams::builder(3)
            .seed_rate(0.5)
            .contact_rate(1.0)
            .seed_departure_rate(1.5)
            .fresh_arrivals(1.0)
            .arrival(PieceSet::singleton(PieceId::new(0)), 0.3)
            .build()
            .unwrap();
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let result = sim.run(&[], 500.0, &mut rng);
        for snap in &result.snapshots {
            assert_eq!(
                snap.groups.total(),
                snap.total_peers,
                "groups partition peers at t = {}",
                snap.time
            );
        }
        // gifted peers exist because some arrivals carry the watch piece
        assert!(
            result.final_snapshot().groups.gifted > 0
                || result.snapshots.iter().any(|s| s.groups.gifted > 0)
        );
    }

    #[test]
    fn counters_are_monotone_and_consistent() {
        let p = params(2, 1.0, 1.0, 2.0, 1.0);
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let result = sim.run(&[], 300.0, &mut rng);
        let mut prev_d = 0;
        let mut prev_a = 0;
        for s in &result.snapshots {
            assert!(s.watch_piece_downloads >= prev_d);
            assert!(s.arrivals_without_watch >= prev_a);
            prev_d = s.watch_piece_downloads;
            prev_a = s.arrivals_without_watch;
            assert!(
                s.watch_piece_copies <= s.total_peers,
                "at most one copy per peer"
            );
        }
        assert!(result.transfers > 0);
        assert!(result.events > 0);
        assert!(!result.truncated);
    }

    #[test]
    fn gamma_infinite_leaves_no_seeds_in_system() {
        let p = params(2, 1.0, 1.0, f64::INFINITY, 1.0);
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let result = sim.run(&[], 400.0, &mut rng);
        for s in &result.snapshots {
            assert_eq!(s.peer_seeds, 0, "peers depart the instant they complete");
        }
        assert!(result.sojourns.departures > 0);
    }

    #[test]
    fn policies_do_not_change_stability_at_stable_point() {
        // Theorem 14 sanity at small scale: a stable parameter point stays
        // stable under sequential and rarest-first selection.
        let p = params(3, 2.0, 1.0, 2.0, 1.0);
        for policy in [
            Box::new(RarestFirst) as Box<dyn PiecePolicy>,
            Box::new(Sequential) as Box<dyn PiecePolicy>,
        ] {
            let sim = AgentSwarm::with_config(p.clone(), AgentConfig::default(), policy).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            let result = sim.run(&[], 1_000.0, &mut rng);
            let classifier = markov::PathClassifier::new(1.0, 40.0);
            assert_eq!(
                classifier.classify(&result.peer_count_path()).class,
                markov::PathClass::Stable,
                "policy {}",
                sim.policy_name()
            );
        }
    }

    #[test]
    fn retry_speedup_increases_contact_attempts() {
        // With η > 1 a starved uploader retries faster, so the number of
        // unsuccessful contacts grows relative to the base model.
        let p = params(1, 0.2, 1.0, 2.0, 2.0);
        let mut rng = StdRng::seed_from_u64(8);
        let base = AgentSwarm::new(p.clone())
            .unwrap()
            .run(&[], 500.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(8);
        let boosted_cfg = AgentConfig {
            retry_speedup: 10.0,
            ..Default::default()
        };
        let boosted = AgentSwarm::with_config(p, boosted_cfg, Box::new(RandomUseful))
            .unwrap()
            .run(&[], 500.0, &mut rng);
        assert!(
            boosted.unsuccessful_contacts > base.unsuccessful_contacts,
            "boosted {} vs base {}",
            boosted.unsuccessful_contacts,
            base.unsuccessful_contacts
        );
    }

    #[test]
    fn sojourn_times_are_positive_and_reasonable() {
        let p = params(2, 2.0, 1.0, 2.0, 1.0);
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let result = sim.run(&[], 1_000.0, &mut rng);
        assert!(result.sojourns.departures > 50);
        assert!(result.sojourns.mean_sojourn() > 0.0);
        assert!(result.sojourns.max_sojourn >= result.sojourns.mean_sojourn());
    }

    #[test]
    fn truncation_is_reported_and_identical_across_kernels() {
        let p = params(2, 1.0, 1.0, 2.0, 2.0);
        for kernel in [KernelKind::LegacyScan, KernelKind::Turbo] {
            let config = AgentConfig {
                kernel,
                max_events: 500,
                snapshot_interval: 1.0,
                ..Default::default()
            };
            let sim = AgentSwarm::with_config(p.clone(), config, Box::new(RandomUseful)).unwrap();
            let mut rng = StdRng::seed_from_u64(13);
            let result = sim.run(&[], 10_000.0, &mut rng);
            assert!(result.truncated, "500 events cannot reach horizon 10000");
            assert_eq!(result.events, 500, "{kernel:?}");
            assert!(result.horizon < 10_000.0);
            assert_eq!(result.final_snapshot().time, result.horizon);
        }
    }

    #[test]
    fn snapshot_times_sit_on_the_grid_without_drift() {
        let p = params(1, 2.0, 1.0, 2.0, 1.0);
        let config = AgentConfig {
            snapshot_interval: 0.1,
            ..Default::default()
        };
        let sim = AgentSwarm::with_config(p, config, Box::new(RandomUseful)).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let result = sim.run(&[], 2_000.0, &mut rng);
        // With naive `t += 0.1` accumulation the 20000th snapshot drifts by
        // thousands of ulps; on the multiplicative grid it is exact.
        for (i, snap) in result.snapshots.iter().enumerate().skip(1) {
            if i < result.snapshots.len() - 1 {
                let expected = (i as f64) * 0.1;
                assert_eq!(snap.time, expected, "snapshot {i} off the grid");
            }
        }
    }

    #[test]
    fn flash_crowd_joins_at_the_scheduled_time() {
        let p = params(2, 1.0, 1.0, 2.0, 0.5);
        let sim = AgentSwarm::with_config(
            p,
            AgentConfig {
                snapshot_interval: 1.0,
                ..Default::default()
            },
            Box::new(RandomUseful),
        )
        .unwrap();
        let crowd = FlashCrowd {
            time: 50.0,
            count: 300,
            pieces: PieceSet::empty(),
        };
        let mut rng = StdRng::seed_from_u64(19);
        let result = sim
            .run_with_schedule(&[], &[crowd], 100.0, &mut rng)
            .unwrap();
        let before = result
            .snapshots
            .iter()
            .rfind(|s| s.time < 50.0)
            .expect("snapshots before the crowd");
        let after = result
            .snapshots
            .iter()
            .find(|s| s.time > 50.0)
            .expect("snapshots after the crowd");
        assert!(
            after.total_peers >= before.total_peers + 250,
            "crowd of 300 visible: {} -> {}",
            before.total_peers,
            after.total_peers
        );
        // Crowd members arrived empty-handed: they count as arrivals without
        // the watch piece.
        assert!(after.arrivals_without_watch >= before.arrivals_without_watch + 300);
    }

    #[test]
    fn turbo_kernel_is_deterministic_and_scratch_independent() {
        let p = params(3, 0.5, 1.0, 2.0, 1.5);
        let config = AgentConfig {
            kernel: KernelKind::Turbo,
            snapshot_interval: 5.0,
            retry_speedup: 4.0,
            ..Default::default()
        };
        let sim = AgentSwarm::with_config(p, config, Box::new(RandomUseful)).unwrap();
        let club = sim.params().full_type().without(PieceId::new(0));
        let initial = vec![club; 20];
        let mut fresh_rng = StdRng::seed_from_u64(31);
        let fresh = sim
            .run_with_schedule(&initial, &[], 150.0, &mut fresh_rng)
            .unwrap();
        // A warm scratch (already used by a different run) must not change
        // the numbers.
        let mut scratch = SimScratch::new();
        let mut warmup_rng = StdRng::seed_from_u64(99);
        let warmup = sim
            .run_with_scratch(&[], &[], 80.0, &mut warmup_rng, &mut scratch)
            .unwrap();
        scratch.recycle(warmup);
        let mut warm_rng = StdRng::seed_from_u64(31);
        let warm = sim
            .run_with_scratch(&initial, &[], 150.0, &mut warm_rng, &mut scratch)
            .unwrap();
        assert_eq!(fresh, warm, "scratch reuse must not perturb trajectories");
        assert!(fresh.transfers > 0);
    }

    #[test]
    fn turbo_groups_partition_population_and_counters_are_consistent() {
        let p = SwarmParams::builder(3)
            .seed_rate(0.5)
            .contact_rate(1.0)
            .seed_departure_rate(1.5)
            .fresh_arrivals(1.0)
            .arrival(PieceSet::singleton(PieceId::new(0)), 0.3)
            .build()
            .unwrap();
        let config = AgentConfig {
            kernel: KernelKind::Turbo,
            retry_speedup: 6.0,
            ..Default::default()
        };
        let sim = AgentSwarm::with_config(p, config, Box::new(RandomUseful)).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let crowd = FlashCrowd {
            time: 100.0,
            count: 50,
            pieces: PieceSet::empty(),
        };
        let result = sim
            .run_with_schedule(&[], &[crowd], 400.0, &mut rng)
            .unwrap();
        let mut prev_downloads = 0;
        for snap in &result.snapshots {
            assert_eq!(
                snap.groups.total(),
                snap.total_peers,
                "groups partition peers at t = {}",
                snap.time
            );
            assert!(snap.watch_piece_copies <= snap.total_peers);
            assert!(snap.watch_piece_downloads >= prev_downloads);
            prev_downloads = snap.watch_piece_downloads;
        }
        assert!(result.sojourns.departures > 0);
        assert!(result.transfers > 0);
    }

    #[test]
    fn turbo_gamma_infinite_leaves_no_seeds_in_system() {
        let p = params(2, 1.0, 1.0, f64::INFINITY, 1.0);
        let config = AgentConfig {
            kernel: KernelKind::Turbo,
            ..Default::default()
        };
        let sim = AgentSwarm::with_config(p, config, Box::new(RandomUseful)).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let result = sim.run(&[], 400.0, &mut rng);
        for s in &result.snapshots {
            assert_eq!(s.peer_seeds, 0, "peers depart the instant they complete");
        }
        assert!(result.sojourns.departures > 0);
    }

    fn coded_sim(
        kernel: KernelKind,
        k: usize,
        q: u64,
        lambda: f64,
        f: f64,
        us: f64,
        gamma: f64,
    ) -> Result<AgentSwarm, SwarmError> {
        let params = crate::coded::CodedParams::gift_example(k, q, lambda, f, us, 1.0, gamma)?;
        AgentSwarm::with_coded(
            params,
            AgentConfig {
                kernel,
                snapshot_interval: 5.0,
                ..Default::default()
            },
        )
    }

    #[test]
    fn coded_kernel_requires_with_coded_and_vice_versa() {
        let p = params(3, 0.5, 1.0, 2.0, 1.0);
        let config = AgentConfig {
            kernel: KernelKind::Coded,
            ..Default::default()
        };
        assert!(AgentSwarm::with_config(p, config, Box::new(RandomUseful)).is_err());
        let coded =
            crate::coded::CodedParams::gift_example(3, 8, 1.0, 0.5, 0.0, 1.0, f64::INFINITY)
                .unwrap();
        // Coded parameters on a non-coded kernel are rejected...
        assert!(AgentSwarm::with_coded(coded.clone(), AgentConfig::default()).is_err());
        // ...as is the unsupported retry speed-up.
        let boosted = AgentConfig {
            kernel: KernelKind::Coded,
            retry_speedup: 2.0,
            ..Default::default()
        };
        assert!(AgentSwarm::with_coded(coded.clone(), boosted).is_err());
        let ok = AgentSwarm::with_coded(
            coded,
            AgentConfig {
                kernel: KernelKind::Coded,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ok.coded_gifts().is_some());
    }

    #[test]
    fn coded_kernel_stable_case_completes_and_departs() {
        // Generous gifts, K = 3, GF(8): stable per Theorem 15, so peers keep
        // decoding and leaving and the dimension bookkeeping stays exact.
        let (_, hi) = crate::coded::theorem15_gift_thresholds(8, 3);
        let f = (3.0 * hi).min(1.0);
        let sim = coded_sim(KernelKind::Coded, 3, 8, 1.0, f, 0.0, f64::INFINITY).unwrap();
        let mut rng = StdRng::seed_from_u64(51);
        let result = sim.run(&[], 800.0, &mut rng);
        assert!(result.sojourns.departures > 50, "decoders depart");
        assert!(result.transfers > 0);
        let mut prev_decodes = 0;
        for snap in &result.snapshots {
            assert_eq!(snap.groups.total(), snap.total_peers, "groups partition");
            assert_eq!(snap.peer_seeds, 0, "γ = ∞ leaves no decoders behind");
            assert!(snap.watch_piece_copies <= 3 * snap.total_peers, "dim ≤ K");
            assert!(snap.watch_piece_downloads >= prev_decodes);
            prev_decodes = snap.watch_piece_downloads;
        }
        // The final histogram partitions the final population.
        let hist_total: u64 = result.final_dimensions.iter().sum();
        assert_eq!(hist_total, result.final_snapshot().total_peers);
        assert_eq!(result.final_dimensions.len(), 4);
        let classifier = markov::PathClassifier::new(1.0, 40.0);
        assert_eq!(
            classifier.classify(&result.peer_count_path()).class,
            markov::PathClass::Stable
        );
    }

    #[test]
    fn coded_kernel_starved_case_grows_without_departures() {
        // No gifts, no seed: nothing ever decodes.
        let sim = coded_sim(KernelKind::Coded, 3, 8, 1.0, 0.0, 0.0, f64::INFINITY).unwrap();
        let mut rng = StdRng::seed_from_u64(52);
        let result = sim.run(&[], 500.0, &mut rng);
        assert_eq!(result.sojourns.departures, 0);
        assert_eq!(result.transfers, 0, "no knowledge ever enters the swarm");
        let trend = result.peer_count_path().trend(0.5);
        assert!(trend.slope > 0.5, "slope {}", trend.slope);
    }

    #[test]
    fn coded_kernel_finite_gamma_keeps_decoders_and_flash_crowds_inject() {
        let sim = coded_sim(KernelKind::Coded, 3, 8, 1.0, 0.5, 0.5, 2.0).unwrap();
        let crowd = FlashCrowd {
            time: 60.0,
            count: 80,
            pieces: PieceSet::empty(),
        };
        let mut rng = StdRng::seed_from_u64(53);
        let result = sim
            .run_with_schedule(&[], &[crowd], 300.0, &mut rng)
            .unwrap();
        assert!(result.sojourns.departures > 0);
        assert!(
            result.snapshots.iter().any(|s| s.peer_seeds > 0),
            "finite γ lets decoders dwell"
        );
        let before = result.snapshots.iter().rfind(|s| s.time < 60.0).unwrap();
        let after = result.snapshots.iter().find(|s| s.time > 60.0).unwrap();
        assert!(
            after.total_peers >= before.total_peers + 50,
            "crowd visible"
        );
        for snap in &result.snapshots {
            assert_eq!(snap.groups.total(), snap.total_peers);
        }
    }

    #[test]
    fn coded_kernel_is_deterministic_per_seed() {
        let sim = coded_sim(KernelKind::Coded, 4, 4, 1.2, 0.6, 0.3, 3.0).unwrap();
        let initial = vec![PieceSet::singleton(PieceId::new(1)); 15];
        let mut a = StdRng::seed_from_u64(54);
        let mut b = StdRng::seed_from_u64(54);
        let ra = sim.run(&initial, 200.0, &mut a);
        let rb = sim.run(&initial, 200.0, &mut b);
        assert_eq!(ra, rb);
        // Initial piece collections map to unit-vector spans: 15 peers at
        // dimension 1 at time zero.
        assert_eq!(ra.snapshots[0].watch_piece_copies, 15);
        assert_eq!(ra.snapshots[0].total_peers, 15);
    }

    #[test]
    fn coded_turbo_kernel_guards_its_constructor_and_gf2() {
        let p = params(3, 0.5, 1.0, 2.0, 1.0);
        let config = AgentConfig {
            kernel: KernelKind::CodedTurbo,
            ..Default::default()
        };
        // Uncoded parameters cannot select the coded-turbo kernel...
        assert!(AgentSwarm::with_config(p, config, Box::new(RandomUseful)).is_err());
        let gf2 = crate::coded::CodedParams::gift_example(3, 2, 1.0, 0.5, 0.0, 1.0, f64::INFINITY)
            .unwrap();
        // ...coded parameters need the coded-turbo kernel selected...
        assert!(AgentSwarm::with_coded(gf2.clone(), AgentConfig::default()).is_err());
        // ...the retry speed-up stays unsupported...
        let boosted = AgentConfig {
            kernel: KernelKind::CodedTurbo,
            retry_speedup: 2.0,
            ..Default::default()
        };
        assert!(AgentSwarm::with_coded(gf2.clone(), boosted).is_err());
        // ...and GF(q > 2) runs on the RREF kernel, not this one.
        let gf8 = crate::coded::CodedParams::gift_example(3, 8, 1.0, 0.5, 0.0, 1.0, f64::INFINITY)
            .unwrap();
        let turbo_config = AgentConfig {
            kernel: KernelKind::CodedTurbo,
            ..Default::default()
        };
        let err = match AgentSwarm::with_coded(gf8, turbo_config) {
            Err(err) => err,
            Ok(_) => panic!("GF(8) must be rejected by the bitsliced kernel"),
        };
        assert!(err.to_string().contains("GF(8)"), "{err}");
        assert!(AgentSwarm::with_coded(gf2, turbo_config).is_ok());
    }

    #[test]
    fn coded_turbo_stable_case_completes_and_departs() {
        // Generous gifts over GF(2), K = 3: stable per Theorem 15, so peers
        // keep decoding and leaving with the dimension bookkeeping exact.
        let (_, hi) = crate::coded::theorem15_gift_thresholds(2, 3);
        let f = (1.2 * hi).min(1.0);
        let sim = coded_sim(KernelKind::CodedTurbo, 3, 2, 1.0, f, 0.0, f64::INFINITY).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        let result = sim.run(&[], 800.0, &mut rng);
        assert!(result.sojourns.departures > 50, "decoders depart");
        assert!(result.transfers > 0);
        let mut prev_decodes = 0;
        for snap in &result.snapshots {
            assert_eq!(snap.groups.total(), snap.total_peers, "groups partition");
            assert_eq!(snap.peer_seeds, 0, "γ = ∞ leaves no decoders behind");
            assert!(snap.watch_piece_copies <= 3 * snap.total_peers, "dim ≤ K");
            assert!(snap.watch_piece_downloads >= prev_decodes);
            prev_decodes = snap.watch_piece_downloads;
        }
        let hist_total: u64 = result.final_dimensions.iter().sum();
        assert_eq!(hist_total, result.final_snapshot().total_peers);
        assert_eq!(result.final_dimensions.len(), 4);
        let classifier = markov::PathClassifier::new(1.0, 40.0);
        assert_eq!(
            classifier.classify(&result.peer_count_path()).class,
            markov::PathClass::Stable
        );
    }

    #[test]
    fn coded_turbo_finite_gamma_keeps_decoders_and_flash_crowds_inject() {
        let sim = coded_sim(KernelKind::CodedTurbo, 3, 2, 1.0, 0.5, 0.5, 2.0).unwrap();
        let crowd = FlashCrowd {
            time: 60.0,
            count: 80,
            pieces: PieceSet::empty(),
        };
        let mut rng = StdRng::seed_from_u64(62);
        let result = sim
            .run_with_schedule(&[], &[crowd], 300.0, &mut rng)
            .unwrap();
        assert!(result.sojourns.departures > 0);
        assert!(
            result.snapshots.iter().any(|s| s.peer_seeds > 0),
            "finite γ lets decoders dwell"
        );
        let before = result.snapshots.iter().rfind(|s| s.time < 60.0).unwrap();
        let after = result.snapshots.iter().find(|s| s.time > 60.0).unwrap();
        assert!(
            after.total_peers >= before.total_peers + 50,
            "crowd visible"
        );
        for snap in &result.snapshots {
            assert_eq!(snap.groups.total(), snap.total_peers);
        }
    }

    #[test]
    fn coded_turbo_is_deterministic_per_seed_and_scratch_neutral() {
        let sim = coded_sim(KernelKind::CodedTurbo, 4, 2, 1.2, 0.6, 0.3, 3.0).unwrap();
        let initial = vec![PieceSet::singleton(PieceId::new(1)); 15];
        let mut a = StdRng::seed_from_u64(63);
        let mut b = StdRng::seed_from_u64(63);
        let ra = sim.run(&initial, 200.0, &mut a);
        let rb = sim.run(&initial, 200.0, &mut b);
        assert_eq!(ra, rb);
        // Initial piece collections are pure-unit lazy peers: 15 peers at
        // dimension 1 at time zero, nothing materialized.
        assert_eq!(ra.snapshots[0].watch_piece_copies, 15);
        assert_eq!(ra.snapshots[0].total_peers, 15);
        // A warm scratch from a previous replication must not change the
        // trajectory.
        let mut scratch = SimScratch::new();
        let mut warmup = StdRng::seed_from_u64(99);
        let first = sim
            .run_with_scratch(&initial, &[], 200.0, &mut warmup, &mut scratch)
            .unwrap();
        scratch.recycle(first);
        let mut c = StdRng::seed_from_u64(63);
        let rc = sim
            .run_with_scratch(&initial, &[], 200.0, &mut c, &mut scratch)
            .unwrap();
        assert_eq!(ra, rc, "warm scratch is trajectory-neutral");
    }

    #[test]
    fn snapshot_capacity_is_pre_reserved_for_the_grid() {
        // 500 time units at interval 0.5 → 1000 grid snapshots plus the
        // initial and final ones; growth mid-run would show as capacity
        // churn. We can only observe the result, so check the count matches
        // the grid exactly.
        let p = params(1, 2.0, 1.0, 2.0, 1.0);
        let config = AgentConfig {
            snapshot_interval: 0.5,
            ..Default::default()
        };
        let sim = AgentSwarm::with_config(p, config, Box::new(RandomUseful)).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let result = sim.run(&[], 500.0, &mut rng);
        assert_eq!(result.snapshots.len(), 1002, "grid + initial + final");
    }

    #[test]
    fn large_k_swarm_runs_without_type_enumeration() {
        // K = 32 exceeds the 2^K-enumerable limit; the agent simulator must
        // not care (this is the benchmark regime).
        let full = PieceSet::full(32);
        let mut b = SwarmParams::builder(32).seed_rate(1.0).contact_rate(0.5);
        b = b.seed_departure_rate(8.0);
        for i in 0..4 {
            b = b.arrival(full.without(PieceId::new(i)), 0.5);
        }
        let p = b.build().expect("K = 32 parameters validate");
        let sim = AgentSwarm::new(p).unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let result = sim.run(&[], 50.0, &mut rng);
        assert!(result.transfers > 0);
        assert!(result.sojourns.departures > 0);
    }
}
