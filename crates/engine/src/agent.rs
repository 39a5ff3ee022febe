//! Agent-based scenario execution: the peer-level simulator's scenario
//! type and per-replication unit of work.
//!
//! The CTMC path ([`crate::replicate`]) enumerates all `2^K` peer types, so
//! it is capped at small `K` and cannot express per-peer features (policies,
//! retry speed-up, flash crowds, heterogeneous initial populations). The
//! scenario registry in `workload` compiles its specs into
//! [`AgentScenario`]s, which [`crate::Session`] replicates (via
//! [`crate::Workload::agent`]) with the same determinism contract as the
//! CTMC batches: one ChaCha stream per `(master seed, scenario id,
//! replication)`, aggregation in fixed replication order, bit-identical
//! results at any worker count.
//!
//! Truncated replications (runs that hit the simulator's `max_events`
//! safety valve before the horizon) are surfaced per scenario in
//! [`crate::ScenarioOutcome::truncated_replications`] so a verdict
//! derived from clipped trajectories is never silently trusted.
//!
//! Session workers replicate through a per-worker [`SimScratch`] arena: the
//! simulator's peer table, sampling pools, and snapshot buffers are reused
//! across the replications each worker serves (fully so under the turbo
//! kernel), so a batch performs no per-replication reallocation once the
//! buffers reach the workload's high-water mark. The scratch never changes
//! the numbers — batches stay bit-identical at any worker count.

use crate::config::EngineConfig;
use crate::metrics::ReplicationTelemetry;
use crate::replicate::ReplicationOutcome;
use crate::rng::replication_rng;
use pieceset::PieceSet;
use swarm::coded::{theorem15_classify, CodedGifts};
use swarm::sim::{checked_population, AgentConfig, AgentSwarm, FlashCrowd, ShardPlan, SimScratch};
use swarm::{policy, stability, StabilityVerdict, SwarmError, SwarmParams};
use telemetry::{CounterRecorder, CounterSet, NullRecorder, Recorder, Span};

/// One agent-simulator scenario to replicate: model parameters plus the
/// peer-level features the CTMC cannot express.
#[derive(Debug, Clone)]
pub struct AgentScenario {
    /// Stream key of the scenario, unique within a batch.
    pub id: u64,
    /// Label carried into outcomes and artifacts.
    pub label: String,
    /// Model parameters of the point.
    pub params: SwarmParams,
    /// Simulator configuration (watch piece, retry speed-up, snapshot
    /// interval, event cap, kernel).
    pub config: AgentConfig,
    /// Piece-selection policy, by [`policy::by_name`] name.
    pub policy: String,
    /// Initial population as `(type, count)` groups, expanded in order.
    pub initial: Vec<(PieceSet, usize)>,
    /// Scheduled flash crowds.
    pub flash: Vec<FlashCrowd>,
    /// Coded arrival mix of the Section VIII-B network-coded variant. When
    /// present, the scenario runs on [`swarm::sim::KernelKind::Coded`] or —
    /// for GF(2) — the bitsliced [`swarm::sim::KernelKind::CodedTurbo`]
    /// (`config.kernel` picks which), `params` acts as the base parameter
    /// set, and the theory verdict comes from Theorem 15 instead of
    /// Theorem 1.
    pub coding: Option<CodedGifts>,
    /// Intra-replication shard count. `None` or 1 runs unsharded; a value
    /// above 1 runs this scenario's swarm through the sharded turbo driver
    /// ([`swarm::sim::ShardPlan`]), splitting one population across shard
    /// workers inside each replication. Results stay bit-identical at any
    /// [`EngineConfig::jobs`] for a fixed `(master_seed, shards)`; changing
    /// the shard count changes the sampled trajectory.
    pub shards: Option<u32>,
    /// Length of the sharded synchronization window in simulated time:
    /// cross-shard uploads batch into exchange rounds at window
    /// boundaries. `None` uses 0.25; ignored when unsharded.
    pub sync_window: Option<f64>,
}

/// The sharded synchronization window, in simulated time, of a scenario
/// that sets none.
pub(crate) const DEFAULT_SYNC_WINDOW: f64 = 0.25;

impl AgentScenario {
    /// Creates a scenario with the default simulator configuration, the
    /// paper's random-useful policy, an empty system, and no flash crowds.
    #[must_use]
    pub fn new(id: u64, label: impl Into<String>, params: SwarmParams) -> Self {
        AgentScenario {
            id,
            label: label.into(),
            params,
            config: AgentConfig::default(),
            policy: "random-useful".to_owned(),
            initial: Vec::new(),
            flash: Vec::new(),
            coding: None,
            shards: None,
            sync_window: None,
        }
    }

    /// The initial population expanded into one collection per peer.
    #[must_use]
    pub fn initial_population(&self) -> Vec<PieceSet> {
        let total: usize = self.initial.iter().map(|(_, count)| count).sum();
        let mut peers = Vec::with_capacity(total);
        for &(pieces, count) in &self.initial {
            peers.extend(std::iter::repeat_n(pieces, count));
        }
        peers
    }

    /// Builds the configured simulator (validating config and policy).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] for an unknown policy name or
    /// an invalid simulator configuration.
    pub fn build_sim(&self) -> Result<AgentSwarm, SwarmError> {
        if let Some(gifts) = &self.coding {
            if self.policy != "random-useful" {
                return Err(SwarmError::InvalidParameter(format!(
                    "piece policy `{}` does not apply to the coded kernel \
                     (a coded upload is always a random linear combination)",
                    self.policy
                )));
            }
            // `with_coded` rejects a field other than GF(2) on the
            // bitsliced coded-turbo kernel with a typed error that surfaces
            // through the session build.
            return AgentSwarm::with_coded(gifts.with_base(self.params.clone()), self.config);
        }
        let policy = policy::by_name(&self.policy).ok_or_else(|| {
            SwarmError::InvalidParameter(format!("unknown piece policy `{}`", self.policy))
        })?;
        AgentSwarm::with_config(self.params.clone(), self.config, policy)
    }

    /// Fully validates the scenario: simulator configuration, policy,
    /// population bound, initial population, and flash schedule. What this
    /// accepts, [`run_agent_replication`] can run.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] describing the first
    /// violation.
    pub fn validate(&self) -> Result<(), SwarmError> {
        let sim = self.build_sim()?;
        // Bound the counts before `initial_population` allocates by them.
        let initial = self.initial.iter().map(|&(_, count)| count);
        checked_population(initial.chain(self.flash.iter().map(|crowd| crowd.count)))?;
        sim.validate_run(&self.initial_population(), &self.flash)
    }

    /// The scenario's shard plan, running its shard segments on
    /// `shard_jobs` workers, or `None` when it runs unsharded.
    #[must_use]
    pub fn shard_plan(&self, shard_jobs: usize) -> Option<ShardPlan> {
        let shards = self.shards.unwrap_or(1);
        (shards > 1).then(|| {
            ShardPlan::new(shards, self.sync_window.unwrap_or(DEFAULT_SYNC_WINDOW))
                .with_jobs(shard_jobs)
        })
    }

    /// Validates the scenario's sharding settings (the sharded driver
    /// supports the turbo kernel only, and needs a positive finite
    /// synchronization window). Unsharded scenarios always pass.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] describing the first
    /// incompatibility.
    pub fn validate_sharding(&self) -> Result<(), SwarmError> {
        match self.shard_plan(1) {
            Some(plan) => self.build_sim()?.validate_sharded(&plan),
            None => Ok(()),
        }
    }
}

/// Runs replication `replication` of `scenario` on its derived random
/// stream: the agent unit of work, and the way to re-run any replication of
/// any batch in isolation.
///
/// `scratch` lends the run its buffers and gets the snapshot buffer back,
/// so a warm scratch allocates nothing per replication. A scenario with
/// more than one effective shard runs through the sharded turbo driver on
/// `shard_jobs` worker threads. With [`EngineConfig::metrics`] set, the
/// run is metered through one [`CounterRecorder`] per shard (folded in
/// shard order) and timed; otherwise it runs through the no-op
/// [`NullRecorder`] and the telemetry is `None`. Neither the scratch,
/// `shard_jobs` nor metering ever changes the [`ReplicationOutcome`].
///
/// # Errors
///
/// Returns [`SwarmError::InvalidParameter`] if the scenario's policy or
/// configuration is invalid, its flash schedule fails validation, or its
/// sharding settings are incompatible with the kernel.
pub fn run_agent_replication(
    scenario: &AgentScenario,
    config: &EngineConfig,
    replication: u32,
    scratch: &mut SimScratch,
    shard_jobs: usize,
) -> Result<(ReplicationOutcome, Option<ReplicationTelemetry>), SwarmError> {
    let plan = scenario.shard_plan(shard_jobs);
    if !config.metrics {
        return run_recorded(scenario, config, replication, scratch, plan, NullRecorder)
            .map(|(outcome, _, _)| (outcome, None));
    }
    let (outcome, recorders, wall_seconds) = run_recorded(
        scenario,
        config,
        replication,
        scratch,
        plan,
        CounterRecorder::new(),
    )?;
    let mut counters = CounterSet::new();
    for recorder in &recorders {
        counters.merge(&recorder.counters);
    }
    let telemetry = ReplicationTelemetry {
        counters,
        wall_seconds,
    };
    Ok((outcome, Some(telemetry)))
}

/// [`run_agent_replication`] through one `recorder` per shard, returning
/// the recorders and, when `T` is enabled, the simulator's wall time.
fn run_recorded<T: Recorder + Clone + Send>(
    scenario: &AgentScenario,
    config: &EngineConfig,
    replication: u32,
    scratch: &mut SimScratch,
    plan: Option<ShardPlan>,
    recorder: T,
) -> Result<(ReplicationOutcome, Vec<T>, f64), SwarmError> {
    let sim = scenario.build_sim()?;
    let (initial, flash) = (scenario.initial_population(), &scenario.flash);
    let mut rng = replication_rng(config.master_seed, scenario.id, u64::from(replication));
    let shards = plan.as_ref().map_or(1, |plan| plan.shards as usize);
    let mut recorders = vec![recorder; shards];
    let span = T::ENABLED.then(Span::start);
    let result = match &plan {
        Some(plan) => sim.run_sharded_metered(
            &initial,
            flash,
            config.horizon,
            plan,
            &mut rng,
            &mut recorders,
        )?,
        None => {
            let recorder = &mut recorders[0];
            sim.run_metered(&initial, flash, config.horizon, &mut rng, scratch, recorder)?
        }
    };
    let wall_seconds = span.map_or(0.0, |span| span.seconds());
    let outcome = classify_result(scenario, replication, &result, initial.len());
    scratch.recycle(result);
    Ok((outcome, recorders, wall_seconds))
}

/// Classifies a finished simulator run into the replication outcome.
fn classify_result(
    scenario: &AgentScenario,
    replication: u32,
    result: &swarm::metrics::SimResult,
    initial_peers: usize,
) -> ReplicationOutcome {
    let classifier = scenario.params.path_classifier(initial_peers);
    let verdict = classifier.classify(&result.peer_count_path());
    ReplicationOutcome {
        replication,
        class: verdict.class,
        tail_slope: verdict.tail_slope,
        tail_average: verdict.tail_average,
        events: result.events,
        transfers: result.transfers,
        truncated: result.truncated,
    }
}

/// The theory verdict for an agent scenario: Theorem 15 for coded
/// scenarios (whose uncoded Theorem 1 analysis would mis-classify gifted
/// coded arrivals; arrival mixes outside the closed-form d ∈ {0, 1} case
/// have no quoted threshold and report as borderline rather than a guess),
/// Theorem 1 otherwise.
pub(crate) fn scenario_theory(scenario: &AgentScenario) -> StabilityVerdict {
    match &scenario.coding {
        Some(gifts) => theorem15_classify(&gifts.with_base(scenario.params.clone()))
            .unwrap_or(StabilityVerdict::Borderline),
        None => stability::classify(&scenario.params).verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::ScenarioOutcome;
    use crate::session::{Session, Workload};
    use pieceset::PieceId;

    /// The Session-backed equivalent of the old `run_agent_batch` free
    /// function, kept as a local helper so these unit tests read the same.
    fn run_agent_batch(
        scenarios: &[AgentScenario],
        config: &EngineConfig,
    ) -> Result<Vec<ScenarioOutcome>, crate::Error> {
        let session = Session::builder()
            .config(*config)
            .workload(Workload::agent(scenarios.to_vec()))
            .build()?;
        Ok(session.run().into_agent().expect("agent workload"))
    }

    fn example1(lambda0: f64) -> SwarmParams {
        SwarmParams::builder(1)
            .seed_rate(1.0)
            .contact_rate(1.0)
            .seed_departure_rate(2.0)
            .fresh_arrivals(lambda0)
            .build()
            .expect("valid parameters")
    }

    fn quick_config() -> EngineConfig {
        EngineConfig::default()
            .with_replications(3)
            .with_horizon(250.0)
            .with_master_seed(0xA6E7)
            .with_jobs(2)
    }

    #[test]
    fn batch_is_deterministic_across_worker_counts() {
        let scenarios = vec![
            AgentScenario::new(0, "stable", example1(0.6)),
            AgentScenario::new(1, "transient", example1(4.0)),
        ];
        let seq = run_agent_batch(
            &scenarios,
            &EngineConfig {
                jobs: 1,
                ..quick_config()
            },
        )
        .unwrap();
        let par = run_agent_batch(
            &scenarios,
            &EngineConfig {
                jobs: 8,
                ..quick_config()
            },
        )
        .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq[0].theory, StabilityVerdict::PositiveRecurrent);
        assert_eq!(seq[1].theory, StabilityVerdict::Transient);
        assert_eq!(seq[0].votes.total(), 3);
        // Agreement is the share of votes that match the theory verdict.
        for (outcome, agreeing) in [
            (&seq[0], seq[0].votes.stable),
            (&seq[1], seq[1].votes.growing),
        ] {
            let expected = f64::from(agreeing) / f64::from(outcome.votes.total());
            assert_eq!(outcome.agreement, expected, "{}", outcome.label);
        }
    }

    #[test]
    fn turbo_batches_are_deterministic_and_scratch_neutral() {
        use swarm::sim::KernelKind;
        let mut scenario = AgentScenario::new(0, "turbo", example1(0.8));
        scenario.config.kernel = KernelKind::Turbo;
        let scenarios = vec![scenario.clone(), {
            let mut s = AgentScenario::new(1, "turbo-hot", example1(3.0));
            s.config.kernel = KernelKind::Turbo;
            s
        }];
        // jobs=1 routes every replication through ONE warm scratch; jobs=8
        // spreads them over fresh ones — identical outcomes prove the
        // scratch never leaks state between replications.
        let seq = run_agent_batch(
            &scenarios,
            &EngineConfig {
                jobs: 1,
                ..quick_config()
            },
        )
        .unwrap();
        let par = run_agent_batch(
            &scenarios,
            &EngineConfig {
                jobs: 8,
                ..quick_config()
            },
        )
        .unwrap();
        assert_eq!(seq, par);
        // And a replication on a fresh scratch matches one on a scratch
        // warmed by another replication.
        let run = |scratch: &mut SimScratch| {
            run_agent_replication(&scenarios[0], &quick_config(), 0, scratch, 1).unwrap()
        };
        let lone = run(&mut SimScratch::new());
        let mut scratch = SimScratch::new();
        run_agent_replication(&scenarios[1], &quick_config(), 2, &mut scratch, 1).unwrap();
        assert_eq!(lone, run(&mut scratch));
    }

    #[test]
    fn unknown_policy_is_rejected_up_front() {
        let mut scenario = AgentScenario::new(0, "bad", example1(1.0));
        scenario.policy = "telepathic".into();
        assert!(run_agent_batch(&[scenario], &quick_config()).is_err());
    }

    #[test]
    fn invalid_flash_schedule_is_an_error_not_a_worker_panic() {
        let mut scenario = AgentScenario::new(0, "bad-flash", example1(1.0));
        scenario.flash = vec![FlashCrowd {
            time: -5.0,
            count: 3,
            pieces: PieceSet::empty(),
        }];
        assert!(run_agent_batch(&[scenario], &quick_config()).is_err());
    }

    #[test]
    fn oversized_populations_are_an_error_not_an_allocation_panic() {
        // Counts past the kernels' u32 peer indices, alone or by an
        // overflowing sum, are rejected before any peer table is sized.
        let mut scenario = AgentScenario::new(0, "huge", example1(1.0));
        scenario.initial = vec![(PieceSet::empty(), usize::MAX)];
        assert!(scenario.validate().is_err());
        scenario.initial = vec![(PieceSet::empty(), usize::MAX / 2 + 1); 2];
        assert!(scenario.validate().is_err());
        scenario.initial.clear();
        scenario.flash = vec![FlashCrowd {
            time: 1.0,
            count: swarm::sim::MAX_PEERS + 1,
            pieces: PieceSet::empty(),
        }];
        assert!(run_agent_batch(&[scenario], &quick_config()).is_err());
    }

    #[test]
    fn complete_initial_peers_with_immediate_departure_are_rejected() {
        // γ = ∞ (immediate departure): injecting full collections would
        // create immortal phantom seeds, so validation refuses them.
        let params = SwarmParams::builder(2)
            .seed_rate(1.0)
            .fresh_arrivals(1.0)
            .build()
            .unwrap();
        let mut scenario = AgentScenario::new(0, "phantom-seeds", params);
        scenario.initial = vec![(PieceSet::full(2), 10)];
        assert!(run_agent_batch(&[scenario.clone()], &quick_config()).is_err());
        // The same groups with finite γ are the legitimate multi-seed case.
        let finite = SwarmParams::builder(2)
            .seed_rate(1.0)
            .seed_departure_rate(1.0)
            .fresh_arrivals(1.0)
            .build()
            .unwrap();
        scenario.params = finite;
        assert!(run_agent_batch(&[scenario], &quick_config()).is_ok());
    }

    #[test]
    fn truncation_is_surfaced_in_the_outcome() {
        let mut scenario = AgentScenario::new(0, "clipped", example1(2.0));
        scenario.config.max_events = 200;
        let outcomes = run_agent_batch(&[scenario], &quick_config()).unwrap();
        assert_eq!(outcomes[0].truncated_replications, 3);
        assert!(outcomes[0].mean_events <= 200.0);
    }

    #[test]
    fn initial_population_and_flash_are_honoured() {
        let params = SwarmParams::builder(3)
            .seed_rate(0.5)
            .contact_rate(1.0)
            .seed_departure_rate(2.0)
            .fresh_arrivals(0.5)
            .build()
            .unwrap();
        let mut scenario = AgentScenario::new(7, "club+crowd", params);
        let club = PieceSet::full(3).without(PieceId::new(0));
        scenario.initial = vec![(club, 40), (PieceSet::empty(), 10)];
        scenario.flash = vec![FlashCrowd {
            time: 50.0,
            count: 100,
            pieces: PieceSet::empty(),
        }];
        assert_eq!(scenario.initial_population().len(), 50);
        let (outcome, telemetry) =
            run_agent_replication(&scenario, &quick_config(), 0, &mut SimScratch::new(), 1)
                .unwrap();
        assert_eq!(telemetry, None, "metrics are off");
        // 50 initial + crowd of 100 minus departures: the tail average must
        // reflect a populated system.
        assert!(outcome.tail_average > 10.0);
    }
}
