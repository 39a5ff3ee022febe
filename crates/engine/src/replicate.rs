//! The replication and outcome types every workload kind shares, plus the
//! CTMC scenario and its per-replication unit of work. Batches run through
//! [`crate::Session`] (via [`crate::Workload::ctmc`] or
//! [`crate::Workload::agent`]), which aggregates them into majority-vote
//! verdicts with streaming statistics.

use crate::config::EngineConfig;
use crate::rng::replication_rng;
use crate::stats::Estimate;
use markov::PathClass;
use serde::{Deserialize, Serialize};
use swarm::{StabilityVerdict, SwarmModel, SwarmParams};

/// One parameter point to replicate.
///
/// The `id` keys the scenario's random streams (see [`crate::rng`]); ids
/// must be unique within a batch, and keeping an id stable across runs
/// keeps the scenario's draws stable even if the batch around it changes.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stream key of the scenario, unique within a batch.
    pub id: u64,
    /// Label carried into outcomes and artifacts.
    pub label: String,
    /// Model parameters of the point.
    pub params: SwarmParams,
}

impl Scenario {
    /// Creates a labelled scenario.
    #[must_use]
    pub fn new(id: u64, label: impl Into<String>, params: SwarmParams) -> Self {
        Scenario {
            id,
            label: label.into(),
            params,
        }
    }
}

/// The result of one replication of one scenario, CTMC or agent. The
/// type-count CTMC counts no events or transfers and never truncates, so
/// its replications report 0, 0 and `false` there.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationOutcome {
    /// Replication index within the scenario.
    pub replication: u32,
    /// Classification of the simulated peer-count path.
    pub class: PathClass,
    /// Tail growth rate of the peer count (peers per unit time).
    pub tail_slope: f64,
    /// Time-average of the peer count over the tail window.
    pub tail_average: f64,
    /// Simulated events executed.
    pub events: u64,
    /// Successful piece (or coded-combination) transfers executed.
    pub transfers: u64,
    /// `true` if the run hit the `max_events` safety valve before the
    /// horizon (its classification covers a clipped trajectory).
    pub truncated: bool,
}

/// Vote counts over a scenario's replications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassVotes {
    /// Replications classified as stable.
    pub stable: u32,
    /// Replications classified as growing.
    pub growing: u32,
    /// Replications with no decisive classification.
    pub indeterminate: u32,
}

impl ClassVotes {
    /// Records one replication's class.
    pub fn push(&mut self, class: PathClass) {
        match class {
            PathClass::Stable => self.stable += 1,
            PathClass::Growing => self.growing += 1,
            PathClass::Indeterminate => self.indeterminate += 1,
        }
    }

    /// Total votes recorded.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.stable + self.growing + self.indeterminate
    }

    /// The majority-vote class; a stable/growing tie (or an indeterminate
    /// plurality) is reported as [`PathClass::Indeterminate`].
    #[must_use]
    pub fn majority(&self) -> PathClass {
        if self.stable > self.growing && self.stable >= self.indeterminate {
            PathClass::Stable
        } else if self.growing > self.stable && self.growing >= self.indeterminate {
            PathClass::Growing
        } else {
            PathClass::Indeterminate
        }
    }
}

/// Aggregated outcome of one scenario's replication batch, CTMC or agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// The scenario's stream key.
    pub scenario_id: u64,
    /// The scenario's label.
    pub label: String,
    /// The theory verdict for the parameter point: Theorem 1's, or
    /// Theorem 15's for a coded agent scenario.
    pub theory: StabilityVerdict,
    /// Per-class vote counts.
    pub votes: ClassVotes,
    /// Majority-vote classification.
    pub majority: PathClass,
    /// Tail growth rate across replications, with confidence interval.
    pub tail_slope: Estimate,
    /// Tail-average peer count across replications, with confidence
    /// interval.
    pub tail_average: Estimate,
    /// Fraction of replications whose class agrees with theory
    /// (borderline points count every replication as agreeing).
    pub agreement: f64,
    /// Whether the majority vote agrees with theory (borderline → true).
    pub agrees: bool,
    /// Number of replications clipped by the `max_events` safety valve —
    /// non-zero means the verdict rests on truncated trajectories.
    pub truncated_replications: u32,
    /// Mean simulated events per replication (0 for CTMC scenarios).
    pub mean_events: f64,
    /// Replications quarantined by the failure policy: they contribute no
    /// vote and no sample, so `votes.total()` can fall short of the
    /// configured replication count by exactly this amount.
    pub failed_replications: u32,
}

/// Whether a simulated classification is consistent with Theorem 1's
/// verdict. Borderline points (left open by the theorem) are counted as
/// agreeing with any simulated behaviour.
#[must_use]
pub fn verdict_agrees(theory: StabilityVerdict, simulated: PathClass) -> bool {
    match theory {
        StabilityVerdict::PositiveRecurrent => simulated == PathClass::Stable,
        StabilityVerdict::Transient => simulated == PathClass::Growing,
        StabilityVerdict::Borderline => true,
    }
}

/// Runs replication `replication` of `scenario`, from an empty system, on
/// its derived random stream: the CTMC unit of work, and the way to
/// reproduce any replication of any batch in isolation. `model` must be
/// built from `scenario.params`; building it once per scenario avoids a
/// per-replication `2^K` type-space rebuild.
#[must_use]
pub fn run_replication_on(
    model: &SwarmModel,
    scenario: &Scenario,
    config: &EngineConfig,
    replication: u32,
) -> ReplicationOutcome {
    let mut rng = replication_rng(config.master_seed, scenario.id, u64::from(replication));
    let path = model.simulate_peer_count(model.empty_state(), config.horizon, &mut rng);
    let verdict = scenario.params.path_classifier(0).classify(&path);
    ReplicationOutcome {
        replication,
        class: verdict.class,
        tail_slope: verdict.tail_slope,
        tail_average: verdict.tail_average,
        events: 0,
        transfers: 0,
        truncated: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Session, Workload};

    /// The Session-backed equivalent of the old `run_batch` free function,
    /// kept as a local helper so these unit tests read the same.
    fn run_batch(scenarios: &[Scenario], config: &EngineConfig) -> Vec<ScenarioOutcome> {
        Session::builder()
            .config(*config)
            .workload(Workload::ctmc(scenarios.to_vec()))
            .build()
            .expect("valid batch")
            .run()
            .into_ctmc()
            .expect("ctmc workload")
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
            .with_replications(4)
            .with_horizon(250.0)
            .with_master_seed(0xBEEF)
            .with_jobs(2)
    }

    #[test]
    fn majority_vote_rules() {
        let mut votes = ClassVotes::default();
        votes.push(PathClass::Stable);
        votes.push(PathClass::Stable);
        votes.push(PathClass::Growing);
        assert_eq!(votes.majority(), PathClass::Stable);
        votes.push(PathClass::Growing);
        assert_eq!(
            votes.majority(),
            PathClass::Indeterminate,
            "tie is indeterminate"
        );
        assert_eq!(votes.total(), 4);
        assert_eq!(ClassVotes::default().majority(), PathClass::Indeterminate);
    }

    #[test]
    fn single_replication_is_reproducible() {
        let scenario = Scenario::new(3, "point", example1(1.0));
        let config = quick_config();
        let model = SwarmModel::new(scenario.params.clone());
        let run = |replication| run_replication_on(&model, &scenario, &config, replication);
        let a = run(2);
        assert_eq!(a, run(2));
        let c = run(3);
        assert_ne!(
            (a.tail_slope, a.tail_average),
            (c.tail_slope, c.tail_average)
        );
    }

    #[test]
    fn batch_outcomes_keep_input_order_and_count_votes() {
        let scenarios = vec![
            Scenario::new(0, "stable", example1(0.5)),
            Scenario::new(1, "transient", example1(4.0)),
        ];
        let outcomes = run_batch(&scenarios, &quick_config());
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].label, "stable");
        assert_eq!(outcomes[1].label, "transient");
        for outcome in &outcomes {
            assert_eq!(outcome.votes.total(), 4);
            assert_eq!(outcome.tail_slope.n, 4);
            // The type-count CTMC counts no events and never truncates.
            assert_eq!(outcome.truncated_replications, 0);
            assert_eq!(outcome.mean_events, 0.0);
        }
        assert_eq!(outcomes[0].theory, StabilityVerdict::PositiveRecurrent);
        assert_eq!(outcomes[1].theory, StabilityVerdict::Transient);
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(run_batch(&[], &quick_config()).is_empty());
    }

    #[test]
    fn borderline_points_always_count_as_agreeing() {
        use StabilityVerdict::{Borderline, PositiveRecurrent, Transient};
        assert!(verdict_agrees(Borderline, PathClass::Growing));
        assert!(verdict_agrees(Borderline, PathClass::Stable));
        assert!(!verdict_agrees(PositiveRecurrent, PathClass::Growing));
        assert!(!verdict_agrees(Transient, PathClass::Stable));
        assert!(verdict_agrees(Transient, PathClass::Growing));
    }

    #[test]
    fn duplicate_scenario_ids_are_rejected() {
        let scenarios = vec![
            Scenario::new(7, "a", example1(0.5)),
            Scenario::new(7, "b", example1(1.0)),
        ];
        let error = Session::builder()
            .config(quick_config())
            .workload(Workload::ctmc(scenarios))
            .build()
            .expect_err("duplicate ids must be rejected");
        assert_eq!(error, crate::Error::DuplicateScenarioId(7));
        assert!(error.to_string().contains("unique"), "{error}");
    }
}
