//! Engine configuration: replication budget, horizon, seeding, parallelism.

use serde::{Deserialize, Serialize};

/// What the engine does when a replication fails (panics, or trips an
/// internal invariant that validation should have made impossible).
///
/// Failure handling happens *per replication* inside the worker that runs
/// it, before the result enters the in-order delivery frontier — so under
/// every policy the records a sink does receive stay bit-identical to a
/// fault-free run at any [`EngineConfig::jobs`] value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Let the panic propagate and abort the whole session — the engine's
    /// historical behaviour, and still the default.
    #[default]
    FailFast,
    /// Catch the panic and deliver a typed
    /// [`crate::ReplicationFailure`] in stream order instead of aborting;
    /// the surviving replications are unaffected. If more than
    /// `max_failures` replications fail, the session aborts anyway (the
    /// budget caps how much of a batch may silently go missing).
    Quarantine {
        /// Maximum tolerated failures before the session aborts
        /// (`u32::MAX` = never abort).
        max_failures: u32,
    },
    /// Re-run a failed replication on the same derived random stream up to
    /// `attempts` total attempts, sleeping `backoff_ms × attempt` between
    /// tries (0 = no sleep). A retry that succeeds is bit-identical to a
    /// replication that never failed — the stream key, not the attempt,
    /// seeds the RNG. A replication still failing after the last attempt
    /// is quarantined (delivered as a failure record, without a budget).
    Retry {
        /// Total attempts per replication (clamped to at least 1).
        attempts: u32,
        /// Linear backoff step between attempts, in milliseconds.
        backoff_ms: u64,
    },
}

/// Configuration of a Monte-Carlo batch run.
///
/// The worker count ([`EngineConfig::jobs`]) affects scheduling only; for a
/// fixed `master_seed` every aggregate the engine reports is bit-for-bit
/// identical at any `jobs` value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Replications simulated per scenario (the Monte-Carlo sample size).
    pub replications: u32,
    /// Simulated horizon per replication.
    pub horizon: f64,
    /// Master seed; every replication derives its own independent stream
    /// from `(master_seed, scenario id, replication id)`.
    pub master_seed: u64,
    /// Worker threads (0 = one per available core).
    pub jobs: usize,
    /// Report batch progress on stderr.
    pub progress: bool,
    /// Collect per-replication kernel counters and wall times (agent
    /// workloads). Metering never touches the random streams, so results
    /// are bit-identical with it on or off; it only populates
    /// [`crate::ReplicationRecord::telemetry`].
    pub metrics: bool,
    /// What to do when a replication fails (see [`FailurePolicy`]).
    pub failure_policy: FailurePolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            replications: 8,
            horizon: 2_000.0,
            master_seed: 0x5EED_0CAF_E5EE_D000,
            jobs: 0,
            progress: false,
            metrics: false,
            failure_policy: FailurePolicy::FailFast,
        }
    }
}

impl EngineConfig {
    /// Sets the replication count (clamped to at least 1).
    #[must_use]
    pub fn with_replications(mut self, replications: u32) -> Self {
        self.replications = replications.max(1);
        self
    }

    /// Sets the simulated horizon per replication (finite and positive;
    /// [`crate::SessionBuilder::build`] rejects anything else).
    #[must_use]
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Sets the worker-thread count (0 = one per available core).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enables or disables stderr progress reporting.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Enables or disables per-replication telemetry collection.
    #[must_use]
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the failure policy (see [`FailurePolicy`]).
    #[must_use]
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_methods_compose() {
        let config = EngineConfig::default()
            .with_replications(0)
            .with_horizon(10.0)
            .with_master_seed(1)
            .with_jobs(3)
            .with_progress(true)
            .with_metrics(true)
            .with_failure_policy(FailurePolicy::Quarantine { max_failures: 2 });
        assert_eq!(config.replications, 1, "clamped to at least one");
        assert_eq!(config.horizon, 10.0);
        assert_eq!(config.master_seed, 1);
        assert_eq!(config.jobs, 3);
        assert!(config.progress);
        assert!(config.metrics);
        assert_eq!(
            config.failure_policy,
            FailurePolicy::Quarantine { max_failures: 2 }
        );
    }

    #[test]
    fn failure_policy_defaults_to_fail_fast() {
        assert_eq!(
            EngineConfig::default().failure_policy,
            FailurePolicy::FailFast
        );
        assert_eq!(FailurePolicy::default(), FailurePolicy::FailFast);
    }
}
