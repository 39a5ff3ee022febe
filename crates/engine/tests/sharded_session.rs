//! Session-level contract of intra-replication sharding and the non-finite
//! rejection path it motivated.
//!
//! The core crate pins the sharded driver's own guarantees
//! (`crates/core/tests/sharded_distributional.rs`); this suite pins what
//! the *engine* adds on top:
//!
//! * a sharded scenario streams bit-identical records at any `--jobs`
//!   value for a fixed `(seed, shards, sync_window)`, metered or not,
//!   and the merged telemetry satisfies the partition identities;
//! * an invalid sharding setup (a non-turbo kernel) is rejected at
//!   `Session::build` time, before any replication runs;
//! * chaos panics inside a sharded replication surface through the
//!   quarantine machinery as typed, ordered failures, with the survivors
//!   bit-identical to a fault-free run;
//! * a replication classified with a non-finite statistic (the
//!   `FaultKind::Nan` chaos) becomes a typed failure counted in
//!   [`StreamStats::non_finite`] under quarantine — never a silently-NaN
//!   aggregate — and aborts loudly under fail-fast.

use engine::{
    AgentScenario, EngineConfig, FailurePolicy, FaultPlan, ReplicationFailure, ReplicationRecord,
    ReplicationSink, Session, StreamStats, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use swarm::sim::KernelKind;
use swarm::SwarmParams;
use telemetry::Counter;

fn example1(lambda0: f64) -> SwarmParams {
    SwarmParams::builder(2)
        .seed_rate(1.5)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(lambda0)
        .build()
        .expect("valid parameters")
}

/// One sharded turbo scenario (4 shards) and one unsharded companion.
fn scenarios() -> Vec<AgentScenario> {
    let mut sharded = AgentScenario::new(0, "sharded", example1(1.2));
    sharded.config.kernel = KernelKind::Turbo;
    sharded.shards = Some(4);
    sharded.sync_window = Some(0.5);
    let mut plain = AgentScenario::new(1, "plain", example1(0.8));
    plain.config.kernel = KernelKind::Turbo;
    vec![sharded, plain]
}

fn config(jobs: usize) -> EngineConfig {
    EngineConfig::default()
        .with_replications(4)
        .with_horizon(120.0)
        .with_master_seed(0x005A_ADED)
        .with_jobs(jobs)
}

#[derive(Default)]
struct Collector {
    records: Vec<ReplicationRecord>,
    failures: Vec<ReplicationFailure>,
    stats: Option<StreamStats>,
}

impl ReplicationSink for Collector {
    fn record(&mut self, record: &ReplicationRecord) {
        self.records.push(*record);
    }
    fn failure(&mut self, failure: &ReplicationFailure) {
        self.failures.push(failure.clone());
    }
    fn end(&mut self, stats: &StreamStats) {
        self.stats = Some(stats.clone());
    }
}

fn stream(
    jobs: usize,
    metrics: bool,
    policy: FailurePolicy,
    faults: Option<FaultPlan>,
) -> Collector {
    let mut builder = Session::builder()
        .config(
            config(jobs)
                .with_metrics(metrics)
                .with_failure_policy(policy),
        )
        .workload(Workload::agent(scenarios()));
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let mut sink = Collector::default();
    builder.build().expect("valid session").stream(&mut sink);
    sink
}

/// Strips the telemetry side channel for payload comparison.
fn bare(records: &[ReplicationRecord]) -> Vec<ReplicationRecord> {
    records
        .iter()
        .map(|r| ReplicationRecord {
            telemetry: None,
            ..*r
        })
        .collect()
}

#[test]
fn sharded_scenarios_stream_bit_identically_at_any_jobs() {
    // jobs > tasks gives each replication surplus workers for its shard
    // segments; jobs = 1 runs everything inline. Same bytes either way.
    let reference = stream(1, false, FailurePolicy::FailFast, None);
    assert_eq!(reference.records.len(), 8);
    for jobs in [2, 4, 16] {
        for metrics in [false, true] {
            let run = stream(jobs, metrics, FailurePolicy::FailFast, None);
            assert_eq!(
                bare(&run.records),
                bare(&reference.records),
                "jobs = {jobs}, metrics = {metrics}"
            );
        }
    }
}

#[test]
fn sharded_telemetry_merges_shard_counters_into_the_partition_identities() {
    let run = stream(2, true, FailurePolicy::FailFast, None);
    for record in &run.records {
        let telemetry = record.telemetry.as_ref().expect("metered record");
        let c = &telemetry.counters;
        assert_eq!(
            c.event_total(),
            record.events,
            "scenario {} replication {}: arrivals + contacts + departure \
             events must partition the merged event total",
            record.scenario_id,
            record.replication,
        );
        assert_eq!(
            c.get(Counter::Contacts),
            c.get(Counter::UsefulTransfers) + c.get(Counter::UselessContacts),
        );
    }
}

#[test]
fn a_sharded_non_turbo_scenario_is_rejected_at_build_time() {
    let coded = swarm::coded::CodedParams::gift_example(2, 2, 1.0, 0.5, 1.5, 1.0, 2.0)
        .expect("valid coded parameters");
    let mut scenario = AgentScenario::new(0, "bad", coded.base.clone());
    scenario.coding = Some(coded.gifts());
    scenario.config.kernel = KernelKind::Coded;
    scenario.shards = Some(4);
    let error = Session::builder()
        .config(config(1))
        .workload(Workload::agent(vec![scenario]))
        .build()
        .expect_err("the coded kernel cannot shard");
    let message = error.to_string();
    assert!(
        message.contains("turbo"),
        "the error names the kernel constraint: {message}"
    );
    assert!(
        message.contains("coded kernel is not sharded") && !message.contains("parity"),
        "the error names the coded kernel, not the deleted parity kernels: {message}"
    );
}

#[test]
fn chaos_panics_in_a_sharded_scenario_quarantine_as_typed_ordered_failures() {
    let fault_free = stream(1, false, FailurePolicy::FailFast, None);
    let plan = FaultPlan::new().panic_at(0, 1).panic_at(0, 3);
    for jobs in [1, 4] {
        let run = stream(
            jobs,
            false,
            FailurePolicy::Quarantine {
                max_failures: u32::MAX,
            },
            Some(plan.clone()),
        );
        // Survivors are the fault-free records minus the killed keys, in
        // the same (scenario, replication) order.
        let expected: Vec<ReplicationRecord> = fault_free
            .records
            .iter()
            .filter(|r| !(r.scenario_id == 0 && (r.replication == 1 || r.replication == 3)))
            .copied()
            .collect();
        assert_eq!(run.records, expected, "jobs = {jobs}");
        assert_eq!(run.failures.len(), 2, "jobs = {jobs}");
        for (failure, replication) in run.failures.iter().zip([1u32, 3]) {
            assert_eq!(failure.scenario_id, 0);
            assert_eq!(failure.replication, replication);
            assert!(failure.payload.contains("injected fault"));
        }
        assert_eq!(run.stats.as_ref().expect("stream ended").failed, 2);
    }
}

#[test]
fn a_nan_classified_replication_is_a_typed_failure_not_a_poisoned_aggregate() {
    let fault_free = stream(1, false, FailurePolicy::FailFast, None);
    let plan = FaultPlan::new().nan_at(1, 2);
    for jobs in [1, 3] {
        let run = stream(
            jobs,
            false,
            FailurePolicy::Quarantine {
                max_failures: u32::MAX,
            },
            Some(plan.clone()),
        );
        // The poisoned replication is rejected, not aggregated: survivors
        // are bit-identical to the fault-free run minus that one record.
        let expected: Vec<ReplicationRecord> = fault_free
            .records
            .iter()
            .filter(|r| !(r.scenario_id == 1 && r.replication == 2))
            .copied()
            .collect();
        assert_eq!(run.records, expected, "jobs = {jobs}");
        let [failure] = run.failures.as_slice() else {
            panic!("exactly one typed failure, got {:?}", run.failures);
        };
        assert_eq!((failure.scenario_id, failure.replication), (1, 2));
        assert!(
            failure.payload.starts_with("non-finite statistic"),
            "payload: {}",
            failure.payload
        );
        let stats = run.stats.as_ref().expect("stream ended");
        assert_eq!(stats.failed, 1);
        assert_eq!(
            stats.non_finite, 1,
            "the rejection is visible in the end-frame accounting"
        );
        // No surviving record carries a non-finite statistic.
        for record in &run.records {
            assert!(record.tail_slope.is_finite() && record.tail_average.is_finite());
        }
    }
}

#[test]
fn a_nan_classified_replication_aborts_loudly_under_failfast() {
    let plan = FaultPlan::new().nan_at(1, 2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        stream(1, false, FailurePolicy::FailFast, Some(plan));
    }));
    let payload = result.expect_err("fail-fast must abort on a non-finite statistic");
    let message = payload
        .downcast_ref::<String>()
        .expect("string panic payload");
    assert!(
        message.contains("non-finite statistic"),
        "payload: {message}"
    );
}
