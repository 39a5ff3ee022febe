//! Chaos suite: the engine's fault-tolerance contract under injected
//! failures.
//!
//! Every test drives the public `Session` API with a deterministic
//! [`FaultPlan`] and asserts the two properties the fault layer guarantees:
//!
//! 1. **Survivor determinism** — replications that don't fail are
//!    bit-identical to a fault-free run, at any `jobs` value, under every
//!    policy (faults are keyed by stream key, and a retried replication
//!    re-runs on the same derived stream).
//! 2. **Clean aborts** — when the session does abort (`FailFast`, an
//!    exhausted quarantine budget, a panicking sink), the panic that
//!    surfaces is the original payload, not a poisoned-mutex cascade, and
//!    every worker (including ones blocked on the reorder-window condvar)
//!    terminates.
//!
//! The checkpoint tests simulate a crash by panicking mid-delivery and then
//! resume from the surviving checkpoint file, asserting the combined run is
//! byte-identical to an uninterrupted one. Two of them resume checkpoint
//! files kept under `tests/fixtures/`, written by an earlier build, so the
//! checkpoint format and digest hold across commits; two more, written
//! under an earlier turbo draw order and on the retired RREF coded kernel,
//! must be refused.

#![allow(
    clippy::disallowed_methods,
    reason = "test fixtures are written under the system temp directory"
)]

use engine::{
    artifact, AgentScenario, EngineConfig, Error, FailurePolicy, FaultPlan, ReplicationFailure,
    ReplicationRecord, ReplicationSink, Scenario, ScenarioOutcome, Session, StreamPlan,
    StreamStats, Workload,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use swarm::coded::CodedParams;
use swarm::sim::KernelKind;
use swarm::SwarmParams;

/// Collects everything a stream delivers, for byte-level comparison.
#[derive(Debug, Default)]
struct Collector {
    plan: Option<StreamPlan>,
    records: Vec<ReplicationRecord>,
    failures: Vec<ReplicationFailure>,
    stats: Option<StreamStats>,
}

impl ReplicationSink for Collector {
    fn begin(&mut self, plan: &StreamPlan) {
        self.plan = Some(*plan);
    }
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

/// A sink that panics while receiving its `n`-th record (0-based), after
/// forwarding the earlier ones — a deterministic stand-in for a crash in
/// downstream consumer code, positioned in delivery order so it fires at
/// the same frontier at any `jobs` value.
struct PanicAt {
    n: usize,
    inner: Collector,
}

impl ReplicationSink for PanicAt {
    fn begin(&mut self, plan: &StreamPlan) {
        self.inner.begin(plan);
    }
    fn record(&mut self, record: &ReplicationRecord) {
        if self.inner.records.len() == self.n {
            panic!("sink crashed at record {}", self.n);
        }
        self.inner.record(record);
    }
    fn failure(&mut self, failure: &ReplicationFailure) {
        self.inner.failure(failure);
    }
    fn end(&mut self, stats: &StreamStats) {
        self.inner.end(stats);
    }
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

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::new(0, "stable", example1(1.0)),
        Scenario::new(1, "transient", example1(4.0)),
    ]
}

fn config(jobs: usize, policy: FailurePolicy) -> EngineConfig {
    EngineConfig::default()
        .with_replications(6)
        .with_horizon(150.0)
        .with_master_seed(0xC1A05)
        .with_jobs(jobs)
        .with_failure_policy(policy)
}

fn session(jobs: usize, policy: FailurePolicy, faults: Option<FaultPlan>) -> Session {
    let mut builder = Session::builder()
        .config(config(jobs, policy))
        .workload(Workload::ctmc(scenarios()));
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    builder.build().expect("valid session")
}

fn baseline(jobs: usize) -> (Vec<ScenarioOutcome>, Collector) {
    let mut sink = Collector::default();
    let outcomes = session(jobs, FailurePolicy::FailFast, None)
        .stream(&mut sink)
        .into_ctmc()
        .expect("ctmc workload");
    (outcomes, sink)
}

/// A per-test temporary file path (the suite runs tests in parallel, so
/// paths embed the test name).
fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("engine-chaos-{}-{name}.ckpt", std::process::id()))
}

#[test]
fn quarantine_survivors_are_bit_identical_to_a_fault_free_run() {
    let (_, fault_free) = baseline(1);
    let killed = [(0u64, 2u32), (1, 5)];
    let plan = FaultPlan::new().panic_at(0, 2).panic_at(1, 5);

    let mut reference: Option<Vec<ScenarioOutcome>> = None;
    for jobs in [1, 4, 8] {
        let mut sink = Collector::default();
        let outcomes = session(
            jobs,
            FailurePolicy::Quarantine {
                max_failures: u32::MAX,
            },
            Some(plan.clone()),
        )
        .stream(&mut sink)
        .into_ctmc()
        .expect("ctmc workload");

        // The survivors are exactly the fault-free records minus the two
        // killed stream keys, in the same order.
        let expected: Vec<ReplicationRecord> = fault_free
            .records
            .iter()
            .filter(|r| !killed.contains(&(r.scenario_id, r.replication)))
            .copied()
            .collect();
        assert_eq!(sink.records, expected, "jobs = {jobs}");

        // The failures surface with their stream keys and payloads.
        assert_eq!(sink.failures.len(), 2, "jobs = {jobs}");
        for (failure, key) in sink.failures.iter().zip(killed) {
            assert_eq!((failure.scenario_id, failure.replication), key);
            assert_eq!(failure.attempts, 1);
            assert!(failure.payload.contains("injected fault"));
        }

        // Accounting: the end frame and the aggregates agree.
        let stats = sink.stats.expect("stream ended");
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.delivered, fault_free.records.len() as u64 - 2);
        assert_eq!(outcomes[0].failed_replications, 1);
        assert_eq!(outcomes[1].failed_replications, 1);

        // And the whole aggregate is identical across worker counts.
        match &reference {
            None => reference = Some(outcomes),
            Some(reference) => assert_eq!(reference, &outcomes, "jobs = {jobs}"),
        }
    }
}

#[test]
fn retry_converges_on_transient_faults_and_matches_the_fault_free_run() {
    let (fault_free_outcomes, fault_free) = baseline(1);
    // Two replications fail twice each before succeeding: Retry with three
    // attempts absorbs them completely.
    let plan = FaultPlan::new().transient_at(0, 1, 2).transient_at(1, 4, 2);
    for jobs in [1, 4] {
        let mut sink = Collector::default();
        let outcomes = session(
            jobs,
            FailurePolicy::Retry {
                attempts: 3,
                backoff_ms: 0,
            },
            Some(plan.clone()),
        )
        .stream(&mut sink)
        .into_ctmc()
        .expect("ctmc workload");
        // Byte-identical to the fault-free run: same records, same
        // aggregates, no failures — the retried attempts reuse the same
        // derived streams.
        assert_eq!(sink.records, fault_free.records, "jobs = {jobs}");
        assert_eq!(outcomes, fault_free_outcomes, "jobs = {jobs}");
        assert!(sink.failures.is_empty());
        let stats = sink.stats.expect("stream ended");
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retries, 4, "two faults × two extra attempts each");
    }
}

#[test]
fn retry_exhaustion_quarantines_with_the_attempt_count() {
    let plan = FaultPlan::new().panic_at(0, 3);
    let mut sink = Collector::default();
    session(
        2,
        FailurePolicy::Retry {
            attempts: 2,
            backoff_ms: 0,
        },
        Some(plan),
    )
    .stream(&mut sink);
    assert_eq!(sink.failures.len(), 1);
    assert_eq!(sink.failures[0].attempts, 2);
    assert_eq!(sink.stats.expect("stream ended").retries, 1);
}

#[test]
fn failfast_still_aborts_with_the_original_panic_payload() {
    let plan = FaultPlan::new().panic_at(1, 0);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = session(2, FailurePolicy::FailFast, Some(plan)).run();
    }));
    let payload = result.expect_err("the session must abort under FailFast");
    let message = payload
        .downcast_ref::<String>()
        .expect("string panic payload");
    assert!(
        message.contains("injected fault: panic at scenario 1 replication 0"),
        "payload: {message}"
    );
}

#[test]
fn exceeding_the_quarantine_budget_aborts() {
    let plan = FaultPlan::new().panic_at(0, 1).panic_at(0, 4);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _ = session(2, FailurePolicy::Quarantine { max_failures: 1 }, Some(plan)).run();
    }));
    let payload = result.expect_err("two failures exceed a budget of one");
    let message = payload
        .downcast_ref::<String>()
        .expect("string panic payload");
    assert!(message.contains("quarantine budget"), "payload: {message}");
}

/// A panicking sink aborts the whole pipeline cleanly: workers that are
/// mid-task or blocked on the reorder-window condvar all wake up and
/// terminate, and the panic that surfaces is the sink's own payload — not
/// a `PoisonError` unwrap from a worker that found the frontier mutex
/// poisoned. (If shutdown deadlocked, this test would hang rather than
/// fail.)
#[test]
fn sink_panic_terminates_blocked_workers_without_poison_cascades() {
    // Stalls on later replications keep several workers busy or parked at
    // the reorder window while the delivery thread unwinds.
    let plan = FaultPlan::new()
        .stall_at(1, 1, 30)
        .stall_at(1, 2, 30)
        .stall_at(1, 3, 30);
    let mut sink = PanicAt {
        n: 2,
        inner: Collector::default(),
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        session(8, FailurePolicy::FailFast, Some(plan)).stream(&mut sink);
    }));
    let payload = result.expect_err("the sink panic must abort the session");
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .expect("string panic payload");
    assert!(
        message.contains("sink crashed at record 2"),
        "the surfaced panic must be the sink's own, got: {message}"
    );
    // The records delivered before the crash are the fault-free prefix.
    let (_, fault_free) = baseline(1);
    assert_eq!(sink.inner.records, fault_free.records[..2]);
}

#[test]
fn a_crashed_run_resumes_from_its_checkpoint_byte_identically() {
    let (uninterrupted, fault_free) = baseline(1);
    let uninterrupted_csv = artifact::outcomes_csv(&uninterrupted);
    let uninterrupted_json = artifact::outcomes_json(&uninterrupted);

    for jobs in [1, 4, 8] {
        let path = temp_path(&format!("resume-{jobs}"));
        let _ = std::fs::remove_file(&path);

        // "Crash" deterministically while delivering the 9th record: the
        // checkpoint file then holds the 8-record completed prefix (the
        // crashing record is never checkpointed), at any worker count.
        let mut crashing = PanicAt {
            n: 8,
            inner: Collector::default(),
        };
        let mut builder = Session::builder()
            .config(config(jobs, FailurePolicy::FailFast))
            .workload(Workload::ctmc(scenarios()))
            .checkpoint(engine::CheckpointSpec::new(&path));
        let session = builder.build().expect("valid session");
        let crash = catch_unwind(AssertUnwindSafe(|| {
            session.stream(&mut crashing);
        }));
        assert!(crash.is_err(), "the run must crash");
        assert!(path.exists(), "the checkpoint must survive the crash");

        // Resume with an identically-configured session and finish.
        let mut resumed_sink = Collector::default();
        builder = Session::builder()
            .config(config(jobs, FailurePolicy::FailFast))
            .workload(Workload::ctmc(scenarios()));
        let resumed = builder
            .build()
            .expect("valid session")
            .resume_stream(&path, &mut resumed_sink)
            .expect("resume from a matching checkpoint")
            .into_ctmc()
            .expect("ctmc workload");

        // The combined run is byte-identical to the uninterrupted one:
        // same aggregates, same artifact bytes, and the resumed tail picks
        // up exactly where the checkpoint left off.
        assert_eq!(resumed, uninterrupted, "jobs = {jobs}");
        assert_eq!(artifact::outcomes_csv(&resumed), uninterrupted_csv);
        assert_eq!(artifact::outcomes_json(&resumed), uninterrupted_json);
        assert_eq!(resumed_sink.records, fault_free.records[8..]);

        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn resuming_under_a_different_configuration_is_a_typed_error() {
    let path = temp_path("digest");
    let _ = std::fs::remove_file(&path);
    // A complete run leaves a final checkpoint behind.
    let _ = Session::builder()
        .config(config(1, FailurePolicy::FailFast))
        .workload(Workload::ctmc(scenarios()))
        .checkpoint(engine::CheckpointSpec::new(&path))
        .build()
        .expect("valid session")
        .run();
    assert!(path.exists());

    // A session with a different master seed must refuse the file.
    let other = Session::builder()
        .config(config(1, FailurePolicy::FailFast).with_master_seed(0xBAD_5EED))
        .workload(Workload::ctmc(scenarios()))
        .build()
        .expect("valid session");
    match other.resume(&path) {
        Err(Error::CheckpointMismatch { .. }) => {}
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_nan_classified_ctmc_replication_is_a_typed_failure() {
    let (_, fault_free) = baseline(1);
    let quarantine = FailurePolicy::Quarantine {
        max_failures: u32::MAX,
    };
    let mut sink = Collector::default();
    let outcomes = session(2, quarantine, Some(FaultPlan::new().nan_at(0, 1)))
        .stream(&mut sink)
        .into_ctmc()
        .expect("ctmc workload");
    let mut expected = fault_free.records;
    expected.remove(1);
    assert_eq!(sink.records, expected, "survivors match the fault-free run");
    let [failure] = sink.failures.as_slice() else {
        panic!("exactly one typed failure, got {:?}", sink.failures);
    };
    assert_eq!((failure.scenario_id, failure.replication), (0, 1));
    assert!(failure.payload.starts_with("non-finite statistic"));
    let stats = sink.stats.expect("stream ended");
    assert_eq!((stats.failed, stats.non_finite), (1, 1));
    assert_eq!(outcomes[0].failed_replications, 1);
}

/// Resumes `fixture`, a checkpoint an earlier build wrote while a
/// `FailFast` session at `jobs = 1` aborted on an injected panic inside the
/// second scenario, and requires the outcomes of an uninterrupted run.
fn fixture_resumes(fixture: &str, session: impl Fn(usize) -> Session) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(fixture);
    let uninterrupted = session(1).run();
    for jobs in [1, 2] {
        let resumed = session(jobs).resume(&path).expect("the fixture resumes");
        assert_eq!(resumed, uninterrupted, "{fixture}, jobs = {jobs}");
    }
}

/// The agent session behind the `agent*.ckpt` fixtures: two scenarios on
/// the default turbo kernel, four replications each.
fn agent_session(jobs: usize) -> Session {
    let config = EngineConfig::default()
        .with_replications(4)
        .with_horizon(100.0)
        .with_master_seed(0xC1A05)
        .with_jobs(jobs);
    Session::builder()
        .config(config)
        .workload(Workload::agent(vec![
            AgentScenario::new(0, "stable", example1(1.0)),
            AgentScenario::new(1, "transient", example1(4.0)),
        ]))
        .build()
        .expect("valid session")
}

#[test]
fn checkpoints_from_an_earlier_build_resume_to_the_uninterrupted_outcomes() {
    // Written at frontier 8 of 12 and 5 of 8.
    fixture_resumes("ctmc.ckpt", |jobs| {
        session(jobs, FailurePolicy::FailFast, None)
    });
    fixture_resumes("agent.ckpt", agent_session);
}

#[test]
fn a_turbo_checkpoint_written_under_another_draw_order_is_refused() {
    // The same session and frontier as `agent.ckpt`, written by a build
    // whose turbo kernel drew one clock tick per contact. Its config and
    // workload match, so only the draw-order token in the digest keeps it
    // from resuming into a mix of two streams.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/agent-per-contact-clock.ckpt");
    match agent_session(1).resume(&path) {
        Err(Error::CheckpointMismatch { .. }) => {}
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
}

/// A GF(4) coded scenario with the given stream key, label and gift
/// fraction.
fn coded_scenario(id: u64, label: &str, gift_fraction: f64) -> AgentScenario {
    let coded = CodedParams::gift_example(3, 4, 1.0, gift_fraction, 0.5, 1.0, 2.0)
        .expect("valid coded parameters");
    let mut scenario = AgentScenario::new(id, label, coded.base.clone());
    scenario.coding = Some(coded.gifts());
    // The kernel the earlier build needed named, so the scenario's text in
    // the digest matches the fixture's.
    scenario.config.kernel = KernelKind::Coded;
    scenario
}

#[test]
fn a_coded_checkpoint_written_on_another_kernel_is_refused() {
    // A `FailFast` session of two GF(4) scenarios, aborted at frontier 5 of
    // 8 by a build whose coded scenarios ran on the RREF kernel. Its config
    // and workload match this session's, so only the coded draw-order
    // token in the digest keeps it from resuming into a mix of two streams.
    let session = Session::builder()
        .config(
            EngineConfig::default()
                .with_replications(4)
                .with_horizon(100.0)
                .with_master_seed(0xC1A05)
                .with_jobs(1),
        )
        .workload(Workload::agent(vec![
            coded_scenario(0, "gifted", 0.6),
            coded_scenario(1, "lean", 0.1),
        ]))
        .build()
        .expect("valid session");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/coded-rref.ckpt");
    match session.resume(&path) {
        Err(Error::CheckpointMismatch { .. }) => {}
        other => panic!("expected CheckpointMismatch, got {other:?}"),
    }
}
