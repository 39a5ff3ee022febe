//! Contract tests of the unified [`Session`] API: builder misuse comes back
//! as typed errors, `stream(sink)` and `run()` are bit-identical at any
//! worker count, records arrive in deterministic order, and streamed
//! aggregation keeps its memory footprint independent of the replication
//! count (the bounded reorder window).

use engine::{
    EngineConfig, Error, ReplicationRecord, ReplicationSink, Scenario, Session, SessionOutput,
    StreamPlan, StreamStats, Workload,
};
use swarm::{SwarmError, SwarmParams};

fn example1(lambda0: f64) -> SwarmParams {
    SwarmParams::builder(1)
        .seed_rate(1.0)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(lambda0)
        .build()
        .expect("valid parameters")
}

fn config(jobs: usize) -> EngineConfig {
    EngineConfig::default()
        .with_replications(5)
        .with_horizon(250.0)
        .with_master_seed(0x5E55)
        .with_jobs(jobs)
}

/// Records everything it sees, for order/identity assertions.
#[derive(Default)]
struct RecordingSink {
    plan: Option<StreamPlan>,
    records: Vec<ReplicationRecord>,
    stats: Option<StreamStats>,
}

impl ReplicationSink for RecordingSink {
    fn begin(&mut self, plan: &StreamPlan) {
        self.plan = Some(*plan);
    }
    fn record(&mut self, record: &ReplicationRecord) {
        self.records.push(*record);
    }
    fn end(&mut self, stats: &StreamStats) {
        self.stats = Some(stats.clone());
    }
}

/// Drops every record on the floor, keeping only O(1) counters — the
/// million-replication aggregation consumer.
#[derive(Default)]
struct DroppingSink {
    seen: u64,
    in_order: bool,
    last: Option<(usize, u32)>,
}

impl DroppingSink {
    fn new() -> Self {
        DroppingSink {
            seen: 0,
            in_order: true,
            last: None,
        }
    }
}

impl ReplicationSink for DroppingSink {
    fn record(&mut self, record: &ReplicationRecord) {
        let key = (record.scenario_index, record.replication);
        if let Some(last) = self.last {
            self.in_order &= last < key;
        }
        self.last = Some(key);
        self.seen += 1;
    }
}

// ---------------------------------------------------------------------
// Builder misuse and validation
// ---------------------------------------------------------------------

#[test]
fn builder_without_a_workload_is_a_typed_error() {
    let error = Session::builder()
        .config(config(1))
        .build()
        .expect_err("no workload");
    assert_eq!(error, Error::MissingWorkload);
}

#[test]
fn duplicate_stream_keys_are_rejected_at_build_time() {
    let scenarios = vec![
        Scenario::new(3, "a", example1(0.5)),
        Scenario::new(3, "b", example1(1.5)),
    ];
    let error = Session::builder()
        .config(config(1))
        .workload(Workload::ctmc(scenarios))
        .build()
        .expect_err("duplicate ids");
    assert_eq!(error, Error::DuplicateScenarioId(3));
}

#[test]
fn invalid_configurations_are_rejected_at_build_time() {
    let workload = || Workload::ctmc(vec![Scenario::new(0, "x", example1(1.0))]);
    // A zero horizon, an endless one, and NaN: each is a typed error that
    // names the horizon, never a panic and never a run without end.
    for horizon in [0.0, -1.0, f64::INFINITY, f64::NAN] {
        let error = Session::builder()
            .config(EngineConfig::default().with_horizon(horizon))
            .workload(workload())
            .build()
            .expect_err("horizon must be finite and positive");
        assert!(matches!(error, Error::InvalidConfig(_)), "{error:?}");
        assert!(error.to_string().contains("horizon"), "{error}");
    }
}

#[test]
fn invalid_agent_scenarios_are_rejected_with_their_label() {
    let mut scenario = engine::AgentScenario::new(0, "telepaths", example1(1.0));
    scenario.policy = "telepathic".into();
    let error = Session::builder()
        .config(config(1))
        .workload(Workload::agent(vec![scenario]))
        .build()
        .expect_err("unknown policy");
    match &error {
        Error::Scenario { label, source } => {
            assert_eq!(label, "telepaths");
            assert!(matches!(source, SwarmError::InvalidParameter(_)));
        }
        other => panic!("expected a scenario error, got {other:?}"),
    }
    assert!(error.to_string().contains("telepathic"), "{error}");
}

// ---------------------------------------------------------------------
// Streaming vs batch bit-identity
// ---------------------------------------------------------------------

fn boundary_session(jobs: usize) -> Session {
    let scenarios = vec![
        Scenario::new(0, "stable", example1(1.0)),
        Scenario::new(1, "near-boundary", example1(1.9)),
        Scenario::new(2, "transient", example1(4.0)),
    ];
    Session::builder()
        .config(config(jobs))
        .workload(Workload::ctmc(scenarios))
        .build()
        .expect("valid session")
}

#[test]
fn stream_and_run_are_bit_identical_at_jobs_1_4_8() {
    let reference = boundary_session(1).run();
    let mut reference_records: Option<Vec<ReplicationRecord>> = None;
    for jobs in [1usize, 4, 8] {
        let session = boundary_session(jobs);
        let batch = session.run();
        let mut sink = RecordingSink::default();
        let streamed = session.stream(&mut sink);
        assert_eq!(batch, reference, "run() at jobs = {jobs}");
        assert_eq!(streamed, reference, "stream() at jobs = {jobs}");

        // The record sequence itself is deterministic and jobs-independent.
        let plan = sink.plan.expect("begin was called");
        assert_eq!(plan.scenarios, 3);
        assert_eq!(plan.replications, 5);
        assert_eq!(plan.total, 15);
        assert_eq!(sink.records.len(), 15);
        let order: Vec<(usize, u32)> = sink
            .records
            .iter()
            .map(|r| (r.scenario_index, r.replication))
            .collect();
        let expected: Vec<(usize, u32)> = (0..3usize)
            .flat_map(|s| (0..5u32).map(move |r| (s, r)))
            .collect();
        assert_eq!(order, expected, "delivery order at jobs = {jobs}");
        match &reference_records {
            None => reference_records = Some(sink.records),
            Some(reference) => {
                assert_eq!(reference, &sink.records, "record payloads at jobs = {jobs}")
            }
        }
        let stats = sink.stats.expect("end was called");
        assert_eq!(stats.delivered, 15);
    }
}

#[test]
fn agent_streams_are_bit_identical_across_jobs_too() {
    let scenarios = vec![
        engine::AgentScenario::new(0, "stable", example1(0.6)),
        engine::AgentScenario::new(1, "transient", example1(4.0)),
    ];
    let build = |jobs: usize| {
        Session::builder()
            .config(config(jobs).with_replications(3))
            .workload(Workload::agent(scenarios.clone()))
            .build()
            .expect("valid session")
    };
    let mut sink1 = RecordingSink::default();
    let mut sink8 = RecordingSink::default();
    let out1 = build(1).stream(&mut sink1);
    let out8 = build(8).stream(&mut sink8);
    assert_eq!(out1, out8);
    assert_eq!(sink1.records, sink8.records);
    // Agent records carry simulator counters.
    assert!(sink1.records.iter().all(|r| r.events > 0));
    assert_eq!(out1, build(4).run(), "run() matches stream() output");
}

// ---------------------------------------------------------------------
// Bounded-memory streaming
// ---------------------------------------------------------------------

#[test]
fn streamed_aggregation_memory_is_independent_of_replication_count() {
    // The same scenario at 40 and at 400 replications: the reorder buffer's
    // high-water mark is capped by the jobs-derived window both times —
    // nothing accumulates with the replication count. (Per-replication
    // results are dropped by the sink; only the running Welford aggregates
    // and the window-bounded reorder buffer ever hold them.)
    let mut high_water = Vec::new();
    for replications in [40u32, 400] {
        let session = Session::builder()
            .config(
                EngineConfig::default()
                    .with_replications(replications)
                    .with_horizon(40.0)
                    .with_master_seed(9)
                    .with_jobs(4),
            )
            .workload(Workload::ctmc(vec![Scenario::new(
                0,
                "probe",
                example1(1.0),
            )]))
            .build()
            .expect("valid session");
        let mut sink = DroppingSink::new();
        let mut recorder = RecordingSink::default();
        let output = session.stream(&mut sink);
        // Re-stream into a recorder only to read the stats struct shape.
        let _ = session.stream(&mut recorder);
        let stats = recorder.stats.expect("end was called");
        assert_eq!(sink.seen, u64::from(replications));
        assert!(sink.in_order, "records arrived out of order");
        assert!(
            stats.max_pending < stats.reorder_window,
            "pending {} must stay below the window {}",
            stats.max_pending,
            stats.reorder_window
        );
        high_water.push(stats.reorder_window);
        let outcomes = output.into_ctmc().expect("ctmc workload");
        assert_eq!(outcomes[0].votes.total(), replications);
        assert_eq!(outcomes[0].tail_average.n, u64::from(replications));
    }
    // The window (the hard memory cap) is the same regardless of the
    // replication count: it depends on the worker count only.
    assert_eq!(high_water[0], high_water[1]);
}

#[test]
fn empty_workloads_stream_nothing_and_return_empty_output() {
    let session = Session::builder()
        .config(config(4))
        .workload(Workload::ctmc(Vec::new()))
        .build()
        .expect("valid session");
    let mut sink = RecordingSink::default();
    match session.stream(&mut sink) {
        SessionOutput::Ctmc(outcomes) => assert!(outcomes.is_empty()),
        other => panic!("expected a CTMC output, got {other:?}"),
    }
    assert_eq!(sink.plan.expect("begin").total, 0);
    assert!(sink.records.is_empty());
    assert_eq!(sink.stats.expect("end").delivered, 0);
}
