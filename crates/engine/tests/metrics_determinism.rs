//! The telemetry determinism contract: metering never touches the random
//! streams, so a metered session delivers the *same records and aggregates*
//! as an unmetered one at any worker count — the only difference is the
//! populated `telemetry` side channel.

use engine::{
    AgentScenario, EngineConfig, MetricsSink, ReplicationRecord, ReplicationSink, Session,
    SessionOutput, StreamStats, Workload,
};
use swarm::sim::KernelKind;
use swarm::SwarmParams;
use telemetry::Counter;

fn example1(lambda0: f64) -> SwarmParams {
    SwarmParams::builder(1)
        .seed_rate(1.0)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(lambda0)
        .build()
        .expect("valid parameters")
}

fn scenarios() -> Vec<AgentScenario> {
    let mut turbo = AgentScenario::new(0, "turbo", example1(0.8));
    turbo.config.kernel = KernelKind::Turbo;
    let mut scan = AgentScenario::new(1, "scan", example1(1.5));
    scan.config.kernel = KernelKind::LegacyScan;
    vec![turbo, scan]
}

fn session(jobs: usize, metrics: bool) -> Session {
    Session::builder()
        .config(
            EngineConfig::default()
                .with_replications(4)
                .with_horizon(150.0)
                .with_master_seed(0x7E1E)
                .with_jobs(jobs)
                .with_metrics(metrics),
        )
        .workload(Workload::agent(scenarios()))
        .build()
        .expect("valid session")
}

#[derive(Default)]
struct RecordingSink {
    records: Vec<ReplicationRecord>,
    stats: Option<StreamStats>,
}

impl ReplicationSink for RecordingSink {
    fn record(&mut self, record: &ReplicationRecord) {
        self.records.push(*record);
    }
    fn end(&mut self, stats: &StreamStats) {
        self.stats = Some(stats.clone());
    }
}

/// Strips the telemetry side channel so metered and unmetered records can
/// be compared for payload identity.
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
fn metered_streams_match_unmetered_streams_at_jobs_1_4_8() {
    let mut reference: Option<(Vec<ReplicationRecord>, SessionOutput)> = None;
    for jobs in [1usize, 4, 8] {
        for metrics in [false, true] {
            let mut sink = RecordingSink::default();
            let output = session(jobs, metrics).stream(&mut sink);
            assert_eq!(sink.records.len(), 8);
            // Telemetry presence follows the switch exactly.
            assert!(
                sink.records
                    .iter()
                    .all(|r| r.telemetry.is_some() == metrics),
                "jobs = {jobs}, metrics = {metrics}"
            );
            let payload = (bare(&sink.records), output);
            match &reference {
                None => reference = Some(payload),
                Some(reference) => {
                    assert_eq!(
                        reference.0, payload.0,
                        "records diverged at jobs = {jobs}, metrics = {metrics}"
                    );
                    assert_eq!(
                        reference.1, payload.1,
                        "aggregates diverged at jobs = {jobs}, metrics = {metrics}"
                    );
                }
            }
        }
    }
}

#[test]
fn metered_counters_agree_with_the_records_they_ride_on() {
    let mut sink = RecordingSink::default();
    let _ = session(2, true).stream(&mut sink);
    for record in &sink.records {
        let telemetry = record.telemetry.expect("metrics on");
        assert_eq!(
            telemetry.counters.event_total(),
            record.events,
            "the counter partition must add up to the kernel's event count"
        );
        assert_eq!(
            telemetry.counters.get(Counter::UsefulTransfers),
            record.transfers,
            "useful transfers are the record's transfer count"
        );
        assert!(telemetry.wall_seconds >= 0.0);
    }
}

#[test]
fn metrics_sink_wraps_a_stream_without_changing_it() {
    // The same session streamed bare and through a MetricsSink adapter:
    // the inner sink must see byte-identical records, and the NDJSON side
    // channel must frame the stream correctly.
    let mut bare_sink = RecordingSink::default();
    let bare_out = session(4, true).stream(&mut bare_sink);
    let mut wrapped = MetricsSink::new(RecordingSink::default(), Vec::new()).quiet();
    let wrapped_out = session(4, true).stream(&mut wrapped);
    let (inner, ndjson) = wrapped.into_parts();
    assert_eq!(bare_out, wrapped_out);
    assert_eq!(bare(&bare_sink.records), bare(&inner.records));
    let text = String::from_utf8(ndjson).expect("utf-8 NDJSON");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 10, "begin + 8 replications + end");
    assert!(lines[0].starts_with("{\"type\":\"begin\""));
    assert!(lines[9].starts_with("{\"type\":\"end\""));
    assert!(lines[1].contains("\"counters\":{"));
    let stats = inner.stats.expect("end was called");
    assert!(stats.workers >= 1);
    assert_eq!(stats.per_worker.iter().sum::<u64>(), 8);
    assert_eq!(stats.task_nanos.count(), 8);
}
