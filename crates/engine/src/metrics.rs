//! Telemetry export: per-replication kernel counters and wall times as
//! NDJSON, plus a human summary.
//!
//! [`ReplicationTelemetry`] is the per-replication payload the session
//! attaches to [`crate::ReplicationRecord`] when
//! [`crate::EngineConfig::metrics`] is set. [`MetricsSink`] is the export
//! path: it wraps any [`ReplicationSink`] and writes one NDJSON line per
//! stream event — `begin`, one per replication, `end` — to a caller-supplied
//! writer, forwarding everything to the inner sink untouched.
//!
//! Metering is observational by construction: kernels count through a
//! [`telemetry::Recorder`] that consumes no randomness, so a stream produces
//! bit-identical records and aggregates with metrics on or off (the only
//! difference is that `record.telemetry` is populated). Timing values are
//! wall-clock and therefore *not* deterministic — they live only in the
//! telemetry side channel, never in artifacts.
//!
//! # NDJSON schema
//!
//! ```text
//! {"type":"begin","scenarios":2,"replications":4,"total":8}
//! {"type":"replication","scenario_index":0,"scenario_id":0,"replication":0,
//!  "class":"stable","events":812,"transfers":391,"truncated":false,
//!  "wall_seconds":0.0021,"counters":{"arrivals":117,...}}
//! {"type":"end","delivered":8,"workers":4,"wall_seconds":0.05,
//!  "max_pending":3,"reorder_window":64,"per_worker":[3,2,2,1],
//!  "totals":{"arrivals":903,...},
//!  "task_nanos":{...},"queue_wait_nanos":{...},"reorder_occupancy":{...}}
//! ```
//!
//! `counters`/`wall_seconds` appear on replication lines only when the
//! record carried telemetry (agent workloads with metrics enabled); CTMC
//! replications emit the line without them. Histogram objects carry
//! `count`, `sum`, `max`, and the sparse `buckets` array of
//! `[bucket_index, count]` pairs (see [`telemetry::Histogram`]).
//!
//! Quarantined replications add `failure` lines between `begin` and `end`,
//! and the `end` frame carries `failed`/`retries` totals:
//!
//! ```text
//! {"type":"failure","scenario_index":0,"scenario_id":0,"replication":3,
//!  "attempts":1,"payload":"injected fault: ..."}
//! ```
//!
//! # Crash consistency
//!
//! Every line is flushed as it is written, so a killed process leaves a
//! prefix of complete lines, never a torn one. If the sink is dropped
//! before the stream's `end` frame arrives (panic unwind, abort, early
//! exit), it writes a final `{"type":"end","truncated":true,...}` frame so
//! the file is still well-formed and self-describing; `workload`'s NDJSON
//! validator accepts such files in `--allow-truncated` mode.

use crate::artifact::json_escape;
use crate::labels::class_name;
use crate::session::{
    ReplicationFailure, ReplicationRecord, ReplicationSink, StreamPlan, StreamStats,
};
use std::io::Write;
use telemetry::{Counter, CounterSet, Histogram};

/// Per-replication telemetry: what one metered simulator run counted and
/// how long it took.
///
/// Counters are deterministic (they follow the simulated trajectory);
/// `wall_seconds` is wall-clock and varies run to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationTelemetry {
    /// Kernel counters accumulated over the replication.
    pub counters: CounterSet,
    /// Wall-clock duration of the simulator run, in seconds.
    pub wall_seconds: f64,
}

/// A [`ReplicationSink`] adapter that exports the stream as NDJSON while
/// forwarding every call to the wrapped sink.
///
/// The writer receives one line per stream event (begin, one per
/// replication or failure, end), each flushed as it is written so a killed
/// process leaves whole lines behind. On `end` it also prints a
/// human-readable summary to stderr unless silenced with
/// [`MetricsSink::quiet`] — stdout and the forwarded stream stay
/// byte-identical to an unwrapped run. Dropping the sink without an `end`
/// frame (abort, unwind) writes a `{"type":"end","truncated":true,...}`
/// closer first.
#[derive(Debug)]
pub struct MetricsSink<S: ReplicationSink, W: Write + Send> {
    /// Present until [`MetricsSink::into_parts`] disassembles the sink
    /// (Drop needs somewhere to leave the pieces).
    inner: Option<S>,
    out: Option<W>,
    summary: bool,
    totals: CounterSet,
    /// Per-replication simulator wall times, in nanoseconds.
    wall: Histogram,
    /// Replications that carried telemetry.
    metered: u64,
    /// Records forwarded so far (reported by the truncated closer).
    delivered: u64,
    /// Failure lines written so far (reported by the truncated closer).
    failed: u64,
    /// Set once the stream's own `end` frame has been written; the Drop
    /// closer only fires while this is false.
    ended: bool,
}

impl<S: ReplicationSink, W: Write + Send> MetricsSink<S, W> {
    /// Wraps `inner`, exporting NDJSON telemetry to `out`.
    #[must_use]
    pub fn new(inner: S, out: W) -> Self {
        MetricsSink {
            inner: Some(inner),
            out: Some(out),
            summary: true,
            totals: CounterSet::new(),
            wall: Histogram::new(),
            metered: 0,
            delivered: 0,
            failed: 0,
            ended: false,
        }
    }

    /// Disables the end-of-run human summary on stderr.
    #[must_use]
    pub fn quiet(mut self) -> Self {
        self.summary = false;
        self
    }

    /// Unwraps the adapter, returning the inner sink and the writer.
    ///
    /// Disassembling skips the Drop closer: the caller now owns the writer
    /// and decides what (if anything) still gets written.
    pub fn into_parts(mut self) -> (S, W) {
        self.ended = true;
        #[expect(
            clippy::expect_used,
            reason = "the Options exist only so Drop can tell whether into_parts already ran; into_parts consumes self"
        )]
        let inner = self.inner.take().expect("parts taken only once");
        #[expect(
            clippy::expect_used,
            reason = "the Options exist only so Drop can tell whether into_parts already ran; into_parts consumes self"
        )]
        let out = self.out.take().expect("parts taken only once");
        (inner, out)
    }

    fn emit(&mut self, line: &str) {
        // Telemetry must never abort the run it observes: a full disk or a
        // closed pipe degrades to missing metrics, not a failed stream.
        // Flushing per line is what makes the export crash-consistent —
        // a SIGKILL can lose at most the line being formed, never tear one.
        if let Some(out) = &mut self.out {
            let _ = writeln!(out, "{line}");
            let _ = out.flush();
        }
    }

    fn print_summary(&self, stats: &StreamStats) {
        let mut lines = String::new();
        lines.push_str(&format!(
            "[metrics] {} replications on {} worker(s) in {:.3}s (reorder peak {}/{})\n",
            stats.delivered,
            stats.workers,
            stats.wall_seconds,
            stats.max_pending,
            stats.reorder_window
        ));
        if self.metered > 0 {
            lines.push_str(&format!(
                "[metrics] simulator wall: mean {:.6}s, max {:.6}s over {} metered replication(s)\n",
                self.wall.mean() / 1e9,
                self.wall.max() as f64 / 1e9,
                self.metered
            ));
            for (counter, value) in self.totals.iter() {
                if value > 0 {
                    lines.push_str(&format!("[metrics]   {:<24} {value}\n", counter.name()));
                }
            }
        }
        if stats.task_nanos.count() > 0 {
            lines.push_str(&format!(
                "[metrics] task time: mean {:.6}s, max {:.6}s; queue waits: {}; \
                 reorder occupancy mean {:.2}\n",
                stats.task_nanos.mean() / 1e9,
                stats.task_nanos.max() as f64 / 1e9,
                stats.queue_wait_nanos.count(),
                stats.reorder_occupancy.mean()
            ));
        }
        eprint!("{lines}");
    }
}

impl<S: ReplicationSink, W: Write + Send> ReplicationSink for MetricsSink<S, W> {
    fn begin(&mut self, plan: &StreamPlan) {
        let line = format!(
            "{{\"type\":\"begin\",\"scenarios\":{},\"replications\":{},\"total\":{}}}",
            plan.scenarios, plan.replications, plan.total
        );
        self.emit(&line);
        if let Some(inner) = &mut self.inner {
            inner.begin(plan);
        }
    }

    fn record(&mut self, record: &ReplicationRecord) {
        let mut line = format!(
            "{{\"type\":\"replication\",\"scenario_index\":{},\"scenario_id\":{},\
             \"replication\":{},\"class\":\"{}\",\"events\":{},\"transfers\":{},\
             \"truncated\":{}",
            record.scenario_index,
            record.scenario_id,
            record.replication,
            class_name(record.class),
            record.events,
            record.transfers,
            record.truncated
        );
        if let Some(telemetry) = &record.telemetry {
            self.totals.merge(&telemetry.counters);
            self.wall
                .record((telemetry.wall_seconds * 1e9).max(0.0) as u64);
            self.metered += 1;
            line.push_str(&format!(",\"wall_seconds\":{}", telemetry.wall_seconds));
            line.push_str(",\"counters\":");
            line.push_str(&counters_json(&telemetry.counters));
        }
        line.push('}');
        self.delivered += 1;
        self.emit(&line);
        if let Some(inner) = &mut self.inner {
            inner.record(record);
        }
    }

    fn failure(&mut self, failure: &ReplicationFailure) {
        let line = format!(
            "{{\"type\":\"failure\",\"scenario_index\":{},\"scenario_id\":{},\
             \"replication\":{},\"attempts\":{},\"payload\":\"{}\"}}",
            failure.scenario_index,
            failure.scenario_id,
            failure.replication,
            failure.attempts,
            json_escape(&failure.payload)
        );
        self.failed += 1;
        self.emit(&line);
        if let Some(inner) = &mut self.inner {
            inner.failure(failure);
        }
    }

    fn end(&mut self, stats: &StreamStats) {
        let mut line = format!(
            "{{\"type\":\"end\",\"delivered\":{},\"failed\":{},\"retries\":{},\
             \"workers\":{},\"wall_seconds\":{},\
             \"max_pending\":{},\"reorder_window\":{}",
            stats.delivered,
            stats.failed,
            stats.retries,
            stats.workers,
            stats.wall_seconds,
            stats.max_pending,
            stats.reorder_window
        );
        line.push_str(",\"per_worker\":[");
        for (i, n) in stats.per_worker.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&n.to_string());
        }
        line.push(']');
        line.push_str(",\"totals\":");
        line.push_str(&counters_json(&self.totals));
        line.push_str(",\"task_nanos\":");
        line.push_str(&histogram_json(&stats.task_nanos));
        line.push_str(",\"queue_wait_nanos\":");
        line.push_str(&histogram_json(&stats.queue_wait_nanos));
        line.push_str(",\"reorder_occupancy\":");
        line.push_str(&histogram_json(&stats.reorder_occupancy));
        line.push('}');
        self.emit(&line);
        self.ended = true;
        if self.summary {
            self.print_summary(stats);
        }
        if let Some(inner) = &mut self.inner {
            inner.end(stats);
        }
    }
}

impl<S: ReplicationSink, W: Write + Send> Drop for MetricsSink<S, W> {
    fn drop(&mut self) {
        if self.ended {
            return;
        }
        // The stream died before its end frame (panic unwind, quarantine
        // budget abort, early exit). Close the file with a well-formed,
        // self-describing frame so downstream tooling can still parse it.
        let line = format!(
            "{{\"type\":\"end\",\"truncated\":true,\"delivered\":{},\"failed\":{}}}",
            self.delivered, self.failed
        );
        self.emit(&line);
    }
}

/// Renders a counter set as a JSON object keyed by [`Counter::name`].
#[must_use]
pub fn counters_json(counters: &CounterSet) -> String {
    let mut out = String::from("{");
    for (i, counter) in Counter::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{}",
            counter.name(),
            counters.get(*counter)
        ));
    }
    out.push('}');
    out
}

/// Renders a histogram as a JSON object with `count`, `sum`, `max`, and the
/// sparse `buckets` array of `[bucket_index, count]` pairs.
#[must_use]
pub fn histogram_json(histogram: &Histogram) -> String {
    let mut out = format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[",
        histogram.count(),
        histogram.sum(),
        histogram.max()
    );
    for (i, (bucket, count)) in histogram.nonzero_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{bucket},{count}]"));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::NullSink;
    use markov::PathClass;

    fn record(telemetry: Option<ReplicationTelemetry>) -> ReplicationRecord {
        ReplicationRecord {
            scenario_index: 0,
            scenario_id: 7,
            replication: 0,
            class: PathClass::Stable,
            tail_slope: 0.0,
            tail_average: 1.0,
            events: 10,
            transfers: 4,
            truncated: false,
            telemetry,
        }
    }

    #[test]
    fn ndjson_has_one_line_per_stream_event() {
        let mut sink = MetricsSink::new(NullSink, Vec::new()).quiet();
        sink.begin(&StreamPlan {
            scenarios: 1,
            replications: 2,
            total: 2,
        });
        let mut counters = CounterSet::new();
        counters.add(Counter::Arrivals, 3);
        sink.record(&record(Some(ReplicationTelemetry {
            counters,
            wall_seconds: 0.25,
        })));
        sink.record(&record(None));
        sink.end(&StreamStats::inline(2, 0.5));
        let (_, out) = sink.into_parts();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"type\":\"begin\""));
        assert!(lines[1].contains("\"counters\":{\"arrivals\":3,"));
        assert!(lines[1].contains("\"wall_seconds\":0.25"));
        assert!(!lines[2].contains("counters"), "unmetered line is bare");
        assert!(lines[3].contains("\"totals\":{\"arrivals\":3,"));
        assert!(lines[3].contains("\"per_worker\":[2]"));
    }

    /// A writer whose bytes survive the sink being dropped.
    #[derive(Debug, Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn failure_lines_are_escaped_and_end_frame_counts_them() {
        let mut sink = MetricsSink::new(NullSink, Vec::new()).quiet();
        sink.begin(&StreamPlan {
            scenarios: 1,
            replications: 2,
            total: 2,
        });
        sink.record(&record(None));
        sink.failure(&crate::session::ReplicationFailure {
            scenario_index: 0,
            scenario_id: 7,
            replication: 1,
            attempts: 2,
            payload: "boom \"quoted\"\nline".to_owned(),
        });
        let mut stats = StreamStats::inline(1, 0.5);
        stats.failed = 1;
        stats.retries = 1;
        sink.end(&stats);
        let (_, out) = sink.into_parts();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].contains("\"type\":\"failure\""));
        assert!(lines[2].contains("\"payload\":\"boom \\\"quoted\\\"\\nline\""));
        assert!(lines[3].contains("\"failed\":1"));
        assert!(lines[3].contains("\"retries\":1"));
        assert!(!lines[3].contains("truncated"));
    }

    #[test]
    fn dropping_before_end_writes_a_truncated_closer() {
        let buf = SharedBuf::default();
        {
            let mut sink = MetricsSink::new(NullSink, buf.clone()).quiet();
            sink.begin(&StreamPlan {
                scenarios: 1,
                replications: 2,
                total: 2,
            });
            sink.record(&record(None));
            // Dropped here without end() — as a panic unwind would.
        }
        let text = buf.text();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"type\":\"end\""), "{last}");
        assert!(last.contains("\"truncated\":true"), "{last}");
        assert!(last.contains("\"delivered\":1"), "{last}");
    }

    #[test]
    fn into_parts_skips_the_truncated_closer() {
        let buf = SharedBuf::default();
        let sink = MetricsSink::new(NullSink, buf.clone()).quiet();
        let (_, _) = sink.into_parts();
        assert_eq!(buf.text(), "", "disassembly must not write anything");
    }

    #[test]
    fn histogram_json_is_sparse() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(5);
        h.record(5);
        let json = histogram_json(&h);
        assert_eq!(
            json,
            "{\"count\":3,\"sum\":10,\"max\":5,\"buckets\":[[0,1],[3,2]]}"
        );
    }
}
