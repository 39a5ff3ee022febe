//! Progress reporting for long batches.
//!
//! [`ProgressSink`] is a [`ReplicationSink`], so progress reporting plugs
//! into [`crate::Session::stream`] like any other observer. A session with
//! [`crate::EngineConfig::progress`] set attaches one automatically.

use crate::session::{ReplicationFailure, ReplicationRecord, ReplicationSink, StreamPlan};
use std::time::Instant;

/// The report-line policy, as a pure function so it is testable without
/// capturing stderr: returns `Some(percent)` when completing replication
/// `done` of `total` should print, `None` otherwise.
///
/// At most 10 lines are printed for *any* total: one per crossed decile
/// step for `total ≥ 10`, and a single completion line for smaller totals
/// (the old per-`div_ceil(total, 10)` rule degenerated to a stderr line per
/// replication there). The integer percent is clamped to 99 until the last
/// replication lands, so a partially complete run never claims 100%.
fn report_percent(done: u64, total: u64) -> Option<u64> {
    debug_assert!(total > 0);
    if done >= total {
        return Some(100);
    }
    let step = total.div_ceil(10);
    if total < 10 || !done.is_multiple_of(step) {
        return None;
    }
    Some((100 * done / total).min(99))
}

/// A [`ReplicationSink`] that learns the stream's total at
/// [`ReplicationSink::begin`] and reports decile completion on stderr as
/// records arrive, with elapsed wall time and events-per-second
/// throughput.
#[derive(Debug)]
pub struct ProgressSink {
    label: String,
    total: u64,
    done: u64,
    /// Simulated events accumulated across completions.
    events: u64,
    start: Instant,
}

impl ProgressSink {
    /// A sink reporting under `label` (e.g. the workload name).
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        ProgressSink {
            label: label.into(),
            total: 0,
            done: 0,
            events: 0,
            start: Instant::now(),
        }
    }

    /// Records one completion, printing a line when it crosses a decile.
    fn tick(&mut self) {
        self.done += 1;
        if self.total == 0 {
            return;
        }
        if let Some(percent) = report_percent(self.done, self.total) {
            let elapsed = self.start.elapsed().as_secs_f64();
            let rate = if elapsed > 0.0 {
                self.events as f64 / elapsed
            } else {
                0.0
            };
            eprintln!(
                "[{}] {}/{} replications ({percent}%) — {elapsed:.1}s elapsed, {rate:.0} ev/s",
                self.label, self.done, self.total,
            );
        }
    }
}

impl ReplicationSink for ProgressSink {
    fn begin(&mut self, plan: &StreamPlan) {
        self.total = plan.total;
        self.done = 0;
        self.events = 0;
        self.start = Instant::now();
    }

    fn record(&mut self, record: &ReplicationRecord) {
        self.events += record.events;
        self.tick();
    }

    fn failure(&mut self, _failure: &ReplicationFailure) {
        // A quarantined replication is still a completed slot of the plan's
        // total — count it, or the decile math never reaches 100%.
        self.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For any total, the number of report lines is at most 10 — small
    /// totals used to print one line per replication because
    /// `div_ceil(total, 10)` degenerates to 1.
    #[test]
    fn at_most_ten_report_lines_for_any_total() {
        for total in 1..=250u64 {
            let lines = (1..=total)
                .filter(|&done| report_percent(done, total).is_some())
                .count();
            assert!(lines <= 10, "total {total} would print {lines} lines");
            // The completion line always prints.
            assert_eq!(report_percent(total, total), Some(100));
        }
        // Small totals report exactly once, at completion.
        for total in 1..10u64 {
            let lines: Vec<u64> = (1..=total)
                .filter(|&done| report_percent(done, total).is_some())
                .collect();
            assert_eq!(lines, vec![total], "total {total}");
        }
    }

    /// 100% appears on the final replication and never earlier, for every
    /// (done, total) pair — including steps where naive rounding lands on
    /// a multiple that integer division maps to 100.
    #[test]
    fn percent_is_monotone_and_never_100_early() {
        for total in 1..=250u64 {
            let mut last = 0;
            for done in 1..=total {
                if let Some(percent) = report_percent(done, total) {
                    assert!(percent >= last, "percent regressed at {done}/{total}");
                    if done < total {
                        assert!(percent < 100, "{done}/{total} reported {percent}%");
                    } else {
                        assert_eq!(percent, 100);
                    }
                    last = percent;
                }
            }
        }
    }
}
