//! Measuring helpers that wrap the library's public types without changing
//! what they compute: a draw-counting `RngCore`, a timing `ReplicationSink`,
//! and the process's peak resident memory.

use engine::{ReplicationFailure, ReplicationRecord, ReplicationSink, StreamPlan, StreamStats};
use rand::RngCore;
use std::path::PathBuf;
use std::time::Instant;

/// Counts the words drawn from the wrapped generator and passes every word
/// through unchanged, so a run on a counted stream is the run on the plain
/// stream.
pub struct CountingRng<R> {
    inner: R,
    draws: u64,
}

impl<R> CountingRng<R> {
    pub fn new(inner: R) -> Self {
        CountingRng { inner, draws: 0 }
    }

    /// Calls made so far (`fill_bytes` counts one per 8 bytes filled).
    pub fn draws(&self) -> u64 {
        self.draws
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += dest.len().div_ceil(8) as u64;
        self.inner.fill_bytes(dest);
    }
}

/// Times every `record` and `end` call of the wrapped sink against a
/// tracer's epoch, and counts checkpoint rewrites by watching the
/// checkpoint file's inode (each rewrite renames a fresh file into place).
/// Delivery is serialized, so the recorded intervals never overlap.
pub struct TimingSink<S> {
    pub inner: S,
    epoch: Instant,
    /// `(start, end)` of each `record` call, in nanoseconds since the epoch.
    pub records: Vec<(u64, u64)>,
    pub end: Option<(u64, u64)>,
    checkpoint: Option<PathBuf>,
    last_inode: Option<u64>,
    pub checkpoint_writes: u64,
}

impl<S> TimingSink<S> {
    pub fn new(inner: S, epoch: Instant, checkpoint: Option<PathBuf>) -> Self {
        TimingSink {
            inner,
            epoch,
            records: Vec::new(),
            end: None,
            checkpoint,
            last_inode: None,
            checkpoint_writes: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn watch_checkpoint(&mut self) {
        use std::os::unix::fs::MetadataExt;
        let inode = self
            .checkpoint
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map(|m| m.ino());
        if inode.is_some() && inode != self.last_inode {
            self.checkpoint_writes += 1;
            self.last_inode = inode;
        }
    }

    /// Total seconds spent inside the wrapped sink's `record`.
    pub fn record_seconds(&self) -> f64 {
        self.records.iter().map(|(s, e)| e - s).sum::<u64>() as f64 / 1e9
    }
}

impl<S: ReplicationSink> ReplicationSink for TimingSink<S> {
    fn begin(&mut self, plan: &StreamPlan) {
        self.inner.begin(plan);
    }

    fn record(&mut self, record: &ReplicationRecord) {
        self.watch_checkpoint();
        let start = self.now();
        self.inner.record(record);
        let end = self.now();
        self.records.push((start, end));
    }

    fn failure(&mut self, failure: &ReplicationFailure) {
        self.inner.failure(failure);
    }

    fn end(&mut self, stats: &StreamStats) {
        self.watch_checkpoint();
        let start = self.now();
        self.inner.end(stats);
        self.end = Some((start, self.now()));
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_wrapper_counts_every_draw_and_leaves_the_stream_unchanged() {
        let mut plain = engine::replication_rng(11, 3, 5);
        let mut counted = CountingRng::new(engine::replication_rng(11, 3, 5));
        for n in 1..=1_000u64 {
            assert_eq!(counted.next_u64(), plain.next_u64());
            assert_eq!(counted.draws(), n);
        }
        assert_eq!(counted.next_u32(), plain.next_u32());
        let (mut a, mut b) = ([0u8; 20], [0u8; 20]);
        counted.fill_bytes(&mut a);
        plain.fill_bytes(&mut b);
        assert_eq!(a, b);
        assert_eq!(counted.draws(), 1_000 + 1 + 3);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_mb() > 0.0);
    }
}
