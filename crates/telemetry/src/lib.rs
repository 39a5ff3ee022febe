//! Zero-cost-when-disabled instrumentation for the simulation engine.
//!
//! The crate provides three primitives:
//!
//! * [`Counter`] / [`CounterSet`] — a fixed, engine-wide taxonomy of
//!   monotonic event counters with O(1) array-indexed accumulation,
//! * [`Histogram`] — a log2-bucketed histogram (bucket = bit width of the
//!   recorded value) for latencies and occupancies of unknown magnitude,
//! * [`Span`] — a monotonic wall-clock span timer, the single clock behind
//!   every `wall_seconds` / `events_per_sec` figure in the workspace.
//!
//! Instrumented code is generic over the [`Recorder`] trait. The default
//! [`NullRecorder`] has empty `#[inline(always)]` methods and
//! `ENABLED = false`, so the disabled path monomorphizes to nothing — no
//! branches, no loads — in kernel hot loops. [`CounterRecorder`] is the
//! enabled implementation, accumulating into a [`CounterSet`].
//!
//! **Determinism contract:** recorders only observe; they never consume
//! randomness or perturb control flow. A metered run must produce results
//! byte-identical to an unmetered one.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "tests seed their own generators and may time themselves; the determinism contracts bind library code"
    )
)]

use std::fmt;
use std::time::Instant;

// ---------------------------------------------------------------------
// Counter taxonomy
// ---------------------------------------------------------------------

/// The engine-wide counter taxonomy.
///
/// The first three partition the event stream exactly:
/// `events == Arrivals + Contacts + DepartureEvents`, and every contact is
/// classified: `Contacts == UsefulTransfers + UselessContacts`. The rest
/// expose kernel-specific hot-path work (alias rebuilds, pool churn,
/// rejection retries, RREF absorbs, dimension-cache behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Fresh-peer arrival events handled.
    Arrivals,
    /// Contact events handled (seed ticks + peer ticks).
    Contacts,
    /// Seed-departure events handled (including no-op ones).
    DepartureEvents,
    /// Peers that actually left the swarm (completions and seed exits).
    Departures,
    /// Contacts that moved a piece (or coded dimension) to the target.
    UsefulTransfers,
    /// Contacts that moved nothing: empty swarm, no useful piece, or a
    /// coded combination already inside the target's subspace.
    UselessContacts,
    /// Arrival-sampler / alias-table (re)builds.
    AliasRebuilds,
    /// Swap-remove pool insertions and removals (turbo boosted/seed pools,
    /// coded seed pool).
    PoolOps,
    /// Rejection-sampling iterations beyond the first (uploader draws,
    /// departure probes, coded useful-row retries).
    RejectionRetries,
    /// RREF `absorb` calls in the coded kernel.
    RrefAbsorbs,
    /// `absorb` calls that increased the subspace dimension.
    RankIncreases,
    /// Coded contacts decided from cached dimensions alone (no row built).
    DimFastPathHits,
    /// Coded rows actually materialized (random combinations built).
    BasisMaterializations,
}

impl Counter {
    /// Number of counters in the taxonomy.
    pub const COUNT: usize = 13;

    /// All counters, in declaration (serialization) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Arrivals,
        Counter::Contacts,
        Counter::DepartureEvents,
        Counter::Departures,
        Counter::UsefulTransfers,
        Counter::UselessContacts,
        Counter::AliasRebuilds,
        Counter::PoolOps,
        Counter::RejectionRetries,
        Counter::RrefAbsorbs,
        Counter::RankIncreases,
        Counter::DimFastPathHits,
        Counter::BasisMaterializations,
    ];

    /// The counter's stable snake_case name, used as its NDJSON/JSON key.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::Arrivals => "arrivals",
            Counter::Contacts => "contacts",
            Counter::DepartureEvents => "departure_events",
            Counter::Departures => "departures",
            Counter::UsefulTransfers => "useful_transfers",
            Counter::UselessContacts => "useless_contacts",
            Counter::AliasRebuilds => "alias_rebuilds",
            Counter::PoolOps => "pool_ops",
            Counter::RejectionRetries => "rejection_retries",
            Counter::RrefAbsorbs => "rref_absorbs",
            Counter::RankIncreases => "rank_increases",
            Counter::DimFastPathHits => "dim_fast_path_hits",
            Counter::BasisMaterializations => "basis_materializations",
        }
    }
}

/// A full set of counter values: one `u64` per [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSet {
    counts: [u64; Counter::COUNT],
}

impl CounterSet {
    /// An all-zero counter set.
    pub const fn new() -> Self {
        CounterSet {
            counts: [0; Counter::COUNT],
        }
    }

    /// Current value of one counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// Add `n` to one counter.
    #[inline]
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counts[counter as usize] += n;
    }

    /// Add one to one counter.
    #[inline]
    pub fn incr(&mut self, counter: Counter) {
        self.counts[counter as usize] += 1;
    }

    /// Element-wise accumulate another set into this one.
    pub fn merge(&mut self, other: &CounterSet) {
        for (into, from) in self.counts.iter_mut().zip(other.counts.iter()) {
            *into += *from;
        }
    }

    /// Iterate `(counter, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Sum of the three event-partition counters; equals the kernel's
    /// reported event total when instrumentation is placed correctly.
    pub fn event_total(&self) -> u64 {
        self.get(Counter::Arrivals)
            + self.get(Counter::Contacts)
            + self.get(Counter::DepartureEvents)
    }
}

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// The instrumentation hook threaded through kernel hot loops.
///
/// Implementations must be pure observers: no randomness, no effect on the
/// instrumented computation. Code paths may consult
/// [`Recorder::ENABLED`] to skip *preparing* expensive measurements, but the
/// measured computation itself must be identical either way.
pub trait Recorder {
    /// `false` for the no-op recorder; lets callers skip measurement setup.
    const ENABLED: bool;

    /// Add one to a counter.
    fn incr(&mut self, counter: Counter);

    /// Add `n` to a counter.
    fn add(&mut self, counter: Counter, n: u64);
}

/// The disabled recorder: every method is an empty `#[inline(always)]`
/// body, so instrumented generic code monomorphizes to the uninstrumented
/// machine code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn incr(&mut self, _counter: Counter) {}

    #[inline(always)]
    fn add(&mut self, _counter: Counter, _n: u64) {}
}

/// The enabled recorder: accumulates into a [`CounterSet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterRecorder {
    /// The accumulated counters.
    pub counters: CounterSet,
}

impl CounterRecorder {
    /// A fresh recorder with all counters at zero.
    pub const fn new() -> Self {
        CounterRecorder {
            counters: CounterSet::new(),
        }
    }
}

impl Recorder for CounterRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn incr(&mut self, counter: Counter) {
        self.counters.incr(counter);
    }

    #[inline]
    fn add(&mut self, counter: Counter, n: u64) {
        self.counters.add(counter, n);
    }
}

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value 0, bucket
/// `b >= 1` holds values of bit width `b`, i.e. `2^(b-1) ..= 2^b - 1`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// The bucket of a value is its bit width (`0` for the value 0), so the
/// full `u64` range fits in [`HISTOGRAM_BUCKETS`] buckets and recording is
/// a single `leading_zeros` plus an array increment. Alongside the buckets
/// the histogram tracks exact `count`, `sum`, and `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value lands in: its bit width.
    #[inline]
    pub const fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive `(low, high)` value range of a bucket index.
    pub const fn bucket_bounds(index: usize) -> (u64, u64) {
        if index == 0 {
            (0, 0)
        } else {
            (
                1u64 << (index - 1),
                (1u64 << (index - 1)) - 1 + (1u64 << (index - 1)),
            )
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Iterate the non-empty buckets as `(bucket_index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Element-wise accumulate another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (into, from) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *into += *from;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

// ---------------------------------------------------------------------
// Span timer
// ---------------------------------------------------------------------

/// A monotonic wall-clock span: the single timing primitive behind every
/// `wall_seconds` figure in the workspace.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: Instant,
}

impl Span {
    /// Start a span now.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one timing primitive: span readings go to telemetry and stderr, never into an artifact"
    )]
    pub fn start() -> Self {
        Span {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since the span started.
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whole nanoseconds elapsed since the span started (saturating at
    /// `u64::MAX`, ~584 years).
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.seconds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), Counter::COUNT);
        assert_eq!(names[0], "arrivals");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminants must be dense");
        }
    }

    #[test]
    fn counter_set_accumulates_and_merges() {
        let mut a = CounterSet::new();
        a.incr(Counter::Contacts);
        a.add(Counter::Contacts, 4);
        a.incr(Counter::Arrivals);
        let mut b = CounterSet::new();
        b.add(Counter::Contacts, 10);
        b.incr(Counter::DepartureEvents);
        a.merge(&b);
        assert_eq!(a.get(Counter::Contacts), 15);
        assert_eq!(a.event_total(), 1 + 15 + 1);
        assert_eq!(a.iter().map(|(_, v)| v).sum::<u64>(), 17);
    }

    #[test]
    fn null_recorder_is_disabled_and_counter_recorder_counts() {
        const { assert!(!NullRecorder::ENABLED) };
        const { assert!(CounterRecorder::ENABLED) };
        let mut null = NullRecorder;
        null.incr(Counter::Arrivals);
        null.add(Counter::Arrivals, 7);
        let mut rec = CounterRecorder::new();
        rec.incr(Counter::Arrivals);
        rec.add(Counter::PoolOps, 3);
        assert_eq!(rec.counters.get(Counter::Arrivals), 1);
        assert_eq!(rec.counters.get(Counter::PoolOps), 3);
    }

    #[test]
    fn histogram_tracks_count_sum_max_and_buckets() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
        // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10; MAX -> 64.
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1), (64, 1)]
        );
    }

    #[test]
    fn histogram_merge_matches_recording_everything_into_one() {
        let values_a = [5u64, 9, 0, 77];
        let values_b = [1u64, 1 << 40, 3];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in values_a {
            a.record(v);
            all.record(v);
        }
        for v in values_b {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn span_reports_monotonic_nonnegative_time() {
        let span = Span::start();
        assert!(span.seconds() >= 0.0);
        assert!(span.nanos() < u64::MAX);
    }
}
