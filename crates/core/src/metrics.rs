//! Observables recorded by the peer-level simulator.

use crate::groups::GroupCounts;
use serde::{Deserialize, Serialize};

/// A snapshot of the swarm taken by the agent-based simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimSnapshot {
    /// Simulated time of the snapshot.
    pub time: f64,
    /// Total number of peers in the system (`N_t`).
    pub total_peers: u64,
    /// Number of peer seeds (complete collections) in the system.
    pub peer_seeds: u64,
    /// Fig.-2 group decomposition relative to the watch piece.
    pub groups: GroupCounts,
    /// Cumulative downloads of the watch piece (`D_t` in Section VI; arrivals
    /// already holding it are not counted).
    pub watch_piece_downloads: u64,
    /// Cumulative arrivals of peers *without* the watch piece (`A_t`).
    pub arrivals_without_watch: u64,
    /// Number of copies of the watch piece currently held across the swarm.
    pub watch_piece_copies: u64,
}

/// Aggregate statistics of completed peer sojourns.
///
/// Strictly *streaming*: every departure folds into three scalars (count,
/// running mean, max) and no per-sojourn value is retained anywhere, so a
/// long-horizon run with millions of departures costs the same memory as
/// one with ten.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SojournStats {
    /// Number of peers that departed during the run.
    pub departures: u64,
    /// Running mean of the sojourn times (Welford).
    mean: f64,
    /// Maximum sojourn time observed.
    pub max_sojourn: f64,
}

impl SojournStats {
    /// Records a departure with the given sojourn time.
    pub fn record(&mut self, sojourn: f64) {
        self.departures += 1;
        let delta = sojourn - self.mean;
        self.mean += delta / self.departures as f64;
        if sojourn > self.max_sojourn {
            self.max_sojourn = sojourn;
        }
    }

    /// Mean sojourn time of departed peers (zero if none departed).
    #[must_use]
    pub fn mean_sojourn(&self) -> f64 {
        if self.departures == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Merges another accumulator (the mean update of Chan's parallel
    /// combination), used by the sharded driver to combine shard-local
    /// sojourn stats.
    ///
    /// Chan's update is *not* bit-identical to recording the same sojourns
    /// in order, and it does not commute bit-for-bit either — so callers
    /// needing determinism must merge in a canonical order. The sharded
    /// driver merges in ascending shard index, which makes the merged stats
    /// independent of worker scheduling for a fixed `(seed, shards)`.
    pub fn merge(&mut self, other: &SojournStats) {
        if other.departures == 0 {
            return;
        }
        if self.departures == 0 {
            *self = *other;
            return;
        }
        let total = self.departures + other.departures;
        let delta = other.mean - self.mean;
        self.mean += delta * other.departures as f64 / total as f64;
        self.departures = total;
        if other.max_sojourn > self.max_sojourn {
            self.max_sojourn = other.max_sojourn;
        }
    }
}

/// Outcome of an agent-based simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Snapshots at the configured sampling interval (first at time 0, last
    /// at the horizon).
    pub snapshots: Vec<SimSnapshot>,
    /// Sojourn statistics of departed peers.
    pub sojourns: SojournStats,
    /// Total number of piece transfers executed.
    pub transfers: u64,
    /// Total number of contacts that found no useful piece.
    pub unsuccessful_contacts: u64,
    /// Total number of simulated events.
    pub events: u64,
    /// The simulated horizon actually reached.
    pub horizon: f64,
    /// `true` if the run stopped at the [`crate::sim::AgentConfig::max_events`]
    /// safety valve before reaching the requested horizon. A truncated
    /// result covers `[0, horizon]` for a *shorter* horizon than asked, and
    /// any verdict derived from it should be treated as provisional; the
    /// replication engine surfaces this per scenario.
    pub truncated: bool,
    /// Final per-peer progress histogram of the network-coded kernel
    /// ([`crate::sim::KernelKind::Coded`]): entry `d` counts the peers whose
    /// subspace dimension is `d` when the run ends (length `K + 1`). Empty
    /// for the uncoded kernels, whose piece-level state is already captured
    /// by the snapshot observables.
    pub final_dimensions: Vec<u64>,
}

impl SimResult {
    /// The final snapshot.
    ///
    /// # Panics
    ///
    /// Never panics: the simulator always records at least the initial
    /// snapshot.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "SimResult construction always records the t = 0 snapshot"
    )]
    pub fn final_snapshot(&self) -> &SimSnapshot {
        self.snapshots.last().expect("at least one snapshot")
    }

    /// The peer-count sample path as a [`markov::SamplePath`] for trend and
    /// classification analysis.
    #[must_use]
    pub fn peer_count_path(&self) -> markov::SamplePath {
        #[expect(
            clippy::expect_used,
            reason = "SimResult construction always records the t = 0 snapshot"
        )]
        let first = self.snapshots.first().expect("at least one snapshot");
        let mut path = markov::SamplePath::new(first.time, first.total_peers as f64);
        for s in &self.snapshots[1..] {
            path.record(s.time, s.total_peers as f64);
        }
        path.finish(self.horizon.max(first.time));
        path
    }

    /// The one-club size sample path.
    #[must_use]
    pub fn one_club_path(&self) -> markov::SamplePath {
        #[expect(
            clippy::expect_used,
            reason = "SimResult construction always records the t = 0 snapshot"
        )]
        let first = self.snapshots.first().expect("at least one snapshot");
        let mut path = markov::SamplePath::new(first.time, first.groups.one_club as f64);
        for s in &self.snapshots[1..] {
            path.record(s.time, s.groups.one_club as f64);
        }
        path.finish(self.horizon.max(first.time));
        path
    }

    /// Mean of the final dimension histogram (zero when the run did not use
    /// the coded kernel or the final population is empty).
    #[must_use]
    pub fn mean_final_dimension(&self) -> f64 {
        let peers: u64 = self.final_dimensions.iter().sum();
        if peers == 0 {
            return 0.0;
        }
        let total: u64 = self
            .final_dimensions
            .iter()
            .enumerate()
            .map(|(d, &count)| d as u64 * count)
            .sum();
        total as f64 / peers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(time: f64, peers: u64, one_club: u64) -> SimSnapshot {
        let mut groups = GroupCounts::default();
        for _ in 0..one_club {
            groups.add(crate::groups::PeerGroup::OneClub);
        }
        for _ in one_club..peers {
            groups.add(crate::groups::PeerGroup::NormalYoung);
        }
        SimSnapshot {
            time,
            total_peers: peers,
            peer_seeds: 0,
            groups,
            watch_piece_downloads: 0,
            arrivals_without_watch: peers,
            watch_piece_copies: 0,
        }
    }

    fn result() -> SimResult {
        SimResult {
            snapshots: vec![
                snapshot(0.0, 10, 2),
                snapshot(5.0, 20, 12),
                snapshot(10.0, 30, 25),
            ],
            sojourns: SojournStats::default(),
            transfers: 30,
            unsuccessful_contacts: 10,
            events: 100,
            horizon: 10.0,
            truncated: false,
            final_dimensions: Vec::new(),
        }
    }

    #[test]
    fn sojourn_stats_accumulate() {
        let mut s = SojournStats::default();
        assert_eq!(s.mean_sojourn(), 0.0);
        s.record(2.0);
        s.record(4.0);
        assert_eq!(s.departures, 2);
        assert!((s.mean_sojourn() - 3.0).abs() < 1e-12);
        assert_eq!(s.max_sojourn, 4.0);
    }

    #[test]
    fn sojourn_merge_matches_sequential_recording() {
        let sojourns: Vec<f64> = (0..40)
            .map(|i| 1.0 + (i as f64).sin().abs() * 9.0)
            .collect();
        let mut all = SojournStats::default();
        let mut left = SojournStats::default();
        let mut right = SojournStats::default();
        for (i, &s) in sojourns.iter().enumerate() {
            all.record(s);
            if i % 3 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        left.merge(&right);
        assert_eq!(left.departures, all.departures);
        assert!((left.mean_sojourn() - all.mean_sojourn()).abs() < 1e-9);
        assert_eq!(left.max_sojourn, all.max_sojourn);
        // Merging an empty accumulator in either direction is the identity.
        let mut empty = SojournStats::default();
        empty.merge(&all);
        assert_eq!(empty, all);
        let before = all;
        let mut merged = all;
        merged.merge(&SojournStats::default());
        assert_eq!(merged, before);
    }

    #[test]
    fn paths_are_constructed_from_snapshots() {
        let r = result();
        let path = r.peer_count_path();
        assert_eq!(path.len(), 3);
        assert_eq!(path.value_at(6.0), 20.0);
        let club = r.one_club_path();
        assert_eq!(club.value_at(10.0), 25.0);
        assert_eq!(r.final_snapshot().total_peers, 30);
    }

    #[test]
    fn mean_final_dimension_from_histogram() {
        let r = result();
        assert_eq!(r.mean_final_dimension(), 0.0, "uncoded runs report 0");
        let coded = SimResult {
            // 2 peers at dim 0, 1 at dim 1, 1 at dim 3 → mean = 1.0
            final_dimensions: vec![2, 1, 0, 1],
            ..result()
        };
        assert!((coded.mean_final_dimension() - 1.0).abs() < 1e-12);
    }
}
