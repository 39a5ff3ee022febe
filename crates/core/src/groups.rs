//! The peer-group decomposition of the transience proof (Section V, Fig. 2).
//!
//! Relative to a designated *watch piece* (piece one in the paper), every
//! peer falls into exactly one of five groups: normal young peers, infected
//! peers, gifted peers, one-club peers and former one-club peers. The
//! agent-based simulator tracks the decomposition over time (experiment E4).

use pieceset::{PieceId, PieceSet};
use serde::{Deserialize, Serialize};

/// The five peer groups of Fig. 2, relative to a watch piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PeerGroup {
    /// Missing the watch piece and at least one other piece (group (a)).
    NormalYoung,
    /// Obtained the watch piece after arrival, before completing (group (b));
    /// a peer stays infected for its entire remaining lifetime.
    Infected,
    /// Arrived already holding the watch piece (group (g)); gifted for life.
    Gifted,
    /// Holds every piece except the watch piece (group (e), the one club).
    OneClub,
    /// Was a one-club peer earlier and has since completed (group (f)).
    FormerOneClub,
}

impl PeerGroup {
    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PeerGroup::NormalYoung => "normal-young",
            PeerGroup::Infected => "infected",
            PeerGroup::Gifted => "gifted",
            PeerGroup::OneClub => "one-club",
            PeerGroup::FormerOneClub => "former-one-club",
        }
    }
}

/// Classifies a peer into its group.
///
/// * `pieces` — the peer's current collection,
/// * `arrived_with_watch` — whether its arrival collection contained the
///   watch piece,
/// * `was_one_club` — whether the peer was ever a one-club peer,
/// * `watch` — the watch piece (piece one in the paper),
/// * `num_pieces` — `K`.
#[must_use]
pub fn classify_peer(
    pieces: PieceSet,
    arrived_with_watch: bool,
    was_one_club: bool,
    watch: PieceId,
    num_pieces: usize,
) -> PeerGroup {
    if pieces.contains(watch) {
        if arrived_with_watch {
            PeerGroup::Gifted
        } else if was_one_club {
            PeerGroup::FormerOneClub
        } else {
            PeerGroup::Infected
        }
    } else if pieces.len() == num_pieces - 1 {
        PeerGroup::OneClub
    } else {
        PeerGroup::NormalYoung
    }
}

/// Counts of peers in each group at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupCounts {
    /// Group (a): normal young peers.
    pub normal_young: u64,
    /// Group (b): infected peers.
    pub infected: u64,
    /// Group (g): gifted peers.
    pub gifted: u64,
    /// Group (e): one-club peers.
    pub one_club: u64,
    /// Group (f): former one-club peers.
    pub former_one_club: u64,
}

impl GroupCounts {
    /// Adds one peer of the given group.
    pub fn add(&mut self, group: PeerGroup) {
        match group {
            PeerGroup::NormalYoung => self.normal_young += 1,
            PeerGroup::Infected => self.infected += 1,
            PeerGroup::Gifted => self.gifted += 1,
            PeerGroup::OneClub => self.one_club += 1,
            PeerGroup::FormerOneClub => self.former_one_club += 1,
        }
    }

    /// Removes one peer of the given group (a departure, or the "from" side
    /// of a transition).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the group count is already zero — the
    /// incremental bookkeeping of the turbo simulator must never remove a
    /// peer it did not add.
    pub fn remove(&mut self, group: PeerGroup) {
        let slot = match group {
            PeerGroup::NormalYoung => &mut self.normal_young,
            PeerGroup::Infected => &mut self.infected,
            PeerGroup::Gifted => &mut self.gifted,
            PeerGroup::OneClub => &mut self.one_club,
            PeerGroup::FormerOneClub => &mut self.former_one_club,
        };
        debug_assert!(*slot > 0, "removing from empty group {}", group.label());
        *slot -= 1;
    }

    /// Moves one peer from group `from` to group `to` (no-op when equal).
    /// This is how a piece transfer updates the Fig.-2 decomposition in
    /// `O(1)`: the receiving peer's group is re-derived and the counts follow
    /// the transition instead of rescanning the population.
    pub fn transition(&mut self, from: PeerGroup, to: PeerGroup) {
        if from != to {
            self.remove(from);
            self.add(to);
        }
    }

    /// Total number of peers across all groups.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.normal_young + self.infected + self.gifted + self.one_club + self.former_one_club
    }

    /// The quantity `Y^a + Y^b + Y^g` bounded by the M/GI/∞ comparison
    /// (Lemma 5): peers outside the one club that have not passed through it.
    #[must_use]
    pub fn young_infected_gifted(&self) -> u64 {
        self.normal_young + self.infected + self.gifted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(indices: &[usize]) -> PieceSet {
        indices.iter().map(|&i| PieceId::new(i)).collect()
    }

    const K: usize = 4;

    fn watch() -> PieceId {
        PieceId::new(0)
    }

    #[test]
    fn normal_young_missing_watch_and_more() {
        assert_eq!(
            classify_peer(PieceSet::empty(), false, false, watch(), K),
            PeerGroup::NormalYoung
        );
        assert_eq!(
            classify_peer(set(&[1]), false, false, watch(), K),
            PeerGroup::NormalYoung
        );
        assert_eq!(
            classify_peer(set(&[1, 2]), false, false, watch(), K),
            PeerGroup::NormalYoung
        );
    }

    #[test]
    fn one_club_is_missing_only_watch() {
        assert_eq!(
            classify_peer(set(&[1, 2, 3]), false, false, watch(), K),
            PeerGroup::OneClub
        );
    }

    #[test]
    fn gifted_peers_stay_gifted() {
        assert_eq!(
            classify_peer(set(&[0]), true, false, watch(), K),
            PeerGroup::Gifted
        );
        // even as a seed
        assert_eq!(
            classify_peer(set(&[0, 1, 2, 3]), true, false, watch(), K),
            PeerGroup::Gifted
        );
    }

    #[test]
    fn infected_peers_obtained_watch_after_arrival() {
        assert_eq!(
            classify_peer(set(&[0, 1]), false, false, watch(), K),
            PeerGroup::Infected
        );
        // an infected peer that later completes is still infected
        assert_eq!(
            classify_peer(set(&[0, 1, 2, 3]), false, false, watch(), K),
            PeerGroup::Infected
        );
    }

    #[test]
    fn former_one_club_requires_the_flag() {
        assert_eq!(
            classify_peer(set(&[0, 1, 2, 3]), false, true, watch(), K),
            PeerGroup::FormerOneClub
        );
        // the flag has no effect while the peer is still missing the watch piece
        assert_eq!(
            classify_peer(set(&[1, 2, 3]), false, true, watch(), K),
            PeerGroup::OneClub
        );
    }

    #[test]
    fn counts_and_derived_quantities() {
        let mut g = GroupCounts::default();
        g.add(PeerGroup::NormalYoung);
        g.add(PeerGroup::NormalYoung);
        g.add(PeerGroup::Infected);
        g.add(PeerGroup::Gifted);
        g.add(PeerGroup::OneClub);
        g.add(PeerGroup::OneClub);
        g.add(PeerGroup::OneClub);
        g.add(PeerGroup::FormerOneClub);
        assert_eq!(g.total(), 8);
        assert_eq!(g.young_infected_gifted(), 4);
    }

    #[test]
    fn remove_and_transition_are_inverse_of_add() {
        let mut g = GroupCounts::default();
        g.add(PeerGroup::OneClub);
        g.add(PeerGroup::NormalYoung);
        g.transition(PeerGroup::OneClub, PeerGroup::FormerOneClub);
        assert_eq!(g.one_club, 0);
        assert_eq!(g.former_one_club, 1);
        g.transition(PeerGroup::NormalYoung, PeerGroup::NormalYoung);
        assert_eq!(g.normal_young, 1, "self-transition is a no-op");
        g.remove(PeerGroup::FormerOneClub);
        g.remove(PeerGroup::NormalYoung);
        assert_eq!(g.total(), 0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> = [
            PeerGroup::NormalYoung,
            PeerGroup::Infected,
            PeerGroup::Gifted,
            PeerGroup::OneClub,
            PeerGroup::FormerOneClub,
        ]
        .iter()
        .map(|g| g.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}
