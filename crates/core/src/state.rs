//! The CTMC state: the number of peers of each type.

use pieceset::{PieceSet, TypeSpace};
use serde::{Deserialize, Serialize};

/// The state vector `x = (x_C : C ∈ C)` of the swarm CTMC: the number of
/// peers currently holding each subset of pieces.
///
/// The vector is indexed by the canonical [`pieceset::TypeIndex`] (the type's
/// bitmask), so it has length `2^K`. For the `γ = ∞` convention the
/// full-collection coordinate is always zero (peers depart the instant they
/// complete); the generator enforces that, not this type.
///
/// # Examples
///
/// ```
/// use swarm::SwarmState;
/// use pieceset::{TypeSpace, PieceSet};
///
/// let space = TypeSpace::new(3).unwrap();
/// let mut x = SwarmState::empty(&space);
/// x.add_peer(PieceSet::empty());
/// x.add_peer(PieceSet::empty());
/// assert_eq!(x.total_peers(), 2);
/// assert_eq!(x.count(PieceSet::empty()), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SwarmState {
    counts: Vec<u32>,
}

impl SwarmState {
    /// The empty system (no peers) for the given type space.
    #[must_use]
    pub fn empty(space: &TypeSpace) -> Self {
        SwarmState {
            counts: vec![0; space.num_types()],
        }
    }

    /// A state with `n` peers all of type `c` ("heavy load" initial
    /// conditions such as the one club of the missing-piece syndrome).
    #[must_use]
    pub fn uniform(space: &TypeSpace, c: PieceSet, n: u32) -> Self {
        let mut s = Self::empty(space);
        s.set_count(c, n);
        s
    }

    /// A "one club" state: `n` peers all missing exactly `missing_piece`
    /// (i.e. of type `F − {missing_piece}`).
    #[must_use]
    pub fn one_club(space: &TypeSpace, missing_piece: pieceset::PieceId, n: u32) -> Self {
        let c = space.full_type().without(missing_piece);
        Self::uniform(space, c, n)
    }

    /// Number of types tracked (`2^K`).
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.counts.len()
    }

    /// The number of peers of type `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` uses pieces outside the state's type space.
    #[must_use]
    pub fn count(&self, c: PieceSet) -> u32 {
        self.counts[c.bits() as usize]
    }

    /// Sets the number of peers of type `c`.
    pub fn set_count(&mut self, c: PieceSet, n: u32) {
        self.counts[c.bits() as usize] = n;
    }

    /// Adds one peer of type `c`.
    pub fn add_peer(&mut self, c: PieceSet) {
        self.counts[c.bits() as usize] += 1;
    }

    /// Removes one peer of type `c`.
    ///
    /// # Panics
    ///
    /// Panics if there is no such peer.
    pub fn remove_peer(&mut self, c: PieceSet) {
        let slot = &mut self.counts[c.bits() as usize];
        assert!(*slot > 0, "no type-{c} peer to remove");
        *slot -= 1;
    }

    /// Moves a peer from type `from` to type `to` (a piece download).
    ///
    /// # Panics
    ///
    /// Panics if there is no type-`from` peer.
    pub fn move_peer(&mut self, from: PieceSet, to: PieceSet) {
        self.remove_peer(from);
        self.add_peer(to);
    }

    /// Total number of peers `n` in the system.
    #[must_use]
    pub fn total_peers(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Returns `true` if there are no peers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Iterates over `(type, count)` pairs with a positive count.
    pub fn occupied_types(&self) -> impl Iterator<Item = (PieceSet, u32)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(bits, &c)| (PieceSet::from_bits(bits as u64), c))
    }

    /// `E_S = Σ_{C ⊆ S} x_C` — the number of peers that are, or can become,
    /// type-`S` peers (used by the Lyapunov function).
    #[must_use]
    pub fn count_subsets_of(&self, s: PieceSet) -> u64 {
        self.occupied_types()
            .filter(|(c, _)| c.is_subset_of(s))
            .map(|(_, n)| u64::from(n))
            .sum()
    }

    /// Number of peers of types *not* contained in `s` (the helpers `x_{H_S}`).
    #[must_use]
    pub fn count_helpers_of(&self, s: PieceSet) -> u64 {
        self.total_peers() - self.count_subsets_of(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieceset::PieceId;

    fn set(indices: &[usize]) -> PieceSet {
        indices.iter().map(|&i| PieceId::new(i)).collect()
    }

    fn space3() -> TypeSpace {
        TypeSpace::new(3).unwrap()
    }

    #[test]
    fn empty_state() {
        let s = SwarmState::empty(&space3());
        assert!(s.is_empty());
        assert_eq!(s.total_peers(), 0);
        assert_eq!(s.num_types(), 8);
        assert_eq!(s.occupied_types().count(), 0);
    }

    #[test]
    fn add_remove_move() {
        let mut s = SwarmState::empty(&space3());
        s.add_peer(set(&[0]));
        s.add_peer(set(&[0]));
        s.add_peer(set(&[1, 2]));
        assert_eq!(s.total_peers(), 3);
        assert_eq!(s.count(set(&[0])), 2);
        s.move_peer(set(&[0]), set(&[0, 1]));
        assert_eq!(s.count(set(&[0])), 1);
        assert_eq!(s.count(set(&[0, 1])), 1);
        s.remove_peer(set(&[1, 2]));
        assert_eq!(s.total_peers(), 2);
    }

    #[test]
    #[should_panic(expected = "no type-")]
    fn remove_missing_peer_panics() {
        let mut s = SwarmState::empty(&space3());
        s.remove_peer(set(&[0]));
    }

    #[test]
    fn one_club_construction() {
        let space = space3();
        let s = SwarmState::one_club(&space, PieceId::new(0), 10);
        assert_eq!(s.total_peers(), 10);
        assert_eq!(s.count(set(&[1, 2])), 10);
    }

    #[test]
    fn subset_and_helper_counts() {
        let mut s = SwarmState::empty(&space3());
        s.set_count(PieceSet::empty(), 1);
        s.set_count(set(&[0]), 2);
        s.set_count(set(&[0, 1]), 3);
        s.set_count(set(&[2]), 4);
        let target = set(&[0, 1]);
        // subsets of {1,2}: ∅, {1}, {1,2} → 1 + 2 + 3 = 6
        assert_eq!(s.count_subsets_of(target), 6);
        assert_eq!(s.count_helpers_of(target), 4);
    }

    #[test]
    fn uniform_state() {
        let s = SwarmState::uniform(&space3(), set(&[1]), 7);
        assert_eq!(s.count(set(&[1])), 7);
        assert_eq!(s.total_peers(), 7);
        assert_eq!(s.occupied_types().count(), 1);
    }
}
