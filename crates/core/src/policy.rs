//! Piece-selection policies (Section VIII-A, Theorem 14).
//!
//! Theorem 1 assumes *random useful* piece selection, but Theorem 14 extends
//! it to any policy that transfers a useful piece whenever one exists. The
//! peer-level simulator accepts any [`PiecePolicy`]; the built-in policies are
//! the ones discussed in the paper: random useful, rarest-first (the
//! BitTorrent heuristic), and sequential (lowest-numbered useful piece, the
//! example given for a reduced reachable state space).

use pieceset::{PieceId, PieceSet};
use rand::Rng;

/// A piece-selection policy: chooses which useful piece the uploader
/// transfers to the contacted peer.
///
/// Implementations must be *useful-piece conserving*: they always return a
/// member of `useful` (which the simulator guarantees to be non-empty).
/// This is exactly the family `H` of Section VIII-A restricted to policies
/// that do not depend on extra hidden state.
pub trait PiecePolicy: Send + Sync {
    /// Chooses a piece from `useful` (never empty). `piece_copies[i]` is the
    /// number of peers currently holding piece `i` (swarm-wide), allowing
    /// rarest-first style decisions.
    fn select(
        &self,
        useful: PieceSet,
        piece_copies: &[u64],
        rng: &mut dyn rand::RngCore,
    ) -> PieceId;

    /// Short human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Whether [`PiecePolicy::select`] reads `piece_copies`. Policies that
    /// never look at copy counts (random-useful, sequential) return `false`,
    /// letting a kernel skip maintaining the per-piece census on its hot
    /// paths. The counts passed to `select` are only guaranteed accurate
    /// when this returns `true`.
    fn uses_copy_counts(&self) -> bool {
        true
    }

    /// Whether [`PiecePolicy::select`] is *exactly* a uniform pick over
    /// `useful` implemented as one `gen_range(0..useful.len())` rank draw.
    /// Returning `true` licenses a kernel to inline that draw instead of
    /// calling `select` — only [`RandomUseful`] qualifies; leave the default
    /// for any policy with a different distribution or draw pattern.
    fn selects_uniformly(&self) -> bool {
        false
    }
}

/// The paper's baseline policy: a uniformly random useful piece.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomUseful;

impl PiecePolicy for RandomUseful {
    #[expect(
        clippy::expect_used,
        reason = "kernels invoke policies only with a non-empty useful set (debug-asserted above)"
    )]
    fn select(
        &self,
        useful: PieceSet,
        _piece_copies: &[u64],
        rng: &mut dyn rand::RngCore,
    ) -> PieceId {
        let count = useful.len();
        debug_assert!(count > 0, "policy invoked with no useful piece");
        let idx = rng.gen_range(0..count);
        useful.iter().nth(idx).expect("index within set size")
    }

    fn name(&self) -> &'static str {
        "random-useful"
    }

    fn uses_copy_counts(&self) -> bool {
        false
    }

    fn selects_uniformly(&self) -> bool {
        true
    }
}

/// Rarest-first: transfer the useful piece with the fewest copies in the
/// swarm, breaking ties uniformly at random. This idealises BitTorrent's
/// local rarest-first rule with global knowledge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RarestFirst;

impl PiecePolicy for RarestFirst {
    fn select(
        &self,
        useful: PieceSet,
        piece_copies: &[u64],
        rng: &mut dyn rand::RngCore,
    ) -> PieceId {
        #[expect(
            clippy::expect_used,
            reason = "kernels invoke policies only with a non-empty useful set"
        )]
        let min_copies = useful
            .iter()
            .map(|p| piece_copies.get(p.index()).copied().unwrap_or(0))
            .min()
            .expect("non-empty useful set");
        let rarest: Vec<PieceId> = useful
            .iter()
            .filter(|p| piece_copies.get(p.index()).copied().unwrap_or(0) == min_copies)
            .collect();
        rarest[rng.gen_range(0..rarest.len())]
    }

    fn name(&self) -> &'static str {
        "rarest-first"
    }
}

/// Sequential: always transfer the lowest-numbered useful piece (the policy
/// the paper uses to illustrate reduced reachable state spaces).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sequential;

impl PiecePolicy for Sequential {
    #[expect(
        clippy::expect_used,
        reason = "kernels invoke policies only with a non-empty useful set"
    )]
    fn select(
        &self,
        useful: PieceSet,
        _piece_copies: &[u64],
        _rng: &mut dyn rand::RngCore,
    ) -> PieceId {
        useful.first().expect("non-empty useful set")
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn uses_copy_counts(&self) -> bool {
        false
    }
}

/// *Most-common-first*: transfer the useful piece with the most copies.
/// This is still a useful-piece policy (so Theorem 14 applies and the
/// stability region is unchanged), but it is the worst reasonable choice for
/// piece diversity — handy as a contrast in the quasi-stability experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MostCommonFirst;

impl PiecePolicy for MostCommonFirst {
    fn select(
        &self,
        useful: PieceSet,
        piece_copies: &[u64],
        rng: &mut dyn rand::RngCore,
    ) -> PieceId {
        #[expect(
            clippy::expect_used,
            reason = "kernels invoke policies only with a non-empty useful set"
        )]
        let max_copies = useful
            .iter()
            .map(|p| piece_copies.get(p.index()).copied().unwrap_or(0))
            .max()
            .expect("non-empty useful set");
        let candidates: Vec<PieceId> = useful
            .iter()
            .filter(|p| piece_copies.get(p.index()).copied().unwrap_or(0) == max_copies)
            .collect();
        candidates[rng.gen_range(0..candidates.len())]
    }

    fn name(&self) -> &'static str {
        "most-common-first"
    }
}

/// The built-in policies by name, for command-line style selection in
/// experiments.
#[must_use]
pub fn by_name(name: &str) -> Option<Box<dyn PiecePolicy>> {
    match name {
        "random-useful" => Some(Box::new(RandomUseful)),
        "rarest-first" => Some(Box::new(RarestFirst)),
        "sequential" => Some(Box::new(Sequential)),
        "most-common-first" => Some(Box::new(MostCommonFirst)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn set(indices: &[usize]) -> PieceSet {
        indices.iter().map(|&i| PieceId::new(i)).collect()
    }

    #[test]
    fn random_useful_only_returns_useful_pieces() {
        let mut rng = StdRng::seed_from_u64(1);
        let useful = set(&[1, 3, 5]);
        let copies = vec![0; 6];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let p = RandomUseful.select(useful, &copies, &mut rng);
            assert!(useful.contains(p));
            seen.insert(p.index());
        }
        // all three useful pieces appear under uniform selection
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn rarest_first_prefers_the_rare_piece() {
        let mut rng = StdRng::seed_from_u64(2);
        let useful = set(&[0, 1, 2]);
        let copies = vec![10, 1, 7];
        for _ in 0..50 {
            let p = RarestFirst.select(useful, &copies, &mut rng);
            assert_eq!(p.index(), 1);
        }
    }

    #[test]
    fn rarest_first_breaks_ties_randomly() {
        let mut rng = StdRng::seed_from_u64(3);
        let useful = set(&[0, 2]);
        let copies = vec![3, 9, 3];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(RarestFirst.select(useful, &copies, &mut rng).index());
        }
        assert_eq!(seen, [0usize, 2].into_iter().collect());
    }

    #[test]
    fn sequential_picks_lowest_index() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = Sequential.select(set(&[4, 2, 6]), &[0; 8], &mut rng);
        assert_eq!(p.index(), 2);
    }

    #[test]
    fn most_common_first_prefers_common_piece() {
        let mut rng = StdRng::seed_from_u64(5);
        let useful = set(&[0, 1]);
        let copies = vec![2, 50];
        for _ in 0..20 {
            assert_eq!(MostCommonFirst.select(useful, &copies, &mut rng).index(), 1);
        }
    }

    #[test]
    fn copy_count_usage_is_declared() {
        assert!(!RandomUseful.uses_copy_counts());
        assert!(!Sequential.uses_copy_counts());
        assert!(RarestFirst.uses_copy_counts());
        assert!(MostCommonFirst.uses_copy_counts());
    }

    #[test]
    fn policies_resolvable_by_name() {
        for name in [
            "random-useful",
            "rarest-first",
            "sequential",
            "most-common-first",
        ] {
            let p = by_name(name).expect("known policy");
            assert_eq!(p.name(), name);
        }
        assert!(by_name("unknown").is_none());
    }

    #[test]
    fn missing_copy_information_is_tolerated() {
        // piece_copies shorter than the piece index space: treated as zero.
        let mut rng = StdRng::seed_from_u64(6);
        let p = RarestFirst.select(set(&[5]), &[1, 2], &mut rng);
        assert_eq!(p.index(), 5);
        let p = MostCommonFirst.select(set(&[5]), &[], &mut rng);
        assert_eq!(p.index(), 5);
    }
}
