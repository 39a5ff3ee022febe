//! Property-based tests for the piece-set algebra.

use pieceset::{PieceId, PieceSet, TypeSpace, MAX_PIECES};
use proptest::prelude::*;

fn arb_set() -> impl Strategy<Value = PieceSet> {
    any::<u64>().prop_map(PieceSet::from_bits)
}

fn arb_small_set(k: usize) -> impl Strategy<Value = PieceSet> {
    let mask = if k == MAX_PIECES {
        u64::MAX
    } else {
        (1u64 << k) - 1
    };
    any::<u64>().prop_map(move |b| PieceSet::from_bits(b & mask))
}

proptest! {
    #[test]
    fn union_is_commutative_and_associative(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.union(b).union(c), a.union(b.union(c)));
    }

    #[test]
    fn intersection_is_commutative_and_associative(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.intersection(b), b.intersection(a));
        prop_assert_eq!(a.intersection(b).intersection(c), a.intersection(b.intersection(c)));
    }

    #[test]
    fn distributive_laws(a in arb_set(), b in arb_set(), c in arb_set()) {
        prop_assert_eq!(a.intersection(b.union(c)), a.intersection(b).union(a.intersection(c)));
        prop_assert_eq!(a.union(b.intersection(c)), a.union(b).intersection(a.union(c)));
    }

    #[test]
    fn difference_relations(a in arb_set(), b in arb_set()) {
        let d = a.difference(b);
        prop_assert!(d.is_subset_of(a));
        prop_assert!(d.intersection(b).is_empty());
        prop_assert_eq!(d.union(a.intersection(b)), a);
        // |a - b| + |a ∩ b| = |a|
        prop_assert_eq!(d.len() + a.intersection(b).len(), a.len());
    }

    #[test]
    fn subset_iff_difference_empty(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.is_subset_of(b), a.difference(b).is_empty());
        prop_assert_eq!(b.can_help(a), !b.is_subset_of(a));
    }

    #[test]
    fn inclusion_exclusion_cardinality(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.union(b).len() + a.intersection(b).len(), a.len() + b.len());
    }

    #[test]
    fn insert_then_remove_restores(a in arb_set(), idx in 0usize..MAX_PIECES) {
        let p = PieceId::new(idx);
        if !a.contains(p) {
            let mut s = a;
            s.insert(p);
            prop_assert_eq!(s.len(), a.len() + 1);
            s.remove(p);
            prop_assert_eq!(s, a);
        }
    }

    #[test]
    fn iteration_reconstructs_set(a in arb_set()) {
        let rebuilt: PieceSet = a.iter().collect();
        prop_assert_eq!(rebuilt, a);
        prop_assert_eq!(a.iter().count(), a.len());
    }

    #[test]
    fn complement_partitions_full(k in 1usize..=16, raw in any::<u64>()) {
        let a = PieceSet::from_bits(raw & ((1u64 << k) - 1));
        let comp = a.complement(k);
        prop_assert!(comp.intersection(a).is_empty());
        prop_assert_eq!(comp.union(a), PieceSet::full(k));
        prop_assert_eq!(comp.len() + a.len(), k);
    }

    #[test]
    fn type_space_index_bijection(k in 1usize..=12, raw in any::<u64>()) {
        let space = TypeSpace::new(k).unwrap();
        let mask = (1u64 << k) - 1;
        let c = PieceSet::from_bits(raw & mask);
        let idx = space.index_of(c);
        prop_assert!(idx.value() < space.num_types());
        prop_assert_eq!(space.type_at(idx), c);
    }

    #[test]
    fn subsets_iter_yields_exactly_subsets(k in 1usize..=10, raw in any::<u64>()) {
        let space = TypeSpace::new(k).unwrap();
        let c = PieceSet::from_bits(raw & ((1u64 << k) - 1));
        let subs: Vec<PieceSet> = space.subsets_of(c).collect();
        prop_assert_eq!(subs.len(), 1usize << c.len());
        for s in &subs {
            prop_assert!(s.is_subset_of(c));
        }
        // no duplicates
        let mut sorted = subs.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), subs.len());
    }

    #[test]
    fn helpers_partition(k in 1usize..=8, raw in any::<u64>()) {
        let space = TypeSpace::new(k).unwrap();
        let c = PieceSet::from_bits(raw & ((1u64 << k) - 1));
        let helpers = space.helpers_of(c).count();
        let subsets = space.subsets_of(c).count();
        prop_assert_eq!(helpers + subsets, space.num_types());
    }

    #[test]
    fn small_set_respects_bound(k in 1usize..=MAX_PIECES, s in arb_small_set(8)) {
        let _ = k;
        prop_assert!(s.is_subset_of(PieceSet::full(8)));
    }
}
