//! Property tests for the Walker/Vose alias table: sampled frequencies must
//! match the build weights within statistical tolerance, zero-weight
//! categories must never be drawn, and degenerate inputs must be rejected —
//! for arbitrary weight vectors, not just the hand-picked unit-test cases.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

use markov::alias::AliasTable;
use markov::poisson::CumulativeWeights;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Weight vectors with at least one strictly positive entry, mixing zero
/// and positive weights across several magnitudes.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![Just(0.0), 0.01f64..10.0, 10.0f64..1_000.0],
        1..12,
    )
    .prop_map(|mut w| {
        if w.iter().all(|&x| x == 0.0) {
            w[0] = 1.0;
        }
        w
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sampled_frequencies_match_weights(weights in arb_weights(), seed in any::<u64>()) {
        let table = AliasTable::new(&weights).expect("positive total weight");
        prop_assert_eq!(table.len(), weights.len());
        let total: f64 = weights.iter().sum();
        let n = 60_000u64;
        let mut counts = vec![0u64; weights.len()];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let observed = counts[i] as f64 / n as f64;
            if w == 0.0 {
                prop_assert_eq!(counts[i], 0, "zero-weight category {} drawn", i);
            } else {
                // 5σ binomial tolerance plus an absolute floor for tiny p.
                let sigma = (expected * (1.0 - expected) / n as f64).sqrt();
                prop_assert!(
                    (observed - expected).abs() < 5.0 * sigma + 2e-3,
                    "category {}: observed {}, expected {}",
                    i, observed, expected
                );
            }
        }
    }

    #[test]
    fn alias_and_cumulative_samplers_agree_in_distribution(
        weights in arb_weights(),
        seed in any::<u64>(),
    ) {
        // The two samplers consume draws differently but must target the
        // same categorical law: compare their empirical means of the
        // sampled index.
        let alias = AliasTable::new(&weights).expect("positive total weight");
        let cum = CumulativeWeights::new(&weights).expect("positive total weight");
        let n = 40_000;
        let mut rng = StdRng::seed_from_u64(seed);
        let mean_alias: f64 =
            (0..n).map(|_| alias.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let mean_cum: f64 =
            (0..n).map(|_| cum.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let spread = weights.len() as f64;
        prop_assert!(
            (mean_alias - mean_cum).abs() < 0.05 * spread + 5.0 * spread / (n as f64).sqrt(),
            "alias mean {} vs cumulative mean {}",
            mean_alias,
            mean_cum
        );
    }

    #[test]
    fn degenerate_single_weight_is_always_drawn(w in 0.001f64..1e6, seed in any::<u64>()) {
        let table = AliasTable::new(&[w]).expect("one positive weight");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn all_zero_and_invalid_weights_are_rejected(n in 0usize..8) {
        let zeros = vec![0.0; n];
        prop_assert!(AliasTable::new(&zeros).is_none());
        let mut table = AliasTable::default();
        prop_assert!(!table.rebuild(&zeros));
        prop_assert!(table.is_empty());
    }
}
