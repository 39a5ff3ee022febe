//! Deterministic per-replication random streams.
//!
//! The seed crate's sweep runner seeded point `i` with `base + i`, so two
//! sweeps whose bases differ by less than the point count *shared* streams
//! between different parameter points — exactly the kind of silent
//! correlation Monte-Carlo verdicts must not have. The engine instead gives
//! every `(scenario, replication)` pair its own ChaCha stream:
//!
//! * the 256-bit **key** is expanded from `(master seed, replication id)`
//!   through the (bijective) SplitMix64 finalizer, so distinct replication
//!   ids always produce distinct keys for a fixed master seed;
//! * the ChaCha **stream id** is the scenario id, so distinct scenarios use
//!   provably disjoint keystreams even under the same key.
//!
//! Because a replication's stream depends only on these three values — not
//! on which worker thread happens to run it — batch results are bit-for-bit
//! reproducible at any parallelism level.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Domain-separation constant folded into every derived key.
const DOMAIN: u64 = 0x7032_7065_6e67_696e; // "p2pengin"

/// One step of the SplitMix64 output function (bijective on `u64`).
fn splitmix_finalize(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the 256-bit ChaCha key for `(master_seed, replication)`.
///
/// Injective in `replication` for a fixed master seed: the first expanded
/// word is a bijective image of `replication`.
#[must_use]
pub fn derive_seed(master_seed: u64, replication: u64) -> [u8; 32] {
    let mut state = splitmix_finalize(master_seed ^ DOMAIN) ^ replication;
    let mut seed = [0u8; 32];
    for chunk in seed.chunks_mut(8) {
        state = splitmix_finalize(state);
        chunk.copy_from_slice(&state.to_le_bytes());
    }
    seed
}

/// The independent random stream of one replication of one scenario.
///
/// Distinct `(scenario_id, replication)` pairs get provably or
/// cryptographically-separated streams (see the module docs); the worker
/// that executes the replication plays no part in the derivation.
#[must_use]
pub fn replication_rng(master_seed: u64, scenario_id: u64, replication: u64) -> ChaCha12Rng {
    let mut rng = ChaCha12Rng::from_seed(derive_seed(master_seed, replication));
    rng.set_stream(scenario_id);
    rng
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn first_words(master: u64, scenario: u64, replication: u64) -> [u64; 4] {
        let mut rng = replication_rng(master, scenario, replication);
        [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ]
    }

    #[test]
    fn streams_are_reproducible() {
        assert_eq!(first_words(1, 2, 3), first_words(1, 2, 3));
        // Pinned across commits: every recorded seed depends on these words.
        assert_eq!(
            first_words(1, 2, 3),
            [
                0x8fc7_4c1a_0981_16c8,
                0xe738_07f3_def6_c033,
                0x8e5b_96b5_29c7_2e70,
                0x131b_c6f4_363f_40d7,
            ]
        );
    }

    #[test]
    fn any_coordinate_change_moves_the_stream() {
        let base = first_words(1, 2, 3);
        assert_ne!(base, first_words(2, 2, 3), "master seed");
        assert_ne!(base, first_words(1, 3, 3), "scenario id");
        assert_ne!(base, first_words(1, 2, 4), "replication id");
    }

    #[test]
    fn adjacent_scenarios_and_replications_do_not_collide() {
        // The failure mode of the old `seed + i` scheme: the stream of
        // (scenario s, replication r) must not equal any nearby pair's.
        let mut seen = std::collections::HashSet::new();
        for scenario in 0..16u64 {
            for replication in 0..16u64 {
                let words = first_words(0xA11CE, scenario, replication);
                assert!(
                    seen.insert(words),
                    "collision at ({scenario}, {replication})"
                );
            }
        }
    }

    #[test]
    fn derived_keys_differ_per_replication() {
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
