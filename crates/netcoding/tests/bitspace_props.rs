//! Property-based differential tests of the bitsliced GF(2) subspace
//! against the field-generic RREF `Subspace`.
//!
//! `BitSubspace` is the coded kernel's `GF(2)` peer basis: packed `u64` rows,
//! XOR reduction, popcount ranks. Any divergence from `Subspace` over
//! `GF(2)` is a kernel correctness bug, so every test here drives both
//! representations with the *same* row sequence and demands they agree on
//! rank, membership, and the RREF basis itself (RREF is canonical, so the
//! row sets must be identical — not merely equivalent). Tiny ambient
//! dimensions are additionally checked against brute-force span
//! enumeration, and `random_combination_into` is coupon-collected to pin
//! that sampling is uniform over the whole span.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test code seeds its own StdRng; test oracles compare hash sets by membership and count by key; no hash order reaches an assertion"
)]

use netcoding::{BitSubspace, CodingVector, GaloisField, Subspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Packs a generic GF(2) vector into bitsliced words.
fn pack(v: &CodingVector, words_per_row: usize) -> Vec<u64> {
    let mut row = vec![0u64; words_per_row];
    for (i, &c) in v.coeffs().iter().enumerate() {
        assert!(c < 2, "GF(2) coefficients are bits");
        row[i / 64] |= u64::from(c) << (i % 64);
    }
    row
}

/// Unpacks bitsliced words into a generic GF(2) vector of length `k`.
fn unpack(field: GaloisField, row: &[u64], k: usize) -> CodingVector {
    let coeffs: Vec<u32> = (0..k)
        .map(|i| ((row[i / 64] >> (i % 64)) & 1) as u32)
        .collect();
    CodingVector::from_coeffs(field, coeffs).expect("valid GF(2) vector")
}

/// Draws a uniform ambient GF(2) row as packed words.
fn random_row(rng: &mut StdRng, k: usize) -> Vec<u64> {
    let words = k.div_ceil(64);
    let mut row: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
    let tail = k % 64;
    if tail != 0 {
        row[words - 1] &= (1u64 << tail) - 1;
    }
    row
}

/// Asserts the two representations agree on rank, membership of random
/// probes, and the exact RREF row set.
fn assert_agree(bit: &BitSubspace, generic: &Subspace, rng: &mut StdRng, k: usize) {
    let field = generic.field();
    assert_eq!(bit.dimension(), generic.dimension(), "rank diverged");
    assert_eq!(bit.is_trivial(), generic.is_trivial());
    assert_eq!(bit.is_full(), generic.is_full());
    // RREF is canonical: the basis row SETS must be identical.
    let bit_rows: HashSet<Vec<u64>> = bit.basis_rows().map(<[u64]>::to_vec).collect();
    let generic_rows: HashSet<Vec<u64>> = generic
        .basis()
        .iter()
        .map(|v| pack(v, bit.words_per_row()))
        .collect();
    assert_eq!(bit_rows, generic_rows, "RREF bases diverged");
    // Membership agreement on random probes and on span members.
    for _ in 0..8 {
        let probe = random_row(rng, k);
        assert_eq!(
            bit.contains(&probe),
            generic.contains(&unpack(field, &probe, k)),
            "membership diverged on {probe:?}"
        );
    }
    if !bit.is_trivial() {
        let mut member = Vec::new();
        bit.random_combination_into(rng, &mut member);
        assert!(bit.contains(&member));
        assert!(generic.contains(&unpack(field, &member, k)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn absorb_churn_agrees_with_generic_subspace(k in 1usize..=16, seed in any::<u64>(), steps in 1usize..32) {
        let field = GaloisField::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bit = BitSubspace::empty(k);
        let mut generic = Subspace::empty(field, k);
        for step in 0..steps {
            // Alternate fresh uniform rows, unit inserts, and re-inserted
            // span members — the three row sources the kernel feeds it.
            match step % 4 {
                3 if !bit.is_trivial() => {
                    let mut member = Vec::new();
                    bit.random_combination_into(&mut rng, &mut member);
                    let mut coeffs: Vec<u32> =
                        unpack(field, &member, k).coeffs().to_vec();
                    let grew_generic = generic.absorb(&mut coeffs).unwrap();
                    prop_assert!(!bit.absorb(&mut member), "span members never grow the span");
                    prop_assert!(!grew_generic);
                }
                2 => {
                    let unit = (seed as usize).wrapping_add(step) % k;
                    let grew_bit = bit.insert_unit(unit);
                    let grew_generic = generic
                        .insert(&CodingVector::unit(field, k, unit))
                        .unwrap();
                    prop_assert_eq!(grew_bit, grew_generic, "unit insert diverged");
                }
                _ => {
                    let mut row = random_row(&mut rng, k);
                    let mut coeffs: Vec<u32> = unpack(field, &row, k).coeffs().to_vec();
                    let grew_bit = bit.absorb(&mut row);
                    let grew_generic = generic.absorb(&mut coeffs).unwrap();
                    prop_assert_eq!(grew_bit, grew_generic, "absorb diverged");
                    if grew_bit {
                        // On success `absorb` leaves the inserted RREF row in
                        // place; it must be a basis row of both.
                        prop_assert!(bit.contains(&row));
                        prop_assert!(generic.contains(&unpack(field, &row, k)));
                    }
                }
            }
            let mut probe_rng = StdRng::seed_from_u64(seed ^ (step as u64) << 17);
            assert_agree(&bit, &generic, &mut probe_rng, k);
        }
    }

    #[test]
    fn multiword_rows_agree_with_generic_subspace(seed in any::<u64>(), steps in 1usize..24) {
        // Ambient dimension 70 forces two-word rows: word-boundary pivot
        // arithmetic and tail masking run through the same differential.
        let k = 70;
        let field = GaloisField::new(2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bit = BitSubspace::empty(k);
        prop_assert_eq!(bit.words_per_row(), 2);
        let mut generic = Subspace::empty(field, k);
        for _ in 0..steps {
            let mut row = random_row(&mut rng, k);
            let mut coeffs: Vec<u32> = unpack(field, &row, k).coeffs().to_vec();
            prop_assert_eq!(bit.absorb(&mut row), generic.absorb(&mut coeffs).unwrap());
        }
        let mut probe_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        assert_agree(&bit, &generic, &mut probe_rng, k);
    }

    #[test]
    fn set_units_equals_absorbing_unit_rows(k in 1usize..=16, bits in any::<u64>()) {
        // `set_units` is the materialization fast path for unit-lazy peers:
        // it must construct exactly the subspace reached by absorbing each
        // unit vector one at a time.
        let bits = bits & ((1u64 << k) - 1).max(1);
        let mut direct = BitSubspace::empty(k);
        direct.set_units(bits);
        let mut incremental = BitSubspace::empty(k);
        for unit in 0..k {
            if (bits >> unit) & 1 == 1 {
                prop_assert!(incremental.insert_unit(unit));
            }
        }
        prop_assert_eq!(&direct, &incremental);
        prop_assert_eq!(direct.dimension(), bits.count_ones() as usize);
    }

    #[test]
    fn tiny_k_agrees_with_brute_force_enumeration(k in 1usize..=6, seed in any::<u64>(), generators in 1usize..5) {
        // At tiny K the whole ambient space is enumerable: membership must
        // agree vector-for-vector with the brute-force span of the absorbed
        // generators, and |span| = 2^dim.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = BitSubspace::empty(k);
        let mut gens: Vec<u64> = Vec::new();
        for _ in 0..generators {
            let row = random_row(&mut rng, k);
            gens.push(row[0]);
            s.absorb(&mut row.clone());
        }
        // Brute-force span: XOR of every subset of the generators.
        let mut combos = HashSet::new();
        for mask in 0u32..1 << gens.len() {
            let mut acc = 0u64;
            for (i, &g) in gens.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    acc ^= g;
                }
            }
            combos.insert(acc);
        }
        prop_assert_eq!(combos.len(), 1usize << s.dimension(), "|span| = 2^dim");
        for word in 0u64..1 << k {
            prop_assert_eq!(
                s.contains(&[word]),
                combos.contains(&word),
                "membership diverged from enumeration on {:#b}", word
            );
        }
    }
}

#[test]
fn random_combination_is_uniform_over_the_span() {
    // `random_combination_into` must sample the span uniformly — the
    // coded kernel's GF(2) uploads depend on it for exactness. Build a
    // dim-4 subspace of GF(2)^9, draw 16 × 2^dim × 32 samples, and demand
    // every member's count within ±5 standard deviations of the uniform
    // expectation (and in particular every member reached).
    let k = 9;
    let mut rng = StdRng::seed_from_u64(0xB175);
    let mut s = BitSubspace::empty(k);
    while s.dimension() < 4 {
        s.absorb(&mut random_row(&mut rng, k));
    }
    let members = 1usize << s.dimension();
    let per_member = 512u64;
    let samples = per_member * members as u64;
    let mut counts: HashMap<u64, u64> = HashMap::new();
    let mut row = Vec::new();
    for _ in 0..samples {
        s.random_combination_into(&mut rng, &mut row);
        *counts.entry(row[0]).or_insert(0) += 1;
    }
    assert_eq!(counts.len(), members, "sampling reaches every span member");
    // Binomial(n, 1/members): sd = sqrt(n·p·(1−p)).
    let p = 1.0 / members as f64;
    let sd = (samples as f64 * p * (1.0 - p)).sqrt();
    for (member, &count) in &counts {
        assert!(
            s.contains(&[*member]),
            "sample {member:#b} escaped the span"
        );
        let deviation = (count as f64 - per_member as f64).abs();
        assert!(
            deviation <= 5.0 * sd,
            "member {member:#b} count {count} deviates {deviation:.1} > 5σ ({sd:.1})"
        );
    }
}
