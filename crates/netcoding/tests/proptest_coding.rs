//! Property-based tests for finite-field and subspace invariants.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "test code seeds its own StdRng; test oracles compare hash sets by membership and count by key; no hash order reaches an assertion"
)]

use netcoding::{CodingVector, GaloisField, Subspace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIELD_ORDERS: [u64; 6] = [2, 3, 4, 8, 16, 251];

fn arb_field() -> impl Strategy<Value = GaloisField> {
    (0usize..FIELD_ORDERS.len()).prop_map(|i| GaloisField::new(FIELD_ORDERS[i]).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_axioms_hold_on_random_elements(field in arb_field(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = field.random_element(&mut rng);
        let b = field.random_element(&mut rng);
        let c = field.random_element(&mut rng);
        // commutativity, associativity, distributivity
        prop_assert_eq!(field.add(a, b), field.add(b, a));
        prop_assert_eq!(field.mul(a, b), field.mul(b, a));
        prop_assert_eq!(field.add(field.add(a, b), c), field.add(a, field.add(b, c)));
        prop_assert_eq!(field.mul(field.mul(a, b), c), field.mul(a, field.mul(b, c)));
        prop_assert_eq!(field.mul(a, field.add(b, c)), field.add(field.mul(a, b), field.mul(a, c)));
        // identities and inverses
        prop_assert_eq!(field.add(a, 0), a);
        prop_assert_eq!(field.mul(a, 1), a);
        prop_assert_eq!(field.add(a, field.neg(a)), 0);
        if a != 0 {
            prop_assert_eq!(field.mul(a, field.inv(a).unwrap()), 1);
        }
        // subtraction / division invert addition / multiplication
        prop_assert_eq!(field.sub(field.add(a, b), b), a);
        if b != 0 {
            prop_assert_eq!(field.div(field.mul(a, b), b).unwrap(), a);
        }
    }

    #[test]
    fn vector_space_axioms(field in arb_field(), seed in any::<u64>(), len in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = CodingVector::random(field, len, &mut rng);
        let v = CodingVector::random(field, len, &mut rng);
        let a = field.random_element(&mut rng);
        // commutativity of vector addition
        prop_assert_eq!(u.add(&v).unwrap(), v.add(&u).unwrap());
        // scaling distributes over vector addition
        let lhs = u.add(&v).unwrap().scale(a).unwrap();
        let rhs = u.scale(a).unwrap().add(&v.scale(a).unwrap()).unwrap();
        prop_assert_eq!(lhs, rhs);
        // zero and one
        prop_assert!(u.scale(0).unwrap().is_zero());
        prop_assert_eq!(u.scale(1).unwrap(), u);
    }

    #[test]
    fn subspace_dimension_laws(field in arb_field(), seed in any::<u64>(), dim in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ambient = 6;
        let vectors: Vec<CodingVector> = (0..dim).map(|_| CodingVector::random(field, ambient, &mut rng)).collect();
        let s = Subspace::span(field, ambient, &vectors).unwrap();
        // dimension bounded by both the number of generators and the ambient dim
        prop_assert!(s.dimension() <= dim.min(ambient));
        // every generator is contained
        for v in &vectors {
            prop_assert!(s.contains(v));
        }
        // sum with itself is itself; intersection with itself has same dim
        prop_assert_eq!(s.sum(&s).unwrap().dimension(), s.dimension());
        prop_assert_eq!(s.intersection_dim(&s).unwrap(), s.dimension());
        // subspace of the full space
        let full = Subspace::full(field, ambient);
        prop_assert!(s.is_subspace_of(&full));
        // Grassmann bound for a second random subspace
        let t = Subspace::span(
            field,
            ambient,
            &(0..dim).map(|_| CodingVector::random(field, ambient, &mut rng)).collect::<Vec<_>>(),
        ).unwrap();
        let sum = s.sum(&t).unwrap();
        let inter = s.intersection_dim(&t).unwrap();
        prop_assert_eq!(sum.dimension() + inter, s.dimension() + t.dimension());
        prop_assert!(sum.dimension() <= ambient);
    }

    #[test]
    fn inserting_subspace_vectors_never_grows_dimension(field in arb_field(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ambient = 5;
        let vectors: Vec<CodingVector> = (0..3).map(|_| CodingVector::random(field, ambient, &mut rng)).collect();
        let mut s = Subspace::span(field, ambient, &vectors).unwrap();
        let d = s.dimension();
        for _ in 0..10 {
            let v = s.random_vector(&mut rng);
            prop_assert!(s.contains(&v));
            prop_assert!(!s.insert(&v).unwrap());
        }
        prop_assert_eq!(s.dimension(), d);
    }

    #[test]
    fn rref_invariants_survive_random_insert_churn(field in arb_field(), seed in any::<u64>(), inserts in 1usize..24) {
        // The coded kernel's peer state is a Subspace updated by thousands
        // of incremental inserts; this pins the representation invariants
        // that updates must preserve: the dimension never decreases and
        // never exceeds K, and the basis stays in reduced row-echelon form
        // (strictly increasing pivot columns, unit pivots, pivot columns
        // cleared in every other row).
        let mut rng = StdRng::seed_from_u64(seed);
        let ambient = 5;
        let mut s = Subspace::empty(field, ambient);
        let mut prev_dim = 0;
        for step in 0..inserts {
            // Alternate independent-looking random vectors with vectors
            // already in the span (via random_vector), mimicking churn.
            let grew = if step % 3 == 2 && !s.is_trivial() {
                let v = s.random_vector(&mut rng);
                let grew = s.insert(&v).unwrap();
                prop_assert!(!grew, "span members never grow the span");
                grew
            } else {
                let mut row: Vec<u32> = (0..ambient).map(|_| field.random_element(&mut rng)).collect();
                let before = s.dimension();
                let grew = s.absorb(&mut row).unwrap();
                prop_assert_eq!(s.dimension(), before + usize::from(grew));
                grew
            };
            let _ = grew;
            // Dimension is monotone and bounded.
            prop_assert!(s.dimension() >= prev_dim);
            prop_assert!(s.dimension() <= ambient);
            prev_dim = s.dimension();
            // RREF structure of the basis.
            let basis = s.basis();
            let mut last_pivot = None;
            for b in &basis {
                let pivot = b.leading_index().expect("basis rows are non-zero");
                if let Some(prev) = last_pivot {
                    prop_assert!(pivot > prev, "pivot columns strictly increase");
                }
                last_pivot = Some(pivot);
                prop_assert_eq!(b.coeffs()[pivot], 1, "pivots are normalised");
                for other in &basis {
                    if other != b {
                        prop_assert_eq!(other.coeffs()[pivot], 0, "pivot columns are cleared");
                    }
                }
            }
            // Membership is closed under addition and scaling.
            if !s.is_trivial() {
                let u = s.random_vector(&mut rng);
                let v = s.random_vector(&mut rng);
                prop_assert!(s.contains(&u.add(&v).unwrap()));
                prop_assert!(s.contains(&u.scale(field.random_element(&mut rng)).unwrap()));
            }
        }
    }

    #[test]
    fn subspace_agrees_with_brute_force_enumeration(qi in 0usize..2, seed in any::<u64>(), generators in 1usize..4) {
        // At tiny (q, K) the whole vector space is enumerable: the RREF
        // subspace must agree vector-for-vector with the brute-force span,
        // sums must match brute-force unions, and sampling must be supported
        // exactly on the span.
        let field = GaloisField::new([2u64, 3][qi]).unwrap();
        let q = field.order();
        let k = 3usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let gens: Vec<CodingVector> = (0..generators)
            .map(|_| CodingVector::random(field, k, &mut rng))
            .collect();
        let s = Subspace::span(field, k, &gens).unwrap();

        // Brute-force span: every linear combination of the generators.
        let mut combos = std::collections::HashSet::new();
        let m = gens.len();
        for mut code in 0..(q as u64).pow(m as u32) {
            let mut acc = CodingVector::zero(field, k);
            for g in &gens {
                let coeff = (code % u64::from(q)) as u32;
                code /= u64::from(q);
                acc = acc.add_scaled(g, coeff).unwrap();
            }
            combos.insert(acc.coeffs().to_vec());
        }
        prop_assert_eq!(combos.len() as u64, (u64::from(q)).pow(s.dimension() as u32),
            "|span| = q^dim");

        // Membership agrees with enumeration over the whole ambient space.
        for mut code in 0..(q as u64).pow(k as u32) {
            let mut coeffs = Vec::with_capacity(k);
            for _ in 0..k {
                coeffs.push((code % u64::from(q)) as u32);
                code /= u64::from(q);
            }
            let v = CodingVector::from_coeffs(field, coeffs.clone()).unwrap();
            prop_assert_eq!(s.contains(&v), combos.contains(&coeffs));
        }

        // The sum with a second subspace matches the brute-force span of the
        // pooled generators.
        let extra = CodingVector::random(field, k, &mut rng);
        let t = Subspace::span(field, k, std::slice::from_ref(&extra)).unwrap();
        let sum = s.sum(&t).unwrap();
        let mut pooled = gens.clone();
        pooled.push(extra);
        let pooled_span = Subspace::span(field, k, &pooled).unwrap();
        prop_assert_eq!(&sum, &pooled_span);

        // Sampling is supported exactly on the span (coupon-collect it).
        let mut seen = std::collections::HashSet::new();
        for _ in 0..600 {
            let v = s.random_vector(&mut rng);
            prop_assert!(combos.contains(v.coeffs()), "samples stay in the span");
            seen.insert(v.coeffs().to_vec());
        }
        prop_assert_eq!(seen.len(), combos.len(), "sampling reaches every member");
    }

    #[test]
    fn useful_probability_in_unit_interval(field in arb_field(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ambient = 4;
        let a = Subspace::span(field, ambient, &[CodingVector::random(field, ambient, &mut rng)]).unwrap();
        let b = Subspace::span(
            field,
            ambient,
            &(0..2).map(|_| CodingVector::random(field, ambient, &mut rng)).collect::<Vec<_>>(),
        ).unwrap();
        let p = a.useful_probability_from(&b).unwrap();
        prop_assert!((0.0..=1.0).contains(&p));
        // If b cannot help a, the probability must be zero; if it can, at least 1 - 1/q.
        if !b.is_subspace_of(&a) {
            let q = f64::from(field.order());
            prop_assert!(p >= 1.0 - 1.0 / q - 1e-12, "p = {p}");
        } else {
            prop_assert!(p.abs() < 1e-12);
        }
        // The coded kernel's upload path meets the formula: b's random
        // combination, absorbed into a copy of a, raises its dimension with
        // probability p (within five standard errors of 2,000 uploads).
        let uploads = 2_000;
        let mut row = Vec::new();
        let useful = (0..uploads)
            .filter(|_| {
                b.random_combination_into(&mut rng, &mut row);
                a.clone().absorb(&mut row).unwrap()
            })
            .count();
        let share = useful as f64 / f64::from(uploads);
        let se = (p * (1.0 - p) / f64::from(uploads)).sqrt();
        prop_assert!((share - p).abs() <= 5.0 * se, "share {share} vs p = {p}");
    }
}
