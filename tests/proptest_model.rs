//! Property-based integration tests on the model invariants, spanning the
//! `pieceset`, `markov`, and `swarm` crates.

use p2p_stability::markov::gillespie::{Simulator, StopRule};
use p2p_stability::markov::Ctmc;
use p2p_stability::pieceset::{PieceId, PieceSet, TypeSpace};
use p2p_stability::swarm::mu_infinity::{MuInfinityProcess, MuInfinityState};
use p2p_stability::swarm::{rates, stability, SwarmModel, SwarmParams, SwarmState};
use proptest::prelude::*;
use rand::{RngCore, SeedableRng};

/// Random but valid parameters for a small file.
fn arb_params() -> impl Strategy<Value = SwarmParams> {
    (
        1usize..=4,                                      // K
        prop_oneof![Just(0.0), (0.0f64..3.0)],           // U_s
        0.1f64..3.0,                                     // µ
        prop_oneof![Just(f64::INFINITY), (0.2f64..5.0)], // γ
        0.05f64..4.0,                                    // λ_∅
        proptest::collection::vec(0.0f64..1.5, 4),       // per-piece gifted rates
    )
        .prop_map(|(k, us, mu, gamma, lambda0, gifted)| {
            let mut b = SwarmParams::builder(k)
                .seed_rate(us)
                .contact_rate(mu)
                .fresh_arrivals(lambda0);
            if gamma.is_finite() {
                b = b.seed_departure_rate(gamma);
            }
            for (i, rate) in gifted.iter().take(k).enumerate() {
                let set = PieceSet::singleton(PieceId::new(i));
                // With K = 1 a single-piece arrival is a full collection,
                // which the γ = ∞ convention forbids (λ_F = 0).
                let forbidden = gamma.is_infinite() && set == PieceSet::full(k);
                if *rate > 0.0 && !forbidden {
                    b = b.arrival(set, *rate);
                }
            }
            b.build().expect("constructed parameters are valid")
        })
}

/// A random small state for the given parameters.
fn arb_state(k: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..6, 1 << k)
}

/// The state holding `raw[bits]` peers of each type, except that `γ = ∞`
/// states never hold full-collection peers.
fn state_from(params: &SwarmParams, raw: &[u32]) -> SwarmState {
    let space = TypeSpace::new(params.num_pieces()).unwrap();
    let mut state = SwarmState::empty(&space);
    for (bits, count) in raw.iter().enumerate().take(space.num_types()) {
        let c = PieceSet::from_bits(bits as u64);
        if params.departs_immediately() && c == params.full_type() {
            continue;
        }
        state.set_count(c, *count);
    }
    state
}

/// The Section III generator row of `state`, written out from the eq. (1)
/// rate function, `γ·x_F` and `λ_C`, in the order the chain enumerates its
/// jumps: arrivals, the peer-seed departure, then transfers by ascending
/// type and ascending missing piece, keeping positive rates only.
fn eq1_row(params: &SwarmParams, state: &SwarmState) -> Vec<(SwarmState, f64)> {
    let full = params.full_type();
    let mut row = Vec::new();
    for (c, _) in params.arrivals() {
        let mut next = state.clone();
        next.add_peer(c);
        row.push((next, params.arrival_rate(c)));
    }
    let seeds = state.count(full);
    if !params.departs_immediately() && seeds > 0 {
        let mut next = state.clone();
        next.remove_peer(full);
        row.push((next, params.seed_departure_rate() * f64::from(seeds)));
    }
    for (c, _) in state.occupied_types().filter(|&(c, _)| c != full) {
        for piece in full.difference(c).iter() {
            let rate = rates::transfer_rate(params, state, c, piece);
            if rate > 0.0 {
                let mut next = state.clone();
                if c.with(piece) == full && params.departs_immediately() {
                    next.remove_peer(c);
                } else {
                    next.move_peer(c, c.with(piece));
                }
                row.push((next, rate));
            }
        }
    }
    row
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generator_rows_are_well_formed(params in arb_params(), raw in arb_state(4), seed in any::<u64>()) {
        let _ = seed;
        let model = SwarmModel::new(params.clone());
        let state = state_from(&params, &raw);
        let n = state.total_peers();
        let mut out = Vec::new();
        model.transitions(&state, &mut out);

        let mut total_rate = 0.0;
        for (next, rate) in &out {
            prop_assert!(rate.is_finite() && *rate > 0.0, "rate {rate}");
            let diff = next.total_peers() as i64 - n as i64;
            prop_assert!((-1..=1).contains(&diff), "population jumped by {diff}");
            total_rate += rate;
        }
        // Total outgoing rate is bounded by arrivals + seed + peer uploads + departures.
        let gamma_term = if params.departs_immediately() {
            params.contact_rate() * n as f64 + params.seed_rate()
        } else {
            params.seed_departure_rate() * f64::from(state.count(params.full_type()))
        };
        let bound = params.total_arrival_rate()
            + params.seed_rate()
            + params.contact_rate() * n as f64
            + gamma_term
            + 1e-9;
        prop_assert!(total_rate <= bound, "total rate {total_rate} exceeds bound {bound}");
    }

    #[test]
    fn generator_rows_are_eq1_bit_for_bit(params in arb_params(), raw in arb_state(4), club in 1u32..40) {
        // Every jump the chain enumerates carries the eq. (1) rate, γ·x_F or
        // λ_C to the last bit, in the documented order, and no other jump
        // has a positive rate. (A one club with U_s = 0 has zero-rate
        // transfers, which must not appear.)
        let model = SwarmModel::new(params.clone());
        let club = model.one_club_state(PieceId::new(0), club);
        for state in [model.empty_state(), state_from(&params, &raw), club] {
            let mut row = Vec::new();
            model.transitions(&state, &mut row);
            let expected = eq1_row(&params, &state);
            prop_assert_eq!(row.len(), expected.len(), "state {:?}", state);
            for ((next, rate), (want, want_rate)) in row.iter().zip(&expected) {
                prop_assert_eq!(next, want);
                prop_assert_eq!(rate.to_bits(), want_rate.to_bits(), "{} vs {}", rate, want_rate);
            }
        }
    }

    #[test]
    fn in_place_stepping_matches_the_generic_loop_bit_for_bit(
        params in arb_params(),
        raw in arb_state(4),
        start in 0u32..3,
        club in 1u32..40,
        horizon in 0.0f64..50.0,
        seed in any::<u64>()
    ) {
        // `simulate_peer_count`'s hook steps one state in place; the
        // listed `Simulator` clones a state per candidate jump. Through the
        // one Gillespie loop, from the same stream, they must draw the same
        // numbers and record the same path.
        let model = SwarmModel::new(params.clone());
        let initial = match start {
            0 => model.empty_state(),
            1 => state_from(&params, &raw),
            _ => model.one_club_state(PieceId::new(0), club),
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let in_place = model.simulate_peer_count(initial.clone(), horizon, &mut rng);
        let mut reference_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let reference = Simulator::new(&model)
            .observe(|s: &SwarmState| s.total_peers() as f64)
            .run(initial, StopRule::at_time(horizon), &mut reference_rng)
            .path;
        prop_assert_eq!(bits(in_place.times()), bits(reference.times()));
        prop_assert_eq!(bits(in_place.values()), bits(reference.values()));
        prop_assert_eq!(in_place.end_time().to_bits(), reference.end_time().to_bits());
        // Both consumed the same number of draws.
        prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
    }

    #[test]
    fn threshold_and_delta_formulations_agree(params in arb_params()) {
        // eq. (3) for every piece  ⇔  Δ_{F−{k}} < 0 for every piece (µ < γ only).
        if params.mu_over_gamma() >= 1.0 {
            return Ok(());
        }
        let lambda_total = params.total_arrival_rate();
        for i in 0..params.num_pieces() {
            let piece = PieceId::new(i);
            let threshold = stability::piece_threshold(&params, piece).unwrap();
            let delta = stability::delta(&params, params.full_type().without(piece)).unwrap();
            // Strict comparisons must agree except exactly on the boundary.
            if (lambda_total - threshold).abs() > 1e-9 * threshold.max(1.0) {
                prop_assert_eq!(lambda_total < threshold, delta < 0.0,
                    "piece {}: λ_total = {}, threshold = {}, Δ = {}", i, lambda_total, threshold, delta);
            }
        }
    }

    #[test]
    fn classification_is_monotone_in_the_seed_rate(params in arb_params()) {
        // Adding seed capacity can only help: if stable at U_s, still stable at 2 U_s + 1.
        let verdict = stability::classify(&params).verdict;
        if verdict.is_stable() {
            let boosted = SwarmParams::builder(params.num_pieces())
                .seed_rate(params.seed_rate() * 2.0 + 1.0)
                .contact_rate(params.contact_rate())
                .seed_departure_rate(params.seed_departure_rate())
                .fresh_arrivals(params.arrival_rate(PieceSet::empty()));
            let boosted = params
                .arrivals()
                .filter(|(c, _)| !c.is_empty())
                .fold(boosted, |b, (c, r)| b.arrival(c, r))
                .build()
                .unwrap();
            prop_assert!(stability::classify(&boosted).verdict.is_stable());
        }
    }

    #[test]
    fn critical_departure_rate_is_consistent(params in arb_params()) {
        let gamma_crit = stability::critical_departure_rate(&params);
        prop_assert!(gamma_crit >= params.contact_rate() || !params.all_pieces_can_enter());
        if gamma_crit.is_finite() && params.all_pieces_can_enter() {
            // Just below the critical rate the system is stable.
            let stable = SwarmParams::builder(params.num_pieces())
                .seed_rate(params.seed_rate())
                .contact_rate(params.contact_rate())
                .seed_departure_rate(gamma_crit * 0.95)
                .fresh_arrivals(params.arrival_rate(PieceSet::empty()).max(0.0));
            let stable = params
                .arrivals()
                .filter(|(c, _)| !c.is_empty())
                .fold(stable, |b, (c, r)| b.arrival(c, r))
                .build();
            if let Ok(stable) = stable {
                prop_assert!(stability::classify(&stable).verdict.is_stable(),
                    "γ* = {}, params: {:?}", gamma_crit, stable);
            }
        }
    }

    #[test]
    fn simulation_preserves_population_accounting(params in arb_params(), seed in any::<u64>()) {
        use p2p_stability::swarm::sim::{AgentConfig, AgentSwarm};
        use rand::SeedableRng;
        let sim = AgentSwarm::with_config(
            params.clone(),
            AgentConfig { snapshot_interval: 10.0, ..Default::default() },
            Box::new(p2p_stability::swarm::policy::RandomUseful),
        ).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let result = sim.run(&[], 60.0, &mut rng);
        for snap in &result.snapshots {
            // The five Fig.-2 groups partition the population.
            prop_assert_eq!(snap.groups.total(), snap.total_peers);
            // Nobody holds more copies of the watch piece than there are peers.
            prop_assert!(snap.watch_piece_copies <= snap.total_peers);
            // With γ = ∞ no peer seeds remain in the system.
            if params.departs_immediately() {
                prop_assert_eq!(snap.peer_seeds, 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mu_infinity_in_place_run_matches_the_generic_loop_bit_for_bit(
        lambda in 0.2f64..3.0,
        horizon in 0.0f64..400.0,
        max_events in 0u64..2000,
        seed in any::<u64>()
    ) {
        // `MuInfinityProcess::simulate_peer_count`'s hook reads a top-layer
        // jump's total from tables and walks the law of `Z` lazily;
        // `Simulator` lists every candidate jump. Through the one Gillespie
        // loop, from the same stream, they must draw the same numbers and
        // stop in the same way, from the empty state and from top layers
        // below, at and beyond the 512-entry enumeration cap.
        let stop = StopRule::time_or_events(horizon, max_events);
        for k in [3usize, 5] {
            let process = MuInfinityProcess::new(k, lambda).unwrap();
            let starts = [1u64, 2, 60, 512, 513, 5000]
                .map(|peers| MuInfinityState::Uniform { peers, pieces: k - 1 });
            for initial in std::iter::once(MuInfinityState::Empty).chain(starts) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let in_place = process.simulate_peer_count(initial, stop, &mut rng);
                let mut reference_rng = rand::rngs::StdRng::seed_from_u64(seed);
                let reference = Simulator::new(&process)
                    .observe(|s: &MuInfinityState| s.peers() as f64)
                    .run(initial, stop, &mut reference_rng);
                prop_assert_eq!(bits(in_place.path.times()), bits(reference.path.times()));
                prop_assert_eq!(bits(in_place.path.values()), bits(reference.path.values()));
                prop_assert_eq!(
                    in_place.path.end_time().to_bits(),
                    reference.path.end_time().to_bits()
                );
                prop_assert_eq!(in_place.final_time.to_bits(), reference.final_time.to_bits());
                prop_assert_eq!(in_place.final_state, reference.final_state);
                prop_assert_eq!(in_place.events, reference.events);
                prop_assert_eq!(in_place.stop_reason, reference.stop_reason);
                // Both consumed the same number of draws.
                prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
            }
        }
    }
}
