//! Integration tests: the three worked examples of Section IV, cross-checking
//! the Theorem 1 classification against simulation of the exact CTMC.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

use p2p_stability::engine::{EngineConfig, Scenario, Session, Workload};
use p2p_stability::markov::PathClass;
use p2p_stability::swarm::{stability, StabilityVerdict, SwarmModel};
use p2p_stability::workload::scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Majority-vote classification over a small replication batch — a single
/// finite run near the boundary is one exponential draw away from an
/// `Indeterminate` verdict, which is exactly what the engine exists to
/// average out.
fn simulate_class(
    params: &p2p_stability::swarm::SwarmParams,
    horizon: f64,
    seed: u64,
) -> PathClass {
    let scenarios = vec![Scenario::new(0, "integration-point", params.clone())];
    let config = EngineConfig::default()
        .with_replications(5)
        .with_horizon(horizon)
        .with_master_seed(seed)
        .with_jobs(0);
    Session::builder()
        .config(config)
        .workload(Workload::ctmc(scenarios))
        .build()
        .expect("valid session")
        .run()
        .into_ctmc()
        .expect("ctmc workload")
        .remove(0)
        .majority
}

#[test]
fn example1_boundary_is_where_the_paper_says() {
    // Threshold λ0* = U_s / (1 − µ/γ) = 2 for U_s = 1, µ = 1, γ = 2.
    let stable = scenario::example1(1.2, 1.0, 1.0, 2.0).unwrap();
    let unstable = scenario::example1(3.2, 1.0, 1.0, 2.0).unwrap();
    assert_eq!(
        stability::classify(&stable).verdict,
        StabilityVerdict::PositiveRecurrent
    );
    assert_eq!(
        stability::classify(&unstable).verdict,
        StabilityVerdict::Transient
    );
    assert_eq!(simulate_class(&stable, 2_500.0, 1), PathClass::Stable);
    assert_eq!(simulate_class(&unstable, 1_500.0, 2), PathClass::Growing);
}

#[test]
fn example1_growth_rate_matches_first_order_prediction() {
    // Well outside the region the population grows at ≈ λ0 − U_s/(1−µ/γ).
    let params = scenario::example1(4.0, 1.0, 1.0, 2.0).unwrap();
    let model = SwarmModel::new(params);
    let mut rng = StdRng::seed_from_u64(3);
    let path = model.simulate_peer_count(model.empty_state(), 2_000.0, &mut rng);
    let slope = path.trend(0.5).slope;
    assert!((slope - 2.0).abs() < 0.6, "measured {slope}, predicted 2.0");
}

#[test]
fn example2_two_to_one_rule() {
    // Stable wedge: λ12 < 2 λ34 and λ34 < 2 λ12.
    let stable = scenario::example2(1.0, 0.8, 1.0).unwrap();
    let unstable = scenario::example2(3.0, 1.0, 1.0).unwrap();
    assert!(stability::classify(&stable).verdict.is_stable());
    assert_eq!(
        stability::classify(&unstable).verdict,
        StabilityVerdict::Transient
    );
    assert_eq!(simulate_class(&stable, 2_500.0, 4), PathClass::Stable);
    assert_eq!(simulate_class(&unstable, 1_500.0, 5), PathClass::Growing);
}

#[test]
fn example3_factor_rule_with_peer_seeds() {
    let mu = 1.0;
    let gamma = 2.0;
    // factor = (2 + µ/γ)/(1 − µ/γ) = 5: λ1 + λ2 must stay below 5 λ3.
    let stable = scenario::example3([1.0, 1.0, 0.5], mu, gamma).unwrap();
    let unstable = scenario::example3([2.0, 2.0, 0.2], mu, 4.0).unwrap();
    assert!(stability::classify(&stable).verdict.is_stable());
    assert_eq!(
        stability::classify(&unstable).verdict,
        StabilityVerdict::Transient
    );
    assert_eq!(simulate_class(&stable, 2_500.0, 6), PathClass::Stable);
    assert_eq!(simulate_class(&unstable, 1_500.0, 7), PathClass::Growing);
}

#[test]
fn example3_gamma_infinite_asymmetric_arrivals_grow() {
    // With immediate departures, unequal single-piece arrival rates are
    // transient (the paper's observation before Section VIII-D).
    let params = scenario::example3([1.5, 1.5, 0.3], 1.0, f64::INFINITY).unwrap();
    assert_eq!(
        stability::classify(&params).verdict,
        StabilityVerdict::Transient
    );
    assert_eq!(simulate_class(&params, 1_500.0, 8), PathClass::Growing);
}

#[test]
fn one_extra_piece_corollary_end_to_end() {
    // γ = 0.9 µ keeps a heavily loaded swarm stable; γ = 3 µ does not.
    let stable = scenario::one_extra_piece(3, 15.0, 0.9).unwrap();
    let unstable = scenario::one_extra_piece(3, 15.0, 3.0).unwrap();
    assert!(stability::classify(&stable).verdict.is_stable());
    assert_eq!(
        stability::classify(&unstable).verdict,
        StabilityVerdict::Transient
    );
    assert_eq!(simulate_class(&stable, 1_200.0, 9), PathClass::Stable);
    assert_eq!(simulate_class(&unstable, 1_200.0, 10), PathClass::Growing);
}

#[test]
fn critical_parameters_are_consistent_with_classification() {
    let params = scenario::example1(1.5, 1.0, 1.0, 2.0).unwrap();
    // Scale arrivals to the critical point and check both sides.
    let scale = stability::critical_arrival_scale(&params);
    assert!(scale.is_finite() && scale > 1.0);
    let below = scenario::example1(1.5 * scale * 0.9, 1.0, 1.0, 2.0).unwrap();
    let above = scenario::example1(1.5 * scale * 1.1, 1.0, 1.0, 2.0).unwrap();
    assert!(stability::classify(&below).verdict.is_stable());
    assert_eq!(
        stability::classify(&above).verdict,
        StabilityVerdict::Transient
    );
    // Seed-rate solver agrees too.
    let needed =
        stability::critical_seed_rate(&scenario::example1(3.0, 0.0, 1.0, 2.0).unwrap()).unwrap();
    let fixed = scenario::example1(3.0, needed * 1.05, 1.0, 2.0).unwrap();
    assert!(stability::classify(&fixed).verdict.is_stable());
}
