//! Integration tests: the type-count CTMC simulator and the peer-level
//! agent-based simulator implement the same stochastic model, so on identical
//! parameters they must agree on the qualitative behaviour and, for stable
//! points, on the time-average population. At `K = 1` both are also held to
//! the exact stationary law of the chain, solved by `markov::stationary`, and
//! so are the two coded kernels, whose `K = 1` swarm is the same chain with
//! its upload rates thinned by `1 − 1/q`.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

use p2p_stability::markov::stationary::{stationary_distribution, StationaryOptions};
use p2p_stability::markov::{PathClass, PathClassifier, SamplePath};
use p2p_stability::pieceset::PieceSet;
use p2p_stability::swarm::coded::CodedParams;
use p2p_stability::swarm::sim::{AgentConfig, AgentSwarm, KernelKind};
use p2p_stability::swarm::{policy, SwarmModel, SwarmParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn agent_config() -> AgentConfig {
    AgentConfig {
        snapshot_interval: 2.0,
        ..Default::default()
    }
}

fn ctmc_average(params: &SwarmParams, horizon: f64, seed: u64) -> f64 {
    let model = SwarmModel::new(params.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let path = model.simulate_peer_count(model.empty_state(), horizon, &mut rng);
    path.time_average_over(horizon * 0.3, horizon)
}

fn agent_average(params: &SwarmParams, horizon: f64, seed: u64) -> f64 {
    let sim = AgentSwarm::with_config(
        params.clone(),
        agent_config(),
        Box::new(policy::RandomUseful),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let result = sim.run(&[], horizon, &mut rng);
    result
        .peer_count_path()
        .time_average_over(horizon * 0.3, horizon)
}

#[test]
fn stationary_averages_agree_on_a_stable_point() {
    // Example-1-like stable system.
    let params = SwarmParams::builder(2)
        .seed_rate(1.5)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(1.0)
        .build()
        .unwrap();
    let horizon = 4_000.0;
    let a = ctmc_average(&params, horizon, 1);
    let b = agent_average(&params, horizon, 2);
    let rel = (a - b).abs() / a.max(b).max(1.0);
    assert!(rel < 0.2, "CTMC average {a:.2} vs agent average {b:.2}");
}

#[test]
fn both_simulators_classify_a_transient_point_as_growing() {
    let params = SwarmParams::builder(2)
        .seed_rate(0.2)
        .contact_rate(1.0)
        .seed_departure_rate(4.0)
        .fresh_arrivals(3.0)
        .build()
        .unwrap();
    let horizon = 1_200.0;
    let classifier = PathClassifier::new(params.total_arrival_rate(), 30.0);

    let model = SwarmModel::new(params.clone());
    let mut rng = StdRng::seed_from_u64(3);
    let ctmc_path = model.simulate_peer_count(model.empty_state(), horizon, &mut rng);
    assert_eq!(classifier.classify(&ctmc_path).class, PathClass::Growing);

    let sim =
        AgentSwarm::with_config(params, agent_config(), Box::new(policy::RandomUseful)).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let agent_path = sim.run(&[], horizon, &mut rng).peer_count_path();
    assert_eq!(classifier.classify(&agent_path).class, PathClass::Growing);

    // And the growth rates agree to within simulation noise.
    let s1 = ctmc_path.trend(0.5).slope;
    let s2 = agent_path.trend(0.5).slope;
    assert!(
        (s1 - s2).abs() < 0.5 * s1.max(s2),
        "slopes {s1:.2} vs {s2:.2}"
    );
}

#[test]
fn growth_rates_agree_from_a_one_club_start() {
    // Start both engines from the same 100-peer one club in a transient
    // configuration with gifted arrivals and compare one-club growth rates.
    let params = SwarmParams::builder(3)
        .seed_rate(0.2)
        .contact_rate(1.0)
        .seed_departure_rate(4.0)
        .fresh_arrivals(2.5)
        .arrival(
            PieceSet::singleton(p2p_stability::pieceset::PieceId::new(0)),
            0.1,
        )
        .build()
        .unwrap();
    let horizon = 800.0;
    let watch = p2p_stability::pieceset::PieceId::new(0);

    let model = SwarmModel::new(params.clone());
    let mut rng = StdRng::seed_from_u64(5);
    let ctmc_path = model.simulate_peer_count(model.one_club_state(watch, 100), horizon, &mut rng);

    let sim =
        AgentSwarm::with_config(params, agent_config(), Box::new(policy::RandomUseful)).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let agent_path = sim
        .run_from_one_club(100, horizon, &mut rng)
        .peer_count_path();

    let s1 = ctmc_path.trend(0.5).slope;
    let s2 = agent_path.trend(0.5).slope;
    assert!(s1 > 0.3 && s2 > 0.3, "both engines grow: {s1:.2}, {s2:.2}");
    assert!(
        (s1 - s2).abs() < 0.6 * s1.max(s2),
        "slopes {s1:.2} vs {s2:.2}"
    );
}

#[test]
fn peer_seed_population_behaves_like_mm_infinity() {
    // In a stable, well-seeded system the peer-seed pool is an M/M/∞-like
    // population: its time-average should be close to (completion rate)/γ.
    // We check the weaker, structural fact that the agent simulator's seed
    // count stays bounded and positive on average.
    let params = SwarmParams::builder(2)
        .seed_rate(2.0)
        .contact_rate(1.0)
        .seed_departure_rate(1.0)
        .fresh_arrivals(1.0)
        .build()
        .unwrap();
    let sim =
        AgentSwarm::with_config(params, agent_config(), Box::new(policy::RandomUseful)).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let result = sim.run(&[], 3_000.0, &mut rng);
    let tail: Vec<_> = result.snapshots.iter().filter(|s| s.time > 500.0).collect();
    let mean_seeds: f64 = tail.iter().map(|s| s.peer_seeds as f64).sum::<f64>() / tail.len() as f64;
    // Completions happen at rate ≈ λ0 = 1 in steady state, so E[seeds] ≈ λ0/γ = 1.
    assert!(
        mean_seeds > 0.3 && mean_seeds < 3.0,
        "mean peer seeds {mean_seeds:.2}"
    );
}

/// The `K = 1` stable point of the exact-law checks: `U_s = 1`, `µ = 1`,
/// `γ = 2`, `λ = 1`.
fn one_piece_params() -> SwarmParams {
    SwarmParams::builder(1)
        .seed_rate(1.0)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(1.0)
        .build()
        .unwrap()
}

/// Horizon, burn-in and replication count of each simulated side.
const HORIZON: f64 = 2_000.0;
const BURN_IN: f64 = 200.0;
const REPLICATIONS: u64 = 64;

/// Stationary `E[N]`, `P(N = 0)` and `E[x_F]` of the `K = 1` chain.
struct ExactLaw {
    mean_peers: f64,
    p_empty: f64,
    mean_seeds: f64,
}

/// The exact law of [`one_piece_params`], solved once on the chain
/// truncated at `N ≤ 30` (496 states).
fn exact_law() -> &'static ExactLaw {
    static LAW: OnceLock<ExactLaw> = OnceLock::new();
    LAW.get_or_init(|| {
        let params = one_piece_params();
        let full = params.full_type();
        let model = SwarmModel::new(params);
        // The solve converges in about 15,000 sweeps at this cap; the
        // default budget of 20,000 runs out by cap 40 (about 22,000).
        let options = StationaryOptions {
            max_states: 1_000,
            max_iterations: 20_000,
            tolerance: 1e-10,
        };
        let law = stationary_distribution(
            &model,
            model.empty_state(),
            |s| s.total_peers() <= 30,
            options,
        )
        .unwrap();
        assert!(!law.truncated);
        assert_eq!(law.len(), 496);
        let at_cap = law.expectation(|s| f64::from(u8::from(s.total_peers() == 30)));
        assert!(at_cap < 1e-4, "the cap is not in the far tail: {at_cap:e}");
        let exact = ExactLaw {
            mean_peers: law.expectation(|s| s.total_peers() as f64),
            p_empty: law.probability_of(&model.empty_state()),
            mean_seeds: law.expectation(|s| f64::from(s.count(full))),
        };
        // Every arrival leaves as a peer seed after an Exp(γ) stay, so
        // Little's law gives E[x_F] = λ/γ exactly.
        assert!(
            (exact.mean_seeds - 0.5).abs() < 1e-4,
            "E[x_F] {}",
            exact.mean_seeds
        );
        exact
    })
}

/// The mean of per-replication estimates, its standard error, and its
/// distance from `exact` in standard errors.
fn z_score(exact: f64, estimates: &[f64]) -> (f64, f64, f64) {
    let n = estimates.len() as f64;
    let mean = estimates.iter().sum::<f64>() / n;
    let var = estimates.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    (mean, se, (mean - exact) / se)
}

/// Asserts that per-replication estimates average to `exact` within five
/// standard errors.
fn assert_matches(what: &str, exact: f64, estimates: &[f64]) {
    let (mean, se, z) = z_score(exact, estimates);
    assert!(
        z.abs() < 5.0,
        "{what}: {mean:.4} ± {se:.4} against exact {exact:.4} (z = {z:.2})"
    );
}

/// Share of `[from, to]` that `path` spends at value zero.
fn share_at_zero(path: &SamplePath, from: f64, to: f64) -> f64 {
    let times = path.times();
    let mut zero = 0.0;
    for (i, (&t, &v)) in times.iter().zip(path.values()).enumerate() {
        let end = times.get(i + 1).copied().unwrap_or(path.end_time());
        if v == 0.0 {
            zero += (end.min(to) - t.max(from)).max(0.0);
        }
    }
    zero / (to - from)
}

#[test]
fn ctmc_matches_the_exact_stationary_law_at_k1() {
    let exact = exact_law();
    let model = SwarmModel::new(one_piece_params());
    let (mut peers, mut empty) = (Vec::new(), Vec::new());
    for r in 0..REPLICATIONS {
        let mut rng = StdRng::seed_from_u64(100 + r);
        let path = model.simulate_peer_count(model.empty_state(), HORIZON, &mut rng);
        peers.push(path.time_average_over(BURN_IN, HORIZON));
        empty.push(share_at_zero(&path, BURN_IN, HORIZON));
    }
    assert_matches("CTMC E[N]", exact.mean_peers, &peers);
    assert_matches("CTMC P(N = 0)", exact.p_empty, &empty);
}

/// Per-replication averages over `[BURN_IN, HORIZON]`, read on the snapshot
/// grid, of `REPLICATIONS` runs of `sim` from an empty swarm (run `r` seeded
/// with `seed + r`): the population, its share of time at zero and the peer
/// seeds, one vector each.
fn agent_ensemble(sim: &AgentSwarm, seed: u64) -> [Vec<f64>; 3] {
    let (mut peers, mut empty, mut seeds) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..REPLICATIONS {
        let mut rng = StdRng::seed_from_u64(seed + r);
        let result = sim.run(&[], HORIZON, &mut rng);
        let tail: Vec<_> = result
            .snapshots
            .iter()
            .filter(|s| s.time >= BURN_IN)
            .collect();
        let n = tail.len() as f64;
        peers.push(tail.iter().map(|s| s.total_peers as f64).sum::<f64>() / n);
        empty.push(tail.iter().filter(|s| s.total_peers == 0).count() as f64 / n);
        seeds.push(tail.iter().map(|s| s.peer_seeds as f64).sum::<f64>() / n);
    }
    [peers, empty, seeds]
}

#[test]
fn turbo_matches_the_exact_stationary_law_at_k1() {
    let exact = exact_law();
    let config = AgentConfig {
        snapshot_interval: 1.0,
        kernel: KernelKind::Turbo,
        ..Default::default()
    };
    let sim = AgentSwarm::with_config(one_piece_params(), config, Box::new(policy::RandomUseful))
        .unwrap();
    let [peers, empty, seeds] = agent_ensemble(&sim, 200);
    assert_matches("turbo E[N]", exact.mean_peers, &peers);
    assert_matches("turbo P(N = 0)", exact.p_empty, &empty);
    assert_matches("turbo E[x_F]", exact.mean_seeds, &seeds);
}

/// The coded `K = 1` swarm over `GF(q)` on `kernel`: no gifts, `γ = 2`,
/// `λ = 1`, and `U_s = µ = scale · q/(q − 1)`, which thinning by `1 − 1/q`
/// turns into `scale` times the rates of [`one_piece_params`].
fn thinned_coded_sim(kernel: KernelKind, q: u64, scale: f64) -> AgentSwarm {
    let rate = scale * q as f64 / (q as f64 - 1.0);
    let params = CodedParams::gift_example(1, q, 1.0, 0.0, rate, rate, 2.0).unwrap();
    let config = AgentConfig {
        snapshot_interval: 1.0,
        kernel,
        ..Default::default()
    };
    AgentSwarm::with_coded(params, config).unwrap()
}

#[test]
fn coded_kernels_match_the_thinned_exact_stationary_law_at_k1() {
    // At K = 1 a coded upload is a uniform element of GF(q) (Ho et al.,
    // IEEE Trans. IT 2006): zero, and so useless, with probability 1/q, and
    // otherwise it completes a target that holds nothing. At U_s = µ =
    // q/(q − 1) each coded kernel therefore runs the chain of
    // `one_piece_params`, with decoders in the role of peer seeds.
    let exact = exact_law();
    let cases = [
        (KernelKind::Coded, 2),
        (KernelKind::Coded, 4),
        (KernelKind::Coded, 8),
        (KernelKind::CodedTurbo, 2),
    ];
    for (i, (kernel, q)) in cases.into_iter().enumerate() {
        let seed = 300 + 100 * i as u64;
        let what = format!("{} at q = {q}", kernel.name());
        let [peers, empty, decoders] = agent_ensemble(&thinned_coded_sim(kernel, q, 1.0), seed);
        assert_matches(&format!("{what}: E[N]"), exact.mean_peers, &peers);
        assert_matches(&format!("{what}: P(N = 0)"), exact.p_empty, &empty);
        assert_matches(&format!("{what}: E[decoders]"), exact.mean_seeds, &decoders);
        // Teeth: the same runs with U_s and µ 5% low sit far off the law.
        let [slow, _, _] = agent_ensemble(&thinned_coded_sim(kernel, q, 0.95), seed);
        let (mean, se, z) = z_score(exact.mean_peers, &slow);
        assert!(
            z > 5.0,
            "{what}: rates 5% low read E[N] = {mean:.4} ± {se:.4} (z = {z:.2}), \
             which the check would accept"
        );
    }
}
