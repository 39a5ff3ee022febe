//! The missing-piece syndrome (Fig. 2 of the paper), live.
//!
//! Starts the swarm from a large "one club" — every peer already holds every
//! piece except piece one — under two parameterisations: one outside the
//! Theorem 1 stability region (the club keeps growing at rate ≈ Δ_{F−{1}})
//! and one inside it (the club drains and the system recovers). The verdict
//! for each configuration comes from a replicated engine [`Session`]
//! (majority vote over independent streams); one extra single trajectory
//! per configuration prints the Fig.-2 group decomposition over time.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example missing_piece_syndrome
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "an example seeds its own StdRng so it stays self-contained"
)]

use p2p_stability::engine::{labels, AgentScenario, EngineConfig, Session, Workload};
use p2p_stability::pieceset::{PieceId, PieceSet};
use p2p_stability::swarm::sim::{AgentConfig, AgentSwarm};
use p2p_stability::swarm::{policy, stability, SwarmParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const INITIAL_CLUB: usize = 200;
const HORIZON: f64 = 1_000.0;

fn run(label: &str, id: u64, params: SwarmParams) -> Result<(), Box<dyn std::error::Error>> {
    let verdict = stability::classify(&params).verdict;
    let delta = stability::delta(&params, params.full_type().without(PieceId::new(0)))?;
    println!("\n=== {label} ===");
    println!("Theorem 1 verdict: {verdict:?};  Δ_F−{{1}} = {delta:+.3}");

    // Replicated verdict through the engine: the scenario starts from the
    // one club as an initial-population group, and four independent
    // replications vote on the path class.
    let one_club = params.full_type().without(PieceId::new(0));
    let mut scenario = AgentScenario::new(id, label, params.clone());
    scenario.initial = vec![(one_club, INITIAL_CLUB)];
    let outcome = Session::builder()
        .config(
            EngineConfig::default()
                .with_replications(4)
                .with_horizon(HORIZON)
                .with_master_seed(7)
                .with_jobs(0),
        )
        .workload(Workload::agent(vec![scenario]))
        .build()?
        .run()
        .into_agent()
        .expect("an agent workload")
        .remove(0);
    println!(
        "engine majority over {} replications: {} (tail slope {:+.3} ± {:.3} peers/time) — {}",
        outcome.votes.total(),
        labels::class_name(outcome.majority),
        outcome.tail_slope.mean,
        outcome.tail_slope.ci_half_width,
        if outcome.agrees {
            "agrees with Theorem 1"
        } else {
            "DISAGREES with Theorem 1"
        }
    );

    // One raw trajectory for the Fig.-2 decomposition table (the engine
    // aggregates across replications; the group time series needs the
    // simulator's snapshots).
    println!(
        "{:>8} {:>7} {:>9} {:>8} {:>9} {:>7} {:>7}",
        "time", "N", "one-club", "former", "infected", "gifted", "young"
    );
    let sim = AgentSwarm::with_config(
        params,
        AgentConfig {
            snapshot_interval: 50.0,
            ..Default::default()
        },
        Box::new(policy::RandomUseful),
    )?;
    let mut rng = StdRng::seed_from_u64(7);
    let result = sim.run_from_one_club(INITIAL_CLUB, HORIZON, &mut rng);
    for snap in result.snapshots.iter().step_by(2) {
        println!(
            "{:>8.0} {:>7} {:>9} {:>8} {:>9} {:>7} {:>7}",
            snap.time,
            snap.total_peers,
            snap.groups.one_club,
            snap.groups.former_one_club,
            snap.groups.infected,
            snap.groups.gifted,
            snap.groups.normal_young,
        );
    }
    let growth = result.one_club_path().trend(0.5).slope;
    println!("measured one-club growth rate: {growth:+.3} per unit time (theory: ≈ Δ_F−{{1}} when positive)");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Outside the stability region: a weak seed cannot push piece one into a
    // big club faster than fresh peers join it.
    let transient = SwarmParams::builder(3)
        .seed_rate(0.2)
        .contact_rate(1.0)
        .seed_departure_rate(4.0)
        .fresh_arrivals(2.5)
        .arrival(PieceSet::singleton(PieceId::new(0)), 0.1)
        .build()?;
    run(
        "missing-piece syndrome (transient parameters)",
        0,
        transient,
    )?;

    // Inside the region: the same shape with a stronger seed and longer
    // peer-seed dwell times; the one club drains.
    let stable = SwarmParams::builder(3)
        .seed_rate(2.5)
        .contact_rate(1.0)
        .seed_departure_rate(1.25)
        .fresh_arrivals(2.5)
        .arrival(PieceSet::singleton(PieceId::new(0)), 0.1)
        .build()?;
    run(
        "recovery from the same initial club (stable parameters)",
        1,
        stable,
    )?;
    Ok(())
}
