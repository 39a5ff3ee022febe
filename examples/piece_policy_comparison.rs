//! Piece-selection policies: same stability region, different quasi-stable
//! behaviour (Theorem 14 and the Section IX discussion).
//!
//! Theorem 14 says the stability region of Theorem 1 does not depend on the
//! piece-selection policy, as long as a useful piece is transferred whenever
//! one exists. But the *time until a large one club emerges* in a transient
//! configuration — the quasi-stability horizon — can differ substantially.
//! This example replicates the same two parameter points under four
//! policies in one engine [`Session`] (eight scenarios, one batch,
//! deterministic at any worker count), then probes the one-club onset time
//! with a single trajectory per policy.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example piece_policy_comparison
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "an example seeds its own StdRng so it stays self-contained"
)]

use p2p_stability::engine::{labels, AgentScenario, EngineConfig, Session, Workload};
use p2p_stability::swarm::sim::{AgentConfig, AgentSwarm};
use p2p_stability::swarm::{policy, stability};
use p2p_stability::workload::scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

const POLICIES: [&str; 4] = [
    "random-useful",
    "rarest-first",
    "sequential",
    "most-common-first",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stable = scenario::example3([1.0, 1.0, 1.0], 1.0, 2.0)?;
    // Piece 1 is the rare piece, so the default watch piece tracks the right club.
    let transient = scenario::example3([0.2, 2.0, 2.0], 1.0, 4.0)?;
    println!(
        "stable point    : Example 3 with λ = (1, 1, 1), γ = 2µ   → Theorem 1: {:?}",
        stability::classify(&stable).verdict
    );
    println!(
        "transient point : Example 3 with λ = (0.2, 2, 2), γ = 4µ → Theorem 1: {:?}",
        stability::classify(&transient).verdict
    );

    // One session over policy × point: scenario ids are stable, so adding a
    // policy later would not disturb the other scenarios' streams.
    let mut scenarios = Vec::new();
    for (p, name) in POLICIES.iter().enumerate() {
        for (which, params) in [(0u64, &stable), (1, &transient)] {
            let mut s = AgentScenario::new(
                (p as u64) * 2 + which,
                format!("{name}/{}", if which == 0 { "stable" } else { "transient" }),
                params.clone(),
            );
            s.policy = (*name).to_owned();
            scenarios.push(s);
        }
    }
    let outcomes = Session::builder()
        .config(
            EngineConfig::default()
                .with_replications(3)
                .with_horizon(1_000.0)
                .with_master_seed(99)
                .with_jobs(0),
        )
        .workload(Workload::agent(scenarios))
        .build()?
        .run()
        .into_agent()
        .expect("an agent workload");

    println!();
    println!(
        "{:<18} {:>16} {:>18} {:>22}",
        "policy", "stable → majority", "transient → majority", "one-club ≥ 100 at t ="
    );
    for (p, name) in POLICIES.iter().enumerate() {
        let stable_outcome = &outcomes[p * 2];
        let transient_outcome = &outcomes[p * 2 + 1];

        // Quasi-stability probe: one trajectory, first time the one club
        // exceeds 100 peers (a time series the aggregate outcomes cannot
        // carry).
        let sim = AgentSwarm::with_config(
            transient.clone(),
            AgentConfig {
                snapshot_interval: 5.0,
                ..Default::default()
            },
            policy::by_name(name).expect("known policy"),
        )?;
        let mut rng = StdRng::seed_from_u64(99);
        let result = sim.run(&[], 1_000.0, &mut rng);
        let onset = result
            .snapshots
            .iter()
            .find(|s| s.groups.one_club >= 100)
            .map_or(f64::INFINITY, |s| s.time);

        println!(
            "{:<18} {:>16} {:>18} {:>22.0}",
            name,
            labels::class_name(stable_outcome.majority),
            labels::class_name(transient_outcome.majority),
            onset,
        );
    }

    println!(
        "\nAll useful-piece policies agree with Theorem 1 on both points (Theorem 14);\n\
         they differ only in how quickly the transient configuration develops its one club\n\
         — the quasi-stability effect the paper flags as future work in Section IX."
    );
    Ok(())
}
