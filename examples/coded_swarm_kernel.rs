//! The coded event kernel at engine scale: replicated Theorem 15 verdicts
//! and a gift-fraction phase diagram.
//!
//! The standalone `CodedSwarmSim` (see `network_coding_gift.rs`) simulates
//! one trajectory at a time. This example runs the same Section VIII-B
//! dynamics on the engine's coded kernel (`KernelKind::Coded`): replication
//! batches with deterministic per-replication random streams, majority-vote
//! verdicts checked against the closed-form Theorem 15 thresholds, and a
//! phase-diagram sweep over the gift fraction `f` that localises the
//! transient→stable transition for `GF(2), K = 8`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example coded_swarm_kernel
//! ```

use p2p_stability::engine::{Axis, CodedGridSpec, EngineConfig, Session, Workload};
use p2p_stability::swarm::coded::theorem15_gift_thresholds;
use p2p_stability::workload::registry::{self, Registry, ScenarioRunOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The two built-in coded scenarios, one on each side of the
    //    threshold, replicated on the engine.
    let registry = Registry::builtin();
    let options = ScenarioRunOptions {
        replications: 4,
        jobs: 0,
        seed: 0xC0DE,
        horizon_override: Some(400.0),
        ..Default::default()
    };
    for name in ["coded-gift-sub", "coded-gift-super"] {
        let spec = registry.get(name).expect("built-in scenario");
        let report = registry::run(spec, &options)?;
        println!("{}", report.render());
    }

    // 2. A gift-fraction sweep across the Theorem 15 window at GF(2), K = 8.
    let (lo, hi) = theorem15_gift_thresholds(2, 8);
    println!("GF(2), K = 8: transient below f = {lo}, recurrent above f = {hi}\n");
    let spec = CodedGridSpec::headline(
        Axis::new("f", vec![0.05, 0.15, 0.25, 0.4, 0.6, 0.8]),
        vec![2],
        vec![8],
        1.0,
    );
    let config = EngineConfig::default()
        .with_replications(4)
        .with_horizon(500.0)
        .with_master_seed(0xC0DE)
        .with_jobs(0);
    let diagram = Session::builder()
        .config(config)
        .workload(Workload::coded(&spec))
        .build()?
        .run()
        .into_coded()
        .expect("a coded workload");
    println!("{diagram}");
    println!(
        "{} cells agree with Theorem 15, {} mismatch",
        diagram.agreements(),
        diagram.mismatches()
    );
    Ok(())
}
