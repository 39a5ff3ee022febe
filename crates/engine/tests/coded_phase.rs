//! End-to-end Theorem 15 check: a phase-diagram sweep over the gift
//! fraction `f` at fixed `(q = 2, K = 8)` reproduces the paper's closed-form
//! transition on the coded kernel, and the diagram is bit-identical at any
//! worker count; a `GF(8)` cell runs on the same kernel.
//!
//! For GF(2), K = 8 the quoted thresholds are `q/((q−1)K) = 0.25` and
//! `q²/((q−1)²K) = 0.5`: the swept fractions sit at `lo·(1−ε)` and below
//! (must simulate as growing) and at `hi·(1+ε)` and above (must simulate as
//! stable), with ε = 0.5.

use engine::{Axis, CodedGridSpec, CodedPhaseDiagram, EngineConfig, Session, Workload};
use markov::PathClass;
use swarm::coded::theorem15_gift_thresholds;
use swarm::StabilityVerdict;

/// Runs a coded grid sweep through the unified Session API.
fn run_coded_grid(spec: &CodedGridSpec, config: &EngineConfig) -> CodedPhaseDiagram {
    Session::builder()
        .config(*config)
        .workload(Workload::coded(spec))
        .build()
        .expect("valid coded grid")
        .run()
        .into_coded()
        .expect("coded workload")
}

const BELOW: [f64; 2] = [0.0625, 0.125];
const ABOVE: [f64; 2] = [0.75, 0.9];

fn spec() -> CodedGridSpec {
    let fractions = BELOW.iter().chain(ABOVE.iter()).copied().collect();
    CodedGridSpec::headline(Axis::new("f", fractions), vec![2], vec![8], 1.0)
}

fn config(jobs: usize) -> EngineConfig {
    EngineConfig::default()
        .with_replications(3)
        .with_horizon(600.0)
        .with_master_seed(0x7_15)
        .with_jobs(jobs)
}

#[test]
fn theorem15_transition_reproduced_and_bit_identical_across_jobs() {
    let (lo, hi) = theorem15_gift_thresholds(2, 8);
    assert_eq!((lo, hi), (0.25, 0.5));
    assert!(BELOW.iter().all(|&f| f <= lo * 0.5));
    assert!(ABOVE.iter().all(|&f| f >= hi * 1.5));

    let sequential = run_coded_grid(&spec(), &config(1));
    for jobs in [4, 8] {
        assert_eq!(
            sequential,
            run_coded_grid(&spec(), &config(jobs)),
            "the worker count must never change the numbers (jobs = {jobs})"
        );
    }

    for &f in &BELOW {
        let cell = sequential.cell(8, 2, f).expect("cell evaluated");
        assert_eq!(
            cell.outcome.theory,
            StabilityVerdict::Transient,
            "theory below the threshold at f = {f}"
        );
        assert_eq!(
            cell.outcome.majority,
            PathClass::Growing,
            "simulation grows below the threshold at f = {f} \
             (votes: {:?})",
            cell.outcome.votes
        );
        assert!(cell.outcome.agrees);
        assert!(
            cell.outcome.tail_slope.mean > 0.1,
            "transient growth rate at f = {f}: {}",
            cell.outcome.tail_slope.mean
        );
    }
    for &f in &ABOVE {
        let cell = sequential.cell(8, 2, f).expect("cell evaluated");
        assert_eq!(
            cell.outcome.theory,
            StabilityVerdict::PositiveRecurrent,
            "theory above the threshold at f = {f}"
        );
        assert_eq!(
            cell.outcome.majority,
            PathClass::Stable,
            "simulation is stable above the threshold at f = {f} \
             (votes: {:?})",
            cell.outcome.votes
        );
        assert!(cell.outcome.agrees);
    }

    // The rendered diagram shows the flip along the f axis: transient cells
    // left of the gap, stable cells right of it.
    let rendered = sequential.render();
    assert!(
        rendered.contains("# # · ·"),
        "transition visible:\n{rendered}"
    );
    assert_eq!(sequential.mismatches(), 0, "{rendered}");
}

#[test]
fn a_gf8_cell_builds_and_runs_on_the_coded_kernel() {
    // The one coded kernel runs every field: a GF(8) cell well above its
    // recurrence threshold q²/((q−1)²K) ≈ 0.16 builds, runs, and
    // simulates as stable.
    let (_, hi) = theorem15_gift_thresholds(8, 8);
    let spec = CodedGridSpec::headline(Axis::fixed("f", 0.75), vec![8], vec![8], 1.0);
    assert!(0.75 >= 4.0 * hi);
    let diagram = run_coded_grid(&spec, &config(1));
    assert_eq!(diagram.skipped, 0);
    let cell = diagram.cell(8, 8, 0.75).expect("cell evaluated");
    assert_eq!(cell.outcome.theory, StabilityVerdict::PositiveRecurrent);
    assert_eq!(
        cell.outcome.majority,
        PathClass::Stable,
        "votes: {:?}",
        cell.outcome.votes
    );
    assert_eq!(cell.outcome.votes.total(), 3);
}
