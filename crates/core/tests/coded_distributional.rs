//! Distributional differential tests of the coded kernels: the coded event
//! kernel against the bitsliced coded-turbo kernel over `GF(2)`.
//!
//! The coded kernel (`KernelKind::Coded`) runs the Section VIII-B dynamics
//! under the shared driver loop with alias-table arrival draws, a
//! dimension-only Bernoulli fast path for fixed-seed uploads, and pool-based
//! departures; the coded-turbo kernel (`KernelKind::CodedTurbo`) goes
//! further with lazy peers that never build a basis until a peer-to-peer
//! transfer needs one. The two consume different draw *sequences*, so
//! byte-equality of trajectories cannot hold. What must hold is
//! *statistical* equality: both simulate the same continuous-time Markov
//! process over subspace-valued peer states, so over replication ensembles
//! of the same coded scenario every observable's replication mean must agree
//! within sampling noise. Both kernels run under the one shared driver loop;
//! the oracle that shares none of it is the exact `K = 1` stationary law in
//! `tests/simulators_agree.rs`.
//!
//! For each scenario the battery runs `N` replications per kernel and
//! demands overlap of generous confidence intervals (five combined standard
//! errors plus a small absolute floor, the same contract as
//! `turbo_distributional.rs`) on: final population, departures, useful
//! transfers, useless contacts, final decoder count, final mean dimension,
//! and every bin of the final dimension histogram. The battery's teeth are
//! not a claim: `distributional_battery_fails_under_biased_upload_bernoulli`
//! runs the same comparison against an ensemble whose seed-upload Bernoulli
//! is deliberately biased (success `1 − 4^{dim−K}` instead of
//! `1 − 2^{dim−K}`, i.e. the documented `q^{dim−K}` fault with the wrong
//! `q`) and asserts that the comparison REJECTS it.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

use pieceset::PieceSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use swarm::coded::CodedParams;
use swarm::sim::{AgentConfig, AgentSwarm, KernelKind};
use swarm::SwarmParams;

const REPLICATIONS: u64 = 20;

/// Mean and standard error of a sample.
struct Moments {
    mean: f64,
    se: f64,
}

fn moments(samples: &[f64]) -> Moments {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    Moments {
        mean,
        se: (var / n).sqrt(),
    }
}

/// The battery's acceptance predicate: do two sample vectors agree within
/// five combined standard errors (plus a small absolute floor)?
fn compatible(a: &[f64], b: &[f64]) -> bool {
    let (ma, mb) = (moments(a), moments(b));
    let tolerance = 5.0 * (ma.se * ma.se + mb.se * mb.se).sqrt() + 1.0;
    (ma.mean - mb.mean).abs() <= tolerance
}

fn assert_compatible(name: &str, scenario: &str, reference: &[f64], candidate: &[f64]) {
    let (ml, mk) = (moments(reference), moments(candidate));
    let tolerance = 5.0 * (ml.se * ml.se + mk.se * mk.se).sqrt() + 1.0;
    assert!(
        compatible(reference, candidate),
        "{scenario}/{name}: reference mean {} vs candidate mean {} exceeds tolerance {}",
        ml.mean,
        mk.mean,
        tolerance,
    );
}

struct Scenario {
    name: &'static str,
    params: CodedParams,
    horizon: f64,
}

/// One observable vector per ensemble: every metric of every replication.
struct Ensemble {
    final_population: Vec<f64>,
    departures: Vec<f64>,
    useful_transfers: Vec<f64>,
    useless_contacts: Vec<f64>,
    decoders: Vec<f64>,
    mean_dimension: Vec<f64>,
    /// One sample vector per dimension bin `0..=K`.
    dimension_bins: Vec<Vec<f64>>,
}

impl Ensemble {
    fn new(k: usize) -> Self {
        Ensemble {
            final_population: Vec::new(),
            departures: Vec::new(),
            useful_transfers: Vec::new(),
            useless_contacts: Vec::new(),
            decoders: Vec::new(),
            mean_dimension: Vec::new(),
            dimension_bins: vec![Vec::new(); k + 1],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        population: u64,
        departures: u64,
        useful: u64,
        useless: u64,
        decoders: u64,
        mean_dimension: f64,
        histogram: &[u64],
    ) {
        self.final_population.push(population as f64);
        self.departures.push(departures as f64);
        self.useful_transfers.push(useful as f64);
        self.useless_contacts.push(useless as f64);
        self.decoders.push(decoders as f64);
        self.mean_dimension.push(mean_dimension);
        assert_eq!(histogram.len(), self.dimension_bins.len());
        for (bin, &count) in self.dimension_bins.iter_mut().zip(histogram) {
            bin.push(count as f64);
        }
    }
}

/// Runs the scenario on one of the coded agent kernels (reference RREF or
/// bitsliced coded-turbo) and collects the ensemble, with structural checks
/// (group partition, histogram partition) on every replication.
fn run_agent_kernel(
    scenario: &Scenario,
    seed_base: u64,
    kernel: KernelKind,
    initial: &[PieceSet],
) -> Ensemble {
    let k = scenario.params.base.num_pieces();
    let config = AgentConfig {
        kernel,
        snapshot_interval: 10.0,
        ..Default::default()
    };
    let sim =
        AgentSwarm::with_coded(scenario.params.clone(), config).expect("valid coded scenario");
    let mut ensemble = Ensemble::new(k);
    for replication in 0..REPLICATIONS {
        let mut rng = StdRng::seed_from_u64(seed_base ^ (replication * 0x9E37_79B9));
        let result = sim.run(initial, scenario.horizon, &mut rng);
        assert!(!result.truncated, "budget must cover the horizon");
        for snap in &result.snapshots {
            assert_eq!(snap.groups.total(), snap.total_peers, "groups partition");
        }
        let last = result.final_snapshot();
        let population: u64 = result.final_dimensions.iter().sum();
        assert_eq!(population, last.total_peers, "histogram partitions peers");
        ensemble.push(
            last.total_peers,
            result.sojourns.departures,
            result.transfers,
            result.unsuccessful_contacts,
            last.peer_seeds,
            result.mean_final_dimension(),
            &result.final_dimensions,
        );
    }
    ensemble
}

/// Asserts every observable of the battery — including the dimension
/// histogram bin-by-bin — compatible between two ensembles.
fn assert_ensembles_compatible(scenario: &str, reference: &Ensemble, candidate: &Ensemble) {
    assert_compatible(
        "final-population",
        scenario,
        &reference.final_population,
        &candidate.final_population,
    );
    assert_compatible(
        "departures",
        scenario,
        &reference.departures,
        &candidate.departures,
    );
    assert_compatible(
        "useful-transfers",
        scenario,
        &reference.useful_transfers,
        &candidate.useful_transfers,
    );
    assert_compatible(
        "useless-contacts",
        scenario,
        &reference.useless_contacts,
        &candidate.useless_contacts,
    );
    assert_compatible(
        "decoders",
        scenario,
        &reference.decoders,
        &candidate.decoders,
    );
    assert_compatible(
        "mean-dimension",
        scenario,
        &reference.mean_dimension,
        &candidate.mean_dimension,
    );
    for (d, (rb, cb)) in reference
        .dimension_bins
        .iter()
        .zip(&candidate.dimension_bins)
        .enumerate()
    {
        assert_compatible(&format!("dim-histogram[{d}]"), scenario, rb, cb);
    }
}

/// Counts how many of the battery's observables two ensembles DISAGREE on —
/// the instrument of the teeth test.
fn incompatible_observables(a: &Ensemble, b: &Ensemble) -> usize {
    let mut failures = 0;
    for (x, y) in [
        (&a.final_population, &b.final_population),
        (&a.departures, &b.departures),
        (&a.useful_transfers, &b.useful_transfers),
        (&a.useless_contacts, &b.useless_contacts),
        (&a.decoders, &b.decoders),
        (&a.mean_dimension, &b.mean_dimension),
    ] {
        if !compatible(x, y) {
            failures += 1;
        }
    }
    for (x, y) in a.dimension_bins.iter().zip(&b.dimension_bins) {
        if !compatible(x, y) {
            failures += 1;
        }
    }
    failures
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();

    // The paper's headline gifted-arrival model well above the recurrence
    // threshold: GF(8), K = 3, f = 0.9 ≫ q²/((q−1)²K) ≈ 0.44.
    out.push(Scenario {
        name: "stable-gifts",
        params: CodedParams::gift_example(3, 8, 1.0, 0.9, 0.0, 1.0, f64::INFINITY).unwrap(),
        horizon: 250.0,
    });

    // No gifts, all knowledge from the fixed seed: exercises the
    // dimension-only Bernoulli fast path of the seed-upload handler.
    out.push(Scenario {
        name: "seed-fed",
        params: CodedParams::gift_example(3, 4, 0.8, 0.0, 0.6, 1.0, f64::INFINITY).unwrap(),
        horizon: 250.0,
    });

    // Finite γ: decoders dwell as peer seeds, exercising the departure pool
    // and non-zero decoder counts in the histograms.
    out.push(Scenario {
        name: "finite-gamma",
        params: CodedParams::gift_example(3, 8, 1.0, 0.6, 0.4, 1.0, 2.0).unwrap(),
        horizon: 220.0,
    });

    // Multi-dimensional gifts outside the closed-form d ∈ {0, 1} case:
    // half the arrivals carry two independent random coded pieces.
    out.push(Scenario {
        name: "double-gifts",
        params: {
            let base = SwarmParams::builder(4)
                .contact_rate(1.0)
                .fresh_arrivals(1.0)
                .seed_departure_rate(3.0)
                .build()
                .unwrap();
            CodedParams {
                base,
                field: swarm::netcoding::GaloisField::new(4).unwrap(),
                gift_dimensions: vec![(0, 0.5), (2, 0.5)],
            }
        },
        horizon: 220.0,
    });

    out
}

/// `GF(2)` scenarios for the two-way battery: the coded-turbo kernel only
/// accepts `q = 2`, so these cover the same dynamical regimes as
/// `scenarios()` with the binary field.
fn gf2_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();

    // Gifted arrivals above the GF(2) recurrence threshold
    // q²/((q−1)²K) = 4/K = 1 at K = 4 — f = 0.9 with no fixed seed keeps
    // the swarm churning near criticality.
    out.push(Scenario {
        name: "gf2-gifts",
        params: CodedParams::gift_example(4, 2, 1.0, 0.9, 0.0, 1.0, f64::INFINITY).unwrap(),
        horizon: 200.0,
    });

    // No gifts: every lazy peer's first dimension comes through the fixed
    // seed's Bernoulli fast path.
    out.push(Scenario {
        name: "gf2-seed-fed",
        params: CodedParams::gift_example(3, 2, 0.8, 0.0, 0.6, 1.0, f64::INFINITY).unwrap(),
        horizon: 200.0,
    });

    // Finite γ: decoders dwell as peer seeds and the departure pool churns.
    out.push(Scenario {
        name: "gf2-finite-gamma",
        params: CodedParams::gift_example(3, 2, 1.0, 0.6, 0.4, 1.0, 2.0).unwrap(),
        horizon: 200.0,
    });

    // Multi-dimensional gifts: half the arrivals carry two independent
    // random coded pieces, exercising the lazy gift-chain Bernoullis.
    out.push(Scenario {
        name: "gf2-double-gifts",
        params: {
            let base = SwarmParams::builder(4)
                .contact_rate(1.0)
                .fresh_arrivals(1.0)
                .seed_departure_rate(3.0)
                .build()
                .unwrap();
            CodedParams {
                base,
                field: swarm::netcoding::GaloisField::new(2).unwrap(),
                gift_dimensions: vec![(0, 0.5), (2, 0.5)],
            }
        },
        horizon: 200.0,
    });

    out
}

#[test]
fn coded_kernel_holds_its_structural_checks_on_gf4_and_gf8_scenarios() {
    // The coded-turbo kernel runs GF(2) only, so these scenarios have no
    // second kernel to meet; every replication still passes the group and
    // histogram partitions and the event budget checks.
    for (i, scenario) in scenarios().iter().enumerate() {
        let seed_base = 0xC0DE_0000 + (i as u64) * 0x0101;
        run_agent_kernel(scenario, seed_base, KernelKind::Coded, &[]);
    }
}

#[test]
fn coded_turbo_matches_the_coded_kernel_on_gf2_scenarios() {
    // The reference coded kernel and the bitsliced coded-turbo kernel
    // compared on every observable of every GF(2) scenario: two
    // implementations of the same Markov process, two draw sequences, one
    // distribution.
    for (i, scenario) in gf2_scenarios().iter().enumerate() {
        let seed_base = 0xB17_0000 + (i as u64) * 0x0101;
        let coded = run_agent_kernel(scenario, seed_base, KernelKind::Coded, &[]);
        let turbo = run_agent_kernel(scenario, seed_base, KernelKind::CodedTurbo, &[]);
        assert_ensembles_compatible(scenario.name, &coded, &turbo);
    }
}

#[test]
fn coded_turbo_matches_reference_kernel_with_unit_piece_populations() {
    // Initial populations of uncoded unit pieces exercise the coded-turbo
    // paths an empty start never reaches: unit-lazy peers, pure-unit
    // uploads drawn as masked random words, and the unit-mask usefulness
    // check. The reference kernel absorbs the same unit rows into explicit
    // bases, so the two must agree distributionally.
    let scenario = Scenario {
        name: "gf2-unit-initial",
        params: CodedParams::gift_example(5, 2, 0.6, 0.3, 0.4, 1.0, 2.5).unwrap(),
        horizon: 150.0,
    };
    let mut initial = Vec::new();
    for i in 0..40u64 {
        // Mixed starting dimensions 0..=3 over K = 5 unit spans.
        let bits = [0b0, 0b1, 0b11, 0b10101, 0b110, 0b10010][i as usize % 6];
        initial.push(PieceSet::from_bits(bits));
    }
    let seed_base = 0x0141_7141;
    let coded = run_agent_kernel(&scenario, seed_base, KernelKind::Coded, &initial);
    let turbo = run_agent_kernel(&scenario, seed_base, KernelKind::CodedTurbo, &initial);
    assert_ensembles_compatible(scenario.name, &coded, &turbo);
}

#[test]
fn distributional_battery_fails_under_biased_upload_bernoulli() {
    // Teeth: the battery must REJECT a simulator whose upload Bernoulli is
    // biased. Running the reference kernel over GF(4) at identical rates IS
    // that fault injection — every dimension-only upload succeeds with
    // probability `1 − 4^{dim−K}` instead of `1 − 2^{dim−K}` (the
    // documented `q^{dim−K}` law with the wrong q), exactly the bug a
    // botched fast path would introduce. If the comparison passed anyway,
    // the tolerance would be too loose to pin anything.
    let turbo_scenario = Scenario {
        name: "teeth-gf2",
        params: CodedParams::gift_example(3, 2, 1.0, 0.0, 0.6, 1.0, 2.0).unwrap(),
        horizon: 200.0,
    };
    let biased_scenario = Scenario {
        name: "teeth-gf4",
        params: CodedParams::gift_example(3, 4, 1.0, 0.0, 0.6, 1.0, 2.0).unwrap(),
        horizon: 200.0,
    };
    let seed_base = 0x7EE7_0000;
    let turbo = run_agent_kernel(&turbo_scenario, seed_base, KernelKind::CodedTurbo, &[]);
    let biased = run_agent_kernel(&biased_scenario, seed_base, KernelKind::Coded, &[]);
    let failures = incompatible_observables(&turbo, &biased);
    assert!(
        failures > 0,
        "the battery accepted a biased upload Bernoulli — it has no teeth"
    );
}

#[test]
fn coded_kernel_truncation_matches_event_loop_contract() {
    // The shared driver's max_events valve applies to the coded kernel like
    // any other: the run stops early and says so.
    let params = CodedParams::gift_example(3, 8, 2.0, 0.5, 0.5, 1.0, 2.0).unwrap();
    let sim = AgentSwarm::with_coded(
        params,
        AgentConfig {
            kernel: KernelKind::Coded,
            max_events: 300,
            snapshot_interval: 1.0,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let result = sim.run(&[], 10_000.0, &mut rng);
    assert!(result.truncated);
    assert_eq!(result.events, 300);
    assert!(result.horizon < 10_000.0);
}
