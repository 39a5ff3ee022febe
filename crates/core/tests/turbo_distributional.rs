//! Distributional differential test: the turbo kernel against the
//! event-driven kernel.
//!
//! The turbo kernel intentionally breaks draw parity (alias-table arrivals,
//! pool-based uploader and departure sampling), so byte-equality of
//! trajectories — the contract `kernel_equivalence.rs` pins between the scan
//! and event kernels — cannot hold. What must hold instead is *statistical*
//! equality: over an ensemble of replications of the same scenario, the two
//! kernels sample the same stochastic process, so their replication means of
//! every observable agree within sampling noise.
//!
//! For each scenario (randomized around flash crowds, retry speed-up,
//! multi-seed starts, and a plain stable swarm) this test runs `N`
//! replications per kernel and demands overlap of generous confidence
//! intervals on: mean sojourn time, final population, final watch-piece
//! copies, the final Fig.-2 group counts, departures, and the event count
//! (both kernels tick the shared driver's event clock). Tolerances are 5
//! combined standard errors plus a small absolute floor — loose enough for
//! a deterministic, non-flaky pass (all seeds fixed), tight enough that a
//! mis-weighted sampler fails immediately (checked by construction during
//! development: biasing the alias table or the boosted-pool coin makes
//! several scenarios fail).

use pieceset::{PieceId, PieceSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use swarm::metrics::SimResult;
use swarm::policy::RandomUseful;
use swarm::sim::{AgentConfig, AgentSwarm, FlashCrowd, KernelKind, SimScratch};
use swarm::SwarmParams;

const REPLICATIONS: u64 = 24;

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

/// Asserts that two replication ensembles of one observable agree within
/// five combined standard errors (plus an absolute floor for observables
/// that sit near zero).
fn assert_compatible(name: &str, scenario: &str, a: &[f64], b: &[f64]) {
    let (ma, mb) = (moments(a), moments(b));
    let tolerance = 5.0 * (ma.se * ma.se + mb.se * mb.se).sqrt() + 1.0;
    assert!(
        (ma.mean - mb.mean).abs() <= tolerance,
        "{scenario}/{name}: event mean {} vs turbo mean {} exceeds tolerance {}",
        ma.mean,
        mb.mean,
        tolerance,
    );
}

struct Scenario {
    name: &'static str,
    params: SwarmParams,
    config: AgentConfig,
    initial: Vec<PieceSet>,
    flash: Vec<FlashCrowd>,
    horizon: f64,
}

/// One observable vector per ensemble: every metric of every replication.
#[derive(Default)]
struct Ensemble {
    sojourn_mean: Vec<f64>,
    final_population: Vec<f64>,
    watch_copies: Vec<f64>,
    one_club: Vec<f64>,
    infected_and_gifted: Vec<f64>,
    departures: Vec<f64>,
    events: Vec<f64>,
}

impl Ensemble {
    fn push(&mut self, result: &SimResult) {
        let last = result.final_snapshot();
        self.sojourn_mean.push(result.sojourns.mean_sojourn());
        self.final_population.push(last.total_peers as f64);
        self.watch_copies.push(last.watch_piece_copies as f64);
        self.one_club.push(last.groups.one_club as f64);
        self.infected_and_gifted
            .push((last.groups.infected + last.groups.gifted) as f64);
        self.departures.push(result.sojourns.departures as f64);
        self.events.push(result.events as f64);
    }
}

fn run_ensemble(scenario: &Scenario, kernel: KernelKind, seed_base: u64) -> Ensemble {
    let config = AgentConfig {
        kernel,
        ..scenario.config
    };
    let sim = AgentSwarm::with_config(scenario.params.clone(), config, Box::new(RandomUseful))
        .expect("valid configuration");
    let mut scratch = SimScratch::new();
    let mut ensemble = Ensemble::default();
    for replication in 0..REPLICATIONS {
        let mut rng = StdRng::seed_from_u64(seed_base ^ (replication * 0x9E37_79B9));
        let result = sim
            .run_with_scratch(
                &scenario.initial,
                &scenario.flash,
                scenario.horizon,
                &mut rng,
                &mut scratch,
            )
            .expect("valid scenario");
        assert!(!result.truncated, "budget must cover the horizon");
        for snap in &result.snapshots {
            assert_eq!(snap.groups.total(), snap.total_peers);
        }
        ensemble.push(&result);
        scratch.recycle(result);
    }
    ensemble
}

fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();

    // A plain stable swarm (Example 1 regime, K = 2).
    out.push(Scenario {
        name: "stable-base",
        params: SwarmParams::builder(2)
            .seed_rate(2.0)
            .contact_rate(1.0)
            .seed_departure_rate(2.0)
            .fresh_arrivals(1.5)
            .build()
            .unwrap(),
        config: AgentConfig::default(),
        initial: Vec::new(),
        flash: Vec::new(),
        horizon: 200.0,
    });

    // A stable swarm hit by an empty-handed flash crowd mid-run.
    out.push(Scenario {
        name: "flash-crowd",
        params: SwarmParams::builder(2)
            .seed_rate(1.5)
            .contact_rate(1.0)
            .seed_departure_rate(3.0)
            .fresh_arrivals(0.8)
            .build()
            .unwrap(),
        config: AgentConfig {
            snapshot_interval: 5.0,
            ..Default::default()
        },
        initial: Vec::new(),
        flash: vec![FlashCrowd {
            time: 60.0,
            count: 120,
            pieces: PieceSet::empty(),
        }],
        horizon: 180.0,
    });

    // Section VIII-C retry speed-up from a one-club start: exercises the
    // boosted pools, where the kernels' sampling strategies differ most.
    out.push(Scenario {
        name: "retry-speedup",
        params: SwarmParams::builder(2)
            .seed_rate(0.6)
            .contact_rate(1.0)
            .seed_departure_rate(3.0)
            .fresh_arrivals(1.0)
            .arrival(PieceSet::singleton(PieceId::new(0)), 0.3)
            .build()
            .unwrap(),
        config: AgentConfig {
            retry_speedup: 8.0,
            ..Default::default()
        },
        initial: vec![PieceSet::singleton(PieceId::new(1)); 40],
        flash: Vec::new(),
        horizon: 160.0,
    });

    // Multi-seed start with slow departures: exercises the seed pool from a
    // populated state (gifted arrivals keep all Fig.-2 groups non-trivial).
    out.push(Scenario {
        name: "multi-seed",
        params: SwarmParams::builder(3)
            .seed_rate(0.4)
            .contact_rate(1.0)
            .seed_departure_rate(1.5)
            .fresh_arrivals(1.2)
            .arrival(PieceSet::singleton(PieceId::new(0)), 0.4)
            .build()
            .unwrap(),
        config: AgentConfig::default(),
        initial: {
            let mut peers = vec![PieceSet::full(3); 10];
            peers.extend(std::iter::repeat_n(PieceSet::empty(), 30));
            peers
        },
        flash: Vec::new(),
        horizon: 160.0,
    });

    out
}

#[test]
fn turbo_matches_event_kernel_distributionally() {
    for (i, scenario) in scenarios().iter().enumerate() {
        let seed_base = 0xD1F5_0000 + (i as u64) * 0x0101;
        let event = run_ensemble(scenario, KernelKind::EventDriven, seed_base);
        let turbo = run_ensemble(scenario, KernelKind::Turbo, seed_base);
        assert_compatible(
            "mean-sojourn",
            scenario.name,
            &event.sojourn_mean,
            &turbo.sojourn_mean,
        );
        assert_compatible(
            "final-population",
            scenario.name,
            &event.final_population,
            &turbo.final_population,
        );
        assert_compatible(
            "watch-copies",
            scenario.name,
            &event.watch_copies,
            &turbo.watch_copies,
        );
        assert_compatible("one-club", scenario.name, &event.one_club, &turbo.one_club);
        assert_compatible(
            "infected+gifted",
            scenario.name,
            &event.infected_and_gifted,
            &turbo.infected_and_gifted,
        );
        assert_compatible(
            "departures",
            scenario.name,
            &event.departures,
            &turbo.departures,
        );
        assert_compatible("events", scenario.name, &event.events, &turbo.events);
    }
}

#[test]
fn turbo_handles_the_legacy_scan_kernel_scenarios_too() {
    // Cheap sanity: the scan kernel ensemble is also distributionally
    // compatible with turbo on one scenario (transitively implied by the
    // byte-parity test, but cheap to check directly).
    let scenario = &scenarios()[0];
    let scan = run_ensemble(scenario, KernelKind::LegacyScan, 0xBEEF);
    let turbo = run_ensemble(scenario, KernelKind::Turbo, 0xBEEF);
    assert_compatible(
        "final-population",
        scenario.name,
        &scan.final_population,
        &turbo.final_population,
    );
}
