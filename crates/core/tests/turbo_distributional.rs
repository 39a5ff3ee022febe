//! Distributional differential test: the turbo kernel against its
//! reference, the legacy scan kernel.
//!
//! The turbo kernel samples every event from the same distribution as the
//! scan kernel but with different draws (alias-table arrivals, pool-based
//! uploader and departure sampling), so byte-equality of trajectories
//! cannot hold. What must hold instead is *statistical* equality: over an
//! ensemble of replications of the same scenario, the two kernels sample
//! the same stochastic process, so their replication means of every
//! observable agree within sampling noise.
//!
//! For each scenario (flash crowds, retry speed-up, multi-seed starts, and
//! a plain stable swarm) this test runs `N` replications per kernel and
//! demands overlap of generous confidence intervals on: mean sojourn time,
//! final population, final watch-piece copies, the final Fig.-2 group
//! counts, departures, the event count, the useless-contact count and the
//! transfer count. Turbo folds runs of useless contacts into one clock draw
//! (the shared driver's self-loop stretches) while scan ticks the clock once
//! per event, so the last three compare turbo's aggregated counts with a
//! per-event reference. Tolerances are 5 combined standard errors plus an
//! absolute floor of 1 — loose enough for a deterministic, non-flaky pass
//! (all seeds fixed). Measured power on these seeds: the battery still
//! passes a turbo run whose µ is skewed by up to 20%, whose γ or U_s is
//! skewed by 20%, or whose arrival rates are all skewed by 5%; it first
//! fails at every arrival rate × 1.1 (stable-base: departures and events)
//! and at µ × 1.3 (multi-seed). `the_battery_rejects_a_skewed_turbo_run`
//! pins the first of those.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

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
    unsuccessful_contacts: Vec<f64>,
    transfers: Vec<f64>,
}

impl Ensemble {
    fn observables(&self) -> [(&'static str, &[f64]); 9] {
        [
            ("mean-sojourn", &self.sojourn_mean),
            ("final-population", &self.final_population),
            ("watch-copies", &self.watch_copies),
            ("one-club", &self.one_club),
            ("infected+gifted", &self.infected_and_gifted),
            ("departures", &self.departures),
            ("events", &self.events),
            ("unsuccessful-contacts", &self.unsuccessful_contacts),
            ("transfers", &self.transfers),
        ]
    }

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
        self.unsuccessful_contacts
            .push(result.unsuccessful_contacts as f64);
        self.transfers.push(result.transfers as f64);
    }
}

/// The observables whose replication means differ between the `scan` and
/// `turbo` ensembles by more than five combined standard errors plus an
/// absolute floor of 1 (for observables that sit near zero).
fn incompatible(scan: &Ensemble, turbo: &Ensemble) -> Vec<String> {
    scan.observables()
        .into_iter()
        .zip(turbo.observables())
        .filter_map(|((name, a), (_, b))| {
            let (ma, mb) = (moments(a), moments(b));
            let tolerance = 5.0 * (ma.se * ma.se + mb.se * mb.se).sqrt() + 1.0;
            ((ma.mean - mb.mean).abs() > tolerance).then(|| {
                format!(
                    "{name}: scan mean {} vs turbo mean {} exceeds tolerance {tolerance}",
                    ma.mean, mb.mean
                )
            })
        })
        .collect()
}

/// The seed base of the `i`-th scenario.
fn seed_base(i: usize) -> u64 {
    0xD1F5_0000 + (i as u64) * 0x0101
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
fn turbo_matches_scan_kernel_distributionally() {
    for (i, scenario) in scenarios().iter().enumerate() {
        let scan = run_ensemble(scenario, KernelKind::LegacyScan, seed_base(i));
        let turbo = run_ensemble(scenario, KernelKind::Turbo, seed_base(i));
        let failing = incompatible(&scan, &turbo);
        assert!(failing.is_empty(), "{}: {failing:?}", scenario.name);
    }
}

#[test]
fn the_battery_rejects_a_skewed_turbo_run() {
    // Turbo with every arrival rate × 1.1 against the unskewed scan
    // reference, on the battery's own seeds: at least one observable must
    // fall outside the tolerance, or the battery has no teeth.
    let scenario = &scenarios()[0];
    let params = &scenario.params;
    let mut builder = SwarmParams::builder(params.num_pieces())
        .seed_rate(params.seed_rate())
        .contact_rate(params.contact_rate())
        .seed_departure_rate(params.seed_departure_rate());
    for (pieces, rate) in params.arrivals() {
        builder = builder.arrival(pieces, 1.1 * rate);
    }
    let skewed = Scenario {
        params: builder.build().expect("valid parameters"),
        initial: scenario.initial.clone(),
        flash: scenario.flash.clone(),
        ..*scenario
    };
    let scan = run_ensemble(scenario, KernelKind::LegacyScan, seed_base(0));
    let turbo = run_ensemble(&skewed, KernelKind::Turbo, seed_base(0));
    assert!(
        !incompatible(&scan, &turbo).is_empty(),
        "a 10% arrival-rate skew passed the battery"
    );
}
