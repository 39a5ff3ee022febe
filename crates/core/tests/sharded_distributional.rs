//! Validation battery for the sharded driver
//! (`crates/core/src/sim/sharded.rs`).
//!
//! Sharding one replication's population across per-shard clocks is exact
//! for arrivals, local contacts, and departures, but *relaxed* for
//! cross-shard contact timing (delivered at window boundaries) and the
//! fixed seed's clock (split by frozen weights). So the contract has two
//! halves, and this file pins both:
//!
//! 1. **Distributional equality.** Over an ensemble of replications, a
//!    sharded run samples the same process as the unsharded turbo kernel:
//!    replication means of every observable agree within five combined
//!    standard errors (the same tolerance `turbo_distributional.rs` uses
//!    between kernels). The battery's *teeth* are proven by construction:
//!    a deliberately biased exchange ([`ShardBias::DropRemote`]) must fail
//!    the same assertions.
//! 2. **Bit-identity across schedulers.** For a fixed
//!    `(seed, shards, sync_window)` the result is byte-identical at any
//!    `jobs` value, metered or not, and the per-shard counters satisfy
//!    the engine's partition identities shard by shard.
//!
//! A proptest additionally drives the synchronization window down to the
//! single-event scale and checks convergence to the unsharded law on
//! randomized scenarios, and a chaos case pins the deterministic panic
//! payload a failing shard propagates out of the worker pool.

use pieceset::{PieceId, PieceSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use swarm::metrics::SimResult;
use swarm::policy::RandomUseful;
use swarm::sim::{
    AgentConfig, AgentSwarm, FlashCrowd, KernelKind, ShardBias, ShardPlan, SimScratch,
};
use swarm::SwarmParams;
use telemetry::{Counter, CounterRecorder};

const REPLICATIONS: u64 = 24;

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

/// How far apart two ensembles of one observable sit, in units of the
/// battery tolerance (five combined standard errors plus an absolute
/// floor): ≤ 1 is compatible, > 1 is a detected bias.
fn discrepancy(a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (moments(a), moments(b));
    let tolerance = 5.0 * (ma.se * ma.se + mb.se * mb.se).sqrt() + 1.0;
    (ma.mean - mb.mean).abs() / tolerance
}

fn assert_compatible(name: &str, scenario: &str, unsharded: &[f64], sharded: &[f64]) {
    let d = discrepancy(unsharded, sharded);
    assert!(
        d <= 1.0,
        "{scenario}/{name}: unsharded mean {} vs sharded mean {} \
         is {d:.2}× the battery tolerance",
        moments(unsharded).mean,
        moments(sharded).mean,
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

    /// Every observable with its name, for teeth-hunting.
    fn observables(&self) -> [(&'static str, &[f64]); 7] {
        [
            ("mean-sojourn", &self.sojourn_mean),
            ("final-population", &self.final_population),
            ("watch-copies", &self.watch_copies),
            ("one-club", &self.one_club),
            ("infected+gifted", &self.infected_and_gifted),
            ("departures", &self.departures),
            ("events", &self.events),
        ]
    }
}

fn turbo_sim(scenario: &Scenario) -> AgentSwarm {
    let config = AgentConfig {
        kernel: KernelKind::Turbo,
        ..scenario.config
    };
    AgentSwarm::with_config(scenario.params.clone(), config, Box::new(RandomUseful))
        .expect("valid configuration")
}

fn rep_rng(seed_base: u64, replication: u64) -> StdRng {
    StdRng::seed_from_u64(seed_base ^ (replication * 0x9E37_79B9))
}

fn run_unsharded(scenario: &Scenario, seed_base: u64) -> Ensemble {
    let sim = turbo_sim(scenario);
    let mut scratch = SimScratch::new();
    let mut ensemble = Ensemble::default();
    for replication in 0..REPLICATIONS {
        let mut rng = rep_rng(seed_base, replication);
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
        ensemble.push(&result);
        scratch.recycle(result);
    }
    ensemble
}

fn run_sharded(scenario: &Scenario, seed_base: u64, plan: &ShardPlan) -> Ensemble {
    let sim = turbo_sim(scenario);
    let mut ensemble = Ensemble::default();
    for replication in 0..REPLICATIONS {
        let mut rng = rep_rng(seed_base, replication);
        let result = sim
            .run_sharded(
                &scenario.initial,
                &scenario.flash,
                scenario.horizon,
                plan,
                &mut rng,
            )
            .expect("valid sharded scenario");
        assert!(!result.truncated, "budget must cover the horizon");
        for snap in &result.snapshots {
            assert_eq!(snap.groups.total(), snap.total_peers);
        }
        ensemble.push(&result);
    }
    ensemble
}

/// The turbo-battery scenarios the sharded driver supports (everything but
/// the retry speed-up, which sharding rejects by contract).
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
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
        },
        Scenario {
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
        },
        Scenario {
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
        },
    ]
}

#[test]
fn sharded_matches_unsharded_distributionally() {
    let plan = ShardPlan::new(4, 0.25);
    for (i, scenario) in scenarios().iter().enumerate() {
        let seed_base = 0x5AAD_0000 + (i as u64) * 0x0101;
        let unsharded = run_unsharded(scenario, seed_base);
        let sharded = run_sharded(scenario, seed_base, &plan);
        for ((name, a), (_, b)) in unsharded.observables().iter().zip(&sharded.observables()) {
            assert_compatible(name, scenario.name, a, b);
        }
    }
}

#[test]
fn the_battery_detects_a_biased_exchange() {
    // Teeth: silently dropping cross-shard offers starves 3/4 of the
    // contact volume, so the same assertions that pass for the faithful
    // exchange must fail loudly here — otherwise the battery proves
    // nothing. Checked on the densest scenario.
    let scenario = &scenarios()[0];
    let seed_base = 0x5AAD_0000;
    let unsharded = run_unsharded(scenario, seed_base);
    let biased = run_sharded(
        scenario,
        seed_base,
        &ShardPlan::new(4, 0.25).with_bias(ShardBias::DropRemote),
    );
    let worst = unsharded
        .observables()
        .iter()
        .zip(&biased.observables())
        .map(|((_, a), (_, b))| discrepancy(a, b))
        .fold(0.0f64, f64::max);
    assert!(
        worst > 1.0,
        "a broken exchange slipped through the battery (worst discrepancy {worst:.2}× tolerance)"
    );
}

#[test]
fn sharded_runs_are_bit_identical_at_any_jobs() {
    let scenario = &scenarios()[1];
    let sim = turbo_sim(scenario);
    let run = |jobs: usize| {
        let mut rng = StdRng::seed_from_u64(0xB17_1DE7);
        sim.run_sharded(
            &scenario.initial,
            &scenario.flash,
            scenario.horizon,
            &ShardPlan::new(5, 0.5).with_jobs(jobs),
            &mut rng,
        )
        .expect("valid sharded run")
    };
    let reference = run(1);
    assert!(reference.events > 0);
    for jobs in [2, 4, 7] {
        assert_eq!(
            run(jobs),
            reference,
            "jobs={jobs} must replay the jobs=1 trajectory bit for bit"
        );
    }
    // Metering consumes no randomness: the metered run reproduces the
    // unmetered one exactly, at any jobs value, with identical counters.
    let metered = |jobs: usize| {
        let mut rng = StdRng::seed_from_u64(0xB17_1DE7);
        let mut recorders = vec![CounterRecorder::new(); 5];
        let result = sim
            .run_sharded_metered(
                &scenario.initial,
                &scenario.flash,
                scenario.horizon,
                &ShardPlan::new(5, 0.5).with_jobs(jobs),
                &mut rng,
                &mut recorders,
            )
            .expect("valid metered sharded run");
        (result, recorders)
    };
    let (result_1, counters_1) = metered(1);
    let (result_3, counters_3) = metered(3);
    assert_eq!(result_1, reference, "a recorder must never perturb the run");
    assert_eq!(result_3, reference);
    assert_eq!(
        counters_1, counters_3,
        "per-shard counters are scheduler-independent"
    );
}

#[test]
fn per_shard_counters_satisfy_the_partition_identities() {
    // Cross-shard contacts are attributed entirely to the destination, so
    // the engine's counter algebra holds on every shard in isolation —
    // not just after aggregation.
    let scenario = &scenarios()[2];
    let sim = turbo_sim(scenario);
    let shards = 4;
    let mut rng = StdRng::seed_from_u64(0xC0_47E5);
    let mut recorders = vec![CounterRecorder::new(); shards];
    let result = sim
        .run_sharded_metered(
            &scenario.initial,
            &scenario.flash,
            scenario.horizon,
            &ShardPlan::new(shards as u32, 0.25),
            &mut rng,
            &mut recorders,
        )
        .expect("valid metered sharded run");
    let mut events = 0;
    let mut useful = 0;
    let mut useless = 0;
    let mut departures = 0;
    for (shard, rec) in recorders.iter().enumerate() {
        let c = &rec.counters;
        assert!(
            c.get(Counter::Contacts) > 0,
            "shard {shard} saw no contacts — the split is degenerate"
        );
        assert_eq!(
            c.get(Counter::Contacts),
            c.get(Counter::UsefulTransfers) + c.get(Counter::UselessContacts),
            "shard {shard}: every contact is classified useful or useless"
        );
        events += c.event_total();
        useful += c.get(Counter::UsefulTransfers);
        useless += c.get(Counter::UselessContacts);
        departures += c.get(Counter::Departures);
    }
    assert_eq!(
        events, result.events,
        "shard event totals partition the run"
    );
    assert_eq!(useful, result.transfers);
    // `unsuccessful_contacts` has never included contacts against an empty
    // population (the kernels count those only in telemetry), and an empty
    // *shard* can be contacted mid-window, so the counter dominates.
    assert!(useless >= result.unsuccessful_contacts);
    assert_eq!(departures, result.sojourns.departures);
}

#[test]
fn an_injected_shard_panic_propagates_with_its_deterministic_payload() {
    let scenario = &scenarios()[0];
    let sim = turbo_sim(scenario);
    let plan = ShardPlan::new(4, 0.25).with_jobs(2).with_panic_in_shard(2);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(7);
        sim.run_sharded(
            &scenario.initial,
            &scenario.flash,
            scenario.horizon,
            &plan,
            &mut rng,
        )
    }));
    let payload = outcome.expect_err("the injected fault must escape the worker pool");
    let message = payload
        .downcast_ref::<String>()
        .expect("a typed String payload");
    assert_eq!(message, "injected shard fault: panic in shard 2");
}

proptest! {
    // Deliberately few cases: each one runs two small Monte-Carlo
    // ensembles. The tolerance is wider than the fixed-seed battery's
    // (six combined SEs plus a floor of two) because proptest draws new
    // scenarios every run; at that width a false alarm is a ~1e-8 event
    // per case while a mis-weighted exchange still sits many tolerances
    // out.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Shrinking the synchronization window to the single-event scale
    /// reproduces the unsharded distribution: the only relaxed ingredients
    /// (frozen weights, boundary-batched delivery) refresh so often that
    /// their staleness vanishes.
    #[test]
    fn a_single_event_window_converges_to_the_unsharded_law(
        lambda0 in 1.0f64..2.0,
        us in 1.0f64..2.5,
        gamma in 1.5f64..3.0,
        shards in 2u32..6,
    ) {
        let scenario = Scenario {
            name: "proptest",
            params: SwarmParams::builder(2)
                .seed_rate(us)
                .contact_rate(1.0)
                .seed_departure_rate(gamma)
                .fresh_arrivals(lambda0)
                .build()
                .unwrap(),
            config: AgentConfig::default(),
            initial: vec![PieceSet::empty(); 20],
            flash: Vec::new(),
            horizon: 60.0,
        };
        // ~20 peers at µ = 1 means ≳20 events per unit time, so a 0.05
        // window holds about one event per shard per round.
        let plan = ShardPlan::new(shards, 0.05);
        let unsharded = run_unsharded(&scenario, 0x51_116E);
        let sharded = run_sharded(&scenario, 0x51_116E, &plan);
        for ((name, a), (_, b)) in unsharded.observables().iter().zip(&sharded.observables()) {
            let (ma, mb) = (moments(a), moments(b));
            let tolerance = 6.0 * (ma.se * ma.se + mb.se * mb.se).sqrt() + 2.0;
            prop_assert!(
                (ma.mean - mb.mean).abs() <= tolerance,
                "{name}: unsharded {} vs sharded {} at window 0.05 with {shards} shards",
                ma.mean,
                mb.mean,
            );
        }
    }
}
