//! Counter-correctness tests of the kernel instrumentation: metered runs
//! are byte-identical to unmetered ones (the determinism contract — a
//! recorder consumes no randomness), the event-partition counters add up to
//! the kernel's reported event total, and the per-kernel counters satisfy
//! their structural invariants.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

use pieceset::{PieceId, PieceSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use swarm::sim::{AgentConfig, AgentSwarm, FlashCrowd, KernelKind, SimScratch};
use swarm::SwarmParams;
use telemetry::{Counter, CounterRecorder, CounterSet};

fn params(k: usize, us: f64, mu: f64, gamma: f64, lambda0: f64) -> SwarmParams {
    let mut b = SwarmParams::builder(k)
        .seed_rate(us)
        .contact_rate(mu)
        .fresh_arrivals(lambda0);
    if gamma.is_finite() {
        b = b.seed_departure_rate(gamma);
    }
    b.build().expect("valid parameters")
}

fn uncoded_sim(kernel: KernelKind) -> AgentSwarm {
    let config = AgentConfig {
        kernel,
        retry_speedup: 6.0,
        snapshot_interval: 5.0,
        ..Default::default()
    };
    AgentSwarm::with_config(
        params(3, 0.5, 1.0, 2.0, 1.5),
        config,
        Box::new(swarm::policy::RandomUseful),
    )
    .expect("valid simulator")
}

/// A gift-heavy coded swarm over `GF(q)`: half the arrivals carry a coded
/// piece, finite γ, K = 3.
fn coded_sim(q: u64) -> AgentSwarm {
    let coded = swarm::coded::CodedParams::gift_example(3, q, 1.2, 0.5, 0.5, 1.0, 2.0)
        .expect("valid coded parameters");
    AgentSwarm::with_coded(
        coded,
        AgentConfig {
            snapshot_interval: 5.0,
            ..Default::default()
        },
    )
    .expect("valid coded simulator")
}

/// Runs `sim` twice on the same seed — unmetered, then metered — asserting
/// bit-identical results, and returns the result plus the counters.
fn metered_run(
    sim: &AgentSwarm,
    seed: u64,
    horizon: f64,
) -> (swarm::metrics::SimResult, CounterSet) {
    let crowd = FlashCrowd {
        time: horizon / 2.0,
        count: 40,
        pieces: PieceSet::empty(),
    };
    let initial = vec![PieceSet::singleton(PieceId::new(1)); 10];
    let mut plain_rng = StdRng::seed_from_u64(seed);
    let plain = sim
        .run_with_scratch(
            &initial,
            &[crowd],
            horizon,
            &mut plain_rng,
            &mut SimScratch::new(),
        )
        .expect("valid run");
    let mut metered_rng = StdRng::seed_from_u64(seed);
    let mut rec = CounterRecorder::new();
    let metered = sim
        .run_metered(
            &initial,
            &[crowd],
            horizon,
            &mut metered_rng,
            &mut SimScratch::new(),
            &mut rec,
        )
        .expect("valid run");
    assert_eq!(plain, metered, "a recorder must never perturb the run");
    (metered, rec.counters)
}

/// Where a counter sits in the event partition.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    /// One of the three event kinds that add up to the kernel's events.
    Event,
    /// One of the two outcomes that add up to the contacts.
    ContactOutcome,
    /// Any other counter, pinned by the assertions below and the
    /// per-kernel tests.
    Other,
}

/// The match is exhaustive, so a new counter does not compile until it is
/// classified here.
fn part(counter: Counter) -> Part {
    match counter {
        Counter::Arrivals | Counter::Contacts | Counter::DepartureEvents => Part::Event,
        Counter::UsefulTransfers | Counter::UselessContacts => Part::ContactOutcome,
        Counter::Departures
        | Counter::AliasRebuilds
        | Counter::PoolOps
        | Counter::RejectionRetries
        | Counter::RrefAbsorbs
        | Counter::RankIncreases
        | Counter::DimFastPathHits
        | Counter::BasisMaterializations => Part::Other,
    }
}

/// The invariants every kernel's counters must satisfy against its result.
fn assert_invariants(result: &swarm::metrics::SimResult, c: &CounterSet, kernel: &str) {
    let sum = |wanted: Part| -> u64 {
        Counter::ALL
            .into_iter()
            .filter(|&counter| part(counter) == wanted)
            .map(|counter| c.get(counter))
            .sum()
    };
    assert_eq!(
        c.event_total(),
        result.events,
        "{kernel}: arrivals + contacts + departure_events == events"
    );
    // The same partition summed over the classification, so `event_total`
    // cannot drift from its documentation.
    assert_eq!(
        sum(Part::Event),
        c.event_total(),
        "{kernel}: event_total is exactly the three-way event partition"
    );
    assert_eq!(
        c.get(Counter::Contacts),
        sum(Part::ContactOutcome),
        "{kernel}: every contact is classified useful or useless"
    );
    assert_eq!(
        c.get(Counter::UsefulTransfers),
        result.transfers,
        "{kernel}: the useful-transfer counter is the kernel's transfer count"
    );
    assert_eq!(
        c.get(Counter::UselessContacts).min(result.events),
        c.get(Counter::UselessContacts),
        "{kernel}: useless contacts cannot exceed events"
    );
    assert_eq!(
        c.get(Counter::Departures),
        result.sojourns.departures,
        "{kernel}: the departure counter is the kernel's sojourn count"
    );
}

#[test]
fn turbo_kernel_counters_satisfy_their_invariants() {
    let sim = uncoded_sim(KernelKind::Turbo);
    let (result, c) = metered_run(&sim, 303, 200.0);
    assert_invariants(&result, &c, "turbo");
    assert_eq!(c.get(Counter::AliasRebuilds), 1, "one alias build per run");
    // Boost/unboost/departure churn shows up as swap-remove pool traffic.
    assert!(c.get(Counter::PoolOps) > 0, "pool ops: {:?}", c);
    assert!(
        c.get(Counter::PoolOps) >= 2 * c.get(Counter::Departures),
        "each departing seed entered and left the seed pool"
    );
    // η = 6 leaves boosted peers in the pool, so the complement rejection
    // that draws a normal uploader has to retry.
    assert!(c.get(Counter::RejectionRetries) > 0);
    for counter in [
        Counter::RrefAbsorbs,
        Counter::RankIncreases,
        Counter::DimFastPathHits,
        Counter::BasisMaterializations,
    ] {
        assert_eq!(c.get(counter), 0, "turbo kernel has no {counter:?}");
    }
}

#[test]
fn coded_kernel_counters_satisfy_their_invariants() {
    for (q, seed) in [(2, 505), (8, 404)] {
        let what = format!("coded over GF({q})");
        let (result, c) = metered_run(&coded_sim(q), seed, 200.0);
        assert_invariants(&result, &c, &what);
        assert!(
            c.get(Counter::RrefAbsorbs) >= c.get(Counter::RejectionRetries),
            "{what}: every rejection retry was a failed absorb"
        );
        // Rank increases count every dimension gained by a peer — lazily or
        // through a basis — so they dominate the contact-driven transfers.
        assert!(c.get(Counter::RankIncreases) >= result.transfers, "{what}");
        assert_eq!(
            c.get(Counter::AliasRebuilds),
            1,
            "{what}: one gift alias build"
        );
        assert!(
            c.get(Counter::PoolOps) >= 2 * c.get(Counter::Departures),
            "{what}: each departing decoder entered and left the seed pool"
        );
    }
}

#[test]
fn coded_laziness_shows_in_the_ledger_on_a_gift_heavy_scenario() {
    // The lazy-peer claim, stated as counter algebra over GF(2) and GF(8):
    // on a gift-heavy scenario most decisions resolve from cached
    // dimensions, bases are materialized rarely, and each materialized
    // basis is then worked more than once on average.
    for q in [2, 8] {
        let (_, c) = metered_run(&coded_sim(q), 606, 200.0);
        assert!(
            c.get(Counter::BasisMaterializations) < c.get(Counter::RrefAbsorbs),
            "GF({q}) laziness: materialization events are rarer than basis absorbs: {c:?}"
        );
        assert!(
            c.get(Counter::DimFastPathHits) > c.get(Counter::BasisMaterializations),
            "GF({q}): dimension-only decisions dominate materializations: {c:?}"
        );
        assert!(
            c.get(Counter::BasisMaterializations) > 0,
            "GF({q}): peer-to-peer transfers do materialize bases: {c:?}"
        );
    }
}

#[test]
fn metered_runs_are_scratch_independent_too() {
    // A warm scratch plus a recorder must still reproduce the fresh run.
    let sim = uncoded_sim(KernelKind::Turbo);
    let mut scratch = SimScratch::new();
    let mut warm_rng = StdRng::seed_from_u64(9);
    let warmup = sim
        .run_with_scratch(&[], &[], 50.0, &mut warm_rng, &mut scratch)
        .expect("warmup run");
    scratch.recycle(warmup);
    let mut rng_a = StdRng::seed_from_u64(777);
    let mut rec = CounterRecorder::new();
    let warm = sim
        .run_metered(&[], &[], 120.0, &mut rng_a, &mut scratch, &mut rec)
        .expect("warm metered run");
    let mut rng_b = StdRng::seed_from_u64(777);
    let fresh = sim
        .run_with_scratch(&[], &[], 120.0, &mut rng_b, &mut SimScratch::new())
        .expect("fresh run");
    assert_eq!(warm, fresh);
    assert_eq!(rec.counters.event_total(), fresh.events);
}
