//! Distributional test: the turbo kernel against an exact labelled
//! type-count chain.
//!
//! The chain is the paper's type-count chain (eq. 1) with each peer's type
//! widened to a *label* `(pieces, boosted, gifted, was_one_club)`: the
//! collection the rates read, whether the peer's retry clock runs `η` times
//! faster (Section VIII-C), whether it arrived holding the watch piece, and
//! whether it ever held every piece but the watch piece. The model's rates
//! and the Fig.-2 rule (`classify_peer`) read nothing else, so the label
//! counts, the fixed seed's boost flag and three event counters form a
//! Markov chain, which `markov::gillespie::run` steps exactly. The chain is
//! written from the model: it shares no code with `swarm::sim`, neither the
//! driver loop and its self-loop stretches nor turbo's pools, alias tables
//! and cached groups.
//!
//! For each scenario (a stable swarm, an empty flash crowd, the retry
//! speed-up from a one-club start, a multi-seed start with gifted arrivals,
//! and `γ = ∞` at `η > 1`) the test runs `REPLICATIONS` replications of each
//! side and requires the replication means of eleven observables to agree
//! within five combined standard errors: the final population, peer seeds
//! and watch-piece copies; the final one-club, infected, gifted and
//! former-one-club counts; and the departures, transfers, useless contacts
//! and events of the whole run. All seeds are fixed, so the test is
//! deterministic. `the_battery_rejects_a_chain_with_skewed_arrival_rates`
//! shows the battery's teeth: the stable base fails when the chain's
//! arrival rates are × 1.1.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

use markov::gillespie::{run, Jumps, StopRule};
use pieceset::{PieceId, PieceSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use swarm::groups::{classify_peer, GroupCounts};
use swarm::metrics::SimResult;
use swarm::policy::RandomUseful;
use swarm::sim::{AgentConfig, AgentSwarm, FlashCrowd, SimScratch};
use swarm::SwarmParams;

const REPLICATIONS: u64 = 64;

/// The names of a [`Sample`]'s entries, in order.
const OBSERVABLES: [&str; 11] = [
    "final-population",
    "peer-seeds",
    "watch-copies",
    "one-club",
    "infected",
    "gifted",
    "former-one-club",
    "departures",
    "transfers",
    "useless-contacts",
    "events",
];

/// One replication's observables, in the order of [`OBSERVABLES`].
type Sample = [f64; 11];

struct Scenario {
    name: &'static str,
    params: SwarmParams,
    retry_speedup: f64,
    initial: Vec<PieceSet>,
    flash: Vec<FlashCrowd>,
    horizon: f64,
}

/// A sample from the final counts and the run's totals.
fn sample(
    population: u64,
    seeds: u64,
    watch_copies: u64,
    groups: &GroupCounts,
    [departures, transfers, useless, events]: [u64; 4],
) -> Sample {
    [
        population,
        seeds,
        watch_copies,
        groups.one_club,
        groups.infected,
        groups.gifted,
        groups.former_one_club,
        departures,
        transfers,
        useless,
        events,
    ]
    .map(|x| x as f64)
}

/// A peer's label: its collection and the three flags the rates and the
/// Fig.-2 rule read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Label {
    pieces: PieceSet,
    /// Its last contact found nothing useful, so its clock runs `η` times
    /// faster.
    boosted: bool,
    /// It arrived holding the watch piece.
    gifted: bool,
    /// It held every piece but the watch piece at some time.
    was_one_club: bool,
}

impl Label {
    /// The label's index in [`State::counts`].
    fn slot(self) -> usize {
        (self.pieces.bits() as usize) << 3
            | usize::from(self.boosted)
            | usize::from(self.gifted) << 1
            | usize::from(self.was_one_club) << 2
    }

    /// The label at index `slot` of [`State::counts`].
    fn at(slot: usize) -> Label {
        Label {
            pieces: PieceSet::from_bits((slot >> 3) as u64),
            boosted: slot & 1 != 0,
            gifted: slot & 2 != 0,
            was_one_club: slot & 4 != 0,
        }
    }
}

/// The chain's state.
#[derive(Debug, Clone)]
struct State {
    /// Peers per label, indexed by [`Label::slot`].
    counts: Vec<u64>,
    /// The fixed seed's last contact found nothing useful.
    seed_boosted: bool,
    transfers: u64,
    useless: u64,
    departures: u64,
}

impl State {
    fn population(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// A jump of the chain.
#[derive(Debug, Clone, Copy)]
enum Jump {
    /// A peer arrives with this collection.
    Arrival(PieceSet),
    /// The fixed seed contacts a peer that holds every piece.
    SeedUseless,
    /// The fixed seed uploads `piece` to a peer of label slot `target`.
    SeedUpload { target: usize, piece: PieceId },
    /// A peer of label slot `uploader` contacts a peer it cannot help.
    PeerUseless { uploader: usize },
    /// A peer of label slot `uploader` uploads `piece` to a peer of label
    /// slot `target`.
    PeerUpload {
        uploader: usize,
        target: usize,
        piece: PieceId,
    },
    /// A peer seed of label slot `seed` departs.
    Departure { seed: usize },
}

/// The labelled chain of one scenario, with its jumps out of the current
/// state.
struct Chain {
    full: PieceSet,
    /// Every piece but the watch piece.
    club: PieceSet,
    watch: PieceId,
    arrivals: Vec<(PieceSet, f64)>,
    seed_rate: f64,
    contact_rate: f64,
    departure_rate: f64,
    eta: f64,
    jumps: Vec<(Jump, f64)>,
    /// The label counts and seed boost `jumps` were listed for, and the sum
    /// of their rates. A contact that changes neither, such as a useless
    /// one at `η = 1`, leaves the list as it is.
    listed_for: (Vec<u64>, bool),
    total: f64,
}

impl Chain {
    /// The chain of `scenario`, with every arrival rate × `arrival_scale`.
    fn new(scenario: &Scenario, arrival_scale: f64) -> Self {
        let params = &scenario.params;
        let full = params.full_type();
        // The watch piece of `AgentConfig::default()`, which turbo runs.
        let watch = PieceId::new(0);
        Chain {
            full,
            club: full.without(watch),
            watch,
            arrivals: params
                .arrivals()
                .map(|(pieces, rate)| (pieces, arrival_scale * rate))
                .collect(),
            seed_rate: params.seed_rate(),
            contact_rate: params.contact_rate(),
            departure_rate: params.seed_departure_rate(),
            eta: scenario.retry_speedup,
            jumps: Vec::new(),
            listed_for: (Vec::new(), false),
            total: 0.0,
        }
    }

    /// The label of a peer that joins holding `pieces`.
    fn joining(&self, pieces: PieceSet) -> Label {
        Label {
            pieces,
            boosted: false,
            gifted: pieces.contains(self.watch),
            was_one_club: pieces == self.club,
        }
    }

    /// An empty swarm, or `peers` joined at time 0.
    fn start(&self, peers: &[PieceSet]) -> State {
        let mut state = State {
            counts: vec![0; (self.full.bits() as usize + 1) << 3],
            seed_boosted: false,
            transfers: 0,
            useless: 0,
            departures: 0,
        };
        for &pieces in peers {
            state.counts[self.joining(pieces).slot()] += 1;
        }
        state
    }

    /// Pushes the contact of an uploader holding `offer` with a target of
    /// slot `target`, at rate `rate`: one jump per useful piece, each chosen
    /// with equal probability (random-useful), or nothing when no piece is
    /// useful. Returns whether the contact is useless.
    fn push_contact(
        &mut self,
        offer: PieceSet,
        target: usize,
        rate: f64,
        upload: impl Fn(PieceId) -> Jump,
    ) -> bool {
        let useful = offer.difference(Label::at(target).pieces);
        let each = rate / useful.len() as f64;
        self.jumps
            .extend(useful.iter().map(|piece| (upload(piece), each)));
        useful.is_empty()
    }

    /// Delivers `piece` to a peer of slot `target`: the peer loses its
    /// boost, may join the one club, and leaves at once on completion when
    /// `γ = ∞`.
    fn give(&self, state: &mut State, target: usize, piece: PieceId) {
        let before = Label::at(target);
        state.counts[target] -= 1;
        state.transfers += 1;
        let pieces = before.pieces.with(piece);
        let after = Label {
            pieces,
            boosted: false,
            gifted: before.gifted,
            was_one_club: before.was_one_club || pieces == self.club,
        };
        if pieces == self.full && self.departure_rate.is_infinite() {
            state.departures += 1;
        } else {
            state.counts[after.slot()] += 1;
        }
    }

    /// Moves one peer of slot `peer` to the same label with `boosted`.
    fn set_boost(state: &mut State, peer: usize, boosted: bool) {
        let label = Label {
            boosted,
            ..Label::at(peer)
        };
        state.counts[peer] -= 1;
        state.counts[label.slot()] += 1;
    }
}

impl Jumps for Chain {
    type State = State;

    fn sum_rates(&mut self, state: &State) -> f64 {
        if self.listed_for.0 == state.counts && self.listed_for.1 == state.seed_boosted {
            return self.total;
        }
        self.listed_for.0.clone_from(&state.counts);
        self.listed_for.1 = state.seed_boosted;
        self.jumps.clear();
        for &(pieces, rate) in &self.arrivals {
            self.jumps.push((Jump::Arrival(pieces), rate));
        }
        let occupied: Vec<usize> = (0..state.counts.len())
            .filter(|&slot| state.counts[slot] > 0)
            .collect();
        let n = state.population() as f64;
        if n > 0.0 {
            // The fixed seed contacts a uniform peer.
            let boost = if state.seed_boosted { self.eta } else { 1.0 };
            let mut useless = 0.0;
            for &target in &occupied {
                let rate = self.seed_rate * boost * state.counts[target] as f64 / n;
                if self.push_contact(self.full, target, rate, |piece| Jump::SeedUpload {
                    target,
                    piece,
                }) {
                    useless += rate;
                }
            }
            self.jumps.push((Jump::SeedUseless, useless));
            // Each peer contacts a uniform peer, itself included.
            for &uploader in &occupied {
                let label = Label::at(uploader);
                let boost = if label.boosted { self.eta } else { 1.0 };
                let clocks = self.contact_rate * boost * state.counts[uploader] as f64;
                let mut useless = 0.0;
                for &target in &occupied {
                    let rate = clocks * state.counts[target] as f64 / n;
                    if self.push_contact(label.pieces, target, rate, |piece| Jump::PeerUpload {
                        uploader,
                        target,
                        piece,
                    }) {
                        useless += rate;
                    }
                }
                self.jumps.push((Jump::PeerUseless { uploader }, useless));
            }
        }
        if self.departure_rate.is_finite() {
            for &seed in &occupied {
                if Label::at(seed).pieces == self.full {
                    let rate = self.departure_rate * state.counts[seed] as f64;
                    self.jumps.push((Jump::Departure { seed }, rate));
                }
            }
        }
        self.total = self.jumps.iter().map(|&(_, rate)| rate).sum();
        self.total
    }

    fn rates(&self) -> impl Iterator<Item = f64> {
        self.jumps.iter().map(|&(_, rate)| rate)
    }

    fn apply(&mut self, state: &mut State, index: usize) -> f64 {
        let boosts = self.eta > 1.0;
        match self.jumps[index].0 {
            Jump::Arrival(pieces) => state.counts[self.joining(pieces).slot()] += 1,
            Jump::SeedUseless => {
                state.useless += 1;
                state.seed_boosted = boosts;
            }
            Jump::SeedUpload { target, piece } => {
                state.seed_boosted = false;
                self.give(state, target, piece);
            }
            Jump::PeerUseless { uploader } => {
                state.useless += 1;
                if boosts {
                    Chain::set_boost(state, uploader, true);
                }
            }
            Jump::PeerUpload {
                uploader,
                target,
                piece,
            } => {
                Chain::set_boost(state, uploader, false);
                self.give(state, target, piece);
            }
            Jump::Departure { seed } => {
                state.counts[seed] -= 1;
                state.departures += 1;
            }
        }
        state.population() as f64
    }
}

/// One replication of the chain: it runs to each flash crowd, takes the
/// crowd in, and runs on to the horizon.
fn chain_sample(scenario: &Scenario, chain: &mut Chain, rng: &mut StdRng) -> Sample {
    let mut state = chain.start(&scenario.initial);
    let mut time = 0.0;
    let mut events = 0;
    let mut crowds = scenario.flash.iter();
    loop {
        let crowd = crowds.next();
        let until = crowd.map_or(scenario.horizon, |crowd| crowd.time);
        let value = state.population() as f64;
        let leg = run(chain, state, value, StopRule::at_time(until - time), rng);
        events += leg.events;
        state = leg.final_state;
        time = until;
        let Some(crowd) = crowd else { break };
        state.counts[chain.joining(crowd.pieces).slot()] += crowd.count as u64;
    }
    let mut groups = GroupCounts::default();
    let (mut seeds, mut watch_copies) = (0, 0);
    let k = scenario.params.num_pieces();
    for (slot, &count) in state.counts.iter().enumerate() {
        let label = Label::at(slot);
        let group = classify_peer(
            label.pieces,
            label.gifted,
            label.was_one_club,
            chain.watch,
            k,
        );
        for _ in 0..count {
            groups.add(group);
        }
        if label.pieces == chain.full {
            seeds += count;
        }
        if label.pieces.contains(chain.watch) {
            watch_copies += count;
        }
    }
    let totals = [state.departures, state.transfers, state.useless, events];
    sample(state.population(), seeds, watch_copies, &groups, totals)
}

fn turbo_sample(result: &SimResult) -> Sample {
    let last = result.final_snapshot();
    let totals = [
        result.sojourns.departures,
        result.transfers,
        result.unsuccessful_contacts,
        result.events,
    ];
    sample(
        last.total_peers,
        last.peer_seeds,
        last.watch_piece_copies,
        &last.groups,
        totals,
    )
}

/// The seed of replication `replication` of the `i`-th scenario; the chain
/// runs on other streams than turbo.
fn seed(i: usize, replication: u64, chain: bool) -> u64 {
    let base = 0xD1F5_0000 + (i as u64) * 0x0101;
    (base ^ (replication * 0x9E37_79B9)) + if chain { 0xC4A1_0000_0000 } else { 0 }
}

fn turbo_ensemble(i: usize, scenario: &Scenario) -> Vec<Sample> {
    let config = AgentConfig {
        retry_speedup: scenario.retry_speedup,
        ..AgentConfig::default()
    };
    let sim = AgentSwarm::with_config(scenario.params.clone(), config, Box::new(RandomUseful))
        .expect("valid configuration");
    let mut scratch = SimScratch::new();
    (0..REPLICATIONS)
        .map(|replication| {
            let mut rng = StdRng::seed_from_u64(seed(i, replication, false));
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
            let sample = turbo_sample(&result);
            scratch.recycle(result);
            sample
        })
        .collect()
}

fn chain_ensemble(i: usize, scenario: &Scenario, arrival_scale: f64) -> Vec<Sample> {
    let mut chain = Chain::new(scenario, arrival_scale);
    (0..REPLICATIONS)
        .map(|replication| {
            let mut rng = StdRng::seed_from_u64(seed(i, replication, true));
            chain_sample(scenario, &mut chain, &mut rng)
        })
        .collect()
}

/// Mean and standard error of observable `index` over `samples`.
fn moments(samples: &[Sample], index: usize) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| s[index]).sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|s| (s[index] - mean).powi(2))
        .sum::<f64>()
        / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// The observables whose replication means differ between the two
/// ensembles by more than five combined standard errors.
fn incompatible(chain: &[Sample], turbo: &[Sample]) -> Vec<String> {
    OBSERVABLES
        .iter()
        .enumerate()
        .filter_map(|(index, name)| {
            let (ma, sa) = moments(chain, index);
            let (mb, sb) = moments(turbo, index);
            let se = (sa * sa + sb * sb).sqrt();
            ((mb - ma).abs() > 5.0 * se).then(|| {
                format!(
                    "{name}: chain {ma:.3} ± {sa:.3} vs turbo {mb:.3} ± {sb:.3} (z = {:.2})",
                    (mb - ma) / se
                )
            })
        })
        .collect()
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
        retry_speedup: 1.0,
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
        retry_speedup: 1.0,
        initial: Vec::new(),
        flash: vec![FlashCrowd {
            time: 60.0,
            count: 120,
            pieces: PieceSet::empty(),
        }],
        horizon: 180.0,
    });

    // Section VIII-C retry speed-up from a one-club start: boosted and
    // normal clocks side by side.
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
        retry_speedup: 8.0,
        initial: vec![PieceSet::singleton(PieceId::new(1)); 40],
        flash: Vec::new(),
        horizon: 160.0,
    });

    // Multi-seed start with slow departures: the seed pool from a
    // populated state, with gifted arrivals so that every Fig.-2 group is
    // non-trivial.
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
        retry_speedup: 1.0,
        initial: {
            let mut peers = vec![PieceSet::full(3); 10];
            peers.extend(std::iter::repeat_n(PieceSet::empty(), 30));
            peers
        },
        flash: Vec::new(),
        horizon: 160.0,
    });

    // γ = ∞ at η > 1: completions leave at once, inside the upload that
    // completes them, while boosted clocks run from a one-club start.
    out.push(Scenario {
        name: "instant-departure-retry",
        params: SwarmParams::builder(2)
            .seed_rate(1.0)
            .contact_rate(1.0)
            .fresh_arrivals(0.5)
            .arrival(PieceSet::singleton(PieceId::new(1)), 0.3)
            .build()
            .unwrap(),
        retry_speedup: 4.0,
        initial: vec![PieceSet::singleton(PieceId::new(1)); 30],
        flash: Vec::new(),
        horizon: 120.0,
    });

    out
}

#[test]
fn turbo_matches_the_labelled_chain_distributionally() {
    for (i, scenario) in scenarios().iter().enumerate() {
        let chain = chain_ensemble(i, scenario, 1.0);
        let turbo = turbo_ensemble(i, scenario);
        let failing = incompatible(&chain, &turbo);
        assert!(failing.is_empty(), "{}: {failing:?}", scenario.name);
    }
}

#[test]
fn the_battery_rejects_a_chain_with_skewed_arrival_rates() {
    // The stable base's chain with every arrival rate × 1.1, on the
    // battery's own seeds: at least one observable must fall outside the
    // tolerance, or the battery has no teeth.
    let scenario = &scenarios()[0];
    let chain = chain_ensemble(0, scenario, 1.1);
    let turbo = turbo_ensemble(0, scenario);
    assert!(
        !incompatible(&chain, &turbo).is_empty(),
        "a 10% arrival-rate skew passed the battery"
    );
}
