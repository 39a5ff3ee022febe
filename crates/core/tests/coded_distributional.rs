//! Distributional test: the coded kernel against an exact subspace-count
//! chain.
//!
//! Under random linear network coding (Section VIII-B) a peer's type is the
//! subspace `W ⊆ F_q^K` its coding vectors span. The rates and the coded
//! group rule read nothing else but whether the peer arrived with a coded
//! piece, so the counts of peers per label `(W, gifted)` and three event
//! counters form a Markov chain, which `markov::gillespie::run` steps
//! exactly. The chain is written from the model: it holds each `W` as the
//! set of its vectors, a bitmask over the `q^K ≤ 64` vectors of `F_q^K`,
//! does its own `GF(4)` and `GF(8)` arithmetic from the irreducible
//! polynomials, and shares no code with `swarm::sim` or `netcoding` — not
//! the driver loop, not the lazy peers, not the bases.
//!
//! Its jumps:
//! * gift class `d` arrives at its rate with `d` uniform vectors of
//!   `F_q^K`, as the label `(span, dim > 0)`;
//! * the fixed seed contacts at `U_s` while the swarm is not empty, and
//!   sends a uniform vector of `F_q^K` to a uniform peer;
//! * the peers of label `A` contact at `µ·x_A`, each to a uniform peer, the
//!   uploader itself included (so every ordered pair of labels fires at
//!   `µ·x_A·x_B/n`), and send a uniform vector of `W_A`;
//! * an upload `v` moves its target from `W` to `W + span(v)`, and is
//!   useless when `v ∈ W`;
//! * full-dimension peers depart at `γ` each, or inside the completing
//!   upload when `γ = ∞`.
//!
//! `Jumps::apply` takes no generator, so the chain owns one for the draws
//! inside a jump: the target peer and the uploaded vectors. Initial
//! populations of uncoded pieces enter as unit spans.
//!
//! For each family (`GF(2)` at `K = 3` and `K = 4`, `GF(4)` at `K = 3` with
//! a `d = 2` gift class, `GF(8)` at `K = 2`, seed-fed swarms, finite `γ`
//! and `γ = ∞`, and unit-span initial populations over `GF(2)` and `GF(4)`)
//! the test runs `REPLICATIONS` replications of each side and requires the
//! replication means of every observable to agree within five combined
//! standard errors: the final population, decoders and total dimension,
//! every bin of the dimension histogram, the five group counts, and the
//! departures, useful transfers, useless contacts and events of the whole
//! run. All seeds are fixed, so the test is deterministic.
//! `the_battery_rejects_a_chain_with_skewed_arrival_rates` shows its teeth.

#![allow(clippy::disallowed_methods, reason = "test code seeds its own StdRng")]

use markov::gillespie::{run, Jumps, StopRule};
use pieceset::PieceSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use swarm::coded::CodedParams;
use swarm::metrics::SimResult;
use swarm::netcoding::GaloisField;
use swarm::sim::{AgentConfig, AgentSwarm, SimScratch};
use swarm::SwarmParams;

const REPLICATIONS: u64 = 64;

/// The observables before the dimension histogram, in sample order.
const OBSERVABLES: [&str; 12] = [
    "final-population",
    "decoders",
    "dimension-sum",
    "gifted",
    "former-one-club",
    "one-club",
    "normal-young",
    "infected",
    "departures",
    "useful-transfers",
    "useless-contacts",
    "events",
];

/// One replication's observables: [`OBSERVABLES`], then the dimension
/// histogram bins `0..=K`.
type Sample = Vec<f64>;

/// `GF(q)` for `q = 2^m`, `m ∈ {1, 2, 3}`: elements are `0..q`, addition
/// is XOR, and a product is the carry-less product reduced by
/// `x² + x + 1` (`q = 4`) or `x³ + x + 1` (`q = 8`).
#[derive(Debug, Clone, Copy)]
struct Field {
    /// `m`, the bits of an element.
    bits: u32,
    /// The irreducible polynomial, leading term included.
    poly: u32,
}

impl Field {
    fn new(q: u32) -> Field {
        let (bits, poly) = match q {
            2 => (1, 0b11),
            4 => (2, 0b111),
            8 => (3, 0b1011),
            _ => panic!("the chain does GF(2), GF(4) and GF(8)"),
        };
        Field { bits, poly }
    }

    fn order(self) -> u32 {
        1 << self.bits
    }

    fn mul(self, a: u32, b: u32) -> u32 {
        let mut product = 0;
        for i in 0..self.bits {
            if b >> i & 1 == 1 {
                product ^= a << i;
            }
        }
        for i in (self.bits..2 * self.bits - 1).rev() {
            if product >> i & 1 == 1 {
                product ^= self.poly << (i - self.bits);
            }
        }
        product
    }
}

/// `F_q^K` with each vector an integer below `q^K`: coordinate `i` is bits
/// `m·i .. m·(i + 1)`, so vector addition is XOR. A subspace is the `u64`
/// mask of its vectors.
#[derive(Debug, Clone, Copy)]
struct Space {
    field: Field,
    k: usize,
}

impl Space {
    fn size(self) -> u32 {
        1 << (self.field.bits as usize * self.k)
    }

    /// The mask of `F_q^K` itself.
    fn full(self) -> u64 {
        if self.size() == 64 {
            u64::MAX
        } else {
            (1u64 << self.size()) - 1
        }
    }

    /// `a · v`.
    fn scale(self, a: u32, v: u32) -> u32 {
        let m = self.field.bits;
        let digit = (1 << m) - 1;
        (0..self.k as u32).fold(0, |out, i| {
            out | self.field.mul(a, v >> (m * i) & digit) << (m * i)
        })
    }

    /// `W + span(v)`.
    fn extend(self, w: u64, v: u32) -> u64 {
        if w >> v & 1 == 1 {
            return w;
        }
        let mut out = w;
        for a in 1..self.field.order() {
            let shift = self.scale(a, v);
            for x in members(w) {
                out |= 1u64 << (x ^ shift);
            }
        }
        out
    }

    fn dimension(self, w: u64) -> usize {
        (w.count_ones().trailing_zeros() / self.field.bits) as usize
    }

    /// The span of the unit vectors of `pieces`.
    fn units(self, pieces: PieceSet) -> u64 {
        pieces.iter().fold(1, |w, piece| {
            self.extend(w, 1 << (self.field.bits as usize * piece.index()))
        })
    }
}

/// The vectors of the subspace mask `w`.
fn members(w: u64) -> impl Iterator<Item = u32> {
    (0..64).filter(move |&x| w >> x & 1 == 1)
}

/// A uniform vector of the subspace mask `w`.
fn uniform_member(w: u64, rng: &mut StdRng) -> u32 {
    let pick = rng.gen_range(0..w.count_ones() as usize);
    members(w).nth(pick).expect("a subspace holds |W| vectors")
}

/// A peer's label: its subspace and whether it arrived with a coded piece.
type Label = (u64, bool);

/// The chain's state.
#[derive(Debug, Clone)]
struct State {
    /// Peers per label.
    counts: BTreeMap<Label, u64>,
    transfers: u64,
    useless: u64,
    departures: u64,
}

impl State {
    fn population(&self) -> u64 {
        self.counts.values().sum()
    }

    fn join(&mut self, label: Label, count: u64) {
        *self.counts.entry(label).or_insert(0) += count;
    }

    fn leave(&mut self, label: Label) {
        let count = self.counts.get_mut(&label).expect("an occupied label");
        *count -= 1;
        if *count == 0 {
            self.counts.remove(&label);
        }
    }

    /// The label of a uniform peer.
    fn uniform_peer(&self, rng: &mut StdRng) -> Label {
        let mut pick = rng.gen_range(0..self.population());
        for (&label, &count) in &self.counts {
            if pick < count {
                return label;
            }
            pick -= count;
        }
        unreachable!("the pick is below the population")
    }
}

/// A jump of the chain.
#[derive(Debug, Clone, Copy)]
enum Jump {
    /// A peer arrives carrying `d` uniform coded pieces.
    Arrival { d: usize },
    /// The fixed seed contacts a uniform peer.
    SeedContact,
    /// A peer of label `uploader` contacts a uniform peer.
    PeerContact { uploader: Label },
    /// A full-dimension peer of label `decoder` departs.
    Departure { decoder: Label },
}

/// The subspace-count chain of one family, with its jumps out of the
/// current state.
struct Chain {
    space: Space,
    gifts: Vec<(usize, f64)>,
    seed_rate: f64,
    contact_rate: f64,
    departure_rate: f64,
    /// The generator of the draws inside a jump.
    rng: StdRng,
    jumps: Vec<(Jump, f64)>,
    /// The label counts `jumps` were listed for, and the sum of their
    /// rates. A useless contact leaves both as they are.
    listed_for: BTreeMap<Label, u64>,
    total: f64,
}

impl Chain {
    /// The chain of `family`, with every gift class's rate ×
    /// `arrival_scale`, drawing inside its jumps from `rng`.
    fn new(family: &Family, arrival_scale: f64, rng: StdRng) -> Chain {
        let base = &family.params.base;
        Chain {
            space: Space {
                field: Field::new(family.params.field.order()),
                k: base.num_pieces(),
            },
            gifts: family
                .params
                .gift_dimensions
                .iter()
                .map(|&(d, rate)| (d, arrival_scale * rate))
                .collect(),
            seed_rate: base.seed_rate(),
            contact_rate: base.contact_rate(),
            departure_rate: base.seed_departure_rate(),
            rng,
            jumps: Vec::new(),
            listed_for: BTreeMap::new(),
            total: -1.0,
        }
    }

    /// The swarm of `family`'s initial peers, as unit spans.
    fn start(&self, family: &Family) -> State {
        let mut state = State {
            counts: BTreeMap::new(),
            transfers: 0,
            useless: 0,
            departures: 0,
        };
        for &pieces in &family.initial {
            let w = self.space.units(pieces);
            state.join((w, self.space.dimension(w) > 0), 1);
        }
        state
    }

    /// Sends `v` to a peer of label `target`.
    fn upload(&self, state: &mut State, target: Label, v: u32) {
        let (w, gifted) = target;
        if w >> v & 1 == 1 {
            state.useless += 1;
            return;
        }
        state.leave(target);
        state.transfers += 1;
        let grown = self.space.extend(w, v);
        if grown == self.space.full() && self.departure_rate.is_infinite() {
            state.departures += 1;
        } else {
            state.join((grown, gifted), 1);
        }
    }
}

impl Jumps for Chain {
    type State = State;

    fn sum_rates(&mut self, state: &State) -> f64 {
        if self.total >= 0.0 && self.listed_for == state.counts {
            return self.total;
        }
        self.listed_for.clone_from(&state.counts);
        self.jumps.clear();
        for &(d, rate) in &self.gifts {
            self.jumps.push((Jump::Arrival { d }, rate));
        }
        if !state.counts.is_empty() {
            self.jumps.push((Jump::SeedContact, self.seed_rate));
        }
        for (&uploader, &count) in &state.counts {
            let rate = self.contact_rate * count as f64;
            self.jumps.push((Jump::PeerContact { uploader }, rate));
            if self.departure_rate.is_finite() && uploader.0 == self.space.full() {
                let rate = self.departure_rate * count as f64;
                self.jumps
                    .push((Jump::Departure { decoder: uploader }, rate));
            }
        }
        self.total = self.jumps.iter().map(|&(_, rate)| rate).sum();
        self.total
    }

    fn rates(&self) -> impl Iterator<Item = f64> {
        self.jumps.iter().map(|&(_, rate)| rate)
    }

    fn apply(&mut self, state: &mut State, index: usize) -> f64 {
        match self.jumps[index].0 {
            Jump::Arrival { d } => {
                let mut w = 1;
                for _ in 0..d {
                    let v = self.rng.gen_range(0..self.space.size());
                    w = self.space.extend(w, v);
                }
                state.join((w, self.space.dimension(w) > 0), 1);
            }
            Jump::SeedContact => {
                let target = state.uniform_peer(&mut self.rng);
                let v = self.rng.gen_range(0..self.space.size());
                self.upload(state, target, v);
            }
            Jump::PeerContact { uploader } => {
                let target = state.uniform_peer(&mut self.rng);
                let v = uniform_member(uploader.0, &mut self.rng);
                self.upload(state, target, v);
            }
            Jump::Departure { decoder } => {
                state.leave(decoder);
                state.departures += 1;
            }
        }
        state.population() as f64
    }
}

/// One replication of the chain to the family's horizon.
fn chain_sample(family: &Family, chain: &mut Chain, rng: &mut StdRng) -> Sample {
    let state = chain.start(family);
    let value = state.population() as f64;
    let path = run(chain, state, value, StopRule::at_time(family.horizon), rng);
    let state = path.final_state;
    let space = chain.space;
    let k = space.k;
    let mut hist = vec![0u64; k + 1];
    // The coded group rule: gifted; otherwise by dimension K, K − 1, 0, or
    // anything between.
    let mut groups = [0u64; 5];
    for (&(w, gifted), &count) in &state.counts {
        let dim = space.dimension(w);
        hist[dim] += count;
        let group = if gifted {
            0
        } else if dim == k {
            1
        } else if dim == k - 1 {
            2
        } else if dim == 0 {
            3
        } else {
            4
        };
        groups[group] += count;
    }
    let dimension_sum: u64 = hist.iter().enumerate().map(|(d, &n)| d as u64 * n).sum();
    let mut sample: Sample = [state.population(), hist[k], dimension_sum]
        .into_iter()
        .chain(groups)
        .chain([
            state.departures,
            state.transfers,
            state.useless,
            path.events,
        ])
        .map(|x| x as f64)
        .collect();
    sample.extend(hist.iter().map(|&n| n as f64));
    sample
}

fn kernel_sample(result: &SimResult) -> Sample {
    let last = result.final_snapshot();
    let g = &last.groups;
    let mut sample: Sample = [
        last.total_peers,
        last.peer_seeds,
        last.watch_piece_copies,
        g.gifted,
        g.former_one_club,
        g.one_club,
        g.normal_young,
        g.infected,
        result.sojourns.departures,
        result.transfers,
        result.unsuccessful_contacts,
        result.events,
    ]
    .map(|x| x as f64)
    .to_vec();
    sample.extend(result.final_dimensions.iter().map(|&n| n as f64));
    sample
}

struct Family {
    name: &'static str,
    params: CodedParams,
    initial: Vec<PieceSet>,
    horizon: f64,
}

/// The seed of replication `replication` of the `i`-th family; the chain
/// runs on other streams than the kernel.
fn seed(i: usize, replication: u64, chain: bool) -> u64 {
    let base = 0xC0DE_0000 + (i as u64) * 0x0101;
    (base ^ (replication * 0x9E37_79B9)) + if chain { 0xC4A1_0000_0000 } else { 0 }
}

fn kernel_ensemble(i: usize, family: &Family) -> Vec<Sample> {
    let config = AgentConfig {
        snapshot_interval: family.horizon,
        ..AgentConfig::default()
    };
    let sim = AgentSwarm::with_coded(family.params.clone(), config).expect("valid family");
    let mut scratch = SimScratch::new();
    (0..REPLICATIONS)
        .map(|replication| {
            let mut rng = StdRng::seed_from_u64(seed(i, replication, false));
            let result = sim
                .run_with_scratch(&family.initial, &[], family.horizon, &mut rng, &mut scratch)
                .expect("valid family");
            assert!(!result.truncated, "budget must cover the horizon");
            let sample = kernel_sample(&result);
            scratch.recycle(result);
            sample
        })
        .collect()
}

fn chain_ensemble(i: usize, family: &Family, arrival_scale: f64) -> Vec<Sample> {
    let inner = StdRng::seed_from_u64(seed(i, REPLICATIONS, true));
    let mut chain = Chain::new(family, arrival_scale, inner);
    (0..REPLICATIONS)
        .map(|replication| {
            let mut rng = StdRng::seed_from_u64(seed(i, replication, true));
            chain_sample(family, &mut chain, &mut rng)
        })
        .collect()
}

/// Mean and standard error of entry `index` over `samples`.
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
fn incompatible(chain: &[Sample], kernel: &[Sample]) -> Vec<String> {
    (0..chain[0].len())
        .filter_map(|index| {
            let (ma, sa) = moments(chain, index);
            let (mb, sb) = moments(kernel, index);
            let se = (sa * sa + sb * sb).sqrt();
            ((mb - ma).abs() > 5.0 * se).then(|| {
                let name = OBSERVABLES.get(index).map_or_else(
                    || format!("dimension-histogram[{}]", index - OBSERVABLES.len()),
                    |name| (*name).to_owned(),
                );
                format!(
                    "{name}: chain {ma:.3} ± {sa:.3} vs kernel {mb:.3} ± {sb:.3} (z = {:.2})",
                    (mb - ma) / se
                )
            })
        })
        .collect()
}

/// `count` peers holding the unit spans of `patterns`, in turn.
fn unit_spans(patterns: &[u64], count: usize) -> Vec<PieceSet> {
    (0..count)
        .map(|i| PieceSet::from_bits(patterns[i % patterns.len()]))
        .collect()
}

fn families() -> Vec<Family> {
    let gift = |k, q, lambda, f, us, gamma| {
        CodedParams::gift_example(k, q, lambda, f, us, 1.0, gamma).expect("valid family")
    };
    vec![
        // Gifted arrivals over GF(2) near the K = 4 recurrence threshold,
        // no seed, immediate departure.
        Family {
            name: "gf2-k4-gifts",
            params: gift(4, 2, 1.0, 0.9, 0.0, f64::INFINITY),
            initial: Vec::new(),
            horizon: 200.0,
        },
        // No gifts: every dimension enters through the fixed seed, and
        // decoders dwell at finite γ.
        Family {
            name: "gf2-k3-seed-fed",
            params: gift(3, 2, 0.8, 0.0, 0.6, 2.0),
            initial: Vec::new(),
            horizon: 120.0,
        },
        // Half the arrivals carry two independent random coded pieces
        // over GF(4).
        Family {
            name: "gf4-k3-double-gifts",
            params: CodedParams {
                base: SwarmParams::builder(3)
                    .contact_rate(1.0)
                    .fresh_arrivals(1.0)
                    .seed_departure_rate(3.0)
                    .build()
                    .expect("valid family"),
                field: GaloisField::new(4).expect("a field"),
                gift_dimensions: vec![(0, 0.5), (2, 0.5)],
            },
            initial: Vec::new(),
            horizon: 200.0,
        },
        // GF(8): a seed-fed swarm with some gifts and immediate departure.
        Family {
            name: "gf8-k2-seed-fed",
            params: gift(2, 8, 1.0, 0.3, 0.8, f64::INFINITY),
            initial: Vec::new(),
            horizon: 100.0,
        },
        // Unit-span initial peers of dimensions 0 to 3 over GF(2).
        Family {
            name: "gf2-k4-unit-initial",
            params: gift(4, 2, 0.6, 0.3, 0.4, 2.5),
            initial: unit_spans(&[0b0, 0b1, 0b11, 0b1011, 0b110, 0b1010], 30),
            horizon: 80.0,
        },
        // A large unit-span start over GF(4), read while it still
        // dominates: uploads from pure-unit peers and the unit-mask
        // usefulness check over a field with more than one non-zero
        // coefficient.
        Family {
            name: "gf4-k3-unit-initial",
            params: gift(3, 4, 0.6, 0.3, 0.4, 2.0),
            initial: unit_spans(&[0b0, 0b1, 0b11, 0b110, 0b101, 0b10], 120),
            horizon: 10.0,
        },
    ]
}

#[test]
fn the_coded_kernel_matches_the_subspace_count_chain() {
    for (i, family) in families().iter().enumerate() {
        let chain = chain_ensemble(i, family, 1.0);
        let kernel = kernel_ensemble(i, family);
        let failing = incompatible(&chain, &kernel);
        assert!(failing.is_empty(), "{}: {failing:?}", family.name);
    }
}

#[test]
fn the_battery_rejects_a_chain_with_skewed_arrival_rates() {
    // The GF(4) double-gift family's chain with its arrival rates × 1.1, on
    // the battery's own seeds: at least one observable must fall outside
    // the tolerance, or the battery has no teeth.
    let family = &families()[2];
    let chain = chain_ensemble(2, family, 1.1);
    let kernel = kernel_ensemble(2, family);
    assert!(
        !incompatible(&chain, &kernel).is_empty(),
        "a 10% arrival-rate skew passed the battery"
    );
}

#[test]
fn coded_kernel_holds_its_structural_checks_on_gf4_and_gf8_scenarios() {
    // Every replication of every family over GF(4) and GF(8) keeps the
    // group and histogram partitions on every snapshot.
    for family in families().iter().filter(|f| f.params.field.order() > 2) {
        let config = AgentConfig {
            snapshot_interval: 5.0,
            ..AgentConfig::default()
        };
        let sim = AgentSwarm::with_coded(family.params.clone(), config).expect("valid family");
        for replication in 0..8 {
            let mut rng = StdRng::seed_from_u64(0x5EED ^ replication);
            let result = sim
                .run_with_schedule(&family.initial, &[], family.horizon, &mut rng)
                .expect("valid family");
            for snap in &result.snapshots {
                assert_eq!(snap.groups.total(), snap.total_peers, "groups partition");
            }
            let population: u64 = result.final_dimensions.iter().sum();
            assert_eq!(population, result.final_snapshot().total_peers);
        }
    }
}

#[test]
fn coded_kernel_truncation_matches_event_loop_contract() {
    // The shared driver's max_events valve applies to the coded kernel like
    // any other: the run stops early and says so.
    let params = CodedParams::gift_example(3, 8, 2.0, 0.5, 0.5, 1.0, 2.0).unwrap();
    let sim = AgentSwarm::with_coded(
        params,
        AgentConfig {
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
