//! The legacy scan kernel: array-of-structs peers, snapshot-time population
//! scans, and `O(n)` fallback when sampling a departing seed.
//!
//! Kept verbatim (modulo the shared driver) as the turbo kernel's
//! reference. Its handlers use the plainest sampler for every event, so
//! each one can be checked against the model by eye, and their draw order
//! is fixed: the distributional differential test compares turbo against
//! this kernel's replication ensembles, and the engine's golden master pins
//! its trajectories across commits.

use super::{AgentSwarm, KernelState};
use crate::groups::{classify_peer, GroupCounts};
use crate::metrics::{SimResult, SimSnapshot, SojournStats};
use markov::poisson::CumulativeWeights;
use pieceset::PieceSet;
use rand::Rng;
use telemetry::{Counter, Recorder};

/// One peer in the scan kernel.
#[derive(Debug, Clone)]
struct Peer {
    pieces: PieceSet,
    arrival_time: f64,
    arrived_with_watch: bool,
    was_one_club: bool,
    boosted: bool,
}

/// Mutable state of the scan kernel.
pub(super) struct State<'a, T: Recorder> {
    sim: &'a AgentSwarm,
    /// Instrumentation hook. Recorders consume no draws, so a metered run
    /// walks the same trajectory as an unmetered one.
    rec: &'a mut T,
    peers: Vec<Peer>,
    piece_copies: Vec<u64>,
    boosted_count: usize,
    /// Number of peers currently holding the complete collection, maintained
    /// incrementally so per-event rate computation stays O(1).
    seeds: usize,
    seed_boosted: bool,
    watch_downloads: u64,
    arrivals_without_watch: u64,
    transfers: u64,
    unsuccessful: u64,
    sojourns: SojournStats,
    snapshots: Vec<SimSnapshot>,
    arrival_types: Vec<(PieceSet, f64)>,
}

impl<'a, T: Recorder> State<'a, T> {
    pub(super) fn new(
        sim: &'a AgentSwarm,
        initial: &[PieceSet],
        snapshots: Vec<SimSnapshot>,
        rec: &'a mut T,
    ) -> Self {
        debug_assert!(snapshots.is_empty(), "recycled buffer arrives cleared");
        let k = sim.params.num_pieces();
        let watch = sim.config.watch_piece;
        let full = sim.params.full_type();
        let club = full.without(watch);
        let mut piece_copies = vec![0u64; k];
        let peers: Vec<Peer> = initial
            .iter()
            .map(|&pieces| {
                debug_assert!(pieces.is_subset_of(full));
                for p in pieces.iter() {
                    piece_copies[p.index()] += 1;
                }
                Peer {
                    pieces,
                    arrival_time: 0.0,
                    arrived_with_watch: pieces.contains(watch),
                    was_one_club: pieces == club,
                    boosted: false,
                }
            })
            .collect();
        let arrival_types: Vec<(PieceSet, f64)> = sim.params.arrivals().collect();
        let seeds = peers.iter().filter(|p| p.pieces == full).count();
        State {
            sim,
            rec,
            peers,
            piece_copies,
            boosted_count: 0,
            seeds,
            seed_boosted: false,
            watch_downloads: 0,
            arrivals_without_watch: 0,
            transfers: 0,
            unsuccessful: 0,
            sojourns: SojournStats::default(),
            snapshots,
            arrival_types,
        }
    }

    fn full(&self) -> PieceSet {
        self.sim.params.full_type()
    }

    fn add_peer(&mut self, time: f64, pieces: PieceSet, count_arrival: bool) {
        let watch = self.sim.config.watch_piece;
        if count_arrival && !pieces.contains(watch) {
            self.arrivals_without_watch += 1;
        }
        for p in pieces.iter() {
            self.piece_copies[p.index()] += 1;
        }
        let club = self.full().without(watch);
        if pieces == self.full() {
            self.seeds += 1;
        }
        self.peers.push(Peer {
            pieces,
            arrival_time: time,
            arrived_with_watch: pieces.contains(watch),
            was_one_club: pieces == club,
            boosted: false,
        });
    }

    /// Delivers `piece` to peer `target`, updating counters, the one-club
    /// history flag, and handling immediate departure when `γ = ∞`.
    fn give_piece(&mut self, target: usize, piece: pieceset::PieceId, time: f64) {
        let watch = self.sim.config.watch_piece;
        let full = self.full();
        let club = full.without(watch);
        debug_assert!(!self.peers[target].pieces.contains(piece));
        self.peers[target].pieces.insert(piece);
        self.piece_copies[piece.index()] += 1;
        self.transfers += 1;
        self.rec.incr(Counter::UsefulTransfers);
        if piece == watch {
            self.watch_downloads += 1;
        }
        // Receiving a piece changes what the peer can offer, so any pending
        // fast-retry boost (Section VIII-C) no longer reflects a failed
        // attempt with the current collection.
        if self.peers[target].boosted {
            self.peers[target].boosted = false;
            self.boosted_count -= 1;
        }
        if self.peers[target].pieces == club {
            self.peers[target].was_one_club = true;
        }
        if self.peers[target].pieces == full {
            self.seeds += 1;
            if self.sim.params.departs_immediately() {
                self.depart(target, time);
            }
        }
    }

    fn depart(&mut self, index: usize, time: f64) {
        self.rec.incr(Counter::Departures);
        let peer = self.peers.swap_remove(index);
        if peer.pieces == self.full() {
            self.seeds -= 1;
        }
        if peer.boosted {
            self.boosted_count -= 1;
        }
        for p in peer.pieces.iter() {
            self.piece_copies[p.index()] -= 1;
        }
        self.sojourns.record(time - peer.arrival_time);
    }
}

impl<T: Recorder> KernelState for State<'_, T> {
    fn reserve_snapshots(&mut self, capacity: usize) {
        self.snapshots.reserve(capacity);
    }

    fn population(&self) -> usize {
        self.peers.len()
    }

    fn seed_count(&self) -> usize {
        self.seeds
    }

    fn boosted_count(&self) -> usize {
        self.boosted_count
    }

    fn seed_boosted(&self) -> bool {
        self.seed_boosted
    }

    fn record_snapshot(&mut self, time: f64) {
        let watch = self.sim.config.watch_piece;
        let k = self.sim.params.num_pieces();
        let full = self.full();
        // The scan: the group decomposition is recomputed from scratch by
        // classifying every peer (the turbo kernel maintains it instead).
        let mut groups = GroupCounts::default();
        let mut seeds = 0u64;
        for p in &self.peers {
            groups.add(classify_peer(
                p.pieces,
                p.arrived_with_watch,
                p.was_one_club,
                watch,
                k,
            ));
            if p.pieces == full {
                seeds += 1;
            }
        }
        self.snapshots.push(SimSnapshot {
            time,
            total_peers: self.peers.len() as u64,
            peer_seeds: seeds,
            groups,
            watch_piece_downloads: self.watch_downloads,
            arrivals_without_watch: self.arrivals_without_watch,
            watch_piece_copies: self.piece_copies[watch.index()],
        });
    }

    fn handle_arrival<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Arrivals);
        // Rebuilt every arrival — one of the scan kernel's allocations the
        // turbo kernel avoids with its cached alias table. One uniform draw
        // resolved against the prefix sums picks the arriving type.
        let weights: Vec<f64> = self.arrival_types.iter().map(|(_, r)| *r).collect();
        #[expect(
            clippy::expect_used,
            reason = "SwarmParams validation guarantees lambda_total > 0"
        )]
        let sampler = CumulativeWeights::new(&weights).expect("λ_total > 0");
        self.rec.incr(Counter::AliasRebuilds);
        let idx = sampler.sample(rng);
        let pieces = self.arrival_types[idx].0;
        self.add_peer(time, pieces, true);
    }

    fn handle_seed_tick<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Contacts);
        if self.peers.is_empty() {
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let target = rng.gen_range(0..self.peers.len());
        let useful = self.full().difference(self.peers[target].pieces);
        if useful.is_empty() {
            self.unsuccessful += 1;
            self.rec.incr(Counter::UselessContacts);
            self.seed_boosted = self.sim.config.retry_speedup > 1.0;
            return;
        }
        self.seed_boosted = false;
        let piece = self.sim.policy.select(useful, &self.piece_copies, rng);
        self.give_piece(target, piece, time);
    }

    fn handle_peer_tick<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Contacts);
        let n = self.peers.len();
        if n == 0 {
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let eta = self.sim.config.retry_speedup;
        // Rejection-sample the uploader proportionally to its clock rate.
        let uploader = loop {
            let i = rng.gen_range(0..n);
            if eta <= 1.0 || self.peers[i].boosted || rng.gen::<f64>() < 1.0 / eta {
                break i;
            }
            self.rec.incr(Counter::RejectionRetries);
        };
        let target = rng.gen_range(0..n);
        let useful = self.peers[uploader]
            .pieces
            .difference(self.peers[target].pieces);
        if useful.is_empty() {
            self.unsuccessful += 1;
            self.rec.incr(Counter::UselessContacts);
            if eta > 1.0 && !self.peers[uploader].boosted {
                self.peers[uploader].boosted = true;
                self.boosted_count += 1;
            }
            return;
        }
        if self.peers[uploader].boosted {
            self.peers[uploader].boosted = false;
            self.boosted_count -= 1;
        }
        let piece = self.sim.policy.select(useful, &self.piece_copies, rng);
        self.give_piece(target, piece, time);
    }

    fn handle_seed_departure<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::DepartureEvents);
        let full = self.full();
        let n = self.peers.len();
        // Zero seeds → zero departure rate: unreachable from the driver, but
        // early-return instead of probing 64 times for a seed that cannot
        // exist.
        if n == 0 || self.seeds == 0 {
            return;
        }
        // Try a few uniform samples, then fall back to a scan; the departing
        // peer must be chosen uniformly among the peer seeds.
        for _ in 0..64 {
            let i = rng.gen_range(0..n);
            if self.peers[i].pieces == full {
                self.depart(i, time);
                return;
            }
            self.rec.incr(Counter::RejectionRetries);
        }
        let seeds: Vec<usize> = (0..n).filter(|&i| self.peers[i].pieces == full).collect();
        if let Some(&i) = seeds.get(
            rng.gen_range(0..seeds.len().max(1))
                .min(seeds.len().saturating_sub(1)),
        ) {
            self.depart(i, time);
        }
    }

    fn inject(&mut self, time: f64, pieces: PieceSet, count: usize) {
        for _ in 0..count {
            self.add_peer(time, pieces, true);
        }
    }

    fn finish(self, events: u64, truncated: bool, horizon: f64) -> SimResult {
        SimResult {
            snapshots: self.snapshots,
            sojourns: self.sojourns,
            transfers: self.transfers,
            unsuccessful_contacts: self.unsuccessful,
            events,
            horizon,
            truncated,
            final_dimensions: Vec::new(),
        }
    }
}
