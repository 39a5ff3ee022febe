//! The turbo kernel, the default: `O(1)` event sampling without rejection
//! loops, and zero-allocation replication.
//!
//! The legacy scan kernel, turbo's reference, keeps the simplest sampler
//! for each event: a rejection probe that picks the uploader in proportion
//! to its clock rate, 64 uniform probes and then an `O(n)` scan for a
//! departing seed, an arrival sampler rebuilt per arrival, a population
//! scan per snapshot, and a fresh peer table per replication. This kernel
//! draws every outcome from the same distribution but removes each of those
//! steps from the hot path, so it consumes different draws and agrees with
//! the scan kernel statistically rather than byte for byte:
//!
//! * **Arrivals** draw the arriving type from a Walker/Vose
//!   [`AliasTable`](markov::alias::AliasTable): `O(1)` per arrival
//!   regardless of the number of arrival classes.
//! * **Uploader selection** keeps the boosted-retry peers in a swap-remove
//!   index pool. One weighted coin picks boosted vs. normal; a boosted
//!   uploader is a single uniform pool pick, a normal one is drawn by
//!   complement rejection with `O(1)` *expected* tries (the coin fires the
//!   normal branch with probability proportional to the normal count, so
//!   the expected work is constant by construction). The scan kernel's
//!   rejection probe costs `Θ(η)` draws when the boosted fraction is
//!   small.
//! * **Seed departures** pick uniformly from a seed index pool: one draw,
//!   `O(1)`, replacing the scan kernel's probes and population scan.
//! * **Each peer lives in one packed [`PeerMeta`] record** (piece set,
//!   arrival time, pool positions, cached piece count, flags, Fig.-2 group —
//!   32 bytes, aligned to 32), so touching a peer costs one cache line and a
//!   contact reads two. The cached count makes completion checks `O(1)`
//!   without a popcount.
//! * **The Fig.-2 groups follow every transition**: each peer's group is
//!   cached and the aggregate counts move on every arrival, transfer, and
//!   departure, so a snapshot is `O(1)` where the scan kernel reclassifies
//!   every peer.
//! * **Replication batches reuse a [`SimScratch`] arena**: the peer
//!   records, sampling pools, and snapshot buffer all persist across runs,
//!   so a warm replication loop performs no per-replication allocation.
//! * **Useless contacts cost no clock tick.** Each event is decided before
//!   it is applied: `decide` makes every draw (alias pick, uploader,
//!   target, piece) and returns a [`Change`], or `None` for a self-loop —
//!   a useless contact whose uploader is already boosted or runs at
//!   `η = 1`, or a useless seed tick that leaves the seed's boost flag as
//!   it is — and `apply` makes the change without drawing. The shared
//!   driver keeps drawing candidates until one changes the state and
//!   advances the clock once for all of them (one `Gamma` draw for the
//!   self-loops' holding times), so a self-loop costs three draws (event
//!   type, uploader, target) and a counter bump. In the missing-piece
//!   regime nearly every contact is one: 93.5% in replication-batch's
//!   `flash-crowd` scenario.
//!
//! Because the draw *sequence* differs from the scan kernel's, validation
//! is distributional rather than byte-wise:
//! `crates/core/tests/turbo_distributional.rs` pins the turbo kernel's
//! replication ensembles, useless-contact and transfer counts included,
//! against the scan kernel's, which ticks the clock once per event, and
//! `crates/core/tests/self_loop_oracle.rs` holds its useless-contact
//! counts to closed forms.

use super::{AgentSwarm, Event, KernelState};
use crate::groups::{GroupCounts, PeerGroup};
use crate::metrics::{SimResult, SimSnapshot, SojournStats};
use markov::alias::AliasTable;
use pieceset::{PieceId, PieceSet};
use rand::Rng;
use telemetry::{Counter, Recorder};

/// Sentinel for "this peer is not in the seed pool".
const NOT_A_SEED: u32 = u32::MAX;

/// Sentinel for "this peer is not in the boosted pool".
const NOT_BOOSTED: u32 = u32::MAX;

/// Flag bits of [`PeerMeta::flags`].
const ARRIVED_WITH_WATCH: u8 = 1 << 0;
const WAS_ONE_CLUB: u8 = 1 << 1;
const HAS_WATCH: u8 = 1 << 2;

/// All per-peer state of the turbo kernel in one 32-byte record, aligned so
/// that it never straddles a cache line: the hot handlers touch a single
/// line per peer instead of one line per parallel array.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct PeerMeta {
    /// The pieces the peer holds.
    pieces: PieceSet,
    arrival_time: f64,
    /// Position inside `boosted_pool`, or [`NOT_BOOSTED`].
    boosted_pos: u32,
    /// Position inside `seed_pool`, or [`NOT_A_SEED`].
    seed_pos: u32,
    /// Cached piece count (`O(1)` completion checks at any `K`).
    holds: u32,
    /// [`ARRIVED_WITH_WATCH`] | [`WAS_ONE_CLUB`] | [`HAS_WATCH`].
    flags: u8,
    /// Cached Fig.-2 group; [`GroupCounts`] follows its transitions.
    group: PeerGroup,
}

impl PeerMeta {
    #[inline]
    fn has(self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// An outcome the turbo kernel decided, waiting to be applied (see
/// [`KernelState::decide`]); peers are named by their index.
pub(super) enum Change {
    /// A Poisson arrival of this type.
    Arrival(PieceSet),
    /// A contact clock that fires with nobody to contact. The driver gives
    /// an empty swarm no contact rate, but a shard of the sharded driver
    /// may empty while its share of the seed clock stays frozen.
    NoTarget,
    /// A useless seed tick that boosts the seed's retry clock.
    SeedBoost,
    /// The fixed seed uploads `piece` to `target`.
    SeedUpload { target: u32, piece: PieceId },
    /// A useless contact that boosts the normal `uploader`'s retry clock.
    PeerBoost { uploader: u32 },
    /// `uploader` uploads `piece` to `target`.
    PeerUpload {
        uploader: u32,
        target: u32,
        piece: PieceId,
    },
    /// The peer seed at this index departs.
    Departure(u32),
    /// A departure clock that fires with no peer seed to depart;
    /// unreachable while the departure rate follows the live seed count.
    NoSeed,
}

/// Reusable buffers for the turbo kernel: one arena per worker, reused
/// across replications.
///
/// A fresh scratch is just empty buffers — the first run grows them to the
/// workload's high-water mark, and every later run on the same scratch
/// reuses that capacity instead of reallocating the peer table, pools, and
/// snapshot vector per replication. Feed finished results back through
/// [`SimScratch::recycle`] to also reclaim the snapshot buffer the result
/// carried out.
///
/// A scratch never influences the numbers: for a fixed RNG stream,
/// [`AgentSwarm::run_with_scratch`](super::AgentSwarm::run_with_scratch)
/// returns the same result on a warm scratch as on a fresh one.
#[derive(Debug)]
pub struct SimScratch {
    /// One record per peer; a peer's index is its place here.
    meta: Vec<PeerMeta>,
    /// Peers with a boosted retry clock (swap-remove index pool). The
    /// (typically dominant) normal class needs no pool: it is sampled by
    /// complement rejection.
    boosted_pool: Vec<u32>,
    /// Peers holding the complete collection (swap-remove index pool).
    seed_pool: Vec<u32>,
    piece_copies: Vec<u64>,
    pub(super) snapshots: Vec<SimSnapshot>,
    arrival_types: Vec<PieceSet>,
    arrival_weights: Vec<f64>,
    arrival_alias: AliasTable,
    /// The coded turbo kernel's arena (peer table, basis slots, pools);
    /// untouched by the uncoded kernels. See [`super::coded_turbo`].
    pub(super) coded: super::coded_turbo::CodedScratch,
}

impl Default for SimScratch {
    fn default() -> Self {
        SimScratch::new()
    }
}

impl SimScratch {
    /// Creates an empty scratch arena.
    #[must_use]
    pub fn new() -> Self {
        SimScratch {
            meta: Vec::new(),
            boosted_pool: Vec::new(),
            seed_pool: Vec::new(),
            piece_copies: Vec::new(),
            snapshots: Vec::new(),
            arrival_types: Vec::new(),
            arrival_weights: Vec::new(),
            arrival_alias: AliasTable::default(),
            coded: super::coded_turbo::CodedScratch::default(),
        }
    }

    /// Returns a finished [`SimResult`]'s snapshot buffer to the arena so
    /// the next run reuses its capacity. Call this once the result has been
    /// reduced to whatever statistics outlive the replication.
    pub fn recycle(&mut self, result: SimResult) {
        let mut snapshots = result.snapshots;
        snapshots.clear();
        // Keep the larger of the two buffers (the arena may already hold a
        // bigger one from an earlier recycle).
        if snapshots.capacity() > self.snapshots.capacity() {
            self.snapshots = snapshots;
        }
    }

    /// Hands the (cleared) snapshot buffer to a non-turbo kernel, which
    /// owns its peer state but can still reuse the recycled snapshot
    /// capacity.
    pub(super) fn take_snapshots(&mut self) -> Vec<SimSnapshot> {
        let mut snapshots = std::mem::take(&mut self.snapshots);
        snapshots.clear();
        snapshots
    }

    /// Clears every buffer (keeping capacity) and reconfigures for a run of
    /// `sim`.
    fn reset_for(&mut self, sim: &AgentSwarm) {
        let k = sim.params.num_pieces();
        self.meta.clear();
        self.boosted_pool.clear();
        self.seed_pool.clear();
        self.piece_copies.clear();
        self.piece_copies.resize(k, 0);
        self.snapshots.clear();
        self.arrival_types.clear();
        self.arrival_weights.clear();
        for (pieces, rate) in sim.params.arrivals() {
            self.arrival_types.push(pieces);
            self.arrival_weights.push(rate);
        }
        assert!(
            self.arrival_alias.rebuild(&self.arrival_weights),
            "λ_total > 0 by construction"
        );
    }
}

/// Mutable state of the turbo kernel: borrowed scratch buffers plus the
/// run-local aggregates.
pub(super) struct State<'a, T: Recorder> {
    sim: &'a AgentSwarm,
    k: usize,
    /// The complete collection `{1, …, K}`.
    full: PieceSet,
    watch: PieceId,
    s: &'a mut SimScratch,
    /// Instrumentation hook; the [`telemetry::NullRecorder`] default
    /// monomorphizes every call site below to nothing, keeping the
    /// disabled hot path branch-free.
    rec: &'a mut T,
    /// `false` when the policy never reads copy counts: the per-piece
    /// census loops (one increment per held piece on every arrival and
    /// departure) are skipped and only the watch-piece count is maintained.
    track_copies: bool,
    /// Copies of the watch piece when `track_copies` is off.
    watch_copies: u64,
    /// `true` when the policy declares [`selects_uniformly`]
    /// (`swarm::policy::PiecePolicy::selects_uniformly`): piece selection
    /// inlines the uniform rank pick instead of going through the `dyn`
    /// policy object.
    fast_uniform: bool,
    seed_boosted: bool,
    groups: GroupCounts,
    watch_downloads: u64,
    arrivals_without_watch: u64,
    transfers: u64,
    unsuccessful: u64,
    sojourns: SojournStats,
}

impl<'a, T: Recorder> State<'a, T> {
    pub(super) fn new(
        sim: &'a AgentSwarm,
        initial: &[PieceSet],
        scratch: &'a mut SimScratch,
        rec: &'a mut T,
    ) -> Self {
        scratch.reset_for(sim);
        rec.incr(Counter::AliasRebuilds);
        let mut state = State {
            sim,
            k: sim.params.num_pieces(),
            full: sim.params.full_type(),
            watch: sim.config.watch_piece,
            s: scratch,
            rec,
            track_copies: sim.policy.uses_copy_counts(),
            watch_copies: 0,
            fast_uniform: sim.policy.selects_uniformly(),
            seed_boosted: false,
            groups: GroupCounts::default(),
            watch_downloads: 0,
            arrivals_without_watch: 0,
            transfers: 0,
            unsuccessful: 0,
            sojourns: SojournStats::default(),
        };
        state.s.meta.reserve(initial.len());
        for &pieces in initial {
            debug_assert!(pieces.is_subset_of(sim.params.full_type()));
            state.add_peer(0.0, pieces, false);
        }
        state
    }

    /// Classifies a peer from its metadata alone (identical rules to
    /// [`crate::groups::classify_peer`], with the watch-piece membership
    /// cached in [`HAS_WATCH`] so no set lookup is needed).
    fn classify(&self, meta: PeerMeta) -> PeerGroup {
        if meta.has(HAS_WATCH) {
            if meta.has(ARRIVED_WITH_WATCH) {
                PeerGroup::Gifted
            } else if meta.has(WAS_ONE_CLUB) {
                PeerGroup::FormerOneClub
            } else {
                PeerGroup::Infected
            }
        } else if meta.holds as usize == self.k - 1 {
            PeerGroup::OneClub
        } else {
            PeerGroup::NormalYoung
        }
    }

    /// Chooses the transferred piece: the inlined uniform pick when the
    /// policy declares itself uniform (identical distribution and draw
    /// count to the policy object), the `dyn` policy otherwise.
    #[inline]
    fn select_piece<R: Rng>(&self, useful: PieceSet, rng: &mut R) -> PieceId {
        if self.fast_uniform {
            let rank = rng.gen_range(0..useful.len());
            let mut bits = useful.bits();
            for _ in 0..rank {
                bits &= bits - 1;
            }
            PieceId::new(bits.trailing_zeros() as usize)
        } else {
            self.sim.policy.select(useful, &self.s.piece_copies, rng)
        }
    }

    fn add_peer(&mut self, time: f64, pieces: PieceSet, count_arrival: bool) {
        let with_watch = pieces.contains(self.watch);
        if count_arrival && !with_watch {
            self.arrivals_without_watch += 1;
        }
        if self.track_copies {
            for p in pieces.iter() {
                self.s.piece_copies[p.index()] += 1;
            }
        } else if with_watch {
            self.watch_copies += 1;
        }
        let index = self.s.meta.len();
        debug_assert!(index < NOT_A_SEED as usize, "population exceeds u32 range");
        let holds = pieces.len() as u32;
        let mut flags = 0u8;
        if with_watch {
            flags |= ARRIVED_WITH_WATCH | HAS_WATCH;
        } else if holds as usize == self.k - 1 {
            flags |= WAS_ONE_CLUB;
        }
        let mut meta = PeerMeta {
            pieces,
            arrival_time: time,
            boosted_pos: NOT_BOOSTED,
            seed_pos: NOT_A_SEED,
            holds,
            flags,
            group: PeerGroup::NormalYoung,
        };
        if holds as usize == self.k {
            meta.seed_pos = self.s.seed_pool.len() as u32;
            self.s.seed_pool.push(index as u32);
            self.rec.incr(Counter::PoolOps);
        }
        meta.group = self.classify(meta);
        self.groups.add(meta.group);
        self.s.meta.push(meta);
    }

    /// Moves `peer` into the boosted uploader pool (no-op when already
    /// boosted).
    fn boost(&mut self, peer: usize) {
        let meta = &mut self.s.meta[peer];
        if meta.boosted_pos != NOT_BOOSTED {
            return;
        }
        meta.boosted_pos = self.s.boosted_pool.len() as u32;
        self.s.boosted_pool.push(peer as u32);
        self.rec.incr(Counter::PoolOps);
    }

    /// Returns `peer` to the normal class (no-op when not boosted).
    fn unboost(&mut self, peer: usize) {
        let pos = self.s.meta[peer].boosted_pos;
        if pos == NOT_BOOSTED {
            return;
        }
        self.s.meta[peer].boosted_pos = NOT_BOOSTED;
        let pos = pos as usize;
        self.s.boosted_pool.swap_remove(pos);
        self.rec.incr(Counter::PoolOps);
        if let Some(&moved) = self.s.boosted_pool.get(pos) {
            self.s.meta[moved as usize].boosted_pos = pos as u32;
        }
    }

    /// Delivers `piece` to peer `target`: counters, the Fig.-2 group
    /// transition, pool membership, and completion.
    fn give_piece(&mut self, target: usize, piece: PieceId, time: f64) {
        if self.track_copies {
            self.s.piece_copies[piece.index()] += 1;
        } else if piece == self.watch {
            self.watch_copies += 1;
        }
        self.transfers += 1;
        self.rec.incr(Counter::UsefulTransfers);
        // Receiving a piece invalidates any pending fast-retry boost.
        self.unboost(target);
        let meta = &mut self.s.meta[target];
        debug_assert!(!meta.pieces.contains(piece));
        meta.pieces.insert(piece);
        let old_group = meta.group;
        meta.holds += 1;
        if piece == self.watch {
            self.watch_downloads += 1;
            meta.flags |= HAS_WATCH;
        }
        if meta.holds as usize == self.k - 1 && !meta.has(HAS_WATCH) {
            meta.flags |= WAS_ONE_CLUB;
        }
        let completed = meta.holds as usize == self.k;
        if completed {
            meta.seed_pos = self.s.seed_pool.len() as u32;
        }
        let meta = *meta;
        let new_group = self.classify(meta);
        self.groups.transition(old_group, new_group);
        self.s.meta[target].group = new_group;
        if completed {
            self.s.seed_pool.push(target as u32);
            self.rec.incr(Counter::PoolOps);
            if self.sim.params.departs_immediately() {
                self.depart(target, time);
            }
        }
    }

    fn depart(&mut self, index: usize, time: f64) {
        let last = self.s.meta.len() - 1;
        let meta = self.s.meta[index];
        self.rec.incr(Counter::Departures);
        // Drop the departing peer from its pools first, while pool entries
        // still name unmoved peer indices.
        if meta.boosted_pos != NOT_BOOSTED {
            let pos = meta.boosted_pos as usize;
            self.s.boosted_pool.swap_remove(pos);
            self.rec.incr(Counter::PoolOps);
            if let Some(&moved) = self.s.boosted_pool.get(pos) {
                self.s.meta[moved as usize].boosted_pos = pos as u32;
            }
        }
        if meta.seed_pos != NOT_A_SEED {
            let pos = meta.seed_pos as usize;
            self.s.seed_pool.swap_remove(pos);
            self.rec.incr(Counter::PoolOps);
            if let Some(&moved) = self.s.seed_pool.get(pos) {
                self.s.meta[moved as usize].seed_pos = pos as u32;
            }
        }
        self.groups.remove(meta.group);
        self.sojourns.record(time - meta.arrival_time);
        if self.track_copies {
            for p in meta.pieces.iter() {
                self.s.piece_copies[p.index()] -= 1;
            }
        } else if meta.has(HAS_WATCH) {
            self.watch_copies -= 1;
        }
        self.s.meta.swap_remove(index);
        // The old last peer now sits at `index`; its pool entries still say
        // `last`. Relabel them through its (moved) position metadata.
        if index != last {
            let moved = self.s.meta[index];
            if moved.boosted_pos != NOT_BOOSTED {
                debug_assert_eq!(self.s.boosted_pool[moved.boosted_pos as usize], last as u32);
                self.s.boosted_pool[moved.boosted_pos as usize] = index as u32;
            }
            if moved.seed_pos != NOT_A_SEED {
                debug_assert_eq!(self.s.seed_pool[moved.seed_pos as usize], last as u32);
                self.s.seed_pool[moved.seed_pos as usize] = index as u32;
            }
        }
    }

    /// Counts `count` contacts that moved no piece.
    fn count_useless_contacts(&mut self, count: u64) {
        self.unsuccessful += count;
        self.rec.add(Counter::Contacts, count);
        self.rec.add(Counter::UselessContacts, count);
    }

    /// Draws the uploader of a peer tick among `n > 0` peers, each with
    /// probability proportional to its clock rate.
    ///
    /// A peer's clock runs at rate µ (normal) or ηµ (boosted), so the
    /// firing peer is boosted with probability η·nb / (η·nb + (n − nb)):
    /// one weighted coin, then one uniform pool pick (boosted) or a
    /// complement rejection (normal). The coin fires the normal branch with
    /// probability proportional to the normal count, so the rejection's
    /// expected tries are O(1), unlike the scan kernel's Θ(η) probe.
    fn pick_uploader<R: Rng>(&mut self, n: usize, rng: &mut R) -> usize {
        let nb = self.s.boosted_pool.len();
        if nb == 0 {
            return rng.gen_range(0..n);
        }
        let nn = n - nb;
        let boosted_weight = self.sim.config.retry_speedup * nb as f64;
        if nn == 0 || rng.gen::<f64>() * (boosted_weight + nn as f64) < boosted_weight {
            return self.s.boosted_pool[rng.gen_range(0..nb)] as usize;
        }
        loop {
            let i = rng.gen_range(0..n);
            if self.s.meta[i].boosted_pos == NOT_BOOSTED {
                return i;
            }
            self.rec.incr(Counter::RejectionRetries);
        }
    }

    /// Draws the uploader for a peer tick whose contact target lives in
    /// another shard and returns a copy of the uploader's piece collection
    /// (the cross-shard *offer*). The contact itself — counters, target
    /// draw, possible transfer — happens at the destination shard when the
    /// offer is applied at the window boundary ([`State::apply_offer`]), so
    /// the source side consumes exactly one draw and records nothing; that
    /// keeps the per-shard counter identities (`arrivals + contacts +
    /// departure events = events`) exact on both sides.
    ///
    /// Returns `None` when the shard is empty. This is unreachable under
    /// the live peer-tick rate `µ·n` (zero for an empty shard), but the
    /// method stays total for safety.
    pub(super) fn offer_pieces<R: Rng>(&mut self, rng: &mut R) -> Option<PieceSet> {
        let n = self.s.meta.len();
        if n == 0 {
            return None;
        }
        let uploader = rng.gen_range(0..n);
        Some(self.s.meta[uploader].pieces)
    }

    /// Applies a cross-shard offer at the exchange boundary: one contact
    /// against a uniformly drawn local peer, with the offered collection
    /// standing in for the remote uploader's piece set. Mirrors the
    /// useful/useless accounting of a local peer tick exactly — the whole
    /// cross-shard contact is attributed to the destination shard. The
    /// sharded driver rejects `η > 1`, so no boost bookkeeping applies
    /// here.
    pub(super) fn apply_offer<R: Rng>(&mut self, offer: PieceSet, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Contacts);
        let n = self.s.meta.len();
        if n == 0 {
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let target = rng.gen_range(0..n);
        let useful = offer.difference(self.s.meta[target].pieces);
        if useful.is_empty() {
            self.unsuccessful += 1;
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let piece = self.select_piece(useful, rng);
        self.give_piece(target, piece, time);
    }
}

impl<T: Recorder> KernelState for State<'_, T> {
    type Change = Change;

    fn reserve_snapshots(&mut self, capacity: usize) {
        self.s.snapshots.reserve(capacity);
    }

    fn population(&self) -> usize {
        self.s.meta.len()
    }

    fn seed_count(&self) -> usize {
        self.s.seed_pool.len()
    }

    fn boosted_count(&self) -> usize {
        self.s.boosted_pool.len()
    }

    fn seed_boosted(&self) -> bool {
        self.seed_boosted
    }

    fn record_snapshot(&mut self, time: f64) {
        // Every observable is a maintained aggregate: O(1) per snapshot.
        self.s.snapshots.push(SimSnapshot {
            time,
            total_peers: self.s.meta.len() as u64,
            peer_seeds: self.s.seed_pool.len() as u64,
            groups: self.groups,
            watch_piece_downloads: self.watch_downloads,
            arrivals_without_watch: self.arrivals_without_watch,
            watch_piece_copies: if self.track_copies {
                self.s.piece_copies[self.watch.index()]
            } else {
                self.watch_copies
            },
        });
    }

    fn decide<R: Rng>(&mut self, event: Event, rng: &mut R) -> Option<Change> {
        let n = self.s.meta.len();
        match event {
            // One alias-table draw: O(1) in the number of arrival classes.
            Event::Arrival => Some(Change::Arrival(
                self.s.arrival_types[self.s.arrival_alias.sample(rng)],
            )),
            Event::SeedTick => {
                if n == 0 {
                    return Some(Change::NoTarget);
                }
                let target = rng.gen_range(0..n);
                let useful = self.full.difference(self.s.meta[target].pieces);
                if useful.is_empty() {
                    // A useless tick leaves the seed boosted exactly when
                    // η > 1: a self-loop unless that flips the flag.
                    let boost = self.sim.config.retry_speedup > 1.0;
                    return (self.seed_boosted != boost).then_some(Change::SeedBoost);
                }
                let piece = self.select_piece(useful, rng);
                Some(Change::SeedUpload {
                    target: target as u32,
                    piece,
                })
            }
            Event::PeerTick => {
                if n == 0 {
                    return Some(Change::NoTarget);
                }
                let uploader = self.pick_uploader(n, rng);
                let target = rng.gen_range(0..n);
                let useful = self.s.meta[uploader]
                    .pieces
                    .difference(self.s.meta[target].pieces);
                if useful.is_empty() {
                    // A useless contact boosts a normal uploader when η > 1
                    // (a change of rate); otherwise it is a self-loop.
                    let boosts = self.sim.config.retry_speedup > 1.0
                        && self.s.meta[uploader].boosted_pos == NOT_BOOSTED;
                    return boosts.then_some(Change::PeerBoost {
                        uploader: uploader as u32,
                    });
                }
                let piece = self.select_piece(useful, rng);
                Some(Change::PeerUpload {
                    uploader: uploader as u32,
                    target: target as u32,
                    piece,
                })
            }
            Event::SeedDeparture => {
                // One uniform pick from the seed pool: O(1), no probing.
                let seeds = self.s.seed_pool.len();
                if seeds == 0 {
                    return Some(Change::NoSeed);
                }
                Some(Change::Departure(self.s.seed_pool[rng.gen_range(0..seeds)]))
            }
        }
    }

    fn apply<R: Rng>(&mut self, change: Change, time: f64, _rng: &mut R) {
        match change {
            Change::Arrival(pieces) => {
                self.rec.incr(Counter::Arrivals);
                self.add_peer(time, pieces, true);
            }
            Change::NoTarget => {
                self.rec.incr(Counter::Contacts);
                self.rec.incr(Counter::UselessContacts);
            }
            Change::SeedBoost => {
                self.count_useless_contacts(1);
                self.seed_boosted = true;
            }
            Change::SeedUpload { target, piece } => {
                self.rec.incr(Counter::Contacts);
                self.seed_boosted = false;
                self.give_piece(target as usize, piece, time);
            }
            Change::PeerBoost { uploader } => {
                self.count_useless_contacts(1);
                self.boost(uploader as usize);
            }
            Change::PeerUpload {
                uploader,
                target,
                piece,
            } => {
                self.rec.incr(Counter::Contacts);
                self.unboost(uploader as usize);
                self.give_piece(target as usize, piece, time);
            }
            Change::Departure(index) => {
                self.rec.incr(Counter::DepartureEvents);
                self.depart(index as usize, time);
            }
            Change::NoSeed => self.rec.incr(Counter::DepartureEvents),
        }
    }

    fn record_self_loops(&mut self, count: u64) {
        self.count_useless_contacts(count);
    }

    fn inject(&mut self, time: f64, pieces: PieceSet, count: usize) {
        self.s.meta.reserve(count);
        for _ in 0..count {
            self.add_peer(time, pieces, true);
        }
    }

    fn finish(self, events: u64, truncated: bool, horizon: f64) -> SimResult {
        SimResult {
            snapshots: std::mem::take(&mut self.s.snapshots),
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
