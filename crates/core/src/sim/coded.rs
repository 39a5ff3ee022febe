//! The network-coding kernel: Theorem 15's coded swarm behind the shared
//! event driver.
//!
//! Under random linear network coding (Section VIII-B) a peer's type is the
//! subspace `V_A ⊆ F_q^K` spanned by the coding vectors it holds. This
//! kernel runs that system at the same event-loop scale as the uncoded
//! kernels:
//!
//! * **Peer state** is a [`Subspace`] in reduced row-echelon form, updated
//!   incrementally: a received coded piece is reduced against the basis in
//!   place ([`Subspace::absorb`]) — useless pieces cost one `O(dim·K)`
//!   reduction and zero allocation.
//! * **Per-peer metadata lives in one packed [`CodedMeta`] record** (arrival
//!   time, seed-pool position, cached dimension, gift flag, group — 16
//!   bytes), so the hot handlers read the dimension without touching the
//!   basis at all.
//! * **Dimension-only fast paths**: the coded transfer policy never inspects
//!   individual vectors (an upload is always a uniform random combination of
//!   everything the uploader holds), so several outcomes are decided from
//!   the cached dimensions alone. A trivial uploader (`dim 0`) or a
//!   full-dimension target is useless with probability one — no sampling, no
//!   reduction. A fixed-seed upload is a uniformly random vector of
//!   `F_q^K`, useful with probability exactly `1 − q^{dim − K}`
//!   (Section VIII-B), so the kernel flips that Bernoulli coin first and
//!   reduces an actual vector only on the useful branch — the conditional
//!   law of the inserted vector (uniform outside `V_A`, obtained by
//!   rejection with `≤ q/(q−1)` expected tries) is identical to
//!   sample-then-test.
//! * **Seed departures** pick uniformly from a swap-remove pool of
//!   full-dimension peers: one draw, `O(1)`, exactly like the turbo
//!   kernel's.
//! * **Arrivals** draw their gift dimension from a Walker/Vose alias table.
//!
//! Validation is against an exact law and a second kernel. At `K = 1` a
//! coded upload is zero with probability `1/q` and otherwise completes the
//! target, so the kernel runs the uncoded `K = 1` chain with `U_s` and `µ`
//! scaled by `1 − 1/q`: `tests/simulators_agree.rs` holds its mean
//! population, empty share and decoder count to that chain's exact
//! stationary law at `q ∈ {2, 4, 8}`. Over `GF(2)`,
//! `crates/core/tests/coded_distributional.rs` pins its replication
//! ensembles (final population, dimension histogram, departures, transfer
//! counts) against the coded-turbo kernel's.
//!
//! # Observable mapping
//!
//! The coded system reuses [`SimSnapshot`] with documented coded meanings:
//! `peer_seeds` counts decoders (dimension `K`), `watch_piece_copies` is the
//! total dimension held across the swarm (`÷ total_peers` = mean dimension),
//! `watch_piece_downloads` counts cumulative decode completions, and
//! `arrivals_without_watch` counts arrivals carrying no knowledge. The
//! Fig.-2 groups become the dimension decomposition: `Gifted` arrived with a
//! coded piece; among the rest, `NormalYoung` is `dim 0`, `Infected` is
//! `0 < dim < K−1`, `OneClub` is `dim K−1` (one dimension from decoding —
//! the coded analogue of the missing-piece club), and `FormerOneClub` is
//! `dim K` (climbed through the club and decoded). The groups partition the
//! population and follow `O(1)` transitions, exactly like the uncoded
//! kernels.

use super::{AgentSwarm, Event, KernelState};
use crate::coded::CodedGifts;
use crate::groups::{GroupCounts, PeerGroup};
use crate::metrics::{SimResult, SimSnapshot, SojournStats};
use markov::alias::AliasTable;
use netcoding::{CodingVector, GaloisField, Subspace};
use pieceset::PieceSet;
use rand::Rng;
use telemetry::{Counter, Recorder};

/// Sentinel for "this peer is not in the seed pool".
const NOT_A_SEED: u32 = u32::MAX;

/// All per-peer bookkeeping of the coded kernel in one 16-byte record; the
/// hot handlers decide most outcomes from the cached `dim` without reading
/// the RREF basis.
#[derive(Debug, Clone, Copy)]
struct CodedMeta {
    arrival_time: f64,
    /// Position inside `seed_pool`, or [`NOT_A_SEED`].
    seed_pos: u32,
    /// Cached subspace dimension (`O(1)` completion and usefulness checks).
    dim: u16,
    /// Arrived carrying at least one (non-zero) coded piece.
    gifted: bool,
    /// Cached dimension-decomposition group; [`GroupCounts`] follows its
    /// transitions.
    group: PeerGroup,
}

/// Mutable state of the coded kernel.
pub(super) struct State<'a, T: Recorder> {
    sim: &'a AgentSwarm,
    /// Instrumentation hook; the [`telemetry::NullRecorder`] default
    /// monomorphizes every call site below to nothing.
    rec: &'a mut T,
    k: usize,
    field: GaloisField,
    /// Probability that a uniformly random vector of `F_q^K` lies inside a
    /// `d`-dimensional subspace: `q^{d − K}`, precomputed per dimension for
    /// the fixed-seed Bernoulli fast path.
    p_inside: Vec<f64>,
    /// Gift dimension per arrival class (parallel to the alias table).
    gift_dims: Vec<u16>,
    /// Alias table over the gift-class rates: `O(1)` per arrival.
    gift_alias: AliasTable,
    /// Peer subspaces, indexed like `meta`.
    spaces: Vec<Subspace>,
    meta: Vec<CodedMeta>,
    /// Peers at full dimension (swap-remove index pool).
    seed_pool: Vec<u32>,
    /// Scratch row for sampling and absorbing coded pieces.
    row: Vec<u32>,
    groups: GroupCounts,
    /// Σ dimensions over current peers (`watch_piece_copies`).
    dim_sum: u64,
    /// Histogram of current peer dimensions (length `K + 1`).
    dim_hist: Vec<u64>,
    /// Cumulative decode completions (`watch_piece_downloads`).
    decodes: u64,
    /// Cumulative arrivals carrying no knowledge (`arrivals_without_watch`).
    blank_arrivals: u64,
    useful_transfers: u64,
    unsuccessful: u64,
    sojourns: SojournStats,
    snapshots: Vec<SimSnapshot>,
}

impl<'a, T: Recorder> State<'a, T> {
    pub(super) fn new(
        sim: &'a AgentSwarm,
        gifts: &CodedGifts,
        initial: &[PieceSet],
        snapshots: Vec<SimSnapshot>,
        rec: &'a mut T,
    ) -> Self {
        debug_assert!(snapshots.is_empty(), "recycled buffer arrives cleared");
        let k = sim.params.num_pieces();
        let field = gifts.field;
        let q = f64::from(field.order());
        let weights: Vec<f64> = gifts.gift_dimensions.iter().map(|&(_, r)| r).collect();
        #[expect(
            clippy::expect_used,
            reason = "CodedParams validation guarantees a positive total gift rate"
        )]
        let gift_alias = AliasTable::new(&weights).expect("validated positive total gift rate");
        rec.incr(Counter::AliasRebuilds);
        let mut state = State {
            sim,
            rec,
            k,
            field,
            p_inside: (0..=k).map(|d| q.powi(d as i32 - k as i32)).collect(),
            gift_dims: gifts
                .gift_dimensions
                .iter()
                .map(|&(d, _)| d as u16)
                .collect(),
            gift_alias,
            spaces: Vec::with_capacity(initial.len()),
            meta: Vec::with_capacity(initial.len()),
            seed_pool: Vec::new(),
            row: Vec::new(),
            groups: GroupCounts::default(),
            dim_sum: 0,
            dim_hist: vec![0; k + 1],
            decodes: 0,
            blank_arrivals: 0,
            useful_transfers: 0,
            unsuccessful: 0,
            sojourns: SojournStats::default(),
            snapshots,
        };
        for &pieces in initial {
            let space = state.subspace_of(pieces);
            state.add_peer(0.0, space, false);
        }
        state
    }

    /// The subspace an uncoded piece collection maps to: the span of the
    /// unit coding vectors of its pieces (an uncoded piece *is* the coded
    /// piece with a unit coding vector). This is how initial populations and
    /// flash crowds written as piece selectors enter the coded system.
    fn subspace_of(&self, pieces: PieceSet) -> Subspace {
        let mut space = Subspace::empty(self.field, self.k);
        for p in pieces.iter() {
            #[expect(
                clippy::expect_used,
                reason = "unit vectors are built with the space's own field and ambient dimension k"
            )]
            let inserted = space
                .insert(&CodingVector::unit(self.field, self.k, p.index()))
                .expect("unit vectors match the ambient space");
            debug_assert!(inserted, "unit vectors are independent");
        }
        space
    }

    /// The dimension decomposition (see the [module docs](self)).
    fn classify(&self, meta: CodedMeta) -> PeerGroup {
        let dim = meta.dim as usize;
        if meta.gifted {
            PeerGroup::Gifted
        } else if dim == self.k {
            PeerGroup::FormerOneClub
        } else if dim == self.k - 1 {
            PeerGroup::OneClub
        } else if dim == 0 {
            PeerGroup::NormalYoung
        } else {
            PeerGroup::Infected
        }
    }

    fn add_peer(&mut self, time: f64, space: Subspace, count_arrival: bool) {
        let dim = space.dimension();
        debug_assert!(dim <= self.k);
        if count_arrival && dim == 0 {
            self.blank_arrivals += 1;
        }
        self.dim_sum += dim as u64;
        self.dim_hist[dim] += 1;
        let row = self.spaces.len();
        debug_assert!(row < NOT_A_SEED as usize, "population exceeds u32 range");
        let mut meta = CodedMeta {
            arrival_time: time,
            seed_pos: NOT_A_SEED,
            dim: dim as u16,
            gifted: dim > 0,
            group: PeerGroup::NormalYoung,
        };
        if dim == self.k {
            meta.seed_pos = self.seed_pool.len() as u32;
            self.seed_pool.push(row as u32);
            self.rec.incr(Counter::PoolOps);
        }
        meta.group = self.classify(meta);
        self.groups.add(meta.group);
        self.spaces.push(space);
        self.meta.push(meta);
    }

    /// Bookkeeping after a successful absorb raised `target`'s dimension by
    /// one: counters, group transition, seed-pool entry, and the immediate
    /// departure of a decoder when `γ = ∞`.
    fn record_dimension_gain(&mut self, target: usize, time: f64) {
        self.useful_transfers += 1;
        self.rec.incr(Counter::UsefulTransfers);
        self.dim_sum += 1;
        let meta = &mut self.meta[target];
        let old_group = meta.group;
        self.dim_hist[meta.dim as usize] -= 1;
        meta.dim += 1;
        self.dim_hist[meta.dim as usize] += 1;
        let completed = meta.dim as usize == self.k;
        if completed {
            meta.seed_pos = self.seed_pool.len() as u32;
        }
        let meta = *meta;
        let new_group = self.classify(meta);
        self.groups.transition(old_group, new_group);
        self.meta[target].group = new_group;
        if completed {
            self.decodes += 1;
            self.seed_pool.push(target as u32);
            self.rec.incr(Counter::PoolOps);
            if self.sim.params.departs_immediately() {
                self.depart(target, time);
            }
        }
    }

    fn depart(&mut self, index: usize, time: f64) {
        let last = self.spaces.len() - 1;
        let meta = self.meta[index];
        self.rec.incr(Counter::Departures);
        debug_assert_eq!(meta.dim as usize, self.k, "only decoders depart");
        if meta.seed_pos != NOT_A_SEED {
            let pos = meta.seed_pos as usize;
            self.seed_pool.swap_remove(pos);
            self.rec.incr(Counter::PoolOps);
            if let Some(&moved) = self.seed_pool.get(pos) {
                self.meta[moved as usize].seed_pos = pos as u32;
            }
        }
        self.groups.remove(meta.group);
        self.sojourns.record(time - meta.arrival_time);
        self.dim_sum -= meta.dim as u64;
        self.dim_hist[meta.dim as usize] -= 1;
        self.spaces.swap_remove(index);
        self.meta.swap_remove(index);
        // The old last peer now sits at `index`; relabel its pool entry.
        if index != last {
            let moved = self.meta[index];
            if moved.seed_pos != NOT_A_SEED {
                debug_assert_eq!(self.seed_pool[moved.seed_pos as usize], last as u32);
                self.seed_pool[moved.seed_pos as usize] = index as u32;
            }
        }
    }
}

impl<T: Recorder> KernelState for State<'_, T> {
    type Change = Event;

    fn reserve_snapshots(&mut self, capacity: usize) {
        self.snapshots.reserve(capacity);
    }

    fn population(&self) -> usize {
        self.spaces.len()
    }

    fn seed_count(&self) -> usize {
        self.seed_pool.len()
    }

    fn boosted_count(&self) -> usize {
        0
    }

    fn seed_boosted(&self) -> bool {
        false
    }

    fn record_snapshot(&mut self, time: f64) {
        // Every observable is a maintained aggregate: O(1) per snapshot.
        self.snapshots.push(SimSnapshot {
            time,
            total_peers: self.spaces.len() as u64,
            peer_seeds: self.seed_pool.len() as u64,
            groups: self.groups,
            watch_piece_downloads: self.decodes,
            arrivals_without_watch: self.blank_arrivals,
            watch_piece_copies: self.dim_sum,
        });
    }

    fn decide<R: Rng>(&mut self, event: Event, _rng: &mut R) -> Option<Event> {
        // Every draw happens in the handler `apply` runs, in the order
        // the coded kernel has always drawn.
        Some(event)
    }

    fn apply<R: Rng>(&mut self, event: Event, time: f64, rng: &mut R) {
        match event {
            Event::Arrival => self.handle_arrival(time, rng),
            Event::SeedTick => self.handle_seed_tick(time, rng),
            Event::PeerTick => self.handle_peer_tick(time, rng),
            Event::SeedDeparture => self.handle_seed_departure(time, rng),
        }
    }

    fn inject(&mut self, time: f64, pieces: PieceSet, count: usize) {
        let space = self.subspace_of(pieces);
        self.spaces.reserve(count);
        self.meta.reserve(count);
        for _ in 0..count {
            self.add_peer(time, space.clone(), true);
        }
    }

    fn finish(self, events: u64, truncated: bool, horizon: f64) -> SimResult {
        SimResult {
            snapshots: self.snapshots,
            sojourns: self.sojourns,
            transfers: self.useful_transfers,
            unsuccessful_contacts: self.unsuccessful,
            events,
            horizon,
            truncated,
            final_dimensions: self.dim_hist,
        }
    }
}

impl<T: Recorder> State<'_, T> {
    fn handle_arrival<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Arrivals);
        // One alias-table draw for the gift class, then d random coded
        // pieces; a random piece is useless with probability q^{-K} exactly
        // as in the paper, so the arrival dimension can fall short of d.
        let d = self.gift_dims[self.gift_alias.sample(rng)] as usize;
        let mut space = Subspace::empty(self.field, self.k);
        for _ in 0..d {
            // A gift row is a fresh uniform vector — it never reads a basis,
            // so it is an absorb but not a materialization.
            self.row.clear();
            self.row
                .extend((0..self.k).map(|_| self.field.random_element(rng)));
            self.rec.incr(Counter::RrefAbsorbs);
            #[expect(
                clippy::expect_used,
                reason = "the row is rebuilt to the ambient length k just above"
            )]
            let grew = space.absorb(&mut self.row).expect("row matches ambient");
            if grew {
                self.rec.incr(Counter::RankIncreases);
            }
        }
        self.add_peer(time, space, true);
    }

    fn handle_seed_tick<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Contacts);
        let n = self.spaces.len();
        if n == 0 {
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let target = rng.gen_range(0..n);
        let dim = self.meta[target].dim as usize;
        if dim == self.k {
            self.unsuccessful += 1;
            self.rec.incr(Counter::DimFastPathHits);
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        // Dimension-only fast path: a uniformly random vector of F_q^K lies
        // inside the target's subspace with probability q^{dim − K}; decide
        // usefulness from the cached dimension and reduce an actual vector
        // only on the useful branch (rejection-sampled so it is uniform
        // outside V_A — the same conditional law as sample-then-test).
        if rng.gen::<f64>() < self.p_inside[dim] {
            self.unsuccessful += 1;
            self.rec.incr(Counter::DimFastPathHits);
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        loop {
            // A seed upload is likewise a fresh uniform vector: no basis is
            // read to construct it.
            self.row.clear();
            self.row
                .extend((0..self.k).map(|_| self.field.random_element(rng)));
            self.rec.incr(Counter::RrefAbsorbs);
            #[expect(
                clippy::expect_used,
                reason = "the row is rebuilt to the ambient length k just above"
            )]
            let grew = self.spaces[target]
                .absorb(&mut self.row)
                .expect("row matches ambient");
            if grew {
                self.rec.incr(Counter::RankIncreases);
                break;
            }
            self.rec.incr(Counter::RejectionRetries);
        }
        self.record_dimension_gain(target, time);
    }

    fn handle_peer_tick<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Contacts);
        let n = self.spaces.len();
        if n == 0 {
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let uploader = rng.gen_range(0..n);
        let target = rng.gen_range(0..n);
        // Self-contacts and trivial uploaders send nothing useful, and a
        // full-dimension target can learn nothing: all three are decided
        // from the packed metadata without touching a basis.
        if uploader == target
            || self.meta[uploader].dim == 0
            || self.meta[target].dim as usize == self.k
        {
            self.unsuccessful += 1;
            self.rec.incr(Counter::DimFastPathHits);
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let (up, down) = if uploader < target {
            let (a, b) = self.spaces.split_at_mut(target);
            (&a[uploader], &mut b[0])
        } else {
            let (a, b) = self.spaces.split_at_mut(uploader);
            (&b[0], &mut a[target])
        };
        // The only place a basis is actually read to build a row: the
        // uploader's combination. This is what `BasisMaterializations`
        // counts (the fresh uniform rows above are not materializations —
        // an earlier ledger counted them too, hiding the fast path's
        // effect; `crates/core/tests/telemetry_counters.rs` pins the fix).
        up.random_combination_into(rng, &mut self.row);
        self.rec.incr(Counter::BasisMaterializations);
        self.rec.incr(Counter::RrefAbsorbs);
        #[expect(
            clippy::expect_used,
            reason = "random_combination_into fills the row to the ambient length"
        )]
        let grew = down.absorb(&mut self.row).expect("row matches ambient");
        if grew {
            self.rec.incr(Counter::RankIncreases);
            self.record_dimension_gain(target, time);
        } else {
            self.unsuccessful += 1;
            self.rec.incr(Counter::UselessContacts);
        }
    }

    fn handle_seed_departure<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::DepartureEvents);
        // One uniform pick from the decoder pool: O(1), no probing.
        let seeds = self.seed_pool.len();
        if seeds == 0 {
            return;
        }
        let index = self.seed_pool[rng.gen_range(0..seeds)] as usize;
        self.depart(index, time);
    }
}
