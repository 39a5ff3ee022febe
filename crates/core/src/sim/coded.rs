//! The network-coding kernel: Theorem 15's coded swarm over any field
//! `GF(q)`, with lazy peers.
//!
//! Under random linear network coding (Section VIII-B) a peer's type is the
//! subspace `V_A ⊆ F_q^K` spanned by the coding vectors it holds, and an
//! upload is a uniformly random vector of the uploader's subspace. Most of
//! that subspace never needs to be written down:
//!
//! * **Lazy peers.** A peer whose subspace so far is (unit vectors of its
//!   arrival pieces) ⊕ (`extra` dimensions gained from uniformly random
//!   coded pieces) is represented by just the pair `(unit_bits, extra)` in
//!   its 32-byte meta record. This is *exact*, not approximate: conditioned
//!   on that pair, the subspace is uniformly distributed among the
//!   `(|unit_bits| + extra)`-dimensional subspaces containing the unit span
//!   (uniform random vectors and the `GL`-invariance of the Grassmannian;
//!   Ho et al., IEEE Trans. IT 2006), so every dimension-only decision below
//!   is distribution-identical to tracking the basis explicitly, and lazy
//!   peers stay independent of each other because no transfer between two
//!   peers ever resolves lazily.
//!   - An *arrival gift* of `d` random pieces is a chain of `d` Bernoulli
//!     trials with the exact success probability `1 − q^{dim−K}`: the new
//!     peer starts lazy as `(0, dim)`.
//!   - A *fixed-seed upload* is a uniformly random vector of `F_q^K`; to a
//!     lazy target it resolves through the same Bernoulli and, when useful,
//!     simply increments `extra`.
//!   - A *peer upload* from a pure-unit peer (`extra == 0`, the usual state
//!     of initial populations and flash crowds) is a uniform combination of
//!     its units: one masked `rng` word over `GF(2)`, one uniform field
//!     element per unit otherwise, and no basis.
//!   - A *decoding transfer* — any gain that raises a peer to dimension `K`
//!     — needs no basis at all: the only `K`-dimensional subspace of
//!     `F_q^K` is the full space, which is itself the span of all `K` units,
//!     so the completed peer collapses back to the pure-unit representation
//!     and its future uploads are unit combinations. In near-completion
//!     populations this removes almost every materialization.
//! * **Materialization is the slow path and it is permanent.** The first
//!   peer-to-peer transfer that actually depends on a peer's coded content
//!   materializes its basis — unit rows are written directly (they already
//!   form an RREF), and `extra` dimensions are drawn by absorbing uniform
//!   random rows until the cached rank is reached, which samples exactly
//!   the conditional subspace law. From then on that peer is tracked
//!   explicitly, so correlations introduced by shared coded pieces are
//!   exact. Departing peers return their basis slot to the arena.
//! * **One kernel, two row arithmetics.** Only the rows depend on the field,
//!   behind the [`Basis`] trait: over `GF(2)` a basis is a
//!   [`BitSubspace`] (packed `u64` rows, whole-word XOR reduction), over any
//!   other field a [`Subspace`] in reduced row-echelon form.
//!
//! The kernel keeps the turbo tricks of [`turbo`](super::turbo): alias-table
//! gift draws, swap-remove decoder pools, packed per-peer meta, and
//! [`SimScratch`] arena reuse across replications. It is validated against
//! an exact subspace-count chain outside the driver loop
//! (`crates/core/tests/coded_distributional.rs`) and against the exact
//! stationary law of the `K = 1` chain (`tests/simulators_agree.rs`).
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
//! `dim K` (climbed through the club and decoded).
//!
//! # Counter semantics
//!
//! * `DimFastPathHits` counts every decision resolved from cached
//!   dimensions or unit masks alone — gift Bernoullis, seed-upload
//!   Bernoullis (both outcomes), lazy seed gains, trivial contact rejects,
//!   and unit-mask usefulness checks. It dominates by construction.
//! * `BasisMaterializations` counts lazy-peer materialization events;
//!   `basis_materializations < rref_absorbs` is asserted by
//!   `crates/core/tests/telemetry_counters.rs`.
//! * `RrefAbsorbs` counts every reduction against a real basis (including
//!   during materialization), `RejectionRetries` the failed ones inside
//!   rejection loops, and `RankIncreases` every dimension gained by a peer
//!   — lazily or through a basis.

use super::turbo::SimScratch;
use super::{AgentSwarm, Event, KernelState};
use crate::coded::CodedGifts;
use crate::groups::{GroupCounts, PeerGroup};
use crate::metrics::{SimResult, SimSnapshot, SojournStats};
use markov::alias::AliasTable;
use netcoding::{BitSubspace, GaloisField, Subspace};
use pieceset::PieceSet;
use rand::Rng;
use std::marker::PhantomData;
use telemetry::{Counter, Recorder};

/// Sentinel for "this peer is not in the seed pool".
const NOT_A_SEED: u32 = u32::MAX;
/// Sentinel for "this peer is lazy: no basis slot assigned".
const NOT_MATERIALIZED: u32 = u32::MAX;

/// A materialized peer basis: the row arithmetic of one field. The rest of
/// the kernel is field-generic.
pub(super) trait Basis: Sized + std::fmt::Debug {
    /// One entry of a row: 64 packed coordinates over `GF(2)`, one field
    /// element otherwise.
    type Word: Copy + std::fmt::Debug;
    /// The zero subspace of `F_q^K`.
    fn empty(field: GaloisField, k: usize) -> Self;
    /// Clears the basis for a run over `field` (a warm scratch may change
    /// field between runs).
    fn reset(&mut self, field: GaloisField, k: usize);
    /// Replaces the basis with the span of the unit vectors named by `bits`.
    fn set_units(&mut self, bits: u64);
    fn dimension(&self) -> usize;
    /// Reduces `row` and absorbs it when independent; returns whether the
    /// dimension grew. `row` is left unspecified.
    fn absorb(&mut self, row: &mut Vec<Self::Word>) -> bool;
    /// Writes a uniformly random vector of `F_q^K` into `out`.
    fn random_ambient_row_into<R: Rng>(&self, rng: &mut R, out: &mut Vec<Self::Word>);
    /// Writes a uniformly random vector of the subspace into `out`.
    fn random_combination_into<R: Rng>(&self, rng: &mut R, out: &mut Vec<Self::Word>);
    /// Writes a uniformly random vector of the span of the unit vectors
    /// named by `units` into `out`, without a basis.
    fn unit_combination_into<R: Rng>(
        field: GaloisField,
        k: usize,
        units: u64,
        rng: &mut R,
        out: &mut Vec<Self::Word>,
    );
    /// Whether `row` has support outside the unit vectors named by `units`,
    /// that is, lies outside their span.
    fn outside_units(row: &[Self::Word], units: u64) -> bool;
    /// This basis type's arena in the kernel's scratch.
    fn arena(scratch: &mut CodedScratch) -> &mut Arena<Self>;
}

impl Basis for BitSubspace {
    type Word = u64;

    fn empty(_: GaloisField, k: usize) -> Self {
        BitSubspace::empty(k)
    }

    fn reset(&mut self, _: GaloisField, k: usize) {
        BitSubspace::reset(self, k);
    }

    fn set_units(&mut self, bits: u64) {
        BitSubspace::set_units(self, bits);
    }

    fn dimension(&self) -> usize {
        BitSubspace::dimension(self)
    }

    fn absorb(&mut self, row: &mut Vec<u64>) -> bool {
        BitSubspace::absorb(self, row)
    }

    fn random_ambient_row_into<R: Rng>(&self, rng: &mut R, out: &mut Vec<u64>) {
        BitSubspace::random_ambient_row_into(self, rng, out);
    }

    fn random_combination_into<R: Rng>(&self, rng: &mut R, out: &mut Vec<u64>) {
        BitSubspace::random_combination_into(self, rng, out);
    }

    fn unit_combination_into<R: Rng>(
        _: GaloisField,
        k: usize,
        units: u64,
        rng: &mut R,
        out: &mut Vec<u64>,
    ) {
        // A random subset XOR of unit vectors: one drawn word.
        out.clear();
        out.resize(k.div_ceil(64), 0);
        out[0] = rng.gen::<u64>() & units;
    }

    fn outside_units(row: &[u64], units: u64) -> bool {
        (row[0] & !units) != 0 || row[1..].iter().any(|&w| w != 0)
    }

    fn arena(scratch: &mut CodedScratch) -> &mut Arena<Self> {
        &mut scratch.gf2
    }
}

impl Basis for Subspace {
    type Word = u32;

    fn empty(field: GaloisField, k: usize) -> Self {
        Subspace::empty(field, k)
    }

    fn reset(&mut self, field: GaloisField, k: usize) {
        *self = Subspace::empty(field, k);
    }

    fn set_units(&mut self, bits: u64) {
        let k = self.ambient_dim();
        self.reset(self.field(), k);
        let mut rest = bits;
        while rest != 0 {
            let mut row = vec![0; k];
            row[rest.trailing_zeros() as usize] = 1;
            rest &= rest - 1;
            let grew = Basis::absorb(self, &mut row);
            debug_assert!(grew, "unit vectors are independent");
        }
    }

    fn dimension(&self) -> usize {
        Subspace::dimension(self)
    }

    #[expect(
        clippy::expect_used,
        reason = "every row the kernel absorbs is built at the ambient length"
    )]
    fn absorb(&mut self, row: &mut Vec<u32>) -> bool {
        Subspace::absorb(self, row).expect("rows match the ambient space")
    }

    fn random_ambient_row_into<R: Rng>(&self, rng: &mut R, out: &mut Vec<u32>) {
        let field = self.field();
        out.clear();
        out.extend((0..self.ambient_dim()).map(|_| field.random_element(rng)));
    }

    fn random_combination_into<R: Rng>(&self, rng: &mut R, out: &mut Vec<u32>) {
        Subspace::random_combination_into(self, rng, out);
    }

    fn unit_combination_into<R: Rng>(
        field: GaloisField,
        k: usize,
        units: u64,
        rng: &mut R,
        out: &mut Vec<u32>,
    ) {
        // One uniform coefficient per unit vector.
        out.clear();
        out.resize(k, 0);
        let mut rest = units;
        while rest != 0 {
            out[rest.trailing_zeros() as usize] = field.random_element(rng);
            rest &= rest - 1;
        }
    }

    fn outside_units(row: &[u32], units: u64) -> bool {
        row.iter()
            .enumerate()
            .any(|(i, &c)| c != 0 && units >> i & 1 == 0)
    }

    fn arena(scratch: &mut CodedScratch) -> &mut Arena<Self> {
        &mut scratch.gfq
    }
}

/// All per-peer bookkeeping of the coded kernel in one 32-byte record. A
/// lazy peer is fully described by `(unit_bits, extra)`; a materialized one
/// by its arena slot.
#[derive(Debug, Clone, Copy)]
struct CtMeta {
    arrival_time: f64,
    /// Position inside `seed_pool`, or [`NOT_A_SEED`].
    seed_pos: u32,
    /// Arena slot of the materialized basis, or [`NOT_MATERIALIZED`].
    basis_slot: u32,
    /// Lazy representation, unit part: the peer's subspace contains the
    /// span of these unit vectors (arrival pieces). Meaningless once
    /// materialized.
    unit_bits: u64,
    /// Cached subspace dimension (`O(1)` completion and usefulness checks).
    dim: u16,
    /// Lazy representation, uniform part: dimensions gained from uniformly
    /// random coded pieces beyond the unit span. Meaningless once
    /// materialized.
    extra: u16,
    /// Arrived carrying at least one (non-zero) coded piece.
    gifted: bool,
    /// Cached dimension-decomposition group.
    group: PeerGroup,
}

impl CtMeta {
    /// Whether the peer's basis lives in the arena.
    #[inline]
    fn materialized(self) -> bool {
        self.basis_slot != NOT_MATERIALIZED
    }
}

/// The materialized bases of one [`Basis`] type with their free list and
/// scratch rows.
#[derive(Debug)]
pub(super) struct Arena<B: Basis> {
    /// Materialized bases; departed peers return their slot.
    bases: Vec<B>,
    /// Recyclable slots in `bases`.
    free_slots: Vec<u32>,
    /// Scratch row for sampling and absorbing coded pieces.
    row: Vec<B::Word>,
    /// Second scratch row used by materialization, so materializing a lazy
    /// target does not clobber the uploaded row held in `row`.
    mat_row: Vec<B::Word>,
}

impl<B: Basis> Default for Arena<B> {
    fn default() -> Self {
        Arena {
            bases: Vec::new(),
            free_slots: Vec::new(),
            row: Vec::new(),
            mat_row: Vec::new(),
        }
    }
}

/// Reusable buffers of the coded kernel, embedded in [`SimScratch`]: the
/// peer table, the decoder pool, one basis arena per row arithmetic, and
/// the gift alias table — all recycled across replications.
#[derive(Debug, Default)]
pub(super) struct CodedScratch {
    meta: Vec<CtMeta>,
    /// Peers at full dimension (swap-remove index pool).
    seed_pool: Vec<u32>,
    /// Bases over `GF(2)`.
    gf2: Arena<BitSubspace>,
    /// Bases over every other field.
    gfq: Arena<Subspace>,
    /// Histogram of current peer dimensions (length `K + 1`).
    dim_hist: Vec<u64>,
    /// Gift dimension per arrival class (parallel to the alias table).
    gift_dims: Vec<u16>,
    gift_weights: Vec<f64>,
    /// Alias table over the gift-class rates: `O(1)` per arrival.
    gift_alias: AliasTable,
}

impl CodedScratch {
    /// Clears every buffer (keeping capacity) and reconfigures for a run
    /// with `k` pieces and the given gift mix on `B`'s arena.
    fn reset_for<B: Basis>(&mut self, k: usize, gifts: &CodedGifts) {
        self.meta.clear();
        self.seed_pool.clear();
        let arena = B::arena(self);
        arena.free_slots.clear();
        for (slot, basis) in arena.bases.iter_mut().enumerate() {
            basis.reset(gifts.field, k);
            arena.free_slots.push(slot as u32);
        }
        arena.row.clear();
        arena.mat_row.clear();
        self.dim_hist.clear();
        self.dim_hist.resize(k + 1, 0);
        self.gift_dims.clear();
        self.gift_dims
            .extend(gifts.gift_dimensions.iter().map(|&(d, _)| d as u16));
        self.gift_weights.clear();
        self.gift_weights
            .extend(gifts.gift_dimensions.iter().map(|&(_, r)| r));
        assert!(
            self.gift_alias.rebuild(&self.gift_weights),
            "validated positive total gift rate"
        );
    }
}

/// Mutable state of the coded kernel over bases `B`: borrowed scratch
/// buffers plus the run-local aggregates.
pub(super) struct State<'a, T: Recorder, B: Basis> {
    sim: &'a AgentSwarm,
    /// Instrumentation hook; the [`telemetry::NullRecorder`] default
    /// monomorphizes every call site below to nothing.
    rec: &'a mut T,
    k: usize,
    field: GaloisField,
    /// Unit mask of the full space (all `K` unit vectors). Only meaningful
    /// when `K ≤ 64`, which gates the decode shortcut below.
    full_units: u64,
    /// Probability that a uniformly random vector of `F_q^K` lies inside a
    /// `d`-dimensional subspace: `q^{d − K}`, precomputed per dimension.
    p_inside: Vec<f64>,
    s: &'a mut SimScratch,
    groups: GroupCounts,
    /// Σ dimensions over current peers (`watch_piece_copies`).
    dim_sum: u64,
    /// Cumulative decode completions (`watch_piece_downloads`).
    decodes: u64,
    /// Cumulative arrivals carrying no knowledge (`arrivals_without_watch`).
    blank_arrivals: u64,
    useful_transfers: u64,
    unsuccessful: u64,
    sojourns: SojournStats,
    basis: PhantomData<B>,
}

impl<'a, T: Recorder, B: Basis> State<'a, T, B> {
    pub(super) fn new(
        sim: &'a AgentSwarm,
        gifts: &CodedGifts,
        initial: &[PieceSet],
        scratch: &'a mut SimScratch,
        rec: &'a mut T,
    ) -> Self {
        let k = sim.params.num_pieces();
        let q = f64::from(gifts.field.order());
        scratch.snapshots.clear();
        scratch.coded.reset_for::<B>(k, gifts);
        rec.incr(Counter::AliasRebuilds);
        let mut state = State {
            sim,
            rec,
            k,
            field: gifts.field,
            full_units: if k >= 64 { u64::MAX } else { (1u64 << k) - 1 },
            p_inside: (0..=k).map(|d| q.powi(d as i32 - k as i32)).collect(),
            s: scratch,
            groups: GroupCounts::default(),
            dim_sum: 0,
            decodes: 0,
            blank_arrivals: 0,
            useful_transfers: 0,
            unsuccessful: 0,
            sojourns: SojournStats::default(),
            basis: PhantomData,
        };
        state.s.coded.meta.reserve(initial.len());
        for &pieces in initial {
            state.add_lazy_peer(0.0, pieces.bits(), 0, false);
        }
        state
    }

    /// The dimension decomposition (see the [module docs](self)).
    fn classify(&self, meta: CtMeta) -> PeerGroup {
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

    /// Adds a lazy peer whose subspace is (units of `unit_bits`) ⊕
    /// (`extra` uniformly random dimensions). No basis is built.
    fn add_lazy_peer(
        &mut self,
        time: f64,
        mut unit_bits: u64,
        mut extra: u16,
        count_arrival: bool,
    ) {
        let dim = unit_bits.count_ones() as usize + extra as usize;
        debug_assert!(dim <= self.k);
        if dim == self.k && self.k <= 64 {
            // Same decode normalization as `record_dimension_gain`: a peer
            // arriving at full dimension holds the full space, i.e. the
            // span of all K units.
            unit_bits = self.full_units;
            extra = 0;
        }
        if count_arrival && dim == 0 {
            self.blank_arrivals += 1;
        }
        self.dim_sum += dim as u64;
        let c = &mut self.s.coded;
        c.dim_hist[dim] += 1;
        let row = c.meta.len();
        debug_assert!(row < NOT_A_SEED as usize, "population exceeds u32 range");
        let mut meta = CtMeta {
            arrival_time: time,
            seed_pos: NOT_A_SEED,
            basis_slot: NOT_MATERIALIZED,
            unit_bits,
            dim: dim as u16,
            extra,
            gifted: dim > 0,
            group: PeerGroup::NormalYoung,
        };
        if dim == self.k {
            meta.seed_pos = c.seed_pool.len() as u32;
            c.seed_pool.push(row as u32);
            self.rec.incr(Counter::PoolOps);
        }
        meta.group = self.classify(meta);
        self.groups.add(meta.group);
        self.s.coded.meta.push(meta);
    }

    /// Materializes a lazy peer's basis in the arena: unit rows are written
    /// directly (they already form an RREF basis), then uniform random rows
    /// are absorbed until the cached dimension is reached — which samples
    /// exactly the peer's conditional subspace law (uniform among the
    /// subspaces of that dimension containing the unit span). Permanent:
    /// the peer is tracked explicitly from here on.
    fn materialize<R: Rng>(&mut self, peer: usize, rng: &mut R) -> usize {
        let meta = self.s.coded.meta[peer];
        debug_assert!(!meta.materialized());
        let (field, k) = (self.field, self.k);
        let arena = B::arena(&mut self.s.coded);
        let slot = match arena.free_slots.pop() {
            Some(slot) => {
                arena.bases[slot as usize].reset(field, k);
                slot as usize
            }
            None => {
                arena.bases.push(B::empty(field, k));
                arena.bases.len() - 1
            }
        };
        let basis = &mut arena.bases[slot];
        basis.set_units(meta.unit_bits);
        self.rec.incr(Counter::BasisMaterializations);
        while basis.dimension() < meta.dim as usize {
            basis.random_ambient_row_into(rng, &mut arena.mat_row);
            self.rec.incr(Counter::RrefAbsorbs);
            if !basis.absorb(&mut arena.mat_row) {
                self.rec.incr(Counter::RejectionRetries);
            }
        }
        self.s.coded.meta[peer].basis_slot = slot as u32;
        slot
    }

    /// Bookkeeping after `target` gained one dimension (lazily or through a
    /// basis): counters, group transition, seed-pool entry, and the
    /// immediate departure of a decoder when `γ = ∞`.
    fn record_dimension_gain(&mut self, target: usize, time: f64) {
        self.useful_transfers += 1;
        self.rec.incr(Counter::UsefulTransfers);
        self.rec.incr(Counter::RankIncreases);
        self.dim_sum += 1;
        let c = &mut self.s.coded;
        let meta = &mut c.meta[target];
        let old_group = meta.group;
        c.dim_hist[meta.dim as usize] -= 1;
        meta.dim += 1;
        c.dim_hist[meta.dim as usize] += 1;
        let completed = meta.dim as usize == self.k;
        if completed {
            meta.seed_pos = c.seed_pool.len() as u32;
            if !meta.materialized() && self.k <= 64 {
                // Decode normalization: the only K-dimensional subspace of
                // F_q^K is the full space, which is itself the span of all
                // K unit vectors. A lazy peer that completes therefore
                // collapses to the pure-unit representation — its future
                // uploads are unit combinations, never a materialization.
                meta.unit_bits = self.full_units;
                meta.extra = 0;
            }
        }
        let meta = *meta;
        let new_group = self.classify(meta);
        self.groups.transition(old_group, new_group);
        self.s.coded.meta[target].group = new_group;
        if completed {
            self.decodes += 1;
            self.s.coded.seed_pool.push(target as u32);
            self.rec.incr(Counter::PoolOps);
            if self.sim.params.departs_immediately() {
                self.depart(target, time);
            }
        }
    }

    fn depart(&mut self, index: usize, time: f64) {
        let c = &mut self.s.coded;
        let last = c.meta.len() - 1;
        let meta = c.meta[index];
        self.rec.incr(Counter::Departures);
        debug_assert_eq!(meta.dim as usize, self.k, "only decoders depart");
        if meta.seed_pos != NOT_A_SEED {
            let pos = meta.seed_pos as usize;
            c.seed_pool.swap_remove(pos);
            self.rec.incr(Counter::PoolOps);
            if let Some(&moved) = c.seed_pool.get(pos) {
                c.meta[moved as usize].seed_pos = pos as u32;
            }
        }
        self.groups.remove(meta.group);
        self.sojourns.record(time - meta.arrival_time);
        self.dim_sum -= meta.dim as u64;
        c.dim_hist[meta.dim as usize] -= 1;
        if meta.materialized() {
            // Return the slot to the arena; it is reset on reuse.
            B::arena(c).free_slots.push(meta.basis_slot);
        }
        c.meta.swap_remove(index);
        // The old last peer now sits at `index`; relabel its pool entry.
        if index != last {
            let moved = c.meta[index];
            if moved.seed_pos != NOT_A_SEED {
                debug_assert_eq!(c.seed_pool[moved.seed_pos as usize], last as u32);
                c.seed_pool[moved.seed_pos as usize] = index as u32;
            }
        }
    }
}

impl<T: Recorder, B: Basis> KernelState for State<'_, T, B> {
    type Change = Event;

    fn reserve_snapshots(&mut self, capacity: usize) {
        self.s.snapshots.reserve(capacity);
    }

    fn population(&self) -> usize {
        self.s.coded.meta.len()
    }

    fn seed_count(&self) -> usize {
        self.s.coded.seed_pool.len()
    }

    fn boosted_count(&self) -> usize {
        0
    }

    fn seed_boosted(&self) -> bool {
        false
    }

    fn record_snapshot(&mut self, time: f64) {
        // Every observable is a maintained aggregate: O(1) per snapshot.
        self.s.snapshots.push(SimSnapshot {
            time,
            total_peers: self.s.coded.meta.len() as u64,
            peer_seeds: self.s.coded.seed_pool.len() as u64,
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
        // An uncoded piece collection spans the unit vectors of its pieces:
        // exactly the pure-unit lazy representation, so a flash crowd of
        // any size materializes nothing.
        self.s.coded.meta.reserve(count);
        for _ in 0..count {
            self.add_lazy_peer(time, pieces.bits(), 0, true);
        }
    }

    fn finish(self, events: u64, truncated: bool, horizon: f64) -> SimResult {
        SimResult {
            snapshots: std::mem::take(&mut self.s.snapshots),
            sojourns: self.sojourns,
            transfers: self.useful_transfers,
            unsuccessful_contacts: self.unsuccessful,
            events,
            horizon,
            truncated,
            final_dimensions: std::mem::take(&mut self.s.coded.dim_hist),
        }
    }
}

impl<T: Recorder, B: Basis> State<'_, T, B> {
    fn handle_arrival<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Arrivals);
        // One alias-table draw for the gift class, then a chain of d exact
        // Bernoullis: the i-th random coded piece raises the dimension with
        // probability 1 − q^{dim − K}, so the arrival dimension can fall
        // short of d exactly as in the paper. No basis is built.
        let d = self.s.coded.gift_dims[self.s.coded.gift_alias.sample(rng)] as usize;
        let mut dim = 0u16;
        for _ in 0..d {
            self.rec.incr(Counter::DimFastPathHits);
            if rng.gen::<f64>() >= self.p_inside[dim as usize] {
                dim += 1;
                self.rec.incr(Counter::RankIncreases);
            }
        }
        self.add_lazy_peer(time, 0, dim, true);
    }

    fn handle_seed_tick<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Contacts);
        let n = self.s.coded.meta.len();
        if n == 0 {
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let target = rng.gen_range(0..n);
        let meta = self.s.coded.meta[target];
        let dim = meta.dim as usize;
        if dim == self.k {
            self.unsuccessful += 1;
            self.rec.incr(Counter::DimFastPathHits);
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        // A seed upload is a uniformly random vector of F_q^K: useful with
        // probability exactly 1 − q^{dim − K}, decided from the cached
        // dimension alone.
        if rng.gen::<f64>() < self.p_inside[dim] {
            self.unsuccessful += 1;
            self.rec.incr(Counter::DimFastPathHits);
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        if meta.materialized() {
            // Rejection-sample the inserted vector so it is uniform outside
            // the subspace — the same conditional law as sample-then-test.
            let arena = B::arena(&mut self.s.coded);
            let basis = &mut arena.bases[meta.basis_slot as usize];
            loop {
                basis.random_ambient_row_into(rng, &mut arena.row);
                self.rec.incr(Counter::RrefAbsorbs);
                if basis.absorb(&mut arena.row) {
                    break;
                }
                self.rec.incr(Counter::RejectionRetries);
            }
        } else {
            // Lazy gain: the new vector is uniform outside the subspace, so
            // the peer stays lazy with one more uniform dimension.
            self.s.coded.meta[target].extra += 1;
            self.rec.incr(Counter::DimFastPathHits);
        }
        self.record_dimension_gain(target, time);
    }

    fn handle_peer_tick<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Contacts);
        let n = self.s.coded.meta.len();
        if n == 0 {
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        let uploader = rng.gen_range(0..n);
        let target = rng.gen_range(0..n);
        let up_meta = self.s.coded.meta[uploader];
        let t_meta = self.s.coded.meta[target];
        // Self-contacts and trivial uploaders send nothing useful, and a
        // full-dimension target can learn nothing: all three are decided
        // from the packed metadata without touching a basis.
        if uploader == target || up_meta.dim == 0 || t_meta.dim as usize == self.k {
            self.unsuccessful += 1;
            self.rec.incr(Counter::DimFastPathHits);
            self.rec.incr(Counter::UselessContacts);
            return;
        }
        // Build the uploaded row: a uniform random combination of
        // everything the uploader holds.
        if up_meta.materialized() {
            let arena = B::arena(&mut self.s.coded);
            arena.bases[up_meta.basis_slot as usize].random_combination_into(rng, &mut arena.row);
        } else if up_meta.extra == 0 {
            // Pure-unit uploader: its subspace is the (deterministic) span
            // of its arrival pieces, so no basis is needed.
            let row = &mut B::arena(&mut self.s.coded).row;
            B::unit_combination_into(self.field, self.k, up_meta.unit_bits, rng, row);
        } else {
            // The uploader's coded content matters now: materialize it,
            // then combine.
            let slot = self.materialize(uploader, rng);
            let arena = B::arena(&mut self.s.coded);
            arena.bases[slot].random_combination_into(rng, &mut arena.row);
        }
        // Absorb into the target.
        let useful = if t_meta.materialized() {
            self.rec.incr(Counter::RrefAbsorbs);
            let arena = B::arena(&mut self.s.coded);
            arena.bases[t_meta.basis_slot as usize].absorb(&mut arena.row)
        } else if t_meta.extra == 0 {
            // Pure-unit target: the row is useful iff it has support
            // outside the target's units — a mask check, no basis.
            let outside = B::outside_units(&B::arena(&mut self.s.coded).row, t_meta.unit_bits);
            if !outside {
                self.rec.incr(Counter::DimFastPathHits);
            } else if t_meta.dim as usize + 1 == self.k && self.k <= 64 {
                // Decoding transfer: whatever independent row was gained,
                // the result has dimension K and there is only one such
                // subspace — the full space. The target stays lazy (the
                // completion normalization in `record_dimension_gain`
                // rewrites it as the all-units span) and the basis that
                // the slow path would have built is never consulted.
                self.rec.incr(Counter::DimFastPathHits);
            } else {
                // The gained vector is concrete (it came from a concrete
                // uploader), so the target cannot stay lazy: materialize
                // its (deterministic) unit basis and absorb for real.
                let slot = self.materialize(target, rng);
                self.rec.incr(Counter::RrefAbsorbs);
                let arena = B::arena(&mut self.s.coded);
                let grew = arena.bases[slot].absorb(&mut arena.row);
                debug_assert!(grew, "row with support outside the units is independent");
            }
            outside
        } else {
            // Lazy target with uniform dimensions: its conditional subspace
            // law is independent of the (concrete) row, so materialize it
            // first and let the absorb decide usefulness.
            let slot = self.materialize(target, rng);
            self.rec.incr(Counter::RrefAbsorbs);
            let arena = B::arena(&mut self.s.coded);
            arena.bases[slot].absorb(&mut arena.row)
        };
        if useful {
            self.record_dimension_gain(target, time);
        } else {
            self.unsuccessful += 1;
            self.rec.incr(Counter::UselessContacts);
        }
    }

    fn handle_seed_departure<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::DepartureEvents);
        // One uniform pick from the decoder pool: O(1), no probing.
        let seeds = self.s.coded.seed_pool.len();
        if seeds == 0 {
            return;
        }
        let index = self.s.coded.seed_pool[rng.gen_range(0..seeds)] as usize;
        self.depart(index, time);
    }
}
