//! The bitsliced `GF(2)` network-coding kernel: Theorem 15's coded swarm
//! with lazy peers and whole-word linear algebra.
//!
//! The reference [`coded`](super::coded) kernel materializes a
//! [`netcoding::Subspace`] basis for *every* peer and reduces a full
//! `Vec<u32>` coding vector on every arrival gift and every seed upload —
//! its telemetry shows `basis_materializations == rref_absorbs`, i.e. the
//! "dimension-only fast path" never avoids basis work. Over `GF(2)` almost
//! all of that work is unnecessary:
//!
//! * **Bitsliced bases.** A peer's subspace, when it is held at all, is a
//!   [`BitSubspace`]: `dim` rows of `⌈K/64⌉` packed `u64` words in an arena
//!   of recycled slots. Reduction is whole-word XOR, pivots are
//!   trailing-bit positions, rank is the row count.
//! * **Lazy peers.** Most peers never need a basis. A peer whose subspace
//!   so far is (unit vectors of its arrival pieces) ⊕ (`extra` dimensions
//!   gained from uniformly random coded pieces) is represented by just the
//!   pair `(unit_bits, extra)` in its 32-byte meta record. This is *exact*,
//!   not approximate: conditioned on that pair, the subspace is uniformly
//!   distributed among the `(|unit_bits| + extra)`-dimensional subspaces
//!   containing the unit span — uniform random vectors and the
//!   `GL`-invariance of the Grassmannian make every dimension-only decision
//!   below distribution-identical to tracking the basis explicitly — and
//!   lazy peers stay independent of each other because no transfer between
//!   two peers ever resolves lazily.
//!   - An *arrival gift* of `d` random pieces is a chain of `d` Bernoulli
//!     trials with the exact success probability `1 − 2^{dim−K}`: the new
//!     peer starts lazy as `(0, dim)`.
//!   - A *fixed-seed upload* is a uniformly random vector of `F_2^K`; to a
//!     lazy target it resolves through the same Bernoulli and, when useful,
//!     simply increments `extra`.
//!   - A *peer upload* from a pure-unit peer (`extra == 0`, the usual state
//!     of initial populations and flash crowds) is a random subset XOR of
//!     its units: one `rng` word AND-ed against `unit_bits`, no basis.
//!   - A *decoding transfer* — any gain that raises a peer to dimension `K`
//!     — needs no basis at all when `K ≤ 64`: the only `K`-dimensional
//!     subspace of `F_2^K` is the full space, which is itself the span of
//!     all `K` units, so the completed peer collapses back to the
//!     pure-unit representation and its future uploads are masked-word
//!     draws. In near-completion populations (the benchmark's one-short
//!     initial swarm) this removes almost every materialization.
//! * **Materialization is the slow path and it is permanent.** The first
//!   peer-to-peer transfer that actually depends on a peer's coded content
//!   materializes its basis — unit rows are written directly (they already
//!   form an RREF), and `extra` dimensions are drawn by absorbing uniform
//!   random rows until the cached rank is reached, which samples exactly
//!   the conditional subspace law. From then on that peer is tracked
//!   explicitly, so correlations introduced by shared coded pieces are
//!   exact. Departing peers return their basis slot to the arena.
//!
//! The kernel keeps the turbo tricks of [`turbo`](super::turbo): alias-table
//! gift draws, swap-remove decoder pools, packed per-peer meta, and
//! [`SimScratch`] arena reuse across replications. Like turbo it is
//! parity-*free*: it samples each outcome from the correct distribution but
//! consumes different draws than the reference coded kernel, so it is
//! validated distributionally against that kernel
//! (`crates/core/tests/coded_distributional.rs`) and against the exact
//! stationary law of the `K = 1` chain (`tests/simulators_agree.rs`).
//!
//! # Counter semantics
//!
//! The 13-counter algebra extends to this kernel with the laziness made
//! observable:
//!
//! * `DimFastPathHits` counts every decision resolved from cached
//!   dimensions or unit masks alone — gift Bernoullis, seed-upload
//!   Bernoullis (both outcomes), lazy seed gains, trivial contact rejects,
//!   and unit-mask usefulness checks. It dominates by construction.
//! * `BasisMaterializations` counts *lazy-peer materialization events* —
//!   not, as in the reference kernel's original (miscounted) ledger, every
//!   constructed row. `basis_materializations < rref_absorbs` is asserted
//!   by `crates/core/tests/telemetry_counters.rs`.
//! * `RrefAbsorbs` counts every reduction against a real basis (including
//!   during materialization), `RejectionRetries` the failed ones inside
//!   rejection loops, and `RankIncreases` every dimension gained by a peer
//!   — lazily or through a basis.
//!
//! The observable mapping (groups, `watch_piece_copies` = Σ dim, decoders,
//! dimension histogram) is identical to the reference coded kernel's.

use super::turbo::SimScratch;
use super::{AgentSwarm, Event, KernelState};
use crate::coded::CodedGifts;
use crate::groups::{GroupCounts, PeerGroup};
use crate::metrics::{SimResult, SimSnapshot, SojournStats};
use markov::alias::AliasTable;
use netcoding::BitSubspace;
use pieceset::PieceSet;
use rand::Rng;
use telemetry::{Counter, Recorder};

/// Sentinel for "this peer is not in the seed pool".
const NOT_A_SEED: u32 = u32::MAX;
/// Sentinel for "this peer is lazy: no basis slot assigned".
const NOT_MATERIALIZED: u32 = u32::MAX;

/// All per-peer bookkeeping of the coded turbo kernel in one 32-byte
/// record. A lazy peer is fully described by `(unit_bits, extra)`; a
/// materialized one by its arena slot.
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

/// Reusable buffers of the coded turbo kernel, embedded in [`SimScratch`]:
/// the peer table, the decoder pool, the basis arena with its free list,
/// and the gift alias table — all recycled across replications.
#[derive(Debug, Default)]
pub(super) struct CodedScratch {
    meta: Vec<CtMeta>,
    /// Peers at full dimension (swap-remove index pool).
    seed_pool: Vec<u32>,
    /// Arena of materialized bases; departed peers return their slot.
    bases: Vec<BitSubspace>,
    /// Recyclable slots in `bases`.
    free_slots: Vec<u32>,
    /// Scratch row for sampling and absorbing coded pieces.
    row: Vec<u64>,
    /// Second scratch row used by materialization, so materializing a lazy
    /// target does not clobber the uploaded row held in `row`.
    mat_row: Vec<u64>,
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
    /// with `k` pieces and the given gift mix.
    fn reset_for(&mut self, k: usize, gifts: &CodedGifts) {
        self.meta.clear();
        self.seed_pool.clear();
        self.free_slots.clear();
        for (slot, basis) in self.bases.iter_mut().enumerate() {
            basis.reset(k);
            self.free_slots.push(slot as u32);
        }
        self.row.clear();
        self.mat_row.clear();
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

/// Mutable state of the coded turbo kernel: borrowed scratch buffers plus
/// the run-local aggregates.
pub(super) struct State<'a, T: Recorder> {
    sim: &'a AgentSwarm,
    /// Instrumentation hook; the [`telemetry::NullRecorder`] default
    /// monomorphizes every call site below to nothing.
    rec: &'a mut T,
    k: usize,
    /// Unit mask of the full space (all `K` unit vectors). Only meaningful
    /// when `K ≤ 64`, which gates the decode shortcut below.
    full_units: u64,
    /// Probability that a uniformly random vector of `F_2^K` lies inside a
    /// `d`-dimensional subspace: `2^{d − K}`, precomputed per dimension.
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
}

impl<'a, T: Recorder> State<'a, T> {
    pub(super) fn new(
        sim: &'a AgentSwarm,
        gifts: &CodedGifts,
        initial: &[PieceSet],
        scratch: &'a mut SimScratch,
        rec: &'a mut T,
    ) -> Self {
        let k = sim.params.num_pieces();
        debug_assert_eq!(gifts.field.order(), 2, "established by with_coded");
        scratch.snapshots.clear();
        scratch.coded.reset_for(k, gifts);
        rec.incr(Counter::AliasRebuilds);
        let mut state = State {
            sim,
            rec,
            k,
            full_units: if k >= 64 { u64::MAX } else { (1u64 << k) - 1 },
            p_inside: (0..=k).map(|d| 2f64.powi(d as i32 - k as i32)).collect(),
            s: scratch,
            groups: GroupCounts::default(),
            dim_sum: 0,
            decodes: 0,
            blank_arrivals: 0,
            useful_transfers: 0,
            unsuccessful: 0,
            sojourns: SojournStats::default(),
        };
        state.s.coded.meta.reserve(initial.len());
        for &pieces in initial {
            state.add_lazy_peer(0.0, pieces.bits(), 0, false);
        }
        state
    }

    /// The dimension decomposition (identical to the reference kernel's).
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
        let c = &mut self.s.coded;
        debug_assert!(!c.meta[peer].materialized());
        let slot = match c.free_slots.pop() {
            Some(slot) => {
                c.bases[slot as usize].reset(self.k);
                slot as usize
            }
            None => {
                c.bases.push(BitSubspace::empty(self.k));
                c.bases.len() - 1
            }
        };
        c.meta[peer].basis_slot = slot as u32;
        let target_dim = c.meta[peer].dim as usize;
        let basis = &mut c.bases[slot];
        basis.set_units(c.meta[peer].unit_bits);
        self.rec.incr(Counter::BasisMaterializations);
        while basis.dimension() < target_dim {
            basis.random_ambient_row_into(rng, &mut c.mat_row);
            self.rec.incr(Counter::RrefAbsorbs);
            if !basis.absorb(&mut c.mat_row) {
                self.rec.incr(Counter::RejectionRetries);
            }
        }
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
                // F_2^K is the full space, which is itself the span of all
                // K unit vectors. A lazy peer that completes therefore
                // collapses to the pure-unit representation — its future
                // uploads are masked-word draws, never a materialization.
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
            c.free_slots.push(meta.basis_slot);
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

impl<T: Recorder> KernelState for State<'_, T> {
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
        // the coded-turbo kernel has always drawn.
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

impl<T: Recorder> State<'_, T> {
    fn handle_arrival<R: Rng>(&mut self, time: f64, rng: &mut R) {
        self.rec.incr(Counter::Arrivals);
        // One alias-table draw for the gift class, then a chain of d exact
        // Bernoullis: the i-th random coded piece raises the dimension with
        // probability 1 − 2^{dim − K}, so the arrival dimension can fall
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
        // A seed upload is a uniformly random vector of F_2^K: useful with
        // probability exactly 1 − 2^{dim − K}, decided from the cached
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
            let c = &mut self.s.coded;
            let basis = &mut c.bases[meta.basis_slot as usize];
            loop {
                basis.random_ambient_row_into(rng, &mut c.row);
                self.rec.incr(Counter::RrefAbsorbs);
                if basis.absorb(&mut c.row) {
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
            let c = &mut self.s.coded;
            c.bases[up_meta.basis_slot as usize].random_combination_into(rng, &mut c.row);
        } else if up_meta.extra == 0 {
            // Pure-unit uploader: its subspace is the (deterministic) span
            // of its arrival pieces, so a uniform combination is a random
            // subset XOR of unit vectors — one drawn word, no basis.
            let c = &mut self.s.coded;
            let words = self.k.div_ceil(64);
            c.row.clear();
            c.row.resize(words, 0);
            c.row[0] = rng.gen::<u64>() & up_meta.unit_bits;
        } else {
            // The uploader's coded content matters now: materialize it,
            // then combine.
            let slot = self.materialize(uploader, rng);
            let c = &mut self.s.coded;
            c.bases[slot].random_combination_into(rng, &mut c.row);
        }
        // Absorb into the target.
        let useful = if t_meta.materialized() {
            let c = &mut self.s.coded;
            self.rec.incr(Counter::RrefAbsorbs);
            c.bases[t_meta.basis_slot as usize].absorb(&mut c.row)
        } else if t_meta.extra == 0 {
            // Pure-unit target: the row is useful iff it has support
            // outside the target's units — a mask check, no basis.
            let c = &self.s.coded;
            let outside = (c.row[0] & !t_meta.unit_bits) != 0 || c.row[1..].iter().any(|&w| w != 0);
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
                let c = &mut self.s.coded;
                self.rec.incr(Counter::RrefAbsorbs);
                let grew = c.bases[slot].absorb(&mut c.row);
                debug_assert!(grew, "row with support outside the units is independent");
            }
            outside
        } else {
            // Lazy target with uniform dimensions: its conditional subspace
            // law is independent of the (concrete) row, so materialize it
            // first and let the absorb decide usefulness.
            let slot = self.materialize(target, rng);
            let c = &mut self.s.coded;
            self.rec.incr(Counter::RrefAbsorbs);
            c.bases[slot].absorb(&mut c.row)
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
