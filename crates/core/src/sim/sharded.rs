//! Intra-replication sharding: one swarm's peer population split across
//! worker threads, synchronized at fixed exchange windows.
//!
//! The unsharded kernels simulate one swarm on one thread; Monte-Carlo
//! parallelism comes from running *replications* concurrently. That leaves
//! a single giant replication — a 10M-peer swarm — serial. This module
//! shards the *population* instead: shard `s` owns every peer assigned to
//! it, runs the ordinary turbo kernel over its own sub-population with its
//! own RNG stream, and meets the other shards only at *exchange
//! boundaries* (multiples of the synchronization window, plus flash-crowd
//! times), where cross-shard uploads are delivered in a canonical order.
//!
//! # What is exact and what is relaxed
//!
//! Contacts in the model are uniform-random, so most of the sharded
//! decomposition is *exact* by standard Poisson properties:
//!
//! * **Arrivals** — a Poisson process of rate `λ` thinned uniformly over
//!   `S` shards is `S` independent Poisson processes of rate `λ/S`
//!   (exact). The arriving type is drawn from the same alias table.
//! * **Peer clocks** — each peer's contact clock stays with its shard, so
//!   shard `s` fires peer ticks at the live rate `µ·n_s` and the uploader
//!   is a uniform *local* peer: summed over shards this is exactly the
//!   unsharded uploader law.
//! * **Seed departures** — rate `γ·(local seeds)`, exact; `γ = ∞`
//!   immediate departures are local and exact.
//! * **Window truncation** — stopping every exponential clock at the
//!   boundary and redrawing in the next window is exact by memorylessness.
//!
//! Two things are *relaxed*, and both converge to the unsharded law as the
//! window shrinks (pinned by `crates/core/tests/sharded_distributional.rs`):
//!
//! * **Cross-shard contact timing.** The contact *target* should be
//!   uniform over the global population. The target's shard is drawn from
//!   population weights *frozen at the window start*, and a remote
//!   contact's transfer is delivered at the window *end* (batched into the
//!   exchange round) rather than at the tick time.
//! * **The fixed seed.** Its single rate-`U_s` clock is split across
//!   shards proportionally to the same frozen weights, with a uniform
//!   local target.
//!
//! # Determinism
//!
//! For a fixed `(seed, shards, sync_window)` the run is bit-identical at
//! any [`ShardPlan::jobs`] value: every shard draws only from its own
//! `StdRng` (seeded from the replication stream in shard order), segment
//! execution touches nothing shared, and the exchange round applies
//! offers single-threaded in canonical `(destination, source, sequence)`
//! order using the destination shard's RNG. Changing the shard count (or
//! the window) changes which stream each draw comes from, hence the
//! trajectory — same process, different sample.
//!
//! # Counter attribution
//!
//! A cross-shard contact is counted *entirely at the destination*: the
//! source consumes one uploader draw and records nothing, and applying the
//! offer at the destination counts one event, one contact, and the
//! useful/useless outcome. This keeps the per-shard telemetry partition
//! identities (`arrivals + contacts + departure events = events`,
//! `contacts = useful + useless`) exact on every shard, not just in
//! aggregate.

use super::turbo;
use super::{AgentSwarm, Event, FlashCrowd, KernelKind, KernelState, SimScratch};
use crate::metrics::SimResult;
use crate::SwarmError;
use markov::poisson::{sample_exp, sample_weighted_index};
use pieceset::PieceSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::{NullRecorder, Recorder};

/// A deliberate statistical bias switch for validation *teeth*: the
/// sharded-vs-unsharded distributional battery must fail when a bias is
/// injected, proving the battery can detect a broken exchange. Hidden from
/// docs; never set outside tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBias {
    /// Faithful exchange (the only production value).
    #[default]
    None,
    /// Silently drop every cross-shard offer instead of delivering it —
    /// shards become nearly independent swarms with depressed contact
    /// rates, which the battery must flag.
    DropRemote,
}

/// How to shard one replication's population (see the `sim::sharded` module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPlan {
    /// Number of shards the population is split across (≤ 1 = unsharded).
    pub shards: u32,
    /// Simulated time between exchange boundaries.
    pub sync_window: f64,
    /// Worker threads running shard segments concurrently (clamped to at
    /// least 1 and at most `shards`). Affects wall clock only, never the
    /// result.
    pub jobs: usize,
    /// Validation-teeth bias (see [`ShardBias`]); [`ShardBias::None`] in
    /// production.
    #[doc(hidden)]
    pub bias: ShardBias,
    /// Chaos hook: panic (with a deterministic payload naming the shard)
    /// when this shard starts its first segment. Exercises panic
    /// propagation out of the shard worker pool.
    #[doc(hidden)]
    pub panic_in_shard: Option<u32>,
}

impl ShardPlan {
    /// A plan with the given shard count and window, one worker, no bias.
    #[must_use]
    pub fn new(shards: u32, sync_window: f64) -> Self {
        ShardPlan {
            shards,
            sync_window,
            jobs: 1,
            bias: ShardBias::None,
            panic_in_shard: None,
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Injects the given statistical bias (validation teeth only).
    #[doc(hidden)]
    #[must_use]
    pub fn with_bias(mut self, bias: ShardBias) -> Self {
        self.bias = bias;
        self
    }

    /// Injects a panic in the given shard's first segment (chaos only).
    #[doc(hidden)]
    #[must_use]
    pub fn with_panic_in_shard(mut self, shard: u32) -> Self {
        self.panic_in_shard = Some(shard);
        self
    }
}

/// A cross-shard upload waiting for the next exchange boundary.
struct Offer {
    dst: u32,
    pieces: PieceSet,
}

/// Per-shard driver bookkeeping that lives outside the kernel state.
struct ShardCtx {
    rng: StdRng,
    events: u64,
    /// Next index on the shared snapshot grid `i · interval`.
    next_snapshot: u64,
    outbox: Vec<Offer>,
}

impl AgentSwarm {
    /// Checks that this simulator can run under `plan` without running it:
    /// the sharded driver requires the turbo kernel, no retry speed-up,
    /// and a positive finite synchronization window. A `plan.shards <= 1`
    /// plan (unsharded) is always compatible.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] describing the first
    /// incompatibility.
    pub fn validate_sharded(&self, plan: &ShardPlan) -> Result<(), SwarmError> {
        if plan.shards <= 1 {
            return Ok(());
        }
        if self.config.kernel != KernelKind::Turbo {
            return Err(SwarmError::InvalidParameter(format!(
                "sharded execution requires the turbo kernel (got {:?}); the \
                 scan reference kernel is pinned to its own draw sequence, \
                 which sharding cannot preserve, and the coded kernels are \
                 not sharded yet",
                self.config.kernel
            )));
        }
        if self.config.retry_speedup != 1.0 {
            return Err(SwarmError::InvalidParameter(format!(
                "sharded execution does not model the Section VIII-C retry \
                 speed-up (retry_speedup must be 1, got {})",
                self.config.retry_speedup
            )));
        }
        if !(plan.sync_window.is_finite() && plan.sync_window > 0.0) {
            return Err(SwarmError::InvalidParameter(format!(
                "sync window {} must be positive and finite",
                plan.sync_window
            )));
        }
        Ok(())
    }

    /// Runs one replication sharded across `plan.shards` sub-populations
    /// (see the `sim::sharded` module docs). Requires the [`KernelKind::Turbo`]
    /// kernel and `retry_speedup == 1` (the boost pools are shard-local
    /// state the exchange does not model). `plan.shards <= 1` delegates to
    /// the ordinary unsharded path.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] if the kernel is not
    /// turbo, the retry speed-up is not 1, the sync window is not a
    /// positive finite value, or the initial population / flash schedule
    /// fails [`AgentSwarm::validate_run`].
    pub fn run_sharded<R: Rng>(
        &self,
        initial: &[PieceSet],
        flash: &[FlashCrowd],
        horizon: f64,
        plan: &ShardPlan,
        rng: &mut R,
    ) -> Result<SimResult, SwarmError> {
        let shards = plan.shards.max(1) as usize;
        let mut recorders: Vec<NullRecorder> = (0..shards).map(|_| NullRecorder).collect();
        self.run_sharded_metered(initial, flash, horizon, plan, rng, &mut recorders)
    }

    /// Runs like [`AgentSwarm::run_sharded`] with one instrumentation
    /// [`Recorder`] per shard (`recorders[s]` observes shard `s`;
    /// `recorders.len()` must equal the effective shard count). Recorders
    /// never influence the trajectory, and each shard's counters satisfy
    /// the engine's partition identities on their own (cross-shard
    /// contacts are attributed to the destination shard).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] under the same conditions
    /// as [`AgentSwarm::run_sharded`], or when the recorder slice length
    /// does not match the shard count.
    pub fn run_sharded_metered<R: Rng, T: Recorder + Send>(
        &self,
        initial: &[PieceSet],
        flash: &[FlashCrowd],
        horizon: f64,
        plan: &ShardPlan,
        rng: &mut R,
        recorders: &mut [T],
    ) -> Result<SimResult, SwarmError> {
        self.validate_run(initial, flash)?;
        if plan.shards <= 1 {
            let [recorder] = recorders else {
                return Err(SwarmError::InvalidParameter(format!(
                    "an unsharded run takes exactly one recorder, got {}",
                    recorders.len()
                )));
            };
            return self.run_metered(
                initial,
                flash,
                horizon,
                rng,
                &mut SimScratch::new(),
                recorder,
            );
        }
        self.validate_sharded(plan)?;
        let shards = plan.shards as usize;
        if recorders.len() != shards {
            return Err(SwarmError::InvalidParameter(format!(
                "sharded metering takes one recorder per shard \
                 ({shards} shards, {} recorders)",
                recorders.len()
            )));
        }

        // Initial population: peer i → shard i mod S (round-robin keeps
        // every initial class balanced across shards).
        let mut parts: Vec<Vec<PieceSet>> = vec![Vec::new(); shards];
        for (i, &pieces) in initial.iter().enumerate() {
            parts[i % shards].push(pieces);
        }

        // Per-shard RNG streams, drawn from the replication stream in
        // shard order — the only draws the caller's RNG contributes.
        #[expect(
            clippy::disallowed_methods,
            reason = "per-shard sub-streams seeded from draws on the caller's replication-keyed stream, in fixed shard order — no entropy enters outside the (seed, scenario, replication) key"
        )]
        let mut ctxs: Vec<ShardCtx> = (0..shards)
            .map(|_| ShardCtx {
                rng: StdRng::seed_from_u64(rng.gen::<u64>()),
                events: 0,
                next_snapshot: 1,
                outbox: Vec::new(),
            })
            .collect();

        let mut scratches: Vec<SimScratch> = (0..shards).map(|_| SimScratch::new()).collect();
        let mut states: Vec<turbo::State<'_, T>> = scratches
            .iter_mut()
            .zip(recorders.iter_mut())
            .zip(&parts)
            .map(|((scratch, recorder), part)| turbo::State::new(self, part, scratch, recorder))
            .collect();

        let interval = self.config.snapshot_interval;
        const MAX_PRE_RESERVED_SNAPSHOTS: usize = 1 << 20;
        if horizon.is_finite() && horizon >= 0.0 {
            let grid_points = (horizon / interval).min(MAX_PRE_RESERVED_SNAPSHOTS as f64) as usize;
            for state in &mut states {
                state.reserve_snapshots(grid_points.saturating_add(2));
            }
        }
        for state in &mut states {
            state.record_snapshot(0.0);
        }

        let mut schedule: Vec<FlashCrowd> = flash
            .iter()
            .copied()
            .filter(|c| c.time <= horizon)
            .collect();
        schedule.sort_by(|a, b| a.time.total_cmp(&b.time));
        let mut next_flash = 0usize;

        // Population weights frozen at each exchange boundary.
        let mut weights: Vec<u64> = states.iter().map(|s| s.population() as u64).collect();
        let mut total0: u64 = weights.iter().sum();

        let w = plan.sync_window;
        let mut t0 = 0.0f64;
        let mut window_index: u64 = 1;
        let mut truncated = false;
        let end;
        loop {
            let window_end = ((window_index as f64) * w).min(horizon);
            // The segment ends at the next exchange boundary: the window
            // end, or an earlier flash-crowd time.
            let boundary = match schedule.get(next_flash) {
                Some(c) if c.time <= window_end => c.time,
                _ => window_end,
            };

            run_segments(
                self,
                &mut states,
                &mut ctxs,
                t0,
                boundary,
                &weights,
                total0,
                plan,
            );

            // Exchange round: deliver cross-shard offers at the boundary
            // in canonical (destination, source, sequence) order, on this
            // thread, with the destination shard's RNG — deterministic
            // regardless of how the segments were scheduled.
            let mut exchange: Vec<(u32, u32, u32, PieceSet)> = Vec::new();
            for (src, ctx) in ctxs.iter_mut().enumerate() {
                for (seq, offer) in ctx.outbox.drain(..).enumerate() {
                    exchange.push((offer.dst, src as u32, seq as u32, offer.pieces));
                }
            }
            exchange.sort_unstable_by_key(|&(dst, src, seq, _)| (dst, src, seq));
            for (dst, _, _, pieces) in exchange {
                let dst = dst as usize;
                ctxs[dst].events += 1;
                states[dst].apply_offer(pieces, boundary, &mut ctxs[dst].rng);
            }

            // Flash crowds scheduled at this boundary, split round-robin
            // so every shard injects at the same simulated time.
            while let Some(crowd) = schedule.get(next_flash) {
                if crowd.time > boundary {
                    break;
                }
                let base = crowd.count / shards;
                let rem = crowd.count % shards;
                for (s, state) in states.iter_mut().enumerate() {
                    let share = base + usize::from(s < rem);
                    if share > 0 {
                        state.inject(crowd.time, crowd.pieces, share);
                    }
                }
                next_flash += 1;
            }

            // Refresh the frozen weights for the next window.
            for (weight, state) in weights.iter_mut().zip(&states) {
                *weight = state.population() as u64;
            }
            total0 = weights.iter().sum();

            let total_events: u64 = ctxs.iter().map(|c| c.events).sum();
            if total_events >= self.config.max_events {
                truncated = true;
                end = boundary;
                break;
            }
            if boundary >= horizon {
                end = boundary;
                break;
            }
            t0 = boundary;
            if boundary == window_end {
                window_index += 1;
            }
        }

        // Final snapshot at the end for every shard (mirrors the unsharded
        // driver), then merge in ascending shard order: snapshot grids are
        // element-wise sums, sojourn moments combine via Chan's update.
        let mut merged: Option<SimResult> = None;
        for (state, ctx) in states.into_iter().zip(&mut ctxs) {
            let mut state = state;
            state.record_snapshot(end);
            let shard_result = state.finish(ctx.events, truncated, end);
            match merged.as_mut() {
                None => merged = Some(shard_result),
                Some(into) => merge_results(into, &shard_result),
            }
        }
        merged.ok_or_else(|| {
            SwarmError::InvalidParameter(
                "sharded run produced no shard results to merge (empty shard plan)".into(),
            )
        })
    }
}

/// Runs every shard's segment `[t0, t1)` with shards chunked over workers
/// in index order: chunk 0 on the calling thread, each other chunk on a
/// scoped thread. Panics from shard segments propagate with the
/// payload of the lowest-index panicking shard (chunks are contiguous and
/// joined in order), so chaos failures are deterministic.
#[expect(
    clippy::too_many_arguments,
    reason = "the segment borrows the shard states and contexts mutably and the frozen rates and plan shared; a struct would only rename them"
)]
fn run_segments<T: Recorder + Send>(
    sim: &AgentSwarm,
    states: &mut [turbo::State<'_, T>],
    ctxs: &mut [ShardCtx],
    t0: f64,
    t1: f64,
    weights: &[u64],
    total0: u64,
    plan: &ShardPlan,
) {
    let shards = states.len();
    let jobs = plan.jobs.clamp(1, shards);
    let chunk = shards.div_ceil(jobs);
    let run_chunk =
        |chunk_index: usize, states: &mut [turbo::State<'_, T>], ctxs: &mut [ShardCtx]| {
            for (offset, (state, ctx)) in states.iter_mut().zip(ctxs.iter_mut()).enumerate() {
                let shard = (chunk_index * chunk + offset) as u32;
                run_shard_segment(sim, state, ctx, shard, t0, t1, weights, total0, plan);
            }
        };
    let mut chunks = states.chunks_mut(chunk).zip(ctxs.chunks_mut(chunk));
    // Chunk 0 runs on the calling thread, which would otherwise only wait.
    let first = chunks.next();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(offset, (states, ctxs))| {
                scope.spawn(move || run_chunk(offset + 1, states, ctxs))
            })
            .collect();
        let mut payload = first.and_then(|(states, ctxs)| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_chunk(0, states, ctxs)))
                .err()
        });
        for handle in handles {
            if let Err(panic) = handle.join() {
                payload.get_or_insert(panic);
            }
        }
        if let Some(panic) = payload {
            std::panic::resume_unwind(panic);
        }
    });
}

/// One shard's event loop over the segment `[t0, t1)`: the unsharded
/// driver's aggregate-clock loop, restricted to shard-local rates, with
/// remote-target peer ticks queued as offers instead of handled.
#[expect(
    clippy::too_many_arguments,
    reason = "one shard's share of run_segments' arguments, passed through unchanged"
)]
fn run_shard_segment<T: Recorder>(
    sim: &AgentSwarm,
    state: &mut turbo::State<'_, T>,
    ctx: &mut ShardCtx,
    shard: u32,
    t0: f64,
    t1: f64,
    weights: &[u64],
    total0: u64,
    plan: &ShardPlan,
) {
    if t0 == 0.0 && plan.panic_in_shard == Some(shard) {
        std::panic::panic_any(format!("injected shard fault: panic in shard {shard}"));
    }
    let params = &sim.params;
    let interval = sim.config.snapshot_interval;
    let shards = weights.len();
    let arrival_rate = params.total_arrival_rate() / shards as f64;
    let mu = params.contact_rate();
    let gamma_finite = !params.departs_immediately();
    let gamma = if gamma_finite {
        params.seed_departure_rate()
    } else {
        0.0
    };
    // Frozen for the whole segment: the share of the fixed seed's clock
    // this shard runs, and the probability a peer tick's target is local.
    let (seed_tick_rate, local_target) = if total0 > 0 {
        (
            params.seed_rate() * weights[shard as usize] as f64 / total0 as f64,
            weights[shard as usize] as f64 / total0 as f64,
        )
    } else {
        (0.0, 1.0)
    };

    let mut time = t0;
    loop {
        // `max_events` is primarily enforced globally at exchange
        // boundaries; this local guard (same budget) only bounds a single
        // runaway window.
        if ctx.events >= sim.config.max_events {
            record_grid(state, ctx, interval, t1);
            break;
        }
        let n = state.population();
        let seeds = if gamma_finite { state.seed_count() } else { 0 };
        let rates = [
            arrival_rate,
            seed_tick_rate,
            mu * n as f64,
            gamma * seeds as f64,
        ];
        let total: f64 = rates.iter().sum();
        let new_time = if total > 0.0 {
            time + sample_exp(&mut ctx.rng, total)
        } else {
            f64::INFINITY
        };
        // Record every shared-grid snapshot crossed before the event (or
        // before the boundary): all shards cross the same grid points by
        // the time the segment ends, keeping their snapshot vectors
        // aligned index-by-index.
        record_grid(state, ctx, interval, new_time.min(t1));
        if new_time >= t1 {
            break;
        }
        time = new_time;
        #[expect(
            clippy::expect_used,
            reason = "total rate > 0 here: a zero-rate shard takes the window-boundary break above"
        )]
        let event = sample_weighted_index(&mut ctx.rng, &rates).expect("positive total rate");
        let event = Event::ALL[event];
        if event == Event::PeerTick && ctx.rng.gen::<f64>() >= local_target {
            // Remote target: draw the destination shard from the frozen
            // weights and queue the uploader's collection for the exchange
            // round. The event and the contact are counted at the
            // destination when the offer is applied — nothing is recorded
            // here.
            let dst = pick_remote_shard(&mut ctx.rng, weights, shard, total0);
            if let Some(pieces) = state.offer_pieces(&mut ctx.rng) {
                match plan.bias {
                    ShardBias::None => ctx.outbox.push(Offer { dst, pieces }),
                    ShardBias::DropRemote => {}
                }
            }
            continue;
        }
        // One event at a time: the shard's clock advances per event, so a
        // self-loop needs no stretch of its own.
        ctx.events += 1;
        match state.decide(event, &mut ctx.rng) {
            Some(change) => state.apply(change, time, &mut ctx.rng),
            None => state.record_self_loops(1),
        }
    }
}

/// Records every shared-grid snapshot with time ≤ `limit`.
fn record_grid<T: Recorder>(
    state: &mut turbo::State<'_, T>,
    ctx: &mut ShardCtx,
    interval: f64,
    limit: f64,
) {
    while (ctx.next_snapshot as f64) * interval <= limit {
        state.record_snapshot((ctx.next_snapshot as f64) * interval);
        ctx.next_snapshot += 1;
    }
}

/// Draws the destination shard of a remote contact: shard `d ≠ src` with
/// probability proportional to its frozen weight. Only reachable when some
/// other shard has positive frozen weight (otherwise the local-target coin
/// fires with probability one).
fn pick_remote_shard<R: Rng>(rng: &mut R, weights: &[u64], src: u32, total0: u64) -> u32 {
    let remote_total = total0 - weights[src as usize];
    debug_assert!(remote_total > 0, "remote branch needs remote weight");
    let mut draw = rng.gen_range(0..remote_total);
    for (shard, &weight) in weights.iter().enumerate() {
        if shard as u32 == src {
            continue;
        }
        if draw < weight {
            return shard as u32;
        }
        draw -= weight;
    }
    unreachable!("weighted draw stays below the remote total")
}

/// Folds shard `from`'s result into `into` (called in ascending shard
/// order): snapshot grids are summed index-by-index (the segment loop
/// guarantees identical grids), scalar totals add, and sojourn moments
/// combine via [`crate::metrics::SojournStats::merge`].
fn merge_results(into: &mut SimResult, from: &SimResult) {
    assert_eq!(
        into.snapshots.len(),
        from.snapshots.len(),
        "shard snapshot grids must align"
    );
    for (a, b) in into.snapshots.iter_mut().zip(&from.snapshots) {
        assert!(
            a.time == b.time,
            "shard snapshot times must align ({} vs {})",
            a.time,
            b.time
        );
        a.total_peers += b.total_peers;
        a.peer_seeds += b.peer_seeds;
        a.watch_piece_downloads += b.watch_piece_downloads;
        a.arrivals_without_watch += b.arrivals_without_watch;
        a.watch_piece_copies += b.watch_piece_copies;
        a.groups.normal_young += b.groups.normal_young;
        a.groups.infected += b.groups.infected;
        a.groups.gifted += b.groups.gifted;
        a.groups.one_club += b.groups.one_club;
        a.groups.former_one_club += b.groups.former_one_club;
    }
    into.sojourns.merge(&from.sojourns);
    into.transfers += from.transfers;
    into.unsuccessful_contacts += from.unsuccessful_contacts;
    into.events += from.events;
    debug_assert_eq!(into.truncated, from.truncated);
    debug_assert_eq!(into.horizon.to_bits(), from.horizon.to_bits());
}
