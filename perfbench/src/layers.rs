//! The traced run: each workload's per-layer metrics and self-time split.
//!
//! A traced run first executes the workload untraced, as the end-to-end
//! runs do. It then executes it again with a span around every call the
//! benchmark makes into a layer (the root span is the workload), checks
//! that both executions gave the same output, and splits the traced wall
//! time into per-layer self times. Last it probes single layers directly —
//! replications replayed call by call, kernels on counted streams, the RNG
//! on a long stream — for the per-layer metrics. A metric of a layer the
//! workload never calls stays 0.

use crate::metrics::{self, Outcome, KERNELS};
use crate::probe::{CountingRng, TimingSink};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workloads::{self as wl, Budget, Run, Workload, SETUP_HORIZON};
use engine::{replication_rng, AgentScenario, EngineConfig, Session};
use markov::PathClassifier;
use pieceset::PieceSet;
use rand::RngCore;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use swarm::sim::{AgentSwarm, SimScratch};
use swarm::SwarmModel;
use telemetry::{Counter, CounterRecorder, CounterSet, NullRecorder, Recorder};
use workload::ScenarioRunReport;

type Values = BTreeMap<String, f64>;

fn set(values: &mut Values, name: impl Into<String>, value: f64) {
    values.insert(name.into(), value);
}

pub fn trace(workload: Workload, seed: u64, dir: &Path) -> Outcome {
    let mut tracer = Tracer::new();
    let mut values = Values::new();
    let mut ops = Run::default();
    let reference = wl::execute(workload, seed, Budget::Full, dir);
    let (reference_wall, reference_digest) = (reference.wall_s, reference.digest);
    ops.absorb(reference);
    let mut traced = Run::default();
    let root = match workload {
        Workload::PaperFull => paper(&mut tracer, &mut values, &mut traced, seed, dir),
        Workload::ReplicationBatch => batch(&mut tracer, &mut values, &mut traced, seed, dir),
        Workload::GiantSwarm => giant(&mut tracer, &mut values, &mut traced, seed),
    };
    if traced.digest != reference_digest {
        traced.problem("the traced execution's output differs from the untraced one");
    }
    traced.close_invocation();
    ops.absorb(traced);

    let wall = tracer.get(root).nanos() as f64 / 1e9;
    set(&mut values, "trace.wall_s", wall);
    set(&mut values, "trace.overhead", wall / reference_wall - 1.0);
    for (layer, seconds) in tracer.self_times(root) {
        set(&mut values, format!("self.{layer}_s"), seconds);
    }
    match workload {
        Workload::PaperFull => ctmc_probe(&mut tracer, &mut values, seed),
        Workload::ReplicationBatch => batch_probes(
            &mut tracer,
            &mut values,
            &mut ops,
            seed,
            dir,
            (reference_digest, wall),
        ),
        Workload::GiantSwarm => giant_probes(&mut tracer, &mut values, &mut ops, seed),
    }
    rng_probe(&mut values, seed);
    for kernel in KERNELS {
        let draws = values
            .get(&format!("sim.{kernel}.draws_per_event"))
            .copied();
        let ns = values.get(&format!("sim.{kernel}.ns_per_event")).copied();
        if let (Some(draws), Some(ns)) = (draws, ns) {
            let share = ratio(draws * values["rng.ns_per_u64"], ns);
            set(&mut values, format!("sim.{kernel}.rng_share"), share);
        }
    }

    let spans = crate::out_dir().join(format!("spans-{}.jsonl", workload.name()));
    if let Err(e) = tracer.write(&spans) {
        ops.problem(format!("cannot write {}: {e}", spans.display()));
    }
    eprintln!(
        "{} traced: untraced {reference_wall:.3} s, traced {wall:.3} s; spans in {}",
        workload.name(),
        spans.display()
    );
    wl::report_problems(&ops.problems);
    Outcome::new(ops.attempted, ops.failed, &metrics::per_layer(), &values)
}

fn seconds(tracer: &Tracer, id: usize) -> f64 {
    tracer.get(id).nanos() as f64 / 1e9
}

/// A fresh directory for one execution's files (see `wl::fresh_dir`).
fn fresh(base: &Path, run: &mut Run) -> PathBuf {
    wl::fresh_dir(base).unwrap_or_else(|e| {
        run.problem(e);
        base.to_path_buf()
    })
}

// ---------------------------------------------------------------------
// Traced executions
// ---------------------------------------------------------------------

fn paper(t: &mut Tracer, values: &mut Values, run: &mut Run, seed: u64, base: &Path) -> usize {
    let dir = &fresh(base, run);
    let config = wl::paper_config(seed, Budget::Full);
    let root = t.open("paper-full");
    let reports: Vec<_> = wl::EXPERIMENTS
        .iter()
        .map(|(name, experiment)| t.span(name, || experiment(&config)))
        .collect();
    let artifacts = t.open("workload.artifacts");
    let written = wl::write_artifacts(dir, &config, &reports, &mut Some(&mut *t));
    t.close(artifacts);
    t.close(root);
    match written {
        Ok(()) => wl::check_paper(&reports, dir, &config, run),
        Err(e) => run.problem(format!("paper-full artifacts: {e}")),
    }
    for (name, _) in wl::EXPERIMENTS {
        set(values, format!("{name}_s"), t.mean(name));
    }
    set(values, "workload.artifacts_s", seconds(t, artifacts));
    set(
        values,
        "session.build_s",
        t.durations("session.build").iter().sum(),
    );
    root
}

fn batch(t: &mut Tracer, values: &mut Values, run: &mut Run, seed: u64, base: &Path) -> usize {
    // The calls `registry::run_with_sink` makes, one span each.
    let dir = &fresh(base, run);
    let checkpoint = dir.join(wl::CHECKPOINT_FILE);
    let options = wl::batch_options(seed, wl::jobs(), Budget::Full, Some(&checkpoint));
    let root = t.open("replication-batch");
    let compiled = t.span("workload.compile", || {
        let spec = wl::batch_spec()?;
        let scenario = spec.compile(0).map_err(|e| e.to_string())?;
        Ok::<_, String>((spec, scenario))
    });
    let (spec, scenario) = match compiled {
        Ok(compiled) => compiled,
        Err(e) => {
            t.close(root);
            run.problem(e);
            return root;
        }
    };
    let config = EngineConfig::default()
        .with_replications(options.replications)
        .with_horizon(spec.horizon)
        .with_master_seed(seed)
        .with_jobs(options.jobs)
        .with_metrics(true)
        .with_failure_policy(options.failure_policy);
    let mut builder = Session::builder()
        .config(config)
        .workload(engine::Workload::agent(vec![scenario]));
    if let Some(spec) = options.checkpoint {
        builder = builder.checkpoint(spec);
    }
    let session = t.span("session.build", || builder.build());
    let session = match session {
        Ok(session) => session,
        Err(e) => {
            t.close(root);
            run.problem(e.to_string());
            return root;
        }
    };
    let stream = t.open("session.stream");
    let mut sink = TimingSink::new(wl::metrics_sink(), t.epoch(), Some(checkpoint.clone()));
    let output = session.stream(&mut sink);
    t.close(stream);
    t.close(root);
    for &(start, end) in &sink.records {
        t.record("sink.record", start, end, stream);
    }
    if let Some((start, end)) = sink.end {
        t.record("sink.end", start, end, stream);
    }
    set(values, "session.build_s", t.mean("session.build"));
    set(values, "sink.record_us", t.mean("sink.record") * 1e6);
    set(values, "checkpoint.writes", sink.checkpoint_writes as f64);
    let checkpoint_bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
    set(values, "checkpoint.bytes", checkpoint_bytes as f64);
    let (batch, ndjson) = sink.inner.into_parts();
    set(values, "sink.ndjson_bytes", ndjson.len() as f64);
    if let Some(stats) = &batch.stats {
        set(
            values,
            "session.queue_wait_s",
            stats.queue_wait_nanos.sum() as f64 / 1e9,
        );
        set(values, "session.max_pending", stats.max_pending as f64);
    }
    match output.into_agent().and_then(|o| o.into_iter().next()) {
        Some(outcome) => {
            let report = ScenarioRunReport {
                horizon: spec.horizon,
                spec,
                outcome,
                replications: options.replications,
                failures: batch.failures.clone(),
            };
            wl::check_batch(&report, &batch, &ndjson, dir, run);
        }
        None => run.problem("the batch session returned no outcome"),
    }
    root
}

fn giant(t: &mut Tracer, values: &mut Values, run: &mut Run, seed: u64) -> usize {
    // At one worker a session's stream runs exactly these calls, so the
    // traced execution replays them after building (and so validating)
    // each session.
    let root = t.open("giant-swarm");
    let mut results = Vec::new();
    for (scenario, horizon) in wl::giant_scenarios() {
        let built = t.span("session.build", || {
            Session::builder()
                .config(wl::giant_config(seed, horizon))
                .workload(engine::Workload::agent(vec![scenario.clone()]))
                .build()
        });
        if let Err(e) = built {
            run.problem(format!("{}: {e}", scenario.label));
            continue;
        }
        match replay(t, &scenario, seed, 0, horizon, &mut SimScratch::new(), None) {
            Ok(result) => results.push(result),
            Err(e) => run.problem(format!("{}: {e}", scenario.label)),
        }
    }
    t.close(root);
    run.digest = wl::giant_digest(results.iter().map(|r| (r.class, r.events, r.transfers)));
    set(
        values,
        "session.build_s",
        t.durations("session.build").iter().sum(),
    );
    set(values, "agent.build_us", t.mean("agent.build") * 1e6);
    set(
        values,
        "markov.classify_us",
        t.mean("markov.classify") * 1e6,
    );
    root
}

/// What one replayed replication produced.
struct Replayed {
    class: markov::PathClass,
    tail_slope: f64,
    tail_average: f64,
    events: u64,
    transfers: u64,
    truncated: bool,
}

/// One replication as the engine runs it — simulator and population build,
/// stream derivation, kernel run, path classification — one span per call.
/// With a recorder the kernel runs metered, as sessions with metrics on do.
fn replay(
    t: &mut Tracer,
    scenario: &AgentScenario,
    seed: u64,
    replication: u32,
    horizon: f64,
    scratch: &mut SimScratch,
    recorder: Option<&mut CounterRecorder>,
) -> Result<Replayed, String> {
    let (sim, initial) = t.span("agent.build", || {
        (scenario.build_sim(), scenario.initial_population())
    });
    let sim = sim.map_err(|e| e.to_string())?;
    let mut rng = t.span("rng.setup", || {
        replication_rng(seed, scenario.id, u64::from(replication))
    });
    let result = t
        .span("sim.run", || match recorder {
            Some(recorder) => sim.run_metered(
                &initial,
                &scenario.flash,
                horizon,
                &mut rng,
                scratch,
                recorder,
            ),
            None => sim.run_with_scratch(&initial, &scenario.flash, horizon, &mut rng, scratch),
        })
        .map_err(|e| e.to_string())?;
    // The classifier the engine configures for every agent replication.
    let return_level = (3.0 * initial.len() as f64).max(30.0);
    let verdict = t.span("markov.classify", || {
        PathClassifier::new(scenario.params.total_arrival_rate(), return_level)
            .classify(&result.peer_count_path())
    });
    let replayed = Replayed {
        class: verdict.class,
        tail_slope: verdict.tail_slope,
        tail_average: verdict.tail_average,
        events: result.events,
        transfers: result.transfers,
        truncated: result.truncated,
    };
    scratch.recycle(result);
    Ok(replayed)
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/// `engine::rng`: key derivation plus stream selection per replication,
/// and the cost of one `u64` on a long stream (median of five chunks).
fn rng_probe(values: &mut Values, seed: u64) {
    const STREAMS: u64 = 200_000;
    const DRAWS: u32 = 1 << 22;
    let start = Instant::now();
    for r in 0..STREAMS {
        black_box(replication_rng(seed, 0, r));
    }
    let setup_ns = start.elapsed().as_nanos() as f64 / STREAMS as f64;
    let per_draw: Vec<f64> = (0..5)
        .map(|chunk| {
            let mut rng = replication_rng(seed, 1, chunk);
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..DRAWS {
                acc ^= rng.next_u64();
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / f64::from(DRAWS)
        })
        .collect();
    set(values, "rng.stream_setup_ns", setup_ns);
    set(values, "rng.ns_per_u64", median(&per_draw));
}

/// Kernel time, draws and counters of one scenario over some replications.
#[derive(Default)]
struct KernelStats {
    runs: u64,
    init_s: f64,
    plain_s: f64,
    metered_s: f64,
    events: u64,
    draws: u64,
    counters: CounterSet,
}

/// A scenario's simulator and initial population, built once for a probe.
struct Kernel<'a> {
    scenario: &'a AgentScenario,
    sim: AgentSwarm,
    initial: Vec<PieceSet>,
}

impl Kernel<'_> {
    /// One run in a span named `name`, its buffers handed back to the
    /// scratch: `(events, transfers, seconds)`.
    fn run<R: rand::Rng, T: Recorder>(
        &self,
        t: &mut Tracer,
        name: &'static str,
        horizon: f64,
        rng: &mut R,
        scratch: &mut SimScratch,
        recorder: &mut T,
    ) -> Result<(u64, u64, f64), String> {
        let id = t.open(name);
        let result = self.sim.run_metered(
            &self.initial,
            &self.scenario.flash,
            horizon,
            rng,
            scratch,
            recorder,
        );
        t.close(id);
        let result = result.map_err(|e| e.to_string())?;
        let out = (result.events, result.transfers, seconds(t, id));
        scratch.recycle(result);
        Ok(out)
    }
}

/// `swarm::sim` and `telemetry`: per replication, a horizon ≈ 0 run (the
/// state build, which also warms the scratch), a timed run on a counted
/// stream, and a metered run on the same stream for the kernel counters.
fn probe_kernel(
    t: &mut Tracer,
    scenario: &AgentScenario,
    horizon: f64,
    seed: u64,
    replications: u32,
    run: &mut Run,
) -> KernelStats {
    let mut stats = KernelStats::default();
    let kernel = match scenario.build_sim() {
        Ok(sim) => Kernel {
            scenario,
            sim,
            initial: scenario.initial_population(),
        },
        Err(e) => {
            run.problem(format!("{}: {e}", scenario.label));
            return stats;
        }
    };
    let mut scratch = SimScratch::new();
    let stream = |r: u32| replication_rng(seed, scenario.id, u64::from(r));
    for r in 0..replications {
        let mut counted = CountingRng::new(stream(r));
        let mut recorder = CounterRecorder::new();
        let probed = (|| {
            let s = &mut scratch;
            let init = kernel.run(
                t,
                "sim.init",
                SETUP_HORIZON,
                &mut stream(r),
                s,
                &mut NullRecorder,
            )?;
            let plain = kernel.run(t, "sim.plain", horizon, &mut counted, s, &mut NullRecorder)?;
            let metered =
                kernel.run(t, "sim.metered", horizon, &mut stream(r), s, &mut recorder)?;
            Ok::<_, String>((init, plain, metered))
        })();
        let ((init_events, _, init_s), (events, transfers, plain_s), metered) = match probed {
            Ok(probed) => probed,
            Err(e) => {
                run.problem(format!("{}: {e}", scenario.label));
                continue;
            }
        };
        if init_events != 0 {
            run.problem(format!(
                "{}: a horizon ≈ 0 run fired events",
                scenario.label
            ));
        }
        if (metered.0, metered.1) != (events, transfers) {
            run.problem(format!("{}: metering changed the run", scenario.label));
        }
        stats.runs += 1;
        stats.init_s += init_s;
        stats.plain_s += plain_s;
        stats.metered_s += metered.2;
        stats.events += events;
        stats.draws += counted.draws();
        stats.counters.merge(&recorder.counters);
    }
    stats
}

fn set_kernel(values: &mut Values, kernel: &str, stats: &KernelStats) {
    let events = stats.events as f64;
    let c = &stats.counters;
    let per_event = |counter| ratio(c.get(counter) as f64, events);
    set(
        values,
        format!("sim.{kernel}.ns_per_event"),
        ratio(stats.plain_s * 1e9, events),
    );
    set(
        values,
        format!("sim.{kernel}.init_s"),
        ratio(stats.init_s, stats.runs as f64),
    );
    set(
        values,
        format!("sim.{kernel}.events"),
        ratio(events, stats.runs as f64),
    );
    set(
        values,
        format!("sim.{kernel}.draws_per_event"),
        ratio(stats.draws as f64, events),
    );
    set(
        values,
        format!("sim.{kernel}.rejection_retries_per_event"),
        per_event(Counter::RejectionRetries),
    );
    set(
        values,
        format!("sim.{kernel}.pool_ops_per_event"),
        per_event(Counter::PoolOps),
    );
    set(
        values,
        format!("sim.{kernel}.useful_ratio"),
        ratio(
            c.get(Counter::UsefulTransfers) as f64,
            c.get(Counter::Contacts) as f64,
        ),
    );
}

/// Replications of replication-batch probed in the kernel probe; enough
/// to average out per-replication noise in about a second.
const KERNEL_PROBE_REPLICATIONS: u32 = 512;
/// Set-up batches per side of the checkpoint probe.
const CHECKPOINT_PROBE_REPEATS: usize = 5;

fn batch_probes(
    t: &mut Tracer,
    values: &mut Values,
    ops: &mut Run,
    seed: u64,
    dir: &Path,
    (reference_digest, traced_wall): (u64, f64),
) {
    let mut run = Run::default();
    let compile: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            let compiled = wl::batch_spec().and_then(|s| s.compile(0).map_err(|e| e.to_string()));
            black_box(compiled).ok();
            start.elapsed().as_secs_f64()
        })
        .collect();
    set(values, "workload.compile_us", median(&compile) * 1e6);
    let compiled = wl::batch_spec().and_then(|spec| {
        let scenario = spec.compile(0).map_err(|e| e.to_string())?;
        Ok((spec, scenario))
    });
    let (spec, scenario) = match compiled {
        Ok(compiled) => compiled,
        Err(e) => {
            ops.problem(e);
            return;
        }
    };

    // The batch at one worker must give the report it gives at two.
    let mut sink = TimingSink::new(wl::metrics_sink(), t.epoch(), None);
    let start = Instant::now();
    let jobs1_dir = fresh(dir, &mut run);
    let report = wl::run_batch(seed, 1, Budget::Full, &jobs1_dir, true, &mut sink);
    let jobs1_wall = start.elapsed().as_secs_f64();
    let sink_seconds = sink.record_seconds();
    let (batch, ndjson) = sink.inner.into_parts();
    match report {
        Ok(report) => wl::check_batch(&report, &batch, &ndjson, &jobs1_dir, &mut run),
        Err(e) => run.problem(format!("replication-batch at one worker: {e}")),
    }
    if run.digest != reference_digest {
        run.problem("replication-batch's report differs between one and two workers");
    }
    let speedup = ratio(jobs1_wall, traced_wall);
    set(values, "session.speedup_vs_jobs1", speedup);
    set(
        values,
        "session.parallel_efficiency",
        speedup / wl::jobs() as f64,
    );

    // Every replication replayed call by call, metered as the session
    // meters it: the records must match, and what the one-worker batch
    // spent beyond the replays and the sink is the session's own work.
    let direct = t.open("direct");
    let mut scratch = SimScratch::new();
    for record in &batch.records {
        let mut recorder = CounterRecorder::new();
        let replayed = replay(
            t,
            &scenario,
            seed,
            record.replication,
            spec.horizon,
            &mut scratch,
            Some(&mut recorder),
        );
        let same = replayed.is_ok_and(|r| {
            r.class == record.class
                && r.tail_slope.to_bits() == record.tail_slope.to_bits()
                && r.tail_average.to_bits() == record.tail_average.to_bits()
                && (r.events, r.transfers, r.truncated)
                    == (record.events, record.transfers, record.truncated)
                && record.telemetry.map(|m| m.counters) == Some(recorder.counters)
        });
        if !same {
            run.problem(format!(
                "replication {} replayed call by call differs from the session's",
                record.replication
            ));
        }
    }
    t.close(direct);
    set(
        values,
        "session.overhead_s",
        jobs1_wall - seconds(t, direct) - sink_seconds,
    );
    set(values, "agent.build_us", t.mean("agent.build") * 1e6);
    set(
        values,
        "markov.classify_us",
        t.mean("markov.classify") * 1e6,
    );

    let probe = t.open("probe.sim.event");
    let stats = probe_kernel(
        t,
        &scenario,
        spec.horizon,
        seed,
        KERNEL_PROBE_REPLICATIONS,
        &mut run,
    );
    t.close(probe);
    set_kernel(values, "event", &stats);
    set(
        values,
        "telemetry.metered_overhead",
        ratio(stats.metered_s, stats.plain_s),
    );

    // One checkpoint rewrite per batch: its cost is the difference between
    // set-up batches with and without it, alternated.
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..CHECKPOINT_PROBE_REPEATS {
        for (checkpoint, walls) in [(true, &mut with), (false, &mut without)] {
            let mut sink = wl::metrics_sink();
            let probe_dir = fresh(dir, &mut run);
            let start = Instant::now();
            let result = wl::run_batch(
                seed,
                wl::jobs(),
                Budget::Setup,
                &probe_dir,
                checkpoint,
                &mut sink,
            );
            walls.push(start.elapsed().as_secs_f64());
            if let Err(e) = result {
                run.problem(format!("checkpoint probe: {e}"));
            }
        }
    }
    set(
        values,
        "checkpoint.overhead_s",
        median(&with) - median(&without),
    );
    run.close_invocation();
    ops.absorb(run);
}

fn giant_probes(t: &mut Tracer, values: &mut Values, ops: &mut Run, seed: u64) {
    let mut run = Run::default();
    for ((scenario, horizon), kernel) in wl::giant_scenarios().iter().zip(["turbo", "coded_turbo"])
    {
        let probe = t.open("probe.sim.giant");
        let stats = probe_kernel(t, scenario, *horizon, seed, 1, &mut run);
        t.close(probe);
        set_kernel(values, kernel, &stats);
        if kernel == "coded_turbo" {
            let c = &stats.counters;
            let events = stats.events as f64;
            set(
                values,
                "netcoding.absorbs_per_event",
                ratio(c.get(Counter::RrefAbsorbs) as f64, events),
            );
            set(
                values,
                "netcoding.materializations_per_event",
                ratio(c.get(Counter::BasisMaterializations) as f64, events),
            );
            // Coded contacts decided from cached dimensions, against those
            // that had to build a row.
            let hits = c.get(Counter::DimFastPathHits) as f64;
            let built = c.get(Counter::BasisMaterializations) as f64;
            set(
                values,
                "netcoding.fast_path_share",
                ratio(hits, hits + built),
            );
        }
    }
    run.close_invocation();
    ops.absorb(run);
}

/// `markov`: the phase grid's CTMC replications run one by one through
/// `engine::run_replication_on`, as the grid session runs them.
fn ctmc_probe(t: &mut Tracer, values: &mut Values, seed: u64) {
    let config = wl::paper_config(seed, Budget::Full);
    let engine_config = EngineConfig::default()
        .with_replications(config.replications)
        .with_horizon(config.horizon)
        .with_master_seed(seed);
    let grid = wl::phase_grid();
    let mut cells = Vec::new();
    for &mu in &grid.mu.values {
        for &gamma in &grid.gamma.values {
            for &lambda0 in &grid.lambda0.values {
                if let Some(params) = wl::phase_cell(lambda0, mu, gamma) {
                    cells.push(engine::Scenario::new(cells.len() as u64, "cell", params));
                }
            }
        }
    }
    let probe = t.open("probe.markov");
    for scenario in &cells {
        let model = SwarmModel::new(scenario.params.clone());
        for r in 0..config.replications {
            t.span("markov.ctmc", || {
                black_box(engine::run_replication_on(
                    &model,
                    scenario,
                    &engine_config,
                    r,
                ))
            });
        }
    }
    t.close(probe);
    let per_replication = t.mean("markov.ctmc");
    set(
        values,
        "markov.ctmc_ms_per_replication",
        per_replication * 1e3,
    );
}
