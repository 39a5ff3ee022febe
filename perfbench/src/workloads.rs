//! The three workloads, run through the user entry points with tracing
//! off, their output checks, and the end-to-end metrics.
//!
//! Every replication and every invocation of a workload is an operation. A
//! quarantined, truncated or miscounted replication fails its operation; a
//! failed output check or a panic fails the invocation.

use crate::metrics::{self, Outcome};
use crate::probe::peak_rss_mb;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use engine::{
    artifact, AgentScenario, Axis, CheckpointSpec, EngineConfig, FailurePolicy, GridSpec,
    MetricsSink, ReplicationFailure, ReplicationRecord, ReplicationSink, Session, StreamStats,
};
use markov::PathClass;
use pieceset::{PieceId, PieceSet};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use swarm::coded::CodedParams;
use swarm::sim::{AgentConfig, KernelKind};
use swarm::{StabilityVerdict, SwarmParams};
use telemetry::Counter;
use workload::experiments::{self, ExperimentConfig};
use workload::registry::{self, Registry, ScenarioRunOptions};
use workload::{scenario, ExperimentReport, ScenarioSpec};

/// The horizon of the set-up runs: long enough to be a valid session, short
/// enough that no event fires, so a run costs only parsing, session and
/// population build, classification, and sink and checkpoint work.
pub const SETUP_HORIZON: f64 = 1e-9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_experiments --jobs 2 --out-dir DIR` at the full budget.
    PaperFull,
    /// `run_experiments --scenario flash-crowd` with thousands of metered,
    /// checkpointed replications.
    ReplicationBatch,
    /// One 1M-peer replication each of the turbo and coded-turbo regimes.
    GiantSwarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFull,
        Workload::ReplicationBatch,
        Workload::GiantSwarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper-full",
            Workload::ReplicationBatch => "replication-batch",
            Workload::GiantSwarm => "giant-swarm",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Set-up runs per benchmark run; `setup_s` is their median. Chosen so
    /// each workload spends under a second on them.
    fn setup_repeats(self) -> usize {
        match self {
            Workload::PaperFull => 50,
            Workload::ReplicationBatch => 25,
            Workload::GiantSwarm => 25,
        }
    }
}

/// Worker threads: two, or one on a single-core host.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    Full,
    Setup,
}

impl Budget {
    /// The horizon of a run whose full-budget horizon is `full`.
    fn horizon(self, full: f64) -> f64 {
        match self {
            Budget::Full => full,
            Budget::Setup => SETUP_HORIZON,
        }
    }
}

/// What one execution of a workload delivered and what its checks found.
#[derive(Debug, Default)]
pub struct Run {
    pub wall_s: f64,
    pub replications: u64,
    pub events: u64,
    pub agree: u64,
    pub decidable: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Fingerprint of the run's deterministic output.
    pub digest: u64,
}

impl Run {
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Counts the invocation itself: it fails if any check failed.
    pub fn close_invocation(&mut self) {
        self.attempted += 1;
        if !self.problems.is_empty() {
            self.failed += 1;
        }
    }

    /// Folds another run's operation counts and problems into this one.
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A new directory under `base` for one execution's files. Rewriting an
/// earlier execution's files would make the filesystem flush them first,
/// which times the disk rather than the program.
pub fn fresh_dir(base: &Path) -> Result<PathBuf, String> {
    static DIRS: AtomicUsize = AtomicUsize::new(0);
    let dir = base.join(format!("exec-{}", DIRS.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn execute(workload: Workload, seed: u64, budget: Budget, base: &Path) -> Run {
    let mut run = match fresh_dir(base) {
        Ok(dir) => match workload {
            Workload::PaperFull => paper_run(seed, budget, &dir),
            Workload::ReplicationBatch => batch_run(seed, budget, &dir),
            Workload::GiantSwarm => giant_run(seed, budget),
        },
        Err(e) => {
            let mut run = Run::default();
            run.problem(e);
            run
        }
    };
    run.close_invocation();
    run
}

/// Full executions per run at least, so the median can reject an outlier.
const MIN_EXECUTIONS: usize = 3;
/// The set-up runs are spread over this many rounds, one before each of the
/// first full executions, so a short burst of load on the host cannot move
/// all of them.
const SETUP_ROUNDS: usize = 5;

/// Runs the workload for about `seconds`, with its set-up runs interleaved,
/// and reports every end-to-end metric.
pub fn measure(workload: Workload, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let mut ops = Run::default();
    let mut setup = Vec::new();
    let set_up = |setup: &mut Vec<f64>, ops: &mut Run, count: usize| {
        for _ in 0..count {
            let run = execute(workload, seed, Budget::Setup, dir);
            setup.push(run.wall_s);
            ops.absorb(run);
        }
    };
    let repeats = workload.setup_repeats();
    let start = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        let round = repeats.div_ceil(SETUP_ROUNDS).min(repeats - setup.len());
        set_up(&mut setup, &mut ops, round);
        runs.push(execute(workload, seed, Budget::Full, dir));
        // Later executions would add the allocator's leftovers from
        // earlier ones, and how many there are depends on the clock.
        if runs.len() == 1 {
            peak_rss = peak_rss_mb();
        }
        let elapsed = start.elapsed().as_secs_f64();
        // Stop when one more execution would likely overrun the budget.
        let next_end = elapsed * (runs.len() + 1) as f64 / runs.len() as f64;
        if runs.len() >= MIN_EXECUTIONS && next_end > seconds {
            break;
        }
    }
    let rest = repeats - setup.len();
    set_up(&mut setup, &mut ops, rest);
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = runs
        .iter()
        .map(|r| ratio(r.replications as f64, r.wall_s))
        .collect();
    let (agree, decidable) = runs
        .iter()
        .fold((0, 0), |(a, d), r| (a + r.agree, d + r.decidable));
    if runs.iter().any(|r| r.digest != runs[0].digest) {
        ops.problem("the same seed gave different outputs across executions");
        ops.failed += 1;
    }
    eprintln!(
        "{}: seed {seed}, {} executions, wall {:?} s, set-up {:?} s",
        workload.name(),
        runs.len(),
        walls,
        setup
    );
    for run in runs {
        ops.absorb(run);
    }
    report_problems(&ops.problems);
    let mut values = BTreeMap::new();
    values.insert("wall_s".to_owned(), median(&walls));
    values.insert("setup_s".to_owned(), median(&setup));
    values.insert("replications_per_s".to_owned(), median(&rates));
    values.insert("peak_rss_mb".to_owned(), peak_rss);
    values.insert(
        "theory_agreement".to_owned(),
        ratio(agree as f64, decidable as f64),
    );
    Outcome::new(ops.attempted, ops.failed, &metrics::end_to_end(), &values)
}

pub fn report_problems(problems: &[String]) {
    for p in problems.iter().take(10) {
        eprintln!("check failed: {p}");
    }
    if problems.len() > 10 {
        eprintln!("... and {} more failed checks", problems.len() - 10);
    }
}

/// Runs `f` in a span when a tracer is given.
pub fn timed<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

// ---------------------------------------------------------------------
// paper-full
// ---------------------------------------------------------------------

/// `run_experiments` with no `quick` flag: E1–E12 at horizon 2500 with 8
/// replications per sweep point, here at `jobs()` workers.
pub fn paper_config(seed: u64, budget: Budget) -> ExperimentConfig {
    let full = ExperimentConfig::full();
    ExperimentConfig {
        horizon: budget.horizon(full.horizon),
        seed,
        threads: jobs(),
        ..full
    }
}

pub type Experiment = fn(&ExperimentConfig) -> ExperimentReport;

/// The experiments `experiments::run_all` runs, in order, with their span
/// names.
pub const EXPERIMENTS: [(&str, Experiment); 12] = [
    ("workload.E1", experiments::example1),
    ("workload.E2", experiments::example2),
    ("workload.E3", experiments::example3),
    ("workload.E4", experiments::one_club_growth),
    ("workload.E5", experiments::stability_region),
    ("workload.E6", experiments::one_extra_piece),
    ("workload.E7", experiments::policy_insensitivity),
    ("workload.E8", experiments::network_coding),
    ("workload.E9", experiments::borderline),
    ("workload.E10", experiments::abs_bounds),
    ("workload.E11", experiments::lyapunov_drift),
    ("workload.E12", experiments::faster_retry),
];

/// The Example 1 phase grid `run_experiments --out-dir` writes.
pub fn phase_grid() -> GridSpec {
    GridSpec {
        lambda0: Axis::linspace("λ0", 0.4, 2.4, 6),
        mu: Axis::fixed("µ", 1.0),
        gamma: Axis::new("γ", vec![0.8, 1.25, 2.0, 4.0, 8.0]),
        pieces: vec![1],
    }
}

pub fn phase_cell(lambda0: f64, mu: f64, gamma: f64) -> Option<SwarmParams> {
    scenario::example1(lambda0, 0.5, mu, gamma).ok()
}

fn engine_config(config: &ExperimentConfig) -> EngineConfig {
    EngineConfig::default()
        .with_replications(config.replications)
        .with_horizon(config.horizon)
        .with_master_seed(config.seed)
        .with_jobs(config.threads)
}

/// What `run_experiments --out-dir DIR` writes after the reports: one
/// `E*.txt` per report, the Example 1 phase grid, and the E1 sweep.
pub fn write_artifacts(
    dir: &Path,
    config: &ExperimentConfig,
    reports: &[ExperimentReport],
    tracer: &mut Option<&mut Tracer>,
) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    timed(tracer, "workload.write", || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for report in reports {
            std::fs::write(dir.join(format!("{}.txt", report.id)), report.render())?;
        }
        Ok(())
    })
    .map_err(io)?;

    let grid = timed(tracer, "session.build", || {
        Session::builder()
            .config(engine_config(config))
            .workload(engine::Workload::grid(
                &phase_grid(),
                |_k, mu, gamma, lambda0| phase_cell(lambda0, mu, gamma),
            ))
            .build()
    })
    .map_err(|e| e.to_string())?;
    let diagram = timed(tracer, "session.stream", || grid.run())
        .into_grid()
        .ok_or("the phase grid returned no diagram")?;
    timed(tracer, "workload.write", || {
        artifact::write_phase(dir, "phase", &diagram)?;
        std::fs::write(dir.join("phase.txt"), diagram.render())
    })
    .map_err(io)?;

    let scenarios = experiments::EXAMPLE1_LOADS
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            scenario::example1_at_load(load, 1.0, 1.0, 2.0)
                .map(|p| engine::Scenario::new(i as u64, format!("load={load}"), p))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sweep = timed(tracer, "session.build", || {
        Session::builder()
            .config(engine_config(config))
            .workload(engine::Workload::ctmc(scenarios))
            .build()
    })
    .map_err(|e| e.to_string())?;
    let outcomes = timed(tracer, "session.stream", || sweep.run())
        .into_ctmc()
        .ok_or("the E1 sweep returned no outcomes")?;
    timed(tracer, "workload.write", || {
        artifact::write_outcomes(dir, "example1_sweep", &outcomes)
    })
    .map_err(io)?;
    Ok(())
}

fn paper_run(seed: u64, budget: Budget, dir: &Path) -> Run {
    let config = paper_config(seed, budget);
    let start = Instant::now();
    let result = std::panic::catch_unwind(|| {
        let reports = experiments::run_all(&config);
        write_artifacts(dir, &config, &reports, &mut None).map(|()| reports)
    });
    let mut run = Run {
        wall_s: start.elapsed().as_secs_f64(),
        ..Run::default()
    };
    match result {
        Ok(Ok(reports)) => check_paper(&reports, dir, &config, &mut run),
        Ok(Err(e)) => run.problem(format!("paper-full artifacts: {e}")),
        Err(_) => run.problem("paper-full panicked"),
    }
    run
}

/// `a/b` from an E-report agreement line, or `a of b` from the E5 region
/// map line.
fn parse_agreement(note: &str) -> Option<(u64, u64)> {
    let pair = |a: &str, b: &str| Some((a.parse().ok()?, b.parse().ok()?));
    if let Some(rest) = note.strip_prefix("region map: ") {
        let words: Vec<&str> = rest.split_whitespace().collect();
        return match words.as_slice() {
            [a, "of", b, ..] => pair(a, b),
            _ => None,
        };
    }
    if !note.starts_with("agreement") {
        return None;
    }
    let (_, counts) = note.split_once(": ")?;
    let (a, b) = counts.split_whitespace().next()?.split_once('/')?;
    pair(a, b)
}

/// Splits CSV text into rows of fields, honouring double-quoted fields.
fn csv_rows(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let mut fields = Vec::new();
            let mut field = String::new();
            let mut quoted = false;
            let mut chars = line.chars().peekable();
            while let Some(c) = chars.next() {
                match c {
                    '"' if quoted && chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    '"' => quoted = !quoted,
                    ',' if !quoted => fields.push(std::mem::take(&mut field)),
                    _ => field.push(c),
                }
            }
            fields.push(field);
            fields
        })
        .collect()
}

/// The rows of an engine CSV artifact as `(theory, agrees, replications)`.
fn verdict_rows(path: &Path) -> Result<Vec<(String, bool, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = csv_rows(&text);
    let header = rows
        .first()
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    let column = |name: &str| {
        header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| format!("{}: no `{name}` column", path.display()))
    };
    let (theory, agrees, replications) = (
        column("theory")?,
        column("agrees")?,
        column("replications")?,
    );
    rows[1..]
        .iter()
        .map(|row| {
            let field = |i: usize| row.get(i).map(String::as_str).unwrap_or("");
            let agree = match field(agrees) {
                "true" => true,
                "false" => false,
                other => return Err(format!("{}: agrees = {other:?}", path.display())),
            };
            let reps = field(replications)
                .parse()
                .map_err(|_| format!("{}: bad replications", path.display()))?;
            Ok((field(theory).to_owned(), agree, reps))
        })
        .collect()
}

/// The output checks of paper-full; also counts its replications and
/// decidable verdicts.
pub fn check_paper(
    reports: &[ExperimentReport],
    dir: &Path,
    config: &ExperimentConfig,
    run: &mut Run,
) {
    let ids: Vec<&str> = reports.iter().map(|r| r.id.as_str()).collect();
    let expected: Vec<String> = (1..=12).map(|e| format!("E{e}")).collect();
    if ids != expected {
        run.problem(format!("paper-full reports {ids:?}, expected E1–E12"));
    }
    let reps = u64::from(config.replications);
    let mut digest_input = String::new();
    for report in reports {
        digest_input.push_str(&report.render());
        for note in &report.notes {
            if let Some((a, b)) = parse_agreement(note) {
                if a > b {
                    run.problem(format!("{}: agreement {a}/{b}", report.id));
                }
                run.agree += a;
                run.decidable += b;
                // The region map replicates each of its cells.
                if note.starts_with("region map: ") {
                    run.replications += b * reps;
                }
            }
        }
        // Every sweep-table row is one point replicated `reps` times.
        for table in &report.tables {
            if table.headers().iter().any(|h| h == "agree") {
                run.replications += table.len() as u64 * reps;
            }
        }
    }
    let lines = reports
        .iter()
        .flat_map(|r| &r.notes)
        .filter(|n| parse_agreement(n).is_some())
        .count();
    if lines < 4 {
        run.problem(format!(
            "paper-full: {lines} agreement lines parsed, expected 4 (E1, E2, E5 and its region map)"
        ));
    }
    for (file, cells) in [("phase.csv", 30), ("example1_sweep.csv", 6)] {
        match verdict_rows(&dir.join(file)) {
            Ok(rows) => {
                if rows.len() != cells {
                    run.problem(format!("{file}: {} rows, expected {cells}", rows.len()));
                }
                for (theory, agrees, replications) in rows {
                    run.replications += replications;
                    // Phase-grid cells are verdicts of their own; the E1
                    // sweep repeats E1's points, already counted above.
                    if file == "phase.csv" && theory != "borderline" {
                        run.decidable += 1;
                        run.agree += u64::from(agrees);
                    }
                }
            }
            Err(e) => run.problem(e),
        }
        digest_input.push_str(&std::fs::read_to_string(dir.join(file)).unwrap_or_default());
    }
    run.attempted += run.replications;
    run.digest = fnv1a(digest_input.as_bytes());
}

// ---------------------------------------------------------------------
// replication-batch
// ---------------------------------------------------------------------

pub const BATCH_SCENARIO: &str = "flash-crowd";
pub const BATCH_REPLICATIONS: u32 = 4096;
pub const CHECKPOINT_FILE: &str = "checkpoint.ckpt";

/// Keeps every delivered record and the stream's closing statistics.
#[derive(Debug, Default)]
pub struct BatchSink {
    pub records: Vec<ReplicationRecord>,
    pub failures: Vec<ReplicationFailure>,
    pub stats: Option<StreamStats>,
}

impl ReplicationSink for BatchSink {
    fn record(&mut self, record: &ReplicationRecord) {
        self.records.push(*record);
    }

    fn failure(&mut self, failure: &ReplicationFailure) {
        self.failures.push(failure.clone());
    }

    fn end(&mut self, stats: &StreamStats) {
        self.stats = Some(stats.clone());
    }
}

pub fn batch_spec() -> Result<ScenarioSpec, String> {
    Registry::builtin()
        .resolve(BATCH_SCENARIO)
        .map_err(|e| e.to_string())
}

/// `run_experiments --scenario flash-crowd --replications 4096 --metrics
/// --checkpoint` with quarantine on. The checkpoint is rewritten once per
/// batch, not per record: every rewrite is an fsync, which on a disk costs
/// tens of milliseconds and would measure the disk, not the program.
pub fn batch_options(
    seed: u64,
    jobs: usize,
    budget: Budget,
    checkpoint: Option<&Path>,
) -> ScenarioRunOptions {
    ScenarioRunOptions {
        replications: BATCH_REPLICATIONS,
        jobs,
        seed,
        horizon_override: (budget == Budget::Setup).then_some(SETUP_HORIZON),
        metrics: true,
        failure_policy: FailurePolicy::Quarantine {
            max_failures: u32::MAX,
        },
        checkpoint: checkpoint
            .map(|p| CheckpointSpec::new(p).with_every(u64::from(BATCH_REPLICATIONS))),
        ..ScenarioRunOptions::default()
    }
}

/// The `--metrics` export, kept in memory: written to a file, each record's
/// line would also cost a write system call, and page-cache writeback
/// would add disk time to the run.
pub fn metrics_sink() -> MetricsSink<BatchSink, Vec<u8>> {
    MetricsSink::new(BatchSink::default(), Vec::new()).quiet()
}

/// Runs the batch through `registry::run_with_sink`, the library call
/// behind `run_experiments --scenario`, into `sink`.
pub fn run_batch<S: ReplicationSink + Send>(
    seed: u64,
    jobs: usize,
    budget: Budget,
    dir: &Path,
    checkpoint: bool,
    sink: &mut S,
) -> Result<workload::ScenarioRunReport, String> {
    let spec = batch_spec()?;
    let path = dir.join(CHECKPOINT_FILE);
    let options = batch_options(seed, jobs, budget, checkpoint.then_some(path.as_path()));
    registry::run_with_sink(&spec, &options, sink).map_err(|e| e.to_string())
}

fn batch_run(seed: u64, budget: Budget, dir: &Path) -> Run {
    let start = Instant::now();
    let mut sink = metrics_sink();
    let result = run_batch(seed, jobs(), budget, dir, true, &mut sink);
    let (batch, ndjson) = sink.into_parts();
    let mut run = Run {
        wall_s: start.elapsed().as_secs_f64(),
        ..Run::default()
    };
    match result {
        Ok(report) => check_batch(&report, &batch, &ndjson, dir, &mut run),
        Err(e) => run.problem(format!("replication-batch: {e}")),
    }
    run
}

/// The output checks of replication-batch.
pub fn check_batch(
    report: &workload::ScenarioRunReport,
    batch: &BatchSink,
    ndjson: &[u8],
    dir: &Path,
    run: &mut Run,
) {
    for failure in &report.failures {
        run.attempted += 1;
        run.failed += 1;
        run.problem(format!(
            "replication {} quarantined: {}",
            failure.replication, failure.payload
        ));
    }
    check_records(&batch.records, report.outcome.theory, true, run);
    let delivered = batch.records.len() as u64;
    let failed = batch.failures.len() as u64;
    if delivered + failed != u64::from(BATCH_REPLICATIONS) {
        run.problem(format!(
            "{delivered} records and {failed} failures delivered, expected {BATCH_REPLICATIONS}"
        ));
    }
    match std::str::from_utf8(ndjson).map_err(|e| e.to_string()) {
        Ok(text) => match workload::ndjson::validate(text) {
            Ok(summary) => {
                if summary.replications != delivered
                    || summary.metered != delivered
                    || summary.failed != failed
                    || summary.total_events != run.events
                {
                    run.problem(format!(
                        "NDJSON summary {summary:?} disagrees with the stream"
                    ));
                }
            }
            Err(e) => run.problem(format!("NDJSON export rejected: {e}")),
        },
        Err(e) => run.problem(format!("NDJSON export: {e}")),
    }
    if !dir.join(CHECKPOINT_FILE).is_file() {
        run.problem("no checkpoint written");
    }
    run.digest = fnv1a(report.render().as_bytes());
}

/// Per-replication checks: no truncation and, on metered records, the
/// counter identities `event_total == events`, `contacts == useful +
/// useless` and `useful == transfers`. Also tallies verdicts against the
/// theory.
pub fn check_records(
    records: &[ReplicationRecord],
    theory: StabilityVerdict,
    metered: bool,
    run: &mut Run,
) {
    for r in records {
        run.attempted += 1;
        run.replications += 1;
        run.events += r.events;
        let mut wrong = Vec::new();
        if r.truncated {
            wrong.push("truncated");
        }
        match &r.telemetry {
            Some(t) => {
                let c = &t.counters;
                if c.event_total() != r.events {
                    wrong.push("event_total != events");
                }
                if c.get(Counter::Contacts)
                    != c.get(Counter::UsefulTransfers) + c.get(Counter::UselessContacts)
                {
                    wrong.push("contacts != useful + useless");
                }
                if c.get(Counter::UsefulTransfers) != r.transfers {
                    wrong.push("useful != transfers");
                }
            }
            None if metered => wrong.push("no telemetry on a metered record"),
            None => {}
        }
        if !wrong.is_empty() {
            run.failed += 1;
            run.problem(format!(
                "replication {}: {}",
                r.replication,
                wrong.join(", ")
            ));
        }
        if theory != StabilityVerdict::Borderline {
            run.decidable += 1;
            run.agree += u64::from(engine::verdict_agrees(theory, r.class));
        }
    }
}

// ---------------------------------------------------------------------
// giant-swarm
// ---------------------------------------------------------------------

const GIANT_PEERS: usize = 1_000_000;
const GIANT_PIECES: usize = 32;
/// The turbo run reaches 18M events at this horizon.
const TURBO_HORIZON: f64 = 60.0;
/// The coded population grows with the horizon (nearly 1 GB at horizon
/// 60). At 12 it peaks near 1.85M peers, well inside one doubling of the
/// per-peer tables: at 15 it sits at 2^21 peers, so whether the tables
/// double, and the peak memory, would depend on the seed.
const CODED_HORIZON: f64 = 12.0;

/// The regime of `bench_report`: K = 32, arrivals each missing one piece
/// at λ = peers / 10, contact rate 0.1, seed rate 1, hit-and-run seeds
/// (γ = 200), and an initial population one piece short of complete.
fn giant_params() -> SwarmParams {
    let full = PieceSet::full(GIANT_PIECES);
    let lambda = GIANT_PEERS as f64 / 10.0;
    let mut builder = SwarmParams::builder(GIANT_PIECES)
        .seed_rate(1.0)
        .contact_rate(0.1)
        .seed_departure_rate(200.0);
    for i in 0..GIANT_PIECES {
        builder = builder.arrival(full.without(PieceId::new(i)), lambda / GIANT_PIECES as f64);
    }
    builder.build().expect("valid giant-swarm parameters")
}

fn giant_initial() -> Vec<(PieceSet, usize)> {
    const _: () = assert!(GIANT_PEERS.is_multiple_of(GIANT_PIECES));
    let full = PieceSet::full(GIANT_PIECES);
    (0..GIANT_PIECES)
        .map(|i| (full.without(PieceId::new(i)), GIANT_PEERS / GIANT_PIECES))
        .collect()
}

/// The turbo scenario (retry speed-up η = 10) and its GF(2) coded-turbo
/// analogue (gift fraction 0.5), each with its horizon.
pub fn giant_scenarios() -> [(AgentScenario, f64); 2] {
    let mut turbo = AgentScenario::new(0, "giant-turbo", giant_params());
    turbo.config = AgentConfig {
        kernel: KernelKind::Turbo,
        retry_speedup: 10.0,
        snapshot_interval: 0.25,
        ..AgentConfig::default()
    };
    turbo.initial = giant_initial();
    let coded_params = CodedParams::gift_example(
        GIANT_PIECES,
        2,
        GIANT_PEERS as f64 / 10.0,
        0.5,
        1.0,
        0.1,
        200.0,
    )
    .expect("valid coded parameters");
    let mut coded = AgentScenario::new(1, "giant-coded-turbo", coded_params.base.clone());
    coded.coding = Some(coded_params.gifts());
    coded.config = AgentConfig {
        kernel: KernelKind::CodedTurbo,
        snapshot_interval: 0.25,
        ..AgentConfig::default()
    };
    coded.initial = giant_initial();
    [(turbo, TURBO_HORIZON), (coded, CODED_HORIZON)]
}

pub fn giant_config(seed: u64, horizon: f64) -> EngineConfig {
    EngineConfig::default()
        .with_replications(1)
        .with_horizon(horizon)
        .with_master_seed(seed)
        .with_jobs(1)
}

fn giant_run(seed: u64, budget: Budget) -> Run {
    let start = Instant::now();
    let mut results = Vec::new();
    for (scenario, horizon) in giant_scenarios() {
        let label = scenario.label.clone();
        let result = Session::builder()
            .config(giant_config(seed, budget.horizon(horizon)))
            .workload(engine::Workload::agent(vec![scenario]))
            .build()
            .map_err(|e| format!("{label}: {e}"))
            .map(|session| {
                let mut sink = BatchSink::default();
                let theory = session
                    .stream(&mut sink)
                    .into_agent()
                    .and_then(|o| o.first().map(|o| o.theory));
                (theory, sink)
            });
        results.push(result);
    }
    let mut run = Run {
        wall_s: start.elapsed().as_secs_f64(),
        ..Run::default()
    };
    let mut outputs = Vec::new();
    for result in results {
        match result {
            Ok((Some(theory), sink)) => {
                check_records(&sink.records, theory, false, &mut run);
                if sink.records.len() != 1 {
                    run.problem(format!("{} records, expected 1", sink.records.len()));
                }
                outputs.extend(
                    sink.records
                        .iter()
                        .map(|r| (r.class, r.events, r.transfers)),
                );
            }
            Ok((None, _)) => run.problem("giant-swarm session returned no outcome"),
            Err(e) => run.problem(e),
        }
    }
    run.digest = giant_digest(outputs.into_iter());
    run
}

/// Fingerprint of giant-swarm's replications: class, events and transfers.
pub fn giant_digest(outputs: impl Iterator<Item = (PathClass, u64, u64)>) -> u64 {
    let text: String = outputs
        .map(|(class, events, transfers)| format!("{class:?} {events} {transfers};"))
        .collect();
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_lines_parse() {
        assert_eq!(
            parse_agreement("agreement with Theorem 1 on decidable points: 5/6"),
            Some((5, 6))
        );
        assert_eq!(
            parse_agreement("agreement on decidable points: 16/16 (100.00%)"),
            Some((16, 16))
        );
        assert_eq!(
            parse_agreement("region map: 27 of 30 cells agree with Theorem 1 (3 mismatches)"),
            Some((27, 30))
        );
        assert_eq!(parse_agreement("theory: stable for γ/µ ≤ 1"), None);
    }

    #[test]
    fn csv_fields_honour_quotes() {
        let rows = csv_rows("a,b,c\n1,\"K=1,µ=1\",\"say \"\"hi\"\"\"\n");
        assert_eq!(rows[1], vec!["1", "K=1,µ=1", "say \"hi\""]);
    }

    #[test]
    fn a_setup_run_reports_zero_events() {
        let mut sink = metrics_sink();
        let spec = batch_spec().unwrap();
        let options = ScenarioRunOptions {
            replications: 16,
            ..batch_options(3, 2, Budget::Setup, None)
        };
        let report = registry::run_with_sink(&spec, &options, &mut sink).unwrap();
        let (batch, _) = sink.into_parts();
        assert!(report.failures.is_empty());
        assert_eq!(batch.records.len(), 16);
        assert!(batch.records.iter().all(|r| r.events == 0 && !r.truncated));
    }
}
