//! Regenerates every experiment report (E1–E12), runs registry scenarios,
//! and, optionally, writes the engine's phase-diagram artifacts.
//!
//! ```text
//! cargo run --release --bin run_experiments                 # full budget
//! cargo run --release --bin run_experiments -- quick        # reduced budget
//! cargo run --release --bin run_experiments -- \
//!     --replications 16 --jobs 8 --seed 0xA11CE \
//!     --out-dir artifacts                                   # write files
//! cargo run --release --bin run_experiments -- \
//!     --scenario flash-crowd                                # a built-in
//! cargo run --release --bin run_experiments -- \
//!     --scenario my_swarm.json --replications 8             # a file
//! ```
//!
//! Flags:
//!
//! * `quick` — use the reduced simulation budget,
//! * `--replications N` — Monte-Carlo replications per sweep point (at
//!   least 1),
//! * `--jobs N` — worker threads (0 = one per core),
//! * `--seed S` — master seed (decimal or `0x…`),
//! * `--horizon T` — simulated horizon per replication, finite and
//!   positive (for `--scenario` this overrides the horizon written in the
//!   scenario),
//! * `--scenario FILE|NAME` — instead of the E1–E12 reports, execute one
//!   scenario from the registry: a JSON scenario file (see `EXPERIMENTS.md`
//!   for the format) or a built-in name,
//! * `--shards N` — (with `--scenario`) shard each replication's peer
//!   population across `N` per-shard clocks (turbo kernel only); for a
//!   fixed `(seed, shards, sync-window)` the result is byte-identical at
//!   any `--jobs`,
//! * `--sync-window W` — (with `--scenario`) the simulated-time length of
//!   a sharded synchronization round (default 0.25),
//! * `--progress` — report replication progress on stderr through the
//!   engine's built-in `ProgressSink`,
//! * `--metrics[=FILE]` — (with `--scenario`) meter every replication
//!   (kernel counters, wall times, scheduler histograms) and export the
//!   telemetry as NDJSON to `FILE` (default `metrics.ndjson`), plus a
//!   human summary on stderr. Metering consumes no randomness: reports
//!   and artifacts stay byte-identical with it on or off,
//! * `--check-metrics FILE` — validate a metrics NDJSON file (framing,
//!   schema, counter algebra) and exit; used by CI,
//! * `--allow-truncated` — (with `--check-metrics`) accept an export whose
//!   end frame carries `"truncated": true` (written when a run crashed or
//!   was aborted mid-stream); the prefix is still validated line by line,
//! * `--failure-policy failfast|quarantine[:N]|retry[:N[:MS]]` — (with
//!   `--scenario`) what to do when a replication panics: abort the whole
//!   run (`failfast`, the default), quarantine up to `N` failed
//!   replications as typed failure records (default: unlimited), or retry
//!   each failure up to `N` total attempts with a linear backoff of `MS`
//!   milliseconds (defaults: 3 attempts, no backoff). Surviving
//!   replications are bit-identical to a fault-free run either way,
//! * `--chaos SPEC` — (with `--scenario`) inject deterministic faults,
//!   keyed by stream key so a chaos run reproduces at any `--jobs`.
//!   `SPEC` is comma-separated `[SCENARIO.]REP=panic|transient:N|stall:MS`
//!   entries (see `EXPERIMENTS.md`),
//! * `--checkpoint[=FILE]` — (with `--scenario`) write a crash-consistent
//!   checkpoint (default `checkpoint.ckpt`) as the run progresses; a run
//!   killed at any point can be resumed from it,
//! * `--resume FILE` — (with `--scenario`) resume a checkpointed run; the
//!   completed prefix is restored and only the remaining replications
//!   execute. The finished artifacts are byte-identical to an
//!   uninterrupted run. The checkpoint records a digest of the
//!   configuration and scenario, so resuming under a different setup is a
//!   typed error rather than silent corruption,
//! * `--list-scenarios` — list the built-in scenario names and exit,
//! * `--out-dir DIR` — also write `E*.txt` reports plus the Example 1
//!   phase diagram as `phase.csv` / `phase.json` / `phase.txt` and the E1
//!   sweep outcomes as CSV/JSON into `DIR` (with `--scenario`, write the
//!   scenario report as `scenario_<name>.txt`).
//!
//! With a fixed `--seed`, every report and artifact is byte-identical at
//! any `--jobs` value.
//!
//! Exit status: 0 on success, 1 on errors, and 3 when a quarantined
//! scenario run finishes but one or more replications failed (the report
//! and artifacts are still written; the failures are summarised on
//! stderr with their stream keys and payloads).

#![deny(clippy::iter_over_hash_type, clippy::allow_attributes_without_reason)]

use p2p_stability::engine::{
    self, Axis, CheckpointSpec, FailurePolicy, FaultPlan, MetricsSink, NullSink, ReplicationFailure,
};
use p2p_stability::workload::experiments::{self, ExperimentConfig};
use p2p_stability::workload::ndjson;
use p2p_stability::workload::registry::{self, Registry, ScenarioRunOptions};
use p2p_stability::workload::{ScenarioRunReport, ScenarioSpec};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    config: ExperimentConfig,
    out_dir: Option<PathBuf>,
    scenario: Option<String>,
    list_scenarios: bool,
    /// Set only when `--horizon` was given explicitly (a scenario's own
    /// horizon must win otherwise).
    explicit_horizon: Option<f64>,
    /// Shard count override (`--shards N`).
    shards: Option<u32>,
    /// Synchronization-window override (`--sync-window W`).
    sync_window: Option<f64>,
    /// NDJSON telemetry export path (`--metrics[=FILE]`).
    metrics: Option<PathBuf>,
    /// Validate-and-exit mode (`--check-metrics FILE`).
    check_metrics: Option<PathBuf>,
    /// Accept a truncated NDJSON export under `--check-metrics`.
    allow_truncated: bool,
    /// Replication failure handling (`--failure-policy`).
    failure_policy: FailurePolicy,
    /// Deterministic fault injection (`--chaos SPEC`).
    chaos: Option<FaultPlan>,
    /// Checkpoint file to write as the run progresses (`--checkpoint[=FILE]`).
    checkpoint: Option<PathBuf>,
    /// Checkpoint file to resume from (`--resume FILE`).
    resume: Option<PathBuf>,
}

/// Parses `--failure-policy` values: `failfast`, `quarantine[:N]`
/// (default: unlimited), `retry[:N[:MS]]` (defaults: 3 attempts, no
/// backoff).
fn parse_failure_policy(value: &str) -> Result<FailurePolicy, String> {
    let bad = |detail: &str| {
        format!(
            "--failure-policy: {detail} \
             (expected failfast, quarantine[:N], or retry[:N[:MS]], got `{value}`)"
        )
    };
    let (head, rest) = match value.split_once(':') {
        Some((head, rest)) => (head, Some(rest)),
        None => (value, None),
    };
    match head {
        "failfast" | "fail-fast" => match rest {
            None => Ok(FailurePolicy::FailFast),
            Some(_) => Err(bad("failfast takes no parameters")),
        },
        "quarantine" => {
            let max_failures = match rest {
                None => u32::MAX,
                Some(n) => n.parse().map_err(|_| bad("bad failure budget"))?,
            };
            Ok(FailurePolicy::Quarantine { max_failures })
        }
        "retry" => {
            let (attempts, backoff_ms) = match rest {
                None => (3, 0),
                Some(rest) => match rest.split_once(':') {
                    None => (rest.parse().map_err(|_| bad("bad attempt count"))?, 0),
                    Some((n, ms)) => (
                        n.parse().map_err(|_| bad("bad attempt count"))?,
                        ms.parse().map_err(|_| bad("bad backoff"))?,
                    ),
                },
            };
            Ok(FailurePolicy::Retry {
                attempts,
                backoff_ms,
            })
        }
        _ => Err(bad("unknown policy")),
    }
}

const USAGE: &str = "usage: run_experiments [quick] [--replications N] [--jobs N] \
[--seed S] [--horizon T] [--scenario FILE|NAME] \
[--shards N] [--sync-window W] \
[--progress] [--metrics[=FILE]] [--check-metrics FILE] \
[--allow-truncated] [--failure-policy failfast|quarantine[:N]|retry[:N[:MS]]] \
[--chaos SPEC] [--checkpoint[=FILE]] [--resume FILE] \
[--list-scenarios] [--out-dir DIR]";

enum CliError {
    /// `--help` / `-h`: print usage and exit successfully.
    Help,
    /// A real parse error: print and exit non-zero.
    Invalid(String),
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Invalid(message)
    }
}

fn parse_u64(value: &str) -> Option<u64> {
    if let Some(hex) = value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        value.parse().ok()
    }
}

fn parse_cli() -> Result<Cli, CliError> {
    #[expect(
        clippy::disallowed_methods,
        reason = "the CLI edge: the command line is the run's configuration"
    )]
    let raw: Vec<String> = std::env::args().skip(1).collect();
    parse_args(raw)
}

/// Parses the command-line arguments after the program name.
fn parse_args(raw: Vec<String>) -> Result<Cli, CliError> {
    // Apply the `quick` preset before flag parsing so explicit flags win
    // regardless of argument order (`--horizon 5000 quick` must not
    // clobber the horizon).
    let mut config = ExperimentConfig::full();
    if raw.iter().any(|a| a == "quick") {
        let quick = ExperimentConfig::quick();
        config.horizon = quick.horizon;
        config.replications = quick.replications;
    }
    let mut out_dir = None;
    let mut scenario = None;
    let mut list_scenarios = false;
    let mut explicit_horizon = None;
    let mut shards = None;
    let mut sync_window = None;
    let mut metrics = None;
    let mut check_metrics = None;
    let mut allow_truncated = false;
    let mut failure_policy = FailurePolicy::FailFast;
    let mut chaos = None;
    let mut checkpoint = None;
    let mut resume = None;
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "quick" => {}
            "--replications" => {
                let n: u32 = value_of("--replications")?
                    .parse()
                    .map_err(|e| format!("--replications: {e}"))?;
                if n == 0 {
                    return Err(CliError::Invalid(
                        "--replications: must be at least 1".into(),
                    ));
                }
                config.replications = n;
            }
            "--jobs" => {
                config.threads = value_of("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--seed" => {
                config.seed = parse_u64(&value_of("--seed")?)
                    .ok_or_else(|| "--seed: expected a u64 (decimal or 0x-hex)".to_owned())?;
            }
            "--horizon" => {
                let horizon: f64 = value_of("--horizon")?
                    .parse()
                    .map_err(|e| format!("--horizon: {e}"))?;
                if !(horizon.is_finite() && horizon > 0.0) {
                    return Err(CliError::Invalid(format!(
                        "--horizon: must be finite and positive, got {horizon}"
                    )));
                }
                config.horizon = horizon;
                explicit_horizon = Some(config.horizon);
            }
            "--scenario" => scenario = Some(value_of("--scenario")?),
            "--shards" => {
                let n: u32 = value_of("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if n == 0 {
                    return Err(CliError::Invalid("--shards: must be at least 1".into()));
                }
                shards = Some(n);
            }
            "--sync-window" => {
                let window: f64 = value_of("--sync-window")?
                    .parse()
                    .map_err(|e| format!("--sync-window: {e}"))?;
                if !(window.is_finite() && window > 0.0) {
                    return Err(CliError::Invalid(format!(
                        "--sync-window: must be a finite positive time, got {window}"
                    )));
                }
                sync_window = Some(window);
            }
            "--progress" => config.progress = true,
            "--metrics" => metrics = Some(PathBuf::from("metrics.ndjson")),
            "--check-metrics" => {
                check_metrics = Some(PathBuf::from(value_of("--check-metrics")?));
            }
            "--allow-truncated" => allow_truncated = true,
            "--failure-policy" => {
                failure_policy = parse_failure_policy(&value_of("--failure-policy")?)?;
            }
            "--chaos" => {
                chaos = Some(
                    FaultPlan::parse(&value_of("--chaos")?).map_err(|e| format!("--chaos: {e}"))?,
                );
            }
            "--checkpoint" => checkpoint = Some(PathBuf::from("checkpoint.ckpt")),
            "--resume" => resume = Some(PathBuf::from(value_of("--resume")?)),
            "--list-scenarios" => list_scenarios = true,
            "--out-dir" => out_dir = Some(PathBuf::from(value_of("--out-dir")?)),
            "--help" | "-h" => return Err(CliError::Help),
            other => {
                if let Some(path) = other.strip_prefix("--metrics=") {
                    if path.is_empty() {
                        return Err(CliError::Invalid("--metrics=: needs a file path".into()));
                    }
                    metrics = Some(PathBuf::from(path));
                } else if let Some(path) = other.strip_prefix("--checkpoint=") {
                    if path.is_empty() {
                        return Err(CliError::Invalid("--checkpoint=: needs a file path".into()));
                    }
                    checkpoint = Some(PathBuf::from(path));
                } else {
                    return Err(CliError::Invalid(format!(
                        "unknown argument `{other}` (try --help)"
                    )));
                }
            }
        }
    }
    if metrics.is_some() && scenario.is_none() && !list_scenarios && check_metrics.is_none() {
        return Err(CliError::Invalid(
            "--metrics applies to scenario runs only; combine it with --scenario".into(),
        ));
    }
    if scenario.is_none() && !list_scenarios && check_metrics.is_none() {
        for (set, flag) in [
            (
                failure_policy != FailurePolicy::FailFast,
                "--failure-policy",
            ),
            (shards.is_some(), "--shards"),
            (sync_window.is_some(), "--sync-window"),
            (chaos.is_some(), "--chaos"),
            (checkpoint.is_some(), "--checkpoint"),
            (resume.is_some(), "--resume"),
        ] {
            if set {
                return Err(CliError::Invalid(format!(
                    "{flag} applies to scenario runs only; combine it with --scenario"
                )));
            }
        }
    }
    if allow_truncated && check_metrics.is_none() {
        return Err(CliError::Invalid(
            "--allow-truncated applies to NDJSON validation only; \
             combine it with --check-metrics"
                .into(),
        ));
    }
    Ok(Cli {
        config,
        out_dir,
        scenario,
        list_scenarios,
        explicit_horizon,
        shards,
        sync_window,
        metrics,
        check_metrics,
        allow_truncated,
        failure_policy,
        chaos,
        checkpoint,
        resume,
    })
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(CliError::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(CliError::Invalid(message)) => {
            eprintln!("{message}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &cli.check_metrics {
        return check_metrics_file(path, cli.allow_truncated);
    }
    if cli.list_scenarios {
        let registry = Registry::builtin();
        for spec in registry.iter() {
            println!(
                "{:20}  K={:<3} {}",
                spec.name, spec.num_pieces, spec.description
            );
        }
        return ExitCode::SUCCESS;
    }
    if let Some(which) = &cli.scenario {
        return run_scenario(which, &cli);
    }

    let config = cli.config;
    eprintln!(
        "running all experiments: horizon {}, replications {}, jobs {}, seed {:#x}",
        config.horizon, config.replications, config.threads, config.seed
    );

    let reports = experiments::run_all(&config);
    for report in &reports {
        println!("==================== {} ====================", report.id);
        println!("{report}");
    }

    if let Some(dir) = cli.out_dir {
        if let Err(error) = write_artifacts(&dir, &config, &reports) {
            eprintln!("failed to write artifacts into {}: {error}", dir.display());
            return ExitCode::FAILURE;
        }
        eprintln!("artifacts written to {}", dir.display());
    }
    ExitCode::SUCCESS
}

/// Validates a metrics NDJSON file and reports its summary (`--check-metrics`).
fn check_metrics_file(path: &std::path::Path, allow_truncated: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("cannot read {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let options = ndjson::ValidateOptions { allow_truncated };
    match ndjson::validate_with(&text, &options) {
        Ok(summary) => {
            let status = if summary.truncated { "TRUNCATED" } else { "OK" };
            println!(
                "{} {status}: {} scenario(s), {} replication(s) ({} metered, {} failed) \
                 on {} worker(s), {} events, {} transfers",
                path.display(),
                summary.scenarios,
                summary.replications,
                summary.metered,
                summary.failed,
                summary.workers,
                summary.total_events,
                summary.total_transfers
            );
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("{} INVALID: {error}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Runs a scenario with its replication stream wrapped in a [`MetricsSink`]:
/// the NDJSON telemetry export lands in `path` and a human summary on
/// stderr.
fn run_metered(
    spec: &ScenarioSpec,
    options: &ScenarioRunOptions,
    path: &std::path::Path,
) -> Result<ScenarioRunReport, String> {
    let file = std::fs::File::create(path)
        .map_err(|error| format!("cannot create {}: {error}", path.display()))?;
    let mut sink = MetricsSink::new(NullSink, std::io::BufWriter::new(file));
    let report = registry::run_with_sink(spec, options, &mut sink)
        .map_err(|error| format!("scenario `{}` failed: {error}", spec.name))?;
    let (_, writer) = sink.into_parts();
    writer
        .into_inner()
        .map_err(|error| format!("cannot flush {}: {error}", path.display()))?;
    eprintln!("metrics written to {}", path.display());
    Ok(report)
}

/// Executes one registry scenario (a JSON file or a built-in name) on the
/// engine's agent backend and prints its deterministic report.
fn run_scenario(which: &str, cli: &Cli) -> ExitCode {
    let registry = Registry::builtin();
    let mut spec = match registry.resolve(which) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    // The flags win over the scenario's own settings; written into the
    // spec, they are also what the report records as run.
    if let Some(shards) = cli.shards {
        spec.shards = Some(shards);
    }
    if let Some(window) = cli.sync_window {
        spec.sync_window = Some(window);
    }
    let options = ScenarioRunOptions {
        replications: cli.config.replications,
        jobs: cli.config.threads,
        seed: cli.config.seed,
        horizon_override: cli.explicit_horizon,
        progress: cli.config.progress,
        metrics: cli.metrics.is_some(),
        failure_policy: cli.failure_policy,
        faults: cli.chaos.clone(),
        checkpoint: cli.checkpoint.clone().map(CheckpointSpec::new),
        resume: cli.resume.clone(),
    };
    eprintln!(
        "running scenario `{}`: horizon {}, replications {}, jobs {}, seed {:#x}",
        spec.name,
        options.horizon_override.unwrap_or(spec.horizon),
        options.replications,
        options.jobs,
        options.seed
    );
    // `--metrics` streams the run into a `MetricsSink`, which meters
    // replications into an NDJSON file without touching the run itself.
    let result = match &cli.metrics {
        Some(path) => run_metered(&spec, &options, path),
        None => registry::run(&spec, &options)
            .map_err(|error| format!("scenario `{}` failed: {error}", spec.name)),
    };
    let report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let rendered = report.render();
    println!("{rendered}");
    if let Some(dir) = &cli.out_dir {
        let path = dir.join(format!("scenario_{}.txt", spec.name));
        if let Err(error) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &rendered))
        {
            eprintln!("failed to write {}: {error}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("scenario report written to {}", path.display());
    }
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        // The run completed under a quarantine/retry policy but lost
        // replications: the report above is still valid for the survivors,
        // and the distinct exit status lets CI and scripts notice.
        summarise_failures(&report.failures);
        ExitCode::from(QUARANTINED_FAILURES)
    }
}

/// Exit status of a scenario run that finished with quarantined
/// replication failures (distinct from 1, the status of a run that could
/// not execute at all).
const QUARANTINED_FAILURES: u8 = 3;

/// Prints the per-replication failure summary on stderr: one line per
/// quarantined replication with its stream key, attempt count, and payload.
fn summarise_failures(failures: &[ReplicationFailure]) {
    eprintln!(
        "{} replication(s) failed and were quarantined:",
        failures.len()
    );
    for f in failures {
        eprintln!(
            "  scenario {} (id {}) replication {}: {} attempt(s) — {}",
            f.scenario_index, f.scenario_id, f.replication, f.attempts, f.payload
        );
    }
}

fn write_artifacts(
    dir: &std::path::Path,
    config: &ExperimentConfig,
    reports: &[p2p_stability::workload::ExperimentReport],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for report in reports {
        std::fs::write(dir.join(format!("{}.txt", report.id)), report.render())?;
    }

    // The Example 1 phase diagram over `(λ₀, γ)`, sharing the CLI's seed /
    // replication / jobs budget.
    let diagram = experiments::example1_region(config, Axis::linspace("λ0", 0.4, 2.4, 6));
    engine::artifact::write_phase(dir, "phase", &diagram)?;
    std::fs::write(dir.join("phase.txt"), diagram.render())?;

    // The E1 load sweep as machine-readable engine outcomes (the same
    // loads the E1.txt report in this directory describes).
    let outcomes = experiments::example1_sweep(config);
    engine::artifact::write_outcomes(dir, "example1_sweep", &outcomes)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_retired_kernel_flag_is_an_unknown_argument() {
        // A scenario's coding block alone picks its kernel, so there is no
        // flag to choose one.
        for kernel in ["turbo", "coded"] {
            let args = ["--scenario", "coded-gift-super", "--kernel", kernel];
            let Err(CliError::Invalid(message)) = parse_args(args.map(String::from).to_vec())
            else {
                panic!("--kernel {kernel} must be rejected");
            };
            assert_eq!(message, "unknown argument `--kernel` (try --help)");
        }
        assert!(!USAGE.contains("--kernel"), "{USAGE}");
        assert!(parse_args(vec!["--scenario".into(), "coded-gift-super".into()]).is_ok());
    }
}
