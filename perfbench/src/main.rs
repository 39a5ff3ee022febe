//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replication-batch --seed 7 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare OLD NEW
//! ```
//!
//! Three workloads follow what users of this reproduction run, through the
//! same library calls as `run_experiments`, in one process with at most two
//! worker threads:
//!
//! * `paper-full` — the E1–E12 reproduction at the full budget (horizon
//!   2500, 8 replications) plus the `--out-dir` artifacts: the only
//!   workload on the CTMC path, and mostly serial event-kernel demo runs;
//! * `replication-batch` — 4096 replications of the built-in `flash-crowd`
//!   scenario with NDJSON metering and a checkpoint: short replications
//!   that fit in cache, so RNG, per-replication set-up and sinks show;
//! * `giant-swarm` — one 1M-peer replication each of the turbo and
//!   coded-turbo regimes at one worker: per-peer tables far larger than the
//!   cache, so kernel memory traffic dominates and session, classification
//!   and sinks must not show.
//!
//! With `--trace 0` a run executes its workload repeatedly for `--seconds`,
//! checks every output, and prints the end-to-end metrics. With `--trace 1`
//! it runs the workload once untraced and once with a span around every
//! call the benchmark makes into a layer, probes the layers directly, and
//! prints the per-layer metrics; the spans are written to
//! `perfbench/out/spans-<workload>.jsonl`. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--compare OLD NEW` reads two result sets and runs nothing. A result set
//! is a directory holding `<workload>.jsonl` (the last stdout line of each
//! untraced run, in run order) and optionally `<workload>.trace.jsonl` (the
//! same for traced runs). Run `i` of OLD and run `i` of NEW form a pair.
//!
//! `perfbench/LAYERS.md` names the end-to-end metric and workload each
//! per-layer metric should move; `perfbench/baseline/` is a recorded result
//! set.

mod compare;
mod json;
mod layers;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: perfbench --workload paper-full|replication-batch|giant-swarm \
[--seed N] [--seconds S] [--trace 0|1]\n       perfbench --compare OLD_DIR NEW_DIR";

/// Where runs keep their scratch files and spans: `perfbench/out`, inside
/// the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Compare(PathBuf, PathBuf),
}

fn parse_seed(value: &str) -> Option<u64> {
    match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

fn parse(args: &[String]) -> Result<Command, String> {
    if let [flag, old, new] = args {
        if flag == "--compare" {
            return Ok(Command::Compare(old.into(), new.into()));
        }
    }
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = parse_seed(value).ok_or("--seed: expected a u64")?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: expected a positive number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(Command::Run(args)) => args,
        Ok(Command::Compare(old, new)) => {
            return match compare::run(&old, &new) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let run_dir = out_dir().join(format!("run-{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        layers::trace(args.workload, args.seed, &run_dir)
    } else {
        workloads::measure(args.workload, args.seed, args.seconds, &run_dir)
    };
    if let Err(e) = std::fs::remove_dir_all(&run_dir) {
        eprintln!("cannot remove {}: {e}", run_dir.display());
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_a_run_command_line() {
        let args = strings(&[
            "--workload",
            "giant-swarm",
            "--seed",
            "0x10",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]);
        match parse(&args) {
            Ok(Command::Run(a)) => {
                assert_eq!(a.workload, Workload::GiantSwarm);
                assert_eq!((a.seed, a.seconds, a.trace), (16, 12.0, true));
            }
            _ => panic!("the run arguments must parse"),
        }
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--seed", "1"])).is_err());
        assert!(parse(&strings(&["--workload", "paper-full", "--trace", "2"])).is_err());
        assert!(matches!(
            parse(&strings(&["--compare", "a", "b"])),
            Ok(Command::Compare(..))
        ));
    }
}
