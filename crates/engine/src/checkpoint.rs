//! Crash-consistent checkpoint files for interruptible sessions.
//!
//! A checkpoint captures everything the in-order delivery frontier has
//! consumed so far: the completed-prefix index, the merged Welford /
//! [`crate::ClassVotes`] aggregation state of every scenario the frontier
//! has touched, the quarantined failures, and a digest binding the file to
//! the exact config + workload that produced it. Because the engine
//! aggregates in deterministic replication order, that state is identical
//! at any worker count — so a checkpoint written at frontier *f* is the
//! same bytes whether the run used 1 worker or 16, and a resumed run
//! finishes with artifacts byte-identical to an uninterrupted one.
//!
//! Crash consistency comes from two mechanisms:
//!
//! * **write-to-temp-then-rename** — the file is fully written and synced
//!   to `<path>.tmp`, then atomically renamed over `<path>`, so a kill at
//!   any instant leaves either the previous checkpoint or the new one,
//!   never a torn file;
//! * **a trailing FNV-1a checksum over the whole body** — a torn or
//!   bit-rotted file is rejected as [`crate::Error::CheckpointCorrupt`]
//!   instead of silently resuming from garbage.
//!
//! Floats are serialized as [`f64::to_bits`] hex, so restored Welford
//! state is bit-exact — the foundation of the byte-identical resume
//! guarantee. The format is a versioned line-oriented text file (see
//! `save`), deliberately hand-rolled like every other artifact in this
//! workspace.

use crate::error::Error;
use crate::replicate::{verdict_agrees, ClassVotes, ReplicationOutcome};
use crate::session::ReplicationFailure;
use crate::stats::Welford;
use std::io::Write;
use std::path::{Path, PathBuf};
use swarm::StabilityVerdict;

/// Where and how often a session writes checkpoints.
///
/// Passed to [`crate::SessionBuilder::checkpoint`]; the session then
/// rewrites `path` (atomically) every `every` delivered records and once
/// more at the end of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Checkpoint file path (a sibling `<path>.tmp` is used transiently).
    pub path: PathBuf,
    /// Rewrite the checkpoint every this many delivered records
    /// (clamped to at least 1).
    pub every: u64,
}

impl CheckpointSpec {
    /// A spec that checkpoints after every delivered record.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            path: path.into(),
            every: 1,
        }
    }

    /// Sets the checkpoint interval in delivered records (clamped to at
    /// least 1).
    #[must_use]
    pub fn with_every(mut self, every: u64) -> Self {
        self.every = every.max(1);
        self
    }
}

/// One scenario's incremental (O(1)-memory) aggregation state: what the
/// session folds each replication into, in replication order, and what a
/// checkpoint stores bit-exactly. One struct covers both workload kinds.
/// A CTMC replication pushes zero events, so a CTMC checkpoint from an
/// older build, whose events accumulator is empty, resumes to the same
/// mean of 0.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AggSnapshot {
    pub(crate) theory: StabilityVerdict,
    pub(crate) votes: ClassVotes,
    pub(crate) slope: Welford,
    pub(crate) average: Welford,
    /// Events-per-replication accumulator (zero for CTMC replications).
    pub(crate) events: Welford,
    /// Replications agreeing with theory.
    pub(crate) agreeing: u32,
    /// Replications clipped by `max_events`.
    pub(crate) truncated: u32,
    /// Successful replications pushed.
    pub(crate) count: u32,
    /// Failed (quarantined) replications.
    pub(crate) failed: u32,
}

impl AggSnapshot {
    /// The empty aggregate of a scenario whose theory verdict is `theory`.
    pub(crate) fn new(theory: StabilityVerdict) -> Self {
        AggSnapshot {
            theory,
            votes: ClassVotes::default(),
            slope: Welford::new(),
            average: Welford::new(),
            events: Welford::new(),
            agreeing: 0,
            truncated: 0,
            count: 0,
            failed: 0,
        }
    }

    /// Folds in one successful replication.
    pub(crate) fn push(&mut self, replication: &ReplicationOutcome) {
        self.votes.push(replication.class);
        self.slope.push(replication.tail_slope);
        self.average.push(replication.tail_average);
        self.events.push(replication.events as f64);
        self.agreeing += u32::from(verdict_agrees(self.theory, replication.class));
        self.truncated += u32::from(replication.truncated);
        self.count += 1;
    }
}

/// Everything a checkpoint file round-trips.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointData {
    /// Digest binding the file to one config + workload (see
    /// `Session::checkpoint_digest`).
    pub(crate) digest: u64,
    /// Workload family: `"ctmc"` (CTMC and grid) or `"agent"` (agent and
    /// coded).
    pub(crate) kind: &'static str,
    /// Total records the full stream delivers.
    pub(crate) total: u64,
    /// Replications per scenario.
    pub(crate) reps: u64,
    /// Completed prefix: records delivered in order so far.
    pub(crate) frontier: u64,
    /// Retries accumulated so far (under `FailurePolicy::Retry`).
    pub(crate) retries: u64,
    /// Quarantined failures so far, in delivery order.
    pub(crate) failures: Vec<ReplicationFailure>,
    /// Aggregation state of every scenario the frontier has touched:
    /// one full snapshot per completed scenario, plus one partial
    /// snapshot iff the frontier stopped mid-scenario.
    pub(crate) snapshots: Vec<AggSnapshot>,
}

/// Format version. v2 added the Welford non-finite rejection counter to
/// every accumulator (6 tokens per Welford instead of 5); v1 files are
/// rejected as corrupt rather than silently zero-filling the new field.
const HEADER: &str = "p2p-checkpoint v2";

/// FNV-1a 64-bit hash, the workspace's standard content digest.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn verdict_name(v: StabilityVerdict) -> &'static str {
    match v {
        StabilityVerdict::PositiveRecurrent => "positive-recurrent",
        StabilityVerdict::Transient => "transient",
        StabilityVerdict::Borderline => "borderline",
    }
}

fn verdict_from(name: &str) -> Option<StabilityVerdict> {
    match name {
        "positive-recurrent" => Some(StabilityVerdict::PositiveRecurrent),
        "transient" => Some(StabilityVerdict::Transient),
        "borderline" => Some(StabilityVerdict::Borderline),
        _ => None,
    }
}

fn welford_fields(w: &Welford, out: &mut String) {
    let (count, non_finite, mean, m2, min, max) = w.to_raw_parts();
    out.push_str(&format!(
        " {count} {non_finite} {:016x} {:016x} {:016x} {:016x}",
        mean.to_bits(),
        m2.to_bits(),
        min.to_bits(),
        max.to_bits()
    ));
}

/// Escapes a panic payload into one whitespace-free-prefix-safe line tail:
/// backslash, newline, and carriage return are backslash-escaped.
fn escape_payload(payload: &str) -> String {
    payload
        .replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

fn unescape_payload(escaped: &str) -> String {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Renders the checkpoint body (everything above the checksum line).
fn render_body(data: &CheckpointData) -> String {
    let mut body = String::new();
    body.push_str(HEADER);
    body.push('\n');
    body.push_str(&format!("digest {:016x}\n", data.digest));
    body.push_str(&format!("kind {}\n", data.kind));
    body.push_str(&format!("total {}\n", data.total));
    body.push_str(&format!("reps {}\n", data.reps));
    body.push_str(&format!("frontier {}\n", data.frontier));
    body.push_str(&format!("retries {}\n", data.retries));
    body.push_str(&format!("failures {}\n", data.failures.len()));
    for f in &data.failures {
        body.push_str(&format!(
            "failure {} {} {} {} {}\n",
            f.scenario_index,
            f.scenario_id,
            f.replication,
            f.attempts,
            escape_payload(&f.payload)
        ));
    }
    body.push_str(&format!("aggs {}\n", data.snapshots.len()));
    for s in &data.snapshots {
        let mut line = format!(
            "agg {} {} {} {} {} {} {} {}",
            verdict_name(s.theory),
            s.votes.stable,
            s.votes.growing,
            s.votes.indeterminate,
            s.agreeing,
            s.truncated,
            s.count,
            s.failed
        );
        welford_fields(&s.slope, &mut line);
        welford_fields(&s.average, &mut line);
        welford_fields(&s.events, &mut line);
        body.push_str(&line);
        body.push('\n');
    }
    body
}

/// Atomically writes `data` to `path` (via `<path>.tmp` + rename), with a
/// trailing FNV-1a checksum over the body.
pub(crate) fn save(path: &Path, data: &CheckpointData) -> std::io::Result<()> {
    let body = render_body(data);
    let checksum = fnv1a64(body.as_bytes());
    let mut tmp_path = path.as_os_str().to_owned();
    tmp_path.push(".tmp");
    let tmp_path = PathBuf::from(tmp_path);
    {
        let mut file = std::fs::File::create(&tmp_path)?;
        file.write_all(body.as_bytes())?;
        file.write_all(format!("checksum {checksum:016x}\n").as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp_path, path)
}

/// Parses and validates a checkpoint file. Digest *matching* is the
/// caller's job (the file's digest is returned verbatim); this function
/// only rejects unreadable or structurally corrupt files.
pub(crate) fn load(path: &Path) -> Result<CheckpointData, Error> {
    let display = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| Error::CheckpointIo {
        path: display.clone(),
        message: e.to_string(),
    })?;
    let corrupt = |message: String| Error::CheckpointCorrupt {
        path: display.clone(),
        message,
    };

    // Split off and verify the trailing checksum line first.
    let trimmed = text.strip_suffix('\n').unwrap_or(&text);
    let (body_end, checksum_line) = trimmed
        .rfind('\n')
        .map(|i| (&trimmed[..=i], &trimmed[i + 1..]))
        .ok_or_else(|| corrupt("file too short".into()))?;
    let recorded = checksum_line
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| corrupt(format!("bad checksum line `{checksum_line}`")))?;
    let actual = fnv1a64(body_end.as_bytes());
    if recorded != actual {
        return Err(corrupt(format!(
            "checksum mismatch (recorded {recorded:016x}, computed {actual:016x})"
        )));
    }

    fn next_line<'a>(
        lines: &mut std::str::Lines<'a>,
        what: &str,
        corrupt: &dyn Fn(String) -> Error,
    ) -> Result<&'a str, Error> {
        lines
            .next()
            .ok_or_else(|| corrupt(format!("missing `{what}` line")))
    }
    fn expect(
        lines: &mut std::str::Lines<'_>,
        prefix: &str,
        corrupt: &dyn Fn(String) -> Error,
    ) -> Result<String, Error> {
        let line = next_line(lines, prefix, corrupt)?;
        line.strip_prefix(prefix)
            .and_then(|rest| {
                rest.strip_prefix(' ')
                    .or(Some(rest).filter(|r| r.is_empty()))
            })
            .map(str::to_owned)
            .ok_or_else(|| corrupt(format!("expected `{prefix} …`, found `{line}`")))
    }
    let parse_u64 = |field: &str, value: String| -> Result<u64, Error> {
        value
            .parse::<u64>()
            .map_err(|e| corrupt(format!("bad {field} `{value}`: {e}")))
    };

    let mut lines = body_end.lines();
    let header = next_line(&mut lines, "header", &corrupt)?;
    if header != HEADER {
        return Err(corrupt(format!("bad header `{header}`")));
    }
    let digest = u64::from_str_radix(&expect(&mut lines, "digest", &corrupt)?, 16)
        .map_err(|e| corrupt(format!("bad digest: {e}")))?;
    let kind = match expect(&mut lines, "kind", &corrupt)?.as_str() {
        "ctmc" => "ctmc",
        "agent" => "agent",
        other => return Err(corrupt(format!("unknown kind `{other}`"))),
    };
    let total = parse_u64("total", expect(&mut lines, "total", &corrupt)?)?;
    let reps = parse_u64("reps", expect(&mut lines, "reps", &corrupt)?)?;
    let frontier = parse_u64("frontier", expect(&mut lines, "frontier", &corrupt)?)?;
    let retries = parse_u64("retries", expect(&mut lines, "retries", &corrupt)?)?;
    let failure_count = parse_u64("failures", expect(&mut lines, "failures", &corrupt)?)?;

    let mut failures = Vec::with_capacity(failure_count.min(1 << 16) as usize);
    for _ in 0..failure_count {
        let line = next_line(&mut lines, "failure", &corrupt)?;
        let rest = line
            .strip_prefix("failure ")
            .ok_or_else(|| corrupt(format!("expected `failure …`, found `{line}`")))?;
        let parts: Vec<&str> = rest.splitn(5, ' ').collect();
        if parts.len() != 5 {
            return Err(corrupt(format!(
                "failure line has {} fields, expected 5",
                parts.len()
            )));
        }
        let scenario_index = parts[0]
            .parse::<usize>()
            .map_err(|e| corrupt(format!("bad failure index: {e}")))?;
        let scenario_id = parse_u64("failure scenario_id", parts[1].to_owned())?;
        let replication = parts[2]
            .parse::<u32>()
            .map_err(|e| corrupt(format!("bad failure replication: {e}")))?;
        let attempts = parts[3]
            .parse::<u32>()
            .map_err(|e| corrupt(format!("bad failure attempts: {e}")))?;
        let payload = unescape_payload(parts[4]);
        failures.push(ReplicationFailure {
            scenario_index,
            scenario_id,
            replication,
            attempts,
            payload,
        });
    }

    let agg_count = parse_u64("aggs", expect(&mut lines, "aggs", &corrupt)?)?;
    let mut snapshots = Vec::with_capacity(agg_count.min(1 << 16) as usize);
    for _ in 0..agg_count {
        let line = next_line(&mut lines, "agg", &corrupt)?;
        let rest = line
            .strip_prefix("agg ")
            .ok_or_else(|| corrupt(format!("expected `agg …`, found `{line}`")))?;
        let tokens: Vec<&str> = rest.split(' ').collect();
        if tokens.len() != 8 + 18 {
            return Err(corrupt(format!(
                "agg line has {} fields, expected 26",
                tokens.len()
            )));
        }
        let theory = verdict_from(tokens[0])
            .ok_or_else(|| corrupt(format!("unknown verdict `{}`", tokens[0])))?;
        let int = |i: usize| -> Result<u32, Error> {
            tokens[i]
                .parse::<u32>()
                .map_err(|e| corrupt(format!("bad agg field {i}: {e}")))
        };
        let welford = |at: usize| -> Result<Welford, Error> {
            let count = tokens[at]
                .parse::<u64>()
                .map_err(|e| corrupt(format!("bad welford count: {e}")))?;
            let non_finite = tokens[at + 1]
                .parse::<u64>()
                .map_err(|e| corrupt(format!("bad welford non-finite count: {e}")))?;
            let mut bits = [0u64; 4];
            for (k, slot) in bits.iter_mut().enumerate() {
                *slot = u64::from_str_radix(tokens[at + 2 + k], 16)
                    .map_err(|e| corrupt(format!("bad welford bits: {e}")))?;
            }
            Ok(Welford::from_raw_parts(
                count,
                non_finite,
                f64::from_bits(bits[0]),
                f64::from_bits(bits[1]),
                f64::from_bits(bits[2]),
                f64::from_bits(bits[3]),
            ))
        };
        snapshots.push(AggSnapshot {
            theory,
            votes: ClassVotes {
                stable: int(1)?,
                growing: int(2)?,
                indeterminate: int(3)?,
            },
            agreeing: int(4)?,
            truncated: int(5)?,
            count: int(6)?,
            failed: int(7)?,
            slope: welford(8)?,
            average: welford(14)?,
            events: welford(20)?,
        });
    }

    if frontier > total {
        return Err(corrupt(format!(
            "frontier {frontier} exceeds total {total}"
        )));
    }
    if reps > 0 {
        let expected_snaps = frontier.div_ceil(reps);
        if snapshots.len() as u64 != expected_snaps {
            return Err(corrupt(format!(
                "{} agg snapshots for frontier {frontier} at {reps} \
                 replications per scenario (expected {expected_snaps})",
                snapshots.len()
            )));
        }
    }

    Ok(CheckpointData {
        digest,
        kind,
        total,
        reps,
        frontier,
        retries,
        failures,
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        let mut slope = Welford::new();
        let mut average = Welford::new();
        for i in 0..5 {
            slope.push((i as f64).sin());
            average.push(10.0 + i as f64 / 3.0);
        }
        CheckpointData {
            digest: 0xDEAD_BEEF_1234_5678,
            kind: "ctmc",
            total: 12,
            reps: 4,
            frontier: 5,
            retries: 2,
            failures: vec![ReplicationFailure {
                scenario_index: 0,
                scenario_id: 9,
                replication: 3,
                attempts: 2,
                payload: "boom with\nnewline and \\backslash".into(),
            }],
            snapshots: vec![
                AggSnapshot {
                    theory: StabilityVerdict::PositiveRecurrent,
                    votes: ClassVotes {
                        stable: 3,
                        growing: 0,
                        indeterminate: 0,
                    },
                    slope,
                    average,
                    events: Welford::new(),
                    agreeing: 3,
                    truncated: 0,
                    count: 3,
                    failed: 1,
                },
                AggSnapshot {
                    theory: StabilityVerdict::Transient,
                    votes: ClassVotes {
                        stable: 0,
                        growing: 1,
                        indeterminate: 0,
                    },
                    slope: Welford::new(),
                    average: Welford::new(),
                    events: Welford::new(),
                    agreeing: 1,
                    truncated: 0,
                    count: 1,
                    failed: 0,
                },
            ],
        }
    }

    #[test]
    fn save_load_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join("engine-ckpt-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let data = sample();
        save(&path, &data).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, data);
        // No temp file left behind.
        assert!(!path.with_extension("ckpt.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_a_typed_error_not_garbage() {
        let dir = std::env::temp_dir().join("engine-ckpt-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        save(&path, &sample()).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip one digit inside the body.
        text = text.replacen("frontier 5", "frontier 6", 1);
        std::fs::write(&path, text).unwrap();
        match load(&path) {
            Err(Error::CheckpointCorrupt { message, .. }) => {
                assert!(message.contains("checksum"), "{message}");
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("engine-ckpt-nope/does-not-exist.ckpt");
        match load(&path) {
            Err(Error::CheckpointIo { .. }) => {}
            other => panic!("expected CheckpointIo, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_corrupt() {
        let dir = std::env::temp_dir().join("engine-ckpt-trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        save(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(load(&path), Err(Error::CheckpointCorrupt { .. })));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn spec_builder_clamps_interval() {
        let spec = CheckpointSpec::new("/tmp/x.ckpt").with_every(0);
        assert_eq!(spec.every, 1);
        assert_eq!(spec.path, PathBuf::from("/tmp/x.ckpt"));
    }
}
