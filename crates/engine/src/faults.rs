//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] maps `(scenario id, replication)` stream keys — the same
//! keys that seed the random streams, never wall clock or worker identity —
//! to injected faults. Because the key is part of the work item rather than
//! the schedule, a chaos run is reproducible at any `--jobs` value: the
//! same replications fail, the same payloads surface, and the surviving
//! replications are bit-identical to a fault-free run.
//!
//! Four fault kinds cover the failure modes the session layer must
//! survive:
//!
//! - [`FaultKind::Panic`] — the replication panics on every attempt
//!   (a hard bug; only `Quarantine` can make progress past it).
//! - [`FaultKind::Transient`] — the replication panics on its first
//!   `failures` attempts and succeeds afterwards (a flaky resource;
//!   `Retry` converges, `Quarantine` records a failure).
//! - [`FaultKind::Stall`] — the replication sleeps before running (a slow
//!   worker; exercises reorder-window backpressure without changing any
//!   result).
//! - [`FaultKind::Nan`] — the replication runs normally but its tail
//!   metrics come back NaN (a poisoned estimator; exercises the session's
//!   non-finite rejection, which must turn the value into a typed
//!   invariant failure instead of a silently-NaN artifact).
//!
//! Injection happens inside the per-replication execution wrapper, *before*
//! the simulator draws from its stream, so a stalled or retried replication
//! still consumes exactly its own random stream.

use std::collections::BTreeMap;
use std::fmt;

/// What to inject at one `(scenario, replication)` stream key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic on every attempt.
    Panic,
    /// Panic on the first `failures` attempts, then succeed.
    Transient {
        /// Number of leading attempts that fail.
        failures: u32,
    },
    /// Sleep this many milliseconds before running (the replication then
    /// succeeds normally).
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Poison the replication's tail metrics to NaN on every attempt. The
    /// simulation itself runs (and consumes exactly its own stream); the
    /// session layer must catch the non-finite output and fail typed.
    Nan,
}

/// A deterministic schedule of injected faults, keyed by stream key.
///
/// ```
/// use engine::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new()
///     .panic_at(0, 3)
///     .transient_at(0, 5, 2)
///     .stall_at(1, 0, 10);
/// assert_eq!(plan.get(0, 3), Some(FaultKind::Panic));
/// assert_eq!(plan.get(0, 5), Some(FaultKind::Transient { failures: 2 }));
/// assert_eq!(plan.get(2, 0), None);
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<(u64, u32), FaultKind>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Number of keyed faults in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Injects an unconditional panic at one stream key.
    #[must_use]
    pub fn panic_at(mut self, scenario_id: u64, replication: u32) -> Self {
        self.faults
            .insert((scenario_id, replication), FaultKind::Panic);
        self
    }

    /// Injects a transient fault (fail the first `failures` attempts, then
    /// succeed) at one stream key.
    #[must_use]
    pub fn transient_at(mut self, scenario_id: u64, replication: u32, failures: u32) -> Self {
        self.faults.insert(
            (scenario_id, replication),
            FaultKind::Transient { failures },
        );
        self
    }

    /// Injects a pre-run stall of `millis` milliseconds at one stream key.
    #[must_use]
    pub fn stall_at(mut self, scenario_id: u64, replication: u32, millis: u64) -> Self {
        self.faults
            .insert((scenario_id, replication), FaultKind::Stall { millis });
        self
    }

    /// Injects NaN metric corruption at one stream key.
    #[must_use]
    pub fn nan_at(mut self, scenario_id: u64, replication: u32) -> Self {
        self.faults
            .insert((scenario_id, replication), FaultKind::Nan);
        self
    }

    /// True when this stream key's metrics must be poisoned to NaN after
    /// the replication runs. [`FaultPlan::apply`] cannot express this fault
    /// — it fires before the simulation and can only sleep or panic — so
    /// the execution wrapper queries it separately, after the outcome
    /// exists but before any aggregation sees it.
    #[must_use]
    pub fn corrupts_metrics(&self, scenario_id: u64, replication: u32) -> bool {
        self.get(scenario_id, replication) == Some(FaultKind::Nan)
    }

    /// The fault registered at a stream key, if any.
    #[must_use]
    pub fn get(&self, scenario_id: u64, replication: u32) -> Option<FaultKind> {
        self.faults.get(&(scenario_id, replication)).copied()
    }

    /// Applies the fault (if any) registered for this stream key at the
    /// given zero-based attempt: sleeps for stalls, panics for panics and
    /// for transient faults whose failure budget has not yet elapsed.
    ///
    /// The panic payload is a deterministic `String` naming the stream key,
    /// so quarantined failure records are comparable across runs.
    pub fn apply(&self, scenario_id: u64, replication: u32, attempt: u32) {
        match self.get(scenario_id, replication) {
            None => {}
            Some(FaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            Some(FaultKind::Panic) => std::panic::panic_any(format!(
                "injected fault: panic at scenario {scenario_id} replication {replication}"
            )),
            Some(FaultKind::Transient { failures }) if attempt < failures => {
                std::panic::panic_any(format!(
                    "injected fault: transient failure {attempt} at \
                     scenario {scenario_id} replication {replication}"
                ));
            }
            Some(FaultKind::Transient { .. }) => {}
            // Metric corruption happens after the run, via
            // `corrupts_metrics` — nothing to do pre-run.
            Some(FaultKind::Nan) => {}
        }
    }

    /// Parses the CLI chaos specification: comma-separated entries of the
    /// form `[SCENARIO.]REPLICATION=KIND` where `KIND` is `panic`,
    /// `transient:N`, `stall:MS`, or `nan`. A bare replication index
    /// addresses scenario id 0.
    ///
    /// ```
    /// use engine::{FaultKind, FaultPlan};
    ///
    /// let plan = FaultPlan::parse("2=panic,7.1=transient:2,0.4=stall:25").unwrap();
    /// assert_eq!(plan.get(0, 2), Some(FaultKind::Panic));
    /// assert_eq!(plan.get(7, 1), Some(FaultKind::Transient { failures: 2 }));
    /// assert_eq!(plan.get(0, 4), Some(FaultKind::Stall { millis: 25 }));
    /// assert!(FaultPlan::parse("nope").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<Self, FaultParseError> {
        let mut plan = FaultPlan::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let bad = || FaultParseError {
                entry: entry.to_string(),
            };
            let (key, kind) = entry.split_once('=').ok_or_else(bad)?;
            let (scenario_id, replication) = match key.split_once('.') {
                Some((s, r)) => (
                    s.trim().parse::<u64>().map_err(|_| bad())?,
                    r.trim().parse::<u32>().map_err(|_| bad())?,
                ),
                None => (0, key.trim().parse::<u32>().map_err(|_| bad())?),
            };
            let kind = kind.trim();
            let fault = if kind == "panic" {
                FaultKind::Panic
            } else if kind == "nan" {
                FaultKind::Nan
            } else if let Some(n) = kind.strip_prefix("transient:") {
                FaultKind::Transient {
                    failures: n.trim().parse::<u32>().map_err(|_| bad())?,
                }
            } else if let Some(ms) = kind.strip_prefix("stall:") {
                FaultKind::Stall {
                    millis: ms.trim().parse::<u64>().map_err(|_| bad())?,
                }
            } else {
                return Err(bad());
            };
            plan.faults.insert((scenario_id, replication), fault);
        }
        Ok(plan)
    }
}

/// A chaos specification entry that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultParseError {
    /// The offending entry, verbatim.
    pub entry: String,
}

impl fmt::Display for FaultParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad chaos entry `{}` (expected `[SCENARIO.]REP=panic|transient:N|stall:MS|nan`)",
            self.entry
        )
    }
}

impl std::error::Error for FaultParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_is_keyed_not_scheduled() {
        let plan = FaultPlan::new().transient_at(3, 1, 2);
        // Other keys are untouched at any attempt.
        plan.apply(3, 0, 0);
        plan.apply(0, 1, 0);
        // The keyed fault clears after its failure budget.
        plan.apply(3, 1, 2);
        plan.apply(3, 1, 7);
    }

    #[test]
    fn transient_panics_until_budget_elapses() {
        let plan = FaultPlan::new().transient_at(0, 0, 2);
        for attempt in 0..2 {
            let caught = std::panic::catch_unwind(|| plan.apply(0, 0, attempt));
            let payload = caught.expect_err("attempt within budget must panic");
            let message = payload
                .downcast_ref::<String>()
                .expect("payload is a String");
            assert!(message.contains("transient"), "{message}");
            assert!(message.contains("scenario 0 replication 0"), "{message}");
        }
    }

    #[test]
    fn panic_payload_names_the_stream_key() {
        let plan = FaultPlan::new().panic_at(9, 4);
        let payload = std::panic::catch_unwind(|| plan.apply(9, 4, 0)).expect_err("must panic");
        let message = payload.downcast_ref::<String>().unwrap();
        assert_eq!(message, "injected fault: panic at scenario 9 replication 4");
    }

    #[test]
    fn parse_round_trips_all_kinds() {
        let plan = FaultPlan::parse(" 1=panic , 2.3=transient:4 , 5.6=stall:7 , 8=nan ").unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.get(0, 1), Some(FaultKind::Panic));
        assert_eq!(plan.get(2, 3), Some(FaultKind::Transient { failures: 4 }));
        assert_eq!(plan.get(5, 6), Some(FaultKind::Stall { millis: 7 }));
        assert_eq!(plan.get(0, 8), Some(FaultKind::Nan));
        // `nan` never fires pre-run…
        plan.apply(0, 8, 0);
        // …it is queried as metric corruption instead, keyed exactly.
        assert!(plan.corrupts_metrics(0, 8));
        assert!(!plan.corrupts_metrics(0, 1));
        assert!(!plan.corrupts_metrics(8, 8));
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in ["x", "1", "1=boom", "1=transient:", "a.b=panic", "1=stall:x"] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(err.to_string().contains(bad.trim()), "{err}");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }
}
