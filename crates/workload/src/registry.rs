//! The scenario registry: declarative, file-loadable swarm scenarios
//! executed on the replication engine's agent backend.
//!
//! A [`ScenarioSpec`] describes everything the peer-level simulator can
//! express — heterogeneous arrival types, flash crowds, multi-seed initial
//! populations, the Section VIII-C retry speed-up, and the piece-selection
//! policy — as data rather than code. Specs serialize to/from JSON (see
//! `EXPERIMENTS.md` for the file format), so `run_experiments --scenario
//! <file-or-name>` can execute any of them deterministically: replications
//! run on the engine's `(master seed, scenario, replication)` ChaCha
//! streams, so a fixed seed gives bit-identical outcomes at any `--jobs`.
//!
//! [`Registry::builtin`] ships named scenarios covering the paper's examples
//! and the model variants, which double as format documentation:
//! `ScenarioSpec::to_json` of any builtin is a valid scenario file.
//!
//! # Examples
//!
//! ```
//! use workload::registry::{Registry, ScenarioRunOptions};
//!
//! let registry = Registry::builtin();
//! let spec = registry.get("example1-stable").unwrap();
//! // Round-trip through the file format.
//! let same = workload::registry::ScenarioSpec::from_json(&spec.to_json()).unwrap();
//! assert_eq!(*spec, same);
//! // Execute on the engine (tiny budget for the doctest).
//! let options = ScenarioRunOptions {
//!     replications: 1,
//!     jobs: 1,
//!     seed: 7,
//!     horizon_override: Some(50.0),
//!     ..Default::default()
//! };
//! let report = workload::registry::run(spec, &options).unwrap();
//! assert_eq!(report.outcome.votes.total(), 1);
//! ```

use crate::error::SpecError;
use crate::json::{self, Json};
use crate::report::fmt_num;
use engine::{
    AgentScenario, CheckpointSpec, EngineConfig, FailurePolicy, FaultPlan, NullSink,
    ReplicationFailure, ReplicationRecord, ReplicationSink, ScenarioOutcome, Session, StreamPlan,
    StreamStats, Workload,
};
use pieceset::{PieceId, PieceSet};
use swarm::coded::CodedParams;
use swarm::netcoding::GaloisField;
use swarm::sim::{checked_population, AgentConfig, FlashCrowd, KernelKind};
use swarm::SwarmParams;

/// A peer-type selector as written in scenario files: either an explicit
/// list of 0-based piece indices or one of the named shorthands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PieceSelector {
    /// `"empty"` — a peer holding nothing.
    Empty,
    /// `"full"` — the complete collection (a peer seed).
    Full,
    /// `"one-club"` — every piece except the watch piece.
    OneClub,
    /// `[i, j, …]` — an explicit set of 0-based piece indices.
    Pieces(Vec<usize>),
}

impl PieceSelector {
    /// Resolves the selector against a `K`-piece file and a watch piece.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] if `num_pieces` is outside
    /// `1..=`[`pieceset::MAX_PIECES`] or an explicit index is outside
    /// `0..K`.
    pub fn resolve(&self, num_pieces: usize, watch: PieceId) -> Result<PieceSet, SpecError> {
        let full = PieceSet::try_full(num_pieces).map_err(|e| SpecError::Invalid(e.to_string()))?;
        match self {
            PieceSelector::Empty => Ok(PieceSet::empty()),
            PieceSelector::Full => Ok(full),
            PieceSelector::OneClub => Ok(full.without(watch)),
            PieceSelector::Pieces(indices) => {
                let mut set = PieceSet::empty();
                for &i in indices {
                    if i >= num_pieces {
                        return Err(SpecError::Invalid(format!(
                            "piece index {i} outside a {num_pieces}-piece file"
                        )));
                    }
                    set.insert(PieceId::new(i));
                }
                Ok(set)
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            PieceSelector::Empty => Json::Str("empty".into()),
            PieceSelector::Full => Json::Str("full".into()),
            PieceSelector::OneClub => Json::Str("one-club".into()),
            PieceSelector::Pieces(indices) => {
                Json::Arr(indices.iter().map(|&i| Json::Num(i as f64)).collect())
            }
        }
    }

    fn from_json(value: &Json, context: &str) -> Result<Self, SpecError> {
        match value {
            Json::Str(s) => match s.as_str() {
                "empty" => Ok(PieceSelector::Empty),
                "full" => Ok(PieceSelector::Full),
                "one-club" => Ok(PieceSelector::OneClub),
                other => Err(SpecError::Parse(format!(
                    "{context}: unknown piece selector `{other}` (expected \
                     \"empty\", \"full\", \"one-club\", or an index array)"
                ))),
            },
            Json::Arr(items) => {
                let mut indices = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 => {
                            indices.push(*x as usize);
                        }
                        _ => {
                            return Err(SpecError::Parse(format!(
                                "{context}: piece indices must be non-negative integers"
                            )))
                        }
                    }
                }
                Ok(PieceSelector::Pieces(indices))
            }
            _ => Err(SpecError::Parse(format!(
                "{context}: expected a piece selector"
            ))),
        }
    }
}

/// One Poisson arrival class: peers of type `pieces` at rate `rate`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSpec {
    /// The arriving peers' initial collection.
    pub pieces: PieceSelector,
    /// The class arrival rate `λ_C`.
    pub rate: f64,
}

/// One initial-population group: `count` peers of type `pieces` at time 0.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialGroupSpec {
    /// The group's piece collection.
    pub pieces: PieceSelector,
    /// Number of peers in the group.
    pub count: usize,
}

/// The `"coding"` block of a scenario file: runs the scenario as the
/// Section VIII-B network-coded system (Theorem 15) on one of the coded
/// kernels (`"coded"`, the default with this block, or `"coded-turbo"` for
/// `q = 2`).
///
/// The scenario's `arrivals` must all be empty-handed classes — their
/// combined rate is the total arrival rate `λ`, of which a fraction
/// `gift_fraction` arrive carrying one uniformly random coded piece over
/// `GF(q)` and the rest arrive blank (the paper's headline gifted-arrival
/// model). Piece selectors elsewhere (`initial`, `flash_crowds`) map to the
/// spans of the corresponding unit coding vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct CodingSpec {
    /// The field order `q` (`"q"` in files): a prime or a power of two up to
    /// `2^16`.
    pub field_order: u64,
    /// Fraction `f ∈ [0, 1]` of arrivals carrying one random coded piece.
    pub gift_fraction: f64,
}

/// One scheduled flash crowd.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashSpec {
    /// Simulated time of the burst.
    pub time: f64,
    /// Number of peers joining at once.
    pub count: usize,
    /// The crowd's piece collection.
    pub pieces: PieceSelector,
}

/// A declarative scenario: the full input of one agent-simulator study.
///
/// Everything is data — model rates, arrival mix, initial population, flash
/// crowds, policy, retry speed-up, simulator budget — so scenarios live in
/// JSON files and version control rather than code. See the
/// [module docs](self) and `EXPERIMENTS.md` for the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry name (also the default artifact label).
    pub name: String,
    /// Free-form description shown by `--list-scenarios`.
    pub description: String,
    /// Number of pieces `K`.
    pub num_pieces: usize,
    /// Fixed-seed contact–upload rate `U_s`.
    pub seed_rate: f64,
    /// Peer contact–upload rate `µ`.
    pub contact_rate: f64,
    /// Peer-seed departure rate `γ` (`f64::INFINITY` = immediate departure,
    /// written `"inf"` in files).
    pub seed_departure_rate: f64,
    /// The Poisson arrival classes (at least one with positive rate).
    pub arrivals: Vec<ArrivalSpec>,
    /// Piece-selection policy name (see [`swarm::policy::by_name`]).
    pub policy: String,
    /// Retry speed-up factor `η ≥ 1` of Section VIII-C.
    pub retry_speedup: f64,
    /// 0-based index of the watch piece for the Fig.-2 decomposition.
    pub watch_piece: usize,
    /// Default simulated horizon per replication.
    pub horizon: f64,
    /// Snapshot interval of the simulator.
    pub snapshot_interval: f64,
    /// Event-cap safety valve per replication.
    pub max_events: u64,
    /// Initial population at time 0.
    pub initial: Vec<InitialGroupSpec>,
    /// Scheduled flash crowds.
    pub flash_crowds: Vec<FlashSpec>,
    /// The simulation kernel (`"turbo"`, `"legacy-scan"`, `"coded"`, or
    /// `"coded-turbo"` in files). Turbo is the default; the scan kernel is
    /// turbo's reference in the distributional differential test (both are
    /// deterministic per seed, and they agree statistically, not byte for
    /// byte); the two coded kernels run the network-coded variant and
    /// require a [`ScenarioSpec::coding`] block, `"coded-turbo"` over
    /// `GF(2)` only.
    pub kernel: KernelKind,
    /// Network-coding block; present if and only if the kernel is
    /// [`KernelKind::Coded`] or [`KernelKind::CodedTurbo`].
    pub coding: Option<CodingSpec>,
    /// Intra-replication shard count (`"shards"` in files; turbo kernel
    /// only). `None` runs unsharded; a value above 1 splits each
    /// replication's population across shard workers.
    pub shards: Option<u32>,
    /// Synchronization window of the sharded driver (`"sync_window"` in
    /// files, simulated time between cross-shard exchange rounds). `None`
    /// uses 0.25.
    pub sync_window: Option<f64>,
}

impl ScenarioSpec {
    /// A spec with the model defaults: `U_s = 0`, `µ = 1`, `γ = ∞`,
    /// random-useful policy, `η = 1`, watch piece 0, horizon 1000,
    /// snapshots every 10, the standard event cap, the turbo kernel, and no
    /// arrivals yet.
    #[must_use]
    pub fn new(name: impl Into<String>, num_pieces: usize) -> Self {
        ScenarioSpec {
            name: name.into(),
            description: String::new(),
            num_pieces,
            seed_rate: 0.0,
            contact_rate: 1.0,
            seed_departure_rate: f64::INFINITY,
            arrivals: Vec::new(),
            policy: "random-useful".into(),
            retry_speedup: 1.0,
            watch_piece: 0,
            horizon: 1_000.0,
            snapshot_interval: 10.0,
            max_events: 50_000_000,
            initial: Vec::new(),
            flash_crowds: Vec::new(),
            kernel: KernelKind::Turbo,
            coding: None,
            shards: None,
            sync_window: None,
        }
    }

    /// Compiles the spec into an engine [`AgentScenario`] with stream key
    /// `id`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError::Invalid`] naming the offending field if the
    /// spec does not validate (bad piece indices, invalid rates; unknown
    /// policy names are caught later by the engine's up-front validation).
    pub fn compile(&self, id: u64) -> Result<AgentScenario, SpecError> {
        // Guard the piece-count range before any `PieceSet::full` call so a
        // bad file reports a field error instead of panicking downstream.
        if self.num_pieces == 0 || self.num_pieces > pieceset::MAX_PIECES {
            return Err(SpecError::Invalid(format!(
                "num_pieces {} outside the supported range 1..={}",
                self.num_pieces,
                pieceset::MAX_PIECES
            )));
        }
        if self.watch_piece >= self.num_pieces {
            return Err(SpecError::Invalid(format!(
                "watch_piece {} outside a {}-piece file",
                self.watch_piece, self.num_pieces
            )));
        }
        // Bound the population before anything is sized by it: counts past
        // the kernels' peer index range would overflow an allocation or wrap
        // a `u32` index.
        let mut peers = 0;
        for (i, group) in self.initial.iter().enumerate() {
            peers = checked_population([peers, group.count])
                .map_err(|e| SpecError::Invalid(format!("initial[{i}].count: {e}")))?;
        }
        for (i, crowd) in self.flash_crowds.iter().enumerate() {
            peers = checked_population([peers, crowd.count])
                .map_err(|e| SpecError::Invalid(format!("flash_crowds[{i}].count: {e}")))?;
        }
        let watch = PieceId::new(self.watch_piece);
        match (&self.coding, self.kernel) {
            (Some(_), KernelKind::Coded | KernelKind::CodedTurbo) | (None, _) => {}
            (Some(_), _) => {
                return Err(SpecError::Invalid(
                    "scenario has a `coding` block: it runs only on the coded kernels \
                     (kernel overrides cannot switch a coded scenario to an uncoded one)"
                        .into(),
                ))
            }
        }
        let (params, coding) = if let Some(coding) = &self.coding {
            if !(0.0..=1.0).contains(&coding.gift_fraction) {
                return Err(SpecError::Invalid(format!(
                    "coding: gift_fraction {} must lie in [0, 1]",
                    coding.gift_fraction
                )));
            }
            if self.policy != "random-useful" {
                return Err(SpecError::Invalid(format!(
                    "coding: piece policy `{}` does not apply to the coded \
                     kernel (uploads are random linear combinations)",
                    self.policy
                )));
            }
            if self.retry_speedup != 1.0 {
                return Err(SpecError::Invalid(
                    "coding: the coded kernel does not model the retry speed-up \
                     (retry_speedup must be 1)"
                        .into(),
                ));
            }
            let mut lambda_total = 0.0;
            for (i, arrival) in self.arrivals.iter().enumerate() {
                if arrival.pieces != PieceSelector::Empty {
                    return Err(SpecError::Invalid(format!(
                        "arrivals[{i}]: coded scenarios take empty-handed arrival \
                         classes only; gifted arrivals come from coding.gift_fraction"
                    )));
                }
                lambda_total += arrival.rate;
            }
            let coded = CodedParams::gift_example(
                self.num_pieces,
                coding.field_order,
                lambda_total,
                coding.gift_fraction,
                self.seed_rate,
                self.contact_rate,
                self.seed_departure_rate,
            )
            .map_err(|e| SpecError::Invalid(format!("coding: {e}")))?;
            (coded.base.clone(), Some(coded.gifts()))
        } else {
            if matches!(self.kernel, KernelKind::Coded | KernelKind::CodedTurbo) {
                return Err(SpecError::Invalid(
                    "the coded kernels require a `coding` block".into(),
                ));
            }
            let mut builder = SwarmParams::builder(self.num_pieces)
                .seed_rate(self.seed_rate)
                .contact_rate(self.contact_rate);
            if self.seed_departure_rate.is_finite() {
                builder = builder.seed_departure_rate(self.seed_departure_rate);
            }
            for (i, arrival) in self.arrivals.iter().enumerate() {
                let pieces = arrival
                    .pieces
                    .resolve(self.num_pieces, watch)
                    .map_err(|e| e.context(&format!("arrivals[{i}]")))?;
                builder = builder.arrival(pieces, arrival.rate);
            }
            let params = builder
                .build()
                .map_err(|e| SpecError::Invalid(format!("invalid parameters: {e}")))?;
            (params, None)
        };

        let mut initial = Vec::with_capacity(self.initial.len());
        for (i, group) in self.initial.iter().enumerate() {
            let pieces = group
                .pieces
                .resolve(self.num_pieces, watch)
                .map_err(|e| e.context(&format!("initial[{i}]")))?;
            initial.push((pieces, group.count));
        }
        let mut flash = Vec::with_capacity(self.flash_crowds.len());
        for (i, crowd) in self.flash_crowds.iter().enumerate() {
            flash.push(FlashCrowd {
                time: crowd.time,
                count: crowd.count,
                pieces: crowd
                    .pieces
                    .resolve(self.num_pieces, watch)
                    .map_err(|e| e.context(&format!("flash_crowds[{i}]")))?,
            });
        }

        Ok(AgentScenario {
            id,
            label: self.name.clone(),
            params,
            config: AgentConfig {
                watch_piece: watch,
                retry_speedup: self.retry_speedup,
                snapshot_interval: self.snapshot_interval,
                max_events: self.max_events,
                kernel: self.kernel,
            },
            policy: self.policy.clone(),
            initial,
            flash,
            coding,
            shards: self.shards,
            sync_window: self.sync_window,
        })
    }

    /// Serializes the spec as a canonical JSON scenario file.
    #[must_use]
    pub fn to_json(&self) -> String {
        let gamma = if self.seed_departure_rate.is_finite() {
            Json::Num(self.seed_departure_rate)
        } else {
            Json::Str("inf".into())
        };
        let arrivals = Json::Arr(
            self.arrivals
                .iter()
                .map(|a| {
                    Json::Obj(vec![
                        ("pieces".into(), a.pieces.to_json()),
                        ("rate".into(), Json::Num(a.rate)),
                    ])
                })
                .collect(),
        );
        let initial = Json::Arr(
            self.initial
                .iter()
                .map(|g| {
                    Json::Obj(vec![
                        ("pieces".into(), g.pieces.to_json()),
                        ("count".into(), Json::Num(g.count as f64)),
                    ])
                })
                .collect(),
        );
        let flash = Json::Arr(
            self.flash_crowds
                .iter()
                .map(|f| {
                    Json::Obj(vec![
                        ("time".into(), Json::Num(f.time)),
                        ("count".into(), Json::Num(f.count as f64)),
                        ("pieces".into(), f.pieces.to_json()),
                    ])
                })
                .collect(),
        );
        let mut members = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("description".into(), Json::Str(self.description.clone())),
            ("num_pieces".into(), Json::Num(self.num_pieces as f64)),
            ("seed_rate".into(), Json::Num(self.seed_rate)),
            ("contact_rate".into(), Json::Num(self.contact_rate)),
            ("seed_departure_rate".into(), gamma),
            ("arrivals".into(), arrivals),
            ("policy".into(), Json::Str(self.policy.clone())),
            ("retry_speedup".into(), Json::Num(self.retry_speedup)),
            ("watch_piece".into(), Json::Num(self.watch_piece as f64)),
            ("horizon".into(), Json::Num(self.horizon)),
            (
                "snapshot_interval".into(),
                Json::Num(self.snapshot_interval),
            ),
            ("max_events".into(), Json::Num(self.max_events as f64)),
            ("initial".into(), initial),
            ("flash_crowds".into(), flash),
            ("kernel".into(), Json::Str(self.kernel.name().into())),
        ];
        if let Some(coding) = &self.coding {
            members.push((
                "coding".into(),
                Json::Obj(vec![
                    ("q".into(), Json::Num(coding.field_order as f64)),
                    ("gift_fraction".into(), Json::Num(coding.gift_fraction)),
                ]),
            ));
        }
        if let Some(shards) = self.shards {
            members.push(("shards".into(), Json::Num(f64::from(shards))));
        }
        if let Some(window) = self.sync_window {
            members.push(("sync_window".into(), Json::Num(window)));
        }
        Json::Obj(members).render()
    }

    /// Parses a JSON scenario file. Unknown fields are rejected (they are
    /// almost always typos of optional fields, which would otherwise
    /// silently fall back to defaults).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError::Parse`] naming the offending field or byte
    /// offset.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        const KNOWN: [&str; 19] = [
            "name",
            "description",
            "num_pieces",
            "seed_rate",
            "contact_rate",
            "seed_departure_rate",
            "arrivals",
            "policy",
            "retry_speedup",
            "watch_piece",
            "horizon",
            "snapshot_interval",
            "max_events",
            "initial",
            "flash_crowds",
            "kernel",
            "coding",
            "shards",
            "sync_window",
        ];
        let doc = json::parse(text).map_err(SpecError::Parse)?;
        for key in doc.keys() {
            if !KNOWN.contains(&key) {
                return Err(SpecError::Parse(format!("unknown scenario field `{key}`")));
            }
        }
        let name = match doc.get("name") {
            Some(Json::Str(s)) => s.clone(),
            _ => {
                return Err(SpecError::Parse(
                    "missing required string field `name`".into(),
                ))
            }
        };
        let num_pieces = get_count(&doc, "num_pieces")?.ok_or_else(|| {
            SpecError::Parse("missing required integer field `num_pieces`".into())
        })?;
        let mut spec = ScenarioSpec::new(name, num_pieces);
        if let Some(Json::Str(s)) = doc.get("description") {
            spec.description = s.clone();
        }
        if let Some(x) = get_rate(&doc, "seed_rate")? {
            spec.seed_rate = x;
        }
        if let Some(x) = get_rate(&doc, "contact_rate")? {
            spec.contact_rate = x;
        }
        if let Some(x) = get_rate(&doc, "seed_departure_rate")? {
            spec.seed_departure_rate = x;
        }
        if let Some(Json::Str(s)) = doc.get("policy") {
            spec.policy = s.clone();
        }
        if let Some(x) = get_rate(&doc, "retry_speedup")? {
            spec.retry_speedup = x;
        }
        if let Some(n) = get_count(&doc, "watch_piece")? {
            spec.watch_piece = n;
        }
        if let Some(x) = get_rate(&doc, "horizon")? {
            spec.horizon = x;
        }
        if let Some(x) = get_rate(&doc, "snapshot_interval")? {
            spec.snapshot_interval = x;
        }
        if let Some(n) = get_count(&doc, "max_events")? {
            spec.max_events = n as u64;
        }
        if let Some(n) = get_count(&doc, "shards")? {
            let shards = u32::try_from(n)
                .map_err(|_| SpecError::Parse(format!("`shards` {n} is out of range")))?;
            if shards == 0 {
                return Err(SpecError::Parse("`shards` must be at least 1".into()));
            }
            spec.shards = Some(shards);
        }
        if let Some(x) = get_rate(&doc, "sync_window")? {
            if !(x.is_finite() && x > 0.0) {
                return Err(SpecError::Parse(format!(
                    "`sync_window` {x} must be positive and finite"
                )));
            }
            spec.sync_window = Some(x);
        }
        let kernel_named = doc.get("kernel").is_some();
        if let Some(kernel) = doc.get("kernel") {
            spec.kernel = match kernel {
                Json::Str(s) => KernelKind::from_name(s),
                _ => None,
            }
            .ok_or_else(|| {
                SpecError::Parse(
                    "`kernel` must be \"turbo\", \"legacy-scan\", \
                     \"coded\", or \"coded-turbo\""
                        .into(),
                )
            })?;
        }
        match doc.get("coding") {
            None => {
                if matches!(spec.kernel, KernelKind::Coded | KernelKind::CodedTurbo) {
                    return Err(SpecError::Parse(
                        "the coded kernels require a `coding` block".into(),
                    ));
                }
            }
            Some(block @ Json::Obj(_)) => {
                check_keys(block, &["q", "gift_fraction"], "coding")?;
                let q = get_count(block, "q")?
                    .ok_or_else(|| SpecError::Parse("coding: missing required field `q`".into()))?;
                GaloisField::new(q as u64).map_err(|e| SpecError::Parse(format!("coding: {e}")))?;
                let f = get_rate(block, "gift_fraction")?.ok_or_else(|| {
                    SpecError::Parse("coding: missing required field `gift_fraction`".into())
                })?;
                if f > 1.0 {
                    return Err(SpecError::Parse(format!(
                        "coding: `gift_fraction` {f} must lie in [0, 1]"
                    )));
                }
                spec.coding = Some(CodingSpec {
                    field_order: q as u64,
                    gift_fraction: f,
                });
                if !kernel_named {
                    // A coding block implies the coded kernel.
                    spec.kernel = KernelKind::Coded;
                } else if !matches!(spec.kernel, KernelKind::Coded | KernelKind::CodedTurbo) {
                    return Err(SpecError::Parse(
                        "a `coding` block requires `kernel: \"coded\"` or \
                         `kernel: \"coded-turbo\"` (or omit the kernel field)"
                            .into(),
                    ));
                }
            }
            Some(_) => return Err(SpecError::Parse("`coding` must be an object".into())),
        }
        if let Some(value) = doc.get("arrivals") {
            let items = as_array(value, "arrivals")?;
            for (i, item) in items.iter().enumerate() {
                check_keys(item, &["pieces", "rate"], &format!("arrivals[{i}]"))?;
                spec.arrivals.push(ArrivalSpec {
                    pieces: PieceSelector::from_json(
                        item.get("pieces").ok_or_else(|| {
                            SpecError::Parse(format!("arrivals[{i}]: missing `pieces`"))
                        })?,
                        &format!("arrivals[{i}]"),
                    )?,
                    rate: get_rate(item, "rate")?.ok_or_else(|| {
                        SpecError::Parse(format!("arrivals[{i}]: missing `rate`"))
                    })?,
                });
            }
        }
        if let Some(value) = doc.get("initial") {
            let items = as_array(value, "initial")?;
            for (i, item) in items.iter().enumerate() {
                check_keys(item, &["pieces", "count"], &format!("initial[{i}]"))?;
                spec.initial.push(InitialGroupSpec {
                    pieces: PieceSelector::from_json(
                        item.get("pieces").ok_or_else(|| {
                            SpecError::Parse(format!("initial[{i}]: missing `pieces`"))
                        })?,
                        &format!("initial[{i}]"),
                    )?,
                    count: get_count(item, "count")?.ok_or_else(|| {
                        SpecError::Parse(format!("initial[{i}]: missing `count`"))
                    })?,
                });
            }
        }
        if let Some(value) = doc.get("flash_crowds") {
            let items = as_array(value, "flash_crowds")?;
            for (i, item) in items.iter().enumerate() {
                check_keys(
                    item,
                    &["time", "count", "pieces"],
                    &format!("flash_crowds[{i}]"),
                )?;
                spec.flash_crowds.push(FlashSpec {
                    time: get_rate(item, "time")?.ok_or_else(|| {
                        SpecError::Parse(format!("flash_crowds[{i}]: missing `time`"))
                    })?,
                    count: get_count(item, "count")?.ok_or_else(|| {
                        SpecError::Parse(format!("flash_crowds[{i}]: missing `count`"))
                    })?,
                    pieces: PieceSelector::from_json(
                        item.get("pieces").ok_or_else(|| {
                            SpecError::Parse(format!("flash_crowds[{i}]: missing `pieces`"))
                        })?,
                        &format!("flash_crowds[{i}]"),
                    )?,
                });
            }
        }
        Ok(spec)
    }
}

fn as_array<'a>(value: &'a Json, context: &str) -> Result<&'a [Json], SpecError> {
    match value {
        Json::Arr(items) => Ok(items),
        _ => Err(SpecError::Parse(format!("`{context}` must be an array"))),
    }
}

fn check_keys(value: &Json, known: &[&str], context: &str) -> Result<(), SpecError> {
    for key in value.keys() {
        if !known.contains(&key) {
            return Err(SpecError::Parse(format!(
                "{context}: unknown field `{key}`"
            )));
        }
    }
    Ok(())
}

/// A non-negative rate/time, with `"inf"` accepted for infinity. Every
/// numeric scenario field is a rate, a time, or a budget — none may be
/// negative, so that is rejected at parse time with the field name.
fn get_rate(value: &Json, key: &str) -> Result<Option<f64>, SpecError> {
    match value.get(key) {
        None => Ok(None),
        Some(Json::Num(x)) if *x >= 0.0 => Ok(Some(*x)),
        Some(Json::Str(s)) if s == "inf" => Ok(Some(f64::INFINITY)),
        Some(_) => Err(SpecError::Parse(format!(
            "`{key}` must be a non-negative number (or \"inf\")"
        ))),
    }
}

/// A non-negative integer count.
fn get_count(value: &Json, key: &str) -> Result<Option<usize>, SpecError> {
    match value.get(key) {
        None => Ok(None),
        Some(Json::Num(x)) if *x >= 0.0 && x.fract() == 0.0 => Ok(Some(*x as usize)),
        Some(_) => Err(SpecError::Parse(format!(
            "`{key}` must be a non-negative integer"
        ))),
    }
}

/// The named scenarios shipped with the workspace.
#[derive(Debug, Clone)]
pub struct Registry {
    specs: Vec<ScenarioSpec>,
}

impl Registry {
    /// The built-in scenarios: the paper's examples plus one scenario per
    /// model variant the agent simulator supports. Each doubles as a format
    /// example — `to_json` of any of them is a valid scenario file.
    #[must_use]
    pub fn builtin() -> Self {
        let mut specs = Vec::new();

        let mut s = ScenarioSpec::new("example1-stable", 1);
        s.description = "Example 1 inside the Theorem 1 region: λ0 = 1 < U_s/(1−µ/γ) = 2".into();
        s.seed_rate = 1.0;
        s.seed_departure_rate = 2.0;
        s.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 1.0,
        }];
        specs.push(s);

        let mut s = ScenarioSpec::new("example1-transient", 1);
        s.description =
            "Example 1 outside the region: λ0 = 4 > 2, one club grows at rate ≈ 2".into();
        s.seed_rate = 1.0;
        s.seed_departure_rate = 2.0;
        s.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 4.0,
        }];
        specs.push(s);

        let mut s = ScenarioSpec::new("example2-wedge", 4);
        s.description =
            "Example 2 heterogeneous arrivals outside the 2:1 wedge (λ12 = 2.5·λ34)".into();
        s.arrivals = vec![
            ArrivalSpec {
                pieces: PieceSelector::Pieces(vec![0, 1]),
                rate: 2.5,
            },
            ArrivalSpec {
                pieces: PieceSelector::Pieces(vec![2, 3]),
                rate: 1.0,
            },
        ];
        specs.push(s);

        let mut s = ScenarioSpec::new("flash-crowd", 3);
        s.description =
            "A stable swarm hit by a 400-peer empty-handed flash crowd at t = 200".into();
        s.seed_rate = 1.0;
        s.seed_departure_rate = 2.0;
        s.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 0.8,
        }];
        s.horizon = 600.0;
        s.snapshot_interval = 5.0;
        s.flash_crowds = vec![FlashSpec {
            time: 200.0,
            count: 400,
            pieces: PieceSelector::Empty,
        }];
        specs.push(s);

        let mut s = ScenarioSpec::new("multi-seed", 4);
        s.description =
            "25 altruistic seeds and 50 empty peers at t = 0, slow seed departures (γ = 1)".into();
        s.seed_rate = 0.2;
        s.seed_departure_rate = 1.0;
        s.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 1.5,
        }];
        s.initial = vec![
            InitialGroupSpec {
                pieces: PieceSelector::Full,
                count: 25,
            },
            InitialGroupSpec {
                pieces: PieceSelector::Empty,
                count: 50,
            },
        ];
        specs.push(s);

        let mut s = ScenarioSpec::new("retry-speedup", 3);
        s.description =
            "Section VIII-C push variant: η = 10 retries from an 80-peer one club with gifted arrivals".into();
        s.seed_rate = 0.3;
        s.seed_departure_rate = 3.0;
        s.retry_speedup = 10.0;
        s.arrivals = vec![
            ArrivalSpec {
                pieces: PieceSelector::Empty,
                rate: 2.0,
            },
            ArrivalSpec {
                pieces: PieceSelector::Pieces(vec![0]),
                rate: 0.4,
            },
        ];
        s.initial = vec![InitialGroupSpec {
            pieces: PieceSelector::OneClub,
            count: 80,
        }];
        s.horizon = 600.0;
        specs.push(s);

        let mut s = ScenarioSpec::new("rarest-first", 3);
        s.description = "Theorem 14 probe: the Example-3-like network under rarest-first".into();
        s.seed_departure_rate = 2.0;
        s.policy = "rarest-first".into();
        s.arrivals = (0..3)
            .map(|i| ArrivalSpec {
                pieces: PieceSelector::Pieces(vec![i]),
                rate: 1.0,
            })
            .collect();
        specs.push(s);

        let mut s = ScenarioSpec::new("coded-gift-sub", 8);
        s.description =
            "Theorem 15 below threshold: GF(2), K = 8, f = 0.1 < q/((q−1)K) = 0.25 — transient"
                .into();
        s.kernel = KernelKind::Coded;
        s.coding = Some(CodingSpec {
            field_order: 2,
            gift_fraction: 0.1,
        });
        s.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 1.0,
        }];
        s.horizon = 800.0;
        specs.push(s);

        let mut s = ScenarioSpec::new("coded-gift-super", 8);
        s.description =
            "Theorem 15 above threshold: GF(2), K = 8, f = 0.8 > q²/((q−1)²K) = 0.5 — stable"
                .into();
        s.kernel = KernelKind::Coded;
        s.coding = Some(CodingSpec {
            field_order: 2,
            gift_fraction: 0.8,
        });
        s.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 1.0,
        }];
        s.horizon = 800.0;
        specs.push(s);

        let mut s = ScenarioSpec::new("coded-turbo-gift", 8);
        s.description =
            "The coded-gift-super swarm on the bitsliced GF(2) coded-turbo kernel — lazy peers, packed bases"
                .into();
        s.kernel = KernelKind::CodedTurbo;
        s.coding = Some(CodingSpec {
            field_order: 2,
            gift_fraction: 0.8,
        });
        s.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 1.0,
        }];
        s.horizon = 800.0;
        specs.push(s);

        let mut s = ScenarioSpec::new("big-swarm-k32", 32);
        s.description =
            "The benchmark regime: K = 32, almost-complete arrivals sustaining a multi-thousand-peer swarm".into();
        s.seed_rate = 1.0;
        s.contact_rate = 0.2;
        s.seed_departure_rate = 8.0;
        s.arrivals = (0..32)
            .map(|i| ArrivalSpec {
                pieces: PieceSelector::Pieces((0..32).filter(|&j| j != i).collect()),
                rate: 1000.0 / 32.0,
            })
            .collect();
        s.horizon = 30.0;
        s.snapshot_interval = 0.5;
        specs.push(s);

        Registry { specs }
    }

    /// The scenario names, in registry order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// Looks up a scenario by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ScenarioSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Iterates over the scenarios in registry order.
    pub fn iter(&self) -> impl Iterator<Item = &ScenarioSpec> {
        self.specs.iter()
    }

    /// Resolves `--scenario` CLI input: a path to a JSON scenario file, or
    /// the name of a built-in.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Io`] / [`SpecError::InFile`] if the file fails
    /// to read or parse, or [`SpecError::UnknownScenario`] if the name is
    /// unknown.
    pub fn resolve(&self, file_or_name: &str) -> Result<ScenarioSpec, SpecError> {
        let path = std::path::Path::new(file_or_name);
        if path.is_file() {
            let text = std::fs::read_to_string(path).map_err(|e| SpecError::Io {
                path: path.to_path_buf(),
                message: e.to_string(),
            })?;
            return ScenarioSpec::from_json(&text).map_err(|e| SpecError::in_file(path, e));
        }
        self.get(file_or_name)
            .cloned()
            .ok_or_else(|| SpecError::UnknownScenario {
                name: file_or_name.to_owned(),
                available: self.names().iter().map(ToString::to_string).collect(),
            })
    }
}

/// Execution budget of a registry scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRunOptions {
    /// Replications, combined by majority vote.
    pub replications: u32,
    /// Worker threads (0 = one per core); never changes the numbers.
    pub jobs: usize,
    /// Master seed of the engine streams.
    pub seed: u64,
    /// Overrides the spec's horizon when set.
    pub horizon_override: Option<f64>,
    /// Report replication progress on stderr through the engine's built-in
    /// progress sink (the CLI's `--progress` flag).
    pub progress: bool,
    /// Collect per-replication kernel counters and wall times on the
    /// engine (the CLI's `--metrics` flag); never changes the numbers —
    /// metering consumes no randomness.
    pub metrics: bool,
    /// How replication failures are handled (the CLI's `--failure-policy`
    /// flag); part of the checkpoint digest.
    pub failure_policy: FailurePolicy,
    /// Deterministic fault injection plan (the CLI's `--chaos` flag).
    pub faults: Option<FaultPlan>,
    /// Write crash-consistent checkpoints here (the CLI's `--checkpoint`
    /// flag).
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume from this checkpoint file instead of starting fresh (the
    /// CLI's `--resume` flag).
    pub resume: Option<std::path::PathBuf>,
}

impl Default for ScenarioRunOptions {
    fn default() -> Self {
        ScenarioRunOptions {
            replications: 4,
            jobs: 0,
            seed: 0xA11CE,
            horizon_override: None,
            progress: false,
            metrics: false,
            failure_policy: FailurePolicy::FailFast,
            faults: None,
            checkpoint: None,
            resume: None,
        }
    }
}

/// The outcome of executing one registry scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRunReport {
    /// The executed spec.
    pub spec: ScenarioSpec,
    /// The engine's aggregated outcome.
    pub outcome: ScenarioOutcome,
    /// The horizon actually used.
    pub horizon: f64,
    /// The replication count the session ran (at least 1).
    pub replications: u32,
    /// Every quarantined replication, in stream-key order (empty under
    /// `FailFast`, which aborts instead).
    pub failures: Vec<ReplicationFailure>,
}

impl ScenarioRunReport {
    /// Renders the outcome as a deterministic plain-text report.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let o = &self.outcome;
        let mut out = String::new();
        let _ = writeln!(out, "scenario: {}", self.spec.name);
        if !self.spec.description.is_empty() {
            let _ = writeln!(out, "  {}", self.spec.description);
        }
        let _ = writeln!(
            out,
            "budget: horizon {}, {} replications",
            fmt_num(self.horizon),
            self.replications
        );
        let theorem = if self.spec.coding.is_some() {
            "Theorem 15"
        } else {
            "Theorem 1"
        };
        let _ = writeln!(out, "theory ({theorem}): {:?}", o.theory);
        let _ = writeln!(
            out,
            "simulated majority: {:?} (stable {}, growing {}, indeterminate {}) — {}",
            o.majority,
            o.votes.stable,
            o.votes.growing,
            o.votes.indeterminate,
            if o.agrees {
                "agrees with theory"
            } else {
                "DISAGREES with theory"
            }
        );
        let _ = writeln!(
            out,
            "tail slope: {} ± {} peers/time, tail average N: {} ± {}",
            fmt_num(o.tail_slope.mean),
            fmt_num(o.tail_slope.ci_half_width),
            fmt_num(o.tail_average.mean),
            fmt_num(o.tail_average.ci_half_width)
        );
        let _ = writeln!(
            out,
            "mean events per replication: {}",
            fmt_num(o.mean_events)
        );
        if o.truncated_replications > 0 {
            let _ = writeln!(
                out,
                "WARNING: {}/{} replications hit the max_events safety valve — \
                 verdicts cover truncated trajectories",
                o.truncated_replications, self.replications
            );
        } else {
            let _ = writeln!(out, "no replication hit the max_events safety valve");
        }
        if o.failed_replications > 0 {
            let _ = writeln!(
                out,
                "WARNING: {}/{} replications were quarantined by the failure \
                 policy — they cast no vote and contribute no sample",
                o.failed_replications, self.replications
            );
        }
        out
    }
}

/// Executes a scenario spec on the engine's agent backend through
/// [`engine::Session`], discarding per-replication results.
///
/// Deterministic: a fixed `options.seed` gives bit-identical outcomes at any
/// `options.jobs`.
///
/// # Errors
///
/// Returns a [`SpecError`] if the spec fails to compile or the engine
/// rejects the compiled scenario.
pub fn run(
    spec: &ScenarioSpec,
    options: &ScenarioRunOptions,
) -> Result<ScenarioRunReport, SpecError> {
    run_with_sink(spec, options, &mut NullSink)
}

/// Executes a scenario spec like [`run`], additionally streaming every
/// replication's result into `sink` as it completes (in deterministic
/// replication order — see [`engine::Session::stream`]). The returned
/// report is byte-identical to [`run`]'s: batch execution *is* streaming
/// execution with a null sink.
///
/// # Errors
///
/// Returns a [`SpecError`] if the spec fails to compile or the engine
/// rejects the compiled scenario.
pub fn run_with_sink<S: ReplicationSink + Send>(
    spec: &ScenarioSpec,
    options: &ScenarioRunOptions,
    sink: &mut S,
) -> Result<ScenarioRunReport, SpecError> {
    let scenario = spec.compile(0)?;
    let horizon = options.horizon_override.unwrap_or(spec.horizon);
    let config = EngineConfig::default()
        .with_replications(options.replications)
        .with_horizon(horizon)
        .with_master_seed(options.seed)
        .with_jobs(options.jobs)
        .with_progress(options.progress)
        .with_metrics(options.metrics)
        .with_failure_policy(options.failure_policy);
    let mut builder = Session::builder()
        .config(config)
        .workload(Workload::agent(vec![scenario]));
    if let Some(plan) = &options.faults {
        builder = builder.faults(plan.clone());
    }
    if let Some(spec) = &options.checkpoint {
        builder = builder.checkpoint(spec.clone());
    }
    let session = builder.build()?;
    let mut collecting = CollectFailures {
        inner: sink,
        failures: Vec::new(),
    };
    let output = match &options.resume {
        Some(path) => session.resume_stream(path, &mut collecting)?,
        None => session.stream(&mut collecting),
    };
    let failures = collecting.failures;
    #[expect(
        clippy::expect_used,
        reason = "a session built on Workload::agent of one scenario returns that scenario's outcome"
    )]
    let outcome = output
        .into_agent()
        .and_then(|outcomes| outcomes.into_iter().next())
        .expect("one agent scenario in, one outcome out");
    Ok(ScenarioRunReport {
        spec: spec.clone(),
        outcome,
        horizon,
        replications: session.config().replications,
        failures,
    })
}

/// A pass-through sink that additionally keeps every failure it sees, so
/// the CLI can print a per-replication failure summary after the stream
/// ends.
struct CollectFailures<'s, S: ReplicationSink> {
    inner: &'s mut S,
    failures: Vec<ReplicationFailure>,
}

impl<S: ReplicationSink> ReplicationSink for CollectFailures<'_, S> {
    fn begin(&mut self, plan: &StreamPlan) {
        self.inner.begin(plan);
    }

    fn record(&mut self, record: &ReplicationRecord) {
        self.inner.record(record);
    }

    fn failure(&mut self, failure: &ReplicationFailure) {
        self.failures.push(failure.clone());
        self.inner.failure(failure);
    }

    fn end(&mut self, stats: &StreamStats) {
        self.inner.end(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_compile_and_round_trip() {
        let registry = Registry::builtin();
        assert!(registry.names().len() >= 6);
        for spec in registry.iter() {
            let json = spec.to_json();
            let parsed =
                ScenarioSpec::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(*spec, parsed, "round trip of {}", spec.name);
            let scenario = spec
                .compile(3)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(scenario.id, 3);
            scenario.build_sim().expect("builtin scenarios validate");
        }
    }

    #[test]
    fn unknown_fields_and_bad_values_are_rejected() {
        assert!(ScenarioSpec::from_json("{}").is_err(), "name required");
        assert!(
            ScenarioSpec::from_json(r#"{"name":"x","num_pieces":2,"turbo":1}"#).is_err(),
            "unknown field"
        );
        assert!(
            ScenarioSpec::from_json(r#"{"name":"x","num_pieces":2.5}"#).is_err(),
            "fractional count"
        );
        assert!(
            ScenarioSpec::from_json(
                r#"{"name":"x","num_pieces":2,"arrivals":[{"pieces":"sideways","rate":1}]}"#
            )
            .is_err(),
            "unknown selector"
        );
    }

    #[test]
    fn gamma_inf_spelling_round_trips() {
        let spec = ScenarioSpec::from_json(
            r#"{"name":"x","num_pieces":2,"seed_departure_rate":"inf",
                "arrivals":[{"pieces":"empty","rate":1}]}"#,
        )
        .unwrap();
        assert!(spec.seed_departure_rate.is_infinite());
        let again = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert!(again.seed_departure_rate.is_infinite());
    }

    #[test]
    fn out_of_range_num_pieces_is_an_error_not_a_panic() {
        for k in [0usize, 65, 1000] {
            let mut spec = ScenarioSpec::new("wide", k);
            spec.arrivals = vec![ArrivalSpec {
                pieces: PieceSelector::Empty,
                rate: 1.0,
            }];
            let err = spec.compile(0).unwrap_err().to_string();
            assert!(err.contains("num_pieces"), "{err}");
        }
        assert!(PieceSelector::Empty.resolve(65, PieceId::new(0)).is_err());
    }

    #[test]
    fn negative_numbers_are_rejected_at_parse_time() {
        let doc = r#"{"name":"x","num_pieces":2,
            "arrivals":[{"pieces":"empty","rate":1}],
            "flash_crowds":[{"time":-5.0,"count":3,"pieces":"empty"}]}"#;
        let err = ScenarioSpec::from_json(doc).unwrap_err().to_string();
        assert!(err.contains("time"), "{err}");
        let doc = r#"{"name":"x","num_pieces":2,
            "arrivals":[{"pieces":"empty","rate":-1}]}"#;
        assert!(ScenarioSpec::from_json(doc).is_err());
    }

    #[test]
    fn kernel_field_is_parsed_and_honoured() {
        for (name, kind) in [
            ("legacy-scan", KernelKind::LegacyScan),
            ("turbo", KernelKind::Turbo),
        ] {
            let doc = format!(
                r#"{{"name":"x","num_pieces":2,"kernel":"{name}",
                "arrivals":[{{"pieces":"empty","rate":1}}]}}"#
            );
            let spec = ScenarioSpec::from_json(&doc).unwrap();
            assert_eq!(spec.kernel, kind);
            let scenario = spec.compile(0).unwrap();
            assert_eq!(scenario.config.kernel, kind);
            assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
        }
        let bad = r#"{"name":"x","num_pieces":2,"kernel":"warp",
            "arrivals":[{"pieces":"empty","rate":1}]}"#;
        assert!(ScenarioSpec::from_json(bad).is_err());
    }

    #[test]
    fn kernel_override_wins_over_the_spec_and_turbo_runs_are_deterministic() {
        let registry = Registry::builtin();
        let spec = registry.get("retry-speedup").unwrap();
        assert_eq!(spec.kernel, KernelKind::Turbo, "turbo is the default");
        // `--kernel` writes the kernel into the spec the CLI resolved.
        let mut scan_spec = spec.clone();
        scan_spec.kernel = KernelKind::LegacyScan;
        let run_at = |jobs, spec| {
            let options = ScenarioRunOptions {
                replications: 2,
                jobs,
                seed: 77,
                horizon_override: Some(80.0),
                ..Default::default()
            };
            run(spec, &options).unwrap()
        };
        let turbo = run_at(1, spec);
        assert_eq!(
            turbo.outcome,
            run_at(4, spec).outcome,
            "turbo is deterministic"
        );
        let scan = run_at(1, &scan_spec);
        let scan_jobs4 = run_at(4, &scan_spec);
        assert_eq!(scan.outcome, scan_jobs4.outcome, "scan is deterministic");
        assert_eq!(scan.outcome.votes.total(), 2);
        assert_eq!(
            scan.spec.kernel,
            KernelKind::LegacyScan,
            "the report's spec records the kernel that actually ran"
        );
        assert_ne!(
            scan.outcome, turbo.outcome,
            "the override changed the kernel"
        );
    }

    #[test]
    fn compile_rejects_bad_watch_and_indices() {
        let mut spec = ScenarioSpec::new("x", 2);
        spec.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 1.0,
        }];
        spec.watch_piece = 5;
        assert!(spec.compile(0).is_err());
        spec.watch_piece = 0;
        spec.arrivals[0].pieces = PieceSelector::Pieces(vec![9]);
        assert!(spec.compile(0).is_err());
    }

    #[test]
    fn shard_fields_parse_round_trip_and_compile_through() {
        let doc = r#"{"name":"x","num_pieces":2,"kernel":"turbo",
            "shards":4,"sync_window":0.5,
            "arrivals":[{"pieces":"empty","rate":1}]}"#;
        let spec = ScenarioSpec::from_json(doc).unwrap();
        assert_eq!(spec.shards, Some(4));
        assert_eq!(spec.sync_window, Some(0.5));
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
        let scenario = spec.compile(0).unwrap();
        assert_eq!(scenario.shards, Some(4));
        assert_eq!(scenario.sync_window, Some(0.5));
        // Absent fields stay inherited (`None`), and stay off the wire.
        let plain = ScenarioSpec::from_json(
            r#"{"name":"x","num_pieces":2,"arrivals":[{"pieces":"empty","rate":1}]}"#,
        )
        .unwrap();
        assert_eq!(plain.shards, None);
        assert!(!plain.to_json().contains("shards"));
        // Degenerate values are parse errors, not later surprises.
        for bad in [
            r#"{"name":"x","num_pieces":2,"shards":0,
                "arrivals":[{"pieces":"empty","rate":1}]}"#,
            r#"{"name":"x","num_pieces":2,"sync_window":0,
                "arrivals":[{"pieces":"empty","rate":1}]}"#,
            r#"{"name":"x","num_pieces":2,"sync_window":-1.0,
                "arrivals":[{"pieces":"empty","rate":1}]}"#,
        ] {
            assert!(ScenarioSpec::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn shard_overrides_win_over_the_spec_and_jobs_never_change_the_numbers() {
        let mut spec = ScenarioSpec::new("sharded", 2);
        spec.kernel = KernelKind::Turbo;
        spec.seed_rate = 1.5;
        spec.seed_departure_rate = 2.0;
        spec.arrivals = vec![ArrivalSpec {
            pieces: PieceSelector::Empty,
            rate: 1.2,
        }];
        spec.horizon = 80.0;
        // `--shards` and `--sync-window` write into the spec the CLI resolved.
        spec.shards = Some(3);
        spec.sync_window = Some(0.5);
        let options = ScenarioRunOptions {
            replications: 2,
            jobs: 1,
            seed: 99,
            ..Default::default()
        };
        let a = run(&spec, &options).unwrap();
        assert_eq!(
            a.spec.shards,
            Some(3),
            "the report's spec records the shard count that actually ran"
        );
        assert_eq!(a.spec.sync_window, Some(0.5));
        let b = run(&spec, &ScenarioRunOptions { jobs: 4, ..options }).unwrap();
        assert_eq!(a.outcome, b.outcome, "sharded runs are jobs-independent");
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn run_is_deterministic() {
        let registry = Registry::builtin();
        let spec = registry.get("flash-crowd").unwrap();
        let options = ScenarioRunOptions {
            replications: 2,
            jobs: 1,
            seed: 42,
            horizon_override: Some(120.0),
            ..Default::default()
        };
        let a = run(spec, &options).unwrap();
        let b = run(spec, &ScenarioRunOptions { jobs: 4, ..options }).unwrap();
        assert_eq!(a.outcome, b.outcome, "jobs never change the numbers");
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn the_report_states_the_replication_count_that_ran() {
        // The engine runs at least one replication; the budget line and the
        // warnings' denominators must say so, not echo the request.
        let registry = Registry::builtin();
        let options = ScenarioRunOptions {
            replications: 0,
            jobs: 1,
            seed: 5,
            horizon_override: Some(40.0),
            ..Default::default()
        };
        let report = run(registry.get("example1-stable").unwrap(), &options).unwrap();
        assert_eq!(report.replications, 1);
        assert_eq!(report.outcome.votes.total(), 1);
        assert!(
            report.render().contains(", 1 replications"),
            "{}",
            report.render()
        );
    }
}
