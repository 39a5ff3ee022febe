//! One experiment per paper artifact (see `DESIGN.md` §4 and
//! `EXPERIMENTS.md`).
//!
//! Every function returns an [`ExperimentReport`] containing plain-text
//! tables; `run_experiments` prints them, the `paper-full` workload of the
//! repository benchmark (`perfbench`) times them, and the integration tests
//! assert their qualitative content (who wins, where the crossover falls)
//! against the paper's predictions.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "the E-reports unwrap only what they build from hard-coded parameter sets, on budgets the caller validated"
)]

use crate::report::{fmt_num, ExperimentReport, Table};
use crate::scenario;
use engine::{
    Axis, EngineConfig, GridSpec, PhaseDiagram, Scenario, ScenarioOutcome, Session, Workload,
};
use markov::gillespie::{SimulatorRun, StopReason, StopRule};
use markov::PathClassifier;
use pieceset::{PieceId, PieceSet};
use swarm::branching_analysis;
use swarm::coded;
use swarm::lyapunov::LyapunovFunction;
use swarm::metrics::SimResult;
use swarm::mu_infinity::{MuInfinityProcess, MuInfinityState};
use swarm::policy;
use swarm::sim::{AgentConfig, AgentSwarm, KernelKind};
use swarm::stability;
use swarm::{StabilityVerdict, SwarmModel, SwarmParams};

/// Shared experiment configuration: a simulation budget and a base seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Simulated horizon for long runs.
    pub horizon: f64,
    /// Master RNG seed (sweeps derive per-point, per-replication streams
    /// from it through the engine).
    pub seed: u64,
    /// Worker threads for sweeps and demo runs.
    pub threads: usize,
    /// Replications per sweep point, combined by majority vote.
    pub replications: u32,
    /// Report sweep progress on stderr through the engine's built-in
    /// progress sink.
    pub progress: bool,
}

impl ExperimentConfig {
    /// A fast configuration for tests and smoke runs (minutes of simulated
    /// time, not hours).
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            horizon: 600.0,
            seed: 0xA11CE,
            threads: 2,
            replications: 2,
            progress: false,
        }
    }

    /// The full configuration used by the bench harness.
    #[must_use]
    pub fn full() -> Self {
        ExperimentConfig {
            horizon: 2_500.0,
            seed: 0xA11CE,
            threads: 0,
            replications: 8,
            progress: false,
        }
    }

    /// The engine configuration of the Theorem 1 sweeps and region maps:
    /// scenario `i`, replication `r` draws from the engine's `(seed, i, r)`
    /// stream.
    #[must_use]
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::default()
            .with_replications(self.replications)
            .with_horizon(self.horizon)
            .with_master_seed(self.seed)
            .with_jobs(self.threads)
            .with_progress(self.progress)
    }
}

/// The report note for a demo run the simulator's `max_events` safety
/// valve stopped before its horizon (`None` when the run finished): a
/// clipped trajectory must never pass for a full one.
fn truncation_note(run: &str, sim: &AgentSwarm, result: &SimResult) -> Option<String> {
    result
        .truncated
        .then(|| cap_note(run, result.horizon, sim.config().max_events))
}

/// [`truncation_note`] for an exact-CTMC run, which the event budget of
/// its `stop` rule may end before its horizon.
fn budget_note<S>(run: &str, stop: StopRule, result: &SimulatorRun<S>) -> Option<String> {
    (result.stop_reason == StopReason::EventBudget)
        .then(|| cap_note(run, result.final_time, stop.max_events))
}

/// The words of both notes: `run` stopped at `t` on reaching a `cap`-event
/// budget.
fn cap_note(run: &str, t: f64, cap: u64) -> String {
    format!(
        "truncated: {run} stopped at t = {t:.1} on reaching the {cap}-event cap \
         (max_events), so its numbers cover [0, {t:.1}] only"
    )
}

/// Derives the random stream for one illustrative demo trajectory.
///
/// Demo runs use the engine's keyed derivation — `(master seed, stream tag,
/// variant)` — exactly like sweep replications, so no two trajectories ever
/// share a stream. Each experiment passes a distinct `tag` and numbers its
/// variants; the earlier ad-hoc `seed ^ CONST` scheme reused one stream
/// across loop iterations and collided for equal-length policy names.
/// Since a run draws from its own stream alone, E4, E7, E8 and E12 map
/// their lists of runs over `config.threads` workers with
/// [`engine::ordered_map`], a run's index in its list being its variant,
/// and the worker count moves no number.
fn demo_rng(config: &ExperimentConfig, tag: u64, variant: u64) -> impl rand::Rng {
    engine::rng::replication_rng(config.seed, tag, variant)
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::quick()
    }
}

/// The load factors E1 sweeps across the Example 1 boundary; exported so
/// artifact writers (e.g. `run_experiments --out-dir`) describe the same
/// sweep as the E1 report.
pub const EXAMPLE1_LOADS: [f64; 6] = [0.3, 0.6, 0.9, 1.2, 1.6, 2.5];

// The canonical verdict spelling shared with the engine's artifacts.
use engine::labels::verdict_name as verdict_str;

/// Replicates labelled Theorem 1 points through one CTMC [`Session`] and
/// returns their outcomes in input order; point `i` keeps stream key `i`.
fn run_ctmc(
    config: &ExperimentConfig,
    points: impl IntoIterator<Item = (String, SwarmParams)>,
) -> Vec<ScenarioOutcome> {
    let scenarios = points
        .into_iter()
        .enumerate()
        .map(|(i, (label, params))| Scenario::new(i as u64, label, params))
        .collect();
    Session::builder()
        .config(config.engine_config())
        .workload(Workload::ctmc(scenarios))
        .build()
        .unwrap_or_else(|e| panic!("sweep session rejected: {e}"))
        .run()
        .into_ctmc()
        .expect("a CTMC workload")
}

/// E1's load sweep: Example 1 (`U_s = µ = 1`, `γ = 2`) at each of
/// [`EXAMPLE1_LOADS`]. `run_experiments --out-dir` writes these outcomes
/// as the `example1_sweep` artifacts.
#[must_use]
pub fn example1_sweep(config: &ExperimentConfig) -> Vec<ScenarioOutcome> {
    run_ctmc(
        config,
        EXAMPLE1_LOADS.iter().map(|&f| {
            (
                format!("load={f}"),
                scenario::example1_at_load(f, 1.0, 1.0, 2.0).unwrap(),
            )
        }),
    )
}

/// Example 1's stability region (`U_s = 0.5`, `µ = 1`, K = 1) over the
/// given λ0 axis and `γ ∈ {0.8, 1.25, 2, 4, 8}`: E5's map, and
/// `run_experiments --out-dir`'s `phase` artifacts. Cell (row, col) keeps
/// stream key `row · λ0-count + col`.
#[must_use]
pub fn example1_region(config: &ExperimentConfig, lambda0: Axis) -> PhaseDiagram {
    let spec = GridSpec {
        lambda0,
        mu: Axis::fixed("µ", 1.0),
        gamma: Axis::new("γ", vec![0.8, 1.25, 2.0, 4.0, 8.0]),
        pieces: vec![1],
    };
    Session::builder()
        .config(config.engine_config())
        .workload(Workload::grid(&spec, |_k, mu, gamma, lambda0| {
            scenario::example1(lambda0, 0.5, mu, gamma).ok()
        }))
        .build()
        .unwrap_or_else(|e| panic!("region-map session rejected: {e}"))
        .run()
        .into_grid()
        .expect("a grid workload")
}

/// `(agreeing, decidable)`: how many non-borderline points' majority votes
/// agree with Theorem 1, out of how many non-borderline points.
fn agreement(outcomes: &[ScenarioOutcome]) -> (usize, usize) {
    let decidable = outcomes
        .iter()
        .filter(|o| o.theory != StabilityVerdict::Borderline);
    let agreeing = decidable.clone().filter(|o| o.agrees).count();
    (agreeing, decidable.count())
}

fn sweep_table(title: &str, outcomes: &[ScenarioOutcome]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "point",
            "theory",
            "simulated",
            "tail slope",
            "tail avg N",
            "agree",
        ],
    );
    for o in outcomes {
        t.row(&[
            o.label.clone(),
            verdict_str(o.theory).to_owned(),
            format!("{:?}", o.majority),
            fmt_num(o.tail_slope.mean),
            fmt_num(o.tail_average.mean),
            o.agrees.to_string(),
        ]);
    }
    t
}

/// E1 — Example 1 / Fig. 1(a): the single-piece network. Sweeps the load
/// factor `λ0 / (U_s/(1−µ/γ))` across the Theorem 1 boundary and also probes
/// the `γ ≤ µ` regime where any load is stable.
#[must_use]
pub fn example1(config: &ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new("E1", "Example 1 (K = 1): fixed seed plus peer seeds");
    let (us, mu, gamma) = (1.0, 1.0, 2.0);
    let threshold = us / (1.0 - mu / gamma);
    report.note(format!(
        "Theorem 1 threshold: λ0 < U_s/(1−µ/γ) = {}",
        fmt_num(threshold)
    ));

    let outcomes = example1_sweep(config);
    let (agreeing, decidable) = agreement(&outcomes);
    report.push_table(sweep_table(
        "load sweep across the boundary (µ < γ)",
        &outcomes,
    ));
    report.note(format!(
        "agreement with Theorem 1 on decidable points: {agreeing}/{decidable}"
    ));

    // γ ≤ µ regime: heavy load, weak seed — still stable (any load is).
    let slow = scenario::example1(6.0, 0.3, 1.0, 0.8).unwrap();
    let slow_outcomes = run_ctmc(config, [("γ=0.8µ, λ0=6, Us=0.3".into(), slow)]);
    report.push_table(sweep_table(
        "slow-departure regime (γ ≤ µ): stable at any load",
        &slow_outcomes,
    ));
    report
}

/// E2 — Example 2 / Fig. 1(b): `K = 4`, two gifted arrival types, no seed,
/// immediate departures. The region is the wedge `λ12 < 2 λ34`, `λ34 < 2 λ12`.
#[must_use]
pub fn example2(config: &ExperimentConfig) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("E2", "Example 2 (K = 4): two arrival types, no seed, γ = ∞");
    report.note("stability region: λ12 < 2·λ34 and λ34 < 2·λ12");
    let lambda34 = 1.0;
    let ratios = [0.3, 0.7, 1.0, 1.5, 2.5, 4.0];
    let outcomes = run_ctmc(
        config,
        ratios.iter().map(|&r| {
            (
                format!("λ12/λ34={r}"),
                scenario::example2(r * lambda34, lambda34, 1.0).unwrap(),
            )
        }),
    );
    let (agreeing, decidable) = agreement(&outcomes);
    report.push_table(sweep_table(
        "ratio sweep across the 2:1 boundary",
        &outcomes,
    ));
    report.note(format!(
        "agreement with Theorem 1 on decidable points: {agreeing}/{decidable}"
    ));
    report
}

/// E3 — Example 3 / Fig. 1(c): `K = 3`, single-piece arrivals, peer seeds.
/// Sweeps the asymmetry of the arrival rates across the
/// `(2 + µ/γ)/(1 − µ/γ)` boundary, plus the `γ = ∞` degenerate case.
#[must_use]
pub fn example3(config: &ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E3",
        "Example 3 (K = 3): one-piece arrivals with peer seeds",
    );
    let (mu, gamma) = (1.0, 2.0);
    let factor = (2.0 + mu / gamma) / (1.0 - mu / gamma);
    report.note(format!(
        "stability needs λ_i + λ_j < {} · λ_k for every piece k",
        fmt_num(factor)
    ));

    // λ1 = λ2 = 1; sweep λ3 so that (λ1+λ2)/λ3 crosses the factor.
    let crossings = [0.5, 0.8, 1.0, 1.3, 2.0];
    let outcomes = run_ctmc(
        config,
        crossings.iter().map(|&c| {
            // (λ1 + λ2)/λ3 = c · factor → transient when c > 1.
            let lambda3 = 2.0 / (c * factor);
            (
                format!("(λ1+λ2)/(factor·λ3)={c}"),
                scenario::example3([1.0, 1.0, lambda3], mu, gamma).unwrap(),
            )
        }),
    );
    report.push_table(sweep_table(
        "asymmetry sweep across the Example 3 boundary",
        &outcomes,
    ));

    // γ = ∞: symmetric arrival rates are the (null-recurrent) borderline; any
    // asymmetry is transient.
    let degenerate = [
        (
            "γ=∞ symmetric".into(),
            scenario::example3([1.0, 1.0, 1.0], 1.0, f64::INFINITY).unwrap(),
        ),
        (
            "γ=∞ asymmetric".into(),
            scenario::example3([1.0, 1.0, 0.5], 1.0, f64::INFINITY).unwrap(),
        ),
    ];
    let outcomes = run_ctmc(config, degenerate);
    report.push_table(sweep_table(
        "γ = ∞ degenerate cases (Section VIII-D)",
        &outcomes,
    ));
    report
}

/// E4 — Fig. 2 / Section V: the missing-piece syndrome. Starts a transient
/// and a stable configuration from a large one club and reports the group
/// decomposition over time plus the measured one-club growth rate against
/// the predicted `Δ_{F−{1}}`.
#[must_use]
pub fn one_club_growth(config: &ExperimentConfig) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("E4", "Missing-piece syndrome: one-club growth (Fig. 2)");
    let initial_club = 150usize;

    // Transient configuration: K = 3, weak seed, some gifted arrivals.
    let transient = SwarmParams::builder(3)
        .seed_rate(0.2)
        .contact_rate(1.0)
        .seed_departure_rate(4.0)
        .fresh_arrivals(2.5)
        .arrival(PieceSet::singleton(PieceId::new(0)), 0.1)
        .build()
        .expect("valid parameters");
    // Stable configuration: same shape, stronger seed and slower departures.
    let stable = SwarmParams::builder(3)
        .seed_rate(2.5)
        .contact_rate(1.0)
        .seed_departure_rate(1.25)
        .fresh_arrivals(2.5)
        .arrival(PieceSet::singleton(PieceId::new(0)), 0.1)
        .build()
        .expect("valid parameters");

    let configurations = [("transient", transient), ("stable", stable)];
    let runs = engine::ordered_map(config.threads, &configurations, |variant, (_, params)| {
        let sim = AgentSwarm::with_config(
            params.clone(),
            AgentConfig {
                snapshot_interval: (config.horizon / 40.0).max(1.0),
                ..Default::default()
            },
            Box::new(policy::RandomUseful),
        )
        .expect("valid simulator configuration");
        let mut rng = demo_rng(config, 0xE4, variant as u64);
        let result = sim.run_from_one_club(initial_club, config.horizon, &mut rng);
        (sim, result)
    });
    for ((name, params), (sim, result)) in configurations.iter().zip(&runs) {
        let verdict = stability::classify(params).verdict;
        let delta = stability::delta(params, params.full_type().without(PieceId::new(0)))
            .expect("µ < γ in both configurations");
        report.notes.extend(truncation_note(
            &format!("the {name} configuration"),
            sim,
            result,
        ));

        let mut table = Table::new(
            &format!(
                "{name} configuration (Theorem 1: {}, Δ_F−{{1}} = {})",
                verdict_str(verdict),
                fmt_num(delta)
            ),
            &[
                "time", "N", "one-club", "former", "infected", "gifted", "young", "D_t", "A_t",
            ],
        );
        let step = (result.snapshots.len() / 10).max(1);
        for snap in result.snapshots.iter().step_by(step) {
            table.row(&[
                fmt_num(snap.time),
                snap.total_peers.to_string(),
                snap.groups.one_club.to_string(),
                snap.groups.former_one_club.to_string(),
                snap.groups.infected.to_string(),
                snap.groups.gifted.to_string(),
                snap.groups.normal_young.to_string(),
                snap.watch_piece_downloads.to_string(),
                snap.arrivals_without_watch.to_string(),
            ]);
        }
        report.push_table(table);

        let growth = result.one_club_path().trend(0.5).slope;
        report.note(format!(
            "{name}: measured one-club growth rate {} per unit time vs predicted Δ_F−{{1}} = {}",
            fmt_num(growth),
            fmt_num(delta)
        ));
    }
    report
}

/// E5 — the Theorem 1 stability region: a grid over the load factor and the
/// normalised dwell rate `γ/µ`, reporting theory vs simulation agreement.
#[must_use]
pub fn stability_region(config: &ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new("E5", "Theorem 1 stability region grid (load × γ/µ)");
    let us = 0.5;
    let mu = 1.0;
    let gammas = [0.8, 1.5, 3.0, f64::INFINITY];
    let loads = [0.5, 0.9, 1.5, 3.0];
    let mut points = Vec::new();
    for &g in &gammas {
        for &load in &loads {
            // "load" is λ0 relative to the µ<γ threshold computed at γ = 3
            // so the same absolute rates are used across rows.
            let reference_threshold = us / (1.0 - mu / 3.0);
            let lambda0 = load * reference_threshold;
            let label = format!(
                "γ/µ={}, λ0={}",
                if g.is_finite() {
                    g.to_string()
                } else {
                    "inf".into()
                },
                fmt_num(lambda0)
            );
            points.push((label, scenario::example1(lambda0, us, mu, g).unwrap()));
        }
    }
    let outcomes = run_ctmc(config, points);
    let (agreeing, decidable) = agreement(&outcomes);
    let rate = if decidable == 0 {
        1.0
    } else {
        agreeing as f64 / decidable as f64
    };
    report.push_table(sweep_table("grid over (γ/µ, λ0)", &outcomes));
    report.note(format!(
        "agreement on decidable points: {agreeing}/{decidable} ({}%)",
        fmt_num(100.0 * rate)
    ));

    // An ASCII rendering of the same region over a finer (λ0, γ) grid — the
    // closest thing to a region "figure" the paper implies. The λ0 values
    // are the multiples 0.4·i, not `Axis::linspace`'s (whose last value
    // differs in the last bit, which would change that column's point).
    let lambda0 = Axis::new("λ0", (1..=6).map(|i| 0.4 * f64::from(i)).collect());
    let map = example1_region(config, lambda0);
    report.note(format!(
        "region map: {} of {} cells agree with Theorem 1 ({} mismatches)",
        map.agreements(),
        map.len(),
        map.mismatches()
    ));
    report.push_figure(
        "Example 1 stability region over (λ0, γ), U_s = 0.5, µ = 1",
        map.render(),
    );
    report
}

/// E6 — the "one extra piece" corollary: with `γ ≤ µ` the system is stable
/// for any arrival rate and any positive seed rate; with `γ` slightly above
/// `µ` a heavy enough load is transient.
#[must_use]
pub fn one_extra_piece(config: &ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E6",
        "Corollary: dwelling long enough to upload one extra piece stabilises the swarm",
    );
    let lambda0 = 20.0;
    let outcomes = run_ctmc(
        config,
        [0.5, 0.8, 0.95, 1.5, 3.0].iter().map(|&ratio| {
            (
                format!("γ/µ={ratio}, λ0={lambda0}"),
                scenario::one_extra_piece(3, lambda0, ratio).unwrap(),
            )
        }),
    );
    report.push_table(sweep_table(
        "dwell-time sweep at heavy load (K = 3, U_s = 0.05)",
        &outcomes,
    ));
    report.note("theory: stable for γ/µ ≤ 1 regardless of λ0; transient for γ/µ > 1 once λ0 exceeds the (tiny) seed-driven threshold");
    report.note("near γ = µ the system is positive recurrent but its stationary population is enormous (the branching ratio µ/γ approaches one), so finite-horizon simulations sit in a long transient there");
    let gamma_crit =
        stability::critical_departure_rate(&scenario::one_extra_piece(3, lambda0, 2.0).unwrap());
    report.note(format!(
        "critical γ at this load: {} (≥ µ = 1 as the corollary states)",
        fmt_num(gamma_crit)
    ));
    report
}

/// E7 — Theorem 14 (policy insensitivity) and the quasi-stability discussion
/// of Section IX: the same boundary sweep under different useful-piece
/// policies, plus the time for a large one club to emerge in a transient
/// configuration under each policy.
#[must_use]
pub fn policy_insensitivity(config: &ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E7",
        "Theorem 14: the stability region is policy-insensitive",
    );
    let policies = [
        "random-useful",
        "rarest-first",
        "sequential",
        "most-common-first",
    ];

    // Boundary sweep: K = 3 Example-3-like network, stable and transient
    // points. Piece 1 (the default watch piece) is the rare one in the
    // transient configuration, so the one-club counters track the right club.
    let stable_params = scenario::example3([1.0, 1.0, 1.0], 1.0, 2.0).unwrap();
    let transient_params = scenario::example3([0.2, 2.0, 2.0], 1.0, 4.0).unwrap();
    let mut table = Table::new(
        "classification by policy (agent-based simulation)",
        &[
            "policy",
            "stable point → class",
            "transient point → class",
            "one-club onset time (transient)",
        ],
    );
    let points = [("stable", &stable_params), ("transient", &transient_params)];
    // Every policy at both points, policy by policy.
    let demos: Vec<_> = policies
        .iter()
        .flat_map(|&name| points.map(|(_, params)| (name, params)))
        .collect();
    let runs = engine::ordered_map(config.threads, &demos, |variant, &(name, params)| {
        let sim = AgentSwarm::with_config(
            params.clone(),
            AgentConfig {
                snapshot_interval: 5.0,
                ..Default::default()
            },
            policy::by_name(name).expect("known policy"),
        )
        .expect("valid configuration");
        let mut rng = demo_rng(config, 0xE7, variant as u64);
        let result = sim.run(&[], config.horizon, &mut rng);
        (sim, result)
    });
    for (name, runs) in policies.iter().zip(runs.chunks(points.len())) {
        let mut cells = vec![(*name).to_owned()];
        let mut onset = f64::NAN;
        for ((which, params), (sim, result)) in points.into_iter().zip(runs) {
            let run = format!("the {name} run at the {which} point");
            report.notes.extend(truncation_note(&run, sim, result));
            let classifier = PathClassifier::new(params.total_arrival_rate(), 40.0);
            let class = classifier.classify(&result.peer_count_path()).class;
            cells.push(format!("{class:?}"));
            if which == "transient" {
                // Quasi-stability: first time the largest one-club exceeds 100 peers.
                onset = result
                    .snapshots
                    .iter()
                    .find(|s| s.groups.one_club >= 100)
                    .map_or(f64::INFINITY, |s| s.time);
            }
        }
        cells.push(fmt_num(onset));
        table.row(&cells);
    }
    report.push_table(table);
    report.note("Theorem 14: all useful-piece policies share the Theorem 1 region; the onset time of a large one club (quasi-stability) may differ across policies");
    report
}

/// E8 — Theorem 15 and the network-coding example: closed-form gifted-piece
/// thresholds for several `(q, K)` including the paper's `(64, 200)`, the
/// contrast with the uncoded system, and a sweep of the gifted fraction on
/// the coded kernel at laptop scale `(q = 8, K = 4)`.
#[must_use]
pub fn network_coding(config: &ExperimentConfig) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("E8", "Theorem 15: network coding with gifted coded pieces");

    let mut thresholds = Table::new(
        "gifted-fraction thresholds f (transient below / positive recurrent above)",
        &[
            "q",
            "K",
            "transient below",
            "recurrent above",
            "uncoded verdict at f=0.5",
        ],
    );
    for (q, k) in [(8u64, 4usize), (16, 8), (64, 200), (256, 200)] {
        let (lo, hi) = coded::theorem15_gift_thresholds(q, k);
        // The uncoded comparison needs the exact Theorem 1 machinery, which
        // enumerates 2^K types; for the paper's K = 200 headline the uncoded
        // verdict is transient for any f < 1 by the same argument at any K.
        let uncoded = if k <= 16 {
            verdict_str(coded::uncoded_gift_verdict(k, 1.0, 0.5)).to_owned()
        } else {
            "transient (any f < 1)".to_owned()
        };
        thresholds.row(&[
            q.to_string(),
            k.to_string(),
            fmt_num(lo),
            fmt_num(hi),
            uncoded,
        ]);
    }
    report.push_table(thresholds);
    report.note("paper example: q = 64, K = 200 → transient below ≈ 0.00507, recurrent above ≈ 0.00516; without coding any f < 1 is transient");

    // Simulation sweep at (q = 8, K = 4).
    let (q, k) = (8u64, 4usize);
    let (lo, hi) = coded::theorem15_gift_thresholds(q, k);
    let mut sim_table = Table::new(
        &format!("coded swarm simulation, q = {q}, K = {k} (λ_total = 1, U_s = 0, γ = ∞)"),
        &[
            "gift fraction f",
            "Theorem 15",
            "sim class",
            "tail slope",
            "departures",
        ],
    );
    let points = [lo * 0.3, lo * 0.8, (hi * 1.5).min(1.0), (hi * 4.0).min(1.0)].map(|f| {
        let params = coded::CodedParams::gift_example(k, q, 1.0, f, 0.0, 1.0, f64::INFINITY)
            .expect("valid coded parameters");
        (f, params)
    });
    let runs = engine::ordered_map(config.threads, &points, |variant, (_, params)| {
        let sim = AgentSwarm::with_coded(
            params.clone(),
            AgentConfig {
                kernel: KernelKind::Coded,
                snapshot_interval: config.horizon / 200.0,
                ..Default::default()
            },
        )
        .expect("valid coded simulator configuration");
        let mut rng = demo_rng(config, 0xE8, variant as u64);
        let result = sim.run(&[], config.horizon, &mut rng);
        (sim, result)
    });
    for ((f, params), (sim, result)) in points.into_iter().zip(&runs) {
        let run = format!("the f = {} run", fmt_num(f));
        report.notes.extend(truncation_note(&run, sim, result));
        let theory = coded::theorem15_classify(&params).expect("d ∈ {0,1} arrival model");
        let classifier = PathClassifier::new(1.0, 40.0);
        let verdict = classifier.classify(&result.peer_count_path());
        sim_table.row(&[
            fmt_num(f),
            verdict_str(theory).to_owned(),
            format!("{:?}", verdict.class),
            fmt_num(verdict.tail_slope),
            result.sojourns.departures.to_string(),
        ]);
    }
    report.push_table(sim_table);
    report
}

/// E9 — Fig. 3 / Section VIII-D: the `µ = ∞` watched process. Verifies the
/// zero-drift top layer, reports excursion statistics consistent with null
/// recurrence, and sweeps finite `µ/λ` for the Conjecture 17 picture.
#[must_use]
pub fn borderline(config: &ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E9",
        "Borderline case: the µ = ∞ process (Fig. 3) and Conjecture 17",
    );
    let k = 3;
    let process = MuInfinityProcess::new(k, 1.0).expect("valid µ=∞ process");

    // Zero drift on the top layer.
    let mut drift_table = Table::new(
        "top-layer drift of the peer count (should be ≈ 0)",
        &["n", "drift"],
    );
    for n in [5u64, 20, 100, 400] {
        let state = MuInfinityState::Uniform {
            peers: n,
            pieces: k - 1,
        };
        let d = markov::drift::drift(&process, &state, |s| s.peers() as f64);
        drift_table.row(&[n.to_string(), fmt_num(d)]);
    }
    report.push_table(drift_table);
    report.note(format!(
        "E[Z] = K − 1 = {} exactly, so the top layer is a zero-drift walk (null recurrence)",
        k - 1
    ));

    // Excursion statistics of the simulated µ = ∞ process.
    let mut rng = demo_rng(config, 0xE9, 0);
    let stop = StopRule::time_or_events(config.horizon * 50.0, 2_000_000);
    let run = process.simulate_peer_count(MuInfinityState::Empty, stop, &mut rng);
    let mut excursions = Table::new(
        "µ = ∞ process sample-path statistics",
        &["quantity", "value"],
    );
    excursions.row(&[
        "returns to n ≤ 3".to_owned(),
        run.path.upcrossings_of(3.0).to_string(),
    ]);
    excursions.row(&[
        "maximum population".to_owned(),
        fmt_num(run.path.max_value()),
    ]);
    excursions.row(&[
        "time-average population".to_owned(),
        fmt_num(run.path.time_average_values()),
    ]);
    let stats = markov::hitting::excursions_above(&run.path, 3.0);
    excursions.row(&[
        "completed excursions above n = 3".to_owned(),
        stats.completed.to_string(),
    ]);
    excursions.row(&[
        "median excursion length".to_owned(),
        fmt_num(stats.median_length),
    ]);
    excursions.row(&["max excursion length".to_owned(), fmt_num(stats.max_length)]);
    excursions.row(&[
        "max / median excursion length".to_owned(),
        fmt_num(stats.max_to_median()),
    ]);
    report.push_table(excursions);
    report
        .notes
        .extend(budget_note("the µ = ∞ run", stop, &run));
    report.note("null recurrence signature: excursions keep completing (returns are certain) but their lengths are heavy-tailed — the max/median ratio grows with the horizon instead of settling");

    // Conjecture 17: finite µ/λ sweep for the symmetric flat network.
    let mut conj = Table::new(
        "Conjecture 17 probe: symmetric K = 3 flat network at finite µ/λ",
        &["µ/λ", "tail slope of N", "tail average N"],
    );
    for (variant, ratio) in [0.5, 2.0, 8.0].into_iter().enumerate() {
        let params = scenario::example3([1.0, 1.0, 1.0], ratio, f64::INFINITY).unwrap();
        let model = SwarmModel::new(params);
        let mut rng = demo_rng(config, 0x17, variant as u64);
        let path = model.simulate_peer_count(model.empty_state(), config.horizon, &mut rng);
        let trend = path.trend(0.5);
        conj.row(&[
            fmt_num(ratio),
            fmt_num(trend.slope),
            fmt_num(path.time_average_over(config.horizon * 0.5, config.horizon)),
        ]);
    }
    report.push_table(conj);
    report.note("the borderline symmetric system shows no sustained linear growth at any µ/λ and its population wanders at a moderate level — the long-excursion behaviour Conjecture 17 describes, in contrast with the clean linear growth of genuinely transient points");
    report
}

/// E10 — Section VI proof machinery: ABS branching means versus their ξ → 0
/// limits, and linear envelopes of the shape of Proposition 20 (Kingman)
/// and Lemma 21 (M/GI/∞) at a fixed `B = 50`, checked against an
/// agent-based run started from a large one club: `D ≤ 50 + 1.1·D̂·t`,
/// `A ≥ −50 + 0.9·a·t` and `Y ≤ 50 + 0.5·λt + λ(K + 1)`. No probability
/// bound is evaluated.
#[must_use]
pub fn abs_bounds(config: &ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E10",
        "Section VI machinery: branching means and maximal bounds",
    );
    let params = SwarmParams::builder(3)
        .seed_rate(0.3)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(2.0)
        .arrival(PieceSet::singleton(PieceId::new(0)), 0.2)
        .build()
        .expect("valid parameters");
    let piece = PieceId::new(0);

    let mut means = Table::new(
        "ABS offspring means vs ξ → 0 limits",
        &["ξ", "m_b", "m_f", "D̂ rate bound"],
    );
    let limit = branching_analysis::abs_means_limit(&params);
    for xi in [0.1, 0.01, 0.001] {
        let m = branching_analysis::abs_means(&params, xi).expect("subcritical for these ξ");
        let rate =
            branching_analysis::piece_download_rate_bound(&params, piece, xi).expect("subcritical");
        means.row(&[fmt_num(xi), fmt_num(m.m_b), fmt_num(m.m_f), fmt_num(rate)]);
    }
    let limit_rate =
        branching_analysis::piece_download_rate_bound(&params, piece, 1e-9).expect("subcritical");
    means.row(&[
        "limit".to_owned(),
        fmt_num(limit.m_b),
        fmt_num(limit.m_f),
        fmt_num(limit_rate),
    ]);
    report.note(format!(
        "for reference, the Theorem 1 per-piece threshold (the equivalent condition written against λ_total) is {}",
        fmt_num(stability::piece_threshold(&params, piece).expect("µ < γ"))
    ));
    report.push_table(means);

    // Envelope checks against an agent-based run from a large one club.
    let sim = AgentSwarm::with_config(
        params.clone(),
        AgentConfig {
            snapshot_interval: (config.horizon / 100.0).max(1.0),
            ..Default::default()
        },
        Box::new(policy::RandomUseful),
    )
    .expect("valid simulator configuration");
    let mut rng = demo_rng(config, 0x10, 0);
    let result = sim.run_from_one_club(100, config.horizon, &mut rng);
    report
        .notes
        .extend(truncation_note("the envelope run", &sim, &result));

    let d_rate =
        branching_analysis::piece_download_rate_bound(&params, piece, 0.01).expect("subcritical");
    let a_rate: f64 = params.arrival_rate_without_piece(piece);
    let mgi_rate = params.total_arrival_rate();
    let mut env = Table::new(
        "envelope checks (cumulative counters vs linear bounds, B = 50)",
        &[
            "time",
            "D_t",
            "D envelope",
            "A_t",
            "A lower envelope",
            "Y^a+Y^b+Y^g",
            "M/GI/∞ envelope",
        ],
    );
    let mut violations = 0usize;
    for snap in result
        .snapshots
        .iter()
        .step_by((result.snapshots.len() / 8).max(1))
    {
        let d_env = 50.0 + 1.1 * d_rate * snap.time;
        let a_env = -50.0 + 0.9 * a_rate * snap.time;
        let y = snap.groups.young_infected_gifted() as f64;
        let y_env =
            50.0 + 0.5 * mgi_rate * snap.time + mgi_rate * (params.num_pieces() as f64 + 1.0);
        if (snap.watch_piece_downloads as f64) > d_env
            || (snap.arrivals_without_watch as f64) < a_env
            || y > y_env
        {
            violations += 1;
        }
        env.row(&[
            fmt_num(snap.time),
            snap.watch_piece_downloads.to_string(),
            fmt_num(d_env),
            snap.arrivals_without_watch.to_string(),
            fmt_num(a_env),
            y.to_string(),
            fmt_num(y_env),
        ]);
    }
    report.push_table(env);
    report.note(format!("envelope violations observed: {violations} (the bounds hold with high probability, not surely)"));
    report
}

/// E11 — Section VII machinery: the Lyapunov drift `QW(x)` evaluated on
/// heavy-load states inside and outside the stability region.
#[must_use]
pub fn lyapunov_drift(_config: &ExperimentConfig) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("E11", "Section VII machinery: Foster–Lyapunov drift of W");
    let stable = SwarmParams::builder(2)
        .seed_rate(2.0)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(1.0)
        .build()
        .expect("valid parameters");
    let transient = SwarmParams::builder(2)
        .seed_rate(0.1)
        .contact_rate(1.0)
        .seed_departure_rate(4.0)
        .fresh_arrivals(5.0)
        .build()
        .expect("valid parameters");

    for (name, params) in [("stable", stable), ("transient", transient)] {
        let verdict = stability::classify(&params).verdict;
        let model = SwarmModel::new(params.clone());
        let w = LyapunovFunction::new(&params).expect("µ < γ");
        let mut table = Table::new(
            &format!("{name} parameters (Theorem 1: {})", verdict_str(verdict)),
            &["heavy-load state", "n", "QW(x)", "QW(x)/n"],
        );
        for n in [100u32, 300, 900] {
            // One-club heavy load.
            let x = model.one_club_state(PieceId::new(0), n);
            let d = w.drift(&model, &x);
            table.row(&[
                format!("one-club({n})"),
                n.to_string(),
                fmt_num(d),
                fmt_num(d / f64::from(n)),
            ]);
            // Peer-seed heavy load (always drains).
            let seeds = swarm::SwarmState::uniform(model.type_space(), params.full_type(), n);
            let d = w.drift(&model, &seeds);
            table.row(&[
                format!("seeds({n})"),
                n.to_string(),
                fmt_num(d),
                fmt_num(d / f64::from(n)),
            ]);
        }
        report.push_table(table);
    }
    report.note("inside the region the drift on heavy-load states is negative and scales like −Θ(n); outside it is positive on the one-club states, matching Lemma 12");
    report
}

/// E12 — Section VIII-C: the faster-retry variant. Compares `η = 1` against
/// `η = 10` with and without gifted arrivals.
#[must_use]
pub fn faster_retry(config: &ExperimentConfig) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "E12",
        "Section VIII-C: faster retries after unsuccessful contacts",
    );
    let mut table = Table::new(
        "η sweep (K = 3, transient-ish load, with and without gifted arrivals)",
        &[
            "gifted arrivals",
            "η",
            "tail slope of N",
            "final one-club",
            "unsuccessful contacts",
            "transfers",
        ],
    );
    let params = [false, true].map(|gifted| {
        let mut builder = SwarmParams::builder(3)
            .seed_rate(0.3)
            .contact_rate(1.0)
            .seed_departure_rate(3.0)
            .fresh_arrivals(2.0);
        if gifted {
            builder = builder.arrival(PieceSet::singleton(PieceId::new(0)), 0.4);
        }
        builder.build().expect("valid parameters")
    });
    // η = 1 and η = 10, first without gifted arrivals, then with them.
    let demos: Vec<_> = [false, true]
        .into_iter()
        .zip(&params)
        .flat_map(|(gifted, params)| [1.0, 10.0].map(|eta| (gifted, params, eta)))
        .collect();
    let runs = engine::ordered_map(config.threads, &demos, |variant, &(_, params, eta)| {
        let sim = AgentSwarm::with_config(
            params.clone(),
            AgentConfig {
                retry_speedup: eta,
                snapshot_interval: 5.0,
                ..Default::default()
            },
            Box::new(policy::RandomUseful),
        )
        .expect("valid configuration");
        let mut rng = demo_rng(config, 0x12, variant as u64);
        let result = sim.run_from_one_club(80, config.horizon, &mut rng);
        (sim, result)
    });
    for (&(gifted, _, eta), (sim, result)) in demos.iter().zip(&runs) {
        let gifts = if gifted { "with" } else { "without" };
        let run = format!("the η = {eta} run {gifts} gifted arrivals");
        report.notes.extend(truncation_note(&run, sim, result));
        let trend = result.peer_count_path().trend(0.5);
        table.row(&[
            gifted.to_string(),
            fmt_num(eta),
            fmt_num(trend.slope),
            result.final_snapshot().groups.one_club.to_string(),
            result.unsuccessful_contacts.to_string(),
            result.transfers.to_string(),
        ]);
    }
    report.push_table(table);
    report.note("faster retries multiply the number of unsuccessful contacts roughly by η");
    report.note("without gifted arrivals the growth rate is essentially unchanged (the stability condition does not move, as Section VIII-C argues)");
    report.note("with gifted arrivals the push-style speed-up worsens the missing-piece syndrome — the one club grows faster — matching the paper's warning about this model variant");
    report
}

/// Runs every experiment at the given configuration and returns the reports
/// in order E1–E12.
#[must_use]
pub fn run_all(config: &ExperimentConfig) -> Vec<ExperimentReport> {
    vec![
        example1(config),
        example2(config),
        example3(config),
        one_club_growth(config),
        stability_region(config),
        one_extra_piece(config),
        policy_insensitivity(config),
        network_coding(config),
        borderline(config),
        abs_bounds(config),
        lyapunov_drift(config),
        faster_retry(config),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            horizon: 150.0,
            seed: 42,
            threads: 2,
            replications: 1,
            progress: false,
        }
    }

    /// A demo run over 100 time units under a `max_events` cap: Example 1
    /// on the turbo kernel, or E8's gift model on the coded kernel.
    fn capped_demo(kernel: KernelKind, max_events: u64) -> Option<String> {
        let config = AgentConfig {
            kernel,
            max_events,
            ..Default::default()
        };
        let sim = if kernel == KernelKind::Coded {
            let params = coded::CodedParams::gift_example(4, 8, 1.0, 0.5, 0.0, 1.0, f64::INFINITY);
            AgentSwarm::with_coded(params.unwrap(), config)
        } else {
            let params = scenario::example1(1.0, 1.0, 1.0, 2.0).unwrap();
            AgentSwarm::with_config(params, config, Box::new(policy::RandomUseful))
        }
        .unwrap();
        let result = sim.run(&[], 100.0, &mut demo_rng(&tiny(), 0xAB, 0));
        truncation_note("the probe run", &sim, &result)
    }

    #[test]
    fn truncation_note_names_a_clipped_run_its_stop_time_and_the_cap() {
        for kernel in [KernelKind::Turbo, KernelKind::Coded] {
            let note = capped_demo(kernel, 100).expect("100 events cannot cover 100 time units");
            assert!(
                note.starts_with("truncated: the probe run stopped at t = "),
                "{note}"
            );
            assert!(note.contains("the 100-event cap"), "{note}");
            // perfbench parses these prefixes as agreement counts.
            assert!(!note.starts_with("agreement") && !note.starts_with("region map: "));
        }
    }

    #[test]
    fn truncation_note_is_silent_for_a_run_that_reaches_its_horizon() {
        for kernel in [KernelKind::Turbo, KernelKind::Coded] {
            assert_eq!(capped_demo(kernel, AgentConfig::default().max_events), None);
        }
    }

    /// E9's µ = ∞ run over `horizon` under a `max_events` budget.
    fn capped_mu_infinity(horizon: f64, max_events: u64) -> Option<String> {
        let process = MuInfinityProcess::new(3, 1.0).unwrap();
        let stop = StopRule::time_or_events(horizon, max_events);
        let mut rng = demo_rng(&tiny(), 0xE9, 0);
        let run = process.simulate_peer_count(MuInfinityState::Empty, stop, &mut rng);
        budget_note("the µ = ∞ run", stop, &run)
    }

    #[test]
    fn budget_note_names_a_clipped_ctmc_run_its_stop_time_and_the_cap() {
        let note = capped_mu_infinity(1_000.0, 50).expect("50 jumps cannot cover 1000 time units");
        assert!(
            note.starts_with("truncated: the µ = ∞ run stopped at t = "),
            "{note}"
        );
        assert!(note.contains("the 50-event cap"), "{note}");
    }

    #[test]
    fn budget_note_is_silent_when_the_horizon_binds() {
        assert_eq!(capped_mu_infinity(100.0, 2_000_000), None);
    }

    #[test]
    fn example1_report_structure() {
        let r = example1(&tiny());
        assert_eq!(r.id, "E1");
        assert_eq!(r.tables.len(), 2);
        assert_eq!(r.tables[0].len(), 6);
        assert!(r.render().contains("Theorem 1 threshold"));
    }

    #[test]
    fn example2_and_example3_reports() {
        let r2 = example2(&tiny());
        assert_eq!(r2.tables.len(), 1);
        assert_eq!(r2.tables[0].len(), 6);
        let r3 = example3(&tiny());
        assert_eq!(r3.tables.len(), 2);
    }

    #[test]
    fn one_club_growth_reports_both_configurations() {
        let r = one_club_growth(&tiny());
        assert_eq!(r.tables.len(), 2);
        assert!(r.notes.iter().any(|n| n.contains("transient")));
        assert!(r.notes.iter().any(|n| n.contains("stable")));
    }

    #[test]
    fn stability_region_grid_has_all_cells() {
        let r = stability_region(&tiny());
        assert_eq!(r.tables[0].len(), 16);
    }

    #[test]
    fn one_extra_piece_report() {
        let r = one_extra_piece(&tiny());
        assert_eq!(r.tables[0].len(), 5);
        assert!(r.notes.iter().any(|n| n.contains("critical γ")));
    }

    #[test]
    fn policy_insensitivity_covers_all_policies() {
        let r = policy_insensitivity(&tiny());
        assert_eq!(r.tables[0].len(), 4);
    }

    #[test]
    fn network_coding_thresholds_table() {
        let r = network_coding(&tiny());
        assert_eq!(r.tables.len(), 2);
        // the (64, 200) row must be present with the paper's numbers
        let rendered = r.render();
        assert!(rendered.contains("200"));
        assert!(rendered.contains("0.0051") || rendered.contains("5.1"));
    }

    #[test]
    fn borderline_report_has_drift_and_conjecture_tables() {
        let r = borderline(&tiny());
        assert_eq!(r.tables.len(), 3);
        // Away from the lower boundary (large n) the top-layer drift is ~0;
        // small-n rows show the boundary effect the paper ignores.
        for row in r.tables[0].rows() {
            let n: f64 = row[0].parse().unwrap_or(0.0);
            let drift: f64 = row[1].parse().unwrap_or(0.0);
            if n >= 100.0 {
                assert!(drift.abs() < 1e-6, "drift {drift} at n = {n}");
            }
        }
    }

    #[test]
    fn abs_bounds_and_lyapunov_reports() {
        let r = abs_bounds(&tiny());
        assert_eq!(r.tables.len(), 2);
        let r = lyapunov_drift(&tiny());
        assert_eq!(r.tables.len(), 2);
    }

    #[test]
    fn faster_retry_report() {
        let r = faster_retry(&tiny());
        assert_eq!(r.tables[0].len(), 4);
    }
}
