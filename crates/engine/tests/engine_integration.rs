//! Integration tests of the replication engine's contract-level
//! properties: scheduling-independent determinism, results that hold
//! across commits, √n confidence-interval shrinkage, and agreement with the
//! Theorem 1 classifier.

use engine::rng::replication_rng;
use engine::{
    artifact, Axis, EngineConfig, GridSpec, PhaseDiagram, ReplicationRecord, ReplicationSink,
    Scenario, ScenarioOutcome, Session, Workload,
};
use markov::gillespie::StopRule;
use markov::PathClass;
use swarm::mu_infinity::{MuInfinityProcess, MuInfinityState};
use swarm::{stability, StabilityVerdict, SwarmModel, SwarmParams};
use workload::experiments::{self, ExperimentConfig, EXAMPLE1_LOADS};
use workload::{scenario, Registry, ScenarioRunOptions};

/// Runs a CTMC batch through the unified Session API.
fn run_batch(scenarios: &[Scenario], config: &EngineConfig) -> Vec<ScenarioOutcome> {
    Session::builder()
        .config(*config)
        .workload(Workload::ctmc(scenarios.to_vec()))
        .build()
        .expect("valid batch")
        .run()
        .into_ctmc()
        .expect("ctmc workload")
}

/// Runs a grid sweep through the unified Session API.
fn run_grid<F>(spec: &GridSpec, make_params: F, config: &EngineConfig) -> PhaseDiagram
where
    F: Fn(usize, f64, f64, f64) -> Option<SwarmParams>,
{
    Session::builder()
        .config(*config)
        .workload(Workload::grid(spec, make_params))
        .build()
        .expect("valid grid")
        .run()
        .into_grid()
        .expect("grid workload")
}

fn example1(lambda0: f64) -> SwarmParams {
    SwarmParams::builder(1)
        .seed_rate(1.0)
        .contact_rate(1.0)
        .seed_departure_rate(2.0)
        .fresh_arrivals(lambda0)
        .build()
        .expect("valid parameters")
}

fn boundary_scenarios() -> Vec<Scenario> {
    // Stable, near-boundary, and transient points of Example 1
    // (threshold λ0 < U_s/(1−µ/γ) = 2).
    vec![
        Scenario::new(0, "stable", example1(1.0)),
        Scenario::new(1, "near-boundary", example1(1.9)),
        Scenario::new(2, "transient", example1(4.0)),
    ]
}

fn config(jobs: usize) -> EngineConfig {
    EngineConfig::default()
        .with_replications(6)
        .with_horizon(400.0)
        .with_master_seed(0xD5EED)
        .with_jobs(jobs)
}

#[test]
fn aggregates_are_bit_identical_at_any_thread_count() {
    let scenarios = boundary_scenarios();
    let reference = run_batch(&scenarios, &config(1));
    for jobs in [2, 4, 8] {
        let outcomes = run_batch(&scenarios, &config(jobs));
        assert_eq!(
            reference, outcomes,
            "jobs = {jobs} must reproduce the single-threaded batch bit-for-bit"
        );
    }
}

#[test]
fn artifacts_are_byte_identical_across_jobs() {
    let scenarios = boundary_scenarios();
    let csv_1 = artifact::outcomes_csv(&run_batch(&scenarios, &config(1)));
    let csv_8 = artifact::outcomes_csv(&run_batch(&scenarios, &config(8)));
    assert_eq!(csv_1, csv_8, "CSV identical across --jobs 1 and --jobs 8");

    let json_1 = artifact::outcomes_json(&run_batch(&scenarios, &config(1)));
    let json_8 = artifact::outcomes_json(&run_batch(&scenarios, &config(8)));
    assert_eq!(
        json_1, json_8,
        "JSON identical across --jobs 1 and --jobs 8"
    );

    let spec = GridSpec {
        lambda0: Axis::new("λ0", vec![0.5, 3.0]),
        mu: Axis::fixed("µ", 1.0),
        gamma: Axis::new("γ", vec![2.0, 6.0]),
        pieces: vec![1],
    };
    let make = |_k: usize, _mu: f64, gamma: f64, lambda0: f64| {
        SwarmParams::builder(1)
            .seed_rate(1.0)
            .contact_rate(1.0)
            .seed_departure_rate(gamma)
            .fresh_arrivals(lambda0)
            .build()
            .ok()
    };
    let grid_1 = run_grid(&spec, make, &config(1));
    let grid_8 = run_grid(&spec, make, &config(8));
    assert_eq!(artifact::phase_csv(&grid_1), artifact::phase_csv(&grid_8));
    assert_eq!(artifact::phase_json(&grid_1), artifact::phase_json(&grid_8));
}

/// Keeps every delivered record, in stream order.
#[derive(Default)]
struct Records(Vec<ReplicationRecord>);

impl ReplicationSink for Records {
    fn record(&mut self, record: &ReplicationRecord) {
        self.0.push(*record);
    }
}

/// `(events, transfers, class)` of each replication of the built-in
/// scenario `name` after `edit` (the CLI's `--shards`), run as
/// `run_experiments --scenario NAME --seed 7 --horizon 250 --replications 4`
/// runs it.
fn builtin_replications(
    name: &str,
    edit: impl FnOnce(&mut workload::ScenarioSpec),
) -> Vec<(u64, u64, PathClass)> {
    let mut spec = Registry::builtin()
        .get(name)
        .expect("a built-in scenario")
        .clone();
    edit(&mut spec);
    let options = ScenarioRunOptions {
        replications: 4,
        jobs: 2,
        seed: 7,
        horizon_override: Some(250.0),
        ..ScenarioRunOptions::default()
    };
    let mut records = Records::default();
    workload::registry::run_with_sink(&spec, &options, &mut records).expect("a valid scenario");
    records
        .0
        .iter()
        .map(|r| (r.events, r.transfers, r.class))
        .collect()
}

/// What the E-reports print of their demo runs at `config`, integers and
/// classes only: every column of E4's two group tables but time, E7's
/// eight classes (stable point, transient point, per policy) with each
/// policy's onset time (a snapshot-grid time `i · 5`, as exact as a
/// count), E8's four departure counts, and E12's unsuccessful contacts and
/// transfers.
fn demo_run_pins(config: &ExperimentConfig) -> [Vec<String>; 4] {
    fn columns(table: &workload::Table, picked: &[usize]) -> Vec<String> {
        table
            .rows()
            .iter()
            .map(|row| {
                let cells: Vec<&str> = picked.iter().map(|&c| row[c].as_str()).collect();
                cells.join(" ")
            })
            .collect()
    }
    let e4 = experiments::one_club_growth(config);
    [
        e4.tables
            .iter()
            .flat_map(|t| columns(t, &[1, 2, 3, 4, 5, 6, 7, 8]))
            .collect(),
        columns(
            &experiments::policy_insensitivity(config).tables[0],
            &[1, 2, 3],
        ),
        columns(&experiments::network_coding(config).tables[1], &[4]),
        columns(&experiments::faster_retry(config).tables[0], &[4, 5]),
    ]
}

#[test]
fn golden_master_holds_across_commits() {
    // Every other determinism check compares two runs of one build; these
    // values were recorded from an earlier commit, so a change that moves
    // any random stream fails here. Integers and classes only: a last-ulp
    // libm difference cannot flip them.
    use PathClass::{Growing, Indeterminate, Stable};
    let turbo = builtin_replications("flash-crowd", |_| {});
    let sharded = builtin_replications("flash-crowd", |spec| spec.shards = Some(3));
    let coded = builtin_replications("coded-gift-super", |_| {});
    let mut ctmc = Records::default();
    Session::builder()
        .config(config(2))
        .workload(Workload::ctmc(boundary_scenarios()))
        .build()
        .expect("valid batch")
        .stream(&mut ctmc);
    let ctmc: Vec<_> = ctmc.0.iter().map(|r| r.class).collect();
    assert_eq!(
        turbo,
        [
            (5805, 1764, Indeterminate),
            (14536, 1575, Growing),
            (14040, 1705, Indeterminate),
            (5863, 1767, Indeterminate),
        ],
        "turbo kernel"
    );
    assert_eq!(
        sharded,
        [
            (16336, 1515, Growing),
            (20609, 1549, Growing),
            (21152, 1423, Growing),
            (20984, 1415, Growing),
        ],
        "turbo sharded three ways"
    );
    assert_eq!(
        coded,
        [
            (2984, 1700, Stable),
            (2932, 1626, Stable),
            (3016, 1705, Stable),
            (3430, 1945, Stable),
        ],
        "coded kernel over GF(2)"
    );
    assert_eq!(
        ctmc,
        [[Stable; 6], [Stable; 6], [Growing; 6]].concat(),
        "CTMC classes (stable, near-boundary, transient)"
    );

    // The experiments tests' `tiny()` budget.
    let tiny = ExperimentConfig {
        horizon: 150.0,
        seed: 42,
        threads: 2,
        replications: 1,
        progress: false,
    };

    // The exact CTMC's streams themselves, which a class can survive: E6's
    // five points (jumps, final peer count) and E9's µ = ∞ run (jumps,
    // maximum population) at the same budget, each on the stream E6 and E9
    // key it to.
    let e6: Vec<(usize, u64)> = [0.5, 0.8, 0.95, 1.5, 3.0]
        .iter()
        .enumerate()
        .map(|(i, &ratio)| {
            let params = scenario::one_extra_piece(3, 20.0, ratio).expect("valid point");
            let model = SwarmModel::new(params);
            let mut rng = replication_rng(tiny.seed, i as u64, 0);
            let path = model.simulate_peer_count(model.empty_state(), tiny.horizon, &mut rng);
            // The initial point, one point per jump, and the closing point.
            (path.len() - 2, path.last_value() as u64)
        })
        .collect();
    assert_eq!(
        e6,
        [
            (15022, 134),
            (14462, 123),
            (8568, 2857),
            (8998, 3002),
            (12443, 1170),
        ],
        "E6 CTMC paths (jumps, final peer count)"
    );
    let process = MuInfinityProcess::new(3, 1.0).expect("valid process");
    let mut rng = replication_rng(tiny.seed, 0xE9, 0);
    let run = process.simulate_peer_count(
        MuInfinityState::Empty,
        StopRule::time_or_events(tiny.horizon * 50.0, 2_000_000),
        &mut rng,
    );
    assert_eq!(
        (run.events, run.path.max_value() as u64),
        (20581, 420),
        "E9 µ = ∞ run (jumps, maximum population)"
    );

    // E1 and E5 at the experiments tests' `tiny()` budget, E1's points also
    // through the engine exactly as E1 builds them.
    let e1_points: Vec<Scenario> = EXAMPLE1_LOADS
        .iter()
        .enumerate()
        .map(|(i, &load)| {
            let params = scenario::example1_at_load(load, 1.0, 1.0, 2.0).expect("valid point");
            Scenario::new(i as u64, format!("load={load}"), params)
        })
        .collect();
    let e1_config = EngineConfig::default()
        .with_replications(1)
        .with_horizon(150.0)
        .with_master_seed(42)
        .with_jobs(2);
    let e1: Vec<String> = run_batch(&e1_points, &e1_config)
        .iter()
        .map(|o| {
            let v = o.votes;
            let votes = format!("{}/{}/{}", v.stable, v.growing, v.indeterminate);
            format!("{:?} {:?} {votes}", o.theory, o.majority)
        })
        .collect();
    let (stable, transient) = ("PositiveRecurrent Stable 1/0/0", "Transient Growing 0/1/0");
    let missed = "PositiveRecurrent Growing 0/1/0";
    assert_eq!(
        e1,
        [stable, stable, missed, transient, transient, transient],
        "E1 (theory, majority, stable/growing/indeterminate votes)"
    );
    let e1_table: Vec<String> = experiments::example1(&tiny).tables[0]
        .rows()
        .iter()
        .map(|row| format!("{} {}", row[1], row[2]))
        .collect();
    let (stable, transient) = ("stable Stable", "transient Growing");
    assert_eq!(
        e1_table,
        [
            stable,
            stable,
            "stable Growing",
            transient,
            transient,
            transient
        ],
        "E1 table (theory, simulated)"
    );
    let e5 = experiments::stability_region(&tiny);
    let map: Vec<&str> = e5.figures[0]
        .1
        .lines()
        .filter(|line| line.contains(" | "))
        .collect();
    assert_eq!(
        map,
        [
            "     8.000 | · # # # # # ",
            "     4.000 | · # # # # # ",
            "     2.000 | · · ? # # # ",
            "     1.250 | · · · · ? · ",
            "     0.800 | · · · · · · ",
        ],
        "E5 region map glyph rows"
    );
    let note = "region map: 28 of 30 cells agree with Theorem 1 (2 mismatches)";
    assert!(e5.notes.iter().any(|n| n == note), "{:?}", e5.notes);

    // The demo runs, each on its own `(tag, variant)` stream: a run handed
    // another run's stream moves its row here. At one worker and at three,
    // which completes E7's eight runs and E12's four in another order.
    for threads in [1, 3] {
        let [e4, e7, e8, e12] = demo_run_pins(&ExperimentConfig { threads, ..tiny });
        assert_eq!(
            e4,
            [
                // The transient configuration.
                "150 150 0 0 0 0 0 0",
                "183 174 0 0 0 9 3 36",
                "216 214 0 0 0 2 7 73",
                "248 243 0 0 0 5 16 114",
                "271 268 0 0 0 3 21 142",
                "292 288 1 0 0 3 37 178",
                "322 316 0 0 0 6 40 212",
                "362 356 0 0 0 6 41 253",
                "393 390 0 0 0 3 50 293",
                "428 419 0 0 0 9 52 330",
                "467 462 0 0 0 5 52 369",
                // The stable configuration.
                "150 150 0 0 0 0 0 0",
                "94 79 9 0 0 6 97 32",
                "17 6 5 2 0 4 203 63",
                "14 0 1 9 0 4 242 96",
                "11 0 0 10 0 1 275 126",
                "12 0 0 10 0 2 307 159",
                "13 0 0 11 0 2 332 184",
                "14 1 1 4 0 8 370 229",
                "15 1 1 8 0 5 419 275",
                "13 0 0 8 0 5 458 313",
                "8 0 0 5 0 3 495 348",
            ],
            "E4 (N, one-club, former, infected, gifted, young, D_t, A_t) at {threads} threads"
        );
        assert_eq!(
            e7,
            [
                "Stable Growing 35.00",
                "Stable Growing 45.00",
                "Stable Growing 30.00",
                "Stable Growing 35.00",
            ],
            "E7 (stable class, transient class, onset) per policy at {threads} threads"
        );
        // E8 runs on the coded kernel over GF(8): the pin of its field-row
        // stream, as `coded-gift-super` above pins the bit-row one.
        assert_eq!(
            e8,
            ["41", "116", "141", "119"],
            "E8 departures at {threads} threads"
        );
        assert_eq!(
            e12,
            ["25860 668", "280715 676", "14999 862", "273057 889"],
            "E12 (unsuccessful contacts, transfers) at {threads} threads"
        );
    }
}

#[test]
fn ci_width_shrinks_like_one_over_sqrt_n() {
    // The tail-average of a stable scenario is a genuinely random quantity
    // with finite variance; quadrupling … ×16 the sample size should cut
    // the interval roughly ×4 (we assert a loose bracket to stay robust to
    // the variance also being re-estimated).
    let scenario = vec![Scenario::new(0, "stable", example1(1.2))];
    let base = EngineConfig::default()
        .with_horizon(150.0)
        .with_master_seed(0xC1)
        .with_jobs(0);
    let narrow = run_batch(&scenario, &base.with_replications(8))[0].tail_average;
    let wide = run_batch(&scenario, &base.with_replications(128))[0].tail_average;
    assert_eq!(narrow.n, 8);
    assert_eq!(wide.n, 128);
    assert!(narrow.ci_half_width.is_finite() && narrow.ci_half_width > 0.0);
    assert!(
        wide.ci_half_width < narrow.ci_half_width * 0.6,
        "128-replication interval ({}) should be well under 0.6× the 8-replication one ({})",
        wide.ci_half_width,
        narrow.ci_half_width
    );
}

#[test]
fn thirty_two_replications_agree_with_classify_on_example1() {
    // The satellite acceptance check: a 32-replication engine run on
    // Example 1, away from the boundary on both sides, must reproduce
    // `stability::classify`'s verdicts by majority vote.
    let scenarios = vec![
        Scenario::new(0, "stable", example1(0.8)),
        Scenario::new(1, "transient", example1(4.0)),
    ];
    let config = EngineConfig::default()
        .with_replications(32)
        .with_horizon(600.0)
        .with_master_seed(0xE1)
        .with_jobs(0);
    let outcomes = run_batch(&scenarios, &config);

    assert_eq!(outcomes[0].theory, StabilityVerdict::PositiveRecurrent);
    assert_eq!(
        outcomes[0].theory,
        stability::classify(&scenarios[0].params).verdict
    );
    assert_eq!(outcomes[0].majority, PathClass::Stable);
    assert!(outcomes[0].agrees);
    assert!(
        outcomes[0].agreement >= 0.75,
        "agreement {}",
        outcomes[0].agreement
    );

    assert_eq!(outcomes[1].theory, StabilityVerdict::Transient);
    assert_eq!(outcomes[1].majority, PathClass::Growing);
    assert!(outcomes[1].agrees);
    assert!(
        outcomes[1].agreement >= 0.75,
        "agreement {}",
        outcomes[1].agreement
    );
    // A transient path grows at a strictly positive rate.
    assert!(outcomes[1].tail_slope.mean > 0.0);
}
