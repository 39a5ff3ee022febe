//! Integration tests of the scenario registry's file path: JSON scenario
//! files on disk resolve, compile, execute deterministically, and round-trip
//! bit-for-bit through the canonical writer.

#![allow(
    clippy::disallowed_methods,
    reason = "test fixtures are written under the system temp directory"
)]

use workload::registry::{run, Registry, ScenarioRunOptions, ScenarioSpec};

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, contents).expect("temp file writable");
    path
}

#[test]
fn scenario_file_resolves_compiles_and_runs() {
    let doc = r#"{
        "name": "file-scenario",
        "description": "a hand-written scenario file",
        "num_pieces": 3,
        "seed_rate": 0.6,
        "contact_rate": 1.0,
        "seed_departure_rate": 2.0,
        "arrivals": [
            {"pieces": "empty", "rate": 1.0},
            {"pieces": [0], "rate": 0.2}
        ],
        "policy": "rarest-first",
        "retry_speedup": 2.0,
        "horizon": 80.0,
        "snapshot_interval": 4.0,
        "initial": [
            {"pieces": "one-club", "count": 30},
            {"pieces": "full", "count": 5}
        ],
        "flash_crowds": [
            {"time": 40.0, "count": 60, "pieces": "empty"}
        ]
    }"#;
    let path = temp_file("p2p_stability_registry_test.json", doc);
    let registry = Registry::builtin();
    let spec = registry
        .resolve(path.to_str().expect("utf-8 path"))
        .expect("file resolves");
    assert_eq!(spec.name, "file-scenario");
    assert_eq!(spec.policy, "rarest-first");
    assert_eq!(spec.initial.len(), 2);
    assert_eq!(spec.flash_crowds.len(), 1);

    // The canonical writer round-trips the parsed spec exactly.
    assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);

    // Execution is deterministic: same seed, different worker counts.
    let options = ScenarioRunOptions {
        replications: 2,
        jobs: 1,
        seed: 0xF11E,
        horizon_override: None,
        ..Default::default()
    };
    let a = run(&spec, &options).expect("runs");
    let b = run(&spec, &ScenarioRunOptions { jobs: 6, ..options }).expect("runs");
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.horizon, 80.0, "spec horizon is used without an override");
    // 35 initial peers plus a 60-peer crowd passed through a stable-ish
    // system: the run must have simulated real work.
    assert!(a.outcome.mean_events > 100.0);
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_names_report_the_available_scenarios() {
    let registry = Registry::builtin();
    let err = registry
        .resolve("no-such-scenario")
        .unwrap_err()
        .to_string();
    assert!(err.contains("no-such-scenario"));
    assert!(
        err.contains("flash-crowd"),
        "error lists the built-ins: {err}"
    );
}

#[test]
fn builtin_big_swarm_scenario_reaches_operating_size() {
    // The K = 32 benchmark-regime scenario runs through the same path the
    // CLI uses, at a reduced budget.
    let registry = Registry::builtin();
    let spec = registry.get("big-swarm-k32").expect("builtin");
    assert_eq!(spec.num_pieces, 32);
    let options = ScenarioRunOptions {
        replications: 1,
        jobs: 1,
        seed: 3,
        horizon_override: Some(8.0),
        ..Default::default()
    };
    let report = run(spec, &options).expect("runs");
    assert!(
        report.outcome.tail_average.mean > 500.0,
        "K = 32 swarm sustains a large population, got {}",
        report.outcome.tail_average.mean
    );
    assert_eq!(report.outcome.truncated_replications, 0);
    let rendered = report.render();
    assert!(rendered.contains("big-swarm-k32"));
}
