//! Error-path coverage for the scenario file format: malformed documents
//! must come back as typed [`SpecError`] values whose rendered messages
//! name the offending field — never as panics — from the parser
//! (`ScenarioSpec::from_json`), the compiler (`ScenarioSpec::compile`) and
//! the run (`registry::run`).

use workload::ndjson;
use workload::registry::{self, Registry, ScenarioRunOptions, ScenarioSpec};
use workload::SpecError;

/// Parses and asserts the error message mentions `needle`.
fn parse_err(doc: &str, needle: &str) {
    match ScenarioSpec::from_json(doc) {
        Ok(spec) => panic!("{doc} should not parse, got {spec:?}"),
        Err(error) => {
            assert!(
                matches!(error, SpecError::Parse(_)),
                "parser failures are SpecError::Parse, got {error:?}"
            );
            let message = error.to_string();
            assert!(
                message.contains(needle),
                "error for {doc} should mention `{needle}`, got: {message}"
            );
        }
    }
}

#[test]
fn unknown_kernel_names_are_structured_errors() {
    parse_err(
        r#"{"name":"x","num_pieces":2,"kernel":"warp",
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "kernel",
    );
    parse_err(
        r#"{"name":"x","num_pieces":2,"kernel":7,
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "kernel",
    );
    // The deleted event-driven kernel is no longer a kernel name.
    parse_err(
        r#"{"name":"x","num_pieces":2,"kernel":"event-driven",
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "kernel",
    );
    // `coded` is a valid kernel name, but only with a coding block.
    parse_err(
        r#"{"name":"x","num_pieces":2,"kernel":"coded",
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "coding",
    );
}

/// Parses `doc` and asserts that compiling it fails with a
/// [`SpecError::Invalid`] whose message mentions `needle`.
fn compile_err(doc: &str, needle: &str) {
    let spec = ScenarioSpec::from_json(doc).expect("parses");
    match spec.compile(0) {
        Ok(_) => panic!("{doc} should not compile"),
        Err(error) => {
            assert!(
                matches!(error, SpecError::Invalid(_)),
                "compile failures are SpecError::Invalid, got {error:?}"
            );
            let message = error.to_string();
            assert!(
                message.contains(needle),
                "error for {doc} should mention `{needle}`, got: {message}"
            );
        }
    }
}

#[test]
fn peer_counts_past_the_index_range_are_structured_errors() {
    // One initial group too large to index.
    compile_err(
        r#"{"name":"x","num_pieces":2,"arrivals":[{"pieces":"empty","rate":1}],
            "initial":[{"pieces":"empty","count":1e19}]}"#,
        "initial[0].count",
    );
    // Two initial groups whose counts overflow a usize sum.
    compile_err(
        r#"{"name":"x","num_pieces":2,"arrivals":[{"pieces":"empty","rate":1}],
            "initial":[{"pieces":"empty","count":1},
                       {"pieces":"empty","count":1.8446744073709552e19}]}"#,
        "initial[1].count",
    );
    // A flash crowd too large to index.
    compile_err(
        r#"{"name":"x","num_pieces":2,"arrivals":[{"pieces":"empty","rate":1}],
            "flash_crowds":[{"time":5,"count":1e19,"pieces":"empty"}]}"#,
        "flash_crowds[0].count",
    );
    // The bound holds for the sum, not just each count: 2^32 − 1 initial
    // peers fit, one more flash-crowd peer does not.
    compile_err(
        r#"{"name":"x","num_pieces":2,"arrivals":[{"pieces":"empty","rate":1}],
            "initial":[{"pieces":"empty","count":4294967295}],
            "flash_crowds":[{"time":5,"count":1,"pieces":"empty"}]}"#,
        "flash_crowds[0].count",
    );
}

#[test]
fn zero_and_endless_horizons_are_engine_errors_not_panics_or_hangs() {
    let options = ScenarioRunOptions {
        replications: 1,
        jobs: 1,
        ..Default::default()
    };
    for horizon in ["0", r#""inf""#] {
        let doc = format!(
            r#"{{"name":"x","num_pieces":1,"seed_rate":1,"horizon":{horizon},
                "max_events":1000,"arrivals":[{{"pieces":"empty","rate":1}}]}}"#
        );
        let spec = ScenarioSpec::from_json(&doc).expect("parses");
        match registry::run(&spec, &options) {
            Ok(report) => panic!("horizon {horizon} ran: {}", report.render()),
            Err(error) => {
                assert!(
                    matches!(error, SpecError::Engine(_)),
                    "a typed engine error, got {error:?}"
                );
                assert!(error.to_string().contains("horizon"), "{error}");
            }
        }
    }
}

#[test]
fn malformed_coding_blocks_are_structured_errors() {
    // Not an object.
    parse_err(
        r#"{"name":"x","num_pieces":2,"coding":"gf2",
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "coding",
    );
    // Missing q.
    parse_err(
        r#"{"name":"x","num_pieces":2,"coding":{"gift_fraction":0.5},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "`q`",
    );
    // Missing gift_fraction.
    parse_err(
        r#"{"name":"x","num_pieces":2,"coding":{"q":2},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "gift_fraction",
    );
    // Unknown member inside the block (almost always a typo).
    parse_err(
        r#"{"name":"x","num_pieces":2,
            "coding":{"q":2,"gift_fraction":0.5,"giftfrac":0.5},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "giftfrac",
    );
    // An unsupported field order (GF(6) does not exist).
    parse_err(
        r#"{"name":"x","num_pieces":2,"coding":{"q":6,"gift_fraction":0.5},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "field order",
    );
    // A fractional field order.
    parse_err(
        r#"{"name":"x","num_pieces":2,"coding":{"q":2.5,"gift_fraction":0.5},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "`q`",
    );
    // A coding block cannot ride on an uncoded kernel.
    parse_err(
        r#"{"name":"x","num_pieces":2,"kernel":"turbo",
            "coding":{"q":2,"gift_fraction":0.5},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "coded",
    );
}

#[test]
fn out_of_range_gift_fractions_are_structured_errors() {
    parse_err(
        r#"{"name":"x","num_pieces":2,"coding":{"q":2,"gift_fraction":1.5},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "gift_fraction",
    );
    parse_err(
        r#"{"name":"x","num_pieces":2,"coding":{"q":2,"gift_fraction":-0.25},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "gift_fraction",
    );
}

#[test]
fn coding_block_implies_the_coded_kernel() {
    let spec = ScenarioSpec::from_json(
        r#"{"name":"x","num_pieces":4,"coding":{"q":8,"gift_fraction":0.5},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
    )
    .expect("kernel defaults to coded when a coding block is present");
    assert_eq!(spec.kernel, swarm::sim::KernelKind::Coded);
    let scenario = spec.compile(0).expect("compiles");
    assert!(scenario.coding.is_some());
    scenario.build_sim().expect("valid coded simulator");
    // And the spec round-trips through its own file format.
    assert_eq!(ScenarioSpec::from_json(&spec.to_json()).unwrap(), spec);
}

#[test]
fn coded_compile_rejects_incompatible_features() {
    let base = r#"{"name":"x","num_pieces":4,"coding":{"q":8,"gift_fraction":0.5},
        "arrivals":[{"pieces":"empty","rate":1}]%EXTRA%}"#;
    let compile_err =
        |extra: &str, needle: &str| compile_err(&base.replace("%EXTRA%", extra), needle);
    // Gifted arrivals are expressed by gift_fraction, not piece selectors.
    let spec = ScenarioSpec::from_json(
        r#"{"name":"x","num_pieces":4,"coding":{"q":8,"gift_fraction":0.5},
            "arrivals":[{"pieces":[0],"rate":1}]}"#,
    )
    .expect("parses");
    let message = spec
        .compile(0)
        .expect_err("non-empty arrivals rejected")
        .to_string();
    assert!(message.contains("empty-handed"), "{message}");
    // Piece policies and retry speed-ups do not apply to coded uploads.
    compile_err(r#","policy":"rarest-first""#, "policy");
    compile_err(r#","retry_speedup":4.0"#, "retry");
}

#[test]
fn builtin_coded_scenarios_are_wellformed() {
    let registry = Registry::builtin();
    for name in ["coded-gift-sub", "coded-gift-super"] {
        let spec = registry
            .get(name)
            .unwrap_or_else(|| panic!("{name} exists"));
        assert_eq!(spec.kernel, swarm::sim::KernelKind::Coded);
        let json = spec.to_json();
        assert!(json.contains("\"coding\""), "{json}");
        let scenario = spec.compile(1).expect("compiles");
        scenario.build_sim().expect("valid simulator");
    }
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    // 200,000 open brackets overflow any recursive descent without a cap.
    let deep = "[".repeat(200_000);
    parse_err(&deep, "nesting limit");
    // The metrics validator parses every NDJSON line with the same reader.
    match ndjson::validate(&format!("{deep}\n{{\"type\":\"end\"}}\n")) {
        Err(SpecError::Parse(message)) => {
            assert!(message.contains("line 1"), "{message}");
            assert!(message.contains("nesting limit"), "{message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn megabyte_strings_parse_in_linear_time() {
    // String decoding must be linear in the input, or a 1 MB field takes
    // minutes. Multi-byte characters and escapes check the decoded text.
    let (encoded, decoded) = (r#"peer ∅ \\ swarm \"q\" "#, "peer ∅ \\ swarm \"q\" ");
    let copies = (1 << 20) / encoded.len();
    let name = encoded.repeat(copies);
    let doc = |fields: &str| format!(r#"{{"name":"{name}"{fields},"arrivals":[]}}"#);
    let spec = ScenarioSpec::from_json(&doc(r#","num_pieces":2"#)).expect("parses");
    assert_eq!(spec.name, decoded.repeat(copies));
    parse_err(&doc(""), "num_pieces");
}
