//! Error-path coverage for the scenario file format: malformed documents
//! must come back as typed [`SpecError`] values whose rendered messages
//! name the offending field — never as panics — from the parser
//! (`ScenarioSpec::from_json`), the compiler (`ScenarioSpec::compile`) and
//! the run (`registry::run`). A property test feeds the parser and the
//! compiler arbitrary bytes and single-byte mutations of every built-in
//! scenario file.

use proptest::collection::vec;
use proptest::prelude::*;
use swarm::sim::KernelKind;
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
    // A coding block alone picks the kernel, so a file names none: every
    // `kernel` member, once valid or never, is an unknown field.
    for kernel in [
        r#""warp""#,
        "7",
        r#""event-driven""#,
        r#""turbo""#,
        r#""coded""#,
    ] {
        parse_err(
            &format!(
                r#"{{"name":"x","num_pieces":2,"kernel":{kernel},
                    "arrivals":[{{"pieces":"empty","rate":1}}]}}"#
            ),
            "unknown scenario field `kernel`",
        );
    }
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
    // Nor can a file pair a coding block with a kernel of its choosing.
    parse_err(
        r#"{"name":"x","num_pieces":2,"kernel":"turbo",
            "coding":{"q":2,"gift_fraction":0.5},
            "arrivals":[{"pieces":"empty","rate":1}]}"#,
        "unknown scenario field `kernel`",
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
    .expect("a coding block parses");
    let scenario = spec.compile(0).expect("compiles");
    assert!(scenario.coding.is_some());
    assert_eq!(scenario.config.kernel, KernelKind::Coded);
    let sim = scenario.build_sim().expect("valid coded simulator");
    assert_eq!(sim.config().kernel, KernelKind::Coded);
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
        let json = spec.to_json();
        assert!(json.contains("\"coding\""), "{json}");
        let scenario = spec.compile(1).expect("compiles");
        assert_eq!(scenario.config.kernel, KernelKind::Coded);
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

/// Parses `text` and, when it parses, compiles the spec: both must return,
/// with a typed error or a value, for any input.
fn parse_and_compile(text: &str) -> Result<(), SpecError> {
    let spec = ScenarioSpec::from_json(text)?;
    spec.compile(0).map(drop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_500))]

    #[test]
    fn the_parser_and_compiler_never_panic(
        bytes in vec(any::<u8>(), 0..160),
        builtin in any::<usize>(),
        edit in (0u8..3, any::<usize>(), any::<u8>()),
    ) {
        // Arbitrary bytes, read as lossy UTF-8.
        let _ = parse_and_compile(&String::from_utf8_lossy(&bytes));
        // One edit of a built-in scenario file: a byte replaced, a byte
        // deleted, or the file cut short.
        let registry = Registry::builtin();
        let names = registry.names();
        let name = names[builtin % names.len()];
        let mut file = registry.get(name).expect("a listed name").to_json().into_bytes();
        let (kind, at, byte) = edit;
        let at = at % file.len();
        match kind {
            0 => file[at] = byte,
            1 => {
                file.remove(at);
            }
            _ => file.truncate(at),
        }
        let _ = parse_and_compile(&String::from_utf8_lossy(&file));
        // The file with the retired `kernel` member is refused by name.
        let text = registry.get(name).expect("a listed name").to_json();
        let with_kernel = text.replacen('{', r#"{"kernel":"turbo","#, 1);
        prop_assert_eq!(
            ScenarioSpec::from_json(&with_kernel).map(drop),
            Err(SpecError::Parse("unknown scenario field `kernel`".into()))
        );
    }
}
