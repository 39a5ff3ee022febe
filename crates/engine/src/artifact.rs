//! CSV and JSON artifact emitters for batch and phase-diagram results.
//!
//! Serialization is hand-rolled (the workspace's serde is a no-op shim; see
//! `shims/README.md`) and deliberately canonical: floats print through
//! Rust's shortest-round-trip `Display`, rows follow input order, and no
//! timestamps or host details are embedded — so a fixed master seed yields
//! byte-identical artifacts at any worker count, which the integration
//! tests assert.

use crate::grid::PhaseDiagram;
use crate::replicate::ScenarioOutcome;
use std::io;
use std::path::{Path, PathBuf};

// The canonical verdict/class spellings live in [`crate::labels`];
// re-exported here because artifact columns are where most callers meet
// them.
pub use crate::labels::{class_name, verdict_name};

/// A float rendered for CSV cells (`inf` / `-inf` / `nan` for non-finite).
fn csv_f64(x: f64) -> String {
    if x.is_nan() {
        "nan".to_owned()
    } else if x.is_infinite() {
        if x > 0.0 {
            "inf".to_owned()
        } else {
            "-inf".to_owned()
        }
    } else {
        format!("{x}")
    }
}

/// A float rendered as a JSON value (`null` for non-finite, which JSON
/// cannot represent as a number). `workload`'s scenario writer renders its
/// numbers through this too.
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for a JSON string literal (without the quotes).
/// `workload`'s scenario writer escapes its strings through this too.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a CSV field (quotes it when it contains separators or quotes).
fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

const OUTCOME_HEADER: &str = "scenario_id,label,theory,majority,agrees,agreement,\
votes_stable,votes_growing,votes_indeterminate,replications,failed_replications,\
tail_slope_mean,tail_slope_ci_half_width,tail_slope_std_dev,tail_slope_min,tail_slope_max,\
tail_average_mean,tail_average_ci_half_width,tail_average_std_dev,tail_average_min,tail_average_max";

fn outcome_csv_row(o: &ScenarioOutcome) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        o.scenario_id,
        csv_escape(&o.label),
        verdict_name(o.theory),
        class_name(o.majority),
        o.agrees,
        csv_f64(o.agreement),
        o.votes.stable,
        o.votes.growing,
        o.votes.indeterminate,
        o.votes.total(),
        o.failed_replications,
        csv_f64(o.tail_slope.mean),
        csv_f64(o.tail_slope.ci_half_width),
        csv_f64(o.tail_slope.std_dev),
        csv_f64(o.tail_slope.min),
        csv_f64(o.tail_slope.max),
        csv_f64(o.tail_average.mean),
        csv_f64(o.tail_average.ci_half_width),
        csv_f64(o.tail_average.std_dev),
        csv_f64(o.tail_average.min),
        csv_f64(o.tail_average.max),
    )
}

fn outcome_json_object(o: &ScenarioOutcome, indent: &str) -> String {
    let estimate = |label: &str, e: &crate::stats::Estimate| {
        format!(
            "\"{label}\": {{\"n\": {}, \"mean\": {}, \"std_dev\": {}, \"min\": {}, \"max\": {}, \
             \"confidence\": {}, \"ci_half_width\": {}}}",
            e.n,
            json_f64(e.mean),
            json_f64(e.std_dev),
            json_f64(e.min),
            json_f64(e.max),
            json_f64(e.confidence),
            json_f64(e.ci_half_width),
        )
    };
    format!(
        "{indent}{{\"scenario_id\": {}, \"label\": \"{}\", \"theory\": \"{}\", \
         \"majority\": \"{}\", \"agrees\": {}, \"agreement\": {}, \
         \"votes\": {{\"stable\": {}, \"growing\": {}, \"indeterminate\": {}}}, \
         \"failed_replications\": {}, {}, {}}}",
        o.scenario_id,
        json_escape(&o.label),
        verdict_name(o.theory),
        class_name(o.majority),
        o.agrees,
        json_f64(o.agreement),
        o.votes.stable,
        o.votes.growing,
        o.votes.indeterminate,
        o.failed_replications,
        estimate("tail_slope", &o.tail_slope),
        estimate("tail_average", &o.tail_average),
    )
}

/// Renders batch outcomes as a CSV table (header + one row per scenario,
/// in input order).
#[must_use]
pub fn outcomes_csv(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::from(OUTCOME_HEADER);
    out.push('\n');
    for outcome in outcomes {
        out.push_str(&outcome_csv_row(outcome));
        out.push('\n');
    }
    out
}

/// Renders batch outcomes as a JSON array (one object per scenario, in
/// input order).
#[must_use]
pub fn outcomes_json(outcomes: &[ScenarioOutcome]) -> String {
    let mut out = String::from("[\n");
    for (i, outcome) in outcomes.iter().enumerate() {
        out.push_str(&outcome_json_object(outcome, "  "));
        if i + 1 < outcomes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Renders a phase diagram as CSV: the grid coordinates followed by the
/// outcome columns.
#[must_use]
pub fn phase_csv(diagram: &PhaseDiagram) -> String {
    let mut out = format!("pieces,mu,gamma,lambda0,{OUTCOME_HEADER}\n");
    for cell in &diagram.cells {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            cell.pieces,
            csv_f64(cell.mu),
            csv_f64(cell.gamma),
            csv_f64(cell.lambda0),
            outcome_csv_row(&cell.outcome)
        ));
    }
    out
}

/// Renders a phase diagram as JSON: the spec axes, skipped-cell count, and
/// one object per evaluated cell.
#[must_use]
pub fn phase_json(diagram: &PhaseDiagram) -> String {
    let axis = |label: &str, values: &[f64]| {
        let rendered: Vec<String> = values.iter().map(|v| json_f64(*v)).collect();
        format!("\"{}\": [{}]", json_escape(label), rendered.join(", "))
    };
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"spec\": {{{}, {}, {}, \"pieces\": [{}]}},\n",
        axis(&diagram.spec.lambda0.label, &diagram.spec.lambda0.values),
        axis(&diagram.spec.mu.label, &diagram.spec.mu.values),
        axis(&diagram.spec.gamma.label, &diagram.spec.gamma.values),
        diagram
            .spec
            .pieces
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out.push_str(&format!("  \"skipped\": {},\n", diagram.skipped));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in diagram.cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"pieces\": {}, \"mu\": {}, \"gamma\": {}, \"lambda0\": {}, \"outcome\":\n{}}}",
            cell.pieces,
            json_f64(cell.mu),
            json_f64(cell.gamma),
            json_f64(cell.lambda0),
            outcome_json_object(&cell.outcome, "      "),
        ));
        if i + 1 < diagram.cells.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `<stem>.csv` and `<stem>.json` for batch outcomes into `dir`
/// (creating it if needed) and returns the written paths.
pub fn write_outcomes(
    dir: &Path,
    stem: &str,
    outcomes: &[ScenarioOutcome],
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let csv_path = dir.join(format!("{stem}.csv"));
    let json_path = dir.join(format!("{stem}.json"));
    std::fs::write(&csv_path, outcomes_csv(outcomes))?;
    std::fs::write(&json_path, outcomes_json(outcomes))?;
    Ok(vec![csv_path, json_path])
}

/// Writes `<stem>.csv` and `<stem>.json` for a phase diagram into `dir`
/// (creating it if needed) and returns the written paths.
pub fn write_phase(dir: &Path, stem: &str, diagram: &PhaseDiagram) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let csv_path = dir.join(format!("{stem}.csv"));
    let json_path = dir.join(format!("{stem}.json"));
    std::fs::write(&csv_path, phase_csv(diagram))?;
    std::fs::write(&json_path, phase_json(diagram))?;
    Ok(vec![csv_path, json_path])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::ClassVotes;
    use crate::stats::Welford;
    use markov::PathClass;
    use swarm::StabilityVerdict;

    fn sample_outcome(label: &str) -> ScenarioOutcome {
        let mut votes = ClassVotes::default();
        votes.push(PathClass::Stable);
        votes.push(PathClass::Stable);
        votes.push(PathClass::Growing);
        let mut slope = Welford::new();
        let mut average = Welford::new();
        for v in [0.1, 0.2, 0.3] {
            slope.push(v);
            average.push(10.0 * v);
        }
        ScenarioOutcome {
            scenario_id: 4,
            label: label.to_owned(),
            theory: StabilityVerdict::PositiveRecurrent,
            votes,
            majority: PathClass::Stable,
            tail_slope: slope.estimate(0.95),
            tail_average: average.estimate(0.95),
            agreement: 2.0 / 3.0,
            agrees: true,
            truncated_replications: 0,
            mean_events: 0.0,
            failed_replications: 0,
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = outcomes_csv(&[sample_outcome("a"), sample_outcome("b,with comma")]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("scenario_id,label,theory"));
        assert!(lines[1].contains("stable"));
        assert!(
            lines[2].contains("\"b,with comma\""),
            "comma field is quoted: {}",
            lines[2]
        );
        // Every row has the same number of fields as the header (the quoted
        // comma adds one raw comma).
        assert_eq!(lines[0].matches(',').count(), lines[1].matches(',').count());
    }

    #[test]
    fn json_is_well_formed_enough_to_round_trip_braces() {
        let json = outcomes_json(&[sample_outcome("quote\"and\\slash")]);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\\\"and\\\\slash"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"ci_half_width\""));
    }

    #[test]
    fn non_finite_floats_are_representable() {
        assert_eq!(csv_f64(f64::INFINITY), "inf");
        assert_eq!(csv_f64(f64::NEG_INFINITY), "-inf");
        assert_eq!(csv_f64(f64::NAN), "nan");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn write_outcomes_creates_both_files() {
        let dir = std::env::temp_dir().join("engine-artifact-test");
        let _ = std::fs::remove_dir_all(&dir);
        let paths = write_outcomes(&dir, "batch", &[sample_outcome("x")]).expect("writable");
        assert_eq!(paths.len(), 2);
        for path in &paths {
            let content = std::fs::read_to_string(path).expect("written");
            assert!(content.contains('x'));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
