//! Compare mode: reads two recorded result sets and runs nothing.
//!
//! For each workload with results on both sides it prints, per end-to-end
//! metric, each side's median and quartiles and the share of pairs the new
//! side wins (ties count for neither), then the per-layer medians of the
//! traced runs with their deltas, self times first.

use crate::json::Json;
use crate::metrics::{self, Better, MetricDef, Outcome};
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use std::fmt::Write as _;
use std::path::Path;

/// `<dir>/<file>` as one result per line; a missing file is an empty set.
fn read_set(dir: &Path, file: &str) -> Result<Vec<Outcome>, String> {
    let path = dir.join(file);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            Json::parse(line)
                .and_then(|json| Outcome::from_json(&json))
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

fn values(runs: &[Outcome], name: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.value(name)).collect()
}

fn num(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e5 || x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

fn change(old: f64, new: f64) -> String {
    if old == 0.0 {
        "n/a".to_owned()
    } else {
        format!("{:+.1}%", (new / old - 1.0) * 100.0)
    }
}

fn wins(better: Better, old: &[f64], new: &[f64]) -> usize {
    old.iter()
        .zip(new)
        .filter(|(o, n)| match better {
            Better::Higher => n > o,
            Better::Lower => n < o,
        })
        .count()
}

fn end_to_end_table(out: &mut String, old: &[Outcome], new: &[Outcome]) {
    let count = |runs: &[Outcome]| {
        runs.iter()
            .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted))
    };
    let ((old_failed, old_attempted), (new_failed, new_attempted)) = (count(old), count(new));
    let pairs = old.len().min(new.len());
    let _ = writeln!(
        out,
        "failed operations: old {old_failed}/{old_attempted}, new {new_failed}/{new_attempted}; {pairs} pairs\n"
    );
    let _ = writeln!(
        out,
        "| metric | unit | old median [q1, q3] | new median [q1, q3] | change | new wins |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for MetricDef { name, unit, better } in metrics::end_to_end() {
        let (a, b) = (values(old, &name), values(new, &name));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let (qa, qb) = (quartiles(&a), quartiles(&b));
        let won = wins(better, &a, &b);
        let pairs = a.len().min(b.len());
        let _ = writeln!(
            out,
            "| {name} | {unit} | {} [{}, {}] | {} [{}, {}] | {} | {won}/{pairs} ({:.0}%) |",
            num(qa[1]),
            num(qa[0]),
            num(qa[2]),
            num(qb[1]),
            num(qb[0]),
            num(qb[2]),
            change(qa[1], qb[1]),
            100.0 * won as f64 / pairs as f64
        );
    }
}

fn per_layer_table(out: &mut String, old: &[Outcome], new: &[Outcome]) {
    let _ = writeln!(
        out,
        "| metric | unit | old median | new median | delta | change |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    let mut defs = metrics::per_layer();
    // Self times and trace totals first: they are what a PR quotes.
    defs.sort_by_key(|d| !(d.name.starts_with("self.") || d.name.starts_with("trace.")));
    for MetricDef { name, unit, .. } in defs {
        let (a, b) = (median(&values(old, &name)), median(&values(new, &name)));
        if a == 0.0 && b == 0.0 {
            continue;
        }
        let _ = writeln!(
            out,
            "| {name} | {unit} | {} | {} | {} | {} |",
            num(a),
            num(b),
            num(b - a),
            change(a, b)
        );
    }
}

pub fn run(old: &Path, new: &Path) -> Result<String, String> {
    let mut out = String::new();
    for workload in Workload::ALL {
        let name = workload.name();
        for (file, traced) in [
            (format!("{name}.jsonl"), false),
            (format!("{name}.trace.jsonl"), true),
        ] {
            let (a, b) = (read_set(old, &file)?, read_set(new, &file)?);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let kind = if traced {
                "per-layer, traced runs"
            } else {
                "end-to-end"
            };
            let _ = writeln!(
                out,
                "## {name} ({kind}): {} old runs, {} new runs\n",
                a.len(),
                b.len()
            );
            if traced {
                per_layer_table(&mut out, &a, &b);
            } else {
                end_to_end_table(&mut out, &a, &b);
            }
            out.push('\n');
        }
    }
    if out.is_empty() {
        return Err(format!(
            "no workload has results in both {} and {}",
            old.display(),
            new.display()
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn line(wall: f64) -> String {
        let values: BTreeMap<String, f64> = [("wall_s".to_owned(), wall)].into();
        Outcome::new(10, 0, &metrics::end_to_end(), &values).to_json()
    }

    #[test]
    fn compares_recorded_sets_without_running() {
        let root = crate::out_dir().join(format!("test-compare-{}", std::process::id()));
        let (old, new) = (root.join("old"), root.join("new"));
        for (dir, walls) in [(&old, [2.0, 2.2, 2.1]), (&new, [1.9, 2.3, 1.8])] {
            std::fs::create_dir_all(dir).unwrap();
            let text: Vec<String> = walls.iter().map(|&w| line(w)).collect();
            std::fs::write(dir.join("giant-swarm.jsonl"), text.join("\n")).unwrap();
        }
        let report = run(&old, &new);
        std::fs::write(old.join("paper-full.jsonl"), "not json").unwrap();
        let broken = run(&old, &new);
        std::fs::remove_dir_all(&root).unwrap();
        let report = report.unwrap();
        assert!(report.contains("## giant-swarm (end-to-end): 3 old runs, 3 new runs"));
        let wall = report.lines().find(|l| l.starts_with("| wall_s ")).unwrap();
        assert!(wall.contains("| 2/3 (67%) |"), "{wall}");
        assert!(wall.contains("-9.5%"), "{wall}");
        assert!(broken.is_err());
    }
}
