//! The benchmark's metric catalogue and its one-line result format.
//!
//! The catalogue is the single list both run modes emit from: a run with
//! `--trace 0` prints every end-to-end metric, a run with `--trace 1` every
//! per-layer metric (0 for a layer the workload never calls). The
//! self-tests check that `BENCHMARK.json` declares exactly this catalogue.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Metrics a user of the workspace sees, measured with tracing off.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("wall_s", "s", Lower),
        def("setup_s", "s", Lower),
        def("replications_per_s", "1/s", Higher),
        def("peak_rss_mb", "MB", Lower),
        def("theory_agreement", "ratio", Higher),
    ]
}

/// The simulation kernels the traced run measures, by metric prefix.
pub const KERNELS: [&str; 3] = ["event", "turbo", "coded_turbo"];

/// The layers whose self time the traced run splits each workload into;
/// a span's layer is the part of its name before the first `.`.
pub const LAYERS: [&str; 7] = [
    "workload", "session", "agent", "rng", "sim", "markov", "sink",
];

/// Metrics of single layers, from the traced run.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = vec![
        def("rng.ns_per_u64", "ns", Lower),
        def("rng.stream_setup_ns", "ns", Lower),
    ];
    for kernel in KERNELS {
        defs.extend([
            def(format!("sim.{kernel}.ns_per_event"), "ns", Lower),
            def(format!("sim.{kernel}.init_s"), "s", Lower),
            def(format!("sim.{kernel}.events"), "count", Lower),
            def(format!("sim.{kernel}.draws_per_event"), "ratio", Lower),
            def(format!("sim.{kernel}.rng_share"), "ratio", Lower),
            def(
                format!("sim.{kernel}.rejection_retries_per_event"),
                "ratio",
                Lower,
            ),
            def(format!("sim.{kernel}.pool_ops_per_event"), "ratio", Lower),
            def(format!("sim.{kernel}.useful_ratio"), "ratio", Higher),
        ]);
    }
    defs.extend([
        def("telemetry.metered_overhead", "ratio", Lower),
        def("netcoding.absorbs_per_event", "ratio", Lower),
        def("netcoding.materializations_per_event", "ratio", Lower),
        def("netcoding.fast_path_share", "ratio", Higher),
        def("markov.classify_us", "us", Lower),
        def("markov.ctmc_ms_per_replication", "ms", Lower),
        def("agent.build_us", "us", Lower),
        def("session.build_s", "s", Lower),
        def("session.overhead_s", "s", Lower),
        def("session.parallel_efficiency", "ratio", Higher),
        def("session.queue_wait_s", "s", Lower),
        def("session.max_pending", "count", Lower),
        def("session.speedup_vs_jobs1", "ratio", Higher),
        def("sink.record_us", "us", Lower),
        def("sink.ndjson_bytes", "bytes", Lower),
        def("checkpoint.writes", "count", Lower),
        def("checkpoint.bytes", "bytes", Lower),
        def("checkpoint.overhead_s", "s", Lower),
    ]);
    for e in 1..=12 {
        defs.push(def(format!("workload.E{e}_s"), "s", Lower));
    }
    defs.extend([
        def("workload.artifacts_s", "s", Lower),
        def("workload.compile_us", "us", Lower),
        def("trace.wall_s", "s", Lower),
        def("trace.overhead", "ratio", Lower),
    ]);
    for layer in LAYERS {
        defs.push(def(format!("self.{layer}_s"), "s", Lower));
    }
    defs.push(def("self.unaccounted_s", "s", Lower));
    defs
}

/// One benchmark run's result, printed as the last line of stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    /// Takes every metric of `defs` from `values` (0 where absent), so the
    /// line always carries the full catalogue.
    pub fn new(
        attempted: u64,
        failed: u64,
        defs: &[MetricDef],
        values: &BTreeMap<String, f64>,
    ) -> Self {
        let mut finite = true;
        let metrics = defs
            .iter()
            .map(|d| {
                let value = values.get(&d.name).copied().unwrap_or(0.0);
                // JSON has no NaN or infinity; a non-finite reading is a
                // measurement bug, printed as 0 and failing the run.
                finite &= value.is_finite();
                let value = if value.is_finite() { value } else { 0.0 };
                (d.name.clone(), value, d.unit.to_owned())
            })
            .collect();
        Outcome {
            correct: failed == 0 && attempted > 0 && finite,
            attempted,
            failed,
            metrics,
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn from_json(json: &Json) -> Result<Self, String> {
        let count = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("`{key}` must be a whole number"))
        };
        let correct = match json.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("`correct` must be a boolean".into()),
        };
        let fields = json
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("`metrics` must be an object")?;
        let mut metrics = Vec::new();
        for (name, metric) in fields {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            metrics.push((name.clone(), value, unit.to_owned()));
        }
        Ok(Outcome {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric {:?}", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {:?}",
                d.unit
            );
        }
        assert!(end_to_end().iter().any(|d| d.name == "setup_s"));
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed = json.get(key).and_then(Json::as_array).expect(key);
            let listed: Vec<(String, String, String)> = listed
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                    (field("name"), field("unit"), field("better"))
                })
                .collect();
            let expected: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.clone(),
                        d.unit.to_owned(),
                        d.better.name().to_owned(),
                    )
                })
                .collect();
            assert_eq!(listed, expected, "{key} in BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_round_trips_and_fills_the_catalogue() {
        let mut values = BTreeMap::new();
        values.insert("wall_s".to_owned(), 1.5);
        let outcome = Outcome::new(4, 0, &end_to_end(), &values);
        assert!(outcome.correct);
        assert_eq!(outcome.metrics.len(), end_to_end().len());
        assert_eq!(outcome.value("setup_s"), Some(0.0));
        let parsed = Outcome::from_json(&Json::parse(&outcome.to_json()).unwrap()).unwrap();
        assert_eq!(parsed, outcome);
        let failed = Outcome::new(4, 1, &end_to_end(), &values);
        assert!(!failed.correct);
    }
}
