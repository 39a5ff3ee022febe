//! Phase-diagram grids: the `(λ₀, µ, γ, K)` rectangle and diagram types.
//! Rectangles are swept through the replication engine with
//! [`crate::Workload::grid`] on a [`crate::Session`], which tabulates
//! majority-vote verdicts per cell into a [`PhaseDiagram`].

use crate::labels;
use crate::replicate::ScenarioOutcome;
use serde::{Deserialize, Serialize};

/// One labelled grid axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// Axis label used in tables and artifacts (e.g. `"λ0"`).
    pub label: String,
    /// The values swept along the axis.
    pub values: Vec<f64>,
}

impl Axis {
    /// An axis over explicit values.
    #[must_use]
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Axis {
            label: label.into(),
            values,
        }
    }

    /// An axis of `steps` evenly spaced values over `[lo, hi]` (inclusive).
    #[must_use]
    pub fn linspace(label: impl Into<String>, lo: f64, hi: f64, steps: usize) -> Self {
        assert!(steps >= 1, "an axis needs at least one value");
        let values = if steps == 1 {
            vec![lo]
        } else {
            (0..steps)
                .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
                .collect()
        };
        Axis {
            label: label.into(),
            values,
        }
    }

    /// A single-value axis (a fixed parameter).
    #[must_use]
    pub fn fixed(label: impl Into<String>, value: f64) -> Self {
        Axis {
            label: label.into(),
            values: vec![value],
        }
    }
}

/// A rectangle of parameter points: the cartesian product
/// `pieces × mu × gamma × lambda0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Fresh-peer arrival rates (λ₀ axis).
    pub lambda0: Axis,
    /// Contact rates (µ axis).
    pub mu: Axis,
    /// Seed departure rates (γ axis).
    pub gamma: Axis,
    /// File sizes (K values).
    pub pieces: Vec<usize>,
}

impl GridSpec {
    /// Number of cells in the rectangle.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pieces.len()
            * self.mu.values.len()
            * self.gamma.values.len()
            * self.lambda0.values.len()
    }

    /// Returns `true` if any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One evaluated grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseCell {
    /// File size at the cell.
    pub pieces: usize,
    /// Contact rate at the cell.
    pub mu: f64,
    /// Seed departure rate at the cell.
    pub gamma: f64,
    /// Fresh-peer arrival rate at the cell.
    pub lambda0: f64,
    /// The engine outcome (theory verdict, votes, statistics).
    pub outcome: ScenarioOutcome,
}

impl PhaseCell {
    /// The single character used in ASCII phase diagrams: `·` stable and
    /// agreeing, `#` transient and agreeing, `B` borderline, `?` mismatch
    /// or indeterminate (the canonical [`labels::agreement_glyph`]
    /// mapping).
    #[must_use]
    pub fn glyph(&self) -> char {
        labels::agreement_glyph(self.outcome.theory, self.outcome.majority)
    }
}

/// An evaluated phase diagram over a [`GridSpec`] rectangle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseDiagram {
    /// The swept rectangle.
    pub spec: GridSpec,
    /// Evaluated cells in `pieces`-major, then `mu`, `gamma`, `lambda0`
    /// order. Cells whose parameter construction failed are absent.
    pub cells: Vec<PhaseCell>,
    /// Number of grid points whose parameters could not be constructed.
    pub skipped: usize,
}

impl PhaseDiagram {
    /// Cells where the majority vote agrees with theory (borderline cells
    /// count as agreeing).
    #[must_use]
    pub fn agreements(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.agrees).count()
    }

    /// Cells where the majority vote contradicts a decisive theory verdict.
    #[must_use]
    pub fn mismatches(&self) -> usize {
        self.cells.iter().filter(|c| !c.outcome.agrees).count()
    }

    /// Number of evaluated cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if no cells were evaluated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Renders one ASCII map per `(K, µ)` slice: rows are γ (largest on
    /// top), columns are λ₀. Skipped cells render as blanks.
    #[must_use]
    pub fn render(&self) -> String {
        // Cells carry their rectangle position as `scenario_id` (the
        // linear cell index); index them once instead of scanning the
        // cell list per glyph.
        let mut by_linear_index: Vec<Option<&PhaseCell>> = vec![None; self.spec.len()];
        for cell in &self.cells {
            if let Some(slot) = by_linear_index.get_mut(cell.outcome.scenario_id as usize) {
                *slot = Some(cell);
            }
        }
        let (n_mu, n_gamma, n_lambda) = (
            self.spec.mu.values.len(),
            self.spec.gamma.values.len(),
            self.spec.lambda0.values.len(),
        );

        let mut out = String::new();
        out.push_str(labels::GLYPH_LEGEND);
        out.push('\n');
        for (ki, &k) in self.spec.pieces.iter().enumerate() {
            for (mi, &mu) in self.spec.mu.values.iter().enumerate() {
                out.push_str(&format!(
                    "K = {k}, {} = {mu}  (rows: {} top = largest, columns: {})\n",
                    self.spec.mu.label, self.spec.gamma.label, self.spec.lambda0.label
                ));
                for (gi, &gamma) in self.spec.gamma.values.iter().enumerate().rev() {
                    out.push_str(&format!("{gamma:>10.3} | "));
                    for li in 0..n_lambda {
                        let linear = ((ki * n_mu + mi) * n_gamma + gi) * n_lambda + li;
                        let glyph = by_linear_index[linear].map_or(' ', |c| c.glyph());
                        out.push(glyph);
                        out.push(' ');
                    }
                    out.push('\n');
                }
                out.push_str(&format!("{:>10}   ", ""));
                for &lambda0 in &self.spec.lambda0.values {
                    out.push_str(&format!("{lambda0:<4.1}"));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Looks up the cell at exact coordinates, if it was evaluated.
    #[must_use]
    pub fn cell(&self, pieces: usize, mu: f64, gamma: f64, lambda0: f64) -> Option<&PhaseCell> {
        self.cells
            .iter()
            .find(|c| c.pieces == pieces && c.mu == mu && c.gamma == gamma && c.lambda0 == lambda0)
    }
}

impl core::fmt::Display for PhaseDiagram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::session::{Session, Workload};
    use swarm::{StabilityVerdict, SwarmParams};

    /// The Session-backed equivalent of the old `run_grid` free function,
    /// kept as a local helper so these unit tests read the same.
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

    fn example1_params(_k: usize, mu: f64, gamma: f64, lambda0: f64) -> Option<SwarmParams> {
        SwarmParams::builder(1)
            .seed_rate(1.0)
            .contact_rate(mu)
            .seed_departure_rate(gamma)
            .fresh_arrivals(lambda0)
            .build()
            .ok()
    }

    fn quick_config() -> EngineConfig {
        EngineConfig::default()
            .with_replications(3)
            .with_horizon(300.0)
            .with_master_seed(5)
            .with_jobs(2)
    }

    #[test]
    fn linspace_endpoints_and_count() {
        let axis = Axis::linspace("x", 1.0, 3.0, 5);
        assert_eq!(axis.values, vec![1.0, 1.5, 2.0, 2.5, 3.0]);
        assert_eq!(Axis::linspace("x", 2.0, 9.0, 1).values, vec![2.0]);
        assert_eq!(Axis::fixed("y", 4.0).values, vec![4.0]);
    }

    #[test]
    fn grid_covers_stable_and_transient_corners() {
        let spec = GridSpec {
            lambda0: Axis::new("λ0", vec![0.5, 4.0]),
            mu: Axis::fixed("µ", 1.0),
            gamma: Axis::new("γ", vec![2.0, 8.0]),
            pieces: vec![1],
        };
        assert_eq!(spec.len(), 4);
        let diagram = run_grid(&spec, example1_params, &quick_config());
        assert_eq!(diagram.len(), 4);
        assert_eq!(diagram.skipped, 0);
        let rendered = diagram.render();
        assert!(rendered.contains('·'), "stable corner present:\n{rendered}");
        assert!(
            rendered.contains('#'),
            "transient corner present:\n{rendered}"
        );
        assert!(diagram.agreements() >= 3, "{rendered}");
        // λ0 = 0.5 < U_s/(1−µ/γ) at both γ values: theory says stable.
        let cell = diagram.cell(1, 1.0, 2.0, 0.5).expect("cell evaluated");
        assert_eq!(cell.outcome.theory, StabilityVerdict::PositiveRecurrent);
    }

    #[test]
    fn failed_cells_are_skipped_with_stable_ids() {
        let spec = GridSpec {
            lambda0: Axis::new("λ0", vec![0.5, 1.0]),
            mu: Axis::fixed("µ", 1.0),
            gamma: Axis::fixed("γ", 2.0),
            pieces: vec![1],
        };
        // Reject the first cell; the second must keep scenario id 1.
        let diagram = run_grid(
            &spec,
            |k, mu, gamma, lambda0| {
                if lambda0 < 0.75 {
                    None
                } else {
                    example1_params(k, mu, gamma, lambda0)
                }
            },
            &quick_config(),
        );
        assert_eq!(diagram.skipped, 1);
        assert_eq!(diagram.len(), 1);
        assert_eq!(diagram.cells[0].outcome.scenario_id, 1);
        // The skipped cell renders as a blank in its column.
        let rendered = diagram.render();
        assert!(rendered.contains("2.000 |   "), "{rendered}");
    }
}
