//! Theorem 15 phase-diagram grids: the `(gift fraction f, field order q,
//! file dimension K)` rectangle and diagram types. Rectangles are swept
//! through the agent-replication engine on the coded kernel with
//! [`crate::Workload::coded`] on a [`crate::Session`].
//!
//! This is the coded counterpart of [`crate::grid`]: each cell builds the
//! paper's headline gifted-arrival model
//! ([`swarm::coded::CodedParams::gift_example`]), replicates it on the
//! [`swarm::sim::KernelKind::Coded`] kernel, and records the Theorem 15
//! verdict next to the simulated majority — so the closed-form transition at
//! `f ∈ [q/((q−1)K), q²/((q−1)²K)]` shows up as a `#`→`·` flip along the
//! `f` axis. Scenario ids are linear cell indices, so results are
//! bit-identical at any worker count.

use crate::grid::Axis;
use crate::labels;
use crate::replicate::ScenarioOutcome;
use serde::{Deserialize, Serialize};
use swarm::sim::AgentConfig;

/// A rectangle of coded parameter points: the cartesian product
/// `pieces × field_orders × gift_fractions`, at fixed base rates.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedGridSpec {
    /// Gift fractions `f` (the swept stability axis).
    pub gift_fraction: Axis,
    /// Field orders `q` swept.
    pub field_orders: Vec<u64>,
    /// File dimensions `K` swept.
    pub pieces: Vec<usize>,
    /// Total arrival rate `λ` at every cell.
    pub lambda_total: f64,
    /// Fixed-seed rate `U_s` at every cell.
    pub seed_rate: f64,
    /// Contact rate `µ` at every cell.
    pub contact_rate: f64,
    /// Peer-seed departure rate `γ` (`f64::INFINITY` = immediate departure).
    pub seed_departure_rate: f64,
    /// Simulator configuration template. `kernel` is forced to
    /// [`swarm::sim::KernelKind::Coded`] per cell, unless it explicitly
    /// names [`swarm::sim::KernelKind::CodedTurbo`] — the bitsliced GF(2)
    /// fast kernel — which is honoured (and rejects cells with `q ≠ 2` at
    /// session build).
    pub sim: AgentConfig,
}

impl CodedGridSpec {
    /// The paper's headline setting — `U_s = 0`, `µ = 1`, `γ = ∞` — over the
    /// given axes at total arrival rate `lambda_total`.
    #[must_use]
    pub fn headline(
        gift_fraction: Axis,
        field_orders: Vec<u64>,
        pieces: Vec<usize>,
        lambda_total: f64,
    ) -> Self {
        CodedGridSpec {
            gift_fraction,
            field_orders,
            pieces,
            lambda_total,
            seed_rate: 0.0,
            contact_rate: 1.0,
            seed_departure_rate: f64::INFINITY,
            sim: AgentConfig::default(),
        }
    }

    /// Number of cells in the rectangle.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pieces.len() * self.field_orders.len() * self.gift_fraction.values.len()
    }

    /// Returns `true` if any axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One evaluated coded grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodedPhaseCell {
    /// File dimension `K` at the cell.
    pub pieces: usize,
    /// Field order `q` at the cell.
    pub field_order: u64,
    /// Gift fraction `f` at the cell.
    pub gift_fraction: f64,
    /// The engine outcome (Theorem 15 verdict, votes, statistics).
    pub outcome: ScenarioOutcome,
}

impl CodedPhaseCell {
    /// The single character used in ASCII phase diagrams, with the same
    /// legend as [`crate::grid::PhaseCell::glyph`] (the canonical
    /// [`labels::agreement_glyph`] mapping; the borderline glyph also
    /// covers the gap between the two Theorem 15 thresholds).
    #[must_use]
    pub fn glyph(&self) -> char {
        labels::agreement_glyph(self.outcome.theory, self.outcome.majority)
    }
}

/// An evaluated coded phase diagram over a [`CodedGridSpec`] rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedPhaseDiagram {
    /// The swept rectangle.
    pub spec: CodedGridSpec,
    /// Evaluated cells in `pieces`-major, then `field_orders`, then
    /// `gift_fraction` order. Cells whose parameters failed to construct are
    /// absent.
    pub cells: Vec<CodedPhaseCell>,
    /// Number of grid points whose parameters could not be constructed.
    pub skipped: usize,
}

impl CodedPhaseDiagram {
    /// Cells where the majority vote agrees with Theorem 15 (borderline
    /// cells — including the gap between the two thresholds — count as
    /// agreeing).
    #[must_use]
    pub fn agreements(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.agrees).count()
    }

    /// Cells where the majority vote contradicts a decisive Theorem 15
    /// verdict.
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

    /// Looks up the cell at exact coordinates, if it was evaluated.
    #[must_use]
    pub fn cell(
        &self,
        pieces: usize,
        field_order: u64,
        gift_fraction: f64,
    ) -> Option<&CodedPhaseCell> {
        self.cells.iter().find(|c| {
            c.pieces == pieces && c.field_order == field_order && c.gift_fraction == gift_fraction
        })
    }

    /// Renders one ASCII map per `K` slice: rows are `q` (largest on top),
    /// columns are `f`, with the Theorem 15 thresholds annotated per row.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut by_linear: Vec<Option<&CodedPhaseCell>> = vec![None; self.spec.len()];
        for cell in &self.cells {
            if let Some(slot) = by_linear.get_mut(cell.outcome.scenario_id as usize) {
                *slot = Some(cell);
            }
        }
        let (n_q, n_f) = (
            self.spec.field_orders.len(),
            self.spec.gift_fraction.values.len(),
        );
        let mut out = String::new();
        out.push_str(labels::GLYPH_LEGEND);
        out.push('\n');
        for (ki, &k) in self.spec.pieces.iter().enumerate() {
            let _ = writeln!(
                out,
                "K = {k}  (rows: q, top = largest; columns: {})",
                self.spec.gift_fraction.label
            );
            for (qi, &q) in self.spec.field_orders.iter().enumerate().rev() {
                let _ = write!(out, "{q:>8} | ");
                for fi in 0..n_f {
                    let linear = (ki * n_q + qi) * n_f + fi;
                    let glyph = by_linear[linear].map_or(' ', |c| c.glyph());
                    out.push(glyph);
                    out.push(' ');
                }
                let (lo, hi) = swarm::coded::theorem15_gift_thresholds(q, k);
                let _ = writeln!(out, "  thresholds f ∈ [{lo:.4}, {hi:.4}]");
            }
            let _ = write!(out, "{:>8}   ", "");
            for &f in &self.spec.gift_fraction.values {
                let _ = write!(out, "{f:<4.2}");
            }
            out.push('\n');
        }
        out
    }
}

impl core::fmt::Display for CodedPhaseDiagram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::session::{Session, Workload};
    use swarm::StabilityVerdict;

    /// The Session-backed equivalent of the old `run_coded_grid` free
    /// function, kept as a local helper so these unit tests read the same.
    fn run_coded_grid(spec: &CodedGridSpec, config: &EngineConfig) -> CodedPhaseDiagram {
        Session::builder()
            .config(*config)
            .workload(Workload::coded(spec))
            .build()
            .expect("valid coded grid")
            .run()
            .into_coded()
            .expect("coded workload")
    }

    fn quick_config() -> EngineConfig {
        EngineConfig::default()
            .with_replications(2)
            .with_horizon(200.0)
            .with_master_seed(9)
            .with_jobs(2)
    }

    #[test]
    fn coded_grid_shape_and_theory_verdicts() {
        // GF(2), K = 4: thresholds are f ∈ [0.5, 1.0]; f = 0.1 is firmly
        // transient by theory, f in the gap is borderline.
        let spec = CodedGridSpec::headline(Axis::new("f", vec![0.1, 0.75]), vec![2], vec![4], 1.0);
        assert_eq!(spec.len(), 2);
        let diagram = run_coded_grid(&spec, &quick_config());
        assert_eq!(diagram.len(), 2);
        assert_eq!(diagram.skipped, 0);
        let below = diagram.cell(4, 2, 0.1).expect("cell evaluated");
        assert_eq!(below.outcome.theory, StabilityVerdict::Transient);
        let gap = diagram.cell(4, 2, 0.75).expect("cell evaluated");
        assert_eq!(gap.outcome.theory, StabilityVerdict::Borderline);
        let rendered = diagram.render();
        assert!(
            rendered.contains("thresholds f ∈ [0.5000, 1.0000]"),
            "{rendered}"
        );
    }

    #[test]
    fn unsupported_field_orders_are_skipped() {
        let spec = CodedGridSpec::headline(Axis::fixed("f", 0.2), vec![6, 8], vec![3], 1.0);
        let diagram = run_coded_grid(&spec, &quick_config());
        assert_eq!(diagram.skipped, 1, "GF(6) does not exist");
        assert_eq!(diagram.len(), 1);
        // The surviving cell keeps its linear id.
        assert_eq!(diagram.cells[0].outcome.scenario_id, 1);
    }
}
