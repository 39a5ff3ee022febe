//! Model parameters (Section III of the paper).

use crate::SwarmError;
use pieceset::{PieceSet, TypeSpace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of the Zhu–Hajek swarm model.
///
/// * `K` — number of pieces the file is divided into,
/// * `U_s` — contact–upload rate of the fixed seed,
/// * `µ`  — contact–upload rate of every peer,
/// * `γ`  — departure rate of a peer seed (`γ = ∞`, represented by
///   [`f64::INFINITY`], means peers depart the instant they complete),
/// * `λ_C` — Poisson arrival rate of type-`C` peers, for each `C ⊆ {1..K}`.
///
/// Use [`SwarmParams::builder`] to construct validated parameters.
///
/// # Examples
///
/// ```
/// use swarm::SwarmParams;
/// use pieceset::PieceSet;
///
/// // Example 1 of the paper: a single piece, fresh arrivals only.
/// let params = SwarmParams::builder(1)
///     .seed_rate(1.0)
///     .contact_rate(1.0)
///     .seed_departure_rate(2.0)
///     .arrival(PieceSet::empty(), 1.5)
///     .build()
///     .unwrap();
/// assert_eq!(params.num_pieces(), 1);
/// assert!((params.total_arrival_rate() - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwarmParams {
    num_pieces: usize,
    seed_rate: f64,
    contact_rate: f64,
    seed_departure_rate: f64,
    arrivals: BTreeMap<PieceSet, f64>,
}

impl SwarmParams {
    /// Starts building parameters for a `K = num_pieces` file.
    #[must_use]
    pub fn builder(num_pieces: usize) -> SwarmParamsBuilder {
        SwarmParamsBuilder {
            num_pieces,
            seed_rate: 0.0,
            contact_rate: 1.0,
            seed_departure_rate: f64::INFINITY,
            arrivals: BTreeMap::new(),
        }
    }

    /// Number of pieces `K`.
    #[must_use]
    pub fn num_pieces(&self) -> usize {
        self.num_pieces
    }

    /// The type space of all `2^K` peer types.
    ///
    /// # Panics
    ///
    /// Panics if `K` exceeds [`pieceset::MAX_ENUMERABLE_PIECES`]: parameters
    /// validate up to [`pieceset::MAX_PIECES`] pieces (the agent-based
    /// simulator handles any such `K`), but enumerating all `2^K` types — the
    /// exact CTMC state vector, the Lyapunov evaluation — is only feasible
    /// for small `K`.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic (see the # Panics section): enumerating 2^K types is deliberately a caller contract"
    )]
    pub fn type_space(&self) -> TypeSpace {
        TypeSpace::new(self.num_pieces).expect("K small enough to enumerate 2^K types")
    }

    /// The full collection `F` (the peer-seed type).
    #[must_use]
    pub fn full_type(&self) -> PieceSet {
        PieceSet::full(self.num_pieces)
    }

    /// Fixed-seed contact–upload rate `U_s`.
    #[must_use]
    pub fn seed_rate(&self) -> f64 {
        self.seed_rate
    }

    /// Peer contact–upload rate `µ`.
    #[must_use]
    pub fn contact_rate(&self) -> f64 {
        self.contact_rate
    }

    /// Peer-seed departure rate `γ` (possibly `∞`).
    #[must_use]
    pub fn seed_departure_rate(&self) -> f64 {
        self.seed_departure_rate
    }

    /// Returns `true` if peers depart immediately after completing (`γ = ∞`).
    #[must_use]
    pub fn departs_immediately(&self) -> bool {
        self.seed_departure_rate.is_infinite()
    }

    /// The ratio `µ/γ` (zero when `γ = ∞`).
    #[must_use]
    pub fn mu_over_gamma(&self) -> f64 {
        if self.departs_immediately() {
            0.0
        } else {
            self.contact_rate / self.seed_departure_rate
        }
    }

    /// Mean dwell time of a peer seed, `1/γ` (zero when `γ = ∞`).
    #[must_use]
    pub fn mean_seed_dwell(&self) -> f64 {
        if self.departs_immediately() {
            0.0
        } else {
            1.0 / self.seed_departure_rate
        }
    }

    /// Arrival rate `λ_C` of peers of type `C` (zero if not configured).
    #[must_use]
    pub fn arrival_rate(&self, c: PieceSet) -> f64 {
        self.arrivals.get(&c).copied().unwrap_or(0.0)
    }

    /// Iterates over the configured `(type, rate)` pairs with positive rate.
    pub fn arrivals(&self) -> impl Iterator<Item = (PieceSet, f64)> + '_ {
        self.arrivals
            .iter()
            .filter(|(_, &r)| r > 0.0)
            .map(|(&c, &r)| (c, r))
    }

    /// Total arrival rate `λ_total = Σ_C λ_C`.
    #[must_use]
    pub fn total_arrival_rate(&self) -> f64 {
        self.arrivals.values().sum()
    }

    /// The classifier every replication's peer-count path is judged by:
    /// slope scale `λ_total`, return level `max(30, 3·initial_peers)`.
    /// CTMC and agent replications use this one rule.
    #[must_use]
    pub fn path_classifier(&self, initial_peers: usize) -> markov::PathClassifier {
        let return_level = (3.0 * initial_peers as f64).max(30.0);
        markov::PathClassifier::new(self.total_arrival_rate(), return_level)
    }

    /// Total arrival rate of peers whose initial collection contains piece `k`
    /// (the "gifted" arrival rate for that piece).
    #[must_use]
    pub fn arrival_rate_with_piece(&self, piece: pieceset::PieceId) -> f64 {
        self.arrivals()
            .filter(|(c, _)| c.contains(piece))
            .map(|(_, r)| r)
            .sum()
    }

    /// Total arrival rate of peers whose initial collection lacks piece `k`.
    #[must_use]
    pub fn arrival_rate_without_piece(&self, piece: pieceset::PieceId) -> f64 {
        self.total_arrival_rate() - self.arrival_rate_with_piece(piece)
    }

    /// Returns `true` if new copies of `piece` can enter the system: the seed
    /// uploads (`U_s > 0`) or some arriving peers hold the piece.
    #[must_use]
    pub fn piece_can_enter(&self, piece: pieceset::PieceId) -> bool {
        self.seed_rate > 0.0 || self.arrival_rate_with_piece(piece) > 0.0
    }

    /// Returns `true` if every piece can enter the system.
    #[must_use]
    pub fn all_pieces_can_enter(&self) -> bool {
        (0..self.num_pieces).all(|i| self.piece_can_enter(pieceset::PieceId::new(i)))
    }
}

/// Builder for [`SwarmParams`].
#[derive(Debug, Clone)]
pub struct SwarmParamsBuilder {
    num_pieces: usize,
    seed_rate: f64,
    contact_rate: f64,
    seed_departure_rate: f64,
    arrivals: BTreeMap<PieceSet, f64>,
}

impl SwarmParamsBuilder {
    /// Sets the fixed-seed contact–upload rate `U_s` (default 0).
    #[must_use]
    pub fn seed_rate(mut self, us: f64) -> Self {
        self.seed_rate = us;
        self
    }

    /// Sets the peer contact–upload rate `µ` (default 1).
    #[must_use]
    pub fn contact_rate(mut self, mu: f64) -> Self {
        self.contact_rate = mu;
        self
    }

    /// Sets the peer-seed departure rate `γ`; use [`f64::INFINITY`] (the
    /// default) for immediate departure.
    #[must_use]
    pub fn seed_departure_rate(mut self, gamma: f64) -> Self {
        self.seed_departure_rate = gamma;
        self
    }

    /// Adds (or overwrites) the arrival rate of type-`c` peers.
    #[must_use]
    pub fn arrival(mut self, c: PieceSet, rate: f64) -> Self {
        self.arrivals.insert(c, rate);
        self
    }

    /// Adds arrival of empty-handed peers (`λ_∅`), the common case.
    #[must_use]
    pub fn fresh_arrivals(self, rate: f64) -> Self {
        self.arrival(PieceSet::empty(), rate)
    }

    /// Validates and builds the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] if any rate is negative or
    /// non-finite (`γ` may be `+∞`), if `λ_total = 0`, if `µ ≤ 0`, if an
    /// arrival type uses pieces outside `{1..K}`, or if `γ = ∞` while
    /// `λ_F > 0` (the paper's convention: with immediate departure, peers
    /// never *arrive* as seeds).
    pub fn build(self) -> Result<SwarmParams, SwarmError> {
        // Validation is deliberately independent of `TypeSpace` (which caps
        // `K` at the enumerable limit): the agent-based simulator runs any
        // `K ≤ MAX_PIECES`, and only the exact-CTMC paths enumerate types.
        let full = PieceSet::try_full(self.num_pieces)?;
        if !(self.contact_rate.is_finite() && self.contact_rate > 0.0) {
            return Err(SwarmError::InvalidParameter(format!(
                "peer contact rate µ = {} must be finite and positive",
                self.contact_rate
            )));
        }
        if !(self.seed_rate.is_finite() && self.seed_rate >= 0.0) {
            return Err(SwarmError::InvalidParameter(format!(
                "seed rate U_s = {} must be finite and non-negative",
                self.seed_rate
            )));
        }
        if self.seed_departure_rate.is_nan() || self.seed_departure_rate <= 0.0 {
            return Err(SwarmError::InvalidParameter(format!(
                "seed departure rate γ = {} must be positive (use infinity for immediate departure)",
                self.seed_departure_rate
            )));
        }
        let mut total = 0.0;
        for (&c, &rate) in &self.arrivals {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(SwarmError::InvalidParameter(format!(
                    "arrival rate λ_{} = {rate} must be finite and non-negative",
                    c.paper_notation()
                )));
            }
            if !c.is_subset_of(full) {
                return Err(SwarmError::InvalidParameter(format!(
                    "arrival type {} uses pieces outside a {}-piece file",
                    c.paper_notation(),
                    self.num_pieces
                )));
            }
            total += rate;
        }
        if total <= 0.0 {
            return Err(SwarmError::InvalidParameter(
                "the total arrival rate λ_total must be positive".into(),
            ));
        }
        if self.seed_departure_rate.is_infinite()
            && self.arrivals.get(&full).copied().unwrap_or(0.0) > 0.0
        {
            return Err(SwarmError::InvalidParameter(
                "with γ = ∞ the paper assumes λ_F = 0 (peers never arrive as seeds)".into(),
            ));
        }
        Ok(SwarmParams {
            num_pieces: self.num_pieces,
            seed_rate: self.seed_rate,
            contact_rate: self.contact_rate,
            seed_departure_rate: self.seed_departure_rate,
            arrivals: self.arrivals,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieceset::PieceId;

    fn set(indices: &[usize]) -> PieceSet {
        indices.iter().map(|&i| PieceId::new(i)).collect()
    }

    #[test]
    fn builder_produces_expected_parameters() {
        let p = SwarmParams::builder(3)
            .seed_rate(0.5)
            .contact_rate(2.0)
            .seed_departure_rate(4.0)
            .arrival(set(&[0]), 1.0)
            .arrival(set(&[1]), 2.0)
            .build()
            .unwrap();
        assert_eq!(p.num_pieces(), 3);
        assert_eq!(p.seed_rate(), 0.5);
        assert_eq!(p.contact_rate(), 2.0);
        assert_eq!(p.seed_departure_rate(), 4.0);
        assert!((p.mu_over_gamma() - 0.5).abs() < 1e-12);
        assert!((p.mean_seed_dwell() - 0.25).abs() < 1e-12);
        assert!((p.total_arrival_rate() - 3.0).abs() < 1e-12);
        assert_eq!(p.arrival_rate(set(&[0])), 1.0);
        assert_eq!(p.arrival_rate(set(&[2])), 0.0);
        assert_eq!(p.arrivals().count(), 2);
    }

    #[test]
    fn gamma_infinity_conventions() {
        let p = SwarmParams::builder(2).fresh_arrivals(1.0).build().unwrap();
        assert!(p.departs_immediately());
        assert_eq!(p.mu_over_gamma(), 0.0);
        assert_eq!(p.mean_seed_dwell(), 0.0);
    }

    #[test]
    fn piece_entry_checks() {
        // No seed; arrivals hold only piece 1 → piece 2 can never enter.
        let p = SwarmParams::builder(2)
            .arrival(set(&[0]), 1.0)
            .build()
            .unwrap();
        assert!(p.piece_can_enter(PieceId::new(0)));
        assert!(!p.piece_can_enter(PieceId::new(1)));
        assert!(!p.all_pieces_can_enter());
        // With a fixed seed every piece can enter.
        let p = SwarmParams::builder(2)
            .seed_rate(0.1)
            .arrival(set(&[0]), 1.0)
            .build()
            .unwrap();
        assert!(p.all_pieces_can_enter());
    }

    #[test]
    fn gifted_arrival_rates() {
        let p = SwarmParams::builder(3)
            .arrival(set(&[0]), 1.0)
            .arrival(set(&[0, 1]), 0.5)
            .arrival(PieceSet::empty(), 2.0)
            .build()
            .unwrap();
        assert!((p.arrival_rate_with_piece(PieceId::new(0)) - 1.5).abs() < 1e-12);
        assert!((p.arrival_rate_without_piece(PieceId::new(0)) - 2.0).abs() < 1e-12);
        assert!((p.arrival_rate_with_piece(PieceId::new(2)) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(SwarmParams::builder(0).fresh_arrivals(1.0).build().is_err());
        assert!(SwarmParams::builder(2)
            .contact_rate(0.0)
            .fresh_arrivals(1.0)
            .build()
            .is_err());
        assert!(SwarmParams::builder(2)
            .contact_rate(f64::INFINITY)
            .fresh_arrivals(1.0)
            .build()
            .is_err());
        assert!(SwarmParams::builder(2)
            .seed_rate(-1.0)
            .fresh_arrivals(1.0)
            .build()
            .is_err());
        assert!(SwarmParams::builder(2)
            .seed_departure_rate(0.0)
            .fresh_arrivals(1.0)
            .build()
            .is_err());
        assert!(SwarmParams::builder(2)
            .seed_departure_rate(-3.0)
            .fresh_arrivals(1.0)
            .build()
            .is_err());
        // zero total arrivals
        assert!(SwarmParams::builder(2).build().is_err());
        assert!(SwarmParams::builder(2).fresh_arrivals(0.0).build().is_err());
        // negative arrival rate
        assert!(SwarmParams::builder(2)
            .fresh_arrivals(-1.0)
            .build()
            .is_err());
        // arrival type outside the file
        assert!(SwarmParams::builder(2)
            .arrival(set(&[5]), 1.0)
            .build()
            .is_err());
        // λ_F > 0 with γ = ∞
        assert!(SwarmParams::builder(2)
            .arrival(set(&[0, 1]), 1.0)
            .build()
            .is_err());
        // ... but λ_F > 0 with finite γ is fine
        assert!(SwarmParams::builder(2)
            .seed_departure_rate(1.0)
            .arrival(set(&[0, 1]), 1.0)
            .build()
            .is_ok());
    }

    #[test]
    fn arrivals_iterator_skips_zero_rates() {
        let p = SwarmParams::builder(2)
            .arrival(set(&[0]), 0.0)
            .arrival(set(&[1]), 1.0)
            .build()
            .unwrap();
        assert_eq!(p.arrivals().count(), 1);
    }
}
