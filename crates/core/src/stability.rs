//! The stability region of Theorem 1 (and its `Δ_S` reformulation, eq. (4)).

use crate::{SwarmError, SwarmParams};
use pieceset::{PieceId, PieceSet};
use serde::{Deserialize, Serialize};

/// Verdict of the Theorem 1 analysis for a parameter point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StabilityVerdict {
    /// Theorem 1(b) applies: the chain is positive recurrent and `E[N] < ∞`.
    PositiveRecurrent,
    /// Theorem 1(a) applies: the chain is transient.
    Transient,
    /// The parameters sit on the boundary left open by the theorem
    /// (Section VIII-D).
    Borderline,
}

impl StabilityVerdict {
    /// Convenience predicate: `true` for [`StabilityVerdict::PositiveRecurrent`].
    #[must_use]
    pub fn is_stable(self) -> bool {
        matches!(self, StabilityVerdict::PositiveRecurrent)
    }
}

/// Full report of the Theorem 1 analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// The verdict.
    pub verdict: StabilityVerdict,
    /// Per-piece thresholds from eq. (2)/(3): the value
    /// `(U_s + Σ_{C∋k} λ_C (K+1−|C|)) / (1 − µ/γ)` that `λ_total` is compared
    /// against (only meaningful when `µ < γ`).
    pub piece_thresholds: Vec<f64>,
    /// The binding (smallest) threshold and the piece achieving it.
    pub critical_piece: Option<PieceId>,
    /// `λ_total` of the parameters, for convenience.
    pub total_arrival_rate: f64,
    /// Whether the parameters fall in the `γ ≤ µ` regime (one extra upload
    /// per peer seed suffices).
    pub slow_departure_regime: bool,
}

/// Relative tolerance used to call a point "borderline".
const BORDERLINE_REL_TOL: f64 = 1e-9;

/// The per-piece stability threshold of eqs. (2)–(3):
/// `(U_s + Σ_{C ∋ k} λ_C (K + 1 − |C|)) / (1 − µ/γ)`.
///
/// Only meaningful in the `0 < µ < γ ≤ ∞` regime; returns an error otherwise.
///
/// # Errors
///
/// Returns [`SwarmError::WrongRegime`] when `γ ≤ µ`.
pub fn piece_threshold(params: &SwarmParams, piece: PieceId) -> Result<f64, SwarmError> {
    let ratio = params.mu_over_gamma();
    if ratio >= 1.0 {
        return Err(SwarmError::WrongRegime(format!(
            "the piece threshold of eq. (2)/(3) requires µ < γ, but µ/γ = {ratio}"
        )));
    }
    let k = params.num_pieces() as f64;
    let gifted: f64 = params
        .arrivals()
        .filter(|(c, _)| c.contains(piece))
        .map(|(c, rate)| rate * (k + 1.0 - c.len() as f64))
        .sum();
    Ok((params.seed_rate() + gifted) / (1.0 - ratio))
}

/// The quantity `Δ_S` of eq. (4) for a set `S ⊊ F`:
///
/// `Δ_S = Σ_{C ⊆ S} λ_C − [U_s + Σ_{C ⊄ S} λ_C (K − |C| + µ/γ)] / (1 − µ/γ)`.
///
/// Negative `Δ_S` for every `S` is equivalent to the positive-recurrence
/// condition (3) holding for every piece.
///
/// # Errors
///
/// Returns [`SwarmError::WrongRegime`] when `γ ≤ µ`, and
/// [`SwarmError::InvalidParameter`] if `S` is the full set.
pub fn delta(params: &SwarmParams, s: PieceSet) -> Result<f64, SwarmError> {
    let ratio = params.mu_over_gamma();
    if ratio >= 1.0 {
        return Err(SwarmError::WrongRegime(format!(
            "Δ_S requires µ < γ, but µ/γ = {ratio}"
        )));
    }
    if s == params.full_type() {
        return Err(SwarmError::InvalidParameter(
            "Δ_S is defined for S ⊊ F only".into(),
        ));
    }
    let k = params.num_pieces() as f64;
    let inflow: f64 = params
        .arrivals()
        .filter(|(c, _)| c.is_subset_of(s))
        .map(|(_, r)| r)
        .sum();
    let help: f64 = params
        .arrivals()
        .filter(|(c, _)| !c.is_subset_of(s))
        .map(|(c, rate)| rate * (k - c.len() as f64 + ratio))
        .sum();
    Ok(inflow - (params.seed_rate() + help) / (1.0 - ratio))
}

/// `Δ_{F − {k}}` for every piece `k`, the binding family of constraints (the
/// remark after Theorem 1: eq. (4) holds for all `S` iff it holds for the
/// one-club sets `F − {k}`).
///
/// # Errors
///
/// Returns [`SwarmError::WrongRegime`] when `γ ≤ µ`.
pub fn one_club_deltas(params: &SwarmParams) -> Result<Vec<(PieceId, f64)>, SwarmError> {
    let full = params.full_type();
    full.iter()
        .map(|piece| Ok((piece, delta(params, full.without(piece))?)))
        .collect()
}

/// Applies Theorem 1 to classify the parameter point.
#[must_use]
pub fn classify(params: &SwarmParams) -> StabilityReport {
    let lambda_total = params.total_arrival_rate();
    let mu = params.contact_rate();
    let gamma = params.seed_departure_rate();
    let k = params.num_pieces();

    if gamma <= mu {
        // Theorem 1, 0 < γ ≤ µ branch: positive recurrent iff every piece can
        // enter the system; transient if some piece can never enter.
        let verdict = if params.all_pieces_can_enter() {
            StabilityVerdict::PositiveRecurrent
        } else {
            StabilityVerdict::Transient
        };
        return StabilityReport {
            verdict,
            piece_thresholds: vec![f64::INFINITY; k],
            critical_piece: None,
            total_arrival_rate: lambda_total,
            slow_departure_regime: true,
        };
    }

    // 0 < µ < γ ≤ ∞ branch.
    #[expect(
        clippy::expect_used,
        reason = "the µ < γ branch condition is exactly piece_threshold's precondition"
    )]
    let thresholds: Vec<f64> = (0..k)
        .map(|i| piece_threshold(params, PieceId::new(i)).expect("µ < γ checked above"))
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "K >= 1 is enforced by SwarmParams validation, so the threshold list is never empty"
    )]
    let (critical_idx, &critical) = thresholds
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("K >= 1");

    let tol = BORDERLINE_REL_TOL * lambda_total.max(critical).max(1.0);
    let verdict = if lambda_total > critical + tol {
        StabilityVerdict::Transient
    } else if lambda_total < critical - tol {
        StabilityVerdict::PositiveRecurrent
    } else {
        StabilityVerdict::Borderline
    };
    StabilityReport {
        verdict,
        piece_thresholds: thresholds,
        critical_piece: Some(PieceId::new(critical_idx)),
        total_arrival_rate: lambda_total,
        slow_departure_regime: false,
    }
}

/// The largest total arrival rate the system can sustain while remaining
/// positive recurrent, assuming arrivals are scaled proportionally (every
/// `λ_C` multiplied by the same factor). Returns `f64::INFINITY` in the
/// `γ ≤ µ` regime when every piece can enter.
///
/// With proportional scaling by `a`, both `λ_total` and the gifted
/// contribution in the threshold scale linearly, so the critical factor for
/// piece `k` solves `a λ_total = (U_s + a G_k)/(1 − µ/γ)` with
/// `G_k = Σ_{C∋k} λ_C (K+1−|C|)`.
#[must_use]
pub fn critical_arrival_scale(params: &SwarmParams) -> f64 {
    let mu = params.contact_rate();
    let gamma = params.seed_departure_rate();
    if gamma <= mu {
        return if params.all_pieces_can_enter() {
            f64::INFINITY
        } else {
            0.0
        };
    }
    let ratio = params.mu_over_gamma();
    let k = params.num_pieces() as f64;
    let lambda_total = params.total_arrival_rate();
    let mut worst: f64 = f64::INFINITY;
    for i in 0..params.num_pieces() {
        let piece = PieceId::new(i);
        let g: f64 = params
            .arrivals()
            .filter(|(c, _)| c.contains(piece))
            .map(|(c, rate)| rate * (k + 1.0 - c.len() as f64))
            .sum();
        let denom = lambda_total * (1.0 - ratio) - g;
        let scale = if denom <= 0.0 {
            // the gifted help grows at least as fast as the load: never binding
            f64::INFINITY
        } else {
            params.seed_rate() / denom
        };
        worst = worst.min(scale);
    }
    worst
}

/// The smallest seed rate `U_s` that makes the system positive recurrent with
/// all other parameters fixed (in the `µ < γ` regime). Returns `0.0` if the
/// system is already stable without a seed, and an error in the `γ ≤ µ`
/// regime (where any `U_s > 0` — indeed any configuration where every piece
/// can enter — is stable).
///
/// # Errors
///
/// Returns [`SwarmError::WrongRegime`] when `γ ≤ µ`.
pub fn critical_seed_rate(params: &SwarmParams) -> Result<f64, SwarmError> {
    let ratio = params.mu_over_gamma();
    if ratio >= 1.0 {
        return Err(SwarmError::WrongRegime(
            "in the γ ≤ µ regime any positive seed rate stabilises the system".into(),
        ));
    }
    let k = params.num_pieces() as f64;
    let lambda_total = params.total_arrival_rate();
    let mut needed: f64 = 0.0;
    for i in 0..params.num_pieces() {
        let piece = PieceId::new(i);
        let gifted: f64 = params
            .arrivals()
            .filter(|(c, _)| c.contains(piece))
            .map(|(c, rate)| rate * (k + 1.0 - c.len() as f64))
            .sum();
        // λ_total < (U_s + gifted) / (1 − µ/γ)  ⇔  U_s > λ_total (1 − µ/γ) − gifted
        needed = needed.max(lambda_total * (1.0 - ratio) - gifted);
    }
    Ok(needed.max(0.0))
}

/// The largest peer-seed departure rate `γ` (i.e. the *smallest* dwell time)
/// that keeps the system positive recurrent, all other parameters fixed.
///
/// Returns `f64::INFINITY` when the system is stable even with immediate
/// departures. The corollary highlighted by the paper is that the result is
/// always at least `µ`: dwelling long enough to upload one extra piece
/// suffices regardless of the arrival rates.
#[must_use]
pub fn critical_departure_rate(params: &SwarmParams) -> f64 {
    let mu = params.contact_rate();
    let lambda_total = params.total_arrival_rate();
    let k = params.num_pieces() as f64;
    // In the µ < γ regime the binding constraint over pieces is
    //   λ_total (1 − µ/γ) < U_s + Σ_{C∋k} λ_C (K + 1 − |C|)   for all k.
    // The left side decreases in 1/γ; solve for the critical γ.
    let mut worst_gamma = f64::INFINITY;
    for i in 0..params.num_pieces() {
        let piece = PieceId::new(i);
        let gifted: f64 = params
            .arrivals()
            .filter(|(c, _)| c.contains(piece))
            .map(|(c, rate)| rate * (k + 1.0 - c.len() as f64))
            .sum();
        let rhs = params.seed_rate() + gifted;
        if lambda_total <= rhs {
            continue; // stable for this piece even with γ = ∞
        }
        // Need 1 − µ/γ < rhs / λ_total  ⇔  γ < µ / (1 − rhs/λ_total).
        let gamma_crit = mu / (1.0 - rhs / lambda_total);
        worst_gamma = worst_gamma.min(gamma_crit);
    }
    // The γ ≤ µ regime is always stable (provided pieces can enter), so the
    // critical rate is at least µ.
    if params.all_pieces_can_enter() {
        worst_gamma.max(mu)
    } else {
        worst_gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieceset::PieceId;

    fn set(indices: &[usize]) -> PieceSet {
        indices.iter().map(|&i| PieceId::new(i)).collect()
    }

    /// Example 1 (K = 1): stable iff λ0 < U_s / (1 − µ/γ) when µ < γ.
    fn example1(lambda0: f64, us: f64, mu: f64, gamma: f64) -> SwarmParams {
        SwarmParams::builder(1)
            .seed_rate(us)
            .contact_rate(mu)
            .seed_departure_rate(gamma)
            .fresh_arrivals(lambda0)
            .build()
            .unwrap()
    }

    #[test]
    fn example1_threshold_matches_closed_form() {
        let p = example1(1.0, 1.0, 1.0, 2.0);
        let t = piece_threshold(&p, PieceId::new(0)).unwrap();
        // U_s / (1 − µ/γ) = 1 / (1 − 0.5) = 2
        assert!((t - 2.0).abs() < 1e-12);
        assert_eq!(classify(&p).verdict, StabilityVerdict::PositiveRecurrent);
        // Above the threshold: transient.
        let p = example1(2.5, 1.0, 1.0, 2.0);
        assert_eq!(classify(&p).verdict, StabilityVerdict::Transient);
        // Exactly at the threshold: borderline.
        let p = example1(2.0, 1.0, 1.0, 2.0);
        assert_eq!(classify(&p).verdict, StabilityVerdict::Borderline);
    }

    #[test]
    fn example1_gamma_le_mu_always_stable_with_seed() {
        let p = example1(100.0, 0.01, 1.0, 0.9);
        let report = classify(&p);
        assert!(report.slow_departure_regime);
        assert_eq!(report.verdict, StabilityVerdict::PositiveRecurrent);
    }

    #[test]
    fn transient_when_piece_cannot_enter() {
        // γ ≤ µ but no seed and no gifted arrivals: the single piece never
        // enters the system.
        let p = SwarmParams::builder(1)
            .seed_rate(0.0)
            .contact_rate(1.0)
            .seed_departure_rate(0.5)
            .fresh_arrivals(1.0)
            .build()
            .unwrap();
        assert_eq!(classify(&p).verdict, StabilityVerdict::Transient);
    }

    /// Example 2 (K = 4, arrivals of types {1,2} and {3,4}, no seed, γ = ∞):
    /// stable iff λ12 < 2 λ34 and λ34 < 2 λ12.
    fn example2(lambda12: f64, lambda34: f64) -> SwarmParams {
        SwarmParams::builder(4)
            .contact_rate(1.0)
            .arrival(set(&[0, 1]), lambda12)
            .arrival(set(&[2, 3]), lambda34)
            .build()
            .unwrap()
    }

    #[test]
    fn example2_region_matches_paper() {
        // Stable point: λ12 = 1, λ34 = 0.8 (1 < 1.6 and 0.8 < 2).
        assert_eq!(
            classify(&example2(1.0, 0.8)).verdict,
            StabilityVerdict::PositiveRecurrent
        );
        // Unstable: λ12 = 3, λ34 = 1 (3 > 2).
        assert_eq!(
            classify(&example2(3.0, 1.0)).verdict,
            StabilityVerdict::Transient
        );
        // Unstable the other way.
        assert_eq!(
            classify(&example2(1.0, 3.0)).verdict,
            StabilityVerdict::Transient
        );
        // Borderline: λ12 = 2 λ34 exactly.
        assert_eq!(
            classify(&example2(2.0, 1.0)).verdict,
            StabilityVerdict::Borderline
        );
    }

    #[test]
    fn example2_thresholds_encode_the_two_to_one_rule() {
        // Threshold for piece 1 (held by {1,2} arrivals):
        //   (0 + λ12 (4 + 1 − 2)) / 1 = 3 λ12; stability needs λ_total < 3 λ12
        //   i.e. λ12 + λ34 < 3 λ12 ⇔ λ34 < 2 λ12. Symmetrically for piece 3.
        let p = example2(1.0, 0.5);
        let t1 = piece_threshold(&p, PieceId::new(0)).unwrap();
        let t3 = piece_threshold(&p, PieceId::new(2)).unwrap();
        assert!((t1 - 3.0).abs() < 1e-12);
        assert!((t3 - 1.5).abs() < 1e-12);
    }

    /// Example 3 (K = 3, single-piece arrivals, no seed, µ < γ < ∞).
    fn example3(l1: f64, l2: f64, l3: f64, mu: f64, gamma: f64) -> SwarmParams {
        SwarmParams::builder(3)
            .contact_rate(mu)
            .seed_departure_rate(gamma)
            .arrival(set(&[0]), l1)
            .arrival(set(&[1]), l2)
            .arrival(set(&[2]), l3)
            .build()
            .unwrap()
    }

    #[test]
    fn example3_stability_condition_matches_paper() {
        let mu = 1.0;
        let gamma = 2.0;
        let factor = (2.0 + mu / gamma) / (1.0 - mu / gamma); // (2 + µ/γ)/(1 − µ/γ) = 5
                                                              // Symmetric rates are stable (λ1 + λ2 = 2 < 5 λ3 = 5).
        let p = example3(1.0, 1.0, 1.0, mu, gamma);
        assert_eq!(classify(&p).verdict, StabilityVerdict::PositiveRecurrent);
        // Strongly asymmetric rates violate λ1 + λ2 < factor λ3.
        let p = example3(10.0, 10.0, (20.0 / factor) * 0.9, mu, gamma);
        assert_eq!(classify(&p).verdict, StabilityVerdict::Transient);
        // Just inside.
        let p = example3(10.0, 10.0, (20.0 / factor) * 1.1, mu, gamma);
        assert_eq!(classify(&p).verdict, StabilityVerdict::PositiveRecurrent);
    }

    #[test]
    fn example3_gamma_infinite_symmetric_is_borderline() {
        // With γ = ∞ the condition becomes λ1 + λ2 < 2 λ3 etc.; equal rates
        // sit exactly on the boundary (the case discussed in Section VIII-D).
        let p = SwarmParams::builder(3)
            .contact_rate(1.0)
            .arrival(set(&[0]), 1.0)
            .arrival(set(&[1]), 1.0)
            .arrival(set(&[2]), 1.0)
            .build()
            .unwrap();
        assert_eq!(classify(&p).verdict, StabilityVerdict::Borderline);
    }

    #[test]
    fn delta_equivalence_with_thresholds() {
        // Δ_{F−{k}} < 0 ⇔ λ_total < threshold_k.
        let p = example3(2.0, 1.0, 0.5, 1.0, 4.0);
        for i in 0..3 {
            let piece = PieceId::new(i);
            let d = delta(&p, p.full_type().without(piece)).unwrap();
            let t = piece_threshold(&p, piece).unwrap();
            assert_eq!(
                d < 0.0,
                p.total_arrival_rate() < t,
                "piece {i}: Δ = {d}, threshold = {t}"
            );
        }
    }

    #[test]
    fn delta_requires_strict_subset_and_right_regime() {
        let p = example1(1.0, 1.0, 1.0, 2.0);
        assert!(delta(&p, p.full_type()).is_err());
        let p_slow = example1(1.0, 1.0, 1.0, 0.5);
        assert!(delta(&p_slow, PieceSet::empty()).is_err());
        assert!(piece_threshold(&p_slow, PieceId::new(0)).is_err());
        assert!(one_club_deltas(&p_slow).is_err());
    }

    #[test]
    fn one_club_deltas_listing() {
        let p = example3(2.0, 1.0, 0.5, 1.0, 4.0);
        let ds = one_club_deltas(&p).unwrap();
        assert_eq!(ds.len(), 3);
        // Piece 3 is the rarest in arrivals, so Δ_{F−{3}} should be largest.
        let d3 = ds.iter().find(|(p, _)| p.index() == 2).unwrap().1;
        for (piece, d) in &ds {
            if piece.index() != 2 {
                assert!(
                    *d <= d3,
                    "Δ for piece {} = {d} should not exceed {d3}",
                    piece.index()
                );
            }
        }
    }

    #[test]
    fn critical_seed_rate_formula() {
        // Example 1: need U_s > λ0 (1 − µ/γ).
        let p = example1(2.0, 0.0, 1.0, 2.0);
        let us = critical_seed_rate(&p).unwrap();
        assert!((us - 1.0).abs() < 1e-12);
        // Already stable with no seed if gifted arrivals carry enough help.
        let p = example2(1.0, 0.9);
        assert_eq!(critical_seed_rate(&p).unwrap(), 0.0);
        // Wrong regime.
        let p = example1(1.0, 1.0, 1.0, 0.5);
        assert!(critical_seed_rate(&p).is_err());
    }

    #[test]
    fn critical_departure_rate_is_at_least_mu() {
        // The "one extra piece" corollary: γ = µ is always enough.
        let p = example1(50.0, 0.01, 1.0, 2.0); // heavily loaded
        let gamma_crit = critical_departure_rate(&p);
        assert!(gamma_crit >= 1.0);
        assert!(gamma_crit.is_finite());
        // Verify consistency: slightly below the critical rate → stable.
        let stable = example1(50.0, 0.01, 1.0, gamma_crit * 0.99);
        assert!(classify(&stable).verdict.is_stable());
        // Slightly above (still > µ) → transient.
        let unstable = example1(50.0, 0.01, 1.0, gamma_crit * 1.01);
        assert_eq!(classify(&unstable).verdict, StabilityVerdict::Transient);
    }

    #[test]
    fn critical_departure_rate_infinite_when_seed_strong() {
        let p = example1(1.0, 10.0, 1.0, 2.0);
        assert_eq!(critical_departure_rate(&p), f64::INFINITY);
    }

    #[test]
    fn critical_arrival_scale_example1() {
        // λ0 = 1, U_s = 1, µ/γ = 0.5: critical scale is 2 (λ0 can double).
        let p = example1(1.0, 1.0, 1.0, 2.0);
        let a = critical_arrival_scale(&p);
        assert!((a - 2.0).abs() < 1e-12);
        // γ ≤ µ: infinite scale.
        let p = example1(1.0, 1.0, 1.0, 0.5);
        assert_eq!(critical_arrival_scale(&p), f64::INFINITY);
        // Example 2 at a stable point scales until the 2:1 rule binds.
        let p = example2(1.0, 0.9);
        assert_eq!(critical_arrival_scale(&p), f64::INFINITY);
    }

    #[test]
    fn report_contents_are_consistent() {
        let p = example1(1.0, 1.0, 1.0, 2.0);
        let report = classify(&p);
        assert_eq!(report.piece_thresholds.len(), 1);
        assert_eq!(report.critical_piece, Some(PieceId::new(0)));
        assert!((report.total_arrival_rate - 1.0).abs() < 1e-12);
        assert!(!report.slow_departure_regime);
        assert!(report.verdict.is_stable());
    }
}
