//! Builders for the paper's example networks and the experiment workloads.

use pieceset::{PieceId, PieceSet};
use swarm::{SwarmError, SwarmParams};

/// Example 1 (Fig. 1(a)): a single-piece file (`K = 1`), empty-handed
/// arrivals at rate `lambda0`, fixed seed at rate `us`, peer rate `mu`, peer
/// seeds dwelling at rate `gamma` (pass [`f64::INFINITY`] for immediate
/// departure).
///
/// Theorem 1 (and \[12\]) give the stability condition
/// `λ0 < U_s / (1 − µ/γ)` when `µ < γ`, and stability for any `λ0` when
/// `γ ≤ µ` and `U_s > 0`.
///
/// # Examples
///
/// ```
/// use workload::scenario::example1;
/// use swarm::stability;
///
/// // λ0 = 1.5 sits below the threshold U_s/(1 − µ/γ) = 2: stable.
/// let params = example1(1.5, 1.0, 1.0, 2.0).unwrap();
/// assert!(stability::classify(&params).verdict.is_stable());
/// // λ0 = 2.5 sits above it: transient (a one club forms).
/// let params = example1(2.5, 1.0, 1.0, 2.0).unwrap();
/// assert!(!stability::classify(&params).verdict.is_stable());
/// ```
///
/// # Errors
///
/// Propagates parameter-validation errors.
pub fn example1(lambda0: f64, us: f64, mu: f64, gamma: f64) -> Result<SwarmParams, SwarmError> {
    let mut b = SwarmParams::builder(1)
        .seed_rate(us)
        .contact_rate(mu)
        .fresh_arrivals(lambda0);
    if gamma.is_finite() {
        b = b.seed_departure_rate(gamma);
    }
    b.build()
}

/// Example 2 (Fig. 1(b)): `K = 4`, no fixed seed, immediate departures,
/// arrivals of type `{1,2}` at rate `lambda12` and type `{3,4}` at rate
/// `lambda34`.
///
/// The stability region is `λ12 < 2 λ34` and `λ34 < 2 λ12`.
///
/// # Errors
///
/// Propagates parameter-validation errors.
pub fn example2(lambda12: f64, lambda34: f64, mu: f64) -> Result<SwarmParams, SwarmError> {
    SwarmParams::builder(4)
        .contact_rate(mu)
        .arrival(
            PieceSet::from_pieces([PieceId::new(0), PieceId::new(1)]),
            lambda12,
        )
        .arrival(
            PieceSet::from_pieces([PieceId::new(2), PieceId::new(3)]),
            lambda34,
        )
        .build()
}

/// Example 3 (Fig. 1(c)): `K = 3`, no fixed seed, every arriving peer carries
/// exactly one piece (piece `i` at rate `lambda[i]`), peer seeds dwell at
/// rate `gamma`.
///
/// The stability region is `λ_i + λ_j < λ_k (2 + µ/γ) / (1 − µ/γ)` for every
/// permutation `{i, j, k}` of the three pieces.
///
/// # Errors
///
/// Propagates parameter-validation errors.
pub fn example3(lambda: [f64; 3], mu: f64, gamma: f64) -> Result<SwarmParams, SwarmError> {
    let mut b = SwarmParams::builder(3).contact_rate(mu);
    if gamma.is_finite() {
        b = b.seed_departure_rate(gamma);
    }
    for (i, &rate) in lambda.iter().enumerate() {
        b = b.arrival(PieceSet::singleton(PieceId::new(i)), rate);
    }
    b.build()
}

/// The "one extra piece" corollary scenario: a heavily loaded `K`-piece
/// system with a tiny fixed seed, where the peer-seed departure rate is
/// `gamma_over_mu · µ`. The corollary states that `γ ≤ µ` (dwelling long
/// enough to upload one more piece) stabilises the system for any load.
///
/// # Errors
///
/// Propagates parameter-validation errors.
pub fn one_extra_piece(
    num_pieces: usize,
    lambda0: f64,
    gamma_over_mu: f64,
) -> Result<SwarmParams, SwarmError> {
    let mu = 1.0;
    SwarmParams::builder(num_pieces)
        .seed_rate(0.05)
        .contact_rate(mu)
        .seed_departure_rate(gamma_over_mu * mu)
        .fresh_arrivals(lambda0)
        .build()
}

/// Example 1 scaled to sit exactly a multiplicative factor away from its
/// Theorem 1 boundary: `λ0 = load_factor · U_s / (1 − µ/γ)`. Factors below 1
/// are predicted stable, above 1 transient.
///
/// # Errors
///
/// Propagates parameter-validation errors.
pub fn example1_at_load(
    load_factor: f64,
    us: f64,
    mu: f64,
    gamma: f64,
) -> Result<SwarmParams, SwarmError> {
    let ratio = if gamma.is_finite() { mu / gamma } else { 0.0 };
    let threshold = us / (1.0 - ratio);
    example1(load_factor * threshold, us, mu, gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swarm::stability;
    use swarm::StabilityVerdict;

    #[test]
    fn example1_matches_leskela_robert_simatos_condition() {
        // Stable iff λ0 < U_s/(1 − µ/γ).
        assert!(stability::classify(&example1(1.9, 1.0, 1.0, 2.0).unwrap())
            .verdict
            .is_stable());
        assert_eq!(
            stability::classify(&example1(2.1, 1.0, 1.0, 2.0).unwrap()).verdict,
            StabilityVerdict::Transient
        );
        // γ = ∞ (immediate departure): stable iff λ0 < U_s.
        assert!(
            stability::classify(&example1(0.9, 1.0, 1.0, f64::INFINITY).unwrap())
                .verdict
                .is_stable()
        );
        assert_eq!(
            stability::classify(&example1(1.1, 1.0, 1.0, f64::INFINITY).unwrap()).verdict,
            StabilityVerdict::Transient
        );
    }

    #[test]
    fn example2_region_is_the_two_to_one_wedge() {
        assert!(stability::classify(&example2(1.0, 0.9, 1.0).unwrap())
            .verdict
            .is_stable());
        assert_eq!(
            stability::classify(&example2(1.0, 2.5, 1.0).unwrap()).verdict,
            StabilityVerdict::Transient
        );
        assert_eq!(
            stability::classify(&example2(2.5, 1.0, 1.0).unwrap()).verdict,
            StabilityVerdict::Transient
        );
    }

    #[test]
    fn example3_symmetric_rates_stable_for_finite_gamma() {
        let p = example3([1.0, 1.0, 1.0], 1.0, 2.0).unwrap();
        assert!(stability::classify(&p).verdict.is_stable());
        // γ = ∞ with symmetric rates is the borderline case.
        let p = example3([1.0, 1.0, 1.0], 1.0, f64::INFINITY).unwrap();
        assert_eq!(
            stability::classify(&p).verdict,
            StabilityVerdict::Borderline
        );
        // Asymmetric rates with γ = ∞ are transient.
        let p = example3([1.0, 1.0, 0.2], 1.0, f64::INFINITY).unwrap();
        assert_eq!(stability::classify(&p).verdict, StabilityVerdict::Transient);
    }

    #[test]
    fn one_extra_piece_scenario_flips_at_gamma_equals_mu() {
        // Heavy load: stable when γ ≤ µ, transient when γ is a bit larger.
        let stable = one_extra_piece(3, 40.0, 0.95).unwrap();
        assert!(stability::classify(&stable).verdict.is_stable());
        let unstable = one_extra_piece(3, 40.0, 1.3).unwrap();
        assert_eq!(
            stability::classify(&unstable).verdict,
            StabilityVerdict::Transient
        );
    }

    #[test]
    fn example1_at_load_brackets_the_boundary() {
        let below = example1_at_load(0.8, 1.0, 1.0, 2.0).unwrap();
        let above = example1_at_load(1.2, 1.0, 1.0, 2.0).unwrap();
        assert!(stability::classify(&below).verdict.is_stable());
        assert_eq!(
            stability::classify(&above).verdict,
            StabilityVerdict::Transient
        );
    }
}
