//! The network-coding variant of the model (Section VIII-B, Theorem 15).
//!
//! With random linear network coding over `GF(q)`, a peer's type is the
//! subspace of `F_q^K` spanned by the coding vectors it holds. This module
//! provides:
//!
//! * [`CodedParams`] — parameters of the coded system, including the arrival
//!   model used by the paper's headline example (a fraction `f` of peers
//!   arrive with a single uniformly random coded piece),
//! * [`theorem15_gift_thresholds`] — the closed-form transience /
//!   positive-recurrence thresholds on `f` quoted in the paper
//!   (`q/((q−1)K)` and `q²/((q−1)²K)`),
//! * [`CodedSwarmSim`] — a peer-level simulator of the coded system, used to
//!   validate the qualitative claim (coding rescues stability when gifted
//!   peers carry coded pieces) at laptop-scale `(q, K)`.

use crate::{SwarmError, SwarmParams};
use markov::poisson::{sample_exp, sample_weighted_index, CumulativeWeights};
use netcoding::{CodingVector, GaloisField, Subspace};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the network-coded swarm.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedParams {
    /// The underlying uncoded parameters: `K`, `U_s`, `µ`, `γ`, and the
    /// *total* arrival rate (the per-type split is replaced by
    /// [`CodedParams::gift_dimensions`]).
    pub base: SwarmParams,
    /// The finite field `GF(q)` used for coding.
    pub field: GaloisField,
    /// Arrival mix: `(d, rate)` pairs meaning peers arrive carrying `d`
    /// independent uniformly random coded pieces at Poisson rate `rate`.
    /// (`d = 0` is a blank peer; a random coded piece is useless with
    /// probability `q^{-K}` exactly as in the paper.)
    pub gift_dimensions: Vec<(usize, f64)>,
}

impl CodedParams {
    /// Builds coded parameters for the paper's headline example: total
    /// arrival rate `lambda_total`, of which a fraction `gift_fraction`
    /// arrive with one uniformly random coded piece and the rest with none;
    /// no fixed seed unless `seed_rate > 0`; immediate departures unless a
    /// finite `gamma` is given.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] for an unsupported field
    /// order, a fraction outside `[0, 1]`, or invalid base parameters.
    pub fn gift_example(
        num_pieces: usize,
        field_order: u64,
        lambda_total: f64,
        gift_fraction: f64,
        seed_rate: f64,
        contact_rate: f64,
        gamma: f64,
    ) -> Result<Self, SwarmError> {
        if !(0.0..=1.0).contains(&gift_fraction) {
            return Err(SwarmError::InvalidParameter(format!(
                "gift fraction f = {gift_fraction} must lie in [0, 1]"
            )));
        }
        let field = GaloisField::new(field_order)
            .map_err(|e| SwarmError::InvalidParameter(format!("field order: {e}")))?;
        let mut builder = SwarmParams::builder(num_pieces)
            .seed_rate(seed_rate)
            .contact_rate(contact_rate)
            .fresh_arrivals(lambda_total);
        if gamma.is_finite() {
            builder = builder.seed_departure_rate(gamma);
        }
        let base = builder.build()?;
        let gifted = lambda_total * gift_fraction;
        let blank = lambda_total - gifted;
        let mut gift_dimensions = Vec::new();
        if blank > 0.0 {
            gift_dimensions.push((0, blank));
        }
        if gifted > 0.0 {
            gift_dimensions.push((1, gifted));
        }
        Ok(CodedParams {
            base,
            field,
            gift_dimensions,
        })
    }

    /// Total arrival rate of the coded system.
    #[must_use]
    pub fn total_arrival_rate(&self) -> f64 {
        self.gift_dimensions.iter().map(|(_, r)| r).sum()
    }

    /// Fraction of arrivals carrying at least one coded piece.
    #[must_use]
    pub fn gift_fraction(&self) -> f64 {
        let total = self.total_arrival_rate();
        if total == 0.0 {
            return 0.0;
        }
        self.gift_dimensions
            .iter()
            .filter(|(d, _)| *d > 0)
            .map(|(_, r)| r)
            .sum::<f64>()
            / total
    }

    /// The coded arrival mix without the base parameters — what the
    /// replication engine attaches to an agent scenario to run it on the
    /// [`crate::sim::KernelKind::Coded`] kernel.
    #[must_use]
    pub fn gifts(&self) -> CodedGifts {
        CodedGifts {
            field: self.field,
            gift_dimensions: self.gift_dimensions.clone(),
        }
    }
}

/// The coded arrival mix of [`CodedParams`], detached from the base
/// [`SwarmParams`]: the field `GF(q)` and the `(dimension, rate)` arrival
/// classes. [`CodedGifts::with_base`] re-attaches a base to recover a full
/// [`CodedParams`]; the replication engine stores gifts next to the base
/// parameters it already carries.
#[derive(Debug, Clone, PartialEq)]
pub struct CodedGifts {
    /// The finite field `GF(q)` used for coding.
    pub field: GaloisField,
    /// Arrival mix: `(d, rate)` pairs as in [`CodedParams::gift_dimensions`].
    pub gift_dimensions: Vec<(usize, f64)>,
}

impl CodedGifts {
    /// Recombines the gifts with base parameters into a full
    /// [`CodedParams`].
    #[must_use]
    pub fn with_base(&self, base: SwarmParams) -> CodedParams {
        CodedParams {
            base,
            field: self.field,
            gift_dimensions: self.gift_dimensions.clone(),
        }
    }

    /// Validates the gifts against a base parameter set: at least one
    /// arrival class, every dimension within `0..=K`, finite non-negative
    /// rates, and a total arrival rate matching the base's (the shared
    /// driver loop draws arrival events from the *base* rate, so a mismatch
    /// would silently distort the coded dynamics).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] naming the first violation.
    pub fn validate_for(&self, base: &SwarmParams) -> Result<(), SwarmError> {
        if self.gift_dimensions.is_empty() {
            return Err(SwarmError::InvalidParameter(
                "coded arrivals need at least one (dimension, rate) class".into(),
            ));
        }
        let k = base.num_pieces();
        let mut total = 0.0;
        for &(d, rate) in &self.gift_dimensions {
            if d > k {
                return Err(SwarmError::InvalidParameter(format!(
                    "gift dimension {d} exceeds the file dimension K = {k}"
                )));
            }
            if d == k && rate > 0.0 && base.departs_immediately() {
                return Err(SwarmError::InvalidParameter(format!(
                    "gift dimension {d} = K with γ = ∞ would inject \
                     instantly-complete peers that never depart (the paper's \
                     λ_F = 0 convention)"
                )));
            }
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(SwarmError::InvalidParameter(format!(
                    "gift rate {rate} for dimension {d} must be finite and non-negative"
                )));
            }
            total += rate;
        }
        let base_total = base.total_arrival_rate();
        if (total - base_total).abs() > 1e-9 * base_total.max(1.0) {
            return Err(SwarmError::InvalidParameter(format!(
                "coded arrival rate {total} does not match the base arrival rate {base_total}"
            )));
        }
        if total <= 0.0 {
            return Err(SwarmError::InvalidParameter(
                "coded arrival rates must sum to a positive total".into(),
            ));
        }
        Ok(())
    }
}

/// The thresholds on the gifted fraction `f` quoted after Theorem 15 for the
/// arrival model of [`CodedParams::gift_example`] with `U_s = 0`, `γ = ∞`:
/// the Markov process is transient if `f < q/((q−1)K)` and positive recurrent
/// if `f > q²/((q−1)²K)`.
///
/// Returns `(transient_below, recurrent_above)`.
///
/// # Panics
///
/// Panics if `q < 2` or `num_pieces == 0`.
#[must_use]
pub fn theorem15_gift_thresholds(field_order: u64, num_pieces: usize) -> (f64, f64) {
    assert!(field_order >= 2, "a field needs at least two elements");
    assert!(num_pieces >= 1, "a file needs at least one piece");
    let q = field_order as f64;
    let k = num_pieces as f64;
    (q / ((q - 1.0) * k), q * q / ((q - 1.0) * (q - 1.0) * k))
}

/// The uncoded comparison highlighted by the paper: without network coding,
/// a fraction `f` of peers arriving with one uniformly random *data* piece
/// leaves the system transient for **any** `f < 1` (each individual piece is
/// gifted at rate only `f·λ/K`, so Theorem 1's condition fails for
/// sufficiently symmetric loads). Returns the Theorem 1 verdict for that
/// configuration so experiments can print the contrast.
#[must_use]
pub fn uncoded_gift_verdict(
    num_pieces: usize,
    lambda_total: f64,
    gift_fraction: f64,
) -> crate::StabilityVerdict {
    // The exact Theorem 1 machinery enumerates 2^K types; for file sizes
    // beyond the enumerable range the uncoded system is transient for any
    // f < 1 by the same argument (each individual data piece is gifted at
    // rate only f·λ/K), so report that directly.
    if pieceset::TypeSpace::new(num_pieces).is_err() {
        return crate::StabilityVerdict::Transient;
    }
    // Build the uncoded analogue: each data piece i is carried by arrivals at
    // rate f·λ/K; blank arrivals at rate (1−f)·λ; U_s = 0, γ = ∞.
    let mut builder = SwarmParams::builder(num_pieces).contact_rate(1.0);
    let blank = lambda_total * (1.0 - gift_fraction);
    if blank > 0.0 {
        builder = builder.fresh_arrivals(blank);
    }
    let per_piece = lambda_total * gift_fraction / num_pieces as f64;
    if per_piece > 0.0 {
        for i in 0..num_pieces {
            builder = builder.arrival(
                pieceset::PieceSet::singleton(pieceset::PieceId::new(i)),
                per_piece,
            );
        }
    }
    match builder.build() {
        Ok(params) => crate::stability::classify(&params).verdict,
        Err(_) => crate::StabilityVerdict::Transient,
    }
}

/// Verdict of the Theorem 15 analysis for a [`CodedParams`] instance using
/// the gifted-arrival model (`d ∈ {0, 1}`).
///
/// # Errors
///
/// Returns [`SwarmError::InvalidParameter`] if the arrival mix includes
/// dimensions other than 0 or 1 (the closed-form thresholds in the paper are
/// stated for that case).
pub fn theorem15_classify(params: &CodedParams) -> Result<crate::StabilityVerdict, SwarmError> {
    if params.gift_dimensions.iter().any(|(d, _)| *d > 1) {
        return Err(SwarmError::InvalidParameter(
            "theorem15_classify supports the paper's d ∈ {0, 1} arrival model".into(),
        ));
    }
    let base = &params.base;
    let q = f64::from(params.field.order());
    let k = base.num_pieces() as f64;
    let mu = base.contact_rate();
    let mu_tilde = (1.0 - 1.0 / q) * mu;
    let gamma = base.seed_departure_rate();
    let lambda_total = params.total_arrival_rate();
    let lambda_gift = lambda_total * params.gift_fraction();

    if gamma <= mu_tilde {
        // Positive recurrent iff pieces can enter (seed or gifted arrivals span F_q^K over time).
        return Ok(if base.seed_rate() > 0.0 || lambda_gift > 0.0 {
            crate::StabilityVerdict::PositiveRecurrent
        } else {
            crate::StabilityVerdict::Transient
        });
    }

    // Arrivals not contained in a (K−1)-dimensional subspace V⁻: a uniformly
    // random coded vector lies in V⁻ with probability 1/q, so the helpful
    // gifted rate is λ_gift (1 − 1/q) and each such arrival has dim 1.
    let helpful = lambda_gift * (1.0 - 1.0 / q);

    // Transience condition (Theorem 15(a)): λ_total > (U_s + helpful·(K − 1 + 1)) / (1 − µ/γ).
    let ratio_plain = if gamma.is_finite() { mu / gamma } else { 0.0 };
    let transient_rhs = (base.seed_rate() + helpful * k) / (1.0 - ratio_plain);

    // Positive recurrence condition (Theorem 15(b)):
    // λ_total < (U_s + helpful·(K − 1 + q/(q−1))) · (1 − 1/q)/(1 − µ̃/γ).
    let ratio_tilde = if gamma.is_finite() {
        mu_tilde / gamma
    } else {
        0.0
    };
    let recurrent_rhs = (base.seed_rate() + helpful * (k - 1.0 + q / (q - 1.0))) * (1.0 - 1.0 / q)
        / (1.0 - ratio_tilde);

    Ok(if lambda_total > transient_rhs {
        crate::StabilityVerdict::Transient
    } else if lambda_total < recurrent_rhs {
        crate::StabilityVerdict::PositiveRecurrent
    } else {
        crate::StabilityVerdict::Borderline
    })
}

/// Peer-level simulator of the network-coded swarm.
pub struct CodedSwarmSim {
    params: CodedParams,
    snapshot_interval: f64,
    max_events: u64,
}

/// One snapshot of the coded simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodedSnapshot {
    /// Simulated time.
    pub time: f64,
    /// Number of peers in the system.
    pub total_peers: u64,
    /// Number of peers whose subspace is full (can decode).
    pub decoders: u64,
    /// Mean subspace dimension across peers (0 for an empty system).
    pub mean_dimension: f64,
}

/// Result of a coded simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CodedSimResult {
    /// Periodic snapshots.
    pub snapshots: Vec<CodedSnapshot>,
    /// Number of departures (successful decodes that left).
    pub departures: u64,
    /// Number of coded transfers that increased the receiver's dimension.
    pub useful_transfers: u64,
    /// Number of contacts that did not help (including zero coded pieces).
    pub useless_contacts: u64,
    /// Horizon reached.
    pub horizon: f64,
    /// Final per-peer dimension histogram: entry `d` counts the peers whose
    /// subspace dimension is `d` when the run ends (length `K + 1`). The
    /// differential tests compare it bin by bin against the coded event
    /// kernel's [`crate::metrics::SimResult::final_dimensions`].
    pub final_dimensions: Vec<u64>,
}

impl CodedSimResult {
    /// The peer-count sample path.
    #[must_use]
    pub fn peer_count_path(&self) -> markov::SamplePath {
        #[expect(
            clippy::expect_used,
            reason = "SimResult construction always records the t = 0 snapshot"
        )]
        let first = self.snapshots.first().expect("at least one snapshot");
        let mut path = markov::SamplePath::new(first.time, first.total_peers as f64);
        for s in &self.snapshots[1..] {
            path.record(s.time, s.total_peers as f64);
        }
        path.finish(self.horizon.max(first.time));
        path
    }
}

impl CodedSwarmSim {
    /// Creates a simulator with a snapshot interval of 10 time units.
    #[must_use]
    pub fn new(params: CodedParams) -> Self {
        CodedSwarmSim {
            params,
            snapshot_interval: 10.0,
            max_events: 20_000_000,
        }
    }

    /// Overrides the snapshot interval.
    #[must_use]
    pub fn snapshot_interval(mut self, dt: f64) -> Self {
        self.snapshot_interval = dt.max(1e-6);
        self
    }

    /// The coded parameters.
    #[must_use]
    pub fn params(&self) -> &CodedParams {
        &self.params
    }

    /// Runs the coded swarm from an empty system up to `horizon`.
    #[must_use]
    pub fn run<R: Rng + ?Sized>(&self, horizon: f64, rng: &mut R) -> CodedSimResult {
        let base = &self.params.base;
        let field = self.params.field;
        let k = base.num_pieces();
        let gamma_finite = !base.departs_immediately();
        let full_dim = k;

        let mut peers: Vec<(Subspace, f64)> = Vec::new(); // (subspace, arrival time)
        let mut time = 0.0;
        let mut snapshots = Vec::new();
        let mut next_snapshot = 0.0;
        let mut departures = 0u64;
        let mut useful_transfers = 0u64;
        let mut useless_contacts = 0u64;
        let mut events = 0u64;

        // One prefix-sum table for the whole run: each arrival's dimension
        // draw is a single uniform resolved by binary search instead of the
        // per-event linear walk `sample_weighted_index` does. The table maps
        // the same uniform draw to the same index as the linear walk, so
        // seeded trajectories are unchanged by this optimisation. A
        // degenerate zero-total (or empty) gift mix has no table — and no
        // arrival events to resolve with it.
        let arrival_weights: Vec<f64> = self
            .params
            .gift_dimensions
            .iter()
            .map(|(_, r)| *r)
            .collect();
        let arrival_sampler = CumulativeWeights::new(&arrival_weights);
        let arrival_rate: f64 = arrival_sampler
            .as_ref()
            .map_or(0.0, CumulativeWeights::total);

        let record = |time: f64,
                      peers: &Vec<(Subspace, f64)>,
                      snapshots: &mut Vec<CodedSnapshot>| {
            let n = peers.len() as u64;
            let decoders = peers.iter().filter(|(v, _)| v.is_full()).count() as u64;
            let mean_dimension = if peers.is_empty() {
                0.0
            } else {
                peers.iter().map(|(v, _)| v.dimension() as f64).sum::<f64>() / peers.len() as f64
            };
            snapshots.push(CodedSnapshot {
                time,
                total_peers: n,
                decoders,
                mean_dimension,
            });
        };
        record(0.0, &peers, &mut snapshots);
        next_snapshot += self.snapshot_interval;

        loop {
            if events >= self.max_events {
                break;
            }
            let n = peers.len();
            let seed_rate = if n > 0 { base.seed_rate() } else { 0.0 };
            let peer_rate = base.contact_rate() * n as f64;
            let seeds = if gamma_finite {
                peers.iter().filter(|(v, _)| v.is_full()).count()
            } else {
                0
            };
            let departure_rate = if gamma_finite {
                base.seed_departure_rate() * seeds as f64
            } else {
                0.0
            };
            let rates = [arrival_rate, seed_rate, peer_rate, departure_rate];
            let total: f64 = rates.iter().sum();
            if total <= 0.0 {
                break;
            }
            let dt = sample_exp(rng, total);
            let new_time = time + dt;
            while next_snapshot <= new_time.min(horizon) {
                record(next_snapshot, &peers, &mut snapshots);
                next_snapshot += self.snapshot_interval;
            }
            if new_time > horizon {
                time = horizon;
                break;
            }
            time = new_time;
            events += 1;

            #[expect(
                clippy::expect_used,
                reason = "total rate > 0 here: a zero-rate state takes the infinite-horizon break above"
            )]
            let event = sample_weighted_index(rng, &rates).expect("positive total rate");
            match event {
                0 => {
                    // Arrival with d random coded pieces (only reachable
                    // when the arrival rate — the table total — is positive).
                    #[expect(
                        clippy::expect_used,
                        reason = "this branch is sampled only when the arrival rate (the table total) is positive, so the sampler was built"
                    )]
                    let sampler = arrival_sampler.as_ref().expect("arrival rate > 0");
                    let d = self.params.gift_dimensions[sampler.sample(rng)].0;
                    let mut space = Subspace::empty(field, full_dim);
                    for _ in 0..d {
                        let v = CodingVector::random(field, full_dim, rng);
                        let _ = space.insert(&v);
                    }
                    peers.push((space, time));
                }
                1 => {
                    // Fixed seed uploads a uniformly random coded piece of the full space.
                    if n == 0 {
                        continue;
                    }
                    let target = rng.gen_range(0..n);
                    let v = CodingVector::random(field, full_dim, rng);
                    if peers[target].0.is_useful(&v) {
                        let _ = peers[target].0.insert(&v);
                        useful_transfers += 1;
                        if peers[target].0.is_full() && !gamma_finite {
                            peers.swap_remove(target);
                            departures += 1;
                        }
                    } else {
                        useless_contacts += 1;
                    }
                }
                2 => {
                    // A random peer contacts a random peer and sends a random
                    // linear combination of its coded pieces.
                    if n == 0 {
                        continue;
                    }
                    let uploader = rng.gen_range(0..n);
                    let target = rng.gen_range(0..n);
                    if uploader == target {
                        useless_contacts += 1;
                        continue;
                    }
                    let v = peers[uploader].0.random_vector(rng);
                    if peers[target].0.is_useful(&v) {
                        let _ = peers[target].0.insert(&v);
                        useful_transfers += 1;
                        if peers[target].0.is_full() && !gamma_finite {
                            peers.swap_remove(target);
                            departures += 1;
                        }
                    } else {
                        useless_contacts += 1;
                    }
                }
                _ => {
                    // Peer-seed departure (finite γ).
                    let seed_indices: Vec<usize> =
                        (0..n).filter(|&i| peers[i].0.is_full()).collect();
                    if seed_indices.is_empty() {
                        continue;
                    }
                    let i = seed_indices[rng.gen_range(0..seed_indices.len())];
                    peers.swap_remove(i);
                    departures += 1;
                }
            }
        }

        record(time, &peers, &mut snapshots);
        let mut final_dimensions = vec![0u64; k + 1];
        for (space, _) in &peers {
            final_dimensions[space.dimension()] += 1;
        }
        CodedSimResult {
            snapshots,
            departures,
            useful_transfers,
            useless_contacts,
            horizon: time,
            final_dimensions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_example_thresholds_q64_k200() {
        let (lo, hi) = theorem15_gift_thresholds(64, 200);
        // The paper quotes 1.01/(4K) … it states transient if f ≤ 1.014/K/... :
        // numerically lo ≈ 0.00507... and hi ≈ 0.00516...
        assert!((lo - 0.0050794).abs() < 1e-4, "lo = {lo}");
        assert!((hi - 0.0051600).abs() < 1e-4, "hi = {hi}");
        assert!(lo < hi);
    }

    #[test]
    fn golden_gift_thresholds() {
        // Hand-computed pins for the two reference points of the test suite.
        // GF(2), K = 8: q/((q−1)K) = 2/8, q²/((q−1)²K) = 4/8 — exact binary
        // values, so equality is checked exactly.
        let (lo, hi) = theorem15_gift_thresholds(2, 8);
        assert_eq!(lo, 0.25);
        assert_eq!(hi, 0.5);
        // GF(256), K = 32: 256/(255·32) = 8/255 and 256²/(255²·32) = 2048/65025.
        let (lo, hi) = theorem15_gift_thresholds(256, 32);
        assert!((lo - 8.0 / 255.0).abs() < 1e-15, "lo = {lo}");
        assert!((hi - 2048.0 / 65025.0).abs() < 1e-15, "hi = {hi}");
        assert!((lo - 0.031_372_549_019_607_84).abs() < 1e-12);
        assert!((hi - 0.031_495_578_623_606_31).abs() < 1e-12);
        // Large fields pay almost nothing over the uncoded bound 1/K.
        assert!(lo > 1.0 / 32.0 && hi < 1.008 / 32.0);
    }

    #[test]
    fn gifts_round_trip_and_validate() {
        let p = CodedParams::gift_example(4, 8, 2.0, 0.25, 0.0, 1.0, f64::INFINITY).unwrap();
        let gifts = p.gifts();
        assert_eq!(gifts.with_base(p.base.clone()), p);
        assert!(gifts.validate_for(&p.base).is_ok());
        // A dimension beyond K is rejected.
        let mut bad = gifts.clone();
        bad.gift_dimensions.push((9, 0.0));
        assert!(bad.validate_for(&p.base).is_err());
        // A rate total that disagrees with the base arrival rate is rejected.
        let mut bad = gifts.clone();
        bad.gift_dimensions[0].1 += 0.5;
        assert!(bad.validate_for(&p.base).is_err());
        // An empty mix is rejected.
        let bad = CodedGifts {
            field: gifts.field,
            gift_dimensions: Vec::new(),
        };
        assert!(bad.validate_for(&p.base).is_err());
    }

    #[test]
    fn thresholds_shrink_with_larger_fields() {
        let (lo8, hi8) = theorem15_gift_thresholds(8, 50);
        let (lo64, hi64) = theorem15_gift_thresholds(64, 50);
        assert!(lo64 < lo8);
        assert!(hi64 < hi8);
        // and the gap closes as q grows
        assert!(hi64 - lo64 < hi8 - lo8);
    }

    #[test]
    fn gift_example_construction_and_fraction() {
        let p = CodedParams::gift_example(4, 8, 2.0, 0.25, 0.0, 1.0, f64::INFINITY).unwrap();
        assert!((p.total_arrival_rate() - 2.0).abs() < 1e-12);
        assert!((p.gift_fraction() - 0.25).abs() < 1e-12);
        assert!(CodedParams::gift_example(4, 8, 2.0, 1.5, 0.0, 1.0, f64::INFINITY).is_err());
        assert!(CodedParams::gift_example(4, 9, 2.0, 0.5, 0.0, 1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn theorem15_classify_matches_thresholds() {
        let (lo, hi) = theorem15_gift_thresholds(8, 4);
        // Well below the transience threshold.
        let p = CodedParams::gift_example(4, 8, 1.0, lo * 0.5, 0.0, 1.0, f64::INFINITY).unwrap();
        assert_eq!(
            theorem15_classify(&p).unwrap(),
            crate::StabilityVerdict::Transient
        );
        // Well above the recurrence threshold.
        let p = CodedParams::gift_example(4, 8, 1.0, (hi * 2.0).min(1.0), 0.0, 1.0, f64::INFINITY)
            .unwrap();
        assert_eq!(
            theorem15_classify(&p).unwrap(),
            crate::StabilityVerdict::PositiveRecurrent
        );
        // In the gap: borderline.
        let p =
            CodedParams::gift_example(4, 8, 1.0, (lo + hi) / 2.0, 0.0, 1.0, f64::INFINITY).unwrap();
        assert_eq!(
            theorem15_classify(&p).unwrap(),
            crate::StabilityVerdict::Borderline
        );
    }

    #[test]
    fn theorem15_classify_slow_departure_regime() {
        // γ small relative to µ̃: stable as soon as coded pieces can enter.
        let p = CodedParams::gift_example(4, 8, 5.0, 0.1, 0.0, 1.0, 0.5).unwrap();
        assert_eq!(
            theorem15_classify(&p).unwrap(),
            crate::StabilityVerdict::PositiveRecurrent
        );
        // ... but transient if nothing can ever enter (no seed, no gifts).
        let p = CodedParams::gift_example(4, 8, 5.0, 0.0, 0.0, 1.0, 0.5).unwrap();
        assert_eq!(
            theorem15_classify(&p).unwrap(),
            crate::StabilityVerdict::Transient
        );
    }

    #[test]
    fn uncoded_gift_comparison_is_transient() {
        // Without coding, a 30% gifted fraction is still transient (K = 4).
        assert_eq!(
            uncoded_gift_verdict(4, 1.0, 0.3),
            crate::StabilityVerdict::Transient
        );
        // With every peer arriving with a piece the uncoded symmetric system
        // is the borderline case of Section VIII-D.
        assert_eq!(
            uncoded_gift_verdict(4, 1.0, 1.0),
            crate::StabilityVerdict::Borderline
        );
    }

    #[test]
    fn coded_simulation_stable_case_keeps_population_bounded() {
        // Small system, generous gifts: stable per Theorem 15.
        let (_, hi) = theorem15_gift_thresholds(8, 3);
        let params =
            CodedParams::gift_example(3, 8, 1.0, (3.0 * hi).min(1.0), 0.0, 1.0, f64::INFINITY)
                .unwrap();
        assert_eq!(
            theorem15_classify(&params).unwrap(),
            crate::StabilityVerdict::PositiveRecurrent
        );
        let sim = CodedSwarmSim::new(params).snapshot_interval(5.0);
        let mut rng = StdRng::seed_from_u64(11);
        let result = sim.run(1_500.0, &mut rng);
        let classifier = markov::PathClassifier::new(1.0, 40.0);
        assert_eq!(
            classifier.classify(&result.peer_count_path()).class,
            markov::PathClass::Stable
        );
        assert!(result.departures > 100);
    }

    #[test]
    fn coded_simulation_starved_case_grows() {
        // No gifts, no seed: nothing ever becomes decodable, peers pile up.
        let params = CodedParams::gift_example(3, 8, 1.0, 0.0, 0.0, 1.0, f64::INFINITY).unwrap();
        let sim = CodedSwarmSim::new(params).snapshot_interval(5.0);
        let mut rng = StdRng::seed_from_u64(12);
        let result = sim.run(800.0, &mut rng);
        let trend = result.peer_count_path().trend(0.5);
        assert!(trend.slope > 0.5, "slope {}", trend.slope);
        assert_eq!(result.departures, 0);
    }

    #[test]
    fn zero_rate_gift_mix_runs_without_arrivals() {
        // CodedParams fields are public, so a directly-constructed params
        // value may carry a zero-total (or empty) gift mix; the simulator
        // must run it as an arrival-free swarm, not panic building the
        // arrival table.
        let base = SwarmParams::builder(3)
            .seed_rate(1.0)
            .contact_rate(1.0)
            .fresh_arrivals(1.0)
            .seed_departure_rate(2.0)
            .build()
            .unwrap();
        for gift_dimensions in [vec![(1usize, 0.0f64)], Vec::new()] {
            let params = CodedParams {
                base: base.clone(),
                field: GaloisField::new(8).unwrap(),
                gift_dimensions,
            };
            let sim = CodedSwarmSim::new(params).snapshot_interval(5.0);
            let mut rng = StdRng::seed_from_u64(21);
            let result = sim.run(50.0, &mut rng);
            assert_eq!(
                result.snapshots.last().unwrap().total_peers,
                0,
                "no arrivals ever fire"
            );
        }
    }

    #[test]
    fn snapshots_track_mean_dimension() {
        let params = CodedParams::gift_example(3, 8, 1.0, 0.5, 0.5, 1.0, 2.0).unwrap();
        let sim = CodedSwarmSim::new(params).snapshot_interval(10.0);
        let mut rng = StdRng::seed_from_u64(13);
        let result = sim.run(300.0, &mut rng);
        for s in &result.snapshots {
            assert!(s.mean_dimension >= 0.0 && s.mean_dimension <= 3.0 + 1e-9);
            assert!(s.decoders <= s.total_peers);
        }
        assert!(result.useful_transfers > 0);
    }
}
