//! Transition rates of the swarm CTMC — equation (1) of the paper.

use crate::{SwarmParams, SwarmState};
use pieceset::{PieceId, PieceSet};

/// The aggregate rate `Γ_{C, C∪{i}}` at which *some* type-`C` peer acquires
/// piece `i` (eq. (1)):
///
/// `Γ_{C,C∪{i}} = (x_C / n) · ( U_s / (K − |C|)  +  µ · Σ_{S ∋ i} x_S / |S − C| )`
///
/// for `n ≥ 1` and `i ∉ C`; zero otherwise.
///
/// The first term is the fixed seed contacting a type-`C` peer (probability
/// `x_C/n`) and choosing piece `i` uniformly among the `K − |C|` pieces the
/// peer needs. The second term sums over uploader types `S` holding `i`: each
/// of the `x_S` such peers contacts a type-`C` peer with probability `x_C/n`
/// at rate `µ` and picks `i` uniformly among the `|S − C|` useful pieces it
/// could offer.
#[must_use]
pub fn transfer_rate(params: &SwarmParams, state: &SwarmState, c: PieceSet, piece: PieceId) -> f64 {
    transfer_rate_among(params, state, state.total_peers(), c, piece)
}

/// [`transfer_rate`] for a caller that already knows the population
/// `n = state.total_peers()`, such as the swarm chain's jump enumeration,
/// which counts it once per jump rather than once per rate.
pub(crate) fn transfer_rate_among(
    params: &SwarmParams,
    state: &SwarmState,
    n: u64,
    c: PieceSet,
    piece: PieceId,
) -> f64 {
    if c.contains(piece) {
        return 0.0;
    }
    if n == 0 {
        return 0.0;
    }
    let x_c = f64::from(state.count(c));
    if x_c == 0.0 {
        return 0.0;
    }
    let k = params.num_pieces();
    let needed = (k - c.len()) as f64;
    let seed_term = params.seed_rate() / needed;

    let mut peer_term = 0.0;
    for (s, x_s) in state.occupied_types() {
        if s.contains(piece) {
            let useful = s.difference(c).len() as f64;
            debug_assert!(useful >= 1.0);
            peer_term += f64::from(x_s) / useful;
        }
    }
    (x_c / n as f64) * (seed_term + params.contact_rate() * peer_term)
}

/// The aggregate rate at which type-`C` peers leave the type-`C` group
/// (`D_C` in the paper): the sum of `Γ_{C, C∪{i}}` over missing pieces for
/// `C ≠ F`, and `γ · x_F` for the peer-seed group when `γ < ∞`.
#[must_use]
pub fn departure_rate_from_type(params: &SwarmParams, state: &SwarmState, c: PieceSet) -> f64 {
    let full = params.full_type();
    if c == full {
        if params.departs_immediately() {
            0.0
        } else {
            params.seed_departure_rate() * f64::from(state.count(full))
        }
    } else {
        full.difference(c)
            .iter()
            .map(|piece| transfer_rate(params, state, c, piece))
            .sum()
    }
}

/// Total rate of *all* piece transfers in the state (the sum of eq. (1) over
/// all `(C, i)` pairs). Useful as a sanity quantity: it is bounded by
/// `U_s + µ·n`.
#[must_use]
pub fn total_transfer_rate(params: &SwarmParams, state: &SwarmState) -> f64 {
    let full = params.full_type();
    state
        .occupied_types()
        .filter(|(c, _)| *c != full)
        .map(|(c, _)| {
            full.difference(c)
                .iter()
                .map(|piece| transfer_rate(params, state, c, piece))
                .sum::<f64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieceset::TypeSpace;

    fn set(indices: &[usize]) -> PieceSet {
        indices.iter().map(|&i| PieceId::new(i)).collect()
    }

    /// Two-piece system used across the tests.
    fn params2(us: f64, mu: f64, gamma: f64) -> SwarmParams {
        SwarmParams::builder(2)
            .seed_rate(us)
            .contact_rate(mu)
            .seed_departure_rate(gamma)
            .fresh_arrivals(1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn rate_zero_when_piece_already_held_or_no_peers() {
        let params = params2(1.0, 1.0, 1.0);
        let space = TypeSpace::new(2).unwrap();
        let empty = SwarmState::empty(&space);
        assert_eq!(
            transfer_rate(&params, &empty, PieceSet::empty(), PieceId::new(0)),
            0.0
        );
        let mut s = SwarmState::empty(&space);
        s.add_peer(set(&[0]));
        assert_eq!(transfer_rate(&params, &s, set(&[0]), PieceId::new(0)), 0.0);
        // no type-∅ peers present
        assert_eq!(
            transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(1)),
            0.0
        );
    }

    #[test]
    fn seed_only_rate_matches_formula() {
        // One empty peer, seed rate 3, K = 2: seed contacts it w.p. 1 and
        // picks either piece w.p. 1/2 → rate 1.5 per piece.
        let params = params2(3.0, 1.0, 1.0);
        let space = TypeSpace::new(2).unwrap();
        let mut s = SwarmState::empty(&space);
        s.add_peer(PieceSet::empty());
        let r0 = transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(0));
        let r1 = transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(1));
        assert!((r0 - 1.5).abs() < 1e-12);
        assert!((r1 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn peer_upload_rate_matches_hand_computation() {
        // State: 2 peers of type {1} and 3 peers of type ∅, K = 2, µ = 2, Us = 0.
        // Rate of ∅ → {1}: (x_∅ / n) * µ * Σ_{S ∋ 1} x_S / |S − ∅|
        //   = (3/5) * 2 * (2 / 1) = 2.4
        let params = params2(0.0, 2.0, 1.0);
        let space = TypeSpace::new(2).unwrap();
        let mut s = SwarmState::empty(&space);
        s.set_count(PieceSet::empty(), 3);
        s.set_count(set(&[0]), 2);
        let r = transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(0));
        assert!((r - 2.4).abs() < 1e-12, "rate {r}");
        // Rate of ∅ → {2} is zero: nobody holds piece 2 and Us = 0.
        let r = transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(1));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn uploader_with_two_useful_pieces_splits_rate() {
        // K = 2: one full seed peer (type {1,2}) and one empty peer; µ = 1, Us = 0.
        // From the empty peer's perspective the seed peer has 2 useful pieces,
        // so each piece is uploaded at rate (1/2) * 1 * (1/2) = 0.25.
        let params = SwarmParams::builder(2)
            .contact_rate(1.0)
            .seed_departure_rate(1.0)
            .fresh_arrivals(1.0)
            .build()
            .unwrap();
        let space = TypeSpace::new(2).unwrap();
        let mut s = SwarmState::empty(&space);
        s.add_peer(PieceSet::empty());
        s.add_peer(set(&[0, 1]));
        let r0 = transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(0));
        let r1 = transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(1));
        assert!((r0 - 0.25).abs() < 1e-12);
        assert!((r1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn departure_rate_of_full_type_scales_with_gamma() {
        let params = params2(0.0, 1.0, 4.0);
        let space = TypeSpace::new(2).unwrap();
        let mut s = SwarmState::empty(&space);
        s.set_count(set(&[0, 1]), 5);
        assert!((departure_rate_from_type(&params, &s, set(&[0, 1])) - 20.0).abs() < 1e-12);
        // γ = ∞ convention: the rate function reports zero (departures are
        // folded into the completing transfer itself).
        let params = SwarmParams::builder(2).fresh_arrivals(1.0).build().unwrap();
        assert_eq!(departure_rate_from_type(&params, &s, set(&[0, 1])), 0.0);
    }

    #[test]
    fn total_transfer_rate_bounded_by_capacity() {
        // The total upload capacity is Us + µ n; the realised transfer rate
        // can never exceed it.
        let params = params2(2.0, 1.5, 1.0);
        let space = TypeSpace::new(2).unwrap();
        let mut s = SwarmState::empty(&space);
        s.set_count(PieceSet::empty(), 3);
        s.set_count(set(&[0]), 2);
        s.set_count(set(&[0, 1]), 1);
        let total = total_transfer_rate(&params, &s);
        let capacity = params.seed_rate() + params.contact_rate() * s.total_peers() as f64;
        assert!(
            total <= capacity + 1e-12,
            "total {total} capacity {capacity}"
        );
        assert!(total > 0.0);
    }

    #[test]
    fn departure_rate_sums_transfer_rates_for_partial_types() {
        let params = params2(1.0, 1.0, 1.0);
        let space = TypeSpace::new(2).unwrap();
        let mut s = SwarmState::empty(&space);
        s.set_count(PieceSet::empty(), 2);
        s.set_count(set(&[1]), 1);
        let d = departure_rate_from_type(&params, &s, PieceSet::empty());
        let manual = transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(0))
            + transfer_rate(&params, &s, PieceSet::empty(), PieceId::new(1));
        assert!((d - manual).abs() < 1e-12);
    }
}
