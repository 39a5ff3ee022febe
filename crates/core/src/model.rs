//! The swarm CTMC: the generator matrix `Q` of Section III.

use crate::rates::transfer_rate_among;
use crate::{SwarmParams, SwarmState};
use markov::gillespie::{self, Jumps, StopRule};
use markov::{Ctmc, SamplePath};
use pieceset::{PieceSet, TypeSpace};
use rand::Rng;

/// The Zhu–Hajek swarm model as a continuous-time Markov chain over type
/// counts.
///
/// The generator follows Section III exactly:
///
/// * arrivals: `q(x, x + e_C) = λ_C`,
/// * peer-seed departures (finite `γ`): `q(x, x − e_F) = γ x_F`,
/// * piece transfers: `q(x, x − e_C + e_{C∪{i}}) = Γ_{C, C∪{i}}` of eq. (1);
///   when `γ = ∞` a transfer that completes a collection is a departure
///   (`q(x, x − e_C) = Γ_{C,F}` for `|C| = K − 1`).
///
/// # Examples
///
/// ```
/// use swarm::{SwarmModel, SwarmParams};
/// use rand::SeedableRng;
///
/// let params = SwarmParams::builder(2)
///     .seed_rate(1.0)
///     .contact_rate(1.0)
///     .seed_departure_rate(2.0)
///     .fresh_arrivals(0.5)
///     .build()
///     .unwrap();
/// let model = SwarmModel::new(params);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let run = model.simulate_peer_count(model.empty_state(), 200.0, &mut rng);
/// assert!(run.end_time() >= 200.0 - 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SwarmModel {
    params: SwarmParams,
    space: TypeSpace,
}

impl SwarmModel {
    /// Creates the model from validated parameters.
    #[must_use]
    pub fn new(params: SwarmParams) -> Self {
        let space = params.type_space();
        SwarmModel { params, space }
    }

    /// The model parameters.
    #[must_use]
    pub fn params(&self) -> &SwarmParams {
        &self.params
    }

    /// The type space of the model.
    #[must_use]
    pub fn type_space(&self) -> &TypeSpace {
        &self.space
    }

    /// The empty initial state.
    #[must_use]
    pub fn empty_state(&self) -> SwarmState {
        SwarmState::empty(&self.space)
    }

    /// A one-club initial state: `n` peers all missing `missing_piece`.
    #[must_use]
    pub fn one_club_state(&self, missing_piece: pieceset::PieceId, n: u32) -> SwarmState {
        SwarmState::one_club(&self.space, missing_piece, n)
    }

    /// Simulates the chain for `horizon` time units and returns the sample
    /// path of the total peer count.
    ///
    /// This is `markov::Simulator::run` with the total peer count observed
    /// and `StopRule::at_time(horizon)`, draw for draw and point for point,
    /// but it steps one state in place over a reused jump buffer instead of
    /// cloning the state once per candidate jump.
    pub fn simulate_peer_count<R: Rng + ?Sized>(
        &self,
        initial: SwarmState,
        horizon: f64,
        rng: &mut R,
    ) -> SamplePath {
        let peers = initial.total_peers();
        let mut jumps = InPlace {
            model: self,
            jumps: Vec::new(),
            peers,
        };
        let stop = StopRule::at_time(horizon);
        gillespie::run(&mut jumps, initial, peers as f64, stop, rng).path
    }

    /// Simulates and classifies the path of the peer count with
    /// [`SwarmParams::path_classifier`].
    pub fn simulate_and_classify<R: Rng + ?Sized>(
        &self,
        initial: SwarmState,
        horizon: f64,
        rng: &mut R,
    ) -> markov::classify::PathVerdict {
        let classifier = self.params.path_classifier(initial.total_peers() as usize);
        classifier.classify(&self.simulate_peer_count(initial, horizon, rng))
    }

    /// Appends the jumps out of `state`, which holds `n` peers, with their
    /// positive rates: first the arrivals in [`SwarmParams::arrivals`] order,
    /// then the peer-seed departure, then the transfers by ascending type
    /// and, within a type, by ascending missing piece. This is the one
    /// definition of the generator; the in-place steps and
    /// [`Ctmc::transitions`] both read it.
    fn jumps(&self, state: &SwarmState, n: u64, out: &mut Vec<(Jump, f64)>) {
        debug_assert_eq!(n, state.total_peers());
        let mut push = |jump, rate: f64| {
            if rate > 0.0 {
                out.push((jump, rate));
            }
        };
        let full = self.params.full_type();
        let gamma_finite = !self.params.departs_immediately();

        // Exogenous arrivals. With γ = ∞ an arriving peer that already has
        // everything would depart instantly; validation forbids λ_F > 0 in
        // that case.
        for (c, rate) in self.params.arrivals() {
            push(Jump::Arrive(c), rate);
        }

        // Peer-seed departures.
        if gamma_finite {
            let seeds = state.count(full);
            if seeds > 0 {
                let rate = self.params.seed_departure_rate() * f64::from(seeds);
                push(Jump::Depart(full), rate);
            }
        }

        // Piece transfers.
        for (c, _) in state.occupied_types() {
            if c == full {
                continue;
            }
            for piece in full.difference(c).iter() {
                let rate = transfer_rate_among(&self.params, state, n, c, piece);
                let target = c.with(piece);
                // Completion is an immediate departure when γ = ∞.
                let jump = if target == full && !gamma_finite {
                    Jump::Depart(c)
                } else {
                    Jump::Move(c, target)
                };
                push(jump, rate);
            }
        }
    }
}

/// One jump of the swarm chain.
#[derive(Debug, Clone, Copy)]
enum Jump {
    /// A type-`C` peer arrives.
    Arrive(PieceSet),
    /// A type-`C` peer leaves: a peer seed departing or, when `γ = ∞`, a
    /// peer completing its collection.
    Depart(PieceSet),
    /// A type-`C` peer downloads a piece and becomes a type-`C ∪ {i}` peer.
    Move(PieceSet, PieceSet),
}

impl Jump {
    /// Applies the jump to `state` in place.
    fn apply(self, state: &mut SwarmState) {
        match self {
            Jump::Arrive(c) => state.add_peer(c),
            Jump::Depart(c) => state.remove_peer(c),
            Jump::Move(from, to) => state.move_peer(from, to),
        }
    }
}

/// [`SwarmModel::simulate_peer_count`]'s [`Jumps`]: the jumps out of the
/// current state, and its peer count, kept up to date jump by jump because
/// [`SwarmState::total_peers`] reads all `2^K` type counts.
struct InPlace<'a> {
    model: &'a SwarmModel,
    jumps: Vec<(Jump, f64)>,
    peers: u64,
}

impl Jumps for InPlace<'_> {
    type State = SwarmState;

    fn sum_rates(&mut self, state: &SwarmState) -> f64 {
        self.jumps.clear();
        self.model.jumps(state, self.peers, &mut self.jumps);
        self.jumps.iter().map(|(_, r)| r).sum()
    }

    fn rates(&self) -> impl Iterator<Item = f64> {
        self.jumps.iter().map(|&(_, r)| r)
    }

    fn apply(&mut self, state: &mut SwarmState, index: usize) -> f64 {
        let (jump, _) = self.jumps[index];
        jump.apply(state);
        self.peers = match jump {
            Jump::Arrive(_) => self.peers + 1,
            Jump::Depart(_) => self.peers - 1,
            Jump::Move(..) => self.peers,
        };
        self.peers as f64
    }
}

impl Ctmc for SwarmModel {
    type State = SwarmState;

    fn transitions(&self, state: &SwarmState, out: &mut Vec<(SwarmState, f64)>) {
        let mut jumps = Vec::new();
        self.jumps(state, state.total_peers(), &mut jumps);
        out.extend(jumps.into_iter().map(|(jump, rate)| {
            let mut next = state.clone();
            jump.apply(&mut next);
            (next, rate)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieceset::{PieceId, PieceSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn set(indices: &[usize]) -> PieceSet {
        indices.iter().map(|&i| PieceId::new(i)).collect()
    }

    fn model(us: f64, mu: f64, gamma: f64, lambda0: f64) -> SwarmModel {
        SwarmModel::new(
            SwarmParams::builder(2)
                .seed_rate(us)
                .contact_rate(mu)
                .seed_departure_rate(gamma)
                .fresh_arrivals(lambda0)
                .build()
                .unwrap(),
        )
    }

    fn transitions_of(m: &SwarmModel, s: &SwarmState) -> Vec<(SwarmState, f64)> {
        let mut out = Vec::new();
        m.transitions(s, &mut out);
        out
    }

    #[test]
    fn empty_state_only_has_arrivals() {
        let m = model(1.0, 1.0, 1.0, 2.0);
        let ts = transitions_of(&m, &m.empty_state());
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].1, 2.0);
        assert_eq!(ts[0].0.total_peers(), 1);
        assert_eq!(ts[0].0.count(PieceSet::empty()), 1);
    }

    #[test]
    fn full_peers_depart_at_rate_gamma_times_count() {
        let m = model(0.0, 1.0, 3.0, 1.0);
        let mut s = m.empty_state();
        s.set_count(set(&[0, 1]), 4);
        let ts = transitions_of(&m, &s);
        let departure = ts
            .iter()
            .find(|(next, _)| next.total_peers() == 3)
            .expect("departure transition present");
        assert!((departure.1 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn completion_is_departure_when_gamma_infinite() {
        let m = SwarmModel::new(
            SwarmParams::builder(2)
                .seed_rate(1.0)
                .contact_rate(1.0)
                .fresh_arrivals(1.0)
                .build()
                .unwrap(),
        );
        // One peer missing only piece 2; the seed will complete it and it
        // must leave the system rather than become a type-F peer.
        let mut s = m.empty_state();
        s.add_peer(set(&[0]));
        let ts = transitions_of(&m, &s);
        // arrival + completion transfer
        assert_eq!(ts.len(), 2);
        // The completing transfer removes the peer from the system entirely.
        let completion = ts
            .iter()
            .find(|(next, _)| next.total_peers() == 0)
            .expect("completion transition");
        // seed rate 1 / (K - |C|) = 1/1 → rate 1
        assert!((completion.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transition_rates_match_rate_module() {
        let m = model(2.0, 1.5, 1.0, 1.0);
        let mut s = m.empty_state();
        s.set_count(PieceSet::empty(), 3);
        s.set_count(set(&[0]), 2);
        s.set_count(set(&[0, 1]), 1);
        let ts = transitions_of(&m, &s);
        // Check one specific transfer: ∅ → {1}.
        let expected =
            crate::rates::transfer_rate(m.params(), &s, PieceSet::empty(), PieceId::new(0));
        let mut target = s.clone();
        target.move_peer(PieceSet::empty(), set(&[0]));
        let found = ts
            .iter()
            .find(|(next, _)| *next == target)
            .expect("transition exists");
        assert!((found.1 - expected).abs() < 1e-12);
    }

    #[test]
    fn total_rate_is_finite_and_positive_for_occupied_states() {
        let m = model(1.0, 1.0, 2.0, 1.0);
        let mut s = m.empty_state();
        s.set_count(PieceSet::empty(), 5);
        let rate: f64 = transitions_of(&m, &s).iter().map(|(_, r)| r).sum();
        assert!(rate.is_finite() && rate > 0.0);
    }

    #[test]
    fn peer_count_conservation_in_transitions() {
        // Every transition changes the peer count by exactly -1, 0, or +1.
        let m = model(1.0, 1.0, 1.0, 1.0);
        let mut s = m.empty_state();
        s.set_count(PieceSet::empty(), 2);
        s.set_count(set(&[1]), 2);
        s.set_count(set(&[0, 1]), 1);
        let n = s.total_peers() as i64;
        for (next, rate) in transitions_of(&m, &s) {
            assert!(rate > 0.0);
            let diff = next.total_peers() as i64 - n;
            assert!((-1..=1).contains(&diff), "peer count jumped by {diff}");
        }
    }

    #[test]
    fn stable_single_seed_system_stays_small() {
        // K = 1 with plentiful seed capacity and fast peer seeds: stable.
        let params = SwarmParams::builder(1)
            .seed_rate(2.0)
            .contact_rate(1.0)
            .seed_departure_rate(0.5)
            .fresh_arrivals(1.0)
            .build()
            .unwrap();
        let m = SwarmModel::new(params);
        let mut rng = StdRng::seed_from_u64(7);
        let verdict = m.simulate_and_classify(m.empty_state(), 2_000.0, &mut rng);
        assert_eq!(
            verdict.class,
            markov::PathClass::Stable,
            "verdict {verdict:?}"
        );
    }

    #[test]
    fn starved_system_grows() {
        // K = 1, no seed, immediate departures: peers can only get the piece
        // from other peers, but completed peers leave instantly, so peers
        // accumulate forever (classic missing piece situation for K = 1).
        let params = SwarmParams::builder(1)
            .seed_rate(0.0)
            .contact_rate(1.0)
            .fresh_arrivals(1.0)
            .build()
            .unwrap();
        let m = SwarmModel::new(params);
        let mut rng = StdRng::seed_from_u64(8);
        let verdict = m.simulate_and_classify(m.empty_state(), 1_000.0, &mut rng);
        assert_eq!(
            verdict.class,
            markov::PathClass::Growing,
            "verdict {verdict:?}"
        );
    }
}
