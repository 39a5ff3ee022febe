//! The `µ = ∞` watched process of the borderline analysis
//! (Section VIII-D, Figure 3).
//!
//! For the symmetric flat network (no fixed seed, `γ = ∞`, arrivals carry one
//! uniformly random piece at rate `λ` each), the process watched on its
//! *slow* states (all peers share the same type) in the limit `µ → ∞` lives
//! on the reduced state space `{(0,0)} ∪ {(n,k) : n ≥ 1, 1 ≤ k ≤ K−1}`,
//! where `(n, k)` means `n` peers all holding the same `k` pieces.
//!
//! The paper shows the top layer `(·, K−1)` evolves as a zero-drift random
//! walk (the coin-flip variable `Z` has mean `K−1`), hence the process is
//! null recurrent — the borderline case Theorem 1 leaves open.

use crate::SwarmError;
use markov::gillespie::{self, Jumps, SimulatorRun, StopRule};
use markov::Ctmc;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A state of the watched process: `Empty` is `(0,0)`; `Uniform { peers, pieces }`
/// means `peers ≥ 1` peers all hold the same `pieces` (with `1 ≤ pieces ≤ K−1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MuInfinityState {
    /// No peers in the system.
    Empty,
    /// `peers` peers all holding the same set of `pieces` pieces.
    Uniform {
        /// Number of peers, `n ≥ 1`.
        peers: u64,
        /// Number of pieces each of them holds, `1 ≤ pieces ≤ K−1`.
        pieces: usize,
    },
}

impl MuInfinityState {
    /// The number of peers: 0 for `Empty`.
    #[must_use]
    pub fn peers(&self) -> u64 {
        match self {
            MuInfinityState::Empty => 0,
            MuInfinityState::Uniform { peers, .. } => *peers,
        }
    }
}

/// The `µ = ∞` watched process for a `K`-piece symmetric flat network with
/// per-piece arrival rate `λ`.
#[derive(Clone, PartialEq)]
pub struct MuInfinityProcess {
    num_pieces: usize,
    lambda: f64,
    /// `z_pmf(z)` for `z < MAX_Z_SUPPORT`, the part of the law of `Z` the
    /// generator enumerates, computed once instead of on every top-layer
    /// jump.
    z_table: Vec<f64>,
    /// Entry `m ≤ MAX_Z_SUPPORT`: the left-to-right sum of the first `m`
    /// top-layer rate slots (see [`MuInfinityProcess::top_rate`]), and
    /// `1 − p_0 − … − p_{m−1}` subtracted in the generator's order. The
    /// top-layer state `(n, K−1)` reads entry `min(n, MAX_Z_SUPPORT)`.
    top_sums: Vec<(f64, f64)>,
}

impl core::fmt::Debug for MuInfinityProcess {
    // The tables are derived from `K` and `λ`, so they are left out.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MuInfinityProcess")
            .field("num_pieces", &self.num_pieces)
            .field("lambda", &self.lambda)
            .finish()
    }
}

impl MuInfinityProcess {
    /// Creates the process.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidParameter`] unless `K ≥ 2` and `λ > 0`
    /// (with `K = 1` there is no piece exchange to model).
    pub fn new(num_pieces: usize, lambda: f64) -> Result<Self, SwarmError> {
        if num_pieces < 2 {
            return Err(SwarmError::InvalidParameter(
                "the µ = ∞ process needs K ≥ 2".into(),
            ));
        }
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(SwarmError::InvalidParameter(format!(
                "λ = {lambda} must be finite and positive"
            )));
        }
        let mut process = MuInfinityProcess {
            num_pieces,
            lambda,
            z_table: Vec::new(),
            top_sums: Vec::new(),
        };
        process.z_table = (0..MAX_Z_SUPPORT).map(|z| process.z_pmf(z)).collect();
        let (mut total, mut remaining) = (0.0, 1.0);
        process.top_sums.push((total, remaining));
        for (z, p) in process.z_table.iter().enumerate() {
            total += process.top_rate(z);
            remaining -= p;
            process.top_sums.push((total, remaining));
        }
        Ok(process)
    }

    /// Number of pieces `K`.
    #[must_use]
    pub fn num_pieces(&self) -> usize {
        self.num_pieces
    }

    /// Per-piece arrival rate `λ`.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Probability that the coin-flip variable `Z` (heads before the
    /// `(K−1)`-th tail of a fair coin) equals `z`:
    /// `P(Z = z) = C(z + K − 2, z) 2^{−(z + K − 1)}`.
    #[must_use]
    pub fn z_pmf(&self, z: u64) -> f64 {
        let k = self.num_pieces as u64;
        binomial(z + k - 2, z) * 0.5_f64.powi((z + k - 1) as i32)
    }

    /// Probability that the missing-piece arrival empties the old population
    /// of `n` peers before completing, ending with the new peer alone holding
    /// `1 + t` pieces (it downloaded `t ≤ K−2` pieces): the probability of
    /// observing `n` heads before the `(K−1)`-th tail with exactly `t` tails
    /// first, `C(n−1+t, t) 2^{−(n+t)}`.
    #[must_use]
    pub fn takeover_pmf(&self, n: u64, t: usize) -> f64 {
        if t > self.num_pieces - 2 {
            return 0.0;
        }
        binomial(n - 1 + t as u64, t as u64) * 0.5_f64.powi((n + t as u64) as i32)
    }

    /// Simulates the process from `initial` until `stop` triggers, with the
    /// peer count observed.
    ///
    /// This is `markov::Simulator::new(self)` observing
    /// [`MuInfinityState::peers`] and run with `stop`, draw for draw and
    /// point for point, but a top-layer jump no longer lists its up to 513
    /// candidates: the total rate is read from sums tabulated in
    /// [`MuInfinityProcess::new`], and the walk reads the law of `Z` only as
    /// far as the draw reaches.
    pub fn simulate_peer_count<R: Rng + ?Sized>(
        &self,
        initial: MuInfinityState,
        stop: StopRule,
        rng: &mut R,
    ) -> SimulatorRun<MuInfinityState> {
        let mut jumps = Tabulated {
            process: self,
            tabled: 0,
            listed: Vec::new(),
        };
        gillespie::run(&mut jumps, initial, initial.peers() as f64, stop, rng)
    }

    /// Rate slot `z` of a top-layer state `(n, K−1)` with `z < min(n, 512)`,
    /// as [`markov::Simulator`] keeps it after [`Ctmc::transitions`]: slot 0
    /// is the arrival that keeps the club, `(K−1)λ`, because `Z = 0` is a
    /// self-loop; slot `z ≥ 1` is the departure of `z` old peers, `λ·p_z`,
    /// or 0 where `Simulator` would drop that rate as not positive.
    fn top_rate(&self, z: usize) -> f64 {
        let rate = if z == 0 {
            (self.num_pieces - 1) as f64 * self.lambda
        } else {
            self.lambda * self.z_table[z]
        };
        if rate > 0.0 {
            rate
        } else {
            0.0
        }
    }

    /// Appends the takeover jumps out of the top-layer state `(n, K−1)`,
    /// where the old population is wiped out (`Z ≥ n`, or beyond the
    /// enumeration cap) with probability `remaining`, so that their rates
    /// sum to `λ · remaining`.
    fn push_takeover(&self, n: u64, remaining: f64, out: &mut Vec<(MuInfinityState, f64)>) {
        let start = out.len();
        let mut takeover_total = 0.0;
        for t in 0..=(self.num_pieces - 2) {
            let p = self.takeover_pmf(n, t);
            takeover_total += p;
            out.push((
                MuInfinityState::Uniform {
                    peers: 1,
                    pieces: 1 + t,
                },
                p,
            ));
        }
        if takeover_total > 0.0 {
            for (_, rate) in &mut out[start..] {
                // Normalise within the takeover block so the total
                // transition rate is exactly λ · remaining.
                *rate = self.lambda * remaining * *rate / takeover_total;
            }
        } else {
            out.truncate(start);
            out.push((
                MuInfinityState::Uniform {
                    peers: 1,
                    pieces: 1,
                },
                self.lambda * remaining,
            ));
        }
    }
}

/// [`MuInfinityProcess::simulate_peer_count`]'s [`Jumps`]. A top-layer
/// state's first `tabled` jumps are its rate slots, summed in
/// [`MuInfinityProcess::new`]'s tables; the jumps that are not tabulated,
/// every jump below the top layer and the takeover block on it, are listed
/// after them.
struct Tabulated<'a> {
    process: &'a MuInfinityProcess,
    tabled: usize,
    listed: Vec<(MuInfinityState, f64)>,
}

impl Jumps for Tabulated<'_> {
    type State = MuInfinityState;

    fn sum_rates(&mut self, state: &MuInfinityState) -> f64 {
        let process = self.process;
        self.listed.clear();
        self.tabled = match *state {
            MuInfinityState::Uniform { peers, pieces } if pieces == process.num_pieces - 1 => {
                let tabled = peers.min(MAX_Z_SUPPORT) as usize;
                let remaining = process.top_sums[tabled].1;
                if remaining > 1e-15 {
                    process.push_takeover(peers, remaining, &mut self.listed);
                }
                tabled
            }
            _ => {
                process.transitions(state, &mut self.listed);
                0
            }
        };
        self.listed.retain(|(s, r)| *r > 0.0 && s != state);
        self.listed
            .iter()
            .fold(process.top_sums[self.tabled].0, |sum, (_, r)| sum + r)
    }

    fn rates(&self) -> impl Iterator<Item = f64> {
        (0..self.tabled)
            .map(|z| self.process.top_rate(z))
            .chain(self.listed.iter().map(|&(_, r)| r))
    }

    fn apply(&mut self, state: &mut MuInfinityState, index: usize) -> f64 {
        let top = self.process.num_pieces - 1;
        *state = match index {
            z if z >= self.tabled => self.listed[z - self.tabled].0,
            0 => MuInfinityState::Uniform {
                peers: state.peers() + 1,
                pieces: top,
            },
            z => MuInfinityState::Uniform {
                peers: state.peers() - z as u64,
                pieces: top,
            },
        };
        state.peers() as f64
    }
}

/// Binomial coefficient as `f64` (adequate for the modest arguments used by
/// the jump distribution).
fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let k = k.min(n - k);
    let mut acc = 1.0_f64;
    for i in 0..k {
        acc = acc * (n - i) as f64 / (i + 1) as f64;
    }
    acc
}

/// Cap on the enumerated support of `Z` in the generator; the tail beyond the
/// cap is folded into the largest jump so row sums stay exact.
const MAX_Z_SUPPORT: u64 = 512;

impl Ctmc for MuInfinityProcess {
    type State = MuInfinityState;

    fn transitions(&self, state: &MuInfinityState, out: &mut Vec<(MuInfinityState, f64)>) {
        let k = self.num_pieces;
        let lambda = self.lambda;
        match *state {
            MuInfinityState::Empty => {
                // Any arrival leaves a single peer holding its one piece.
                out.push((
                    MuInfinityState::Uniform {
                        peers: 1,
                        pieces: 1,
                    },
                    k as f64 * lambda,
                ));
            }
            MuInfinityState::Uniform { peers: n, pieces } if pieces < k - 1 => {
                // Arrival with a piece the group already has: the newcomer
                // instantly downloads everything the group holds.
                out.push((
                    MuInfinityState::Uniform {
                        peers: n + 1,
                        pieces,
                    },
                    pieces as f64 * lambda,
                ));
                // Arrival with a new piece: after the fast exchange everyone
                // holds `pieces + 1` pieces (nobody can complete yet).
                out.push((
                    MuInfinityState::Uniform {
                        peers: n + 1,
                        pieces: pieces + 1,
                    },
                    (k - pieces) as f64 * lambda,
                ));
            }
            MuInfinityState::Uniform { peers: n, pieces } => {
                debug_assert_eq!(pieces, k - 1);
                // Arrival holding a piece the one club already has.
                out.push((
                    MuInfinityState::Uniform {
                        peers: n + 1,
                        pieces,
                    },
                    (k - 1) as f64 * lambda,
                ));
                // Arrival holding the missing piece: resolve the coin-flip
                // exchange. Departing old peers: Z ≤ n−1 → (n − Z, K−1).
                let mut remaining = 1.0;
                for (z, &p) in (0..n).zip(&self.z_table) {
                    remaining -= p;
                    out.push((
                        MuInfinityState::Uniform {
                            peers: n - z,
                            pieces,
                        },
                        lambda * p,
                    ));
                }
                // Z ≥ n (or beyond the enumeration cap): the old population is
                // wiped out and the newcomer remains alone with 1 + t pieces.
                if remaining > 1e-15 {
                    self.push_takeover(n, remaining, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use markov::gillespie::{Simulator, StopRule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(MuInfinityProcess::new(1, 1.0).is_err());
        assert!(MuInfinityProcess::new(3, 0.0).is_err());
        assert!(MuInfinityProcess::new(3, f64::NAN).is_err());
        assert!(MuInfinityProcess::new(3, 1.0).is_ok());
    }

    #[test]
    fn z_pmf_sums_to_one_and_has_mean_k_minus_one() {
        let p = MuInfinityProcess::new(4, 1.0).unwrap();
        let total: f64 = (0..2_000).map(|z| p.z_pmf(z)).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        let mean: f64 = (0..2_000).map(|z| z as f64 * p.z_pmf(z)).sum();
        assert!((mean - 3.0).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn transition_rates_from_empty_and_lower_layers() {
        let p = MuInfinityProcess::new(3, 2.0).unwrap();
        let mut out = Vec::new();
        p.transitions(&MuInfinityState::Empty, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].0,
            MuInfinityState::Uniform {
                peers: 1,
                pieces: 1
            }
        );
        assert!((out[0].1 - 6.0).abs() < 1e-12);

        out.clear();
        p.transitions(
            &MuInfinityState::Uniform {
                peers: 4,
                pieces: 1,
            },
            &mut out,
        );
        // (5,1) at rate 1·λ = 2 and (5,2) at rate 2·λ = 4.
        assert_eq!(out.len(), 2);
        let up_same = out
            .iter()
            .find(|(s, _)| {
                *s == MuInfinityState::Uniform {
                    peers: 5,
                    pieces: 1,
                }
            })
            .unwrap();
        let up_next = out
            .iter()
            .find(|(s, _)| {
                *s == MuInfinityState::Uniform {
                    peers: 5,
                    pieces: 2,
                }
            })
            .unwrap();
        assert!((up_same.1 - 2.0).abs() < 1e-12);
        assert!((up_next.1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn top_layer_row_sum_is_k_lambda() {
        // The generator row of any top-layer state, the `Z = 0` self-loop
        // included, sums to (K−1)λ + λ = Kλ.
        let p = MuInfinityProcess::new(3, 1.5).unwrap();
        for n in [1u64, 2, 5, 40] {
            let mut out = Vec::new();
            p.transitions(
                &MuInfinityState::Uniform {
                    peers: n,
                    pieces: 2,
                },
                &mut out,
            );
            let rate: f64 = out.iter().map(|(_, r)| r).sum();
            assert!((rate - 4.5).abs() < 1e-9, "n = {n}: rate {rate}");
        }
    }

    #[test]
    fn top_layer_rates_read_the_law_of_z_exactly() {
        // The tabulated law must give the rates a fresh `z_pmf` gives, bit
        // for bit, below, at and beyond the enumeration cap.
        for (k, lambda) in [(3, 1.0), (5, 1.5)] {
            let p = MuInfinityProcess::new(k, lambda).unwrap();
            for n in [1u64, 2, 3, 511, 512, 513, 5000] {
                let mut out = Vec::new();
                p.transitions(
                    &MuInfinityState::Uniform {
                        peers: n,
                        pieces: k - 1,
                    },
                    &mut out,
                );
                let departures = n.min(MAX_Z_SUPPORT);
                assert!(out.len() > departures as usize, "K = {k}, n = {n}");
                for z in 0..departures {
                    let (target, rate) = out[1 + z as usize];
                    assert_eq!(
                        target,
                        MuInfinityState::Uniform {
                            peers: n - z,
                            pieces: k - 1,
                        }
                    );
                    assert_eq!(
                        rate.to_bits(),
                        (lambda * p.z_pmf(z)).to_bits(),
                        "K = {k}, n = {n}, z = {z}"
                    );
                }
            }
        }
    }

    #[test]
    fn debug_output_leaves_the_table_out() {
        let p = MuInfinityProcess::new(3, 2.0).unwrap();
        assert_eq!(
            format!("{p:?}"),
            "MuInfinityProcess { num_pieces: 3, lambda: 2.0 }"
        );
    }

    #[test]
    fn top_layer_mean_jump_is_zero_drift() {
        // From (n, K−1) with n large, the expected change in the peer count is
        // (K−1)λ·(+1) + λ·E[−Z] = 0.
        let p = MuInfinityProcess::new(4, 1.0).unwrap();
        let n = 200u64;
        let state = MuInfinityState::Uniform {
            peers: n,
            pieces: 3,
        };
        let drift = markov::drift::drift(&p, &state, |s| s.peers() as f64);
        assert!(drift.abs() < 1e-6, "drift {drift}");
    }

    #[test]
    fn takeover_probabilities_are_a_distribution_given_wipeout() {
        let p = MuInfinityProcess::new(5, 1.0).unwrap();
        let n = 3u64;
        // P(Z >= n) should equal the total takeover probability.
        let p_wipe: f64 = 1.0 - (0..n).map(|z| p.z_pmf(z)).sum::<f64>();
        let takeover_total: f64 = (0..=(5 - 2)).map(|t| p.takeover_pmf(n, t)).sum();
        assert!(
            (p_wipe - takeover_total).abs() < 1e-9,
            "{p_wipe} vs {takeover_total}"
        );
        assert_eq!(p.takeover_pmf(n, 10), 0.0);
    }

    #[test]
    fn simulated_process_returns_to_small_states_but_wanders() {
        // Null recurrence cannot be proven by simulation; we check the two
        // qualitative signatures: the process keeps returning to small
        // populations, yet its running maximum keeps growing.
        let p = MuInfinityProcess::new(3, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let sim = Simulator::new(&p).observe(|s| s.peers() as f64);
        let run = sim.run(
            MuInfinityState::Empty,
            StopRule::time_or_events(200_000.0, 2_000_000),
            &mut rng,
        );
        let path = &run.path;
        assert!(
            path.upcrossings_of(3.0) > 50,
            "many returns near the origin"
        );
        let early_max = path
            .resample(1000)
            .iter()
            .take(500)
            .map(|&(_, v)| v)
            .fold(0.0_f64, f64::max);
        assert!(
            path.max_value() > early_max,
            "the excursion maxima keep growing"
        );
    }

    #[test]
    fn binomial_helper() {
        assert_eq!(binomial(5, 0), 1.0);
        assert_eq!(binomial(5, 5), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(3, 7), 0.0);
    }
}
