//! Stationary distribution of a truncated CTMC.
//!
//! The full P2P chain has a countably infinite state space, but positive
//! recurrent parameterisations concentrate their mass on a modest set of
//! states. Enumerating the state space reachable below a population cap and
//! solving for the stationary distribution of the truncated chain (with the
//! cap acting as a reflecting boundary) gives numerically useful stationary
//! summaries (e.g. `E[N]`) to compare against simulation.

use crate::{Ctmc, MarkovError};
use std::hash::Hash;

/// Options for the truncated stationary solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationaryOptions {
    /// Maximum number of states to enumerate (breadth-first from the initial
    /// state).
    pub max_states: usize,
    /// Maximum power-iteration sweeps on the uniformized chain.
    pub max_iterations: usize,
    /// L1 convergence tolerance between sweeps.
    pub tolerance: f64,
}

impl Default for StationaryOptions {
    fn default() -> Self {
        StationaryOptions {
            max_states: 200_000,
            max_iterations: 20_000,
            tolerance: 1e-10,
        }
    }
}

/// The stationary distribution of a truncated chain.
#[derive(Debug, Clone)]
pub struct StationaryDistribution<S> {
    states: Vec<S>,
    probabilities: Vec<f64>,
    /// `true` if the enumeration hit `max_states` (the truncation may bias
    /// the result).
    pub truncated: bool,
    /// Number of power-iteration sweeps performed.
    pub iterations: usize,
}

impl<S: Clone + Eq + Hash> StationaryDistribution<S> {
    /// Probability assigned to `state` (zero if not enumerated).
    #[must_use]
    pub fn probability_of(&self, state: &S) -> f64 {
        self.states
            .iter()
            .position(|s| s == state)
            .map_or(0.0, |i| self.probabilities[i])
    }

    /// Expected value of an observable under the distribution.
    #[must_use]
    pub fn expectation<F: Fn(&S) -> f64>(&self, f: F) -> f64 {
        self.states
            .iter()
            .zip(&self.probabilities)
            .map(|(s, p)| f(s) * p)
            .sum()
    }

    /// The enumerated states and their probabilities.
    pub fn support(&self) -> impl Iterator<Item = (&S, f64)> {
        self.states.iter().zip(self.probabilities.iter().copied())
    }

    /// Number of states enumerated.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if no states were enumerated (cannot happen for valid input).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Computes the stationary distribution of the chain restricted to the states
/// reachable from `initial` while `keep(state)` holds (transitions leaving
/// the kept region are dropped, i.e. the boundary reflects).
///
/// # Errors
///
/// Returns [`MarkovError::NoConvergence`] if power iteration does not reach
/// the requested tolerance, or [`MarkovError::InvalidParameter`] if the kept
/// region is empty.
pub fn stationary_distribution<M, F>(
    model: &M,
    initial: M::State,
    keep: F,
    options: StationaryOptions,
) -> Result<StationaryDistribution<M::State>, MarkovError>
where
    M: Ctmc,
    M::State: Eq + Hash,
    F: Fn(&M::State) -> bool,
{
    if !keep(&initial) {
        return Err(MarkovError::InvalidParameter(
            "initial state is outside the kept region".into(),
        ));
    }
    // Breadth-first enumeration of the kept, reachable states.
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only: the map is insert/get, never iterated; enumeration order lives in `states` (BFS discovery order), pinned by `bfs_enumeration_order_is_discovery_order`"
    )]
    let mut index: std::collections::HashMap<M::State, usize> = std::collections::HashMap::new();
    let mut states: Vec<M::State> = Vec::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    index.insert(initial.clone(), 0);
    states.push(initial);
    queue.push_back(0);
    let mut truncated = false;

    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut buf = Vec::new();
    while let Some(i) = queue.pop_front() {
        buf.clear();
        let state = states[i].clone();
        model.transitions(&state, &mut buf);
        let mut row = Vec::new();
        for (target, rate) in buf.drain(..) {
            if rate <= 0.0 || target == state || !keep(&target) {
                continue;
            }
            let j = match index.get(&target) {
                Some(&j) => j,
                None => {
                    if states.len() >= options.max_states {
                        truncated = true;
                        continue;
                    }
                    let j = states.len();
                    index.insert(target.clone(), j);
                    states.push(target);
                    queue.push_back(j);
                    j
                }
            };
            row.push((j, rate));
        }
        if rows.len() <= i {
            rows.resize(i + 1, Vec::new());
        }
        rows[i] = row;
        // rows for states enumerated later get filled when dequeued
    }
    rows.resize(states.len(), Vec::new());

    let n = states.len();
    // Uniformization constant.
    let unif = rows
        .iter()
        .map(|row| row.iter().map(|(_, r)| r).sum::<f64>())
        .fold(0.0_f64, f64::max)
        .max(1e-12)
        * 1.01;

    // Power iteration on P = I + Q/unif.
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    let mut iterations = 0;
    loop {
        iterations += 1;
        next.iter_mut().for_each(|x| *x = 0.0);
        for (i, row) in rows.iter().enumerate() {
            let out_rate: f64 = row.iter().map(|(_, r)| r).sum();
            let stay = 1.0 - out_rate / unif;
            next[i] += pi[i] * stay;
            for &(j, rate) in row {
                next[j] += pi[i] * rate / unif;
            }
        }
        let total: f64 = next.iter().sum();
        next.iter_mut().for_each(|x| *x /= total);
        let diff: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut next);
        if diff < options.tolerance {
            break;
        }
        if iterations >= options.max_iterations {
            return Err(MarkovError::NoConvergence { iterations });
        }
    }

    Ok(StationaryDistribution {
        states,
        probabilities: pi,
        truncated,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Mm1 {
        lambda: f64,
        mu: f64,
    }
    impl Ctmc for Mm1 {
        type State = u64;
        fn transitions(&self, s: &u64, out: &mut Vec<(u64, f64)>) {
            out.push((s + 1, self.lambda));
            if *s > 0 {
                out.push((s - 1, self.mu));
            }
        }
    }

    #[test]
    fn mm1_truncated_stationary_matches_geometric() {
        let model = Mm1 {
            lambda: 0.5,
            mu: 1.0,
        };
        let dist =
            stationary_distribution(&model, 0, |s| *s <= 60, StationaryOptions::default()).unwrap();
        assert!(!dist.truncated);
        assert_eq!(dist.len(), 61);
        // pi(0) = 1 - rho = 0.5
        assert!((dist.probability_of(&0) - 0.5).abs() < 1e-6);
        let mean = dist.expectation(|s| *s as f64);
        assert!((mean - 1.0).abs() < 1e-4, "mean {mean}");
    }

    #[test]
    fn truncation_flag_reported() {
        let model = Mm1 {
            lambda: 0.5,
            mu: 1.0,
        };
        let opts = StationaryOptions {
            max_states: 5,
            ..Default::default()
        };
        let dist = stationary_distribution(&model, 0, |s| *s <= 60, opts).unwrap();
        assert!(dist.truncated);
        assert_eq!(dist.len(), 5);
    }

    #[test]
    fn initial_outside_region_is_error() {
        let model = Mm1 {
            lambda: 0.5,
            mu: 1.0,
        };
        let r = stationary_distribution(&model, 100, |s| *s <= 60, StationaryOptions::default());
        assert!(r.is_err());
    }

    #[test]
    fn probability_of_unknown_state_is_zero() {
        let model = Mm1 {
            lambda: 0.2,
            mu: 1.0,
        };
        let dist =
            stationary_distribution(&model, 0, |s| *s <= 30, StationaryOptions::default()).unwrap();
        assert_eq!(dist.probability_of(&1_000), 0.0);
        assert!(!dist.is_empty());
    }

    #[test]
    fn bfs_enumeration_order_is_discovery_order() {
        // Binary-tree chain: s → 2s+1, 2s+2 (plus a rate back to the
        // parent, so the truncated chain is irreducible). Level-order
        // discovery from the root must survive verbatim in `support()`:
        // the `index` HashMap is lookup-only and may never leak its own
        // hash-seeded order into the state list.
        struct Tree;
        impl Ctmc for Tree {
            type State = u64;
            fn transitions(&self, s: &u64, out: &mut Vec<(u64, f64)>) {
                out.push((2 * s + 1, 1.0));
                out.push((2 * s + 2, 2.0));
                if *s > 0 {
                    out.push(((s - 1) / 2, 3.0));
                }
            }
        }
        let dist =
            stationary_distribution(&Tree, 0, |s| *s <= 14, StationaryOptions::default()).unwrap();
        let order: Vec<u64> = dist.support().map(|(s, _)| *s).collect();
        assert_eq!(order, (0..=14).collect::<Vec<u64>>());
    }

    #[test]
    fn two_state_chain_exact() {
        // 0 <-> 1 with rates a = 2 (up) and b = 6 (down): pi = (0.75, 0.25).
        struct TwoState;
        impl Ctmc for TwoState {
            type State = u8;
            fn transitions(&self, s: &u8, out: &mut Vec<(u8, f64)>) {
                match s {
                    0 => out.push((1, 2.0)),
                    _ => out.push((0, 6.0)),
                }
            }
        }
        let dist =
            stationary_distribution(&TwoState, 0, |_| true, StationaryOptions::default()).unwrap();
        assert!((dist.probability_of(&0) - 0.75).abs() < 1e-8);
        assert!((dist.probability_of(&1) - 0.25).abs() < 1e-8);
        let support: Vec<_> = dist.support().collect();
        assert_eq!(support.len(), 2);
    }
}
