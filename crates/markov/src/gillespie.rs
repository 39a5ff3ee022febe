//! Exact-jump (Gillespie) simulation of a continuous-time Markov chain.
//!
//! [`run`] is the one exact-jump loop: it owns the stop rule, the holding
//! time, the walk and the sample path, and a chain plugs in through
//! [`Jumps`]. [`Simulator`] plugs in any [`Ctmc`]; the swarm chain and the
//! `µ = ∞` process plug in their own in-place steps.

use crate::path::SamplePath;
use crate::poisson::{sample_exp, sample_weighted_index_of};
use crate::Ctmc;
use rand::Rng;

/// When to stop a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Stop once simulated time reaches this value.
    pub max_time: f64,
    /// Stop after this many jumps (safety valve against rate blow-ups).
    pub max_events: u64,
}

impl StopRule {
    /// Stop at simulated time `t` with a generous default event budget.
    #[must_use]
    pub fn at_time(t: f64) -> Self {
        StopRule {
            max_time: t,
            max_events: u64::MAX,
        }
    }

    /// Stop after `n` jumps regardless of simulated time.
    #[must_use]
    pub fn after_events(n: u64) -> Self {
        StopRule {
            max_time: f64::INFINITY,
            max_events: n,
        }
    }

    /// Stop at whichever of time `t` / `n` jumps comes first.
    #[must_use]
    pub fn time_or_events(t: f64, n: u64) -> Self {
        StopRule {
            max_time: t,
            max_events: n,
        }
    }
}

/// Why a run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The time horizon was reached.
    TimeHorizon,
    /// The event budget was exhausted.
    EventBudget,
    /// The chain reached an absorbing state (no out-going transitions).
    Absorbed,
}

/// Outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulatorRun<S> {
    /// Final state at the end of the run.
    pub final_state: S,
    /// Simulated time at the end of the run.
    pub final_time: f64,
    /// Number of jumps executed.
    pub events: u64,
    /// Why the run terminated.
    pub stop_reason: StopReason,
    /// Sample path of the observable the run was given.
    pub path: SamplePath,
}

/// A chain that [`run`] steps in place.
///
/// At each step the loop asks for the sum of the rates out of the current
/// state, draws the holding time from it, walks [`Jumps::rates`] with one
/// more draw and hands the index the walk picks to [`Jumps::apply`].
pub trait Jumps {
    /// The state of the chain.
    type State;

    /// Returns the left-to-right sum of the positive rates of the jumps out
    /// of `state`, 0 when `state` absorbs, and keeps what
    /// [`Jumps::rates`] and [`Jumps::apply`] need to know about them.
    fn sum_rates(&mut self, state: &Self::State) -> f64;

    /// The rates [`Jumps::sum_rates`] summed, in the same order. The walk
    /// skips zero entries and reads none after the one it picks.
    fn rates(&self) -> impl Iterator<Item = f64>;

    /// Applies jump `index` of [`Jumps::rates`] to `state` in place and
    /// returns the observable of the new state.
    fn apply(&mut self, state: &mut Self::State, index: usize) -> f64;
}

/// The exact-jump loop: runs `jumps` from `initial`, whose observable is
/// `value`, until `stop` triggers or the chain absorbs.
///
/// Each jump takes two uniform draws from `rng`: the holding time
/// `−ln(1 − u) / total`, then the walk's draw. A holding time that would
/// pass `stop.max_time` is not taken, and the run ends at `stop.max_time`.
/// The path holds the initial value, the value after every jump, and a
/// closing point at the final time.
pub fn run<J: Jumps, R: Rng + ?Sized>(
    jumps: &mut J,
    initial: J::State,
    mut value: f64,
    stop: StopRule,
    rng: &mut R,
) -> SimulatorRun<J::State> {
    let mut state = initial;
    let mut t = 0.0;
    let mut events: u64 = 0;
    let mut path = SamplePath::new(0.0, value);
    let stop_reason = loop {
        if t >= stop.max_time {
            break StopReason::TimeHorizon;
        }
        if events >= stop.max_events {
            break StopReason::EventBudget;
        }
        let total = jumps.sum_rates(&state);
        if total == 0.0 {
            break StopReason::Absorbed;
        }
        let dt = sample_exp(rng, total);
        if t + dt > stop.max_time {
            t = stop.max_time;
            break StopReason::TimeHorizon;
        }
        t += dt;
        #[expect(
            clippy::expect_used,
            reason = "total > 0 was checked above, so some rate is positive and the walk picks it"
        )]
        let picked =
            sample_weighted_index_of(rng, total, jumps.rates()).expect("total rate positive");
        value = jumps.apply(&mut state, picked);
        events += 1;
        path.record(t, value);
    };
    let final_time = t.min(stop.max_time);
    path.record(
        final_time.max(path.times().last().copied().unwrap_or(0.0)),
        value,
    );
    path.finish(final_time.max(path.end_time()));
    SimulatorRun {
        final_state: state,
        final_time,
        events,
        stop_reason,
        path,
    }
}

/// A boxed scalar observable of the state (see [`Simulator::observe`]).
type Observable<'a, S> = Box<dyn Fn(&S) -> f64 + 'a>;

/// An exact-jump simulator for any [`Ctmc`]: each step lists every
/// candidate jump with a cloned target state. The in-place chains are
/// tested against it.
///
/// By default the recorded scalar observable is `0.0`; supply one with
/// [`Simulator::observe`] (the P2P model records the total peer count).
pub struct Simulator<'a, M: Ctmc> {
    model: &'a M,
    observable: Observable<'a, M::State>,
}

impl<'a, M: Ctmc> Simulator<'a, M> {
    /// Creates a simulator for `model`.
    pub fn new(model: &'a M) -> Self {
        Simulator {
            model,
            observable: Box::new(|_| 0.0),
        }
    }

    /// Sets the scalar observable recorded into the run's sample path.
    #[must_use]
    pub fn observe(mut self, f: impl Fn(&M::State) -> f64 + 'a) -> Self {
        self.observable = Box::new(f);
        self
    }

    /// Runs the chain from `initial` until the stop rule triggers.
    pub fn run<R: Rng + ?Sized>(
        &self,
        initial: M::State,
        stop: StopRule,
        rng: &mut R,
    ) -> SimulatorRun<M::State> {
        let value = (self.observable)(&initial);
        let mut listed = Listed {
            simulator: self,
            jumps: Vec::new(),
        };
        run(&mut listed, initial, value, stop, rng)
    }
}

/// [`Simulator`]'s [`Jumps`]: the transitions out of the current state,
/// without self-loops and zero rates.
struct Listed<'s, 'a, M: Ctmc> {
    simulator: &'s Simulator<'a, M>,
    jumps: Vec<(M::State, f64)>,
}

impl<M: Ctmc> Jumps for Listed<'_, '_, M> {
    type State = M::State;

    fn sum_rates(&mut self, state: &M::State) -> f64 {
        self.jumps.clear();
        self.simulator.model.transitions(state, &mut self.jumps);
        self.jumps.retain(|(s, r)| *r > 0.0 && s != state);
        self.jumps.iter().map(|(_, r)| r).sum()
    }

    fn rates(&self) -> impl Iterator<Item = f64> {
        self.jumps.iter().map(|&(_, r)| r)
    }

    fn apply(&mut self, state: &mut M::State, index: usize) -> f64 {
        *state = self.jumps.swap_remove(index).0;
        (self.simulator.observable)(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// M/M/1 queue with arrival rate lambda and service rate mu.
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

    /// Pure death chain: from `n` one peer leaves at rate `n`; absorbs at 0.
    struct PureDeath;
    impl Ctmc for PureDeath {
        type State = u64;
        fn transitions(&self, s: &u64, out: &mut Vec<(u64, f64)>) {
            if *s > 0 {
                out.push((s - 1, *s as f64));
            }
        }
    }

    /// Pure birth chain with two jumps: from `n`, one arrival at rate
    /// `1 + n` and a pair at rate 0.5.
    struct PureBirth;
    impl Ctmc for PureBirth {
        type State = u64;
        fn transitions(&self, s: &u64, out: &mut Vec<(u64, f64)>) {
            out.push((s + 1, 1.0 + *s as f64));
            out.push((s + 2, 0.5));
        }
    }

    #[test]
    fn mm1_stationary_mean() {
        let model = Mm1 {
            lambda: 0.5,
            mu: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(42);
        let run = Simulator::new(&model).observe(|s| *s as f64).run(
            0,
            StopRule::at_time(50_000.0),
            &mut rng,
        );
        // E[N] = rho / (1 - rho) = 1
        let mean = run.path.time_average_over(5_000.0, run.final_time);
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert_eq!(run.stop_reason, StopReason::TimeHorizon);
    }

    #[test]
    fn unstable_mm1_grows_linearly() {
        let model = Mm1 {
            lambda: 2.0,
            mu: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let run = Simulator::new(&model).observe(|s| *s as f64).run(
            0,
            StopRule::at_time(2_000.0),
            &mut rng,
        );
        let trend = run.path.trend(0.5);
        // drift lambda - mu = 1 customer per unit time
        assert!((trend.slope - 1.0).abs() < 0.15, "slope {}", trend.slope);
    }

    /// `−ln(1 − u) / rate` from the stream's next uniform, as the loop's
    /// holding time must read it.
    fn holding_time(oracle: &mut StdRng, rate: f64) -> f64 {
        -(1.0 - oracle.gen::<f64>()).ln() / rate
    }

    /// One step of [`PureBirth`] worked out by hand: the holding time, and
    /// the state after it unless that time passes `horizon`.
    fn birth_by_hand(oracle: &mut StdRng, t: f64, n: u64, horizon: f64) -> Option<(f64, u64)> {
        let (single, total) = (1.0 + n as f64, 1.5 + n as f64);
        let t = t + holding_time(oracle, total);
        if t > horizon {
            return None;
        }
        let target = oracle.gen::<f64>() * total;
        Some((t, if target < single { n + 1 } else { n + 2 }))
    }

    /// Asserts that `run` is the path `points` (time, state) ending at
    /// `end` after `events` jumps for `reason`, and that it left `rng` where
    /// the hand computation left `oracle`.
    fn assert_run(
        run: &SimulatorRun<u64>,
        points: &[(f64, u64)],
        (end, events, reason): (f64, u64, StopReason),
        rng: &mut StdRng,
        oracle: &mut StdRng,
    ) {
        let times: Vec<u64> = points.iter().map(|(t, _)| t.to_bits()).collect();
        let values: Vec<u64> = points.iter().map(|&(_, n)| (n as f64).to_bits()).collect();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(run.path.times()), times);
        assert_eq!(bits(run.path.values()), values);
        assert_eq!(run.path.end_time().to_bits(), end.to_bits());
        assert_eq!(run.final_time.to_bits(), end.to_bits());
        assert_eq!(run.final_state, points[points.len() - 1].1);
        assert_eq!((run.events, run.stop_reason), (events, reason));
        assert_eq!(rng.next_u64(), oracle.next_u64(), "draws consumed");
    }

    #[test]
    fn horizon_stop_matches_a_hand_computed_path() {
        // The holding time that passes the horizon is drawn but not taken,
        // and its walk draw is never made; the path closes at the horizon.
        // Worked out by hand on a clone of the stream.
        let horizon = 1.5;
        let mut rng = StdRng::seed_from_u64(31);
        let mut oracle = rng.clone();
        let mut points = vec![(0.0, 0)];
        let (mut t, mut n) = (0.0, 0);
        while let Some(next) = birth_by_hand(&mut oracle, t, n, horizon) {
            (t, n) = next;
            points.push(next);
        }
        let jumps = points.len() as u64 - 1;
        assert!(jumps >= 3, "{jumps} jumps");
        points.push((horizon, n));
        let run = Simulator::new(&PureBirth).observe(|s| *s as f64).run(
            0,
            StopRule::at_time(horizon),
            &mut rng,
        );
        let end = (horizon, jumps, StopReason::TimeHorizon);
        assert_run(&run, &points, end, &mut rng, &mut oracle);
    }

    #[test]
    fn event_budget_respected() {
        // The budget binds: no draw after the last jump, and the path
        // closes at the last jump's time. Worked out by hand on a clone of
        // the stream.
        let budget = 12;
        let mut rng = StdRng::seed_from_u64(3);
        let mut oracle = rng.clone();
        let mut points = vec![(0.0, 0)];
        let (mut t, mut n) = (0.0, 0);
        for _ in 0..budget {
            (t, n) = birth_by_hand(&mut oracle, t, n, f64::INFINITY).expect("no horizon");
            points.push((t, n));
        }
        points.push((t, n));
        let run = Simulator::new(&PureBirth).observe(|s| *s as f64).run(
            0,
            StopRule::after_events(budget),
            &mut rng,
        );
        let end = (t, budget, StopReason::EventBudget);
        assert_run(&run, &points, end, &mut rng, &mut oracle);
    }

    #[test]
    fn absorption_detected() {
        // Each death takes both draws, though the walk has one jump to
        // pick; the absorbing state takes none, and the path closes at the
        // last jump's time. Worked out by hand on a clone of the stream.
        let mut rng = StdRng::seed_from_u64(2);
        let mut oracle = rng.clone();
        let mut points = vec![(0.0, 5)];
        let mut t = 0.0;
        for n in (1..=5u64).rev() {
            t += holding_time(&mut oracle, n as f64);
            let _walk = oracle.gen::<f64>();
            points.push((t, n - 1));
        }
        points.push((t, 0));
        let run = Simulator::new(&PureDeath).observe(|s| *s as f64).run(
            5,
            StopRule::at_time(1e9),
            &mut rng,
        );
        let end = (t, 5, StopReason::Absorbed);
        assert_run(&run, &points, end, &mut rng, &mut oracle);
    }
}
