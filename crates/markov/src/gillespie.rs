//! Exact-jump (Gillespie) simulation of a [`Ctmc`].

use crate::poisson::{sample_exp, sample_weighted_index_by};
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
    /// An observer requested an early stop.
    ObserverRequest,
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
    /// Sample path of the default scalar observable (see [`Simulator::observe`]).
    pub path: crate::path::ScalarPath,
}

/// A boxed scalar observable of the state (see [`Simulator::observe`]).
type Observable<'a, S> = Box<dyn Fn(&S) -> f64 + 'a>;

/// An exact-jump simulator for a [`Ctmc`].
///
/// By default the recorded scalar observable is `0.0`; supply one with
/// [`Simulator::observe`] (the P2P model records the total peer count).
pub struct Simulator<'a, M: Ctmc> {
    model: &'a M,
    observable: Observable<'a, M::State>,
    record_every: u64,
}

impl<'a, M: Ctmc> Simulator<'a, M> {
    /// Creates a simulator for `model`.
    pub fn new(model: &'a M) -> Self {
        Simulator {
            model,
            observable: Box::new(|_| 0.0),
            record_every: 1,
        }
    }

    /// Sets the scalar observable recorded into the run's sample path.
    #[must_use]
    pub fn observe(mut self, f: impl Fn(&M::State) -> f64 + 'a) -> Self {
        self.observable = Box::new(f);
        self
    }

    /// Records the observable only every `n` jumps (plus the initial and
    /// final points). Reduces memory for long runs.
    #[must_use]
    pub fn record_every(mut self, n: u64) -> Self {
        self.record_every = n.max(1);
        self
    }

    /// Runs the chain from `initial` until the stop rule triggers.
    pub fn run<R: Rng + ?Sized>(
        &self,
        initial: M::State,
        stop: StopRule,
        rng: &mut R,
    ) -> SimulatorRun<M::State> {
        self.run_with_observer(initial, stop, rng, |_, _| ObserverAction::Continue)
    }

    /// Runs the chain, invoking `observer(time, state)` after every jump.
    ///
    /// The observer can request an early stop by returning
    /// [`ObserverAction::Stop`].
    pub fn run_with_observer<R, F>(
        &self,
        initial: M::State,
        stop: StopRule,
        rng: &mut R,
        mut observer: F,
    ) -> SimulatorRun<M::State>
    where
        R: Rng + ?Sized,
        F: FnMut(f64, &M::State) -> ObserverAction,
    {
        let mut state = initial;
        let mut t = 0.0;
        let mut events: u64 = 0;
        let mut path = crate::path::ScalarPath::new(0.0, (self.observable)(&state));
        let mut buf: Vec<(M::State, f64)> = Vec::new();
        let stop_reason;

        loop {
            if t >= stop.max_time {
                stop_reason = StopReason::TimeHorizon;
                break;
            }
            if events >= stop.max_events {
                stop_reason = StopReason::EventBudget;
                break;
            }
            buf.clear();
            self.model.transitions(&state, &mut buf);
            buf.retain(|(s, r)| *r > 0.0 && *s != state);
            if buf.is_empty() {
                stop_reason = StopReason::Absorbed;
                break;
            }
            let total: f64 = buf.iter().map(|(_, r)| r).sum();
            let dt = sample_exp(rng, total);
            if t + dt > stop.max_time {
                t = stop.max_time;
                stop_reason = StopReason::TimeHorizon;
                break;
            }
            t += dt;
            let idx = sample_weighted_index_by(rng, total, &buf, |(_, r)| *r)
                .expect("total rate positive");
            state = buf.swap_remove(idx).0;
            events += 1;
            if events.is_multiple_of(self.record_every) {
                path.record(t, (self.observable)(&state));
            }
            if let ObserverAction::Stop = observer(t, &state) {
                stop_reason = StopReason::ObserverRequest;
                break;
            }
        }

        let final_time = t.min(stop.max_time);
        path.record(
            final_time.max(path.times().last().copied().unwrap_or(0.0)),
            (self.observable)(&state),
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
}

/// Observer decision after each jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserverAction {
    /// Keep simulating.
    Continue,
    /// Terminate the run now.
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    /// Pure death chain: absorbs at 0.
    struct PureDeath;
    impl Ctmc for PureDeath {
        type State = u64;
        fn transitions(&self, s: &u64, out: &mut Vec<(u64, f64)>) {
            if *s > 0 {
                out.push((s - 1, 1.0));
            }
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

    #[test]
    fn absorption_detected() {
        let mut rng = StdRng::seed_from_u64(2);
        let run = Simulator::new(&PureDeath).observe(|s| *s as f64).run(
            5,
            StopRule::at_time(1e9),
            &mut rng,
        );
        assert_eq!(run.final_state, 0);
        assert_eq!(run.stop_reason, StopReason::Absorbed);
        assert_eq!(run.events, 5);
    }

    #[test]
    fn event_budget_respected() {
        let model = Mm1 {
            lambda: 1.0,
            mu: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let run = Simulator::new(&model).run(0, StopRule::after_events(100), &mut rng);
        assert_eq!(run.events, 100);
        assert_eq!(run.stop_reason, StopReason::EventBudget);
    }

    #[test]
    fn observer_can_stop_early() {
        let model = Mm1 {
            lambda: 5.0,
            mu: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let run = Simulator::new(&model)
            .observe(|s| *s as f64)
            .run_with_observer(0, StopRule::at_time(1e6), &mut rng, |_, s| {
                if *s >= 50 {
                    ObserverAction::Stop
                } else {
                    ObserverAction::Continue
                }
            });
        assert_eq!(run.final_state, 50);
        assert_eq!(run.stop_reason, StopReason::ObserverRequest);
    }

    #[test]
    fn record_every_thins_the_path() {
        let model = Mm1 {
            lambda: 1.0,
            mu: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let run_full = Simulator::new(&model).observe(|s| *s as f64).run(
            0,
            StopRule::after_events(1000),
            &mut rng,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let run_thin = Simulator::new(&model)
            .observe(|s| *s as f64)
            .record_every(10)
            .run(0, StopRule::after_events(1000), &mut rng);
        assert!(run_thin.path.len() < run_full.path.len());
        assert_eq!(run_thin.final_state, run_full.final_state);
    }

    #[test]
    fn total_rate_default_impl() {
        let model = Mm1 {
            lambda: 0.3,
            mu: 0.7,
        };
        assert!((model.total_rate(&0) - 0.3).abs() < 1e-12);
        assert!((model.total_rate(&5) - 1.0).abs() < 1e-12);
        // also via the blanket &M impl
        let by_ref: &Mm1 = &model;
        assert!((Ctmc::total_rate(&by_ref, &5) - 1.0).abs() < 1e-12);
    }
}
