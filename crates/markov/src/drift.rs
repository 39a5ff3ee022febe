//! Numeric Foster–Lyapunov drift evaluation.
//!
//! For a CTMC with generator `Q` and a function `V` on the state space, the
//! drift at `x` is `QV(x) = Σ_{x' ≠ x} q(x, x′) (V(x′) − V(x))` (eq. (10) of
//! the paper). The Foster–Lyapunov criterion (Proposition 18 / Lemma 7)
//! establishes positive recurrence when `QV ≤ −f + g` with suitable `f, g`;
//! this module evaluates drifts numerically so experiments can *check* the
//! paper's Lyapunov argument on sampled states.

use crate::Ctmc;

/// Computes the drift `QV(x)` of a scalar function `V` at state `x`.
///
/// Self-loops (`x' == x`) contribute nothing and are skipped.
pub fn drift<M, V>(model: &M, state: &M::State, v: V) -> f64
where
    M: Ctmc,
    V: Fn(&M::State) -> f64,
{
    let mut buf = Vec::new();
    model.transitions(state, &mut buf);
    let v_here = v(state);
    buf.iter()
        .filter(|(target, rate)| *rate > 0.0 && target != state)
        .map(|(target, rate)| rate * (v(target) - v_here))
        .sum()
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
    fn linear_lyapunov_drift_of_mm1() {
        let model = Mm1 {
            lambda: 0.4,
            mu: 1.0,
        };
        // V(n) = n: drift is lambda - mu for n >= 1, lambda at 0.
        let d0 = drift(&model, &0, |s| *s as f64);
        let d5 = drift(&model, &5, |s| *s as f64);
        assert!((d0 - 0.4).abs() < 1e-12);
        assert!((d5 - (0.4 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn quadratic_lyapunov_drift_of_mm1() {
        let model = Mm1 {
            lambda: 0.4,
            mu: 1.0,
        };
        // V(n) = n^2: QV(n) = lambda((n+1)^2 - n^2) + mu((n-1)^2 - n^2)
        //            = lambda(2n+1) + mu(1-2n) for n >= 1.
        let n = 7u64;
        let expected = 0.4 * (2.0 * n as f64 + 1.0) + 1.0 * (1.0 - 2.0 * n as f64);
        let d = drift(&model, &n, |s| (*s as f64).powi(2));
        assert!((d - expected).abs() < 1e-12);
    }
}
