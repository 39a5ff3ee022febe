//! Heuristic classification of finite simulated sample paths.
//!
//! A finite simulation cannot *prove* transience or positive recurrence; the
//! experiments instead classify a path as **growing** (consistent with the
//! transient regime of Theorem 1(a), where the population grows linearly at
//! rate ≈ `Δ_{F−{k}}`) or **stable** (consistent with positive recurrence:
//! bounded excursions, frequent returns to a low level). The classifier
//! combines a linear-trend estimate on the tail of the path with a
//! return-frequency statistic, and reports its confidence inputs so callers
//! can inspect borderline outcomes.

use crate::path::SamplePath;
use serde::{Deserialize, Serialize};

/// Classification outcome for a sample path of the population size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathClass {
    /// The population grows roughly linearly: consistent with transience.
    Growing,
    /// The population keeps returning to a low level: consistent with
    /// positive recurrence.
    Stable,
    /// Neither criterion triggered decisively.
    Indeterminate,
}

/// Detailed classification report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathVerdict {
    /// The headline classification.
    pub class: PathClass,
    /// Estimated tail growth rate (peers per unit time).
    pub tail_slope: f64,
    /// R² of the tail linear fit.
    pub r_squared: f64,
    /// Fraction of time spent at or below the return level.
    pub fraction_low: f64,
    /// Number of upcrossings of the return level.
    pub upcrossings: usize,
    /// Time-average of the observable over the tail window.
    pub tail_average: f64,
    /// Ratio of the tail average to the average over the second quarter of
    /// the window; a value near one indicates a plateau (no sustained
    /// growth), while linear growth from a small start gives roughly 2–3.
    pub growth_ratio: f64,
}

/// Configuration of the [`PathClassifier`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathClassifier {
    /// Fraction of the horizon (from the end) used for the trend fit.
    pub tail_fraction: f64,
    /// Slope above which (relative to `slope_scale`) a path is called growing.
    pub growth_slope_threshold: f64,
    /// Natural scale of slopes for the problem (e.g. the theoretical one-club
    /// growth rate, or the total arrival rate). The threshold is
    /// `growth_slope_threshold * slope_scale`.
    pub slope_scale: f64,
    /// Population level counted as "low" for return statistics.
    pub return_level: f64,
    /// Minimum fraction of time at/below `return_level` for a stable verdict.
    pub min_fraction_low: f64,
}

impl Default for PathClassifier {
    fn default() -> Self {
        PathClassifier {
            tail_fraction: 0.5,
            growth_slope_threshold: 0.2,
            slope_scale: 1.0,
            return_level: 30.0,
            min_fraction_low: 0.05,
        }
    }
}

impl PathClassifier {
    /// Creates a classifier with the problem's natural slope scale (e.g. the
    /// total arrival rate `λ_total`) and return level.
    #[must_use]
    pub fn new(slope_scale: f64, return_level: f64) -> Self {
        PathClassifier {
            slope_scale: slope_scale.max(1e-9),
            return_level,
            ..Default::default()
        }
    }

    /// Classifies a sample path of the population size.
    #[must_use]
    pub fn classify(&self, path: &SamplePath) -> PathVerdict {
        let trend = path.trend(self.tail_fraction);
        let t0 = path.times()[0];
        let t1 = path.end_time();
        let span = t1 - t0;
        let tail_from = t1 - span * self.tail_fraction;
        let tail_average = path.time_average_over(tail_from, t1);
        let fraction_low = path.fraction_at_or_below(self.return_level);
        let upcrossings = path.upcrossings_of(self.return_level);
        // Plateau detection: compare the tail average against the average
        // over the second quarter of the window. A positive-recurrent system
        // settles onto a plateau (ratio ≈ 1) even when its stationary
        // population is far above `return_level`; a transient system keeps
        // climbing (ratio ≈ 2–3 for linear growth from a small start).
        let early_average = path.time_average_over(t0 + 0.25 * span, t0 + 0.5 * span);
        let growth_ratio = if early_average > 1e-9 {
            tail_average / early_average
        } else {
            f64::INFINITY
        };

        let slope_threshold = self.growth_slope_threshold * self.slope_scale;
        let growing = trend.slope > slope_threshold && trend.r_squared > 0.5;
        // A path that keeps visiting the low region, whose tail average is
        // itself low, or that has plateaued, is called stable.
        let stable = !growing
            && trend.slope <= slope_threshold
            && (fraction_low >= self.min_fraction_low
                || tail_average <= self.return_level
                || growth_ratio <= 1.35);

        let class = if growing {
            PathClass::Growing
        } else if stable {
            PathClass::Stable
        } else {
            PathClass::Indeterminate
        };
        PathVerdict {
            class,
            tail_slope: trend.slope,
            r_squared: trend.r_squared,
            fraction_low,
            upcrossings,
            tail_average,
            growth_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_path(slope: f64, horizon: f64) -> SamplePath {
        let mut p = SamplePath::new(0.0, 0.0);
        let steps = 200;
        for i in 1..=steps {
            let t = horizon * i as f64 / steps as f64;
            p.record(t, slope * t);
        }
        p.finish(horizon);
        p
    }

    fn bounded_noisy_path(level: f64, horizon: f64) -> SamplePath {
        let mut p = SamplePath::new(0.0, 0.0);
        let steps = 400;
        for i in 1..=steps {
            let t = horizon * i as f64 / steps as f64;
            // oscillates between 0 and level
            let v = if i % 2 == 0 { 0.0 } else { level };
            p.record(t, v);
        }
        p.finish(horizon);
        p
    }

    #[test]
    fn growing_path_is_classified_growing() {
        let classifier = PathClassifier::new(1.0, 30.0);
        let verdict = classifier.classify(&linear_path(0.8, 1_000.0));
        assert_eq!(verdict.class, PathClass::Growing);
        assert!(verdict.tail_slope > 0.5);
    }

    #[test]
    fn bounded_path_is_classified_stable() {
        let classifier = PathClassifier::new(1.0, 30.0);
        let verdict = classifier.classify(&bounded_noisy_path(20.0, 1_000.0));
        assert_eq!(verdict.class, PathClass::Stable);
        assert!(verdict.fraction_low > 0.3);
    }

    #[test]
    fn plateau_above_return_level_is_stable() {
        // Constant population of 100 with return level 30: never visits the
        // low region, but the plateau (growth ratio ≈ 1) marks it stable.
        let classifier = PathClassifier::new(1.0, 30.0);
        let mut p = SamplePath::new(0.0, 100.0);
        p.record(500.0, 100.0);
        p.finish(1_000.0);
        let verdict = classifier.classify(&p);
        assert_eq!(verdict.class, PathClass::Stable);
        assert!((verdict.growth_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_growth_without_good_fit_is_not_stable() {
        // A path that doubles from the second quarter to the tail should not
        // be called stable even if the linear fit is poor.
        let classifier = PathClassifier::new(1000.0, 30.0);
        let mut p = SamplePath::new(0.0, 0.0);
        for i in 1..=100 {
            let t = 10.0 * i as f64;
            let v = 2.0 * t + if i % 2 == 0 { 300.0 } else { 0.0 };
            p.record(t, v);
        }
        p.finish(1_000.0);
        let verdict = classifier.classify(&p);
        assert_ne!(verdict.class, PathClass::Stable);
        assert!(verdict.growth_ratio > 1.35);
    }

    #[test]
    fn slope_scale_changes_the_verdict() {
        // slope 0.8 is large relative to scale 1 but small relative to 100.
        let strict = PathClassifier::new(1.0, 30.0);
        let lax = PathClassifier::new(100.0, 30.0);
        let path = linear_path(0.8, 1_000.0);
        assert_eq!(strict.classify(&path).class, PathClass::Growing);
        assert_ne!(lax.classify(&path).class, PathClass::Growing);
    }

    #[test]
    fn verdict_reports_upcrossings() {
        let classifier = PathClassifier::new(1.0, 10.0);
        let verdict = classifier.classify(&bounded_noisy_path(20.0, 100.0));
        assert!(verdict.upcrossings > 50);
    }
}
