//! Excursion statistics of a recorded sample path: the stretches between
//! the times a scalar observable leaves a level and hits it again.
//!
//! The borderline analysis of Section VIII-D distinguishes null recurrence
//! (returns are certain but their mean time is infinite) from positive
//! recurrence. Finite simulations cannot prove either, but the lengths of
//! the excursions are the right diagnostic: positive-recurrent chains
//! produce excursions whose empirical mean settles as the horizon grows,
//! null-recurrent chains produce a mean dominated by a few enormous
//! excursions.

use serde::{Deserialize, Serialize};

/// Summary of the excursions of a scalar observable above a level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExcursionStats {
    /// Number of completed excursions (level upcrossing → next return).
    pub completed: usize,
    /// Mean length of completed excursions.
    pub mean_length: f64,
    /// Maximum completed excursion length.
    pub max_length: f64,
    /// Median completed excursion length.
    pub median_length: f64,
    /// Length of the excursion in progress at the end of the observation
    /// window, if the path ended above the level.
    pub open_excursion: Option<f64>,
    /// Fraction of the total observation time spent above the level.
    pub fraction_above: f64,
}

impl ExcursionStats {
    /// The ratio of the maximum to the median excursion length — a crude
    /// heavy-tail indicator (null-recurrent chains produce very large values
    /// as the horizon grows; positive-recurrent chains keep it moderate).
    #[must_use]
    pub fn max_to_median(&self) -> f64 {
        if self.median_length > 0.0 {
            self.max_length / self.median_length
        } else {
            f64::INFINITY
        }
    }
}

/// Computes excursion statistics of a recorded sample path above `level`.
#[must_use]
pub fn excursions_above(path: &crate::path::SamplePath, level: f64) -> ExcursionStats {
    let times = path.times();
    let values = path.values();
    let mut lengths = Vec::new();
    let mut start: Option<f64> = if values[0] > level {
        Some(times[0])
    } else {
        None
    };
    for i in 1..times.len() {
        let above = values[i] > level;
        match (start, above) {
            (None, true) => start = Some(times[i]),
            (Some(s), false) => {
                lengths.push(times[i] - s);
                start = None;
            }
            _ => {}
        }
    }
    let open_excursion = start.map(|s| path.end_time() - s);
    let completed = lengths.len();
    let mean_length = if completed == 0 {
        0.0
    } else {
        lengths.iter().sum::<f64>() / completed as f64
    };
    let max_length = lengths.iter().copied().fold(0.0_f64, f64::max);
    let median_length = if completed == 0 {
        0.0
    } else {
        let mut sorted = lengths.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[completed / 2]
    };
    ExcursionStats {
        completed,
        mean_length,
        max_length,
        median_length,
        open_excursion,
        fraction_above: 1.0 - path.fraction_at_or_below(level),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::SamplePath;

    #[test]
    fn excursion_statistics_of_a_hand_built_path() {
        let mut p = SamplePath::new(0.0, 0.0);
        p.record(1.0, 5.0); // excursion 1 starts
        p.record(3.0, 0.0); // ends: length 2
        p.record(4.0, 7.0); // excursion 2 starts
        p.record(8.0, 0.0); // ends: length 4
        p.record(9.0, 9.0); // open excursion
        p.finish(10.0);
        let stats = excursions_above(&p, 2.0);
        assert_eq!(stats.completed, 2);
        assert!((stats.mean_length - 3.0).abs() < 1e-12);
        assert_eq!(stats.max_length, 4.0);
        assert_eq!(stats.median_length, 4.0);
        assert_eq!(stats.open_excursion, Some(1.0));
        assert!((stats.fraction_above - 0.7).abs() < 1e-12);
        assert!((stats.max_to_median() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn excursions_with_no_crossings() {
        let mut p = SamplePath::new(0.0, 0.0);
        p.record(5.0, 1.0);
        p.finish(10.0);
        let stats = excursions_above(&p, 2.0);
        assert_eq!(stats.completed, 0);
        assert_eq!(stats.open_excursion, None);
        assert_eq!(stats.mean_length, 0.0);
        assert_eq!(stats.max_to_median(), f64::INFINITY);
    }
}
