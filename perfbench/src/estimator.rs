//! The timing estimator: best-of-R per unit, tail-guarded percentiles and
//! replay-identity checking.
//!
//! Every unit of work the benchmark times (one scenario tick, one kernel
//! `step`, one characterization cell) is bit-for-bit deterministic, so R
//! replays of a unit do identical work and differ only in how much the
//! shared machine slowed them down. The fastest replay is the estimate of
//! the unit's cost; workload metrics are computed from those minima.

use std::fmt;

/// Fewest samples a percentile must leave above itself before it is
/// reported: a p99 over fewer than 1000 samples would rest on a handful of
/// outliers.
pub const MIN_TAIL: usize = 10;

/// Why an estimate could not be formed.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorError {
    /// A replay produced a different number of units than round 1, so
    /// per-unit minima cannot be aligned.
    Misaligned {
        /// Units in the first round.
        expected: usize,
        /// Units in the offending round.
        got: usize,
    },
    /// Too few samples lie beyond the requested percentile.
    ThinTail {
        /// Requested quantile in (0, 1).
        q: f64,
        /// Samples available.
        samples: usize,
        /// Samples strictly beyond the percentile's rank.
        beyond: usize,
    },
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorError::Misaligned { expected, got } => {
                write!(f, "replay has {got} units, round 1 had {expected}")
            }
            EstimatorError::ThinTail { q, samples, beyond } => write!(
                f,
                "p{} over {samples} samples leaves {beyond} beyond it (need {MIN_TAIL})",
                q * 100.0
            ),
        }
    }
}

impl std::error::Error for EstimatorError {}

/// Per-unit minimum over replays, aligned by unit index.
#[derive(Debug, Clone, Default)]
pub struct BestOf {
    best: Vec<f64>,
    rounds: usize,
}

impl BestOf {
    /// An estimator that has seen no replay yet.
    pub fn new() -> Self {
        BestOf::default()
    }

    /// Folds one replay's per-unit times, listed in unit order (not in
    /// the order the round happened to run them).
    ///
    /// # Errors
    ///
    /// [`EstimatorError::Misaligned`] when the replay's unit count differs
    /// from round 1's; the estimator is left unchanged.
    pub fn add_round(&mut self, times: &[f64]) -> Result<(), EstimatorError> {
        if self.rounds == 0 {
            self.best = times.to_vec();
        } else if times.len() != self.best.len() {
            return Err(EstimatorError::Misaligned {
                expected: self.best.len(),
                got: times.len(),
            });
        } else {
            for (best, &t) in self.best.iter_mut().zip(times) {
                *best = best.min(t);
            }
        }
        self.rounds += 1;
        Ok(())
    }

    /// The per-unit minima, in unit order.
    pub fn minima(&self) -> &[f64] {
        &self.best
    }

    /// Sum of the per-unit minima.
    pub fn sum(&self) -> f64 {
        self.best.iter().sum()
    }
}

/// A reported percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The nearest-rank value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above it.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` of `values`, refused unless at least
/// [`MIN_TAIL`] samples rank above it.
///
/// # Errors
///
/// [`EstimatorError::ThinTail`] when the tail is too thin.
pub fn percentile(values: &[f64], q: f64) -> Result<Percentile, EstimatorError> {
    let samples = values.len();
    let rank = ((q * samples as f64).ceil() as usize).clamp(1, samples.max(1));
    let beyond = samples.saturating_sub(rank);
    if samples == 0 || beyond < MIN_TAIL {
        return Err(EstimatorError::ThinTail { q, samples, beyond });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples,
        beyond,
    })
}

/// Checks that every replay of a unit reproduces round 1's output
/// fingerprint byte for byte.
#[derive(Debug, Clone)]
pub struct ReplayCheck {
    reference: Vec<Option<String>>,
    mismatched: Vec<bool>,
}

impl ReplayCheck {
    /// A check over `units` units, none observed yet.
    pub fn new(units: usize) -> Self {
        ReplayCheck {
            reference: vec![None; units],
            mismatched: vec![false; units],
        }
    }

    /// Records unit `unit`'s fingerprint for the current replay. The first
    /// observation becomes the reference; returns `false` when a later one
    /// differs from it.
    pub fn observe(&mut self, unit: usize, fingerprint: String) -> bool {
        match &self.reference[unit] {
            None => {
                self.reference[unit] = Some(fingerprint);
                true
            }
            Some(reference) if *reference == fingerprint => true,
            Some(_) => {
                self.mismatched[unit] = true;
                false
            }
        }
    }

    /// Marks `unit` as failed for a reason other than a fingerprint
    /// difference (e.g. its replays could not be aligned).
    pub fn mark_mismatch(&mut self, unit: usize) {
        self.mismatched[unit] = true;
    }

    /// Units that diverged in at least one replay.
    pub fn mismatched_units(&self) -> usize {
        self.mismatched.iter().filter(|&&m| m).count()
    }

    /// Round-1 fingerprint of `unit`, once observed.
    pub fn reference(&self, unit: usize) -> Option<&str> {
        self.reference[unit].as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_keeps_the_minimum_of_each_unit_by_index() {
        let mut best = BestOf::new();
        best.add_round(&[3.0, 1.0, 5.0]).unwrap();
        best.add_round(&[2.0, 4.0, 5.5]).unwrap();
        best.add_round(&[2.5, 0.5, 4.0]).unwrap();
        assert_eq!(best.minima(), &[2.0, 0.5, 4.0]);
        assert_eq!(best.sum(), 6.5);
    }

    #[test]
    fn best_of_is_not_the_minimum_round_total() {
        // Round totals are 6 and 6; the per-unit minima add to 2.
        let mut best = BestOf::new();
        best.add_round(&[1.0, 5.0]).unwrap();
        best.add_round(&[5.0, 1.0]).unwrap();
        assert_eq!(best.sum(), 2.0);
    }

    #[test]
    fn best_of_refuses_a_replay_of_another_length() {
        let mut best = BestOf::new();
        best.add_round(&[1.0, 2.0]).unwrap();
        let err = best.add_round(&[1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(
            err,
            EstimatorError::Misaligned {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(best.minima(), &[1.0, 2.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&values, 0.5).unwrap();
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.samples, 100);
        assert_eq!(p50.beyond, 50);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..999).map(f64::from).collect();
        let err = percentile(&values, 0.99).unwrap_err();
        assert!(matches!(
            err,
            EstimatorError::ThinTail {
                samples: 999,
                beyond: 9,
                ..
            }
        ));
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        let p99 = percentile(&values, 0.99).unwrap();
        assert_eq!(p99.beyond, 10);
        assert_eq!(p99.value, 989.0);
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn replay_check_flags_a_unit_that_diverges_from_round_one() {
        let mut check = ReplayCheck::new(2);
        assert!(check.observe(0, "a".into()));
        assert!(check.observe(1, "b".into()));
        assert!(check.observe(0, "a".into()));
        assert!(!check.observe(1, "b'".into()));
        // A later return to the reference does not clear the flag.
        assert!(check.observe(1, "b".into()));
        assert_eq!(check.mismatched_units(), 1);
        assert_eq!(check.reference(1), Some("b"));
    }
}
