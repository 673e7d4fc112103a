//! Replays and their outcomes, shared by every workload, and the
//! round-robin replay rounds of the timed runs.
//!
//! A timed workload is a fixed list of units (missions). One round
//! replays every unit once, in an
//! order shuffled from the seed and the round number; rounds repeat until
//! the time budget is spent, so each unit's replays are spread across the
//! whole run instead of bunched together.

use std::time::{Duration, Instant};

use crate::estimator::{BestOf, ReplayCheck};

/// Fewest rounds a run makes: best-of-R and the replay-identity check
/// both need at least two replays of every unit.
const MIN_ROUNDS: usize = 3;
/// Most rounds a run makes, however fast the machine is.
pub const MAX_ROUNDS: usize = 64;

/// How a unit's replay ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Ran to completion (a mission that reached its goal).
    Done,
    /// A mission the planner refused (`Unreachable` or
    /// `BlockedEndpoint`); its set-up still counts.
    Refused,
    /// A mission that ended without reaching the goal.
    GoalMissed,
    /// The last mission of a stream, stopped by the workload's tick
    /// budget before it could finish.
    Cut,
    /// The program returned an error.
    Error(String),
}

/// Timings and output of one replay of one unit.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Seconds spent setting the unit up (outside the ROI).
    pub setup: f64,
    /// Seconds of each step (tick) inside the ROI, in step order.
    pub steps: Vec<f64>,
    /// ROI seconds after the last step (e.g. flushing a trace buffer).
    pub tail: f64,
    /// Byte-stable output that every replay must reproduce.
    pub fingerprint: String,
    /// How the replay ended.
    pub outcome: Outcome,
}

impl Replay {
    /// ROI seconds of the whole unit.
    pub fn roi(&self) -> f64 {
        self.steps.iter().sum::<f64>() + self.tail
    }
}

/// Best-of-R state for every unit of a workload.
#[derive(Debug)]
pub struct Measurement {
    setup: Vec<BestOf>,
    steps: Vec<BestOf>,
    outcomes: Vec<Option<Outcome>>,
    check: ReplayCheck,
    rounds: usize,
}

impl Measurement {
    /// An empty measurement over `units` units.
    pub fn new(units: usize) -> Self {
        Measurement {
            setup: vec![BestOf::new(); units],
            steps: vec![BestOf::new(); units],
            outcomes: vec![None; units],
            check: ReplayCheck::new(units),
            rounds: 0,
        }
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.setup.len()
    }

    /// Folds one replay of `unit`. A replay whose output or step count
    /// differs from round 1 marks the unit as mismatched.
    pub fn record(&mut self, unit: usize, replay: Replay) {
        if !self.check.observe(unit, replay.fingerprint.clone()) {
            return;
        }
        let aligned = self.steps[unit].add_round(&replay.steps);
        if aligned.is_err() {
            self.check.mark_mismatch(unit);
            return;
        }
        self.setup[unit]
            .add_round(&[replay.setup])
            .expect("one set-up time per unit");
        if self.outcomes[unit].is_none() {
            self.outcomes[unit] = Some(replay.outcome);
        }
    }

    /// Replays every unit once per round, in a seed-shuffled order, until
    /// `budget` (counted from `started`) would be overrun by another
    /// round of the same length. Rounds already made (see
    /// [`Measurement::first_round_done`]) count toward the total.
    pub fn run_rounds(
        &mut self,
        started: Instant,
        budget: Duration,
        seed: u64,
        mut replay: impl FnMut(usize) -> Replay,
    ) {
        loop {
            let round_start = Instant::now();
            for unit in shuffled(self.len(), seed, self.rounds as u64) {
                self.record(unit, replay(unit));
            }
            self.rounds += 1;
            let projected = started.elapsed() + round_start.elapsed();
            if self.rounds >= MAX_ROUNDS || (self.rounds >= MIN_ROUNDS && projected > budget) {
                break;
            }
        }
    }

    /// Marks round 1 as done (it was driven outside [`run_rounds`]
    /// because it also discovers the unit list).
    pub fn first_round_done(&mut self) {
        self.rounds = 1;
    }

    /// Rounds made.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Sum of the per-unit best set-up times.
    pub fn setup_s(&self) -> f64 {
        self.setup.iter().map(BestOf::sum).sum()
    }

    /// Sum of the per-step best times over every unit.
    pub fn step_roi_s(&self) -> f64 {
        self.steps.iter().map(BestOf::sum).sum()
    }

    /// The per-step best times of every unit, in unit then step order.
    pub fn step_minima(&self) -> Vec<f64> {
        self.steps
            .iter()
            .flat_map(|b| b.minima().iter().copied())
            .collect()
    }

    /// Round-1 outcome of each unit.
    pub fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().flatten()
    }

    /// Units whose replays diverged from round 1.
    pub fn mismatched_units(&self) -> usize {
        self.check.mismatched_units()
    }

    /// Round-1 fingerprint of `unit`.
    pub fn fingerprint(&self, unit: usize) -> Option<&str> {
        self.check.reference(unit)
    }
}

/// A permutation of `0..n` drawn from `(seed, round)`.
pub fn shuffled(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One step of the SplitMix64 generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(steps: &[f64], fingerprint: &str) -> Replay {
        Replay {
            setup: 1.0,
            steps: steps.to_vec(),
            tail: 0.0,
            fingerprint: fingerprint.into(),
            outcome: Outcome::Done,
        }
    }

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let a = shuffled(16, 3, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(a, shuffled(16, 3, 1));
        assert_ne!(a, shuffled(16, 3, 2));
    }

    #[test]
    fn a_replay_with_other_output_is_a_mismatch_and_not_timed() {
        let mut m = Measurement::new(2);
        m.record(0, replay(&[2.0, 2.0], "x"));
        m.record(1, replay(&[5.0], "y"));
        m.record(0, replay(&[1.0, 1.0], "x"));
        m.record(1, replay(&[0.1], "y changed"));
        assert_eq!(m.mismatched_units(), 1);
        assert_eq!(m.step_minima(), vec![1.0, 1.0, 5.0]);
    }

    #[test]
    fn a_replay_with_another_step_count_is_a_mismatch() {
        let mut m = Measurement::new(1);
        m.record(0, replay(&[2.0, 2.0], "x"));
        m.record(0, replay(&[2.0], "x"));
        assert_eq!(m.mismatched_units(), 1);
    }
}
