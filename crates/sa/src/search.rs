//! The stop rule and candidate stream every optimiser shares.
//!
//! A run's budget is part of how methods are compared, so it is written
//! once: [`SearchRun`] holds the evaluation cap and the wall-clock limit,
//! numbers the candidates, keeps the best reward so far and makes the
//! [`OnCandidate`] call. The annealer here, and the gradient descent, PPO
//! training and pretrained inference in `rlplanner`, take the run they are
//! given, ask it whether to stop and tell it what they evaluated; none
//! keeps its own counter, clock or budget. `rlplanner`'s solve pipeline
//! builds each solve's one run from the request's budget.

use rlp_obs::OnCandidate;
use std::time::{Duration, Instant};

/// One run's stop rule and candidate stream; see the [module docs](self).
///
/// The clock starts when the run is created.
pub struct SearchRun<'a> {
    started: Instant,
    evaluation_cap: Option<usize>,
    time_limit: Option<Duration>,
    evaluations: usize,
    best_reward: Option<f64>,
    on_candidate: &'a mut OnCandidate<'a>,
}

impl<'a> SearchRun<'a> {
    /// Starts a run that may evaluate at most `evaluation_cap` candidates
    /// and spend at most `time_limit` of wall-clock (each `None` is
    /// unlimited), reporting every candidate to `on_candidate`.
    pub fn new(
        evaluation_cap: Option<usize>,
        time_limit: Option<Duration>,
        on_candidate: &'a mut OnCandidate<'a>,
    ) -> Self {
        Self {
            started: Instant::now(),
            evaluation_cap,
            time_limit,
            evaluations: 0,
            best_reward: None,
            on_candidate,
        }
    }

    /// Whether the run must stop: the evaluation cap is reached or the time
    /// limit has passed. The clock is read only when a limit is set.
    pub fn exhausted(&self) -> bool {
        self.evaluation_cap
            .is_some_and(|cap| self.evaluations >= cap)
            || self
                .time_limit
                .is_some_and(|limit| self.started.elapsed() > limit)
    }

    /// `n`, or the evaluations the cap still allows when that is fewer.
    pub fn capped(&self, n: usize) -> usize {
        self.evaluation_cap
            .map_or(n, |cap| n.min(cap.saturating_sub(self.evaluations)))
    }

    /// Records one evaluated candidate: gives it the next dense index,
    /// folds its reward into the best so far and calls `on_candidate`.
    /// Returns whether it is the new best — the first candidate always is,
    /// a later one only when its reward is strictly greater.
    pub fn record(&mut self, reward: f64) -> bool {
        let improved = self.best_reward.is_none_or(|best| reward > best);
        if improved {
            self.best_reward = Some(reward);
        }
        let index = self.evaluations;
        self.evaluations += 1;
        (self.on_candidate)(index, reward, self.best_reward.unwrap_or(reward));
        improved
    }

    /// Candidates recorded so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// The best reward recorded so far; `None` before the first candidate.
    pub fn best_reward(&self) -> Option<f64> {
        self.best_reward
    }

    /// Wall-clock time since the run started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_the_best_is_the_running_maximum() {
        let mut seen = Vec::new();
        let mut on_candidate = |index, reward, best| seen.push((index, reward, best));
        let mut run = SearchRun::new(None, None, &mut on_candidate);
        let news: Vec<bool> = [-3.0, -4.0, -1.0, -1.0, -2.0]
            .into_iter()
            .map(|reward| run.record(reward))
            .collect();
        assert_eq!(news, [true, false, true, false, false]);
        assert_eq!(run.evaluations(), 5);
        assert_eq!(run.best_reward(), Some(-1.0));
        assert!(!run.exhausted());
        assert_eq!(
            seen,
            [
                (0, -3.0, -3.0),
                (1, -4.0, -3.0),
                (2, -1.0, -1.0),
                (3, -1.0, -1.0),
                (4, -2.0, -1.0),
            ]
        );
    }

    #[test]
    fn the_first_candidate_is_the_best_even_when_it_is_not_a_number() {
        let mut silent = |_, _, _| {};
        let mut run = SearchRun::new(None, None, &mut silent);
        assert_eq!(run.best_reward(), None);
        assert!(run.record(f64::NAN));
        // Nothing compares greater than NaN, as in every engine's own fold.
        assert!(!run.record(1.0));
        assert!(run.best_reward().unwrap().is_nan());
    }

    #[test]
    fn the_evaluation_cap_stops_the_run_and_caps_a_count() {
        let mut silent = |_, _, _| {};
        let mut run = SearchRun::new(Some(3), None, &mut silent);
        assert_eq!(run.capped(10), 3);
        assert_eq!(run.capped(2), 2);
        run.record(0.0);
        run.record(0.0);
        assert!(!run.exhausted());
        assert_eq!(run.capped(10), 1);
        run.record(0.0);
        assert!(run.exhausted());
        assert_eq!(run.capped(10), 0);
    }

    #[test]
    fn the_time_limit_stops_the_run() {
        let mut silent = |_, _, _| {};
        let run = SearchRun::new(None, Some(Duration::ZERO), &mut silent);
        std::thread::sleep(Duration::from_millis(1));
        assert!(run.exhausted());
        let mut silent = |_, _, _| {};
        let run = SearchRun::new(None, Some(Duration::from_secs(3600)), &mut silent);
        assert!(!run.exhausted());
        assert_eq!(run.capped(7), 7);
    }
}
