//! Order statistics and failure accounting shared by every workload.

/// The nearest-rank `q`-quantile of `values` (`q` in `[0, 1]`): the
/// smallest sample with at least `q·n` samples at or below it. Returns 0
/// for an empty slice, so a metric that has no samples on a workload reads
/// 0 rather than failing the run.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(values, 0.5)
}

/// The tail quantile to report for `n` samples: p90 when at least ten
/// samples lie beyond it, otherwise the highest quantile that still has
/// ten samples beyond it, but never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.9)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Operations attempted and everything that went wrong with them.
///
/// `error_rate` counts failed or refused operations *plus* failed output
/// checks against the operations attempted, so one operation can add more
/// than one failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: usize,
    /// Operations that returned an error or were refused.
    pub failed_ops: usize,
    /// Output checks that did not hold.
    pub failed_checks: usize,
}

impl Tally {
    /// Records one operation attempt and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed_ops += 1;
        }
    }

    /// Records one output check.
    pub fn check(&mut self, held: bool) {
        if !held {
            self.failed_checks += 1;
        }
    }

    /// Failed operations plus failed checks.
    pub fn failed(&self) -> usize {
        self.failed_ops + self.failed_checks
    }

    /// `failed / attempted`; 0 before any attempt.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }

    /// Folds another tally (e.g. one client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed_ops += other.failed_ops;
        self.failed_checks += other.failed_checks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let values = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&values, 0.05), 15.0);
        assert_eq!(nearest_rank(&values, 0.30), 20.0);
        assert_eq!(nearest_rank(&values, 0.40), 20.0);
        assert_eq!(nearest_rank(&values, 0.50), 35.0);
        assert_eq!(nearest_rank(&values, 1.00), 50.0);
        assert_eq!(nearest_rank(&values, 0.0), 15.0);
        // Input order does not matter.
        assert_eq!(nearest_rank(&[50.0, 15.0, 40.0, 35.0, 20.0], 0.9), 50.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 0.9), 9.0);
        assert_eq!(median(&ten), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond_it() {
        assert!((tail_quantile(100) - 0.9).abs() < 1e-12);
        assert_eq!(tail_quantile(1000), 0.9);
        assert!((tail_quantile(50) - 0.8).abs() < 1e-12);
        assert_eq!(tail_quantile(15), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn mean_and_ratio_handle_empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn error_rate_counts_failed_ops_and_failed_checks() {
        let mut tally = Tally::default();
        assert_eq!(tally.error_rate(), 0.0);
        for ok in [true, true, false, true] {
            tally.op(ok);
        }
        tally.check(true);
        tally.check(false);
        tally.check(false);
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.failed(), 3);
        assert_eq!(tally.error_rate(), 0.75);

        let mut other = Tally::default();
        other.op(false);
        other.check(false);
        tally.merge(other);
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.failed_ops, 2);
        assert_eq!(tally.failed_checks, 3);
        assert_eq!(tally.error_rate(), 1.0);
    }
}
