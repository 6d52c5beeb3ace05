//! Error metrics used to compare thermal analyzers (paper Table II).

/// Aggregate error metrics between a prediction series and a reference
/// series: mean square error, root mean square error, mean absolute error
/// and mean absolute percentage error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorMetrics {
    /// Mean square error, in K².
    pub mse: f64,
    /// Root mean square error, in K.
    pub rmse: f64,
    /// Mean absolute error, in K.
    pub mae: f64,
    /// Mean absolute percentage error, as a fraction (0.01 = 1 %).
    pub mape: f64,
    /// Number of samples the metrics were computed over.
    pub samples: usize,
}

impl ErrorMetrics {
    /// Computes the metrics of `predicted` against `reference`.
    ///
    /// MAPE terms with a zero reference value are skipped (they would be
    /// undefined).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths or are empty.
    pub fn compute(predicted: &[f64], reference: &[f64]) -> Self {
        assert_eq!(predicted.len(), reference.len(), "metrics: length mismatch");
        assert!(!predicted.is_empty(), "metrics: empty input");
        let n = predicted.len() as f64;
        let mut se = 0.0;
        let mut ae = 0.0;
        let mut ape = 0.0;
        let mut ape_n = 0usize;
        for (&p, &r) in predicted.iter().zip(reference.iter()) {
            let err = p - r;
            se += err * err;
            ae += err.abs();
            if r != 0.0 {
                ape += (err / r).abs();
                ape_n += 1;
            }
        }
        let mse = se / n;
        Self {
            mse,
            rmse: mse.sqrt(),
            mae: ae / n,
            mape: if ape_n > 0 { ape / ape_n as f64 } else { 0.0 },
            samples: predicted.len(),
        }
    }
}

impl std::fmt::Display for ErrorMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MSE {:.4} K², RMSE {:.4} K, MAE {:.4} K, MAPE {:.4} % ({} samples)",
            self.mse,
            self.rmse,
            self.mae,
            self.mape * 100.0,
            self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_zero_error() {
        let m = ErrorMetrics::compute(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]);
        assert_eq!(m.mse, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.mape, 0.0);
        assert_eq!(m.samples, 3);
    }

    #[test]
    fn constant_offset_metrics() {
        let m = ErrorMetrics::compute(&[11.0, 21.0], &[10.0, 20.0]);
        assert!((m.mae - 1.0).abs() < 1e-12);
        assert!((m.mse - 1.0).abs() < 1e-12);
        assert!((m.rmse - 1.0).abs() < 1e-12);
        assert!((m.mape - 0.075).abs() < 1e-12);
    }

    #[test]
    fn zero_reference_terms_are_skipped_in_mape() {
        let m = ErrorMetrics::compute(&[1.0, 11.0], &[0.0, 10.0]);
        assert!((m.mape - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rmse_is_sqrt_of_mse() {
        let m = ErrorMetrics::compute(&[3.0, 0.0], &[0.0, 4.0]);
        assert!((m.rmse - m.mse.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn display_formats_all_metrics() {
        let m = ErrorMetrics::compute(&[90.0], &[91.0]);
        let s = m.to_string();
        assert!(s.contains("MAE"));
        assert!(s.contains("MAPE"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        ErrorMetrics::compute(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn empty_input_panics() {
        ErrorMetrics::compute(&[], &[]);
    }
}
