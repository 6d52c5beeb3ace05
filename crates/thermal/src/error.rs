//! Error types for the thermal analyzers.

use rlp_chiplet::PlacementError;
use rlp_linalg::LinalgError;
use std::error::Error;
use std::fmt;

/// Errors produced by the grid solver and the fast thermal model.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The placement is incomplete or otherwise unusable.
    Placement(PlacementError),
    /// The steady-state grid solve failed.
    Solver(LinalgError),
    /// The fast model was asked about a footprint or distance outside the
    /// characterised range and extrapolation was disabled.
    OutOfCharacterizedRange {
        /// Description of the offending query.
        query: String,
    },
    /// A configuration value is invalid (e.g. zero grid size).
    InvalidConfig {
        /// Description of the offending parameter.
        reason: String,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::Placement(e) => write!(f, "placement error: {e}"),
            ThermalError::Solver(e) => write!(f, "thermal solve failed: {e}"),
            ThermalError::OutOfCharacterizedRange { query } => {
                write!(f, "query outside the characterised range: {query}")
            }
            ThermalError::InvalidConfig { reason } => {
                write!(f, "invalid thermal configuration: {reason}")
            }
        }
    }
}

impl Error for ThermalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ThermalError::Placement(e) => Some(e),
            ThermalError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlacementError> for ThermalError {
    fn from(e: PlacementError) -> Self {
        ThermalError::Placement(e)
    }
}

impl From<LinalgError> for ThermalError {
    fn from(e: LinalgError) -> Self {
        ThermalError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: ThermalError = LinalgError::SingularMatrix { pivot: 2 }.into();
        assert!(e.to_string().contains("thermal solve failed"));
        assert!(e.source().is_some());

        let e = ThermalError::InvalidConfig {
            reason: "grid must be non-empty".into(),
        };
        assert!(e.to_string().contains("grid must be non-empty"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThermalError>();
    }
}
