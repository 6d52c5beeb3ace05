//! Error types for the thermal analyzers.

use rlp_chiplet::PlacementError;
use std::error::Error;
use std::fmt;

/// Why the direct solve of the package grid could not be prepared.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The grid's shape is inconsistent: no cells or layers, per-layer
    /// vectors of different lengths, or a source layer outside the stack.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was provided.
        found: String,
    },
    /// The conductance matrix is (numerically) singular: a pivot of the
    /// solve was not positive and finite.
    SingularMatrix {
        /// Node at which the solve broke down.
        pivot: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            SolveError::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
        }
    }
}

impl Error for SolveError {}

/// Errors produced by the grid solver and the fast thermal model.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The placement is incomplete or otherwise unusable.
    Placement(PlacementError),
    /// The steady-state grid solve failed.
    Solver(SolveError),
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

impl From<SolveError> for ThermalError {
    fn from(e: SolveError) -> Self {
        ThermalError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: ThermalError = SolveError::SingularMatrix { pivot: 2 }.into();
        assert!(e.to_string().contains("thermal solve failed"));
        assert!(e.source().is_some());

        let e = ThermalError::InvalidConfig {
            reason: "grid must be non-empty".into(),
        };
        assert!(e.to_string().contains("grid must be non-empty"));
        assert!(e.source().is_none());
    }

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SolveError::SingularMatrix { pivot: 3 };
        assert_eq!(e.to_string(), "matrix is singular at pivot column 3");

        let e = SolveError::DimensionMismatch {
            expected: "3".into(),
            found: "4".into(),
        };
        assert_eq!(e.to_string(), "dimension mismatch: expected 3, found 4");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThermalError>();
        assert_send_sync::<SolveError>();
    }
}
