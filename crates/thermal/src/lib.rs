//! Thermal analysis for 2.5D chiplet systems.
//!
//! Two analyzers share the [`ThermalAnalyzer`] trait:
//!
//! * [`GridThermalSolver`] — a HotSpot-style compact thermal model. The
//!   package is discretised into a stack of uniform x-y grids (interposer,
//!   die, TIM, heat spreader, heat sink) connected by lateral and vertical
//!   thermal conductances: the SPD system `G·ΔT = P`. Every layer is
//!   uniform, so cosine transforms diagonalise `G` laterally and the
//!   steady-state temperature field is obtained by a direct solve, exact up
//!   to rounding. This plays the role of the open-source HotSpot solver the
//!   paper compares against.
//! * [`FastThermalModel`] — the paper's contribution: the thermal network is
//!   treated as a linear, time-invariant system, so a chiplet's temperature
//!   is the superposition of a *self-heating* term (2D table of self-thermal
//!   resistance over die footprint) and *mutual-heating* terms (1D table of
//!   mutual-thermal resistance versus distance). Both tables are
//!   characterised once per package configuration by running the grid
//!   solver on single-hot-chiplet configurations; evaluation afterwards is a
//!   handful of table lookups, which is where the >100x speed-up comes from.
//!
//! [`ThermalBackend`] describes either analyzer as plain data and builds it
//! on demand ([`AnyThermalAnalyzer`]), which is how request-level APIs pick
//! a backend at runtime while the hot paths above stay generic. Batch
//! drivers share one characterisation per distinct package configuration
//! through [`ThermalModelCache`] ([`ThermalBackend::build_cached`]), with
//! hit/miss telemetry surfaced as [`ThermalCacheStats`] and per-run
//! [`ThermalPrep`].
//!
//! Move-based optimisers evaluate through [`ThermalState`]
//! ([`FastThermalModel::state_for`], or generically via
//! [`ThermalAnalyzer::incremental_state`]): the per-chiplet self and mutual
//! contributions are maintained across moves, so proposing a move costs
//! O(n) table lookups instead of the full O(n²) superposition while staying
//! bit-identical to the from-scratch evaluation.
//!
//! [`metrics`] provides the MSE/RMSE/MAE/MAPE error metrics the paper's
//! Table II reports.
//!
//! # Examples
//!
//! ```
//! use rlp_chiplet::{Chiplet, ChipletSystem, Placement, Position};
//! use rlp_thermal::{GridThermalSolver, ThermalAnalyzer, ThermalConfig};
//!
//! let mut sys = ChipletSystem::new("demo", 30.0, 30.0);
//! let cpu = sys.add_chiplet(Chiplet::new("cpu", 10.0, 10.0, 40.0));
//! let mut placement = Placement::for_system(&sys);
//! placement.place(cpu, Position::new(10.0, 10.0));
//!
//! let solver = GridThermalSolver::new(ThermalConfig::default());
//! let t_max = solver.max_temperature(&sys, &placement).unwrap();
//! assert!(t_max > ThermalConfig::default().ambient_c);
//! ```

pub mod backend;
pub mod cache;
pub mod config;
pub mod error;
pub mod fast;
pub mod grid;
pub mod metrics;
#[cfg(test)]
mod oracle;
pub mod power;
mod spectral;
pub mod state;

pub use backend::{AnyThermalAnalyzer, ThermalBackend};
pub use cache::{
    FastModelKey, ThermalCacheSnapshot, ThermalCacheStats, ThermalModelCache, ThermalPrep,
};
pub use config::{Layer, LayerStack, ThermalConfig};
pub use error::{SolveError, ThermalError};
pub use fast::{CharacterizationOptions, FastThermalModel};
pub use grid::{GridThermalSolver, ThermalSolution};
pub use metrics::ErrorMetrics;
pub use state::ThermalState;

use rlp_chiplet::{ChipletSystem, Placement, Point};

/// The smoothed maximum temperature of a placement and its analytic
/// gradient with respect to every chiplet centre.
///
/// Returned by [`ThermalAnalyzer::thermal_gradient`] for analyzers whose
/// temperature model is differentiable in the chiplet positions (the fast
/// LTI model: the mutual-heating kernel is piecewise linear in the
/// centre-to-centre distance, the self-heating term is position-free). The
/// hard maximum is not differentiable where two chiplets tie, so the
/// reduction is the softmax-weighted mean `S = Σ wᵢ·Tᵢ` with
/// `wᵢ ∝ exp(β·Tᵢ)`: as the sharpness `β` grows, `S → max(T)` from below
/// (within `ln n / β`), and `∂S/∂Tᵢ = wᵢ·(1 + β·(Tᵢ − S))` everywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalGradient {
    /// Per-chiplet temperatures in °C, identical to
    /// [`ThermalAnalyzer::chiplet_temperatures`].
    pub temperatures_c: Vec<f64>,
    /// The softmax-smoothed maximum temperature in °C (`≤` the hard max).
    pub smoothed_max_c: f64,
    /// `∂ smoothed_max / ∂ centreᵢ` in °C per millimetre of displacement,
    /// indexed by chiplet id; zero for unplaced chiplets.
    pub gradient: Vec<Point>,
}

/// The one maximum-temperature reduction every evaluation path uses.
///
/// Bit-identity between the full and incremental engines requires the
/// trait-default `max_temperature`, the fast model's allocation-free
/// override and [`ThermalState`]'s maintained maximum to reduce in
/// lockstep — sharing the fold makes that structural instead of a
/// convention.
pub(crate) fn fold_max(temps: impl IntoIterator<Item = f64>) -> f64 {
    temps.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// Common interface of the slow (grid) and fast (LTI) thermal analyzers.
///
/// Swapping one implementation for the other is exactly the swap the paper
/// performs between "TAP-2.5D (HotSpot)" and "TAP-2.5D (fast thermal
/// model)". The optimisers hold the one runtime-dispatched implementation,
/// [`AnyThermalAnalyzer`].
pub trait ThermalAnalyzer {
    /// Steady-state temperature of every chiplet in degrees Celsius, indexed
    /// by chiplet id.
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if the placement is incomplete or the
    /// underlying solve fails.
    fn chiplet_temperatures(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Vec<f64>, ThermalError>;

    /// Maximum chiplet temperature in degrees Celsius.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ThermalAnalyzer::chiplet_temperatures`].
    fn max_temperature(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<f64, ThermalError> {
        let temps = self.chiplet_temperatures(system, placement)?;
        Ok(fold_max(temps))
    }

    /// Incremental propose/commit/reject evaluation state for this analyzer
    /// and placement, if the analyzer supports one.
    ///
    /// The default is `Ok(None)`: full recomputation is the only option
    /// (the grid solver's field solve has no cheap per-move update). The
    /// fast LTI model returns a [`ThermalState`] whose proposals cost O(n)
    /// table lookups per moved chiplet and agree bit-for-bit with
    /// [`ThermalAnalyzer::chiplet_temperatures`]; optimisation loops probe
    /// this method and fall back to full evaluation on `None`.
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if the analyzer supports incremental
    /// evaluation but the state cannot be built for this system (e.g. an
    /// interposer outline the model was not characterised for).
    fn incremental_state(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Option<ThermalState>, ThermalError> {
        let _ = (system, placement);
        Ok(None)
    }

    /// Analytic gradient of the softmax-smoothed maximum temperature with
    /// respect to every chiplet centre, if the analyzer's model is
    /// differentiable in the positions.
    ///
    /// The default is `Ok(None)`: the grid solver's field solve has no
    /// closed-form position derivative. The fast LTI model returns a
    /// [`ThermalGradient`] assembled from the slopes of its characterised
    /// mutual-resistance table — the thermal half of the gradient placement
    /// engine. `sharpness_per_c` is the softmax inverse temperature `β` in
    /// 1/°C; larger values track the hard maximum more closely.
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if the analyzer supports gradients but
    /// cannot evaluate this system (e.g. an interposer outline the model
    /// was not characterised for).
    fn thermal_gradient(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
        sharpness_per_c: f64,
    ) -> Result<Option<ThermalGradient>, ThermalError> {
        let _ = (system, placement, sharpness_per_c);
        Ok(None)
    }

    /// Short human-readable name used in benchmark reports.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant(f64);
    impl ThermalAnalyzer for Constant {
        fn chiplet_temperatures(
            &self,
            system: &ChipletSystem,
            _placement: &Placement,
        ) -> Result<Vec<f64>, ThermalError> {
            Ok(vec![self.0; system.chiplet_count()])
        }
        fn name(&self) -> &str {
            "constant"
        }
    }

    #[test]
    fn max_temperature_default_takes_maximum() {
        use rlp_chiplet::Chiplet;
        let mut sys = ChipletSystem::new("t", 10.0, 10.0);
        sys.add_chiplet(Chiplet::new("a", 1.0, 1.0, 1.0));
        sys.add_chiplet(Chiplet::new("b", 1.0, 1.0, 1.0));
        let p = Placement::for_system(&sys);
        let analyzer = Constant(73.5);
        assert_eq!(analyzer.max_temperature(&sys, &p).unwrap(), 73.5);
        assert_eq!(analyzer.name(), "constant");
        // Analyzers without a differentiable model opt out by default.
        assert_eq!(analyzer.thermal_gradient(&sys, &p, 1.0).unwrap(), None);
    }
}
