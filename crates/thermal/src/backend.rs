//! Data-driven thermal backend selection.
//!
//! The backend choice is *data*: a request says "grid" or "fast" and a
//! factory builds the matching analyzer. [`ThermalBackend`] is the
//! plain-data description of a backend and [`AnyThermalAnalyzer`] the
//! runtime-dispatched analyzer it builds into, which the reward calculator
//! and every optimiser hold.

use crate::cache::{ThermalModelCache, ThermalPrep};
use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::fast::{CharacterizationOptions, FastThermalModel};
use crate::grid::GridThermalSolver;
use crate::ThermalAnalyzer;
use rlp_chiplet::{ChipletSystem, Placement};
use std::time::{Duration, Instant};

/// Which thermal analyzer to run inside an optimisation loop, expressed as
/// plain data so it can travel in requests, manifests and reports.
///
/// The enum is `#[non_exhaustive]`: future backends (e.g. a learned
/// surrogate) may be added without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThermalBackend {
    /// The HotSpot-style grid solver in the loop — reference accuracy, slow
    /// (the paper's "TAP-2.5D (HotSpot)" configuration).
    Grid {
        /// Solver grid resolution and package stack-up.
        config: ThermalConfig,
    },
    /// The fast LTI model, characterised once per interposer before the run
    /// (the paper's contribution; >100x faster per evaluation).
    Fast {
        /// Configuration of the grid solver used during characterisation.
        config: ThermalConfig,
        /// Density of the characterisation sweep.
        characterization: CharacterizationOptions,
    },
}

impl ThermalBackend {
    /// Grid-solver backend with the default package configuration.
    pub fn grid() -> Self {
        ThermalBackend::Grid {
            config: ThermalConfig::default(),
        }
    }

    /// Fast-model backend with the default package configuration and
    /// characterisation sweep.
    pub fn fast() -> Self {
        ThermalBackend::Fast {
            config: ThermalConfig::default(),
            characterization: CharacterizationOptions::default(),
        }
    }

    /// Stable machine-readable label of the backend kind (`"grid"` or
    /// `"fast"`), used in manifests and reports.
    pub fn label(&self) -> &'static str {
        match self {
            ThermalBackend::Grid { .. } => "grid",
            ThermalBackend::Fast { .. } => "fast",
        }
    }

    /// The thermal configuration (solver grid and package stack-up) this
    /// backend runs or characterises with.
    pub fn config(&self) -> &ThermalConfig {
        match self {
            ThermalBackend::Grid { config } | ThermalBackend::Fast { config, .. } => config,
        }
    }

    /// Builds the analyzer for an interposer of the given size.
    ///
    /// For [`ThermalBackend::Fast`] this runs the characterisation sweep —
    /// the per-package offline step the paper performs before optimisation —
    /// so it can take noticeably longer than the `Grid` arm.
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if the configuration is invalid or the
    /// characterisation solves fail.
    pub fn build(
        &self,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
    ) -> Result<AnyThermalAnalyzer, ThermalError> {
        match self {
            // The conductance operator depends only on the package and the
            // interposer, so every evaluation of this analyzer reuses one.
            ThermalBackend::Grid { config } => Ok(AnyThermalAnalyzer::Grid(
                GridThermalSolver::try_new(config.clone())?
                    .with_interposer(interposer_width_mm, interposer_height_mm),
            )),
            ThermalBackend::Fast {
                config,
                characterization,
            } => Ok(AnyThermalAnalyzer::Fast(FastThermalModel::characterize(
                config,
                interposer_width_mm,
                interposer_height_mm,
                characterization,
            )?)),
        }
    }

    /// Builds the analyzer for a system's interposer; see
    /// [`ThermalBackend::build`].
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if the configuration is invalid or the
    /// characterisation solves fail.
    pub fn build_for(&self, system: &ChipletSystem) -> Result<AnyThermalAnalyzer, ThermalError> {
        self.build(system.interposer_width(), system.interposer_height())
    }

    /// Like [`ThermalBackend::build_for`], but also reports *how* the
    /// analyzer was built as a [`ThermalPrep`]: construction wall-clock,
    /// and one `cache_miss` for a fast-model characterisation performed
    /// from scratch (the grid arm has no characterisation step, so both
    /// counters stay zero).
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if the configuration is invalid or the
    /// characterisation solves fail.
    pub fn build_prepared(
        &self,
        system: &ChipletSystem,
    ) -> Result<(AnyThermalAnalyzer, ThermalPrep), ThermalError> {
        let start = Instant::now();
        let analyzer = self.build_for(system)?;
        let characterization = start.elapsed();
        let prep = match self {
            ThermalBackend::Grid { .. } => ThermalPrep {
                characterization,
                ..ThermalPrep::default()
            },
            ThermalBackend::Fast { .. } => ThermalPrep {
                cache_misses: 1,
                characterization,
                ..ThermalPrep::default()
            },
        };
        Ok((analyzer, prep))
    }

    /// Builds the analyzer for a system's interposer through a shared
    /// [`ThermalModelCache`]: a fast-model characterisation runs at most
    /// once per distinct package configuration, later builds are served
    /// from the cache (a `cache_hit` with zero characterisation time in the
    /// returned [`ThermalPrep`]). The grid arm has nothing to cache and
    /// behaves like [`ThermalBackend::build_prepared`].
    ///
    /// # Errors
    ///
    /// Returns a [`ThermalError`] if the configuration is invalid or the
    /// characterisation solves fail.
    pub fn build_cached(
        &self,
        system: &ChipletSystem,
        cache: &ThermalModelCache,
    ) -> Result<(AnyThermalAnalyzer, ThermalPrep), ThermalError> {
        match self {
            ThermalBackend::Grid { .. } => self.build_prepared(system),
            ThermalBackend::Fast {
                config,
                characterization,
            } => {
                let start = Instant::now();
                let (model, hit) = cache.get_or_characterize(
                    config,
                    system.interposer_width(),
                    system.interposer_height(),
                    characterization,
                )?;
                let prep = ThermalPrep {
                    cache_hits: usize::from(hit),
                    cache_misses: usize::from(!hit),
                    characterization: if hit { Duration::ZERO } else { start.elapsed() },
                };
                Ok((AnyThermalAnalyzer::Fast(model.as_ref().clone()), prep))
            }
        }
    }
}

/// A thermal analyzer whose backend was chosen at runtime: enum dispatch
/// over the grid solver and the fast model (see [`ThermalBackend::build`]).
///
/// This is the one analyzer type the reward calculator and the optimisers
/// hold; the dispatch costs one `match` per thermal call.
#[derive(Debug, Clone)]
pub enum AnyThermalAnalyzer {
    /// A built grid solver.
    Grid(GridThermalSolver),
    /// A characterised fast model.
    Fast(FastThermalModel),
}

impl ThermalAnalyzer for AnyThermalAnalyzer {
    fn chiplet_temperatures(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Vec<f64>, ThermalError> {
        match self {
            AnyThermalAnalyzer::Grid(solver) => solver.chiplet_temperatures(system, placement),
            AnyThermalAnalyzer::Fast(model) => model.chiplet_temperatures(system, placement),
        }
    }

    fn max_temperature(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<f64, ThermalError> {
        match self {
            AnyThermalAnalyzer::Grid(solver) => solver.max_temperature(system, placement),
            AnyThermalAnalyzer::Fast(model) => model.max_temperature(system, placement),
        }
    }

    fn incremental_state(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Option<crate::ThermalState>, ThermalError> {
        match self {
            AnyThermalAnalyzer::Grid(solver) => solver.incremental_state(system, placement),
            AnyThermalAnalyzer::Fast(model) => model.incremental_state(system, placement),
        }
    }

    fn thermal_gradient(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
        sharpness_per_c: f64,
    ) -> Result<Option<crate::ThermalGradient>, ThermalError> {
        match self {
            // The grid solver's field solve has no closed-form position
            // derivative; it keeps the trait default.
            AnyThermalAnalyzer::Grid(solver) => {
                solver.thermal_gradient(system, placement, sharpness_per_c)
            }
            AnyThermalAnalyzer::Fast(model) => {
                model.thermal_gradient(system, placement, sharpness_per_c)
            }
        }
    }

    fn name(&self) -> &str {
        match self {
            AnyThermalAnalyzer::Grid(solver) => solver.name(),
            AnyThermalAnalyzer::Fast(model) => model.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_chiplet::{Chiplet, Position};

    fn one_chiplet_case() -> (ChipletSystem, Placement) {
        let mut sys = ChipletSystem::new("t", 24.0, 24.0);
        let cpu = sys.add_chiplet(Chiplet::new("cpu", 8.0, 8.0, 25.0));
        let mut placement = Placement::for_system(&sys);
        placement.place(cpu, Position::new(8.0, 8.0));
        (sys, placement)
    }

    #[test]
    fn labels_and_configs_are_exposed() {
        let grid = ThermalBackend::Grid {
            config: ThermalConfig::with_grid(12, 12),
        };
        assert_eq!(grid.label(), "grid");
        assert_eq!(grid.config().grid_nx, 12);
        assert_eq!(ThermalBackend::fast().label(), "fast");
    }

    #[test]
    fn grid_backend_builds_and_matches_the_direct_solver() {
        let (sys, placement) = one_chiplet_case();
        let config = ThermalConfig::with_grid(12, 12);
        let built = ThermalBackend::Grid {
            config: config.clone(),
        }
        .build_for(&sys)
        .unwrap();
        let direct = GridThermalSolver::new(config);
        assert_eq!(
            built.max_temperature(&sys, &placement).unwrap(),
            direct.max_temperature(&sys, &placement).unwrap()
        );
        assert!(built.chiplet_temperatures(&sys, &placement).unwrap()[0] > 45.0);
    }

    #[test]
    fn fast_backend_characterises_on_build() {
        let (sys, placement) = one_chiplet_case();
        let backend = ThermalBackend::Fast {
            config: ThermalConfig::with_grid(12, 12),
            characterization: CharacterizationOptions {
                footprint_samples_mm: vec![4.0, 8.0, 12.0],
                distance_bins: 8,
                ..CharacterizationOptions::default()
            },
        };
        let built = backend.build_for(&sys).unwrap();
        assert!(matches!(built, AnyThermalAnalyzer::Fast(_)));
        let t = built.max_temperature(&sys, &placement).unwrap();
        assert!(t.is_finite() && t > 45.0);
    }

    #[test]
    fn gradient_delegation_follows_the_backend() {
        let (sys, placement) = one_chiplet_case();
        let grid = ThermalBackend::Grid {
            config: ThermalConfig::with_grid(12, 12),
        }
        .build_for(&sys)
        .unwrap();
        assert_eq!(grid.thermal_gradient(&sys, &placement, 1.0).unwrap(), None);
        let fast = ThermalBackend::Fast {
            config: ThermalConfig::with_grid(12, 12),
            characterization: CharacterizationOptions {
                footprint_samples_mm: vec![4.0, 8.0, 12.0],
                distance_bins: 8,
                ..CharacterizationOptions::default()
            },
        }
        .build_for(&sys)
        .unwrap();
        let grad = fast
            .thermal_gradient(&sys, &placement, 1.0)
            .unwrap()
            .expect("fast model is differentiable");
        assert_eq!(grad.gradient.len(), 1);
        assert!(grad.smoothed_max_c > 45.0);
    }

    #[test]
    fn cached_builds_characterise_once_per_configuration() {
        let (sys, placement) = one_chiplet_case();
        let backend = ThermalBackend::Fast {
            config: ThermalConfig::with_grid(12, 12),
            characterization: CharacterizationOptions {
                footprint_samples_mm: vec![4.0, 8.0, 12.0],
                distance_bins: 8,
                ..CharacterizationOptions::default()
            },
        };
        let cache = ThermalModelCache::new();
        let (first, prep) = backend.build_cached(&sys, &cache).unwrap();
        assert_eq!((prep.cache_hits, prep.cache_misses), (0, 1));
        assert!(prep.characterization > Duration::ZERO);
        let (second, prep) = backend.build_cached(&sys, &cache).unwrap();
        assert_eq!((prep.cache_hits, prep.cache_misses), (1, 0));
        assert_eq!(prep.characterization, Duration::ZERO);
        // The served analyzer is bit-identical to the first build.
        assert_eq!(
            first.chiplet_temperatures(&sys, &placement).unwrap(),
            second.chiplet_temperatures(&sys, &placement).unwrap()
        );
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn grid_backend_has_no_characterisation_to_cache() {
        let (sys, _) = one_chiplet_case();
        let backend = ThermalBackend::Grid {
            config: ThermalConfig::with_grid(12, 12),
        };
        let cache = ThermalModelCache::new();
        let (analyzer, prep) = backend.build_cached(&sys, &cache).unwrap();
        assert!(matches!(analyzer, AnyThermalAnalyzer::Grid(_)));
        assert_eq!((prep.cache_hits, prep.cache_misses), (0, 0));
        assert!(cache.is_empty());
        let (_, prep) = backend.build_prepared(&sys).unwrap();
        assert_eq!((prep.cache_hits, prep.cache_misses), (0, 0));
    }

    #[test]
    fn invalid_config_is_rejected_at_build_time() {
        let backend = ThermalBackend::Grid {
            config: ThermalConfig::with_grid(1, 1),
        };
        assert!(matches!(
            backend.build(20.0, 20.0),
            Err(ThermalError::InvalidConfig { .. })
        ));
    }
}
