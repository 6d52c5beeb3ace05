//! HotSpot-style grid thermal solver.
//!
//! The package is modelled as a stack of uniform x-y grids (one per layer of
//! the [`crate::LayerStack`]). Neighbouring cells are connected by lateral
//! thermal conductances, vertically adjacent cells by through-layer
//! conductances, and the top layer is connected to ambient through the
//! heat-sink convection resistance. The resulting conductance matrix `G` is
//! symmetric positive definite; the steady-state temperature rise solves
//! `G · ΔT = P` where `P` is the rasterised chiplet power map.
//!
//! Every layer is uniform, the sides are adiabatic and convection is spread
//! evenly over the top layer, so `G` is separable: the cosine transforms of
//! the grid's rows and columns diagonalise it laterally, leaving one
//! `layers×layers` tridiagonal system per lateral mode. The solver inverts
//! `G` that way (the crate's `SpectralSolver`), directly and exactly up to
//! rounding: one forward transform of the power map, one scaling and one
//! inverse transform per layer. [`GridThermalSolver::solve`] returns every
//! layer; the [`ThermalAnalyzer`] methods transform back the die layer
//! alone, the only one a chiplet's temperature is read from, and get the
//! same bits.
//! What the solver prepares depends only on the configuration and the
//! interposer outline, never on the placement, so a solver prepared for an
//! outline reuses it for every solve on that outline.
//!
//! This solver plays the role of the open-source HotSpot simulator in the
//! paper's evaluation: it is the accuracy reference that the fast thermal
//! model is characterised against.

use crate::config::{Layer, ThermalConfig};
use crate::error::ThermalError;
use crate::power::PowerMap;
use crate::spectral::{LayeredGrid, SpectralSolver};
use crate::ThermalAnalyzer;
use rlp_chiplet::{ChipletSystem, Placement, Rect};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Result of a full-field steady-state solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalSolution {
    nx: usize,
    ny: usize,
    layer_count: usize,
    ambient_c: f64,
    /// Temperature rise above ambient for every node (layer-major, then
    /// row-major), in kelvin.
    delta_t: Vec<f64>,
    /// Index of the layer power was injected into.
    power_layer: usize,
    /// Iterations of the solve: always 0, the solve is direct.
    pub solver_iterations: usize,
}

impl ThermalSolution {
    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Temperature in degrees Celsius at a cell of a given layer.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn temperature_at(&self, layer: usize, col: usize, row: usize) -> f64 {
        assert!(
            layer < self.layer_count && col < self.nx && row < self.ny,
            "node index out of range"
        );
        self.ambient_c + self.delta_t[layer * self.nx * self.ny + row * self.nx + col]
    }

    /// Temperature in degrees Celsius at a cell of the power (die) layer.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn die_temperature_at(&self, col: usize, row: usize) -> f64 {
        self.temperature_at(self.power_layer, col, row)
    }
}

/// The direct solve of one interposer outline, prepared ahead of time and
/// shared by every clone of the solver.
struct PreparedSolve {
    /// Bit patterns of the interposer width and height it was prepared for.
    outline: (u64, u64),
    spectral: SpectralSolver,
}

impl fmt::Debug for PreparedSolve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (width, height) = self.outline;
        write!(
            f,
            "PreparedSolve({}x{} mm)",
            f64::from_bits(width),
            f64::from_bits(height)
        )
    }
}

/// HotSpot-style steady-state grid solver.
#[derive(Debug, Clone)]
pub struct GridThermalSolver {
    config: ThermalConfig,
    /// The solve prepared by [`GridThermalSolver::with_interposer`].
    prepared: Option<Arc<PreparedSolve>>,
}

impl GridThermalSolver {
    /// Creates a solver with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ThermalConfig::validate`]; use
    /// [`GridThermalSolver::try_new`] for a fallible constructor.
    pub fn new(config: ThermalConfig) -> Self {
        Self::try_new(config).expect("invalid thermal configuration")
    }

    /// Creates a solver, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidConfig`] if the configuration is unusable.
    pub fn try_new(config: ThermalConfig) -> Result<Self, ThermalError> {
        config
            .validate()
            .map_err(|reason| ThermalError::InvalidConfig { reason })?;
        Ok(Self {
            config,
            prepared: None,
        })
    }

    /// Prepares the solve of an interposer outline (mm) ahead of time.
    /// Solves of a system with exactly this outline reuse it; solves of any
    /// other outline prepare their own. The results are bit-identical
    /// either way. An outline that cannot be prepared is left to the solves
    /// to report.
    #[must_use]
    pub(crate) fn with_interposer(mut self, width_mm: f64, height_mm: f64) -> Self {
        self.prepared = self.prepare(width_mm, height_mm).ok().map(Arc::new);
        self
    }

    /// The solver configuration.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Solves the steady-state temperature field for a placement.
    ///
    /// Unplaced chiplets inject no power; the solve still succeeds so the RL
    /// environment can evaluate partial placements.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Solver`] if the interposer outline leaves the
    /// conductance matrix singular or non-finite (an infinite outline).
    pub fn solve(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<ThermalSolution, ThermalError> {
        let power =
            PowerMap::rasterize(system, placement, self.config.grid_nx, self.config.grid_ny);
        self.solve_power_map(system, &power)
    }

    /// Solves the steady-state field for an explicit power map on the
    /// solver's grid.
    ///
    /// # Errors
    ///
    /// * [`ThermalError::InvalidConfig`] if the map is not
    ///   `grid_nx`×`grid_ny` cells.
    /// * [`ThermalError::Solver`] if the interposer outline leaves the
    ///   conductance matrix singular or non-finite.
    pub fn solve_power_map(
        &self,
        system: &ChipletSystem,
        power: &PowerMap,
    ) -> Result<ThermalSolution, ThermalError> {
        let (nx, ny) = (self.config.grid_nx, self.config.grid_ny);
        if (power.nx(), power.ny()) != (nx, ny) {
            return Err(ThermalError::InvalidConfig {
                reason: format!(
                    "power map is {}x{} cells but the thermal grid is {nx}x{ny}",
                    power.nx(),
                    power.ny()
                ),
            });
        }
        let spectral = self.spectral_for(system.interposer_width(), system.interposer_height())?;
        Ok(self.solution(spectral.solve(power.cells()), 0))
    }

    /// The direct solve of an interposer outline (mm): the prepared one if
    /// it was prepared for exactly this outline, else a fresh one, or
    /// [`ThermalError::Solver`] if the outline leaves `G` singular.
    pub(crate) fn spectral_for(
        &self,
        width_mm: f64,
        height_mm: f64,
    ) -> Result<Cow<'_, SpectralSolver>, ThermalError> {
        match &self.prepared {
            Some(prepared) if prepared.outline == (width_mm.to_bits(), height_mm.to_bits()) => {
                Ok(Cow::Borrowed(&prepared.spectral))
            }
            _ => Ok(Cow::Owned(self.prepare(width_mm, height_mm)?.spectral)),
        }
    }

    /// The conductances of this package's grid on an interposer of the
    /// given outline (mm), in closed form: the operator the direct solve
    /// inverts and the one the assembled matrix holds.
    fn layered_grid(&self, width_mm: f64, height_mm: f64) -> LayeredGrid {
        let (nx, ny) = (self.config.grid_nx, self.config.grid_ny);
        let layers = self.config.stack.layers();

        // Geometry in metres.
        let dx = width_mm / nx as f64 * 1e-3;
        let dy = height_mm / ny as f64 * 1e-3;
        let area = dx * dy;
        // Vertical resistance of half a cell of a layer, K/W.
        let half_cell =
            |layer: &Layer| (layer.thickness_mm * 1e-3 / 2.0) / (layer.conductivity_w_mk * area);
        // Convection from every top-layer cell to ambient (temperature rise 0).
        let g_conv = 1.0 / self.config.convection_resistance_k_per_w / (nx * ny) as f64;
        LayeredGrid {
            nx,
            ny,
            west_east: layers
                .iter()
                .map(|layer| layer.conductivity_w_mk * (dy * layer.thickness_mm * 1e-3) / dx)
                .collect(),
            south_north: layers
                .iter()
                .map(|layer| layer.conductivity_w_mk * (dx * layer.thickness_mm * 1e-3) / dy)
                .collect(),
            vertical: layers
                .windows(2)
                .map(|pair| 1.0 / (half_cell(&pair[0]) + half_cell(&pair[1])))
                .collect(),
            to_reference: (0..layers.len())
                .map(|l| if l + 1 == layers.len() { g_conv } else { 0.0 })
                .collect(),
        }
    }

    /// The direct solve of `G` for an outline, with power injected into
    /// the power layer.
    fn prepare(&self, width_mm: f64, height_mm: f64) -> Result<PreparedSolve, ThermalError> {
        let grid = self.layered_grid(width_mm, height_mm);
        Ok(PreparedSolve {
            outline: (width_mm.to_bits(), height_mm.to_bits()),
            spectral: SpectralSolver::new(&grid, self.config.stack.power_layer())?,
        })
    }

    /// A solved field of temperature rises over every node.
    fn solution(&self, delta_t: Vec<f64>, solver_iterations: usize) -> ThermalSolution {
        ThermalSolution {
            nx: self.config.grid_nx,
            ny: self.config.grid_ny,
            layer_count: self.config.stack.layer_count(),
            ambient_c: self.config.ambient_c,
            delta_t,
            power_layer: self.config.stack.power_layer(),
            solver_iterations,
        }
    }

    /// The conductance matrix `G` of this package on an interposer of the
    /// given outline (mm), assembled node by node from the closed-form
    /// conductances.
    #[cfg(test)]
    pub(crate) fn conductance_matrix(
        &self,
        width_mm: f64,
        height_mm: f64,
    ) -> crate::oracle::CsrMatrix {
        crate::oracle::assemble(&self.layered_grid(width_mm, height_mm))
    }

    /// Solves with Jacobi-preconditioned conjugate gradient on the
    /// assembled [`GridThermalSolver::conductance_matrix`] to the given
    /// relative residual: the independent oracle the direct solve is
    /// tested against.
    ///
    /// # Panics
    ///
    /// Panics if conjugate gradient does not converge.
    #[cfg(test)]
    pub(crate) fn solve_power_map_cg(
        &self,
        system: &ChipletSystem,
        power: &PowerMap,
        tolerance: f64,
    ) -> ThermalSolution {
        use crate::oracle::{conjugate_gradient, CgOptions};
        let g = self.conductance_matrix(system.interposer_width(), system.interposer_height());
        let cells = power.cells().len();
        let mut rhs = vec![0.0; g.rows()];
        rhs[self.config.stack.power_layer() * cells..][..cells].copy_from_slice(power.cells());
        let options = CgOptions {
            tolerance,
            max_iterations: 100_000,
            ..CgOptions::default()
        };
        let solution = conjugate_gradient(&g, &rhs, &options).expect("the CG oracle converges");
        self.solution(solution.x, solution.iterations)
    }

    /// Per-chiplet maximum die temperature of a solved field, in Celsius.
    ///
    /// Unplaced chiplets are reported at ambient temperature.
    pub fn chiplet_temperatures_from_solution(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
        solution: &ThermalSolution,
    ) -> Vec<f64> {
        let (nx, ny) = (solution.nx, solution.ny);
        let die = &solution.delta_t[solution.power_layer * nx * ny..][..nx * ny];
        chiplet_peaks(system, placement, nx, ny, solution.ambient_c, die)
    }
}

/// The cells `(rows, cols)` of an `nx`×`ny` grid of `cell_w`×`cell_h` mm
/// cells that a die's temperature is the maximum over: every cell its
/// rectangle touches, and at least one.
pub(crate) fn footprint_cells(
    rect: &Rect,
    cell_w: f64,
    cell_h: f64,
    nx: usize,
    ny: usize,
) -> (Range<usize>, Range<usize>) {
    let col_lo = ((rect.x / cell_w).floor().max(0.0) as usize).min(nx - 1);
    let col_hi = (((rect.right() / cell_w).ceil() as usize).max(col_lo + 1)).min(nx);
    let row_lo = ((rect.y / cell_h).floor().max(0.0) as usize).min(ny - 1);
    let row_hi = (((rect.top() / cell_h).ceil() as usize).max(row_lo + 1)).min(ny);
    (row_lo..row_hi, col_lo..col_hi)
}

/// The hottest die temperature, in Celsius, over a die's cells given their
/// temperature rises (K) in row-major order; ambient if none is finite.
pub(crate) fn peak_temperature(ambient_c: f64, rises: impl IntoIterator<Item = f64>) -> f64 {
    let max_t = rises
        .into_iter()
        .fold(f64::NEG_INFINITY, |max_t, rise| max_t.max(ambient_c + rise));
    if max_t.is_finite() {
        max_t
    } else {
        ambient_c
    }
}

/// Per-chiplet maximum die temperature, in Celsius, from the die layer's
/// temperature rises `die` (row-major, `nx`×`ny`). Unplaced chiplets sit
/// at ambient.
fn chiplet_peaks(
    system: &ChipletSystem,
    placement: &Placement,
    nx: usize,
    ny: usize,
    ambient_c: f64,
    die: &[f64],
) -> Vec<f64> {
    let cell_w = system.interposer_width() / nx as f64;
    let cell_h = system.interposer_height() / ny as f64;
    system
        .chiplet_ids()
        .map(|id| {
            let Some(rect) = placement.rect_of(id, system) else {
                return ambient_c;
            };
            let (rows, cols) = footprint_cells(&rect, cell_w, cell_h, nx, ny);
            peak_temperature(
                ambient_c,
                rows.flat_map(|row| &die[row * nx..][cols.clone()]).copied(),
            )
        })
        .collect()
}

impl ThermalAnalyzer for GridThermalSolver {
    /// Solves the die layer alone, bit-identical to the chiplet temperatures
    /// of a full [`GridThermalSolver::solve`].
    fn chiplet_temperatures(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Vec<f64>, ThermalError> {
        let (nx, ny) = (self.config.grid_nx, self.config.grid_ny);
        let power = PowerMap::rasterize(system, placement, nx, ny);
        let die = self
            .spectral_for(system.interposer_width(), system.interposer_height())?
            .solve_layer(power.cells(), self.config.stack.power_layer());
        let ambient_c = self.config.ambient_c;
        Ok(chiplet_peaks(system, placement, nx, ny, ambient_c, &die))
    }

    fn name(&self) -> &str {
        "grid-thermal-solver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LayerStack;
    use crate::oracle::norm2;
    use proptest::prelude::*;
    use rlp_chiplet::{Chiplet, Position};

    fn single_chiplet(power: f64, at: Position) -> (ChipletSystem, Placement) {
        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        let a = sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, power));
        let mut p = Placement::for_system(&sys);
        p.place(a, at);
        (sys, p)
    }

    fn small_solver() -> GridThermalSolver {
        GridThermalSolver::new(ThermalConfig::with_grid(16, 16))
    }

    fn delta_bits(solution: &ThermalSolution) -> Vec<u64> {
        solution.delta_t.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn zero_power_stays_at_ambient() {
        let (sys, p) = single_chiplet(0.0, Position::new(11.0, 11.0));
        let solver = small_solver();
        let temps = solver.chiplet_temperatures(&sys, &p).unwrap();
        assert!((temps[0] - solver.config().ambient_c).abs() < 1e-6);
    }

    #[test]
    fn heated_chiplet_is_above_ambient() {
        let (sys, p) = single_chiplet(30.0, Position::new(11.0, 11.0));
        let solver = small_solver();
        let t = solver.max_temperature(&sys, &p).unwrap();
        assert!(t > solver.config().ambient_c + 1.0, "t = {t}");
    }

    #[test]
    fn temperature_scales_linearly_with_power() {
        let solver = small_solver();
        let ambient = solver.config().ambient_c;
        let (sys1, p1) = single_chiplet(20.0, Position::new(11.0, 11.0));
        let (sys2, p2) = single_chiplet(40.0, Position::new(11.0, 11.0));
        let rise1 = solver.max_temperature(&sys1, &p1).unwrap() - ambient;
        let rise2 = solver.max_temperature(&sys2, &p2).unwrap() - ambient;
        assert!(
            (rise2 / rise1 - 2.0).abs() < 1e-3,
            "ratio {}",
            rise2 / rise1
        );
    }

    #[test]
    fn hotspot_is_under_the_chiplet() {
        let (sys, p) = single_chiplet(30.0, Position::new(2.0, 2.0));
        let solver = small_solver();
        let solution = solver.solve(&sys, &p).unwrap();
        // Chiplet occupies x in [2,10], y in [2,10] out of 30 mm: lower-left
        // region of the die layer must be hotter than the far corner.
        let hot = solution.die_temperature_at(3, 3);
        let cold = solution.die_temperature_at(14, 14);
        assert!(hot > cold + 0.5, "hot {hot}, cold {cold}");
    }

    #[test]
    fn superposition_holds_for_two_sources() {
        // The network is linear, so the field of two chiplets equals the sum
        // of the fields of each chiplet alone (in temperature rise).
        let solver = small_solver();
        let ambient = solver.config().ambient_c;

        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 25.0));
        let b = sys.add_chiplet(Chiplet::new("b", 6.0, 6.0, 15.0));

        let mut only_a = Placement::for_system(&sys);
        only_a.place(a, Position::new(3.0, 3.0));
        let mut only_b = Placement::for_system(&sys);
        only_b.place(b, Position::new(20.0, 20.0));
        let mut both = Placement::for_system(&sys);
        both.place(a, Position::new(3.0, 3.0));
        both.place(b, Position::new(20.0, 20.0));

        let sol_a = solver.solve(&sys, &only_a).unwrap();
        let sol_b = solver.solve(&sys, &only_b).unwrap();
        let sol_ab = solver.solve(&sys, &both).unwrap();

        for row in (0..16).step_by(5) {
            for col in (0..16).step_by(5) {
                let sum = (sol_a.die_temperature_at(col, row) - ambient)
                    + (sol_b.die_temperature_at(col, row) - ambient);
                let combined = sol_ab.die_temperature_at(col, row) - ambient;
                assert!(
                    (sum - combined).abs() < 1e-3,
                    "superposition violated at ({col},{row}): {sum} vs {combined}"
                );
            }
        }
    }

    #[test]
    fn closer_chiplets_run_hotter() {
        // Both configurations keep the chiplets well away from the interposer
        // boundary so the comparison isolates the mutual-heating effect from
        // the edge-spreading penalty.
        let solver = GridThermalSolver::new(ThermalConfig::with_grid(24, 24));
        let mut sys = ChipletSystem::new("t", 60.0, 60.0);
        let a = sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, 30.0));
        let b = sys.add_chiplet(Chiplet::new("b", 8.0, 8.0, 30.0));

        let mut close = Placement::for_system(&sys);
        close.place(a, Position::new(22.0, 26.0));
        close.place(b, Position::new(30.5, 26.0));
        let mut far = Placement::for_system(&sys);
        far.place(a, Position::new(12.0, 26.0));
        far.place(b, Position::new(40.0, 26.0));

        let t_close = solver.max_temperature(&sys, &close).unwrap();
        let t_far = solver.max_temperature(&sys, &far).unwrap();
        assert!(t_close > t_far, "close {t_close} <= far {t_far}");
    }

    #[test]
    fn unplaced_chiplet_reports_ambient() {
        let solver = small_solver();
        let mut sys = ChipletSystem::new("t", 30.0, 30.0);
        let a = sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, 30.0));
        sys.add_chiplet(Chiplet::new("b", 8.0, 8.0, 30.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(11.0, 11.0));
        let temps = solver.chiplet_temperatures(&sys, &p).unwrap();
        assert!(temps[0] > solver.config().ambient_c);
        assert_eq!(temps[1], solver.config().ambient_c);
    }

    #[test]
    fn finer_grids_agree_on_peak_temperature() {
        let (sys, p) = single_chiplet(30.0, Position::new(11.0, 11.0));
        let coarse = GridThermalSolver::new(ThermalConfig::with_grid(12, 12))
            .max_temperature(&sys, &p)
            .unwrap();
        let fine = GridThermalSolver::new(ThermalConfig::with_grid(24, 24))
            .max_temperature(&sys, &p)
            .unwrap();
        let rel = (coarse - fine).abs() / (fine - 45.0);
        assert!(rel < 0.15, "coarse {coarse}, fine {fine}");
    }

    #[test]
    fn prepared_solves_equal_unprepared_solves_bit_for_bit() {
        let (sys, p) = single_chiplet(30.0, Position::new(7.0, 11.0));
        let fresh = GridThermalSolver::new(ThermalConfig::with_grid(16, 11));
        let prepared = fresh.clone().with_interposer(30.0, 30.0);
        assert!(prepared.prepared.is_some());
        let reference = fresh.solve(&sys, &p).unwrap();
        let solution = prepared.solve(&sys, &p).unwrap();
        assert_eq!(delta_bits(&solution), delta_bits(&reference));
        assert_eq!(solution.solver_iterations, 0);
        // A system on another outline prepares its own solve instead of
        // using the prepared one.
        let mut wider = ChipletSystem::new("t", 40.0, 30.0);
        let a = wider.add_chiplet(Chiplet::new("a", 8.0, 8.0, 30.0));
        let mut q = Placement::for_system(&wider);
        q.place(a, Position::new(7.0, 11.0));
        let other = prepared.solve(&wider, &q).unwrap();
        assert_eq!(
            delta_bits(&other),
            delta_bits(&fresh.solve(&wider, &q).unwrap())
        );
        assert_ne!(delta_bits(&other), delta_bits(&reference));
    }

    #[test]
    fn zero_conductance_layers_are_refused() {
        // A zero-conductivity TIM cuts the die off from the heat sink and a
        // zero-conductivity interposer floats: both make `G` singular.
        let (sys, _) = single_chiplet(30.0, Position::new(11.0, 11.0));
        for (index, name) in [(2, "tim"), (0, "interposer")] {
            let mut layers = LayerStack::default_2_5d().layers().to_vec();
            layers[index].conductivity_w_mk = 0.0;
            let config = ThermalConfig {
                stack: LayerStack::new(layers, 1),
                ..ThermalConfig::with_grid(8, 8)
            };
            let refused = |result: Result<(), ThermalError>, by: &str| match result {
                Err(ThermalError::InvalidConfig { reason }) => {
                    assert!(reason.contains(name), "{by}: {reason}");
                }
                other => panic!("{by} accepted a zero-conductivity {name}: {other:?}"),
            };
            refused(
                GridThermalSolver::try_new(config.clone()).map(drop),
                "try_new",
            );
            let options = crate::CharacterizationOptions::default();
            refused(
                crate::FastThermalModel::characterize(&config, 30.0, 30.0, &options).map(drop),
                "characterize",
            );
            let backends = [
                crate::ThermalBackend::Grid {
                    config: config.clone(),
                },
                crate::ThermalBackend::Fast {
                    config,
                    characterization: options,
                },
            ];
            for backend in backends {
                refused(backend.build_for(&sys).map(drop), backend.label());
            }
        }
    }

    #[test]
    fn an_outline_the_solve_cannot_invert_is_an_error() {
        let (sys, p) = single_chiplet(30.0, Position::new(11.0, 11.0));
        let power = PowerMap::rasterize(&sys, &p, 16, 16);
        let endless = ChipletSystem::new("t", f64::INFINITY, 30.0);
        let solver = small_solver().with_interposer(f64::INFINITY, 30.0);
        assert!(solver.prepared.is_none());
        let error = solver.solve_power_map(&endless, &power).unwrap_err();
        assert!(matches!(
            error,
            ThermalError::Solver(crate::SolveError::SingularMatrix { .. })
        ));
        assert_eq!(
            error.to_string(),
            "thermal solve failed: matrix is singular at pivot column 0"
        );
    }

    /// A layer of the package grid: thickness (mm) and conductivity
    /// (W/(m·K)) spanning thin low-k TIMs to thick copper.
    fn layer_strategy() -> impl Strategy<Value = (f64, f64)> {
        (0.02f64..7.0, 1.0f64..500.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The direct solve of random packages matches Jacobi-CG run to a
        /// 1e-12 residual on the independently assembled conductance matrix
        /// within 1e-9 of the peak rise, and leaves a residual of at most
        /// 1e-10·‖b‖ under that matrix. This pins the separability the
        /// direct solve relies on to the assembled physics.
        #[test]
        fn direct_solve_matches_the_cg_oracle_on_random_stacks(
            stack in prop::collection::vec(layer_strategy(), 1..7),
            power_layer in 0usize..6,
            nx in 2usize..34,
            ny in 2usize..34,
            width in 8.0f64..60.0,
            height in 8.0f64..60.0,
            convection in 0.02f64..2.0,
            chiplets in prop::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.05f64..0.5, 1.0f64..40.0),
                1..4,
            ),
        ) {
            let layers = stack
                .iter()
                .enumerate()
                .map(|(i, &(t, k))| Layer::new(format!("l{i}"), t, k))
                .collect::<Vec<_>>();
            let power_layer = power_layer % layers.len();
            let config = ThermalConfig {
                stack: LayerStack::new(layers, power_layer),
                convection_resistance_k_per_w: convection,
                ..ThermalConfig::with_grid(nx, ny)
            };
            let solver = GridThermalSolver::new(config);
            let mut sys = ChipletSystem::new("t", width, height);
            let mut positions = Vec::new();
            for (i, &(x, y, size, power)) in chiplets.iter().enumerate() {
                let (w, h) = (size * width, size * height);
                let id = sys.add_chiplet(Chiplet::new(format!("c{i}"), w, h, power));
                positions.push((id, Position::new(x * (width - w), y * (height - h))));
            }
            let mut placement = Placement::for_system(&sys);
            for (id, at) in positions {
                placement.place(id, at);
            }
            let power = PowerMap::rasterize(&sys, &placement, nx, ny);
            let direct = solver.solve_power_map(&sys, &power).unwrap();
            let oracle = solver.solve_power_map_cg(&sys, &power, 1e-12);
            let peak = oracle.delta_t.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            for (d, o) in direct.delta_t.iter().zip(&oracle.delta_t) {
                prop_assert!((d - o).abs() <= 1e-9 * peak, "direct {d} vs oracle {o}, peak {peak}");
            }
            let g = solver.conductance_matrix(width, height);
            let cells = nx * ny;
            let mut b = vec![0.0; g.rows()];
            b[power_layer * cells..][..cells].copy_from_slice(power.cells());
            let gx = g.matvec(&direct.delta_t).unwrap();
            let residual: Vec<f64> = gx.iter().zip(&b).map(|(p, q)| p - q).collect();
            prop_assert!(
                norm2(&residual) <= 1e-10 * norm2(&b),
                "‖Gx − b‖ = {} for ‖b‖ = {}",
                norm2(&residual),
                norm2(&b)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `chiplet_temperatures` solves the die layer alone, yet equals
        /// the temperatures read from a full solve bit for bit, whichever
        /// layer the power goes into and whichever chiplets are placed.
        #[test]
        fn die_layer_temperatures_equal_the_full_solve_bit_for_bit(
            power_on_top in any::<bool>(),
            nx in 2usize..20,
            ny in 2usize..20,
            chiplets in prop::collection::vec(
                (0.0f64..1.0, 0.0f64..1.0, 0.05f64..0.5, 0.0f64..40.0, any::<bool>()),
                1..5,
            ),
        ) {
            let stack = if power_on_top {
                LayerStack::new(LayerStack::default_2_5d().layers().to_vec(), 4)
            } else {
                LayerStack::new(
                    vec![Layer::new("die", 0.15, 120.0), Layer::new("sink", 2.0, 400.0)],
                    0,
                )
            };
            let config = ThermalConfig {
                stack,
                ..ThermalConfig::with_grid(nx, ny)
            };
            let (width, height) = (30.0, 24.0);
            let mut sys = ChipletSystem::new("t", width, height);
            let mut placed = Vec::new();
            for (i, &(x, y, size, power, place)) in chiplets.iter().enumerate() {
                let (w, h) = (size * width, size * height);
                let id = sys.add_chiplet(Chiplet::new(format!("c{i}"), w, h, power));
                if place {
                    placed.push((id, Position::new(x * (width - w), y * (height - h))));
                }
            }
            let mut placement = Placement::for_system(&sys);
            for (id, at) in placed {
                placement.place(id, at);
            }
            let bits = |temps: Vec<f64>| temps.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            for solver in [
                GridThermalSolver::new(config.clone()),
                GridThermalSolver::new(config).with_interposer(width, height),
            ] {
                let solution = solver.solve(&sys, &placement).unwrap();
                let full = solver.chiplet_temperatures_from_solution(&sys, &placement, &solution);
                let die = solver.chiplet_temperatures(&sys, &placement).unwrap();
                prop_assert_eq!(bits(die), bits(full));
            }
        }
    }

    #[test]
    fn power_maps_of_another_grid_size_are_rejected() {
        let (sys, p) = single_chiplet(30.0, Position::new(11.0, 11.0));
        let solver = small_solver();
        for (nx, ny, named) in [(8, 16, "8x16"), (16, 20, "16x20")] {
            let power = PowerMap::rasterize(&sys, &p, nx, ny);
            match solver.solve_power_map(&sys, &power) {
                Err(ThermalError::InvalidConfig { reason }) => {
                    assert!(
                        reason.contains(named) && reason.contains("16x16"),
                        "{reason}"
                    );
                }
                other => panic!("{nx}x{ny} map: {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let config = ThermalConfig::with_grid(1, 1);
        assert!(matches!(
            GridThermalSolver::try_new(config),
            Err(ThermalError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn analyzer_name_is_stable() {
        assert_eq!(small_solver().name(), "grid-thermal-solver");
    }
}
