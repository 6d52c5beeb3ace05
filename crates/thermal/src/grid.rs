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
//! `G` depends only on the configuration and the interposer outline, never
//! on the placement. A solver prepared for an outline assembles it once,
//! with its preconditioner, and every solve on that outline reuses both.
//! Conjugate gradient runs on the matrix-free [`LayeredStencil`] read out of
//! the assembled matrix, which reproduces its products bit for bit, and is
//! preconditioned by an [`AggregationMultigrid`] V-cycle built from the same
//! matrix. Where the hierarchy cannot be built (a layer with no
//! conductance leaves a zero pivot), CG falls back to [`Jacobi`].
//!
//! This solver plays the role of the open-source HotSpot simulator in the
//! paper's evaluation: it is the accuracy reference and the slow baseline
//! that the fast thermal model is characterised against.

use crate::config::ThermalConfig;
use crate::error::ThermalError;
use crate::power::PowerMap;
use crate::ThermalAnalyzer;
use rlp_chiplet::{ChipletSystem, Placement};
use rlp_linalg::solvers::{conjugate_gradient, CgOptions, LinearOperator, Preconditioner};
use rlp_linalg::{AggregationMultigrid, CooMatrix, CsrMatrix, Jacobi, LayeredStencil};
use std::fmt;
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
    /// Iterations used by the conjugate-gradient solve.
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

    /// Maximum temperature over the die layer, in degrees Celsius.
    pub fn max_die_temperature(&self) -> f64 {
        let base = self.power_layer * self.nx * self.ny;
        let slice = &self.delta_t[base..base + self.nx * self.ny];
        self.ambient_c + slice.iter().fold(0.0_f64, |acc, &v| acc.max(v))
    }

    /// The die-layer temperature field (row-major) in degrees Celsius.
    pub fn die_temperature_field(&self) -> Vec<f64> {
        let base = self.power_layer * self.nx * self.ny;
        self.delta_t[base..base + self.nx * self.ny]
            .iter()
            .map(|&v| self.ambient_c + v)
            .collect()
    }
}

/// The conductance operator of one interposer outline and its CG
/// preconditioner, assembled ahead of time and shared by every clone of
/// the solver.
struct PreparedOperator {
    /// Bit patterns of the interposer width and height it was assembled for.
    outline: (u64, u64),
    operator: Box<dyn LinearOperator + Send + Sync>,
    preconditioner: Box<dyn Preconditioner + Send + Sync>,
}

impl fmt::Debug for PreparedOperator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (width, height) = self.outline;
        write!(
            f,
            "PreparedOperator({}x{} mm)",
            f64::from_bits(width),
            f64::from_bits(height)
        )
    }
}

/// HotSpot-style steady-state grid solver.
#[derive(Debug, Clone)]
pub struct GridThermalSolver {
    config: ThermalConfig,
    cg_options: CgOptions,
    /// The operator assembled by [`GridThermalSolver::with_interposer`].
    prepared: Option<Arc<PreparedOperator>>,
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
            cg_options: CgOptions {
                tolerance: 1e-7,
                max_iterations: 50_000,
                ..CgOptions::default()
            },
            prepared: None,
        })
    }

    /// Assembles the conductance operator and its preconditioner for an
    /// interposer outline (mm) ahead of time. Solves of a system with
    /// exactly this outline reuse them; solves of any other outline
    /// assemble their own. The results are bit-identical either way.
    #[must_use]
    pub(crate) fn with_interposer(mut self, width_mm: f64, height_mm: f64) -> Self {
        self.prepared = Some(Arc::new(self.prepare(width_mm, height_mm)));
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
    /// Returns [`ThermalError::Solver`] if the conjugate-gradient solve fails.
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
    /// * [`ThermalError::Solver`] if the conjugate-gradient solve fails.
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
        let (width, height) = (system.interposer_width(), system.interposer_height());
        let fresh;
        let prepared = match &self.prepared {
            Some(prepared) if prepared.outline == (width.to_bits(), height.to_bits()) => prepared,
            _ => {
                fresh = self.prepare(width, height);
                &fresh
            }
        };
        self.solve_with(
            prepared.operator.as_ref(),
            prepared.preconditioner.as_ref(),
            power,
        )
    }

    /// The conductance matrix `G` of this package on an interposer of the
    /// given outline (mm). Node `layer * nx * ny + row * nx + col` is cell
    /// `(col, row)` of `layer`.
    fn conductance_matrix(&self, width_mm: f64, height_mm: f64) -> CsrMatrix {
        let nx = self.config.grid_nx;
        let ny = self.config.grid_ny;
        let layers = self.config.stack.layers();
        let n_layers = layers.len();
        let cells = nx * ny;
        let n = cells * n_layers;

        // Geometry in metres.
        let dx = width_mm / nx as f64 * 1e-3;
        let dy = height_mm / ny as f64 * 1e-3;
        let area = dx * dy;

        let node = |layer: usize, col: usize, row: usize| layer * cells + row * nx + col;

        let mut coo = CooMatrix::with_capacity(n, n, n * 7);
        let mut add_conductance = |a: usize, b: usize, g: f64| {
            coo.push(a, a, g);
            coo.push(b, b, g);
            coo.push(a, b, -g);
            coo.push(b, a, -g);
        };

        for (l, layer) in layers.iter().enumerate() {
            let t = layer.thickness_mm * 1e-3;
            let k = layer.conductivity_w_mk;
            let g_x = k * (dy * t) / dx;
            let g_y = k * (dx * t) / dy;
            for row in 0..ny {
                for col in 0..nx {
                    let here = node(l, col, row);
                    if col + 1 < nx {
                        add_conductance(here, node(l, col + 1, row), g_x);
                    }
                    if row + 1 < ny {
                        add_conductance(here, node(l, col, row + 1), g_y);
                    }
                    if l + 1 < n_layers {
                        let upper = &layers[l + 1];
                        let r = (t / 2.0) / (k * area)
                            + (upper.thickness_mm * 1e-3 / 2.0) / (upper.conductivity_w_mk * area);
                        add_conductance(here, node(l + 1, col, row), 1.0 / r);
                    }
                }
            }
        }

        // Convection from every top-layer cell to ambient (temperature rise 0).
        let g_conv = 1.0 / self.config.convection_resistance_k_per_w / cells as f64;
        let top = n_layers - 1;
        for row in 0..ny {
            for col in 0..nx {
                let i = node(top, col, row);
                coo.push(i, i, g_conv);
            }
        }

        let g = coo.to_csr();
        debug_assert!(g.is_symmetric(1e-9));
        g
    }

    /// `G` and its preconditioner in the form CG applies them. The operator
    /// is the matrix-free stencil, or the CSR itself when a zero
    /// conductance dropped entries that a stencil cannot represent.
    fn prepare(&self, width_mm: f64, height_mm: f64) -> PreparedOperator {
        let g = self.conductance_matrix(width_mm, height_mm);
        let (nx, ny) = (self.config.grid_nx, self.config.grid_ny);
        let preconditioner = self.preconditioner(&g);
        let operator: Box<dyn LinearOperator + Send + Sync> =
            match LayeredStencil::from_csr(&g, nx, ny, self.config.stack.layer_count()) {
                Some(stencil) => Box::new(stencil),
                None => Box::new(g),
            };
        PreparedOperator {
            outline: (width_mm.to_bits(), height_mm.to_bits()),
            operator,
            preconditioner,
        }
    }

    /// The preconditioner of `G`: the multigrid V-cycle, or Jacobi where
    /// the hierarchy cannot be built.
    fn preconditioner(&self, g: &CsrMatrix) -> Box<dyn Preconditioner + Send + Sync> {
        let (nx, ny) = (self.config.grid_nx, self.config.grid_ny);
        match AggregationMultigrid::from_csr(g, nx, ny, self.config.stack.layer_count()) {
            Some(multigrid) => Box::new(multigrid),
            None => Box::new(Jacobi::new(g)),
        }
    }

    /// Solves `G · ΔT = P` with the power map injected into the power layer.
    fn solve_with(
        &self,
        g: &dyn LinearOperator,
        preconditioner: &dyn Preconditioner,
        power: &PowerMap,
    ) -> Result<ThermalSolution, ThermalError> {
        let nx = self.config.grid_nx;
        let ny = self.config.grid_ny;
        let n_layers = self.config.stack.layer_count();
        let cells = nx * ny;

        let power_layer = self.config.stack.power_layer();
        let mut rhs = vec![0.0; cells * n_layers];
        rhs[power_layer * cells..][..cells].copy_from_slice(power.cells());

        let solution = conjugate_gradient(g, &rhs, preconditioner, &self.cg_options)?;

        Ok(ThermalSolution {
            nx,
            ny,
            layer_count: n_layers,
            ambient_c: self.config.ambient_c,
            delta_t: solution.x,
            power_layer,
            solver_iterations: solution.iterations,
        })
    }

    /// Solves on the assembled CSR matrix itself, bypassing the stencil and
    /// any prepared operator: the reference the exactness tests use. The
    /// preconditioner is built from that matrix like a prepared one, or is
    /// Jacobi when `jacobi` is set.
    #[cfg(test)]
    pub(crate) fn solve_power_map_csr(
        &self,
        system: &ChipletSystem,
        power: &PowerMap,
        jacobi: bool,
    ) -> Result<ThermalSolution, ThermalError> {
        let g = self.conductance_matrix(system.interposer_width(), system.interposer_height());
        if jacobi {
            self.solve_with(&g, &Jacobi::new(&g), power)
        } else {
            self.solve_with(&g, self.preconditioner(&g).as_ref(), power)
        }
    }

    /// Caps CG iterations, so tests can make solves fail.
    #[cfg(test)]
    pub(crate) fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.cg_options.max_iterations = max_iterations;
        self
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
        let nx = solution.nx();
        let ny = solution.ny();
        let cell_w = system.interposer_width() / nx as f64;
        let cell_h = system.interposer_height() / ny as f64;
        system
            .chiplet_ids()
            .map(|id| {
                let Some(rect) = placement.rect_of(id, system) else {
                    return self.config.ambient_c;
                };
                let col_lo = ((rect.x / cell_w).floor().max(0.0) as usize).min(nx - 1);
                let col_hi = (((rect.right() / cell_w).ceil() as usize).max(col_lo + 1)).min(nx);
                let row_lo = ((rect.y / cell_h).floor().max(0.0) as usize).min(ny - 1);
                let row_hi = (((rect.top() / cell_h).ceil() as usize).max(row_lo + 1)).min(ny);
                let mut max_t = f64::NEG_INFINITY;
                for row in row_lo..row_hi {
                    for col in col_lo..col_hi {
                        max_t = max_t.max(solution.die_temperature_at(col, row));
                    }
                }
                if max_t.is_finite() {
                    max_t
                } else {
                    self.config.ambient_c
                }
            })
            .collect()
    }
}

impl ThermalAnalyzer for GridThermalSolver {
    fn chiplet_temperatures(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Result<Vec<f64>, ThermalError> {
        let solution = self.solve(system, placement)?;
        Ok(self.chiplet_temperatures_from_solution(system, placement, &solution))
    }

    fn name(&self) -> &str {
        "grid-thermal-solver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LayerStack;
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
    fn prepared_stencil_solves_equal_per_solve_csr_solves_bit_for_bit() {
        let (sys, p) = single_chiplet(30.0, Position::new(7.0, 11.0));
        let fresh = GridThermalSolver::new(ThermalConfig::with_grid(16, 11));
        let prepared = fresh.clone().with_interposer(30.0, 30.0);
        let reference = fresh
            .solve_power_map_csr(&sys, &PowerMap::rasterize(&sys, &p, 16, 11), false)
            .unwrap();
        for solution in [
            fresh.solve(&sys, &p).unwrap(),
            prepared.solve(&sys, &p).unwrap(),
        ] {
            assert_eq!(delta_bits(&solution), delta_bits(&reference));
            assert_eq!(solution.solver_iterations, reference.solver_iterations);
        }
        // A system on another outline gets its own assembly, not the
        // prepared operator.
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
    fn a_zero_conductance_layer_solves_on_the_csr() {
        // A zero-conductivity interposer drops its matrix entries, which a
        // stencil cannot represent, so the solve keeps the assembled matrix.
        // Its nodes are left with a zero pivot, so no multigrid hierarchy
        // either: CG falls back to Jacobi.
        let mut layers = LayerStack::default_2_5d().layers().to_vec();
        layers[0].conductivity_w_mk = 0.0;
        let config = ThermalConfig {
            stack: LayerStack::new(layers, 1),
            ..ThermalConfig::with_grid(8, 8)
        };
        let solver = GridThermalSolver::new(config).with_interposer(30.0, 30.0);
        let g = solver.conductance_matrix(30.0, 30.0);
        assert!(LayeredStencil::from_csr(&g, 8, 8, 5).is_none());
        assert!(AggregationMultigrid::from_csr(&g, 8, 8, 5).is_none());
        let (sys, p) = single_chiplet(30.0, Position::new(11.0, 11.0));
        let solution = solver.solve(&sys, &p).unwrap();
        let reference = solver
            .solve_power_map_csr(&sys, &PowerMap::rasterize(&sys, &p, 8, 8), true)
            .unwrap();
        assert_eq!(delta_bits(&solution), delta_bits(&reference));
        assert!(solution.max_die_temperature() > solver.config().ambient_c + 1.0);
    }

    #[test]
    fn multigrid_takes_a_fraction_of_jacobi_iterations_to_the_same_field() {
        let (sys, p) = single_chiplet(30.0, Position::new(7.0, 11.0));
        let solver = GridThermalSolver::new(ThermalConfig::with_grid(16, 11));
        let power = PowerMap::rasterize(&sys, &p, 16, 11);
        let multigrid = solver.solve_power_map(&sys, &power).unwrap();
        let jacobi = solver.solve_power_map_csr(&sys, &power, true).unwrap();
        assert!(
            4 * multigrid.solver_iterations < jacobi.solver_iterations,
            "multigrid {} vs jacobi {} iterations",
            multigrid.solver_iterations,
            jacobi.solver_iterations
        );
        let peak = jacobi.max_die_temperature() - solver.config().ambient_c;
        for (m, j) in multigrid.delta_t.iter().zip(&jacobi.delta_t) {
            assert!((m - j).abs() <= 1e-6 * peak, "{m} vs {j}");
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
