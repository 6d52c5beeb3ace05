//! Direct solves of separable layered-grid operators by cosine transforms.
//!
//! A layered grid couples each node to its four lateral neighbours in the
//! same layer and to the nodes below and above it. When every layer's
//! lateral conductances are uniform, the sides are adiabatic and each
//! layer's conductance to the reference node is spread uniformly over its
//! cells, the operator is
//!
//! ```text
//! G = Σ_l e_l e_lᵀ ⊗ (gx_l·Lx + gy_l·Ly + s_l·I) + V ⊗ I
//! ```
//!
//! with `Lx`, `Ly` the path Laplacians of the rows and columns (Neumann
//! ends) and `V` the `layers×layers` tridiagonal vertical Laplacian. The
//! orthonormal DCT-II basis diagonalises both path Laplacians, so one 2-D
//! transform turns `G` into an independent tridiagonal system per lateral
//! mode `(kx, ky)`:
//!
//! ```text
//! T(kx, ky) = diag_l(gx_l·λx_kx + gy_l·λy_ky + s_l) + V
//! ```
//!
//! [`SpectralSolver`] inverts `G` exactly, up to rounding, for a right-hand
//! side confined to one layer: it keeps the column `T(kx, ky)⁻¹ e_source` of
//! every mode, so a solve is one forward transform of the source, then one
//! scaling and one inverse transform per layer it reads. The forward
//! transform skips zero source cells and rows, and
//! [`SpectralSolver::solve_layer`] transforms back one layer only. Every
//! sum runs in a fixed index order on the calling thread, so a solve is
//! bit-for-bit reproducible and a layer solve equals that layer of the
//! full solve bit for bit.
//!
//! A source that is the outer product of a row profile and a column profile
//! has modes that are the outer product of two 1-D transforms.
//! [`SpectralSolver::solve_separable_windows`] solves a set of such sources
//! from those 1-D transforms alone, sharing the work a column profile needs
//! across every row profile. It sums in another order, so its windows
//! agree with the matching cells of `solve_layer` to rounding, not bit for
//! bit.

use crate::error::SolveError;
use std::ops::Range;

/// The orthonormal DCT-II basis of the `n`-point path Laplacian with
/// Neumann ends (diagonal `1, 2, …, 2, 1`, off-diagonals `−1`).
///
/// Column `k` is the eigenvector `q_k(i) = c_k·cos(πk(i + ½)/n)` with
/// eigenvalue `2 − 2cos(πk/n)`, where `c_0 = √(1/n)` and `c_k = √(2/n)`.
#[derive(Clone, PartialEq)]
struct CosineBasis {
    n: usize,
    /// `q[i * n + k] = q_k(i)`: row `i` holds every mode at point `i`.
    q: Vec<f64>,
    /// `q_t[k * n + i] = q_k(i)`: row `k` is mode `k` over every point.
    q_t: Vec<f64>,
    eigenvalues: Vec<f64>,
}

impl CosineBasis {
    /// The basis of an `n`-point path.
    fn new(n: usize) -> Self {
        let norm = |k: usize| (if k == 0 { 1.0 } else { 2.0 } / n as f64).sqrt();
        let mut q = vec![0.0; n * n];
        let mut q_t = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                let angle = std::f64::consts::PI * k as f64 * (i as f64 + 0.5) / n as f64;
                let value = norm(k) * angle.cos();
                q[i * n + k] = value;
                q_t[k * n + i] = value;
            }
        }
        let eigenvalues = (0..n)
            .map(|k| 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos())
            .collect();
        Self {
            n,
            q,
            q_t,
            eigenvalues,
        }
    }

    /// The 1-D transform `Qᵀ·v` of an `n`-point profile, each mode summed
    /// over the points in increasing order, zero points skipped; also
    /// checks `window` against the path.
    fn project(&self, v: &[f64], window: &Range<usize>) -> Vec<f64> {
        let n = self.n;
        assert!(
            v.len() == n && window.start < window.end && window.end <= n,
            "separable source: {} points and window {window:?} on a {n}-point path",
            v.len()
        );
        let mut modes = vec![0.0; n];
        for (&s, basis_row) in v.iter().zip(self.q.chunks_exact(n)) {
            if s == 0.0 {
                continue;
            }
            for (m, &q) in modes.iter_mut().zip(basis_row) {
                *m += q * s;
            }
        }
        modes
    }
}

/// Conductances of a layered grid of `nx`×`ny` cells per layer whose every
/// layer is uniform: the operator [`SpectralSolver`] inverts.
///
/// Nodes are numbered layer-major, then row-major:
/// `node = layer * nx * ny + row * nx + col`. Layer 0 is the bottom.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredGrid {
    /// Cells along a row (the west/east direction).
    pub nx: usize,
    /// Cells along a column (the south/north direction).
    pub ny: usize,
    /// Per layer, the conductance between west/east neighbours.
    pub west_east: Vec<f64>,
    /// Per layer, the conductance between south/north neighbours.
    pub south_north: Vec<f64>,
    /// Per cell, the conductance between layer `l` and layer `l + 1`
    /// (one entry fewer than there are layers).
    pub vertical: Vec<f64>,
    /// Per layer, the conductance from each cell to the zero-potential
    /// reference node.
    pub to_reference: Vec<f64>,
}

impl LayeredGrid {
    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.west_east.len()
    }
}

/// The exact inverse of a [`LayeredGrid`] operator, applied to right-hand
/// sides confined to one source layer.
#[derive(Clone, PartialEq)]
pub struct SpectralSolver {
    x_basis: CosineBasis,
    y_basis: CosineBasis,
    layers: usize,
    source_layer: usize,
    /// `response[l * cells + ky * nx + kx]`: entry `l` of
    /// `T(kx, ky)⁻¹ e_source`.
    response: Vec<f64>,
}

impl std::fmt::Debug for SpectralSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpectralSolver")
            .field("nx", &self.x_basis.n)
            .field("ny", &self.y_basis.n)
            .field("layers", &self.layers)
            .field("source_layer", &self.source_layer)
            .finish_non_exhaustive()
    }
}

impl SpectralSolver {
    /// Prepares the solver of `grid` for sources in `source_layer`: both
    /// cosine bases and the response column of every lateral mode.
    ///
    /// # Errors
    ///
    /// * [`SolveError::DimensionMismatch`] if the grid has no cells or no
    ///   layers, its per-layer vectors disagree in length, or
    ///   `source_layer` is not one of its layers.
    /// * [`SolveError::SingularMatrix`] if a mode's tridiagonal system
    ///   has a pivot that is not positive and finite: the operator is not
    ///   positive definite (a layer cut off from the reference, say).
    ///   `pivot` is the node `layer * nx * ny + mode` it broke down at.
    pub fn new(grid: &LayeredGrid, source_layer: usize) -> Result<Self, SolveError> {
        let layers = grid.layers();
        let shape_ok = grid.nx > 0
            && grid.ny > 0
            && layers > 0
            && grid.south_north.len() == layers
            && grid.to_reference.len() == layers
            && grid.vertical.len() + 1 == layers
            && source_layer < layers;
        if !shape_ok {
            return Err(SolveError::DimensionMismatch {
                expected: format!(
                    "a non-empty grid with {layers} entries per layer, {} vertical \
                     conductances and a source layer below {layers}",
                    layers.saturating_sub(1)
                ),
                found: format!(
                    "{}x{} cells, {}/{}/{} west-east/south-north/reference entries, {} \
                     vertical, source layer {source_layer}",
                    grid.nx,
                    grid.ny,
                    layers,
                    grid.south_north.len(),
                    grid.to_reference.len(),
                    grid.vertical.len()
                ),
            });
        }
        let x_basis = CosineBasis::new(grid.nx);
        let y_basis = CosineBasis::new(grid.ny);
        let cells = grid.nx * grid.ny;
        let mut response = vec![0.0; layers * cells];
        let mut diagonal = vec![0.0; layers];
        let mut column = vec![0.0; layers];
        let mut scratch = vec![0.0; layers];
        for (ky, &lambda_y) in y_basis.eigenvalues.iter().enumerate() {
            for (kx, &lambda_x) in x_basis.eigenvalues.iter().enumerate() {
                for (l, d) in diagonal.iter_mut().enumerate() {
                    let below = if l > 0 { grid.vertical[l - 1] } else { 0.0 };
                    let above = grid.vertical.get(l).copied().unwrap_or(0.0);
                    *d = grid.west_east[l] * lambda_x
                        + grid.south_north[l] * lambda_y
                        + grid.to_reference[l]
                        + below
                        + above;
                }
                column.fill(0.0);
                column[source_layer] = 1.0;
                let mode = ky * grid.nx + kx;
                solve_tridiagonal(&grid.vertical, &diagonal, &mut column, &mut scratch).map_err(
                    |l| SolveError::SingularMatrix {
                        pivot: l * cells + mode,
                    },
                )?;
                for (l, &r) in column.iter().enumerate() {
                    response[l * cells + mode] = r;
                }
            }
        }
        Ok(Self {
            x_basis,
            y_basis,
            layers,
            source_layer,
            response,
        })
    }

    /// Solves `G x = b`, where `b` is `source` (row-major, `nx * ny`
    /// cells) in the source layer and zero elsewhere. Returns every node of
    /// `x`, layer-major: [`SpectralSolver::solve_layer`] over every layer.
    ///
    /// # Panics
    ///
    /// Panics if `source.len() != nx * ny`.
    pub fn solve(&self, source: &[f64]) -> Vec<f64> {
        let modes = self.forward(source);
        let mut x = Vec::with_capacity(self.layers * modes.len());
        for layer in 0..self.layers {
            x.extend(self.inverse(&modes, layer));
        }
        x
    }

    /// Solves `G x = b` as [`SpectralSolver::solve`] does, but transforms
    /// back only `layer`. Returns its `nx * ny` cells row-major, each
    /// bit-identical to its node in `solve`'s result.
    ///
    /// # Panics
    ///
    /// Panics if `source.len() != nx * ny` or `layer` is not a layer of the
    /// grid.
    pub fn solve_layer(&self, source: &[f64], layer: usize) -> Vec<f64> {
        assert!(
            layer < self.layers,
            "solve_layer: layer {layer} outside the grid"
        );
        self.inverse(&self.forward(source), layer)
    }

    /// Solves `G x = b` for every separable source `oy ⊗ ox`, the
    /// `source[y * nx + x] = oy[y]·ox[x]` of one `(oy, rows)` of `rows` and
    /// one `(ox, cols)` of `columns`, and hands `visit(i, j, window)` the
    /// cells of `layer` in that pair's grid rows and columns, row-major, for
    /// `rows[i]` and `columns[j]`, `i` outer.
    ///
    /// The source's modes are the outer product `a[ky]·b[kx]` of the 1-D
    /// transforms `a = Qyᵀ·oy` and `b = Qxᵀ·ox`, so with the layer's
    /// response `H` a window cell is `Σ_ky (qy[y][ky]·a[ky])·C[ky][x]`,
    /// where `C[ky][x] = Σ_kx (H[ky][kx]·b[kx])·qx[x][kx]` depends on the
    /// column profile alone and is built once for every row profile. Each
    /// sum runs in increasing index order and zero overlaps are skipped. The
    /// order is not [`SpectralSolver::solve_layer`]'s, so a window agrees
    /// with the rasterised source's solve to rounding, not bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not a layer of the grid, an `ox` is not `nx`
    /// long or an `oy` not `ny` long, or a range is empty or reaches past
    /// the grid.
    pub fn solve_separable_windows(
        &self,
        layer: usize,
        rows: &[(Vec<f64>, Range<usize>)],
        columns: &[(Vec<f64>, Range<usize>)],
        mut visit: impl FnMut(usize, usize, &[f64]),
    ) {
        let (nx, ny) = (self.x_basis.n, self.y_basis.n);
        assert!(
            layer < self.layers,
            "solve_separable_windows: layer {layer} outside the grid"
        );
        let response = &self.response[layer * nx * ny..][..nx * ny];
        // Per column profile, `C` over its columns: `c[ky * cols.len() + i]`
        // for column `cols.start + i`.
        let cs: Vec<Vec<f64>> = columns
            .iter()
            .map(|(ox, cols)| {
                let b = self.x_basis.project(ox, cols);
                let mut c = vec![0.0; ny * cols.len()];
                for (h_row, c_row) in response
                    .chunks_exact(nx)
                    .zip(c.chunks_exact_mut(cols.len()))
                {
                    for ((&h, &b), mode) in
                        h_row.iter().zip(&b).zip(self.x_basis.q_t.chunks_exact(nx))
                    {
                        let hb = h * b;
                        for (o, &q) in c_row.iter_mut().zip(&mode[cols.clone()]) {
                            *o += hb * q;
                        }
                    }
                }
                c
            })
            .collect();
        let mut weights = Vec::new();
        let mut window = Vec::new();
        for (i, (oy, window_rows)) in rows.iter().enumerate() {
            // `qy[y][ky]·a[ky]` for every row `y` of the window.
            let a = self.y_basis.project(oy, window_rows);
            weights.clear();
            for y in window_rows.clone() {
                let basis_row = &self.y_basis.q[y * ny..][..ny];
                weights.extend(basis_row.iter().zip(&a).map(|(&q, &a)| q * a));
            }
            for (j, ((_, cols), c)) in columns.iter().zip(&cs).enumerate() {
                window.clear();
                window.resize(window_rows.len() * cols.len(), 0.0);
                for (row_weights, out) in weights
                    .chunks_exact(ny)
                    .zip(window.chunks_exact_mut(cols.len()))
                {
                    for (&w, c_row) in row_weights.iter().zip(c.chunks_exact(cols.len())) {
                        for (o, &c) in out.iter_mut().zip(c_row) {
                            *o += w * c;
                        }
                    }
                }
                visit(i, j, &window);
            }
        }
    }

    /// The forward transform `Qyᵀ · S · Qx` of the ny×nx source map: along
    /// each row first, then along each column.
    ///
    /// Zero source cells and all-zero source rows are skipped. Their terms
    /// are `±0`, and adding `±0` to a partial sum that starts at `+0` never
    /// changes its bits, so the modes equal the full transform's bit for bit.
    fn forward(&self, source: &[f64]) -> Vec<f64> {
        let (nx, ny) = (self.x_basis.n, self.y_basis.n);
        let cells = nx * ny;
        assert_eq!(source.len(), cells, "solve: source length mismatch");
        let mut rows = vec![0.0; cells];
        let mut modes = vec![0.0; cells];
        for (y, (row, out)) in source
            .chunks_exact(nx)
            .zip(rows.chunks_exact_mut(nx))
            .enumerate()
        {
            if row.iter().all(|&s| s == 0.0) {
                continue;
            }
            for (&s, basis_row) in row.iter().zip(self.x_basis.q.chunks_exact(nx)) {
                if s == 0.0 {
                    continue;
                }
                for (o, &q) in out.iter_mut().zip(basis_row) {
                    *o += s * q;
                }
            }
            // Every mode row accumulates the source rows in increasing `y`.
            for (mode_row, &q) in modes
                .chunks_exact_mut(nx)
                .zip(&self.y_basis.q[y * ny..][..ny])
            {
                for (o, &r) in mode_row.iter_mut().zip(&*out) {
                    *o += q * r;
                }
            }
        }
        modes
    }

    /// The field of `layer` (row-major): every mode scaled by its
    /// response, then transformed back with `Qy · (·) · Qxᵀ`.
    fn inverse(&self, modes: &[f64], layer: usize) -> Vec<f64> {
        let (nx, ny) = (self.x_basis.n, self.y_basis.n);
        let cells = nx * ny;
        let scaled: Vec<f64> = modes
            .iter()
            .zip(&self.response[layer * cells..][..cells])
            .map(|(&m, &r)| m * r)
            .collect();
        let mut partial = vec![0.0; cells];
        let mut field = vec![0.0; cells];
        for (y, out) in partial.chunks_exact_mut(nx).enumerate() {
            for (mode_row, &q) in scaled.chunks_exact(nx).zip(&self.y_basis.q[y * ny..][..ny]) {
                for (o, &m) in out.iter_mut().zip(mode_row) {
                    *o += q * m;
                }
            }
        }
        for (row, out) in partial.chunks_exact(nx).zip(field.chunks_exact_mut(nx)) {
            for (&r, mode) in row.iter().zip(self.x_basis.q_t.chunks_exact(nx)) {
                for (o, &q) in out.iter_mut().zip(mode) {
                    *o += r * q;
                }
            }
        }
        field
    }
}

/// Solves the symmetric tridiagonal system with `diagonal` and the
/// off-diagonal `−off[l]` between unknowns `l` and `l + 1` in place
/// (Thomas algorithm), using `scratch` (as long as `rhs`) for the
/// eliminated super-diagonal.
///
/// Returns the index of the first pivot that is not positive and finite.
fn solve_tridiagonal(
    off: &[f64],
    diagonal: &[f64],
    rhs: &mut [f64],
    scratch: &mut [f64],
) -> Result<(), usize> {
    let n = diagonal.len();
    let mut previous = 0.0;
    for l in 0..n {
        let coupling = if l > 0 { -off[l - 1] } else { 0.0 };
        let pivot = diagonal[l] - coupling * previous;
        if !(pivot > 0.0 && pivot.is_finite()) {
            return Err(l);
        }
        previous = if l + 1 < n { -off[l] / pivot } else { 0.0 };
        scratch[l] = previous;
        let carried = if l > 0 { coupling * rhs[l - 1] } else { 0.0 };
        rhs[l] = (rhs[l] - carried) / pivot;
    }
    for l in (0..n.saturating_sub(1)).rev() {
        rhs[l] -= scratch[l] * rhs[l + 1];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use proptest::prelude::*;

    fn path_laplacian(n: usize, i: usize, j: usize) -> f64 {
        if i == j {
            let ends = usize::from(i > 0) + usize::from(i + 1 < n);
            ends as f64
        } else if i.abs_diff(j) == 1 {
            -1.0
        } else {
            0.0
        }
    }

    #[test]
    fn cosine_basis_is_orthonormal_and_diagonalises_the_path_laplacian() {
        for n in [1, 2, 3, 7, 16] {
            let basis = CosineBasis::new(n);
            for a in 0..n {
                for b in 0..n {
                    let gram: f64 = (0..n)
                        .map(|i| basis.q[i * n + a] * basis.q[i * n + b])
                        .sum();
                    let expected = if a == b { 1.0 } else { 0.0 };
                    assert!((gram - expected).abs() < 1e-14, "n {n}, modes {a},{b}");
                }
                // L q_a = λ_a q_a, point by point.
                for i in 0..n {
                    let lq: f64 = (0..n)
                        .map(|j| path_laplacian(n, i, j) * basis.q[j * n + a])
                        .sum();
                    let lambda_q = basis.eigenvalues[a] * basis.q[i * n + a];
                    assert!((lq - lambda_q).abs() < 1e-13, "n {n}, mode {a}, point {i}");
                }
            }
        }
    }

    #[test]
    fn tridiagonal_solve_inverts_the_system_and_reports_bad_pivots() {
        let off = [0.5, 2.0, 1.0];
        let diagonal = [1.0, 3.0, 4.0, 2.0];
        let x_true = [1.0, -2.0, 0.5, 3.0];
        let mut rhs: Vec<f64> = (0..4)
            .map(|l| {
                let below = if l > 0 {
                    -off[l - 1] * x_true[l - 1]
                } else {
                    0.0
                };
                let above = if l < 3 { -off[l] * x_true[l + 1] } else { 0.0 };
                diagonal[l] * x_true[l] + below + above
            })
            .collect();
        let mut scratch = [0.0; 4];
        solve_tridiagonal(&off, &diagonal, &mut rhs, &mut scratch).unwrap();
        for (x, t) in rhs.iter().zip(x_true) {
            assert!((x - t).abs() < 1e-12, "{x} vs {t}");
        }
        // A chain with no tie to the reference is singular: the last pivot
        // of its zero mode vanishes.
        let mut rhs = [1.0, 0.0];
        assert_eq!(
            solve_tridiagonal(&[1.0], &[1.0, 1.0], &mut rhs, &mut scratch),
            Err(1)
        );
    }

    #[test]
    fn malformed_grids_and_singular_operators_are_refused() {
        let grid = LayeredGrid {
            nx: 3,
            ny: 2,
            west_east: vec![1.0, 1.0],
            south_north: vec![1.0, 1.0],
            vertical: vec![2.0],
            to_reference: vec![0.0, 0.5],
        };
        assert!(SpectralSolver::new(&grid, 1).is_ok());
        assert!(matches!(
            SpectralSolver::new(&grid, 2),
            Err(SolveError::DimensionMismatch { .. })
        ));
        let short = LayeredGrid {
            vertical: vec![],
            ..grid.clone()
        };
        assert!(matches!(
            SpectralSolver::new(&short, 0),
            Err(SolveError::DimensionMismatch { .. })
        ));
        // Nothing leaves the grid: mode (0, 0) of the top layer is singular.
        let floating = LayeredGrid {
            to_reference: vec![0.0, 0.0],
            ..grid.clone()
        };
        assert_eq!(
            SpectralSolver::new(&floating, 0),
            Err(SolveError::SingularMatrix { pivot: 6 })
        );
        // A layer cut off from the others is singular too.
        let cut = LayeredGrid {
            vertical: vec![0.0],
            ..grid
        };
        assert!(matches!(
            SpectralSolver::new(&cut, 0),
            Err(SolveError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn debug_output_stays_short() {
        let grid = LayeredGrid {
            nx: 16,
            ny: 16,
            west_east: vec![1.0; 3],
            south_north: vec![1.0; 3],
            vertical: vec![1.0; 2],
            to_reference: vec![0.0, 0.0, 1.0],
        };
        let text = format!("{:?}", SpectralSolver::new(&grid, 1).unwrap());
        assert!(text.len() < 120, "{text}");
        assert!(text.contains("nx: 16") && text.contains("source_layer: 1"));
    }

    #[test]
    fn a_unit_source_in_every_cell_of_a_tied_layer_raises_every_cell_by_one() {
        // One layer of 2×2 cells, each tied to the reference by `1.0`.
        let grid = LayeredGrid {
            nx: 2,
            ny: 2,
            west_east: vec![3.0],
            south_north: vec![5.0],
            vertical: vec![],
            to_reference: vec![1.0],
        };
        let solver = SpectralSolver::new(&grid, 0).unwrap();
        for x in solver.solve(&[1.0; 4]) {
            assert!((x - 1.0).abs() < 1e-12);
        }
    }

    /// An `nx`×`ny`×`layers` grid from `g`: one west/east, one south/north
    /// and one upward conductance per layer, then the convection of the
    /// top layer.
    fn layered_grid(nx: usize, ny: usize, layers: usize, g: &[f64]) -> LayeredGrid {
        let per_layer = |offset: usize| (0..layers).map(|l| g[3 * l + offset]).collect();
        let mut to_reference = vec![0.0; layers];
        to_reference[layers - 1] = g[3 * layers];
        LayeredGrid {
            nx,
            ny,
            west_east: per_layer(0),
            south_north: per_layer(1),
            vertical: (0..layers - 1).map(|l| g[3 * l + 2]).collect(),
            to_reference,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The spectral solve inverts the assembled layered-grid matrix to
        /// rounding, for a source in any layer: the residual under the CSR is
        /// at most 1e-10·‖b‖.
        #[test]
        fn spectral_solve_inverts_the_assembled_layered_grid(
            nx in 1usize..12,
            ny in 1usize..12,
            layers in 1usize..7,
            source_layer in 0usize..6,
            conductances in prop::collection::vec(0.01f64..500.0, 19),
            values in prop::collection::vec(-10.0f64..10.0, 11 * 11),
        ) {
            let source_layer = source_layer % layers;
            let grid = layered_grid(nx, ny, layers, &conductances);
            let a = oracle::assemble(&grid);
            let solver = SpectralSolver::new(&grid, source_layer).unwrap();
            let cells = nx * ny;
            let source = &values[..cells];
            let x = solver.solve(source);
            let mut b = vec![0.0; cells * layers];
            b[source_layer * cells..][..cells].copy_from_slice(source);
            let ax = a.matvec(&x).unwrap();
            let residual: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
            prop_assert!(
                oracle::norm2(&residual) <= 1e-10 * oracle::norm2(&b),
                "‖Ax − b‖ = {} for ‖b‖ = {}", oracle::norm2(&residual), oracle::norm2(&b)
            );
        }

        /// Every separable window agrees, cell by cell, with a windowed solve
        /// of the outer-product source: within 1e-12 of the layer's largest
        /// rise, for profiles with zero entries on any grid, layer and
        /// window, visited in `rows`-major order.
        #[test]
        fn separable_windows_match_windowed_solves_of_the_outer_product(
            nx in 1usize..=17,
            ny in 1usize..=17,
            layers in 1usize..5,
            source_layer in 0usize..4,
            layer in 0usize..4,
            conductances in prop::collection::vec(0.01f64..500.0, 13),
            x_profiles in prop::collection::vec(
                (prop::collection::vec(0.0f64..2.0, 17), 0usize..17, 1usize..=17), 1..4),
            y_profiles in prop::collection::vec(
                (prop::collection::vec(0.0f64..2.0, 17), 0usize..17, 1usize..=17), 1..4),
            zero_below in 0.0f64..1.0,
        ) {
            let (source_layer, layer) = (source_layer % layers, layer % layers);
            let grid = layered_grid(nx, ny, layers, &conductances);
            let solver = SpectralSolver::new(&grid, source_layer).unwrap();
            // Profiles with their small entries zeroed, each with a window.
            let profiles = |raw: &[(Vec<f64>, usize, usize)], n: usize| {
                raw.iter()
                    .map(|(values, start, len)| {
                        let profile = values[..n]
                            .iter()
                            .map(|&v| if v < zero_below { 0.0 } else { v })
                            .collect();
                        (profile, start % n..(start % n + len).min(n))
                    })
                    .collect::<Vec<(Vec<f64>, Range<usize>)>>()
            };
            let (rows, columns) = (profiles(&y_profiles, ny), profiles(&x_profiles, nx));
            let mut visited = Vec::new();
            let mut failure = None;
            solver.solve_separable_windows(layer, &rows, &columns, |i, j, window| {
                visited.push((i, j));
                let ((oy, window_rows), (ox, cols)) = (&rows[i], &columns[j]);
                let source: Vec<f64> =
                    oy.iter().flat_map(|&y| ox.iter().map(move |&x| y * x)).collect();
                let field = solver.solve_layer(&source, layer);
                let expected: Vec<f64> = window_rows
                    .clone()
                    .flat_map(|y| &field[y * nx..][cols.clone()])
                    .copied()
                    .collect();
                let scale = field.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                if window.len() != expected.len()
                    || window.iter().zip(&expected).any(|(w, e)| (w - e).abs() > 1e-12 * scale)
                {
                    failure.get_or_insert(format!("pair ({i}, {j}): {window:?} vs {expected:?}"));
                }
            });
            prop_assert!(failure.is_none(), "{}", failure.unwrap_or_default());
            let order: Vec<(usize, usize)> = (0..rows.len())
                .flat_map(|i| (0..columns.len()).map(move |j| (i, j)))
                .collect();
            prop_assert_eq!(visited, order);
        }

        /// A window cropped from a single-layer solve equals the matching
        /// slice of the full solve bit for bit, for sources with all-zero rows
        /// and columns and for an all-zero source.
        #[test]
        fn windowed_solves_equal_the_full_solve_bit_for_bit(
            nx in 1usize..=33,
            ny in 1usize..=33,
            layers in 1usize..7,
            source_layer in 0usize..6,
            conductances in prop::collection::vec(0.01f64..500.0, 19),
            values in prop::collection::vec(-10.0f64..10.0, 33 * 33),
            zero_rows in prop::collection::vec(any::<bool>(), 33),
            zero_cols in prop::collection::vec(any::<bool>(), 33),
            windows in prop::collection::vec((0usize..33, 0usize..33, 1usize..=33, 1usize..=33), 1..4),
        ) {
            let source_layer = source_layer % layers;
            let grid = layered_grid(nx, ny, layers, &conductances);
            let solver = SpectralSolver::new(&grid, source_layer).unwrap();
            let cells = nx * ny;
            let sparse: Vec<f64> = (0..cells)
                .map(|i| {
                    let (row, col) = (i / nx, i % nx);
                    if zero_rows[row] || zero_cols[col] { 0.0 } else { values[i] }
                })
                .collect();
            for source in [sparse, vec![0.0; cells]] {
                let full = solver.solve(&source);
                let fields: Vec<Vec<f64>> =
                    (0..layers).map(|layer| solver.solve_layer(&source, layer)).collect();
                for &(row, col, height, width) in windows.iter().chain([&(0, 0, 33, 33)]) {
                    let rows = row % ny..(row % ny + height).min(ny);
                    let cols = col % nx..(col % nx + width).min(nx);
                    for (layer, field) in fields.iter().enumerate() {
                        let window = rows.clone().flat_map(|y| &field[y * nx..][cols.clone()]);
                        let expected = rows.clone().flat_map(|y| {
                            let start = layer * cells + y * nx;
                            full[start + cols.start..start + cols.end].iter()
                        });
                        prop_assert!(
                            window.map(|v| v.to_bits()).eq(expected.map(|v| v.to_bits())),
                            "layer {layer}, rows {rows:?}, cols {cols:?}"
                        );
                    }
                }
            }
        }
    }
}
