//! Aggregation multigrid for layered grids.
//!
//! The grid thermal operator couples a thin stack of layers strongly in
//! `z` and weakly (through the heat sink and convection) to ambient. A
//! point smoother such as Jacobi damps the oscillatory modes of such a
//! system but not its smooth lateral ones, so Jacobi-preconditioned CG
//! needs a hundred or more iterations. [`AggregationMultigrid`] is one
//! symmetric V(1,1)-cycle over a hierarchy built for exactly this shape:
//!
//! * **Coarsening:** 2×2 lateral aggregates per layer (ceil aggregation,
//!   so odd grids coarsen too); every layer is kept at every level.
//! * **Coarse operators:** Galerkin products `PᵀAP` with the piecewise
//!   constant aggregation `P`. A 7-point operator stays 7-point, so every
//!   level is stored as a diagonal and three per-node coupling vectors.
//! * **Smoother:** damped z-line Jacobi: one tridiagonal (Thomas) solve
//!   per grid column, weighted by ω = 0.8. Pre-smoothing starts from zero
//!   and post-smoothing applies the same operator, so the cycle is a
//!   symmetric positive definite preconditioner.
//! * **Coarsest level:** at most 16 cells per layer, factored once by a
//!   banded Cholesky decomposition.
//!
//! The hierarchy is built from an assembled [`CsrMatrix`], so every
//! operator that reproduces that matrix (the CSR itself, or the
//! [`crate::LayeredStencil`] read out of it) solves with the same
//! preconditioner and stays bit-identical to it.

use crate::solvers::Preconditioner;
use crate::sparse::CsrMatrix;

/// Damping weight of the z-line smoother. Undamped (`1.0`) line Jacobi
/// over-corrects the lateral modes and roughly triples the CG iterations.
const OMEGA: f64 = 0.8;

/// Largest number of cells per layer that the coarsest level may have.
const COARSEST_CELLS: usize = 16;

/// A symmetric 7-point operator on an `nx`×`ny`×`layers` grid, numbered
/// layer-major then row-major, stored as its diagonal and the coupling of
/// every node to its west, south and lower neighbour.
#[derive(Clone)]
struct Operator {
    nx: usize,
    ny: usize,
    layers: usize,
    diag: Vec<f64>,
    /// Coupling of node `i` to `i - 1` (zero in the first column).
    west: Vec<f64>,
    /// Coupling of node `i` to `i - nx` (zero in the first row).
    south: Vec<f64>,
    /// Coupling of node `i` to the node below it (zero in the first layer).
    below: Vec<f64>,
}

impl Operator {
    /// Reads the lower triangle of a symmetric 7-point matrix. `None` if
    /// the matrix stores any other entry or is not symmetric bit for bit.
    fn from_csr(a: &CsrMatrix, nx: usize, ny: usize, layers: usize) -> Option<Self> {
        let cells = nx.checked_mul(ny)?;
        let n = cells.checked_mul(layers)?;
        if n == 0 || a.rows() != n || a.cols() != n {
            return None;
        }
        let mut op = Self::zeros(nx, ny, layers);
        for i in 0..n {
            let (l, row, col) = (i / cells, i % cells / nx, i % nx);
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j != i && a.get(j, i).to_bits() != v.to_bits() {
                    return None;
                }
                // An upper entry mirrors a lower entry of row `j`, which
                // that row's own pass checks is a grid neighbour.
                let slot = if j == i {
                    &mut op.diag[i]
                } else if j > i {
                    continue;
                } else if col > 0 && j == i - 1 {
                    &mut op.west[i]
                } else if row > 0 && j == i - nx {
                    &mut op.south[i]
                } else if l > 0 && j == i - cells {
                    &mut op.below[i]
                } else {
                    return None;
                };
                *slot = v;
            }
        }
        Some(op)
    }

    fn zeros(nx: usize, ny: usize, layers: usize) -> Self {
        let n = nx * ny * layers;
        Self {
            nx,
            ny,
            layers,
            diag: vec![0.0; n],
            west: vec![0.0; n],
            south: vec![0.0; n],
            below: vec![0.0; n],
        }
    }

    fn len(&self) -> usize {
        self.diag.len()
    }

    fn cells(&self) -> usize {
        self.nx * self.ny
    }

    /// The Galerkin operator `PᵀAP` of the next coarser level.
    fn galerkin(&self) -> Self {
        let mut coarse = Self::zeros(self.nx.div_ceil(2), self.ny.div_ceil(2), self.layers);
        let cells = self.cells();
        for i in 0..self.len() {
            let (l, row, col) = (i / cells, i % cells / self.nx, i % self.nx);
            let c = self.coarse_row(i / self.nx) + col / 2;
            coarse.diag[c] += self.diag[i];
            // A coupling inside an aggregate lands on its diagonal twice
            // (once from each side); one across aggregates couples them.
            if col > 0 {
                if col % 2 == 1 {
                    coarse.diag[c] += 2.0 * self.west[i];
                } else {
                    coarse.west[c] += self.west[i];
                }
            }
            if row > 0 {
                if row % 2 == 1 {
                    coarse.diag[c] += 2.0 * self.south[i];
                } else {
                    coarse.south[c] += self.south[i];
                }
            }
            if l > 0 {
                coarse.below[c] += self.below[i];
            }
        }
        coarse
    }

    /// `res = b - A x`, as one pass per coupling direction.
    fn residual(&self, b: &[f64], x: &[f64], res: &mut [f64]) {
        let n = self.len();
        for (((r, &bi), &d), &xi) in res.iter_mut().zip(b).zip(&self.diag).zip(x) {
            *r = bi - d * xi;
        }
        // A coupling `w[i]` between nodes `i - offset` and `i` enters both
        // rows. It is zero where node `i` has no such neighbour (the first
        // column, row or layer), so every pass runs over whole slices.
        for (w, offset) in [
            (&self.west, 1),
            (&self.south, self.nx),
            (&self.below, self.cells()),
        ] {
            if offset >= n {
                continue;
            }
            let w = &w[offset..];
            for ((r, &wi), &xj) in res[offset..].iter_mut().zip(w).zip(&x[..n - offset]) {
                *r -= wi * xj;
            }
            for ((r, &wi), &xi) in res[..n - offset].iter_mut().zip(w).zip(&x[offset..]) {
                *r -= wi * xi;
            }
        }
    }

    /// Start of the coarse row that fine row `r` (counted over all
    /// layers) aggregates into: node `(col, r)` belongs to aggregate
    /// `coarse_row(r) + col / 2`. This is the whole of `P`.
    fn coarse_row(&self, r: usize) -> usize {
        let (l, row) = (r / self.ny, r % self.ny);
        (l * self.ny.div_ceil(2) + row / 2) * self.nx.div_ceil(2)
    }

    /// `coarse = Pᵀ fine`: each aggregate sums its nodes.
    fn restrict(&self, fine: &[f64], coarse: &mut [f64]) {
        coarse.fill(0.0);
        for (r, fine_row) in fine.chunks_exact(self.nx).enumerate() {
            let coarse_row = &mut coarse[self.coarse_row(r)..];
            for (col, &f) in fine_row.iter().enumerate() {
                coarse_row[col / 2] += f;
            }
        }
    }

    /// `fine += P coarse`: each node takes its aggregate's value.
    fn prolong_add(&self, coarse: &[f64], fine: &mut [f64]) {
        for (r, fine_row) in fine.chunks_exact_mut(self.nx).enumerate() {
            let coarse_row = &coarse[self.coarse_row(r)..];
            for (col, f) in fine_row.iter_mut().enumerate() {
                *f += coarse_row[col / 2];
            }
        }
    }
}

/// One smoothed level: its operator and the Thomas factors of its z-lines.
#[derive(Clone)]
struct Level {
    op: Operator,
    /// `1 / pivot` of each node's z-line elimination step.
    inv_pivot: Vec<f64>,
    /// Eliminated coupling to the node above, `above / pivot`.
    upper: Vec<f64>,
}

impl Level {
    /// Factors the z-lines. `None` on a zero, negative or non-finite
    /// pivot: the operator is not positive definite on some column.
    fn new(op: Operator) -> Option<Self> {
        let (cells, n) = (op.cells(), op.len());
        let mut inv_pivot = vec![0.0; n];
        let mut upper = vec![0.0; n];
        for i in 0..n {
            let pivot = if i < cells {
                op.diag[i]
            } else {
                op.diag[i] - op.below[i] * upper[i - cells]
            };
            if !(pivot > 0.0 && pivot.is_finite()) {
                return None;
            }
            inv_pivot[i] = 1.0 / pivot;
            if i + cells < n {
                upper[i] = op.below[i + cells] * inv_pivot[i];
            }
        }
        Some(Self {
            op,
            inv_pivot,
            upper,
        })
    }

    /// `v ← T⁻¹ v`, where `T` is the operator restricted to z-lines: one
    /// Thomas solve per grid column, all columns swept together.
    fn line_solve(&self, v: &mut [f64]) {
        let (cells, n) = (self.op.cells(), v.len());
        for (vi, &p) in v[..cells].iter_mut().zip(&self.inv_pivot) {
            *vi *= p;
        }
        // Forward elimination, one layer at a time.
        for start in (cells..n).step_by(cells) {
            let (done, rest) = v.split_at_mut(start);
            let below = &done[start - cells..];
            let coefficients = self.op.below[start..].iter().zip(&self.inv_pivot[start..]);
            for ((vi, &vb), (&w, &p)) in rest[..cells].iter_mut().zip(below).zip(coefficients) {
                *vi = (*vi - w * vb) * p;
            }
        }
        // Back substitution, top layer down.
        for start in (0..n - cells).step_by(cells).rev() {
            let (head, above) = v.split_at_mut(start + cells);
            for ((vi, &va), &u) in head[start..]
                .iter_mut()
                .zip(&above[..cells])
                .zip(&self.upper[start..])
            {
                *vi -= u * va;
            }
        }
    }
}

/// A banded Cholesky factor `L Lᵀ` of the coarsest level.
#[derive(Clone)]
struct BandCholesky {
    /// Half-bandwidth: one layer, the reach of the vertical coupling.
    bandwidth: usize,
    /// Row `i` holds `L[i][i - bandwidth ..= i]`; entries left of column
    /// 0 stay zero.
    factor: Vec<f64>,
}

impl BandCholesky {
    /// `None` unless the operator is positive definite.
    fn new(op: &Operator) -> Option<Self> {
        let (n, bandwidth) = (op.len(), op.cells());
        let mut chol = Self {
            bandwidth,
            factor: vec![0.0; n * (bandwidth + 1)],
        };
        // Start from the lower band of the operator.
        for i in 0..n {
            let at = chol.at(i, i);
            chol.factor[at] = op.diag[i];
            if i % op.nx > 0 {
                chol.factor[at - 1] = op.west[i];
            }
            if i % bandwidth >= op.nx {
                chol.factor[at - op.nx] = op.south[i];
            }
            if i >= bandwidth {
                chol.factor[at - bandwidth] = op.below[i];
            }
        }
        for i in 0..n {
            let first = i.saturating_sub(bandwidth);
            for j in first..=i {
                let ij = chol.at(i, j);
                let mut s = chol.factor[ij];
                for k in first..j {
                    s -= chol.factor[chol.at(i, k)] * chol.factor[chol.at(j, k)];
                }
                chol.factor[ij] = if i == j {
                    if !(s > 0.0 && s.is_finite()) {
                        return None;
                    }
                    s.sqrt()
                } else {
                    s / chol.factor[chol.at(j, j)]
                };
            }
        }
        Some(chol)
    }

    /// Index of `L[i][j]`, for `i - bandwidth <= j <= i`.
    fn at(&self, i: usize, j: usize) -> usize {
        i * (self.bandwidth + 1) + self.bandwidth - (i - j)
    }

    /// `x ← A⁻¹ x`.
    fn solve_in_place(&self, x: &mut [f64]) {
        let (n, bw) = (x.len(), self.bandwidth);
        let l = |i: usize, j: usize| self.factor[self.at(i, j)];
        // L y = x, then Lᵀ x = y.
        for i in 0..n {
            let first = i.saturating_sub(bw);
            let (solved, rest) = x.split_at_mut(i);
            let sum: f64 = (first..i)
                .zip(&solved[first..])
                .map(|(k, &xk)| l(i, k) * xk)
                .sum();
            rest[0] = (rest[0] - sum) / l(i, i);
        }
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let last = n.min(i + bw + 1);
            let sum: f64 = (i + 1..last)
                .zip(&*solved)
                .map(|(k, &xk)| l(k, i) * xk)
                .sum();
            head[i] = (head[i] - sum) / l(i, i);
        }
    }
}

/// One symmetric V(1,1)-cycle of aggregation multigrid with z-line
/// smoothing, as a CG [`Preconditioner`]. See the [module docs](self).
#[derive(Clone)]
pub struct AggregationMultigrid {
    /// Smoothed levels, finest first; empty when the grid itself is small
    /// enough to factor.
    levels: Vec<Level>,
    coarsest: BandCholesky,
    scratch_len: usize,
}

impl std::fmt::Debug for AggregationMultigrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggregationMultigrid")
            .field("levels", &self.levels())
            .finish_non_exhaustive()
    }
}

impl AggregationMultigrid {
    /// Builds the hierarchy of an assembled symmetric 7-point matrix on an
    /// `nx`×`ny`×`layers` grid, numbered like [`crate::LayeredStencil`].
    ///
    /// Returns `None` if the matrix is not such an operator, or if a level
    /// has a zero or negative z-line (Thomas) or Cholesky pivot: a layer
    /// with no conductance leaves its nodes with a zero diagonal, for
    /// example. Callers then fall back to [`crate::Jacobi`].
    pub fn from_csr(a: &CsrMatrix, nx: usize, ny: usize, layers: usize) -> Option<Self> {
        let mut op = Operator::from_csr(a, nx, ny, layers)?;
        let mut levels = Vec::new();
        let mut scratch_len = 0;
        while op.cells() > COARSEST_CELLS {
            let coarse = op.galerkin();
            scratch_len += op.len() + 2 * coarse.len();
            levels.push(Level::new(op)?);
            op = coarse;
        }
        Some(Self {
            levels,
            coarsest: BandCholesky::new(&op)?,
            scratch_len,
        })
    }

    /// Number of levels, the coarsest included.
    fn levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// The V-cycle from level `k` down: `x ≈ A_k⁻¹ b`.
    fn cycle(&self, k: usize, b: &[f64], x: &mut [f64], scratch: &mut [f64]) {
        let Some(level) = self.levels.get(k) else {
            x.copy_from_slice(b);
            self.coarsest.solve_in_place(x);
            return;
        };
        let op = &level.op;
        let coarse_len = op.layers * op.nx.div_ceil(2) * op.ny.div_ceil(2);
        let (res, rest) = scratch.split_at_mut(op.len());
        let (b_coarse, rest) = rest.split_at_mut(coarse_len);
        let (x_coarse, rest) = rest.split_at_mut(coarse_len);
        // Pre-smoothing from zero: x = ω T⁻¹ b.
        for (xi, bi) in x.iter_mut().zip(b) {
            *xi = OMEGA * bi;
        }
        level.line_solve(x);
        // Coarse-grid correction: x += P A_c⁻¹ Pᵀ (b - A x).
        op.residual(b, x, res);
        op.restrict(res, b_coarse);
        self.cycle(k + 1, b_coarse, x_coarse, rest);
        op.prolong_add(x_coarse, x);
        // Post-smoothing: x += ω T⁻¹ (b - A x).
        op.residual(b, x, res);
        level.line_solve(res);
        for (xi, ri) in x.iter_mut().zip(res.iter()) {
            *xi += OMEGA * ri;
        }
    }
}

impl Preconditioner for AggregationMultigrid {
    fn scratch_len(&self) -> usize {
        self.scratch_len
    }

    fn apply(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
        self.cycle(0, r, z, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    /// A layered grid with distinct lateral, vertical and convection
    /// conductances, assembled the way the thermal model does.
    fn assembled(nx: usize, ny: usize, layers: usize) -> CsrMatrix {
        let cells = nx * ny;
        let n = cells * layers;
        let mut coo = CooMatrix::new(n, n);
        let mut couple = |a: usize, b: usize, g: f64| {
            coo.push(a, a, g);
            coo.push(b, b, g);
            coo.push(a, b, -g);
            coo.push(b, a, -g);
        };
        for l in 0..layers {
            for row in 0..ny {
                for col in 0..nx {
                    let i = l * cells + row * nx + col;
                    if col + 1 < nx {
                        couple(i, i + 1, 1.5 + l as f64);
                    }
                    if row + 1 < ny {
                        couple(i, i + nx, 0.25 * (l + 1) as f64);
                    }
                    if l + 1 < layers {
                        couple(i, i + cells, 30.0 / (l + 1) as f64);
                    }
                }
            }
        }
        for i in (layers - 1) * cells..n {
            coo.push(i, i, 0.1);
        }
        coo.to_csr()
    }

    fn dense(a: &CsrMatrix) -> Vec<Vec<f64>> {
        (0..a.rows())
            .map(|i| (0..a.cols()).map(|j| a.get(i, j)).collect())
            .collect()
    }

    #[test]
    fn galerkin_operator_equals_the_explicit_triple_product() {
        let (nx, ny, layers) = (5, 3, 2);
        let a = assembled(nx, ny, layers);
        let op = Operator::from_csr(&a, nx, ny, layers).unwrap();
        let coarse = op.galerkin();
        let aggregates: Vec<usize> = (0..op.len())
            .map(|i| op.coarse_row(i / nx) + i % nx / 2)
            .collect();
        let (cnx, cny) = (coarse.nx, coarse.ny);
        assert_eq!((cnx, cny, coarse.layers), (3, 2, 2));
        let nc = cnx * cny * layers;
        // PᵀAP entry by entry.
        let a = dense(&a);
        let mut product = vec![vec![0.0; nc]; nc];
        for (i, &ci) in aggregates.iter().enumerate() {
            for (j, &cj) in aggregates.iter().enumerate() {
                product[ci][cj] += a[i][j];
            }
        }
        let ccells = cnx * cny;
        for c in 0..nc {
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * y.abs().max(1.0);
            assert!(close(coarse.diag[c], product[c][c]), "diag {c}");
            if c % cnx > 0 {
                assert!(close(coarse.west[c], product[c][c - 1]), "west {c}");
            }
            if c % ccells >= cnx {
                assert!(close(coarse.south[c], product[c][c - cnx]), "south {c}");
            }
            if c >= ccells {
                assert!(close(coarse.below[c], product[c][c - ccells]), "below {c}");
            }
            let stored = [
                Some(c),
                (c % cnx > 0).then(|| c - 1),
                (c % ccells >= cnx).then(|| c - cnx),
                (c >= ccells).then(|| c - ccells),
            ];
            for (d, &v) in product[c].iter().enumerate().take(c + 1) {
                if !stored.contains(&Some(d)) {
                    assert_eq!(v, 0.0, "({c}, {d}) outside the 7-point stencil");
                }
            }
        }
    }

    #[test]
    fn line_solve_inverts_the_z_line_operator() {
        let (nx, ny, layers) = (3, 2, 4);
        let op = Operator::from_csr(&assembled(nx, ny, layers), nx, ny, layers).unwrap();
        let level = Level::new(op.clone()).unwrap();
        let cells = nx * ny;
        let x: Vec<f64> = (0..cells * layers)
            .map(|i| (i as f64 * 0.3).cos())
            .collect();
        // T x: diagonal plus the vertical couplings only.
        let mut v: Vec<f64> = (0..x.len())
            .map(|i| {
                let mut t = op.diag[i] * x[i];
                if i >= cells {
                    t += op.below[i] * x[i - cells];
                }
                if i + cells < x.len() {
                    t += op.below[i + cells] * x[i + cells];
                }
                t
            })
            .collect();
        level.line_solve(&mut v);
        for (vi, xi) in v.iter().zip(&x) {
            assert!((vi - xi).abs() < 1e-12, "{vi} vs {xi}");
        }
    }

    #[test]
    fn a_grid_at_the_coarsest_size_is_solved_exactly() {
        let a = assembled(4, 4, 3);
        let mg = AggregationMultigrid::from_csr(&a, 4, 4, 3).unwrap();
        assert_eq!(mg.levels(), 1);
        let x_true: Vec<f64> = (0..48).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let mut z = vec![0.0; 48];
        mg.apply(&b, &mut z, &mut []);
        for (zi, xi) in z.iter().zip(&x_true) {
            assert!((zi - xi).abs() < 1e-9, "{zi} vs {xi}");
        }
    }

    #[test]
    fn the_v_cycle_is_symmetric() {
        // yᵀ M⁻¹ x = xᵀ M⁻¹ y, on an odd grid with three levels.
        let (nx, ny, layers) = (9, 7, 3);
        let a = assembled(nx, ny, layers);
        let mg = AggregationMultigrid::from_csr(&a, nx, ny, layers).unwrap();
        assert_eq!(mg.levels(), 3);
        let n = nx * ny * layers;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
        let mut scratch = vec![0.0; mg.scratch_len()];
        let (mut mx, mut my) = (vec![0.0; n], vec![0.0; n]);
        mg.apply(&x, &mut mx, &mut scratch);
        mg.apply(&y, &mut my, &mut scratch);
        let (ymx, xmy) = (crate::dot(&y, &mx), crate::dot(&x, &my));
        assert!((ymx - xmy).abs() <= 1e-12 * ymx.abs(), "{ymx} vs {xmy}");
        assert!(crate::dot(&x, &mx) > 0.0);
    }

    #[test]
    fn operators_the_hierarchy_cannot_take_are_refused() {
        let a = assembled(3, 2, 2);
        // Wrong shape for the matrix.
        assert!(AggregationMultigrid::from_csr(&a, 2, 3, 2).is_none());
        assert!(AggregationMultigrid::from_csr(&a, 3, 2, 1).is_none());
        // An entry that is not a grid neighbour.
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0);
        }
        coo.push(0, 2, -1.0);
        coo.push(2, 0, -1.0);
        assert!(AggregationMultigrid::from_csr(&coo.to_csr(), 3, 1, 1).is_none());
        // Not symmetric.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, 4.0);
        coo.push(1, 0, -1.0);
        assert!(AggregationMultigrid::from_csr(&coo.to_csr(), 2, 1, 1).is_none());
        // A node with nothing on its diagonal: a zero pivot.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 1, 4.0);
        assert!(AggregationMultigrid::from_csr(&coo.to_csr(), 2, 1, 1).is_none());
    }

    #[test]
    fn debug_output_stays_short() {
        let mg = AggregationMultigrid::from_csr(&assembled(9, 7, 2), 9, 7, 2).unwrap();
        assert_eq!(format!("{mg:?}"), "AggregationMultigrid { levels: 3, .. }");
    }
}
