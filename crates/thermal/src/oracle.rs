//! The structure-blind reference the direct solve is tested against: a
//! sparse matrix assembled from triplets, node by node, and solved by
//! Jacobi-preconditioned conjugate gradient. Neither step assumes anything
//! about the matrix's structure, so agreement with
//! [`SpectralSolver`](crate::spectral::SpectralSolver) pins the
//! separability the direct solve relies on to the assembled physics.

use crate::spectral::LayeredGrid;

/// Why a reference operation failed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum OracleError {
    /// A vector's length does not match the matrix.
    DimensionMismatch { expected: usize, found: usize },
    /// Conjugate gradient stopped before the relative residual fell below
    /// the tolerance: the iteration limit ran out, or a search direction
    /// had no curvature (`|pᵀAp| < 1e-300`, a matrix that is singular or
    /// not positive definite).
    NotConverged {
        iterations: usize,
        residual: f64,
        tolerance: f64,
    },
}

/// Triplets of a square sparse matrix; duplicates are summed when it is
/// compressed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CooMatrix {
    n: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// An empty `n`×`n` matrix.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub(crate) fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n && col < self.n,
            "triplet ({row}, {col}) out of bounds for {0}x{0} matrix",
            self.n
        );
        self.entries.push((row, col, value));
    }

    /// Compressed sparse rows, duplicates summed and entries that cancel to
    /// zero dropped.
    pub(crate) fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|entry| (entry.0, entry.1));
        let mut row_ptr = vec![0; self.n + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        for run in entries.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let sum: f64 = run.iter().map(|entry| entry.2).sum();
            if sum != 0.0 {
                row_ptr[run[0].0 + 1] += 1;
                col_idx.push(run[0].1);
                values.push(sum);
            }
        }
        for row in 0..self.n {
            row_ptr[row + 1] += row_ptr[row];
        }
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A square compressed-sparse-row matrix, built by [`CooMatrix::to_csr`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows (and columns).
    pub(crate) fn rows(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column_indices, values)` of one row.
    fn row(&self, row: usize) -> (&[usize], &[f64]) {
        let range = self.row_ptr[row]..self.row_ptr[row + 1];
        (&self.col_idx[range.clone()], &self.values[range])
    }

    /// The value at `(row, col)`, `0.0` if it is not stored.
    fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, values) = self.row(row);
        cols.binary_search(&col).map_or(0.0, |k| values[k])
    }

    /// `A x`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, OracleError> {
        if x.len() != self.n {
            return Err(OracleError::DimensionMismatch {
                expected: self.n,
                found: x.len(),
            });
        }
        Ok((0..self.n)
            .map(|i| {
                let (cols, values) = self.row(i);
                cols.iter().zip(values).map(|(&j, v)| v * x[j]).sum()
            })
            .collect())
    }

    fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Whether every stored entry equals its transpose within `tol`.
    fn is_symmetric(&self, tol: f64) -> bool {
        (0..self.n).all(|row| {
            let (cols, values) = self.row(row);
            cols.iter()
                .zip(values)
                .all(|(&col, &v)| (self.get(col, row) - v).abs() <= tol)
        })
    }
}

/// The operator of `grid`, assembled conductance by conductance. Node
/// `layer * nx * ny + row * nx + col` is cell `(col, row)` of `layer`.
pub(crate) fn assemble(grid: &LayeredGrid) -> CsrMatrix {
    let (nx, ny, layers) = (grid.nx, grid.ny, grid.layers());
    let cells = nx * ny;
    let node = |layer: usize, col: usize, row: usize| layer * cells + row * nx + col;
    let mut coo = CooMatrix::new(cells * layers);
    let mut add_conductance = |a: usize, b: usize, g: f64| {
        coo.push(a, a, g);
        coo.push(b, b, g);
        coo.push(a, b, -g);
        coo.push(b, a, -g);
    };
    for l in 0..layers {
        for row in 0..ny {
            for col in 0..nx {
                let here = node(l, col, row);
                if col + 1 < nx {
                    add_conductance(here, node(l, col + 1, row), grid.west_east[l]);
                }
                if row + 1 < ny {
                    add_conductance(here, node(l, col, row + 1), grid.south_north[l]);
                }
                if l + 1 < layers {
                    add_conductance(here, node(l + 1, col, row), grid.vertical[l]);
                }
            }
        }
    }
    for l in 0..layers {
        for i in node(l, 0, 0)..node(l + 1, 0, 0) {
            coo.push(i, i, grid.to_reference[l]);
        }
    }
    let g = coo.to_csr();
    debug_assert!(g.is_symmetric(1e-9));
    g
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The Euclidean norm of `a`.
pub(crate) fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Options of a [`conjugate_gradient`] solve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CgOptions {
    /// Relative residual tolerance (`‖r‖ / ‖b‖`).
    pub(crate) tolerance: f64,
    /// Iterations before reporting non-convergence.
    pub(crate) max_iterations: usize,
    /// Starting point; zero when `None`.
    pub(crate) initial_guess: Option<Vec<f64>>,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-8,
            max_iterations: 10_000,
            initial_guess: None,
        }
    }
}

/// A converged [`conjugate_gradient`] solve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CgSolution {
    pub(crate) x: Vec<f64>,
    pub(crate) iterations: usize,
    /// Relative residual at termination.
    pub(crate) residual: f64,
}

/// Solves the SPD system `A x = b` by conjugate gradient preconditioned
/// with `diag(A)` (a zero diagonal entry leaves its unknown unscaled). It
/// stops once the recurrence residual satisfies `‖r‖ / ‖b‖ <= tolerance`.
pub(crate) fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    options: &CgOptions,
) -> Result<CgSolution, OracleError> {
    let n = a.rows();
    let x0 = options
        .initial_guess
        .clone()
        .unwrap_or_else(|| vec![0.0; n]);
    for v in [b, &x0] {
        if v.len() != n {
            return Err(OracleError::DimensionMismatch {
                expected: n,
                found: v.len(),
            });
        }
    }
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let inv_diag: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
        .collect();
    let precondition =
        |r: &[f64]| -> Vec<f64> { r.iter().zip(&inv_diag).map(|(r, d)| r * d).collect() };

    let mut x = x0;
    let mut r: Vec<f64> = b
        .iter()
        .zip(a.matvec(&x)?)
        .map(|(bi, axi)| bi - axi)
        .collect();
    let mut z = precondition(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut residual = norm2(&r) / b_norm;
    if residual <= options.tolerance {
        return Ok(CgSolution {
            x,
            iterations: 0,
            residual,
        });
    }
    for iter in 1..=options.max_iterations {
        let ap = a.matvec(&p)?;
        let pap = dot(&p, &ap);
        if pap.abs() < 1e-300 {
            return Err(OracleError::NotConverged {
                iterations: iter,
                residual,
                tolerance: options.tolerance,
            });
        }
        let alpha = rz / pap;
        for ((xi, ri), (pi, api)) in x.iter_mut().zip(r.iter_mut()).zip(p.iter().zip(&ap)) {
            *xi += alpha * pi;
            *ri -= alpha * api;
        }
        residual = norm2(&r) / b_norm;
        if residual <= options.tolerance {
            return Ok(CgSolution {
                x,
                iterations: iter,
                residual,
            });
        }
        z = precondition(&r);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    Err(OracleError::NotConverged {
        iterations: options.max_iterations,
        residual,
        tolerance: options.tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        let mut coo = CooMatrix::new(3);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 1, 2.0);
        coo.push(1, 2, -1.0);
        coo.push(2, 1, -1.0);
        coo.push(2, 2, 2.0);
        coo.to_csr()
    }

    /// 1D Poisson (tridiagonal) SPD matrix of size `n`.
    fn poisson_1d(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    /// A strictly diagonally dominant symmetric matrix, which is SPD.
    fn spd_from_offdiag(n: usize, offdiag: &[f64]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n);
        let mut row_sums = vec![0.0; n];
        let mut k = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let v = offdiag[k % offdiag.len()];
                k += 1;
                if v != 0.0 {
                    coo.push(i, j, v);
                    coo.push(j, i, v);
                    row_sums[i] += v.abs();
                    row_sums[j] += v.abs();
                }
            }
        }
        for (i, s) in row_sums.iter().enumerate() {
            coo.push(i, i, s + 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn coo_duplicates_are_summed() {
        let mut coo = CooMatrix::new(1);
        coo.push(0, 0, 1.5);
        coo.push(0, 0, 2.5);
        assert_eq!(coo.to_csr().get(0, 0), 4.0);
    }

    #[test]
    fn cancelled_entries_are_dropped() {
        let mut coo = CooMatrix::new(2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.get(0, 1), 0.0);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut coo = CooMatrix::new(4);
        coo.push(3, 3, 1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.row(0).0.len(), 0);
        assert_eq!(csr.row(3).0, &[3]);
    }

    #[test]
    fn matvec_matches_dense_equivalent() {
        let a = sample();
        let y = a.matvec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn matvec_rejects_bad_length() {
        assert!(sample().matvec(&[1.0]).is_err());
    }

    #[test]
    fn diagonal_extraction() {
        assert_eq!(sample().diagonal(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn symmetry_check() {
        assert!(sample().is_symmetric(1e-12));
        let mut coo = CooMatrix::new(2);
        coo.push(0, 1, 1.0);
        assert!(!coo.to_csr().is_symmetric(1e-12));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn coo_push_out_of_bounds_panics() {
        let mut coo = CooMatrix::new(1);
        coo.push(1, 0, 1.0);
    }

    #[test]
    fn cg_solves_poisson_system() {
        let n = 50;
        let a = poisson_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let sol = conjugate_gradient(&a, &b, &CgOptions::default()).unwrap();
        for (xi, ti) in sol.x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-6, "cg mismatch: {xi} vs {ti}");
        }
    }

    #[test]
    fn cg_without_preconditioner_still_converges() {
        // A unit diagonal makes the preconditioner `M = I`: plain conjugate
        // gradient.
        let n = 20;
        let mut coo = CooMatrix::new(n);
        for i in 0..n {
            coo.push(i, i, 1.0);
            if i > 0 {
                coo.push(i, i - 1, -0.45);
                coo.push(i - 1, i, -0.45);
            }
        }
        let a = coo.to_csr();
        let b = vec![1.0; n];
        let sol = conjugate_gradient(&a, &b, &CgOptions::default()).unwrap();
        assert!(sol.residual <= 1e-8);
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = poisson_1d(5);
        let sol = conjugate_gradient(&a, &[0.0; 5], &CgOptions::default()).unwrap();
        assert_eq!(sol.x, vec![0.0; 5]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn cg_warm_start_converges_immediately() {
        let a = poisson_1d(10);
        let x_true: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let b = a.matvec(&x_true).unwrap();
        let options = CgOptions {
            initial_guess: Some(x_true.clone()),
            ..CgOptions::default()
        };
        let sol = conjugate_gradient(&a, &b, &options).unwrap();
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn cg_reports_non_convergence() {
        let a = poisson_1d(100);
        let b = vec![1.0; 100];
        let options = CgOptions {
            max_iterations: 2,
            tolerance: 1e-14,
            ..CgOptions::default()
        };
        assert!(matches!(
            conjugate_gradient(&a, &b, &options),
            Err(OracleError::NotConverged { .. })
        ));
    }

    #[test]
    fn cg_breakdown_reports_the_iteration_it_stopped_at() {
        // Singular: the second unknown couples to nothing, so the second
        // search direction has no curvature.
        let mut coo = CooMatrix::new(2);
        coo.push(0, 0, 1.0);
        let a = coo.to_csr();
        let options = CgOptions {
            max_iterations: 100,
            ..CgOptions::default()
        };
        assert_eq!(
            conjugate_gradient(&a, &[1.0, 1.0], &options),
            Err(OracleError::NotConverged {
                iterations: 2,
                residual: 1.0,
                tolerance: 1e-8,
            })
        );
    }

    #[test]
    fn cg_rejects_wrong_rhs_length() {
        let a = poisson_1d(4);
        assert!(conjugate_gradient(&a, &[1.0; 3], &CgOptions::default()).is_err());
    }

    #[test]
    fn cg_rejects_wrong_guess_length() {
        let a = poisson_1d(4);
        let options = CgOptions {
            initial_guess: Some(vec![0.0; 3]),
            ..CgOptions::default()
        };
        assert!(conjugate_gradient(&a, &[1.0; 4], &options).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// CG recovers a known solution of a random SPD system.
        #[test]
        fn cg_recovers_known_solution(
            n in 2usize..20,
            offdiag in prop::collection::vec(-2.0f64..2.0, 1..40),
            x_true in prop::collection::vec(-10.0f64..10.0, 20),
        ) {
            let a = spd_from_offdiag(n, &offdiag);
            let x_true = &x_true[..n];
            let b = a.matvec(x_true).unwrap();
            let sol = conjugate_gradient(&a, &b, &CgOptions::default()).unwrap();
            for (xi, ti) in sol.x.iter().zip(x_true.iter()) {
                prop_assert!((xi - ti).abs() < 1e-5, "{xi} vs {ti}");
            }
        }
    }
}
