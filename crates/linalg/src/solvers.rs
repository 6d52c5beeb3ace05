//! Iterative solvers for sparse symmetric positive definite systems.
//!
//! The steady-state thermal solve `G · T = P` dominates HotSpot-style
//! analysis runtime. `G` is symmetric positive definite, so the workhorse is
//! a preconditioned [`conjugate_gradient`]. It runs on any
//! [`LinearOperator`] (an assembled [`CsrMatrix`], or the matrix-free
//! [`crate::LayeredStencil`] read out of one) with any [`Preconditioner`]:
//! the [`crate::AggregationMultigrid`] V-cycle of a layered grid, or
//! [`Jacobi`] for operators the hierarchy cannot take. A [`gauss_seidel`] /
//! SOR fallback is provided for experimentation and for cross-checking
//! results.

use crate::error::LinalgError;
use crate::sparse::CsrMatrix;
use crate::{dot, norm2};

/// A square linear operator `y = A x` that [`conjugate_gradient`] solves
/// with.
pub trait LinearOperator {
    /// Number of rows.
    fn rows(&self) -> usize;

    /// Number of columns.
    fn cols(&self) -> usize;

    /// Computes `y = A x` into a caller-provided buffer without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    fn matvec_into(&self, x: &[f64], y: &mut [f64]);

    /// The main diagonal: the Jacobi preconditioner's input.
    fn diagonal(&self) -> Vec<f64>;
}

impl LinearOperator for CsrMatrix {
    fn rows(&self) -> usize {
        CsrMatrix::rows(self)
    }

    fn cols(&self) -> usize {
        CsrMatrix::cols(self)
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::matvec_into(self, x, y);
    }

    fn diagonal(&self) -> Vec<f64> {
        CsrMatrix::diagonal(self)
    }
}

/// A symmetric positive definite approximation `M` of a system matrix,
/// applied as `z = M⁻¹ r` once per [`conjugate_gradient`] iteration.
pub trait Preconditioner {
    /// Length of the scratch buffer [`Preconditioner::apply`] works in. A
    /// solve allocates it once, so applying never allocates.
    fn scratch_len(&self) -> usize {
        0
    }

    /// Computes `z = M⁻¹ r`, using `scratch` (of
    /// [`Preconditioner::scratch_len`] entries) as working memory.
    ///
    /// # Panics
    ///
    /// May panic if `r` or `z` does not match the system size.
    fn apply(&self, r: &[f64], z: &mut [f64], scratch: &mut [f64]);
}

/// The Jacobi (diagonal) preconditioner `M = diag(A)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// The inverse diagonal of `a`; a (numerically) zero diagonal entry
    /// leaves its unknown unscaled.
    pub fn new<A: LinearOperator + ?Sized>(a: &A) -> Self {
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
            .collect();
        Self { inv_diag }
    }
}

impl Preconditioner for Jacobi {
    fn apply(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Options controlling a conjugate-gradient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance (`‖r‖ / ‖b‖`).
    pub tolerance: f64,
    /// Maximum number of iterations before reporting non-convergence.
    pub max_iterations: usize,
    /// Optional initial guess; must match the system size when provided.
    pub initial_guess: Option<Vec<f64>>,
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

/// Result of a successful conjugate-gradient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolution {
    /// Solution vector.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Relative residual at termination.
    pub residual: f64,
}

/// Solves the SPD system `A x = b` with preconditioned conjugate gradient.
///
/// The solve sees `A` only through its products, so two operators that
/// agree on those bit for bit give bit-identical solutions and iteration
/// counts under the same preconditioner. It stops once the recurrence
/// residual satisfies `‖r‖ / ‖b‖ <= options.tolerance`.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `A` is not square.
/// * [`LinalgError::DimensionMismatch`] if `b` or the initial guess have the
///   wrong length.
/// * [`LinalgError::NotConverged`] if the relative residual does not fall
///   below `options.tolerance` within `options.max_iterations` iterations,
///   or if a search direction has no curvature (`|pᵀAp| < 1e-300`: `A` is
///   singular or not positive definite). `iterations` is the iteration the
///   solve stopped at.
///
/// # Examples
///
/// ```
/// use rlp_linalg::{CooMatrix, Jacobi, solvers::{conjugate_gradient, CgOptions}};
///
/// let mut coo = CooMatrix::new(3, 3);
/// for i in 0..3 {
///     coo.push(i, i, 2.0);
///     if i > 0 {
///         coo.push(i, i - 1, -1.0);
///         coo.push(i - 1, i, -1.0);
///     }
/// }
/// let a = coo.to_csr();
/// let jacobi = Jacobi::new(&a);
/// let sol = conjugate_gradient(&a, &[1.0, 0.0, 1.0], &jacobi, &CgOptions::default()).unwrap();
/// assert!(sol.residual < 1e-8);
/// ```
pub fn conjugate_gradient<A, M>(
    a: &A,
    b: &[f64],
    preconditioner: &M,
    options: &CgOptions,
) -> Result<CgSolution, LinalgError>
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    let solution = conjugate_gradient_impl(a, b, preconditioner, options)?;
    rlp_obs::obs_counter!("linalg.cg.solves").inc();
    rlp_obs::obs_counter!("linalg.cg.iterations").add(solution.iterations as u64);
    Ok(solution)
}

fn conjugate_gradient_impl<A, M>(
    a: &A,
    b: &[f64],
    m: &M,
    options: &CgOptions,
) -> Result<CgSolution, LinalgError>
where
    A: LinearOperator + ?Sized,
    M: Preconditioner + ?Sized,
{
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("rhs of length {n}"),
            found: format!("length {}", b.len()),
        });
    }

    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }

    let mut x = match &options.initial_guess {
        Some(guess) => {
            if guess.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: format!("initial guess of length {n}"),
                    found: format!("length {}", guess.len()),
                });
            }
            guess.clone()
        }
        None => vec![0.0; n],
    };

    let mut scratch = vec![0.0; m.scratch_len()];
    let mut ax = vec![0.0; n];
    a.matvec_into(&x, &mut ax);
    let mut r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, axi)| bi - axi).collect();
    let mut z = vec![0.0; n];
    m.apply(&r, &mut z, &mut scratch);
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

    let mut ap = vec![0.0; n];
    for iter in 1..=options.max_iterations {
        a.matvec_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap.abs() < 1e-300 {
            // Breakdown: direction has no curvature, typically means we are done
            // or the matrix is not SPD.
            return Err(LinalgError::NotConverged {
                iterations: iter,
                residual,
                tolerance: options.tolerance,
            });
        }
        let alpha = rz / pap;
        // One pass for x += αp, r -= αAp and ‖r‖².
        let mut rr = 0.0;
        for ((xi, ri), (pi, api)) in x.iter_mut().zip(r.iter_mut()).zip(p.iter().zip(&ap)) {
            *xi += alpha * pi;
            *ri += -alpha * api;
            rr += *ri * *ri;
        }
        residual = rr.sqrt() / b_norm;
        if residual <= options.tolerance {
            return Ok(CgSolution {
                x,
                iterations: iter,
                residual,
            });
        }
        m.apply(&r, &mut z, &mut scratch);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
    }

    Err(LinalgError::NotConverged {
        iterations: options.max_iterations,
        residual,
        tolerance: options.tolerance,
    })
}

/// Options controlling a Gauss–Seidel / SOR solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SorOptions {
    /// Relative residual tolerance (`‖r‖ / ‖b‖`).
    pub tolerance: f64,
    /// Maximum number of sweeps.
    pub max_iterations: usize,
    /// Relaxation factor; `1.0` is plain Gauss–Seidel, values in `(1, 2)`
    /// give successive over-relaxation.
    pub relaxation: f64,
}

impl Default for SorOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-8,
            max_iterations: 20_000,
            relaxation: 1.0,
        }
    }
}

/// Solves `A x = b` with Gauss–Seidel (or SOR when `relaxation != 1.0`).
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `A` is not square.
/// * [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
/// * [`LinalgError::SingularMatrix`] if a diagonal entry is (numerically) zero.
/// * [`LinalgError::NotConverged`] if the sweep limit is exhausted.
pub fn gauss_seidel(
    a: &CsrMatrix,
    b: &[f64],
    options: &SorOptions,
) -> Result<CgSolution, LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("rhs of length {n}"),
            found: format!("length {}", b.len()),
        });
    }
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }

    let diag = a.diagonal();
    for (i, &d) in diag.iter().enumerate() {
        if d.abs() < 1e-300 {
            return Err(LinalgError::SingularMatrix { pivot: i });
        }
    }

    let omega = options.relaxation;
    let mut x = vec![0.0; n];
    let mut residual = f64::INFINITY;
    for iter in 1..=options.max_iterations {
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let mut sigma = 0.0;
            for (&col, &val) in cols.iter().zip(vals.iter()) {
                if col != i {
                    sigma += val * x[col];
                }
            }
            let gs = (b[i] - sigma) / diag[i];
            x[i] = (1.0 - omega) * x[i] + omega * gs;
        }
        // Residual check (costs one extra matvec per sweep).
        let ax = a.matvec(&x)?;
        let r: Vec<f64> = b.iter().zip(ax.iter()).map(|(bi, axi)| bi - axi).collect();
        residual = norm2(&r) / b_norm;
        if residual <= options.tolerance {
            return Ok(CgSolution {
                x,
                iterations: iter,
                residual,
            });
        }
    }

    Err(LinalgError::NotConverged {
        iterations: options.max_iterations,
        residual,
        tolerance: options.tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    /// 1D Poisson (tridiagonal) SPD matrix of size `n`.
    fn poisson_1d(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn cg_solves_poisson_system() {
        let n = 50;
        let a = poisson_1d(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let sol = conjugate_gradient(&a, &b, &Jacobi::new(&a), &CgOptions::default()).unwrap();
        for (xi, ti) in sol.x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-6, "cg mismatch: {xi} vs {ti}");
        }
    }

    #[test]
    fn cg_without_preconditioner_still_converges() {
        /// `M = I`: plain conjugate gradient.
        struct Identity;
        impl Preconditioner for Identity {
            fn apply(&self, r: &[f64], z: &mut [f64], _scratch: &mut [f64]) {
                z.copy_from_slice(r);
            }
        }
        let a = poisson_1d(20);
        let b = vec![1.0; 20];
        let sol = conjugate_gradient(&a, &b, &Identity, &CgOptions::default()).unwrap();
        assert!(sol.residual <= 1e-8);
    }

    #[test]
    fn cg_zero_rhs_returns_zero() {
        let a = poisson_1d(5);
        let sol =
            conjugate_gradient(&a, &[0.0; 5], &Jacobi::new(&a), &CgOptions::default()).unwrap();
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
        let sol = conjugate_gradient(&a, &b, &Jacobi::new(&a), &options).unwrap();
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
            conjugate_gradient(&a, &b, &Jacobi::new(&a), &options),
            Err(LinalgError::NotConverged { .. })
        ));
    }

    #[test]
    fn cg_breakdown_reports_the_iteration_it_stopped_at() {
        // Singular: the second unknown couples to nothing, so the second
        // search direction has no curvature.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        let a = coo.to_csr();
        let options = CgOptions {
            max_iterations: 100,
            ..CgOptions::default()
        };
        assert_eq!(
            conjugate_gradient(&a, &[1.0, 1.0], &Jacobi::new(&a), &options),
            Err(LinalgError::NotConverged {
                iterations: 2,
                residual: 1.0,
                tolerance: 1e-8,
            })
        );
    }

    #[test]
    fn cg_rejects_wrong_rhs_length() {
        let a = poisson_1d(4);
        assert!(
            conjugate_gradient(&a, &[1.0; 3], &Jacobi::new(&a), &CgOptions::default()).is_err()
        );
    }

    #[test]
    fn cg_rejects_wrong_guess_length() {
        let a = poisson_1d(4);
        let options = CgOptions {
            initial_guess: Some(vec![0.0; 3]),
            ..CgOptions::default()
        };
        assert!(conjugate_gradient(&a, &[1.0; 4], &Jacobi::new(&a), &options).is_err());
    }

    #[test]
    fn gauss_seidel_matches_cg() {
        let n = 30;
        let a = poisson_1d(n);
        let b: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let cg = conjugate_gradient(&a, &b, &Jacobi::new(&a), &CgOptions::default()).unwrap();
        let gs = gauss_seidel(&a, &b, &SorOptions::default()).unwrap();
        for (x_cg, x_gs) in cg.x.iter().zip(gs.x.iter()) {
            assert!((x_cg - x_gs).abs() < 1e-5);
        }
    }

    #[test]
    fn sor_converges_faster_than_gauss_seidel() {
        let n = 40;
        let a = poisson_1d(n);
        let b = vec![1.0; n];
        let gs = gauss_seidel(&a, &b, &SorOptions::default()).unwrap();
        let sor = gauss_seidel(
            &a,
            &b,
            &SorOptions {
                relaxation: 1.8,
                ..SorOptions::default()
            },
        )
        .unwrap();
        assert!(sor.iterations < gs.iterations);
    }

    #[test]
    fn gauss_seidel_detects_zero_diagonal() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            gauss_seidel(&a, &[1.0, 1.0], &SorOptions::default()),
            Err(LinalgError::SingularMatrix { pivot: 0 })
        ));
    }

    #[test]
    fn gauss_seidel_zero_rhs() {
        let a = poisson_1d(3);
        let sol = gauss_seidel(&a, &[0.0; 3], &SorOptions::default()).unwrap();
        assert_eq!(sol.x, vec![0.0; 3]);
    }
}
