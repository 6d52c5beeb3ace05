//! Dense and sparse linear-algebra kernels for the RLPlanner thermal solver.
//!
//! The HotSpot-style compact thermal model assembles a symmetric positive
//! definite conductance matrix `G` and solves `G · T = P` for the steady-state
//! temperature vector `T`. This crate provides exactly the pieces that solve
//! needs, with no external dependencies:
//!
//! * [`DenseMatrix`] / dense vector helpers in [`dense`] — small dense systems,
//!   LU factorisation, and the dense kernels used by table characterisation.
//! * [`CsrMatrix`] and [`CooMatrix`] in [`sparse`] — compressed sparse row
//!   storage assembled from triplets.
//! * [`LayeredStencil`] in [`stencil`] — the matrix-free 7-point operator of
//!   a layered grid, read out of an assembled [`CsrMatrix`] and
//!   bit-identical to it.
//! * [`AggregationMultigrid`] in [`multigrid`] — a V-cycle with z-line
//!   smoothing for layered grids, built from an assembled [`CsrMatrix`].
//! * Iterative solvers in [`solvers`] — conjugate gradient on any
//!   [`LinearOperator`] with any [`Preconditioner`] (the multigrid V-cycle,
//!   or [`Jacobi`]) and Gauss–Seidel/SOR iterations, with convergence
//!   diagnostics.
//!
//! # Examples
//!
//! Solving a small SPD system with conjugate gradient:
//!
//! ```
//! use rlp_linalg::{CooMatrix, Jacobi, solvers::{conjugate_gradient, CgOptions}};
//!
//! let mut coo = CooMatrix::new(2, 2);
//! coo.push(0, 0, 4.0);
//! coo.push(0, 1, 1.0);
//! coo.push(1, 0, 1.0);
//! coo.push(1, 1, 3.0);
//! let a = coo.to_csr();
//! let b = vec![1.0, 2.0];
//! let solution = conjugate_gradient(&a, &b, &Jacobi::new(&a), &CgOptions::default()).unwrap();
//! let x = solution.x;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-8);
//! assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-8);
//! ```

pub mod dense;
pub mod error;
pub mod multigrid;
pub mod solvers;
pub mod sparse;
pub mod stencil;

pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use multigrid::AggregationMultigrid;
pub use solvers::{
    conjugate_gradient, gauss_seidel, CgOptions, CgSolution, Jacobi, LinearOperator,
    Preconditioner, SorOptions,
};
pub use sparse::{CooMatrix, CsrMatrix};
pub use stencil::LayeredStencil;

/// Computes the dot product of two equally sized slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// assert_eq!(rlp_linalg::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Computes the Euclidean (L2) norm of a slice.
///
/// # Examples
///
/// ```
/// assert!((rlp_linalg::norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
/// ```
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Computes the infinity norm (maximum absolute entry) of a slice.
///
/// Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(rlp_linalg::norm_inf(&[-7.0, 2.0]), 7.0);
/// ```
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |acc, &v| acc.max(v.abs()))
}

/// Computes `y += alpha * x` element-wise.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn norm2_of_zero_vector_is_zero() {
        assert_eq!(norm2(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm_inf_empty_is_zero() {
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_panics_on_length_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
