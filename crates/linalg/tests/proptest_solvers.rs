//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use rlp_linalg::solvers::{conjugate_gradient, CgOptions};
use rlp_linalg::{
    dense::polyval, norm2, AggregationMultigrid, CooMatrix, DenseMatrix, Jacobi, LayeredStencil,
    LinearOperator, Preconditioner,
};

/// Assembles an `nx`×`ny`×`layers` grid the way the thermal model does:
/// `g` holds one west/east, one south/north and one upward conductance per
/// layer, then the convection of the top layer.
fn layered_grid(nx: usize, ny: usize, layers: usize, g: &[f64]) -> rlp_linalg::CsrMatrix {
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
                    couple(i, i + 1, g[3 * l]);
                }
                if row + 1 < ny {
                    couple(i, i + nx, g[3 * l + 1]);
                }
                if l + 1 < layers {
                    couple(i, i + cells, g[3 * l + 2]);
                }
            }
        }
    }
    for i in (layers - 1) * cells..n {
        coo.push(i, i, g[3 * layers]);
    }
    coo.to_csr()
}

/// Builds a strictly diagonally dominant symmetric matrix, which is SPD.
fn spd_from_offdiag(n: usize, offdiag: &[f64]) -> rlp_linalg::CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
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
        let sol = conjugate_gradient(&a, &b, &Jacobi::new(&a), &CgOptions::default()).unwrap();
        for (xi, ti) in sol.x.iter().zip(x_true.iter()) {
            prop_assert!((xi - ti).abs() < 1e-5, "{xi} vs {ti}");
        }
    }

    /// The matrix-free stencil read out of a layered-grid matrix equals the
    /// matrix bit for bit: every product, and a whole CG solve, iteration
    /// count included, under either preconditioner built from the matrix.
    #[test]
    fn stencil_matches_csr_bit_for_bit(
        nx in 2usize..10,
        ny in 2usize..10,
        layers in 1usize..7,
        conductances in prop::collection::vec(0.01f64..500.0, 19),
        values in prop::collection::vec(-10.0f64..10.0, 9 * 9 * 6),
    ) {
        let a = layered_grid(nx, ny, layers, &conductances);
        let stencil = LayeredStencil::from_csr(&a, nx, ny, layers).expect("a layered grid");
        let n = nx * ny * layers;
        let x = &values[..n];
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut y_csr = vec![0.0; n];
        let mut y_stencil = vec![0.0; n];
        a.matvec_into(x, &mut y_csr);
        stencil.matvec_into(x, &mut y_stencil);
        prop_assert_eq!(bits(&y_stencil), bits(&y_csr));

        let multigrid = AggregationMultigrid::from_csr(&a, nx, ny, layers).expect("a layered grid");
        let preconditioners: [&dyn Preconditioner; 2] = [&Jacobi::new(&a), &multigrid];
        for m in preconditioners {
            let csr = conjugate_gradient(&a, x, m, &CgOptions::default()).unwrap();
            let matrix_free = conjugate_gradient(&stencil, x, m, &CgOptions::default()).unwrap();
            prop_assert_eq!(matrix_free.iterations, csr.iterations);
            prop_assert_eq!(matrix_free.residual.to_bits(), csr.residual.to_bits());
            prop_assert_eq!(bits(&matrix_free.x), bits(&csr.x));
        }
    }

    /// Multigrid-preconditioned CG converges on every layered grid, agrees
    /// with Jacobi-CG within what the tolerance allows, and never needs
    /// more iterations.
    #[test]
    fn multigrid_cg_agrees_with_jacobi_cg_in_fewer_iterations(
        nx in 2usize..10,
        ny in 2usize..10,
        layers in 1usize..7,
        conductances in prop::collection::vec(0.01f64..500.0, 19),
        values in prop::collection::vec(-10.0f64..10.0, 9 * 9 * 6),
    ) {
        let a = layered_grid(nx, ny, layers, &conductances);
        let n = nx * ny * layers;
        let b = &values[..n];
        let options = CgOptions::default();
        let multigrid = AggregationMultigrid::from_csr(&a, nx, ny, layers).expect("a layered grid");
        let mg = conjugate_gradient(&a, b, &multigrid, &options).unwrap();
        let jacobi = conjugate_gradient(&a, b, &Jacobi::new(&a), &options).unwrap();
        prop_assert!(mg.residual <= options.tolerance);
        prop_assert!(
            mg.iterations <= jacobi.iterations,
            "multigrid {} > jacobi {} iterations", mg.iterations, jacobi.iterations
        );
        // Both residuals are at most tol·‖b‖, so A(x_mg − x_jacobi) is at
        // most 2·tol·‖b‖; the factor 2 more allows for the recurrence
        // residual drifting from the true one.
        let (ax_mg, ax_jacobi) = (a.matvec(&mg.x).unwrap(), a.matvec(&jacobi.x).unwrap());
        let gap: Vec<f64> = ax_mg.iter().zip(&ax_jacobi).map(|(p, q)| p - q).collect();
        prop_assert!(
            norm2(&gap) <= 4.0 * options.tolerance * norm2(b),
            "‖A(x_mg − x_jacobi)‖ = {} for ‖b‖ = {}", norm2(&gap), norm2(b)
        );
    }

    /// CSR round-trips triplets: matvec agrees with a dense reference.
    #[test]
    fn csr_matvec_matches_dense(
        n in 1usize..12,
        entries in prop::collection::vec((0usize..12, 0usize..12, -5.0f64..5.0), 0..60),
        x in prop::collection::vec(-3.0f64..3.0, 12),
    ) {
        let mut coo = CooMatrix::new(n, n);
        let mut dense = DenseMatrix::zeros(n, n);
        for &(r, c, v) in &entries {
            let (r, c) = (r % n, c % n);
            coo.push(r, c, v);
            dense.add_to(r, c, v);
        }
        let csr = coo.to_csr();
        let x = &x[..n];
        let y_sparse = csr.matvec(x).unwrap();
        let y_dense = dense.matvec(x).unwrap();
        for (a, b) in y_sparse.iter().zip(y_dense.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Dense LU solve satisfies the original equations.
    #[test]
    fn dense_solve_satisfies_system(
        n in 1usize..8,
        raw in prop::collection::vec(-4.0f64..4.0, 64),
        b in prop::collection::vec(-4.0f64..4.0, 8),
    ) {
        // Diagonal dominance keeps the matrix comfortably non-singular.
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = raw[(i * n + j) % raw.len()];
                    m.set(i, j, v);
                    row_sum += v.abs();
                }
            }
            m.set(i, i, row_sum + 1.0);
        }
        let b = &b[..n];
        let x = m.solve(b).unwrap();
        let ax = m.matvec(&x).unwrap();
        for (ai, bi) in ax.iter().zip(b.iter()) {
            prop_assert!((ai - bi).abs() < 1e-6);
        }
    }

    /// polyval is linear in the coefficients.
    #[test]
    fn polyval_is_linear_in_coefficients(
        c1 in prop::collection::vec(-3.0f64..3.0, 1..5),
        x in -2.0f64..2.0,
        scale in -3.0f64..3.0,
    ) {
        let scaled: Vec<f64> = c1.iter().map(|v| v * scale).collect();
        let lhs = polyval(&scaled, x);
        let rhs = scale * polyval(&c1, x);
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }
}
