//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use rlp_linalg::solvers::{conjugate_gradient, CgOptions};
use rlp_linalg::{
    dense::polyval, norm2, CooMatrix, DenseMatrix, Jacobi, LayeredGrid, SpectralSolver,
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
        let a = layered_grid(nx, ny, layers, &conductances);
        let per_layer = |offset: usize| (0..layers).map(|l| conductances[3 * l + offset]).collect();
        let mut to_reference = vec![0.0; layers];
        to_reference[layers - 1] = conductances[3 * layers];
        let grid = LayeredGrid {
            nx,
            ny,
            west_east: per_layer(0),
            south_north: per_layer(1),
            vertical: (0..layers - 1).map(|l| conductances[3 * l + 2]).collect(),
            to_reference,
        };
        let solver = SpectralSolver::new(&grid, source_layer).unwrap();
        let cells = nx * ny;
        let source = &values[..cells];
        let x = solver.solve(source);
        let mut b = vec![0.0; cells * layers];
        b[source_layer * cells..][..cells].copy_from_slice(source);
        let ax = a.matvec(&x).unwrap();
        let residual: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        prop_assert!(
            norm2(&residual) <= 1e-10 * norm2(&b),
            "‖Ax − b‖ = {} for ‖b‖ = {}", norm2(&residual), norm2(&b)
        );
    }

    /// A windowed single-layer solve equals the matching slice of the full
    /// solve bit for bit, for sources with all-zero rows and columns and for
    /// an all-zero source.
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
        let per_layer = |offset: usize| (0..layers).map(|l| conductances[3 * l + offset]).collect();
        let mut to_reference = vec![0.0; layers];
        to_reference[layers - 1] = conductances[3 * layers];
        let grid = LayeredGrid {
            nx,
            ny,
            west_east: per_layer(0),
            south_north: per_layer(1),
            vertical: (0..layers - 1).map(|l| conductances[3 * l + 2]).collect(),
            to_reference,
        };
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
            for &(row, col, height, width) in windows.iter().chain([&(0, 0, 33, 33)]) {
                let rows = row % ny..(row % ny + height).min(ny);
                let cols = col % nx..(col % nx + width).min(nx);
                for layer in 0..layers {
                    let window = solver.solve_window(&source, layer, rows.clone(), cols.clone());
                    let expected = rows.clone().flat_map(|y| {
                        let start = layer * cells + y * nx;
                        full[start + cols.start..start + cols.end].iter()
                    });
                    prop_assert!(
                        window.iter().map(|v| v.to_bits()).eq(expected.map(|v| v.to_bits())),
                        "layer {layer}, rows {rows:?}, cols {cols:?}"
                    );
                }
            }
        }
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
