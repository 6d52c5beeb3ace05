//! Matrix-free 7-point operator on a layered grid.
//!
//! The grid thermal model couples each node to at most six neighbours: the
//! nodes below and above it in the layer stack, and its four lateral
//! neighbours in the same layer. Every lateral coupling of a layer, and
//! every vertical coupling between two adjacent layers, has the same
//! conductance, so the whole matrix is its diagonal plus three short
//! per-layer weight vectors. [`LayeredStencil`] applies it without loading
//! a column index or an off-diagonal value per entry.
//!
//! A stencil is only ever read out of an assembled [`CsrMatrix`]
//! ([`LayeredStencil::from_csr`]), and each row adds its terms in CSR
//! column order, starting from `+0.0`. Its products are therefore
//! bit-identical to [`CsrMatrix::matvec_into`] on that matrix.

use crate::solvers::LinearOperator;
use crate::sparse::CsrMatrix;

/// The 7-point layered-grid operator of one assembled matrix.
///
/// Nodes are numbered layer-major, then row-major:
/// `node = layer * nx * ny + row * nx + col`.
#[derive(Clone, PartialEq)]
pub struct LayeredStencil {
    nx: usize,
    ny: usize,
    layers: usize,
    /// West/east weight per layer (the stored off-diagonal value).
    west_east: Vec<f64>,
    /// South/north weight per layer.
    south_north: Vec<f64>,
    /// Weight between layer `l` and layer `l + 1`.
    vertical: Vec<f64>,
    diagonal: Vec<f64>,
}

impl std::fmt::Debug for LayeredStencil {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredStencil")
            .field("nx", &self.nx)
            .field("ny", &self.ny)
            .field("layers", &self.layers)
            .finish_non_exhaustive()
    }
}

/// Records the first value seen for a uniform weight; later values must
/// match it bit for bit.
fn uniform(slot: &mut Option<f64>, value: f64) -> bool {
    match slot {
        Some(seen) => seen.to_bits() == value.to_bits(),
        None => {
            *slot = Some(value);
            true
        }
    }
}

impl LayeredStencil {
    /// Reads the stencil of an `nx`×`ny`×`layers` grid out of an assembled
    /// matrix.
    ///
    /// Returns `None` unless every row stores exactly its existing
    /// neighbours (below, south, west, itself, east, north, above) and each
    /// layer's lateral and vertical weights are uniform. `None` means the
    /// stencil could not reproduce the matrix exactly (a zero conductance
    /// that dropped an entry, for example), so the caller keeps the CSR.
    pub fn from_csr(a: &CsrMatrix, nx: usize, ny: usize, layers: usize) -> Option<Self> {
        let cells = nx.checked_mul(ny)?;
        let n = cells.checked_mul(layers)?;
        if n == 0 || a.rows() != n || a.cols() != n {
            return None;
        }
        let mut west_east = vec![None; layers];
        let mut south_north = vec![None; layers];
        let mut vertical = vec![None; layers];
        let mut diagonal = Vec::with_capacity(n);
        for l in 0..layers {
            for row in 0..ny {
                for col in 0..nx {
                    let i = l * cells + row * nx + col;
                    let (cols, vals) = a.row(i);
                    let mut entries = cols.iter().zip(vals);
                    // The next stored entry is column `j`; its value is a
                    // uniform weight (`Some`) or this row's diagonal.
                    let mut next_is = |j: usize, weight: Option<&mut Option<f64>>| {
                        let Some((&c, &v)) = entries.next() else {
                            return false;
                        };
                        c == j
                            && match weight {
                                Some(slot) => uniform(slot, v),
                                None => {
                                    diagonal.push(v);
                                    true
                                }
                            }
                    };
                    let matches = (l == 0 || next_is(i - cells, Some(&mut vertical[l - 1])))
                        && (row == 0 || next_is(i - nx, Some(&mut south_north[l])))
                        && (col == 0 || next_is(i - 1, Some(&mut west_east[l])))
                        && next_is(i, None)
                        && (col + 1 == nx || next_is(i + 1, Some(&mut west_east[l])))
                        && (row + 1 == ny || next_is(i + nx, Some(&mut south_north[l])))
                        && (l + 1 == layers || next_is(i + cells, Some(&mut vertical[l])));
                    if !matches || entries.next().is_some() {
                        return None;
                    }
                }
            }
        }
        // Weights of couplings the grid does not have (a one-cell-wide
        // layer, the top layer's "above") are never read.
        let weights = |seen: Vec<Option<f64>>| -> Vec<f64> {
            seen.into_iter().map(|w| w.unwrap_or(0.0)).collect()
        };
        Some(Self {
            nx,
            ny,
            layers,
            west_east: weights(west_east),
            south_north: weights(south_north),
            vertical: weights(vertical),
            diagonal,
        })
    }

    /// Grid width in nodes.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in nodes.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.layers
    }
}

impl LinearOperator for LayeredStencil {
    fn rows(&self) -> usize {
        self.diagonal.len()
    }

    fn cols(&self) -> usize {
        self.diagonal.len()
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        let n = self.diagonal.len();
        assert_eq!(x.len(), n, "matvec_into: x length mismatch");
        assert_eq!(y.len(), n, "matvec_into: y length mismatch");
        let (nx, ny, cells) = (self.nx, self.ny, self.nx * self.ny);
        for l in 0..self.layers {
            let we = self.west_east[l];
            let sn = self.south_north[l];
            let below = (l > 0).then(|| self.vertical[l - 1]);
            let above = (l + 1 < self.layers).then(|| self.vertical[l]);
            for row in 0..ny {
                let base = l * cells + row * nx;
                for col in 0..nx {
                    let i = base + col;
                    // The CSR row's terms, in its column order.
                    let mut sum = 0.0;
                    if let Some(w) = below {
                        sum += w * x[i - cells];
                    }
                    if row > 0 {
                        sum += sn * x[i - nx];
                    }
                    if col > 0 {
                        sum += we * x[i - 1];
                    }
                    sum += self.diagonal[i] * x[i];
                    if col + 1 < nx {
                        sum += we * x[i + 1];
                    }
                    if row + 1 < ny {
                        sum += sn * x[i + nx];
                    }
                    if let Some(w) = above {
                        sum += w * x[i + cells];
                    }
                    y[i] = sum;
                }
            }
        }
    }

    fn diagonal(&self) -> Vec<f64> {
        self.diagonal.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooMatrix;

    /// An assembled layered grid whose lateral, vertical and convection
    /// conductances all differ, assembled the way the thermal model does.
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
                        couple(i, i + cells, 3.0 / (l + 1) as f64);
                    }
                }
            }
        }
        let top = (layers - 1) * cells;
        for i in top..n {
            coo.push(i, i, 0.1);
        }
        coo.to_csr()
    }

    #[test]
    fn stencil_reproduces_the_csr_product_bit_for_bit() {
        let a = assembled(3, 2, 2);
        let stencil = LayeredStencil::from_csr(&a, 3, 2, 2).expect("7-point matrix");
        assert_eq!((stencil.nx(), stencil.ny(), stencil.layers()), (3, 2, 2));
        let x: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut y_csr = vec![0.0; 12];
        let mut y_stencil = vec![0.0; 12];
        a.matvec_into(&x, &mut y_csr);
        stencil.matvec_into(&x, &mut y_stencil);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&y_stencil), bits(&y_csr));
        assert_eq!(LinearOperator::diagonal(&stencil), a.diagonal());
    }

    #[test]
    fn matrices_that_are_not_a_layered_stencil_are_refused() {
        let a = assembled(3, 2, 2);
        // Wrong grid shape for the matrix.
        assert!(LayeredStencil::from_csr(&a, 2, 3, 2).is_none());
        assert!(LayeredStencil::from_csr(&a, 3, 2, 1).is_none());
        // A missing coupling (a zero conductance drops its entries).
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        assert!(LayeredStencil::from_csr(&coo.to_csr(), 2, 1, 1).is_none());
        // Non-uniform lateral weights within a layer.
        let mut coo = CooMatrix::new(3, 3);
        for (i, j, v) in [(0, 1, -1.0), (1, 0, -1.0), (1, 2, -2.0), (2, 1, -2.0)] {
            coo.push(i, j, v);
        }
        for i in 0..3 {
            coo.push(i, i, 4.0);
        }
        assert!(LayeredStencil::from_csr(&coo.to_csr(), 3, 1, 1).is_none());
        // An entry that is not a grid neighbour.
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0);
        }
        coo.push(0, 2, -1.0);
        assert!(LayeredStencil::from_csr(&coo.to_csr(), 3, 1, 1).is_none());
    }

    #[test]
    fn debug_output_stays_short() {
        let stencil = LayeredStencil::from_csr(&assembled(3, 2, 2), 3, 2, 2).unwrap();
        assert_eq!(
            format!("{stencil:?}"),
            "LayeredStencil { nx: 3, ny: 2, layers: 2, .. }"
        );
    }
}
