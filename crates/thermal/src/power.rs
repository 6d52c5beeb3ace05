//! Rasterisation of chiplet power onto the thermal grid.

use rlp_chiplet::{ChipletSystem, Placement, Rect};
use serde::{Deserialize, Serialize};

/// A power density map on the thermal grid (row-major, watts per cell).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerMap {
    nx: usize,
    ny: usize,
    cell_width_mm: f64,
    cell_height_mm: f64,
    /// Power injected into each cell, in watts.
    cells: Vec<f64>,
}

impl PowerMap {
    /// Rasterises the placed chiplets of a system onto an `nx`×`ny` grid
    /// covering the interposer. Each chiplet's power is spread uniformly
    /// over its footprint and distributed to cells proportionally to the
    /// overlap area, so total power is conserved exactly.
    ///
    /// Unplaced chiplets contribute nothing, which lets the RL environment
    /// evaluate partial placements.
    pub fn rasterize(system: &ChipletSystem, placement: &Placement, nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0, "power map grid must be non-empty");
        let cell_width_mm = system.interposer_width() / nx as f64;
        let cell_height_mm = system.interposer_height() / ny as f64;
        let mut cells = vec![0.0; nx * ny];
        for (id, _, _) in placement.iter_placed() {
            let Some(rect) = placement.rect_of(id, system) else {
                continue;
            };
            let chiplet = system.chiplet(id);
            if chiplet.power() == 0.0 {
                continue;
            }
            let density = chiplet.power() / rect.area();
            // Only visit cells overlapping the chiplet's bounding box.
            let col_lo = ((rect.x / cell_width_mm).floor().max(0.0)) as usize;
            let col_hi = ((rect.right() / cell_width_mm).ceil() as usize).min(nx);
            let row_lo = ((rect.y / cell_height_mm).floor().max(0.0)) as usize;
            let row_hi = ((rect.top() / cell_height_mm).ceil() as usize).min(ny);
            for row in row_lo..row_hi {
                for col in col_lo..col_hi {
                    let cell_rect = Rect::new(
                        col as f64 * cell_width_mm,
                        row as f64 * cell_height_mm,
                        cell_width_mm,
                        cell_height_mm,
                    );
                    let overlap = cell_rect.intersection_area(&rect);
                    if overlap > 0.0 {
                        cells[row * nx + col] += overlap * density;
                    }
                }
            }
        }
        Self {
            nx,
            ny,
            cell_width_mm,
            cell_height_mm,
            cells,
        }
    }

    /// Grid width in cells.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height in cells.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Cell width in millimetres.
    pub fn cell_width(&self) -> f64 {
        self.cell_width_mm
    }

    /// Cell height in millimetres.
    pub fn cell_height(&self) -> f64 {
        self.cell_height_mm
    }

    /// Power in watts injected into the cell at `(col, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn power_at(&self, col: usize, row: usize) -> f64 {
        assert!(col < self.nx && row < self.ny, "cell out of range");
        self.cells[row * self.nx + col]
    }

    /// Row-major view of all cell powers (watts).
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Total power over the map, in watts.
    pub fn total_power(&self) -> f64 {
        self.cells.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_chiplet::{Chiplet, Position};

    fn system() -> (ChipletSystem, Placement) {
        let mut sys = ChipletSystem::new("t", 20.0, 20.0);
        let a = sys.add_chiplet(Chiplet::new("a", 5.0, 5.0, 20.0));
        let b = sys.add_chiplet(Chiplet::new("b", 4.0, 2.0, 8.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(2.0, 2.0));
        p.place(b, Position::new(12.0, 14.0));
        (sys, p)
    }

    #[test]
    fn total_power_is_conserved() {
        let (sys, p) = system();
        for &(nx, ny) in &[(8usize, 8usize), (16, 16), (33, 17)] {
            let map = PowerMap::rasterize(&sys, &p, nx, ny);
            assert!(
                (map.total_power() - 28.0).abs() < 1e-9,
                "grid {nx}x{ny}: {}",
                map.total_power()
            );
        }
    }

    #[test]
    fn power_lands_in_the_right_cells() {
        let (sys, p) = system();
        let map = PowerMap::rasterize(&sys, &p, 20, 20); // 1 mm cells
                                                         // Chiplet a covers x in [2,7), y in [2,7): cell (3,3) is fully inside.
        assert!(map.power_at(3, 3) > 0.0);
        // Far corner is empty.
        assert_eq!(map.power_at(19, 0), 0.0);
    }

    #[test]
    fn unplaced_chiplets_are_skipped() {
        let mut sys = ChipletSystem::new("t", 10.0, 10.0);
        let a = sys.add_chiplet(Chiplet::new("a", 2.0, 2.0, 5.0));
        sys.add_chiplet(Chiplet::new("b", 2.0, 2.0, 7.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(4.0, 4.0));
        let map = PowerMap::rasterize(&sys, &p, 10, 10);
        assert!((map.total_power() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_power_chiplet_contributes_nothing() {
        let mut sys = ChipletSystem::new("t", 10.0, 10.0);
        let a = sys.add_chiplet(Chiplet::new("a", 2.0, 2.0, 0.0));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(4.0, 4.0));
        let map = PowerMap::rasterize(&sys, &p, 10, 10);
        assert_eq!(map.total_power(), 0.0);
    }

    #[test]
    fn accessors_report_geometry() {
        let (sys, p) = system();
        let map = PowerMap::rasterize(&sys, &p, 10, 5);
        assert_eq!(map.nx(), 10);
        assert_eq!(map.ny(), 5);
        assert_eq!(map.cell_width(), 2.0);
        assert_eq!(map.cell_height(), 4.0);
        assert_eq!(map.cells().len(), 50);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_panics() {
        let (sys, p) = system();
        PowerMap::rasterize(&sys, &p, 0, 4);
    }
}
