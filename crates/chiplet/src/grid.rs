//! Discretised placement grid used by the RL environment.
//!
//! RLPlanner places chiplets sequentially: the agent picks a *grid cell*, the
//! chiplet is centred on that cell, and infeasible cells are masked out
//! before sampling. [`PlacementGrid`] provides the cell geometry, the
//! occupancy map used as the state tensor, and the feasibility (action)
//! masks.

use crate::chiplet::{ChipletId, Rotation};
use crate::error::PlacementError;
use crate::geometry::{axis_contains, axis_overlap, spacing_violation, AxisGap, Point, Rect};
use crate::netlist::ChipletSystem;
use crate::placement::{Placement, Position};

/// Lower-left position that centres a footprint on `center`.
///
/// This is the one place the centre → lower-left conversion lives: the grid
/// cell placement ([`PlacementGrid::position_for`]), the SA swap/rotate
/// moves (which keep a chiplet's centre while its footprint changes) and the
/// gradient legaliser all snap through it.
pub fn centered_position(footprint: (f64, f64), center: Point) -> Position {
    Position::new(center.x - footprint.0 / 2.0, center.y - footprint.1 / 2.0)
}

/// A fixed `cols`×`rows` grid laid over the interposer outline.
///
/// # Examples
///
/// ```
/// use rlp_chiplet::{Chiplet, ChipletSystem, Placement, PlacementGrid};
///
/// let mut sys = ChipletSystem::new("demo", 20.0, 20.0);
/// let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 10.0));
/// let grid = PlacementGrid::new(10, 10);
/// let placement = Placement::for_system(&sys);
/// let mask = grid.feasibility_mask(&sys, &placement, a, Default::default(), 0.1);
/// // Cells too close to the boundary are infeasible, interior cells are not.
/// assert!(mask.iter().any(|&m| m));
/// assert!(mask.iter().any(|&m| !m));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementGrid {
    cols: usize,
    rows: usize,
}

impl PlacementGrid {
    /// Creates a grid with the given number of columns and rows.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        Self { cols, rows }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of cells (`cols * rows`).
    pub fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Width of one cell for the given system, in millimetres.
    pub fn cell_width(&self, system: &ChipletSystem) -> f64 {
        system.interposer_width() / self.cols as f64
    }

    /// Height of one cell for the given system, in millimetres.
    pub fn cell_height(&self, system: &ChipletSystem) -> f64 {
        system.interposer_height() / self.rows as f64
    }

    /// Converts a flattened cell index to `(col, row)`.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::CellOutOfRange`] if the index is out of range.
    pub fn cell_coords(&self, cell: usize) -> Result<(usize, usize), PlacementError> {
        if cell >= self.cell_count() {
            return Err(PlacementError::CellOutOfRange {
                cell,
                cells: self.cell_count(),
            });
        }
        Ok((cell % self.cols, cell / self.cols))
    }

    /// Converts `(col, row)` to a flattened cell index.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    pub fn cell_index(&self, col: usize, row: usize) -> usize {
        assert!(col < self.cols && row < self.rows, "cell out of range");
        row * self.cols + col
    }

    /// Centre point of a cell in interposer coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::CellOutOfRange`] if the index is out of range.
    pub fn cell_center(
        &self,
        system: &ChipletSystem,
        cell: usize,
    ) -> Result<Point, PlacementError> {
        let (col, row) = self.cell_coords(cell)?;
        let cw = self.cell_width(system);
        let ch = self.cell_height(system);
        Ok(Point::new((col as f64 + 0.5) * cw, (row as f64 + 0.5) * ch))
    }

    /// Lower-left position that centres a chiplet with the given footprint on
    /// the cell.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::CellOutOfRange`] if the index is out of range.
    pub fn position_for(
        &self,
        system: &ChipletSystem,
        footprint: (f64, f64),
        cell: usize,
    ) -> Result<Position, PlacementError> {
        let center = self.cell_center(system, cell)?;
        Ok(centered_position(footprint, center))
    }

    /// The cell whose centre is nearest to a continuous point, with the
    /// point clamped into the interposer outline first.
    ///
    /// This is the snap half of grid legalisation: a continuous optimiser
    /// (the gradient planner) produces arbitrary centres, and this maps each
    /// one onto the discrete action space the RL environment and SA moves
    /// share. Non-finite coordinates clamp to cell `(0, 0)`.
    pub fn nearest_cell(&self, system: &ChipletSystem, center: Point) -> usize {
        let cw = self.cell_width(system);
        let ch = self.cell_height(system);
        let col = ((center.x / cw).floor() as isize).clamp(0, self.cols as isize - 1) as usize;
        let row = ((center.y / ch).floor() as isize).clamp(0, self.rows as isize - 1) as usize;
        self.cell_index(col, row)
    }

    /// The rectangle a chiplet would occupy if centred on `cell`.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::CellOutOfRange`] if the index is out of range.
    pub fn rect_for(
        &self,
        system: &ChipletSystem,
        chiplet: ChipletId,
        rotation: Rotation,
        cell: usize,
    ) -> Result<Rect, PlacementError> {
        let footprint = system.chiplet(chiplet).footprint(rotation);
        let pos = self.position_for(system, footprint, cell)?;
        Ok(Rect::new(pos.x, pos.y, footprint.0, footprint.1))
    }

    /// Fraction of each cell covered by already-placed chiplets, row-major.
    ///
    /// This is the occupancy channel of the RL state tensor; values lie in
    /// `[0, 1]`.
    pub fn occupancy_map(&self, system: &ChipletSystem, placement: &Placement) -> Vec<f32> {
        let cell_area = self.cell_width(system) * self.cell_height(system);
        let mut covered = vec![0.0f64; self.cell_count()];
        self.for_each_footprint(system, placement, |_, _, cells| {
            for (cell, overlap) in cells.iter() {
                covered[cell] += overlap;
            }
        });
        covered
            .iter()
            .map(|&c| (c / cell_area).min(1.0) as f32)
            .collect()
    }

    /// Power dissipated inside each cell by already-placed chiplets (watts),
    /// row-major. Power is spread uniformly over each chiplet footprint.
    ///
    /// This is the power channel of the RL state tensor and also feeds the
    /// thermal model's power-map rasterisation.
    pub fn power_map(&self, system: &ChipletSystem, placement: &Placement) -> Vec<f32> {
        let mut map = vec![0.0f32; self.cell_count()];
        self.for_each_footprint(system, placement, |id, rect, cells| {
            let density = system.chiplet(id).power() / rect.area().max(f64::MIN_POSITIVE);
            for (cell, overlap) in cells.iter() {
                if overlap > 0.0 {
                    map[cell] += (overlap * density) as f32;
                }
            }
        });
        map
    }

    /// Calls `visit(id, rect, cells)` for every placed chiplet in placement
    /// order, with the cells its rectangle covers, so each cell sees its
    /// intersection areas in that order.
    ///
    /// A cell's rectangle has an x-extent that depends only on its column
    /// and a y-extent that depends only on its row, so the two extents of
    /// [`Rect::intersection_area`] are computed once per column and once per
    /// row. Cells with no positive extent on an axis would add an exact zero
    /// and are skipped.
    fn for_each_footprint(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
        mut visit: impl FnMut(ChipletId, &Rect, CoveredCells<'_>),
    ) {
        let cw = self.cell_width(system);
        let ch = self.cell_height(system);
        let mut columns: Vec<(usize, f64)> = Vec::with_capacity(self.cols);
        let mut rows: Vec<(usize, f64)> = Vec::with_capacity(self.rows);
        for (id, _, _) in placement.iter_placed() {
            let Some(rect) = placement.rect_of(id, system) else {
                continue;
            };
            columns.clear();
            columns.extend(
                (0..self.cols)
                    .map(|col| (col, overlap_extent(col, cw, rect.x, rect.right())))
                    .filter(|&(_, dx)| dx > 0.0),
            );
            rows.clear();
            rows.extend(
                (0..self.rows)
                    .map(|row| (row, overlap_extent(row, ch, rect.y, rect.top())))
                    .filter(|&(_, dy)| dy > 0.0),
            );
            let cells = CoveredCells {
                cols: self.cols,
                columns: &columns,
                rows: &rows,
            };
            visit(id, &rect, cells);
        }
    }

    /// Boolean mask of cells where the chiplet can legally be centred.
    ///
    /// A cell is feasible when the resulting rectangle lies inside the
    /// interposer and keeps at least `min_spacing_mm` of clearance (in x or
    /// y) from every already-placed chiplet (see [`Rect::violates_spacing`]).
    ///
    /// The outline test and both halves of the spacing rule are evaluated
    /// once per (column, placed chiplet) and once per (row, placed chiplet),
    /// then combined per cell as bitsets over the placed chiplets; the
    /// result equals [`PlacementGrid::cell_feasible`] on every cell.
    pub fn feasibility_mask(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
        chiplet: ChipletId,
        rotation: Rotation,
        min_spacing_mm: f64,
    ) -> Vec<bool> {
        let (w, h) = system.chiplet(chiplet).footprint(rotation);
        let outline = system.interposer_rect();
        let placed: Vec<Rect> = placed_rects_except(system, placement, chiplet).collect();
        let columns = AxisTable::new(
            self.cols,
            self.cell_width(system),
            w,
            (outline.x, outline.right()),
            placed.iter().map(|r| (r.x, r.right())),
            min_spacing_mm,
        );
        let rows = AxisTable::new(
            self.rows,
            self.cell_height(system),
            h,
            (outline.y, outline.top()),
            placed.iter().map(|r| (r.y, r.top())),
            min_spacing_mm,
        );
        let mut mask = vec![false; self.cell_count()];
        for row in (0..self.rows).filter(|&row| rows.inside[row]) {
            let (y_overlaps, y_close) = rows.bits(row);
            for col in (0..self.cols).filter(|&col| columns.inside[col]) {
                let (x_overlaps, x_close) = columns.bits(col);
                mask[row * self.cols + col] = (0..columns.words).all(|k| {
                    spacing_violation(x_overlaps[k], x_close[k], y_overlaps[k], y_close[k]) == 0
                });
            }
        }
        mask
    }

    /// Whether the chiplet can legally be centred on one cell: the same
    /// answer as `feasibility_mask(..)[cell]`, for the cost of one cell.
    /// An out-of-range cell is infeasible.
    pub fn cell_feasible(
        &self,
        system: &ChipletSystem,
        placement: &Placement,
        chiplet: ChipletId,
        rotation: Rotation,
        min_spacing_mm: f64,
        cell: usize,
    ) -> bool {
        let Ok(rect) = self.rect_for(system, chiplet, rotation, cell) else {
            return false;
        };
        system.interposer_rect().contains_rect(&rect)
            && placed_rects_except(system, placement, chiplet)
                .all(|other| !rect.violates_spacing(&other, min_spacing_mm))
    }

    /// Applies a masked action: centres `chiplet` on `cell` and records it in
    /// the placement.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::CellOutOfRange`] for an invalid cell index.
    /// The caller is responsible for checking feasibility first (the RL
    /// environment does this via the action mask).
    pub fn apply_action(
        &self,
        system: &ChipletSystem,
        placement: &mut Placement,
        chiplet: ChipletId,
        rotation: Rotation,
        cell: usize,
    ) -> Result<(), PlacementError> {
        let footprint = system.chiplet(chiplet).footprint(rotation);
        let pos = self.position_for(system, footprint, cell)?;
        placement.place_rotated(chiplet, pos, rotation);
        Ok(())
    }
}

/// Rectangles of every placed chiplet except `chiplet`, in placement order.
fn placed_rects_except<'a>(
    system: &'a ChipletSystem,
    placement: &'a Placement,
    chiplet: ChipletId,
) -> impl Iterator<Item = Rect> + 'a {
    placement
        .iter_placed()
        .filter(move |(id, _, _)| *id != chiplet)
        .filter_map(|(id, _, _)| placement.rect_of(id, system))
}

/// Overlap of cell `index` of an axis with the given `pitch` and the
/// interval `[lo, hi]`, with the cell's extent computed as the cell's
/// `Rect` computes it, so the product of two extents is bit-identical to
/// [`Rect::intersection_area`].
fn overlap_extent(index: usize, pitch: f64, lo: f64, hi: f64) -> f64 {
    let cell_lo = index as f64 * pitch;
    axis_overlap(cell_lo, cell_lo + pitch, lo, hi)
}

/// The cells one placed chiplet covers: the positive overlap extent of its
/// rectangle on each column and on each row.
struct CoveredCells<'a> {
    cols: usize,
    columns: &'a [(usize, f64)],
    rows: &'a [(usize, f64)],
}

impl CoveredCells<'_> {
    /// `(cell, intersection area)` of every covered cell, row-major.
    fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.rows.iter().flat_map(move |&(row, dy)| {
            self.columns
                .iter()
                .map(move |&(col, dx)| (row * self.cols + col, dx * dy))
        })
    }
}

/// One axis of a feasibility mask: the chiplet's extent when centred on
/// each column (or row), related to the outline and to every placed
/// chiplet through the per-axis halves of the spacing rule ([`AxisGap`]).
struct AxisTable {
    /// `u64` words per bitset: one bit per placed chiplet.
    words: usize,
    /// Whether the extent lies inside the outline, per column (row).
    inside: Vec<bool>,
    /// Placed chiplets whose projection overlaps the extent, `words` per
    /// column (row).
    overlaps: Vec<u64>,
    /// Placed chiplets closer than the spacing on this axis, `words` per
    /// column (row).
    close: Vec<u64>,
}

impl AxisTable {
    /// Tabulates `count` cells of `pitch` for a footprint `extent` long
    /// against the `outline` interval and the `placed` intervals.
    fn new(
        count: usize,
        pitch: f64,
        extent: f64,
        outline: (f64, f64),
        placed: impl ExactSizeIterator<Item = (f64, f64)> + Clone,
        min_spacing_mm: f64,
    ) -> Self {
        let words = placed.len().div_ceil(64);
        let mut inside = Vec::with_capacity(count);
        let mut overlaps = vec![0u64; count * words];
        let mut close = vec![0u64; count * words];
        for i in 0..count {
            // The cell centre and lower edge exactly as `position_for`
            // computes them.
            let lo = (i as f64 + 0.5) * pitch - extent / 2.0;
            let hi = lo + extent;
            inside.push(axis_contains(outline.0, outline.1, lo, hi));
            for (k, (other_lo, other_hi)) in placed.clone().enumerate() {
                let gap = AxisGap::new(lo, hi, other_lo, other_hi, min_spacing_mm);
                let (word, shift) = (i * words + k / 64, k % 64);
                overlaps[word] |= u64::from(gap.overlaps) << shift;
                close[word] |= u64::from(gap.close) << shift;
            }
        }
        Self {
            words,
            inside,
            overlaps,
            close,
        }
    }

    /// The `(overlaps, close)` bitsets of column (row) `i`.
    fn bits(&self, i: usize) -> (&[u64], &[u64]) {
        let span = i * self.words..(i + 1) * self.words;
        (&self.overlaps[span.clone()], &self.close[span])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chiplet::Chiplet;
    use proptest::prelude::*;

    /// The per-cell feasibility loop the axis tables replaced: every cell
    /// builds its rectangle and tests it against every placed chiplet.
    fn feasibility_mask_reference(
        grid: &PlacementGrid,
        system: &ChipletSystem,
        placement: &Placement,
        chiplet: ChipletId,
        rotation: Rotation,
        min_spacing_mm: f64,
    ) -> Vec<bool> {
        let outline = system.interposer_rect();
        let placed: Vec<Rect> = placement
            .iter_placed()
            .filter(|(id, _, _)| *id != chiplet)
            .filter_map(|(id, _, _)| placement.rect_of(id, system))
            .collect();
        let mut mask = vec![false; grid.cell_count()];
        for (cell, feasible) in mask.iter_mut().enumerate() {
            let rect = match grid.rect_for(system, chiplet, rotation, cell) {
                Ok(r) => r,
                Err(_) => continue,
            };
            if !outline.contains_rect(&rect) {
                continue;
            }
            *feasible = placed.iter().all(|other| {
                if rect.overlaps(other) {
                    return false;
                }
                let (dx, dy) = rect.separation(other);
                dx.max(dy) >= min_spacing_mm
            });
        }
        mask
    }

    /// The per-cell occupancy loop the axis extents replaced.
    fn occupancy_map_reference(
        grid: &PlacementGrid,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Vec<f32> {
        let cw = grid.cell_width(system);
        let ch = grid.cell_height(system);
        let cell_area = cw * ch;
        let rects: Vec<Rect> = placement
            .iter_placed()
            .filter_map(|(id, _, _)| placement.rect_of(id, system))
            .collect();
        let mut map = vec![0.0f32; grid.cell_count()];
        for row in 0..grid.rows() {
            for col in 0..grid.cols() {
                let cell_rect = Rect::new(col as f64 * cw, row as f64 * ch, cw, ch);
                let mut covered = 0.0;
                for r in &rects {
                    covered += cell_rect.intersection_area(r);
                }
                map[grid.cell_index(col, row)] = (covered / cell_area).min(1.0) as f32;
            }
        }
        map
    }

    /// The per-cell power loop the axis extents replaced.
    fn power_map_reference(
        grid: &PlacementGrid,
        system: &ChipletSystem,
        placement: &Placement,
    ) -> Vec<f32> {
        let cw = grid.cell_width(system);
        let ch = grid.cell_height(system);
        let mut map = vec![0.0f32; grid.cell_count()];
        for (id, _, _) in placement.iter_placed() {
            let Some(rect) = placement.rect_of(id, system) else {
                continue;
            };
            let density = system.chiplet(id).power() / rect.area().max(f64::MIN_POSITIVE);
            for row in 0..grid.rows() {
                for col in 0..grid.cols() {
                    let cell_rect = Rect::new(col as f64 * cw, row as f64 * ch, cw, ch);
                    let overlap = cell_rect.intersection_area(&rect);
                    if overlap > 0.0 {
                        map[grid.cell_index(col, row)] += (overlap * density) as f32;
                    }
                }
            }
        }
        map
    }

    fn bits(map: &[f32]) -> Vec<u32> {
        map.iter().map(|v| v.to_bits()).collect()
    }

    /// A random scene on a 0.25 mm lattice, so edges often touch each other,
    /// the outline and the cell boundaries exactly: an interposer, a grid of
    /// 1..=17 cells per side (odd sizes included), up to 80 chiplets of
    /// which some are left unplaced and some are rotated, and positions
    /// that may overlap or spill outside the outline. Every other case
    /// places more than 64 chiplets, so the masks need several bitset
    /// words.
    fn arb_scene() -> impl Strategy<Value = (ChipletSystem, Placement, PlacementGrid)> {
        (
            (1usize..18, 1usize..18),
            (16u32..161, 16u32..161),
            any::<bool>(),
            prop::collection::vec(
                (
                    (1u32..33, 1u32..33),
                    0.0f64..40.0,
                    0u8..8,
                    (-8i32..170, -8i32..170),
                    any::<bool>(),
                ),
                80,
            ),
        )
            .prop_map(|((cols, rows), (w, h), crowded, dies)| {
                let quarter = |q: i64| q as f64 * 0.25;
                let mut system = ChipletSystem::new("scene", quarter(w.into()), quarter(h.into()));
                let count = if crowded {
                    80
                } else {
                    1 + dies[0].2 as usize * 2
                };
                let mut placement = Placement::new(count);
                for (i, &((dw, dh), power, placed, (x, y), rotated)) in
                    dies.iter().take(count).enumerate()
                {
                    let id = system.add_chiplet(Chiplet::new(
                        format!("c{i}"),
                        quarter(dw.into()),
                        quarter(dh.into()),
                        power,
                    ));
                    // Three in four chiplets are placed.
                    if placed % 4 != 0 {
                        let rotation = if rotated {
                            Rotation::Quarter
                        } else {
                            Rotation::None
                        };
                        let position = Position::new(quarter(x.into()), quarter(y.into()));
                        placement.place_rotated(id, position, rotation);
                    }
                }
                (system, placement, PlacementGrid::new(cols, rows))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The axis-table mask equals the per-cell loop on every cell, for
        /// every chiplet (placed or not), both rotations and spacings that
        /// include zero and lattice multiples that make gaps exactly equal
        /// to the spacing; `cell_feasible` equals the mask cell by cell.
        #[test]
        fn feasibility_mask_matches_the_per_cell_loop(
            (system, placement, grid) in arb_scene(),
            pick in 0usize..80,
            rotated in any::<bool>(),
            spacing_quarters in 0u32..5,
        ) {
            let chiplet = ChipletId::from_index(pick % system.chiplet_count());
            let rotation = if rotated { Rotation::Quarter } else { Rotation::None };
            let spacing = spacing_quarters as f64 * 0.25;
            let mask = grid.feasibility_mask(&system, &placement, chiplet, rotation, spacing);
            let reference =
                feasibility_mask_reference(&grid, &system, &placement, chiplet, rotation, spacing);
            prop_assert_eq!(&mask, &reference);
            for (cell, &feasible) in mask.iter().enumerate() {
                prop_assert_eq!(
                    grid.cell_feasible(&system, &placement, chiplet, rotation, spacing, cell),
                    feasible
                );
            }
        }

        /// Occupancy and power maps equal the per-cell loops bit for bit.
        #[test]
        fn maps_match_the_per_cell_loops_bit_for_bit(
            (system, placement, grid) in arb_scene(),
        ) {
            prop_assert_eq!(
                bits(&grid.occupancy_map(&system, &placement)),
                bits(&occupancy_map_reference(&grid, &system, &placement))
            );
            prop_assert_eq!(
                bits(&grid.power_map(&system, &placement)),
                bits(&power_map_reference(&grid, &system, &placement))
            );
        }
    }

    #[test]
    fn non_finite_spacing_makes_every_cell_infeasible() {
        let (sys, a, b) = system();
        let grid = PlacementGrid::new(10, 10);
        let mut placement = Placement::for_system(&sys);
        grid.apply_action(
            &sys,
            &mut placement,
            a,
            Rotation::None,
            grid.cell_index(2, 2),
        )
        .unwrap();
        for spacing in [f64::NAN, f64::INFINITY] {
            let mask = grid.feasibility_mask(&sys, &placement, b, Rotation::None, spacing);
            assert_eq!(
                mask,
                feasibility_mask_reference(&grid, &sys, &placement, b, Rotation::None, spacing)
            );
            assert!(mask.iter().all(|&m| !m), "spacing {spacing}");
        }
    }

    #[test]
    fn cell_feasible_rejects_out_of_range_cells() {
        let (sys, a, _) = system();
        let grid = PlacementGrid::new(10, 10);
        let placement = Placement::for_system(&sys);
        assert!(grid.cell_feasible(
            &sys,
            &placement,
            a,
            Rotation::None,
            0.0,
            grid.cell_index(5, 5)
        ));
        assert!(!grid.cell_feasible(&sys, &placement, a, Rotation::None, 0.0, 100));
    }

    fn system() -> (ChipletSystem, ChipletId, ChipletId) {
        let mut sys = ChipletSystem::new("t", 20.0, 20.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 12.0));
        let b = sys.add_chiplet(Chiplet::new("b", 4.0, 8.0, 6.0));
        (sys, a, b)
    }

    #[test]
    fn cell_geometry() {
        let (sys, _, _) = system();
        let grid = PlacementGrid::new(10, 5);
        assert_eq!(grid.cell_count(), 50);
        assert_eq!(grid.cell_width(&sys), 2.0);
        assert_eq!(grid.cell_height(&sys), 4.0);
        assert_eq!(grid.cell_coords(0).unwrap(), (0, 0));
        assert_eq!(grid.cell_coords(11).unwrap(), (1, 1));
        assert_eq!(grid.cell_index(1, 1), 11);
        assert_eq!(grid.cell_center(&sys, 0).unwrap(), Point::new(1.0, 2.0));
    }

    #[test]
    fn cell_out_of_range_is_rejected() {
        let (sys, a, _) = system();
        let grid = PlacementGrid::new(4, 4);
        assert!(matches!(
            grid.cell_coords(16),
            Err(PlacementError::CellOutOfRange {
                cell: 16,
                cells: 16
            })
        ));
        assert!(grid.cell_center(&sys, 100).is_err());
        assert!(grid.rect_for(&sys, a, Rotation::None, 100).is_err());
    }

    #[test]
    fn position_centres_chiplet_on_cell() {
        let (sys, a, _) = system();
        let grid = PlacementGrid::new(10, 10);
        // Cell (5, 5) centre is at (11, 11); a is 6x6 so lower-left is (8, 8).
        let cell = grid.cell_index(5, 5);
        let rect = grid.rect_for(&sys, a, Rotation::None, cell).unwrap();
        assert_eq!(rect, Rect::new(8.0, 8.0, 6.0, 6.0));
    }

    #[test]
    fn boundary_cells_are_infeasible() {
        let (sys, a, _) = system();
        let grid = PlacementGrid::new(10, 10);
        let placement = Placement::for_system(&sys);
        let mask = grid.feasibility_mask(&sys, &placement, a, Rotation::None, 0.0);
        // Corner cell: a 6x6 chiplet centred at (1,1) spills outside.
        assert!(!mask[grid.cell_index(0, 0)]);
        // Centre cell is fine.
        assert!(mask[grid.cell_index(5, 5)]);
    }

    #[test]
    fn occupied_region_becomes_infeasible() {
        let (sys, a, b) = system();
        let grid = PlacementGrid::new(10, 10);
        let mut placement = Placement::for_system(&sys);
        grid.apply_action(
            &sys,
            &mut placement,
            a,
            Rotation::None,
            grid.cell_index(5, 5),
        )
        .unwrap();
        let mask = grid.feasibility_mask(&sys, &placement, b, Rotation::None, 0.1);
        // Directly on top of a is not allowed.
        assert!(!mask[grid.cell_index(5, 5)]);
        // Far corner region should still have feasible cells.
        assert!(mask.iter().any(|&m| m));
    }

    #[test]
    fn min_spacing_shrinks_feasible_region() {
        let (sys, a, b) = system();
        let grid = PlacementGrid::new(20, 20);
        let mut placement = Placement::for_system(&sys);
        grid.apply_action(
            &sys,
            &mut placement,
            a,
            Rotation::None,
            grid.cell_index(10, 10),
        )
        .unwrap();
        let loose = grid.feasibility_mask(&sys, &placement, b, Rotation::None, 0.0);
        let tight = grid.feasibility_mask(&sys, &placement, b, Rotation::None, 2.0);
        let loose_count = loose.iter().filter(|&&m| m).count();
        let tight_count = tight.iter().filter(|&&m| m).count();
        assert!(tight_count < loose_count);
    }

    #[test]
    fn rotation_changes_feasibility() {
        let mut sys = ChipletSystem::new("narrow", 20.0, 8.0);
        let tall = sys.add_chiplet(Chiplet::new("tall", 4.0, 10.0, 1.0));
        let grid = PlacementGrid::new(10, 4);
        let placement = Placement::for_system(&sys);
        let upright = grid.feasibility_mask(&sys, &placement, tall, Rotation::None, 0.0);
        let rotated = grid.feasibility_mask(&sys, &placement, tall, Rotation::Quarter, 0.0);
        // 10 mm tall chiplet cannot stand upright on an 8 mm interposer.
        assert!(upright.iter().all(|&m| !m));
        assert!(rotated.iter().any(|&m| m));
    }

    #[test]
    fn occupancy_map_sums_to_chiplet_area() {
        let (sys, a, _) = system();
        let grid = PlacementGrid::new(20, 20);
        let mut placement = Placement::for_system(&sys);
        grid.apply_action(
            &sys,
            &mut placement,
            a,
            Rotation::None,
            grid.cell_index(10, 10),
        )
        .unwrap();
        let map = grid.occupancy_map(&sys, &placement);
        let cell_area = grid.cell_width(&sys) * grid.cell_height(&sys);
        let covered: f64 = map.iter().map(|&v| v as f64 * cell_area).sum();
        assert!((covered - 36.0).abs() < 1e-6, "covered {covered}");
    }

    #[test]
    fn power_map_sums_to_placed_power() {
        let (sys, a, b) = system();
        let grid = PlacementGrid::new(25, 25);
        let mut placement = Placement::for_system(&sys);
        grid.apply_action(
            &sys,
            &mut placement,
            a,
            Rotation::None,
            grid.cell_index(6, 6),
        )
        .unwrap();
        grid.apply_action(
            &sys,
            &mut placement,
            b,
            Rotation::None,
            grid.cell_index(18, 18),
        )
        .unwrap();
        let map = grid.power_map(&sys, &placement);
        let total: f64 = map.iter().map(|&v| v as f64).sum();
        assert!((total - 18.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn empty_placement_maps_are_zero() {
        let (sys, _, _) = system();
        let grid = PlacementGrid::new(8, 8);
        let placement = Placement::for_system(&sys);
        assert!(grid
            .occupancy_map(&sys, &placement)
            .iter()
            .all(|&v| v == 0.0));
        assert!(grid.power_map(&sys, &placement).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_sized_grid_panics() {
        PlacementGrid::new(0, 4);
    }

    #[test]
    fn centered_position_matches_position_for() {
        let (sys, a, _) = system();
        let grid = PlacementGrid::new(10, 10);
        let footprint = sys.chiplet(a).footprint(Rotation::None);
        for cell in [0, 37, 99] {
            let via_cell = grid.position_for(&sys, footprint, cell).unwrap();
            let via_center = centered_position(footprint, grid.cell_center(&sys, cell).unwrap());
            assert_eq!(via_cell, via_center);
        }
    }

    #[test]
    fn nearest_cell_recovers_cell_centers() {
        let (sys, _, _) = system();
        let grid = PlacementGrid::new(10, 5);
        for cell in 0..grid.cell_count() {
            let center = grid.cell_center(&sys, cell).unwrap();
            assert_eq!(grid.nearest_cell(&sys, center), cell);
        }
    }

    #[test]
    fn nearest_cell_clamps_outside_points() {
        let (sys, _, _) = system();
        let grid = PlacementGrid::new(10, 10);
        assert_eq!(
            grid.nearest_cell(&sys, Point::new(-5.0, -100.0)),
            grid.cell_index(0, 0)
        );
        assert_eq!(
            grid.nearest_cell(&sys, Point::new(1e9, 21.0)),
            grid.cell_index(9, 9)
        );
        // Non-finite coordinates clamp instead of panicking.
        assert_eq!(
            grid.nearest_cell(&sys, Point::new(f64::NAN, f64::INFINITY)),
            grid.cell_index(0, 9)
        );
    }

    #[test]
    fn nearest_cell_picks_the_closest_center() {
        let (sys, _, _) = system();
        let grid = PlacementGrid::new(10, 10);
        // Cell width/height are 2.0; a point at (3.1, 5.9) is inside cell
        // (1, 2), whose centre (3.0, 5.0) is the nearest of all centres.
        let cell = grid.nearest_cell(&sys, Point::new(3.1, 5.9));
        assert_eq!(cell, grid.cell_index(1, 2));
        let snapped = grid.cell_center(&sys, cell).unwrap();
        for other in 0..grid.cell_count() {
            let c = grid.cell_center(&sys, other).unwrap();
            assert!(
                c.euclidean_distance(Point::new(3.1, 5.9))
                    >= snapped.euclidean_distance(Point::new(3.1, 5.9)) - 1e-12
            );
        }
    }
}
