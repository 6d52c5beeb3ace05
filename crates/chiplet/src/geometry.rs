//! Planar geometry primitives (millimetre units).
//!
//! All dimensions in this crate are in millimetres, matching the interposer
//! and die dimensions used by the TAP-2.5D benchmarks.

use serde::{Deserialize, Serialize};
use std::ops::{BitAnd, BitOr};

/// A point in the interposer plane, in millimetres.
///
/// # Examples
///
/// ```
/// use rlp_chiplet::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.manhattan_distance(b), 7.0);
/// assert!((a.euclidean_distance(b) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate in millimetres.
    pub x: f64,
    /// Vertical coordinate in millimetres.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Manhattan (L1) distance to another point.
    pub fn manhattan_distance(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Euclidean (L2) distance to another point.
    pub fn euclidean_distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// An axis-aligned rectangle described by its lower-left corner and size.
///
/// # Examples
///
/// ```
/// use rlp_chiplet::Rect;
/// let a = Rect::new(0.0, 0.0, 4.0, 4.0);
/// let b = Rect::new(2.0, 2.0, 4.0, 4.0);
/// assert!(a.overlaps(&b));
/// assert_eq!(a.intersection_area(&b), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Rect {
    /// X coordinate of the lower-left corner, in millimetres.
    pub x: f64,
    /// Y coordinate of the lower-left corner, in millimetres.
    pub y: f64,
    /// Width in millimetres (non-negative).
    pub width: f64,
    /// Height in millimetres (non-negative).
    pub height: f64,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is negative or not finite.
    pub fn new(x: f64, y: f64, width: f64, height: f64) -> Self {
        assert!(
            width >= 0.0 && height >= 0.0 && width.is_finite() && height.is_finite(),
            "rectangle size must be non-negative and finite"
        );
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// Creates a rectangle centred at `center` with the given size.
    pub fn from_center(center: Point, width: f64, height: f64) -> Self {
        Self::new(
            center.x - width / 2.0,
            center.y - height / 2.0,
            width,
            height,
        )
    }

    /// X coordinate of the right edge.
    pub fn right(&self) -> f64 {
        self.x + self.width
    }

    /// Y coordinate of the top edge.
    pub fn top(&self) -> f64 {
        self.y + self.height
    }

    /// Centre point of the rectangle.
    pub fn center(&self) -> Point {
        Point::new(self.x + self.width / 2.0, self.y + self.height / 2.0)
    }

    /// Area in square millimetres.
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Returns `true` if the rectangles overlap with positive area.
    ///
    /// Rectangles that merely touch along an edge do not overlap.
    pub fn overlaps(&self, other: &Rect) -> bool {
        AxisGap::overlaps(self.x, self.right(), other.x, other.right())
            && AxisGap::overlaps(self.y, self.top(), other.y, other.top())
    }

    /// Area of the intersection of two rectangles (zero if disjoint).
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let dx = axis_overlap(self.x, self.right(), other.x, other.right());
        let dy = axis_overlap(self.y, self.top(), other.y, other.top());
        if dx > 0.0 && dy > 0.0 {
            dx * dy
        } else {
            0.0
        }
    }

    /// Returns `true` if `other` lies entirely inside `self` (edges may touch).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        axis_contains(self.x, self.right(), other.x, other.right())
            && axis_contains(self.y, self.top(), other.y, other.top())
    }

    /// Returns `true` if the point lies inside or on the boundary.
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.x && p.x <= self.right() && p.y >= self.y && p.y <= self.top()
    }

    /// Returns the rectangle expanded by `margin` on every side.
    ///
    /// A negative margin shrinks the rectangle; the size is clamped at zero.
    pub fn expanded(&self, margin: f64) -> Rect {
        let width = (self.width + 2.0 * margin).max(0.0);
        let height = (self.height + 2.0 * margin).max(0.0);
        let center = self.center();
        Rect::from_center(center, width, height)
    }

    /// Minimum separation between two rectangles along the x and y axes.
    ///
    /// Each component is zero when the projections overlap on that axis, so
    /// `(0.0, 0.0)` means the rectangles overlap or touch.
    pub fn separation(&self, other: &Rect) -> (f64, f64) {
        (
            AxisGap::gap(self.x, self.right(), other.x, other.right()),
            AxisGap::gap(self.y, self.top(), other.y, other.top()),
        )
    }

    /// Returns `true` if the two rectangles break the spacing rule: they
    /// overlap, or their gap is below `min_spacing_mm` on both axes.
    ///
    /// This is the one statement of the TAP-2.5D spacing rule; placement
    /// validation, the grid feasibility masks and the annealer's
    /// moved-chiplet checks all reduce to it. A NaN spacing is never met,
    /// so every pair violates it.
    pub fn violates_spacing(&self, other: &Rect, min_spacing_mm: f64) -> bool {
        let x = AxisGap::new(self.x, self.right(), other.x, other.right(), min_spacing_mm);
        let y = AxisGap::new(self.y, self.top(), other.y, other.top(), min_spacing_mm);
        x.violates_spacing_with(y)
    }

    /// Shortest centre-to-centre Euclidean distance to another rectangle.
    pub fn center_distance(&self, other: &Rect) -> f64 {
        self.center().euclidean_distance(other.center())
    }
}

/// Signed length of the overlap of `[lo_a, hi_a]` and `[lo_b, hi_b]`
/// (not positive when they are disjoint): one axis of
/// [`Rect::intersection_area`].
pub(crate) fn axis_overlap(lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64) -> f64 {
    hi_a.min(hi_b) - lo_a.max(lo_b)
}

/// `true` when the interval `[lo, hi]` lies inside `[outer_lo, outer_hi]`:
/// one axis of [`Rect::contains_rect`].
pub(crate) fn axis_contains(outer_lo: f64, outer_hi: f64, lo: f64, hi: f64) -> bool {
    lo >= outer_lo && hi <= outer_hi
}

/// One axis of the spacing rule between two rectangles.
///
/// The rule of [`Rect::violates_spacing`] splits exactly into an x half and
/// a y half: the rectangles overlap when their projections overlap on both
/// axes, and they are too close when the gap is below the spacing on both
/// axes (`dx.max(dy) < s` is `!(dx >= s || dy >= s)` under IEEE `max`).
/// [`PlacementGrid`](crate::PlacementGrid) evaluates each half once per
/// column or row instead of once per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AxisGap {
    /// The projections overlap with positive length.
    pub(crate) overlaps: bool,
    /// The gap between the projections is not at least the spacing.
    pub(crate) close: bool,
}

impl AxisGap {
    /// Relates the projections `[lo_a, hi_a]` and `[lo_b, hi_b]` under the
    /// spacing `min_spacing_mm`.
    // `!(gap >= s)` rather than `gap < s`: a NaN spacing is never met.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn new(lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64, min_spacing_mm: f64) -> Self {
        Self {
            overlaps: Self::overlaps(lo_a, hi_a, lo_b, hi_b),
            close: !(Self::gap(lo_a, hi_a, lo_b, hi_b) >= min_spacing_mm),
        }
    }

    /// `true` when the projections overlap with positive length.
    fn overlaps(lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64) -> bool {
        lo_a < hi_b && lo_b < hi_a
    }

    /// Distance between the projections; zero when they overlap or touch.
    fn gap(lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64) -> f64 {
        if hi_a < lo_b {
            lo_b - hi_a
        } else if hi_b < lo_a {
            lo_a - hi_b
        } else {
            0.0
        }
    }

    /// Combines this axis with the other one: `true` when the pair breaks
    /// the spacing rule.
    pub(crate) fn violates_spacing_with(self, other: AxisGap) -> bool {
        spacing_violation(self.overlaps, self.close, other.overlaps, other.close)
    }
}

/// The spacing rule assembled from its per-axis halves: overlapping on both
/// axes, or close on both axes. Evaluated on `bool`s for one pair of
/// rectangles, or on `u64` bitsets for up to 64 pairs at once.
pub(crate) fn spacing_violation<T: BitAnd<Output = T> + BitOr<Output = T>>(
    x_overlaps: T,
    x_close: T,
    y_overlaps: T,
    y_close: T,
) -> T {
    (x_overlaps & y_overlaps) | (x_close & y_close)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distances() {
        let a = Point::new(1.0, 1.0);
        let b = Point::new(4.0, 5.0);
        assert_eq!(a.manhattan_distance(b), 7.0);
        assert!((a.euclidean_distance(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.manhattan_distance(a), 0.0);
    }

    #[test]
    fn rect_accessors() {
        let r = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.right(), 4.0);
        assert_eq!(r.top(), 6.0);
        assert_eq!(r.center(), Point::new(2.5, 4.0));
        assert_eq!(r.area(), 12.0);
    }

    #[test]
    fn from_center_round_trips() {
        let r = Rect::from_center(Point::new(5.0, 5.0), 4.0, 2.0);
        assert_eq!(r.x, 3.0);
        assert_eq!(r.y, 4.0);
        assert_eq!(r.center(), Point::new(5.0, 5.0));
    }

    #[test]
    fn overlapping_rects() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(3.0, 3.0, 4.0, 4.0);
        assert!(a.overlaps(&b));
        assert_eq!(a.intersection_area(&b), 1.0);
    }

    #[test]
    fn touching_rects_do_not_overlap() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(4.0, 0.0, 4.0, 4.0);
        assert!(!a.overlaps(&b));
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn disjoint_rects() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(10.0, 10.0, 1.0, 1.0);
        assert!(!a.overlaps(&b));
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn containment() {
        let outer = Rect::new(0.0, 0.0, 10.0, 10.0);
        let inner = Rect::new(1.0, 1.0, 2.0, 2.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_point(Point::new(10.0, 10.0)));
        assert!(!outer.contains_point(Point::new(10.1, 0.0)));
    }

    #[test]
    fn expansion_and_shrinking() {
        let r = Rect::new(2.0, 2.0, 2.0, 2.0);
        let grown = r.expanded(1.0);
        assert_eq!(grown, Rect::new(1.0, 1.0, 4.0, 4.0));
        let shrunk = r.expanded(-2.0);
        assert_eq!(shrunk.area(), 0.0);
    }

    #[test]
    fn separation_components() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(5.0, 0.0, 2.0, 2.0);
        assert_eq!(a.separation(&b), (3.0, 0.0));
        let c = Rect::new(0.0, 7.0, 2.0, 2.0);
        assert_eq!(a.separation(&c), (0.0, 5.0));
        assert_eq!(a.separation(&a), (0.0, 0.0));
    }

    /// The spacing rule as validation spelled it before it was split into
    /// per-axis halves.
    fn violates_spacing_reference(a: &Rect, b: &Rect, min_spacing_mm: f64) -> bool {
        let overlaps = a.x < b.x + b.width
            && b.x < a.x + a.width
            && a.y < b.y + b.height
            && b.y < a.y + a.height;
        let gap = |lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64| {
            if hi_a < lo_b {
                lo_b - hi_a
            } else if hi_b < lo_a {
                lo_a - hi_b
            } else {
                0.0
            }
        };
        let dx = gap(a.x, a.right(), b.x, b.right());
        let dy = gap(a.y, a.top(), b.y, b.top());
        dx.max(dy) < min_spacing_mm || overlaps
    }

    #[test]
    fn spacing_rule_matches_its_combined_spelling() {
        // A lattice of positions and sizes hits touching edges, gaps equal
        // to the spacing, containment and overlap on either axis.
        let steps = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0];
        let a = Rect::new(1.0, 1.0, 1.0, 1.0);
        for &x in &steps {
            for &y in &steps {
                for &w in &steps[..4] {
                    for &h in &steps[1..4] {
                        let b = Rect::new(x, y, w, h);
                        for s in [-1.0, 0.0, 0.5, 1.0, 2.0] {
                            let expected = violates_spacing_reference(&a, &b, s);
                            assert_eq!(a.violates_spacing(&b, s), expected, "{b:?} s={s}");
                            assert_eq!(b.violates_spacing(&a, s), expected, "{b:?} s={s}");
                        }
                    }
                }
            }
        }
        // A NaN spacing is never met.
        let far = Rect::new(10.0, 10.0, 1.0, 1.0);
        assert!(a.violates_spacing(&far, f64::NAN));
        assert!(!a.violates_spacing(&far, 0.2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_size_panics() {
        Rect::new(0.0, 0.0, -1.0, 1.0);
    }
}
