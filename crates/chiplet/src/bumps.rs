//! Microbump assignment for inter-chiplet nets.
//!
//! After all chiplets are placed, the reward calculator assigns microbump
//! (pin) locations for every inter-chiplet connection so that the total
//! wirelength is minimised, following the TAP-2.5D flow the paper adopts.
//! The model used here:
//!
//! * Each net between chiplets `A` and `B` carries `wires` signals; each
//!   signal needs one bump on `A` and one on `B`.
//! * Bumps are distributed along the pair of *facing edges* (the edges of
//!   `A` and `B` that look at each other), at a configurable pitch, filling
//!   additional rows further inside the die when one row is not enough.
//! * Bumps are paired in order along the facing direction, and each wire's
//!   length is the Manhattan distance between its two bumps.
//!
//! This captures the dominant geometric effect (wirelength grows with the
//! separation of the facing edges and with lateral misalignment) without
//! modelling the full interposer routing fabric.
//!
//! [`assign_bumps`] emits every bump coordinate, so it walks every wire.
//! The reward only needs each net's total, which [`net_wirelength`]
//! computes in O(rows) from the same geometry: within a run of wires that
//! share a bump row on both dies, every wire has the same length.

use crate::chiplet::ChipletId;
use crate::error::PlacementError;
use crate::geometry::{Point, Rect};
use crate::netlist::{ChipletSystem, Net};
use crate::placement::Placement;

/// Geometric parameters of the microbump array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BumpConfig {
    /// Centre-to-centre bump pitch along an edge, in millimetres.
    pub pitch_mm: f64,
    /// Keep-out margin from the die corners, in millimetres.
    pub edge_margin_mm: f64,
}

impl Default for BumpConfig {
    fn default() -> Self {
        Self {
            // 100 µm microbump pitch, representative of 2.5D assembly.
            pitch_mm: 0.1,
            edge_margin_mm: 0.2,
        }
    }
}

/// Which side of a die a bump row sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Left edge (negative x direction).
    Left,
    /// Right edge (positive x direction).
    Right,
    /// Bottom edge (negative y direction).
    Bottom,
    /// Top edge (positive y direction).
    Top,
}

/// Bump locations for one net: `pairs[i]` is the (source, destination) bump
/// of wire `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct NetBumps {
    /// The net these bumps belong to.
    pub net: Net,
    /// Source-side edge used for the bumps.
    pub from_side: Side,
    /// Destination-side edge used for the bumps.
    pub to_side: Side,
    /// Paired bump coordinates, one entry per wire.
    pub pairs: Vec<(Point, Point)>,
}

impl NetBumps {
    /// Total Manhattan wirelength of this net in millimetres.
    pub fn wirelength(&self) -> f64 {
        self.pairs
            .iter()
            .map(|(a, b)| a.manhattan_distance(*b))
            .sum()
    }
}

/// A complete microbump assignment for every net of a system.
#[derive(Debug, Clone, PartialEq)]
pub struct BumpAssignment {
    nets: Vec<NetBumps>,
}

impl BumpAssignment {
    /// Per-net bump assignments, in net order.
    pub fn nets(&self) -> &[NetBumps] {
        &self.nets
    }

    /// Total wirelength over all nets, in millimetres.
    pub fn total_wirelength(&self) -> f64 {
        self.nets.iter().map(NetBumps::wirelength).sum()
    }

    /// Total number of bump pairs (wires) assigned.
    pub fn wire_count(&self) -> usize {
        self.nets.iter().map(|n| n.pairs.len()).sum()
    }
}

/// Decides which edges of the two dies face each other.
fn facing_sides(a: &Rect, b: &Rect) -> (Side, Side) {
    let ca = a.center();
    let cb = b.center();
    let dx = cb.x - ca.x;
    let dy = cb.y - ca.y;
    if dx.abs() >= dy.abs() {
        if dx >= 0.0 {
            (Side::Right, Side::Left)
        } else {
            (Side::Left, Side::Right)
        }
    } else if dy >= 0.0 {
        (Side::Top, Side::Bottom)
    } else {
        (Side::Bottom, Side::Top)
    }
}

/// Row layout of bumps along one side of a die: how many bumps fit per row
/// at the configured pitch, and where the row span starts.
#[derive(Clone, Copy)]
struct SideLayout {
    span: f64,
    span_start: f64,
    per_row: usize,
}

impl SideLayout {
    /// Unclamped along-edge coordinate of the first bump of `row` when the
    /// side carries `count` bumps: each row is centred on the side, and
    /// only the last row can be partial.
    fn row_start(self, row: usize, count: usize, pitch: f64) -> f64 {
        let in_row = self.per_row.min(count - row * self.per_row);
        let row_span = (in_row.saturating_sub(1)) as f64 * pitch;
        self.span_start + self.span / 2.0 - row_span / 2.0
    }

    /// The along-edge range bumps are clamped to.
    fn bounds(self) -> (f64, f64) {
        (self.span_start, self.span_start + self.span)
    }
}

fn side_layout(rect: &Rect, side: Side, config: &BumpConfig) -> SideLayout {
    let (span, span_start) = match side {
        Side::Left | Side::Right => (rect.height, rect.y),
        Side::Top | Side::Bottom => (rect.width, rect.x),
    };
    let usable = (span - 2.0 * config.edge_margin_mm).max(config.pitch_mm);
    let per_row = ((usable / config.pitch_mm).floor() as usize).max(1);
    SideLayout {
        span,
        span_start,
        per_row,
    }
}

/// Depth coordinate (x for left/right sides, y for bottom/top) of bump row
/// `row`: rows step one pitch further into the die, never past its far edge.
fn row_depth(rect: &Rect, side: Side, row: usize, config: &BumpConfig) -> f64 {
    let depth = config.edge_margin_mm + row as f64 * config.pitch_mm;
    match side {
        Side::Left => rect.x + depth.min(rect.width),
        Side::Right => rect.right() - depth.min(rect.width),
        Side::Bottom => rect.y + depth.min(rect.height),
        Side::Top => rect.top() - depth.min(rect.height),
    }
}

/// Coordinate of bump `i` out of `count` on the given side of a die.
fn bump_at(
    rect: &Rect,
    side: Side,
    layout: SideLayout,
    i: usize,
    count: usize,
    config: &BumpConfig,
) -> Point {
    let row = i / layout.per_row;
    let slot = i % layout.per_row;
    let (lo, hi) = layout.bounds();
    let along = (layout.row_start(row, count, config.pitch_mm) + slot as f64 * config.pitch_mm)
        .clamp(lo, hi);
    let depth = row_depth(rect, side, row, config);
    match side {
        Side::Left | Side::Right => Point::new(depth, along),
        Side::Bottom | Side::Top => Point::new(along, depth),
    }
}

/// Generates `count` bump coordinates on the given side of a die.
///
/// Bumps are packed at `config.pitch_mm` along the edge (centred on the
/// usable span); when a row is full, further bumps move one pitch towards
/// the die interior.
fn bumps_on_side(rect: &Rect, side: Side, count: usize, config: &BumpConfig) -> Vec<Point> {
    let layout = side_layout(rect, side, config);
    (0..count)
        .map(|i| bump_at(rect, side, layout, i, count, config))
        .collect()
}

/// Manhattan wirelength of one net between two placed die rectangles, in
/// O(rows) with no per-wire loop.
///
/// Facing sides are always opposite, so both bumps of a wire step along the
/// same axis at the same pitch. Splitting the wires at every row boundary
/// of either side leaves segments in which every wire has the same depth
/// offset and, until a clamp binds, the same along-edge offset: a segment
/// adds `wires × length`. Clamps bind only when a row is wider than its die
/// side (negative `edge_margin_mm`); those segments have a closed form too,
/// once split where a clamp starts or stops binding.
///
/// The result agrees with `NetBumps::wirelength` of the same net after
/// [`assign_bumps`] to within 1e-12 relative (property-tested against it),
/// but is not bit-identical to it: the per-wire sum rounds differently.
/// This is the per-net kernel of [`crate::wirelength::bump_aware_wirelength`]
/// and [`crate::incremental::IncrementalWirelength`].
pub fn net_wirelength(from: &Rect, to: &Rect, wires: u32, config: &BumpConfig) -> f64 {
    let (from_side, to_side) = facing_sides(from, to);
    let from_layout = side_layout(from, from_side, config);
    let to_layout = side_layout(to, to_side, config);
    let (count, pitch) = (wires as usize, config.pitch_mm);
    let mut total = 0.0;
    let mut i = 0;
    while i < count {
        let (row_a, row_b) = (i / from_layout.per_row, i / to_layout.per_row);
        let end = ((row_a + 1).saturating_mul(from_layout.per_row))
            .min((row_b + 1).saturating_mul(to_layout.per_row))
            .min(count);
        let n = end - i;
        let depth = (row_depth(from, from_side, row_a, config)
            - row_depth(to, to_side, row_b, config))
        .abs();
        let a = RowRun::new(from_layout, i, count, pitch);
        let b = RowRun::new(to_layout, i, count, pitch);
        let along = if a.is_free(n, pitch) && b.is_free(n, pitch) {
            n as f64 * (a.unclamped(0, pitch) - b.unclamped(0, pitch)).abs()
        } else {
            clamped_along_sum(a, b, n, pitch)
        };
        total += n as f64 * depth + along;
        i = end;
    }
    total
}

/// The bumps one side contributes to a segment of wires that share a row
/// on both sides: the segment's `k`-th wire sits at
/// `clamp(start + (slot0 + k)·pitch, lo, hi)` along the edge.
#[derive(Clone, Copy)]
struct RowRun {
    start: f64,
    slot0: usize,
    lo: f64,
    hi: f64,
}

impl RowRun {
    /// The run of `layout`'s row that holds wire `first_wire` of `count`.
    fn new(layout: SideLayout, first_wire: usize, count: usize, pitch: f64) -> Self {
        let row = first_wire / layout.per_row;
        let (lo, hi) = layout.bounds();
        Self {
            start: layout.row_start(row, count, pitch),
            slot0: first_wire - row * layout.per_row,
            lo,
            hi,
        }
    }

    /// Along-edge coordinate of the `k`-th wire before clamping, computed
    /// exactly as [`bump_at`] computes it.
    fn unclamped(self, k: usize, pitch: f64) -> f64 {
        self.start + (self.slot0 + k) as f64 * pitch
    }

    /// Whether no wire of `0..n` is clamped (the coordinate is monotone).
    fn is_free(self, n: usize, pitch: f64) -> bool {
        self.unclamped(0, pitch) >= self.lo && self.unclamped(n - 1, pitch) <= self.hi
    }

    /// The half-open range of `k` in `0..n` where the clamp does not bind:
    /// below it wires sit at `lo`, above it at `hi`.
    fn free_range(self, n: usize, pitch: f64) -> (usize, usize) {
        let first = self.unclamped(0, pitch);
        let n = n as f64;
        let begin = ((self.lo - first) / pitch).ceil().max(0.0).min(n);
        let end = (((self.hi - first) / pitch).floor() + 1.0)
            .max(begin)
            .min(n);
        (begin as usize, end as usize)
    }

    /// Value and per-wire slope of the clamped coordinate on the piece that
    /// starts at wire `k`, given the run's `free_range`.
    fn piece(self, k: usize, free: (usize, usize), pitch: f64) -> (f64, f64) {
        if k < free.0 {
            (self.lo, 0.0)
        } else if k < free.1 {
            (self.unclamped(k, pitch), pitch)
        } else {
            (self.hi, 0.0)
        }
    }
}

/// `Σ_{k<n} |along_a(k) − along_b(k)|` for a segment where a clamp binds.
/// Cutting `0..n` wherever either clamp starts or stops binding leaves at
/// most five pieces, and on each the difference is affine in `k` with
/// slope `0` or `±pitch`.
fn clamped_along_sum(a: RowRun, b: RowRun, n: usize, pitch: f64) -> f64 {
    let free_a = a.free_range(n, pitch);
    let free_b = b.free_range(n, pitch);
    let mut cuts = [0, free_a.0, free_a.1, free_b.0, free_b.1, n];
    cuts.sort_unstable();
    cuts.windows(2)
        .filter(|w| w[0] < w[1])
        .map(|w| {
            let (va, sa) = a.piece(w[0], free_a, pitch);
            let (vb, sb) = b.piece(w[0], free_b, pitch);
            sum_abs_affine(va - vb, sa - sb, w[1] - w[0])
        })
        .sum()
}

/// `Σ_{j<n} |c + d·j|` in closed form, split where `c + d·j` changes sign.
fn sum_abs_affine(c: f64, d: f64, n: usize) -> f64 {
    if d == 0.0 {
        return n as f64 * c.abs();
    }
    // Σ_{j0 ≤ j < j1} (c + d·j)
    let partial = |j0: usize, j1: usize| {
        let m = (j1 - j0) as f64;
        m * c + d * ((j0 + j1) as f64 - 1.0) * m / 2.0
    };
    let split = (-c / d).ceil().max(0.0).min(n as f64) as usize;
    d.signum() * (partial(split, n) - partial(0, split))
}

/// Assigns microbumps for every net of the system under the given placement.
///
/// # Errors
///
/// Returns [`PlacementError::Unplaced`] if any net endpoint has no position.
pub fn assign_bumps(
    system: &ChipletSystem,
    placement: &Placement,
    config: &BumpConfig,
) -> Result<BumpAssignment, PlacementError> {
    let rect_of = |id: ChipletId| -> Result<Rect, PlacementError> {
        placement
            .rect_of(id, system)
            .ok_or(PlacementError::Unplaced { id })
    };
    let mut nets = Vec::with_capacity(system.net_count());
    for net in system.nets() {
        let ra = rect_of(net.from)?;
        let rb = rect_of(net.to)?;
        let (from_side, to_side) = facing_sides(&ra, &rb);
        let count = net.wires as usize;
        let from_bumps = bumps_on_side(&ra, from_side, count, config);
        let to_bumps = bumps_on_side(&rb, to_side, count, config);
        let pairs = from_bumps.into_iter().zip(to_bumps).collect();
        nets.push(NetBumps {
            net: *net,
            from_side,
            to_side,
            pairs,
        });
    }
    Ok(BumpAssignment { nets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chiplet::Chiplet;
    use crate::placement::Position;

    fn placed_pair(gap: f64) -> (ChipletSystem, Placement) {
        let mut sys = ChipletSystem::new("t", 60.0, 60.0);
        let a = sys.add_chiplet(Chiplet::new("a", 10.0, 10.0, 10.0));
        let b = sys.add_chiplet(Chiplet::new("b", 10.0, 10.0, 10.0));
        sys.add_net(Net::new(a, b, 32));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(5.0, 20.0));
        p.place(b, Position::new(15.0 + gap, 20.0));
        (sys, p)
    }

    #[test]
    fn facing_sides_follow_relative_position() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let right = Rect::new(10.0, 0.0, 2.0, 2.0);
        assert_eq!(facing_sides(&a, &right), (Side::Right, Side::Left));
        assert_eq!(facing_sides(&right, &a), (Side::Left, Side::Right));
        let above = Rect::new(0.0, 10.0, 2.0, 2.0);
        assert_eq!(facing_sides(&a, &above), (Side::Top, Side::Bottom));
        assert_eq!(facing_sides(&above, &a), (Side::Bottom, Side::Top));
    }

    #[test]
    fn bumps_stay_inside_die() {
        let rect = Rect::new(2.0, 3.0, 6.0, 4.0);
        let config = BumpConfig::default();
        for side in [Side::Left, Side::Right, Side::Top, Side::Bottom] {
            for &count in &[1usize, 5, 40, 500] {
                for p in bumps_on_side(&rect, side, count, &config) {
                    assert!(rect.contains_point(p), "{p:?} escapes {rect:?} on {side:?}");
                }
            }
        }
    }

    #[test]
    fn bump_count_matches_wires() {
        let (sys, p) = placed_pair(5.0);
        let assignment = assign_bumps(&sys, &p, &BumpConfig::default()).unwrap();
        assert_eq!(assignment.wire_count(), 32);
        assert_eq!(assignment.nets().len(), 1);
        assert_eq!(assignment.nets()[0].pairs.len(), 32);
    }

    #[test]
    fn wirelength_grows_with_separation() {
        let config = BumpConfig::default();
        let (sys_near, p_near) = placed_pair(2.0);
        let (sys_far, p_far) = placed_pair(20.0);
        let near = assign_bumps(&sys_near, &p_near, &config)
            .unwrap()
            .total_wirelength();
        let far = assign_bumps(&sys_far, &p_far, &config)
            .unwrap()
            .total_wirelength();
        assert!(far > near, "far {far} should exceed near {near}");
    }

    #[test]
    fn facing_edges_are_used() {
        let (sys, p) = placed_pair(5.0);
        let assignment = assign_bumps(&sys, &p, &BumpConfig::default()).unwrap();
        let net = &assignment.nets()[0];
        assert_eq!(net.from_side, Side::Right);
        assert_eq!(net.to_side, Side::Left);
        // Source bumps should sit near x = 15 (right edge of a, minus margin).
        for (from, _) in &net.pairs {
            assert!(from.x > 13.0 && from.x <= 15.0);
        }
    }

    #[test]
    fn unplaced_endpoint_is_an_error() {
        let mut sys = ChipletSystem::new("t", 20.0, 20.0);
        let a = sys.add_chiplet(Chiplet::new("a", 2.0, 2.0, 1.0));
        let b = sys.add_chiplet(Chiplet::new("b", 2.0, 2.0, 1.0));
        sys.add_net(Net::new(a, b, 4));
        let mut p = Placement::for_system(&sys);
        p.place(a, Position::new(1.0, 1.0));
        assert!(matches!(
            assign_bumps(&sys, &p, &BumpConfig::default()),
            Err(PlacementError::Unplaced { id }) if id == b
        ));
    }

    #[test]
    fn wirelength_is_at_least_edge_separation_per_wire() {
        let (sys, p) = placed_pair(8.0);
        let assignment = assign_bumps(&sys, &p, &BumpConfig::default()).unwrap();
        // Facing edges are 8 mm apart; with the default 0.2 mm margins every
        // wire is at least 8 - 0.4 = 7.6 mm long.
        let wl = assignment.total_wirelength();
        assert!(wl >= 7.6 * 32.0, "wl {wl}");
    }

    #[test]
    fn net_wirelength_matches_the_assigned_bumps() {
        let config = BumpConfig::default();
        for &gap in &[1.5, 5.0, 13.0, 27.5] {
            let (sys, p) = placed_pair(gap);
            let assignment = assign_bumps(&sys, &p, &config).unwrap();
            let net = &assignment.nets()[0];
            let ra = p.rect_of(net.net.from, &sys).unwrap();
            let rb = p.rect_of(net.net.to, &sys).unwrap();
            let direct = net_wirelength(&ra, &rb, net.net.wires, &config);
            let oracle = net.wirelength();
            assert!(
                (direct - oracle).abs() <= 1e-12 * oracle,
                "gap {gap}: {direct} vs {oracle}"
            );
        }
    }

    #[test]
    fn zero_wire_net_is_impossible_so_every_net_has_pairs() {
        let (sys, p) = placed_pair(3.0);
        let assignment = assign_bumps(&sys, &p, &BumpConfig::default()).unwrap();
        assert!(assignment.nets().iter().all(|n| !n.pairs.is_empty()));
    }
}
