//! Chiplet systems: dies, interposer outline and inter-chiplet nets.

use crate::chiplet::{Chiplet, ChipletId};
use crate::error::PlacementError;
use crate::geometry::Rect;
use crate::placement::Placement;

/// Index of a net inside a [`ChipletSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// Returns the zero-based index of the net within its system.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A point-to-point inter-chiplet connection.
///
/// Every net connects exactly two chiplets and carries `wires` parallel
/// signals (microbump pairs); total wirelength counts each wire, mirroring
/// the TAP-2.5D objective the paper adopts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net {
    /// Source chiplet.
    pub from: ChipletId,
    /// Destination chiplet.
    pub to: ChipletId,
    /// Number of parallel wires (microbump pairs) carried by this net.
    pub wires: u32,
}

impl Net {
    /// Creates a net between two chiplets with the given wire count.
    ///
    /// # Panics
    ///
    /// Panics if `wires` is zero or the endpoints are identical.
    pub fn new(from: ChipletId, to: ChipletId, wires: u32) -> Self {
        assert!(wires > 0, "a net must carry at least one wire");
        assert_ne!(from, to, "a net must connect two distinct chiplets");
        Self { from, to, wires }
    }

    /// Returns the chiplet at the other end of the net, if `id` is an endpoint.
    pub fn opposite(&self, id: ChipletId) -> Option<ChipletId> {
        if id == self.from {
            Some(self.to)
        } else if id == self.to {
            Some(self.from)
        } else {
            None
        }
    }
}

/// A complete chiplet-based system: interposer outline, dies and nets.
///
/// # Examples
///
/// ```
/// use rlp_chiplet::{Chiplet, ChipletSystem, Net};
///
/// let mut sys = ChipletSystem::new("cpu-dram", 40.0, 40.0);
/// let cpu = sys.add_chiplet(Chiplet::new("cpu", 12.0, 12.0, 45.0));
/// let dram = sys.add_chiplet(Chiplet::new("dram", 8.0, 10.0, 8.0));
/// sys.add_net(Net::new(cpu, dram, 128));
/// assert_eq!(sys.chiplet_count(), 2);
/// assert_eq!(sys.total_power(), 53.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChipletSystem {
    name: String,
    interposer_width_mm: f64,
    interposer_height_mm: f64,
    chiplets: Vec<Chiplet>,
    nets: Vec<Net>,
}

impl ChipletSystem {
    /// Creates an empty system with the given interposer outline (mm).
    ///
    /// # Panics
    ///
    /// Panics if the interposer dimensions are not strictly positive.
    pub fn new(
        name: impl Into<String>,
        interposer_width_mm: f64,
        interposer_height_mm: f64,
    ) -> Self {
        assert!(
            interposer_width_mm > 0.0 && interposer_height_mm > 0.0,
            "interposer outline must be strictly positive"
        );
        Self {
            name: name.into(),
            interposer_width_mm,
            interposer_height_mm,
            chiplets: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Name of the system (benchmark identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Interposer width in millimetres.
    pub fn interposer_width(&self) -> f64 {
        self.interposer_width_mm
    }

    /// Interposer height in millimetres.
    pub fn interposer_height(&self) -> f64 {
        self.interposer_height_mm
    }

    /// The interposer outline as a rectangle anchored at the origin.
    pub fn interposer_rect(&self) -> Rect {
        Rect::new(
            0.0,
            0.0,
            self.interposer_width_mm,
            self.interposer_height_mm,
        )
    }

    /// Adds a chiplet and returns its identifier.
    pub fn add_chiplet(&mut self, chiplet: Chiplet) -> ChipletId {
        self.chiplets.push(chiplet);
        ChipletId(self.chiplets.len() - 1)
    }

    /// Adds an inter-chiplet net and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not belong to this system.
    pub fn add_net(&mut self, net: Net) -> NetId {
        assert!(
            net.from.index() < self.chiplets.len() && net.to.index() < self.chiplets.len(),
            "net endpoints must refer to chiplets already added to the system"
        );
        self.nets.push(net);
        NetId(self.nets.len() - 1)
    }

    /// Number of chiplets.
    pub fn chiplet_count(&self) -> usize {
        self.chiplets.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Returns the chiplet with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this system.
    pub fn chiplet(&self, id: ChipletId) -> &Chiplet {
        &self.chiplets[id.index()]
    }

    /// Returns a chiplet by identifier, or `None` if it is out of range.
    pub fn get_chiplet(&self, id: ChipletId) -> Option<&Chiplet> {
        self.chiplets.get(id.index())
    }

    /// Iterates over `(id, chiplet)` pairs.
    pub fn chiplets(&self) -> impl Iterator<Item = (ChipletId, &Chiplet)> {
        self.chiplets
            .iter()
            .enumerate()
            .map(|(i, c)| (ChipletId(i), c))
    }

    /// Iterates over all chiplet identifiers.
    pub fn chiplet_ids(&self) -> impl Iterator<Item = ChipletId> {
        (0..self.chiplets.len()).map(ChipletId)
    }

    /// Iterates over the nets.
    pub fn nets(&self) -> impl Iterator<Item = &Net> {
        self.nets.iter()
    }

    /// Returns the net with the given identifier.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not belong to this system.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Nets incident to the given chiplet.
    pub fn nets_of(&self, id: ChipletId) -> impl Iterator<Item = &Net> {
        self.nets.iter().filter(move |n| n.from == id || n.to == id)
    }

    /// Sum of all chiplet powers in watts.
    pub fn total_power(&self) -> f64 {
        self.chiplets.iter().map(Chiplet::power).sum()
    }

    /// Sum of all chiplet areas in square millimetres.
    pub fn total_chiplet_area(&self) -> f64 {
        self.chiplets.iter().map(Chiplet::area).sum()
    }

    /// Fraction of the interposer covered by chiplets (0–1).
    pub fn utilization(&self) -> f64 {
        self.total_chiplet_area() / (self.interposer_width_mm * self.interposer_height_mm)
    }

    /// Checks that a placement is complete and legal.
    ///
    /// A legal placement places every chiplet fully inside the interposer
    /// outline and keeps every pair of chiplets at least `min_spacing_mm`
    /// apart in either the x or the y direction (the TAP-2.5D spacing rule).
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`PlacementError`].
    pub fn validate_placement(
        &self,
        placement: &Placement,
        min_spacing_mm: f64,
    ) -> Result<(), PlacementError> {
        if placement.slot_count() != self.chiplets.len() {
            return Err(PlacementError::SizeMismatch {
                placement_slots: placement.slot_count(),
                system_chiplets: self.chiplets.len(),
            });
        }
        let outline = self.interposer_rect();
        let mut rects: Vec<(ChipletId, Rect)> = Vec::with_capacity(self.chiplets.len());
        for id in self.chiplet_ids() {
            let rect = placement
                .rect_of(id, self)
                .ok_or(PlacementError::Unplaced { id })?;
            if !outline.contains_rect(&rect) {
                return Err(PlacementError::OutOfBounds { id });
            }
            rects.push((id, rect));
        }
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                let (id_a, ref a) = rects[i];
                let (id_b, ref b) = rects[j];
                if a.violates_spacing(b, min_spacing_mm) {
                    return Err(PlacementError::SpacingViolation {
                        first: id_a,
                        second: id_b,
                        required_mm: min_spacing_mm,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks only what a move touched: the outline of each chiplet in
    /// `changed`, and every pair that contains one of them.
    ///
    /// # Precondition
    ///
    /// `placement` was legal under `min_spacing_mm` before the chiplets in
    /// `changed` moved, and no other chiplet moved since. Pairs of unmoved
    /// chiplets are then still legal, so the result equals
    /// `self.validate_placement(placement, min_spacing_mm).is_ok()` at
    /// O(moved × n) instead of O(n²) cost and without allocating. Without
    /// the precondition the result says nothing about the unmoved pairs.
    pub fn moved_chiplets_legal(
        &self,
        placement: &Placement,
        changed: &[ChipletId],
        min_spacing_mm: f64,
    ) -> bool {
        if placement.slot_count() != self.chiplets.len() {
            return false;
        }
        let outline = self.interposer_rect();
        changed.iter().all(|&id| {
            let Some(rect) = placement.rect_of(id, self) else {
                return false;
            };
            outline.contains_rect(&rect)
                && self
                    .chiplet_ids()
                    .filter(|&other| other != id)
                    .all(|other| {
                        placement
                            .rect_of(other, self)
                            .is_some_and(|r| !rect.violates_spacing(&r, min_spacing_mm))
                    })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Position;

    fn two_chiplet_system() -> (ChipletSystem, ChipletId, ChipletId) {
        let mut sys = ChipletSystem::new("t", 20.0, 20.0);
        let a = sys.add_chiplet(Chiplet::new("a", 5.0, 5.0, 10.0));
        let b = sys.add_chiplet(Chiplet::new("b", 4.0, 4.0, 5.0));
        sys.add_net(Net::new(a, b, 16));
        (sys, a, b)
    }

    #[test]
    fn aggregate_statistics() {
        let (sys, _, _) = two_chiplet_system();
        assert_eq!(sys.total_power(), 15.0);
        assert_eq!(sys.total_chiplet_area(), 41.0);
        assert!((sys.utilization() - 41.0 / 400.0).abs() < 1e-12);
        assert_eq!(sys.chiplet_count(), 2);
        assert_eq!(sys.net_count(), 1);
    }

    #[test]
    fn nets_of_filters_by_endpoint() {
        let (mut sys, a, b) = two_chiplet_system();
        let c = sys.add_chiplet(Chiplet::new("c", 2.0, 2.0, 1.0));
        sys.add_net(Net::new(a, c, 4));
        assert_eq!(sys.nets_of(a).count(), 2);
        assert_eq!(sys.nets_of(b).count(), 1);
        assert_eq!(sys.nets_of(c).count(), 1);
    }

    #[test]
    fn net_opposite_endpoint() {
        let (sys, a, b) = two_chiplet_system();
        let net = sys.nets().next().unwrap();
        assert_eq!(net.opposite(a), Some(b));
        assert_eq!(net.opposite(b), Some(a));
        assert_eq!(net.opposite(ChipletId::from_index(99)), None);
    }

    #[test]
    fn valid_placement_passes() {
        let (sys, a, b) = two_chiplet_system();
        let mut p = Placement::new(sys.chiplet_count());
        p.place(a, Position::new(1.0, 1.0));
        p.place(b, Position::new(10.0, 10.0));
        assert!(sys.validate_placement(&p, 0.5).is_ok());
    }

    #[test]
    fn unplaced_chiplet_is_reported() {
        let (sys, a, _) = two_chiplet_system();
        let mut p = Placement::new(sys.chiplet_count());
        p.place(a, Position::new(1.0, 1.0));
        assert!(matches!(
            sys.validate_placement(&p, 0.5),
            Err(PlacementError::Unplaced { .. })
        ));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let (sys, a, b) = two_chiplet_system();
        let mut p = Placement::new(sys.chiplet_count());
        p.place(a, Position::new(17.0, 1.0)); // 5 mm wide, right edge at 22 > 20
        p.place(b, Position::new(1.0, 10.0));
        assert!(matches!(
            sys.validate_placement(&p, 0.5),
            Err(PlacementError::OutOfBounds { id }) if id == a
        ));
    }

    #[test]
    fn overlap_is_reported_as_spacing_violation() {
        let (sys, a, b) = two_chiplet_system();
        let mut p = Placement::new(sys.chiplet_count());
        p.place(a, Position::new(1.0, 1.0));
        p.place(b, Position::new(3.0, 3.0));
        assert!(matches!(
            sys.validate_placement(&p, 0.0),
            Err(PlacementError::SpacingViolation { .. })
        ));
    }

    #[test]
    fn spacing_rule_is_enforced() {
        let (sys, a, b) = two_chiplet_system();
        let mut p = Placement::new(sys.chiplet_count());
        p.place(a, Position::new(1.0, 1.0));
        // Right edge of a is at 6.0; b starts at 6.2, only 0.2 mm away.
        p.place(b, Position::new(6.2, 1.0));
        assert!(matches!(
            sys.validate_placement(&p, 0.5),
            Err(PlacementError::SpacingViolation { .. })
        ));
        assert!(sys.validate_placement(&p, 0.1).is_ok());
    }

    #[test]
    fn moved_chiplet_checks_match_full_validation() {
        let (mut sys, a, b) = two_chiplet_system();
        let c = sys.add_chiplet(Chiplet::new("c", 3.0, 3.0, 1.0));
        let mut p = Placement::new(sys.chiplet_count());
        p.place(a, Position::new(1.0, 1.0));
        p.place(b, Position::new(10.0, 10.0));
        p.place(c, Position::new(1.0, 12.0));
        assert!(sys.validate_placement(&p, 0.5).is_ok());
        // Each target for `b`: legal, overlapping `a`, too close to `c`,
        // outside the outline, touching `a` at spacing zero.
        for (x, y, spacing) in [
            (12.0, 2.0, 0.5),
            (3.0, 3.0, 0.5),
            (4.2, 12.0, 0.5),
            (17.0, 10.0, 0.5),
            (6.0, 1.0, 0.0),
        ] {
            let mut moved = p.clone();
            moved.place(b, Position::new(x, y));
            assert_eq!(
                sys.moved_chiplets_legal(&moved, &[b], spacing),
                sys.validate_placement(&moved, spacing).is_ok(),
                "b at ({x}, {y}), spacing {spacing}"
            );
        }
        // Two moved chiplets that collide only with each other.
        let mut both = p.clone();
        both.place(a, Position::new(12.0, 2.0));
        both.place(b, Position::new(13.0, 3.0));
        assert!(sys.validate_placement(&both, 0.5).is_err());
        assert!(!sys.moved_chiplets_legal(&both, &[a, b], 0.5));
        // An unplaced chiplet or a foreign placement is never legal.
        let mut partial = p.clone();
        partial.unplace(c);
        assert!(!sys.moved_chiplets_legal(&partial, &[b], 0.5));
        assert!(!sys.moved_chiplets_legal(&Placement::new(2), &[b], 0.5));
    }

    #[test]
    fn size_mismatch_is_reported() {
        let (sys, _, _) = two_chiplet_system();
        let p = Placement::new(1);
        assert!(matches!(
            sys.validate_placement(&p, 0.5),
            Err(PlacementError::SizeMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "distinct chiplets")]
    fn self_loop_net_is_rejected() {
        let id = ChipletId::from_index(0);
        Net::new(id, id, 1);
    }

    #[test]
    #[should_panic(expected = "already added")]
    fn net_with_unknown_endpoint_is_rejected() {
        let mut sys = ChipletSystem::new("t", 10.0, 10.0);
        let a = sys.add_chiplet(Chiplet::new("a", 1.0, 1.0, 1.0));
        sys.add_net(Net::new(a, ChipletId::from_index(5), 1));
    }
}
