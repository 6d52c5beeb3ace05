//! Placements: positions and orientations for every chiplet in a system.

use crate::chiplet::{ChipletId, Rotation};
use crate::geometry::{Point, Rect};
use crate::netlist::ChipletSystem;

/// Lower-left corner of a placed chiplet, in millimetres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate of the lower-left corner.
    pub x: f64,
    /// Y coordinate of the lower-left corner.
    pub y: f64,
}

impl Position {
    /// Creates a position from its coordinates.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }
}

impl From<Position> for Point {
    fn from(p: Position) -> Point {
        Point::new(p.x, p.y)
    }
}

/// A (possibly partial) assignment of positions and rotations to chiplets.
///
/// The RL environment builds a placement incrementally — one chiplet per
/// step — so unplaced slots are represented explicitly.
///
/// # Examples
///
/// ```
/// use rlp_chiplet::{Placement, Position, ChipletId, Rotation};
///
/// let mut p = Placement::new(2);
/// assert!(!p.is_complete());
/// p.place_rotated(ChipletId::from_index(0), Position::new(1.0, 2.0), Rotation::Quarter);
/// p.place(ChipletId::from_index(1), Position::new(5.0, 5.0));
/// assert!(p.is_complete());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    slots: Vec<Option<(Position, Rotation)>>,
}

impl Placement {
    /// Creates an empty placement with `slot_count` unplaced chiplets.
    pub fn new(slot_count: usize) -> Self {
        Self {
            slots: vec![None; slot_count],
        }
    }

    /// Creates a placement sized for the given system.
    pub fn for_system(system: &ChipletSystem) -> Self {
        Self::new(system.chiplet_count())
    }

    /// Number of chiplet slots (placed or not).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of chiplets that have been placed.
    pub fn placed_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Returns `true` when every chiplet has a position.
    pub fn is_complete(&self) -> bool {
        self.slots.iter().all(|s| s.is_some())
    }

    /// Places a chiplet without rotation.
    ///
    /// # Panics
    ///
    /// Panics if the chiplet index is out of range.
    pub fn place(&mut self, id: ChipletId, position: Position) {
        self.place_rotated(id, position, Rotation::None);
    }

    /// Places a chiplet with an explicit orientation, replacing any previous
    /// position for that chiplet.
    ///
    /// # Panics
    ///
    /// Panics if the chiplet index is out of range.
    pub fn place_rotated(&mut self, id: ChipletId, position: Position, rotation: Rotation) {
        assert!(
            id.index() < self.slots.len(),
            "{id} out of range for placement with {} slots",
            self.slots.len()
        );
        self.slots[id.index()] = Some((position, rotation));
    }

    /// Removes a chiplet from the placement, returning its previous state.
    ///
    /// # Panics
    ///
    /// Panics if the chiplet index is out of range.
    pub fn unplace(&mut self, id: ChipletId) -> Option<(Position, Rotation)> {
        assert!(id.index() < self.slots.len(), "{id} out of range");
        self.slots[id.index()].take()
    }

    /// Position of a chiplet, if it has been placed.
    pub fn position(&self, id: ChipletId) -> Option<Position> {
        self.slots.get(id.index()).and_then(|s| s.map(|(p, _)| p))
    }

    /// Rotation of a chiplet, if it has been placed.
    pub fn rotation(&self, id: ChipletId) -> Option<Rotation> {
        self.slots.get(id.index()).and_then(|s| s.map(|(_, r)| r))
    }

    /// The occupied rectangle of a chiplet under this placement.
    ///
    /// Returns `None` if the chiplet is unplaced or unknown to the system.
    pub fn rect_of(&self, id: ChipletId, system: &ChipletSystem) -> Option<Rect> {
        let (pos, rot) = (*self.slots.get(id.index())?)?;
        let chiplet = system.get_chiplet(id)?;
        let (w, h) = chiplet.footprint(rot);
        Some(Rect::new(pos.x, pos.y, w, h))
    }

    /// Centre point of a placed chiplet.
    pub fn center_of(&self, id: ChipletId, system: &ChipletSystem) -> Option<Point> {
        self.rect_of(id, system).map(|r| r.center())
    }

    /// Iterates over `(id, position, rotation)` for every placed chiplet.
    pub fn iter_placed(&self) -> impl Iterator<Item = (ChipletId, Position, Rotation)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(p, r)| (ChipletId::from_index(i), p, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chiplet::Chiplet;

    fn system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 20.0, 20.0);
        sys.add_chiplet(Chiplet::new("a", 4.0, 2.0, 1.0));
        sys.add_chiplet(Chiplet::new("b", 3.0, 3.0, 1.0));
        sys
    }

    #[test]
    fn place_and_query() {
        let sys = system();
        let a = ChipletId::from_index(0);
        let mut p = Placement::for_system(&sys);
        assert_eq!(p.placed_count(), 0);
        p.place(a, Position::new(1.0, 1.0));
        assert_eq!(p.placed_count(), 1);
        assert_eq!(p.position(a), Some(Position::new(1.0, 1.0)));
        assert_eq!(p.rotation(a), Some(Rotation::None));
        assert_eq!(p.rect_of(a, &sys), Some(Rect::new(1.0, 1.0, 4.0, 2.0)));
        assert_eq!(p.center_of(a, &sys), Some(Point::new(3.0, 2.0)));
    }

    #[test]
    fn rotation_affects_rect() {
        let sys = system();
        let a = ChipletId::from_index(0);
        let mut p = Placement::for_system(&sys);
        p.place_rotated(a, Position::new(0.0, 0.0), Rotation::Quarter);
        assert_eq!(p.rect_of(a, &sys), Some(Rect::new(0.0, 0.0, 2.0, 4.0)));
    }

    #[test]
    fn unplace_returns_previous_state() {
        let a = ChipletId::from_index(0);
        let mut p = Placement::new(2);
        p.place(a, Position::new(1.0, 1.0));
        let prev = p.unplace(a);
        assert_eq!(prev, Some((Position::new(1.0, 1.0), Rotation::None)));
        assert_eq!(p.position(a), None);
        assert_eq!(p.unplace(a), None);
    }

    #[test]
    fn completeness_and_unplaced_ids() {
        let mut p = Placement::new(3);
        let unplaced = |p: &Placement| -> Vec<usize> {
            (0..3)
                .filter(|&i| p.position(ChipletId::from_index(i)).is_none())
                .collect()
        };
        assert!(!p.is_complete());
        assert_eq!(unplaced(&p), [0, 1, 2]);
        p.place(ChipletId::from_index(1), Position::new(0.0, 0.0));
        assert!(!p.is_complete());
        assert_eq!(unplaced(&p), [0, 2]);
        p.place(ChipletId::from_index(0), Position::new(0.0, 0.0));
        p.place(ChipletId::from_index(2), Position::new(0.0, 0.0));
        assert!(p.is_complete());
    }

    #[test]
    fn iter_placed_yields_only_placed() {
        let mut p = Placement::new(3);
        p.place(ChipletId::from_index(2), Position::new(5.0, 5.0));
        let placed: Vec<_> = p.iter_placed().collect();
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].0, ChipletId::from_index(2));
    }

    #[test]
    fn rect_of_unknown_chiplet_is_none() {
        let sys = system();
        let mut p = Placement::new(5);
        p.place(ChipletId::from_index(4), Position::new(0.0, 0.0));
        assert_eq!(p.rect_of(ChipletId::from_index(4), &sys), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placing_out_of_range_panics() {
        let mut p = Placement::new(1);
        p.place(ChipletId::from_index(1), Position::new(0.0, 0.0));
    }
}
