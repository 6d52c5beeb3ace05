//! Chiplet dies and their identifiers.

/// Index of a chiplet inside a [`crate::ChipletSystem`].
///
/// Identifiers are handed out by [`crate::ChipletSystem::add_chiplet`] and
/// are valid only for the system that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChipletId(pub(crate) usize);

impl ChipletId {
    /// Returns the zero-based index of the chiplet within its system.
    pub fn index(self) -> usize {
        self.0
    }

    /// Creates an identifier from a raw index.
    ///
    /// Intended for deserialisation and test fixtures; using an index that
    /// does not belong to the system will surface as a
    /// [`crate::PlacementError::UnknownChiplet`] at validation time.
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }
}

impl std::fmt::Display for ChipletId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chiplet#{}", self.0)
    }
}

/// Orientation of a placed chiplet.
///
/// Only 90° rotations are modelled; the paper's benchmarks use rectangular
/// dies, so a rotation simply swaps width and height.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rotation {
    /// Width along the x axis (as authored).
    #[default]
    None,
    /// Rotated by 90°: width and height are swapped.
    Quarter,
}

impl Rotation {
    /// Returns the opposite orientation.
    pub fn toggled(self) -> Self {
        match self {
            Rotation::None => Rotation::Quarter,
            Rotation::Quarter => Rotation::None,
        }
    }
}

/// A rectangular chiplet die.
///
/// # Examples
///
/// ```
/// use rlp_chiplet::{Chiplet, Rotation};
/// let c = Chiplet::new("gpu0", 12.0, 14.0, 75.0);
/// assert_eq!(c.footprint(Rotation::Quarter), (14.0, 12.0));
/// assert!((c.power_density() - 75.0 / (12.0 * 14.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Chiplet {
    name: String,
    width_mm: f64,
    height_mm: f64,
    power_w: f64,
}

impl Chiplet {
    /// Creates a chiplet with the given name, footprint (mm) and power (W).
    ///
    /// # Panics
    ///
    /// Panics if the width or height is not strictly positive, or if the
    /// power is negative or not finite.
    pub fn new(name: impl Into<String>, width_mm: f64, height_mm: f64, power_w: f64) -> Self {
        assert!(
            width_mm > 0.0 && height_mm > 0.0 && width_mm.is_finite() && height_mm.is_finite(),
            "chiplet footprint must be strictly positive"
        );
        assert!(
            power_w >= 0.0 && power_w.is_finite(),
            "chiplet power must be non-negative and finite"
        );
        Self {
            name: name.into(),
            width_mm,
            height_mm,
            power_w,
        }
    }

    /// Human-readable name of the chiplet.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Width of the unrotated die in millimetres.
    pub fn width(&self) -> f64 {
        self.width_mm
    }

    /// Height of the unrotated die in millimetres.
    pub fn height(&self) -> f64 {
        self.height_mm
    }

    /// Total power dissipation in watts.
    pub fn power(&self) -> f64 {
        self.power_w
    }

    /// Die area in square millimetres.
    pub fn area(&self) -> f64 {
        self.width_mm * self.height_mm
    }

    /// Power density in watts per square millimetre.
    pub fn power_density(&self) -> f64 {
        self.power_w / self.area()
    }

    /// Footprint `(width, height)` for a given orientation.
    pub fn footprint(&self, rotation: Rotation) -> (f64, f64) {
        match rotation {
            Rotation::None => (self.width_mm, self.height_mm),
            Rotation::Quarter => (self.height_mm, self.width_mm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_report_constructor_values() {
        let c = Chiplet::new("hbm", 7.75, 11.87, 15.0);
        assert_eq!(c.name(), "hbm");
        assert_eq!(c.width(), 7.75);
        assert_eq!(c.height(), 11.87);
        assert_eq!(c.power(), 15.0);
        assert!((c.area() - 7.75 * 11.87).abs() < 1e-12);
    }

    #[test]
    fn rotation_swaps_footprint() {
        let c = Chiplet::new("die", 3.0, 5.0, 1.0);
        assert_eq!(c.footprint(Rotation::None), (3.0, 5.0));
        assert_eq!(c.footprint(Rotation::Quarter), (5.0, 3.0));
    }

    #[test]
    fn rotation_toggles() {
        assert_eq!(Rotation::None.toggled(), Rotation::Quarter);
        assert_eq!(Rotation::Quarter.toggled(), Rotation::None);
        assert_eq!(Rotation::default(), Rotation::None);
    }

    #[test]
    fn zero_power_is_allowed() {
        let c = Chiplet::new("dummy", 1.0, 1.0, 0.0);
        assert_eq!(c.power_density(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_width_is_rejected() {
        Chiplet::new("bad", 0.0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_power_is_rejected() {
        Chiplet::new("bad", 1.0, 1.0, -1.0);
    }

    #[test]
    fn chiplet_id_display_and_index() {
        let id = ChipletId::from_index(3);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "chiplet#3");
    }
}
