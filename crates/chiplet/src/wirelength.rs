//! Wirelength estimation.
//!
//! Two estimators are provided:
//!
//! * [`total_wirelength`] — fast centre-to-centre Manhattan estimate, each
//!   net weighted by its wire count. Used inside tight optimisation loops
//!   (e.g. intermediate SA moves) where the full bump assignment would be
//!   wasteful.
//! * [`bump_aware_wirelength`] — the total bump-to-bump Manhattan distance
//!   after the microbump assignment of [`crate::bumps`], summed per net in
//!   closed form by [`crate::bumps::net_wirelength`] without materialising
//!   the bumps. This is what the reward calculator uses once a placement is
//!   complete, matching the paper's description of the reward pipeline.

use crate::bumps::{net_wirelength, BumpConfig};
use crate::error::PlacementError;
use crate::netlist::ChipletSystem;
use crate::placement::Placement;

/// Centre-to-centre Manhattan wirelength estimate in millimetres.
///
/// Nets with unplaced endpoints contribute zero, so the estimate is usable
/// for partial placements (the RL environment's intermediate states).
///
/// # Examples
///
/// ```
/// use rlp_chiplet::{Chiplet, ChipletSystem, Net, Placement, Position};
/// use rlp_chiplet::wirelength::total_wirelength;
///
/// let mut sys = ChipletSystem::new("demo", 30.0, 30.0);
/// let a = sys.add_chiplet(Chiplet::new("a", 2.0, 2.0, 1.0));
/// let b = sys.add_chiplet(Chiplet::new("b", 2.0, 2.0, 1.0));
/// sys.add_net(Net::new(a, b, 10));
/// let mut p = Placement::for_system(&sys);
/// p.place(a, Position::new(0.0, 0.0));
/// p.place(b, Position::new(10.0, 0.0));
/// // Centres are 10 mm apart, 10 wires -> 100 mm.
/// assert!((total_wirelength(&sys, &p) - 100.0).abs() < 1e-9);
/// ```
pub fn total_wirelength(system: &ChipletSystem, placement: &Placement) -> f64 {
    system
        .nets()
        .map(|net| {
            let (Some(a), Some(b)) = (
                placement.center_of(net.from, system),
                placement.center_of(net.to, system),
            ) else {
                return 0.0;
            };
            net.wires as f64 * a.manhattan_distance(b)
        })
        .sum()
}

/// Bump-to-bump wirelength in millimetres after microbump assignment.
///
/// Sums [`net_wirelength`] over the nets in net order without allocating,
/// so the total is bit-identical to
/// [`crate::incremental::IncrementalWirelength::total`] for the same
/// placement, and within 1e-12 relative of
/// `assign_bumps(..).total_wirelength()`.
///
/// # Errors
///
/// Returns [`PlacementError::Unplaced`] if any net endpoint has no position.
pub fn bump_aware_wirelength(
    system: &ChipletSystem,
    placement: &Placement,
    config: &BumpConfig,
) -> Result<f64, PlacementError> {
    let rect_of = |id| {
        placement
            .rect_of(id, system)
            .ok_or(PlacementError::Unplaced { id })
    };
    system
        .nets()
        .map(|net| {
            let (from, to) = (rect_of(net.from)?, rect_of(net.to)?);
            Ok(net_wirelength(&from, &to, net.wires, config))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chiplet::Chiplet;
    use crate::netlist::Net;
    use crate::placement::Position;

    fn system_with_three() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 50.0, 50.0);
        let a = sys.add_chiplet(Chiplet::new("a", 4.0, 4.0, 5.0));
        let b = sys.add_chiplet(Chiplet::new("b", 4.0, 4.0, 5.0));
        let c = sys.add_chiplet(Chiplet::new("c", 4.0, 4.0, 5.0));
        sys.add_net(Net::new(a, b, 8));
        sys.add_net(Net::new(b, c, 2));
        sys
    }

    #[test]
    fn wirelength_weights_by_wire_count() {
        let sys = system_with_three();
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let mut p = Placement::for_system(&sys);
        p.place(ids[0], Position::new(0.0, 0.0));
        p.place(ids[1], Position::new(10.0, 0.0));
        p.place(ids[2], Position::new(10.0, 10.0));
        // a-b centres 10 apart * 8 wires + b-c centres 10 apart * 2 wires.
        assert!((total_wirelength(&sys, &p) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn partial_placement_counts_only_placed_nets() {
        let sys = system_with_three();
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let mut p = Placement::for_system(&sys);
        p.place(ids[0], Position::new(0.0, 0.0));
        p.place(ids[1], Position::new(5.0, 0.0));
        // b-c net has an unplaced endpoint and contributes zero.
        assert!((total_wirelength(&sys, &p) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_placement_has_zero_wirelength() {
        let sys = system_with_three();
        let p = Placement::for_system(&sys);
        assert_eq!(total_wirelength(&sys, &p), 0.0);
    }

    #[test]
    fn bump_aware_wirelength_close_to_center_estimate() {
        let sys = system_with_three();
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let mut p = Placement::for_system(&sys);
        p.place(ids[0], Position::new(2.0, 20.0));
        p.place(ids[1], Position::new(20.0, 20.0));
        p.place(ids[2], Position::new(38.0, 20.0));
        let centre = total_wirelength(&sys, &p);
        let bumps = bump_aware_wirelength(&sys, &p, &BumpConfig::default()).unwrap();
        // Bump-aware wirelength removes the intra-die halves, so it should be
        // smaller but of the same order.
        assert!(bumps > 0.0);
        assert!(bumps < centre);
        assert!(bumps > centre * 0.4);
    }

    #[test]
    fn bump_aware_requires_complete_placement() {
        let sys = system_with_three();
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let mut p = Placement::for_system(&sys);
        p.place(ids[0], Position::new(0.0, 0.0));
        assert!(bump_aware_wirelength(&sys, &p, &BumpConfig::default()).is_err());
    }
}
