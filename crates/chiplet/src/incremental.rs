//! Incremental (propose/commit/reject) wirelength evaluation.
//!
//! [`crate::wirelength::bump_aware_wirelength`] recomputes the wirelength
//! of *every* net from scratch, which is wasteful inside a move-based
//! optimisation loop: a single moved chiplet only changes the nets
//! incident to it. [`IncrementalWirelength`] caches the per-net wirelength
//! terms and, for a proposed move, recomputes only the affected nets —
//! using the same closed-form per-net kernel
//! ([`crate::bumps::net_wirelength`], O(bump rows) per net) and the same
//! net-order summation as the full evaluation, so the maintained total is
//! **bit-identical** to a from-scratch `bump_aware_wirelength` of the same
//! placement at every step.
//!
//! The protocol is propose/commit/reject: [`IncrementalWirelength::propose`]
//! evaluates a candidate placement that differs from the committed one in a
//! given set of chiplets, then either [`IncrementalWirelength::commit`]
//! keeps the candidate terms or [`IncrementalWirelength::reject`] restores
//! the committed ones. All buffers are preallocated at construction; a
//! proposal performs no heap allocation.

use crate::bumps::{net_wirelength, BumpConfig};
use crate::chiplet::{ChipletId, Rotation};
use crate::error::PlacementError;
use crate::netlist::{ChipletSystem, NetId};
use crate::placement::{Placement, Position};

/// Cached per-net wirelength terms with O(affected nets) move evaluation;
/// see the [module docs](self).
///
/// # Examples
///
/// ```
/// use rlp_chiplet::bumps::BumpConfig;
/// use rlp_chiplet::wirelength::bump_aware_wirelength;
/// use rlp_chiplet::{Chiplet, ChipletSystem, IncrementalWirelength, Net, Placement, Position};
///
/// let mut sys = ChipletSystem::new("demo", 40.0, 40.0);
/// let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 10.0));
/// let b = sys.add_chiplet(Chiplet::new("b", 6.0, 6.0, 10.0));
/// sys.add_net(Net::new(a, b, 16));
/// let mut p = Placement::for_system(&sys);
/// p.place(a, Position::new(2.0, 2.0));
/// p.place(b, Position::new(20.0, 2.0));
///
/// let config = BumpConfig::default();
/// let mut inc = IncrementalWirelength::new(&sys, &p, config).unwrap();
/// assert_eq!(inc.total(), bump_aware_wirelength(&sys, &p, &config).unwrap());
///
/// // Move `b` closer and commit: the maintained total tracks the full eval.
/// let delta = inc.delta_for_move(&sys, b, Position::new(10.0, 2.0), Default::default());
/// assert!(delta < 0.0);
/// inc.commit();
/// p.place(b, Position::new(10.0, 2.0));
/// assert_eq!(inc.total(), bump_aware_wirelength(&sys, &p, &config).unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalWirelength {
    config: BumpConfig,
    /// The committed placement the cached terms correspond to (updated
    /// in-place by proposals, restored on reject).
    placement: Placement,
    /// Wirelength of each net, in net order.
    net_lengths: Vec<f64>,
    /// Indices into `net_lengths` of the nets incident to each chiplet.
    nets_of_chiplet: Vec<Vec<usize>>,
    /// Sum of `net_lengths` in net order (bit-identical to the full eval).
    total: f64,
    /// Whether a proposal is in flight.
    pending: bool,
    /// Total of the in-flight proposal.
    pending_total: f64,
    /// Saved `(net index, previous length)` pairs for reject.
    saved_nets: Vec<(usize, f64)>,
    /// Saved `(chiplet, previous slot)` pairs for reject.
    saved_slots: Vec<(ChipletId, Option<(Position, Rotation)>)>,
}

impl IncrementalWirelength {
    /// Builds the cached terms for a complete placement.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Unplaced`] if any net endpoint has no
    /// position (mirroring
    /// [`crate::wirelength::bump_aware_wirelength`]).
    pub fn new(
        system: &ChipletSystem,
        placement: &Placement,
        config: BumpConfig,
    ) -> Result<Self, PlacementError> {
        let mut nets_of_chiplet = vec![Vec::new(); system.chiplet_count()];
        let mut net_lengths = Vec::with_capacity(system.net_count());
        for (index, net) in system.nets().enumerate() {
            let ra = placement
                .rect_of(net.from, system)
                .ok_or(PlacementError::Unplaced { id: net.from })?;
            let rb = placement
                .rect_of(net.to, system)
                .ok_or(PlacementError::Unplaced { id: net.to })?;
            net_lengths.push(net_wirelength(&ra, &rb, net.wires, &config));
            nets_of_chiplet[net.from.index()].push(index);
            nets_of_chiplet[net.to.index()].push(index);
        }
        let total = net_lengths.iter().sum();
        Ok(Self {
            config,
            placement: placement.clone(),
            net_lengths,
            nets_of_chiplet,
            total,
            pending: false,
            pending_total: 0.0,
            saved_nets: Vec::with_capacity(8),
            saved_slots: Vec::with_capacity(2),
        })
    }

    /// The committed total wirelength in millimetres — bit-identical to
    /// `bump_aware_wirelength` of the committed placement.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The committed placement the cached terms correspond to.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Proposes a candidate placement that differs from the committed one
    /// exactly in the chiplets listed in `changed`, and returns the
    /// candidate's total wirelength. The proposal stays pending until
    /// [`IncrementalWirelength::commit`] or
    /// [`IncrementalWirelength::reject`] resolves it.
    ///
    /// Only the nets incident to `changed` are recomputed; the cost is
    /// O(bump rows on affected nets) plus an O(nets) re-sum, independent of
    /// the wire counts.
    ///
    /// # Panics
    ///
    /// Panics if a proposal is already pending, or if an affected net
    /// endpoint is unplaced in the candidate (incremental evaluation is
    /// defined over complete placements).
    pub fn propose(
        &mut self,
        system: &ChipletSystem,
        candidate: &Placement,
        changed: &[ChipletId],
    ) -> f64 {
        assert!(!self.pending, "a proposal is already pending");
        self.saved_slots.clear();
        for &id in changed {
            let previous = match candidate.position(id) {
                Some(position) => {
                    let rotation = candidate
                        .rotation(id)
                        .expect("placed chiplet has a rotation");
                    let prev = self.placement.unplace(id);
                    self.placement.place_rotated(id, position, rotation);
                    prev
                }
                None => self.placement.unplace(id),
            };
            self.saved_slots.push((id, previous));
        }
        self.recompute_affected(system, changed);
        self.pending = true;
        self.pending_total
    }

    /// Proposes moving one chiplet to a new position and rotation, and
    /// returns the change in total wirelength (candidate minus committed).
    /// Like [`IncrementalWirelength::propose`], the proposal stays pending
    /// until committed or rejected.
    ///
    /// # Panics
    ///
    /// Panics if a proposal is already pending or the move leaves a net
    /// endpoint unplaced.
    pub fn delta_for_move(
        &mut self,
        system: &ChipletSystem,
        chiplet: ChipletId,
        new_pos: Position,
        rotation: Rotation,
    ) -> f64 {
        assert!(!self.pending, "a proposal is already pending");
        self.saved_slots.clear();
        let previous = self.placement.unplace(chiplet);
        self.placement.place_rotated(chiplet, new_pos, rotation);
        self.saved_slots.push((chiplet, previous));
        self.recompute_affected(system, &[chiplet]);
        self.pending = true;
        self.pending_total - self.total
    }

    /// Recomputes the nets incident to `changed` against the (already
    /// updated) internal placement, saving the previous terms for reject.
    fn recompute_affected(&mut self, system: &ChipletSystem, changed: &[ChipletId]) {
        self.saved_nets.clear();
        for &id in changed {
            for index in 0..self.nets_of_chiplet[id.index()].len() {
                let net_index = self.nets_of_chiplet[id.index()][index];
                if self.saved_nets.iter().any(|&(saved, _)| saved == net_index) {
                    continue; // both endpoints changed; already recomputed
                }
                let net = *system.net(NetId(net_index));
                let ra = self
                    .placement
                    .rect_of(net.from, system)
                    .expect("incremental wirelength requires complete placements");
                let rb = self
                    .placement
                    .rect_of(net.to, system)
                    .expect("incremental wirelength requires complete placements");
                self.saved_nets
                    .push((net_index, self.net_lengths[net_index]));
                self.net_lengths[net_index] = net_wirelength(&ra, &rb, net.wires, &self.config);
            }
        }
        // Re-sum in net order so the candidate total is bit-identical to a
        // from-scratch evaluation (a running +=delta would drift).
        self.pending_total = self.net_lengths.iter().sum();
        rlp_obs::obs_counter!("chiplet.incremental.nets_recomputed")
            .add(self.saved_nets.len() as u64);
    }

    /// Keeps the pending proposal as the new committed state.
    ///
    /// # Panics
    ///
    /// Panics if no proposal is pending.
    pub fn commit(&mut self) {
        assert!(self.pending, "no proposal to commit");
        self.total = self.pending_total;
        self.saved_nets.clear();
        self.saved_slots.clear();
        self.pending = false;
    }

    /// Discards the pending proposal, restoring the committed state.
    ///
    /// # Panics
    ///
    /// Panics if no proposal is pending.
    pub fn reject(&mut self) {
        assert!(self.pending, "no proposal to reject");
        for &(net_index, previous) in self.saved_nets.iter().rev() {
            self.net_lengths[net_index] = previous;
        }
        while let Some((id, previous)) = self.saved_slots.pop() {
            match previous {
                Some((position, rotation)) => {
                    self.placement.place_rotated(id, position, rotation);
                }
                None => {
                    self.placement.unplace(id);
                }
            }
        }
        self.saved_nets.clear();
        self.pending = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chiplet::Chiplet;
    use crate::netlist::Net;
    use crate::wirelength::bump_aware_wirelength;

    fn system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 50.0, 50.0);
        let a = sys.add_chiplet(Chiplet::new("a", 6.0, 6.0, 10.0));
        let b = sys.add_chiplet(Chiplet::new("b", 5.0, 7.0, 10.0));
        let c = sys.add_chiplet(Chiplet::new("c", 4.0, 4.0, 5.0));
        sys.add_net(Net::new(a, b, 32));
        sys.add_net(Net::new(b, c, 8));
        sys.add_net(Net::new(a, c, 4));
        sys
    }

    fn placement(sys: &ChipletSystem) -> Placement {
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let mut p = Placement::for_system(sys);
        p.place(ids[0], Position::new(2.0, 2.0));
        p.place(ids[1], Position::new(20.0, 4.0));
        p.place(ids[2], Position::new(10.0, 30.0));
        p
    }

    #[test]
    fn initial_total_matches_full_evaluation() {
        let sys = system();
        let p = placement(&sys);
        let config = BumpConfig::default();
        let inc = IncrementalWirelength::new(&sys, &p, config).unwrap();
        let full = bump_aware_wirelength(&sys, &p, &config).unwrap();
        assert_eq!(inc.total().to_bits(), full.to_bits());
    }

    #[test]
    fn incomplete_placement_is_rejected() {
        let sys = system();
        let mut p = placement(&sys);
        let ids: Vec<_> = sys.chiplet_ids().collect();
        p.unplace(ids[2]);
        assert!(matches!(
            IncrementalWirelength::new(&sys, &p, BumpConfig::default()),
            Err(PlacementError::Unplaced { .. })
        ));
    }

    #[test]
    fn committed_proposal_matches_full_evaluation_bit_for_bit() {
        let sys = system();
        let mut p = placement(&sys);
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let config = BumpConfig::default();
        let mut inc = IncrementalWirelength::new(&sys, &p, config).unwrap();

        p.place_rotated(ids[1], Position::new(30.0, 20.0), Rotation::Quarter);
        let candidate_total = inc.propose(&sys, &p, &[ids[1]]);
        let full = bump_aware_wirelength(&sys, &p, &config).unwrap();
        assert_eq!(candidate_total.to_bits(), full.to_bits());
        inc.commit();
        assert_eq!(inc.total().to_bits(), full.to_bits());
    }

    #[test]
    fn rejected_proposal_restores_the_committed_state() {
        let sys = system();
        let p = placement(&sys);
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let config = BumpConfig::default();
        let mut inc = IncrementalWirelength::new(&sys, &p, config).unwrap();
        let before = inc.total();

        let mut candidate = p.clone();
        candidate.place(ids[0], Position::new(40.0, 40.0));
        inc.propose(&sys, &candidate, &[ids[0]]);
        inc.reject();
        assert_eq!(inc.total().to_bits(), before.to_bits());
        assert_eq!(inc.placement(), &p);

        // The state still evaluates correctly after the reject.
        let mut candidate = p.clone();
        candidate.place(ids[2], Position::new(40.0, 2.0));
        let total = inc.propose(&sys, &candidate, &[ids[2]]);
        let full = bump_aware_wirelength(&sys, &candidate, &config).unwrap();
        assert_eq!(total.to_bits(), full.to_bits());
    }

    #[test]
    fn delta_for_move_reports_the_difference() {
        let sys = system();
        let p = placement(&sys);
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let config = BumpConfig::default();
        let mut inc = IncrementalWirelength::new(&sys, &p, config).unwrap();
        let before = inc.total();

        let delta = inc.delta_for_move(&sys, ids[2], Position::new(12.0, 10.0), Rotation::None);
        inc.commit();
        let mut moved = p.clone();
        moved.place(ids[2], Position::new(12.0, 10.0));
        let full = bump_aware_wirelength(&sys, &moved, &config).unwrap();
        assert_eq!(inc.total().to_bits(), full.to_bits());
        assert!((delta - (full - before)).abs() < 1e-9);
    }

    #[test]
    fn swap_style_two_chiplet_proposals_touch_shared_nets_once() {
        let sys = system();
        let p = placement(&sys);
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let config = BumpConfig::default();
        let mut inc = IncrementalWirelength::new(&sys, &p, config).unwrap();

        // Swap a and b (they share a net): the shared net must be
        // recomputed exactly once and the result must match the full eval.
        let mut candidate = p.clone();
        let pa = p.position(ids[0]).unwrap();
        let pb = p.position(ids[1]).unwrap();
        candidate.place(ids[0], pb);
        candidate.place(ids[1], pa);
        let total = inc.propose(&sys, &candidate, &[ids[0], ids[1]]);
        let full = bump_aware_wirelength(&sys, &candidate, &config).unwrap();
        assert_eq!(total.to_bits(), full.to_bits());
        inc.commit();
        assert_eq!(inc.total().to_bits(), full.to_bits());
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn double_propose_panics() {
        let sys = system();
        let p = placement(&sys);
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let mut inc = IncrementalWirelength::new(&sys, &p, BumpConfig::default()).unwrap();
        inc.propose(&sys, &p, &[ids[0]]);
        inc.propose(&sys, &p, &[ids[0]]);
    }
}
