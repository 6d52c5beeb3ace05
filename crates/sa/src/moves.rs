//! Legal move generation for the annealer.

use rand::seq::SliceRandom;
use rand::Rng;
use rlp_chiplet::grid::centered_position;
use rlp_chiplet::{ChipletId, ChipletSystem, Placement, PlacementGrid, Rotation};
use std::error::Error;
use std::fmt;

/// One annealing move, mirroring the TAP-2.5D move set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Re-place one chiplet on a different feasible grid cell.
    Relocate {
        /// The chiplet being moved.
        chiplet: ChipletId,
        /// Destination grid cell.
        cell: usize,
    },
    /// Exchange the positions (and rotations) of two chiplets.
    Swap {
        /// First chiplet.
        first: ChipletId,
        /// Second chiplet.
        second: ChipletId,
    },
    /// Toggle the 90° rotation of a chiplet in place.
    Rotate {
        /// The chiplet being rotated.
        chiplet: ChipletId,
    },
}

/// Error returned when no legal initial placement could be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitialPlacementError {
    /// The chiplet that could not be placed.
    pub chiplet: ChipletId,
}

impl fmt::Display for InitialPlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "could not find a feasible cell for {} while building the initial placement",
            self.chiplet
        )
    }
}

impl Error for InitialPlacementError {}

/// Builds a random legal initial placement by placing chiplets in order of
/// decreasing area, each on a random feasible grid cell.
///
/// # Errors
///
/// Returns [`InitialPlacementError`] if some chiplet has no feasible cell,
/// which usually means the grid is too coarse or the interposer too small.
pub fn random_initial_placement(
    system: &ChipletSystem,
    grid: &PlacementGrid,
    min_spacing_mm: f64,
    rng: &mut impl Rng,
) -> Result<Placement, InitialPlacementError> {
    let mut order: Vec<ChipletId> = system.chiplet_ids().collect();
    order.sort_by(|&a, &b| {
        system
            .chiplet(b)
            .area()
            .partial_cmp(&system.chiplet(a).area())
            .expect("chiplet areas are finite")
    });
    let mut placement = Placement::for_system(system);
    for id in order {
        let mask = grid.feasibility_mask(system, &placement, id, Rotation::None, min_spacing_mm);
        let feasible: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|(_, &ok)| ok)
            .map(|(cell, _)| cell)
            .collect();
        let Some(&cell) = feasible.choose(rng) else {
            return Err(InitialPlacementError { chiplet: id });
        };
        grid.apply_action(system, &mut placement, id, Rotation::None, cell)
            .expect("feasible cell is in range");
    }
    Ok(placement)
}

/// Proposes a random move. The move is *not* yet checked for legality; use
/// [`apply_move`] which validates and returns the modified placement only if
/// it stays legal.
pub fn propose_move<R: Rng>(system: &ChipletSystem, grid: &PlacementGrid, rng: &mut R) -> Move {
    let n = system.chiplet_count();
    let pick = |rng: &mut R| ChipletId::from_index(rng.gen_range(0..n));
    match rng.gen_range(0..10) {
        // Relocations dominate, as in TAP-2.5D.
        0..=5 => Move::Relocate {
            chiplet: pick(rng),
            cell: rng.gen_range(0..grid.cell_count()),
        },
        6..=8 if n >= 2 => {
            let first = pick(rng);
            let mut second = pick(rng);
            while second == first {
                second = pick(rng);
            }
            Move::Swap { first, second }
        }
        _ => Move::Rotate { chiplet: pick(rng) },
    }
}

/// Undo record returned by [`apply_move_in_place`]: the chiplets a move
/// changed and their previous placement slots. Stack-allocated — applying
/// and undoing moves performs no heap allocation, which is what lets the
/// anneal loop mutate one placement in place instead of cloning a candidate
/// per move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoveUndo {
    ids: [ChipletId; 2],
    prev: [Option<(rlp_chiplet::Position, Rotation)>; 2],
    len: usize,
}

impl MoveUndo {
    fn one(id: ChipletId, prev: Option<(rlp_chiplet::Position, Rotation)>) -> Self {
        Self {
            ids: [id, id],
            prev: [prev, None],
            len: 1,
        }
    }

    fn two(
        first: (ChipletId, Option<(rlp_chiplet::Position, Rotation)>),
        second: (ChipletId, Option<(rlp_chiplet::Position, Rotation)>),
    ) -> Self {
        Self {
            ids: [first.0, second.0],
            prev: [first.1, second.1],
            len: 2,
        }
    }

    /// The chiplets the move changed, in application order.
    pub fn changed(&self) -> &[ChipletId] {
        &self.ids[..self.len]
    }
}

/// Reverts a move applied by [`apply_move_in_place`], restoring the changed
/// chiplets to their previous slots.
pub fn undo_move(placement: &mut Placement, undo: &MoveUndo) {
    for i in (0..undo.len).rev() {
        match undo.prev[i] {
            Some((position, rotation)) => {
                placement.place_rotated(undo.ids[i], position, rotation);
            }
            None => {
                placement.unplace(undo.ids[i]);
            }
        }
    }
}

/// Applies a move directly to `placement`, returning an undo record if the
/// result is legal (every chiplet inside the interposer and spacing
/// respected). On an illegal or inapplicable move the placement is left
/// exactly as it was and `None` is returned.
///
/// This is the allocation-free core of [`apply_move`]; the anneal loop uses
/// it together with [`undo_move`] to avoid cloning a candidate placement on
/// every proposal.
///
/// # Precondition
///
/// `placement` must be legal under `min_spacing_mm` on entry, as it always
/// is inside the anneal loop. Only the moved chiplets are checked — their
/// outline and every pair that contains one of them (see
/// [`ChipletSystem::moved_chiplets_legal`]) — which is exact only when
/// every pair of unmoved chiplets was already legal.
pub fn apply_move_in_place(
    system: &ChipletSystem,
    grid: &PlacementGrid,
    placement: &mut Placement,
    candidate: Move,
    min_spacing_mm: f64,
) -> Option<MoveUndo> {
    let undo = apply_unchecked(system, grid, placement, candidate)?;
    if system.moved_chiplets_legal(placement, undo.changed(), min_spacing_mm) {
        Some(undo)
    } else {
        undo_move(placement, &undo);
        None
    }
}

/// Performs a move without any legality check, returning its undo record;
/// `None`, with the placement untouched, when the move does not apply.
fn apply_unchecked(
    system: &ChipletSystem,
    grid: &PlacementGrid,
    placement: &mut Placement,
    candidate: Move,
) -> Option<MoveUndo> {
    Some(match candidate {
        Move::Relocate { chiplet, cell } => {
            let prev = placement
                .position(chiplet)
                .and_then(|p| placement.rotation(chiplet).map(|r| (p, r)));
            let rotation = placement.rotation(chiplet).unwrap_or(Rotation::None);
            // `apply_action` fails only on an out-of-range cell, before any
            // mutation, so the placement is untouched on the error path.
            grid.apply_action(system, placement, chiplet, rotation, cell)
                .ok()?;
            MoveUndo::one(chiplet, prev)
        }
        Move::Swap { first, second } => {
            let pa = placement.position(first)?;
            let ra = placement.rotation(first)?;
            let pb = placement.position(second)?;
            let rb = placement.rotation(second)?;
            // Swap centre locations, keeping each chiplet's own rotation.
            let centre_a = placement.center_of(first, system)?;
            let centre_b = placement.center_of(second, system)?;
            let fa = system.chiplet(first).footprint(ra);
            let fb = system.chiplet(second).footprint(rb);
            placement.place_rotated(first, centered_position(fa, centre_b), ra);
            placement.place_rotated(second, centered_position(fb, centre_a), rb);
            MoveUndo::two((first, Some((pa, ra))), (second, Some((pb, rb))))
        }
        Move::Rotate { chiplet } => {
            let prev = placement
                .position(chiplet)
                .and_then(|p| placement.rotation(chiplet).map(|r| (p, r)));
            let centre = placement.center_of(chiplet, system)?;
            let rotation = placement.rotation(chiplet)?.toggled();
            let footprint = system.chiplet(chiplet).footprint(rotation);
            placement.place_rotated(chiplet, centered_position(footprint, centre), rotation);
            MoveUndo::one(chiplet, prev)
        }
    })
}

/// Applies a move to a copy of the placement, returning the new placement if
/// it is legal (every chiplet inside the interposer and spacing respected).
///
/// `placement` must be legal on entry: the same precondition as
/// [`apply_move_in_place`].
pub fn apply_move(
    system: &ChipletSystem,
    grid: &PlacementGrid,
    placement: &Placement,
    candidate: Move,
    min_spacing_mm: f64,
) -> Option<Placement> {
    let mut next = placement.clone();
    apply_move_in_place(system, grid, &mut next, candidate, min_spacing_mm).map(|_| next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use rlp_chiplet::Chiplet;

    /// The check the moved-only one replaced: the whole placement is
    /// validated after every move.
    fn apply_move_in_place_reference(
        system: &ChipletSystem,
        grid: &PlacementGrid,
        placement: &mut Placement,
        candidate: Move,
        min_spacing_mm: f64,
    ) -> Option<MoveUndo> {
        let undo = apply_unchecked(system, grid, placement, candidate)?;
        if system.validate_placement(placement, min_spacing_mm).is_ok() {
            Some(undo)
        } else {
            undo_move(placement, &undo);
            None
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// From every legal start, along a random walk of relocations,
        /// swaps and rotations, the moved-only check accepts exactly the
        /// moves full validation accepts. Die sizes and the interposer sit
        /// on a 0.5 mm lattice so edges touch and gaps equal the spacing.
        #[test]
        fn moved_only_checks_match_full_validation(
            seed in any::<u64>(),
            count in 2usize..9,
            spacing_halves in 0u32..3,
            grid_side in 4usize..21,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut sys = ChipletSystem::new("walk", 24.0, 24.0);
            for i in 0..count {
                let w = rng.gen_range(2..13) as f64 * 0.5;
                let h = rng.gen_range(2..13) as f64 * 0.5;
                sys.add_chiplet(Chiplet::new(format!("c{i}"), w, h, 1.0));
            }
            let spacing = spacing_halves as f64 * 0.5;
            let grid = PlacementGrid::new(grid_side, grid_side);
            let Ok(mut placement) = random_initial_placement(&sys, &grid, spacing, &mut rng) else {
                return Ok(());
            };
            for _ in 0..200 {
                let candidate = propose_move(&sys, &grid, &mut rng);
                let mut raw = placement.clone();
                if let Some(undo) = apply_unchecked(&sys, &grid, &mut raw, candidate) {
                    prop_assert_eq!(
                        sys.moved_chiplets_legal(&raw, undo.changed(), spacing),
                        sys.validate_placement(&raw, spacing).is_ok()
                    );
                }
                let mut reference = placement.clone();
                let expected = apply_move_in_place_reference(
                    &sys, &grid, &mut reference, candidate, spacing,
                );
                let got = apply_move_in_place(&sys, &grid, &mut placement, candidate, spacing);
                prop_assert_eq!(got, expected);
                prop_assert_eq!(&placement, &reference);
            }
        }
    }

    #[test]
    fn proposals_draw_the_same_stream_as_an_id_list() {
        // The id-list draw `propose_move` replaced, kept as an oracle.
        fn propose_move_reference(
            system: &ChipletSystem,
            grid: &PlacementGrid,
            rng: &mut impl Rng,
        ) -> Move {
            let ids: Vec<ChipletId> = system.chiplet_ids().collect();
            let pick = |rng: &mut dyn rand::RngCore| ids[rng.gen_range(0..ids.len())];
            match rng.gen_range(0..10) {
                0..=5 => Move::Relocate {
                    chiplet: pick(rng),
                    cell: rng.gen_range(0..grid.cell_count()),
                },
                6..=8 if ids.len() >= 2 => {
                    let first = pick(rng);
                    let mut second = pick(rng);
                    while second == first {
                        second = pick(rng);
                    }
                    Move::Swap { first, second }
                }
                _ => Move::Rotate { chiplet: pick(rng) },
            }
        }
        let grid = PlacementGrid::new(16, 16);
        let mut single = ChipletSystem::new("one", 40.0, 40.0);
        single.add_chiplet(Chiplet::new("a", 8.0, 8.0, 1.0));
        for sys in [system(), single] {
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut reference_rng = rng.clone();
            for _ in 0..2_000 {
                assert_eq!(
                    propose_move(&sys, &grid, &mut rng),
                    propose_move_reference(&sys, &grid, &mut reference_rng)
                );
            }
        }
    }

    fn system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 40.0, 40.0);
        sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, 20.0));
        sys.add_chiplet(Chiplet::new("b", 6.0, 10.0, 10.0));
        sys.add_chiplet(Chiplet::new("c", 5.0, 5.0, 5.0));
        sys
    }

    #[test]
    fn initial_placement_is_legal() {
        let sys = system();
        let grid = PlacementGrid::new(16, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..20 {
            let p = random_initial_placement(&sys, &grid, 0.2, &mut rng).unwrap();
            assert!(p.is_complete());
            assert!(sys.validate_placement(&p, 0.2).is_ok());
        }
    }

    #[test]
    fn initial_placement_fails_on_impossible_instances() {
        let mut sys = ChipletSystem::new("tiny", 10.0, 10.0);
        sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, 1.0));
        sys.add_chiplet(Chiplet::new("b", 8.0, 8.0, 1.0));
        let grid = PlacementGrid::new(8, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(random_initial_placement(&sys, &grid, 0.5, &mut rng).is_err());
    }

    #[test]
    fn applied_moves_preserve_legality() {
        let sys = system();
        let grid = PlacementGrid::new(16, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut placement = random_initial_placement(&sys, &grid, 0.2, &mut rng).unwrap();
        let mut applied = 0;
        for _ in 0..500 {
            let candidate = propose_move(&sys, &grid, &mut rng);
            if let Some(next) = apply_move(&sys, &grid, &placement, candidate, 0.2) {
                assert!(sys.validate_placement(&next, 0.2).is_ok());
                placement = next;
                applied += 1;
            }
        }
        assert!(applied > 50, "too few legal moves applied: {applied}");
    }

    #[test]
    fn in_place_moves_match_the_cloning_path_and_undo_restores() {
        let sys = system();
        let grid = PlacementGrid::new(16, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut placement = random_initial_placement(&sys, &grid, 0.2, &mut rng).unwrap();
        for _ in 0..500 {
            let candidate = propose_move(&sys, &grid, &mut rng);
            let cloned = apply_move(&sys, &grid, &placement, candidate, 0.2);
            let before = placement.clone();
            match apply_move_in_place(&sys, &grid, &mut placement, candidate, 0.2) {
                Some(undo) => {
                    // The in-place path lands exactly where the cloning path
                    // does, and undo restores the pre-move state.
                    assert_eq!(Some(&placement), cloned.as_ref());
                    assert!(!undo.changed().is_empty() && undo.changed().len() <= 2);
                    undo_move(&mut placement, &undo);
                    assert_eq!(placement, before);
                    // Re-apply and keep it so the walk explores.
                    let undo = apply_move_in_place(&sys, &grid, &mut placement, candidate, 0.2)
                        .expect("legal move stays legal");
                    let _ = undo;
                }
                None => {
                    assert!(cloned.is_none());
                    assert_eq!(placement, before, "failed moves must not mutate");
                }
            }
        }
    }

    #[test]
    fn swap_exchanges_centres() {
        let sys = system();
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let grid = PlacementGrid::new(20, 20);
        let mut placement = Placement::for_system(&sys);
        grid.apply_action(
            &sys,
            &mut placement,
            ids[0],
            Rotation::None,
            grid.cell_index(5, 5),
        )
        .unwrap();
        grid.apply_action(
            &sys,
            &mut placement,
            ids[1],
            Rotation::None,
            grid.cell_index(14, 14),
        )
        .unwrap();
        grid.apply_action(
            &sys,
            &mut placement,
            ids[2],
            Rotation::None,
            grid.cell_index(5, 14),
        )
        .unwrap();
        let before_a = placement.center_of(ids[0], &sys).unwrap();
        let before_b = placement.center_of(ids[1], &sys).unwrap();
        let next = apply_move(
            &sys,
            &grid,
            &placement,
            Move::Swap {
                first: ids[0],
                second: ids[1],
            },
            0.2,
        )
        .unwrap();
        let after_a = next.center_of(ids[0], &sys).unwrap();
        let after_b = next.center_of(ids[1], &sys).unwrap();
        assert!((after_a.x - before_b.x).abs() < 1e-9);
        assert!((after_b.y - before_a.y).abs() < 1e-9);
    }

    #[test]
    fn rotation_move_toggles_rotation_in_place() {
        let sys = system();
        let ids: Vec<_> = sys.chiplet_ids().collect();
        let grid = PlacementGrid::new(20, 20);
        let mut placement = Placement::for_system(&sys);
        for (i, &id) in ids.iter().enumerate() {
            grid.apply_action(
                &sys,
                &mut placement,
                id,
                Rotation::None,
                grid.cell_index(4 + 6 * i, 10),
            )
            .unwrap();
        }
        let centre_before = placement.center_of(ids[1], &sys).unwrap();
        let next = apply_move(
            &sys,
            &grid,
            &placement,
            Move::Rotate { chiplet: ids[1] },
            0.2,
        )
        .unwrap();
        assert_eq!(next.rotation(ids[1]), Some(Rotation::Quarter));
        let centre_after = next.center_of(ids[1], &sys).unwrap();
        assert!((centre_before.x - centre_after.x).abs() < 1e-9);
        assert!((centre_before.y - centre_after.y).abs() < 1e-9);
    }

    #[test]
    fn illegal_moves_are_rejected() {
        let mut sys = ChipletSystem::new("t", 20.0, 20.0);
        let a = sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, 1.0));
        let b = sys.add_chiplet(Chiplet::new("b", 8.0, 8.0, 1.0));
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
        grid.apply_action(
            &sys,
            &mut placement,
            b,
            Rotation::None,
            grid.cell_index(7, 7),
        )
        .unwrap();
        // Relocating b right on top of a must be rejected.
        let result = apply_move(
            &sys,
            &grid,
            &placement,
            Move::Relocate {
                chiplet: b,
                cell: grid.cell_index(2, 2),
            },
            0.2,
        );
        assert!(result.is_none());
    }
}
