//! Property-based tests for the chiplet placement model.

use proptest::prelude::*;
use rlp_chiplet::bumps::{assign_bumps, net_wirelength, BumpConfig, Side};
use rlp_chiplet::smooth::{smoothed_wirelength, smoothed_wirelength_gradient};
use rlp_chiplet::wirelength::total_wirelength;
use rlp_chiplet::{
    Chiplet, ChipletSystem, Net, Placement, PlacementGrid, Point, Position, Rect, Rotation,
};

/// Strategy: a system of `n` chiplets with random sizes and powers on a
/// generously sized interposer, connected in a chain.
fn arb_system() -> impl Strategy<Value = ChipletSystem> {
    (
        2usize..7,
        prop::collection::vec((2.0f64..10.0, 2.0f64..10.0, 0.0f64..50.0), 7),
    )
        .prop_map(|(n, dims)| {
            let mut sys = ChipletSystem::new("prop", 60.0, 60.0);
            let mut prev = None;
            for i in 0..n {
                let (w, h, p) = dims[i % dims.len()];
                let id = sys.add_chiplet(Chiplet::new(format!("c{i}"), w, h, p));
                if let Some(prev) = prev {
                    sys.add_net(Net::new(prev, id, 8));
                }
                prev = Some(id);
            }
            sys
        })
}

/// Two dies `(x, y, width, height)` joined by one net of `wires`.
fn placed_pair(
    a: (f64, f64, f64, f64),
    b: (f64, f64, f64, f64),
    wires: u32,
) -> (ChipletSystem, Placement) {
    let mut sys = ChipletSystem::new("bumps", 100.0, 100.0);
    let ia = sys.add_chiplet(Chiplet::new("a", a.2, a.3, 1.0));
    let ib = sys.add_chiplet(Chiplet::new("b", b.2, b.3, 1.0));
    sys.add_net(Net::new(ia, ib, wires));
    let mut p = Placement::for_system(&sys);
    p.place(ia, Position::new(a.0, a.1));
    p.place(ib, Position::new(b.0, b.1));
    (sys, p)
}

/// The closed-form kernel agrees with the per-wire oracle to 1e-12
/// relative (the sums round differently, so not bit for bit).
fn assert_kernel_matches_oracle(
    a: (f64, f64, f64, f64),
    b: (f64, f64, f64, f64),
    wires: u32,
    config: BumpConfig,
) -> Result<(), TestCaseError> {
    let (sys, p) = placed_pair(a, b, wires);
    let oracle = assign_bumps(&sys, &p, &config).unwrap().total_wirelength();
    let net = sys.nets().next().unwrap();
    let ra = p.rect_of(net.from, &sys).unwrap();
    let rb = p.rect_of(net.to, &sys).unwrap();
    let closed = net_wirelength(&ra, &rb, wires, &config);
    prop_assert!(
        (closed - oracle).abs() <= 1e-12 * oracle,
        "{ra:?} {rb:?} wires {wires} {config:?}: closed form {closed} vs oracle {oracle}"
    );
    Ok(())
}

/// A second die `(x, y, width, height)` next to `a`, chosen by `mode`:
/// placed anywhere, touching `a`'s right edge, touching its top edge, or
/// overlapping it. `(u, v)` are unit-interval offsets.
fn second_die(
    a: (f64, f64, f64, f64),
    mode: u8,
    (w, h): (f64, f64),
    (u, v): (f64, f64),
) -> (f64, f64, f64, f64) {
    let (ax, ay, aw, ah) = a;
    match mode % 4 {
        0 => (u * 40.0, v * 40.0, w, h),
        1 => (ax + aw, ay + (u - 0.5) * (ah + h), w, h),
        2 => (ax + (u - 0.5) * (aw + w), ay + ah, w, h),
        _ => (ax + u * aw, ay + v * ah, w, h),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Rectangle intersection area is symmetric and bounded by each area.
    #[test]
    fn intersection_area_is_symmetric_and_bounded(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0, aw in 0.1f64..10.0, ah in 0.1f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0, bw in 0.1f64..10.0, bh in 0.1f64..10.0,
    ) {
        let a = Rect::new(ax, ay, aw, ah);
        let b = Rect::new(bx, by, bw, bh);
        let ab = a.intersection_area(&b);
        let ba = b.intersection_area(&a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(ab >= 0.0);
        prop_assert!(ab <= a.area() + 1e-9);
        prop_assert!(ab <= b.area() + 1e-9);
        // overlaps() and positive intersection area agree.
        prop_assert_eq!(a.overlaps(&b), ab > 0.0);
    }

    /// Any placement produced by feasibility-masked grid actions is legal.
    #[test]
    fn masked_grid_actions_always_yield_legal_placements(
        system in arb_system(),
        cell_picks in prop::collection::vec(0usize..10_000, 7),
        spacing in 0.0f64..1.0,
    ) {
        let grid = PlacementGrid::new(20, 20);
        let mut placement = Placement::for_system(&system);
        for (i, id) in system.chiplet_ids().enumerate() {
            let mask = grid.feasibility_mask(&system, &placement, id, Rotation::None, spacing);
            let feasible: Vec<usize> = mask.iter().enumerate()
                .filter(|(_, &ok)| ok).map(|(c, _)| c).collect();
            if feasible.is_empty() {
                return Ok(());
            }
            let cell = feasible[cell_picks[i % cell_picks.len()] % feasible.len()];
            grid.apply_action(&system, &mut placement, id, Rotation::None, cell).unwrap();
            // The partial placement must already satisfy the spacing rule.
        }
        prop_assert!(system.validate_placement(&placement, spacing).is_ok());
    }

    /// Wirelength is non-negative, zero for co-centred chiplets and
    /// translation invariant.
    #[test]
    fn wirelength_properties(
        system in arb_system(),
        dx in 0.0f64..5.0,
        dy in 0.0f64..5.0,
    ) {
        // Place chiplets on a diagonal, then translate the whole placement.
        let mut p1 = Placement::for_system(&system);
        let mut p2 = Placement::for_system(&system);
        for (i, id) in system.chiplet_ids().enumerate() {
            let base = Position::new(2.0 + 7.0 * i as f64 * 0.9, 2.0 + 6.0 * i as f64 * 0.9);
            p1.place(id, base);
            p2.place(id, Position::new(base.x + dx, base.y + dy));
        }
        let wl1 = total_wirelength(&system, &p1);
        let wl2 = total_wirelength(&system, &p2);
        prop_assert!(wl1 >= 0.0);
        prop_assert!((wl1 - wl2).abs() < 1e-6, "translation changed wirelength: {wl1} vs {wl2}");
    }

    /// Microbump assignment always produces exactly one bump pair per wire,
    /// with every bump inside its own die.
    #[test]
    fn bump_assignment_counts_and_containment(
        system in arb_system(),
        offsets in prop::collection::vec((2.0f64..45.0, 2.0f64..45.0), 7),
    ) {
        let mut placement = Placement::for_system(&system);
        for (i, id) in system.chiplet_ids().enumerate() {
            let (x, y) = offsets[i % offsets.len()];
            let chiplet = system.chiplet(id);
            let x = x.min(60.0 - chiplet.width());
            let y = y.min(60.0 - chiplet.height());
            placement.place(id, Position::new(x, y));
        }
        let assignment = assign_bumps(&system, &placement, &BumpConfig::default()).unwrap();
        let expected_wires: usize = system.nets().map(|n| n.wires as usize).sum();
        prop_assert_eq!(assignment.wire_count(), expected_wires);
        for net_bumps in assignment.nets() {
            let from_rect = placement.rect_of(net_bumps.net.from, &system).unwrap();
            let to_rect = placement.rect_of(net_bumps.net.to, &system).unwrap();
            for (from, to) in &net_bumps.pairs {
                prop_assert!(from_rect.contains_point(*from));
                prop_assert!(to_rect.contains_point(*to));
            }
        }
        prop_assert!(assignment.total_wirelength() >= 0.0);
    }

    /// The hand-differentiated smoothed-wirelength gradient matches central
    /// finite differences in every coordinate. The smoothing has no kinks,
    /// so the check holds at arbitrary centres and sharpness.
    #[test]
    fn smoothed_wirelength_gradient_matches_central_differences(
        system in arb_system(),
        coords in prop::collection::vec((2.0f64..58.0, 2.0f64..58.0), 7),
        sharpness in 0.2f64..8.0,
    ) {
        let n = system.chiplet_count();
        let centers: Vec<Point> = (0..n)
            .map(|i| { let (x, y) = coords[i % coords.len()]; Point::new(x, y) })
            .collect();
        let mut grad = vec![Point::new(0.0, 0.0); n];
        let value = smoothed_wirelength_gradient(&system, &centers, sharpness, &mut grad);
        // The gradient entry point returns the same value as the plain one.
        let plain = smoothed_wirelength(&system, &centers, sharpness);
        prop_assert!((value - plain).abs() <= 1e-9 * plain.max(1.0));
        // And the surrogate upper-bounds the exact piecewise-linear estimate.
        let mut placement = Placement::for_system(&system);
        for (i, id) in system.chiplet_ids().enumerate() {
            let (w, h) = system.chiplet(id).footprint(Rotation::None);
            placement.place(id, Position::new(centers[i].x - w / 2.0, centers[i].y - h / 2.0));
        }
        prop_assert!(value >= total_wirelength(&system, &placement) - 1e-9);
        let h = 1e-6;
        for i in 0..n {
            for axis in 0..2 {
                let mut plus = centers.clone();
                let mut minus = centers.clone();
                if axis == 0 { plus[i].x += h; minus[i].x -= h; }
                else { plus[i].y += h; minus[i].y -= h; }
                let fd = (smoothed_wirelength(&system, &plus, sharpness)
                    - smoothed_wirelength(&system, &minus, sharpness)) / (2.0 * h);
                let g = if axis == 0 { grad[i].x } else { grad[i].y };
                prop_assert!(
                    (fd - g).abs() <= 1e-5 * (1.0 + g.abs()),
                    "chiplet {} axis {}: central difference {} vs analytic {}", i, axis, fd, g
                );
            }
        }
    }

    /// Occupancy and power maps conserve area and power for any legal placement.
    #[test]
    fn grid_maps_conserve_area_and_power(
        system in arb_system(),
        seed_cells in prop::collection::vec(0usize..10_000, 7),
    ) {
        let grid = PlacementGrid::new(24, 24);
        let mut placement = Placement::for_system(&system);
        for (i, id) in system.chiplet_ids().enumerate() {
            let mask = grid.feasibility_mask(&system, &placement, id, Rotation::None, 0.1);
            let feasible: Vec<usize> = mask.iter().enumerate()
                .filter(|(_, &ok)| ok).map(|(c, _)| c).collect();
            if feasible.is_empty() {
                return Ok(());
            }
            let cell = feasible[seed_cells[i % seed_cells.len()] % feasible.len()];
            grid.apply_action(&system, &mut placement, id, Rotation::None, cell).unwrap();
        }
        let cell_area = grid.cell_width(&system) * grid.cell_height(&system);
        let occupied: f64 = grid.occupancy_map(&system, &placement)
            .iter().map(|&v| v as f64 * cell_area).sum();
        prop_assert!((occupied - system.total_chiplet_area()).abs() < 1e-3 * system.total_chiplet_area().max(1.0));
        let power: f64 = grid.power_map(&system, &placement).iter().map(|&v| v as f64).sum();
        prop_assert!((power - system.total_power()).abs() < 1e-3 * system.total_power().max(1.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `net_wirelength` (closed form, O(rows)) agrees with the per-wire
    /// `assign_bumps` oracle on random dies, including dies too small for
    /// one full bump row and touching or overlapping pairs.
    #[test]
    fn net_wirelength_matches_the_assign_bumps_oracle(
        a in (0.0f64..40.0, 0.0f64..40.0, 0.01f64..12.0, 0.01f64..12.0),
        mode in 0u8..4,
        b_size in (0.01f64..12.0, 0.01f64..12.0),
        b_offset in (0.0f64..1.0, 0.0f64..1.0),
        wires in 1u32..=4096,
        pitch in 0.01f64..1.0,
        margin in 0.0f64..1.0,
    ) {
        let b = second_die(a, mode, b_size, b_offset);
        assert_kernel_matches_oracle(a, b, wires, BumpConfig { pitch_mm: pitch, edge_margin_mm: margin })?;
    }

    /// Negative margins make rows wider than their die side, so the
    /// along-edge clamp binds; the closed form still matches the oracle.
    #[test]
    fn net_wirelength_matches_the_oracle_on_clamped_rows(
        a in (0.0f64..40.0, 0.0f64..40.0, 0.01f64..12.0, 0.01f64..12.0),
        mode in 0u8..4,
        b_size in (0.01f64..12.0, 0.01f64..12.0),
        b_offset in (0.0f64..1.0, 0.0f64..1.0),
        wires in 1u32..=4096,
        pitch in 0.01f64..1.0,
        margin in -3.0f64..0.0,
    ) {
        let b = second_die(a, mode, b_size, b_offset);
        assert_kernel_matches_oracle(a, b, wires, BumpConfig { pitch_mm: pitch, edge_margin_mm: margin })?;
    }
}

/// Hand-picked clamped cases: the rows overhang their sides, so some bumps
/// sit on a clamp bound, and the kernel still matches the oracle.
#[test]
fn net_wirelength_matches_the_oracle_when_clamps_bind() {
    let cases = [
        // Offset dies: one side clamps at its top, the other at its bottom.
        ((0.0, 0.0, 4.0, 3.0), (10.0, 2.0, 4.0, 6.0), 300, 0.1, -1.0),
        // Equal dies facing each other vertically, one multi-row side.
        ((5.0, 0.0, 2.0, 2.0), (5.5, 8.0, 5.0, 2.0), 90, 0.05, -0.5),
        // A sliver die whose single row is wider than the whole die.
        (
            (0.0, 0.0, 0.3, 0.02),
            (0.0, 5.0, 6.0, 1.0),
            4096,
            0.01,
            -2.0,
        ),
        // Overlapping dies with a large overhang on both sides.
        ((0.0, 0.0, 3.0, 3.0), (1.0, 0.5, 3.0, 3.0), 2048, 0.02, -5.0),
    ];
    for (a, b, wires, pitch, margin) in cases {
        let config = BumpConfig {
            pitch_mm: pitch,
            edge_margin_mm: margin,
        };
        let (sys, p) = placed_pair(a, b, wires);
        let assignment = assign_bumps(&sys, &p, &config).unwrap();
        let net = &assignment.nets()[0];
        // A clamped bump sits exactly on an end of its side's along-edge span.
        let clamped = |point: Point, rect: Rect, side: Side| match side {
            Side::Left | Side::Right => point.y == rect.y || point.y == rect.top(),
            Side::Bottom | Side::Top => point.x == rect.x || point.x == rect.right(),
        };
        let ra = p.rect_of(net.net.from, &sys).unwrap();
        let rb = p.rect_of(net.net.to, &sys).unwrap();
        assert!(
            net.pairs
                .iter()
                .any(|&(pa, pb)| clamped(pa, ra, net.from_side) || clamped(pb, rb, net.to_side)),
            "case {a:?} {b:?} never clamps"
        );
        assert_kernel_matches_oracle(a, b, wires, config).unwrap();
    }
}
