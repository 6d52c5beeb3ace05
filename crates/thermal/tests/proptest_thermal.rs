//! Property-based tests for the thermal analyzers.

use proptest::prelude::*;
use rlp_chiplet::{Chiplet, ChipletSystem, Placement, Position};
use rlp_thermal::power::PowerMap;
use rlp_thermal::{GridThermalSolver, ThermalAnalyzer, ThermalConfig};

/// Strategy: one to three chiplets with random footprints, powers and
/// positions, all guaranteed to stay inside a 40×40 mm interposer (overlaps
/// are allowed — the thermal model does not care about legality).
fn arb_placed_system() -> impl Strategy<Value = (ChipletSystem, Placement)> {
    prop::collection::vec(
        (
            3.0f64..10.0,
            3.0f64..10.0,
            1.0f64..60.0,
            0.0f64..1.0,
            0.0f64..1.0,
        ),
        1..4,
    )
    .prop_map(|chips| {
        let mut sys = ChipletSystem::new("prop", 40.0, 40.0);
        let mut placement_data = Vec::new();
        for (i, (w, h, p, fx, fy)) in chips.into_iter().enumerate() {
            let id = sys.add_chiplet(Chiplet::new(format!("c{i}"), w, h, p));
            let x = fx * (40.0 - w);
            let y = fy * (40.0 - h);
            placement_data.push((id, Position::new(x, y)));
        }
        let mut placement = Placement::for_system(&sys);
        for (id, pos) in placement_data {
            placement.place(id, pos);
        }
        (sys, placement)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Power-map rasterisation conserves total power on any grid resolution.
    #[test]
    fn power_map_conserves_power(
        (system, placement) in arb_placed_system(),
        nx in 4usize..40,
        ny in 4usize..40,
    ) {
        let map = PowerMap::rasterize(&system, &placement, nx, ny);
        let total = system.total_power();
        prop_assert!((map.total_power() - total).abs() < 1e-6 * total.max(1.0));
        prop_assert!(map.cells().iter().all(|&c| c >= 0.0));
    }

    /// The steady-state solver never reports temperatures below ambient and
    /// the peak is bounded by total power times the total thermal resistance
    /// to ambient (convection plus the conductive path).
    #[test]
    fn grid_solver_temperatures_are_physical(
        (system, placement) in arb_placed_system(),
    ) {
        let config = ThermalConfig::with_grid(10, 10);
        let ambient = config.ambient_c;
        let solver = GridThermalSolver::new(config);
        let temps = solver.chiplet_temperatures(&system, &placement).unwrap();
        for &t in &temps {
            prop_assert!(t >= ambient - 1e-6, "temperature {t} below ambient");
            // Generous physical bound: even if all power went through one
            // chiplet-sized column the rise would stay far below this.
            prop_assert!(t < ambient + system.total_power() * 10.0 + 50.0);
        }
    }

    /// Temperature rise is linear in a global power scaling (LTI network).
    #[test]
    fn grid_solver_is_linear_in_power(
        (system, placement) in arb_placed_system(),
        scale in 1.5f64..4.0,
    ) {
        let config = ThermalConfig::with_grid(8, 8);
        let ambient = config.ambient_c;
        let solver = GridThermalSolver::new(config);
        let base = solver.max_temperature(&system, &placement).unwrap() - ambient;

        let mut scaled = ChipletSystem::new("scaled", 40.0, 40.0);
        let mut ids = Vec::new();
        for (_, c) in system.chiplets() {
            ids.push(scaled.add_chiplet(Chiplet::new(c.name(), c.width(), c.height(), c.power() * scale)));
        }
        let mut scaled_placement = Placement::for_system(&scaled);
        for (i, id) in system.chiplet_ids().enumerate() {
            if let Some(pos) = placement.position(id) {
                scaled_placement.place(ids[i], pos);
            }
        }
        let scaled_rise = solver.max_temperature(&scaled, &scaled_placement).unwrap() - ambient;
        prop_assert!(
            (scaled_rise - scale * base).abs() < 1e-4 * (1.0 + scale * base.abs()),
            "rise {base} scaled by {scale} gave {scaled_rise}"
        );
    }

    /// Moving a single chiplet around does not change the total heat that
    /// must leave the package, so the *average* die-layer temperature stays
    /// (nearly) constant while the peak moves.
    #[test]
    fn average_die_temperature_is_placement_invariant(
        w in 4.0f64..10.0,
        h in 4.0f64..10.0,
        power in 5.0f64..60.0,
        fx in 0.0f64..1.0,
        fy in 0.0f64..1.0,
    ) {
        let config = ThermalConfig::with_grid(10, 10);
        let solver = GridThermalSolver::new(config);
        let mut sys = ChipletSystem::new("avg", 40.0, 40.0);
        let id = sys.add_chiplet(Chiplet::new("c", w, h, power));

        let mut centre = Placement::for_system(&sys);
        centre.place(id, Position::new((40.0 - w) / 2.0, (40.0 - h) / 2.0));
        let mut moved = Placement::for_system(&sys);
        moved.place(id, Position::new(fx * (40.0 - w), fy * (40.0 - h)));

        let mean = |placement: &Placement| {
            let solution = solver.solve(&sys, placement).unwrap();
            let cells = (0..10).flat_map(|row| (0..10).map(move |col| (col, row)));
            cells.map(|(col, row)| solution.die_temperature_at(col, row)).sum::<f64>() / 100.0
        };
        let mean_centre = mean(&centre);
        let mean_moved = mean(&moved);
        // The average is dominated by the (placement independent) convection
        // drop; allow a modest spread from in-package redistribution.
        prop_assert!(
            (mean_centre - mean_moved).abs() < 0.35 * (mean_centre - 45.0).abs().max(0.5),
            "mean die temperature moved too much: {mean_centre} vs {mean_moved}"
        );
    }
}
