//! Shared helpers for the benchmark harness.
//!
//! The Criterion benches in `benches/` measure the *speed* columns of the
//! paper's tables (thermal-evaluation latency, per-episode and per-move
//! optimiser cost); the report binaries under the workspace `examples/`
//! directory regenerate the *quality* columns (reward, wirelength,
//! temperature). This crate carries the small amount of setup code both
//! share, plus the bench-regression machinery CI runs: [`report`] defines
//! the `rlplanner.bench/v1` document and the >25%-median gate (written and
//! read with the workspace's one JSON layer, [`rlp_obs::json`]), and the
//! `bench_gate` binary the CLI over both.

pub mod report;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlp_chiplet::{ChipletSystem, Placement, PlacementGrid, Rotation};
use rlp_thermal::{CharacterizationOptions, FastThermalModel, ThermalConfig};

/// Thermal-solver configuration used across the harness: a 32×32 grid, the
/// default 2.5D stack-up and HotSpot-style boundary conditions.
pub fn harness_thermal_config() -> ThermalConfig {
    ThermalConfig::with_grid(32, 32)
}

/// Characterisation options used across the harness (coarser than the
/// defaults so benches start quickly, but spanning the benchmark die sizes).
pub fn harness_characterization() -> CharacterizationOptions {
    CharacterizationOptions {
        footprint_samples_mm: vec![4.0, 8.0, 12.0, 18.0, 26.0],
        distance_bins: 32,
        ..CharacterizationOptions::default()
    }
}

/// Characterises the fast thermal model for a system's interposer.
///
/// # Panics
///
/// Panics if characterisation fails (the harness treats that as fatal).
pub fn characterize_for(system: &ChipletSystem) -> FastThermalModel {
    FastThermalModel::characterize(
        &harness_thermal_config(),
        system.interposer_width(),
        system.interposer_height(),
        &harness_characterization(),
    )
    .expect("fast-model characterisation failed")
}

/// Produces a random legal placement of a system on a 16×16 grid, mirroring
/// the placements the optimisers explore.
///
/// # Panics
///
/// Panics if no legal placement could be constructed after a bounded number
/// of retries.
pub fn random_legal_placement(system: &ChipletSystem, seed: u64) -> Placement {
    let grid = PlacementGrid::new(16, 16);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..64 {
        if let Ok(placement) = rlp_sa::moves::random_initial_placement(system, &grid, 0.2, &mut rng)
        {
            return placement;
        }
    }
    panic!("could not build a legal placement for {}", system.name());
}

/// Rasterises a deterministic "first-fit" placement; used where a cheap,
/// reproducible complete placement is enough.
///
/// # Panics
///
/// Panics if the greedy first-fit cannot place every chiplet.
pub fn first_fit_placement(system: &ChipletSystem) -> Placement {
    let grid = PlacementGrid::new(16, 16);
    let mut placement = Placement::for_system(system);
    let mut ids: Vec<_> = system.chiplet_ids().collect();
    ids.sort_by(|&a, &b| {
        system
            .chiplet(b)
            .area()
            .partial_cmp(&system.chiplet(a).area())
            .expect("areas are finite")
    });
    for id in ids {
        let mask = grid.feasibility_mask(system, &placement, id, Rotation::None, 0.2);
        let cell = mask
            .iter()
            .position(|&ok| ok)
            .unwrap_or_else(|| panic!("no feasible cell for {id}"));
        grid.apply_action(system, &mut placement, id, Rotation::None, cell)
            .expect("cell in range");
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_benchmarks::standard_benchmarks;

    #[test]
    fn helpers_produce_legal_placements_for_all_benchmarks() {
        for sys in standard_benchmarks() {
            let random = random_legal_placement(&sys, 7);
            assert!(sys.validate_placement(&random, 0.2).is_ok());
            let greedy = first_fit_placement(&sys);
            assert!(sys.validate_placement(&greedy, 0.2).is_ok());
        }
    }

    #[test]
    fn characterization_covers_benchmark_interposers() {
        let sys = rlp_benchmarks::multi_gpu_system();
        let model = characterize_for(&sys);
        assert_eq!(
            model.interposer(),
            (sys.interposer_width(), sys.interposer_height())
        );
    }
}
