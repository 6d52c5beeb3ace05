//! Per-move evaluation cost of the SA hot loop: full versus incremental.
//!
//! The old anneal loop cloned the placement and recomputed the wirelength
//! of every net and the complete O(n²) thermal superposition for every
//! proposed move. The incremental engine
//! (`RewardCalculator::delta_objective`) recomputes only the nets and the
//! thermal row/column the move touched. Both paths sum a net's bump
//! wirelength with the same closed-form kernel (`bumps::net_wirelength`).
//! This bench measures the per-move cost at 4, 8 and 16 chiplets:
//!
//! * `full/<n>` — clone + `apply_move` + a from-scratch
//!   `RewardCalculator::evaluate` (the pre-refactor loop body);
//! * `incremental/<n>` — `apply_move_in_place` + `propose` + `reject` +
//!   `undo_move` (the post-refactor loop body for a rejected move, the
//!   common case late in an anneal).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_benchmarks::{SyntheticConfig, SyntheticSystemGenerator};
use rlp_chiplet::{ChipletSystem, Placement, PlacementGrid};
use rlp_sa::moves::{apply_move, apply_move_in_place, undo_move, Move};
use rlp_sa::{DeltaObjective, Objective};
use rlp_thermal::{AnyThermalAnalyzer, CharacterizationOptions, FastThermalModel, ThermalConfig};
use rlplanner::{RewardCalculator, RewardConfig};
use std::hint::black_box;

/// A reproducible synthetic system with exactly `n` chiplets.
fn system_with(n: usize) -> ChipletSystem {
    let config = SyntheticConfig {
        chiplet_count: (n, n),
        ..SyntheticConfig::default()
    };
    SyntheticSystemGenerator::new(config, 1234 + n as u64).generate()
}

/// A quick characterisation — the bench measures evaluation, not the
/// offline sweep, so a coarse model is fine (both paths use the same one).
fn quick_model(system: &ChipletSystem) -> FastThermalModel {
    FastThermalModel::characterize(
        &ThermalConfig::with_grid(16, 16),
        system.interposer_width(),
        system.interposer_height(),
        &CharacterizationOptions {
            footprint_samples_mm: vec![4.0, 8.0, 14.0],
            distance_bins: 16,
            ..CharacterizationOptions::default()
        },
    )
    .expect("characterisation succeeds")
}

/// Finds a relocation of the first chiplet that stays legal — the probe
/// move both engines evaluate.
fn probe_move(
    system: &ChipletSystem,
    grid: &PlacementGrid,
    placement: &Placement,
) -> (Move, Placement) {
    let chiplet = system.chiplet_ids().next().expect("non-empty system");
    for cell in 0..grid.cell_count() {
        let candidate = Move::Relocate { chiplet, cell };
        if let Some(moved) = apply_move(system, grid, placement, candidate, 0.2) {
            if moved != *placement {
                return (candidate, moved);
            }
        }
    }
    panic!("no legal probe move for {}", system.name());
}

fn sa_move_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("sa_move_eval");
    group.sample_size(20);
    let grid = PlacementGrid::new(16, 16);

    for n in [4usize, 8, 16] {
        let system = system_with(n);
        let placement = rlp_bench::random_legal_placement(&system, 7);
        let calc = RewardCalculator::new(
            system.clone(),
            AnyThermalAnalyzer::Fast(quick_model(&system)),
            RewardConfig::default(),
        );
        let (candidate, _) = probe_move(&system, &grid, &placement);

        // The pre-refactor loop body: clone, apply, evaluate from scratch.
        group.bench_function(BenchmarkId::new("full", n), |b| {
            b.iter(|| {
                let moved = apply_move(&system, &grid, &placement, candidate, 0.2)
                    .expect("probe move is legal");
                black_box(Objective::evaluate(&calc, &moved))
            })
        });

        // The post-refactor loop body for a rejected move.
        let mut objective = calc.delta_objective();
        let mut current = placement.clone();
        objective.reset(&current);
        group.bench_function(BenchmarkId::new("incremental", n), |b| {
            b.iter(|| {
                let undo = apply_move_in_place(&system, &grid, &mut current, candidate, 0.2)
                    .expect("probe move is legal");
                let value = objective.propose(&current, undo.changed());
                objective.reject();
                undo_move(&mut current, &undo);
                black_box(value)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, sa_move_eval);
criterion_main!(benches);
