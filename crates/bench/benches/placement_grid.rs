//! Per-call cost of the placement-grid kernels on a 16×16 grid: the
//! feasibility (action) mask every RL step, SA initial placement and
//! gradient legalisation builds, and the occupancy and power channels of
//! the RL state tensor.
//!
//! * `grid/feasibility_mask/<n>` — the mask of one chiplet against the
//!   other `n - 1` placed chiplets of a random legal placement;
//! * `grid/occupancy_map/<n>`, `grid/power_map/<n>` — the two maps of a
//!   complete placement of `n` chiplets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_benchmarks::{SyntheticConfig, SyntheticSystemGenerator};
use rlp_chiplet::{ChipletSystem, PlacementGrid, Rotation};
use std::hint::black_box;

/// A reproducible synthetic system with exactly `n` chiplets.
fn system_with(n: usize) -> ChipletSystem {
    let config = SyntheticConfig {
        chiplet_count: (n, n),
        ..SyntheticConfig::default()
    };
    SyntheticSystemGenerator::new(config, 1234 + n as u64).generate()
}

fn placement_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid");
    group.sample_size(20);
    let grid = PlacementGrid::new(16, 16);

    for n in [4usize, 8] {
        let system = system_with(n);
        let placement = rlp_bench::random_legal_placement(&system, 7);
        let chiplet = system.chiplet_ids().next().expect("non-empty system");
        group.bench_function(BenchmarkId::new("feasibility_mask", n), |b| {
            b.iter(|| {
                black_box(grid.feasibility_mask(&system, &placement, chiplet, Rotation::None, 0.2))
            })
        });
        if n == 8 {
            group.bench_function(BenchmarkId::new("occupancy_map", n), |b| {
                b.iter(|| black_box(grid.occupancy_map(&system, &placement)))
            });
            group.bench_function(BenchmarkId::new("power_map", n), |b| {
                b.iter(|| black_box(grid.power_map(&system, &placement)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, placement_grid);
criterion_main!(benches);
