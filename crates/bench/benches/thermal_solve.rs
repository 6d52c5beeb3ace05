//! Cost of the grid thermal solver, the layer a cold solve spends nearly
//! all of its time in.
//!
//! * `characterize/case3` — one fast-model characterisation with the CLI's
//!   default fast backend (32×32 grid; the 64 footprint probes as one
//!   separable sweep of die-layer windows, the 2 mutual probes as whole
//!   die-layer solves) for Table III case 3's interposer: what every cold
//!   `sa-fast`, `gradient` or `pretrained` solve pays before its first
//!   evaluation.
//! * `grid_solve/multi-gpu` — one grid-backend evaluation (the direct
//!   spectral solve prepared once for the interposer, then one forward and
//!   one inverse cosine transform, of the die layer) of a fixed legal
//!   placement: the per-evaluation cost of `sa-hotspot`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_bench::random_legal_placement;
use rlp_benchmarks::{multi_gpu_system, synthetic_case};
use rlp_thermal::{ThermalAnalyzer, ThermalBackend};
use std::hint::black_box;

fn thermal_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_solve");
    group.sample_size(10);

    let case3 = synthetic_case(3);
    let fast = ThermalBackend::fast();
    group.bench_function(BenchmarkId::new("characterize", "case3"), |b| {
        b.iter(|| black_box(fast.build_for(&case3).expect("characterisation")))
    });

    let system = multi_gpu_system();
    let grid = ThermalBackend::grid()
        .build_for(&system)
        .expect("grid backend builds");
    let placement = random_legal_placement(&system, 11);
    group.bench_function(BenchmarkId::new("grid_solve", system.name()), |b| {
        b.iter(|| black_box(grid.max_temperature(&system, &placement).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, thermal_solve);
criterion_main!(benches);
