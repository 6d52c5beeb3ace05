//! Cost of the analytic-gradient placement engine.
//!
//! The engine's pitch is evaluation efficiency: descend on hand-derived
//! gradients of the smoothed objective and spend exact evaluations only on
//! legalised iterates and polish trials, instead of one evaluation per
//! proposed move like SA. This bench pins both halves of that claim:
//!
//! * `wl_gradient/<n>` — one analytic smoothed-wirelength gradient over all
//!   `n` chiplet centres, the primitive the probe loop calls once per
//!   iteration. It costs O(nets), so it must stay in the same range as a
//!   single incremental SA move evaluation (`sa_move_eval/incremental`) —
//!   if it drifts toward the *full* evaluation cost, descent iterations
//!   stop being cheaper than annealing moves.
//! * `solve/<n>` — a complete multi-start descent (probe + polish) at the
//!   60-evaluation budget the facade's quality test holds the engine to
//!   against SA at 600. End-to-end wall clock is what a warm-started SA/RL
//!   run pays up front for the presolve.
//!
//! Both use the same reproducible synthetic systems and quick thermal
//! characterisation as `sa_move_eval`, so the cross-bench comparison is
//! apples-to-apples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_benchmarks::{SyntheticConfig, SyntheticSystemGenerator};
use rlp_chiplet::smooth::smoothed_wirelength_gradient;
use rlp_chiplet::{ChipletSystem, Point};
use rlp_thermal::{AnyThermalAnalyzer, CharacterizationOptions, FastThermalModel, ThermalConfig};
use rlplanner::{search_run, Budget, GradientConfig, GradientDescent, Method, RewardConfig};
use std::hint::black_box;

/// A reproducible synthetic system with exactly `n` chiplets.
fn system_with(n: usize) -> ChipletSystem {
    let config = SyntheticConfig {
        chiplet_count: (n, n),
        ..SyntheticConfig::default()
    };
    SyntheticSystemGenerator::new(config, 1234 + n as u64).generate()
}

/// A quick characterisation — the bench measures the descent, not the
/// offline sweep.
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

/// Chiplet centres of a reproducible legal placement — a realistic iterate
/// for the gradient primitive.
fn centers_of(system: &ChipletSystem) -> Vec<Point> {
    let placement = rlp_bench::random_legal_placement(system, 7);
    system
        .chiplet_ids()
        .map(|id| {
            placement
                .center_of(id, system)
                .expect("placement is complete")
        })
        .collect()
}

fn gradient_descent(c: &mut Criterion) {
    let mut group = c.benchmark_group("gradient_descent");
    group.sample_size(10);

    // The probe loop's primitive: one analytic gradient of the smoothed
    // wirelength over every chiplet centre.
    for n in [4usize, 8, 16] {
        let system = system_with(n);
        let centers = centers_of(&system);
        let mut grad = vec![Point::new(0.0, 0.0); system.chiplet_count()];
        group.bench_function(BenchmarkId::new("wl_gradient", n), |b| {
            b.iter(|| {
                black_box(smoothed_wirelength_gradient(
                    &system, &centers, 1.0, &mut grad,
                ))
            })
        });
    }

    // A complete descent at the quality test's 60-evaluation budget:
    // multi-start probing, legalisation and the discrete polish passes.
    for n in [4usize, 8] {
        let system = system_with(n);
        let engine = GradientDescent::new(
            system.clone(),
            AnyThermalAnalyzer::Fast(quick_model(&system)),
            RewardConfig::default(),
            GradientConfig {
                iterations: 60,
                ..GradientConfig::default()
            },
        )
        .expect("configuration is valid");
        let budget = Some(Budget::Evaluations(60));
        group.bench_function(BenchmarkId::new("solve", n), |b| {
            b.iter(|| {
                black_box(
                    engine
                        .run(
                            7,
                            &mut search_run(&Method::gradient(), budget, &mut |_, _, _| {}),
                        )
                        .expect("descent legalises an iterate"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, gradient_descent);
criterion_main!(benches);
