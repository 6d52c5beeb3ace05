//! Observability overhead on the SA hot loop: anneal with the metrics
//! registry disabled versus enabled.
//!
//! The `rlp-obs` contract is that a *disabled* instrument costs one
//! relaxed atomic load per call site (`obs_overhead/anneal/off` must stay
//! within noise of the pre-instrumentation anneal — the gate holds it to
//! the same ±25% band as every other benchmark, and the PR acceptance bar
//! is ≤3%). The *enabled* path (`anneal/on`) adds two atomic increments
//! and one histogram record per legal move and one atomic increment per
//! illegal proposal; it is benchmarked so a
//! future change that accidentally makes "on" expensive (or worse, makes
//! "off" pay for "on") shows up as a regression here rather than in
//! production profiles.
//!
//! Both sides run the identical fixed-seed anneal — instrumentation never
//! touches the RNG stream, so the trajectories (and results) are
//! bit-identical; only the loop's bookkeeping differs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_benchmarks::{SyntheticConfig, SyntheticSystemGenerator};
use rlp_chiplet::ChipletSystem;
use rlp_sa::{SaConfig, SaPlanner};
use rlp_thermal::{AnyThermalAnalyzer, CharacterizationOptions, FastThermalModel, ThermalConfig};
use rlplanner::{search_run, Method, RewardCalculator, RewardConfig};
use std::hint::black_box;

/// A reproducible synthetic system with exactly `n` chiplets.
fn system_with(n: usize) -> ChipletSystem {
    let config = SyntheticConfig {
        chiplet_count: (n, n),
        ..SyntheticConfig::default()
    };
    SyntheticSystemGenerator::new(config, 1234 + n as u64).generate()
}

/// A quick characterisation — the bench measures the anneal loop, not the
/// offline sweep (both sides share the same model).
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

/// A short but complete anneal: a few hundred proposed moves, so the
/// per-move instrumentation cost dominates any per-run setup.
fn short_anneal_config() -> SaConfig {
    SaConfig {
        final_temperature: 1e-2,
        moves_per_temperature: 40,
        ..SaConfig::default()
    }
}

fn obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);

    let system = system_with(4);
    let calc = RewardCalculator::new(
        system.clone(),
        AnyThermalAnalyzer::Fast(quick_model(&system)),
        RewardConfig::default(),
    );
    let planner = SaPlanner::new(system, short_anneal_config());

    for (label, enabled) in [("off", false), ("on", true)] {
        rlp_obs::set_metrics_enabled(enabled);
        group.bench_function(BenchmarkId::new("anneal", label), |b| {
            b.iter(|| {
                let mut objective = calc.delta_objective();
                black_box(
                    planner
                        .run(
                            None,
                            &mut objective,
                            7,
                            &mut search_run(&Method::sa(), None, &mut |_, _, _| {}),
                        )
                        .expect("anneal succeeds"),
                )
            })
        });
    }
    // Leave the global registry as the process default (disabled).
    rlp_obs::set_metrics_enabled(false);
    group.finish();
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
