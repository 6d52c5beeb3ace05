//! Campaign engine — characterisation-cache and parallelism benchmarks.
//!
//! Two questions the campaign subsystem exists to answer:
//!
//! * How much does the shared [`ThermalModelCache`] save? Measured as the
//!   cost of constructing a fast-model analyzer cold (full
//!   characterisation sweep) versus served from a warm cache (a map lookup
//!   plus a table clone) on the multi-GPU system.
//! * What does the worker pool buy? Measured as the wall-clock of the same
//!   fixed SA campaign (one system × one method × four seeds, warm cache)
//!   run serially and on two workers; outcomes are identical by
//!   construction, only the wall-clock differs. Note this comparison is
//!   only meaningful on a multi-core host — on a single-CPU machine the
//!   two configurations time alike (the engine guarantees identical
//!   *outcomes* at any parallelism, not a speed-up the hardware cannot
//!   provide).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_bench::{harness_characterization, harness_thermal_config};
use rlp_benchmarks::multi_gpu_system;
use rlp_engine::{CampaignEngine, CampaignMethod, CampaignSpec};
use rlp_sa::SaConfig;
use rlp_thermal::{ThermalBackend, ThermalModelCache};
use rlplanner::{Budget, Method};
use std::hint::black_box;
use std::sync::Arc;

fn harness_fast_backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: harness_thermal_config(),
        characterization: harness_characterization(),
    }
}

fn analyzer_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_analyzer_construction");
    group.sample_size(10);
    let system = multi_gpu_system();
    let backend = harness_fast_backend();

    group.bench_function(
        BenchmarkId::new("cold_characterisation", system.name()),
        |b| b.iter(|| black_box(backend.build_prepared(&system).unwrap())),
    );

    let cache = ThermalModelCache::new();
    backend.build_cached(&system, &cache).unwrap(); // warm it
    group.bench_function(BenchmarkId::new("cache_hit", system.name()), |b| {
        b.iter(|| black_box(backend.build_cached(&system, &cache).unwrap()))
    });
    group.finish();
}

fn campaign_spec(parallelism: usize) -> CampaignSpec {
    let sa = Method::Sa {
        config: SaConfig {
            initial_temperature: 2.0,
            final_temperature: 0.05,
            cooling_rate: 0.85,
            moves_per_temperature: 50,
            ..SaConfig::default()
        },
    };
    CampaignSpec::builder()
        .system(multi_gpu_system())
        .method(CampaignMethod::new("sa-fast", sa, harness_fast_backend()))
        // Long enough (~tens of ms per run) that worker-pool scaling is
        // visible over thread-spawn overhead.
        .budget(Budget::Evaluations(2000))
        .seeds([1, 2, 3, 4])
        .parallelism(parallelism)
        .build()
        .expect("valid bench campaign")
}

fn campaign_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_wall_clock");
    group.sample_size(10);
    // One shared, prewarmed cache so the benches measure planning, not
    // characterisation.
    let cache = Arc::new(ThermalModelCache::new());
    harness_fast_backend()
        .build_cached(&multi_gpu_system(), &cache)
        .unwrap();
    for workers in [1usize, 2] {
        let engine = CampaignEngine::with_cache(Arc::clone(&cache));
        let spec = campaign_spec(workers);
        group.bench_with_input(
            BenchmarkId::new("sa_fast_4_seeds", format!("{workers}_workers")),
            &spec,
            |b, spec| b.iter(|| black_box(engine.run(spec).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(benches, analyzer_construction, campaign_parallelism);
criterion_main!(benches);
