//! Integration tests for the campaign engine.
//!
//! The two properties campaigns rest on:
//!
//! 1. **Determinism across parallelism** — a campaign run on N worker
//!    threads produces outcomes byte-identical to the serial run, run for
//!    run, under fixed seeds and evaluation budgets.
//! 2. **Exactly-once characterisation** — however many runs and threads a
//!    campaign has, the shared cache characterises each distinct package
//!    configuration exactly once (the acceptance criterion of the engine:
//!    a 3-seed × 2-method campaign over the three standard benchmarks
//!    performs one characterisation per distinct interposer
//!    configuration).

use rlp_benchmarks::standard_benchmarks;
use rlp_engine::{CampaignEngine, CampaignMethod, CampaignReport, CampaignSpec};
use rlp_sa::SaConfig;
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::{
    AgentConfig, Budget, FloorplanRequest, FloorplanRequestBuilder, Method, RlPlannerConfig,
};

/// A fast backend cheap enough for integration tests (coarse grid, sparse
/// characterisation sweep spanning the benchmark die sizes).
fn quick_fast_backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: ThermalConfig::with_grid(12, 12),
        characterization: CharacterizationOptions {
            footprint_samples_mm: vec![4.0, 10.0, 18.0, 26.0],
            distance_bins: 12,
            ..CharacterizationOptions::default()
        },
    }
}

/// The request every test campaign starts from: eight candidates per run.
fn quick_base() -> FloorplanRequestBuilder {
    FloorplanRequest::builder().budget(Budget::Evaluations(8))
}

/// A tiny-but-real RL column: a small network on the default environment
/// grid (fine enough for every standard benchmark).
fn quick_rl_column() -> CampaignMethod {
    let method = Method::Rl {
        config: RlPlannerConfig {
            episodes_per_update: 2,
            agent: AgentConfig {
                conv_channels: (2, 4),
                feature_dim: 16,
                rnd_hidden_dim: 16,
                rnd_embedding_dim: 4,
                ..AgentConfig::default()
            },
            ..RlPlannerConfig::default()
        },
    };
    CampaignMethod::new("rl", method, quick_fast_backend())
}

/// A short SA column.
fn quick_sa_column() -> CampaignMethod {
    let method = Method::Sa {
        config: SaConfig {
            initial_temperature: 2.0,
            final_temperature: 0.05,
            cooling_rate: 0.85,
            moves_per_temperature: 10,
            ..SaConfig::default()
        },
    };
    CampaignMethod::new("sa-fast", method, quick_fast_backend())
}

/// The acceptance grid: 2 methods × 3 standard benchmarks × 3 seeds.
fn acceptance_spec(parallelism: usize) -> CampaignSpec {
    CampaignSpec::builder()
        .base(quick_base())
        .systems(standard_benchmarks())
        .method(quick_rl_column())
        .method(quick_sa_column())
        .seeds([1, 2, 3])
        .parallelism(parallelism)
        .build()
        .expect("valid acceptance spec")
}

/// Asserts two reports contain identical outcomes, run for run.
fn assert_identical_outcomes(serial: &CampaignReport, parallel: &CampaignReport) {
    assert_eq!(serial.runs.len(), parallel.runs.len());
    for (a, b) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(
            (&a.system, &a.method, a.seed),
            (&b.system, &b.method, b.seed)
        );
        // Bit-identical objective, placement and telemetry — not merely
        // statistically similar.
        assert_eq!(a.outcome.breakdown.reward, b.outcome.breakdown.reward);
        assert_eq!(
            a.outcome.breakdown.wirelength_mm,
            b.outcome.breakdown.wirelength_mm
        );
        assert_eq!(
            a.outcome.breakdown.max_temperature_c,
            b.outcome.breakdown.max_temperature_c
        );
        assert_eq!(a.outcome.placement, b.outcome.placement);
        assert_eq!(a.outcome.telemetry, b.outcome.telemetry);
        assert_eq!(a.outcome.evaluations, b.outcome.evaluations);
        assert_eq!(a.outcome.manifest, b.outcome.manifest);
    }
    // Cell aggregation is a pure function of the runs.
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!((&a.system, &a.method), (&b.system, &b.method));
        assert_eq!(a.best_run, b.best_run);
        assert_eq!(a.mean_reward, b.mean_reward);
        assert_eq!(a.min_reward, b.min_reward);
        assert_eq!(a.max_reward, b.max_reward);
    }
}

#[test]
fn acceptance_campaign_characterises_once_per_distinct_interposer() {
    // The three standard benchmarks span two distinct interposer outlines:
    // multi-gpu and cpu-dram share 55x55 mm, ascend910 is 65x50 mm.
    let distinct_interposers = {
        let mut outlines: Vec<(u64, u64)> = standard_benchmarks()
            .iter()
            .map(|s| {
                (
                    s.interposer_width().to_bits(),
                    s.interposer_height().to_bits(),
                )
            })
            .collect();
        outlines.sort_unstable();
        outlines.dedup();
        outlines.len()
    };
    assert_eq!(distinct_interposers, 2);

    let serial_engine = CampaignEngine::new();
    let serial = serial_engine
        .run(&acceptance_spec(1))
        .expect("serial campaign");
    assert_eq!(serial.runs.len(), 2 * 3 * 3);
    // Exactly one characterisation per distinct interposer configuration,
    // asserted via the cache telemetry; every other analyzer build is a hit.
    assert_eq!(serial.cache.misses, distinct_interposers);
    assert_eq!(serial.cache.hits, serial.runs.len() - distinct_interposers);
    assert_eq!(serial_engine.cache().len(), distinct_interposers);
    // Every run's outcome telemetry records how its analyzer was obtained.
    let run_misses: usize = serial
        .runs
        .iter()
        .map(|r| r.outcome.thermal_prep.cache_misses)
        .sum();
    let run_hits: usize = serial
        .runs
        .iter()
        .map(|r| r.outcome.thermal_prep.cache_hits)
        .sum();
    assert_eq!(run_misses, serial.cache.misses);
    assert_eq!(run_hits, serial.cache.hits);

    // The 2-thread campaign reproduces the serial outcomes run for run,
    // and still characterises exactly once per configuration.
    let parallel_engine = CampaignEngine::new();
    let parallel = parallel_engine
        .run(&acceptance_spec(2))
        .expect("parallel campaign");
    assert_eq!(parallel.parallelism, 2);
    assert_eq!(parallel.cache.misses, distinct_interposers);
    assert_identical_outcomes(&serial, &parallel);
}

#[test]
fn warm_cache_makes_repeat_campaigns_characterisation_free() {
    let engine = CampaignEngine::new();
    let spec = CampaignSpec::builder()
        .base(quick_base())
        .system(standard_benchmarks().remove(0))
        .method(quick_sa_column())
        .seeds([1, 2])
        .build()
        .unwrap();
    let cold = engine.run(&spec).expect("cold campaign");
    assert_eq!(cold.cache.misses, 1);
    let warm = engine.run(&spec).expect("warm campaign");
    assert_eq!(warm.cache.misses, 0);
    assert_eq!(warm.cache.hits, warm.runs.len());
    assert_identical_outcomes(&cold, &warm);
}

#[test]
fn failing_run_keeps_completed_cells_and_reports_the_failure() {
    // An SA grid too coarse for the system (no legal initial placement)
    // next to a healthy SA column: the campaign must complete fail-soft,
    // keeping the healthy cell's results.
    let spec = CampaignSpec::builder()
        .base(quick_base())
        .system(standard_benchmarks().remove(0))
        .method(quick_sa_column())
        .method(CampaignMethod::new(
            "sa-tiny-grid",
            Method::Sa {
                config: SaConfig {
                    grid: (2, 2),
                    ..SaConfig::default()
                },
            },
            quick_fast_backend(),
        ))
        .seeds([5])
        .build()
        .unwrap();
    let report = CampaignEngine::new()
        .run(&spec)
        .expect("fail-soft campaign");

    // The healthy column completed and aggregated...
    assert_eq!(report.runs.len(), 1);
    assert_eq!(report.runs[0].method, "sa-fast");
    assert_eq!(report.runs[0].index, 0);
    assert!(report.cell("multi-gpu", "sa-fast").is_some());
    // ...the failed cell has no summary...
    assert!(report.cell("multi-gpu", "sa-tiny-grid").is_none());
    // ...and the failure carries its grid coordinates and the effective
    // seed, resolved exactly like a successful run's manifest seed.
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert_eq!(failure.system, "multi-gpu");
    assert_eq!(failure.method, "sa-tiny-grid");
    assert_eq!(failure.index, 1);
    assert_eq!(failure.seed, 5);
    assert_eq!(report.runs[0].seed, 5);
}

#[test]
fn failure_without_a_seeds_axis_reports_seed_zero() {
    // With no seeds axis, a successful run's manifest reports seed 0; the
    // failure path must report the same number instead of nothing.
    let config = SaConfig {
        grid: (2, 2),
        ..SaConfig::default()
    };
    let spec = CampaignSpec::builder()
        .base(quick_base())
        .system(standard_benchmarks().remove(0))
        .method(CampaignMethod::new(
            "sa-tiny-grid",
            Method::Sa { config },
            quick_fast_backend(),
        ))
        .build()
        .unwrap();
    let report = CampaignEngine::new()
        .run(&spec)
        .expect("fail-soft campaign");
    assert!(report.runs.is_empty());
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].seed, 0);
}
