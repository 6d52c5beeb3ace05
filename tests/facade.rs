//! Integration tests for the solve pipeline: every (system, method,
//! backend) combination the CLI accepts solves through
//! `FloorplanRequest::solve` at a tiny budget and yields a complete, legal
//! placement; an outcome's manifest reproduces the same result under the
//! same seed; and for every method the `solve_observed` callback sees
//! exactly the outcome's telemetry without changing the outcome.

use rlp_benchmarks::{ascend910_system, cpu_dram_system, multi_gpu_system, synthetic_case};
use rlp_chiplet::ChipletSystem;
use rlp_sa::SaConfig;
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::{
    AgentConfig, Budget, FloorplanOutcome, FloorplanRequest, GradientConfig, Method,
    RlPlannerConfig, TelemetrySample,
};

/// Every system the CLI accepts.
fn cli_systems() -> Vec<ChipletSystem> {
    let mut systems = vec![multi_gpu_system(), cpu_dram_system(), ascend910_system()];
    systems.extend((1..=5).map(synthetic_case));
    systems
}

/// A cheap fast-model backend: coarse characterisation grid, minimal sweep.
fn tiny_fast_backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: ThermalConfig::with_grid(12, 12),
        characterization: CharacterizationOptions {
            footprint_samples_mm: vec![4.0, 10.0],
            distance_bins: 8,
            ..CharacterizationOptions::default()
        },
    }
}

fn tiny_grid_backend() -> ThermalBackend {
    ThermalBackend::Grid {
        config: ThermalConfig::with_grid(10, 10),
    }
}

fn tiny_rl_method(use_rnd: bool) -> Method {
    let config = RlPlannerConfig {
        episodes_per_update: 2,
        agent: AgentConfig {
            conv_channels: (2, 4),
            feature_dim: 16,
            rnd_hidden_dim: 16,
            rnd_embedding_dim: 4,
            ..AgentConfig::default()
        },
        ..RlPlannerConfig::default()
    };
    if use_rnd {
        Method::RlRnd { config }
    } else {
        Method::Rl { config }
    }
}

fn solve(system: &ChipletSystem, method: Method, thermal: ThermalBackend, budget: usize) {
    let request = FloorplanRequest::builder()
        .system(system.clone())
        .method(method)
        .thermal(thermal)
        .budget(Budget::Evaluations(budget))
        .seed(5)
        .build()
        .expect("valid request");
    let outcome = request
        .solve()
        .unwrap_or_else(|err| panic!("{} on {}: {err}", request.method().label(), system.name()));
    assert_outcome_is_complete(system, &request, &outcome, budget);
}

fn assert_outcome_is_complete(
    system: &ChipletSystem,
    request: &FloorplanRequest,
    outcome: &FloorplanOutcome,
    budget: usize,
) {
    let context = format!("{} on {}", request.method().label(), system.name());
    assert!(outcome.placement.is_complete(), "{context}: incomplete");
    assert!(
        system.validate_placement(&outcome.placement, 0.2).is_ok(),
        "{context}: illegal placement"
    );
    assert!(
        outcome.breakdown.reward.is_finite(),
        "{context}: non-finite reward"
    );
    assert_eq!(
        outcome.evaluations, budget,
        "{context}: budget not honoured"
    );
    assert_eq!(
        outcome.telemetry.len(),
        outcome.evaluations,
        "{context}: telemetry gaps"
    );
    // Telemetry indices are dense and best-so-far is monotone.
    for (i, sample) in outcome.telemetry.iter().enumerate() {
        assert_eq!(sample.index, i, "{context}: sparse telemetry");
    }
    assert!(
        outcome
            .telemetry
            .windows(2)
            .all(|w| w[1].best_reward >= w[0].best_reward),
        "{context}: best-so-far not monotone"
    );
    // The manifest identifies the run.
    assert_eq!(outcome.manifest.system_name, system.name());
    assert_eq!(outcome.manifest.chiplet_count, system.chiplet_count());
    assert_eq!(outcome.manifest.seed, 5);
    assert_eq!(
        outcome.manifest.method.label(),
        request.method().label(),
        "{context}: method not preserved in manifest"
    );
}

#[test]
fn rl_solves_every_cli_system() {
    for system in cli_systems() {
        solve(&system, tiny_rl_method(false), tiny_fast_backend(), 2);
    }
}

#[test]
fn rl_rnd_solves_every_cli_system() {
    for system in cli_systems() {
        solve(&system, tiny_rl_method(true), tiny_fast_backend(), 2);
    }
}

#[test]
fn sa_fast_solves_every_cli_system() {
    for system in cli_systems() {
        solve(&system, Method::sa(), tiny_fast_backend(), 12);
    }
}

#[test]
fn sa_hotspot_solves_every_cli_system() {
    for system in cli_systems() {
        solve(&system, Method::sa(), tiny_grid_backend(), 12);
    }
}

#[test]
fn rl_manifest_reproduces_the_same_result_under_the_same_seed() {
    let system = synthetic_case(1);
    let request = FloorplanRequest::builder()
        .system(system.clone())
        .method(tiny_rl_method(false))
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(4))
        .seed(11)
        .build()
        .unwrap();
    let first = request.solve().unwrap();

    // Rebuild the request from nothing but the manifest and the system.
    let replay = FloorplanRequest::from_manifest(system, &first.manifest)
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(replay.placement, first.placement);
    assert_eq!(replay.breakdown.reward, first.breakdown.reward);
    assert_eq!(replay.telemetry, first.telemetry);
    assert_eq!(replay.manifest, first.manifest);
}

#[test]
fn parallel_envs_produce_the_identical_outcome_through_the_facade() {
    let system = synthetic_case(1);
    let solve_with = |parallel_envs: usize| {
        FloorplanRequest::builder()
            .system(system.clone())
            .method(tiny_rl_method(false))
            .thermal(tiny_fast_backend())
            .budget(Budget::Evaluations(4))
            .seed(17)
            .parallel_envs(parallel_envs)
            .build()
            .unwrap()
            .solve()
            .unwrap()
    };
    let serial = solve_with(1);
    let parallel = solve_with(3);
    assert_eq!(serial.placement, parallel.placement);
    assert_eq!(serial.breakdown, parallel.breakdown);
    assert_eq!(serial.telemetry, parallel.telemetry);

    // Both outcomes carry rollout telemetry; only the knob itself (and
    // wall-clock-derived throughput) may differ.
    let serial_training = serial.training.expect("RL outcomes report training");
    let parallel_training = parallel.training.expect("RL outcomes report training");
    assert_eq!(serial_training.parallel_envs, 1);
    assert_eq!(parallel_training.parallel_envs, 3);
    assert!(serial_training.episodes_per_s > 0.0);
    // The manifest records the knob, so a manifest replay reuses it.
    let replayed = FloorplanRequest::from_manifest(system, &parallel.manifest).unwrap();
    let Method::Rl { config } = replayed.resolved_method() else {
        panic!("method variant must be preserved");
    };
    assert_eq!(config.parallel_envs, 3);
}

#[test]
fn sa_outcomes_have_no_training_telemetry() {
    let request = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::sa())
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(10))
        .build()
        .unwrap();
    assert!(request.solve().unwrap().training.is_none());
}

#[test]
fn sa_manifest_reproduces_the_same_result_under_the_same_seed() {
    let system = synthetic_case(2);
    let request = FloorplanRequest::builder()
        .system(system.clone())
        .method(Method::Sa {
            config: SaConfig {
                grid: (14, 14),
                ..SaConfig::default()
            },
        })
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(40))
        .seed(23)
        .build()
        .unwrap();
    let first = request.solve().unwrap();

    let replay = FloorplanRequest::from_manifest(system, &first.manifest)
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(replay.placement, first.placement);
    assert_eq!(replay.breakdown.reward, first.breakdown.reward);
    assert_eq!(replay.evaluations, first.evaluations);
}

#[test]
fn from_manifest_rejects_a_mismatched_system() {
    let request = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::sa())
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(10))
        .build()
        .unwrap();
    let outcome = request.solve().unwrap();
    let err = FloorplanRequest::from_manifest(synthetic_case(2), &outcome.manifest).unwrap_err();
    assert_eq!(err.field(), "system");
}

#[test]
fn gradient_solves_every_cli_system() {
    for system in cli_systems() {
        let request = FloorplanRequest::builder()
            .system(system.clone())
            .method(Method::Gradient {
                config: GradientConfig {
                    iterations: 40,
                    ..GradientConfig::default()
                },
            })
            .thermal(tiny_fast_backend())
            .seed(5)
            .build()
            .expect("valid request");
        let outcome = request
            .solve()
            .unwrap_or_else(|err| panic!("gradient on {}: {err}", system.name()));
        let context = format!("gradient on {}", system.name());
        assert!(outcome.placement.is_complete(), "{context}: incomplete");
        assert!(
            system.validate_placement(&outcome.placement, 0.2).is_ok(),
            "{context}: illegal placement"
        );
        assert!(outcome.breakdown.reward.is_finite(), "{context}: reward");
        // Descent may converge early, so the evaluation count is bounded by
        // the iteration count rather than pinned to it.
        assert!(
            outcome.evaluations > 0 && outcome.evaluations <= 40,
            "{context}: {} evaluations",
            outcome.evaluations
        );
        assert_eq!(outcome.telemetry.len(), outcome.evaluations);
        assert!(outcome.training.is_none(), "{context}: spurious training");
        assert_eq!(outcome.manifest.method.label(), "gradient");
    }
}

#[test]
fn gradient_manifest_reproduces_the_same_result_under_the_same_seed() {
    let system = synthetic_case(2);
    let request = FloorplanRequest::builder()
        .system(system.clone())
        .method(Method::gradient())
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(30))
        .seed(13)
        .build()
        .unwrap();
    let first = request.solve().unwrap();
    // Same request, same seed: bit-identical outcome.
    let second = request.solve().unwrap();
    assert_eq!(second.placement, first.placement);
    assert_eq!(second.breakdown, first.breakdown);
    assert_eq!(second.telemetry, first.telemetry);

    // Rebuild the request from nothing but the manifest and the system.
    let replay = FloorplanRequest::from_manifest(system, &first.manifest)
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(replay.placement, first.placement);
    assert_eq!(replay.breakdown.reward, first.breakdown.reward);
    assert_eq!(replay.telemetry, first.telemetry);
    assert_eq!(replay.manifest, first.manifest);
}

#[test]
fn gradient_matches_sa_quality_with_far_fewer_evaluations() {
    // The perf claim behind the engine: descent reaches SA-comparable
    // reward (within 5%) while evaluating at least 10x fewer candidates.
    let system = synthetic_case(1);
    let thermal = tiny_fast_backend();
    let sa = FloorplanRequest::builder()
        .system(system.clone())
        .method(Method::sa())
        .thermal(thermal.clone())
        .budget(Budget::Evaluations(600))
        .seed(7)
        .build()
        .unwrap()
        .solve()
        .unwrap();
    let gradient = FloorplanRequest::builder()
        .system(system)
        .method(Method::gradient())
        .thermal(thermal)
        .budget(Budget::Evaluations(60))
        .seed(7)
        .build()
        .unwrap()
        .solve()
        .unwrap();
    assert!(
        gradient.evaluations * 10 <= sa.evaluations,
        "gradient used {} evaluations vs SA's {}",
        gradient.evaluations,
        sa.evaluations
    );
    let tolerance = 0.05 * sa.breakdown.reward.abs();
    assert!(
        gradient.breakdown.reward >= sa.breakdown.reward - tolerance,
        "gradient reward {} not within 5% of SA's {}",
        gradient.breakdown.reward,
        sa.breakdown.reward
    );
}

#[test]
fn warm_started_sa_is_no_worse_than_cold_sa_at_equal_budget() {
    let system = synthetic_case(1);
    let solve_with = |warm_start: bool| {
        FloorplanRequest::builder()
            .system(system.clone())
            .method(Method::sa())
            .thermal(tiny_fast_backend())
            .budget(Budget::Evaluations(40))
            .seed(19)
            .warm_start(warm_start)
            .build()
            .unwrap()
            .solve()
            .unwrap()
    };
    let cold = solve_with(false);
    let warm = solve_with(true);
    assert_eq!(cold.evaluations, warm.evaluations, "budgets must match");
    assert!(
        warm.breakdown.reward >= cold.breakdown.reward,
        "warm start regressed SA: {} < {}",
        warm.breakdown.reward,
        cold.breakdown.reward
    );
    // The flag is recorded for replay and changes the trajectory's start.
    assert!(warm.manifest.warm_start);
    assert!(!cold.manifest.warm_start);
    let replay = FloorplanRequest::from_manifest(system, &warm.manifest)
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(replay.placement, warm.placement);
    assert_eq!(replay.breakdown.reward, warm.breakdown.reward);
}

#[test]
fn warm_started_rl_is_never_worse_than_the_presolve() {
    // RL's warm start seeds the best-artifact tracker, so even a tiny
    // training budget returns at least the presolve's quality.
    let system = synthetic_case(1);
    let presolve = FloorplanRequest::builder()
        .system(system.clone())
        .method(Method::Gradient {
            config: GradientConfig {
                iterations: 50,
                ..GradientConfig::default()
            },
        })
        .thermal(tiny_fast_backend())
        .seed(3)
        .build()
        .unwrap()
        .solve()
        .unwrap();
    let warm_rl = FloorplanRequest::builder()
        .system(system)
        .method(tiny_rl_method(false))
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(2))
        .seed(3)
        .warm_start(true)
        .build()
        .unwrap()
        .solve()
        .unwrap();
    assert!(
        warm_rl.breakdown.reward >= presolve.breakdown.reward,
        "warm RL {} fell below its presolve {}",
        warm_rl.breakdown.reward,
        presolve.breakdown.reward
    );
    assert!(warm_rl.manifest.warm_start);
}

/// Asserts two outcomes are equal on every field outside the VOLATILE set
/// (`runtime`, `thermal_prep`, `training.episodes_per_s`).
fn assert_deterministic_fields_equal(a: &FloorplanOutcome, b: &FloorplanOutcome, context: &str) {
    assert_eq!(a.placement, b.placement, "{context}: placement");
    assert_eq!(a.breakdown, b.breakdown, "{context}: breakdown");
    assert_eq!(a.telemetry, b.telemetry, "{context}: telemetry");
    assert_eq!(a.evaluations, b.evaluations, "{context}: evaluations");
    assert_eq!(a.evaluation, b.evaluation, "{context}: evaluation");
    let training = |o: &FloorplanOutcome| {
        o.training
            .map(|t| (t.episodes, t.parallel_envs, t.merge_order_hash))
    };
    assert_eq!(training(a), training(b), "{context}: training");
    assert_eq!(a.manifest, b.manifest, "{context}: manifest");
}

/// The contract the single pipeline keeps for every method: the
/// `solve_observed` callback stream is the outcome's telemetry, element
/// for element, and observing never changes the outcome.
#[test]
fn on_candidate_stream_is_the_telemetry_for_every_method() {
    let policy =
        std::env::temp_dir().join(format!("rlp-facade-{}-contract.policy", std::process::id()));
    let policy = policy.display().to_string();
    FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(tiny_rl_method(false))
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(2))
        .seed(5)
        .save_policy(policy.clone())
        .build()
        .unwrap()
        .solve()
        .expect("training run saves a policy");

    let quick_gradient = Method::Gradient {
        config: GradientConfig {
            iterations: 30,
            ..GradientConfig::default()
        },
    };
    let cases = [
        ("rl", tiny_rl_method(false), 3, false),
        ("rl-rnd", tiny_rl_method(true), 3, false),
        ("sa", Method::sa(), 40, false),
        ("gradient", quick_gradient, 30, false),
        ("pretrained", Method::pretrained(policy.clone()), 1, false),
        ("warm sa", Method::sa(), 40, true),
        ("warm rl", tiny_rl_method(false), 3, true),
    ];
    for (name, method, budget, warm_start) in cases {
        let request = FloorplanRequest::builder()
            .system(synthetic_case(2))
            .method(method)
            .thermal(tiny_fast_backend())
            .budget(Budget::Evaluations(budget))
            .seed(9)
            .warm_start(warm_start)
            .build()
            .unwrap();
        let mut streamed = Vec::new();
        let observed = request
            .solve_observed(&mut |index, reward, best_reward| {
                streamed.push(TelemetrySample {
                    index,
                    reward,
                    best_reward,
                });
            })
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        assert!(!streamed.is_empty(), "{name}: nothing streamed");
        assert_eq!(streamed, observed.telemetry, "{name}: stream != telemetry");
        let silent = request
            .solve()
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_deterministic_fields_equal(&observed, &silent, name);
        assert_eq!(observed.manifest.warm_start, warm_start, "{name}");
    }
    let _ = std::fs::remove_file(&policy);
}

#[test]
fn a_wire_request_with_unusable_characterisation_options_is_an_error_not_a_panic() {
    let request = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::sa())
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(10))
        .build()
        .unwrap();
    let json = rlplanner::report::request_json(&request);
    let samples = "\"footprint_samples_mm\": [4, 10]";
    assert!(json.contains(samples), "{json}");
    let bad =
        rlplanner::request_from_json(&json.replace(samples, "\"footprint_samples_mm\": [0, 4]"))
            .expect("the request parses; characterisation rejects it");
    match bad.solve() {
        Err(rlplanner::PlanError::Thermal(rlp_thermal::ThermalError::InvalidConfig { reason })) => {
            assert!(reason.contains("footprint_samples_mm"), "{reason}");
        }
        other => panic!("expected a characterisation error, got {other:?}"),
    }
}

#[test]
fn a_wire_request_with_a_null_bump_pitch_is_refused_by_the_builder() {
    let request = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::sa())
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(10))
        .build()
        .unwrap();
    let json = rlplanner::report::request_json(&request);
    let pitch = "\"bump_pitch_mm\": 0.1";
    assert!(json.contains(pitch), "{json}");
    // `null` decodes to NaN, which used to reach the solve and come back as
    // a NaN reward and wirelength.
    let err = rlplanner::request_from_json(&json.replace(pitch, "\"bump_pitch_mm\": null"))
        .expect_err("the builder must refuse a NaN bump pitch");
    assert!(err.to_string().contains("reward.bump_pitch_mm"), "{err}");
}

#[test]
fn a_wire_request_with_a_zero_sided_env_grid_is_refused_by_the_builder() {
    let request = FloorplanRequest::builder()
        .system(synthetic_case(1))
        .method(Method::rl())
        .thermal(tiny_fast_backend())
        .budget(Budget::Evaluations(2))
        .build()
        .unwrap();
    let json = rlplanner::report::request_json(&request);
    let env = "\"env\": { \"grid\": [16, 16], \"min_spacing_mm\": 0.2 }";
    assert!(json.contains(env), "{json}");
    // A zero-sided grid used to pass the builder and panic in the solve,
    // killing a daemon worker; a null spacing decodes to NaN.
    for (bad, field) in [
        (
            "\"env\": { \"grid\": [0, 16], \"min_spacing_mm\": 0.2 }",
            "env.grid",
        ),
        (
            "\"env\": { \"grid\": [16, 16], \"min_spacing_mm\": null }",
            "env.min_spacing_mm",
        ),
    ] {
        let err = rlplanner::request_from_json(&json.replace(env, bad))
            .expect_err("the builder must refuse the request");
        assert!(err.to_string().contains(field), "{err}");
    }
}
