//! The engines' metric series: what one RL training run, one SA anneal and
//! one gradient descent add to the process-wide registry. This file is its
//! own test process, so enabling the global registry here cannot reach
//! another test.

use rlp_benchmarks::system_by_name;
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::{
    Budget, FloorplanRequest, GradientConfig, GradientDescent, Method, RewardConfig,
    RlPlannerConfig, SearchRun,
};

fn counter(name: &str) -> u64 {
    rlp_obs::registry().counter(name).get()
}

fn samples(name: &str) -> u64 {
    rlp_obs::registry().histogram(name).snapshot().count()
}

fn backend() -> ThermalBackend {
    ThermalBackend::Fast {
        config: ThermalConfig::with_grid(12, 12),
        characterization: CharacterizationOptions {
            footprint_samples_mm: vec![4.0, 10.0],
            distance_bins: 8,
            ..CharacterizationOptions::default()
        },
    }
}

#[test]
fn rl_sa_and_gradient_runs_record_their_counts() {
    rlp_obs::set_metrics_enabled(true);
    let system = system_by_name("case1").expect("case1 is a benchmark system");

    // RL: 4 episodes in batches of 2 is two collection rounds. The first
    // round's update runs before the second collects; the second's runs
    // only when the policy is saved, since nothing else reads it.
    let solves = counter("plan.solves");
    let policy =
        std::env::temp_dir().join(format!("rlp-engine-metrics-{}.policy", std::process::id()));
    for (save_policy, updates_run) in [(false, 1), (true, 2)] {
        let (episodes, updates) = (counter("rl.episodes"), counter("rl.updates"));
        let (collect_ns, update_ns) = (samples("rl.rollout_collect_ns"), samples("rl.update_ns"));
        let mut request = FloorplanRequest::builder()
            .system(system.clone())
            .method(Method::Rl {
                config: RlPlannerConfig {
                    episodes_per_update: 2,
                    ..RlPlannerConfig::default()
                },
            })
            .thermal(backend())
            .budget(Budget::Evaluations(4))
            .parallel_envs(2);
        if save_policy {
            request = request.save_policy(policy.display().to_string());
        }
        let rl = request.build().unwrap().solve().unwrap();
        let training = rl.training.expect("an RL solve reports its training");
        assert_eq!(training.episodes, 4);
        assert_eq!(counter("rl.episodes") - episodes, training.episodes as u64);
        assert_eq!(counter("rl.updates") - updates, updates_run);
        assert_eq!(samples("rl.rollout_collect_ns") - collect_ns, 2);
        assert_eq!(samples("rl.update_ns") - update_ns, updates_run);
    }
    std::fs::remove_file(&policy).ok();

    // SA: one run, and every evaluation is either full or incremental.
    let (runs, full, incremental) = (
        counter("sa.runs"),
        counter("sa.evals.full"),
        counter("sa.evals.incremental"),
    );
    let (method, _) = rlplanner::cli::method_by_name("sa-fast", None).unwrap();
    let sa = FloorplanRequest::builder()
        .system(system.clone())
        .method(method)
        .thermal(backend())
        .budget(Budget::Evaluations(40))
        .build()
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(counter("sa.runs") - runs, 1);
    assert_eq!(
        (counter("sa.evals.full") - full) + (counter("sa.evals.incremental") - incremental),
        sa.evaluations as u64
    );
    assert_eq!(counter("plan.solves") - solves, 3);

    // Gradient: run directly, outside the facade.
    let (iterations, step_ns) = (counter("grad.iterations"), samples("grad.step_ns"));
    let (analyzer, _) = backend().build_prepared(&system).unwrap();
    let result = GradientDescent::new(
        system,
        analyzer,
        RewardConfig::default(),
        GradientConfig {
            iterations: 30,
            ..GradientConfig::default()
        },
    )
    .unwrap()
    .run(5, &mut SearchRun::new(None, None, &mut |_, _, _| {}))
    .unwrap();
    assert_eq!(
        counter("grad.iterations") - iterations,
        result.iterations_run as u64
    );
    assert!(samples("grad.step_ns") - step_ns >= 1);
    assert_eq!(
        counter("plan.solves") - solves,
        3,
        "a direct run is no solve"
    );
}
