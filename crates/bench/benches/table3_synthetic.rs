//! Table III — per-candidate cost on the five synthetic cases.
//!
//! Table III compares the reward reached by RLPlanner, RLPlanner (RND) and
//! the two TAP-2.5D configurations on five synthetic systems. The quality
//! numbers are regenerated by `examples/table3_report.rs`; this bench
//! measures the per-candidate costs that determine how many floorplans each
//! method can explore in the shared runtime budget: a short burst of SA
//! moves with each thermal backend, and one RL episode with the RND bonus
//! enabled (the extra cost of the "RLPlanner (RND)" variant).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_bench::{characterize_for, harness_thermal_config};
use rlp_benchmarks::synthetic_cases;
use rlp_chiplet::ChipletSystem;
use rlp_rl::{Environment, PpoAgent, RolloutBuffer, VecEnvPool};
use rlp_sa::{Objective, SaConfig, SaPlanner};
use rlp_thermal::{AnyThermalAnalyzer, GridThermalSolver};
use rlplanner::{
    agent::{build_actor_critic, build_rnd},
    search_run, AgentConfig, Budget, EnvConfig, FloorplanEnv, Method, RewardCalculator,
    RewardConfig,
};
use std::hint::black_box;

fn short_sa_config() -> SaConfig {
    SaConfig {
        initial_temperature: 1.0,
        final_temperature: 0.5,
        cooling_rate: 0.9,
        moves_per_temperature: 10,
        ..SaConfig::default()
    }
}

/// A burst of at most 20 evaluations on `seed`.
fn sa_burst(system: &ChipletSystem, objective: &dyn Objective, seed: u64) -> f64 {
    let planner = SaPlanner::new(system.clone(), short_sa_config());
    let budget = Some(Budget::Evaluations(20));
    let mut silent = |_, _, _| {};
    let mut search = search_run(&Method::sa(), budget, &mut silent);
    let result = planner
        .run(None, &mut { objective }, seed, &mut search)
        .unwrap();
    result.best_objective
}

fn sa_burst_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_sa_burst");
    group.sample_size(10);
    for system in synthetic_cases() {
        let fast_calc = RewardCalculator::new(
            system.clone(),
            AnyThermalAnalyzer::Fast(characterize_for(&system)),
            RewardConfig::default(),
        );
        let grid_calc = RewardCalculator::new(
            system.clone(),
            AnyThermalAnalyzer::Grid(GridThermalSolver::new(harness_thermal_config())),
            RewardConfig::default(),
        );
        group.bench_function(
            BenchmarkId::new("tap25d_fast_model_20_moves", system.name()),
            |b| b.iter(|| black_box(sa_burst(&system, &fast_calc, 1))),
        );
        group.bench_function(
            BenchmarkId::new("tap25d_hotspot_20_moves", system.name()),
            |b| b.iter(|| black_box(sa_burst(&system, &grid_calc, 2))),
        );
    }
    group.finish();
}

fn rnd_episode_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_rnd_episode");
    group.sample_size(10);
    // One representative case is enough to expose the RND overhead.
    let system = synthetic_cases().remove(2);
    let calc = RewardCalculator::new(
        system.clone(),
        AnyThermalAnalyzer::Fast(characterize_for(&system)),
        RewardConfig::default(),
    );
    let env = FloorplanEnv::new(calc, EnvConfig::default());
    let agent_config = AgentConfig::default();
    let model = build_actor_critic(&env.observation_shape(), env.action_count(), &agent_config);
    let mut agent = PpoAgent::new(model, rlp_rl::PpoConfig::default(), 11);
    let mut rnd = build_rnd(&env.observation_shape(), &agent_config);
    // A one-environment pool: the collector training runs.
    let mut pool = VecEnvPool::new(vec![env], 11).expect("non-empty pool");

    group.bench_function("rlplanner_episode_plain", |b| {
        b.iter(|| {
            let mut buffer = RolloutBuffer::new();
            black_box(agent.collect_episodes_parallel(&mut pool, 1, &mut buffer, None, |_| ()))
        })
    });
    group.bench_function("rlplanner_episode_with_rnd", |b| {
        b.iter(|| {
            let mut buffer = RolloutBuffer::new();
            let rnd = Some(&mut rnd);
            black_box(agent.collect_episodes_parallel(&mut pool, 1, &mut buffer, rnd, |_| ()))
        })
    });
    group.finish();
}

criterion_group!(benches, sa_burst_cost, rnd_episode_cost);
criterion_main!(benches);
