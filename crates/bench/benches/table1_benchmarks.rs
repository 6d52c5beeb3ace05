//! Table I — per-step optimiser cost on the three benchmark systems.
//!
//! The runtime column of Table I is dominated by how much each method pays
//! per candidate floorplan: one RL episode (environment steps, policy
//! forward passes, final reward evaluation) for RLPlanner, and one
//! reward-function evaluation per SA move for TAP-2.5D — with either the
//! HotSpot-style grid solver or the fast model supplying the temperature.
//! This bench measures those unit costs on each benchmark system; the
//! quality columns (reward / wirelength / temperature) are regenerated by
//! `examples/table1_report.rs`, which runs the full optimisations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_bench::{characterize_for, first_fit_placement, harness_thermal_config};
use rlp_benchmarks::standard_benchmarks;
use rlp_rl::{Environment, PpoAgent, RolloutBuffer, VecEnvPool};
use rlp_thermal::{AnyThermalAnalyzer, GridThermalSolver};
use rlplanner::{
    agent::build_actor_critic, AgentConfig, EnvConfig, FloorplanEnv, RewardCalculator, RewardConfig,
};
use std::hint::black_box;

fn reward_evaluation_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_reward_evaluation");
    group.sample_size(10);
    for system in standard_benchmarks() {
        let placement = first_fit_placement(&system);
        let grid_calc = RewardCalculator::new(
            system.clone(),
            AnyThermalAnalyzer::Grid(GridThermalSolver::new(harness_thermal_config())),
            RewardConfig::default(),
        );
        let fast_calc = RewardCalculator::new(
            system.clone(),
            AnyThermalAnalyzer::Fast(characterize_for(&system)),
            RewardConfig::default(),
        );
        group.bench_with_input(
            BenchmarkId::new("sa_move_with_hotspot", system.name()),
            &placement,
            |b, p| b.iter(|| black_box(grid_calc.evaluate(p).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("sa_move_with_fast_model", system.name()),
            &placement,
            |b, p| b.iter(|| black_box(fast_calc.evaluate(p).unwrap())),
        );
    }
    group.finish();
}

fn rl_episode_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_rl_episode");
    group.sample_size(10);
    for system in standard_benchmarks() {
        let calc = RewardCalculator::new(
            system.clone(),
            AnyThermalAnalyzer::Fast(characterize_for(&system)),
            RewardConfig::default(),
        );
        let env = FloorplanEnv::new(calc, EnvConfig::default());
        let agent_config = AgentConfig::default();
        let model = build_actor_critic(&env.observation_shape(), env.action_count(), &agent_config);
        let mut agent = PpoAgent::new(model, rlp_rl::PpoConfig::default(), 7);
        // A one-environment pool: the collector training runs.
        let mut pool = VecEnvPool::new(vec![env], 7).expect("non-empty pool");
        group.bench_function(
            BenchmarkId::new("rlplanner_episode_fast_model", system.name()),
            |b| {
                b.iter(|| {
                    let mut buffer = RolloutBuffer::new();
                    black_box(agent.collect_episodes_parallel(
                        &mut pool,
                        1,
                        &mut buffer,
                        None,
                        |_| (),
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, reward_evaluation_cost, rl_episode_cost);
criterion_main!(benches);
