//! Rollout-collection throughput: serial versus vectorised.
//!
//! After PR 4 made per-move evaluation incremental, episode collection is
//! the dominant wall-clock cost of the `rl`/`rl-rnd` methods. This bench
//! pins the cost of collecting one 8-episode batch on the 8-chiplet
//! multi-GPU system through `PpoAgent::collect_episodes_parallel` at pool
//! sizes 1, 2 and 4. Parallel collection is trajectory-invariant — every
//! pool size produces the bit-identical transitions — so the only thing
//! allowed to change across these benchmarks is the wall-clock, and the
//! `envs1` row doubles as the serial regression guard.
//!
//! Episodes/s for the acceptance criterion is `8 / reported_time`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlp_bench::characterize_for;
use rlp_benchmarks::multi_gpu_system;
use rlp_rl::{PpoAgent, RolloutBuffer, VecEnvPool};
use rlp_thermal::AnyThermalAnalyzer;
use rlplanner::agent::{build_actor_critic, AgentConfig};
use rlplanner::{EnvConfig, FloorplanEnv, RewardCalculator, RewardConfig};
use std::hint::black_box;

const EPISODES_PER_BATCH: usize = 8;

fn rollout_pool(envs: usize) -> (PpoAgent, VecEnvPool<FloorplanEnv>) {
    let system = multi_gpu_system();
    let model = AnyThermalAnalyzer::Fast(characterize_for(&system));
    let env_config = EnvConfig {
        grid: (16, 16),
        min_spacing_mm: 0.2,
    };
    let pool: Vec<FloorplanEnv> = (0..envs)
        .map(|_| {
            FloorplanEnv::new(
                RewardCalculator::new(system.clone(), model.clone(), RewardConfig::default()),
                env_config,
            )
        })
        .collect();
    // Observation shape is [4, rows, cols]; the action space is the grid.
    let network = build_actor_critic(&[4, 16, 16], 16 * 16, &AgentConfig::default());
    let agent = PpoAgent::new(network, rlp_rl::PpoConfig::default(), 7);
    let pool = VecEnvPool::new(pool, 7).expect("non-empty pool");
    (agent, pool)
}

fn rollout_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("rollout_throughput");
    group.sample_size(10);

    for envs in [1usize, 2, 4] {
        let (mut agent, mut pool) = rollout_pool(envs);
        let mut buffer = RolloutBuffer::new();
        group.bench_function(BenchmarkId::new("collect8", format!("envs{envs}")), |b| {
            b.iter(|| {
                buffer.clear();
                let reports = agent.collect_episodes_parallel(
                    &mut pool,
                    EPISODES_PER_BATCH,
                    &mut buffer,
                    None,
                    |_| (),
                );
                black_box(reports.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, rollout_throughput);
criterion_main!(benches);
