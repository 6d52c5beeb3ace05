//! Agent network cost, layer by layer up to a served solve.
//!
//! The agent is the paper's CNN encoder feeding PPO policy and value heads
//! (`rlplanner::agent::build_actor_critic`, default geometry on the 16×16
//! placement grid). Its kernels keep every element's accumulation order,
//! so these rows may only ever move in wall-clock:
//!
//! * `nn/forward` — one batch-1 inference forward (a placement step);
//! * `nn/backward` — a batch-1 training forward plus the backward through
//!   both heads and the encoder;
//! * `ppo/update` — one PPO update (4 epochs of minibatch 32) over 8
//!   multi-GPU episodes, from a fresh agent each time;
//! * `pretrained/solve/case1` — a whole `Method::Pretrained` solve on a
//!   warm analyzer with the policy preloaded: what a daemon pays per
//!   inference request.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rlp_bench::characterize_for;
use rlp_benchmarks::{multi_gpu_system, synthetic_case};
use rlp_nn::Tensor;
use rlp_rl::{ActorCritic, PpoAgent, PpoConfig, RolloutBuffer, VecEnvPool};
use rlp_thermal::{AnyThermalAnalyzer, CharacterizationOptions, ThermalBackend, ThermalConfig};
use rlplanner::agent::{build_actor_critic, AgentConfig};
use rlplanner::{
    search_run, Budget, EnvConfig, FloorplanEnv, FloorplanRequest, Method, PrebuiltThermal,
    PreloadedPolicy, RewardCalculator, RewardConfig, RlPlanner, RlPlannerConfig,
};
use std::hint::black_box;
use std::sync::Arc;

/// Observation shape and action count of the default 16×16 environment.
const OBSERVATION: [usize; 3] = [4, 16, 16];
const ACTIONS: usize = 16 * 16;

fn network() -> ActorCritic {
    build_actor_critic(&OBSERVATION, ACTIONS, &AgentConfig::default())
}

fn nn(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn");
    group.sample_size(50);
    let mut model = network();
    let states = Tensor::from_vec(
        (0..OBSERVATION.iter().product::<usize>())
            .map(|i| (i % 7) as f32 / 7.0)
            .collect(),
        [&[1][..], &OBSERVATION].concat(),
    );
    group.bench_function("forward", |b| {
        b.iter(|| black_box(model.evaluate(&states, false)))
    });
    let grad_logits = Tensor::full(vec![1, ACTIONS], 1.0);
    let grad_values = Tensor::full(vec![1, 1], 1.0);
    group.bench_function("backward", |b| {
        b.iter(|| {
            model.evaluate(&states, true);
            model.backward_heads(&grad_logits, &grad_values);
        })
    });
    group.finish();
}

fn ppo(c: &mut Criterion) {
    let system = multi_gpu_system();
    let analyzer = AnyThermalAnalyzer::Fast(characterize_for(&system));
    let envs = (0..2)
        .map(|_| {
            FloorplanEnv::new(
                RewardCalculator::new(system.clone(), analyzer.clone(), RewardConfig::default()),
                EnvConfig::default(),
            )
        })
        .collect();
    let mut pool = VecEnvPool::new(envs, 7).expect("non-empty pool");
    let mut collector = PpoAgent::new(network(), PpoConfig::default(), 7);
    let mut buffer = RolloutBuffer::new();
    collector.collect_episodes_parallel(&mut pool, 8, &mut buffer, None, |_| ());

    let mut group = c.benchmark_group("ppo");
    group.sample_size(20);
    group.bench_function("update", |b| {
        b.iter_batched(
            || {
                let agent = PpoAgent::new(network(), PpoConfig::default(), 7);
                (agent, buffer.clone())
            },
            |(mut agent, mut buffer)| agent.update(&mut buffer).expect("non-empty rollout"),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn pretrained(c: &mut Criterion) {
    // The CLI's fast backend, characterised once up front.
    let backend = ThermalBackend::Fast {
        config: ThermalConfig::with_grid(32, 32),
        characterization: CharacterizationOptions::default(),
    };
    let system = synthetic_case(1);
    let (analyzer, prep) = backend.build_prepared(&system).expect("characterisation");
    let analyzer = Arc::new(analyzer);
    let mut planner = RlPlanner::new(
        system.clone(),
        analyzer.as_ref().clone(),
        RewardConfig::default(),
        RlPlannerConfig::default(),
        0,
        false,
        1,
    )
    .expect("valid training config");
    let budget = Some(Budget::Evaluations(4));
    planner
        .train(
            None,
            &mut search_run(&Method::rl(), budget, &mut |_, _, _| {}),
        )
        .expect("training");
    let policy = Arc::new(planner.export_policy(Vec::new()));

    let path = "nn_kernels.policy";
    let request = FloorplanRequest::builder()
        .system(system.clone())
        .method(Method::pretrained(path))
        .prebuilt_thermal(PrebuiltThermal::new(backend, analyzer, prep))
        .preloaded_policy(PreloadedPolicy::new(path, policy))
        .build()
        .expect("valid pretrained request");

    let mut group = c.benchmark_group("pretrained");
    group.sample_size(50);
    group.bench_function(format!("solve/{}", system.name()).as_str(), |b| {
        b.iter(|| black_box(request.solve().expect("pretrained solve")))
    });
    group.finish();
}

criterion_group!(benches, nn, ppo, pretrained);
criterion_main!(benches);
