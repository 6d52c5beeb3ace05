//! Layer probes: in the traced phase, after an operation's timed interval,
//! the benchmark calls single public functions of each layer on that
//! operation's own inputs and records how long each call takes. Sub-
//! millisecond calls are repeated and averaged so the clock's resolution
//! does not dominate.

use crate::trace::Tracer;
use crate::workload::Layers;
use rlp_chiplet::wirelength::bump_aware_wirelength;
use rlp_chiplet::{ChipletId, ChipletSystem, IncrementalWirelength, Placement, Position};
use rlp_nn::{PolicyFile, Tensor};
use rlp_rl::{Environment, PpoAgent, RolloutBuffer, VecEnvPool};
use rlp_thermal::{AnyThermalAnalyzer, GridThermalSolver, ThermalAnalyzer};
use rlplanner::agent::{build_actor_critic, configs_from_policy};
use rlplanner::report::{outcome_json, request_json};
use rlplanner::{
    outcome_from_json, request_from_json, FloorplanEnv, FloorplanOutcome, FloorplanRequest,
    RewardCalculator, RewardConfig, RlPlannerConfig,
};
use std::hint::black_box;

/// Repetitions of the microsecond-scale probes.
const FAST_REPS: u32 = 200;
const WIRELENGTH_REPS: u32 = 20;
const DOC_REPS: u32 = 5;
const NN_REPS: u32 = 10;

/// Runs `f` `reps` times inside one span and returns seconds per call.
fn per_call(tracer: &mut Tracer, name: &'static str, reps: u32, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    tracer.span(name, |_| {
        for _ in 0..reps {
            f();
        }
    });
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// The placement with chiplet 0 shifted by 0.1 mm: the single-chiplet move
/// the incremental engines price.
fn moved(placement: &Placement) -> Result<(Placement, ChipletId), String> {
    let id = ChipletId::from_index(0);
    let (position, rotation) = placement
        .position(id)
        .zip(placement.rotation(id))
        .ok_or("probe placement is incomplete")?;
    let mut candidate = placement.clone();
    candidate.place_rotated(id, Position::new(position.x + 0.1, position.y), rotation);
    Ok((candidate, id))
}

/// One operation's inputs and outputs, as the probes see them.
pub struct Target<'a> {
    pub system: &'a ChipletSystem,
    pub request: &'a FloorplanRequest,
    pub outcome: &'a FloorplanOutcome,
    /// The fast model the operation ran with, or a reference one.
    pub fast: &'a AnyThermalAnalyzer,
    pub grid: &'a GridThermalSolver,
}

/// Probes the thermal, linalg, chiplet and document layers.
pub fn layers(tracer: &mut Tracer, out: &mut Layers, target: &Target<'_>) -> Result<(), String> {
    let system = target.system;
    let placement = &target.outcome.placement;
    let reward = target.request.reward();

    let start = std::time::Instant::now();
    let solution = tracer
        .span("thermal.grid_solve", |_| {
            target.grid.solve(system, placement)
        })
        .map_err(|e| format!("grid probe: {e}"))?;
    out.push("thermal.grid_solve_ms", start.elapsed().as_secs_f64() * 1e3);
    out.push("linalg.probe_cg_iters", solution.solver_iterations as f64);

    let (candidate, id) = moved(placement)?;
    if let AnyThermalAnalyzer::Fast(model) = target.fast {
        let mut failed = false;
        let s = per_call(tracer, "thermal.fast_eval", FAST_REPS, || {
            failed |= black_box(model.chiplet_temperatures(system, placement)).is_err();
        });
        out.push("thermal.fast_eval_us", s * 1e6);
        let mut state = model
            .state_for(system, placement)
            .map_err(|e| format!("thermal state probe: {e}"))?;
        let s = per_call(tracer, "thermal.state_move", FAST_REPS, || {
            black_box(state.propose(system, &candidate, &[id]));
            state.reject();
        });
        out.push("thermal.state_move_us", s * 1e6);
        if failed {
            return Err("fast-model probe failed".to_string());
        }
    }

    let bumps = &reward.bump_config;
    let s = per_call(tracer, "chiplet.wirelength", WIRELENGTH_REPS, || {
        black_box(bump_aware_wirelength(system, placement, bumps).ok());
    });
    out.push("chiplet.wirelength_us", s * 1e6);
    let mut incremental = IncrementalWirelength::new(system, placement, *bumps)
        .map_err(|e| format!("incremental wirelength probe: {e}"))?;
    let s = per_call(tracer, "chiplet.incremental_move", FAST_REPS, || {
        black_box(incremental.propose(system, &candidate, &[id]));
        incremental.reject();
    });
    out.push("chiplet.incremental_move_us", s * 1e6);

    let mut rendered = String::new();
    let s = per_call(tracer, "rlplanner.outcome_render", DOC_REPS, || {
        rendered = outcome_json(system, target.outcome);
    });
    out.push("rlplanner.outcome_render_us", s * 1e6);
    out.push("rlplanner.outcome_bytes", rendered.len() as f64);
    let mut parsed = Ok(());
    let s = per_call(tracer, "rlplanner.outcome_parse", DOC_REPS, || {
        if let Err(e) = black_box(outcome_from_json(&rendered, system)) {
            parsed = Err(format!("outcome document: {e}"));
        }
    });
    out.push("rlplanner.outcome_parse_us", s * 1e6);
    let request_doc = request_json(target.request);
    let s = per_call(tracer, "rlplanner.request_parse", DOC_REPS, || {
        if let Err(e) = black_box(request_from_json(&request_doc)) {
            parsed = Err(format!("request document: {e}"));
        }
    });
    out.push("rlplanner.request_parse_us", s * 1e6);
    parsed
}

/// Probes the policy network (forward and backward on one environment
/// state) and, for RL operations, one rollout collection over a pool of
/// two environments and the PPO update on it.
pub fn policy(
    tracer: &mut Tracer,
    out: &mut Layers,
    system: &ChipletSystem,
    analyzer: &AnyThermalAnalyzer,
    file: &PolicyFile,
    rl: bool,
    seed: u64,
) -> Result<(), String> {
    let (env_config, agent_config) =
        configs_from_policy(file).map_err(|e| format!("policy metadata: {e}"))?;
    let new_env = || {
        FloorplanEnv::new(
            RewardCalculator::new(system.clone(), analyzer.clone(), RewardConfig::default()),
            env_config,
        )
    };
    let mut env = new_env();
    let mut model = build_actor_critic(&env.observation_shape(), env.action_count(), &agent_config);
    file.apply_to(&mut model)
        .map_err(|e| format!("policy weights: {e}"))?;
    let observation = env.reset();
    let mut shape = vec![1];
    shape.extend_from_slice(observation.state.shape());
    let states = observation.state.reshape(shape);

    let s = per_call(tracer, "nn.forward", NN_REPS, || {
        black_box(model.evaluate(&states, false));
    });
    out.push("nn.forward_us", s * 1e6);
    let actions = model.action_count();
    let grad_logits = Tensor::full(vec![1, actions], 1.0);
    let grad_values = Tensor::full(vec![1, 1], 1.0);
    let s = per_call(tracer, "nn.backward", NN_REPS, || {
        black_box(model.evaluate(&states, true));
        model.backward_heads(&grad_logits, &grad_values);
    });
    out.push("nn.backward_us", s * 1e6);

    if rl {
        let mut agent = PpoAgent::new(model.clone(), RlPlannerConfig::default().ppo, seed);
        let mut pool = VecEnvPool::new(vec![new_env(), new_env()], seed)
            .map_err(|e| format!("rollout pool: {e}"))?;
        let mut buffer = RolloutBuffer::new();
        let start = std::time::Instant::now();
        tracer.span("rl.rollout_collect", |_| {
            agent.collect_episodes_parallel(&mut pool, 2, &mut buffer, None, |_| ())
        });
        out.push("rl.rollout_collect_ms", start.elapsed().as_secs_f64() * 1e3);
        let start = std::time::Instant::now();
        tracer
            .span("rl.ppo_update", |_| agent.update(&mut buffer))
            .map_err(|e| format!("PPO update probe: {e}"))?;
        out.push("rl.ppo_update_ms", start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}
