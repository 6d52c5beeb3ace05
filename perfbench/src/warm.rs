//! `warm_solve`: the designer's inner loop on packages that are already
//! characterised. Set-up fills one `ThermalModelCache` for the three
//! standard systems and case1–case5 and trains and saves a small policy;
//! operations then rotate `sa-fast`@600, `gradient`@60, `rl` (a few
//! episodes over two rollout environments) and `pretrained` over those
//! eight systems, taking each analyzer from the cache. No operation
//! characterises, so optimiser, evaluation-kernel, NN and PPO changes show
//! here and thermal-preparation changes should not.

use crate::workload::{
    cli_sa, fast_backend, repeat_setup, run_serial, shuffle, solve_op, Args, CheckOpts, Family,
    Report, Serial, GRID,
};
use rlp_benchmarks::{ascend910_system, cpu_dram_system, multi_gpu_system, synthetic_case};
use rlp_chiplet::ChipletSystem;
use rlp_nn::PolicyFile;
use rlp_thermal::{GridThermalSolver, ThermalConfig, ThermalModelCache};
use rlplanner::{Budget, FloorplanRequest, FloorplanRequestBuilder, Method, PreloadedPolicy};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const SA_EVALUATIONS: usize = 600;
const GRADIENT_EVALUATIONS: usize = 60;
/// Training episodes of an `rl` operation.
pub const RL_EPISODES: usize = 4;
/// Rollout environments of an `rl` operation and of policy training.
pub const RL_PARALLEL_ENVS: usize = 2;
/// Episodes the set-up trains the saved policy for.
pub const TRAIN_EPISODES: usize = 16;

/// Operations per system in one schedule cycle, by family. Chosen so that
/// no family takes more than half or less than a tenth of the op time
/// (the measured shares are the `mix.*` per-layer metrics). Pretrained
/// solves are ~1 ms against ~25 ms for RL, so they must also be most of
/// the operations; at 12 of 17 the median sits well inside their cluster
/// instead of on the edge to the next, where noise would move it.
const PER_SYSTEM: [(Family, usize); 4] = [
    (Family::Sa, 2),
    (Family::Gradient, 2),
    (Family::Rl, 1),
    (Family::Pretrained, 12),
];

/// The eight systems, in a fixed order.
pub fn systems() -> Vec<ChipletSystem> {
    let mut systems = vec![multi_gpu_system(), cpu_dram_system(), ascend910_system()];
    systems.extend((1..=5).map(synthetic_case));
    systems
}

/// One schedule cycle of `(system index, family, solver seed)`: systems
/// in a seeded order, each system's operations interleaved by family, and
/// the `k`-th operation of a family on a system solving with seed `k`. So
/// every cycle, on every workload seed, solves the same set of problems
/// (the first cycle is the quality prefix); only the order changes.
pub fn schedule(seed: u64) -> Vec<(usize, Family, u64)> {
    let mut order: Vec<usize> = (0..systems().len()).collect();
    shuffle(&mut order, seed);
    let rounds = PER_SYSTEM.iter().map(|(_, n)| *n).max().unwrap_or(0);
    let mut cycle = Vec::new();
    for system in order {
        for round in 0..rounds {
            for (family, n) in PER_SYSTEM {
                if round < n {
                    cycle.push((system, family, round as u64));
                }
            }
        }
    }
    cycle
}

/// Where a run keeps its trained policy file.
pub fn policy_path(workload: &str) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("{workload}-{}.policy", std::process::id()))
}

/// Trains a small policy on case1 (analyzer from `cache`), saves it to
/// `path` and loads it back.
pub fn train_policy(cache: &ThermalModelCache, path: &PathBuf) -> Result<Arc<PolicyFile>, String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let backend = fast_backend();
    let system = synthetic_case(1);
    let builder = FloorplanRequest::builder()
        .system(system.clone())
        .method(Method::rl())
        .thermal(backend.clone())
        .budget(Budget::Evaluations(TRAIN_EPISODES))
        .parallel_envs(RL_PARALLEL_ENVS)
        .save_policy(path.display().to_string());
    let mut tracer = crate::trace::Tracer::new(false, Instant::now());
    solve_op(
        &mut tracer,
        "thermal.cache_lookup",
        || backend.build_cached(&system, cache),
        &backend,
        builder,
    )?;
    PolicyFile::load(path)
        .map(Arc::new)
        .map_err(|e| format!("{}: {e}", path.display()))
}

struct Warm {
    cache: ThermalModelCache,
    policy: Arc<PolicyFile>,
}

/// The request of one operation (system moved in; analyzer attached later).
fn request_builder(
    system: &ChipletSystem,
    family: Family,
    op_seed: u64,
    policy_path: &str,
    policy: &Arc<PolicyFile>,
) -> FloorplanRequestBuilder {
    let builder = FloorplanRequest::builder()
        .system(system.clone())
        .thermal(fast_backend())
        .seed(op_seed);
    match family {
        Family::Sa => builder
            .method(cli_sa())
            .budget(Budget::Evaluations(SA_EVALUATIONS)),
        Family::Gradient => builder
            .method(Method::gradient())
            .budget(Budget::Evaluations(GRADIENT_EVALUATIONS)),
        Family::Rl => builder
            .method(Method::rl())
            .budget(Budget::Evaluations(RL_EPISODES))
            .parallel_envs(RL_PARALLEL_ENVS),
        Family::Pretrained => builder
            .method(Method::pretrained(policy_path))
            .preloaded_policy(PreloadedPolicy::new(policy_path, Arc::clone(policy))),
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let backend = fast_backend();
    let grid = GridThermalSolver::try_new(ThermalConfig::with_grid(GRID, GRID))
        .map_err(|e| e.to_string())?;
    let systems = systems();
    let path = policy_path("warm_solve");
    let path_str = path.display().to_string();
    let (warm, setup_s) = repeat_setup(args.setup_reps(), || {
        let cache = ThermalModelCache::new();
        for system in &systems {
            backend
                .build_cached(system, &cache)
                .map_err(|e| format!("characterising {}: {e}", system.name()))?;
        }
        let policy = train_policy(&cache, &path)?;
        Ok(Warm { cache, policy })
    })?;

    let cycle = schedule(args.seed);
    // The quality prefix is the first cycle (so also in smoke runs).
    let prefix = cycle.len();
    let mut serial = Serial::new(Instant::now());
    let mut quality = Vec::new();
    let mut measured = Vec::new();
    let mut next = 0;
    for (seconds, traced) in args.phases() {
        serial.tracer.set_enabled(traced);
        rlp_obs::set_metrics_enabled(traced);
        let (done, elapsed) = run_serial(seconds, cycle.len(), cycle.len(), next, |index| {
            let (system_index, family, op_seed) = cycle[index % cycle.len()];
            let system = &systems[system_index];
            let builder = request_builder(system, family, op_seed, &path_str, &warm.policy);
            let solved = serial.timed(index, family, |t| {
                solve_op(
                    t,
                    "thermal.cache_lookup",
                    || backend.build_cached(system, &warm.cache),
                    &backend,
                    builder,
                )
            });
            if let Some(solved) = solved {
                let uses_policy = matches!(family, Family::Rl | Family::Pretrained);
                let opts = CheckOpts {
                    quality: !args.trace && index < prefix,
                    policy: uses_policy.then_some(warm.policy.as_ref()),
                    seed: op_seed,
                    ..CheckOpts::default()
                };
                let fast = solved.analyzer.as_ref();
                quality.extend(serial.check_and_probe(family, &solved, fast, &grid, opts));
            }
        });
        next += done;
        measured.push(elapsed);
    }
    rlp_obs::set_metrics_enabled(false);
    std::fs::remove_file(&path).ok();
    Ok(serial.into_report(setup_s, measured, quality))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(schedule(5), schedule(5));
        assert_ne!(schedule(5), schedule(6));
        let cycle = schedule(5);
        for (family, n) in PER_SYSTEM {
            let count = cycle.iter().filter(|(_, f, _)| *f == family).count();
            assert_eq!(count, n * systems().len());
        }
    }
}
