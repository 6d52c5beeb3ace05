//! `hotspot_anneal`: the paper's TAP-2.5D + HotSpot baseline, SA with the
//! 32×32 grid solver evaluating every candidate, at a fixed small budget.
//! Operations rotate over Table III case1–case5 in a seeded order per
//! rotation; rotation `r` anneals with SA seed `r`, so the first two
//! rotations (the quality prefix) solve the same ten problems on every
//! seed. Runs end on whole rotations. It shares the thermal/linalg layers with `cold_solve` but
//! solves many similar right-hand sides instead of a sweep of isolated
//! probes, so a change that helps one use and costs the other shows.

use crate::workload::{
    cli_sa, fast_backend, grid_backend, mix, repeat_setup, run_serial, shuffle, solve_op, Args,
    CheckOpts, Family, Report, Serial, GRID,
};
use rlp_benchmarks::synthetic_case;
use rlp_chiplet::ChipletSystem;
use rlp_thermal::{AnyThermalAnalyzer, GridThermalSolver, ThermalConfig};
use rlplanner::{Budget, FloorplanRequest, FloorplanRequestBuilder};
use std::time::Instant;

const CASES: usize = 5;
/// Grid-solver evaluations per anneal.
const EVALUATIONS: usize = 40;
/// Evaluations of the set-up's warm-up anneal.
const WARM_UP_EVALUATIONS: usize = 20;
/// Quality prefix: every case twice.
const PREFIX: usize = 2 * CASES;

/// The case operation `index` anneals (`1..=5`) and its SA seed.
pub fn input(seed: u64, index: usize) -> (usize, u64) {
    let rotation = index / CASES;
    let mut order: Vec<usize> = (1..=CASES).collect();
    shuffle(&mut order, mix(seed, rotation as u64));
    (order[index % CASES], rotation as u64)
}

fn request_builder(system: &ChipletSystem, sa_seed: u64, budget: usize) -> FloorplanRequestBuilder {
    FloorplanRequest::builder()
        .system(system.clone())
        .method(cli_sa())
        .thermal(grid_backend())
        .budget(Budget::Evaluations(budget))
        .seed(sa_seed)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let backend = grid_backend();
    let grid = GridThermalSolver::try_new(ThermalConfig::with_grid(GRID, GRID))
        .map_err(|e| e.to_string())?;
    let cases: Vec<ChipletSystem> = (1..=CASES).map(synthetic_case).collect();
    // Set-up: one short discarded anneal to warm code and allocator.
    let ((), setup_s) = repeat_setup(args.setup_reps(), || {
        let builder = request_builder(&cases[0], 0, WARM_UP_EVALUATIONS);
        let mut tracer = crate::trace::Tracer::new(false, Instant::now());
        solve_op(
            &mut tracer,
            "thermal.build",
            || backend.build_prepared(&cases[0]),
            &backend,
            builder,
        )
        .map(drop)
    })?;
    // Fast models of the five interposers, for the fast-vs-grid error and
    // the fast-model probes; built outside every timed interval.
    let fast: Vec<AnyThermalAnalyzer> = cases
        .iter()
        .map(|system| fast_backend().build_for(system))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference fast model: {e}"))?;

    let prefix = if args.smoke { CASES } else { PREFIX };
    let mut serial = Serial::new(Instant::now());
    let mut quality = Vec::new();
    let mut measured = Vec::new();
    let mut next = 0;
    for (seconds, traced) in args.phases() {
        serial.tracer.set_enabled(traced);
        rlp_obs::set_metrics_enabled(traced);
        let min_ops = if args.trace { CASES } else { prefix };
        let (done, elapsed) = run_serial(seconds, min_ops, CASES, next, |index| {
            let (case, sa_seed) = input(args.seed, index);
            let system = &cases[case - 1];
            let builder = request_builder(system, sa_seed, EVALUATIONS);
            let solved = serial.timed(index, Family::Sa, |t| {
                solve_op(
                    t,
                    "thermal.build",
                    || backend.build_prepared(system),
                    &backend,
                    builder,
                )
            });
            if let Some(solved) = solved {
                let opts = CheckOpts {
                    quality: !args.trace && index < prefix,
                    ..CheckOpts::default()
                };
                let reference = &fast[case - 1];
                quality.extend(serial.check_and_probe(Family::Sa, &solved, reference, &grid, opts));
            }
        });
        next += done;
        measured.push(elapsed);
    }
    rlp_obs::set_metrics_enabled(false);
    Ok(serial.into_report(setup_s, measured, quality))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a: Vec<_> = (0..PREFIX).map(|i| input(3, i)).collect();
        let b: Vec<_> = (0..PREFIX).map(|i| input(3, i)).collect();
        let c: Vec<_> = (0..PREFIX).map(|i| input(4, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The prefix anneals every case once per seed 0 and 1, whatever the
        // workload seed.
        for list in [&a, &c] {
            let mut sorted = list.clone();
            sorted.sort_unstable();
            let expected: Vec<_> = (1..=CASES).flat_map(|c| [(c, 0), (c, 1)]).collect();
            assert_eq!(sorted, expected);
        }
    }
}
