//! `cold_solve`: what a CLI user sees. Each operation solves one system
//! from scratch with `rlplanner_cli`'s fast backend and no cache, so
//! fast-model characterisation is >99% of its time.
//!
//! Operation `i` solves Table III case `1 + i % 5` with the CLI's default
//! solver seed, on an interposer whose width and height are raised by a
//! seeded 1 to 2^20 units in the last place: every operation of every run
//! meets interposer dimensions that no characterisation cache (they key on
//! the exact bits) has seen, while the floorplanning problem, and with it
//! the quality figures, stays the same across seeds. (A relative change as
//! small as 1e-6 already sends SA down another trajectory.) The method
//! alternates
//! `sa-fast`@600 and `gradient`@60, so ten operations cover every
//! (case, method) pair once. The quality prefix is the first fifteen
//! operations, and runs end on whole rotations over the five cases.

use crate::workload::{
    cli_sa, fast_backend, mix, repeat_setup, run_serial, solve_op, Args, CheckOpts, Family, Report,
    Serial, GRID,
};
use rlp_benchmarks::synthetic_case;
use rlp_chiplet::ChipletSystem;
use rlp_thermal::{GridThermalSolver, ThermalConfig};
use rlplanner::{Budget, FloorplanRequest, Method};
use std::time::Instant;

const CASES: usize = 5;
/// Operations whose quality is averaged: three rotations, because SA
/// quality differs between interposers that differ only in their last bits.
const PREFIX: usize = 3 * CASES;
/// Largest seeded raise of an interposer side, in units in the last place.
const JITTER_ULPS: u64 = 1 << 20;
const SA_EVALUATIONS: usize = 600;
const GRADIENT_EVALUATIONS: usize = 60;
/// Operation index of the set-up's warm-up solve (never measured).
const WARM_UP_INDEX: usize = 1 << 40;

/// The system operation `index` solves.
pub fn system(seed: u64, index: usize) -> ChipletSystem {
    let template = synthetic_case(1 + index % CASES);
    let draw = mix(seed, index as u64);
    let raise = |side: f64, ulps: u64| f64::from_bits(side.to_bits() + 1 + ulps % JITTER_ULPS);
    let mut system = ChipletSystem::new(
        format!("{}-cold{index}", template.name()),
        raise(template.interposer_width(), draw),
        raise(template.interposer_height(), draw >> 32),
    );
    for (_, chiplet) in template.chiplets() {
        system.add_chiplet(chiplet.clone());
    }
    for net in template.nets() {
        system.add_net(*net);
    }
    system
}

/// The method and budget of operation `index`.
pub fn method(index: usize) -> (Family, Method, usize) {
    if index.is_multiple_of(2) {
        (Family::Sa, cli_sa(), SA_EVALUATIONS)
    } else {
        (Family::Gradient, Method::gradient(), GRADIENT_EVALUATIONS)
    }
}

fn request_builder(
    seed: u64,
    index: usize,
) -> (Family, ChipletSystem, rlplanner::FloorplanRequestBuilder) {
    let system = system(seed, index);
    let (family, method, budget) = method(index);
    let builder = FloorplanRequest::builder()
        .system(system.clone())
        .method(method)
        .thermal(fast_backend())
        .budget(Budget::Evaluations(budget));
    (family, system, builder)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let backend = fast_backend();
    let grid = GridThermalSolver::try_new(ThermalConfig::with_grid(GRID, GRID))
        .map_err(|e| e.to_string())?;
    // Set-up: one discarded cold solve, so code pages, allocator arenas and
    // the like are warm before the first measured operation.
    let ((), setup_s) = repeat_setup(args.setup_reps(), || {
        let (_, system, builder) = request_builder(args.seed, WARM_UP_INDEX);
        let mut tracer = crate::trace::Tracer::new(false, Instant::now());
        solve_op(
            &mut tracer,
            "thermal.characterize",
            || backend.build_prepared(&system),
            &backend,
            builder,
        )
        .map(drop)
    })?;

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
            let (family, system, builder) = request_builder(args.seed, index);
            let solved = serial.timed(index, family, |t| {
                solve_op(
                    t,
                    "thermal.characterize",
                    || backend.build_prepared(&system),
                    &backend,
                    builder,
                )
            });
            if let Some(solved) = solved {
                let opts = CheckOpts {
                    agreement: true,
                    quality: !args.trace && index < prefix,
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
    Ok(serial.into_report(setup_s, measured, quality))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Operations covering every (case, method) pair once.
    const CYCLE: usize = 2 * CASES;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        for index in 0..CYCLE {
            assert_eq!(system(11, index), system(11, index));
            let (a, b) = (system(11, index), system(12, index));
            assert_ne!(a.interposer_width(), b.interposer_width());
            assert_eq!(a.chiplet_count(), b.chiplet_count());
        }
        // Every operation of a run meets a different interposer.
        let widths: Vec<u64> = (0..CYCLE)
            .map(|i| system(11, i).interposer_width().to_bits())
            .collect();
        let mut unique = widths.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), widths.len());
    }
}
