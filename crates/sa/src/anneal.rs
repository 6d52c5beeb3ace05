//! The simulated-annealing loop.
//!
//! The loop runs on the [`DeltaObjective`] propose/commit/reject protocol:
//! moves are applied to one placement in place, the objective evaluates the
//! candidate against its maintained state, and a rejected move is undone.
//! Plain [`Objective`](crate::Objective) values (closures, reward
//! calculators) run through the blanket `DeltaObjective` implementation,
//! which falls back to full evaluation — same trajectory, just without the
//! incremental speed-up.

use crate::moves::{
    apply_move_in_place, propose_move, random_initial_placement, undo_move, InitialPlacementError,
};
use crate::objective::{DeltaObjective, EvalCounts, EvalMode};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlp_chiplet::{ChipletSystem, Placement, PlacementGrid};
use rlp_obs::OnCandidate;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Annealing schedule and search parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Starting temperature of the schedule (in objective units).
    pub initial_temperature: f64,
    /// Temperature at which the schedule stops.
    pub final_temperature: f64,
    /// Geometric cooling factor applied after every temperature step.
    pub cooling_rate: f64,
    /// Number of proposed moves per temperature step.
    pub moves_per_temperature: usize,
    /// Minimum spacing between chiplets in millimetres.
    pub min_spacing_mm: f64,
    /// Placement grid resolution (columns, rows).
    pub grid: (usize, usize),
    /// Random seed.
    pub seed: u64,
    /// Optional wall-clock budget; the anneal stops early when exceeded.
    pub time_budget: Option<Duration>,
    /// Optional cap on objective evaluations; used to give the SA baseline
    /// the same evaluation budget as an RL training run.
    pub max_evaluations: Option<usize>,
}

impl Default for SaConfig {
    fn default() -> Self {
        Self {
            initial_temperature: 1.0,
            final_temperature: 1e-3,
            cooling_rate: 0.95,
            moves_per_temperature: 50,
            min_spacing_mm: 0.2,
            grid: (16, 16),
            seed: 0,
            time_budget: None,
            max_evaluations: None,
        }
    }
}

/// Why [`SaConfig::validate`] refused a configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SaConfigError {
    /// `min_spacing_mm` is negative or not finite.
    MinSpacing(f64),
    /// Another field is invalid; the message names it.
    Invalid(String),
}

impl fmt::Display for SaConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaConfigError::MinSpacing(value) => write!(
                f,
                "min_spacing_mm must be finite and not negative, got {value}"
            ),
            SaConfigError::Invalid(reason) => f.write_str(reason),
        }
    }
}

impl Error for SaConfigError {}

impl SaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an [`SaConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), SaConfigError> {
        let invalid = |reason: &str| Err(SaConfigError::Invalid(reason.to_string()));
        if self.initial_temperature <= 0.0 || self.final_temperature <= 0.0 {
            return invalid("temperatures must be positive");
        }
        if self.final_temperature > self.initial_temperature {
            return invalid("final temperature must not exceed the initial temperature");
        }
        if !(0.0 < self.cooling_rate && self.cooling_rate < 1.0) {
            return invalid("cooling rate must be in (0, 1)");
        }
        if self.moves_per_temperature == 0 {
            return invalid("moves_per_temperature must be positive");
        }
        if self.grid.0 == 0 || self.grid.1 == 0 {
            return invalid("grid must be non-empty");
        }
        if !(self.min_spacing_mm >= 0.0 && self.min_spacing_mm.is_finite()) {
            return Err(SaConfigError::MinSpacing(self.min_spacing_mm));
        }
        Ok(())
    }
}

/// Outcome of an annealing run.
#[derive(Debug, Clone, PartialEq)]
pub struct SaResult {
    /// Best placement found.
    pub best_placement: Placement,
    /// Objective of the best placement.
    pub best_objective: f64,
    /// Objective of the initial placement (before any move).
    pub initial_objective: f64,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
    /// How many of those evaluations each engine served: all `full` when
    /// the objective evaluates from scratch; one `full` (the initial state
    /// construction) plus `evaluations - 1` `incremental` when a
    /// [`DeltaObjective`] evaluated moves against maintained state.
    pub eval_counts: EvalCounts,
    /// Number of accepted moves.
    pub accepted_moves: usize,
    /// Wall-clock duration of the search.
    pub runtime: Duration,
}

/// A simulated-annealing floorplanner over a fixed chiplet system.
#[derive(Debug, Clone)]
pub struct SaPlanner {
    system: ChipletSystem,
    config: SaConfig,
}

impl SaPlanner {
    /// Creates a planner for a system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`SaConfig::validate`] to
    /// check beforehand.
    pub fn new(system: ChipletSystem, config: SaConfig) -> Self {
        config.validate().expect("invalid SA configuration");
        Self { system, config }
    }

    /// The system being floorplanned.
    pub fn system(&self) -> &ChipletSystem {
        &self.system
    }

    /// The annealing configuration.
    pub fn config(&self) -> &SaConfig {
        &self.config
    }

    /// Runs the anneal on the propose/commit/reject protocol, maximising
    /// `objective` and reporting every evaluation to `on_candidate` (see
    /// [`OnCandidate`]; index 0 is the initial placement). Moves are
    /// applied to one placement in place; `objective` evaluates each
    /// candidate against its maintained state and a rejected move is
    /// undone, so per-move cost is the objective's delta cost, not a clone
    /// plus a full evaluation. Any plain [`Objective`](crate::Objective) —
    /// a closure, a `&dyn Objective` — is a `DeltaObjective` through the
    /// blanket full-evaluation fallback, so it can be passed as is.
    ///
    /// `start` is an optional warm start. A complete placement that is
    /// legal under this planner's spacing rule is annealed from directly;
    /// anything else — and `None` — draws a random initial placement from
    /// the seeded RNG, so a bad warm start degrades to the cold-start
    /// trajectory instead of failing.
    ///
    /// Under a fixed seed the trajectory — every candidate, accept decision
    /// and the final result — is identical whether `objective` evaluates
    /// incrementally or through the full-evaluation fallback, because
    /// [`DeltaObjective`] implementations return values bit-identical to a
    /// from-scratch evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`InitialPlacementError`] if a random initial placement is
    /// needed and none exists on the configured grid.
    pub fn run(
        &self,
        start: Option<Placement>,
        objective: &mut dyn DeltaObjective,
        on_candidate: &mut OnCandidate<'_>,
    ) -> Result<SaResult, InitialPlacementError> {
        let started = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let grid = PlacementGrid::new(self.config.grid.0, self.config.grid.1);
        let warm = start.filter(|initial| {
            initial.is_complete()
                && self
                    .system
                    .validate_placement(initial, self.config.min_spacing_mm)
                    .is_ok()
        });
        let current = match warm {
            Some(initial) => initial,
            None => self.random_start(&grid, &mut rng)?,
        };
        Ok(self.anneal_from(started, rng, grid, current, objective, on_candidate))
    }

    /// Draws a random initial placement. The constructor places chiplets
    /// one at a time without backtracking, so on tightly packed systems a
    /// single attempt can strand a chiplet; retry a bounded number of times
    /// before giving up.
    fn random_start(
        &self,
        grid: &PlacementGrid,
        rng: &mut ChaCha8Rng,
    ) -> Result<Placement, InitialPlacementError> {
        let mut last_error = None;
        for _ in 0..32 {
            match random_initial_placement(&self.system, grid, self.config.min_spacing_mm, rng) {
                Ok(placement) => return Ok(placement),
                Err(err) => last_error = Some(err),
            }
        }
        Err(last_error.expect("at least one attempt was made"))
    }

    /// The anneal loop proper: everything after the initial placement is
    /// fixed.
    fn anneal_from(
        &self,
        start: Instant,
        mut rng: ChaCha8Rng,
        grid: PlacementGrid,
        mut current: Placement,
        objective: &mut dyn DeltaObjective,
        on_candidate: &mut OnCandidate<'_>,
    ) -> SaResult {
        let mut current_objective = objective.reset(&current);
        let initial_objective = current_objective;
        let mut best = current.clone();
        let mut best_objective = current_objective;
        let mut evaluations = 1usize;
        let mut accepted_moves = 0usize;
        on_candidate(0, current_objective, best_objective);

        // Metrics handles are resolved once per run; the hot loop then pays
        // one branch on a local when metrics are off, and never perturbs the
        // RNG stream or the trajectory either way.
        let obs = rlp_obs::metrics_enabled().then(|| {
            let registry = rlp_obs::registry();
            (
                registry.counter("sa.moves.proposed"),
                registry.counter("sa.moves.accepted"),
                registry.counter("sa.moves.illegal"),
                registry.histogram("sa.move_eval_ns"),
            )
        });

        let mut temperature = self.config.initial_temperature;
        'outer: while temperature > self.config.final_temperature {
            for _ in 0..self.config.moves_per_temperature {
                if let Some(budget) = self.config.time_budget {
                    if start.elapsed() > budget {
                        break 'outer;
                    }
                }
                if let Some(max_evals) = self.config.max_evaluations {
                    if evaluations >= max_evals {
                        break 'outer;
                    }
                }
                let move_started = obs.as_ref().map(|_| Instant::now());
                let candidate_move = propose_move(&self.system, &grid, &mut rng);
                let Some(undo) = apply_move_in_place(
                    &self.system,
                    &grid,
                    &mut current,
                    candidate_move,
                    self.config.min_spacing_mm,
                ) else {
                    if let Some((_, _, illegal, _)) = &obs {
                        illegal.inc();
                    }
                    continue;
                };
                let candidate_objective = objective.propose(&current, undo.changed());
                evaluations += 1;
                let delta = candidate_objective - current_objective;
                let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / temperature).exp();
                if accept {
                    objective.commit();
                    current_objective = candidate_objective;
                    accepted_moves += 1;
                    if current_objective > best_objective {
                        best_objective = current_objective;
                        best = current.clone();
                    }
                } else {
                    objective.reject();
                    undo_move(&mut current, &undo);
                }
                if let Some((proposed, accepted, _, move_eval_ns)) = &obs {
                    proposed.inc();
                    if accept {
                        accepted.inc();
                    }
                    if let Some(at) = move_started {
                        move_eval_ns.record_duration(at.elapsed());
                    }
                }
                on_candidate(evaluations - 1, candidate_objective, best_objective);
            }
            temperature *= self.config.cooling_rate;
        }

        let eval_counts = match objective.evaluation_mode() {
            EvalMode::Incremental => EvalCounts {
                full: 1,
                incremental: evaluations - 1,
            },
            EvalMode::Full => EvalCounts {
                full: evaluations,
                incremental: 0,
            },
        };
        if obs.is_some() {
            let registry = rlp_obs::registry();
            registry.counter("sa.runs").inc();
            registry
                .counter("sa.evals.full")
                .add(eval_counts.full as u64);
            registry
                .counter("sa.evals.incremental")
                .add(eval_counts.incremental as u64);
        }
        SaResult {
            best_placement: best,
            best_objective,
            initial_objective,
            evaluations,
            eval_counts,
            accepted_moves,
            runtime: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Objective;
    use rlp_chiplet::{wirelength::total_wirelength, Chiplet, Net};

    fn connected_system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 40.0, 40.0);
        let a = sys.add_chiplet(Chiplet::new("a", 8.0, 8.0, 20.0));
        let b = sys.add_chiplet(Chiplet::new("b", 8.0, 8.0, 20.0));
        let c = sys.add_chiplet(Chiplet::new("c", 6.0, 6.0, 10.0));
        sys.add_net(Net::new(a, b, 64));
        sys.add_net(Net::new(b, c, 16));
        sys
    }

    /// Anneals from a random start on the full-evaluation path, silently.
    fn run_full(planner: &SaPlanner, objective: &dyn Objective) -> SaResult {
        planner
            .run(None, &mut { objective }, &mut |_, _, _| {})
            .unwrap()
    }

    fn quick_config(seed: u64) -> SaConfig {
        SaConfig {
            initial_temperature: 2.0,
            final_temperature: 0.01,
            cooling_rate: 0.9,
            moves_per_temperature: 40,
            seed,
            ..SaConfig::default()
        }
    }

    #[test]
    fn annealing_reduces_wirelength() {
        let sys = connected_system();
        let planner = SaPlanner::new(sys.clone(), quick_config(0));
        // Maximise the negative wirelength (i.e. minimise wirelength).
        let objective = {
            let sys = sys.clone();
            move |p: &Placement| -total_wirelength(&sys, p)
        };
        let result = run_full(&planner, &objective);
        assert!(result.best_objective >= result.initial_objective);
        assert!(result.accepted_moves > 0);
        assert!(result.evaluations > 10);
        assert!(sys.validate_placement(&result.best_placement, 0.2).is_ok());
        // The optimum pulls connected chiplets together; the final wirelength
        // should be well below a spread-out placement's.
        let wl = total_wirelength(&sys, &result.best_placement);
        assert!(wl < 64.0 * 30.0, "wirelength {wl} too large");
    }

    #[test]
    fn different_seeds_explore_differently_but_both_improve() {
        let sys = connected_system();
        let objective = {
            let sys = sys.clone();
            move |p: &Placement| -total_wirelength(&sys, p)
        };
        let r1 = run_full(&SaPlanner::new(sys.clone(), quick_config(1)), &objective);
        let r2 = run_full(&SaPlanner::new(sys.clone(), quick_config(2)), &objective);
        assert!(r1.best_objective >= r1.initial_objective);
        assert!(r2.best_objective >= r2.initial_objective);
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let sys = connected_system();
        let config = SaConfig {
            max_evaluations: Some(25),
            ..quick_config(3)
        };
        let planner = SaPlanner::new(sys.clone(), config);
        let objective = {
            let sys = sys.clone();
            move |p: &Placement| -total_wirelength(&sys, p)
        };
        let result = run_full(&planner, &objective);
        assert!(result.evaluations <= 25);
    }

    #[test]
    fn time_budget_stops_the_search() {
        let sys = connected_system();
        let config = SaConfig {
            time_budget: Some(Duration::from_millis(0)),
            ..quick_config(4)
        };
        let planner = SaPlanner::new(sys.clone(), config);
        let objective = {
            let sys = sys.clone();
            move |p: &Placement| -total_wirelength(&sys, p)
        };
        let result = run_full(&planner, &objective);
        // Only the initial evaluation happens before the budget check trips.
        assert_eq!(result.evaluations, 1);
    }

    #[test]
    fn best_placement_is_always_legal() {
        let sys = connected_system();
        let planner = SaPlanner::new(sys.clone(), quick_config(5));
        let objective = |_: &Placement| 0.0; // flat objective: accept everything
        let result = run_full(&planner, &objective);
        assert!(sys.validate_placement(&result.best_placement, 0.2).is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SaConfig {
            cooling_rate: 1.5,
            ..SaConfig::default()
        }
        .validate()
        .is_err());
        assert!(SaConfig {
            final_temperature: 10.0,
            initial_temperature: 1.0,
            ..SaConfig::default()
        }
        .validate()
        .is_err());
        assert!(SaConfig {
            moves_per_temperature: 0,
            ..SaConfig::default()
        }
        .validate()
        .is_err());
        assert!(SaConfig::default().validate().is_ok());
        for spacing in [f64::NAN, f64::NEG_INFINITY, -0.5] {
            let err = SaConfig {
                min_spacing_mm: spacing,
                ..SaConfig::default()
            }
            .validate()
            .unwrap_err();
            assert!(matches!(err, SaConfigError::MinSpacing(_)), "{err}");
        }
    }

    #[test]
    fn observer_sees_every_evaluation_in_order() {
        let sys = connected_system();
        let planner = SaPlanner::new(sys.clone(), quick_config(6));
        let objective = {
            let sys = sys.clone();
            move |p: &Placement| -total_wirelength(&sys, p)
        };
        let mut best = Vec::new();
        let result = planner
            .run(None, &mut &objective, &mut |index, _, best_objective| {
                assert_eq!(index, best.len(), "evaluation indices must be dense");
                best.push(best_objective);
            })
            .unwrap();
        assert_eq!(best.len(), result.evaluations);
        // The best-so-far series is monotone non-decreasing and ends at the
        // reported best objective.
        assert!(best.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*best.last().unwrap(), result.best_objective);
    }

    #[test]
    fn warm_start_anneals_from_the_given_placement() {
        let sys = connected_system();
        let config = quick_config(7);
        let grid = PlacementGrid::new(config.grid.0, config.grid.1);
        let mut seed_rng = ChaCha8Rng::seed_from_u64(99);
        let warm =
            random_initial_placement(&sys, &grid, config.min_spacing_mm, &mut seed_rng).unwrap();
        let planner = SaPlanner::new(sys.clone(), config);
        let objective = {
            let sys = sys.clone();
            move |p: &Placement| -total_wirelength(&sys, p)
        };
        let warm_objective = -total_wirelength(&sys, &warm);
        let result = planner
            .run(Some(warm.clone()), &mut &objective, &mut |_, _, _| {})
            .unwrap();
        // The anneal starts exactly at the supplied placement, and the best
        // result can only improve on it.
        assert_eq!(result.initial_objective, warm_objective);
        assert!(result.best_objective >= warm_objective);
        assert!(sys.validate_placement(&result.best_placement, 0.2).is_ok());
    }

    #[test]
    fn illegal_warm_start_falls_back_to_the_random_path() {
        let sys = connected_system();
        let planner = SaPlanner::new(sys.clone(), quick_config(8));
        let objective = {
            let sys = sys.clone();
            move |p: &Placement| -total_wirelength(&sys, p)
        };
        let cold = run_full(&planner, &objective);
        // An incomplete placement is not a usable warm start; the fallback
        // must reproduce the cold-start trajectory bit for bit.
        let warm = planner
            .run(
                Some(Placement::for_system(&sys)),
                &mut &objective,
                &mut |_, _, _| {},
            )
            .unwrap();
        assert_eq!(cold.best_placement, warm.best_placement);
        assert_eq!(cold.best_objective, warm.best_objective);
        assert_eq!(cold.evaluations, warm.evaluations);
    }

    #[test]
    #[should_panic(expected = "invalid SA configuration")]
    fn planner_rejects_invalid_config() {
        SaPlanner::new(
            connected_system(),
            SaConfig {
                initial_temperature: -1.0,
                ..SaConfig::default()
            },
        );
    }
}
