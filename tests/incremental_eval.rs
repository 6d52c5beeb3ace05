//! Acceptance tests for the incremental evaluation engine.
//!
//! The refactor's non-negotiable: SA with incremental evaluation must
//! produce the *identical* result as the full-evaluation path under a
//! fixed seed — same best placement, same best objective, same number of
//! evaluations — because incremental values are bit-identical to full
//! ones. These tests assert that over the real thermal-aware reward, and
//! that the new evaluation telemetry flows through the facade.

use rlp_chiplet::{Chiplet, ChipletId, ChipletSystem, Net, Placement, PlacementGrid};
use rlp_sa::moves::{apply_move_in_place, propose_move, random_initial_placement, undo_move};
use rlp_sa::{DeltaObjective, EvalMode, Objective, SaConfig, SaPlanner, SearchRun};
use rlp_thermal::{
    AnyThermalAnalyzer, CharacterizationOptions, FastThermalModel, ThermalBackend, ThermalConfig,
};
use rlplanner::{Budget, FloorplanRequest, Method, RewardCalculator, RewardConfig};

fn system() -> ChipletSystem {
    let mut sys = ChipletSystem::new("inc", 36.0, 36.0);
    let a = sys.add_chiplet(Chiplet::new("a", 9.0, 9.0, 30.0));
    let b = sys.add_chiplet(Chiplet::new("b", 7.0, 7.0, 15.0));
    let c = sys.add_chiplet(Chiplet::new("c", 5.0, 5.0, 5.0));
    let d = sys.add_chiplet(Chiplet::new("d", 4.0, 6.0, 8.0));
    sys.add_net(Net::new(a, b, 64));
    sys.add_net(Net::new(b, c, 16));
    sys.add_net(Net::new(c, d, 8));
    sys.add_net(Net::new(a, d, 4));
    sys
}

fn fast_model() -> AnyThermalAnalyzer {
    AnyThermalAnalyzer::Fast(
        FastThermalModel::characterize(
            &ThermalConfig::with_grid(12, 12),
            36.0,
            36.0,
            &CharacterizationOptions {
                footprint_samples_mm: vec![4.0, 8.0, 12.0],
                distance_bins: 16,
                ..CharacterizationOptions::default()
            },
        )
        .expect("characterisation succeeds"),
    )
}

fn quick_sa() -> SaConfig {
    SaConfig {
        initial_temperature: 2.0,
        final_temperature: 0.02,
        cooling_rate: 0.85,
        moves_per_temperature: 30,
        grid: (14, 14),
        ..SaConfig::default()
    }
}

/// The headline acceptance criterion: under fixed seeds the anneal finds
/// the identical best placement and best objective whether the reward is
/// evaluated incrementally or from scratch.
#[test]
fn sa_incremental_and_full_paths_are_identical_under_fixed_seeds() {
    let sys = system();
    let calc = RewardCalculator::new(sys.clone(), fast_model(), RewardConfig::default());
    for seed in [0u64, 7, 42] {
        let planner = SaPlanner::new(sys.clone(), quick_sa());

        // Full path: the calculator's stateless `Objective` impl, i.e. a
        // from-scratch bump assignment + O(n²) superposition per move.
        let full = planner
            .run(
                None,
                &mut (&calc as &dyn Objective),
                seed,
                &mut SearchRun::new(None, None, &mut |_, _, _| {}),
            )
            .expect("full run");

        // Incremental path: the propose/commit/reject engine.
        let mut objective = calc.delta_objective();
        let incremental = planner
            .run(
                None,
                &mut objective,
                seed,
                &mut SearchRun::new(None, None, &mut |_, _, _| {}),
            )
            .expect("incremental run");

        assert_eq!(
            incremental.best_placement, full.best_placement,
            "seed {seed}: best placements diverged"
        );
        assert_eq!(
            incremental.best_objective.to_bits(),
            full.best_objective.to_bits(),
            "seed {seed}: best objectives diverged"
        );
        assert_eq!(incremental.evaluations, full.evaluations);
        assert_eq!(incremental.accepted_moves, full.accepted_moves);
        assert_eq!(
            incremental.initial_objective.to_bits(),
            full.initial_objective.to_bits()
        );

        // Telemetry: the incremental run reports one full evaluation (the
        // initial state build) and the rest incremental.
        assert_eq!(incremental.eval_counts.mode(), EvalMode::Incremental);
        assert_eq!(incremental.eval_counts.full, 1);
        assert_eq!(
            incremental.eval_counts.incremental,
            incremental.evaluations - 1
        );
        assert_eq!(full.eval_counts.mode(), EvalMode::Full);
        assert_eq!(full.eval_counts.full, full.evaluations);

        // The engine's tracked best breakdown matches the annealer's best.
        let best = objective.best_breakdown().expect("initialised");
        assert_eq!(best.reward.to_bits(), incremental.best_objective.to_bits());
        assert_eq!(best.eval_mode, EvalMode::Incremental);
    }
}

/// Every proposed value of the delta objective equals a from-scratch
/// `RewardCalculator::evaluate` of the same placement, bit for bit, across
/// a long random commit/reject walk.
#[test]
fn delta_reward_objective_matches_full_evaluation_on_random_walks() {
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let sys = system();
    let calc = RewardCalculator::new(sys.clone(), fast_model(), RewardConfig::default());
    let grid = PlacementGrid::new(14, 14);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut placement =
        random_initial_placement(&sys, &grid, 0.2, &mut rng).expect("initial placement");

    let mut objective = calc.delta_objective();
    let initial = objective.reset(&placement);
    assert_eq!(
        initial.to_bits(),
        calc.evaluate(&placement).unwrap().reward.to_bits()
    );
    assert_eq!(objective.mode(), EvalMode::Incremental);

    let mut proposals = 0;
    let mut attempts = 0;
    while proposals < 200 && attempts < 4000 {
        attempts += 1;
        let mv = propose_move(&sys, &grid, &mut rng);
        let Some(undo) = apply_move_in_place(&sys, &grid, &mut placement, mv, 0.2) else {
            continue;
        };
        proposals += 1;
        let value = objective.propose(&placement, undo.changed());
        let full = calc.evaluate(&placement).unwrap();
        assert_eq!(
            value.to_bits(),
            full.reward.to_bits(),
            "proposal {proposals}: {value} vs {}",
            full.reward
        );
        if rng.gen::<f64>() < 0.5 {
            objective.commit();
            let committed = objective.current_breakdown().unwrap();
            assert_eq!(committed.reward.to_bits(), full.reward.to_bits());
            assert_eq!(
                committed.wirelength_mm.to_bits(),
                full.wirelength_mm.to_bits()
            );
            assert_eq!(
                committed.max_temperature_c.to_bits(),
                full.max_temperature_c.to_bits()
            );
        } else {
            objective.reject();
            undo_move(&mut placement, &undo);
        }
    }
    assert!(proposals >= 100, "only {proposals} legal proposals");
}

/// A backend without incremental support falls back to full evaluation
/// with the same fixed-seed trajectory.
#[test]
fn grid_backend_falls_back_to_full_evaluation() {
    use rlp_thermal::GridThermalSolver;

    let sys = system();
    let calc = RewardCalculator::new(
        sys.clone(),
        AnyThermalAnalyzer::Grid(GridThermalSolver::new(ThermalConfig::with_grid(8, 8))),
        RewardConfig::default(),
    );
    let planner = SaPlanner::new(sys, quick_sa());
    let mut objective = calc.delta_objective();
    let delta_run = planner
        .run(
            None,
            &mut objective,
            3,
            &mut SearchRun::new(Some(15), None, &mut |_, _, _| {}),
        )
        .expect("delta run");
    assert_eq!(objective.mode(), EvalMode::Full);
    assert_eq!(delta_run.eval_counts.mode(), EvalMode::Full);
    assert_eq!(delta_run.eval_counts.full, delta_run.evaluations);

    let full_run = planner
        .run(
            None,
            &mut (&calc as &dyn Objective),
            3,
            &mut SearchRun::new(Some(15), None, &mut |_, _, _| {}),
        )
        .expect("full run");
    assert_eq!(delta_run.best_placement, full_run.best_placement);
    assert_eq!(
        delta_run.best_objective.to_bits(),
        full_run.best_objective.to_bits()
    );
}

/// The facade surfaces evaluation telemetry per method and backend.
#[test]
fn facade_outcomes_carry_evaluation_telemetry() {
    let sys = system();

    // SA over the fast backend runs incrementally.
    let outcome = FloorplanRequest::builder()
        .system(sys.clone())
        .method(Method::sa())
        .thermal(ThermalBackend::Fast {
            config: ThermalConfig::with_grid(12, 12),
            characterization: CharacterizationOptions {
                footprint_samples_mm: vec![4.0, 8.0, 12.0],
                distance_bins: 16,
                ..CharacterizationOptions::default()
            },
        })
        .budget(Budget::Evaluations(40))
        .seed(5)
        .build()
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(outcome.evaluation.mode, EvalMode::Incremental);
    assert_eq!(outcome.evaluation.counts.full, 1);
    assert_eq!(outcome.evaluation.counts.total(), outcome.evaluations);
    assert_eq!(outcome.breakdown.eval_mode, EvalMode::Incremental);
    let json = rlplanner::report::outcome_json(&system(), &outcome);
    assert!(json.contains("\"mode\": \"incremental\""));

    // SA over the grid backend falls back to full evaluation.
    let outcome = FloorplanRequest::builder()
        .system(sys.clone())
        .method(Method::sa())
        .thermal(ThermalBackend::Grid {
            config: ThermalConfig::with_grid(8, 8),
        })
        .budget(Budget::Evaluations(10))
        .seed(5)
        .build()
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(outcome.evaluation.mode, EvalMode::Full);
    assert_eq!(outcome.evaluation.counts.full, outcome.evaluations);
    assert_eq!(outcome.evaluation.counts.incremental, 0);

    // RL evaluates one full reward per episode.
    let outcome = FloorplanRequest::builder()
        .system(sys)
        .method(Method::rl())
        .thermal(ThermalBackend::Fast {
            config: ThermalConfig::with_grid(12, 12),
            characterization: CharacterizationOptions {
                footprint_samples_mm: vec![4.0, 8.0, 12.0],
                distance_bins: 16,
                ..CharacterizationOptions::default()
            },
        })
        .budget(Budget::Evaluations(4))
        .seed(5)
        .build()
        .unwrap()
        .solve()
        .unwrap();
    assert_eq!(outcome.evaluation.mode, EvalMode::Full);
    assert_eq!(outcome.evaluation.counts.full, outcome.evaluations);
}

/// `delta_for_move` (the single-chiplet convenience) agrees with the
/// general propose path.
#[test]
fn incremental_wirelength_delta_for_move_is_exposed() {
    use rlp_chiplet::bumps::BumpConfig;
    use rlp_chiplet::wirelength::bump_aware_wirelength;
    use rlp_chiplet::{IncrementalWirelength, Position, Rotation};

    let sys = system();
    let ids: Vec<ChipletId> = sys.chiplet_ids().collect();
    let mut placement = Placement::for_system(&sys);
    placement.place(ids[0], Position::new(2.0, 2.0));
    placement.place(ids[1], Position::new(20.0, 2.0));
    placement.place(ids[2], Position::new(2.0, 20.0));
    placement.place(ids[3], Position::new(20.0, 20.0));

    let config = BumpConfig::default();
    let mut inc = IncrementalWirelength::new(&sys, &placement, config).unwrap();
    let before = inc.total();
    let delta = inc.delta_for_move(&sys, ids[1], Position::new(12.0, 2.0), Rotation::None);
    inc.commit();
    placement.place(ids[1], Position::new(12.0, 2.0));
    let full = bump_aware_wirelength(&sys, &placement, &config).unwrap();
    assert_eq!(inc.total().to_bits(), full.to_bits());
    assert!((delta - (full - before)).abs() < 1e-9);
}
