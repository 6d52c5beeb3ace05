//! Property tests for the propose/commit/reject evaluation protocol.
//!
//! The load-bearing property of incremental evaluation is *exact*
//! agreement: after any interleaving of commits and rejects, a
//! [`DeltaObjective`] built on [`IncrementalWirelength`] must report the
//! same value a from-scratch full evaluation reports for the same
//! placement — bit for bit, at every step — and an anneal under a fixed
//! seed must take the same trajectory whichever engine evaluates it.

use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlp_chiplet::bumps::BumpConfig;
use rlp_chiplet::wirelength::bump_aware_wirelength;
use rlp_chiplet::{
    Chiplet, ChipletId, ChipletSystem, IncrementalWirelength, Net, Placement, PlacementGrid,
};
use rlp_sa::moves::{apply_move_in_place, propose_move, random_initial_placement, undo_move};
use rlp_sa::{DeltaObjective, EvalMode, Objective, SaConfig, SaPlanner, SearchRun};

/// A wirelength-minimising incremental objective over
/// [`IncrementalWirelength`] — the same shape the reward calculator's
/// incremental objective has, reduced to the wirelength term.
struct IncrementalWirelengthObjective {
    system: ChipletSystem,
    config: BumpConfig,
    state: Option<IncrementalWirelength>,
}

impl IncrementalWirelengthObjective {
    fn new(system: ChipletSystem) -> Self {
        Self {
            system,
            config: BumpConfig::default(),
            state: None,
        }
    }
}

impl DeltaObjective for IncrementalWirelengthObjective {
    fn reset(&mut self, placement: &Placement) -> f64 {
        let state = IncrementalWirelength::new(&self.system, placement, self.config)
            .expect("complete placement");
        let total = state.total();
        self.state = Some(state);
        -total
    }

    fn propose(&mut self, candidate: &Placement, changed: &[ChipletId]) -> f64 {
        let state = self.state.as_mut().expect("reset before propose");
        -state.propose(&self.system, candidate, changed)
    }

    fn commit(&mut self) {
        self.state.as_mut().expect("pending proposal").commit();
    }

    fn reject(&mut self) {
        self.state.as_mut().expect("pending proposal").reject();
    }

    fn evaluation_mode(&self) -> EvalMode {
        EvalMode::Incremental
    }
}

/// Builds a chain-connected system of `n` chiplets with seeded footprints.
fn chain_system(n: usize, seed: u64) -> ChipletSystem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut sys = ChipletSystem::new("prop", 60.0, 60.0);
    let ids: Vec<ChipletId> = (0..n)
        .map(|i| {
            let w = rng.gen_range(4.0..9.0);
            let h = rng.gen_range(4.0..9.0);
            let p = rng.gen_range(5.0..30.0);
            sys.add_chiplet(Chiplet::new(format!("c{i}"), w, h, p))
        })
        .collect();
    for pair in ids.windows(2) {
        let wires = rng.gen_range(4..64);
        sys.add_net(Net::new(pair[0], pair[1], wires));
    }
    // One extra chord so some chiplets have more than two incident nets.
    if n >= 3 {
        sys.add_net(Net::new(ids[0], ids[n - 1], 8));
    }
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// 200 random moves with random commit/reject decisions: the
    /// incremental objective matches a from-scratch full evaluation at
    /// every proposal and after every resolution.
    #[test]
    fn incremental_objective_matches_full_evaluation(
        n in 3usize..6,
        seed in 0u64..1000,
    ) {
        let sys = chain_system(n, seed);
        let grid = PlacementGrid::new(16, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1CE);
        let mut placement = random_initial_placement(&sys, &grid, 0.2, &mut rng)
            .expect("initial placement");
        let config = BumpConfig::default();

        let mut objective = IncrementalWirelengthObjective::new(sys.clone());
        let initial = objective.reset(&placement);
        let full = -bump_aware_wirelength(&sys, &placement, &config).unwrap();
        prop_assert_eq!(initial.to_bits(), full.to_bits());

        let mut proposals = 0usize;
        let mut attempts = 0usize;
        while proposals < 200 && attempts < 4000 {
            attempts += 1;
            let candidate_move = propose_move(&sys, &grid, &mut rng);
            let Some(undo) = apply_move_in_place(&sys, &grid, &mut placement, candidate_move, 0.2)
            else {
                continue;
            };
            proposals += 1;
            let value = objective.propose(&placement, undo.changed());
            let full = -bump_aware_wirelength(&sys, &placement, &config).unwrap();
            prop_assert_eq!(
                value.to_bits(),
                full.to_bits(),
                "proposal {} diverged: {} vs {}",
                proposals,
                value,
                full
            );
            if rng.gen::<f64>() < 0.5 {
                objective.commit();
            } else {
                objective.reject();
                undo_move(&mut placement, &undo);
            }
            // After resolution the committed placement still agrees.
            let committed = -bump_aware_wirelength(&sys, &placement, &config).unwrap();
            let state_total = -objective.state.as_ref().unwrap().total();
            prop_assert_eq!(state_total.to_bits(), committed.to_bits());
        }
        prop_assert!(proposals >= 50, "only {} legal proposals", proposals);
    }

    /// A fixed-seed anneal takes the identical trajectory whether the
    /// objective evaluates incrementally or from scratch.
    #[test]
    fn anneal_trajectory_is_engine_independent(seed in 0u64..500) {
        let sys = chain_system(4, seed);
        let sa = SaConfig {
            initial_temperature: 2.0,
            final_temperature: 0.05,
            cooling_rate: 0.85,
            moves_per_temperature: 25,
            ..SaConfig::default()
        };
        let planner = SaPlanner::new(sys.clone(), sa);

        let full_objective = {
            let sys = sys.clone();
            move |p: &Placement| {
                -bump_aware_wirelength(&sys, p, &BumpConfig::default()).unwrap()
            }
        };
        let mut silent = |_, _, _| {};
        let full = planner
            .run(
                None,
                &mut (&full_objective as &dyn Objective),
                seed,
                &mut SearchRun::new(None, None, &mut silent),
            )
            .unwrap();

        let mut incremental_objective = IncrementalWirelengthObjective::new(sys);
        let mut silent = |_, _, _| {};
        let incremental = planner
            .run(
                None,
                &mut incremental_objective,
                seed,
                &mut SearchRun::new(None, None, &mut silent),
            )
            .unwrap();

        prop_assert_eq!(&incremental.best_placement, &full.best_placement);
        prop_assert_eq!(
            incremental.best_objective.to_bits(),
            full.best_objective.to_bits()
        );
        prop_assert_eq!(incremental.evaluations, full.evaluations);
        prop_assert_eq!(incremental.accepted_moves, full.accepted_moves);
        prop_assert_eq!(incremental.eval_counts.mode(), EvalMode::Incremental);
        prop_assert_eq!(full.eval_counts.mode(), EvalMode::Full);
        prop_assert_eq!(incremental.eval_counts.total(), incremental.evaluations);
        prop_assert_eq!(full.eval_counts.full, full.evaluations);
    }
}
