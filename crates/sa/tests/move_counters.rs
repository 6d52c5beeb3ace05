//! The anneal loop's move counters. `sa.moves.proposed` counts the legal
//! moves the objective evaluated; `sa.moves.illegal` counts the proposals
//! the legality check refused before any evaluation. This file is its own
//! test process, so enabling the process-global metrics registry here
//! cannot reach another test.

use rlp_chiplet::wirelength::total_wirelength;
use rlp_chiplet::{Chiplet, ChipletSystem, Net, Placement};
use rlp_sa::{SaConfig, SaPlanner, SearchRun};

#[test]
fn illegal_proposals_are_counted_apart_from_legal_ones() {
    rlp_obs::set_metrics_enabled(true);
    let registry = rlp_obs::registry();
    let proposed = registry.counter("sa.moves.proposed");
    let illegal = registry.counter("sa.moves.illegal");
    let (proposed_before, illegal_before) = (proposed.get(), illegal.get());

    // A crowded interposer: most random relocations land on a neighbour.
    let mut system = ChipletSystem::new("crowded", 30.0, 30.0);
    let ids: Vec<_> = (0..5)
        .map(|i| system.add_chiplet(Chiplet::new(format!("c{i}"), 8.0, 8.0, 5.0)))
        .collect();
    for pair in ids.windows(2) {
        system.add_net(Net::new(pair[0], pair[1], 16));
    }
    let planner = SaPlanner::new(system.clone(), SaConfig::default());
    let objective = |p: &Placement| -total_wirelength(&system, p);
    let mut silent = |_, _, _| {};
    let mut search = SearchRun::new(Some(200), None, &mut silent);
    let result = planner
        .run(None, &mut { objective }, 3, &mut search)
        .unwrap();

    // Every evaluation after the initial one is one legal proposal.
    assert_eq!(
        proposed.get() - proposed_before,
        result.evaluations as u64 - 1
    );
    assert!(
        illegal.get() - illegal_before > 0,
        "a crowded interposer refuses some proposals"
    );
}
