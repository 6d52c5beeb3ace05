//! The objective interfaces the annealer optimises.
//!
//! Two levels are provided:
//!
//! * [`Objective`] — a stateless "evaluate this complete placement"
//!   function. Simple and always available, but every call pays the full
//!   evaluation cost.
//! * [`DeltaObjective`] — the propose/commit/reject protocol the anneal
//!   loop actually runs on: a proposed move is evaluated against maintained
//!   state (only the changed terms are recomputed), then either committed
//!   or rejected. A blanket implementation lets every [`Objective`] act as
//!   a `DeltaObjective` by falling back to full evaluation, so plain
//!   closures keep working unchanged.

use rlp_chiplet::{ChipletId, Placement};
use serde::{Deserialize, Serialize};

/// A (higher-is-better) objective over complete placements.
///
/// The RLPlanner harness implements this with its thermal-aware reward
/// calculator; unit tests use simple geometric closures.
///
/// # Examples
///
/// ```
/// use rlp_sa::Objective;
/// use rlp_chiplet::Placement;
///
/// // Closures over placements are objectives.
/// let objective = |p: &Placement| -(p.placed_count() as f64);
/// let placement = Placement::new(3);
/// assert_eq!(Objective::evaluate(&objective, &placement), 0.0);
/// ```
pub trait Objective {
    /// Evaluates a placement; larger values are better.
    fn evaluate(&self, placement: &Placement) -> f64;
}

impl<F> Objective for F
where
    F: Fn(&Placement) -> f64,
{
    fn evaluate(&self, placement: &Placement) -> f64 {
        self(placement)
    }
}

impl Objective for &dyn Objective {
    fn evaluate(&self, placement: &Placement) -> f64 {
        (**self).evaluate(placement)
    }
}

/// How an objective evaluates candidate placements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalMode {
    /// Every candidate is evaluated from scratch.
    #[default]
    Full,
    /// Candidates are evaluated against maintained propose/commit/reject
    /// state; only the terms a move changes are recomputed.
    Incremental,
}

impl EvalMode {
    /// Stable machine-readable label (`"full"` or `"incremental"`), used in
    /// reports.
    pub fn label(self) -> &'static str {
        match self {
            EvalMode::Full => "full",
            EvalMode::Incremental => "incremental",
        }
    }
}

/// How many candidate evaluations ran in each mode during a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalCounts {
    /// Evaluations computed from scratch (for an incremental run this is
    /// the initial state construction).
    pub full: usize,
    /// Evaluations served by the incremental engine.
    pub incremental: usize,
}

impl EvalCounts {
    /// Total candidate evaluations in either mode.
    pub fn total(&self) -> usize {
        self.full + self.incremental
    }

    /// The dominant mode: [`EvalMode::Incremental`] if any incremental
    /// evaluation ran, else [`EvalMode::Full`].
    pub fn mode(&self) -> EvalMode {
        if self.incremental > 0 {
            EvalMode::Incremental
        } else {
            EvalMode::Full
        }
    }
}

/// A (higher-is-better) objective with propose/commit/reject move
/// evaluation — what [`crate::SaPlanner`]'s anneal loop runs on.
///
/// The contract mirrors a transactional store:
///
/// 1. [`DeltaObjective::reset`] initialises the state at a placement and
///    returns its objective;
/// 2. [`DeltaObjective::propose`] evaluates a candidate placement that
///    differs from the current state exactly in the chiplets listed in
///    `changed`, returning the candidate's objective (the caller forms the
///    accept-test delta as `candidate - current`, exactly as with full
///    evaluation);
/// 3. [`DeltaObjective::commit`] adopts the candidate as the new current
///    state; [`DeltaObjective::reject`] discards it. Exactly one of the two
///    must follow every propose.
///
/// Incremental implementations must return values **bit-identical** to a
/// from-scratch evaluation of the same placement, so an anneal under a
/// fixed seed takes the same trajectory whichever engine evaluates it.
///
/// Every [`Objective`] is a `DeltaObjective` through the blanket
/// implementation, which evaluates every proposal from scratch and reports
/// [`EvalMode::Full`].
pub trait DeltaObjective {
    /// Initialises the state at `placement` and returns its objective.
    fn reset(&mut self, placement: &Placement) -> f64;

    /// Evaluates a candidate differing from the current state in `changed`;
    /// returns the candidate's objective. Pending until commit/reject.
    fn propose(&mut self, candidate: &Placement, changed: &[ChipletId]) -> f64;

    /// Adopts the pending proposal as the new current state.
    fn commit(&mut self) {}

    /// Discards the pending proposal.
    fn reject(&mut self) {}

    /// Which engine evaluated the candidates (after [`DeltaObjective::reset`]).
    fn evaluation_mode(&self) -> EvalMode {
        EvalMode::Full
    }
}

impl<O: Objective> DeltaObjective for O {
    fn reset(&mut self, placement: &Placement) -> f64 {
        self.evaluate(placement)
    }

    fn propose(&mut self, candidate: &Placement, _changed: &[ChipletId]) -> f64 {
        self.evaluate(candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanket_delta_objective_falls_back_to_full_evaluation() {
        let mut obj = |p: &Placement| -(p.placed_count() as f64);
        let mut placement = Placement::new(2);
        assert_eq!(DeltaObjective::reset(&mut obj, &placement), 0.0);
        placement.place(
            rlp_chiplet::ChipletId::from_index(0),
            rlp_chiplet::Position::new(0.0, 0.0),
        );
        let candidate = obj.propose(&placement, &[rlp_chiplet::ChipletId::from_index(0)]);
        assert_eq!(candidate, -1.0);
        obj.commit();
        obj.reject(); // no-ops for stateless objectives
        assert_eq!(obj.evaluation_mode(), EvalMode::Full);
    }

    #[test]
    fn eval_counts_report_mode_and_total() {
        let full = EvalCounts {
            full: 10,
            incremental: 0,
        };
        assert_eq!(full.total(), 10);
        assert_eq!(full.mode(), EvalMode::Full);
        let inc = EvalCounts {
            full: 1,
            incremental: 99,
        };
        assert_eq!(inc.total(), 100);
        assert_eq!(inc.mode(), EvalMode::Incremental);
        assert_eq!(EvalMode::Full.label(), "full");
        assert_eq!(EvalMode::Incremental.label(), "incremental");
    }

    #[test]
    fn closures_are_objectives() {
        let obj = |p: &Placement| p.placed_count() as f64 * 2.0;
        let mut placement = Placement::new(2);
        assert_eq!(obj.evaluate(&placement), 0.0);
        placement.place(
            rlp_chiplet::ChipletId::from_index(0),
            rlp_chiplet::Position::new(0.0, 0.0),
        );
        assert_eq!(obj.evaluate(&placement), 2.0);
    }
}
