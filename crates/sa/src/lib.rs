//! Simulated-annealing chiplet floorplanner (the TAP-2.5D style baseline).
//!
//! The paper compares RLPlanner against TAP-2.5D, a thermally-aware
//! simulated-annealing placer. This crate reproduces that baseline:
//!
//! * placements live on the same [`rlp_chiplet::PlacementGrid`] the RL
//!   environment uses, so both optimisers search the same space;
//! * the annealer proposes *relocate*, *swap* and *rotate* moves, always
//!   keeping the placement legal (inside the interposer, minimum spacing);
//! * the objective is supplied by the caller through the [`Objective`]
//!   trait, which is how the harness swaps "TAP-2.5D (HotSpot)" for
//!   "TAP-2.5D (fast thermal model)" — same annealer, different thermal
//!   backend inside the objective;
//! * the loop itself runs on the [`DeltaObjective`] propose/commit/reject
//!   protocol: moves mutate one placement in place and incremental
//!   objectives recompute only what a move changed, while plain
//!   [`Objective`] values fall back to full evaluation through a blanket
//!   implementation — same trajectory under a fixed seed either way;
//! * [`SaPlanner::run`] is the one entry point: an optional warm start, the
//!   objective, and an [`rlp_obs::OnCandidate`] progress callback that sees
//!   every evaluation.
//!
//! The annealer **maximises** the objective (the paper's reward is a
//! negative cost, so larger is better).

pub mod anneal;
pub mod moves;
pub mod objective;

pub use anneal::{SaConfig, SaConfigError, SaPlanner, SaResult};
pub use moves::{InitialPlacementError, Move, MoveUndo};
pub use objective::{DeltaObjective, EvalCounts, EvalMode, Objective};
