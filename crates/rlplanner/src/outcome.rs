//! The unified outcome of a floorplanning run.
//!
//! Every planner — PPO and the SA baseline alike — returns a
//! [`FloorplanOutcome`]: the best placement and its reward breakdown, a
//! uniform per-candidate telemetry history, the wall-clock runtime, and a
//! [`RunManifest`] recording the configuration, budget and seed so the run
//! can be reproduced exactly (see
//! [`crate::FloorplanRequest::from_manifest`]).

use crate::request::{Budget, Method};
use crate::reward::{RewardBreakdown, RewardConfig};
use rlp_chiplet::Placement;
use rlp_sa::{EvalCounts, EvalMode};
use rlp_thermal::{ThermalBackend, ThermalPrep};
use std::time::Duration;

/// How a run's candidate floorplans were evaluated: the dominant engine
/// and the per-engine evaluation counts.
///
/// SA with the fast thermal backend evaluates moves through the
/// propose/commit/reject engine ([`EvalMode::Incremental`]); SA with the
/// grid solver and the RL training loop evaluate every candidate from
/// scratch ([`EvalMode::Full`]). The JSON report surfaces this as the
/// `evaluation` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalTelemetry {
    /// The engine that evaluated the candidates.
    pub mode: EvalMode,
    /// How many evaluations each engine served.
    pub counts: EvalCounts,
}

/// Rollout telemetry of a training run: how the episodes were collected.
///
/// Only RL methods produce this (SA, gradient and pretrained runs collect
/// no episodes). The JSON report surfaces it as the `training` object,
/// except the VOLATILE `episodes_per_s`, which it renders in `timing`. Because parallel
/// collection is trajectory-invariant — every episode's action stream is
/// keyed by `(seed, episode index)` and transitions merge in episode order —
/// `parallel_envs` changes only `episodes_per_s`, never the outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrainingTelemetry {
    /// Training episodes the run actually collected (may be fewer than
    /// configured under a wall-clock budget). This — not
    /// [`FloorplanOutcome::evaluations`], which counts objective
    /// evaluations — is the numerator of every episodes-per-second figure.
    pub episodes: usize,
    /// Environments the rollout pool stepped concurrently.
    pub parallel_envs: usize,
    /// Episodes collected per wall-clock second.
    pub episodes_per_s: f64,
}

/// One telemetry point: a candidate floorplan evaluated during the run.
///
/// For RL methods a sample is one training episode; for SA it is one
/// objective evaluation (index 0 being the initial placement). Either way
/// the series answers the same question — how the objective evolved per
/// candidate — so convergence curves are directly comparable across
/// methods.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TelemetrySample {
    /// 0-based candidate index in run order.
    pub index: usize,
    /// Reward of this candidate (the configured infeasible penalty when the
    /// candidate could not be evaluated).
    pub reward: f64,
    /// Best reward seen up to and including this candidate.
    pub best_reward: f64,
}

/// Everything needed to reproduce a run: the request's method, backend,
/// reward, budget and seed, plus the identity of the system it was solved
/// for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Name of the floorplanned system.
    pub system_name: String,
    /// Number of chiplets in the system (a cheap integrity check when
    /// rebuilding a request from the manifest).
    pub chiplet_count: usize,
    /// The method configuration that ran. It carries no budget or seed:
    /// those are [`RunManifest::budget`] and [`RunManifest::seed`]. The
    /// request's `parallel_envs` is not recorded, since it cannot change
    /// the result.
    pub method: Method,
    /// The thermal backend description.
    pub thermal: ThermalBackend,
    /// The reward weights.
    pub reward: RewardConfig,
    /// The seed the run used: the request's, or 0 when it set none.
    pub seed: u64,
    /// The request's budget (`None` when it set none; see [`Budget`] for
    /// what each method then does).
    pub budget: Option<Budget>,
    /// Whether the run seeded its optimiser with a cheap gradient-descent
    /// presolve ([`crate::FloorplanRequestBuilder::warm_start`]). Warm
    /// starting changes results, so replaying a manifest must reproduce it.
    pub warm_start: bool,
}

/// The result of solving a [`crate::FloorplanRequest`].
#[derive(Debug, Clone)]
pub struct FloorplanOutcome {
    /// Best complete placement found.
    pub placement: Placement,
    /// Reward breakdown of the best placement.
    pub breakdown: RewardBreakdown,
    /// Per-candidate telemetry in run order; see [`TelemetrySample`].
    pub telemetry: Vec<TelemetrySample>,
    /// Number of candidate floorplans evaluated (RL episodes or SA
    /// objective evaluations; equals `telemetry.len()`).
    pub evaluations: usize,
    /// Which evaluation engine served the candidates, and how many each
    /// engine handled; see [`EvalTelemetry`].
    pub evaluation: EvalTelemetry,
    /// Rollout-collection telemetry; `Some` for RL methods, `None` for the
    /// SA baseline. See [`TrainingTelemetry`].
    pub training: Option<TrainingTelemetry>,
    /// Wall-clock runtime of the optimisation (excluding thermal-backend
    /// characterisation, which [`FloorplanOutcome::thermal_prep`] accounts
    /// for separately).
    pub runtime: Duration,
    /// How the run's thermal analyzer was obtained: characterised from
    /// scratch (a cache miss), served prebuilt from a shared
    /// [`rlp_thermal::ThermalModelCache`] (a hit), and the wall-clock the
    /// construction cost this run. Cache regressions show up here and in
    /// the JSON report.
    pub thermal_prep: ThermalPrep,
    /// Reproducibility manifest of the run.
    pub manifest: RunManifest,
}
