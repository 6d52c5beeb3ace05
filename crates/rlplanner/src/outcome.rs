//! The unified outcome of a floorplanning run.
//!
//! Every planner — PPO and the SA baseline alike — returns a
//! [`FloorplanOutcome`]: the best placement and its reward breakdown, a
//! uniform per-candidate telemetry history, the wall-clock runtime, and a
//! [`RunManifest`] recording the fully-resolved configuration and seed so
//! the run can be reproduced exactly (see
//! [`crate::FloorplanRequest::from_manifest`]).

use crate::request::Method;
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
/// Only RL methods produce this (the SA baseline has no rollout pool). The
/// JSON report surfaces it as the `training` object. Because parallel
/// collection is trajectory-invariant — every episode's action stream is
/// keyed by `(seed, episode index)` and transitions merge in episode order —
/// `parallel_envs` changes only `episodes_per_s`, never the outcome, and
/// `merge_order_hash` fingerprints the merge sequence so an order
/// regression is immediately visible.
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
    /// FNV-1a hash over the `(episode index, env index)` merge sequence.
    pub merge_order_hash: u64,
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

/// Everything needed to reproduce a run: the fully-resolved configuration
/// after all request-level overrides, plus the identity of the system it
/// was solved for.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Name of the floorplanned system.
    pub system_name: String,
    /// Number of chiplets in the system (a cheap integrity check when
    /// rebuilding a request from the manifest).
    pub chiplet_count: usize,
    /// The method with every override folded in — replaying it needs no
    /// other budget or seed information.
    pub method: Method,
    /// The thermal backend description.
    pub thermal: ThermalBackend,
    /// The reward weights.
    pub reward: RewardConfig,
    /// The seed the run used.
    pub seed: u64,
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

impl FloorplanOutcome {
    /// Mean reward over the last `window` telemetry samples (or all of them
    /// if fewer); a cheap convergence indicator. Returns negative infinity
    /// when there is nothing to average (empty telemetry or a zero window).
    pub fn recent_mean_reward(&self, window: usize) -> f64 {
        tail_mean(&self.telemetry, window, |s| s.reward)
    }
}

/// Mean of `reward` over the last `window` elements of `values` (or all of
/// them if fewer); negative infinity when there is nothing to average.
/// Shared by [`FloorplanOutcome`] and [`crate::TrainingResult`].
pub(crate) fn tail_mean<T>(values: &[T], window: usize, reward: impl Fn(&T) -> f64) -> f64 {
    if values.is_empty() || window == 0 {
        return f64::NEG_INFINITY;
    }
    let tail = &values[values.len().saturating_sub(window)..];
    tail.iter().map(reward).sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with_rewards(rewards: &[f64]) -> FloorplanOutcome {
        let mut best = f64::NEG_INFINITY;
        let telemetry: Vec<TelemetrySample> = rewards
            .iter()
            .enumerate()
            .map(|(index, &reward)| {
                best = best.max(reward);
                TelemetrySample {
                    index,
                    reward,
                    best_reward: best,
                }
            })
            .collect();
        FloorplanOutcome {
            placement: Placement::new(0),
            breakdown: RewardBreakdown {
                reward: best,
                wirelength_mm: 1.0,
                max_temperature_c: 50.0,
                eval_mode: EvalMode::Full,
            },
            evaluations: telemetry.len(),
            evaluation: EvalTelemetry {
                mode: EvalMode::Full,
                counts: EvalCounts {
                    full: telemetry.len(),
                    incremental: 0,
                },
            },
            training: None,
            telemetry,
            runtime: Duration::from_millis(1),
            thermal_prep: ThermalPrep::default(),
            manifest: RunManifest {
                system_name: "t".to_string(),
                chiplet_count: 0,
                method: Method::rl(),
                thermal: ThermalBackend::fast(),
                reward: RewardConfig::default(),
                seed: 0,
                warm_start: false,
            },
        }
    }

    #[test]
    fn recent_mean_reward_averages_the_tail() {
        let outcome = outcome_with_rewards(&[-4.0, -2.0, -1.0, -3.0]);
        assert!((outcome.recent_mean_reward(2) - (-2.0)).abs() < 1e-12);
        assert!((outcome.recent_mean_reward(100) - (-2.5)).abs() < 1e-12);
    }

    #[test]
    fn empty_telemetry_and_zero_window_report_negative_infinity() {
        let outcome = outcome_with_rewards(&[]);
        assert_eq!(outcome.recent_mean_reward(5), f64::NEG_INFINITY);
        let outcome = outcome_with_rewards(&[-1.0]);
        assert_eq!(outcome.recent_mean_reward(0), f64::NEG_INFINITY);
    }
}
