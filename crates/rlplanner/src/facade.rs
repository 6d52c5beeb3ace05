//! The solve pipeline.
//!
//! [`FloorplanRequest::solve_observed`] is the one path every method runs
//! through, from request to [`FloorplanOutcome`]. It does the shared work
//! once — the `plan.solve` span, method resolution, thermal-analyzer
//! construction, the warm-start presolve, the run's stop rule,
//! per-candidate telemetry, the `plan.*` metrics and outcome assembly — and
//! `match`es on the resolved [`Method`] only to call the engine that does
//! the optimisation: PPO training, the simulated-annealing baseline,
//! analytic gradient descent or pretrained inference. Each engine returns
//! one `EngineRun`; a new method is one more engine function and one more
//! `match` arm.
//!
//! The request is the only home of a run's budget, seed and rollout
//! parallelism. The pipeline turns the budget into the solve's one
//! [`SearchRun`] ([`search_run`]) and hands that run and the seed (0 when
//! the request sets none) to the engine; no engine configuration carries
//! any of them. The run's wall-clock is the [`SearchRun`]'s: each engine
//! function reads it there, and no engine result restates it.
//!
//! Progress goes through one callback, [`rlp_obs::OnCandidate`]. The
//! pipeline fans every candidate out to the outcome's telemetry and to the
//! caller's callback, so the two always see the same stream.
//!
//! When a request sets [`FloorplanRequest::warm_start`], the SA and RL
//! engines are seeded with the placement of a short gradient-descent
//! presolve: SA anneals from it instead of a random start, RL uses it as
//! the bar its episodes must beat. The presolve's evaluations are
//! deliberately *not* counted in the outcome — they are setup cost, like
//! thermal characterisation — and the flag is recorded in the
//! [`RunManifest`](crate::RunManifest) so replay reproduces the seeded run.

use crate::agent::{build_actor_critic, configs_from_policy};
use crate::env::{EnvConfig, FloorplanEnv};
use crate::gradient::{GradientConfig, GradientDescent};
use crate::outcome::{EvalTelemetry, FloorplanOutcome, TelemetrySample, TrainingTelemetry};
use crate::planner::{RlPlanner, RlPlannerConfig};
use crate::request::{Budget, FloorplanRequest, Method, PretrainedConfig};
use crate::reward::{RewardBreakdown, RewardCalculator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlp_chiplet::Placement;
use rlp_nn::{Categorical, PolicyError, PolicyFile};
use rlp_obs::OnCandidate;
use rlp_rl::{ConfigError, Environment};
use rlp_sa::{EvalCounts, EvalMode, InitialPlacementError, SaConfig, SaPlanner, SearchRun};
use rlp_thermal::{AnyThermalAnalyzer, ThermalError};
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Errors produced while solving a [`FloorplanRequest`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// A configuration was invalid (normally caught earlier, when the
    /// request is built).
    Config(ConfigError),
    /// The thermal backend could not be built (characterisation or solver
    /// setup failed).
    Thermal(ThermalError),
    /// No legal initial placement exists on the configured grid (SA).
    InitialPlacement(InitialPlacementError),
    /// The run finished without producing a single complete placement (RL
    /// with a grid too coarse for the system).
    Incomplete,
    /// A pretrained solve could not use its policy file: unreadable,
    /// corrupt, truncated, checksum-mismatched, missing metadata, or saved
    /// from a different network architecture.
    Policy {
        /// Path of the policy file.
        path: String,
        /// What was wrong with it.
        error: PolicyError,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Config(e) => write!(f, "invalid configuration: {e}"),
            PlanError::Thermal(e) => write!(f, "thermal backend failed: {e}"),
            PlanError::InitialPlacement(e) => write!(f, "{e}"),
            PlanError::Incomplete => write!(
                f,
                "the run never produced a complete placement; enlarge the grid or the interposer"
            ),
            PlanError::Policy { path, error } => {
                write!(f, "policy file `{path}`: {error}")
            }
        }
    }
}

impl Error for PlanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PlanError::Config(e) => Some(e),
            PlanError::Thermal(e) => Some(e),
            PlanError::InitialPlacement(e) => Some(e),
            PlanError::Policy { error, .. } => Some(error),
            PlanError::Incomplete => None,
        }
    }
}

impl From<ConfigError> for PlanError {
    fn from(err: ConfigError) -> Self {
        PlanError::Config(err)
    }
}

impl From<ThermalError> for PlanError {
    fn from(err: ThermalError) -> Self {
        PlanError::Thermal(err)
    }
}

impl From<InitialPlacementError> for PlanError {
    fn from(err: InitialPlacementError) -> Self {
        PlanError::InitialPlacement(err)
    }
}

/// What an engine hands back to the pipeline: everything in the outcome
/// that depends on the method. The pipeline adds telemetry, thermal prep
/// and the manifest.
struct EngineRun {
    placement: Placement,
    breakdown: RewardBreakdown,
    /// Candidate floorplans evaluated, per engine: RL episodes, SA
    /// objective evaluations, legalised descent iterates or completed
    /// rollouts. The total is the outcome's `evaluations`.
    counts: EvalCounts,
    training: Option<TrainingTelemetry>,
    runtime: Duration,
}

/// Episodes an RL run trains for when its request sets no evaluation
/// budget: the paper's 600.
pub const DEFAULT_RL_EPISODES: usize = 600;

/// The stop rule a solve of `method` under `budget` runs by (see
/// [`Budget`]): `Evaluations(n)` caps the run at `n` candidates and
/// `TimeLimit` bounds its wall-clock. An RL run without an evaluation
/// budget is capped at [`DEFAULT_RL_EPISODES`]; a pretrained run ignores
/// the budget. Every candidate the run records goes to `on_candidate`.
///
/// [`FloorplanRequest::solve_observed`] builds each solve's run here; so do
/// callers that drive an engine directly.
pub fn search_run<'a>(
    method: &Method,
    budget: Option<Budget>,
    on_candidate: &'a mut OnCandidate<'a>,
) -> SearchRun<'a> {
    let (cap, time_limit) = match (method, budget) {
        (Method::Pretrained { .. }, _) | (_, None) => (None, None),
        (_, Some(Budget::Evaluations(n))) => (Some(n), None),
        (_, Some(Budget::TimeLimit(limit))) => (None, Some(limit)),
    };
    let cap = match method {
        Method::Rl { .. } | Method::RlRnd { .. } => cap.or(Some(DEFAULT_RL_EPISODES)),
        _ => cap,
    };
    SearchRun::new(cap, time_limit, on_candidate)
}

impl FloorplanRequest {
    /// Solves the request with the engine matching its method.
    ///
    /// Equivalent to [`FloorplanRequest::solve_observed`] with a no-op
    /// callback; the callback never influences the run, so both produce
    /// identical outcomes for a fixed seed.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] if the thermal backend cannot be built, no
    /// legal placement exists, the run produces no complete floorplan, or
    /// a pretrained policy file is unusable.
    pub fn solve(&self) -> Result<FloorplanOutcome, PlanError> {
        self.solve_observed(&mut |_, _, _| {})
    }

    /// Solves the request like [`FloorplanRequest::solve`], reporting every
    /// evaluated candidate to `on_candidate` while the run is in flight —
    /// the same stream, element for element, that lands in
    /// [`FloorplanOutcome::telemetry`]. See [`OnCandidate`] for the
    /// callback's contract.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FloorplanRequest::solve`].
    pub fn solve_observed(
        &self,
        on_candidate: &mut OnCandidate<'_>,
    ) -> Result<FloorplanOutcome, PlanError> {
        let mut manifest = self.manifest();
        let seed = manifest.seed;
        let _span = rlp_obs::obs_span!(
            rlp_obs::Level::Debug,
            "rlplanner",
            "plan.solve",
            method = self.method().label(),
            system = self.system().name(),
        );
        // A pretrained solve loads and checks its policy before thermal
        // prep, so a bad file costs no characterisation; the manifest
        // records the checksum of the file it read.
        let mut policy = None;
        if let Method::Pretrained { config } = &mut manifest.method {
            policy = Some(load_policy(self, config)?);
        }
        let method = &manifest.method;
        let (analyzer, thermal_prep) = self.thermal_analyzer()?;
        // The presolve's placement must be legal on the main optimiser's
        // grid, so it borrows that optimiser's grid and spacing.
        let warm = match method {
            Method::Rl { config } | Method::RlRnd { config } => warm_start_presolve(
                self,
                &analyzer,
                seed,
                config.env.grid,
                config.env.min_spacing_mm,
            ),
            Method::Sa { config } => {
                warm_start_presolve(self, &analyzer, seed, config.grid, config.min_spacing_mm)
            }
            Method::Gradient { .. } | Method::Pretrained { .. } => None,
        };

        let mut telemetry = Vec::new();
        let run = {
            let mut tee = |index, reward, best_reward| {
                telemetry.push(TelemetrySample {
                    index,
                    reward,
                    best_reward,
                });
                on_candidate(index, reward, best_reward);
            };
            let search = &mut search_run(method, self.budget(), &mut tee);
            match method {
                Method::Rl { config } => run_rl(self, analyzer, config, false, seed, warm, search)?,
                Method::RlRnd { config } => {
                    run_rl(self, analyzer, config, true, seed, warm, search)?
                }
                Method::Sa { config } => {
                    run_sa(self, analyzer, config, seed, warm.map(|(p, _)| p), search)?
                }
                Method::Gradient { config } => run_gradient(self, analyzer, config, seed, search)?,
                Method::Pretrained { .. } => {
                    let policy = policy.take().expect("pretrained policy loaded above");
                    run_pretrained(self, analyzer, seed, policy, search)?
                }
            }
        };

        rlp_obs::obs_counter!("plan.solves").inc();
        if matches!(method, Method::Pretrained { .. }) {
            rlp_obs::obs_counter!("plan.pretrained_solves").inc();
        }
        rlp_obs::obs_histogram!("plan.solve_ns").record_duration(run.runtime);
        Ok(FloorplanOutcome {
            placement: run.placement,
            breakdown: run.breakdown,
            telemetry,
            evaluations: run.counts.total(),
            evaluation: EvalTelemetry {
                mode: run.counts.mode(),
                counts: run.counts,
            },
            training: run.training,
            runtime: run.runtime,
            thermal_prep,
            manifest,
        })
    }
}

/// Runs the short gradient-descent presolve behind
/// [`FloorplanRequest::warm_start`] and returns its best placement, or
/// `None` when the request does not ask for a warm start or the presolve
/// fails for any reason — warm starting is fail-soft, so the caller then
/// falls back to its usual cold start. The presolve reuses the request's
/// analyzer, reward weights and seed. It is setup, not part of the run: it
/// has a silent run of its own, bounded by its 50 iterations rather than
/// the request's budget.
fn warm_start_presolve(
    request: &FloorplanRequest,
    analyzer: &AnyThermalAnalyzer,
    seed: u64,
    grid: (usize, usize),
    min_spacing_mm: f64,
) -> Option<(Placement, RewardBreakdown)> {
    if !request.warm_start() {
        return None;
    }
    let config = GradientConfig {
        iterations: 50,
        grid,
        min_spacing_mm,
        ..GradientConfig::default()
    };
    let descent = GradientDescent::new(
        request.system().clone(),
        analyzer.clone(),
        request.reward().clone(),
        config,
    )
    .ok()?;
    let mut silent = |_, _, _| {};
    let result = descent
        .run(seed, &mut SearchRun::new(None, None, &mut silent))
        .ok()?;
    rlp_obs::obs_counter!("plan.warm_starts").inc();
    Some((result.best_placement, result.best_breakdown))
}

/// PPO training — "RLPlanner" and "RLPlanner (RND)". A warm start seeds
/// the best-artifact tracker: training proceeds identically, but the
/// outcome is never worse than the presolve.
fn run_rl(
    request: &FloorplanRequest,
    analyzer: AnyThermalAnalyzer,
    config: &RlPlannerConfig,
    rnd: bool,
    seed: u64,
    warm: Option<(Placement, RewardBreakdown)>,
    search: &mut SearchRun<'_>,
) -> Result<EngineRun, PlanError> {
    let parallel_envs = request.parallel_envs().unwrap_or(1);
    let mut planner = RlPlanner::new(
        request.system().clone(),
        analyzer,
        request.reward().clone(),
        config.clone(),
        seed,
        rnd,
        parallel_envs,
    )?;
    let result = planner
        .train(warm, search)
        .map_err(|_| PlanError::Incomplete)?;
    // Read before any policy export, which runs the last PPO update.
    let runtime = search.elapsed();
    // "Train once": persist the trained weights when the request asks for
    // it, tagged with provenance so the file is self-describing.
    if let Some(path) = request.save_policy() {
        let extra = vec![
            (
                "trained.system".to_string(),
                request.system().name().to_string(),
            ),
            (
                "trained.episodes".to_string(),
                result.episodes_run.to_string(),
            ),
            ("trained.seed".to_string(), seed.to_string()),
        ];
        planner
            .export_policy(extra)
            .save(path)
            .map_err(|error| PlanError::Policy {
                path: path.to_string(),
                error,
            })?;
        rlp_obs::obs_counter!("plan.policies_saved").inc();
    }
    Ok(EngineRun {
        placement: result.best_placement,
        breakdown: result.best_breakdown,
        // Every RL episode ends in one full reward evaluation; the training
        // loop has no move structure to evaluate incrementally.
        counts: EvalCounts {
            full: result.episodes_run,
            incremental: 0,
        },
        training: Some(TrainingTelemetry {
            episodes: result.episodes_run,
            parallel_envs,
            episodes_per_s: result.episodes_run as f64
                / runtime.as_secs_f64().max(f64::MIN_POSITIVE),
        }),
        runtime,
    })
}

/// Simulated annealing — the paper's "TAP-2.5D" baseline, on the same
/// reward. The anneal runs on the reward's propose/commit/reject engine:
/// incremental with the fast thermal backend, full-evaluation fallback
/// otherwise; either way the trajectory is identical under a fixed seed. A
/// warm start replaces the random initial placement.
fn run_sa(
    request: &FloorplanRequest,
    analyzer: AnyThermalAnalyzer,
    config: &SaConfig,
    seed: u64,
    warm: Option<Placement>,
    search: &mut SearchRun<'_>,
) -> Result<EngineRun, PlanError> {
    let reward =
        RewardCalculator::new(request.system().clone(), analyzer, request.reward().clone());
    let mut objective = reward.delta_objective();
    let result = SaPlanner::new(request.system().clone(), config.clone()).run(
        warm,
        &mut objective,
        seed,
        search,
    )?;
    // The engine tracked the best committed breakdown alongside the
    // annealer's best-so-far, so no final re-evaluation is needed.
    let breakdown = objective.best_breakdown().unwrap_or(RewardBreakdown {
        reward: result.best_objective,
        wirelength_mm: f64::NAN,
        max_temperature_c: f64::NAN,
        eval_mode: EvalMode::Full,
    });
    Ok(EngineRun {
        placement: result.best_placement,
        breakdown,
        counts: result.eval_counts,
        // The SA baseline has no rollout pool to report on.
        training: None,
        runtime: search.elapsed(),
    })
}

/// Analytic gradient descent — "Gradient".
fn run_gradient(
    request: &FloorplanRequest,
    analyzer: AnyThermalAnalyzer,
    config: &GradientConfig,
    seed: u64,
    search: &mut SearchRun<'_>,
) -> Result<EngineRun, PlanError> {
    let result = GradientDescent::new(
        request.system().clone(),
        analyzer,
        request.reward().clone(),
        config.clone(),
    )?
    .run(seed, search)
    .map_err(|_| PlanError::Incomplete)?;
    Ok(EngineRun {
        placement: result.best_placement,
        breakdown: result.best_breakdown,
        // Each legalised iterate is evaluated exactly — and from scratch;
        // descent has no move structure to evaluate incrementally.
        counts: EvalCounts {
            full: result.evaluations,
            incremental: 0,
        },
        training: None,
        runtime: search.elapsed(),
    })
}

/// How many seeded sampled rollouts a pretrained solve may fall back to
/// when the greedy rollout dead-ends (see `run_pretrained`).
const PRETRAINED_FALLBACK_ROLLOUTS: usize = 64;

/// A `rlplanner.policy/v1` file, checked, with the environment geometry
/// recorded in its metadata.
struct LoadedPolicy {
    path: String,
    file: Arc<PolicyFile>,
    env: EnvConfig,
}

/// Resolves and checks a pretrained method's policy file: the request's
/// [`crate::PreloadedPolicy`] when its path matches, otherwise a fresh read
/// from disk; then the optional checksum pin and the geometry metadata.
/// Pins `config.checksum` to the checksum that actually runs, whether or
/// not the request pinned one, so the manifest lets a replay require the
/// same file. The checksum and the finite-parameter check are field reads:
/// the file computed both once, when it was parsed.
fn load_policy(
    request: &FloorplanRequest,
    config: &mut PretrainedConfig,
) -> Result<LoadedPolicy, PlanError> {
    let path = &config.policy_path;
    let policy_error = |error| PlanError::Policy {
        path: path.clone(),
        error,
    };
    let file = match request.preloaded_policy() {
        Some(preloaded) if preloaded.path() == path => {
            rlp_obs::obs_counter!("plan.policy_preload_hits").inc();
            preloaded.file().clone()
        }
        _ => Arc::new(PolicyFile::load(path).map_err(policy_error)?),
    };
    let checksum = file.checksum();
    if let Some(expected) = config.checksum {
        if expected != checksum {
            return Err(policy_error(PolicyError::ChecksumMismatch {
                stored: expected,
                computed: checksum,
            }));
        }
    }
    file.check_finite().map_err(policy_error)?;
    let (env, _) = configs_from_policy(&file).map_err(policy_error)?;
    let path = path.clone();
    config.checksum = Some(checksum);
    Ok(LoadedPolicy { path, file, env })
}

/// Inference only — "RLPlanner (pretrained)": rebuilds the network the
/// policy file describes and runs **one greedy (argmax) rollout**. No
/// training episodes, no optimiser allocation, no RND — the "serve
/// forever" half of train once, serve forever.
fn run_pretrained(
    request: &FloorplanRequest,
    analyzer: AnyThermalAnalyzer,
    seed: u64,
    policy: LoadedPolicy,
    search: &mut SearchRun<'_>,
) -> Result<EngineRun, PlanError> {
    let reward =
        RewardCalculator::new(request.system().clone(), analyzer, request.reward().clone());
    let mut env = FloorplanEnv::new(reward, policy.env);
    let mut model = build_actor_critic(
        &env.observation_shape(),
        env.action_count(),
        policy.file.as_ref(),
    )
    .map_err(|error| PlanError::Policy {
        path: policy.path,
        error,
    })?;

    // One greedy rollout: at every step, take the most probable feasible
    // cell. Greedy placement can paint itself into a corner on a system the
    // policy never saw (a later chiplet ends up with no feasible cell), so
    // on failure up to `PRETRAINED_FALLBACK_ROLLOUTS` further rollouts
    // sample from the policy distribution instead — seeded from the
    // request's seed, so the whole solve stays deterministic. The first
    // rollout that produces a finite placement wins; only completed
    // episodes reach the reward pipeline, and `evaluations` counts those.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut full_evals = 0usize;
    for attempt in 0..=PRETRAINED_FALLBACK_ROLLOUTS {
        let mut observation = env.reset();
        loop {
            let mut shape = vec![1];
            shape.extend_from_slice(observation.state.shape());
            let states = observation.state.reshape(shape);
            let (logits, _) = model.evaluate(&states, false);
            let distribution =
                Categorical::from_logits(logits.row(0).data(), Some(&observation.action_mask));
            let action = if attempt == 0 {
                distribution.argmax()
            } else {
                distribution.sample(&mut rng)
            };
            let step = env.step(action);
            if step.done {
                break;
            }
            observation = step
                .observation
                .expect("non-terminal step has an observation");
        }
        if env.placement().is_complete() {
            full_evals += 1;
        }
        if env.last_breakdown().is_some() {
            break;
        }
    }
    let runtime = search.elapsed();
    let breakdown = env.last_breakdown().ok_or(PlanError::Incomplete)?;
    search.record(breakdown.reward);
    Ok(EngineRun {
        placement: env.placement().clone(),
        breakdown,
        // Each completed episode ends in one full reward evaluation; the
        // common case is a single greedy rollout, so 1.
        counts: EvalCounts {
            full: full_evals,
            incremental: 0,
        },
        // Inference collects no training episodes — that is the point.
        training: None,
        runtime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_error_display_and_source() {
        let err = PlanError::Config(ConfigError::NotFinite { field: "x" });
        assert!(err.to_string().contains("x"));
        assert!(err.source().is_some());
        assert!(PlanError::Incomplete.source().is_none());
        let err = PlanError::Policy {
            path: "weights.policy".to_string(),
            error: PolicyError::Truncated,
        };
        assert!(err.to_string().contains("weights.policy"));
        assert!(err.source().is_some());
    }
}
