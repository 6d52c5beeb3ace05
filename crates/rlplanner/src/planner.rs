//! The RLPlanner training loop.

use crate::agent::{build_actor_critic, build_rnd, policy_metadata, AgentConfig};
use crate::env::{EnvConfig, FloorplanEnv};
use crate::reward::{RewardBreakdown, RewardCalculator, RewardConfig};
use rlp_chiplet::{ChipletSystem, Placement};
use rlp_nn::{PolicyError, PolicyFile};
use rlp_obs::{obs_counter, obs_histogram, Stopwatch};
use rlp_rl::{
    ConfigError, Environment, PpoAgent, PpoConfig, RandomNetworkDistillation, RolloutBuffer,
    VecEnvPool,
};
use rlp_sa::SearchRun;
use rlp_thermal::AnyThermalAnalyzer;

/// Training-loop configuration. How many episodes a run trains for is not
/// part of it: [`RlPlanner::train`] trains until the [`SearchRun`] it is
/// given is exhausted.
#[derive(Debug, Clone, PartialEq)]
pub struct RlPlannerConfig {
    /// Episodes collected per PPO update.
    pub episodes_per_update: usize,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Agent network hyper-parameters.
    pub agent: AgentConfig,
    /// Environment parameters.
    pub env: EnvConfig,
}

impl Default for RlPlannerConfig {
    fn default() -> Self {
        Self {
            episodes_per_update: 8,
            ppo: PpoConfig {
                learning_rate: 1e-3,
                minibatch_size: 32,
                ..PpoConfig::default()
            },
            agent: AgentConfig::default(),
            env: EnvConfig::default(),
        }
    }
}

impl RlPlannerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.episodes_per_update == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "episodes_per_update",
                value: 0.0,
            });
        }
        if self.env.grid.0 == 0 || self.env.grid.1 == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "env.grid",
                value: 0.0,
            });
        }
        let spacing = self.env.min_spacing_mm;
        if !(spacing >= 0.0 && spacing.is_finite()) {
            return Err(ConfigError::ExpectedNonNegative {
                field: "env.min_spacing_mm",
                value: spacing,
            });
        }
        self.ppo.validate()
    }
}

/// Error returned when a training run finishes without ever completing a
/// placement, which means the grid is too coarse for the system — enlarge
/// the grid or the interposer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingStalled;

impl std::fmt::Display for TrainingStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training never produced a complete placement; increase the grid resolution"
        )
    }
}

impl std::error::Error for TrainingStalled {}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainingResult {
    /// Best complete placement encountered during training.
    pub best_placement: Placement,
    /// Reward breakdown of the best placement.
    pub best_breakdown: RewardBreakdown,
    /// Number of episodes actually run (may be fewer than the evaluation
    /// cap when a time limit is set).
    pub episodes_run: usize,
}

/// The RLPlanner: a PPO agent training on a pool of floorplanning
/// environments.
///
/// The pool holds `parallel_envs` replicas of the environment, each
/// wrapping a clone of the (typically cache-served) thermal analyzer, so
/// expensive characterisation still happens once upstream — see
/// [`crate::PrebuiltThermal`].
///
/// A batch's PPO update is deferred until something reads the weights it
/// writes: the next collection batch, [`RlPlanner::export_policy`] or
/// [`RlPlanner::import_policy`]. Training's last update therefore runs
/// only when the policy is exported or training resumes, never when the
/// planner is dropped; the weights, optimiser state and sampling streams
/// anything observes are the same as with an eager update.
pub struct RlPlanner {
    pool: VecEnvPool<FloorplanEnv>,
    agent: PpoAgent,
    rnd: Option<RandomNetworkDistillation>,
    config: RlPlannerConfig,
    /// The last batch's transitions while its update is pending; empty
    /// otherwise.
    pending: RolloutBuffer,
}

impl RlPlanner {
    /// Builds a planner for a system with the given thermal backend. `seed`
    /// seeds action sampling and minibatch shuffling; `rnd` adds the RND
    /// exploration bonus (the "RLPlanner (RND)" variant). `parallel_envs`
    /// environments collect episodes concurrently; the value changes only
    /// wall-clock, never the trajectory (see [`RlPlanner::train`]).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the training or reward configuration is
    /// invalid or `parallel_envs` is zero.
    pub fn new(
        system: ChipletSystem,
        analyzer: AnyThermalAnalyzer,
        reward_config: RewardConfig,
        config: RlPlannerConfig,
        seed: u64,
        rnd: bool,
        parallel_envs: usize,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        reward_config.validate()?;
        let reward = RewardCalculator::new(system, analyzer, reward_config);
        let envs: Vec<FloorplanEnv> = (0..parallel_envs)
            .map(|_| FloorplanEnv::new(reward.clone(), config.env))
            .collect();
        let pool = VecEnvPool::new(envs, seed).map_err(|_| ConfigError::ExpectedPositive {
            field: "parallel_envs",
            value: 0.0,
        })?;
        let observation_shape = pool.envs()[0].observation_shape();
        let action_count = pool.envs()[0].action_count();
        let model = build_actor_critic(&observation_shape, action_count, &config.agent);
        let agent = PpoAgent::new(model, config.ppo.clone(), seed);
        let rnd = rnd.then(|| build_rnd(&observation_shape, &config.agent));
        Ok(Self {
            pool,
            agent,
            rnd,
            config,
            pending: RolloutBuffer::new(),
        })
    }

    /// Runs the training loop until `search` is exhausted and returns the
    /// best floorplan found, recording every finished episode in `search`
    /// as it happens. `search` must be bounded: [`crate::search_run`] caps
    /// an RL run at [`crate::DEFAULT_RL_EPISODES`] when its request sets no
    /// evaluation budget.
    ///
    /// Episodes are collected through the vectorised rollout engine
    /// ([`rlp_rl::PpoAgent::collect_episodes_parallel`]) over the pool's
    /// `parallel_envs` environments; transitions merge in episode order, so
    /// the trajectory (and everything downstream) is independent of the
    /// parallelism level. A batch is at most `episodes_per_update` episodes,
    /// fewer when the evaluation cap leaves fewer. The time limit is checked
    /// once per collection batch, before the previous batch's pending update
    /// is paid for; the last batch's update is left pending (see
    /// [`RlPlanner`]).
    ///
    /// `initial` is an optional warm start (see
    /// [`crate::FloorplanRequestBuilder::warm_start`]): it seeds the
    /// best-artifact tracker, so it only sets the bar an episode must clear
    /// to become the new best. The result is never worse than the seed;
    /// episode collection, the callback stream and the trained policy are
    /// byte-identical to a cold run.
    ///
    /// # Errors
    ///
    /// Returns [`TrainingStalled`] if training never produces a complete
    /// placement and no warm start was supplied.
    pub fn train(
        &mut self,
        initial: Option<(Placement, RewardBreakdown)>,
        search: &mut SearchRun<'_>,
    ) -> Result<TrainingResult, TrainingStalled> {
        // Episode rewards are the candidate stream; the best artifact is kept
        // apart from it, because a warm start seeds the artifact but not the
        // stream and an incomplete episode has a reward but no artifact.
        let mut best: Option<(Placement, RewardBreakdown)> = initial;

        while !search.exhausted() {
            self.run_pending_update();
            let batch = search.capped(self.config.episodes_per_update);
            // Recording never touches the agent, the pool or the RNG, so
            // trajectories are identical with metrics on or off.
            let timer = Stopwatch::start();
            let reports = self.agent.collect_episodes_parallel(
                &mut self.pool,
                batch,
                &mut self.pending,
                self.rnd.as_mut(),
                |env| env.last_breakdown().map(|b| (env.placement().clone(), b)),
            );
            timer.stop(obs_histogram!("rl.rollout_collect_ns"));
            obs_counter!("rl.episodes").add(reports.len() as u64);
            for report in reports {
                search.record(report.reward);
                if let Some((placement, breakdown)) = report.artifact {
                    let is_better = best
                        .as_ref()
                        .map(|(_, b)| breakdown.reward > b.reward)
                        .unwrap_or(true);
                    if is_better {
                        best = Some((placement, breakdown));
                    }
                }
            }
        }

        let (best_placement, best_breakdown) = best.ok_or(TrainingStalled)?;
        Ok(TrainingResult {
            best_placement,
            best_breakdown,
            episodes_run: search.evaluations(),
        })
    }

    /// Runs the PPO update of the last collected batch, if it has not run
    /// yet.
    fn run_pending_update(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let timer = Stopwatch::start();
        self.agent
            .update(&mut self.pending)
            .expect("a pending batch holds at least one transition");
        obs_counter!("rl.updates").inc();
        timer.stop(obs_histogram!("rl.update_ns"));
        self.pending.clear();
    }

    /// Snapshots the agent's current policy/value weights into an in-memory
    /// `rlplanner.policy/v1` file, tagged with the environment and network
    /// geometry (see [`crate::agent::policy_metadata`]) so
    /// [`crate::Method::Pretrained`] can rebuild a matching network later.
    /// `extra` entries (e.g. `trained.*` provenance) are appended after the
    /// geometry keys. A pending update runs first, so the snapshot holds
    /// the weights after the last batch's update.
    pub fn export_policy(&mut self, extra: Vec<(String, String)>) -> PolicyFile {
        self.run_pending_update();
        let mut metadata = policy_metadata(&self.config.env, &self.config.agent);
        metadata.extend(extra);
        self.agent.model_mut().export_policy(metadata)
    }

    /// Loads a policy snapshot into the agent — the generalist-training
    /// path, where one policy's weights carry across planners built for
    /// different systems (the fixed grid keeps the network shapes equal).
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] when the snapshot was saved from a
    /// different architecture; the weights are left as training left them
    /// on error. A pending update runs first either way, since the
    /// optimiser state it moves outlives the import.
    pub fn import_policy(&mut self, file: &PolicyFile) -> Result<(), PolicyError> {
        self.run_pending_update();
        self.agent.model_mut().import_policy(file)
    }
}

impl std::fmt::Debug for RlPlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RlPlanner")
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_chiplet::{Chiplet, Net};
    use rlp_thermal::{CharacterizationOptions, FastThermalModel, ThermalConfig};
    use std::time::Duration;

    fn small_system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 36.0, 36.0);
        let a = sys.add_chiplet(Chiplet::new("a", 9.0, 9.0, 30.0));
        let b = sys.add_chiplet(Chiplet::new("b", 7.0, 7.0, 15.0));
        let c = sys.add_chiplet(Chiplet::new("c", 5.0, 5.0, 5.0));
        sys.add_net(Net::new(a, b, 64));
        sys.add_net(Net::new(b, c, 16));
        sys
    }

    fn fast_model(size: f64) -> AnyThermalAnalyzer {
        AnyThermalAnalyzer::Fast(
            FastThermalModel::characterize(
                &ThermalConfig::with_grid(12, 12),
                size,
                size,
                &CharacterizationOptions {
                    footprint_samples_mm: vec![4.0, 8.0, 12.0],
                    distance_bins: 16,
                    ..CharacterizationOptions::default()
                },
            )
            .unwrap(),
        )
    }

    /// Builds a planner for the small system on seed 0 with
    /// `parallel_envs` rollout environments.
    fn planner_with_envs(config: RlPlannerConfig, rnd: bool, parallel_envs: usize) -> RlPlanner {
        RlPlanner::new(
            small_system(),
            fast_model(36.0),
            RewardConfig::default(),
            config,
            0,
            rnd,
            parallel_envs,
        )
        .unwrap()
    }

    /// Builds a planner for the small system on seed 0 with one rollout
    /// environment.
    fn planner(config: RlPlannerConfig, rnd: bool) -> RlPlanner {
        planner_with_envs(config, rnd, 1)
    }

    /// Trains for `episodes` episodes, silently.
    fn train_silently(planner: &mut RlPlanner, episodes: usize) -> TrainingResult {
        let mut silent = |_, _, _| {};
        let mut search = SearchRun::new(Some(episodes), None, &mut silent);
        planner.train(None, &mut search).unwrap()
    }

    /// Trains for `episodes` episodes and returns the result with the
    /// streamed episode rewards.
    fn train_recording(planner: &mut RlPlanner, episodes: usize) -> (TrainingResult, Vec<f64>) {
        let mut rewards = Vec::new();
        let mut on_candidate = |_, reward, _| rewards.push(reward);
        let mut search = SearchRun::new(Some(episodes), None, &mut on_candidate);
        let result = planner.train(None, &mut search).unwrap();
        (result, rewards)
    }

    fn quick_config() -> RlPlannerConfig {
        RlPlannerConfig {
            episodes_per_update: 4,
            env: EnvConfig {
                grid: (12, 12),
                min_spacing_mm: 0.2,
            },
            agent: AgentConfig {
                conv_channels: (4, 8),
                feature_dim: 32,
                rnd_hidden_dim: 32,
                rnd_embedding_dim: 8,
                ..AgentConfig::default()
            },
            ..RlPlannerConfig::default()
        }
    }

    #[test]
    fn training_produces_a_legal_best_placement() {
        let system = small_system();
        let (result, rewards) = train_recording(&mut planner(quick_config(), false), 12);
        assert_eq!(result.episodes_run, 12);
        assert_eq!(rewards.len(), 12);
        assert!(rewards.iter().all(|reward| reward.is_finite()));
        assert!(result.best_placement.is_complete());
        assert!(system
            .validate_placement(&result.best_placement, 0.2)
            .is_ok());
        assert!(result.best_breakdown.reward < 0.0);
        assert!(result.best_breakdown.wirelength_mm > 0.0);
    }

    #[test]
    fn rnd_variant_trains_too() {
        let result = train_silently(&mut planner(quick_config(), true), 8);
        assert!(result.best_placement.is_complete());
    }

    #[test]
    fn the_time_limit_stops_training_early() {
        let mut planner = planner(quick_config(), false);
        let mut silent = |_, _, _| {};
        let mut search = SearchRun::new(Some(1000), Some(Duration::from_millis(1)), &mut silent);
        let result = planner.train(None, &mut search).unwrap();
        assert!(result.episodes_run < 1000);
    }

    #[test]
    fn parallel_envs_never_change_the_training_result() {
        // The placement, its breakdown, the streamed episode rewards and
        // the trained weights are the whole of what training produces.
        let train = |parallel_envs: usize, rnd: bool| {
            let mut planner = planner_with_envs(quick_config(), rnd, parallel_envs);
            let (result, rewards) = train_recording(&mut planner, 8);
            let checksum = planner.export_policy(Vec::new()).checksum();
            (
                result.best_placement,
                result.best_breakdown,
                result.episodes_run,
                rewards,
                checksum,
            )
        };
        for rnd in [false, true] {
            let serial = train(1, rnd);
            assert_eq!(serial, train(2, rnd), "2 envs diverged (rnd={rnd})");
            assert_eq!(serial, train(3, rnd), "3 envs diverged (rnd={rnd})");
        }
    }

    #[test]
    fn a_pending_update_runs_before_training_resumes() {
        // An export runs the pending update at once. Resumed training must
        // run it before its first batch collects, or the second run's
        // episodes and final weights would differ.
        let run = |export_between: bool| {
            let mut planner = planner(quick_config(), true);
            train_silently(&mut planner, 8);
            if export_between {
                planner.export_policy(Vec::new());
            }
            let (_, rewards) = train_recording(&mut planner, 8);
            (rewards, planner.export_policy(Vec::new()).checksum())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn invalid_config_is_rejected_by_the_constructor() {
        assert!(matches!(
            RlPlannerConfig {
                episodes_per_update: 0,
                ..RlPlannerConfig::default()
            }
            .validate(),
            Err(ConfigError::ExpectedPositive {
                field: "episodes_per_update",
                ..
            })
        ));
        assert!(RlPlannerConfig::default().validate().is_ok());
        // A zero-sided grid used to pass validation and panic at solve
        // time; a NaN spacing used to surface as a stalled training run.
        for grid in [(0, 16), (16, 0)] {
            let config = RlPlannerConfig {
                env: EnvConfig {
                    grid,
                    ..EnvConfig::default()
                },
                ..RlPlannerConfig::default()
            };
            assert_eq!(
                config.validate(),
                Err(ConfigError::ExpectedPositive {
                    field: "env.grid",
                    value: 0.0
                })
            );
        }
        for spacing in [f64::NAN, f64::INFINITY, -0.1] {
            let config = RlPlannerConfig {
                env: EnvConfig {
                    min_spacing_mm: spacing,
                    ..EnvConfig::default()
                },
                ..RlPlannerConfig::default()
            };
            let err = config.validate().unwrap_err();
            assert_eq!(err.field(), "env.min_spacing_mm", "{spacing}");
        }
        // The constructor surfaces the same error instead of panicking.
        let err = RlPlanner::new(
            small_system(),
            fast_model(36.0),
            RewardConfig::default(),
            RlPlannerConfig {
                episodes_per_update: 0,
                ..quick_config()
            },
            0,
            false,
            1,
        )
        .unwrap_err();
        assert_eq!(err.field(), "episodes_per_update");
        // An empty rollout pool is refused the same way.
        let err = RlPlanner::new(
            small_system(),
            fast_model(36.0),
            RewardConfig::default(),
            quick_config(),
            0,
            false,
            0,
        )
        .unwrap_err();
        assert_eq!(err.field(), "parallel_envs");
    }

    #[test]
    fn on_candidate_sees_every_episode_in_order() {
        let mut episodes = Vec::new();
        let mut on_candidate = |index, reward, best_reward| {
            assert_eq!(index, episodes.len(), "episode indices must be dense");
            episodes.push((reward, best_reward));
        };
        let mut search = SearchRun::new(Some(8), None, &mut on_candidate);
        let result = planner(quick_config(), false)
            .train(None, &mut search)
            .unwrap();
        assert_eq!(episodes.len(), result.episodes_run);
        // The best-so-far series is the running maximum of the streamed
        // rewards.
        let mut best = f64::NEG_INFINITY;
        for &(reward, best_reward) in &episodes {
            best = best.max(reward);
            assert_eq!(best_reward, best);
        }
    }
}
