//! The RLPlanner training loop.

use crate::agent::{build_actor_critic, build_rnd, policy_metadata, AgentConfig};
use crate::env::{EnvConfig, FloorplanEnv};
use crate::reward::{RewardBreakdown, RewardCalculator, RewardConfig};
use rlp_chiplet::{ChipletSystem, Placement};
use rlp_nn::{PolicyError, PolicyFile};
use rlp_obs::OnCandidate;
use rlp_rl::{
    ConfigError, Environment, PpoAgent, PpoConfig, RandomNetworkDistillation, RolloutBuffer,
    VecEnvPool,
};
use rlp_thermal::ThermalAnalyzer;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Training-loop configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlPlannerConfig {
    /// Total number of training episodes (the paper trains for 600 epochs on
    /// its benchmarks; examples and tests use far fewer).
    pub episodes: usize,
    /// Episodes collected per PPO update.
    pub episodes_per_update: usize,
    /// Environments stepped concurrently while collecting episodes (1 =
    /// one rollout worker). Parallelism never changes results: every
    /// episode's action stream is keyed by `(seed, episode index)` and
    /// transitions merge in episode order, so any value produces the
    /// bit-identical trajectory — only wall-clock changes.
    pub parallel_envs: usize,
    /// Enables the RND exploration bonus (the "RLPlanner (RND)" variant).
    pub use_rnd: bool,
    /// PPO hyper-parameters.
    pub ppo: PpoConfig,
    /// Agent network hyper-parameters.
    pub agent: AgentConfig,
    /// Environment parameters.
    pub env: EnvConfig,
    /// Random seed for action sampling and minibatch shuffling.
    pub seed: u64,
    /// Optional wall-clock budget; training stops early when exceeded.
    pub time_budget: Option<Duration>,
}

impl Default for RlPlannerConfig {
    fn default() -> Self {
        Self {
            episodes: 600,
            episodes_per_update: 8,
            parallel_envs: 1,
            use_rnd: false,
            ppo: PpoConfig {
                learning_rate: 1e-3,
                minibatch_size: 32,
                ..PpoConfig::default()
            },
            agent: AgentConfig::default(),
            env: EnvConfig::default(),
            seed: 0,
            time_budget: None,
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
        if self.episodes == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "episodes",
                value: 0.0,
            });
        }
        if self.episodes_per_update == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "episodes_per_update",
                value: 0.0,
            });
        }
        if self.parallel_envs == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "parallel_envs",
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
    /// Episode rewards in training order.
    pub reward_history: Vec<f64>,
    /// Number of episodes actually run (may be fewer than configured when a
    /// time budget is set).
    pub episodes_run: usize,
    /// Wall-clock training time.
    pub runtime: Duration,
    /// Environments the rollout pool stepped concurrently.
    pub parallel_envs: usize,
    /// Training throughput: episodes collected per wall-clock second.
    pub episodes_per_s: f64,
    /// FNV-1a hash over the `(episode index, environment index)` merge
    /// sequence — a fingerprint of the order transitions entered the
    /// rollout buffer. Fixed seed + fixed `parallel_envs` always reproduce
    /// the same hash, making merge-order regressions visible in telemetry.
    pub merge_order_hash: u64,
}

impl TrainingResult {
    /// Mean reward over the last `window` episodes (or all of them if
    /// fewer). Returns negative infinity when there is nothing to average
    /// (no episodes or a zero window).
    pub fn recent_mean_reward(&self, window: usize) -> f64 {
        crate::outcome::tail_mean(&self.reward_history, window, |&r| r)
    }
}

/// The RLPlanner: a PPO agent training on a pool of floorplanning
/// environments.
///
/// The pool holds `config.parallel_envs` replicas of the environment, each
/// wrapping a clone of the (typically cache-served) thermal analyzer, so
/// expensive characterisation still happens once upstream — see
/// [`crate::PrebuiltThermal`].
pub struct RlPlanner<A> {
    pool: VecEnvPool<FloorplanEnv<A>>,
    agent: PpoAgent,
    rnd: Option<RandomNetworkDistillation>,
    config: RlPlannerConfig,
}

impl<A: ThermalAnalyzer + Clone + Send> RlPlanner<A> {
    /// Builds a planner for a system with the given thermal backend.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the training or reward configuration is
    /// invalid.
    pub fn new(
        system: ChipletSystem,
        analyzer: A,
        reward_config: RewardConfig,
        config: RlPlannerConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        reward_config.validate()?;
        let reward = RewardCalculator::new(system, analyzer, reward_config);
        let envs: Vec<FloorplanEnv<A>> = (0..config.parallel_envs)
            .map(|_| FloorplanEnv::new(reward.clone(), config.env))
            .collect();
        let observation_shape = envs[0].observation_shape();
        let action_count = envs[0].action_count();
        let pool = VecEnvPool::new(envs, config.seed).expect("parallel_envs validated positive");
        let model = build_actor_critic(&observation_shape, action_count, &config.agent);
        let agent = PpoAgent::new(model, config.ppo.clone(), config.seed);
        let rnd = if config.use_rnd {
            Some(build_rnd(&observation_shape, &config.agent))
        } else {
            None
        };
        Ok(Self {
            pool,
            agent,
            rnd,
            config,
        })
    }

    /// The training configuration.
    pub fn config(&self) -> &RlPlannerConfig {
        &self.config
    }

    /// The first pooled environment (e.g. to inspect the reward
    /// calculator); all pool members are interchangeable replicas.
    pub fn env(&self) -> &FloorplanEnv<A> {
        &self.pool.envs()[0]
    }

    /// Runs the training loop and returns the best floorplan found,
    /// reporting every finished episode to `on_candidate` (see
    /// [`OnCandidate`]) as it happens.
    ///
    /// Episodes are collected through the vectorised rollout engine
    /// ([`rlp_rl::PpoAgent::collect_episodes_parallel`]) over the pool's
    /// `parallel_envs` environments; transitions merge in episode order, so
    /// the trajectory (and everything downstream) is independent of the
    /// parallelism level. The wall-clock budget is checked once per
    /// collection batch.
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
        on_candidate: &mut OnCandidate<'_>,
    ) -> Result<TrainingResult, TrainingStalled> {
        let start = Instant::now();
        let mut reward_history = Vec::with_capacity(self.config.episodes);
        let mut best: Option<(Placement, RewardBreakdown)> = initial;
        let mut best_episode_reward = f64::NEG_INFINITY;
        let mut buffer = RolloutBuffer::new();
        let mut episodes_run = 0usize;
        let mut merge_order_hash = FNV_OFFSET;

        // Handles resolve once per training run; per-env utilisation gets
        // one counter per pool slot so a starved env shows up as a skewed
        // distribution in the metrics snapshot. Recording never touches the
        // agent, the pool or the RNG, so trajectories are identical with
        // metrics on or off.
        let obs = rlp_obs::metrics_enabled().then(|| {
            let registry = rlp_obs::registry();
            let per_env: Vec<_> = (0..self.config.parallel_envs.max(1))
                .map(|env| registry.counter(&format!("rl.env{env}.episodes")))
                .collect();
            (
                registry.counter("rl.episodes"),
                registry.counter("rl.updates"),
                registry.histogram("rl.rollout_collect_ns"),
                registry.histogram("rl.update_ns"),
                per_env,
            )
        });

        while episodes_run < self.config.episodes {
            if let Some(budget) = self.config.time_budget {
                if start.elapsed() > budget {
                    break;
                }
            }
            let batch = (self.config.episodes - episodes_run).min(self.config.episodes_per_update);
            buffer.clear();
            let collect_started = obs.as_ref().map(|_| Instant::now());
            let reports = self.agent.collect_episodes_parallel(
                &mut self.pool,
                batch,
                &mut buffer,
                self.rnd.as_mut(),
                |env| env.last_breakdown().map(|b| (env.placement().clone(), b)),
            );
            if let Some((episodes, _, collect_ns, _, per_env)) = &obs {
                if let Some(at) = collect_started {
                    collect_ns.record_duration(at.elapsed());
                }
                episodes.add(reports.len() as u64);
                for report in &reports {
                    if let Some(counter) = per_env.get(report.env) {
                        counter.inc();
                    }
                }
            }
            for report in reports {
                let index = episodes_run;
                episodes_run += 1;
                merge_order_hash = fnv1a_mix(merge_order_hash, report.episode);
                merge_order_hash = fnv1a_mix(merge_order_hash, report.env as u64);
                reward_history.push(report.reward);
                best_episode_reward = best_episode_reward.max(report.reward);
                on_candidate(index, report.reward, best_episode_reward);
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
            if !buffer.is_empty() {
                let update_started = obs.as_ref().map(|_| Instant::now());
                self.agent
                    .update(&mut buffer)
                    .expect("a collected batch holds at least one transition");
                if let Some((_, updates, _, update_ns, _)) = &obs {
                    updates.inc();
                    if let Some(at) = update_started {
                        update_ns.record_duration(at.elapsed());
                    }
                }
            }
        }

        let runtime = start.elapsed();
        let (best_placement, best_breakdown) = best.ok_or(TrainingStalled)?;
        Ok(TrainingResult {
            best_placement,
            best_breakdown,
            reward_history,
            episodes_run,
            runtime,
            parallel_envs: self.config.parallel_envs,
            episodes_per_s: episodes_run as f64 / runtime.as_secs_f64().max(f64::MIN_POSITIVE),
            merge_order_hash,
        })
    }

    /// Snapshots the agent's current policy/value weights into an in-memory
    /// `rlplanner.policy/v1` file, tagged with the environment and network
    /// geometry (see [`crate::agent::policy_metadata`]) so
    /// [`crate::Method::Pretrained`] can rebuild a matching network later.
    /// `extra` entries (e.g. `trained.*` provenance) are appended after the
    /// geometry keys.
    pub fn export_policy(&mut self, extra: Vec<(String, String)>) -> PolicyFile {
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
    /// different architecture; the agent is untouched on error.
    pub fn import_policy(&mut self, file: &PolicyFile) -> Result<(), PolicyError> {
        self.agent.model_mut().import_policy(file)
    }

    /// Runs one greedy (argmax) episode with the current policy and returns
    /// its breakdown, or `None` if the greedy episode failed to complete a
    /// placement.
    pub fn evaluate_greedy(&mut self) -> Option<RewardBreakdown> {
        let env = &mut self.pool.envs_mut()[0];
        let mut observation = env.reset();
        loop {
            let action = self.agent.greedy_action(&observation);
            let step = env.step(action);
            if step.done {
                return env.last_breakdown();
            }
            observation = step
                .observation
                .expect("non-terminal step has an observation");
        }
    }
}

/// FNV-1a offset basis (64 bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one value into an FNV-1a hash, byte by byte.
fn fnv1a_mix(hash: u64, value: u64) -> u64 {
    let mut hash = hash;
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

impl<A> std::fmt::Debug for RlPlanner<A> {
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

    fn small_system() -> ChipletSystem {
        let mut sys = ChipletSystem::new("t", 36.0, 36.0);
        let a = sys.add_chiplet(Chiplet::new("a", 9.0, 9.0, 30.0));
        let b = sys.add_chiplet(Chiplet::new("b", 7.0, 7.0, 15.0));
        let c = sys.add_chiplet(Chiplet::new("c", 5.0, 5.0, 5.0));
        sys.add_net(Net::new(a, b, 64));
        sys.add_net(Net::new(b, c, 16));
        sys
    }

    fn fast_model(size: f64) -> FastThermalModel {
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
        .unwrap()
    }

    fn train_silently<A: ThermalAnalyzer + Clone + Send>(
        planner: &mut RlPlanner<A>,
    ) -> TrainingResult {
        planner.train(None, &mut |_, _, _| {}).unwrap()
    }

    fn quick_config(episodes: usize, use_rnd: bool) -> RlPlannerConfig {
        RlPlannerConfig {
            episodes,
            episodes_per_update: 4,
            use_rnd,
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
        let mut planner = RlPlanner::new(
            system.clone(),
            fast_model(36.0),
            RewardConfig::default(),
            quick_config(12, false),
        )
        .unwrap();
        let result = train_silently(&mut planner);
        assert_eq!(result.episodes_run, 12);
        assert_eq!(result.reward_history.len(), 12);
        assert!(result.best_placement.is_complete());
        assert!(system
            .validate_placement(&result.best_placement, 0.2)
            .is_ok());
        assert!(result.best_breakdown.reward < 0.0);
        assert!(result.best_breakdown.wirelength_mm > 0.0);
        assert!(result.recent_mean_reward(4).is_finite());
    }

    #[test]
    fn rnd_variant_trains_too() {
        let system = small_system();
        let mut planner = RlPlanner::new(
            system,
            fast_model(36.0),
            RewardConfig::default(),
            quick_config(8, true),
        )
        .unwrap();
        let result = train_silently(&mut planner);
        assert!(result.best_placement.is_complete());
    }

    #[test]
    fn greedy_evaluation_completes_a_placement() {
        let system = small_system();
        let mut planner = RlPlanner::new(
            system,
            fast_model(36.0),
            RewardConfig::default(),
            quick_config(8, false),
        )
        .unwrap();
        train_silently(&mut planner);
        let breakdown = planner.evaluate_greedy();
        assert!(breakdown.is_some());
    }

    #[test]
    fn time_budget_stops_training_early() {
        let system = small_system();
        let mut planner = RlPlanner::new(
            system,
            fast_model(36.0),
            RewardConfig::default(),
            RlPlannerConfig {
                time_budget: Some(Duration::from_millis(1)),
                ..quick_config(1000, false)
            },
        )
        .unwrap();
        let result = train_silently(&mut planner);
        assert!(result.episodes_run < 1000);
    }

    #[test]
    fn parallel_envs_never_change_the_training_result() {
        let train = |parallel_envs: usize, use_rnd: bool| {
            let mut planner = RlPlanner::new(
                small_system(),
                fast_model(36.0),
                RewardConfig::default(),
                RlPlannerConfig {
                    parallel_envs,
                    ..quick_config(8, use_rnd)
                },
            )
            .unwrap();
            let result = train_silently(&mut planner);
            (
                result.best_placement,
                result.best_breakdown,
                result.reward_history,
            )
        };
        for use_rnd in [false, true] {
            let serial = train(1, use_rnd);
            assert_eq!(serial, train(2, use_rnd), "2 envs diverged (rnd={use_rnd})");
            assert_eq!(serial, train(3, use_rnd), "3 envs diverged (rnd={use_rnd})");
        }
    }

    #[test]
    fn training_result_reports_rollout_telemetry() {
        let run = || {
            let mut planner = RlPlanner::new(
                small_system(),
                fast_model(36.0),
                RewardConfig::default(),
                RlPlannerConfig {
                    parallel_envs: 2,
                    ..quick_config(8, false)
                },
            )
            .unwrap();
            train_silently(&mut planner)
        };
        let result = run();
        assert_eq!(result.parallel_envs, 2);
        assert!(result.episodes_per_s > 0.0);
        // The merge-order fingerprint is reproducible run for run.
        assert_eq!(result.merge_order_hash, run().merge_order_hash);
    }

    #[test]
    fn invalid_config_is_rejected_by_the_constructor() {
        assert!(matches!(
            RlPlannerConfig {
                episodes: 0,
                ..RlPlannerConfig::default()
            }
            .validate(),
            Err(ConfigError::ExpectedPositive {
                field: "episodes",
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
                episodes: 0,
                ..quick_config(1, false)
            },
        )
        .unwrap_err();
        assert_eq!(err.field(), "episodes");
    }

    #[test]
    fn on_candidate_sees_every_episode_in_order() {
        let system = small_system();
        let mut planner = RlPlanner::new(
            system,
            fast_model(36.0),
            RewardConfig::default(),
            quick_config(8, false),
        )
        .unwrap();
        let mut episodes = Vec::new();
        let result = planner
            .train(None, &mut |index, reward, best_reward| {
                assert_eq!(index, episodes.len(), "episode indices must be dense");
                episodes.push((reward, best_reward));
            })
            .unwrap();
        assert_eq!(episodes.len(), result.episodes_run);
        // The streamed rewards match the recorded history, and the
        // best-so-far series is monotone non-decreasing.
        for (i, &(reward, _)) in episodes.iter().enumerate() {
            assert_eq!(reward, result.reward_history[i]);
        }
        assert!(episodes.windows(2).all(|w| w[1].1 >= w[0].1));
    }
}
