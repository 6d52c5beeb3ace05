//! Proximal policy optimisation with action masking.

use crate::actor_critic::ActorCritic;
use crate::buffer::{RolloutBuffer, Transition};
use crate::env::{Environment, Observation};
use crate::error::{ConfigError, RlError};
use crate::rnd::RandomNetworkDistillation;
use crate::vec_env::{episode_rng, ParallelEpisode, VecEnvPool};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rlp_nn::layers::Layer;
use rlp_nn::optim::clip_grad_norm;
use rlp_nn::{Adam, Categorical, Tensor};

/// Hyper-parameters of the PPO agent.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Discount factor.
    pub gamma: f64,
    /// GAE smoothing factor.
    pub gae_lambda: f64,
    /// Clipping range of the probability ratio.
    pub clip_epsilon: f32,
    /// Weight of the entropy bonus.
    pub entropy_coef: f32,
    /// Weight of the value loss.
    pub value_coef: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Optimisation epochs per update.
    pub epochs: usize,
    /// Minibatch size per gradient step.
    pub minibatch_size: usize,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_epsilon: 0.2,
            entropy_coef: 0.01,
            value_coef: 0.5,
            learning_rate: 3e-4,
            epochs: 4,
            minibatch_size: 64,
            max_grad_norm: 0.5,
        }
    }
}

impl PpoConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err(ConfigError::OutOfRange {
                field: "ppo.gamma",
                min: 0.0,
                max: 1.0,
                value: self.gamma,
            });
        }
        if !(0.0..=1.0).contains(&self.gae_lambda) {
            return Err(ConfigError::OutOfRange {
                field: "ppo.gae_lambda",
                min: 0.0,
                max: 1.0,
                value: self.gae_lambda,
            });
        }
        if self.clip_epsilon <= 0.0 {
            return Err(ConfigError::ExpectedPositive {
                field: "ppo.clip_epsilon",
                value: f64::from(self.clip_epsilon),
            });
        }
        if self.learning_rate <= 0.0 {
            return Err(ConfigError::ExpectedPositive {
                field: "ppo.learning_rate",
                value: f64::from(self.learning_rate),
            });
        }
        if self.epochs == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "ppo.epochs",
                value: 0.0,
            });
        }
        if self.minibatch_size == 0 {
            return Err(ConfigError::ExpectedPositive {
                field: "ppo.minibatch_size",
                value: 0.0,
            });
        }
        if self.max_grad_norm <= 0.0 {
            return Err(ConfigError::ExpectedPositive {
                field: "ppo.max_grad_norm",
                value: f64::from(self.max_grad_norm),
            });
        }
        Ok(())
    }
}

/// The outcome of sampling an action for one observation.
struct ActionSample {
    /// Sampled action index.
    action: usize,
    /// Log-probability of the action under the current policy.
    log_prob: f32,
    /// Value estimate of the observed state.
    value: f32,
}

/// Aggregate statistics of one PPO update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PpoStats {
    /// Mean clipped policy loss.
    pub policy_loss: f32,
    /// Mean value loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Number of gradient steps taken.
    pub gradient_steps: usize,
}

/// One worker-collected episode: (slot, transitions, extrinsic reward,
/// caller artifact).
type CollectedEpisode<T> = (usize, Vec<Transition>, f64, T);

/// A PPO agent wrapping an [`ActorCritic`] model.
pub struct PpoAgent {
    model: ActorCritic,
    optimizer: Adam,
    config: PpoConfig,
    rng: ChaCha8Rng,
}

impl PpoAgent {
    /// Creates an agent.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(model: ActorCritic, config: PpoConfig, seed: u64) -> Self {
        config.validate().expect("invalid PPO configuration");
        let optimizer = Adam::new(config.learning_rate);
        Self {
            model,
            optimizer,
            config,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &PpoConfig {
        &self.config
    }

    /// Immutable access to the underlying model.
    pub fn model(&self) -> &ActorCritic {
        &self.model
    }

    /// Mutable access to the underlying model (e.g. for checkpointing).
    pub fn model_mut(&mut self) -> &mut ActorCritic {
        &mut self.model
    }

    fn batch_of_one(observation: &Observation) -> Tensor {
        let mut shape = vec![1];
        shape.extend_from_slice(observation.state.shape());
        observation.state.reshape(shape)
    }

    /// Samples a masked action for one observation with an explicit model
    /// and rng.
    fn sample_masked(
        model: &mut ActorCritic,
        observation: &Observation,
        rng: &mut ChaCha8Rng,
    ) -> ActionSample {
        let states = Self::batch_of_one(observation);
        let (logits, values) = model.evaluate(&states, false);
        let dist = Categorical::from_logits(logits.row(0).data(), Some(&observation.action_mask));
        let action = dist.sample(rng);
        ActionSample {
            action,
            log_prob: dist.log_prob(action),
            value: values.get(&[0, 0]),
        }
    }

    /// Plays one episode on one environment with a dedicated policy replica
    /// and per-episode rng; the worker body of the parallel collector.
    fn run_episode<E: Environment>(
        model: &mut ActorCritic,
        env: &mut E,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<Transition>, f64) {
        let mut observation = env.reset();
        let mut transitions = Vec::new();
        let mut episode_reward = 0.0;
        loop {
            let sample = Self::sample_masked(model, &observation, rng);
            let step = env.step(sample.action);
            episode_reward += step.reward;
            transitions.push(Transition {
                state: observation.state.clone(),
                action_mask: observation.action_mask.clone(),
                action: sample.action,
                log_prob: sample.log_prob,
                value: sample.value,
                reward: step.reward,
                intrinsic_reward: 0.0,
                done: step.done,
            });
            if step.done {
                break;
            }
            observation = step
                .observation
                .expect("non-terminal step must produce an observation");
        }
        (transitions, episode_reward)
    }

    /// Collects `episodes` episodes across the pool's environments with a
    /// `std::thread::scope` worker per environment, appending all
    /// transitions to `buffer` **in episode order**.
    ///
    /// Episode `pool.episodes_started() + s` runs on environment
    /// `s % pool.env_count()` with its own action-sampling stream
    /// ([`episode_rng`]), and each worker steps a private clone of the
    /// policy network (a single-environment pool skips the threads and
    /// clones entirely and steps the agent's model inline). Consequently
    /// the collected trajectory — transitions, rewards, everything — is
    /// bit-identical for *any* pool size, and deterministic run-for-run
    /// under a fixed run seed (provided the environments are reset-pure;
    /// see [`VecEnvPool`]).
    ///
    /// When an RND module is supplied, intrinsic rewards and predictor
    /// updates are applied in a serial post-pass in episode order: each
    /// episode's bonuses come from the predictor as the earlier episodes
    /// left it, whatever the pool size (action sampling never depends on
    /// the bonuses).
    ///
    /// `artifact` is called on each environment right after it finishes an
    /// episode (from the worker thread), letting callers extract per-episode
    /// results — e.g. the final placement — without owning the environments.
    ///
    /// Returns one [`ParallelEpisode`] per episode, in episode order.
    pub fn collect_episodes_parallel<E, T, F>(
        &mut self,
        pool: &mut VecEnvPool<E>,
        episodes: usize,
        buffer: &mut RolloutBuffer,
        rnd: Option<&mut RandomNetworkDistillation>,
        artifact: F,
    ) -> Vec<ParallelEpisode<T>>
    where
        E: Environment + Send,
        T: Send,
        F: Fn(&E) -> T + Sync,
    {
        if episodes == 0 {
            return Vec::new();
        }
        let workers = pool.env_count().min(episodes);
        let base = pool.episodes_started();
        let run_seed = pool.run_seed();

        // Worker w owns environment w and runs episode slots w, w+workers,
        // w+2*workers, ... — a static round-robin, so the slot→env map is
        // independent of scheduling.
        let per_worker: Vec<Vec<CollectedEpisode<T>>> = if workers == 1 {
            // Single-worker fast path: step the agent's own model inline,
            // skipping the thread spawn and the per-batch policy clone.
            // Identical output to the threaded path — the per-episode
            // streams make the trajectory worker-independent (asserted by
            // the pool-size invariance tests).
            let env = &mut pool.envs_mut()[0];
            let mut collected = Vec::with_capacity(episodes);
            for slot in 0..episodes {
                let mut rng = episode_rng(run_seed, base + slot as u64);
                let (transitions, reward) = Self::run_episode(&mut self.model, env, &mut rng);
                collected.push((slot, transitions, reward, artifact(&*env)));
            }
            vec![collected]
        } else {
            let model = &self.model;
            let artifact = &artifact;
            std::thread::scope(|scope| {
                let handles: Vec<_> = pool
                    .envs_mut()
                    .iter_mut()
                    .take(workers)
                    .enumerate()
                    .map(|(w, env)| {
                        let mut model = model.clone();
                        scope.spawn(move || {
                            let mut collected = Vec::new();
                            let mut slot = w;
                            while slot < episodes {
                                let mut rng = episode_rng(run_seed, base + slot as u64);
                                let (transitions, reward) =
                                    Self::run_episode(&mut model, env, &mut rng);
                                collected.push((slot, transitions, reward, artifact(&*env)));
                                slot += workers;
                            }
                            collected
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("rollout worker panicked"))
                    .collect()
            })
        };

        // Merge back into episode order.
        let mut ordered: Vec<Option<(Vec<Transition>, f64, T)>> =
            (0..episodes).map(|_| None).collect();
        for (slot, transitions, reward, art) in per_worker.into_iter().flatten() {
            ordered[slot] = Some((transitions, reward, art));
        }

        // RND post-pass: bonuses and predictor updates in episode order.
        if let Some(rnd) = rnd {
            for entry in ordered.iter_mut() {
                let (transitions, _, _) = entry.as_mut().expect("every slot was collected");
                if transitions.len() > 1 {
                    let visited: Vec<Tensor> =
                        transitions[1..].iter().map(|t| t.state.clone()).collect();
                    for (j, state) in visited.iter().enumerate() {
                        transitions[j].intrinsic_reward = rnd.bonus(state);
                    }
                    let refs: Vec<&Tensor> = visited.iter().collect();
                    rnd.update(&refs);
                }
            }
        }

        let mut reports = Vec::with_capacity(episodes);
        for (slot, entry) in ordered.into_iter().enumerate() {
            let (transitions, reward, art) = entry.expect("every slot was collected");
            let count = transitions.len();
            for transition in transitions {
                buffer.push(transition);
            }
            reports.push(ParallelEpisode {
                episode: base + slot as u64,
                reward,
                transitions: count,
                artifact: art,
            });
        }
        pool.advance(episodes as u64);
        reports
    }

    /// Runs a PPO update on the collected rollout and clears nothing — the
    /// caller decides when to clear the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptyRollout`] if the buffer is empty.
    pub fn update(&mut self, buffer: &mut RolloutBuffer) -> Result<PpoStats, RlError> {
        if buffer.is_empty() {
            return Err(RlError::EmptyRollout);
        }
        buffer.compute_gae(self.config.gamma, self.config.gae_lambda, 0.0);
        let n = buffer.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut stats = PpoStats::default();
        let mut accumulated_entropy = 0.0f32;
        let mut entropy_samples = 0usize;

        for _ in 0..self.config.epochs {
            indices.shuffle(&mut self.rng);
            for chunk in indices.chunks(self.config.minibatch_size) {
                let states = buffer.stacked_states_for(chunk);
                self.model.zero_grad();
                let (logits, values) = self.model.evaluate(&states, true);
                let batch = chunk.len();
                let actions = self.model.action_count();
                let mut grad_logits = Tensor::zeros(vec![batch, actions]);
                let mut grad_values = Tensor::zeros(vec![batch, 1]);
                let mut policy_loss = 0.0f32;
                let mut value_loss = 0.0f32;

                for (row, &idx) in chunk.iter().enumerate() {
                    let transition = &buffer.transitions()[idx];
                    let advantage = buffer.advantages()[idx];
                    let target_return = buffer.returns()[idx];
                    let dist = Categorical::from_logits(
                        logits.row(row).data(),
                        Some(&transition.action_mask),
                    );
                    let new_log_prob = dist.log_prob(transition.action);
                    let ratio = (new_log_prob - transition.log_prob).exp();
                    let clipped_ratio = ratio.clamp(
                        1.0 - self.config.clip_epsilon,
                        1.0 + self.config.clip_epsilon,
                    );
                    let unclipped = ratio * advantage;
                    let clipped = clipped_ratio * advantage;
                    policy_loss += -unclipped.min(clipped);

                    // Gradient of -min(unclipped, clipped) wrt the new log-prob:
                    // zero when the clipped branch is active.
                    let d_loss_d_logp = if unclipped <= clipped {
                        -ratio * advantage
                    } else {
                        0.0
                    };
                    let logp_grad = dist.log_prob_grad_logits(transition.action);
                    let entropy_grad = dist.entropy_grad_logits();
                    let grad_row = &mut grad_logits.data_mut()[row * actions..][..actions];
                    for ((g, &lp), &eg) in grad_row.iter_mut().zip(&logp_grad).zip(&entropy_grad) {
                        *g = (d_loss_d_logp * lp - self.config.entropy_coef * eg) / batch as f32;
                    }

                    let value = values.data()[row];
                    let v_err = value - target_return;
                    value_loss += v_err * v_err;
                    grad_values.data_mut()[row] =
                        self.config.value_coef * 2.0 * v_err / batch as f32;

                    accumulated_entropy += dist.entropy();
                    entropy_samples += 1;
                }

                self.model.backward_heads(&grad_logits, &grad_values);
                clip_grad_norm(&mut self.model, self.config.max_grad_norm);
                self.optimizer.step(&mut self.model);

                stats.policy_loss += policy_loss / batch as f32;
                stats.value_loss += value_loss / batch as f32;
                stats.gradient_steps += 1;
            }
        }

        if stats.gradient_steps > 0 {
            stats.policy_loss /= stats.gradient_steps as f32;
            stats.value_loss /= stats.gradient_steps as f32;
        }
        if entropy_samples > 0 {
            stats.entropy = accumulated_entropy / entropy_samples as f32;
        }
        Ok(stats)
    }
}

impl std::fmt::Debug for PpoAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PpoAgent")
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::StepResult;
    use rlp_nn::layers::{Linear, ReLU, Sequential};

    /// A one-step bandit: three actions with rewards 0.0, 1.0 and 0.2.
    struct Bandit {
        mask: Vec<bool>,
    }

    impl Bandit {
        fn new() -> Self {
            Self {
                mask: vec![true, true, true],
            }
        }
        fn masked() -> Self {
            Self {
                mask: vec![true, false, true],
            }
        }
    }

    impl Environment for Bandit {
        fn reset(&mut self) -> Observation {
            Observation::new(Tensor::from_vec(vec![1.0, 0.0], vec![2]), self.mask.clone())
        }
        fn step(&mut self, action: usize) -> StepResult {
            assert!(self.mask[action], "agent picked a masked action");
            let reward = match action {
                1 => 1.0,
                2 => 0.2,
                _ => 0.0,
            };
            StepResult {
                observation: None,
                reward,
                done: true,
            }
        }
        fn action_count(&self) -> usize {
            3
        }
        fn observation_shape(&self) -> Vec<usize> {
            vec![2]
        }
    }

    fn bandit_agent(seed: u64) -> PpoAgent {
        let mut encoder = Sequential::new();
        encoder.push(Linear::new(2, 16, seed));
        encoder.push(ReLU::new());
        let model = ActorCritic::new(encoder, 16, 3, seed + 1);
        let config = PpoConfig {
            learning_rate: 0.01,
            epochs: 4,
            minibatch_size: 16,
            entropy_coef: 0.001,
            ..PpoConfig::default()
        };
        PpoAgent::new(model, config, seed)
    }

    /// The most probable feasible action for one observation and its value
    /// estimate.
    fn greedy_action_and_value(agent: &mut PpoAgent, observation: &Observation) -> (usize, f32) {
        let states = PpoAgent::batch_of_one(observation);
        let (logits, values) = agent.model.evaluate(&states, false);
        let mask = Some(observation.action_mask.as_slice());
        let action = Categorical::from_logits(logits.row(0).data(), mask).argmax();
        (action, values.get(&[0, 0]))
    }

    /// Collects `episodes` bandit episodes through a one-environment pool,
    /// the path training runs.
    fn collect(
        agent: &mut PpoAgent,
        pool: &mut VecEnvPool<Bandit>,
        episodes: usize,
    ) -> RolloutBuffer {
        let mut buffer = RolloutBuffer::new();
        agent.collect_episodes_parallel(pool, episodes, &mut buffer, None, |_| ());
        buffer
    }

    #[test]
    fn ppo_learns_the_best_bandit_arm() {
        let mut agent = bandit_agent(3);
        let mut pool = VecEnvPool::new(vec![Bandit::new()], 3).unwrap();
        for _ in 0..40 {
            let mut buffer = collect(&mut agent, &mut pool, 16);
            agent.update(&mut buffer).expect("non-empty rollout");
        }
        let obs = Bandit::new().reset();
        assert_eq!(
            greedy_action_and_value(&mut agent, &obs).0,
            1,
            "agent failed to learn the best arm"
        );
    }

    #[test]
    fn masked_actions_are_never_selected() {
        let mut agent = bandit_agent(5);
        let mut pool = VecEnvPool::new(vec![Bandit::masked()], 5).unwrap();
        // The environment asserts that masked actions are never stepped.
        for _ in 0..10 {
            let mut buffer = collect(&mut agent, &mut pool, 8);
            agent.update(&mut buffer).expect("non-empty rollout");
        }
        let obs = Bandit::masked().reset();
        let (action, _) = greedy_action_and_value(&mut agent, &obs);
        assert_ne!(action, 1);
    }

    #[test]
    fn value_estimate_converges_towards_mean_reward() {
        let mut agent = bandit_agent(9);
        let mut pool = VecEnvPool::new(vec![Bandit::new()], 9).unwrap();
        for _ in 0..50 {
            let mut buffer = collect(&mut agent, &mut pool, 16);
            agent.update(&mut buffer).expect("non-empty rollout");
        }
        let obs = Bandit::new().reset();
        let (_, value) = greedy_action_and_value(&mut agent, &obs);
        // Once the policy prefers arm 1, the value should approach 1.0.
        assert!(value > 0.5, "value {value}");
    }

    #[test]
    fn update_reports_statistics() {
        let mut agent = bandit_agent(1);
        let mut pool = VecEnvPool::new(vec![Bandit::new()], 1).unwrap();
        let mut buffer = collect(&mut agent, &mut pool, 8);
        let stats = agent.update(&mut buffer).expect("non-empty rollout");
        assert!(stats.gradient_steps > 0);
        assert!(stats.entropy > 0.0);
        assert!(stats.value_loss >= 0.0);
    }

    #[test]
    fn collect_episode_accumulates_reward() {
        let mut agent = bandit_agent(2);
        let mut pool = VecEnvPool::new(vec![Bandit::new()], 2).unwrap();
        let mut buffer = RolloutBuffer::new();
        let reports = agent.collect_episodes_parallel(&mut pool, 1, &mut buffer, None, |_| ());
        assert_eq!(buffer.len(), 1);
        assert!((0.0..=1.0).contains(&reports[0].reward));
    }

    #[test]
    fn update_on_an_empty_rollout_is_a_typed_error() {
        let mut agent = bandit_agent(0);
        let err = agent.update(&mut RolloutBuffer::new()).unwrap_err();
        assert_eq!(err, RlError::EmptyRollout);
    }

    /// All trainable scalars of the agent's model, flattened.
    fn policy_parameters(agent: &mut PpoAgent) -> Vec<f32> {
        let mut params = Vec::new();
        agent
            .model_mut()
            .visit_parameters(&mut |p| params.extend_from_slice(p.value.data()));
        params
    }

    /// A chain whose episode length depends on the sampled actions: each
    /// step advances by `action + 1` positions and the episode ends at
    /// position 4. Variable lengths stress the order-stable merge.
    struct Chain {
        pos: usize,
    }

    impl Chain {
        fn new() -> Self {
            Self { pos: 0 }
        }
        fn observe(&self) -> Observation {
            Observation::new(
                Tensor::from_vec(vec![self.pos as f32 / 4.0, 1.0], vec![2]),
                vec![true; 3],
            )
        }
    }

    impl Environment for Chain {
        fn reset(&mut self) -> Observation {
            self.pos = 0;
            self.observe()
        }
        fn step(&mut self, action: usize) -> StepResult {
            self.pos += action + 1;
            if self.pos >= 4 {
                StepResult {
                    observation: None,
                    reward: f64::from(self.pos as u32),
                    done: true,
                }
            } else {
                StepResult {
                    observation: Some(self.observe()),
                    reward: -0.1,
                    done: false,
                }
            }
        }
        fn action_count(&self) -> usize {
            3
        }
        fn observation_shape(&self) -> Vec<usize> {
            vec![2]
        }
    }

    #[test]
    fn parallel_collection_is_pool_size_invariant() {
        let run = |pool_size: usize, with_rnd: bool| {
            let mut agent = bandit_agent(11);
            let mut rnd = with_rnd.then(|| crate::RandomNetworkDistillation::new(2, 8, 4, 0.5, 3));
            let envs: Vec<Chain> = (0..pool_size).map(|_| Chain::new()).collect();
            let mut pool = VecEnvPool::new(envs, 99).unwrap();
            let mut buffer = RolloutBuffer::new();
            let reports =
                agent.collect_episodes_parallel(&mut pool, 8, &mut buffer, rnd.as_mut(), |_| ());
            agent.update(&mut buffer).unwrap();
            let rewards: Vec<f64> = reports.iter().map(|r| r.reward).collect();
            (
                rewards,
                buffer.transitions().to_vec(),
                policy_parameters(&mut agent),
            )
        };
        for rnd in [false, true] {
            let serial = run(1, rnd);
            assert_eq!(serial, run(2, rnd), "pool of 2 diverged (rnd={rnd})");
            assert_eq!(serial, run(4, rnd), "pool of 4 diverged (rnd={rnd})");
        }
        // The chain really produces multi-step episodes (otherwise the RND
        // post-pass would be vacuous).
        let (_, transitions, _) = run(2, true);
        assert!(transitions.len() > 8);
        assert!(transitions.iter().any(|t| t.intrinsic_reward != 0.0));
    }

    #[test]
    fn parallel_reports_are_in_episode_order_with_round_robin_envs() {
        // Three envs split seven episodes round-robin; the reports and the
        // buffer come back in episode order whichever env ran each one.
        let mut agent = bandit_agent(4);
        let envs: Vec<Bandit> = (0..3).map(|_| Bandit::new()).collect();
        let mut pool = VecEnvPool::new(envs, 5).unwrap();
        let mut buffer = RolloutBuffer::new();
        let reports = agent.collect_episodes_parallel(&mut pool, 7, &mut buffer, None, |_| ());
        assert_eq!(reports.len(), 7);
        assert_eq!(buffer.len(), 7);
        for (slot, (report, transition)) in reports.iter().zip(buffer.transitions()).enumerate() {
            assert_eq!(report.episode, slot as u64);
            assert_eq!(report.transitions, 1);
            assert_eq!(report.reward, transition.reward);
        }
        assert_eq!(pool.episodes_started(), 7);
        // A second pass continues the global episode numbering.
        let reports = agent.collect_episodes_parallel(&mut pool, 2, &mut buffer, None, |_| ());
        assert_eq!(reports[0].episode, 7);
        assert_eq!(reports[1].episode, 8);
    }

    #[test]
    fn parallel_collection_extracts_artifacts_from_the_finished_env() {
        let mut agent = bandit_agent(6);
        let mut pool = VecEnvPool::new(vec![Bandit::new(), Bandit::new()], 1).unwrap();
        let mut buffer = RolloutBuffer::new();
        let reports =
            agent.collect_episodes_parallel(&mut pool, 4, &mut buffer, None, |env| env.mask.len());
        assert!(reports.iter().all(|r| r.artifact == 3));
    }

    #[test]
    fn parallel_collection_of_zero_episodes_is_a_no_op() {
        let mut agent = bandit_agent(6);
        let mut pool = VecEnvPool::new(vec![Bandit::new()], 1).unwrap();
        let mut buffer = RolloutBuffer::new();
        let reports: Vec<crate::ParallelEpisode<()>> =
            agent.collect_episodes_parallel(&mut pool, 0, &mut buffer, None, |_| ());
        assert!(reports.is_empty());
        assert!(buffer.is_empty());
        assert_eq!(pool.episodes_started(), 0);
    }

    #[test]
    fn invalid_config_is_rejected_with_a_typed_error() {
        let gamma_err = PpoConfig {
            gamma: 1.5,
            ..PpoConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(
            gamma_err,
            ConfigError::OutOfRange {
                field: "ppo.gamma",
                ..
            }
        ));
        let epochs_err = PpoConfig {
            epochs: 0,
            ..PpoConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(epochs_err.field(), "ppo.epochs");
        assert!(PpoConfig::default().validate().is_ok());
    }
}
