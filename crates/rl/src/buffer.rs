//! Trajectory storage and generalised advantage estimation.

use rlp_nn::Tensor;

/// One stored transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Observation state (no batch dimension).
    pub state: Tensor,
    /// Feasibility mask at the time of the decision.
    pub action_mask: Vec<bool>,
    /// Action taken.
    pub action: usize,
    /// Log-probability of the action under the behaviour policy.
    pub log_prob: f32,
    /// Value estimate of the state under the behaviour policy.
    pub value: f32,
    /// Extrinsic (environment) reward received after the action.
    pub reward: f64,
    /// Intrinsic (exploration) reward, e.g. from RND; zero when unused.
    pub intrinsic_reward: f64,
    /// Whether the episode terminated after this transition.
    pub done: bool,
}

/// A rollout buffer holding whole trajectories collected with the current
/// policy, plus the advantages/returns computed from them.
#[derive(Debug, Clone, Default)]
pub struct RolloutBuffer {
    transitions: Vec<Transition>,
    advantages: Vec<f32>,
    returns: Vec<f32>,
}

impl RolloutBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a transition.
    pub fn push(&mut self, transition: Transition) {
        self.transitions.push(transition);
        // Any previously computed advantages are now stale.
        self.advantages.clear();
        self.returns.clear();
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` if the buffer holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Clears all stored data.
    pub fn clear(&mut self) {
        self.transitions.clear();
        self.advantages.clear();
        self.returns.clear();
    }

    /// The stored transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Advantages computed by the last [`RolloutBuffer::compute_gae`] call.
    ///
    /// # Panics
    ///
    /// Panics if GAE has not been computed since the last push.
    pub fn advantages(&self) -> &[f32] {
        assert_eq!(
            self.advantages.len(),
            self.transitions.len(),
            "call compute_gae before reading advantages"
        );
        &self.advantages
    }

    /// Returns (discounted reward-to-go targets) from the last GAE pass.
    ///
    /// # Panics
    ///
    /// Panics if GAE has not been computed since the last push.
    pub fn returns(&self) -> &[f32] {
        assert_eq!(
            self.returns.len(),
            self.transitions.len(),
            "call compute_gae before reading returns"
        );
        &self.returns
    }

    /// Computes generalised advantage estimates and return targets.
    ///
    /// `gamma` is the discount factor, `lambda` the GAE smoothing factor and
    /// `last_value` the bootstrap value of the state following the final
    /// stored transition (zero if that transition ended the episode).
    /// Rewards used are `reward + intrinsic_reward`.
    ///
    /// Advantages are normalised to zero mean and unit variance when the
    /// buffer holds more than one transition, the standard PPO practice.
    pub fn compute_gae(&mut self, gamma: f64, lambda: f64, last_value: f32) {
        let n = self.transitions.len();
        self.advantages = vec![0.0; n];
        self.returns = vec![0.0; n];
        if n == 0 {
            return;
        }
        let mut gae = 0.0f64;
        for i in (0..n).rev() {
            let t = &self.transitions[i];
            let next_value = if t.done {
                0.0
            } else if i + 1 < n {
                f64::from(self.transitions[i + 1].value)
            } else {
                f64::from(last_value)
            };
            let not_done = if t.done { 0.0 } else { 1.0 };
            let reward = t.reward + t.intrinsic_reward;
            let delta = reward + gamma * next_value - f64::from(t.value);
            gae = delta + gamma * lambda * not_done * gae;
            self.advantages[i] = gae as f32;
            self.returns[i] = (gae + f64::from(t.value)) as f32;
        }
        if n > 1 {
            let mean: f32 = self.advantages.iter().sum::<f32>() / n as f32;
            let var: f32 = self
                .advantages
                .iter()
                .map(|a| (a - mean) * (a - mean))
                .sum::<f32>()
                / n as f32;
            let std = var.sqrt().max(1e-6);
            for a in &mut self.advantages {
                *a = (*a - mean) / std;
            }
        }
    }

    /// Stacks a subset of states (by index) into a batch tensor.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of range.
    pub fn stacked_states_for(&self, indices: &[usize]) -> Tensor {
        assert!(!indices.is_empty(), "no indices given");
        let state_shape = self.transitions[indices[0]].state.shape().to_vec();
        let per_state: usize = state_shape.iter().product();
        let mut data = Vec::with_capacity(indices.len() * per_state);
        for &i in indices {
            data.extend_from_slice(self.transitions[i].state.data());
        }
        let mut shape = vec![indices.len()];
        shape.extend(state_shape);
        Tensor::from_vec(data, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transition(reward: f64, value: f32, done: bool) -> Transition {
        Transition {
            state: Tensor::from_vec(vec![reward as f32], vec![1]),
            action_mask: vec![true],
            action: 0,
            log_prob: 0.0,
            value,
            reward,
            intrinsic_reward: 0.0,
            done,
        }
    }

    #[test]
    fn push_and_clear() {
        let mut buf = RolloutBuffer::new();
        assert!(buf.is_empty());
        buf.push(transition(1.0, 0.0, true));
        assert_eq!(buf.len(), 1);
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn single_step_episode_advantage_is_reward_minus_value() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(2.0, 0.5, true));
        buf.compute_gae(0.99, 0.95, 0.0);
        // Only one sample, so no normalisation is applied.
        assert!((buf.advantages()[0] - 1.5).abs() < 1e-6);
        assert!((buf.returns()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn gae_matches_hand_computation_for_two_steps() {
        // gamma = 1, lambda = 1 reduces GAE to Monte-Carlo advantage.
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 0.0, false));
        buf.push(transition(2.0, 0.0, true));
        buf.compute_gae(1.0, 1.0, 0.0);
        // Raw advantages would be [3, 2]; returns are [3, 2].
        assert!((buf.returns()[0] - 3.0).abs() < 1e-6);
        assert!((buf.returns()[1] - 2.0).abs() < 1e-6);
        // Advantages are normalised to mean 0.
        let mean: f32 = buf.advantages().iter().sum::<f32>() / 2.0;
        assert!(mean.abs() < 1e-6);
        assert!(buf.advantages()[0] > buf.advantages()[1]);
    }

    #[test]
    fn bootstrap_value_is_used_when_episode_is_truncated() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(0.0, 0.0, false));
        buf.compute_gae(1.0, 1.0, 5.0);
        // delta = 0 + 1*5 - 0 = 5
        assert!((buf.returns()[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn done_flag_stops_bootstrapping() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(0.0, 0.0, true));
        buf.compute_gae(1.0, 1.0, 100.0);
        assert!((buf.returns()[0] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn intrinsic_reward_is_added() {
        let mut buf = RolloutBuffer::new();
        let mut t = transition(1.0, 0.0, true);
        t.intrinsic_reward = 0.5;
        buf.push(t);
        buf.compute_gae(0.99, 0.95, 0.0);
        assert!((buf.returns()[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn stacking_produces_batch_tensor() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 0.0, false));
        buf.push(transition(2.0, 0.0, true));
        let states = buf.stacked_states_for(&[0, 1]);
        assert_eq!(states.shape(), &[2, 1]);
        assert_eq!(states.data(), &[1.0, 2.0]);
        let subset = buf.stacked_states_for(&[1]);
        assert_eq!(subset.data(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "compute_gae before reading")]
    fn reading_advantages_before_gae_panics() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 0.0, true));
        let _ = buf.advantages();
    }

    #[test]
    fn pushing_invalidates_previous_gae() {
        let mut buf = RolloutBuffer::new();
        buf.push(transition(1.0, 0.0, true));
        buf.compute_gae(0.99, 0.95, 0.0);
        buf.push(transition(1.0, 0.0, true));
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| buf.advantages())).is_err()
        );
    }
}
