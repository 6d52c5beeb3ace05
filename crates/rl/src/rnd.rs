//! Random network distillation (RND) exploration bonus.
//!
//! RND keeps two networks: a *target* network that is randomly initialised
//! and never trained, and a *predictor* network trained to reproduce the
//! target's output on states the agent has visited. States the predictor
//! fits poorly are novel, so the prediction error is used as an intrinsic
//! reward that pushes the agent to explore them — the mechanism the paper
//! uses for the "RLPlanner (RND)" variant.

use rlp_nn::layers::{Layer, Linear, ReLU, Sequential};
use rlp_nn::loss::mse;
use rlp_nn::{Adam, Tensor};

/// The RND exploration module.
pub struct RandomNetworkDistillation {
    target: Sequential,
    predictor: Sequential,
    optimizer: Adam,
    input_dim: usize,
    bonus_scale: f64,
    /// Running mean of raw prediction errors, used to normalise the bonus.
    running_error: f64,
    observations_seen: u64,
}

impl RandomNetworkDistillation {
    /// Creates an RND module for flattened observations of `input_dim`
    /// values, with the given hidden width, embedding size and bonus scale.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or the bonus scale is negative.
    pub fn new(
        input_dim: usize,
        hidden_dim: usize,
        embedding_dim: usize,
        bonus_scale: f64,
        seed: u64,
    ) -> Self {
        assert!(
            input_dim > 0 && hidden_dim > 0 && embedding_dim > 0,
            "network dimensions must be positive"
        );
        assert!(bonus_scale >= 0.0, "bonus scale must be non-negative");
        let mut target = Sequential::new();
        target.push(Linear::new(input_dim, hidden_dim, seed.wrapping_add(100)));
        target.push(ReLU::new());
        target.push(Linear::new(
            hidden_dim,
            embedding_dim,
            seed.wrapping_add(101),
        ));

        let mut predictor = Sequential::new();
        predictor.push(Linear::new(input_dim, hidden_dim, seed.wrapping_add(200)));
        predictor.push(ReLU::new());
        predictor.push(Linear::new(
            hidden_dim,
            embedding_dim,
            seed.wrapping_add(201),
        ));

        Self {
            target,
            predictor,
            optimizer: Adam::new(1e-3),
            input_dim,
            bonus_scale,
            running_error: 0.0,
            observations_seen: 0,
        }
    }

    /// Number of input features the module expects after flattening.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn flatten(&self, state: &Tensor) -> Tensor {
        assert_eq!(
            state.len(),
            self.input_dim,
            "state has {} values but RND expects {}",
            state.len(),
            self.input_dim
        );
        state.reshape(vec![1, self.input_dim])
    }

    /// Intrinsic reward for a state: the (normalised) prediction error of the
    /// predictor network against the frozen target network.
    pub fn bonus(&mut self, state: &Tensor) -> f64 {
        let input = self.flatten(state);
        let target_embedding = self.target.forward(&input, false);
        let predicted_embedding = self.predictor.forward(&input, false);
        let error = f64::from(predicted_embedding.sub(&target_embedding).norm_sq())
            / target_embedding.len() as f64;

        self.observations_seen += 1;
        // Exponential running mean keeps the normaliser adaptive.
        let alpha = if self.observations_seen == 1 {
            1.0
        } else {
            0.01
        };
        self.running_error = (1.0 - alpha) * self.running_error + alpha * error;
        let normaliser = self.running_error.max(1e-8);
        self.bonus_scale * error / normaliser
    }

    /// Trains the predictor on a batch of visited states; returns the MSE
    /// against the target embeddings before the update.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or any state has the wrong size.
    pub fn update(&mut self, states: &[&Tensor]) -> f32 {
        assert!(!states.is_empty(), "RND update needs at least one state");
        let rows: Vec<Tensor> = states
            .iter()
            .map(|s| self.flatten(s).reshape(vec![self.input_dim]))
            .collect();
        let batch = Tensor::stack_rows(&rows);
        let target_embeddings = self.target.forward(&batch, false);
        self.predictor.zero_grad();
        let predicted = self.predictor.forward(&batch, true);
        let (loss, grad) = mse(&predicted, &target_embeddings);
        // The states are data, so their gradient is never formed.
        self.predictor.backward_parameters(&grad);
        self.optimizer.step(&mut self.predictor);
        loss
    }
}

impl std::fmt::Debug for RandomNetworkDistillation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RandomNetworkDistillation")
            .field("input_dim", &self.input_dim)
            .field("bonus_scale", &self.bonus_scale)
            .field("observations_seen", &self.observations_seen)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(values: &[f32]) -> Tensor {
        Tensor::from_vec(values.to_vec(), vec![values.len()])
    }

    #[test]
    fn bonus_is_non_negative() {
        let mut rnd = RandomNetworkDistillation::new(4, 16, 8, 1.0, 0);
        let b = rnd.bonus(&state(&[0.1, 0.2, 0.3, 0.4]));
        assert!(b >= 0.0);
    }

    #[test]
    fn repeated_training_reduces_prediction_error_on_seen_states() {
        let mut rnd = RandomNetworkDistillation::new(4, 32, 8, 1.0, 1);
        let seen = state(&[0.5, -0.5, 0.25, 1.0]);
        let refs = [&seen];
        let first_loss = rnd.update(&refs);
        let mut last_loss = first_loss;
        for _ in 0..300 {
            last_loss = rnd.update(&refs);
        }
        assert!(
            last_loss < first_loss * 0.5,
            "loss did not drop: {first_loss} -> {last_loss}"
        );
    }

    #[test]
    fn novel_states_receive_larger_bonus_than_trained_states() {
        let mut rnd = RandomNetworkDistillation::new(4, 32, 8, 1.0, 2);
        let familiar = state(&[0.1, 0.1, 0.1, 0.1]);
        let refs = [&familiar];
        for _ in 0..400 {
            rnd.update(&refs);
        }
        let familiar_bonus = rnd.bonus(&familiar);
        let novel_bonus = rnd.bonus(&state(&[5.0, -3.0, 2.0, -4.0]));
        assert!(
            novel_bonus > familiar_bonus,
            "novel {novel_bonus} <= familiar {familiar_bonus}"
        );
    }

    #[test]
    fn zero_scale_silences_the_bonus() {
        let mut rnd = RandomNetworkDistillation::new(2, 8, 4, 0.0, 3);
        assert_eq!(rnd.bonus(&state(&[1.0, 2.0])), 0.0);
    }

    #[test]
    fn multi_dimensional_states_are_flattened() {
        let mut rnd = RandomNetworkDistillation::new(6, 8, 4, 1.0, 4);
        let grid_state = Tensor::zeros(vec![2, 3]);
        let b = rnd.bonus(&grid_state);
        assert!(b.is_finite());
        assert_eq!(rnd.input_dim(), 6);
    }

    #[test]
    #[should_panic(expected = "RND expects")]
    fn wrong_state_size_panics() {
        let mut rnd = RandomNetworkDistillation::new(4, 8, 4, 1.0, 5);
        rnd.bonus(&state(&[1.0]));
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_update_panics() {
        let mut rnd = RandomNetworkDistillation::new(4, 8, 4, 1.0, 6);
        rnd.update(&[]);
    }
}
