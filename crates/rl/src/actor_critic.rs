//! The shared-encoder policy/value network.

use rlp_nn::layers::{Layer, Linear, Sequential};
use rlp_nn::policy::{PolicyError, PolicyFile};
use rlp_nn::{Parameter, Tensor};

/// An actor-critic network: a shared feature encoder followed by a policy
/// head (action logits) and a value head (state value), matching the agent
/// architecture described in the paper ("the policy network and the value
/// network share the same feature encoding CNN layers and two separate fully
/// connected layers are used to get the probability matrix and expected
/// reward").
///
/// The struct implements [`Layer`] so the shared [`rlp_nn::Adam`] optimiser
/// can traverse all parameters; the `Layer::forward`/`Layer::backward` pair
/// works on the concatenated `[logits | value]` tensor, while
/// [`ActorCritic::evaluate`] and [`ActorCritic::backward_heads`] offer a
/// typed interface.
#[derive(Clone)]
pub struct ActorCritic {
    encoder: Sequential,
    policy_head: Linear,
    value_head: Linear,
    action_count: usize,
}

impl ActorCritic {
    /// Builds the network from an encoder producing `feature_dim` features.
    ///
    /// # Panics
    ///
    /// Panics if `feature_dim` or `action_count` is zero.
    pub fn new(encoder: Sequential, feature_dim: usize, action_count: usize, seed: u64) -> Self {
        assert!(feature_dim > 0, "feature dimension must be positive");
        assert!(action_count > 0, "action count must be positive");
        Self::from_parts(
            encoder,
            Linear::new(
                feature_dim,
                action_count,
                seed.wrapping_mul(31).wrapping_add(1),
            ),
            Linear::new(feature_dim, 1, seed.wrapping_mul(31).wrapping_add(2)),
        )
    }

    /// Assembles the network from an encoder and ready-made heads: a
    /// policy head with one output per action and a one-output value head,
    /// both reading the encoder's features.
    ///
    /// # Panics
    ///
    /// Panics if the heads disagree on the feature width or the value head
    /// has more than one output.
    pub fn from_parts(encoder: Sequential, policy_head: Linear, value_head: Linear) -> Self {
        assert_eq!(
            policy_head.in_features(),
            value_head.in_features(),
            "both heads must read the same features"
        );
        assert_eq!(
            value_head.out_features(),
            1,
            "the value head has one output"
        );
        Self {
            encoder,
            action_count: policy_head.out_features(),
            policy_head,
            value_head,
        }
    }

    /// Number of discrete actions the policy head produces logits for.
    pub fn action_count(&self) -> usize {
        self.action_count
    }

    /// Runs the network on a batch of states, returning `(logits, values)`
    /// with shapes `[batch, actions]` and `[batch, 1]`.
    pub fn evaluate(&mut self, states: &Tensor, train: bool) -> (Tensor, Tensor) {
        let features = self.encoder.forward(states, train);
        let logits = self.policy_head.forward(&features, train);
        let values = self.value_head.forward(&features, train);
        (logits, values)
    }

    /// Backpropagates separate gradients for the two heads through the
    /// shared encoder. Nothing reads the gradient of the input states, so
    /// the encoder's first layer forms only its parameter gradients
    /// ([`Layer::backward_parameters`]).
    ///
    /// # Panics
    ///
    /// Panics if no `evaluate(..., true)` call preceded this, or the gradient
    /// shapes do not match the heads.
    pub fn backward_heads(&mut self, grad_logits: &Tensor, grad_values: &Tensor) {
        let g1 = self.policy_head.backward(grad_logits);
        let g2 = self.value_head.backward(grad_values);
        let grad_features = g1.add(&g2);
        self.encoder.backward_parameters(&grad_features);
    }

    /// Total number of trainable scalars.
    pub fn parameter_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_parameters(&mut |p| count += p.value.len());
        count
    }

    /// Snapshots every parameter (encoder, then policy head, then value
    /// head — the [`Layer::visit_parameters`] order) into an in-memory
    /// `rlplanner.policy/v1` file with the given metadata.
    pub fn export_policy(&mut self, metadata: Vec<(String, String)>) -> PolicyFile {
        PolicyFile::from_layer(self, metadata)
    }

    /// Copies a policy snapshot's tensors into this network.
    ///
    /// # Errors
    ///
    /// [`PolicyError::TensorCountMismatch`] / [`PolicyError::ShapeMismatch`]
    /// when the snapshot was saved from a different architecture; the
    /// network is untouched on error.
    pub fn import_policy(&mut self, file: &PolicyFile) -> Result<(), PolicyError> {
        file.apply_to(self)
    }
}

impl std::fmt::Debug for ActorCritic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorCritic")
            .field("action_count", &self.action_count)
            .finish()
    }
}

impl Layer for ActorCritic {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (logits, values) = self.evaluate(input, train);
        let batch = logits.shape()[0];
        let mut data = Vec::with_capacity(batch * (self.action_count + 1));
        for b in 0..batch {
            data.extend_from_slice(logits.row(b).data());
            data.push(values.get(&[b, 0]));
        }
        Tensor::from_vec(data, vec![batch, self.action_count + 1])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let batch = grad_output.shape()[0];
        assert_eq!(
            grad_output.shape()[1],
            self.action_count + 1,
            "gradient must cover logits and value"
        );
        let mut grad_logits = Tensor::zeros(vec![batch, self.action_count]);
        let mut grad_values = Tensor::zeros(vec![batch, 1]);
        for ((row, logits), value) in grad_output
            .data()
            .chunks_exact(self.action_count + 1)
            .zip(grad_logits.data_mut().chunks_exact_mut(self.action_count))
            .zip(grad_values.data_mut())
        {
            logits.copy_from_slice(&row[..self.action_count]);
            *value = row[self.action_count];
        }
        self.backward_heads(&grad_logits, &grad_values);
        // The gradient with respect to the raw input is rarely needed for RL;
        // return an empty placeholder of the right batch size.
        Tensor::zeros(vec![batch, 0])
    }

    fn visit_parameters(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.encoder.visit_parameters(f);
        self.policy_head.visit_parameters(f);
        self.value_head.visit_parameters(f);
    }

    fn clone_box(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlp_nn::layers::ReLU;
    use rlp_nn::Adam;

    fn model(features: usize, actions: usize) -> ActorCritic {
        let mut encoder = Sequential::new();
        encoder.push(Linear::new(4, features, 0));
        encoder.push(ReLU::new());
        ActorCritic::new(encoder, features, actions, 7)
    }

    #[test]
    fn evaluate_produces_correct_shapes() {
        let mut m = model(8, 5);
        let states = Tensor::zeros(vec![3, 4]);
        let (logits, values) = m.evaluate(&states, false);
        assert_eq!(logits.shape(), &[3, 5]);
        assert_eq!(values.shape(), &[3, 1]);
        assert_eq!(m.action_count(), 5);
    }

    #[test]
    fn layer_forward_concatenates_heads() {
        let mut m = model(8, 3);
        let out = m.forward(&Tensor::zeros(vec![2, 4]), false);
        assert_eq!(out.shape(), &[2, 4]);
    }

    #[test]
    fn shared_encoder_receives_gradients_from_both_heads() {
        let mut m = model(6, 2);
        let states = Tensor::from_vec(vec![0.5, -0.5, 1.0, 0.0], vec![1, 4]);
        m.evaluate(&states, true);
        // Gradient only on the value head.
        m.zero_grad();
        m.backward_heads(&Tensor::zeros(vec![1, 2]), &Tensor::full(vec![1, 1], 1.0));
        let mut encoder_grad_value_only = 0.0;
        m.encoder
            .visit_parameters(&mut |p| encoder_grad_value_only += p.grad.norm_sq());
        assert!(encoder_grad_value_only > 0.0);

        // Gradient only on the policy head.
        m.evaluate(&states, true);
        m.zero_grad();
        m.backward_heads(&Tensor::full(vec![1, 2], 1.0), &Tensor::zeros(vec![1, 1]));
        let mut encoder_grad_policy_only = 0.0;
        m.encoder
            .visit_parameters(&mut |p| encoder_grad_policy_only += p.grad.norm_sq());
        assert!(encoder_grad_policy_only > 0.0);
    }

    #[test]
    fn adam_can_optimise_the_whole_model() {
        let mut m = model(8, 2);
        let mut adam = Adam::new(0.01);
        let states = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], vec![1, 4]);
        // Push the value estimate towards 3.0.
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            m.zero_grad();
            let (_, values) = m.evaluate(&states, true);
            let err = values.get(&[0, 0]) - 3.0;
            last = err * err;
            m.backward_heads(
                &Tensor::zeros(vec![1, 2]),
                &Tensor::from_vec(vec![2.0 * err], vec![1, 1]),
            );
            adam.step(&mut m);
        }
        assert!(last < 1e-3, "value regression failed: {last}");
    }

    #[test]
    fn parameter_count_includes_heads() {
        let mut m = model(8, 5);
        // encoder: 4*8+8, policy: 8*5+5, value: 8*1+1
        assert_eq!(m.parameter_count(), (4 * 8 + 8) + (8 * 5 + 5) + (8 + 1));
    }

    #[test]
    #[should_panic(expected = "action count must be positive")]
    fn zero_actions_is_rejected() {
        ActorCritic::new(Sequential::new(), 4, 0, 0);
    }

    #[test]
    fn save_load_round_trips_the_exact_weights() {
        let path = std::env::temp_dir().join(format!(
            "rlp_rl_actor_critic_test_{}.policy",
            std::process::id()
        ));
        let mut trained = model(8, 5);
        let saved = trained.export_policy(vec![("schema".into(), rlp_nn::POLICY_SCHEMA.into())]);
        saved.save(&path).unwrap();
        // A differently-seeded network of the same architecture converges
        // to the trained weights exactly after loading.
        let mut encoder = Sequential::new();
        encoder.push(Linear::new(4, 8, 77));
        encoder.push(ReLU::new());
        let mut fresh = ActorCritic::new(encoder, 8, 5, 78);
        let loaded = PolicyFile::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        fresh.import_policy(&loaded).unwrap();
        assert_eq!(loaded, saved);
        let states = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.1], vec![1, 4]);
        let (logits_a, values_a) = trained.evaluate(&states, false);
        let (logits_b, values_b) = fresh.evaluate(&states, false);
        assert_eq!(logits_a, logits_b);
        assert_eq!(values_a, values_b);
    }

    #[test]
    fn load_from_a_mismatched_architecture_is_a_typed_error() {
        let mut wide = model(8, 5);
        let snapshot = wide.export_policy(Vec::new());
        let mut narrow = model(8, 3);
        assert!(matches!(
            narrow.import_policy(&snapshot).unwrap_err(),
            PolicyError::ShapeMismatch { .. }
        ));
    }
}
