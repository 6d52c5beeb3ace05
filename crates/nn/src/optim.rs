//! Optimisers.

use crate::layers::Layer;
use crate::tensor::Tensor;

/// The Adam optimiser (Kingma & Ba), used to train both the PPO networks and
/// the RND predictor.
///
/// Per-parameter state is keyed by the deterministic traversal order of
/// [`Layer::visit_parameters`], so one `Adam` instance must always be used
/// with the same network structure.
///
/// # Examples
///
/// ```
/// use rlp_nn::{layers::{Linear, Sequential}, loss::mse, Adam, Layer, Tensor};
///
/// let mut net = Sequential::new();
/// net.push(Linear::new(1, 1, 0));
/// let mut adam = Adam::new(0.05);
/// let x = Tensor::from_vec(vec![1.0], vec![1, 1]);
/// let target = Tensor::from_vec(vec![3.0], vec![1, 1]);
/// let mut last = f32::INFINITY;
/// for _ in 0..200 {
///     net.zero_grad();
///     let y = net.forward(&x, true);
///     let (loss, grad) = mse(&y, &target);
///     net.backward(&grad);
///     adam.step(&mut net);
///     last = loss;
/// }
/// assert!(last < 1e-3);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step_count: u64,
    first_moments: Vec<Tensor>,
    second_moments: Vec<Tensor>,
}

impl Adam {
    /// Creates an optimiser with the given learning rate and the standard
    /// Adam defaults (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not strictly positive.
    pub fn new(learning_rate: f32) -> Self {
        Self::with_betas(learning_rate, 0.9, 0.999, 1e-8)
    }

    /// Creates an optimiser with explicit moment decay rates.
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not positive or the betas are outside `[0, 1)`.
    pub fn with_betas(learning_rate: f32, beta1: f32, beta2: f32, epsilon: f32) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        Self {
            learning_rate,
            beta1,
            beta2,
            epsilon,
            step_count: 0,
            first_moments: Vec::new(),
            second_moments: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Changes the learning rate (e.g. for a decay schedule).
    ///
    /// # Panics
    ///
    /// Panics if the learning rate is not strictly positive.
    pub fn set_learning_rate(&mut self, learning_rate: f32) {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        self.learning_rate = learning_rate;
    }

    /// Number of optimisation steps performed so far.
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Zeroes the gradients of every parameter of the network.
    pub fn zero_grad(&mut self, network: &mut dyn Layer) {
        network.zero_grad();
    }

    /// Applies one Adam update using the gradients currently stored in the
    /// network's parameters.
    pub fn step(&mut self, network: &mut dyn Layer) {
        self.step_count += 1;
        rlp_obs::obs_counter!("nn.optim.steps").inc();
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.learning_rate, self.beta1, self.beta2, self.epsilon);
        let (first, second) = (&mut self.first_moments, &mut self.second_moments);
        let mut index = 0usize;
        network.visit_parameters(&mut |param| {
            if first.len() <= index {
                first.push(Tensor::zeros(param.value.shape().to_vec()));
                second.push(Tensor::zeros(param.value.shape().to_vec()));
            }
            let m = &mut first[index];
            let v = &mut second[index];
            assert_eq!(
                m.shape(),
                param.value.shape(),
                "optimiser state shape mismatch: was this Adam instance used with a different network?"
            );
            // Element-wise with no cross-element sums, so the compiler may
            // run it in vector lanes without moving a bit.
            let moments = m.data_mut().iter_mut().zip(v.data_mut());
            for ((w, &g), (m, v)) in param
                .value
                .data_mut()
                .iter_mut()
                .zip(param.grad.data())
                .zip(moments)
            {
                let m_i = b1 * *m + (1.0 - b1) * g;
                let v_i = b2 * *v + (1.0 - b2) * g * g;
                *m = m_i;
                *v = v_i;
                let m_hat = m_i / bias1;
                let v_hat = v_i / bias2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            index += 1;
        });
    }
}

/// Clips the global gradient norm of a network to `max_norm`, returning the
/// norm before clipping. A standard PPO stabilisation step.
///
/// # Panics
///
/// Panics if `max_norm` is not strictly positive.
pub fn clip_grad_norm(network: &mut dyn Layer, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let mut total_sq = 0.0f32;
    network.visit_parameters(&mut |p| total_sq += p.grad.norm_sq());
    let norm = total_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        network.visit_parameters(&mut |p| {
            for g in p.grad.data_mut() {
                *g *= scale;
            }
        });
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testing::{bits, values};
    use crate::layers::{Linear, ReLU, Sequential};
    use crate::loss::mse;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The indexed update loop the zipped one replaced: the oracle for its
    /// per-element arithmetic. `t` is the 1-based step count.
    fn reference_step(
        w: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        t: f32,
        (lr, b1, b2, eps): (f32, f32, f32, f32),
    ) {
        let bias1 = 1.0 - b1.powf(t);
        let bias2 = 1.0 - b2.powf(t);
        for i in 0..w.len() {
            let m_i = b1 * m[i] + (1.0 - b1) * g[i];
            let v_i = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
            m[i] = m_i;
            v[i] = v_i;
            let m_hat = m_i / bias1;
            let v_hat = v_i / bias2;
            w[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        /// Over several steps with zero-heavy gradients, `Adam::step`
        /// updates every parameter bit for bit as the indexed loop does.
        #[test]
        fn step_matches_the_indexed_loop_bit_for_bit(
            n_in in 1usize..20,
            n_out in 1usize..20,
            zeros in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut layer = Linear::new(n_in, n_out, seed);
            let mut adam = Adam::new(1e-2);
            let mut oracle = Vec::new();
            layer.visit_parameters(&mut |p| {
                let len = p.value.len();
                oracle.push((p.value.data().to_vec(), vec![0.0f32; len], vec![0.0f32; len]));
            });
            for step in 1..=4 {
                let mut index = 0;
                layer.visit_parameters(&mut |p| {
                    let g = values(&mut rng, p.grad.len(), zeros);
                    p.grad.data_mut().copy_from_slice(&g);
                    let (w, m, v) = &mut oracle[index];
                    reference_step(w, &g, m, v, step as f32, (1e-2, 0.9, 0.999, 1e-8));
                    index += 1;
                });
                adam.step(&mut layer);
                let mut index = 0;
                let mut ok = true;
                layer.visit_parameters(&mut |p| {
                    let w = Tensor::from_vec(oracle[index].0.clone(), p.value.shape().to_vec());
                    ok &= bits(&p.value) == bits(&w);
                    index += 1;
                });
                prop_assert!(ok, "step {} moved a bit", step);
            }
        }
    }

    #[test]
    fn adam_minimises_a_simple_regression() {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 8, 0));
        net.push(ReLU::new());
        net.push(Linear::new(8, 1, 1));
        let mut adam = Adam::new(0.02);

        // Learn y = x0 + 2*x1 on a fixed small dataset.
        let xs = Tensor::from_vec(
            vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5],
            vec![5, 2],
        );
        let ys = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 1.5], vec![5, 1]);
        let mut final_loss = f32::INFINITY;
        for _ in 0..500 {
            net.zero_grad();
            let pred = net.forward(&xs, true);
            let (loss, grad) = mse(&pred, &ys);
            net.backward(&grad);
            adam.step(&mut net);
            final_loss = loss;
        }
        assert!(final_loss < 1e-2, "final loss {final_loss}");
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn learning_rate_can_be_adjusted() {
        let mut adam = Adam::new(0.1);
        assert_eq!(adam.learning_rate(), 0.1);
        adam.set_learning_rate(0.01);
        assert_eq!(adam.learning_rate(), 0.01);
    }

    #[test]
    fn step_moves_parameters_in_negative_gradient_direction() {
        let mut net = Sequential::new();
        net.push(Linear::new(1, 1, 0));
        let mut before = Vec::new();
        net.visit_parameters(&mut |p| before.push(p.value.clone()));
        // Set an artificial positive gradient on every parameter.
        net.visit_parameters(&mut |p| p.grad.fill(1.0));
        let mut adam = Adam::new(0.1);
        adam.step(&mut net);
        let mut index = 0;
        net.visit_parameters(&mut |p| {
            for (after, before) in p.value.data().iter().zip(before[index].data().iter()) {
                assert!(after < before, "parameter should decrease");
            }
            index += 1;
        });
    }

    #[test]
    fn clip_grad_norm_bounds_the_norm() {
        let mut net = Sequential::new();
        net.push(Linear::new(4, 4, 0));
        net.visit_parameters(&mut |p| p.grad.fill(10.0));
        let before = clip_grad_norm(&mut net, 1.0);
        assert!(before > 1.0);
        let mut total = 0.0f32;
        net.visit_parameters(&mut |p| total += p.grad.norm_sq());
        assert!((total.sqrt() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn clip_grad_norm_is_a_noop_for_small_gradients() {
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, 0));
        net.visit_parameters(&mut |p| p.grad.fill(1e-4));
        let norm = clip_grad_norm(&mut net, 10.0);
        assert!(norm < 1.0);
        net.visit_parameters(&mut |p| {
            assert!(p.grad.data().iter().all(|&g| (g - 1e-4).abs() < 1e-9));
        });
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_learning_rate_is_rejected() {
        Adam::new(0.0);
    }
}
