//! Fully connected layer.

use super::Layer;
use crate::init::xavier_uniform;
use crate::{Parameter, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fully connected (dense) layer: `y = x · W + b`.
///
/// Input shape `[batch, in_features]`, output `[batch, out_features]`.
///
/// # Examples
///
/// ```
/// use rlp_nn::{layers::Linear, Layer, Tensor};
/// let mut layer = Linear::new(3, 2, 0);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], vec![1, 3]);
/// let y = layer.forward(&x, true);
/// assert_eq!(y.shape(), &[1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Parameter,
    bias: Parameter,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-initialised weights and zero bias.
    ///
    /// `seed` makes the initialisation reproducible.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "layer dimensions must be positive"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weight = xavier_uniform(
            vec![in_features, out_features],
            in_features,
            out_features,
            &mut rng,
        );
        Self::from_parameters(weight, Tensor::zeros(vec![out_features]))
    }

    /// Creates a layer from its parameter tensors, drawing nothing:
    /// `weight` is `[in_features, out_features]` and `bias` is
    /// `[out_features]`.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not a rank-2 tensor with positive dimensions
    /// or `bias` does not match its column count.
    pub fn from_parameters(weight: Tensor, bias: Tensor) -> Self {
        let shape = weight.shape();
        assert!(
            shape.len() == 2 && shape[0] > 0 && shape[1] > 0,
            "linear weight must be a non-empty [in, out] matrix"
        );
        let (in_features, out_features) = (shape[0], shape[1]);
        assert_eq!(bias.shape(), &[out_features], "linear bias shape");
        Self {
            in_features,
            out_features,
            weight: Parameter::new(weight),
            bias: Parameter::new(bias),
            cached_input: None,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Immutable access to the weight matrix (shape `[in, out]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 2, "linear input must be rank 2");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "linear input feature mismatch"
        );
        if train {
            self.cached_input = Some(input.clone());
        }
        input
            .matmul(&self.weight.value)
            .add_row_broadcast(&self.bias.value)
    }

    fn backward_parameters(&mut self, grad_output: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward(train=true)");
        assert_eq!(grad_output.shape()[0], input.shape()[0], "batch mismatch");
        assert_eq!(
            grad_output.shape()[1],
            self.out_features,
            "grad feature mismatch"
        );
        // dL/dW = xᵀ·g ; dL/db = sum_rows(g), formed without materialising
        // the transpose. Each element keeps the sequence of `Tensor::matmul`
        // on the transposed operand: from 0.0, `p` ascending, a zero left
        // factor skipped. So dL/dW is summed apart and only then added to
        // the accumulated grad.
        let (n_in, n_out) = (self.in_features, self.out_features);
        let (x, g) = (input.data(), grad_output.data());
        let mut sum = vec![0.0f32; n_out];
        for (i, grad_row) in self
            .weight
            .grad
            .data_mut()
            .chunks_exact_mut(n_out)
            .enumerate()
        {
            sum.fill(0.0);
            for (x_row, g_row) in x.chunks_exact(n_in).zip(g.chunks_exact(n_out)) {
                let a = x_row[i];
                if a == 0.0 {
                    continue;
                }
                for (s, &b) in sum.iter_mut().zip(g_row) {
                    *s += a * b;
                }
            }
            for (w, &s) in grad_row.iter_mut().zip(&sum) {
                *w += s;
            }
        }
        self.bias.grad.add_assign(&grad_output.sum_rows());
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_parameters(grad_output);

        // dL/dx = g·Wᵀ, formed without materialising the transpose and in
        // the sequence of `Tensor::matmul` on it. dL/dx[b, i] is a dot
        // product of g's row `b` with W's row `i`. A panel of ROWS rows of
        // W, interleaved so that one step of `p` reads ROWS adjacent
        // weights, runs ROWS of those dot products side by side.
        const ROWS: usize = 8;
        let (n_in, n_out) = (self.in_features, self.out_features);
        let (g, w) = (grad_output.data(), self.weight.value.data());
        let mut grad_input = Tensor::zeros(vec![grad_output.shape()[0], n_in]);
        let mut panel = vec![[0.0f32; ROWS]; n_out];
        for first in (0..n_in).step_by(ROWS) {
            let rows = ROWS.min(n_in - first);
            for (k, w_row) in w[first * n_out..][..rows * n_out]
                .chunks_exact(n_out)
                .enumerate()
            {
                for (lanes, &v) in panel.iter_mut().zip(w_row) {
                    lanes[k] = v;
                }
            }
            for (g_row, out_row) in g
                .chunks_exact(n_out)
                .zip(grad_input.data_mut().chunks_exact_mut(n_in))
            {
                let mut acc = [0.0f32; ROWS];
                for (&a, lanes) in g_row.iter().zip(&panel) {
                    if a == 0.0 {
                        continue;
                    }
                    for (s, &v) in acc.iter_mut().zip(lanes) {
                        *s += a * v;
                    }
                }
                out_row[first..first + rows].copy_from_slice(&acc[..rows]);
            }
        }
        grad_input
    }

    fn visit_parameters(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn clone_box(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testing::{bits, maybe_infinite, values};
    use proptest::prelude::*;

    /// The backward pass the kernel replaced, through materialised
    /// transposes: the oracle for its accumulation order.
    fn reference_backward(layer: &mut Linear, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let grad_w = input.transpose().matmul(grad_output);
        layer.weight.grad.add_assign(&grad_w);
        layer.bias.grad.add_assign(&grad_output.sum_rows());
        grad_output.matmul(&layer.weight.value.transpose())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The transpose-free backward reproduces the materialised-transpose
        /// one bit for bit, onto non-zero (and signed-zero) prior grads, with
        /// inputs and upstream grads that are often exactly zero, sometimes
        /// against an infinite weight or upstream grad.
        #[test]
        fn backward_matches_the_transposed_matmuls_bit_for_bit(
            n_in in 1usize..40,
            n_out in 1usize..40,
            batch in 1usize..6,
            zeros in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut layer = Linear::new(n_in, n_out, seed);
            maybe_infinite(&mut rng, layer.weight.value.data_mut());
            layer.weight.grad = Tensor::from_vec(values(&mut rng, n_in * n_out, 0.3), vec![n_in, n_out]);
            layer.bias.grad = Tensor::from_vec(values(&mut rng, n_out, 0.3), vec![n_out]);
            let x = Tensor::from_vec(values(&mut rng, batch * n_in, zeros), vec![batch, n_in]);
            let mut g = Tensor::from_vec(values(&mut rng, batch * n_out, zeros), vec![batch, n_out]);
            maybe_infinite(&mut rng, g.data_mut());
            let mut oracle = layer.clone();
            layer.forward(&x, true);
            let gi = layer.backward(&g);
            let gi_oracle = reference_backward(&mut oracle, &x, &g);
            prop_assert_eq!(bits(&gi), bits(&gi_oracle));
            prop_assert_eq!(bits(&layer.weight.grad), bits(&oracle.weight.grad));
            prop_assert_eq!(bits(&layer.bias.grad), bits(&oracle.bias.grad));
        }
    }

    #[test]
    fn from_parameters_uses_the_given_tensors() {
        let weight = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![3, 2]);
        let bias = Tensor::from_vec(vec![0.5, -0.5], vec![2]);
        let mut layer = Linear::from_parameters(weight, bias);
        assert_eq!((layer.in_features(), layer.out_features()), (3, 2));
        let y = layer.forward(&Tensor::from_vec(vec![1.0, 0.0, 1.0], vec![1, 3]), false);
        assert_eq!(y.data(), &[6.5, 7.5]);
    }

    #[test]
    #[should_panic(expected = "linear bias shape")]
    fn from_parameters_rejects_a_mismatched_bias() {
        Linear::from_parameters(Tensor::zeros(vec![3, 2]), Tensor::zeros(vec![3]));
    }

    /// Numerically checks dL/dx for L = sum(y).
    #[test]
    fn gradient_matches_finite_differences() {
        let mut layer = Linear::new(3, 2, 7);
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.5, 1.0, 0.1, -0.4], vec![2, 3]);
        let y = layer.forward(&x, true);
        let grad_out = Tensor::full(y.shape().to_vec(), 1.0);
        let grad_in = layer.backward(&grad_out);

        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut probe = layer.clone();
            let lp = probe.forward(&xp, false).sum();
            let lm = probe.forward(&xm, false).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad_in.data()[i] - numeric).abs() < 1e-2,
                "dx[{i}]: analytic {} vs numeric {}",
                grad_in.data()[i],
                numeric
            );
        }
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let mut layer = Linear::new(2, 2, 3);
        let x = Tensor::from_vec(vec![0.5, -1.0], vec![1, 2]);
        let y = layer.forward(&x, true);
        layer.backward(&Tensor::full(y.shape().to_vec(), 1.0));
        let analytic = layer.weight.grad.clone();

        let eps = 1e-3;
        for i in 0..layer.weight.value.len() {
            let mut plus = layer.clone();
            plus.weight.value.data_mut()[i] += eps;
            let mut minus = layer.clone();
            minus.weight.value.data_mut()[i] -= eps;
            let lp = plus.forward(&x, false).sum();
            let lm = minus.forward(&x, false).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic.data()[i] - numeric).abs() < 1e-2,
                "dW[{i}]: analytic {} vs numeric {}",
                analytic.data()[i],
                numeric
            );
        }
    }

    #[test]
    fn bias_shifts_output() {
        let mut layer = Linear::new(2, 2, 0);
        layer.bias.value = Tensor::from_vec(vec![1.0, -1.0], vec![2]);
        let x = Tensor::zeros(vec![1, 2]);
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[1.0, -1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut layer = Linear::new(2, 1, 0);
        let x = Tensor::from_vec(vec![1.0, 1.0], vec![1, 2]);
        let y = layer.forward(&x, true);
        let g = Tensor::full(y.shape().to_vec(), 1.0);
        layer.backward(&g);
        let first = layer.bias.grad.data()[0];
        layer.forward(&x, true);
        layer.backward(&g);
        assert_eq!(layer.bias.grad.data()[0], 2.0 * first);
        layer.zero_grad();
        assert_eq!(layer.bias.grad.data()[0], 0.0);
    }

    #[test]
    fn parameter_count_is_weights_plus_bias() {
        let mut layer = Linear::new(4, 3, 0);
        assert_eq!(layer.parameter_count(), 4 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_without_forward_panics() {
        let mut layer = Linear::new(2, 2, 0);
        layer.backward(&Tensor::zeros(vec![1, 2]));
    }
}
