//! Sequential container of layers.

use super::Layer;
use crate::{Parameter, Tensor};

/// A stack of layers applied in order.
///
/// # Examples
///
/// ```
/// use rlp_nn::{layers::{Linear, ReLU, Sequential}, Layer, Tensor};
/// let mut mlp = Sequential::new();
/// mlp.push(Linear::new(2, 4, 0));
/// mlp.push(ReLU::new());
/// mlp.push(Linear::new(4, 1, 1));
/// let y = mlp.forward(&Tensor::zeros(vec![3, 2]), false);
/// assert_eq!(y.shape(), &[3, 1]);
/// ```
#[derive(Default, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send>>,
}

impl Sequential {
    /// Creates an empty container.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer to the end of the stack.
    pub fn push(&mut self, layer: impl Layer + Send + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layers.len())
            .finish()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut current = input.clone();
        for layer in &mut self.layers {
            current = layer.forward(&current, train);
        }
        current
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut grad = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    /// Backpropagates through every layer but the first as
    /// [`Layer::backward`] does, and through the first with
    /// [`Layer::backward_parameters`], so the input gradient is never
    /// formed.
    fn backward_parameters(&mut self, grad_output: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut grad = grad_output.clone();
        for layer in rest.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        first.backward_parameters(&grad);
    }

    fn visit_parameters(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for layer in &mut self.layers {
            layer.visit_parameters(f);
        }
    }

    fn clone_box(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, ReLU};

    #[test]
    fn empty_sequential_is_identity() {
        let mut seq = Sequential::new();
        assert!(seq.is_empty());
        let x = Tensor::from_vec(vec![1.0, 2.0], vec![1, 2]);
        assert_eq!(seq.forward(&x, false), x);
    }

    #[test]
    fn forward_chains_layers() {
        let mut seq = Sequential::new();
        seq.push(Linear::new(2, 4, 0));
        seq.push(ReLU::new());
        seq.push(Linear::new(4, 3, 1));
        assert_eq!(seq.len(), 3);
        let y = seq.forward(&Tensor::zeros(vec![5, 2]), false);
        assert_eq!(y.shape(), &[5, 3]);
    }

    #[test]
    fn backward_produces_input_shaped_gradient() {
        let mut seq = Sequential::new();
        seq.push(Linear::new(3, 4, 0));
        seq.push(ReLU::new());
        seq.push(Linear::new(4, 2, 1));
        let x = Tensor::from_vec(vec![0.1, -0.2, 0.3], vec![1, 3]);
        let y = seq.forward(&x, true);
        let grad = seq.backward(&Tensor::full(y.shape().to_vec(), 1.0));
        assert_eq!(grad.shape(), x.shape());
    }

    #[test]
    fn cloned_network_is_an_independent_deep_copy() {
        let mut seq = Sequential::new();
        seq.push(Linear::new(2, 2, 0));
        seq.push(ReLU::new());
        let mut clone = seq.clone();
        let x = Tensor::from_vec(vec![1.0, -1.0], vec![1, 2]);
        assert_eq!(seq.forward(&x, false), clone.forward(&x, false));
        // Mutating the clone's parameters leaves the original untouched.
        clone.visit_parameters(&mut |p| p.value.data_mut()[0] += 1.0);
        assert_ne!(seq.forward(&x, false), clone.forward(&x, false));
    }

    #[test]
    fn visit_parameters_covers_all_layers() {
        let mut seq = Sequential::new();
        seq.push(Linear::new(2, 2, 0));
        seq.push(Linear::new(2, 2, 1));
        assert_eq!(seq.parameter_count(), 2 * (2 * 2 + 2));
    }

    #[test]
    fn whole_network_gradient_matches_finite_differences() {
        let mut seq = Sequential::new();
        seq.push(Linear::new(2, 3, 2));
        seq.push(ReLU::new());
        seq.push(Linear::new(3, 1, 3));
        let x = Tensor::from_vec(vec![0.4, -0.6], vec![1, 2]);
        let y = seq.forward(&x, true);
        let grad = seq.backward(&Tensor::full(y.shape().to_vec(), 1.0));

        // Finite differences on the first Linear's weight via parameter visit.
        let mut analytic = Vec::new();
        seq.visit_parameters(&mut |p| analytic.push(p.grad.clone()));
        let eps = 1e-3;
        // Perturb weight [0] of the first layer.
        let perturbed = |delta: f32| -> f32 {
            let mut seq2 = Sequential::new();
            seq2.push(Linear::new(2, 3, 2));
            seq2.push(ReLU::new());
            seq2.push(Linear::new(3, 1, 3));
            seq2.visit_parameters(&mut |p| {
                if p.value.shape() == [2, 3] {
                    p.value.data_mut()[0] += delta;
                }
            });
            seq2.forward(&x, false).sum()
        };
        let numeric = (perturbed(eps) - perturbed(-eps)) / (2.0 * eps);
        assert!(
            (analytic[0].data()[0] - numeric).abs() < 1e-2,
            "analytic {} vs numeric {numeric}",
            analytic[0].data()[0]
        );
        let _ = grad;
    }
}
