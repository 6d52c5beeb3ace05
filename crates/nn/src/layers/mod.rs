//! Network layers with explicit forward/backward passes.

mod activation;
mod conv;
mod flatten;
mod linear;
mod sequential;

pub use activation::{ReLU, Tanh};
pub use conv::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use sequential::Sequential;

use crate::{Parameter, Tensor};

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward`] (inputs,
/// activation masks, ...) so that a subsequent [`Layer::backward`] can
/// compute gradients. Calling `backward` before `forward`, or with a
/// gradient whose shape does not match the cached forward pass, panics.
///
/// Gradients of trainable parameters are **accumulated** into
/// [`Parameter::grad`]; call [`Layer::zero_grad`] (or
/// [`crate::Adam::zero_grad`]) between optimisation steps.
///
/// Layers are `Send`-compatible plain data: [`Layer::clone_box`] produces an
/// independent deep copy, which is how parallel rollout workers obtain their
/// own policy network replica (`Box<dyn Layer + Send>` implements [`Clone`]
/// through it).
pub trait Layer {
    /// Runs the layer on a batch of inputs.
    ///
    /// `train` enables caching for a later backward pass; inference-only
    /// calls can pass `false` to skip it.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_output` (gradient of the loss with respect to
    /// this layer's output), returning the gradient with respect to the
    /// layer's input and accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass with `train = true` preceded this call.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Visits every trainable parameter of the layer, in a deterministic
    /// order.
    fn visit_parameters(&mut self, f: &mut dyn FnMut(&mut Parameter));

    /// Returns an independent deep copy of the layer behind a boxed trait
    /// object (parameters copied, cached activations included as-is).
    fn clone_box(&self) -> Box<dyn Layer + Send>;

    /// Zeroes the gradients of all parameters.
    fn zero_grad(&mut self) {
        self.visit_parameters(&mut |p| p.zero_grad());
    }

    /// Total number of scalar parameters in the layer.
    fn parameter_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_parameters(&mut |p| count += p.value.len());
        count
    }
}

impl Clone for Box<dyn Layer + Send> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
    }
}

/// Inputs for the property tests that pin reordered kernels and the
/// optimiser step to the loops they replaced, bit for bit.
#[cfg(test)]
pub(crate) mod testing {
    use crate::Tensor;
    use rand::Rng;

    /// `len` values in `[-2, 2)`, each an exact zero (either sign, so a
    /// lost `-0.0` shows) with probability `zeros`.
    pub(crate) fn values(rng: &mut impl Rng, len: usize, zeros: f64) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_bool(zeros) {
                true if rng.gen_bool(0.5) => -0.0,
                true => 0.0,
                false => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// Bit patterns, with every NaN as one value: which NaN an operation
    /// returns is not part of the contract.
    pub(crate) fn bits(t: &Tensor) -> Vec<u32> {
        t.data()
            .iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    }

    /// Sets one random element to `+inf` in a quarter of the cases, so that
    /// a zero skipped against it (`0 × inf = NaN`) is observable.
    pub(crate) fn maybe_infinite(rng: &mut impl Rng, data: &mut [f32]) {
        if rng.gen_bool(0.25) {
            let i = rng.gen_range(0..data.len());
            data[i] = f32::INFINITY;
        }
    }
}
