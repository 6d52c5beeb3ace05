//! Loss functions.

use crate::tensor::Tensor;

/// Mean squared error loss and its gradient with respect to the prediction.
///
/// Returns `(loss, grad)` where `loss = mean((pred - target)^2)` and
/// `grad[i] = 2 (pred[i] - target[i]) / n`.
///
/// # Panics
///
/// Panics if the shapes differ or the tensors are empty.
pub fn mse(prediction: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(prediction.shape(), target.shape(), "mse: shape mismatch");
    assert!(!prediction.is_empty(), "mse: empty input");
    let n = prediction.len() as f32;
    let diff = prediction.sub(target);
    let loss = diff.norm_sq() / n;
    let grad = diff.scale(2.0 / n);
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_tensors_is_zero() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![2]);
        let (loss, grad) = mse(&a, &a);
        assert_eq!(loss, 0.0);
        assert_eq!(grad.data(), &[0.0, 0.0]);
    }

    #[test]
    fn mse_matches_hand_computation() {
        let p = Tensor::from_vec(vec![2.0, 0.0], vec![2]);
        let t = Tensor::from_vec(vec![0.0, 0.0], vec![2]);
        let (loss, grad) = mse(&p, &t);
        assert_eq!(loss, 2.0);
        assert_eq!(grad.data(), &[2.0, 0.0]);
    }

    #[test]
    fn mse_gradient_matches_finite_differences() {
        let p = Tensor::from_vec(vec![0.5, -1.5, 2.0], vec![3]);
        let t = Tensor::from_vec(vec![0.0, 1.0, 2.5], vec![3]);
        let (_, grad) = mse(&p, &t);
        let eps = 1e-3;
        for i in 0..3 {
            let mut pp = p.clone();
            pp.data_mut()[i] += eps;
            let mut pm = p.clone();
            pm.data_mut()[i] -= eps;
            let numeric = (mse(&pp, &t).0 - mse(&pm, &t).0) / (2.0 * eps);
            assert!((grad.data()[i] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mse_rejects_shape_mismatch() {
        mse(&Tensor::zeros(vec![2]), &Tensor::zeros(vec![3]));
    }
}
