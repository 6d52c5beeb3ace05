//! Masked categorical action distribution.

use rand::Rng;

/// A categorical distribution over discrete actions, built from raw logits
/// with an optional feasibility mask.
///
/// RLPlanner sets the probability of infeasible grid cells to zero before
/// sampling, which is implemented here by forcing masked logits to negative
/// infinity before the softmax.
///
/// # Examples
///
/// ```
/// use rlp_nn::Categorical;
/// use rand::SeedableRng;
///
/// let dist = Categorical::from_logits(&[1.0, 2.0, 3.0], Some(&[true, false, true]));
/// assert_eq!(dist.probs()[1], 0.0);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let a = dist.sample(&mut rng);
/// assert!(a == 0 || a == 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    probs: Vec<f32>,
}

impl Categorical {
    /// Builds the distribution from logits, optionally masking actions out.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty, if the mask length differs from the
    /// number of logits, or if the mask disables every action.
    pub fn from_logits(logits: &[f32], mask: Option<&[bool]>) -> Self {
        assert!(!logits.is_empty(), "categorical needs at least one action");
        if let Some(mask) = mask {
            assert_eq!(mask.len(), logits.len(), "mask length mismatch");
            assert!(mask.iter().any(|&m| m), "action mask disables every action");
        }
        let masked: Vec<f32> = logits
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                if mask.is_none_or(|m| m[i]) {
                    l
                } else {
                    f32::NEG_INFINITY
                }
            })
            .collect();
        let max = masked.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exp: Vec<f32> = masked
            .iter()
            .map(|&l| if l.is_finite() { (l - max).exp() } else { 0.0 })
            .collect();
        let sum: f32 = exp.iter().sum();
        let probs = exp.iter().map(|&e| e / sum).collect();
        Self { probs }
    }

    /// The action probabilities.
    pub fn probs(&self) -> &[f32] {
        &self.probs
    }

    /// Number of actions.
    pub fn action_count(&self) -> usize {
        self.probs.len()
    }

    /// Samples an action index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let draw: f32 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            acc += p;
            if draw < acc {
                return i;
            }
        }
        // Floating point round-off: fall back to the last action with
        // non-zero probability.
        self.probs
            .iter()
            .rposition(|&p| p > 0.0)
            .unwrap_or(self.probs.len() - 1)
    }

    /// Index of the most probable action.
    pub fn argmax(&self) -> usize {
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("probabilities are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Natural-log probability of an action (`-inf` for masked actions).
    ///
    /// # Panics
    ///
    /// Panics if the action index is out of range.
    pub fn log_prob(&self, action: usize) -> f32 {
        assert!(action < self.probs.len(), "action out of range");
        self.probs[action].max(f32::MIN_POSITIVE).ln()
    }

    /// Entropy of the distribution in nats.
    pub fn entropy(&self) -> f32 {
        -self
            .probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f32>()
    }

    /// Gradient of `log p(action)` with respect to the (unmasked) logits:
    /// `one_hot(action) - probs`.
    ///
    /// Masked actions have zero probability and therefore zero gradient,
    /// which keeps the policy network from learning anything about them.
    pub fn log_prob_grad_logits(&self, action: usize) -> Vec<f32> {
        assert!(action < self.probs.len(), "action out of range");
        self.probs
            .iter()
            .enumerate()
            .map(|(i, &p)| if i == action { 1.0 - p } else { -p })
            .collect()
    }

    /// Gradient of the entropy with respect to the logits.
    ///
    /// For a softmax distribution, `dH/dlogit_i = -p_i * (log p_i + H)`.
    pub fn entropy_grad_logits(&self) -> Vec<f32> {
        let h = self.entropy();
        self.probs
            .iter()
            .map(|&p| if p > 0.0 { -p * (p.ln() + h) } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn softmax_normalises() {
        let d = Categorical::from_logits(&[0.0, 1.0, 2.0], None);
        let sum: f32 = d.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(d.probs()[2] > d.probs()[1]);
    }

    #[test]
    fn uniform_logits_give_uniform_probs() {
        let d = Categorical::from_logits(&[5.0; 4], None);
        for &p in d.probs() {
            assert!((p - 0.25).abs() < 1e-6);
        }
        assert!((d.entropy() - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn mask_zeroes_probabilities() {
        let d = Categorical::from_logits(&[1.0, 100.0, 1.0], Some(&[true, false, true]));
        assert_eq!(d.probs()[1], 0.0);
        assert!((d.probs()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sampling_respects_the_mask() {
        let d = Categorical::from_logits(
            &[0.0; 8],
            Some(&[false, false, true, false, true, false, false, false]),
        );
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..200 {
            let a = d.sample(&mut rng);
            assert!(a == 2 || a == 4);
        }
    }

    #[test]
    fn sampling_frequency_tracks_probabilities() {
        let d = Categorical::from_logits(&[0.0, (3.0f32).ln()], None);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    fn log_prob_and_argmax() {
        // Logits 0 and ln 3 give probabilities 1/4 and 3/4.
        let d = Categorical::from_logits(&[0.0, 3f32.ln()], None);
        assert!((d.log_prob(1) - 0.75f32.ln()).abs() < 1e-6);
        assert_eq!(d.argmax(), 1);
        assert_eq!(d.action_count(), 2);
    }

    #[test]
    fn log_prob_gradient_sums_to_zero() {
        let d = Categorical::from_logits(&[0.3, -0.7, 1.1], None);
        let g = d.log_prob_grad_logits(2);
        let sum: f32 = g.iter().sum();
        assert!(sum.abs() < 1e-6);
        assert!(g[2] > 0.0);
        assert!(g[0] < 0.0);
    }

    #[test]
    fn entropy_gradient_is_zero_at_uniform() {
        let d = Categorical::from_logits(&[1.0; 5], None);
        for g in d.entropy_grad_logits() {
            assert!(g.abs() < 1e-6);
        }
    }

    #[test]
    fn entropy_of_deterministic_distribution_is_zero() {
        let d = Categorical::from_logits(&[1.0, 2.0], Some(&[true, false]));
        assert_eq!(d.entropy(), 0.0);
    }

    #[test]
    #[should_panic(expected = "disables every action")]
    fn fully_masked_distribution_panics() {
        Categorical::from_logits(&[1.0, 2.0], Some(&[false, false]));
    }
}
