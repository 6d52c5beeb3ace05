//! Property-based tests for the neural-network building blocks and the
//! `rlplanner.policy/v1` serialization format.

use proptest::prelude::*;
use rlp_nn::layers::{Conv2d, Linear, Sequential, Tanh};
use rlp_nn::{Categorical, Layer, PolicyFile, Tensor};

/// Metadata strings including the characters the length-prefixed format
/// must not care about: quotes, backslashes, newlines, NULs, multi-byte
/// UTF-8.
fn metadata_string() -> impl Strategy<Value = String> + Clone {
    const CHARS: [char; 8] = ['a', 'z', '.', '"', '\\', '\n', '\0', 'µ'];
    prop::collection::vec(any::<u8>(), 0..16).prop_map(|bytes| {
        bytes
            .iter()
            .map(|&b| CHARS[b as usize % CHARS.len()])
            .collect()
    })
}

fn metadata_strategy() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((metadata_string(), metadata_string()), 0..4)
}

/// Tensors of rank 1–3 with arbitrary f32 bit patterns (including NaNs and
/// infinities — the format stores raw little-endian bits, so every pattern
/// must survive).
fn tensors_strategy() -> impl Strategy<Value = Vec<Tensor>> {
    // Dims are drawn first and the oversized bit pool truncated to fit:
    // the vendored proptest has no `prop_flat_map`.
    let tensor = (
        prop::collection::vec(1usize..4, 1..4),
        prop::collection::vec(any::<u32>(), 27),
    )
        .prop_map(|(dims, bits)| {
            let len: usize = dims.iter().product();
            Tensor::from_vec(
                bits[..len].iter().map(|&b| f32::from_bits(b)).collect(),
                dims,
            )
        });
    prop::collection::vec(tensor, 0..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Softmax probabilities are a distribution and ordering follows logits.
    #[test]
    fn categorical_probabilities_are_a_distribution(
        logits in prop::collection::vec(-8.0f32..8.0, 2..12),
    ) {
        let dist = Categorical::from_logits(&logits, None);
        let sum: f32 = dist.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(dist.probs().iter().all(|&p| (0.0..=1.0).contains(&p)));
        // argmax of probabilities matches argmax of logits.
        let logit_argmax = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        prop_assert_eq!(dist.argmax(), logit_argmax);
        // Entropy is bounded by ln(n).
        prop_assert!(dist.entropy() <= (logits.len() as f32).ln() + 1e-4);
        prop_assert!(dist.entropy() >= -1e-6);
    }

    /// Masked actions keep zero probability and the rest renormalises.
    #[test]
    fn categorical_mask_renormalises(
        logits in prop::collection::vec(-4.0f32..4.0, 3..10),
        mask_bits in prop::collection::vec(any::<bool>(), 3..10),
    ) {
        let n = logits.len().min(mask_bits.len());
        let logits = &logits[..n];
        let mut mask = mask_bits[..n].to_vec();
        if !mask.iter().any(|&m| m) {
            mask[0] = true;
        }
        let dist = Categorical::from_logits(logits, Some(&mask));
        for (p, &m) in dist.probs().iter().zip(mask.iter()) {
            if !m {
                prop_assert_eq!(*p, 0.0);
            }
        }
        let sum: f32 = dist.probs().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// The log-prob gradient of a softmax always sums to zero and points
    /// towards the chosen action.
    #[test]
    fn log_prob_gradient_structure(
        logits in prop::collection::vec(-4.0f32..4.0, 2..8),
        action_pick in 0usize..8,
    ) {
        let dist = Categorical::from_logits(&logits, None);
        let action = action_pick % logits.len();
        let grad = dist.log_prob_grad_logits(action);
        let sum: f32 = grad.iter().sum();
        prop_assert!(sum.abs() < 1e-4);
        prop_assert!(grad[action] >= 0.0);
        for (i, g) in grad.iter().enumerate() {
            if i != action {
                prop_assert!(*g <= 1e-6);
            }
        }
    }

    /// A linear layer is, in fact, linear: f(a x + b y) = a f(x) + b f(y)
    /// once the bias is removed.
    #[test]
    fn linear_layer_is_linear(
        x in prop::collection::vec(-2.0f32..2.0, 4),
        y in prop::collection::vec(-2.0f32..2.0, 4),
        a in -2.0f32..2.0,
        b in -2.0f32..2.0,
    ) {
        let mut layer = Linear::new(4, 3, 9);
        let tx = Tensor::from_vec(x.clone(), vec![1, 4]);
        let ty = Tensor::from_vec(y.clone(), vec![1, 4]);
        let combo: Vec<f32> = x.iter().zip(y.iter()).map(|(xi, yi)| a * xi + b * yi).collect();
        let tc = Tensor::from_vec(combo, vec![1, 4]);
        let fx = layer.forward(&tx, false);
        let fy = layer.forward(&ty, false);
        let fc = layer.forward(&tc, false);
        // Remove the bias contribution: f(0) = bias.
        let f0 = layer.forward(&Tensor::zeros(vec![1, 4]), false);
        for i in 0..3 {
            let lhs = fc.data()[i] - f0.data()[i];
            let rhs = a * (fx.data()[i] - f0.data()[i]) + b * (fy.data()[i] - f0.data()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-3, "linearity violated: {lhs} vs {rhs}");
        }
    }

    /// Backpropagation through a small random MLP matches finite differences
    /// on a random input coordinate.
    #[test]
    fn mlp_input_gradient_matches_finite_differences(
        input in prop::collection::vec(-1.0f32..1.0, 5),
        seed in 0u64..500,
        coord in 0usize..5,
    ) {
        // Tanh keeps the network smooth, so central differences are reliable
        // (a ReLU kink inside the finite-difference step would not be).
        let build = || {
            let mut net = Sequential::new();
            net.push(Linear::new(5, 7, seed));
            net.push(Tanh::new());
            net.push(Linear::new(7, 1, seed + 1));
            net
        };
        let mut net = build();
        let x = Tensor::from_vec(input.clone(), vec![1, 5]);
        let y = net.forward(&x, true);
        let grad = net.backward(&Tensor::full(y.shape().to_vec(), 1.0));

        let eps = 1e-2;
        let mut xp = input.clone();
        xp[coord] += eps;
        let mut xm = input.clone();
        xm[coord] -= eps;
        let fp = build().forward(&Tensor::from_vec(xp, vec![1, 5]), false).sum();
        let fm = build().forward(&Tensor::from_vec(xm, vec![1, 5]), false).sum();
        let numeric = (fp - fm) / (2.0 * eps);
        prop_assert!(
            (grad.data()[coord] - numeric).abs() < 0.02 + 0.02 * numeric.abs(),
            "analytic {} vs numeric {numeric}",
            grad.data()[coord]
        );
    }

    /// Convolution with stride 1 and "same" padding preserves spatial shape
    /// and commutes with input scaling (after bias removal).
    #[test]
    fn conv_shape_and_homogeneity(
        h in 3usize..9,
        w in 3usize..9,
        scale in 0.5f32..3.0,
    ) {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 4);
        let x = Tensor::from_vec(
            (0..2 * h * w).map(|i| ((i * 37 % 17) as f32 - 8.0) / 8.0).collect(),
            vec![1, 2, h, w],
        );
        let y = conv.forward(&x, false);
        prop_assert_eq!(y.shape(), &[1, 3, h, w]);
        let y_scaled = conv.forward(&x.scale(scale), false);
        let y0 = conv.forward(&Tensor::zeros(vec![1, 2, h, w]), false);
        for i in 0..y.len() {
            let lhs = y_scaled.data()[i] - y0.data()[i];
            let rhs = scale * (y.data()[i] - y0.data()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }
    }

    /// Any policy file — arbitrary metadata, arbitrary tensor shapes,
    /// arbitrary f32 bit patterns — round-trips through serialization
    /// bit-identically.
    #[test]
    fn policy_serialization_round_trips_bit_identically(
        metadata in metadata_strategy(),
        tensors in tensors_strategy(),
    ) {
        let file = PolicyFile::new(metadata, tensors);
        let bytes = file.to_bytes();
        let parsed = PolicyFile::from_bytes(&bytes).expect("own bytes parse");
        prop_assert_eq!(
            parsed.to_bytes(),
            bytes,
            "serialize → parse → serialize changed the bytes"
        );
        prop_assert_eq!(parsed.checksum(), file.checksum());
        prop_assert_eq!(parsed.metadata(), file.metadata());
        prop_assert_eq!(parsed.tensors().len(), file.tensors().len());
        for (a, b) in parsed.tensors().iter().zip(file.tensors().iter()) {
            prop_assert_eq!(a.shape(), b.shape());
            // Compare bits, not values: NaN payloads must survive too.
            for (x, y) in a.data().iter().zip(b.data().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Every proper prefix of a valid policy file is a typed error — never
    /// a panic, never a silent success.
    #[test]
    fn truncated_policy_files_are_typed_errors(
        metadata in metadata_strategy(),
        tensors in tensors_strategy(),
        cut in 0.0f64..1.0,
    ) {
        let bytes = PolicyFile::new(metadata, tensors).to_bytes();
        let len = (bytes.len() as f64 * cut) as usize;
        prop_assert!(
            PolicyFile::from_bytes(&bytes[..len.min(bytes.len() - 1)]).is_err(),
            "a truncated file parsed"
        );
    }

    /// Flipping any single bit anywhere in a policy file is detected: the
    /// FNV-1a trailer covers every byte before it, and a flip inside the
    /// trailer mismatches the recomputed hash.
    #[test]
    fn corrupted_policy_files_are_detected(
        metadata in metadata_strategy(),
        tensors in tensors_strategy(),
        position in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = PolicyFile::new(metadata, tensors).to_bytes();
        let index = ((bytes.len() as f64 * position) as usize).min(bytes.len() - 1);
        bytes[index] ^= 1 << bit;
        prop_assert!(
            PolicyFile::from_bytes(&bytes).is_err(),
            "a corrupted file parsed (flipped bit {bit} of byte {index})"
        );
    }
}
