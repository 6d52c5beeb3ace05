//! 2D convolution layer.

use super::Layer;
use crate::init::he_uniform;
use crate::{Parameter, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A 2D convolution over `[batch, channels, height, width]` tensors.
///
/// The kernel is square, with configurable stride and zero padding. This is
/// the feature-encoding layer of the RLPlanner agent: the state tensor
/// (occupancy map, power map, next-chiplet footprint) is encoded by a small
/// stack of these convolutions before the policy and value heads.
///
/// # Examples
///
/// ```
/// use rlp_nn::{layers::Conv2d, Layer, Tensor};
/// let mut conv = Conv2d::new(2, 4, 3, 1, 1, 0);
/// let x = Tensor::zeros(vec![1, 2, 8, 8]);
/// let y = conv.forward(&x, false);
/// assert_eq!(y.shape(), &[1, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Parameter,
    bias: Parameter,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-initialised weights and zero bias.
    ///
    /// `seed` makes the initialisation reproducible.
    ///
    /// # Panics
    ///
    /// Panics if any of the channel counts, kernel size or stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "convolution dimensions must be positive"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let fan_in = in_channels * kernel * kernel;
        let weight = he_uniform(
            vec![out_channels, in_channels, kernel, kernel],
            fan_in,
            &mut rng,
        );
        Self::from_parameters(weight, Tensor::zeros(vec![out_channels]), stride, padding)
    }

    /// Creates a convolution from its parameter tensors, drawing nothing:
    /// `weight` is `[out_channels, in_channels, kernel, kernel]` and `bias`
    /// is `[out_channels]`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes do not describe a square-kernel convolution
    /// with positive dimensions, or if `stride` is zero.
    pub fn from_parameters(weight: Tensor, bias: Tensor, stride: usize, padding: usize) -> Self {
        let shape = weight.shape();
        assert!(
            shape.len() == 4 && shape[2] == shape[3],
            "convolution weight must be [out, in, k, k]"
        );
        let (out_channels, in_channels, kernel) = (shape[0], shape[1], shape[2]);
        assert!(
            in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
            "convolution dimensions must be positive"
        );
        assert_eq!(bias.shape(), &[out_channels], "convolution bias shape");
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight: Parameter::new(weight),
            bias: Parameter::new(bias),
            cached_input: None,
        }
    }

    /// Output spatial size for a given input spatial size.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit into the padded input.
    pub fn output_size(&self, height: usize, width: usize) -> (usize, usize) {
        let padded_h = height + 2 * self.padding;
        let padded_w = width + 2 * self.padding;
        assert!(
            padded_h >= self.kernel && padded_w >= self.kernel,
            "kernel larger than padded input"
        );
        (
            (padded_h - self.kernel) / self.stride + 1,
            (padded_w - self.kernel) / self.stride + 1,
        )
    }
}

/// The kernel taps of one output coordinate along one axis that land
/// inside the input: taps `first..first + len` read the inputs
/// `start..start + len`; the rest fall in the zero padding.
#[derive(Debug, Clone, Copy)]
struct Span {
    first: usize,
    start: usize,
    len: usize,
}

/// The [`Span`] of each of `outputs` coordinates along an axis of `size`
/// input cells.
fn spans(outputs: usize, kernel: usize, stride: usize, padding: usize, size: usize) -> Vec<Span> {
    (0..outputs)
        .map(|o| {
            // Padded coordinate of tap 0; tap `t` reads input
            // `origin + t - padding`.
            let origin = o * stride;
            let first = padding.saturating_sub(origin);
            let end = kernel.min((size + padding).saturating_sub(origin));
            if end <= first {
                return Span {
                    first: 0,
                    start: 0,
                    len: 0,
                };
            }
            Span {
                first,
                start: origin + first - padding,
                len: end - first,
            }
        })
        .collect()
}

/// Copies a row-major `[outer, inner]` matrix into `[inner, outer]`
/// order, so that the channel a kernel vectorises over is contiguous.
fn transposed(data: &[f32], outer: usize, inner: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; data.len()];
    for (o, row) in data.chunks_exact(inner).enumerate() {
        for (i, &v) in row.iter().enumerate() {
            out[i * outer + o] = v;
        }
    }
    out
}

/// Width of the channel blocks the kernels keep in registers.
const LANES: usize = 8;

/// One block of [`LANES`] channels.
type Lanes = [f32; LANES];

/// Regroups a row-major `[rows, cols]` matrix into blocks of [`LANES`]
/// rows: element `(r, c)` lands in lane `r % LANES` of entry
/// `(r / LANES) * cols + c`, so one block's columns are contiguous. Lanes
/// past the last row are zero.
fn lane_blocks(data: &[f32], rows: usize, cols: usize) -> Vec<Lanes> {
    let mut out = vec![[0.0; LANES]; rows.div_ceil(LANES) * cols];
    for (r, row) in data.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[(r / LANES) * cols + c][r % LANES] = v;
        }
    }
    out
}

/// The inverse of [`lane_blocks`].
fn from_lane_blocks(blocks: &[Lanes], data: &mut [f32], cols: usize) {
    for (r, row) in data.chunks_exact_mut(cols).enumerate() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = blocks[(r / LANES) * cols + c][r % LANES];
        }
    }
}

/// The outputs along an axis that one kernel tap connects to the input:
/// outputs `out..out + len` read inputs `input`, `input + stride`, ….
#[derive(Debug, Clone, Copy, Default)]
struct Run {
    out: usize,
    input: usize,
    len: usize,
}

/// The [`Run`] of each kernel tap along an axis.
fn tap_runs(spans: &[Span], kernel: usize) -> Vec<Run> {
    let mut runs = vec![Run::default(); kernel];
    for (o, span) in spans.iter().enumerate() {
        for d in 0..span.len {
            let run = &mut runs[span.first + d];
            if run.len == 0 {
                *run = Run {
                    out: o,
                    input: span.start + d,
                    len: 0,
                };
            }
            run.len += 1;
        }
    }
    runs
}

/// The kernels keep every output element's accumulation sequence of a
/// direct seven-deep loop, so results are bit-identical to it; they only
/// loop in another order. The forward and the weight grad hold a block of
/// 8 output channels in registers while they walk one element's sequence;
/// the input grad runs `ic` innermost over each kernel row's contiguous
/// taps.
impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 4, "conv input must be rank 4");
        assert_eq!(input.shape()[1], self.in_channels, "channel mismatch");
        let (batch, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let (oh, ow) = self.output_size(h, w);
        if train {
            self.cached_input = Some(input.clone());
        }
        let (ic_n, oc_n, k) = (self.in_channels, self.out_channels, self.kernel);
        let taps_n = ic_n * k * k;
        let rows = spans(oh, k, self.stride, self.padding, h);
        let cols = spans(ow, k, self.stride, self.padding, w);
        // Per block of output channels, the weight of each tap `(ic, kh,
        // kw)`, and the bias.
        let taps = lane_blocks(self.weight.value.data(), oc_n, taps_n);
        let bias = lane_blocks(self.bias.value.data(), oc_n, 1);
        let mut out = Tensor::zeros(vec![batch, oc_n, oh, ow]);
        let out_data = out.data_mut();
        // Per output element: bias, then `ic, kh, kw` ascending, padding
        // skipped.
        for (b, image) in input.data().chunks_exact(ic_n * h * w).enumerate() {
            for (y, row) in rows.iter().enumerate() {
                for (x, col) in cols.iter().enumerate() {
                    for (block, (bias, taps)) in
                        bias.iter().zip(taps.chunks_exact(taps_n)).enumerate()
                    {
                        let mut acc = *bias;
                        for ic in 0..ic_n {
                            for dy in 0..row.len {
                                let (kh, iy) = (row.first + dy, row.start + dy);
                                let inputs = &image[(ic * h + iy) * w + col.start..][..col.len];
                                let kernel_row = &taps[(ic * k + kh) * k + col.first..][..col.len];
                                for (&v, tap) in inputs.iter().zip(kernel_row) {
                                    for (a, &wt) in acc.iter_mut().zip(tap) {
                                        *a += v * wt;
                                    }
                                }
                            }
                        }
                        let first = block * LANES;
                        for (oc, &a) in (first..oc_n).zip(&acc) {
                            out_data[((b * oc_n + oc) * oh + y) * ow + x] = a;
                        }
                    }
                }
            }
        }
        out
    }

    fn backward_parameters(&mut self, grad_output: &Tensor) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward(train=true)");
        let (batch, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let (oh, ow) = self.output_size(h, w);
        let (ic_n, oc_n, k) = (self.in_channels, self.out_channels, self.kernel);
        assert_eq!(
            grad_output.shape(),
            &[batch, oc_n, oh, ow],
            "grad_output shape mismatch"
        );
        let rows = spans(oh, k, self.stride, self.padding, h);
        let cols = spans(ow, k, self.stride, self.padding, w);
        let go = grad_output.data();
        let (taps_n, plane, image_len) = (ic_n * k * k, oh * ow, ic_n * h * w);

        // Weight and bias grads, one block of output channels and one tap
        // at a time. Per element the sequence is `b, y, x` ascending; a
        // zero upstream grad is skipped by a select, never added (adding
        // zero turns a -0.0 into +0.0). Padding lanes see only zero grads.
        let positions = batch * plane;
        let mut grads = vec![[0.0; LANES]; oc_n.div_ceil(LANES) * positions];
        for (i, g_plane) in go.chunks_exact(plane).enumerate() {
            let (b, oc) = (i / oc_n, i % oc_n);
            for (pos, &g) in g_plane.iter().enumerate() {
                grads[(oc / LANES) * positions + b * plane + pos][oc % LANES] = g;
            }
        }
        let mut gw = lane_blocks(self.weight.grad.data(), oc_n, taps_n);
        let mut gb = lane_blocks(self.bias.grad.data(), oc_n, 1);
        let (ys, xs) = (tap_runs(&rows, k), tap_runs(&cols, k));
        let stride = self.stride;
        for ((gw, gb), grads) in gw
            .chunks_exact_mut(taps_n)
            .zip(&mut gb)
            .zip(grads.chunks_exact(positions))
        {
            for g in grads {
                for (a, &g) in gb.iter_mut().zip(g) {
                    *a = if g == 0.0 { *a } else { *a + g };
                }
            }
            for (t, gw) in gw.iter_mut().enumerate() {
                let (ic, ys, xs) = (t / (k * k), ys[t / k % k], xs[t % k]);
                let mut acc = *gw;
                for (image, grads) in input
                    .data()
                    .chunks_exact(image_len)
                    .zip(grads.chunks_exact(plane))
                {
                    for dy in 0..ys.len {
                        let (y, iy) = (ys.out + dy, ys.input + dy * stride);
                        let row = &image[(ic * h + iy) * w + xs.input..];
                        let inputs = row.iter().step_by(stride).take(xs.len);
                        for (&v, g) in inputs.zip(&grads[y * ow + xs.out..][..xs.len]) {
                            for (a, &g) in acc.iter_mut().zip(g) {
                                let sum = *a + v * g;
                                *a = if g == 0.0 { *a } else { sum };
                            }
                        }
                    }
                }
                *gw = acc;
            }
        }
        from_lane_blocks(&gw, self.weight.grad.data_mut(), taps_n);
        from_lane_blocks(&gb, self.bias.grad.data_mut(), 1);
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_parameters(grad_output);
        let input = self
            .cached_input
            .as_ref()
            .expect("checked by backward_parameters");
        let (batch, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let (oh, ow) = self.output_size(h, w);
        let (ic_n, oc_n, k) = (self.in_channels, self.out_channels, self.kernel);
        let rows = spans(oh, k, self.stride, self.padding, h);
        let cols = spans(ow, k, self.stride, self.padding, w);
        let (go, image_len) = (grad_output.data(), ic_n * h * w);

        // Input grad, vectorised over `ic` into a [b, iy, ix, ic] scratch,
        // with weights as [oc, kh, kw, ic] so that one kernel row's taps
        // and the inputs they read are both contiguous. Per element the
        // sequence is `oc, y, x` ascending, and the upstream grad is shared
        // by every `ic`, so its zero skip stays a branch.
        let mut weights = Vec::with_capacity(oc_n * k * k * ic_n);
        for block in self.weight.value.data().chunks_exact(ic_n * k * k) {
            weights.extend(transposed(block, ic_n, k * k));
        }
        let mut gi = vec![0.0f32; batch * h * w * ic_n];
        for (b, image) in gi.chunks_exact_mut(h * w * ic_n).enumerate() {
            for (oc, kernel) in weights.chunks_exact(k * k * ic_n).enumerate() {
                let plane = &go[(b * oc_n + oc) * oh * ow..][..oh * ow];
                for (y, row) in rows.iter().enumerate() {
                    for (x, col) in cols.iter().enumerate() {
                        let g = plane[y * ow + x];
                        if g == 0.0 {
                            continue;
                        }
                        for dy in 0..row.len {
                            let (kh, iy) = (row.first + dy, row.start + dy);
                            let dst = &mut image[(iy * w + col.start) * ic_n..][..col.len * ic_n];
                            let src = &kernel[(kh * k + col.first) * ic_n..][..col.len * ic_n];
                            for (d, &wv) in dst.iter_mut().zip(src) {
                                *d += wv * g;
                            }
                        }
                    }
                }
            }
        }
        let mut grad_input = Tensor::zeros(input.shape().to_vec());
        for (dst, src) in grad_input
            .data_mut()
            .chunks_exact_mut(image_len)
            .zip(gi.chunks_exact(h * w * ic_n))
        {
            dst.copy_from_slice(&transposed(src, h * w, ic_n));
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
    use crate::layers::{Flatten, Linear, ReLU, Sequential};
    use proptest::prelude::*;

    /// The direct seven-deep forward loop the kernel replaced: the oracle
    /// for its accumulation order.
    fn reference_forward(conv: &Conv2d, input: &Tensor) -> Tensor {
        let (batch, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let (oh, ow) = conv.output_size(h, w);
        let k = conv.kernel;
        let weight = conv.weight.value.data();
        let mut out = Tensor::zeros(vec![batch, conv.out_channels, oh, ow]);
        let in_data = input.data();
        let out_data = out.data_mut();
        for b in 0..batch {
            for oc in 0..conv.out_channels {
                let bias = conv.bias.value.data()[oc];
                for y in 0..oh {
                    for x in 0..ow {
                        let mut acc = bias;
                        for ic in 0..conv.in_channels {
                            for kh in 0..k {
                                let iy = (y * conv.stride + kh) as isize - conv.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let ix =
                                        (x * conv.stride + kw) as isize - conv.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let in_idx = ((b * conv.in_channels + ic) * h + iy as usize)
                                        * w
                                        + ix as usize;
                                    let w_idx = ((oc * conv.in_channels + ic) * k + kh) * k + kw;
                                    acc += in_data[in_idx] * weight[w_idx];
                                }
                            }
                        }
                        out_data[((b * conv.out_channels + oc) * oh + y) * ow + x] = acc;
                    }
                }
            }
        }
        out
    }

    /// The direct backward loop the kernel replaced, accumulating into
    /// `conv`'s parameter grads.
    fn reference_backward(conv: &mut Conv2d, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let (batch, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let (oh, ow) = conv.output_size(h, w);
        let mut grad_input = Tensor::zeros(input.shape().to_vec());
        let k = conv.kernel;
        let in_data = input.data();
        let go = grad_output.data();
        let gw = conv.weight.grad.data_mut();
        let gb = conv.bias.grad.data_mut();
        let gi = grad_input.data_mut();
        for b in 0..batch {
            for oc in 0..conv.out_channels {
                for y in 0..oh {
                    for x in 0..ow {
                        let g = go[((b * conv.out_channels + oc) * oh + y) * ow + x];
                        if g == 0.0 {
                            continue;
                        }
                        gb[oc] += g;
                        for ic in 0..conv.in_channels {
                            for kh in 0..k {
                                let iy = (y * conv.stride + kh) as isize - conv.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let ix =
                                        (x * conv.stride + kw) as isize - conv.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let in_idx = ((b * conv.in_channels + ic) * h + iy as usize)
                                        * w
                                        + ix as usize;
                                    let w_idx = ((oc * conv.in_channels + ic) * k + kh) * k + kw;
                                    gw[w_idx] += in_data[in_idx] * g;
                                    gi[in_idx] += conv.weight.value.data()[w_idx] * g;
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The reordered kernels reproduce the direct loops bit for bit:
        /// forward output, input grad, and weight and bias grads accumulated
        /// onto non-zero (and signed-zero) prior grads, under upstream grads
        /// that are often exactly zero, sometimes against an infinite weight.
        #[test]
        fn kernels_match_the_direct_loops_bit_for_bit(
            in_channels in 1usize..6,
            out_channels in 1usize..19,
            kernel in 1usize..5,
            stride in 1usize..4,
            padding in 0usize..3,
            batch in 1usize..4,
            h_extra in 0usize..9,
            w_extra in 0usize..9,
            grad_zeros in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            // Any size from 1 up whose padded extent fits the kernel.
            let h = (kernel + h_extra).saturating_sub(2 * padding).max(1);
            let w = (kernel + w_extra).saturating_sub(2 * padding).max(1);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut conv = Conv2d::new(in_channels, out_channels, kernel, stride, padding, seed);
            maybe_infinite(&mut rng, conv.weight.value.data_mut());
            conv.bias.value =
                Tensor::from_vec(values(&mut rng, out_channels, 0.2), vec![out_channels]);
            let weight_shape = conv.weight.value.shape().to_vec();
            let weight_len = conv.weight.value.len();
            conv.weight.grad = Tensor::from_vec(values(&mut rng, weight_len, 0.3), weight_shape);
            conv.bias.grad =
                Tensor::from_vec(values(&mut rng, out_channels, 0.3), vec![out_channels]);
            let x_shape = vec![batch, in_channels, h, w];
            let x = Tensor::from_vec(values(&mut rng, x_shape.iter().product(), 0.3), x_shape);
            let mut oracle = conv.clone();

            let y = conv.forward(&x, true);
            prop_assert_eq!(bits(&y), bits(&reference_forward(&oracle, &x)));

            let g = Tensor::from_vec(values(&mut rng, y.len(), grad_zeros), y.shape().to_vec());
            let gi = conv.backward(&g);
            let gi_oracle = reference_backward(&mut oracle, &x, &g);
            prop_assert_eq!(bits(&gi), bits(&gi_oracle));
            prop_assert_eq!(bits(&conv.weight.grad), bits(&oracle.weight.grad));
            prop_assert_eq!(bits(&conv.bias.grad), bits(&oracle.bias.grad));
        }

        /// `backward_parameters` accumulates the weight and bias grads of
        /// `backward` bit for bit, for a convolution (and the direct loop),
        /// a linear layer and networks that start with either: onto
        /// non-zero (and signed-zero) prior grads, under upstream grads
        /// that are often exactly zero, sometimes against infinite weights.
        #[test]
        fn parameter_only_backward_matches_backward_bit_for_bit(
            in_channels in 1usize..4,
            out_channels in 1usize..12,
            kernel in 1usize..4,
            stride in 1usize..3,
            padding in 0usize..2,
            batch in 1usize..4,
            h_extra in 0usize..6,
            w_extra in 0usize..6,
            features in 1usize..12,
            grad_zeros in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let h = (kernel + h_extra).saturating_sub(2 * padding).max(1);
            let w = (kernel + w_extra).saturating_sub(2 * padding).max(1);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let conv = Conv2d::new(in_channels, out_channels, kernel, stride, padding, seed);
            let x_shape = vec![batch, in_channels, h, w];
            let x = Tensor::from_vec(values(&mut rng, x_shape.iter().product(), 0.3), x_shape);
            let (oh, ow) = conv.output_size(h, w);
            let flat = out_channels * oh * ow;

            let mut conv_first = Sequential::new();
            conv_first.push(conv.clone());
            conv_first.push(ReLU::new());
            conv_first.push(Flatten::new());
            conv_first.push(Linear::new(flat, features, seed ^ 1));
            let mut linear_first = Sequential::new();
            linear_first.push(Linear::new(in_channels * h * w, features, seed ^ 2));
            linear_first.push(ReLU::new());
            linear_first.push(Linear::new(features, out_channels, seed ^ 3));
            let flat_x = x.reshape(vec![batch, in_channels * h * w]);

            // The convolution against the direct loop, too.
            let mut conv_only = conv.clone();
            randomise(&mut conv_only, &mut rng);
            let mut oracle = conv_only.clone();
            let y = conv_only.forward(&x, true);
            let g = Tensor::from_vec(values(&mut rng, y.len(), grad_zeros), y.shape().to_vec());
            conv_only.backward_parameters(&g);
            reference_backward(&mut oracle, &x, &g);
            prop_assert_eq!(grad_bits(&mut conv_only), grad_bits(&mut oracle));

            let linear = Linear::new(in_channels * h * w, features, seed);
            let (only, full) = both_backwards(conv, &x, grad_zeros, &mut rng);
            prop_assert_eq!(only, full, "conv");
            let (only, full) = both_backwards(linear, &flat_x, grad_zeros, &mut rng);
            prop_assert_eq!(only, full, "linear");
            let (only, full) = both_backwards(conv_first, &x, grad_zeros, &mut rng);
            prop_assert_eq!(only, full, "conv-first network");
            let (only, full) = both_backwards(linear_first, &flat_x, grad_zeros, &mut rng);
            prop_assert_eq!(only, full, "linear-first network");
        }
    }

    /// The bit patterns of every parameter grad, in visit order.
    fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
        let mut grads = Vec::new();
        layer.visit_parameters(&mut |p| grads.push(bits(&p.grad)));
        grads
    }

    /// Gives every parameter non-zero (and signed-zero) prior grads and, in
    /// a quarter of the cases, an infinite weight.
    fn randomise(layer: &mut dyn Layer, rng: &mut ChaCha8Rng) {
        layer.visit_parameters(&mut |p| {
            maybe_infinite(rng, p.value.data_mut());
            let prior = values(rng, p.grad.len(), 0.3);
            p.grad = Tensor::from_vec(prior, p.grad.shape().to_vec());
        });
    }

    /// Randomises `layer`, then runs `backward_parameters` on it and
    /// `backward` on a copy under one random upstream grad; returns both
    /// copies' [`grad_bits`].
    fn both_backwards(
        mut layer: impl Layer + Clone,
        input: &Tensor,
        grad_zeros: f64,
        rng: &mut ChaCha8Rng,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        randomise(&mut layer, rng);
        let mut full = layer.clone();
        let y = layer.forward(input, true);
        full.forward(input, true);
        let g = Tensor::from_vec(values(rng, y.len(), grad_zeros), y.shape().to_vec());
        layer.backward_parameters(&g);
        full.backward(&g);
        (grad_bits(&mut layer), grad_bits(&mut full))
    }

    #[test]
    fn from_parameters_uses_the_given_tensors() {
        let weight = Tensor::from_vec((0..2 * 3 * 9).map(|v| v as f32).collect(), vec![2, 3, 3, 3]);
        let bias = Tensor::from_vec(vec![0.5, -0.5], vec![2]);
        let mut conv = Conv2d::from_parameters(weight.clone(), bias.clone(), 2, 1);
        assert_eq!(conv.output_size(8, 8), (4, 4));
        let mut seen = Vec::new();
        conv.visit_parameters(&mut |p| seen.push(p.value.clone()));
        assert_eq!(seen, vec![weight, bias]);
    }

    #[test]
    #[should_panic(expected = "convolution bias shape")]
    fn from_parameters_rejects_a_mismatched_bias() {
        Conv2d::from_parameters(
            Tensor::zeros(vec![2, 1, 3, 3]),
            Tensor::zeros(vec![3]),
            1,
            0,
        );
    }

    #[test]
    fn output_shape_follows_stride_and_padding() {
        let conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        assert_eq!(conv.output_size(8, 8), (8, 8));
        let strided = Conv2d::new(1, 1, 3, 2, 1, 0);
        assert_eq!(strided.output_size(8, 8), (4, 4));
        let valid = Conv2d::new(1, 1, 3, 1, 0, 0);
        assert_eq!(valid.output_size(8, 8), (6, 6));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 0);
        conv.weight.value = Tensor::from_vec(vec![1.0], vec![1, 1, 1, 1]);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), vec![1, 1, 4, 4]);
        let y = conv.forward(&x, false);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn averaging_kernel_computes_local_means() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, 0);
        conv.weight.value = Tensor::full(vec![1, 1, 3, 3], 1.0 / 9.0);
        let x = Tensor::full(vec![1, 1, 5, 5], 2.0);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 3, 3]);
        for &v in y.data() {
            assert!((v - 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 11);
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4)
                .map(|v| (v as f32 * 0.17).sin())
                .collect(),
            vec![2, 2, 4, 4],
        );
        let y = conv.forward(&x, true);
        let grad_in = conv.backward(&Tensor::full(y.shape().to_vec(), 1.0));

        let eps = 1e-2;
        for &i in &[0usize, 5, 17, 31, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut probe = conv.clone();
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
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, 5);
        let x = Tensor::from_vec(
            (0..5 * 5).map(|v| (v as f32 * 0.31).cos()).collect(),
            vec![1, 1, 5, 5],
        );
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::full(y.shape().to_vec(), 1.0));
        let analytic = conv.weight.grad.clone();

        let eps = 1e-2;
        for &i in &[0usize, 4, 9, 13, 17] {
            let mut plus = conv.clone();
            plus.weight.value.data_mut()[i] += eps;
            let mut minus = conv.clone();
            minus.weight.value.data_mut()[i] -= eps;
            let lp = plus.forward(&x, false).sum();
            let lm = minus.forward(&x, false).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic.data()[i] - numeric).abs() < 5e-2,
                "dW[{i}]: analytic {} vs numeric {}",
                analytic.data()[i],
                numeric
            );
        }
    }

    #[test]
    fn bias_gradient_counts_output_elements() {
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        let x = Tensor::zeros(vec![2, 1, 4, 4]);
        let y = conv.forward(&x, true);
        conv.backward(&Tensor::full(y.shape().to_vec(), 1.0));
        // dL/db sums the gradient over batch and spatial dims: 2*4*4 = 32.
        assert_eq!(conv.bias.grad.data()[0], 32.0);
    }

    #[test]
    fn parameter_count_is_correct() {
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        assert_eq!(conv.parameter_count(), 8 * 3 * 3 * 3 + 8);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_channel_count_panics() {
        let mut conv = Conv2d::new(2, 1, 3, 1, 1, 0);
        conv.forward(&Tensor::zeros(vec![1, 3, 4, 4]), false);
    }
}
