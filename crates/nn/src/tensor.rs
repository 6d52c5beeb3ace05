//! Dense row-major `f32` tensors.

/// A dense, row-major tensor of `f32` values.
///
/// Shapes are dynamic (a `Vec<usize>`); the layers in this crate use rank-2
/// tensors (`[batch, features]`) and rank-4 tensors
/// (`[batch, channels, height, width]`).
///
/// # Examples
///
/// ```
/// use rlp_nn::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
/// assert_eq!(t.get(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Vec<usize>) -> Self {
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with a constant value.
    pub fn full(shape: Vec<usize>, value: f32) -> Self {
        let len = shape.iter().product();
        Self {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: Vec<usize>) -> Self {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "tensor data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self { shape, data }
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of the same total size.
    ///
    /// # Panics
    ///
    /// Panics if the total number of elements differs.
    pub fn reshape(&self, shape: Vec<usize>) -> Tensor {
        let expected: usize = shape.iter().product();
        assert_eq!(self.data.len(), expected, "reshape size mismatch");
        Tensor {
            shape,
            data: self.data.clone(),
        }
    }

    /// Flattened index of a multi-dimensional index.
    fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (i, (&idx, &dim)) in index.iter().zip(self.shape.iter()).enumerate() {
            assert!(
                idx < dim,
                "index {idx} out of bounds for axis {i} (size {dim})"
            );
            off = off * dim + idx;
        }
        off
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.offset(index);
        self.data[off] = value;
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|v| *v = value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (zero for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "add: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// In-place element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise subtraction `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Element-wise multiplication (Hadamard product).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "mul: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Multiplication by a scalar.
    pub fn scale(&self, factor: f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// Applies a function to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Matrix multiplication of two rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not rank 2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul: lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul: rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul: inner dimension mismatch ({k} vs {k2})");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                let row = &other.data[p * n..(p + 1) * n];
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose: tensor must be rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data,
        }
    }

    /// Adds a rank-1 bias to every row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "add_row_broadcast: lhs must be rank 2");
        assert_eq!(
            bias.shape.len(),
            1,
            "add_row_broadcast: bias must be rank 1"
        );
        assert_eq!(self.shape[1], bias.shape[0], "bias length mismatch");
        let n = self.shape[1];
        let data = self
            .data
            .iter()
            .enumerate()
            .map(|(i, &v)| v + bias.data[i % n])
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Sums a rank-2 tensor over its rows, producing a rank-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "sum_rows: tensor must be rank 2");
        let n = self.shape[1];
        let mut data = vec![0.0f32; n];
        for row in self.data.chunks_exact(n) {
            for (acc, &value) in data.iter_mut().zip(row) {
                *acc += value;
            }
        }
        Tensor {
            shape: vec![n],
            data,
        }
    }

    /// Returns one row of a rank-2 tensor as a rank-1 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the row is out of bounds.
    pub fn row(&self, row: usize) -> Tensor {
        assert_eq!(self.shape.len(), 2, "row: tensor must be rank 2");
        let n = self.shape[1];
        assert!(row < self.shape[0], "row out of bounds");
        Tensor {
            shape: vec![n],
            data: self.data[row * n..(row + 1) * n].to_vec(),
        }
    }

    /// Stacks rank-1 tensors of equal length into a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the lengths differ.
    pub fn stack_rows(rows: &[Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows: no rows given");
        let n = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * n);
        for r in rows {
            assert_eq!(r.len(), n, "stack_rows: row length mismatch");
            data.extend_from_slice(r.data());
        }
        Tensor {
            shape: vec![rows.len(), n],
            data,
        }
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.get(&[0, 0]), 1.0);
        assert_eq!(t.get(&[1, 2]), 6.0);
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn set_and_fill() {
        let mut t = Tensor::zeros(vec![2, 2]);
        t.set(&[1, 1], 7.0);
        assert_eq!(t.get(&[1, 1]), 7.0);
        t.fill(3.0);
        assert_eq!(t.data(), &[3.0; 4]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], vec![2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], vec![2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.map(|v| v * v).data(), &[1.0, 4.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[4.0, 7.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.norm_sq(), 30.0);
        assert_eq!(t.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], vec![2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let eye = Tensor::from_vec(
            vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            vec![3, 3],
        );
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![2, 3]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn broadcasting_and_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let bias = Tensor::from_vec(vec![10.0, 20.0], vec![2]);
        assert_eq!(a.add_row_broadcast(&bias).data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.row(1).data(), &[3.0, 4.0]);
        let stacked = Tensor::stack_rows(&[a.row(0), a.row(1)]);
        assert_eq!(stacked, a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], vec![2, 2]);
        let b = a.reshape(vec![4]);
        assert_eq!(b.shape(), &[4]);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_shape() {
        Tensor::from_vec(vec![1.0], vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_checks_shapes() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        a.add(&b);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_checks_inner_dims() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        a.matmul(&b);
    }
}
