//! Dense `f32` tensors.

use crate::shape::Shape;
use crate::{Result, TensorError};

/// A dense, contiguous, row-major `f32` tensor.
///
/// Storage is a plain `Vec<f32>`; cloning copies the data. The STRONGHOLD
/// runtime moves tensors between simulated memory spaces by copying their
/// backing slices, mirroring `tensor.copy_()` in the original implementation
/// (Section III-E3).
///
/// # Examples
///
/// ```
/// use stronghold_tensor::Tensor;
///
/// let mut t = Tensor::zeros([2, 3]);
/// *t.at_mut(&[1, 2]) = 7.0;
/// assert_eq!(t.at(&[1, 2]), 7.0);
/// assert_eq!(t.numel(), 6);
/// assert_eq!(t.nbytes(), 24);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor from raw data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Tensor { shape, data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Size of the backing storage in bytes.
    #[inline]
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Immutable view of the backing data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != self.shape.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                detail: format!("{} -> {}", self.shape, shape),
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Copies `src`'s contents into this tensor (shapes must match).
    ///
    /// This is the analogue of PyTorch's `tensor.copy_()`, used by the
    /// buffer pool when recycling device buffers.
    pub fn copy_from(&mut self, src: &Tensor) -> Result<()> {
        if !self.shape.same(src.shape()) {
            return Err(TensorError::ShapeMismatch {
                op: "copy_from",
                detail: format!("{} <- {}", self.shape, src.shape),
            });
        }
        self.data.copy_from_slice(&src.data);
        Ok(())
    }

    /// Reshapes in place to `shape`, reusing the backing allocation
    /// (growing it only when needed). Retained elements keep their old
    /// values and grown elements are zero; callers are expected to
    /// overwrite the contents. This is the workhorse of the scratch
    /// buffer pool — steady-state reuse performs no allocation.
    pub fn reset_for(&mut self, shape: impl Into<Shape>) {
        let shape = shape.into();
        self.data.resize(shape.numel(), 0.0);
        self.shape = shape;
    }

    /// Fills the tensor with zeros in place.
    pub fn zero_(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Returns the maximum absolute difference to another tensor.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert!(self.shape.same(other.shape()));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Sum of all elements (sequential, deterministic order).
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// True if all elements are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor({}, {} elems", self.shape, self.numel())?;
        if self.numel() <= 8 {
            write!(f, ", {:?}", self.data)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full([2, 2], 3.5);
        assert!(f.data().iter().all(|&x| x == 3.5));
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros([2, 3]);
        *t.at_mut(&[1, 2]) = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.at(&[2, 1]), 6.0);
    }

    #[test]
    fn reshape_bad_numel_fails() {
        let t = Tensor::zeros([2, 3]);
        assert!(t.reshape([4, 2]).is_err());
    }

    #[test]
    fn copy_from_matches() {
        let src = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let mut dst = Tensor::zeros([2, 2]);
        dst.copy_from(&src).unwrap();
        assert_eq!(dst, src);
    }

    #[test]
    fn copy_from_shape_mismatch() {
        let src = Tensor::zeros([2, 2]);
        let mut dst = Tensor::zeros([4]);
        assert!(dst.copy_from(&src).is_err());
    }

    #[test]
    fn norms_and_stats() {
        let t = Tensor::from_vec([4], vec![3., 4., 0., 0.]);
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.mean(), 1.75);
        assert!(t.all_finite());
        let bad = Tensor::from_vec([1], vec![f32::NAN]);
        assert!(!bad.all_finite());
    }

    #[test]
    fn nbytes() {
        assert_eq!(Tensor::zeros([10]).nbytes(), 40);
    }
}
