//! Tensor shapes and index arithmetic.
//!
//! Tensors in this crate are dense, contiguous and row-major. A [`Shape`] is
//! a small inline list of dimension extents (rank ≤ 4 covers everything a
//! transformer needs: `[tokens, hidden]`, `[batch, tokens, hidden]`,
//! `[heads, tokens, tokens]`, ...).

/// Maximum tensor rank supported by this crate.
pub const MAX_RANK: usize = 4;

/// A dense row-major tensor shape (rank ≤ [`MAX_RANK`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Creates a shape from a slice of extents.
    ///
    /// # Panics
    /// Panics if `dims.len() > MAX_RANK`.
    pub fn new(dims: &[usize]) -> Self {
        assert!(
            dims.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK {}",
            dims.len(),
            MAX_RANK
        );
        let mut d = [1usize; MAX_RANK];
        d[..dims.len()].copy_from_slice(dims);
        Shape {
            dims: d,
            rank: dims.len() as u8,
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Extent of dimension `i`.
    #[inline]
    pub fn dim(&self, i: usize) -> usize {
        assert!(i < self.rank(), "dim {} out of rank {}", i, self.rank());
        self.dims[i]
    }

    /// The extents as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank()]
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Row-major strides (in elements) for this shape.
    pub fn strides(&self) -> [usize; MAX_RANK] {
        let mut s = [1usize; MAX_RANK];
        let r = self.rank();
        if r > 0 {
            for i in (0..r - 1).rev() {
                s[i] = s[i + 1] * self.dims[i + 1];
            }
        }
        s
    }

    /// Linear offset of a multi-dimensional index.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank());
        let strides = self.strides();
        idx.iter().zip(strides.iter()).map(|(i, s)| i * s).sum()
    }

    /// True if both shapes have identical rank and extents.
    #[inline]
    pub fn same(&self, other: &Shape) -> bool {
        self == other
    }

    /// Interprets the shape as 2-D `[rows, cols]`, folding any leading
    /// dimensions into `rows`. A rank-1 shape becomes `[1, n]`.
    pub fn as_2d(&self) -> (usize, usize) {
        match self.rank() {
            0 => (1, 1),
            1 => (1, self.dims[0]),
            r => {
                let cols = self.dims[r - 1];
                (self.numel() / cols, cols)
            }
        }
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_dims() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(s.dims(), &[2, 3, 4]);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(&s.strides()[..3], &[12, 4, 1]);
    }

    #[test]
    fn offset_matches_manual() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[1, 2, 3]), 12 + 8 + 3);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.as_2d(), (1, 1));
    }

    #[test]
    fn as_2d_folds_leading() {
        assert_eq!(Shape::new(&[2, 3, 4]).as_2d(), (6, 4));
        assert_eq!(Shape::new(&[5]).as_2d(), (1, 5));
        assert_eq!(Shape::new(&[7, 9]).as_2d(), (7, 9));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn rank_limit_enforced() {
        let _ = Shape::new(&[1, 2, 3, 4, 5]);
    }
}
