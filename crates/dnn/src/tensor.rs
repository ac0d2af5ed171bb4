//! Dense `f32` tensors with explicit shapes.
//!
//! The substrate only needs single-sample tensors: `[C, H, W]` feature maps
//! and `[N]` vectors. Indexing is row-major (last dimension fastest).

/// Error returned when a shape and a data length disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    expected: usize,
    actual: usize,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shape expects {} elements but data has {}",
            self.expected, self.actual
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor of the given shape.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Builds a tensor from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `data.len()` does not equal the shape's
    /// element count.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self, ShapeError> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(ShapeError {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The tensor's shape.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a 3-D index of a `[C, H, W]` tensor.
    #[inline]
    #[must_use]
    pub fn at3(&self, c: usize, h: usize, w: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 3);
        let (hh, ww) = (self.shape[1], self.shape[2]);
        debug_assert!(c < self.shape[0] && h < hh && w < ww);
        self.data[(c * hh + h) * ww + w]
    }

    /// Sets the element at a 3-D index of a `[C, H, W]` tensor.
    #[inline]
    pub fn set3(&mut self, c: usize, h: usize, w: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 3);
        let (hh, ww) = (self.shape[1], self.shape[2]);
        debug_assert!(c < self.shape[0] && h < hh && w < ww);
        self.data[(c * hh + h) * ww + w] = v;
    }

    /// Adds to the element at a 3-D index of a `[C, H, W]` tensor.
    #[inline]
    pub fn add3(&mut self, c: usize, h: usize, w: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 3);
        let (hh, ww) = (self.shape[1], self.shape[2]);
        self.data[(c * hh + h) * ww + w] += v;
    }

    /// Element at a 4-D index of a `[O, I, Kh, Kw]` tensor (conv weights).
    #[inline]
    #[must_use]
    pub fn at4(&self, o: usize, i: usize, kh: usize, kw: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 4);
        let (ii, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((o * ii + i) * hh + kh) * ww + kw]
    }

    /// Adds to the element at a 4-D index.
    #[inline]
    pub fn add4(&mut self, o: usize, i: usize, kh: usize, kw: usize, v: f32) {
        debug_assert_eq!(self.shape.len(), 4);
        let (ii, hh, ww) = (self.shape[1], self.shape[2], self.shape[3]);
        self.data[((o * ii + i) * hh + kh) * ww + kw] += v;
    }

    /// Returns a reshaped copy sharing the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the new shape's element count differs.
    #[must_use]
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        let expected: usize = shape.iter().product();
        assert_eq!(expected, self.data.len(), "reshape element count mismatch");
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Largest absolute value (0.0 for empty tensors).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    #[must_use]
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax of empty tensor");
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Element-wise map into a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place AXPY: `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sets every element to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.len(), 24);
        assert!(!t.is_empty());
        assert_eq!(t.max_abs(), 0.0);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(&[2, 2], vec![1.0; 3]).unwrap_err();
        assert!(err.to_string().contains("4 elements"));
    }

    #[test]
    fn indexing_3d_row_major() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t.set3(1, 0, 1, 5.0);
        assert_eq!(t.at3(1, 0, 1), 5.0);
        assert_eq!(t.data()[5], 5.0); // (1*2 + 0)*2 + 1
        t.add3(1, 0, 1, 1.0);
        assert_eq!(t.at3(1, 0, 1), 6.0);
    }

    #[test]
    fn indexing_4d() {
        let mut t = Tensor::zeros(&[2, 3, 2, 2]);
        t.add4(1, 2, 1, 0, 7.0);
        assert_eq!(t.at4(1, 2, 1, 0), 7.0);
    }

    #[test]
    fn reshape_and_argmax() {
        let t = Tensor::from_vec(&[4], vec![0.0, 3.0, -1.0, 3.0]).unwrap();
        assert_eq!(t.argmax(), 1); // first on ties
        let r = t.reshaped(&[2, 2]);
        assert_eq!(r.shape(), &[2, 2]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    #[should_panic(expected = "element count mismatch")]
    fn reshape_rejects_bad_count() {
        let _ = Tensor::zeros(&[4]).reshaped(&[3]);
    }

    #[test]
    fn map_axpy_zero() {
        let a = Tensor::from_vec(&[3], vec![1.0, -2.0, 3.0]).unwrap();
        let b = a.map(|x| x * 2.0);
        assert_eq!(b.data(), &[2.0, -4.0, 6.0]);
        let mut c = Tensor::zeros(&[3]);
        c.axpy(0.5, &b);
        assert_eq!(c.data(), &[1.0, -2.0, 3.0]);
        c.fill_zero();
        assert_eq!(c.max_abs(), 0.0);
        assert_eq!(a.max_abs(), 3.0);
    }
}
