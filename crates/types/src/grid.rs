//! A small dense row-major 2-D array of `f64`.
//!
//! Decision variables in the model are naturally matrices indexed by
//! (data center, job type) or (data center, server class) — e.g. the routing
//! matrix `r_{i,j}(t)`. [`Grid`] provides exactly the operations the
//! schedulers and the simulator need without pulling in a linear-algebra
//! dependency.

use core::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64` used for the decision fields
/// `r_{i,j}`, `h_{i,j}` and `b_{i,k}`.
///
/// # Example
/// ```
/// use grefar_types::Grid;
///
/// let mut g = Grid::zeros(2, 3);
/// g[(1, 2)] = 4.5;
/// assert_eq!(g[(1, 2)], 4.5);
/// assert_eq!(g.row(1), &[0.0, 0.0, 4.5]);
/// assert_eq!(g.sum(), 4.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Grid {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Grid {
    /// Creates a `rows × cols` grid filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a grid from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "grid data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Sum of the entries in row `r`.
    pub fn row_sum(&self, r: usize) -> f64 {
        self.row(r).iter().sum()
    }

    /// Sum of the entries in column `c`.
    ///
    /// # Panics
    /// Panics if `c >= cols`.
    pub fn col_sum(&self, c: usize) -> f64 {
        assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).sum()
    }

    /// The underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Sets every entry to zero, keeping the shape.
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Elementwise `self += alpha * other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Grid) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "grid shape mismatch in axpy"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Linear interpolation towards `other`: `self = (1 - theta) * self + theta * other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn lerp(&mut self, theta: f64, other: &Grid) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "grid shape mismatch in lerp"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a = (1.0 - theta) * *a + theta * b;
        }
    }

    /// Dot product of the two grids seen as flat vectors.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn dot(&self, other: &Grid) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "grid shape mismatch in dot"
        );
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Maximum absolute entry (0 for an empty grid).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Returns `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl Index<(usize, usize)> for Grid {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Grid {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape() {
        let g = Grid::zeros(3, 4);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.sum(), 0.0);
    }

    #[test]
    fn index_roundtrip() {
        let mut g = Grid::zeros(2, 2);
        g[(0, 1)] = 1.0;
        g[(1, 0)] = 2.0;
        assert_eq!(g[(0, 1)], 1.0);
        assert_eq!(g[(1, 0)], 2.0);
        assert_eq!(g.sum(), 3.0);
    }

    #[test]
    fn row_and_col_sums() {
        let g = Grid::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(g.row_sum(0), 6.0);
        assert_eq!(g.row_sum(1), 15.0);
        assert_eq!(g.col_sum(0), 5.0);
        assert_eq!(g.col_sum(2), 9.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_length() {
        let _ = Grid::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn axpy_and_lerp() {
        let mut a = Grid::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Grid::from_vec(1, 2, vec![10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.lerp(1.0, &b);
        assert_eq!(a.as_slice(), &[10.0, 20.0]);
    }

    #[test]
    fn dot_and_max_abs() {
        let a = Grid::from_vec(1, 3, vec![1.0, -4.0, 2.0]);
        let b = Grid::from_vec(1, 3, vec![2.0, 1.0, 0.5]);
        assert_eq!(a.dot(&b), -1.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn clear_resets() {
        let mut g = Grid::from_vec(1, 2, vec![1.0, 2.0]);
        g.clear();
        assert_eq!(g.sum(), 0.0);
        assert_eq!(g.cols(), 2);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut g = Grid::zeros(1, 1);
        assert!(g.is_finite());
        g[(0, 0)] = f64::NAN;
        assert!(!g.is_finite());
    }
}
