//! Dense, row-major matrix and vector kernels.
//!
//! The Sizey model pool only ever deals with small, dense systems (the
//! linear model's normal equations, a handful of feature columns wide), so a
//! contiguous row-major layout solved by Gaussian elimination is sufficient.

use std::fmt;

/// A dense, row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Errors produced by matrix kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected shape relationship.
        expected: String,
        /// Human-readable description of what was provided.
        got: String,
    },
    /// The system matrix is singular (or numerically indistinguishable from singular).
    Singular,
    /// An empty matrix was provided where data is required.
    Empty,
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::Empty => write!(f, "matrix is empty"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Solves the linear system `self * x = b` for square `self` using
    /// Gaussian elimination with partial pivoting.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::ShapeMismatch {
                expected: "square matrix".to_string(),
                got: format!("{}x{}", self.rows, self.cols),
            });
        }
        if self.rows != b.len() {
            return Err(MatrixError::ShapeMismatch {
                expected: format!("rhs of length {}", self.rows),
                got: format!("length {}", b.len()),
            });
        }
        let n = self.rows;
        if n == 0 {
            return Err(MatrixError::Empty);
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivoting: find the row with the largest absolute value
            // in this column at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-12 {
                return Err(MatrixError::Singular);
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for c in (col + 1)..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }

        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for c in (col + 1)..n {
                sum -= a[col * n + c] * x[c];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }

    /// Adds `lambda` to every diagonal element (in place). Used for ridge
    /// regularisation of Gram matrices.
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Squared Euclidean distance between two equally sized slices.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps
    }

    fn from_rows(rows: &[[f64; 2]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), 2);
        for (r, row) in rows.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!((m.rows, m.cols), (3, 4));
        assert!(m.data.iter().all(|&v| v == 0.0));
        assert_eq!(m[(2, 3)], 0.0);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = from_rows(&[[4.0, 1.0], [1.0, 3.0]]);
        // b = A · [1, 2]
        let x = a.solve(&[6.0, 7.0]).unwrap();
        assert!(approx_eq(x[0], 1.0, 1e-9));
        assert!(approx_eq(x[1], 2.0, 1e-9));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero on the diagonal forces a row swap.
        let a = from_rows(&[[0.0, 1.0], [2.0, 1.0]]);
        let b = vec![1.0, 3.0];
        let x = a.solve(&b).unwrap();
        assert!(approx_eq(x[0], 1.0, 1e-9));
        assert!(approx_eq(x[1], 1.0, 1e-9));
    }

    #[test]
    fn solve_detects_singular_matrix() {
        let a = from_rows(&[[1.0, 2.0], [2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(MatrixError::Singular));
    }

    #[test]
    fn solve_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(MatrixError::ShapeMismatch { .. })
        ));
        assert_eq!(Matrix::zeros(0, 0).solve(&[]), Err(MatrixError::Empty));
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut m = Matrix::zeros(3, 3);
        m.add_diagonal(2.5);
        assert_eq!(m[(0, 0)], 2.5);
        assert_eq!(m[(1, 1)], 2.5);
        assert_eq!(m[(0, 1)], 0.0);
    }

    #[test]
    fn squared_distance_matches_hand_computation() {
        assert_eq!(squared_distance(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 27.0);
        assert_eq!(squared_distance(&[], &[]), 0.0);
    }
}
