//! Small dense matrices.
//!
//! Row-major `Vec<f64>` storage with exactly the operations the estimators
//! need: arithmetic, transpose, matrix powers, Gauss-Jordan inversion with
//! partial pivoting, and quadratic forms. Dimensions here are tiny (the
//! state of an `h = 3` tracker is 8-dimensional), so clarity beats
//! cleverness.

use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows.
    ///
    /// # Panics
    /// Panics when the rows are ragged or empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "no rows");
        let cols = rows[0].len();
        assert!(cols > 0, "empty rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying data as a flat row-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Scales every element.
    pub fn scale(&self, k: f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    /// Matrix power `selfⁿ` (square matrices; `n = 0` gives identity).
    pub fn pow(&self, n: u32) -> Mat {
        assert_eq!(self.rows, self.cols, "pow needs a square matrix");
        let mut result = Mat::identity(self.rows);
        let mut base = self.clone();
        let mut e = n;
        while e > 0 {
            if e & 1 == 1 {
                result = &result * &base;
            }
            base = &base * &base;
            e >>= 1;
        }
        result
    }

    /// Inverse via Gauss-Jordan elimination with partial pivoting, or
    /// `None` when singular (pivot below `1e-12` of the row scale).
    pub fn inverse(&self) -> Option<Mat> {
        assert_eq!(self.rows, self.cols, "inverse needs a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Mat::identity(n);
        for col in 0..n {
            // Partial pivot: the largest |value| in this column at/below row.
            let mut pivot_row = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                if a[(r, col)].abs() > best {
                    best = a[(r, col)].abs();
                    pivot_row = r;
                }
            }
            if best < 1e-12 {
                return None;
            }
            if pivot_row != col {
                for j in 0..n {
                    a.data.swap(col * n + j, pivot_row * n + j);
                    inv.data.swap(col * n + j, pivot_row * n + j);
                }
            }
            let p = a[(col, col)];
            for j in 0..n {
                a[(col, j)] /= p;
                inv[(col, j)] /= p;
            }
            for r in 0..n {
                if r == col {
                    continue;
                }
                let f = a[(r, col)];
                if f == 0.0 {
                    continue;
                }
                for j in 0..n {
                    a[(r, j)] -= f * a[(col, j)];
                    inv[(r, j)] -= f * inv[(col, j)];
                }
            }
        }
        Some(inv)
    }

    /// Determinant of a 2×2 matrix.
    pub fn det2(&self) -> f64 {
        assert_eq!((self.rows, self.cols), (2, 2), "det2 needs a 2×2 matrix");
        self[(0, 0)] * self[(1, 1)] - self[(0, 1)] * self[(1, 0)]
    }

    /// Quadratic form `xᵀ·self·x` for a square matrix.
    pub fn quad_form(&self, x: &[f64]) -> f64 {
        assert_eq!(self.rows, self.cols);
        assert_eq!(x.len(), self.rows);
        let mut acc = 0.0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                acc += x[i] * self[(i, j)] * x[j];
            }
        }
        acc
    }

    /// Extracts the square submatrix with the given top-left corner and
    /// size.
    pub fn block(&self, top: usize, left: usize, size: usize) -> Mat {
        assert!(top + size <= self.rows && left + size <= self.cols);
        let mut out = Mat::zeros(size, size);
        for i in 0..size {
            for j in 0..size {
                out[(i, j)] = self[(top + i, left + j)];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Multiplies `self · v` for a vector `v`, returning a vector.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        out
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl Mul for &Mat {
    type Output = Mat;
    fn mul(self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in mul");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let v = self[(i, k)];
                if v == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += v * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_mul() {
        let i = Mat::identity(3);
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 10.0]]);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
    }

    #[test]
    fn mul_known_result() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn inverse_known_2x2() {
        let a = Mat::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.inverse().unwrap();
        let prod = &a * &inv;
        let err = (&prod - &Mat::identity(2)).frobenius();
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn inverse_of_singular_is_none() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn inverse_needs_pivoting() {
        // Zero on the diagonal requires row swaps.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let inv = a.inverse().unwrap();
        assert_eq!(inv, a);
    }

    #[test]
    fn inverse_random_5x5() {
        // A diagonally dominant matrix is always invertible.
        let n = 5;
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = ((i * 7 + j * 3) % 11) as f64 * 0.1;
            }
            a[(i, i)] += 5.0;
        }
        let inv = a.inverse().unwrap();
        let err = (&(&a * &inv) - &Mat::identity(n)).frobenius();
        assert!(err < 1e-9, "err {err}");
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = Mat::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let p5 = a.pow(5);
        assert_eq!(p5, Mat::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]));
        assert_eq!(a.pow(0), Mat::identity(2));
    }

    #[test]
    fn quad_form_and_det() {
        let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        assert_eq!(a.quad_form(&[1.0, 2.0]), 2.0 + 12.0);
        assert_eq!(a.det2(), 6.0);
    }

    #[test]
    fn block_extraction() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        let b = a.block(0, 0, 2);
        assert_eq!(b, Mat::from_rows(&[&[1.0, 2.0], &[4.0, 5.0]]));
        let c = a.block(1, 1, 2);
        assert_eq!(c, Mat::from_rows(&[&[5.0, 6.0], &[8.0, 9.0]]));
    }

    #[test]
    fn mul_vec_matches_mat_mul() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = a.mul_vec(&[5.0, 6.0]);
        assert_eq!(v, vec![17.0, 39.0]);
    }
}
