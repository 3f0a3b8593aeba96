//! Dense and sparse (CSR) matrix utilities shared by the solver kernels.

use rayon::prelude::*;

/// A dense column-major matrix (LAPACK convention, as HPL uses).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate matrix");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from an element closure `f(i, j)` where `i` is the **row**
    /// and `j` the **column** index. Storage is column-major, so the
    /// closure is invoked column by column — do not rely on call order
    /// for side effects like RNG draws reproducing a row-major layout.
    ///
    /// ```
    /// use kernels::matrix::DenseMatrix;
    /// let m = DenseMatrix::from_fn(2, 3, |i, j| (10 * i + j) as f64);
    /// assert_eq!(m[(0, 1)], 1.0); // f(i, j) is (row, column) …
    /// assert_eq!(m[(1, 0)], 10.0); // … even though storage is col-major
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Matrix-vector product `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            let col = &self.data[j * self.rows..(j + 1) * self.rows];
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += aij * xj;
            }
        }
        y
    }

    /// Column slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Raw data (column-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data (column-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Max-norm of the matrix.
    pub fn max_norm(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[j * self.rows + i]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[j * self.rows + i]
    }
}

/// The operations the solver kernels (CG, multigrid) need from a sparse
/// operator, implemented by both the general [`CsrMatrix`] and the
/// structure-aware [`crate::stencil_matrix::StencilMatrix`]. The `smooth`
/// method is the operator's symmetric Gauss–Seidel sweep: sequential
/// lexicographic for CSR (the reference oracle), parallel multicolor for
/// the stencil engine.
pub trait SparseOp {
    /// Number of rows (= columns for the solvers here).
    fn n(&self) -> usize;
    /// Stored non-zeros.
    fn nnz(&self) -> usize;
    /// `y = A·x`.
    fn spmv(&self, x: &[f64], y: &mut [f64]);
    /// One symmetric Gauss–Seidel sweep updating `x` towards `A·x = r`.
    fn smooth(&self, r: &[f64], x: &mut [f64]);
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    /// Number of rows (= columns for the solvers here).
    pub n: usize,
    /// Row pointers, length `n + 1`.
    pub row_ptr: Vec<usize>,
    /// Column indices per non-zero.
    pub col_idx: Vec<usize>,
    /// Values per non-zero.
    pub values: Vec<f64>,
    /// Diagonal entries, cached at assembly (0 where a row has none) so
    /// per-sweep callers never re-scan the non-zeros.
    diag: Vec<f64>,
}

impl CsrMatrix {
    /// Assemble from triplets `(row, col, value)`; duplicate entries are
    /// summed (the FEM assembly convention).
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        assert!(n > 0, "empty matrix");
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for &(r, c, v) in triplets {
            assert!(r < n && c < n, "triplet ({r},{c}) out of range");
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(c, _)| c);
            let mut iter = row.iter().peekable();
            while let Some(&(c, v)) = iter.next() {
                let mut sum = v;
                while let Some(&&(c2, v2)) = iter.peek() {
                    if c2 == c {
                        sum += v2;
                        iter.next();
                    } else {
                        break;
                    }
                }
                col_idx.push(c);
                values.push(sum);
            }
            row_ptr.push(col_idx.len());
        }
        let diag = (0..n)
            .map(|i| {
                col_idx[row_ptr[i]..row_ptr[i + 1]]
                    .iter()
                    .position(|&c| c == i)
                    .map_or(0.0, |k| values[row_ptr[i] + k])
            })
            .collect();
        Self {
            n,
            row_ptr,
            col_idx,
            values,
            diag,
        }
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The non-zeros of one row as `(col, value)` pairs.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Sparse matrix-vector product `y = A·x`, rayon-parallel over
    /// contiguous row chunks: each task owns a span of rows (and the
    /// matching `row_ptr`/`values` range), which keeps CSR traversal
    /// streaming and amortises task overhead over hundreds of rows.
    /// Every `y[i]` is an independent ascending-`k` sum, so results are
    /// identical at any thread count or chunking.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "x dimension mismatch");
        assert_eq!(y.len(), self.n, "y dimension mismatch");
        let chunk = crate::tune::par_chunk_rows(self.n);
        y.par_chunks_mut(chunk).enumerate().for_each(|(ci, yc)| {
            let base = ci * chunk;
            for (r, yi) in yc.iter_mut().enumerate() {
                let i = base + r;
                let mut sum = 0.0;
                for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                    sum += self.values[k] * x[self.col_idx[k]];
                }
                *yi = sum;
            }
        });
    }

    /// Diagonal entries (0 where a row has no diagonal), precomputed at
    /// assembly — O(1) per call instead of an O(nnz) re-scan.
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// Check structural symmetry with matching values (tolerance `tol`).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for (j, v) in self.row(i) {
                let vt = self
                    .row(j)
                    .find(|&(c, _)| c == i)
                    .map_or(f64::NAN, |(_, v)| v);
                let symmetric = (vt - v).abs() <= tol;
                if !symmetric {
                    return false;
                }
            }
        }
        true
    }
}

impl SparseOp for CsrMatrix {
    fn n(&self) -> usize {
        self.n
    }
    fn nnz(&self) -> usize {
        CsrMatrix::nnz(self)
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::spmv(self, x, y);
    }
    fn smooth(&self, r: &[f64], x: &mut [f64]) {
        crate::cg::symgs(self, r, x);
    }
}

/// Dot product (rayon-parallel).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot dimension mismatch");
    a.par_iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y ← y + alpha·x` (axpy).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy dimension mismatch");
    y.par_iter_mut().zip(x).for_each(|(y, x)| *y += alpha * x);
}

/// Euclidean norm.
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_identity_matvec() {
        let i = DenseMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn dense_indexing_is_column_major() {
        let mut m = DenseMatrix::zeros(2, 3);
        m[(1, 2)] = 7.0;
        assert_eq!(m.data()[2 * 2 + 1], 7.0);
        assert_eq!(m.col(2)[1], 7.0);
    }

    #[test]
    fn dense_from_fn() {
        let m = DenseMatrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.max_norm(), 8.0);
    }

    #[test]
    fn csr_from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(3, &[(0, 0, 1.0), (0, 0, 2.0), (1, 2, 4.0), (2, 1, 5.0)]);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 3.0)]);
        assert_eq!(m.row(1).collect::<Vec<_>>(), vec![(2, 4.0)]);
    }

    #[test]
    fn csr_spmv_matches_dense() {
        // Tridiagonal: 2 on diagonal, -1 off.
        let n = 10;
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, i, 2.0));
            if i > 0 {
                trips.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                trips.push((i, i + 1, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, &trips);
        let dense = DenseMatrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut y = vec![0.0; n];
        a.spmv(&x, &mut y);
        let yd = dense.matvec(&x);
        for (a, b) in y.iter().zip(&yd) {
            assert!((a - b).abs() < 1e-14);
        }
        assert!(a.is_symmetric(0.0));
        assert!(a.diagonal().iter().all(|&d| d == 2.0));
    }

    #[test]
    fn asymmetric_detected() {
        let m = CsrMatrix::from_triplets(2, &[(0, 1, 1.0), (1, 0, 2.0), (0, 0, 1.0), (1, 1, 1.0)]);
        assert!(!m.is_symmetric(1e-12));
    }

    #[test]
    fn blas1_helpers() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        let mut y = b.clone();
        axpy(2.0, &a, &mut y);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_triplet_rejected() {
        CsrMatrix::from_triplets(2, &[(2, 0, 1.0)]);
    }
}
