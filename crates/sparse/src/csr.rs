//! Compressed sparse row (CSR) matrices.
//!
//! `CsrMatrix` is the storage format for DNN weight layers: one contiguous
//! `indptr`/`indices`/`values` triple, row-major. All FSD-Inference weight
//! partitions, as well as dense references used in tests, go through this
//! type.

use std::fmt;

/// A sparse matrix in CSR format with `f32` values.
///
/// Invariants (checked by [`CsrMatrix::new`], upheld by every constructor):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing,
///   `indptr[rows] == indices.len() == values.len()`;
/// * column indices within each row are strictly increasing and `< cols`.
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

/// Error produced when assembling or validating a [`CsrMatrix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `indptr` has the wrong length or is not monotone.
    BadIndptr,
    /// A column index is out of bounds or out of order within its row.
    BadColumn { row: usize, col: u32 },
    /// `indices` and `values` lengths disagree with `indptr`.
    LengthMismatch,
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::BadIndptr => write!(f, "indptr is malformed"),
            CsrError::BadColumn { row, col } => {
                write!(
                    f,
                    "column {col} in row {row} is out of bounds or out of order"
                )
            }
            CsrError::LengthMismatch => write!(f, "indices/values length mismatch"),
        }
    }
}

impl std::error::Error for CsrError {}

impl CsrMatrix {
    /// Builds a matrix from raw CSR arrays, validating all invariants.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, CsrError> {
        let m = CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Builds a matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed; zero-valued entries are kept (the sparsity
    /// pattern is structural, as in the Graph Challenge DNNs).
    // fsd_lint::allow(orphan-pub): integration-test injection surface (the matrices property tests feed in)
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (u32, u32, f32)>,
    ) -> Result<Self, CsrError> {
        let mut trips: Vec<(u32, u32, f32)> = triplets.into_iter().collect();
        trips.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(trips.len());
        let mut values = Vec::with_capacity(trips.len());
        indptr.push(0);
        let mut cur_row = 0u32;
        for (r, c, v) in trips {
            if (r as usize) >= rows {
                return Err(CsrError::BadColumn {
                    row: r as usize,
                    col: c,
                });
            }
            while cur_row < r {
                indptr.push(indices.len());
                cur_row += 1;
            }
            if let (Some(&last_c), true) = (indices.last(), indptr.last() != Some(&indices.len())) {
                if last_c == c {
                    // Duplicate coordinate: accumulate.
                    *values.last_mut().expect("values tracks indices") += v;
                    continue;
                }
            }
            indices.push(c);
            values.push(v);
        }
        while (cur_row as usize) < rows {
            indptr.push(indices.len());
            cur_row += 1;
        }
        // `rows == 0` pushes nothing above; ensure terminal entry exists.
        if indptr.len() == rows {
            indptr.push(indices.len());
        }
        CsrMatrix::new(rows, cols, indptr, indices, values)
    }

    /// Checks every CSR invariant; cheap relative to matrix construction.
    fn validate(&self) -> Result<(), CsrError> {
        if self.indptr.len() != self.rows + 1 || self.indptr[0] != 0 {
            return Err(CsrError::BadIndptr);
        }
        if self.indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(CsrError::BadIndptr);
        }
        if *self.indptr.last().expect("indptr non-empty") != self.indices.len()
            || self.indices.len() != self.values.len()
        {
            return Err(CsrError::LengthMismatch);
        }
        for r in 0..self.rows {
            let s = self.indptr[r];
            let e = self.indptr[r + 1];
            let row = &self.indices[s..e];
            for (k, &c) in row.iter().enumerate() {
                let out_of_order = k > 0 && row[k - 1] >= c;
                if (c as usize) >= self.cols || out_of_order {
                    return Err(CsrError::BadColumn { row: r, col: c });
                }
            }
        }
        Ok(())
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.indptr[r + 1] - self.indptr[r]
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let s = self.indptr[r];
        let e = self.indptr[r + 1];
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Iterates `(row, cols, vals)` over all rows, including empty ones.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[u32], &[f32])> + '_ {
        (0..self.rows).map(move |r| {
            let (c, v) = self.row(r);
            (r, c, v)
        })
    }

    /// Raw CSR parts `(indptr, indices, values)`; used by codecs.
    pub fn parts(&self) -> (&[usize], &[u32], &[f32]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Approximate heap footprint in bytes (used by the FaaS memory model).
    pub fn mem_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * 4
            + self.values.len() * 4
    }

    /// Extracts the sub-matrix of the given rows (in the given order) as a
    /// new CSR matrix with the same column space.
    pub fn select_rows(&self, rows: &[u32]) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0usize);
        let total: usize = rows.iter().map(|&r| self.row_nnz(r as usize)).sum();
        let mut indices = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        for &r in rows {
            let (c, v) = self.row(r as usize);
            indices.extend_from_slice(c);
            values.extend_from_slice(v);
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: rows.len(),
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }

    /// Densifies into a row-major `rows x cols` buffer. Test/reference use
    /// only: allocates `rows * cols` floats.
    #[cfg(test)]
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.rows * self.cols];
        for (r, cols, vals) in self.iter_rows() {
            for (&c, &v) in cols.iter().zip(vals) {
                out[r * self.cols + c as usize] = v;
            }
        }
        out
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={})",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::from_triplets(3, 3, [(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .expect("valid")
    }

    #[test]
    fn from_triplets_builds_expected_rows() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row(2), (&[0u32, 1][..], &[3.0f32, 4.0][..]));
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(1, 2, [(0, 1, 1.5), (0, 1, 2.5)]).expect("valid");
        assert_eq!(m.row(0), (&[1u32][..], &[4.0f32][..]));
    }

    #[test]
    fn from_triplets_unsorted_input() {
        let m =
            CsrMatrix::from_triplets(2, 2, [(1, 1, 4.0), (0, 0, 1.0), (1, 0, 3.0)]).expect("valid");
        assert_eq!(m.row(0), (&[0u32][..], &[1.0f32][..]));
        assert_eq!(m.row(1), (&[0u32, 1][..], &[3.0f32, 4.0][..]));
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds_row() {
        let err = CsrMatrix::from_triplets(1, 1, [(3, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, CsrError::BadColumn { .. }));
    }

    #[test]
    fn validate_rejects_out_of_bounds_column() {
        let err = CsrMatrix::new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert_eq!(err, CsrError::BadColumn { row: 0, col: 5 });
    }

    #[test]
    fn validate_rejects_unsorted_columns() {
        let err = CsrMatrix::new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, CsrError::BadColumn { .. }));
    }

    #[test]
    fn validate_rejects_bad_indptr() {
        let err = CsrMatrix::new(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).unwrap_err();
        assert_eq!(err, CsrError::BadIndptr);
        let err = CsrMatrix::new(1, 2, vec![0, 3], vec![0], vec![1.0]).unwrap_err();
        assert_eq!(err, CsrError::LengthMismatch);
    }

    #[test]
    fn shaped_empty_matrix_has_no_entries() {
        let m = CsrMatrix::from_triplets(4, 7, []).expect("valid");
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rows(), 4);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn empty_matrix_is_valid() {
        let m = CsrMatrix::from_triplets(0, 0, []).expect("valid");
        assert_eq!(m.nnz(), 0);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn select_rows_extracts_in_order() {
        let m = sample();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), (&[0u32, 1][..], &[3.0f32, 4.0][..]));
        assert_eq!(s.row(1), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
    }

    #[test]
    fn to_dense_is_row_major() {
        let d = sample().to_dense();
        assert_eq!(d, vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn mem_bytes_is_positive_and_scales() {
        let small = CsrMatrix::from_triplets(1, 1, []).expect("valid");
        let big = sample();
        assert!(big.mem_bytes() > small.mem_bytes());
    }
}
