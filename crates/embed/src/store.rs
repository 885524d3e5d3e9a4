//! Flat contiguous vector storage for the k-NN indexes.
//!
//! The seed indexes held `Vec<Vec<f32>>` — one heap allocation per vector,
//! scattered across the allocator, a pointer dereference per distance. A
//! [`VectorStore`] packs all vectors into one `Vec<f32>` with a fixed
//! stride and precomputes each row's squared L2 norm, which is what lets
//! the scan reduce every metric to a single fused dot product per row
//! (`‖q − v‖² = ‖q‖² + ‖v‖² − 2·⟨q, v⟩`).

use crate::vector::dot_unrolled;

/// Fixed-stride contiguous storage for equal-dimension vectors, with
/// precomputed squared norms.
#[derive(Debug, Clone, Default)]
pub struct VectorStore {
    data: Vec<f32>,
    norms_sq: Vec<f32>,
    dims: usize,
    len: usize,
}

impl VectorStore {
    /// Pack nested row vectors into flat storage — the one validated
    /// conversion from that layout, for a caller that genuinely holds
    /// nested rows; everything else arrives flat
    /// ([`VectorStore::from_flat`]).
    ///
    /// Dimensionality is taken from the first row; an empty input yields an
    /// empty zero-dimension store.
    ///
    /// # Panics
    /// Panics if rows have differing dimensionalities.
    // lint: allow(one-layout) — the one validated conversion from nested rows
    pub fn from_rows(rows: Vec<Vec<f32>>) -> Self {
        let dims = rows.first().map_or(0, Vec::len);
        let len = rows.len();
        // One streaming pass: copy each row into the flat buffer, take its
        // norm while the row is cache-hot, and free the row's allocation
        // immediately (`into_iter` drops it here, header still in cache) —
        // instead of a copy pass, a second full norm sweep, and a cold
        // mass-drop of 20k scattered headers at the end. The two-pass
        // build re-streamed 20 MB through a cold cache per pass and was
        // ~4× slower than the seed's nested layout at 20k × 256.
        let mut data = Vec::with_capacity(dims * len);
        let mut norms_sq = Vec::with_capacity(len);
        for row in rows {
            assert!(row.len() == dims, "all vectors must share a dimensionality");
            data.extend_from_slice(&row);
            norms_sq.push(dot_unrolled(&row, &row));
        }
        VectorStore {
            data,
            norms_sq,
            dims,
            len,
        }
    }

    /// Build from an already-flat row-major buffer (`data.len()` must be a
    /// multiple of `dims`), computing norms in one streaming pass. This is
    /// the zero-copy entry point for callers that assemble vectors
    /// directly in flat form (the IVF trainer, synthetic benchmark
    /// corpora).
    ///
    /// # Panics
    /// Panics if `dims == 0` with a non-empty buffer, or if `data.len()`
    /// is not a multiple of `dims`.
    pub fn from_flat(data: Vec<f32>, dims: usize) -> Self {
        if data.is_empty() {
            return VectorStore {
                data,
                norms_sq: Vec::new(),
                dims,
                len: 0,
            };
        }
        assert!(dims > 0, "non-empty flat buffer requires dims > 0");
        assert!(
            data.len().is_multiple_of(dims),
            "flat buffer length {} is not a multiple of dims {dims}",
            data.len()
        );
        let len = data.len() / dims;
        let norms_sq = (0..len)
            .map(|i| {
                let row = &data[i * dims..(i + 1) * dims];
                dot_unrolled(row, row)
            })
            .collect();
        VectorStore {
            data,
            norms_sq,
            dims,
            len,
        }
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored vectors (0 for an empty store).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The `i`-th stored vector.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "row {i} out of bounds (len {})", self.len);
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Precomputed squared L2 norm of the `i`-th stored vector.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn norm_sq(&self, i: usize) -> f32 {
        self.norms_sq[i]
    }

    /// Iterate over `(row, squared norm)` pairs in insertion order.
    pub fn rows(&self) -> impl Iterator<Item = (&[f32], f32)> + '_ {
        (0..self.len).map(move |i| (self.row(i), self.norms_sq[i]))
    }

    /// The backing flat buffer (row-major, `dims()` stride).
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_rows_contiguously() {
        let s = VectorStore::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dims(), 2);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[3.0, 4.0]);
        assert_eq!(s.as_flat(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.norm_sq(0), 5.0);
        assert_eq!(s.norm_sq(1), 25.0);
    }

    #[test]
    fn empty_store() {
        let s = VectorStore::from_rows(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.dims(), 0);
        assert_eq!(s.rows().count(), 0);
    }

    #[test]
    fn zero_dimension_rows_are_allowed() {
        let s = VectorStore::from_rows(vec![vec![], vec![]]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dims(), 0);
        assert_eq!(s.row(1), &[] as &[f32]);
        assert_eq!(s.norm_sq(0), 0.0);
    }

    #[test]
    fn from_flat_matches_from_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![-1.0, 0.5]];
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let a = VectorStore::from_rows(rows);
        let b = VectorStore::from_flat(flat, 2);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.as_flat(), b.as_flat());
        for i in 0..a.len() {
            assert_eq!(a.norm_sq(i), b.norm_sq(i));
        }
    }

    #[test]
    fn from_flat_empty_is_empty() {
        let s = VectorStore::from_flat(Vec::new(), 7);
        assert!(s.is_empty());
        assert_eq!(s.dims(), 7);
    }

    #[test]
    #[should_panic(expected = "not a multiple of dims")]
    fn from_flat_ragged_panics() {
        VectorStore::from_flat(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    #[should_panic(expected = "share a dimensionality")]
    fn mismatched_rows_panic() {
        VectorStore::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        VectorStore::from_rows(vec![vec![1.0]]).row(1);
    }
}
