//! Row blocks: sparse activation rows keyed by *global* row id.
//!
//! A [`SparseRows`] holds the activation rows a worker owns (or is sending /
//! receiving). Rows are identified by global neuron id so blocks can be
//! extracted, shipped through a communication channel, and accumulated on the
//! receiving side without any re-indexing handshake.

use std::fmt;

/// A block of sparse rows over a fixed number of columns (the batch width).
///
/// Invariants:
/// * `ids` strictly increasing (global row ids);
/// * `indptr.len() == ids.len() + 1`, monotone, starting at 0;
/// * column indices within each row strictly increasing and `< width`.
#[derive(Clone, PartialEq, Default)]
pub struct SparseRows {
    width: usize,
    ids: Vec<u32>,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseRows {
    /// An empty block with the given width.
    pub fn new(width: usize) -> Self {
        SparseRows {
            width,
            ids: Vec::new(),
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a block from per-row data. `rows` must be sorted by id.
    pub fn from_rows(
        width: usize,
        rows: impl IntoIterator<Item = (u32, Vec<u32>, Vec<f32>)>,
    ) -> Self {
        let mut b = SparseRows::new(width);
        for (id, cols, vals) in rows {
            b.push_row(id, &cols, &vals);
        }
        b
    }

    /// Appends a row. Panics if `id` is not greater than the last id, if
    /// `cols`/`vals` lengths differ, or if a column is out of range — these
    /// are programming errors in the caller, not recoverable conditions.
    pub fn push_row(&mut self, id: u32, cols: &[u32], vals: &[f32]) {
        assert_eq!(cols.len(), vals.len(), "cols/vals length mismatch");
        if let Some(&last) = self.ids.last() {
            assert!(
                id > last,
                "row ids must be strictly increasing: {id} after {last}"
            );
        }
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "columns must be sorted"
        );
        debug_assert!(
            cols.iter().all(|&c| (c as usize) < self.width),
            "column out of range"
        );
        self.ids.push(id);
        self.indices.extend_from_slice(cols);
        self.values.extend_from_slice(vals);
        self.indptr.push(self.indices.len());
    }

    /// Empties the block for reuse at `width`, keeping its buffers.
    pub fn clear(&mut self, width: usize) {
        self.clear_for(width, 0, 0);
    }

    /// Empties the block for reuse at `width`, with room for `rows` rows
    /// holding `nnz` entries reserved before anything is written.
    pub(crate) fn clear_for(&mut self, width: usize, rows: usize, nnz: usize) {
        self.width = width;
        self.ids.clear();
        self.ids.reserve(rows);
        self.indptr.clear();
        self.indptr.reserve(rows + 1);
        self.indptr.push(0);
        self.indices.clear();
        self.indices.reserve(nnz);
        self.values.clear();
        self.values.reserve(nnz);
    }

    /// Appends row `id`, whose entries `fill` appends straight onto the
    /// block's column and value buffers (columns strictly increasing and
    /// `< width`, one value per column). If `fill` fails, whatever it
    /// appended is dropped and the block is left as it was.
    pub(crate) fn try_push_row<E>(
        &mut self,
        id: u32,
        fill: impl FnOnce(&mut Vec<u32>, &mut Vec<f32>) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert!(self.ids.last().is_none_or(|&last| id > last));
        let base = self.indices.len();
        if let Err(e) = fill(&mut self.indices, &mut self.values) {
            self.indices.truncate(base);
            self.values.truncate(base);
            return Err(e);
        }
        debug_assert_eq!(self.indices.len(), self.values.len());
        self.ids.push(id);
        self.indptr.push(self.indices.len());
        Ok(())
    }

    /// Bytes reserved by the block's buffers, used or not.
    #[cfg(test)]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.ids.capacity() * 4
            + self.indptr.capacity() * std::mem::size_of::<usize>()
            + self.indices.capacity() * 4
            + self.values.capacity() * 4
    }

    /// Appends row `id` with exactly `n` entries (`n > 0`) and returns
    /// its column and value slots, every one of which the caller fills
    /// (columns strictly increasing and `< width`, as everywhere).
    pub(crate) fn push_row_exact(&mut self, id: u32, n: usize) -> (&mut [u32], &mut [f32]) {
        debug_assert!(n > 0 && n <= self.width);
        debug_assert!(self.ids.last().is_none_or(|&last| id > last));
        let base = self.indices.len();
        self.indices.resize(base + n, 0);
        self.values.resize(base + n, 0.0);
        self.ids.push(id);
        self.indptr.push(base + n);
        (
            &mut self.indices[base..base + n],
            &mut self.values[base..base + n],
        )
    }

    /// Number of columns (batch width).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no rows at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The global ids present in this block.
    #[inline]
    // fsd_lint::allow(orphan-pub): integration tests inspect a block's ids
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Row by position (not id): `(global_id, cols, vals)`.
    #[inline]
    fn row_at(&self, pos: usize) -> (u32, &[u32], &[f32]) {
        let s = self.indptr[pos];
        let e = self.indptr[pos + 1];
        (self.ids[pos], &self.indices[s..e], &self.values[s..e])
    }

    /// Looks a row up by global id (binary search).
    // fsd_lint::allow(orphan-pub): integration-test inspection surface
    pub fn row_by_id(&self, id: u32) -> Option<(&[u32], &[f32])> {
        let pos = self.ids.binary_search(&id).ok()?;
        let s = self.indptr[pos];
        let e = self.indptr[pos + 1];
        Some((&self.indices[s..e], &self.values[s..e]))
    }

    /// Iterates `(global_id, cols, vals)` over all rows.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32], &[f32])> + '_ {
        (0..self.n_rows()).map(move |p| self.row_at(p))
    }

    /// Extracts the sub-block containing the requested global ids (ids not
    /// present in `self` are skipped entirely — they correspond to rows that
    /// became all-zero after ReLU and carry no information).
    ///
    /// This is the `extract_rows` primitive of FSI Algorithms 1 & 2.
    pub fn extract(&self, wanted: &[u32]) -> SparseRows {
        let mut out = SparseRows::new(self.width);
        self.extract_into(wanted, &mut out);
        out
    }

    /// [`SparseRows::extract`] into a caller-owned block, whose buffers are
    /// reused (its previous content is dropped).
    pub fn extract_into(&self, wanted: &[u32], out: &mut SparseRows) {
        debug_assert!(
            wanted.windows(2).all(|w| w[0] < w[1]),
            "wanted ids must be sorted"
        );
        out.clear(self.width);
        let mut pos = 0usize;
        for &id in wanted {
            // Both lists are sorted: advance a cursor instead of re-searching.
            while pos < self.ids.len() && self.ids[pos] < id {
                pos += 1;
            }
            if pos == self.ids.len() {
                break;
            }
            if self.ids[pos] == id {
                let (gid, cols, vals) = self.row_at(pos);
                out.push_row(gid, cols, vals);
            }
        }
    }

    /// Merges another block into this one. Ids may interleave but must not
    /// collide (each global row has exactly one owner per layer).
    pub fn merge(&mut self, other: &SparseRows) {
        assert_eq!(self.width, other.width, "width mismatch in merge");
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        // Fast path: strictly after (common when reducing rank-ordered blocks).
        if other.ids[0] > *self.ids.last().expect("non-empty") {
            self.ids.extend_from_slice(&other.ids);
            let base = self.indices.len();
            self.indices.extend_from_slice(&other.indices);
            self.values.extend_from_slice(&other.values);
            self.indptr
                .extend(other.indptr[1..].iter().map(|&p| p + base));
            return;
        }
        *self = SparseRows::merge_all(&[self, other]);
    }

    /// The rows of all `parts` in ascending global id order — the order a
    /// chain of [`SparseRows::merge`] calls would leave them in, without
    /// building the merged block. Panics on an id two parts share.
    pub(crate) fn ascending<'a>(
        parts: &'a [&'a SparseRows],
    ) -> impl Iterator<Item = (u32, &'a [u32], &'a [f32])> + 'a {
        let mut cursors = vec![0usize; parts.len()];
        std::iter::from_fn(move || {
            let mut next: Option<(u32, usize)> = None;
            for (p, part) in parts.iter().enumerate() {
                let Some(&id) = part.ids.get(cursors[p]) else {
                    continue;
                };
                match next {
                    Some((lowest, _)) if lowest <= id => {
                        assert_ne!(lowest, id, "duplicate row id {id} in merge");
                    }
                    _ => next = Some((id, p)),
                }
            }
            let (_, p) = next?;
            cursors[p] += 1;
            Some(parts[p].row_at(cursors[p] - 1))
        })
    }

    /// Merges any number of blocks in one pass into an exact-capacity
    /// block: equal to folding [`SparseRows::merge`] over `parts`, without
    /// rebuilding the growing result once per part. Ids must not collide.
    pub fn merge_all(parts: &[&SparseRows]) -> SparseRows {
        let width = parts.first().map_or(0, |p| p.width);
        assert!(
            parts.iter().all(|p| p.width == width),
            "width mismatch in merge"
        );
        let n_rows = parts.iter().map(|p| p.n_rows()).sum();
        let nnz = parts.iter().map(|p| p.nnz()).sum();
        let mut out = SparseRows {
            width,
            ids: Vec::with_capacity(n_rows),
            indptr: Vec::with_capacity(n_rows + 1),
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        };
        out.indptr.push(0);
        for (id, cols, vals) in SparseRows::ascending(parts) {
            out.ids.push(id);
            out.indices.extend_from_slice(cols);
            out.values.extend_from_slice(vals);
            out.indptr.push(out.indices.len());
        }
        out
    }

    /// Places `parts` side by side along the column (sample) axis: part
    /// `k`'s columns follow those of parts `0..k`, and a row holds every
    /// part's entries of that id. The width is the parts' summed width.
    pub fn concat_columns(parts: &[&SparseRows]) -> SparseRows {
        let width = parts.iter().map(|p| p.width).sum();
        let mut out = SparseRows::new(width);
        let mut cursors = vec![0usize; parts.len()];
        loop {
            let next = parts
                .iter()
                .zip(&cursors)
                .filter_map(|(part, &c)| part.ids.get(c))
                .min();
            let Some(&id) = next else {
                return out;
            };
            let mut offset = 0u32;
            for (part, cursor) in parts.iter().zip(&mut cursors) {
                if part.ids.get(*cursor) == Some(&id) {
                    let (_, cols, vals) = part.row_at(*cursor);
                    out.indices.extend(cols.iter().map(|&c| c + offset));
                    out.values.extend_from_slice(vals);
                    *cursor += 1;
                }
                offset += part.width as u32;
            }
            out.ids.push(id);
            out.indptr.push(out.indices.len());
        }
    }

    /// The inverse of [`SparseRows::concat_columns`]: cuts the block into
    /// consecutive column ranges of `widths` (which must sum to the width),
    /// each renumbered from column 0. A row keeps only the parts it has
    /// entries in, as a layer's output drops a row with none.
    pub fn split_columns(&self, widths: &[usize]) -> Vec<SparseRows> {
        assert_eq!(
            widths.iter().sum::<usize>(),
            self.width,
            "split widths must sum to the block's width"
        );
        let mut parts: Vec<SparseRows> = widths.iter().map(|&w| SparseRows::new(w)).collect();
        for (id, mut cols, mut vals) in self.iter() {
            let mut offset = 0u32;
            for part in &mut parts {
                let end = offset + part.width as u32;
                let n = cols.partition_point(|&c| c < end);
                if n > 0 {
                    part.ids.push(id);
                    part.indices.extend(cols[..n].iter().map(|&c| c - offset));
                    part.values.extend_from_slice(&vals[..n]);
                    part.indptr.push(part.indices.len());
                }
                (cols, vals) = (&cols[n..], &vals[n..]);
                offset = end;
            }
        }
        parts
    }

    /// Splits this block into chunks of at most `max_nnz` stored entries
    /// (whole rows only; a single row larger than `max_nnz` becomes its own
    /// chunk). Used to pack pub-sub byte strings under the payload quota.
    pub fn split_by_nnz(&self, max_nnz: usize) -> Vec<SparseRows> {
        assert!(max_nnz > 0, "max_nnz must be positive");
        let mut chunks = Vec::new();
        let mut cur = SparseRows::new(self.width);
        let mut cur_nnz = 0usize;
        for (id, cols, vals) in self.iter() {
            if cur_nnz > 0 && cur_nnz + cols.len() > max_nnz {
                chunks.push(std::mem::replace(&mut cur, SparseRows::new(self.width)));
                cur_nnz = 0;
            }
            cur.push_row(id, cols, vals);
            cur_nnz += cols.len();
        }
        if !cur.is_empty() {
            chunks.push(cur);
        }
        chunks
    }

    /// Approximate heap footprint in bytes (FaaS memory model input).
    pub fn mem_bytes(&self) -> usize {
        self.ids.len() * 4
            + self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * 4
            + self.values.len() * 4
    }

    /// [`SparseRows::mem_bytes`] of the block [`SparseRows::merge_all`]
    /// would build from `parts` (they share one leading `indptr` entry).
    pub fn merged_mem_bytes(parts: &[&SparseRows]) -> usize {
        let sum: usize = parts.iter().map(|p| p.mem_bytes()).sum();
        sum - parts.len().saturating_sub(1) * std::mem::size_of::<usize>()
    }

    /// Densifies to a `n x width` row-major buffer where row order follows
    /// `order` (global ids; absent rows are zero). Test/reference use only.
    #[cfg(test)]
    pub fn to_dense(&self, order: &[u32]) -> Vec<f32> {
        let mut out = vec![0f32; order.len() * self.width];
        for (i, &id) in order.iter().enumerate() {
            if let Some((cols, vals)) = self.row_by_id(id) {
                for (&c, &v) in cols.iter().zip(vals) {
                    out[i * self.width + c as usize] = v;
                }
            }
        }
        out
    }
}

impl fmt::Debug for SparseRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparseRows(rows={}, width={}, nnz={})",
            self.n_rows(),
            self.width,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> SparseRows {
        SparseRows::from_rows(
            4,
            [
                (2u32, vec![0u32, 3], vec![1.0f32, 2.0]),
                (5, vec![1], vec![3.0]),
                (9, vec![0, 1, 2], vec![4.0, 5.0, 6.0]),
            ],
        )
    }

    #[test]
    fn push_and_lookup() {
        let b = block();
        assert_eq!(b.n_rows(), 3);
        assert_eq!(b.nnz(), 6);
        assert_eq!(b.row_by_id(5), Some((&[1u32][..], &[3.0f32][..])));
        assert_eq!(b.row_by_id(4), None);
        assert_eq!(b.row_at(0).0, 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_rejects_non_increasing_ids() {
        let mut b = block();
        b.push_row(9, &[0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn push_rejects_ragged_input() {
        let mut b = SparseRows::new(4);
        b.push_row(0, &[0, 1], &[1.0]);
    }

    #[test]
    fn extract_subset() {
        let b = block();
        let e = b.extract(&[2, 9]);
        assert_eq!(e.ids(), &[2, 9]);
        assert_eq!(e.nnz(), 5);
        assert_eq!(e.row_by_id(9), b.row_by_id(9));
    }

    #[test]
    fn extract_skips_missing_rows() {
        let b = block();
        let e = b.extract(&[1, 5, 7]);
        assert_eq!(e.ids(), &[5]);
    }

    #[test]
    fn extract_of_nothing_is_empty() {
        let b = block();
        assert!(b.extract(&[]).is_empty());
        assert!(b.extract(&[100, 200]).is_empty());
    }

    #[test]
    fn merge_interleaved() {
        let mut a = SparseRows::from_rows(4, [(1u32, vec![0u32], vec![1.0f32])]);
        let b = SparseRows::from_rows(
            4,
            [(0u32, vec![1u32], vec![2.0f32]), (3, vec![2], vec![3.0])],
        );
        a.merge(&b);
        assert_eq!(a.ids(), &[0, 1, 3]);
        assert_eq!(a.row_by_id(0), Some((&[1u32][..], &[2.0f32][..])));
    }

    #[test]
    fn merge_append_fast_path() {
        let mut a = block();
        let b = SparseRows::from_rows(4, [(20u32, vec![0u32], vec![7.0f32])]);
        a.merge(&b);
        assert_eq!(a.ids(), &[2, 5, 9, 20]);
        assert_eq!(a.row_by_id(20), Some((&[0u32][..], &[7.0f32][..])));
    }

    #[test]
    fn merge_into_empty() {
        let mut a = SparseRows::new(4);
        a.merge(&block());
        assert_eq!(a.ids(), &[2, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "duplicate row id")]
    fn merge_rejects_duplicates() {
        let mut a = block();
        let b = SparseRows::from_rows(4, [(5u32, vec![0u32], vec![1.0f32])]);
        a.merge(&b);
    }

    #[test]
    fn merge_all_equals_a_chain_of_merges_in_rows_and_footprint() {
        let a = SparseRows::from_rows(4, [(1u32, vec![0u32], vec![1.0f32])]);
        let b = SparseRows::from_rows(
            4,
            [(0u32, vec![1u32], vec![2.0f32]), (3, vec![2], vec![3.0])],
        );
        let empty = SparseRows::new(4);
        for parts in [
            vec![&a, &b, &empty],
            vec![&empty, &b],
            vec![&block(), &a, &empty, &b],
            vec![&empty],
        ] {
            let mut chained = SparseRows::new(4);
            for part in &parts {
                chained.merge(part);
            }
            let merged = SparseRows::merge_all(&parts);
            assert_eq!(merged, chained);
            assert_eq!(SparseRows::merged_mem_bytes(&parts), chained.mem_bytes());
            assert_eq!(merged.indices.capacity(), merged.nnz());
        }
        assert!(SparseRows::merge_all(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate row id")]
    fn merge_all_rejects_duplicates() {
        let b = SparseRows::from_rows(4, [(5u32, vec![0u32], vec![1.0f32])]);
        SparseRows::merge_all(&[&block(), &SparseRows::new(4), &b]);
    }

    #[test]
    fn concat_columns_places_parts_side_by_side_and_split_undoes_it() {
        // Row 5 is active in `block()` only, row 7 in `other` only; `empty`
        // holds no rows and `none` has no columns at all.
        let other = SparseRows::from_rows(
            3,
            [
                (2u32, vec![1u32], vec![7.0f32]),
                (7, vec![0, 2], vec![8.0, 9.0]),
            ],
        );
        let (empty, none) = (SparseRows::new(2), SparseRows::new(0));
        let parts = [&block(), &empty, &none, &other];
        let fused = SparseRows::concat_columns(&parts);
        assert_eq!(fused.width(), 9);
        assert_eq!(fused.ids(), &[2, 5, 7, 9]);
        let row = |id| fused.row_by_id(id).expect("row present");
        assert_eq!(row(2), (&[0u32, 3, 7][..], &[1.0f32, 2.0, 7.0][..]));
        assert_eq!(row(5), (&[1u32][..], &[3.0f32][..]));
        assert_eq!(row(7), (&[6u32, 8][..], &[8.0f32, 9.0][..]));
        assert_eq!(row(9), (&[0u32, 1, 2][..], &[4.0f32, 5.0, 6.0][..]));
        let split = fused.split_columns(&[4, 2, 0, 3]);
        assert_eq!(split, [block(), empty, none, other]);
    }

    #[test]
    fn concat_and_split_of_nothing() {
        assert_eq!(SparseRows::concat_columns(&[]), SparseRows::new(0));
        let lone = SparseRows::concat_columns(&[&block()]);
        assert_eq!(lone, block());
        assert_eq!(lone.split_columns(&[4]), [block()]);
        let zeros = SparseRows::new(0).split_columns(&[0, 0]);
        assert_eq!(zeros, [SparseRows::new(0), SparseRows::new(0)]);
    }

    #[test]
    #[should_panic(expected = "must sum")]
    fn split_columns_rejects_widths_that_miss_the_width() {
        block().split_columns(&[1, 2]);
    }

    #[test]
    fn split_by_nnz_respects_limit_and_roundtrips() {
        let b = block();
        let chunks = b.split_by_nnz(3);
        assert!(chunks.len() >= 2);
        for c in &chunks {
            assert!(c.nnz() <= 3 || c.n_rows() == 1);
        }
        let mut merged = SparseRows::new(4);
        for c in &chunks {
            merged.merge(c);
        }
        assert_eq!(merged, b);
    }

    #[test]
    fn split_single_oversized_row() {
        let b = SparseRows::from_rows(8, [(0u32, vec![0u32, 1, 2, 3, 4], vec![1.0f32; 5])]);
        let chunks = b.split_by_nnz(2);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].nnz(), 5);
    }

    #[test]
    fn to_dense_respects_order() {
        let b = block();
        let d = b.to_dense(&[5, 2]);
        assert_eq!(d.len(), 8);
        assert_eq!(d[1], 3.0); // row 5, col 1
        assert_eq!(d[4], 1.0); // row 2, col 0
    }
}
