//! Distributed MVP/MMP kernels.
//!
//! Each FSD-Inference worker holds a row block `W_m` of the layer weight
//! matrix. To overlap communication with computation (Algorithms 1 & 2), the
//! product `z_m = W_m · x` is accumulated **block by block** as activation
//! row blocks arrive: `z_m += W_m[:, rows(b)] · b` for each block `b`.
//!
//! That access pattern (given some *input* rows, find all affected *output*
//! rows) is column-major, so worker weight partitions are stored transposed
//! as a [`ColMajorBlock`]: global input row id → `(local output row, weight)`
//! pairs. Accumulation uses a dense per-worker accumulator
//! ([`LayerAccumulator`]) which is finalized into sparse activations with the
//! Graph Challenge non-linearity `y = min(clip, max(0, z + bias))`.

use crate::csr::CsrMatrix;
use crate::rows::SparseRows;

/// Cells per lane group of [`LayerAccumulator::finalize_into`], whose
/// activations are computed in one vectorised pass.
const LANES: usize = 16;

/// A worker's weight partition for one layer, stored column-major.
///
/// Maps each *global* input row id `j` (a column of the original `W`) to the
/// list of `(local output row, weight)` pairs it contributes to.
#[derive(Clone, Debug, PartialEq)]
pub struct ColMajorBlock {
    n_local_rows: usize,
    /// Global input row ids with at least one weight, strictly increasing.
    in_ids: Vec<u32>,
    indptr: Vec<usize>,
    out_rows: Vec<u32>,
    weights: Vec<f32>,
}

impl ColMajorBlock {
    /// Builds the block for local output rows `owned` (global ids, defining
    /// local indices by position) from the full layer matrix `w`.
    ///
    /// A counting-sort transpose, O(nnz + cols): one pass counts each
    /// column's entries (a prefix sum turns the counts into start offsets),
    /// a second walks the owned rows in local order and scatters each entry
    /// to its column's cursor. Entries therefore land in ascending column,
    /// then ascending local row: the order of a sort by `(column, local)`,
    /// whose keys are unique because a CSR row holds each column once. So
    /// every field, weight bits included, equals a sort-based transpose's
    /// (`from_layer_reference`, the test oracle).
    pub fn from_layer(w: &CsrMatrix, owned: &[u32]) -> ColMajorBlock {
        // `next[c + 1]` counts column `c`; after the prefix sum `next[c]` is
        // where column `c` starts, and after the scatter where it ends.
        let mut next = vec![0usize; w.cols() + 1];
        for &gid in owned {
            for &c in w.row(gid as usize).0 {
                next[c as usize + 1] += 1;
            }
        }
        for c in 1..next.len() {
            next[c] += next[c - 1];
        }
        let nnz = next[w.cols()];
        // Columns that hold an entry: `in_ids` and `indptr` are sized to
        // them once (a block is kept per layer, so `w.cols()` slots would
        // stay resident for nothing).
        let used = next.windows(2).filter(|at| at[1] > at[0]).count();
        let mut out_rows = vec![0u32; nnz];
        let mut weights = vec![0f32; nnz];
        for (local, &gid) in owned.iter().enumerate() {
            let (cols, vals) = w.row(gid as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                let at = &mut next[c as usize];
                out_rows[*at] = local as u32;
                weights[*at] = v;
                *at += 1;
            }
        }
        let mut in_ids = Vec::with_capacity(used);
        let mut indptr = Vec::with_capacity(used + 1);
        indptr.push(0);
        let mut start = 0usize;
        for (c, &end) in next[..w.cols()].iter().enumerate() {
            if end > start {
                in_ids.push(c as u32);
                indptr.push(end);
            }
            start = end;
        }
        ColMajorBlock {
            n_local_rows: owned.len(),
            in_ids,
            indptr,
            out_rows,
            weights,
        }
    }

    /// Total stored weights.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.weights.len()
    }

    /// Approximate heap footprint in bytes (FaaS memory model input).
    pub fn mem_bytes(&self) -> usize {
        self.in_ids.len() * 4
            + self.indptr.len() * std::mem::size_of::<usize>()
            + self.out_rows.len() * 4
            + self.weights.len() * 4
    }

    /// Multiply-add count [`LayerAccumulator::accumulate`] would perform
    /// for `x`, without touching any data. Lets callers charge compute time
    /// at one point (to model communication/computation overlap) while
    /// deferring the numeric work to a deterministic accumulation order.
    pub fn matched_work(&self, x: &SparseRows) -> u64 {
        let mut work = 0u64;
        let mut wpos = 0usize;
        for (gid, cols, _) in x.iter() {
            while wpos < self.in_ids.len() && self.in_ids[wpos] < gid {
                wpos += 1;
            }
            if wpos == self.in_ids.len() {
                break;
            }
            if self.in_ids[wpos] != gid {
                continue;
            }
            work += (self.indptr[wpos + 1] - self.indptr[wpos]) as u64 * cols.len() as u64;
        }
        work
    }
}

/// Dense accumulator for one layer's local output rows.
///
/// Holds `n_local_rows x width` floats; `accumulate` scatters incoming
/// activation blocks into it and `finalize` produces the next layer's sparse
/// activations. Reused across layers via [`LayerAccumulator::reset`].
///
/// **Dense/scatter switch.** An input row holding at least `width / 4`
/// entries is first scattered into a `width`-long dense scratch row, and
/// each of its fan-out rows then takes a straight `dst[c] += wt * dense[c]`
/// over every column, which the compiler vectorises; a sparser row keeps
/// the per-entry scatter `dst[cols[i]] += wt * vals[i]`. The two give the
/// same bits: per cell they add the same products in the same order, and
/// the dense loop only adds `wt * 0.0 = ±0.0` on top, which leaves every
/// nonzero sum as it is and turns no `+0.0` cell (cells start at `+0.0` and
/// a round-to-nearest sum is `-0.0` only when both terms are) into anything
/// else — so no `z != 0.0` test downstream changes either. This holds for
/// finite weights, which is what layers hold. A row holding all `width`
/// columns is already its own dense row: its fan-out reads `vals`
/// straight, the same products in the same order, with no densify.
///
/// **Exact-size `finalize`.** Per row, a vectorised pass counts the cells
/// that survive (`z != 0` and `y > 0`), exactly that many slots are
/// appended, and cells `0..=last survivor` are compacted into them: each
/// cell's column and `y` are stored at a cursor that counts the survivors
/// before it, so a cell that does not survive is overwritten by the next
/// one stored, and the last survivor's store is the last one. The row
/// holds the surviving cells in column order with the `y` the reference
/// computes — the same test, the same `clamp(z + bias, 0, clip)`, the same
/// bits — and a row without one is not recorded.
pub struct LayerAccumulator {
    width: usize,
    n_rows: usize,
    data: Vec<f32>,
    /// One densified input row (all zero between rows).
    dense: Vec<f32>,
}

impl LayerAccumulator {
    /// A zeroed accumulator of the given shape.
    pub fn new(n_rows: usize, width: usize) -> Self {
        LayerAccumulator {
            width,
            n_rows,
            data: vec![0.0; n_rows * width],
            dense: vec![0.0; width],
        }
    }

    /// Zeroes the accumulator, optionally reshaping the row count (layers
    /// may own different row sets under per-layer partitions).
    pub fn reset(&mut self, n_rows: usize) {
        self.n_rows = n_rows;
        self.data.clear();
        self.data.resize(n_rows * self.width, 0.0);
    }

    /// [`LayerAccumulator::reset`] to another batch width as well, keeping
    /// the buffers.
    pub fn reshape(&mut self, n_rows: usize, width: usize) {
        self.width = width;
        self.dense.clear();
        self.dense.resize(width, 0.0);
        self.reset(n_rows);
    }

    /// `z += W_block[:, rows(x)] · x` for an incoming activation block.
    ///
    /// Returns the number of multiply-add operations performed — the work
    /// unit count consumed by the FaaS virtual-clock compute model.
    pub fn accumulate(&mut self, w: &ColMajorBlock, x: &SparseRows) -> u64 {
        self.accumulate_parts(w, &[x])
    }

    /// [`LayerAccumulator::accumulate`] over the block that merging `parts`
    /// would give (ids must not collide), without building it: rows are
    /// taken in ascending global id across all parts, so every cell sees
    /// the same f32 summation order as after a merge.
    pub fn accumulate_parts(&mut self, w: &ColMajorBlock, parts: &[&SparseRows]) -> u64 {
        assert_eq!(w.n_local_rows, self.n_rows, "weight block shape mismatch");
        for x in parts {
            assert_eq!(x.width(), self.width, "activation width mismatch");
        }
        let LayerAccumulator {
            width, data, dense, ..
        } = self;
        let width = *width;
        let mut work = 0u64;
        // Both id lists are sorted; walk them together instead of binary
        // searching per row (x blocks are usually dense in w's needed set).
        let mut wpos = 0usize;
        for (gid, cols, vals) in SparseRows::ascending(parts) {
            while wpos < w.in_ids.len() && w.in_ids[wpos] < gid {
                wpos += 1;
            }
            if wpos == w.in_ids.len() {
                break;
            }
            if w.in_ids[wpos] != gid {
                continue;
            }
            let s = w.indptr[wpos];
            let e = w.indptr[wpos + 1];
            let fanout = w.out_rows[s..e].iter().zip(&w.weights[s..e]);
            if cols.len() >= width / 4 {
                // A full row (columns `0..width`) is its own dense row.
                let full = cols.len() == width;
                let row: &[f32] = if full {
                    vals
                } else {
                    for (&c, &v) in cols.iter().zip(vals) {
                        dense[c as usize] = v;
                    }
                    dense
                };
                for (&out_row, &wt) in fanout {
                    let base = out_row as usize * width;
                    let dst = &mut data[base..base + width];
                    for (d, &v) in dst.iter_mut().zip(row) {
                        *d += wt * v;
                    }
                }
                if !full {
                    dense.fill(0.0);
                }
            } else {
                for (&out_row, &wt) in fanout {
                    let base = out_row as usize * width;
                    let dst = &mut data[base..base + width];
                    for (&c, &v) in cols.iter().zip(vals) {
                        dst[c as usize] += wt * v;
                    }
                }
            }
            work += (e - s) as u64 * cols.len() as u64;
        }
        work
    }

    /// Applies `y = min(clip, max(0, z + bias))` and emits the surviving
    /// entries as the next layer's activation block for `owned` global ids.
    ///
    /// Returns `(activations, work_units)`.
    pub fn finalize(&self, owned: &[u32], bias: f32, clip: f32) -> (SparseRows, u64) {
        let mut out = SparseRows::new(self.width);
        let work = self.finalize_into(owned, bias, clip, &mut out);
        (out, work)
    }

    /// [`LayerAccumulator::finalize`] into a caller-owned block, whose
    /// buffers are reused (its previous content is dropped). Returns the
    /// work units.
    pub fn finalize_into(&self, owned: &[u32], bias: f32, clip: f32, out: &mut SparseRows) -> u64 {
        assert_eq!(owned.len(), self.n_rows, "owned ids/rows mismatch");
        out.clear(self.width);
        // The benchmark's sparse convention: the bias is added where
        // `z != 0`, so a sample absent from a row stays absent.
        let activate = |z: f32| {
            let y = (z + bias).clamp(0.0, clip);
            (y, (z != 0.0) & (y > 0.0))
        };
        let (mut ys, mut keeps) = ([0.0f32; LANES], [0u32; LANES]);
        for (&gid, row) in owned.iter().zip(self.data.chunks_exact(self.width.max(1))) {
            // A vectorised count; a row without a survivor is not recorded.
            let kept = row.iter().map(|&z| u32::from(activate(z).1)).sum::<u32>() as usize;
            if kept == 0 {
                continue;
            }
            let last = row
                .iter()
                .rposition(|&z| activate(z).1)
                .expect("a counted survivor");
            // Branch-free compaction: every cell up to the last survivor is
            // stored, and the cursor moves on only past the ones that
            // survive, so it stays below `kept` until that last store. A
            // full lane group's activations are computed in one vectorised
            // pass before its cells are stored.
            let (cols, vals) = out.push_row_exact(gid, kept);
            let (mut c, mut k) = (0u32, 0usize);
            let mut groups = row[..=last].chunks_exact(LANES);
            for lanes in &mut groups {
                let lanes: &[f32; LANES] = lanes.try_into().expect("a full lane group");
                for i in 0..LANES {
                    let (y, keep) = activate(lanes[i]);
                    (ys[i], keeps[i]) = (y, u32::from(keep));
                }
                for i in 0..LANES {
                    cols[k] = c;
                    vals[k] = ys[i];
                    k += keeps[i] as usize;
                    c += 1;
                }
            }
            for &z in groups.remainder() {
                let (y, keep) = activate(z);
                cols[k] = c;
                vals[k] = y;
                k += usize::from(keep);
                c += 1;
            }
        }
        (self.n_rows * self.width) as u64
    }

    /// Raw view of the accumulator (tests).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// Single-node reference: `y = relu_clip(W · x + bias)` over full matrices.
///
/// This is the kernel run by FSD-Inf-Serial and by the server baselines; it
/// is also the ground-truth oracle the distributed variants are checked
/// against. Returns `(activations, work_units)`.
pub fn layer_forward_reference(
    w: &CsrMatrix,
    x: &SparseRows,
    bias: f32,
    clip: f32,
) -> (SparseRows, u64) {
    let all_rows: Vec<u32> = (0..w.rows() as u32).collect();
    let block = ColMajorBlock::from_layer(w, &all_rows);
    let mut acc = LayerAccumulator::new(w.rows(), x.width());
    let mut work = acc.accumulate(&block, x);
    let (out, fw) = acc.finalize(&all_rows, bias, clip);
    work += fw;
    (out, work)
}

/// The sort-based transpose [`ColMajorBlock::from_layer`] replaced —
/// gather `(column, local, weight)` triplets, sort by `(column, local)` —
/// kept as the oracle it must equal field for field.
#[cfg(test)]
impl ColMajorBlock {
    fn from_layer_reference(w: &CsrMatrix, owned: &[u32]) -> ColMajorBlock {
        let mut trips: Vec<(u32, u32, f32)> = Vec::new();
        for (local, &gid) in owned.iter().enumerate() {
            let (cols, vals) = w.row(gid as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                trips.push((c, local as u32, v));
            }
        }
        trips.sort_unstable_by_key(|&(c, l, _)| (c, l));
        let mut in_ids = Vec::new();
        let mut indptr = vec![0usize];
        let mut out_rows = Vec::with_capacity(trips.len());
        let mut weights = Vec::with_capacity(trips.len());
        for (c, l, v) in trips {
            if in_ids.last() != Some(&c) {
                if !in_ids.is_empty() {
                    indptr.push(out_rows.len());
                }
                in_ids.push(c);
            }
            out_rows.push(l);
            weights.push(v);
        }
        indptr.push(out_rows.len());
        if in_ids.is_empty() {
            indptr = vec![0];
        }
        ColMajorBlock {
            n_local_rows: owned.len(),
            in_ids,
            indptr,
            out_rows,
            weights,
        }
    }
}

/// The kernels this module shipped before they were rewritten — per-entry
/// scatter for every row, branchy `finalize` through temporary rows — kept
/// as the oracles the new ones must equal bit for bit.
#[cfg(test)]
impl LayerAccumulator {
    fn accumulate_reference(&mut self, w: &ColMajorBlock, x: &SparseRows) -> u64 {
        assert_eq!(w.n_local_rows, self.n_rows, "weight block shape mismatch");
        assert_eq!(x.width(), self.width, "activation width mismatch");
        let mut work = 0u64;
        let mut wpos = 0usize;
        for (gid, cols, vals) in x.iter() {
            while wpos < w.in_ids.len() && w.in_ids[wpos] < gid {
                wpos += 1;
            }
            if wpos == w.in_ids.len() {
                break;
            }
            if w.in_ids[wpos] != gid {
                continue;
            }
            let s = w.indptr[wpos];
            let e = w.indptr[wpos + 1];
            for (&out_row, &wt) in w.out_rows[s..e].iter().zip(&w.weights[s..e]) {
                let base = out_row as usize * self.width;
                let dst = &mut self.data[base..base + self.width];
                for (&c, &v) in cols.iter().zip(vals) {
                    dst[c as usize] += wt * v;
                }
            }
            work += (e - s) as u64 * cols.len() as u64;
        }
        work
    }

    fn finalize_reference(&self, owned: &[u32], bias: f32, clip: f32) -> (SparseRows, u64) {
        assert_eq!(owned.len(), self.n_rows, "owned ids/rows mismatch");
        let mut out = SparseRows::new(self.width);
        let mut cols = Vec::with_capacity(self.width);
        let mut vals = Vec::with_capacity(self.width);
        for (local, &gid) in owned.iter().enumerate() {
            cols.clear();
            vals.clear();
            let row = &self.data[local * self.width..(local + 1) * self.width];
            for (c, &z) in row.iter().enumerate() {
                if z != 0.0 {
                    let y = (z + bias).clamp(0.0, clip);
                    if y > 0.0 {
                        cols.push(c as u32);
                        vals.push(y);
                    }
                }
            }
            if !cols.is_empty() {
                out.push_row(gid, &cols, &vals);
            }
        }
        let work = (self.n_rows * self.width) as u64;
        (out, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Rng;

    const N_IN: u32 = 48;
    const N_OUT: usize = 20;

    impl ColMajorBlock {
        /// The `(local output rows, weights)` fan-out of global input row
        /// `j`, or `None` if no owned row consumes it.
        fn fanout(&self, j: u32) -> Option<(&[u32], &[f32])> {
            let pos = self.in_ids.binary_search(&j).ok()?;
            let (s, e) = (self.indptr[pos], self.indptr[pos + 1]);
            Some((&self.out_rows[s..e], &self.weights[s..e]))
        }
    }

    /// A layer over `N_IN` inputs whose weights are small signed dyadic
    /// numbers, so that products are exact and sums often cancel to 0.0.
    fn random_layer(rng: &mut Rng) -> CsrMatrix {
        let mut trips = Vec::new();
        for r in 0..N_OUT as u32 {
            for c in 0..N_IN {
                if rng.below(4) == 0 {
                    let wt = [1.0f32, -1.0, 0.5, -0.5, 2.0, -2.0][rng.below(6)];
                    trips.push((r, c, wt));
                }
            }
        }
        CsrMatrix::from_triplets(N_OUT, N_IN as usize, trips).expect("valid")
    }

    /// How many columns each row of [`random_rows`] holds.
    #[derive(Clone, Copy, Debug)]
    enum Fill {
        /// Each column present with this probability, in %.
        Density(usize),
        /// Exactly this many columns, picked at random.
        Exactly(usize),
    }

    /// Rows for about three quarters of the input ids, holding columns as
    /// `fill` says; values include negatives and `-0.0`.
    fn random_rows(rng: &mut Rng, width: usize, fill: Fill) -> SparseRows {
        let mut x = SparseRows::new(width);
        for id in 0..N_IN {
            if rng.below(4) == 0 {
                continue;
            }
            let cols: Vec<u32> = match fill {
                Fill::Density(density) => (0..width as u32)
                    .filter(|_| rng.below(100) < density)
                    .collect(),
                Fill::Exactly(n) => {
                    let mut all: Vec<u32> = (0..width as u32).collect();
                    for k in 0..n {
                        all.swap(k, k + rng.below(width - k));
                    }
                    all.truncate(n);
                    all.sort_unstable();
                    all
                }
            };
            let vals: Vec<f32> = cols
                .iter()
                .map(|_| [1.0f32, -1.0, 2.0, -2.0, 0.5, -0.0][rng.below(6)])
                .collect();
            x.push_row(id, &cols, &vals);
        }
        x
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    fn assert_same_block(a: &SparseRows, b: &SparseRows, what: &str) {
        assert_eq!(a.width(), b.width(), "{what}");
        assert_eq!(a.ids(), b.ids(), "{what}");
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra.1, rb.1, "{what}: columns of row {}", ra.0);
            assert_eq!(bits(ra.2), bits(rb.2), "{what}: values of row {}", ra.0);
        }
    }

    /// The kernels against their `#[cfg(test)]` references on widths that
    /// end a lane group early, exactly and late; on rows on both sides of
    /// the dense-row switch (`width / 4`) and full rows; with a positive
    /// bias over planted `-0.0` / `+0.0` cells and cancelled sums; and
    /// `finalize_into` into a block that last held a larger one.
    #[test]
    fn kernels_equal_their_references_bit_for_bit() {
        let mut rng = Rng::new(22);
        let owned: Vec<u32> = (0..N_OUT as u32).map(|r| r * 5 + 2).collect();
        for width in [1usize, 7, 8, 15, 16, 17, 32, 33, 255, 256] {
            let densities = [0usize, 3, 10, 24, 26, 50, 90, 100].map(Fill::Density);
            let counts = [(width / 4).saturating_sub(1), width / 4, width - 1, width];
            let larger = random_rows(&mut rng, 2 * width + 9, Fill::Density(90));
            for fill in densities.into_iter().chain(counts.map(Fill::Exactly)) {
                let w = random_layer(&mut rng);
                let block = ColMajorBlock::from_layer(&w, &(0..N_OUT as u32).collect::<Vec<_>>());
                let x = random_rows(&mut rng, width, fill);
                let what = format!("width {width}, {fill:?}");

                // Dense-row and full-row paths == scatter path.
                let mut old = LayerAccumulator::new(N_OUT, width);
                let mut new = LayerAccumulator::new(N_OUT, width);
                let work = old.accumulate_reference(&block, &x);
                assert_eq!(new.accumulate(&block, &x), work, "{what}");
                assert_eq!(bits(new.as_slice()), bits(old.as_slice()), "{what}");
                assert!(new.dense.iter().all(|v| v.to_bits() == 0), "{what}");

                // The parts of a block, in any order == the merged block.
                let n_parts = 1 + rng.below(4);
                let mut parts = vec![SparseRows::new(width); n_parts];
                for (id, cols, vals) in x.iter() {
                    parts[rng.below(n_parts)].push_row(id, cols, vals);
                }
                parts.rotate_left(rng.below(n_parts));
                let mut merged = SparseRows::new(width);
                for part in &parts {
                    merged.merge(part);
                }
                assert_eq!(merged, x, "{what}");
                let refs: Vec<&SparseRows> = parts.iter().collect();
                assert_eq!(SparseRows::merge_all(&refs), x, "{what}");
                let mut split = LayerAccumulator::new(N_OUT, width);
                assert_eq!(split.accumulate_parts(&block, &refs), work, "{what}");
                assert_eq!(bits(split.as_slice()), bits(old.as_slice()), "{what}");

                // `finalize` == its reference, also into a used buffer, on
                // what was accumulated (cancelled sums are `+0.0`) plus an
                // eighth of the cells planted as `-0.0` or `+0.0`.
                for k in 0..new.data.len().div_ceil(8) {
                    let cell = rng.below(new.data.len());
                    new.data[cell] = if k % 2 == 0 { -0.0 } else { 0.0 };
                }
                for (bias, clip) in [(-0.75f32, 2.0f32), (0.0, 32.0), (0.5, 1.0), (3.0, 4.0)] {
                    let (expect, units) = new.finalize_reference(&owned, bias, clip);
                    let (got, got_units) = new.finalize(&owned, bias, clip);
                    assert_eq!(got_units, units, "{what}");
                    assert_same_block(&got, &expect, &what);
                    assert_eq!(got, expect, "{what}");
                    let mut recycled = larger.clone();
                    assert_eq!(new.finalize_into(&owned, bias, clip, &mut recycled), units);
                    assert_same_block(&recycled, &expect, &what);
                    assert_eq!(recycled, expect, "{what}");
                }
            }
        }
    }

    #[test]
    fn from_layer_equals_its_sort_reference_field_for_field() {
        let mut rng = Rng::new(0x7A5);
        for (n, nnz_per_row) in [(48usize, 3usize), (1024, 8), (4096, 8)] {
            // About a quarter of the rows hold no entry, and the top eighth
            // of the columns is never used.
            let used_cols = n - n / 8;
            let mut trips = Vec::new();
            for r in 0..n as u32 {
                if rng.below(4) == 0 {
                    continue;
                }
                for _ in 0..nnz_per_row {
                    let wt = [1.0f32, -0.5, 0.25, -0.0, 3.0e-3][rng.below(5)];
                    trips.push((r, rng.below(used_cols) as u32, wt));
                }
            }
            let w = CsrMatrix::from_triplets(n, n, trips).expect("valid");
            let in_order: Vec<u32> = (0..n as u32).collect();
            let mut shuffled: Vec<u32> = in_order
                .iter()
                .copied()
                .filter(|_| rng.below(3) != 0)
                .collect();
            for k in (1..shuffled.len()).rev() {
                shuffled.swap(k, rng.below(k + 1));
            }
            for owned in [&[][..], &in_order[..1], &in_order, &shuffled] {
                let what = format!("N {n}, {} owned rows", owned.len());
                let got = ColMajorBlock::from_layer(&w, owned);
                let want = ColMajorBlock::from_layer_reference(&w, owned);
                assert_eq!(got.n_local_rows, want.n_local_rows, "{what}");
                assert_eq!(got.in_ids, want.in_ids, "{what}");
                assert_eq!(got.indptr, want.indptr, "{what}");
                assert_eq!(got.out_rows, want.out_rows, "{what}");
                assert_eq!(bits(&got.weights), bits(&want.weights), "{what}");
            }
        }
    }

    #[test]
    fn from_layer_sizes_its_column_index_once_to_the_columns_used() {
        // Columns 0, 3 and 7 of 64 hold entries; column 0 is the first
        // one the index must count.
        let w = CsrMatrix::from_triplets(4, 64, [(0, 0, 1.0), (1, 7, 2.0), (3, 3, 4.0)])
            .expect("valid");
        for owned in [&[0u32, 1, 2, 3][..], &[1, 3], &[2], &[]] {
            let block = ColMajorBlock::from_layer(&w, owned);
            assert_eq!(block.in_ids.capacity(), block.in_ids.len(), "{owned:?}");
            assert_eq!(block.indptr.capacity(), block.indptr.len(), "{owned:?}");
        }
    }

    #[test]
    fn sums_that_cancel_and_negative_zero_cells_are_dropped() {
        // Two inputs with opposite weights into one output row: column 0
        // cancels to exactly 0.0 (dropped although the bias is positive),
        // column 1 does not.
        let w = CsrMatrix::from_triplets(1, 2, [(0, 0, 1.0), (0, 1, -1.0)]).expect("valid");
        let block = ColMajorBlock::from_layer(&w, &[0]);
        for width in [2usize, 8, 9] {
            let x = SparseRows::from_rows(
                width,
                [
                    (0u32, vec![0u32, 1], vec![3.0f32, 5.0]),
                    (1, vec![0, 1], vec![3.0, 1.0]),
                ],
            );
            let mut acc = LayerAccumulator::new(1, width);
            acc.accumulate(&block, &x);
            assert_eq!(acc.as_slice()[..2], [0.0, 4.0]);
            let (out, _) = acc.finalize(&[9], 0.5, 32.0);
            assert_eq!(out.row_by_id(9), Some((&[1u32][..], &[4.5f32][..])));
            // A `-0.0` cell is `== 0.0`: absent, like a cell never touched.
            acc.data[1] = -0.0;
            assert!(acc.finalize(&[9], 0.5, 32.0).0.is_empty());
        }
    }

    /// 3x3 layer:
    /// [1 0 2]
    /// [0 3 0]
    /// [4 0 5]
    fn w() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            [
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .expect("valid")
    }

    fn x() -> SparseRows {
        // rows: 0 -> [1, 0], 1 -> [0, 2], 2 -> [3, 4]  (width 2)
        SparseRows::from_rows(
            2,
            [
                (0u32, vec![0u32], vec![1.0f32]),
                (1, vec![1], vec![2.0]),
                (2, vec![0, 1], vec![3.0, 4.0]),
            ],
        )
    }

    #[test]
    fn col_major_block_structure() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 2]);
        // Inputs needed: cols of rows 0 and 2 = {0, 2}.
        assert_eq!(b.in_ids, &[0, 2]);
        assert_eq!(b.n_local_rows, 2);
        assert_eq!(b.nnz(), 4);
        let (outs, wts) = b.fanout(0).expect("input 0 present");
        assert_eq!(outs, &[0, 1]); // local rows for global rows 0 and 2
        assert_eq!(wts, &[1.0, 4.0]);
        assert!(b.fanout(1).is_none());
    }

    #[test]
    fn empty_block() {
        let b = ColMajorBlock::from_layer(&w(), &[]);
        assert_eq!(b.n_local_rows, 0);
        assert!(b.in_ids.is_empty());
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn accumulate_matches_dense_product() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 1, 2]);
        let mut acc = LayerAccumulator::new(3, 2);
        let work = acc.accumulate(&b, &x());
        // Dense: W(3x3) * X(3x2):
        // z0 = 1*[1,0] + 2*[3,4] = [7,8]
        // z1 = 3*[0,2]           = [0,6]
        // z2 = 4*[1,0] + 5*[3,4] = [19,20]
        assert_eq!(acc.as_slice(), &[7.0, 8.0, 0.0, 6.0, 19.0, 20.0]);
        // work = nnz pairs: input0 fans to 2 rows x 1 col + input1 1x1 + input2 2x2
        assert_eq!(work, 2 + 1 + 4);
    }

    #[test]
    fn accumulate_partial_blocks_sum_to_full() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 1, 2]);
        let full_x = x();
        let mut full = LayerAccumulator::new(3, 2);
        full.accumulate(&b, &full_x);

        let mut split = LayerAccumulator::new(3, 2);
        split.accumulate(&b, &full_x.extract(&[0, 1]));
        split.accumulate(&b, &full_x.extract(&[2]));
        assert_eq!(full.as_slice(), split.as_slice());
    }

    #[test]
    fn finalize_applies_bias_relu_clip() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 1, 2]);
        let mut acc = LayerAccumulator::new(3, 2);
        acc.accumulate(&b, &x());
        let (out, _) = acc.finalize(&[0, 1, 2], -6.5, 10.0);
        // z = [[7,8],[0,6],[19,20]] + (-6.5) where nonzero, clip 10:
        // row0: [0.5, 1.5]; row1: [-, -0.5 -> dropped]; row2: [10, 10]
        assert_eq!(out.row_by_id(0), Some((&[0u32, 1][..], &[0.5f32, 1.5][..])));
        assert_eq!(out.row_by_id(1), None);
        assert_eq!(
            out.row_by_id(2),
            Some((&[0u32, 1][..], &[10.0f32, 10.0][..]))
        );
    }

    #[test]
    fn finalize_drops_empty_rows_entirely() {
        let acc = LayerAccumulator::new(2, 3);
        let (out, _) = acc.finalize(&[4, 7], -0.3, 32.0);
        assert!(out.is_empty());
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let b = ColMajorBlock::from_layer(&w(), &[0, 1, 2]);
        let mut acc = LayerAccumulator::new(3, 2);
        acc.accumulate(&b, &x());
        acc.reset(3);
        assert!(acc.as_slice().iter().all(|&v| v == 0.0));
        acc.reset(1);
        assert_eq!(acc.as_slice().len(), 2);
    }

    #[test]
    fn reference_forward_matches_manual() {
        let (out, work) = layer_forward_reference(&w(), &x(), 0.0, 32.0);
        assert!(work > 0);
        assert_eq!(out.row_by_id(0), Some((&[0u32, 1][..], &[7.0f32, 8.0][..])));
        assert_eq!(out.row_by_id(1), Some((&[1u32][..], &[6.0f32][..])));
        assert_eq!(
            out.row_by_id(2),
            Some((&[0u32, 1][..], &[19.0f32, 20.0][..]))
        );
    }

    #[test]
    fn distributed_partition_equals_reference() {
        // Split rows {0,2} / {1} across two "workers" and verify the union of
        // their outputs equals the single-node reference.
        let wm = w();
        let xm = x();
        let (reference, _) = layer_forward_reference(&wm, &xm, -1.0, 5.0);

        let mut combined = SparseRows::new(2);
        for owned in [vec![0u32, 2], vec![1u32]] {
            let b = ColMajorBlock::from_layer(&wm, &owned);
            let mut acc = LayerAccumulator::new(owned.len(), 2);
            // Workers receive x rows from everyone (full x here).
            acc.accumulate(&b, &xm);
            let (part, _) = acc.finalize(&owned, -1.0, 5.0);
            combined.merge(&part);
        }
        assert_eq!(combined, reference);
    }
}
