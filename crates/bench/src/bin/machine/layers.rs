//! The single-threaded layer replay of the traced run.
//!
//! For each rank and layer it rebuilds the real arguments the workers
//! pass — from `Partition`, `CommPlan`, the weights and the stepped
//! activations — and calls the `sparse` kernels and codecs under spans, in
//! the order `fsd_core::worker` calls them. No channel, no threads: what is
//! left is the kernel and packing work of one request.

use crate::span::{totals, Tracer};
use fsd_model::SparseDnn;
use fsd_partition::{CommPlan, Partition};
use fsd_sparse::{codec, compress, ColMajorBlock, LayerAccumulator, SparseRows};

/// Counts the replay's spans are divided by.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Multiply-adds `accumulate` reported.
    pub accumulate_units: u64,
    /// Units `finalize` reported (rows × width each).
    pub finalize_units: u64,
    pub finalized_rows: u64,
    pub extract_nnz: u64,
    pub merge_nnz: u64,
    pub encoded_bytes: u64,
    pub compressed_bytes: u64,
    pub passes: u64,
}

/// What the replay hands to the probes: the blocks that crossed between
/// ranks, smallest wire size first.
pub struct Replayed {
    pub counts: Counts,
    /// `(compressed frame bytes, block)` of every non-empty inter-rank
    /// send of the last pass, sorted by frame size.
    pub frames: Vec<(usize, SparseRows)>,
    /// Whether the merged final activations equal `expected`.
    pub correct: bool,
}

impl Replayed {
    /// The block whose frame size is the median of the workload's frames
    /// (an empty block if ranks exchanged nothing).
    pub fn median_block(&self, width: usize) -> SparseRows {
        self.frames
            .get(self.frames.len() / 2)
            .map_or_else(|| SparseRows::new(width), |(_, b)| b.clone())
    }
}

/// A partitioned model as its ranks hold it: who owns which rows, who
/// sends what to whom, and every rank's column-major weight blocks.
pub struct Ranks<'a> {
    dnn: &'a SparseDnn,
    partition: &'a Partition,
    plan: &'a CommPlan,
    /// `blocks[m][k]`: rank `m`'s block of layer `k`.
    blocks: Vec<Vec<ColMajorBlock>>,
}

impl<'a> Ranks<'a> {
    /// Builds every rank's weight blocks (what a cold worker does after
    /// decoding its artifacts).
    pub fn build(
        dnn: &'a SparseDnn,
        partition: &'a Partition,
        plan: &'a CommPlan,
        tr: &mut Tracer,
    ) -> Ranks<'a> {
        let blocks = (0..partition.n_parts() as u32)
            .map(|m| {
                dnn.layers()
                    .iter()
                    .map(|w| {
                        tr.span("sparse.ops.from_layer", 0, || {
                            ColMajorBlock::from_layer(w, partition.owned(m))
                        })
                    })
                    .collect()
            })
            .collect();
        Ranks {
            dnn,
            partition,
            plan,
            blocks,
        }
    }

    /// Replays `passes` requests for `input`, one rank after another.
    pub fn replay(
        &self,
        input: &SparseRows,
        expected: &SparseRows,
        passes: u64,
        tr: &mut Tracer,
    ) -> Replayed {
        let ranks = 0..self.partition.n_parts() as u32;
        let spec = self.dnn.spec();
        let mut counts = Counts {
            passes,
            ..Counts::default()
        };
        let mut frames = Vec::new();
        let mut correct = true;
        for pass in 0..passes {
            let last = pass + 1 == passes;
            let open = tr.enter("layers.replay", 0);
            let mut x: Vec<SparseRows> = ranks
                .clone()
                .map(|m| input.extract(self.partition.owned(m)))
                .collect();
            let mut acc: Vec<LayerAccumulator> = ranks
                .clone()
                .map(|m| LayerAccumulator::new(self.partition.owned(m).len(), input.width()))
                .collect();
            for k in 0..spec.layers {
                // Send side: extract, encode, compress; then what the
                // receiver does with the frame before it can merge it.
                let mut inbox: Vec<Vec<SparseRows>> = vec![Vec::new(); x.len()];
                for (mine, sends) in x.iter().zip(&self.plan.layer(k).send) {
                    for (target, rows) in sends {
                        let block = tr.span("sparse.rows.extract", 0, || mine.extract(rows));
                        counts.extract_nnz += block.nnz() as u64;
                        let encoded = tr.span("sparse.codec.encode", 0, || codec::encode(&block));
                        let frame = tr.span("sparse.compress.compress", 0, || {
                            compress::compress(&encoded)
                        });
                        counts.encoded_bytes += encoded.len() as u64;
                        counts.compressed_bytes += frame.len() as u64;
                        let inflated = tr
                            .span("sparse.compress.decompress", 0, || {
                                compress::decompress(&frame)
                            })
                            .expect("own frame inflates");
                        let decoded = tr
                            .span("sparse.codec.decode", 0, || codec::decode(&inflated))
                            .expect("own frame decodes");
                        correct &= decoded == block;
                        if last && !block.is_empty() {
                            frames.push((frame.len(), block));
                        }
                        inbox[*target as usize].push(decoded);
                    }
                }
                // Receive side: merge, one accumulation over the merged
                // inputs, then the activation.
                for (m, (mine, acc)) in ranks.clone().zip(x.iter_mut().zip(&mut acc)) {
                    for block in &inbox[m as usize] {
                        counts.merge_nnz += block.nnz() as u64;
                        tr.span("sparse.rows.merge", 0, || mine.merge(block));
                    }
                    let owned = self.partition.owned(m);
                    let weights = &self.blocks[m as usize][k];
                    acc.reset(owned.len());
                    counts.accumulate_units +=
                        tr.span("sparse.ops.accumulate", 0, || acc.accumulate(weights, mine));
                    let (next, work) = tr.span("sparse.ops.finalize", 0, || {
                        acc.finalize(owned, spec.bias, spec.clip)
                    });
                    counts.finalize_units += work;
                    counts.finalized_rows += owned.len() as u64;
                    *mine = next;
                }
            }
            // Reduce to rank 0.
            let mut out = SparseRows::new(input.width());
            for part in &x {
                out.merge(part);
            }
            correct &= &out == expected;
            tr.exit(open);
        }
        frames.sort_by_key(|(bytes, _)| *bytes);
        Replayed {
            counts,
            frames,
            correct,
        }
    }
}

/// Nanoseconds per unit, 0 when nothing was counted.
fn per(ns: u64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        ns as f64 / units as f64
    }
}

/// The `sparse.*` metrics of a replay, from its spans and counts.
pub fn sparse_metrics(tr: &Tracer, r: &Replayed) -> Vec<(&'static str, f64)> {
    let t = totals(tr.spans());
    let ns = |name: &str| t.get(name).map_or(0, |x| x.total_ns);
    let c = &r.counts;
    let kernel_ns = ns("sparse.ops.accumulate") + ns("sparse.ops.finalize");
    let pack_ns = ns("sparse.rows.extract")
        + ns("sparse.rows.merge")
        + ns("sparse.codec.encode")
        + ns("sparse.codec.decode")
        + ns("sparse.compress.compress")
        + ns("sparse.compress.decompress");
    let passes = c.passes.max(1) as f64;
    vec![
        (
            "sparse.ops.accumulate_ns_per_unit",
            per(ns("sparse.ops.accumulate"), c.accumulate_units),
        ),
        (
            "sparse.ops.finalize_ns_per_row",
            per(ns("sparse.ops.finalize"), c.finalized_rows),
        ),
        (
            "sparse.rows.extract_ns_per_nnz",
            per(ns("sparse.rows.extract"), c.extract_nnz),
        ),
        (
            "sparse.rows.merge_ns_per_nnz",
            per(ns("sparse.rows.merge"), c.merge_nnz),
        ),
        (
            "sparse.codec.encode_ns_per_byte",
            per(ns("sparse.codec.encode"), c.encoded_bytes),
        ),
        (
            "sparse.codec.decode_ns_per_byte",
            per(ns("sparse.codec.decode"), c.encoded_bytes),
        ),
        (
            "sparse.compress.compress_ns_per_byte",
            per(ns("sparse.compress.compress"), c.encoded_bytes),
        ),
        (
            "sparse.compress.decompress_ns_per_byte",
            per(ns("sparse.compress.decompress"), c.encoded_bytes),
        ),
        (
            "sparse.compress.ratio",
            if c.compressed_bytes == 0 {
                0.0
            } else {
                c.encoded_bytes as f64 / c.compressed_bytes as f64
            },
        ),
        ("sparse.kernel_ms_per_req", kernel_ns as f64 / 1e6 / passes),
        ("sparse.pack_ms_per_req", pack_ns as f64 / 1e6 / passes),
    ]
}
