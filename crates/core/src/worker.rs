//! The FSI worker routine (Algorithms 1 & 2, channel-generic).
//!
//! There is one launch path — every request runs on a `WorkerTree`
//! (`warm.rs`) of keep-alive instances, whether that tree lives for one
//! work item (no pool) or many — and this module is what an instance of it
//! does *per request*: per inference batch (paper Fig. 1:
//! "Batch 1 … Batch n, SYNC"), per layer, a worker sends its owed rows,
//! computes the local product to overlap communication with computation,
//! receives and accumulates inbound rows until its receive map is
//! satisfied, and applies the activation. Neither the paper's per-batch
//! SYNC barrier nor its closing `reduce(P_0, x^L_m)` runs: layer tags are
//! unique per (batch, layer), and each rank hands its own final rows back
//! with its work-item result, which the tree merges once every rank has
//! reported (`WorkerTree::collect` already waits for all of them).
//! Launching the tree and loading weight/map artifacts happen once per
//! instance in `warm.rs` and amortize across batches and requests — the
//! data-parallel batch processing the paper builds in. FSD-Inf-Serial is
//! the one-rank tree: its send and receive maps are empty, so the same
//! loop runs with every communication step removed.
//!
//! A batch starts from the rank's input share. The paper's workers read it
//! from object storage; here a warm item carries each share that fits its
//! rank's Invoke payload, so the rank decodes it from the dispatch, and
//! only a cold item's shares, or a share too large to ride, are GET
//! (`load_input_share_into`).

use crate::artifacts::{load_input_share_into, WorkerArtifacts};
use crate::channel::{RecvTracker, Tag};
use crate::engine::LaunchPath;
use crate::recycle::Recycler;
use crate::stats::ChannelStatsSnapshot;
use crate::warm::{TreeParams, WorkItem};
use fsd_faas::{FaasError, InvocationReport, WorkerCtx};
use fsd_model::DnnSpec;
use fsd_sparse::{LayerAccumulator, SparseRows};

/// What one instance produced for one request's batches.
pub struct WorkerOutput {
    /// This rank's own final rows `x^L`, one block per batch. Every rank
    /// returns its part; the tree merges the parts once all have reported.
    pub final_rows: Vec<SparseRows>,
    /// Artifact GETs this instance issued for the request.
    pub artifact_gets: u64,
    /// Kernel work units this instance charged.
    pub work_done: u64,
}

/// What one whole run — every instance of a tree — hands the service to
/// assemble an `InferenceReport` from.
pub(crate) struct RunOutput {
    /// The final activations per batch: every rank's rows, merged.
    pub final_batches: Vec<SparseRows>,
    /// `(rank, final rows per batch)` of each absorbed instance, until
    /// [`RunOutput::merge_parts`] merges them into `final_batches`.
    parts: Vec<(u32, Vec<SparseRows>)>,
    /// `(rank, report)` in rank order.
    pub reports: Vec<(u32, InvocationReport)>,
    /// Artifact GETs across all instances.
    pub artifact_gets: u64,
    /// Kernel work units across all instances.
    pub work_done: u64,
    /// Client-side statistics of the run's data channel.
    pub client: ChannelStatsSnapshot,
    /// Whether the run paid the launch bill.
    pub launch: LaunchPath,
}

impl RunOutput {
    /// An empty run on `launch`'s path, to [`RunOutput::absorb`] into.
    pub(crate) fn new(launch: LaunchPath) -> RunOutput {
        RunOutput {
            final_batches: Vec::new(),
            parts: Vec::new(),
            reports: Vec::new(),
            artifact_gets: 0,
            work_done: 0,
            client: ChannelStatsSnapshot::default(),
            launch,
        }
    }

    /// Folds one instance's output and billing report into the run.
    pub(crate) fn absorb(&mut self, rank: u32, out: WorkerOutput, report: InvocationReport) {
        self.reports.push((rank, report));
        self.artifact_gets += out.artifact_gets;
        self.work_done += out.work_done;
        self.parts.push((rank, out.final_rows));
    }

    /// Once every instance is absorbed: merges each batch's parts, in rank
    /// order, with one [`SparseRows::merge_all`]. The ranks own disjoint
    /// rows and the merge emits them in ascending id, so the result is the
    /// serial layer loop's, whatever order the instances reported in.
    pub(crate) fn merge_parts(&mut self) {
        self.parts.sort_unstable_by_key(|(rank, _)| *rank);
        let batches = self.parts.first().map_or(0, |(_, rows)| rows.len());
        self.final_batches = (0..batches)
            .map(|b| {
                let parts: Vec<&SparseRows> = self.parts.iter().map(|(_, rows)| &rows[b]).collect();
                SparseRows::merge_all(&parts)
            })
            .collect();
        self.parts.clear();
    }
}

/// Batch-aware layer tag: tags must be distinct across batches so early
/// arrivals stash correctly and object keys never collide with a previous
/// batch's persisted files. An index past 32 bits is [`Tag::encode`]'s
/// `"tag"` error — never a silent wrap onto an earlier tag.
fn layer_tag(spec: &DnnSpec, batch: usize, k: usize) -> Result<Tag, FaasError> {
    let index = batch as u128 * spec.layers as u128 + k as u128;
    u32::try_from(index).map(Tag::Layer).map_err(|_| {
        FaasError::comm(
            "tag",
            format!("L{index}"),
            format!("{index} does not fit the tag field"),
        )
    })
}

/// The buffers one rank's layer loop works in: the dense accumulator and
/// the two activation blocks it ping-pongs between (`x^k` is read while
/// `x^{k+1}` is finalized into the other, then they swap). They are grown
/// once and then reused across layers, batches and — through the
/// [`WorkspacePool`] — requests, instead of being paged in afresh 24 times
/// a request.
pub(crate) struct Workspace {
    acc: LayerAccumulator,
    x: SparseRows,
    next: SparseRows,
    sends: Vec<(u32, SparseRows)>,
}

impl Default for Workspace {
    fn default() -> Workspace {
        Workspace {
            acc: LayerAccumulator::new(0, 0),
            x: SparseRows::new(0),
            next: SparseRows::new(0),
            sends: Vec::new(),
        }
    }
}

/// A service's idle [`Workspace`]s. A rank checks one out per work item, so
/// what stays allocated is bounded by the ranks *running*, not by the
/// instances parked in warm trees.
pub(crate) type WorkspacePool = Recycler<Workspace>;

/// Runs every batch of one request through an already-loaded worker: per
/// batch, the rank's input share (from `item`'s dispatch or a GET), then
/// the layer loop of Algorithms 1 & 2, after which the rank keeps
/// its own `x^L` rows for its result and goes straight on to the next
/// batch; no barrier or reduce closes a batch. Nothing of batch b + 1 can
/// be mistaken for batch b, since every layer's tag is unique per
/// (batch, layer) and the engine holds back frames of other tags. A
/// keep-alive instance runs *exactly* this per work item, so outputs are
/// bit-identical between a tree's first (cold) request and every later
/// (warm) one by construction.
pub(crate) fn run_batches(
    ctx: &mut WorkerCtx,
    item: &WorkItem,
    rank: u32,
    params: &TreeParams,
    art: &mut WorkerArtifacts,
) -> Result<WorkerOutput, FaasError> {
    let (channel, spec) = (&item.channel, &params.spec);
    // A failed item drops its workspace instead of giving it back.
    let mut ws = params.workspaces.take();
    let Workspace {
        acc,
        x,
        next,
        sends,
    } = &mut ws;
    let mut artifact_gets = 0u64;
    let mut work_done = 0u64;
    let mut final_rows: Vec<SparseRows> = Vec::with_capacity(item.batch_widths.len());
    for (b, &width) in item.batch_widths.iter().enumerate() {
        let key = format!("{}/b{b}", item.input_key);
        let inline = item.inline[rank as usize][b].as_deref();
        let got = load_input_share_into(ctx, &key, params.n_workers, rank, inline, x)?;
        artifact_gets += u64::from(got);
        acc.reshape(art.owned.len(), width);
        ctx.track_alloc(art.owned.len() * width * 4);
        ctx.check_limits()?;

        // --- the layer loop (Algorithms 1 & 2) --------------------------
        for k in 0..spec.layers {
            // Streamed cold starts leave layers encoded until compute
            // reaches them (execute-while-load); eager loads no-op here.
            art.ensure_layer(ctx, k, spec.neurons)?;
            let tag = layer_tag(spec, b, k)?;
            // Sends: extract and ship the rows each target needs.
            sends.resize_with(art.send[k].len(), || (0, SparseRows::new(0)));
            for (slot, (target, rows)) in sends.iter_mut().zip(&art.send[k]) {
                slot.0 = *target;
                x.extract_into(rows, &mut slot.1);
            }
            channel.send_layer(ctx, tag, rank, sends)?;

            // Local product overlaps with inbound communication: its
            // compute time is charged *now* (before polling), while the
            // numeric accumulation is deferred and done over the whole
            // input set in ascending id — so the f32 summation order (and
            // hence the result) is bit-identical to the serial ground truth.
            let local_work = art.weight(k).matched_work(x);
            ctx.charge_work(local_work);
            work_done += local_work;

            // Receive until every expected source delivered, then charge
            // each block's accumulate work (still overlapped). A receive
            // round returns a tag's blocks only in the round that completes
            // it, so charging after the loop is charging as they arrive:
            // the same clock at every poll, the same per-block order.
            let mut tracker = RecvTracker::expecting(art.recv[k].iter().map(|(s, _)| *s));
            let mut arrived: Vec<SparseRows> = Vec::new();
            for (_, block) in channel.receive_all(ctx, tag, rank, &mut tracker)? {
                let w = art.weight(k).matched_work(&block);
                ctx.charge_work(w);
                work_done += w;
                ctx.track_alloc(block.mem_bytes());
                arrived.push(block);
            }

            // One deterministic accumulation over all inputs (work already
            // charged above), then the activation x^k = f(z^k). The block
            // that merging the arrivals into `x` would give is never built;
            // the memory model is still fed its size.
            let inputs: Vec<&SparseRows> = std::iter::once(&*x).chain(&arrived).collect();
            acc.reset(art.owned.len());
            acc.accumulate_parts(art.weight(k), &inputs);
            let old_mem = SparseRows::merged_mem_bytes(&inputs);
            let fw = acc.finalize_into(&art.owned, spec.bias, spec.clip, next);
            ctx.charge_work(fw);
            work_done += fw;
            ctx.track_free(old_mem);
            ctx.track_alloc(next.mem_bytes());
            std::mem::swap(x, next);
            ctx.check_limits()?;
        }

        // The block leaves the memory model with the batch: the result it
        // rides back in is not a rank's working set. It is copied out so
        // the workspace keeps its buffers for the next batch.
        final_rows.push(x.clone());
        ctx.track_free(x.mem_bytes() + art.owned.len() * width * 4);
    }
    params.workspaces.give(ws);
    Ok(WorkerOutput {
        final_rows,
        artifact_gets,
        work_done,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_layer_index_past_32_bits_is_a_tag_error_not_a_wrap() {
        let spec = DnnSpec {
            layers: 1 << 31,
            ..DnnSpec::scaled(64, 1)
        };
        assert_eq!(layer_tag(&spec, 0, 5).ok(), Some(Tag::Layer(5)));
        // Batch 2 starts at 2^32, which wrapped to `Tag::Layer(0)`.
        match layer_tag(&spec, 2, 0) {
            Err(FaasError::Comm(failure)) => assert_eq!(failure.op, "tag"),
            other => panic!("expected a tag error, got {other:?}"),
        }
    }
}
