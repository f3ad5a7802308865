//! The FSI worker routine (Algorithms 1 & 2, channel-generic).
//!
//! There is one launch path — every request runs on a `WorkerTree`
//! (`warm.rs`) of keep-alive instances, whether that tree lives for one
//! work item (no pool) or many — and this module is what an instance of it
//! does *per request*: per inference batch (paper Fig. 1:
//! "Batch 1 … Batch n, SYNC"), per layer, a worker sends its owed rows,
//! computes the local product to overlap communication with computation,
//! receives and accumulates inbound rows until its receive map is
//! satisfied, and applies the activation. A barrier + reduce per batch
//! delivers that batch's result to rank 0. Launching the tree and loading
//! weight/map artifacts happen once per instance in `warm.rs` and amortize
//! across batches and requests — the data-parallel batch processing the
//! paper builds in. FSD-Inf-Serial is the one-rank tree: its send and
//! receive maps are empty and its collectives return at once, so the same
//! loop runs with every communication step removed.

use crate::artifacts::{load_input_share_into, WorkerArtifacts};
use crate::channel::{barrier, reduce, FsiChannel, RecvTracker, Tag};
use crate::engine::LaunchPath;
use crate::stats::ChannelStatsSnapshot;
use fsd_faas::{FaasError, InvocationReport, WorkerCtx};
use fsd_model::DnnSpec;
use fsd_sparse::{LayerAccumulator, SparseRows};
use parking_lot::Mutex;
use std::sync::Arc;

/// What one instance produced for one request's batches.
pub struct WorkerOutput {
    /// Final activations per batch (root only, after each reduce).
    pub final_batches: Option<Vec<SparseRows>>,
    /// Artifact GETs this instance issued for the request.
    pub artifact_gets: u64,
    /// Kernel work units this instance charged.
    pub work_done: u64,
}

/// What one whole run — every instance of a tree — hands the service to
/// assemble an `InferenceReport` from.
pub(crate) struct RunOutput {
    /// Rank 0's final activations per batch.
    pub final_batches: Vec<SparseRows>,
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
        if rank == 0 {
            self.final_batches = out.final_batches.unwrap_or_default();
        }
    }
}

/// Batch-aware layer tag: tags must be distinct across batches so early
/// arrivals stash correctly and object keys never collide with a previous
/// batch's persisted files.
fn layer_tag(spec: &DnnSpec, batch: usize, k: usize) -> Tag {
    Tag::Layer((batch * spec.layers + k) as u32)
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

/// A service's idle [`Workspace`]s. A rank checks one out per work item, so
/// what stays allocated is bounded by the ranks *running*, not by the
/// instances parked in warm trees.
#[derive(Default)]
pub(crate) struct WorkspacePool {
    idle: Mutex<Vec<Workspace>>,
}

impl WorkspacePool {
    /// Idle workspaces kept; one checked in beyond that is freed.
    const MAX_IDLE: usize = 16;

    fn checkout(&self) -> Workspace {
        self.idle.lock().pop().unwrap_or_else(|| Workspace {
            acc: LayerAccumulator::new(0, 0),
            x: SparseRows::new(0),
            next: SparseRows::new(0),
            sends: Vec::new(),
        })
    }

    fn checkin(&self, ws: Workspace) {
        let mut idle = self.idle.lock();
        if idle.len() < Self::MAX_IDLE {
            idle.push(ws);
        }
    }
}

/// Runs every batch of one request through an already-loaded worker: per
/// batch, the layer loop of Algorithms 1 & 2 followed by a barrier + reduce
/// to rank 0. A keep-alive instance runs *exactly* this per work item,
/// so outputs are bit-identical between a tree's first (cold) request and
/// every later (warm) one by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_batches(
    ctx: &mut WorkerCtx,
    channel: &Arc<dyn FsiChannel>,
    rank: u32,
    n_workers: u32,
    spec: &DnnSpec,
    art: &mut WorkerArtifacts,
    workspaces: &WorkspacePool,
    input_key: &str,
    batch_widths: &[usize],
) -> Result<WorkerOutput, FaasError> {
    // A failed item drops its workspace instead of checking it in.
    let mut ws = workspaces.checkout();
    let Workspace {
        acc,
        x,
        next,
        sends,
    } = &mut ws;
    let mut artifact_gets = 0u64;
    let mut work_done = 0u64;
    let mut final_batches: Vec<SparseRows> = Vec::new();
    for (b, &width) in batch_widths.iter().enumerate() {
        load_input_share_into(ctx, &format!("{input_key}/b{b}"), n_workers, rank, x)?;
        artifact_gets += 1;
        acc.reshape(art.owned.len(), width);
        ctx.track_alloc(art.owned.len() * width * 4);
        ctx.check_limits()?;

        // --- the layer loop (Algorithms 1 & 2) --------------------------
        for k in 0..spec.layers {
            // Streamed cold starts leave layers encoded until compute
            // reaches them (execute-while-load); eager loads no-op here.
            art.ensure_layer(ctx, k)?;
            let tag = layer_tag(spec, b, k);
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

        // --- synchronize and reduce this batch to rank 0 ----------------
        barrier(channel.as_ref(), ctx, rank, n_workers, b as u32)?;
        if let Some(out) = reduce(channel.as_ref(), ctx, rank, n_workers, x, b as u32)? {
            final_batches.push(out);
        }
        ctx.track_free(x.mem_bytes() + art.owned.len() * width * 4);
    }
    workspaces.checkin(ws);
    Ok(WorkerOutput {
        final_batches: if rank == 0 { Some(final_batches) } else { None },
        artifact_gets,
        work_done,
    })
}
