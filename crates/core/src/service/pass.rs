//! The one launch path — a pass of work items over one worker tree — and
//! the warm-pool façade.

use super::bill::apportion;
use super::route::provisionable;
use super::stage::input_key;
use super::{Bill, FsdService};
use crate::artifacts::ARTIFACT_BUCKET;
use crate::channel::FsiChannel;
use crate::engine::{BatchedRequest, InferenceReport, Variant, WorkerReport};
use crate::error::FsdError;
use crate::pool::WarmPoolStats;
use crate::stats::ChannelStatsSnapshot;
use crate::transport::Transport;
use crate::warm::{TreeKey, TreeParams, WorkItem, WorkerTree};
use crate::worker::RunOutput;
use fsd_comm::{MeterSnapshot, VirtualTime};
use fsd_faas::{FaasError, LambdaSnapshot};
use fsd_partition::Partition;
use fsd_sparse::SparseRows;
use std::borrow::Cow;
use std::sync::Arc;

impl FsdService {
    /// The shared request-teardown tail: deletes the request's input
    /// artifacts, harvests and releases its flow-scoped billing windows
    /// (success or not — a long-lived service must not accrete per-flow
    /// buckets) into the service's bills, and assembles the
    /// [`InferenceReport`]. Every instance that could still bill `flow`
    /// must have been joined by now.
    pub(super) fn finalize_report(
        &self,
        resolved: Variant,
        p: u32,
        req: &BatchedRequest,
        flow: u64,
        ran: Result<RunOutput, FsdError>,
    ) -> Result<InferenceReport, FsdError> {
        // Feed the transport scoreboard: a communication failure marks the
        // transport unhealthy; compute-side errors (OOM, timeout, missing
        // output) say nothing about it and are not recorded.
        match &ran {
            Ok(_) => self.health.record(resolved, true),
            Err(FsdError::Comm(_)) => self.health.record(resolved, false),
            Err(_) => {}
        }
        // Every rank reports and the last one's finish is the latency
        // (every request arrives at virtual time zero); a run without a
        // report or an output failed, and is billed as such below.
        let ran = ran.and_then(|run| {
            let latency = run.reports.iter().map(|(_, r)| r.finished).max();
            let latency = latency.ok_or(FsdError::NoWorkerReports)?;
            if run.final_batches.is_empty() {
                return Err(FsdError::MissingOutput);
            }
            Ok((run, latency))
        });
        // Per-request input artifacts are dead after the run (success or
        // not); remove them so a long-lived service does not accrete state.
        self.env
            .object_store()
            .delete_prefix(ARTIFACT_BUCKET, &format!("{}/", input_key(flow)));
        // A streamed tree closes its own weight mailboxes when it shuts
        // down; one parked after this request has not yet, so close the
        // request flow's here too (no other tree streams on it).
        self.env.weight_net().close_flow(flow);
        let bill = self.harvest_flow(flow, ran.is_ok());
        let (run, latency) = ran?;
        let per_worker: Vec<WorkerReport> = run
            .reports
            .iter()
            .map(|(rank, r)| WorkerReport {
                rank: *rank,
                started: r.started,
                finished: r.finished,
                billed_ms: r.billed_ms,
                peak_mem_bytes: r.peak_mem_bytes,
                memory_mb: r.memory_mb,
            })
            .collect();
        let Bill { comm, lambda } = bill;
        let cost_actual = self.cost.actual(&lambda, &comm);
        let cost_predicted = self.cost.predicted(&lambda, &run.client, run.artifact_gets);
        Ok(InferenceReport {
            variant: resolved,
            workers: p,
            launch: run.launch,
            latency,
            per_worker,
            comm,
            lambda,
            client: run.client,
            cost_actual,
            cost_predicted,
            outputs: run.final_batches,
            samples: req.batches.iter().map(|b| b.width()).sum(),
            work_done: run.work_done,
        })
    }

    /// The one launch path. Runs `reqs` — all resolved to shape `key`, at
    /// least one — on one worker tree: a pool checkout, else a launch billed
    /// to the first member's flow. The members ride as few work items as
    /// [`work_items`] allows: each item is one flow, one channel and one
    /// dispatch, whose members' samples ride [`fuse`]d side by side, and
    /// its report is split back into one per member ([`split_report`]). The
    /// tree is released after the last item (pool check-in or discard;
    /// without a pool, drop — which joins every instance), and only then is
    /// that item's flow window closed, so no instance can bill a released
    /// flow. A pool-less single request is the degenerate pass: a tree that
    /// lives for one work item.
    ///
    /// A failed item discards the (possibly poisoned) tree. A lone member
    /// reports the error; a fused item's members, and every member not yet
    /// run, then run alone, each on a tree of its own.
    pub(super) fn run_pass(
        &self,
        key: TreeKey,
        reqs: &[BatchedRequest],
    ) -> Vec<Result<InferenceReport, FsdError>> {
        let transport = Transport::of(key.variant).expect("a tree shape's variant has a transport");
        let p = key.workers;
        let partition = self.partition(p);
        let mut tree = self.pool.as_ref().and_then(|pool| pool.checkout(key));
        let items = work_items(reqs, tree.is_none());
        let mut results: Vec<Option<Result<InferenceReport, FsdError>>> =
            reqs.iter().map(|_| None).collect();
        for (i, item) in items.iter().enumerate() {
            let members: Vec<&BatchedRequest> = item.iter().map(|&m| &reqs[m]).collect();
            let fused = fuse(&members);
            let flow = self.open_flow();
            let channel = || transport.channel(&self.env, p, self.cfg.channel, flow, &self.frames);
            let ran = self.run_member(key, &fused, flow, &partition, &mut tree, channel);
            if let Some(tree) = tree.take_if(|_| i + 1 == items.len()) {
                self.release_tree(tree, false);
            }
            match self.finalize_report(key.variant, p, &fused, flow, ran) {
                Ok(report) => {
                    for (&m, part) in item.iter().zip(split_report(report, &members)) {
                        results[m] = Some(Ok(part));
                    }
                }
                // A lone member reports its error; a fused item's members
                // rerun below.
                Err(e) => {
                    if let [m] = item[..] {
                        results[m] = Some(Err(e));
                    }
                    break;
                }
            }
        }
        results
            .into_iter()
            .zip(reqs)
            .map(|(done, req)| done.unwrap_or_else(|| self.submit_batched(req)))
            .collect()
    }

    /// Runs one work item of a pass on the tree in `slot`, launching one
    /// billed to `flow` first if the slot is empty, over the data channel
    /// `channel` provisions once the tree is in hand. An item that lands on
    /// a resident tree — a pool checkout, or one an earlier item of the
    /// pass left in the slot — is `warm`: one control-plane hop, billed
    /// under its own flow, whose Invokes carry the input shares that fit
    /// them. Only the item whose flow launched the tree pays the launch
    /// bill. Inputs are delivered once the tree is in hand, since whether
    /// it is warm decides which shares are staged
    /// (`FsdService::stage_request`).
    /// On failure the tree is taken out of the slot and discarded (joined)
    /// *before* the item's channel is torn down, so no straggler touches
    /// a torn-down channel.
    fn run_member(
        &self,
        key: TreeKey,
        req: &BatchedRequest,
        flow: u64,
        partition: &Partition,
        slot: &mut Option<WorkerTree>,
        channel: impl FnOnce() -> Arc<dyn FsiChannel>,
    ) -> Result<RunOutput, FsdError> {
        let warm = slot.is_some();
        let tree = match slot {
            Some(tree) => tree,
            None => slot.insert(self.new_tree(key, flow)?),
        };
        let inline = self.stage_request(req, partition, flow, warm);
        let channel = channel();
        // One control-plane hop routes a request into a resident tree.
        let dispatch_at = VirtualTime::from_micros(self.env.latency().lambda_invoke_us);
        let ran = tree.run(WorkItem {
            warm,
            flow,
            input_key: input_key(flow),
            inline,
            batch_widths: req.batches.iter().map(|b| b.width()).collect(),
            channel: channel.clone(),
            dispatch_at,
        });
        if ran.is_err() {
            self.release_tree(slot.take().expect("the tree that just ran"), true);
        }
        // Release the item's queues/subscriptions/objects — error or not.
        channel.teardown();
        Ok(ran?)
    }

    /// Retires a tree its pass is done with. Without a pool it is dropped,
    /// which joins every instance; with one it is parked for the next
    /// request of its shape — or, after a `failed` run, discarded (never
    /// reuse a possibly poisoned tree).
    fn release_tree(&self, tree: WorkerTree, failed: bool) {
        match &self.pool {
            None => drop(tree),
            Some(pool) if failed => pool.discard(tree),
            Some(pool) => pool.checkin(tree),
        }
    }

    /// Launches a tree of shape `key` billed to `flow`: a request's own
    /// flow, or 0 (unattributed, like offline staging) for trees launched
    /// ahead of traffic — pre-warms.
    /// The single construction point, so every tree agrees on streaming
    /// mode, shares the one weight cache and is counted by the pool —
    /// live, parked or serving, until it drops.
    pub(super) fn new_tree(&self, key: TreeKey, flow: u64) -> Result<WorkerTree, FaasError> {
        let params = TreeParams {
            n_workers: key.workers,
            branching: self.cfg.launch_fanout(key.workers),
            memory_mb: key.memory_mb,
            model_key: self.model_key.clone(),
            spec: *self.dnn.spec(),
            stream: self.cfg.stream_weights,
            cache: self.weight_cache.clone(),
            workspaces: self.workspaces.clone(),
        };
        WorkerTree::launch(&self.platform, key, self.pool.as_ref(), params, flow)
    }

    /// Launches a warm tree for `(variant, workers, memory_mb)` ahead of
    /// traffic and parks it in the pool, so the *first* matching request
    /// is already a [`crate::LaunchPath::WarmHit`]. The shape is keyed and
    /// checked as [`FsdService::tree_of`] does a request's
    /// (`prewarm_tree(Serial, 4, 1769)` parks the one-rank Serial tree).
    /// The launch runs on the unattributed flow (0), as offline staging.
    ///
    /// # Panics
    /// If the service was built without `warm_pool` — a configuration bug.
    pub fn prewarm_tree(
        &self,
        variant: Variant,
        workers: u32,
        memory_mb: u32,
    ) -> Result<(), FsdError> {
        let pool = self
            .pool
            .as_ref()
            .expect("prewarm_tree requires ServiceBuilder::warm_pool");
        let key = provisionable(self.shape(variant, workers, memory_mb))?;
        self.prepare(key.workers);
        pool.checkin(self.new_tree(key, 0)?);
        Ok(())
    }

    /// Warm-pool counters, if a pool is configured.
    pub fn warm_pool_stats(&self) -> Option<WarmPoolStats> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// Invalidates every warm tree (generation bump + eager shutdown).
    /// Call after re-staging model weights: a warm tree keeps its weights
    /// resident and must never serve requests for newer artifacts.
    /// Returns how many parked trees were dropped; 0 without a pool.
    pub fn invalidate_warm_trees(&self) -> usize {
        // The shared weight cache holds blocks of the same staged model the
        // warm trees loaded: a redeploy that obsoletes the trees obsoletes
        // the cached blocks with them.
        self.weight_cache.invalidate();
        self.pool.as_ref().map_or(0, |p| p.invalidate())
    }

    /// Parked warm trees currently matching `(variant, workers, memory)`
    /// (keyed as [`FsdService::tree_of`] keys requests). 0 without a pool.
    // fsd_lint::allow(orphan-pub): integration-test inspection surface (per-shape shelf)
    pub fn warm_idle_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = self.shape(variant, workers, memory_mb);
        self.pool.as_ref().map_or(0, |p| p.idle_of(key))
    }

    /// Warm trees of the shape that exist at all — parked *or* currently
    /// serving a request. 0 without a pool. Predictors top a shape up to
    /// its burst target against this count: a burst's own checkouts must
    /// not read as missing capacity, or every in-flight request would
    /// trigger a redundant pre-warm.
    pub fn warm_live_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = self.shape(variant, workers, memory_mb);
        self.pool.as_ref().map_or(0, |p| p.live_of(key))
    }

    /// Evicts every parked warm tree of one shape (predictor decisions:
    /// traffic of this shape has gone quiet). Returns how many trees were
    /// dropped; 0 without a pool.
    pub fn evict_warm_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = self.shape(variant, workers, memory_mb);
        self.pool.as_ref().map_or(0, |p| p.evict_shape(key))
    }

    /// Arms the kill switch of worker `rank` on one *parked* tree of shape
    /// `(variant, workers, memory_mb)` (keyed as [`FsdService::tree_of`]
    /// keys requests), so the next request routed into it loses the
    /// instance mid-request (failure injection / chaos). Returns whether a
    /// tree was armed: `false` without a pool or with no parked tree of the
    /// shape. Comm-plane faults go to the region's plane instead
    /// (`env().faults().inject`).
    // fsd_lint::allow(orphan-pub): integration-test fault-injection surface
    pub fn kill_warm_worker(
        &self,
        variant: Variant,
        workers: u32,
        memory_mb: u32,
        rank: u32,
    ) -> bool {
        let key = self.shape(variant, workers, memory_mb);
        self.pool
            .as_ref()
            .is_some_and(|pool| pool.arm_kill(key, rank))
    }
}

/// A pass's work items, as member indices in member order. Members with
/// equal batch counts ride one item, in order of first appearance, except
/// a head that must `launch` the tree: it rides alone, as a lone request
/// would, so no follower's latency includes the launch.
fn work_items(reqs: &[BatchedRequest], launch: bool) -> Vec<Vec<usize>> {
    let mut items: Vec<Vec<usize>> = Vec::new();
    for (m, req) in reqs.iter().enumerate() {
        let batches = req.batches.len();
        let fellow = items
            .iter_mut()
            .skip(usize::from(launch))
            .find(|item| reqs[item[0]].batches.len() == batches);
        match fellow {
            Some(item) => item.push(m),
            None => items.push(vec![m]),
        }
    }
    items
}

/// The one request a work item's `members` ride: its batch `b` is the
/// members' batch `b` side by side along the sample axis
/// ([`SparseRows::concat_columns`]). A lone member rides as it is.
fn fuse<'a>(members: &[&'a BatchedRequest]) -> Cow<'a, BatchedRequest> {
    let head = members[0];
    if members.len() == 1 {
        return Cow::Borrowed(head);
    }
    let batches = (0..head.batches.len())
        .map(|b| {
            let parts: Vec<&SparseRows> = members.iter().map(|m| &m.batches[b]).collect();
            SparseRows::concat_columns(&parts)
        })
        .collect();
    Cow::Owned(BatchedRequest {
        variant: head.variant,
        workers: head.workers,
        memory_mb: head.memory_mb,
        batches,
    })
}

/// One report per member of a fused work item, from the item's `report`
/// (a lone member's is the item's). A member's outputs are its own columns
/// of the item's; its latency, per-worker facts and launch path are the
/// item's; every counter of the item's window ([`apportion`]ed) and its
/// costs are split by sample share, so the members' bills sum to the
/// window exactly. Members without a sample between them share evenly.
fn split_report(mut report: InferenceReport, members: &[&BatchedRequest]) -> Vec<InferenceReport> {
    if let [_] = members {
        return vec![report];
    }
    let samples: Vec<u64> = members
        .iter()
        .map(|m| m.batches.iter().map(|b| b.width() as u64).sum())
        .collect();
    let shares = match report.samples {
        0 => vec![1; members.len()],
        _ => samples.clone(),
    };
    let mut outputs: Vec<Vec<SparseRows>> = vec![Vec::new(); members.len()];
    for (b, fused) in std::mem::take(&mut report.outputs).iter().enumerate() {
        let widths: Vec<usize> = members.iter().map(|m| m.batches[b].width()).collect();
        for (mine, part) in outputs.iter_mut().zip(fused.split_columns(&widths)) {
            mine.push(part);
        }
    }
    let comm = apportion(report.comm, &shares, MeterSnapshot::counters_mut);
    let lambda = apportion(report.lambda, &shares, LambdaSnapshot::counters_mut);
    let client = apportion(report.client, &shares, ChannelStatsSnapshot::counters_mut);
    let work_done = apportion(report.work_done, &shares, |w| [w]);
    let total = shares.iter().sum::<u64>() as f64;
    outputs
        .into_iter()
        .enumerate()
        .map(|(i, outputs)| InferenceReport {
            comm: comm[i],
            lambda: lambda[i],
            client: client[i],
            cost_actual: report.cost_actual.scaled(shares[i] as f64 / total),
            cost_predicted: report.cost_predicted.scaled(shares[i] as f64 / total),
            outputs,
            samples: samples[i] as usize,
            work_done: work_done[i],
            ..report.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::small_service;
    use super::*;
    use crate::builder::ServiceBuilder;
    use crate::engine::InferenceRequest;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use std::sync::Arc;

    /// A data channel on which rank `rank` panics as it sends its first
    /// layer, so its peers wait in `receive_all` for frames that never
    /// come.
    struct PanicsOnSend {
        inner: Arc<dyn FsiChannel>,
        rank: u32,
    }

    impl FsiChannel for PanicsOnSend {
        fn stats(&self) -> &crate::stats::ChannelStats {
            self.inner.stats()
        }

        fn teardown(&self) {
            self.inner.teardown()
        }

        fn send_layer(
            &self,
            ctx: &mut fsd_faas::WorkerCtx,
            tag: crate::channel::Tag,
            src: u32,
            sends: &[(u32, fsd_sparse::SparseRows)],
        ) -> Result<(), FaasError> {
            assert_ne!(src, self.rank, "planted panic");
            self.inner.send_layer(ctx, tag, src, sends)
        }

        fn receive_round(
            &self,
            ctx: &mut fsd_faas::WorkerCtx,
            tag: crate::channel::Tag,
            me: u32,
            tracker: &mut crate::channel::RecvTracker,
        ) -> Result<Vec<(u32, fsd_sparse::SparseRows)>, FaasError> {
            self.inner.receive_round(ctx, tag, me, tracker)
        }
    }

    #[test]
    fn a_panicking_rank_fails_its_request_instead_of_hanging_it() {
        let (base, inputs, _) = small_service(29);
        let service = Arc::new(
            ServiceBuilder::new(base.dnn.clone())
                .deterministic(29)
                .warm_pool(2, u64::MAX)
                .build(),
        );
        let svc = service.clone();
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let req = BatchedRequest {
                variant: Variant::Queue,
                workers: 4,
                memory_mb: 1769,
                batches: vec![inputs],
            };
            let key = svc.key_of(&req).expect("a valid request");
            let flow = svc.open_flow();
            let mut slot = None;
            let ran = svc.run_member(key, &req, flow, &svc.partition(4), &mut slot, || {
                let transport = Transport::of(Variant::Queue).expect("queue");
                let inner = transport.channel(&svc.env, 4, svc.cfg.channel, flow, &svc.frames);
                Arc::new(PanicsOnSend { inner, rank: 2 })
            });
            assert!(slot.is_none(), "a failed member's tree leaves the pass");
            let _ = done.send(svc.finalize_report(key.variant, 4, &req, flow, ran));
        });
        // Without the catch, rank 2's peers wait for its frames forever.
        let res = outcome
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the request failed instead of hanging");
        match res {
            Err(FsdError::Panic { instance, detail }) => {
                assert_eq!(instance, "fsd-worker-2");
                assert!(detail.contains("planted panic"), "{detail}");
            }
            other => panic!("expected the rank's panic, got {other:?}"),
        }
        let stats = service.warm_pool_stats().expect("pool");
        let live = service.warm_live_trees(Variant::Queue, 4, 1769);
        assert_eq!((stats.discarded_poisoned, stats.idle, live), (1, 0, 0));
        assert_eq!(service.audit(), Vec::<String>::new());
    }

    #[test]
    fn a_runtime_prewarm_leaves_a_running_requests_mark_alone() {
        let (service, _, _) = small_service(23);
        let service = ServiceBuilder::new(service.dnn.clone())
            .deterministic(23)
            .warm_pool(4, u64::MAX)
            .build();
        let (v, p, mb) = (Variant::Queue, 2, 1769);
        let key = service.shape(v, p, mb);
        let pool = service.pool.as_ref().expect("warm pool configured");
        // Live trees are the parked ones plus the ones held here.
        let check = |running: usize, what: &str| {
            let parked = service.warm_idle_trees(v, p, mb);
            assert_eq!(
                service.warm_live_trees(v, p, mb),
                parked + running,
                "{what}"
            );
        };
        // A request of the shape is running on a tree created for it…
        let mut held = vec![service.new_tree(key, 0).expect("launches")];
        // …when a pre-warm of the same shape parks a second tree.
        service.prewarm_tree(v, p, mb).expect("pre-warm launches");
        assert_eq!(service.warm_live_trees(v, p, mb), 2);
        check(1, "pre-warm");
        held.push(pool.checkout(key).expect("the pre-warm is parked"));
        check(2, "checkout");
        pool.checkin(held.pop().expect("held"));
        check(1, "check-in");
        pool.discard(held.pop().expect("held"));
        check(0, "discard");
        assert_eq!(service.warm_live_trees(v, p, mb), 1);
        held.push(service.new_tree(key, 0).expect("launches"));
        assert_eq!(service.evict_warm_trees(v, p, mb), 1);
        check(1, "evict");
        service.prewarm_tree(v, p, mb).expect("pre-warm launches");
        assert_eq!(service.invalidate_warm_trees(), 1);
        check(1, "invalidate");
        drop(held);
        check(0, "drop");
        assert_eq!(service.warm_live_trees(v, p, mb), 0);
        assert_eq!(service.audit(), Vec::<String>::new());
    }

    #[test]
    fn a_warm_kill_needs_a_pool_and_a_parked_tree_of_the_shape() {
        let (poolless, ..) = small_service(24);
        assert!(!poolless.kill_warm_worker(Variant::Queue, 2, 1769, 1));
        let pooled = ServiceBuilder::new(poolless.dnn.clone())
            .deterministic(24)
            .warm_pool(2, u64::MAX)
            .prewarm_tree(Variant::Queue, 2, 1769)
            .build();
        assert!(!pooled.kill_warm_worker(Variant::Queue, 3, 1769, 1));
        assert!(!pooled.kill_warm_worker(Variant::Object, 2, 1769, 1));
        assert!(pooled.kill_warm_worker(Variant::Queue, 2, 1769, 1));
    }

    #[test]
    fn warm_pool_reuses_trees_and_labels_paths() {
        let spec = DnnSpec {
            neurons: 64,
            layers: 3,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 21,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, 21));
        let expected = dnn.serial_inference(&inputs);
        let service = ServiceBuilder::new(dnn)
            .deterministic(21)
            .warm_pool(2, u64::MAX)
            .build();
        let req = InferenceRequest {
            variant: Variant::Queue,
            workers: 3,
            memory_mb: 1769,
            inputs,
        };
        let cold = service.submit(&req).expect("cold run");
        assert_eq!(cold.launch, crate::LaunchPath::ColdStart);
        assert_eq!(cold.lambda.invocations, 4, "coordinator + 3 workers");
        assert_eq!(cold.first_output(), &expected);

        let warm = service.submit(&req).expect("warm run");
        assert_eq!(warm.launch, crate::LaunchPath::WarmHit);
        assert_eq!(warm.lambda.invocations, 0, "warm hits invoke nothing");
        assert!(warm.lambda.mb_ms > 0, "execution window still bills");
        assert_eq!(warm.first_output(), &expected);
        assert_eq!(
            warm.outputs, cold.outputs,
            "warm and cold paths must produce identical outputs"
        );
        assert!(
            warm.latency < cold.latency,
            "warm hit must skip launch latency: warm {} vs cold {}",
            warm.latency,
            cold.latency
        );
        let stats = service.warm_pool_stats().expect("pool enabled");
        assert_eq!((stats.hits, stats.misses, stats.created), (1, 1, 1));
        assert_eq!(stats.idle, 1);
        // Flow-scoped channel resources were torn down on both paths.
        assert_eq!(service.audit(), Vec::<String>::new());
        // Invalidation drops the parked tree; the next request is cold.
        assert_eq!(service.invalidate_warm_trees(), 1);
        let again = service.submit(&req).expect("post-invalidate run");
        assert_eq!(again.launch, crate::LaunchPath::ColdStart);
        assert_eq!(again.outputs, cold.outputs);
    }

    #[test]
    fn latency_is_the_last_ranks_finish() {
        let (service, inputs, _) = small_service(5);
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Object,
                workers: 2,
                memory_mb: 1769,
                inputs,
            })
            .expect("runs");
        let last = report
            .per_worker
            .iter()
            .map(|w| w.finished)
            .max()
            .expect("workers");
        assert_eq!(report.latency, last);
    }
}
