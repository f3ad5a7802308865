//! [`FsdService`]: the thread-safe serving front end.
//!
//! Every request method takes `&self`, so one `Arc<FsdService>` can be
//! driven concurrently from many threads (λScale-style request-level
//! serving). The shared pieces are synchronized explicitly:
//!
//! * partition/staging caches live behind an `RwLock` (staged artifacts are
//!   immutable once written — concurrent requests only ever read them);
//! * the request counter is atomic and doubles as the **flow id** that
//!   namespaces all per-request service resources — input keys, queues,
//!   filter policies and object prefixes — so requests never share mutable
//!   channel state and nothing ever needs a global wipe of the region
//!   (which would be a shared-state bug under concurrency);
//! * channels are provisioned per request by the variant's
//!   [`Transport`](crate::Transport) and torn down once the
//!   request's work item has run on its worker tree (after the tree's
//!   instances are joined, if the item failed).
//!
//! There is one launch path (`run_pass`): acquire a worker tree — a
//! warm-pool checkout, else a launch billed to the request — run the
//! request on it as one work item, release the tree. Without a pool the
//! tree simply lives for that one item. FSD-Inf-Serial is the one-rank
//! tree ([`FsdService::tree_key`]).

use crate::artifacts::{stage_inputs, stage_partitioned_model, ARTIFACT_BUCKET};
use crate::carrier::FramePool;
use crate::cost::CostModel;
use crate::engine::{
    BatchedRequest, EngineConfig, InferenceReport, InferenceRequest, Variant, WorkerReport,
};
use crate::error::FsdError;
use crate::health::{HealthBoard, HealthSnapshot};
use crate::pool::{TreePool, WarmPoolConfig, WarmPoolStats};
use crate::recommend::{self, Recommendation, WorkloadProfile};
use crate::transport::Transport;
use crate::warm::{TreeKey, TreeParams, WorkItem, WorkerTree};
use crate::weight_cache::WeightCache;
use crate::worker::{RunOutput, WorkspacePool};
use fsd_comm::{ApiClass, CloudEnv, FaultKind, MeterSnapshot, TargetedFault, VirtualTime};
use fsd_faas::{FaasError, FaasPlatform, LambdaSnapshot};
use fsd_model::SparseDnn;
use fsd_partition::{partition_model, CommPlan, Partition};
use fsd_sparse::codec;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Offline staging state shared by all requests (read-mostly):
/// partitions (and their communication plans) staged per worker count `P`.
type StagedState = HashMap<u32, StagedPartition>;

/// One staged `P`-way partitioning: the partition plus the communication
/// plan built from it (cached so the recommender never rebuilds it on the
/// request path).
#[derive(Clone)]
struct StagedPartition {
    partition: Arc<Partition>,
    plan: Arc<CommPlan>,
}

/// The serving front end: owns the simulated region, the FaaS platform and
/// the staged model artifacts; accepts concurrent requests through `&self`.
///
/// Build one with [`ServiceBuilder`](crate::ServiceBuilder):
///
/// ```
/// use fsd_core::{InferenceRequest, ServiceBuilder, Variant};
/// use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
/// use std::sync::Arc;
///
/// let spec = DnnSpec { neurons: 64, layers: 3, nnz_per_row: 8,
///                      bias: -0.2, clip: 32.0, seed: 1 };
/// let dnn = Arc::new(generate_dnn(&spec));
/// let inputs = generate_inputs(64, &InputSpec::scaled(8, 1));
/// let expected = dnn.serial_inference(&inputs);
///
/// let service = Arc::new(ServiceBuilder::new(dnn).deterministic(1).build());
/// let report = service
///     .submit(&InferenceRequest { variant: Variant::Queue, workers: 3, memory_mb: 1024, inputs })
///     .unwrap();
/// assert_eq!(report.first_output(), &expected);
/// ```
pub struct FsdService {
    env: Arc<CloudEnv>,
    platform: Arc<FaasPlatform>,
    dnn: Arc<SparseDnn>,
    cfg: EngineConfig,
    cost: CostModel,
    model_key: String,
    state: RwLock<StagedState>,
    /// Serializes offline staging so a (model, P) pair is partitioned and
    /// written exactly once; requests that find it staged never take this.
    stage_lock: Mutex<()>,
    /// Request counter; its successor is the request's flow id.
    requests: AtomicU64,
    /// The warm-tree pool (`ServiceBuilder::warm_pool`); without one every
    /// request's tree lives for that request only.
    pool: Option<TreePool>,
    /// Per-transport error-rate scoreboard + circuit breakers; drives
    /// graceful degradation of [`Variant::Auto`] routing.
    health: HealthBoard,
    /// Process-wide weight-block cache for streamed cold starts
    /// (`EngineConfig::stream_weights`); idle — and never consulted —
    /// otherwise. Invalidated alongside the warm pool.
    weight_cache: Arc<WeightCache>,
    /// Layer-loop buffers every tree's ranks check out per work item.
    workspaces: Arc<WorkspacePool>,
    /// The buffers every request's channel builds and reads frames in.
    frames: Arc<FramePool>,
    /// The flow windows `finalize_report` harvested, under one lock: the
    /// sum of every successful report's and the bill of every failed
    /// attempt (AWS semantics: failed calls are billed). With the meters'
    /// unattributed windows they partition the global meters exactly —
    /// what [`FsdService::audit`] checks.
    bills: Mutex<Harvest>,
}

/// A comm + Lambda bill: the meter windows of a set of request attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Bill {
    /// Comm-service billing.
    pub comm: MeterSnapshot,
    /// Lambda billing.
    pub lambda: LambdaSnapshot,
}

impl Bill {
    /// Element-wise sum.
    fn plus(&self, other: &Bill) -> Bill {
        Bill {
            comm: self.comm.plus(&other.comm),
            lambda: self.lambda.plus(&other.lambda),
        }
    }
}

/// Every harvested flow window, split by how its attempt ended.
#[derive(Clone, Copy, Default)]
struct Harvest {
    /// Σ of the successful reports' `comm` and `lambda`.
    served: Bill,
    /// Σ of the failed attempts' windows.
    failed: Bill,
}

impl FsdService {
    pub(crate) fn assemble(
        dnn: Arc<SparseDnn>,
        cfg: EngineConfig,
        warm: Option<WarmPoolConfig>,
    ) -> FsdService {
        let env = CloudEnv::new(cfg.cloud);
        let platform = FaasPlatform::new(env.clone(), cfg.compute);
        FsdService {
            env,
            platform,
            dnn,
            cfg,
            cost: CostModel::default(),
            model_key: "model".to_string(),
            state: RwLock::new(StagedState::default()),
            stage_lock: Mutex::new(()),
            requests: AtomicU64::new(0),
            pool: warm.filter(|w| w.max_trees > 0).map(TreePool::new),
            health: HealthBoard::new(),
            weight_cache: Arc::new(WeightCache::new()),
            workspaces: Arc::default(),
            frames: Arc::default(),
            bills: Mutex::default(),
        }
    }

    /// The simulated environment (inspection/tests).
    pub fn env(&self) -> &Arc<CloudEnv> {
        &self.env
    }

    /// The FaaS platform this service launches workers on
    /// (inspection/tests: lambda billing meters, flow leak checks).
    pub fn platform(&self) -> &Arc<FaasPlatform> {
        &self.platform
    }

    /// The model being served.
    pub fn dnn(&self) -> &Arc<SparseDnn> {
        &self.dnn
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The service-wide weight-block cache streamed cold starts read
    /// through (inspection/tests; empty and idle unless
    /// [`EngineConfig::stream_weights`] is on).
    pub fn weight_cache(&self) -> &Arc<WeightCache> {
        &self.weight_cache
    }

    /// The partition used for `P` workers (staging it if needed). `P ≤ 1`
    /// returns the degenerate 1-way partition.
    pub fn partition(&self, p: u32) -> Arc<Partition> {
        let p = p.max(1);
        self.prepare(p);
        self.state.read()[&p].partition.clone()
    }

    /// Offline step: partition for `P` workers (any `P`; `P ≤ 1` is the
    /// 1-way partition a Serial tree loads) and stage the artifacts.
    /// Idempotent and safe under concurrency; done "a priori, not per
    /// request" (paper §III).
    pub fn prepare(&self, p: u32) {
        let p = p.max(1);
        if self.state.read().contains_key(&p) {
            return;
        }
        let _staging = self.stage_lock.lock();
        if self.state.read().contains_key(&p) {
            return;
        }
        let part = partition_model(&self.dnn, p as usize, self.cfg.scheme, self.cfg.seed);
        let plan = CommPlan::build(&self.dnn, &part);
        stage_partitioned_model(&self.env, &self.model_key, &self.dnn, &part, &plan);
        self.state.write().insert(
            p,
            StagedPartition {
                partition: Arc::new(part),
                plan: Arc::new(plan),
            },
        );
    }

    /// Recommends a variant for this model at parallelism `p`, from the
    /// Section IV-C rules: whether the model fits this service's Serial
    /// instance (`EngineConfig::serial_memory_mb`, Lambda's maximum by
    /// default), then estimated per-pair payload volume (plan rows ×
    /// typical row bytes) against the publish-quota bands
    /// (Queue → Hybrid → Object). Models that fit one instance skip the
    /// partitioning step entirely.
    pub fn recommend(&self, p: u32, est_bytes_per_row: usize) -> Recommendation {
        let model_bytes = self.dnn.mem_bytes();
        if p <= 1 || recommend::fits_instance(model_bytes, self.cfg.serial_memory_mb) {
            return Recommendation {
                variant: Variant::Serial,
                profile: WorkloadProfile {
                    model_bytes,
                    workers: p.max(1),
                    bytes_per_pair_layer: 0,
                },
            };
        }
        self.prepare(p);
        let plan = self.state.read()[&p].plan.clone();
        let pairs = plan.total_pairs().max(1);
        let bytes_per_pair_layer =
            (plan.total_row_sends() as usize * est_bytes_per_row) / pairs as usize;
        let profile = WorkloadProfile {
            model_bytes,
            workers: p,
            bytes_per_pair_layer,
        };
        // Serial eligibility was decided above against *this service's*
        // instance size; what remains is the volume-band choice.
        Recommendation {
            variant: recommend::channel_variant(bytes_per_pair_layer),
            profile,
        }
    }

    /// Runs one single-batch inference request end to end.
    pub fn submit(&self, req: &InferenceRequest) -> Result<InferenceReport, FsdError> {
        self.submit_batched(&BatchedRequest {
            variant: req.variant,
            workers: req.workers,
            memory_mb: req.memory_mb,
            batches: vec![req.inputs.clone()],
        })
    }

    /// Runs several successive batches through one worker tree (paper
    /// Fig. 1): the tree is launched once, weights are loaded once, and a
    /// barrier + reduce closes each batch.
    pub fn submit_batched(&self, req: &BatchedRequest) -> Result<InferenceReport, FsdError> {
        if req.batches.is_empty() {
            return Err(FsdError::EmptyRequest);
        }
        self.run_pass(self.key_of(req), std::slice::from_ref(req))
            .pop()
            .expect("one result per member")
    }

    /// The worker tree a request asking for shape `requested` runs on,
    /// with `est_bytes_per_row` the wire-bytes-per-row estimate
    /// [`Variant::Auto`] resolves by ([`FsdService::resolve`]). A channel
    /// variant runs on `requested.workers` ranks (at least one) of
    /// `requested.memory_mb`; FSD-Inf-Serial — one instance holding the
    /// whole model — is the one-rank tree at
    /// [`EngineConfig::serial_memory_mb`], whatever `P` and memory were
    /// asked for. The execution path, the scheduler's coalescing key and
    /// predictor, pre-warms and fault targeting all key trees through
    /// here, so a parked tree is always the one its requests check out.
    pub fn tree_key(&self, requested: TreeKey, est_bytes_per_row: usize) -> TreeKey {
        let variant = self.resolve(requested.variant, requested.workers, est_bytes_per_row);
        if variant == Variant::Serial {
            return TreeKey {
                variant,
                workers: 1,
                memory_mb: self.cfg.serial_memory_mb,
            };
        }
        TreeKey {
            variant,
            workers: requested.workers.max(1),
            memory_mb: requested.memory_mb,
        }
    }

    /// [`FsdService::tree_key`] of a non-empty request; `Auto` resolves on
    /// its first batch's wire bytes per row, a proxy for the intermediate
    /// activations the layers will exchange.
    fn key_of(&self, req: &BatchedRequest) -> TreeKey {
        let requested = TreeKey {
            variant: req.variant,
            workers: req.workers,
            memory_mb: req.memory_mb,
        };
        let first = &req.batches[0];
        let est_bytes_per_row = codec::encoded_size(first) / first.n_rows().max(1);
        self.tree_key(requested, est_bytes_per_row)
    }

    /// [`FsdService::tree_key`] of a shape named by its parts, with the
    /// a-priori bytes-per-row estimate (the pool's inspection, eviction
    /// and pre-warm calls).
    fn shape(&self, variant: Variant, workers: u32, memory_mb: u32) -> TreeKey {
        let requested = TreeKey {
            variant,
            workers,
            memory_mb,
        };
        self.tree_key(requested, self.est_bytes_per_row())
    }

    /// Accepts a request: allocates its flow id — which namespaces
    /// everything the request touches and is its billing window on every
    /// meter (offline staging uses unbilled writes and never shows up) —
    /// and stages its input batches under [`input_key`].
    fn stage_request(&self, req: &BatchedRequest, partition: &Partition) -> u64 {
        let flow = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        for (b, batch) in req.batches.iter().enumerate() {
            let key = format!("{}/b{b}", input_key(flow));
            stage_inputs(&self.env, &key, batch, partition);
        }
        flow
    }

    /// The shared request-teardown tail: deletes the request's input
    /// artifacts, harvests and releases its flow-scoped billing windows
    /// (success or not — a long-lived service must not accrete per-flow
    /// buckets) into the service's bills, and assembles the
    /// [`InferenceReport`]. Every instance that could still bill `flow`
    /// must have been joined by now.
    fn finalize_report(
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
        let bill = Bill {
            comm: self.env.release_flow(flow),
            lambda: self.platform.lambda_meter().release_flow(flow),
        };
        {
            // A failed attempt's calls were made and billed (AWS
            // semantics): its window goes to the failed-attempt bill, a
            // successful one's to the served sum.
            let mut bills = self.bills.lock();
            let sum = if ran.is_ok() {
                &mut bills.served
            } else {
                &mut bills.failed
            };
            *sum = sum.plus(&bill);
        }
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
        let cost_predicted = self
            .cost
            .predicted(&lambda, &run.client, run.artifact_gets, 0);
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

    /// Runs several *shape-compatible* requests through **one** worker-tree
    /// pass (cross-request continuous batching): the tree is acquired once
    /// — a warm-pool checkout, or a single cold launch billed to the first
    /// member's flow — and every member then runs as its own flow-scoped
    /// work item on the resident tree. Per-member inputs, data channels,
    /// billing windows and reports stay exactly as disjoint as sequential
    /// [`FsdService::submit_batched`] calls (the meters bucket each
    /// member's events under its own flow id), but members after the first
    /// pay one control-plane hop ([`crate::LaunchPath::WarmHit`]) instead
    /// of the launch bill. Results are returned in member order.
    ///
    /// Members must all run on the same tree ([`FsdService::tree_key`]) —
    /// the scheduler's coalition formation guarantees this. If any member
    /// does not, or is empty, the whole set falls back to sequential
    /// `submit_batched` calls. A member failure mid-pass discards the
    /// (possibly poisoned) tree, reports the error for that member only,
    /// and finishes the remaining members on the sequential path.
    pub fn submit_coalesced(
        &self,
        reqs: &[BatchedRequest],
    ) -> Vec<Result<InferenceReport, FsdError>> {
        let shape_of = |r: &BatchedRequest| (!r.batches.is_empty()).then(|| self.key_of(r));
        match reqs.first().and_then(shape_of) {
            Some(key) if reqs[1..].iter().all(|r| shape_of(r) == Some(key)) => {
                self.run_pass(key, reqs)
            }
            _ => reqs.iter().map(|r| self.submit_batched(r)).collect(),
        }
    }

    /// The one launch path. Runs `reqs` — all resolved to shape `key`, at
    /// least one — back to back on one worker tree: acquire it for the
    /// first member (pool checkout, else a launch billed to that member's
    /// flow), run each member as one [`WorkItem`], release the tree (pool
    /// check-in or discard; without a pool, drop — which joins every
    /// instance) and only then close the last member's flow window, so no
    /// instance can bill a released flow. A pool-less single request is
    /// the degenerate pass: a tree that lives for one work item.
    fn run_pass(
        &self,
        key: TreeKey,
        reqs: &[BatchedRequest],
    ) -> Vec<Result<InferenceReport, FsdError>> {
        let transport = Transport::of(key.variant).expect("a tree shape's variant has a transport");
        let p = key.workers;
        let partition = self.partition(p);
        let mut results = Vec::with_capacity(reqs.len());
        let mut tree: Option<WorkerTree> = None;
        for (i, req) in reqs.iter().enumerate() {
            let flow = self.stage_request(req, &partition);
            let ran = self.run_member(transport, key, req, flow, &mut tree);
            let rest = &reqs[i + 1..];
            if let Some(tree) = tree.take_if(|_| rest.is_empty()) {
                self.release_tree(tree, false);
            }
            let failed = ran.is_err();
            results.push(self.finalize_report(key.variant, p, req, flow, ran));
            if failed {
                // The tree is gone (never reuse a possibly poisoned one):
                // this member reports the error, the rest run sequentially,
                // each on a tree of its own.
                results.extend(rest.iter().map(|r| self.submit_batched(r)));
                break;
            }
        }
        results
    }

    /// Runs one member of a pass on the tree in `slot`, acquiring it first
    /// if the slot is empty. A member that lands on a resident tree — a
    /// pool checkout, or one an earlier member of the pass left in the
    /// slot — is `warm`: one control-plane hop, billed under its own flow.
    /// Only the member whose flow launched the tree pays the launch bill.
    /// On failure the tree is taken out of the slot and discarded (joined)
    /// *before* the member's channel is torn down, so no straggler touches
    /// a torn-down channel.
    fn run_member(
        &self,
        transport: Transport,
        key: TreeKey,
        req: &BatchedRequest,
        flow: u64,
        slot: &mut Option<WorkerTree>,
    ) -> Result<RunOutput, FsdError> {
        let mut warm = true;
        if slot.is_none() {
            *slot = self.pool.as_ref().and_then(|pool| pool.checkout(key));
        }
        let tree = match slot {
            Some(tree) => tree,
            None => {
                warm = false;
                slot.insert(self.new_tree(key, flow)?)
            }
        };
        let channel =
            transport.channel(&self.env, key.workers, self.cfg.channel, flow, &self.frames);
        // One control-plane hop routes a request into a resident tree.
        let dispatch_at =
            VirtualTime::from_micros(self.env.jitter().apply(self.env.latency().lambda_invoke_us));
        let ran = tree.run(WorkItem {
            warm,
            flow,
            input_key: input_key(flow),
            batch_widths: req.batches.iter().map(|b| b.width()).collect(),
            channel: channel.clone(),
            dispatch_at,
        });
        if ran.is_err() {
            self.release_tree(slot.take().expect("the tree that just ran"), true);
        }
        // Release the member's queues/subscriptions/objects — error or not.
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
            Some(pool) => pool.checkin(tree, true),
        }
    }

    /// Launches a tree of shape `key` billed to `flow`: a request's own
    /// flow, or 0 (unattributed, like offline staging) for trees launched
    /// ahead of traffic — pre-warms.
    /// The single construction point, so every tree agrees on streaming
    /// mode, shares the one weight cache and is counted by the pool.
    fn new_tree(&self, key: TreeKey, flow: u64) -> Result<WorkerTree, FaasError> {
        let params = TreeParams {
            n_workers: key.workers,
            branching: self.cfg.branching,
            memory_mb: key.memory_mb,
            model_key: self.model_key.clone(),
            spec: *self.dnn.spec(),
            stream: self.cfg.stream_weights,
            cache: self.weight_cache.clone(),
            workspaces: self.workspaces.clone(),
        };
        let generation = self.pool.as_ref().map_or(0, |pool| pool.generation());
        let tree = WorkerTree::launch(&self.platform, key, generation, params, flow)?;
        if let Some(pool) = &self.pool {
            // A request's tree is in service from birth; the others go
            // straight to the shelf.
            pool.record_created(key, flow != 0);
        }
        Ok(tree)
    }

    /// Launches a warm tree for `(variant, workers, memory_mb)` ahead of
    /// traffic and parks it in the pool, so the *first* matching request
    /// is already a [`crate::LaunchPath::WarmHit`]. The shape is keyed by
    /// [`FsdService::tree_key`] (`prewarm_tree(Serial, 4, 1769)` parks the
    /// one-rank Serial tree). The launch runs on the unattributed flow (0),
    /// mirroring offline staging.
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
        let key = self.shape(variant, workers, memory_mb);
        self.prepare(key.workers);
        pool.checkin(self.new_tree(key, 0)?, false);
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
    /// (keyed by [`FsdService::tree_key`]). 0 without a pool.
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

    /// Per-transport health scoreboard (error-rate EWMAs and breaker
    /// states) — inspection/tests.
    // fsd_lint::allow(orphan-pub): integration-test inspection surface (breaker states)
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.health.snapshot()
    }

    /// What failed request attempts have been billed so far. Failed
    /// attempts are billed (as on AWS); this bill, the successful
    /// [`InferenceReport`]s' windows and the meters' unattributed windows
    /// partition the global comm and Lambda meters exactly
    /// ([`FsdService::audit`]).
    pub fn failed_attempt_bill(&self) -> Bill {
        self.bills.lock().failed
    }

    /// The quiescence check: one line per violated invariant, empty when
    /// clean. Call it only when no request is in flight — a running
    /// request's resources and open windows read as violations; the
    /// serving path never calls it. It checks:
    ///
    /// * the region's residue ([`CloudEnv::residue_report`]: queues,
    ///   subscriptions, data-bucket objects, direct connections and
    ///   frames, weight frames, open comm windows);
    /// * open Lambda billing windows;
    /// * staged request inputs left in the artifact bucket;
    /// * the billing partition, for the comm and the Lambda meter alike:
    ///   global = unattributed + Σ successful reports + failed-attempt
    ///   bill;
    /// * warm-pool trees still marked in service.
    pub fn audit(&self) -> Vec<String> {
        let mut found = self.env.residue_report();
        let (meter, lambda) = (self.env.meter(), self.platform.lambda_meter());
        let store = self.env.object_store();
        for (count, what) in [
            (lambda.tracked_flows(), "open Lambda billing window(s)"),
            (
                store.object_count(ARTIFACT_BUCKET, INPUTS),
                "staged input(s)",
            ),
            (
                self.pool.as_ref().map_or(0, TreePool::in_use),
                "warm tree(s) still marked in service",
            ),
        ] {
            if count > 0 {
                found.push(format!("{count} {what}"));
            }
        }
        let bills = *self.bills.lock();
        let (global, unattributed) = (
            Bill {
                comm: meter.snapshot(),
                lambda: lambda.snapshot(),
            },
            Bill {
                comm: meter.unattributed(),
                lambda: lambda.unattributed(),
            },
        );
        let parts = unattributed.plus(&bills.served).plus(&bills.failed);
        if parts != global {
            found.push(format!(
                "billing partition: meters {global:?} != unattributed + served + failed {parts:?}"
            ));
        }
        found
    }

    /// The fault-plane spelling of "kill worker `rank` of a parked warm
    /// tree": a [`TargetedFault`] whose resource predicate
    /// [`FsdService::inject_fault`] recognizes and routes to the pool's
    /// kill switches instead of the comm plane. Build it here, inject it
    /// there — one injection surface for every fault in the system. The
    /// `{variant}` segment is the variant's `Display` name, which
    /// `inject_fault` inverts over [`Variant::ALL`].
    // fsd_lint::allow(orphan-pub): integration-test fault-injection surface
    pub fn warm_worker_fault(
        variant: Variant,
        workers: u32,
        memory_mb: u32,
        rank: u32,
    ) -> TargetedFault {
        TargetedFault {
            class: ApiClass::InstanceLaunch,
            resource_contains: format!("warm:{variant}:{workers}:{memory_mb}:{rank}"),
            kind: FaultKind::Transient,
        }
    }

    /// Failure injection (tests/chaos), one surface for the whole system:
    /// a `resource_contains` of the form `warm:{variant}:{P}:{mem}:{rank}`
    /// (build it with [`FsdService::warm_worker_fault`]) arms the kill
    /// switch of worker `rank` on one *parked* tree of that shape (keyed by
    /// [`FsdService::tree_key`]), so the next request routed into it loses
    /// the instance mid-request; any other fault is installed on the
    /// region's [`fsd_comm::FaultPlane`] targeted schedule. Returns whether the
    /// fault was armed (a warm target with no matching parked tree, or an
    /// unparseable warm predicate, reports `false`).
    // fsd_lint::allow(orphan-pub): integration-test fault-injection surface
    pub fn inject_fault(&self, fault: TargetedFault) -> bool {
        if let Some(spec) = fault.resource_contains.strip_prefix("warm:") {
            let mut parts = spec.split(':');
            let named = |name: &str| Variant::ALL.into_iter().find(|v| v.to_string() == name);
            let Some(variant) = parts.next().and_then(named) else {
                return false;
            };
            let (Some(workers), Some(memory_mb), Some(rank)) = (
                parts.next().and_then(|s| s.parse::<u32>().ok()),
                parts.next().and_then(|s| s.parse::<u32>().ok()),
                parts.next().and_then(|s| s.parse::<u32>().ok()),
            ) else {
                return false;
            };
            let key = self.shape(variant, workers, memory_mb);
            return self
                .pool
                .as_ref()
                .is_some_and(|pool| pool.arm_kill(key, rank));
        }
        self.env.faults().inject(fault);
        true
    }

    /// The single §IV-C resolution point: resolves a (possibly
    /// [`Variant::Auto`]) variant for `workers` ranks and an estimated
    /// wire-bytes-per-row. Explicit variants pass through unchanged. The
    /// execution path and the scheduler's intake ([`FsdService::tree_key`])
    /// and its admission-cap derivation all route through here, so caps
    /// and execution can never disagree on where a request runs.
    pub fn resolve(&self, variant: Variant, workers: u32, est_bytes_per_row: usize) -> Variant {
        match variant {
            // Auto routing consults the circuit breakers: a recommendation
            // whose transport is tripped open degrades to a healthy
            // fallback (direct → hybrid → queue → object; hybrid → queue →
            // object; queue ↔ object). Explicit
            // variants pass through — the caller asked for that transport
            // and gets its errors.
            Variant::Auto => self
                .health
                .degrade(self.recommend(workers.max(1), est_bytes_per_row).variant),
            v @ (Variant::Serial
            | Variant::Queue
            | Variant::Object
            | Variant::Hybrid
            | Variant::Direct) => v,
        }
    }

    /// The a-priori wire-bytes-per-row estimate for this model (each
    /// nonzero costs a column id + value on the wire) — what cap
    /// derivation uses before any request exists. Per-request resolution
    /// refines it with the request's own first batch.
    pub fn est_bytes_per_row(&self) -> usize {
        self.dnn.spec().nnz_per_row.max(1) * 8
    }
}

/// Where requests' inputs are staged in the artifact bucket.
const INPUTS: &str = "inputs/";

/// The staged-input prefix of request `flow` (batch `b` under `…/b{b}`).
fn input_key(flow: u64) -> String {
    format!("{INPUTS}req{flow}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ServiceBuilder;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use fsd_sparse::SparseRows;

    fn small_service(seed: u64) -> (Arc<FsdService>, SparseRows, SparseRows) {
        let spec = DnnSpec {
            neurons: 64,
            layers: 3,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(12, seed));
        let expected = dnn.serial_inference(&inputs);
        (
            Arc::new(ServiceBuilder::new(dnn).deterministic(seed).build()),
            inputs,
            expected,
        )
    }

    #[test]
    fn empty_request_is_an_error() {
        let (service, ..) = small_service(1);
        let res = service.submit_batched(&BatchedRequest {
            variant: Variant::Serial,
            workers: 1,
            memory_mb: 1769,
            batches: vec![],
        });
        assert_eq!(res.unwrap_err(), FsdError::EmptyRequest);
    }

    #[test]
    fn requests_get_distinct_flows_and_clean_up() {
        let (service, inputs, expected) = small_service(3);
        for variant in Variant::ALL {
            let report = service
                .submit(&InferenceRequest {
                    variant,
                    workers: 3,
                    memory_mb: 1769,
                    inputs: inputs.clone(),
                })
                .expect("runs");
            assert_eq!(report.first_output(), &expected);
            // The teardown removed the request's flow-namespaced state.
            assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
        }
        assert_eq!(service.requests.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn hybrid_spilling_requests_stay_correct_and_clean() {
        use crate::channel::ChannelOptions;
        let spec = DnnSpec {
            neurons: 64,
            layers: 3,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 33,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(12, 33));
        let expected = dnn.serial_inference(&inputs);
        // A 1-byte threshold forces every layer payload through the spill
        // path: control plane on the queues, data plane on the buckets.
        let service = ServiceBuilder::new(dnn)
            .deterministic(33)
            .channel_options(ChannelOptions {
                spill_threshold: 1,
                ..ChannelOptions::default()
            })
            .build();
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Hybrid,
                workers: 3,
                memory_mb: 1769,
                inputs,
            })
            .expect("hybrid runs");
        assert_eq!(report.first_output(), &expected);
        assert!(report.comm.sns_publish_requests > 0, "pointers publish");
        assert!(report.comm.s3_put_requests > 0, "payloads spill");
        assert!(report.comm.s3_get_requests > 0, "receivers dereference");
        assert_eq!(report.comm.s3_list_requests, 0, "hybrid never LISTs");
        // Predicted vs metered cost agree for the mixed transport too
        // (§VI-F validation extended to the hybrid regime).
        let err = report.cost_actual.relative_error(&report.cost_predicted);
        assert!(err < 0.02, "hybrid cost validation off by {err:.3}");
        // Flow-namespaced cleanup: queues, subscriptions and spilled
        // objects are all gone after teardown.
        assert_eq!(service.audit(), Vec::<String>::new());
    }

    #[test]
    fn auto_routes_small_models_to_serial() {
        let (service, inputs, expected) = small_service(4);
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Auto,
                workers: 4,
                memory_mb: 1769,
                inputs,
            })
            .expect("auto runs");
        assert_eq!(
            report.variant,
            Variant::Serial,
            "tiny model must route to Serial"
        );
        assert_eq!(report.workers, 1);
        assert_eq!(report.first_output(), &expected);
    }

    #[test]
    fn serial_is_one_rank_on_both_launch_shapes() {
        // The cascade invokes a coordinator and rank 0; a streamed launch
        // provisions rank 0 flat, with no coordinator.
        for (stream, invocations) in [(false, 2), (true, 1)] {
            let (base, inputs, expected) = small_service(8);
            let service = ServiceBuilder::new(base.dnn().clone())
                .deterministic(8)
                .weight_streaming(stream)
                .build();
            let report = service
                .submit(&InferenceRequest {
                    variant: Variant::Serial,
                    workers: 4,
                    memory_mb: 512,
                    inputs,
                })
                .expect("serial runs");
            assert_eq!(report.first_output(), &expected, "stream={stream}");
            assert_eq!(report.workers, 1);
            assert_eq!(report.per_worker[0].memory_mb, fsd_faas::MAX_MEMORY_MB);
            assert_eq!(report.lambda.invocations, invocations, "stream={stream}");
            assert_eq!(service.audit(), Vec::<String>::new(), "stream={stream}");
        }
    }

    #[test]
    fn distributed_variants_run_with_a_single_worker() {
        // A degenerate one-worker tree must still work: the service stages
        // a 1-way partition instead of failing on missing per-worker
        // artifacts.
        let (service, inputs, expected) = small_service(6);
        for variant in [Variant::Queue, Variant::Object] {
            let report = service
                .submit(&InferenceRequest {
                    variant,
                    workers: 0, // clamped to 1
                    memory_mb: 1769,
                    inputs: inputs.clone(),
                })
                .unwrap_or_else(|e| panic!("{variant} with one worker: {e}"));
            assert_eq!(report.workers, 1);
            assert_eq!(report.first_output(), &expected);
        }
    }

    #[test]
    fn partition_accessor_handles_degenerate_counts() {
        let (service, ..) = small_service(7);
        // p <= 1 returns the 1-way partition instead of panicking on a
        // missing map entry.
        let one = service.partition(1);
        assert_eq!(one.n_parts(), 1);
        assert!(Arc::ptr_eq(&one, &service.partition(0)));
        let three = service.partition(3);
        assert_eq!(three.n_parts(), 3);
    }

    #[test]
    fn a_runtime_prewarm_leaves_a_running_requests_mark_alone() {
        let (service, _, _) = small_service(23);
        let service = ServiceBuilder::new(service.dnn.clone())
            .deterministic(23)
            .warm_pool(4, u64::MAX)
            .build();
        let key = service.shape(Variant::Queue, 2, 1769);
        let pool = service.pool.as_ref().expect("warm pool configured");
        // A request of the shape is running on a tree created for it…
        pool.record_created(key, true);
        // …when a pre-warm of the same shape parks a second tree.
        service
            .prewarm_tree(Variant::Queue, 2, 1769)
            .expect("pre-warm launches");
        assert_eq!(service.warm_live_trees(Variant::Queue, 2, 1769), 2);
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

    /// A fresh pooled service that has served one clean request.
    fn served_once(seed: u64) -> FsdService {
        let (base, inputs, expected) = small_service(seed);
        let service = ServiceBuilder::new(base.dnn().clone())
            .deterministic(seed)
            .warm_pool(2, u64::MAX)
            .build();
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Queue,
                workers: 2,
                memory_mb: 1769,
                inputs,
            })
            .expect("runs");
        assert_eq!(report.first_output(), &expected);
        assert_eq!(service.audit(), Vec::<String>::new());
        service
    }

    #[test]
    fn the_audit_names_each_planted_violation() {
        type Plant = fn(&FsdService);
        let plants: [(&str, Plant); 4] = [
            ("staged input(s)", |service| {
                let store = service.env().object_store();
                store
                    .put_offline(ARTIFACT_BUCKET, "inputs/req99/b0", &b"x"[..])
                    .expect("the artifact bucket exists");
            }),
            ("open Lambda billing window(s)", |service| {
                service
                    .platform()
                    .lambda_meter()
                    .record(99, |s| s.mb_ms += 1);
            }),
            ("billing partition", |service| {
                // Billed to a flow no report covers, then released.
                let meter = service.env().meter();
                meter.record(99, |s| s.sqs_api_calls += 1);
                meter.release_flow(99);
            }),
            ("warm tree(s) still marked in service", |service| {
                let key = service.shape(Variant::Queue, 2, 1769);
                let pool = service.pool.as_ref().expect("warm pool configured");
                pool.record_created(key, true);
            }),
        ];
        for (named, plant) in plants {
            let service = served_once(41);
            plant(&service);
            let found = service.audit();
            assert!(found.iter().any(|l| l.contains(named)), "{found:?}");
        }
    }

    /// A run that ends without a worker report or without an output is a
    /// failure, and its already-billed window goes to the failed-attempt
    /// bill like any other.
    #[test]
    fn a_run_without_reports_or_outputs_is_billed_as_a_failure() {
        let (service, inputs, _) = small_service(42);
        let req = BatchedRequest {
            variant: Variant::Queue,
            workers: 1,
            memory_mb: 1769,
            batches: vec![inputs],
        };
        let no_output = {
            let mut run = RunOutput::new(crate::LaunchPath::ColdStart);
            let report = fsd_faas::InvocationReport {
                started: VirtualTime::ZERO,
                finished: VirtualTime::from_micros(5),
                billed_ms: 1,
                peak_mem_bytes: 0,
                memory_mb: 1769,
            };
            run.reports.push((0, report));
            run
        };
        let cases = [
            (
                RunOutput::new(crate::LaunchPath::ColdStart),
                FsdError::NoWorkerReports,
            ),
            (no_output, FsdError::MissingOutput),
        ];
        for (i, (run, error)) in cases.into_iter().enumerate() {
            let flow = service.stage_request(&req, &service.partition(1));
            service.env().meter().record(flow, |s| s.sqs_api_calls += 1);
            service
                .platform()
                .lambda_meter()
                .record(flow, |s| s.mb_ms += 7);
            let result = service.finalize_report(Variant::Queue, 1, &req, flow, Ok(run));
            assert_eq!(result.unwrap_err(), error);
            assert_eq!(service.audit(), Vec::<String>::new(), "{error}");
            let bill = service.failed_attempt_bill();
            let n = i as u64 + 1;
            assert_eq!((bill.comm.sqs_api_calls, bill.lambda.mb_ms), (n, 7 * n));
        }
    }
}
