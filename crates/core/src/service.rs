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
//!   channel state and nothing ever needs the old global
//!   `env.reset_channels()` wipe (which was a shared-state bug under
//!   concurrency);
//! * channels are provisioned per request through the
//!   [`ChannelRegistry`](crate::ChannelRegistry) and torn down once the
//!   request's work item has run on its worker tree (after the tree's
//!   instances are joined, if the item failed).
//!
//! There is one launch path for distributed requests (`run_pass`): acquire
//! a worker tree — a warm-pool checkout, else a launch billed to the
//! request — run the request on it as one work item, release the tree.
//! Without a pool the tree simply lives for that one item.

use crate::artifacts::{stage_full_model, stage_inputs, stage_partitioned_model, ARTIFACT_BUCKET};
use crate::cost::CostModel;
use crate::engine::{
    BatchedRequest, EngineConfig, InferenceReport, InferenceRequest, LaunchPath, Variant,
    WorkerReport,
};
use crate::error::FsdError;
use crate::health::{HealthBoard, HealthSnapshot};
use crate::pool::{TreePool, WarmPoolConfig, WarmPoolStats};
use crate::provider::{ChannelProvider, ChannelRegistry};
use crate::recommend::{self, Recommendation, WorkloadProfile};
use crate::warm::{TreeKey, TreeParams, WorkItem, WorkerTree};
use crate::weight_cache::WeightCache;
use crate::worker::{run_serial, RunOutput, WorkspacePool};
use fsd_comm::{ApiClass, CloudEnv, FaultKind, MeterSnapshot, TargetedFault, VirtualTime};
use fsd_faas::{FaasError, FaasPlatform, FunctionConfig, LambdaSnapshot};
use fsd_model::SparseDnn;
use fsd_partition::{partition_model, CommPlan, Partition};
use fsd_sparse::codec;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Offline staging state shared by all requests (read-mostly).
#[derive(Default)]
struct StagedState {
    /// Whether the unpartitioned model artifacts are staged (Serial path).
    full_staged: bool,
    /// Partitions (and their communication plans) staged per worker
    /// count `P`.
    partitions: HashMap<u32, StagedPartition>,
}

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
    registry: ChannelRegistry,
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
    /// Bills accrued by request attempts that *failed* (AWS semantics:
    /// failed calls are billed). `finalize_report` folds each failed
    /// attempt's flow-scoped meters in here when it releases the flow, so
    /// the exact partition `global == Σ successful reports + failed bill`
    /// holds even under retries.
    failed_bill: Mutex<FailedAttemptBill>,
}

/// What failed request attempts have been billed service-wide: the comm
/// and Lambda meter totals harvested from failed attempts' flows. Together
/// with the per-request digests of successful reports this partitions the
/// global meters exactly — "failed attempts are billed; retries may add
/// calls but never double-count billing".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FailedAttemptBill {
    /// Comm-service billing harvested from failed attempts' flows.
    pub comm: MeterSnapshot,
    /// Lambda billing harvested from failed attempts' flows.
    pub lambda: LambdaSnapshot,
}

impl FsdService {
    pub(crate) fn assemble(
        dnn: Arc<SparseDnn>,
        cfg: EngineConfig,
        registry: ChannelRegistry,
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
            registry,
            state: RwLock::new(StagedState::default()),
            stage_lock: Mutex::new(()),
            requests: AtomicU64::new(0),
            pool: warm.filter(|w| w.max_trees > 0).map(TreePool::new),
            health: HealthBoard::new(),
            weight_cache: Arc::new(WeightCache::new()),
            workspaces: Arc::default(),
            failed_bill: Mutex::new(FailedAttemptBill::default()),
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

    /// The channel providers this service can route to.
    pub fn channel_names(&self) -> Vec<&'static str> {
        self.registry.names()
    }

    /// Requests accepted so far (diagnostics).
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
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
        self.ensure_partition(p);
        self.state.read().partitions[&p].partition.clone()
    }

    /// Offline step: partition for `P` workers and stage the artifacts.
    /// Idempotent and safe under concurrency; done "a priori, not per
    /// request" (paper §III). `p <= 1` stages the unpartitioned model
    /// (the Serial path).
    pub fn prepare(&self, p: u32) {
        if p <= 1 {
            if self.state.read().full_staged {
                return;
            }
            let _staging = self.stage_lock.lock();
            if self.state.read().full_staged {
                return;
            }
            stage_full_model(&self.env, &self.model_key, &self.dnn);
            self.state.write().full_staged = true;
            return;
        }
        self.ensure_partition(p);
    }

    /// Stages the `P`-way partition (any `P ≥ 1`) — the distributed paths
    /// need per-worker artifacts even for a degenerate one-worker tree.
    fn ensure_partition(&self, p: u32) {
        let p = p.max(1);
        if self.state.read().partitions.contains_key(&p) {
            return;
        }
        let _staging = self.stage_lock.lock();
        if self.state.read().partitions.contains_key(&p) {
            return;
        }
        let part = partition_model(&self.dnn, p as usize, self.cfg.scheme, self.cfg.seed);
        let plan = CommPlan::build(&self.dnn, &part);
        stage_partitioned_model(&self.env, &self.model_key, &self.dnn, &part, &plan);
        self.state.write().partitions.insert(
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
        self.ensure_partition(p);
        let plan = self.state.read().partitions[&p].plan.clone();
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
        let Some(key) = self.tree_key(req) else {
            // Serial: one instance holds the whole model; no tree, no channel.
            self.prepare(1);
            let flow = self.stage_request(req, None);
            let ran = self.launch_serial(flow, req.batches.len());
            return self.finalize_report(Variant::Serial, 1, req, flow, ran.map_err(Into::into));
        };
        self.run_pass(key, std::slice::from_ref(req))
            .pop()
            .expect("one result per member")
    }

    /// The tree shape a (non-empty) request runs on once its variant is
    /// resolved; `None` when that is Serial, which runs no tree.
    fn tree_key(&self, req: &BatchedRequest) -> Option<TreeKey> {
        let variant = self.resolve_variant(req);
        variant.channel_name().map(|_| TreeKey {
            variant,
            workers: req.workers.max(1),
            memory_mb: req.memory_mb,
        })
    }

    /// Accepts a request: allocates its flow id — which namespaces
    /// everything the request touches and is its billing window on every
    /// meter (offline staging uses unbilled writes and never shows up) —
    /// and stages its input batches under [`input_key`].
    fn stage_request(&self, req: &BatchedRequest, partition: Option<&Partition>) -> u64 {
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
    /// buckets), and assembles the [`InferenceReport`]. Every instance
    /// that could still bill `flow` must have been joined by now.
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
        let arrival = VirtualTime::ZERO;
        // Per-request input artifacts are dead after the run (success or
        // not); remove them so a long-lived service does not accrete state.
        self.env
            .object_store()
            .delete_prefix(ARTIFACT_BUCKET, &format!("{}/", input_key(flow)));
        // A streamed tree closes its launch flow's weight mailboxes when it
        // shuts down; a parked tree has not yet, so close them here too.
        self.env.weight_net().close_flow(flow);
        let comm = self.env.release_flow(flow);
        let lambda: LambdaSnapshot = self.platform.lambda_meter().release_flow(flow);
        let run = match ran {
            Ok(run) => run,
            Err(e) => {
                // The attempt failed but its calls were made and billed
                // (AWS semantics). Its flow window was just harvested —
                // fold it into the service-wide failed-attempt bill so the
                // global meters stay exactly partitioned between
                // successful reports and this accumulator.
                let mut bill = self.failed_bill.lock();
                bill.comm = bill.comm.plus(&comm);
                bill.lambda.invocations += lambda.invocations;
                bill.lambda.mb_ms += lambda.mb_ms;
                return Err(e);
            }
        };
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
        let last_finish = per_worker
            .iter()
            .map(|w| w.finished)
            .max()
            .ok_or(FsdError::NoWorkerReports)?;
        let latency =
            VirtualTime::from_micros(last_finish.as_micros().saturating_sub(arrival.as_micros()));
        if run.final_batches.is_empty() {
            return Err(FsdError::MissingOutput);
        }
        let cost_actual = self.cost.actual(&lambda, &comm);
        let cost_predicted = self
            .cost
            .predicted(&lambda, &run.client, run.artifact_gets, 0);
        Ok(InferenceReport {
            variant: resolved,
            workers: p,
            launch: run.launch,
            arrival,
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
    /// pay one control-plane hop ([`LaunchPath::WarmHit`]) instead of the
    /// launch bill. Results are returned in member order.
    ///
    /// Members must all resolve (via [`FsdService::resolve_variant`]) to
    /// the same `(variant, workers, memory_mb)` channel shape — the
    /// scheduler's coalition formation guarantees this. If any member does
    /// not, or the shared shape is Serial (which runs no tree), the whole
    /// set falls back to sequential `submit_batched` calls. A member
    /// failure mid-pass discards the (possibly poisoned) tree, reports the
    /// error for that member only, and finishes the remaining members on
    /// the sequential path.
    pub fn submit_coalesced(
        &self,
        reqs: &[BatchedRequest],
    ) -> Vec<Result<InferenceReport, FsdError>> {
        let shape_of = |r: &BatchedRequest| {
            if r.batches.is_empty() {
                return None;
            }
            self.tree_key(r)
        };
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
        let name = key
            .variant
            .channel_name()
            .expect("a tree shape's variant names a channel");
        let Some(provider) = self.registry.get(name) else {
            let unknown = || FsdError::UnknownChannel {
                name: name.to_string(),
            };
            return reqs.iter().map(|_| Err(unknown())).collect();
        };
        let p = key.workers;
        // Distributed paths read per-worker artifacts even when the tree
        // degenerates to one worker, so a partition is staged for any P.
        self.ensure_partition(p);
        let partition = self.state.read().partitions[&p].partition.clone();
        let mut results = Vec::with_capacity(reqs.len());
        let mut tree: Option<WorkerTree> = None;
        for (i, req) in reqs.iter().enumerate() {
            let flow = self.stage_request(req, Some(&partition));
            let ran = self.run_member(provider.as_ref(), key, req, flow, &mut tree);
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
        provider: &dyn ChannelProvider,
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
        let channel = provider.provision(&self.env, key.workers, self.cfg.channel, flow);
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
            Some(pool) => pool.checkin(tree),
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
    /// is already a [`LaunchPath::WarmHit`]. The launch runs on the
    /// unattributed flow (0), mirroring offline staging.
    ///
    /// # Panics
    /// If the service was built without `warm_pool`, or `variant` is not a
    /// channel variant (`Queue`/`Object`/`Hybrid`/`Direct`) — both are
    /// configuration bugs.
    pub fn prewarm_tree(
        &self,
        variant: Variant,
        workers: u32,
        memory_mb: u32,
    ) -> Result<(), FsdError> {
        assert!(
            variant.channel_name().is_some(),
            "prewarm_tree needs a channel variant (Queue/Object/Hybrid/Direct), got {variant}"
        );
        let pool = self
            .pool
            .as_ref()
            .expect("prewarm_tree requires ServiceBuilder::warm_pool");
        let key = TreeKey {
            variant,
            workers: workers.max(1),
            memory_mb,
        };
        self.ensure_partition(key.workers);
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

    /// Parked warm trees currently matching `(variant, workers, memory)`.
    /// 0 without a pool.
    pub fn warm_idle_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = TreeKey {
            variant,
            workers: workers.max(1),
            memory_mb,
        };
        self.pool.as_ref().map_or(0, |p| p.idle_of(key))
    }

    /// Warm trees of the shape that exist at all — parked *or* currently
    /// serving a request. 0 without a pool. Predictors top a shape up to
    /// its burst target against this count: a burst's own checkouts must
    /// not read as missing capacity, or every in-flight request would
    /// trigger a redundant pre-warm.
    pub fn warm_live_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = TreeKey {
            variant,
            workers: workers.max(1),
            memory_mb,
        };
        self.pool.as_ref().map_or(0, |p| p.live_of(key))
    }

    /// Evicts every parked warm tree of one shape (predictor decisions:
    /// traffic of this shape has gone quiet). Returns how many trees were
    /// dropped; 0 without a pool.
    pub fn evict_warm_trees(&self, variant: Variant, workers: u32, memory_mb: u32) -> usize {
        let key = TreeKey {
            variant,
            workers: workers.max(1),
            memory_mb,
        };
        self.pool.as_ref().map_or(0, |p| p.evict_shape(key))
    }

    /// Per-transport health scoreboard (error-rate EWMAs and breaker
    /// states) — inspection/tests.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.health.snapshot()
    }

    /// What failed request attempts have been billed so far. Failed
    /// attempts are billed (as on AWS); this accumulator plus the digests
    /// of the successful [`InferenceReport`]s partitions the global comm
    /// and Lambda meters exactly — the invariant the chaos gate asserts.
    pub fn failed_attempt_bill(&self) -> FailedAttemptBill {
        *self.failed_bill.lock()
    }

    /// The fault-plane spelling of "kill worker `rank` of a parked warm
    /// tree": a [`TargetedFault`] whose resource predicate
    /// [`FsdService::inject_fault`] recognizes and routes to the pool's
    /// kill switches instead of the comm plane. Build it here, inject it
    /// there — one injection surface for every fault in the system.
    pub fn warm_worker_fault(
        variant: Variant,
        workers: u32,
        memory_mb: u32,
        rank: u32,
    ) -> TargetedFault {
        let name = variant.channel_name().unwrap_or("serial");
        TargetedFault {
            class: ApiClass::InstanceLaunch,
            nth: 1,
            resource_contains: format!("warm:{name}:{}:{memory_mb}:{rank}", workers.max(1)),
            kind: FaultKind::Transient,
        }
    }

    /// Failure injection (tests/chaos), one surface for the whole system:
    /// a `resource_contains` of the form `warm:{variant}:{P}:{mem}:{rank}`
    /// (build it with [`FsdService::warm_worker_fault`]) arms the kill
    /// switch of worker `rank` on one *parked* tree of that shape, so the
    /// next request routed into it loses the instance mid-request; any
    /// other fault is installed on the region's
    /// [`fsd_comm::FaultPlane`] targeted schedule. Returns whether the
    /// fault was armed (a warm target with no matching parked tree, or an
    /// unparseable warm predicate, reports `false`).
    pub fn inject_fault(&self, fault: TargetedFault) -> bool {
        if let Some(spec) = fault.resource_contains.strip_prefix("warm:") {
            let mut parts = spec.split(':');
            let variant = match parts.next() {
                Some("queue") => Variant::Queue,
                Some("object") => Variant::Object,
                Some("hybrid") => Variant::Hybrid,
                Some("direct") => Variant::Direct,
                _ => return false,
            };
            let (Some(workers), Some(memory_mb), Some(rank)) = (
                parts.next().and_then(|s| s.parse::<u32>().ok()),
                parts.next().and_then(|s| s.parse::<u32>().ok()),
                parts.next().and_then(|s| s.parse::<u32>().ok()),
            ) else {
                return false;
            };
            let key = TreeKey {
                variant,
                workers: workers.max(1),
                memory_mb,
            };
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
    /// execution path ([`FsdService::resolve_variant`]), the scheduler's
    /// admission-cap derivation and its predictor all route through here,
    /// so caps and execution can never disagree on where a request runs.
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

    /// Resolves [`Variant::Auto`] into a concrete variant for this request
    /// via [`FsdService::resolve`]; the per-pair volume estimate comes
    /// from the request's own first batch (wire bytes per row as a proxy
    /// for the intermediate activations the layers will exchange). Public
    /// as a planning hook: the scheduler (and tests) can ask where a
    /// request *would* route without executing it.
    pub fn resolve_variant(&self, req: &BatchedRequest) -> Variant {
        match req.variant {
            Variant::Auto => {
                let first = &req.batches[0];
                let est_bytes_per_row = codec::encoded_size(first) / first.n_rows().max(1);
                self.resolve(Variant::Auto, req.workers, est_bytes_per_row)
            }
            v @ (Variant::Serial
            | Variant::Queue
            | Variant::Object
            | Variant::Hybrid
            | Variant::Direct) => v,
        }
    }

    /// Coordinator (128 MB) + one serial worker holding the whole model.
    fn launch_serial(&self, flow: u64, n_batches: usize) -> Result<RunOutput, FaasError> {
        let spec = *self.dnn.spec();
        let model_key = self.model_key.clone();
        let input_key = input_key(flow);
        let platform = self.platform.clone();
        let serial_memory = self.cfg.serial_memory_mb;
        let coordinator = self.platform.invoke(
            FunctionConfig::coordinator().for_flow(flow),
            VirtualTime::ZERO,
            move |ctx| {
                ctx.charge_work(10_000); // request parsing
                let at = ctx.now();
                let inv = platform.invoke(
                    FunctionConfig::worker("fsd-serial", serial_memory).for_flow(flow),
                    at,
                    move |worker_ctx| {
                        run_serial(worker_ctx, &model_key, &input_key, &spec, n_batches)
                    },
                );
                inv.join()
            },
        );
        let ((out, report), _coord_report) = coordinator.join()?;
        let mut run = RunOutput::new(LaunchPath::ColdStart);
        run.absorb(0, out, report);
        Ok(run)
    }
}

/// The staged-input prefix of request `flow` (batch `b` under `…/b{b}`).
fn input_key(flow: u64) -> String {
    format!("inputs/req{flow}")
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
    fn unknown_channel_is_an_error() {
        let spec = DnnSpec {
            neurons: 48,
            layers: 2,
            nnz_per_row: 6,
            bias: -0.25,
            clip: 32.0,
            seed: 2,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(6, 2));
        let service = ServiceBuilder::new(dnn)
            .deterministic(2)
            .clear_channels()
            .build();
        let res = service.submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 2,
            memory_mb: 1769,
            inputs,
        });
        assert_eq!(
            res.unwrap_err(),
            FsdError::UnknownChannel {
                name: "queue".into()
            }
        );
    }

    #[test]
    fn requests_get_distinct_flows_and_clean_up() {
        let (service, inputs, expected) = small_service(3);
        for variant in [
            Variant::Queue,
            Variant::Object,
            Variant::Hybrid,
            Variant::Direct,
        ] {
            let report = service
                .submit(&InferenceRequest {
                    variant,
                    workers: 3,
                    memory_mb: 1769,
                    inputs: inputs.clone(),
                })
                .expect("runs");
            assert_eq!(report.first_output(), &expected);
        }
        assert_eq!(service.requests_served(), 4);
        // Queue-channel teardown removed the per-request queues and
        // filter policies.
        assert_eq!(service.env().queue_count(), 0);
        assert_eq!(service.env().pubsub().subscription_count(0), 0);
        // Object-channel teardown removed the flow-namespaced objects.
        for i in 0..service.env().config().n_buckets {
            assert_eq!(
                service
                    .env()
                    .object_store()
                    .object_count(&fsd_comm::bucket_name(i)),
                0,
                "bucket {i} still holds intermediate objects"
            );
        }
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
        assert_eq!(service.env().queue_count(), 0);
        assert_eq!(service.env().pubsub().subscription_count(0), 0);
        for i in 0..service.env().config().n_buckets {
            assert_eq!(
                service
                    .env()
                    .object_store()
                    .object_count(&fsd_comm::bucket_name(i)),
                0,
                "bucket {i} holds residual spilled objects"
            );
        }
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
        assert_eq!(service.env().queue_count(), 0);
        assert_eq!(service.env().meter().tracked_flows(), 0);
        assert_eq!(service.platform().lambda_meter().tracked_flows(), 0);
        // Invalidation drops the parked tree; the next request is cold.
        assert_eq!(service.invalidate_warm_trees(), 1);
        let again = service.submit(&req).expect("post-invalidate run");
        assert_eq!(again.launch, crate::LaunchPath::ColdStart);
        assert_eq!(again.outputs, cold.outputs);
    }

    #[test]
    fn latency_derives_from_arrival() {
        let (service, inputs, _) = small_service(5);
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Object,
                workers: 2,
                memory_mb: 1769,
                inputs,
            })
            .expect("runs");
        assert_eq!(report.arrival, VirtualTime::ZERO);
        let last = report
            .per_worker
            .iter()
            .map(|w| w.finished)
            .max()
            .expect("workers");
        assert_eq!(
            report.latency.as_micros(),
            last.as_micros() - report.arrival.as_micros()
        );
    }
}
