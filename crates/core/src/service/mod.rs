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
//! tree simply lives for that one item. A coalition's members ride that
//! path fused: their samples side by side in one work item, its report
//! split back per member. FSD-Inf-Serial is the one-rank tree
//! ([`FsdService::tree_of`]).
//!
//! A request's steps live in one file each, all `impl FsdService`:
//! `stage` (offline partitioning and staging, §III, and the request's
//! staged inputs), `route` (the door: the §IV-C variant choice and the
//! tree a request runs on, or its refusal), `pass` (the launch path and
//! the warm-pool façade) and `bill` (the §IV bill: flow windows harvested
//! per attempt, and the quiescence audit).

use crate::carrier::FramePool;
use crate::cost::CostModel;
use crate::engine::{BatchedRequest, EngineConfig, InferenceReport, InferenceRequest};
use crate::error::FsdError;
use crate::health::{HealthBoard, HealthSnapshot};
use crate::pool::{TreePool, WarmPoolConfig};
use crate::warm::TreeKey;
use crate::weight_cache::WeightCache;
use crate::worker::WorkspacePool;
use fsd_comm::CloudEnv;
use fsd_faas::FaasPlatform;
use fsd_model::SparseDnn;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

mod bill;
mod pass;
mod route;
mod stage;

pub use bill::Bill;

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
    state: RwLock<stage::StagedState>,
    /// Serializes offline staging so a (model, P) pair is partitioned and
    /// written exactly once; requests that find it staged never take this.
    stage_lock: Mutex<()>,
    /// Request counter; its successor is the request's flow id.
    requests: AtomicU64,
    /// The warm-tree pool (`ServiceBuilder::warm_pool`); without one every
    /// request's tree lives for that request only.
    pool: Option<TreePool>,
    /// Per-transport error-rate scoreboard + circuit breakers; drives
    /// graceful degradation of [`crate::Variant::Auto`] routing.
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
    bills: Mutex<bill::Harvest>,
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
            state: RwLock::default(),
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

    /// Per-transport health scoreboard (error-rate EWMAs and breaker
    /// states) — inspection/tests.
    // fsd_lint::allow(orphan-pub): integration-test inspection surface (breaker states)
    pub fn health_snapshot(&self) -> HealthSnapshot {
        self.health.snapshot()
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
    /// Fig. 1): the tree is launched once and weights are loaded once. No
    /// barrier or reduce closes a batch: the tags keep batches apart, and
    /// every rank hands its own output rows back with its result, which the
    /// tree merges per batch once all ranks have reported.
    /// A request [`FsdService::tree_of`] refuses stages and bills nothing.
    pub fn submit_batched(&self, req: &BatchedRequest) -> Result<InferenceReport, FsdError> {
        self.run_alone(self.key_of(req)?, req)
    }

    /// Runs `req` as a one-member pass on the tree `key`.
    fn run_alone(&self, key: TreeKey, req: &BatchedRequest) -> Result<InferenceReport, FsdError> {
        self.run_pass(key, std::slice::from_ref(req))
            .pop()
            .expect("one result per member")
    }

    /// Runs several *shape-compatible* requests as **one** forward pass
    /// (cross-request continuous batching). The tree is acquired once — a
    /// warm-pool checkout, or a cold launch the head rides alone — and
    /// members with equal batch counts then ride one fused work item (one
    /// flow, channel and dispatch), their samples side by side, so a warm
    /// coalition bills the calls of one lone request at the fused width.
    /// Each member gets its own report, in member order: its columns of the
    /// item's outputs (bit-identical to a [`FsdService::submit_batched`]
    /// run), the item's latency and launch path, and the item's window and
    /// costs apportioned by sample share, summing to the window exactly.
    ///
    /// Each member passes the door once, as in `submit_batched`. Members
    /// must all run on one tree — a scheduler coalition shares its
    /// [`FsdService::tree_of`] shape — else each runs alone on its own (a
    /// refused one returns its error). A failed item discards the
    /// (possibly poisoned) tree and bills its window as a failed attempt;
    /// a lone member reports the error, while a fused item's members rerun
    /// alone on the sequential path, as do all members not yet run.
    pub fn submit_coalesced(
        &self,
        reqs: &[BatchedRequest],
    ) -> Vec<Result<InferenceReport, FsdError>> {
        let keys: Vec<_> = reqs.iter().map(|r| self.key_of(r)).collect();
        match keys.first() {
            Some(&Ok(key)) if keys.iter().all(|k| *k == Ok(key)) => self.run_pass(key, reqs),
            _ => reqs
                .iter()
                .zip(keys)
                .map(|(req, key)| self.run_alone(key?, req))
                .collect(),
        }
    }
}

/// Fixtures the per-file test modules share.
#[cfg(test)]
mod fixtures {
    use super::*;
    use crate::builder::ServiceBuilder;
    use crate::engine::Variant;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use fsd_sparse::SparseRows;

    /// A deterministic pool-less service over a small model, an input
    /// batch and its serial ground truth.
    pub(super) fn small_service(seed: u64) -> (Arc<FsdService>, SparseRows, SparseRows) {
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

    /// A fresh pooled service that has served one clean request.
    pub(super) fn served_once(seed: u64) -> FsdService {
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
}

#[cfg(test)]
mod tests {
    use super::fixtures::small_service;
    use super::*;
    use crate::builder::ServiceBuilder;
    use crate::engine::Variant;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use std::sync::atomic::Ordering;

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
}
