//! The scheduler's configuration and its statistics snapshot: priority
//! classes, the two config structs, the §IV-C per-model cap derivation and
//! [`SchedStatsSnapshot`].

use crate::predictor::PredictorConfig;
use crate::retry::FailureCause;
use fsd_comm::{quota, VirtualTime, N_TOPICS};
use fsd_core::{FsdService, Variant};

/// Request priority classes, drained by weighted FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic (the default weight favors this class).
    Interactive,
    /// Throughput traffic that tolerates queueing but must not starve.
    Batch,
}

impl Priority {
    /// Number of priority classes.
    pub const COUNT: usize = 2;
    /// Every class, in selection-tiebreak order.
    pub const ALL: [Priority; Priority::COUNT] = [Priority::Interactive, Priority::Batch];

    /// Dense index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
        }
    }
}

/// Largest per-model cap [`derive_model_cap`] will produce; also the cap
/// for Serial-recommended models, whose concurrency is compute-bound and
/// governed by the global cap.
const MAX_DERIVED_CAP: usize = 32;

/// The tree size per-model caps are derived at, a priori (§IV-C).
const TYPICAL_WORKERS: u32 = 3;

/// Derives a per-model concurrency cap from the §IV-C recommendation for
/// a typical 3-worker tree and its predicted channel load: each in-flight
/// tree is predicted to push `workers × bytes_per_pair_layer` through the
/// shared communication fabric per layer, and the region offers
/// [`N_TOPICS`] parallel channels of a few publish quotas each (the same
/// "a few quotas per pair" saturation multiple the recommender uses).
/// Models the recommender routes to Serial use no channel; their
/// concurrency is compute-bound and the global cap governs. Routing runs
/// through the service's own resolver (`FsdService::recommend` with its
/// a-priori `FsdService::est_bytes_per_row`), so admission caps and
/// execution can never disagree on a model's variant.
pub fn derive_model_cap(service: &FsdService) -> usize {
    let rec = service.recommend(TYPICAL_WORKERS, service.est_bytes_per_row());
    match rec.variant {
        Variant::Serial => MAX_DERIVED_CAP,
        Variant::Queue | Variant::Object | Variant::Hybrid | Variant::Direct | Variant::Auto => {
            let per_tree = rec.profile.workers as usize * rec.profile.bytes_per_pair_layer.max(1);
            let budget = N_TOPICS * quota::MAX_PUBLISH_BYTES * 4;
            (budget / per_tree).clamp(1, MAX_DERIVED_CAP)
        }
    }
}

/// Cross-request continuous-batching knobs
/// ([`SchedulerConfig::batched`]).
///
/// When set, admission coalesces compatible queued requests — same model,
/// same intake tree [`FsdService::tree_of`] — into **one** forward pass
/// ([`FsdService::submit_coalesced`]): the
/// coalition holds a single concurrency slot, its first member pays at
/// most one launch, and the other members' samples ride one fused work
/// item on the resident tree, whose bill is apportioned to them by
/// samples. A batch **never spans priority classes**; while Interactive
/// traffic waits, a Batch head is admitted alone (Interactive preempts
/// the window close).
#[derive(Debug, Clone, Copy)]
pub struct BatchingConfig {
    /// Coalescing window in virtual time: a queued request joins the
    /// head's coalition only if their stamped arrival instants
    /// ([`Scheduler::enqueue_at`](crate::Scheduler::enqueue_at)) differ by
    /// at most this much. Windows are measured against trace-stamped
    /// virtual arrivals, so manual-dispatch replays coalesce bit-identically.
    pub window: VirtualTime,
    /// Maximum members per coalition (clamped to ≥ 1).
    pub max_batch: usize,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            window: VirtualTime::from_micros(250_000),
            max_batch: 8,
        }
    }
}

/// Scheduler tuning knobs. [`SchedulerBuilder::build`](crate::SchedulerBuilder::build)
/// clamps every count and weight to ≥ 1, however it was set.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Maximum concurrently executing requests across all models.
    pub global_cap: usize,
    /// Bounded queue depth per priority class; a full queue rejects with
    /// [`FsdError::Overloaded`](fsd_core::FsdError::Overloaded).
    pub queue_capacity: usize,
    /// Weighted-FIFO shares, indexed by [`Priority::index`]. Zero weights
    /// are clamped to 1 (a zero-weight class would starve).
    pub weights: [u32; Priority::COUNT],
    /// Manual dispatch — the deterministic-harness mode: the caller pumps
    /// admission with [`Scheduler::dispatch`](crate::Scheduler::dispatch),
    /// each ticket's harvest releases its slot share, and the admission
    /// order is recorded ([`Scheduler::admission_log`](crate::Scheduler::admission_log)).
    pub manual_dispatch: bool,
    /// Predictive pre-warming: mine each model's arrival history
    /// ([`crate::predictor::Predictor`]) and pre-warm/evict its warm pool
    /// ahead of the traffic. Requires every registered model to have a
    /// warm pool.
    pub predictor: Option<PredictorConfig>,
    /// Cross-request continuous batching ([`BatchingConfig`]); `None`
    /// admits every request as its own tree pass.
    pub batching: Option<BatchingConfig>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            global_cap: 8,
            queue_capacity: 64,
            weights: [3, 1],
            manual_dispatch: false,
            predictor: None,
            batching: None,
        }
    }
}

impl SchedulerConfig {
    /// Sets the global in-flight cap.
    pub fn global_cap(mut self, cap: usize) -> SchedulerConfig {
        self.global_cap = cap;
        self
    }

    /// Sets the per-class queue bound. Clamped to ≥ 1 (a zero-capacity
    /// queue would reject every request, even on an idle scheduler).
    pub fn queue_capacity(mut self, cap: usize) -> SchedulerConfig {
        self.queue_capacity = cap;
        self
    }

    /// Sets the weighted-FIFO shares (Interactive, Batch).
    pub fn weights(mut self, interactive: u32, batch: u32) -> SchedulerConfig {
        self.weights = [interactive, batch];
        self
    }

    /// Switches to manual dispatch, which records the admission order —
    /// the deterministic-harness mode.
    pub fn manual(mut self) -> SchedulerConfig {
        self.manual_dispatch = true;
        self
    }

    /// Enables predictive pre-warming: every accepted request feeds the
    /// model's [`Predictor`](crate::Predictor), whose decisions pre-warm
    /// matching trees *before* admission runs (and evict shapes whose
    /// traffic went quiet).
    /// [`Scheduler::dispatch`](crate::Scheduler::dispatch) — the drain tick
    /// — re-applies standing evictions so a draining system converges back
    /// to zero warm trees.
    pub fn predictive(mut self, predictor: PredictorConfig) -> SchedulerConfig {
        self.predictor = Some(predictor);
        self
    }

    /// Enables cross-request continuous batching: admission coalesces
    /// compatible queued requests (same model and intake shape, arrivals
    /// within `batching.window`) into one multi-batch tree pass holding a
    /// single concurrency slot. See [`BatchingConfig`] for the fairness
    /// and billing rules.
    pub fn batched(mut self, batching: BatchingConfig) -> SchedulerConfig {
        self.batching = Some(batching);
        self
    }
}

/// Point-in-time scheduler statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStatsSnapshot {
    /// Requests accepted into a queue.
    pub enqueued: u64,
    /// Requests admitted into execution, per class.
    pub admitted: [u64; Priority::COUNT],
    /// Requests rejected with backpressure, per class.
    pub rejected: [u64; Priority::COUNT],
    /// Requests that finished successfully.
    pub completed: u64,
    /// Requests that finished with an error (terminally — retried attempts
    /// count under `retried` until their budget runs out).
    pub failed: u64,
    /// Terminal failures by [`FailureCause`], indexed by
    /// [`FailureCause::index`].
    pub failed_by: [u64; FailureCause::COUNT],
    /// Failed attempts re-admitted under the request's retry budget
    /// ([`Scheduler::enqueue_with_retries`](crate::Scheduler::enqueue_with_retries));
    /// the re-admission is not re-counted under `enqueued` and never feeds
    /// the predictor.
    pub retried: u64,
    /// Completed requests served by a warm tree (the admission path found
    /// a matching parked tree in the service's warm pool).
    pub warm_hits: u64,
    /// Completed requests that paid the full launch bill (every pool miss,
    /// and every request of a pool-less service).
    pub cold_starts: u64,
    /// Trees pre-warmed by predictor decisions.
    pub prewarmed: u64,
    /// Parked trees evicted by predictor quiescence decisions.
    pub predictor_evicted: u64,
    /// Queued requests cancelled by [`Scheduler::shutdown`](crate::Scheduler::shutdown)
    /// (their tickets resolve
    /// [`FsdError::ShuttingDown`](fsd_core::FsdError::ShuttingDown)).
    pub cancelled: u64,
    /// Multi-member coalitions admitted (continuous batching).
    pub coalitions: u64,
    /// Requests admitted as members of a multi-member coalition.
    pub coalesced: u64,
    /// Currently queued (accepted, not yet admitted).
    pub queued: usize,
    /// Currently holding a concurrency slot.
    pub inflight: usize,
    /// High-water mark of `inflight` (cap invariant checks).
    pub max_inflight: usize,
    /// Per-model high-water marks, in registration order.
    pub max_inflight_per_model: Vec<usize>,
    /// Smoothed observed request latency (virtual time), blended across
    /// launch paths by the observed warm/cold mix — what `retry_after`
    /// hints are computed from.
    pub ewma_latency: VirtualTime,
    /// Smoothed latency of cold-start completions only.
    pub ewma_cold_latency: VirtualTime,
    /// Smoothed latency of warm-hit completions only.
    pub ewma_warm_latency: VirtualTime,
}

impl SchedStatsSnapshot {
    /// Total rejected across classes.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheduler, DEFAULT_MODEL};
    use fsd_core::{BatchedRequest, EngineConfig, ServiceBuilder};
    use fsd_model::DnnSpec;
    use std::sync::Arc;

    #[test]
    fn derived_cap_for_tiny_models_is_compute_bound() {
        let spec = DnnSpec {
            neurons: 64,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 8,
        };
        let svc = Arc::new(
            ServiceBuilder::new(Arc::new(fsd_model::generate_dnn(&spec)))
                .deterministic(8)
                .prewarm(1)
                .prewarm(2)
                .build(),
        );
        // A model the recommender routes to Serial uses no channel: cap is
        // the derived maximum and the global cap governs.
        assert_eq!(derive_model_cap(&svc), MAX_DERIVED_CAP);
        let sched = Scheduler::wrap(svc, SchedulerConfig::default());
        assert_eq!(sched.model_cap(DEFAULT_MODEL), Some(MAX_DERIVED_CAP));
    }

    #[test]
    fn auto_cap_derivation_and_execution_agree_near_the_threshold() {
        // A model deliberately too large for its configured Serial
        // instance, so Auto routes to a channel variant — right where the
        // scheduler's old private byte-size heuristic could drift from
        // the service's resolver. Cap derivation, the planning hook and
        // the executed report must all name the same variant, *including
        // at the Queue → Hybrid band edge* where a divergent estimate
        // would first show.
        let spec = DnnSpec {
            neurons: 768,
            layers: 6,
            nnz_per_row: 24,
            bias: -0.25,
            clip: 32.0,
            seed: 41,
        };
        let dnn = Arc::new(fsd_model::generate_dnn(&spec));
        let svc = Arc::new(
            ServiceBuilder::new(dnn.clone())
                .config(EngineConfig {
                    serial_memory_mb: 1,
                    ..EngineConfig::default()
                })
                .deterministic(41)
                .build(),
        );
        assert_ne!(
            svc.recommend(3, svc.est_bytes_per_row()).variant,
            Variant::Serial,
            "model must not fit Serial"
        );
        // Binary-search the per-row estimate where the resolver leaves
        // the Queue band: one byte under the flip stays Queue, the flip
        // itself is Hybrid — the band edge the old private heuristic
        // could silently cross differently than execution.
        let (mut lo, mut hi) = (1usize, 1usize << 30);
        // The Direct band sits below Queue; walk the lower bound up into
        // the Queue band first (Queue spans an 8× range of per-pair
        // volume, so doubling cannot step over it).
        assert_eq!(svc.resolve(Variant::Auto, 3, lo), Variant::Direct);
        while svc.resolve(Variant::Auto, 3, lo) == Variant::Direct {
            lo *= 2;
        }
        assert_eq!(svc.resolve(Variant::Auto, 3, lo), Variant::Queue);
        assert_ne!(svc.resolve(Variant::Auto, 3, hi), Variant::Queue);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if svc.resolve(Variant::Auto, 3, mid) == Variant::Queue {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        assert_eq!(svc.resolve(Variant::Auto, 3, lo), Variant::Queue);
        assert_eq!(
            svc.resolve(Variant::Auto, 3, hi),
            Variant::Hybrid,
            "the first band past Queue must be Hybrid"
        );

        // One Auto request on each side of the edge: per-row wire sizes
        // engineered to straddle the flip estimate (rows of `k` nonzeros
        // each), so the per-request refinement resolves Queue just under
        // it and Hybrid just over it. Both executions must agree with
        // the plan and with what the cap was derived on.
        let row_nnz_for = |est: usize| (est.saturating_sub(16) / 8).max(1);
        let inputs_with = |k: usize| {
            let cols: Vec<u32> = (0..k as u32).collect();
            fsd_sparse::SparseRows::from_rows(
                k,
                (0..8u32).map(|i| {
                    let vals: Vec<f32> = (0..k)
                        .map(|j| 0.5 + ((i as usize + j) % 7) as f32 * 0.1)
                        .collect();
                    (i, cols.clone(), vals)
                }),
            )
        };
        let cap = derive_model_cap(&svc);
        assert!((1..=MAX_DERIVED_CAP).contains(&cap));
        for (k, expected_side) in [
            (row_nnz_for(hi / 2), Variant::Queue),
            (row_nnz_for(2 * hi), Variant::Hybrid),
        ] {
            let req = BatchedRequest {
                variant: Variant::Auto,
                workers: 3,
                memory_mb: 1769,
                batches: vec![inputs_with(k)],
            };
            let planned = svc.tree_of(&req).expect("valid").variant;
            assert_eq!(planned, expected_side, "k {k} landed off-band");
            let report = svc.submit_batched(&req).expect("auto runs");
            assert_eq!(
                report.variant, planned,
                "execution diverged from the resolver the cap was derived on"
            );
            assert_eq!(
                report.first_output(),
                &dnn.serial_inference(&req.batches[0])
            );
        }
    }
}
