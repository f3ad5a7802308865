//! The admission-controlled scheduler.
//!
//! All intake goes through [`Scheduler::enqueue`], which either accepts a
//! request into a **bounded** per-class queue (returning a [`Ticket`]) or
//! rejects it with [`FsdError::Overloaded`]. Admission moves requests from
//! the queues into execution under two caps — global in-flight and
//! per-model in-flight — choosing between backlogged priority classes by
//! smooth weighted round-robin (strict FIFO within a class, head-of-line
//! per class so the admission order is a pure function of the enqueue
//! sequence).
//!
//! Two dispatch modes share every code path except *when* admission runs:
//!
//! * **auto** (production): admission runs inside `enqueue` and at each
//!   request completion; completions release their concurrency slot
//!   immediately.
//! * **manual** (deterministic harnesses): admission runs only inside
//!   explicit [`Scheduler::dispatch`] calls, and a slot is released when
//!   the ticket's result is harvested by [`Ticket::wait`]. With a single
//!   driver thread every scheduler-state mutation is then totally ordered
//!   by that thread, so the admission sequence is reproducible bit for bit
//!   while execution still spreads over real worker threads.

use crate::predictor::{Predictor, PredictorConfig, PrewarmDecision};
use fsd_comm::{quota, VirtualTime};
use fsd_core::{
    BatchedRequest, FsdError, FsdService, InferenceReport, LaunchPath, TreeKey, Variant,
};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// Relative half-width of the seeded jitter applied to `retry_after`
/// hints, decorrelating retry herds: every rejected client of one
/// overload burst would otherwise be told the *same* instant to return.
const RETRY_HINT_JITTER: f64 = 0.1;

/// Why an admitted request failed — the scheduler's coarse classification
/// of [`FsdError`] for its counters and retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// A communication-layer failure (transport fault, quota, codec).
    /// Retryable: the next attempt draws fresh fault decisions.
    Comm,
    /// A worker instance (or its whole tree) crashed mid-request.
    /// Retryable: the relaunch lands on fresh instances.
    InstanceCrash,
    /// A worker exceeded its runtime limit. **Not** retryable — the rerun
    /// would compute the same too-long answer and burn the bill twice.
    Timeout,
    /// Everything else (OOM, config errors, empty requests). Not
    /// retryable: deterministic failures of the request itself.
    Other,
}

impl FailureCause {
    /// Number of causes (dense-array sizing).
    pub const COUNT: usize = 4;

    /// Classifies a request error. Instance deaths travel as
    /// [`FsdError::Comm`] with the platform's launch/abort/tree op tags,
    /// so they are split out *before* the generic comm bucket.
    pub fn of(err: &FsdError) -> FailureCause {
        match err {
            FsdError::Comm(f) if matches!(f.op, "instance" | "abort" | "tree") => {
                FailureCause::InstanceCrash
            }
            FsdError::Comm(_) => FailureCause::Comm,
            FsdError::Timeout { .. } => FailureCause::Timeout,
            _ => FailureCause::Other,
        }
    }

    /// Dense index for per-cause arrays.
    pub fn index(self) -> usize {
        match self {
            FailureCause::Comm => 0,
            FailureCause::InstanceCrash => 1,
            FailureCause::Timeout => 2,
            FailureCause::Other => 3,
        }
    }

    /// Whether a failed attempt of this cause is worth re-admitting: comm
    /// faults and instance crashes are environmental and transient;
    /// timeouts and compute-side errors are properties of the request.
    pub fn is_retryable(self) -> bool {
        matches!(self, FailureCause::Comm | FailureCause::InstanceCrash)
    }
}

/// Fallback service-latency estimate for `retry_after` before the first
/// completion has seeded the EWMA (1 virtual second).
const DEFAULT_LATENCY_US: f64 = 1_000_000.0;

/// EWMA smoothing factor for observed request latency.
const EWMA_ALPHA: f64 = 0.2;

/// Derives a per-model concurrency cap from the §IV-C recommendation's
/// predicted channel load: each in-flight tree is predicted to push
/// `workers × bytes_per_pair_layer` through the shared communication
/// fabric per layer, and the region offers `n_topics` parallel channels of
/// a few publish quotas each (the same "a few quotas per pair" saturation
/// multiple the recommender uses). Models the recommender routes to
/// Serial use no channel; their concurrency is compute-bound and the
/// global cap governs. Routing runs through the service's own resolver
/// (`FsdService::recommend` with its a-priori
/// `FsdService::est_bytes_per_row`), so admission caps and execution can
/// never disagree on a model's variant.
pub fn derive_model_cap(service: &FsdService, typical_workers: u32) -> usize {
    let rec = service.recommend(typical_workers.max(1), service.est_bytes_per_row());
    match rec.variant {
        Variant::Serial => MAX_DERIVED_CAP,
        Variant::Queue | Variant::Object | Variant::Hybrid | Variant::Direct | Variant::Auto => {
            let per_tree = rec.profile.workers as usize * rec.profile.bytes_per_pair_layer.max(1);
            let budget = service.env().config().n_topics * quota::MAX_PUBLISH_BYTES * 4;
            (budget / per_tree).clamp(1, MAX_DERIVED_CAP)
        }
    }
}

/// Cross-request continuous-batching knobs
/// ([`SchedulerConfig::batched`]).
///
/// When set, admission coalesces compatible queued requests — same model,
/// same resolved `(variant, P, memory_mb)` shape via [`FsdService::resolve`]
/// — into **one** multi-batch tree pass ([`FsdService::submit_coalesced`]):
/// the coalition holds a single concurrency slot, its first member pays at
/// most one launch, and every other member lands warm on the resident
/// tree. Billing stays disjoint per member flow, and a batch **never spans
/// priority classes**; while Interactive traffic waits, a Batch head is
/// admitted alone (Interactive preempts the window close).
#[derive(Debug, Clone, Copy)]
pub struct BatchingConfig {
    /// Coalescing window in virtual time: a queued request joins the
    /// head's coalition only if their stamped arrival instants
    /// ([`Scheduler::enqueue_at`]) differ by at most this much. Windows
    /// are measured against trace-stamped virtual arrivals, so
    /// manual-dispatch replays coalesce bit-identically.
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

impl BatchingConfig {
    /// Sets the coalescing window (virtual time).
    pub fn window(mut self, window: VirtualTime) -> BatchingConfig {
        self.window = window;
        self
    }

    /// Sets the maximum coalition size (clamped to ≥ 1).
    pub fn max_batch(mut self, max_batch: usize) -> BatchingConfig {
        self.max_batch = max_batch.max(1);
        self
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Maximum concurrently executing requests across all models.
    pub global_cap: usize,
    /// Bounded queue depth per priority class; a full queue rejects with
    /// [`FsdError::Overloaded`].
    pub queue_capacity: usize,
    /// Weighted-FIFO shares, indexed by [`Priority::index`]. Zero weights
    /// are clamped to 1 (a zero-weight class would starve).
    pub weights: [u32; Priority::COUNT],
    /// Worker count used to derive per-model caps a priori (§IV-C).
    pub typical_workers: u32,
    /// Manual dispatch: admission only happens in [`Scheduler::dispatch`]
    /// and slots release on harvest — the deterministic-harness mode.
    pub manual_dispatch: bool,
    /// Record the admission order (seq numbers) for harnesses/tests.
    pub record_admissions: bool,
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
            typical_workers: 3,
            manual_dispatch: false,
            record_admissions: false,
            predictor: None,
            batching: None,
        }
    }
}

impl SchedulerConfig {
    /// Sets the global in-flight cap.
    pub fn global_cap(mut self, cap: usize) -> SchedulerConfig {
        self.global_cap = cap.max(1);
        self
    }

    /// Sets the per-class queue bound. Clamped to ≥ 1 (a zero-capacity
    /// queue would reject every request, even on an idle scheduler).
    pub fn queue_capacity(mut self, cap: usize) -> SchedulerConfig {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Sets the weighted-FIFO shares (Interactive, Batch).
    pub fn weights(mut self, interactive: u32, batch: u32) -> SchedulerConfig {
        self.weights = [interactive.max(1), batch.max(1)];
        self
    }

    /// Sets the worker count used for §IV-C cap derivation.
    pub fn typical_workers(mut self, p: u32) -> SchedulerConfig {
        self.typical_workers = p.max(1);
        self
    }

    /// Switches to manual dispatch with admission recording — the
    /// deterministic-harness mode.
    pub fn manual(mut self) -> SchedulerConfig {
        self.manual_dispatch = true;
        self.record_admissions = true;
        self
    }

    /// Enables predictive pre-warming: every accepted request feeds the
    /// model's [`Predictor`], whose decisions pre-warm matching trees
    /// *before* admission runs (and evict shapes whose traffic went
    /// quiet). [`Scheduler::dispatch`] — the drain tick — re-applies
    /// standing evictions so a draining system converges back to zero
    /// warm trees.
    pub fn predictive(mut self, predictor: PredictorConfig) -> SchedulerConfig {
        self.predictor = Some(predictor);
        self
    }

    /// Enables cross-request continuous batching: admission coalesces
    /// compatible queued requests (same model and resolved shape, arrivals
    /// within `batching.window`) into one multi-batch tree pass holding a
    /// single concurrency slot. See [`BatchingConfig`] for the fairness
    /// and billing rules.
    pub fn batched(mut self, batching: BatchingConfig) -> SchedulerConfig {
        self.batching = Some(batching);
        self
    }
}

/// Point-in-time scheduler statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// ([`Scheduler::enqueue_with_retries`]); the re-admission is not
    /// re-counted under `enqueued` and never feeds the predictor.
    pub retried: u64,
    /// Completed requests served by a warm tree (the admission path found
    /// a matching parked tree in the service's warm pool).
    pub warm_hits: u64,
    /// Completed requests that paid the full launch bill (including all
    /// Serial runs and every request of a pool-less service).
    pub cold_starts: u64,
    /// Trees pre-warmed by predictor decisions.
    pub prewarmed: u64,
    /// Parked trees evicted by predictor quiescence decisions.
    pub predictor_evicted: u64,
    /// Queued requests cancelled by [`Scheduler::shutdown`] (their tickets
    /// resolve [`FsdError::ShuttingDown`](fsd_core::FsdError::ShuttingDown)).
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
    /// Total admitted across classes.
    pub fn total_admitted(&self) -> u64 {
        self.admitted.iter().sum()
    }

    /// Total rejected across classes.
    pub fn total_rejected(&self) -> u64 {
        self.rejected.iter().sum()
    }
}

/// A registered model: the service plus its concurrency cap.
struct ModelEntry {
    name: String,
    service: Arc<FsdService>,
    cap: usize,
}

/// One accepted, not-yet-admitted request.
struct Pending {
    ticket: Arc<TicketShared>,
    req: BatchedRequest,
    /// Stamped virtual arrival instant ([`Scheduler::enqueue_at`]); the
    /// continuous-batching window is measured between these.
    arrival: VirtualTime,
    /// The resolved coalescing shape, written back (outside the scheduler
    /// lock) after acceptance: `Some(key)` may join a coalition of the
    /// same key; `None` (Serial-resolved, empty, or not yet resolved)
    /// always dispatches solo.
    shape: Option<TreeKey>,
    /// Remaining retry budget ([`Scheduler::enqueue_with_retries`]): a
    /// retryable failure with budget left re-enters its class queue at the
    /// head instead of resolving the ticket.
    retries_left: u32,
}

/// Result cell shared between the executor thread and the ticket holder.
struct TicketCell {
    result: Option<Result<InferenceReport, FsdError>>,
}

/// The concurrency slot an admitted execution pass holds, shared by every
/// coalition member's ticket: in manual mode the slot is released when the
/// **last** member is harvested, so a coalition of `k` tickets frees
/// exactly one global/model slot (not `k`).
struct SlotHold {
    remaining: AtomicUsize,
}

struct TicketShared {
    seq: u64,
    priority: Priority,
    model: usize,
    cell: Mutex<TicketCell>,
    done: Condvar,
    /// Set at admission; taken (once) at harvest. `None` for tickets that
    /// never got a slot — e.g. cancelled at shutdown while still queued.
    slot: Mutex<Option<Arc<SlotHold>>>,
}

/// Handle to an accepted request; [`Ticket::wait`] blocks for the result.
///
/// In manual-dispatch mode the request's concurrency slot is released when
/// the result is harvested here, so a driver that never waits its tickets
/// would pin slots forever — harnesses must harvest every ticket.
pub struct Ticket {
    shared: Arc<TicketShared>,
    core: Arc<SchedulerCore>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("seq", &self.shared.seq)
            .field("priority", &self.shared.priority)
            .field("done", &self.is_done())
            .finish()
    }
}

impl Ticket {
    /// The request's admission sequence number (global, monotonically
    /// increasing in enqueue-acceptance order).
    pub fn seq(&self) -> u64 {
        self.shared.seq
    }

    /// The request's priority class.
    pub fn priority(&self) -> Priority {
        self.shared.priority
    }

    /// Whether the result is ready (a `wait` would not block).
    pub fn is_done(&self) -> bool {
        self.shared.cell.lock().result.is_some()
    }

    /// Blocks until the request finishes and returns its result. Queued
    /// tickets cancelled by [`Scheduler::shutdown`] resolve promptly with
    /// [`FsdError::ShuttingDown`](fsd_core::FsdError::ShuttingDown)
    /// instead of hanging.
    pub fn wait(self) -> Result<InferenceReport, FsdError> {
        let result = {
            let mut cell = self.shared.cell.lock();
            loop {
                if let Some(r) = cell.result.take() {
                    break r;
                }
                self.shared
                    .done
                    .wait_for(&mut cell, Duration::from_millis(50));
            }
        };
        self.core.on_harvest(&self.shared);
        result
    }
}

#[derive(Default)]
struct Counters {
    enqueued: u64,
    admitted: [u64; Priority::COUNT],
    rejected: [u64; Priority::COUNT],
    completed: u64,
    failed: u64,
    failed_by: [u64; FailureCause::COUNT],
    retried: u64,
    warm_hits: u64,
    cold_starts: u64,
    prewarmed: u64,
    predictor_evicted: u64,
    cancelled: u64,
    coalitions: u64,
    coalesced: u64,
}

/// Dense index of a launch path into the per-path EWMA array.
fn path_index(path: LaunchPath) -> usize {
    match path {
        LaunchPath::ColdStart => 0,
        LaunchPath::WarmHit => 1,
    }
}

struct SchedState {
    queues: [VecDeque<Pending>; Priority::COUNT],
    /// Smooth-WRR credit per class; grows while a class is backlogged,
    /// drains when it wins an admission.
    credits: [i64; Priority::COUNT],
    inflight_global: usize,
    inflight_model: Vec<usize>,
    max_inflight_global: usize,
    max_inflight_model: Vec<usize>,
    next_seq: u64,
    shutting_down: bool,
    counters: Counters,
    admission_log: Vec<u64>,
    /// Admission groups aligned with `admission_log`: one inner vec per
    /// admitted execution pass (coalitions keep their members together).
    admission_groups: Vec<Vec<u64>>,
    /// Smoothed observed latency per launch path, indexed by
    /// [`path_index`] (cold starts and warm hits regress separately — a
    /// warm pool must tighten the `retry_after` hint, not be averaged
    /// away into the cold estimate).
    ewma_latency_us: [f64; 2],
}

impl SchedState {
    /// The path-mix-weighted latency estimate `retry_after` hints use:
    /// each path's EWMA weighted by how many completions took it. 0.0
    /// before the first completion.
    fn blended_latency_us(&self) -> f64 {
        let cold_n = self.counters.cold_starts as f64;
        let warm_n = self.counters.warm_hits as f64;
        let total = cold_n + warm_n;
        if total == 0.0 {
            return 0.0;
        }
        (self.ewma_latency_us[0] * cold_n + self.ewma_latency_us[1] * warm_n) / total
    }
}

struct SchedulerCore {
    cfg: SchedulerConfig,
    models: Vec<ModelEntry>,
    by_name: HashMap<String, usize>,
    /// Per-model arrival-history miners (`Some` iff `cfg.predictor`).
    /// Locked independently of `state`: predictor decisions launch trees,
    /// which must never happen under the scheduler lock.
    predictors: Vec<Option<Mutex<Predictor>>>,
    /// Serializes decision *application* per model: concurrent enqueues
    /// would otherwise read the same pre-launch `warm_live_trees` count
    /// and launch duplicate trees (a pre-warm in flight is not yet
    /// visible as live). Held across the launches; never taken together
    /// with `state` or a predictor lock.
    prewarm_apply: Vec<Mutex<()>>,
    state: Mutex<SchedState>,
    /// Signaled on completions, harvests and queue transitions (drain).
    idle: Condvar,
}

/// The request fields the predictor needs, captured *before* the request
/// is moved into the queue. The per-row payload estimate is pure
/// computation (no staging), so capturing it on the backpressure fast
/// path is cheap; the potentially expensive `Auto` resolution happens
/// later, in [`SchedulerCore::resolve_shape`], only for accepted
/// requests.
#[derive(Clone, Copy)]
struct ArrivalShape {
    variant: Variant,
    workers: u32,
    memory_mb: u32,
    /// Wire bytes per row of the first batch; `None` for empty requests
    /// (they fail at execution with `EmptyRequest`, never reach a tree).
    est_bytes_per_row: Option<usize>,
}

impl ArrivalShape {
    fn capture(req: &BatchedRequest) -> ArrivalShape {
        ArrivalShape {
            variant: req.variant,
            workers: req.workers.max(1),
            memory_mb: req.memory_mb,
            est_bytes_per_row: req
                .batches
                .first()
                .map(|first| fsd_sparse::codec::encoded_size(first) / first.n_rows().max(1)),
        }
    }
}

impl SchedulerCore {
    /// The warm-tree shape an accepted request will run as, for the
    /// predictor: `None` for requests that run no tree (Serial — they
    /// advance the predictor's clock without claiming warm capacity).
    /// `Auto` resolves through `FsdService::resolve` — the same resolver
    /// the execution path uses, so predicted shapes always match the trees
    /// requests actually run on. Resolution may stage partitions — only
    /// ever paid for accepted requests.
    fn resolve_shape(service: &FsdService, shape: ArrivalShape) -> Option<TreeKey> {
        let resolved = match (shape.variant, shape.est_bytes_per_row) {
            (Variant::Auto, None) => return None,
            (Variant::Auto, Some(est)) => service.resolve(Variant::Auto, shape.workers, est),
            (
                v @ (Variant::Serial
                | Variant::Queue
                | Variant::Object
                | Variant::Hybrid
                | Variant::Direct),
                _,
            ) => v,
        };
        resolved.channel_name().map(|_| TreeKey {
            variant: resolved,
            workers: shape.workers,
            memory_mb: shape.memory_mb,
        })
    }

    /// Feeds one **accepted** arrival's resolved shape to the model's
    /// predictor and applies the resulting decision set (pre-warms +
    /// evictions). Runs on the enqueueing thread — in manual mode that is
    /// the harness driver, so pool mutations stay totally ordered and
    /// replays deterministic. Rejected arrivals never reach this method:
    /// a flood of `Overloaded` rejections must not inflate pre-warm
    /// targets.
    fn drive_predictor(&self, model: usize, resolved: Option<TreeKey>) {
        let Some(predictor) = &self.predictors[model] else {
            return;
        };
        let decisions = predictor.lock().observe(resolved);
        self.apply_decisions(model, &decisions, true);
    }

    /// Re-applies every predictive model's *standing* decisions, evictions
    /// only — the drain tick. Pre-warm top-ups are deliberately excluded:
    /// between arrivals, parked counts dip while requests hold trees, and
    /// topping those dips up would over-provision (and make pool contents
    /// depend on dispatch timing instead of the arrival history).
    fn apply_standing_evictions(&self) {
        for model in 0..self.models.len() {
            let Some(predictor) = &self.predictors[model] else {
                continue;
            };
            let decisions = predictor.lock().decisions();
            self.apply_decisions(model, &decisions, false);
        }
    }

    /// Applies a decision set against the model's warm pool: evictions
    /// always, pre-warms (up to target, counting what is already parked)
    /// only when `prewarm` is set. Idempotent — re-applying an already
    /// satisfied decision set is a no-op.
    fn apply_decisions(&self, model: usize, decisions: &[PrewarmDecision], prewarm: bool) {
        // One applier per model at a time, so every top-up reads live
        // counts that include the previous applier's launches.
        let _applying = self.prewarm_apply[model].lock();
        let service = &self.models[model].service;
        let mut prewarmed = 0u64;
        let mut evicted = 0u64;
        for decision in decisions {
            match *decision {
                PrewarmDecision::Warm { shape, target } if prewarm => {
                    // Top up against *live* trees (parked + in service):
                    // a burst's own checkouts must not read as missing
                    // capacity, or auto mode would launch a redundant
                    // tree per in-flight request.
                    let live =
                        service.warm_live_trees(shape.variant, shape.workers, shape.memory_mb);
                    for _ in live..target {
                        // A failed pre-warm launch is a prediction the
                        // platform declined, not a request error: skip it
                        // and let the request pay its own cold start.
                        if service
                            .prewarm_tree(shape.variant, shape.workers, shape.memory_mb)
                            .is_ok()
                        {
                            prewarmed += 1;
                        }
                    }
                }
                PrewarmDecision::Warm { .. } => {}
                PrewarmDecision::Evict { shape } => {
                    evicted +=
                        service.evict_warm_trees(shape.variant, shape.workers, shape.memory_mb)
                            as u64;
                }
            }
        }
        if prewarmed > 0 || evicted > 0 {
            let mut state = self.state.lock();
            state.counters.prewarmed += prewarmed;
            state.counters.predictor_evicted += evicted;
        }
    }
    /// Releases a harvested ticket's slot (manual mode only; in auto mode
    /// the slot was already released at completion). A coalition's slot is
    /// shared by every member ticket and releases only when the **last**
    /// member is harvested — a coalition of `k` tickets frees one slot.
    fn on_harvest(&self, shared: &TicketShared) {
        if !self.cfg.manual_dispatch {
            return;
        }
        // Take the hold before touching scheduler state: slot mutexes are
        // leaf locks, never held while waiting on `state`.
        let hold = shared.slot.lock().take();
        let Some(hold) = hold else {
            // Never admitted (cancelled at shutdown while queued): no slot
            // to release.
            return;
        };
        if hold.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        let mut state = self.state.lock();
        state.inflight_global = state.inflight_global.saturating_sub(1);
        state.inflight_model[shared.model] = state.inflight_model[shared.model].saturating_sub(1);
        drop(state);
        self.idle.notify_all();
    }

    /// Backpressure hint: how long (virtual time) the current backlog
    /// would take to drain a slot, from the per-launch-path latency EWMAs
    /// blended by the observed warm/cold mix — a warm pool that starts
    /// absorbing traffic tightens the hint instead of being averaged into
    /// the cold estimate. A seeded ±[`RETRY_HINT_JITTER`] factor
    /// decorrelates the herd (every client of one overload burst would
    /// otherwise be told the same return instant) while staying a pure
    /// function of the region seed and the rejection count — identically
    /// seeded replays hint bit-identically.
    fn retry_after(&self, state: &SchedState) -> VirtualTime {
        let backlog =
            state.queues.iter().map(VecDeque::len).sum::<usize>() + state.inflight_global + 1;
        let blended = state.blended_latency_us();
        let per = if blended > 0.0 {
            blended
        } else {
            DEFAULT_LATENCY_US
        };
        let waves = (backlog as f64 / self.cfg.global_cap.max(1) as f64).ceil();
        let seed = self.models[0].service.env().config().seed;
        let draw = state.counters.rejected.iter().sum::<u64>();
        let unit = fsd_comm::unit_from(fsd_comm::mix64(
            seed.rotate_left(17) ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        let factor = 1.0 - RETRY_HINT_JITTER + 2.0 * RETRY_HINT_JITTER * unit;
        VirtualTime::from_micros((per * waves * factor).ceil() as u64)
    }

    /// Admits as many queued execution passes as the caps allow. With
    /// continuous batching ([`SchedulerConfig::batched`]) a pass may be a
    /// multi-member coalition — one concurrency slot, one tree pass —
    /// otherwise every group is a singleton. Must run with the state lock
    /// held; returns the admitted groups for the caller to spawn *after*
    /// dropping the lock.
    fn dispatch_locked(&self, state: &mut SchedState) -> Vec<Vec<Pending>> {
        let mut admitted = Vec::new();
        loop {
            if state.inflight_global >= self.cfg.global_cap {
                break;
            }
            // A class is backlogged if non-empty; eligible if additionally
            // its head's model has a free slot (head-of-line per class
            // keeps the admission order a pure function of enqueue order).
            let mut backlogged = [false; Priority::COUNT];
            let mut eligible = [false; Priority::COUNT];
            for (i, q) in state.queues.iter().enumerate() {
                if let Some(head) = q.front() {
                    backlogged[i] = true;
                    eligible[i] = state.inflight_model[head.ticket.model]
                        < self.models[head.ticket.model].cap;
                }
            }
            if !eligible.iter().any(|&e| e) {
                break;
            }
            // Smooth weighted round-robin over backlogged classes: every
            // backlogged class earns its weight each round (so a
            // model-blocked class builds priority for when it unblocks),
            // the eligible class with the highest credit wins and pays the
            // round's total weight back.
            let mut round_weight = 0i64;
            for (i, &is_backlogged) in backlogged.iter().enumerate() {
                if is_backlogged {
                    let w = self.cfg.weights[i].max(1) as i64;
                    state.credits[i] += w;
                    round_weight += w;
                }
            }
            let winner = (0..Priority::COUNT)
                .filter(|&i| eligible[i])
                .max_by_key(|&i| (state.credits[i], std::cmp::Reverse(i)))
                .expect("an eligible class exists");
            state.credits[winner] -= round_weight;
            let pending = state.queues[winner].pop_front().expect("eligible head");
            let model = pending.ticket.model;
            let mut group = vec![pending];
            // Coalesce compatible followers behind the head: same model,
            // same resolved shape, arrivals within the window — and never
            // across classes. Fairness rule: while Interactive traffic
            // waits, a Batch head is admitted *alone* (Interactive
            // preempts the window close; a fat Batch coalition must not
            // widen ahead of latency-sensitive work).
            if let Some(batching) = self.cfg.batching {
                let interactive_waiting = winner == Priority::Batch.index()
                    && !state.queues[Priority::Interactive.index()].is_empty();
                if let (Some(key), false) = (group[0].shape, interactive_waiting) {
                    let head_arrival = group[0].arrival.as_micros();
                    let window = batching.window.as_micros();
                    let max_batch = batching.max_batch.max(1);
                    let queue = &mut state.queues[winner];
                    let mut i = 0;
                    while i < queue.len() && group.len() < max_batch {
                        let member = &queue[i];
                        let joins = member.ticket.model == model
                            && member.shape == Some(key)
                            && member.arrival.as_micros().abs_diff(head_arrival) <= window;
                        if joins {
                            group.push(queue.remove(i).expect("scanned index in bounds"));
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            // The whole group holds ONE concurrency slot: its members run
            // as a single tree pass.
            state.inflight_global += 1;
            state.inflight_model[model] += 1;
            state.max_inflight_global = state.max_inflight_global.max(state.inflight_global);
            state.max_inflight_model[model] =
                state.max_inflight_model[model].max(state.inflight_model[model]);
            state.counters.admitted[winner] += group.len() as u64;
            if group.len() > 1 {
                state.counters.coalitions += 1;
                state.counters.coalesced += group.len() as u64;
            }
            let hold = Arc::new(SlotHold {
                remaining: AtomicUsize::new(group.len()),
            });
            for member in &group {
                *member.ticket.slot.lock() = Some(hold.clone());
            }
            if self.cfg.record_admissions {
                for member in &group {
                    state.admission_log.push(member.ticket.seq);
                }
                state
                    .admission_groups
                    .push(group.iter().map(|m| m.ticket.seq).collect());
            }
            admitted.push(group);
        }
        admitted
    }

    /// Spawns one executor thread per admitted group: a singleton runs
    /// [`FsdService::submit_batched`], a coalition runs
    /// [`FsdService::submit_coalesced`] — one tree pass, one report per
    /// member under its own flow id.
    fn spawn(self: &Arc<Self>, admitted: Vec<Vec<Pending>>) {
        for group in admitted {
            let core = self.clone();
            let model = group[0].ticket.model;
            let service = self.models[model].service.clone();
            std::thread::spawn(move || {
                let (metas, reqs): (Vec<_>, Vec<_>) = group
                    .into_iter()
                    .map(|p| ((p.ticket, p.arrival, p.shape, p.retries_left), p.req))
                    .unzip();
                let results = if reqs.len() == 1 {
                    vec![service.submit_batched(&reqs[0])]
                } else {
                    service.submit_coalesced(&reqs)
                };
                debug_assert_eq!(metas.len(), results.len());

                // Completion bookkeeping first, then deliver the results:
                // a manual-mode harvester must observe consistent counters.
                // A retryable failure with budget left re-enters its class
                // queue at the *head* (it already waited its turn once) —
                // not re-counted under `enqueued`, never re-fed to the
                // predictor, so admission is charged exactly once per
                // logical request.
                let mut deliver = Vec::with_capacity(results.len());
                let mut state = core.state.lock();
                for (((ticket, arrival, shape, retries_left), req), result) in
                    metas.into_iter().zip(reqs).zip(results)
                {
                    match result {
                        Ok(report) => {
                            state.counters.completed += 1;
                            match report.launch {
                                LaunchPath::WarmHit => state.counters.warm_hits += 1,
                                LaunchPath::ColdStart => state.counters.cold_starts += 1,
                            }
                            let l = report.latency.as_micros() as f64;
                            let e = &mut state.ewma_latency_us[path_index(report.launch)];
                            *e = if *e == 0.0 {
                                l
                            } else {
                                (1.0 - EWMA_ALPHA) * *e + EWMA_ALPHA * l
                            };
                            deliver.push((ticket, Ok(report)));
                        }
                        Err(e) => {
                            let cause = FailureCause::of(&e);
                            if retries_left > 0 && cause.is_retryable() && !state.shutting_down {
                                // Manual mode: this member's share of the
                                // pass slot must release *before* the
                                // re-admission assigns a fresh hold, or the
                                // old slot leaks and wedges the caps.
                                if core.cfg.manual_dispatch {
                                    if let Some(hold) = ticket.slot.lock().take() {
                                        if hold.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                                            state.inflight_global =
                                                state.inflight_global.saturating_sub(1);
                                            state.inflight_model[model] =
                                                state.inflight_model[model].saturating_sub(1);
                                        }
                                    }
                                }
                                state.counters.retried += 1;
                                let class = ticket.priority.index();
                                state.queues[class].push_front(Pending {
                                    ticket,
                                    req,
                                    arrival,
                                    shape,
                                    retries_left: retries_left - 1,
                                });
                            } else {
                                state.counters.failed += 1;
                                state.counters.failed_by[cause.index()] += 1;
                                deliver.push((ticket, Err(e)));
                            }
                        }
                    }
                }
                let follow_up = if core.cfg.manual_dispatch {
                    Vec::new()
                } else {
                    // Auto mode: success or error, the group's single slot
                    // releases as soon as the pass finishes and pulls in
                    // the next request(s) — a failing pass must never
                    // wedge the queue. Requeued retries sit at their class
                    // head and are picked up by this same dispatch pass.
                    state.inflight_global -= 1;
                    state.inflight_model[model] -= 1;
                    core.dispatch_locked(&mut state)
                };
                drop(state);
                core.idle.notify_all();
                core.spawn(follow_up);

                for (ticket, result) in deliver {
                    let mut cell = ticket.cell.lock();
                    cell.result = Some(result);
                    drop(cell);
                    ticket.done.notify_all();
                }
            });
        }
    }
}

/// Builds a [`Scheduler`] over one or more registered models.
pub struct SchedulerBuilder {
    cfg: SchedulerConfig,
    models: Vec<(String, Arc<FsdService>, Option<usize>)>,
}

impl SchedulerBuilder {
    /// Starts a builder with the given configuration.
    pub fn new(cfg: SchedulerConfig) -> SchedulerBuilder {
        SchedulerBuilder {
            cfg,
            models: Vec::new(),
        }
    }

    /// Registers a model whose concurrency cap is derived from the §IV-C
    /// recommendation ([`derive_model_cap`] at `cfg.typical_workers`).
    pub fn model(self, name: impl Into<String>, service: Arc<FsdService>) -> SchedulerBuilder {
        self.register(name, service, None)
    }

    /// Registers a model with an explicit concurrency cap.
    pub fn model_with_cap(
        self,
        name: impl Into<String>,
        service: Arc<FsdService>,
        cap: usize,
    ) -> SchedulerBuilder {
        self.register(name, service, Some(cap.max(1)))
    }

    fn register(
        mut self,
        name: impl Into<String>,
        service: Arc<FsdService>,
        cap: Option<usize>,
    ) -> SchedulerBuilder {
        self.models.push((name.into(), service, cap));
        self
    }

    /// Assembles the scheduler.
    ///
    /// # Panics
    /// If no model was registered or a name repeats.
    pub fn build(self) -> Scheduler {
        assert!(
            !self.models.is_empty(),
            "scheduler needs at least one registered model"
        );
        let typical = self.cfg.typical_workers;
        let mut models = Vec::with_capacity(self.models.len());
        let mut by_name = HashMap::new();
        for (name, service, cap) in self.models {
            let cap = cap.unwrap_or_else(|| derive_model_cap(&service, typical));
            let idx = models.len();
            let previous = by_name.insert(name.clone(), idx);
            assert!(previous.is_none(), "model {name:?} registered twice");
            models.push(ModelEntry { name, service, cap });
        }
        let n = models.len();
        let predictors = models
            .iter()
            .map(|m| {
                self.cfg.predictor.map(|pc| {
                    assert!(
                        m.service.warm_pool_stats().is_some(),
                        "predictive pre-warming requires model {:?} to have a \
                         warm pool (ServiceBuilder::warm_pool / auto_warm_pool)",
                        m.name
                    );
                    Mutex::new(Predictor::new(pc))
                })
            })
            .collect();
        Scheduler {
            core: Arc::new(SchedulerCore {
                cfg: self.cfg,
                models,
                by_name,
                predictors,
                prewarm_apply: (0..n).map(|_| Mutex::new(())).collect(),
                state: Mutex::new(SchedState {
                    queues: Default::default(),
                    credits: [0; Priority::COUNT],
                    inflight_global: 0,
                    inflight_model: vec![0; n],
                    max_inflight_global: 0,
                    max_inflight_model: vec![0; n],
                    next_seq: 0,
                    shutting_down: false,
                    counters: Counters::default(),
                    admission_log: Vec::new(),
                    admission_groups: Vec::new(),
                    ewma_latency_us: [0.0; 2],
                }),
                idle: Condvar::new(),
            }),
        }
    }
}

/// The admission-controlled front end over one or more [`FsdService`]s.
/// Cheap to clone; all clones share the same queues and caps.
#[derive(Clone)]
pub struct Scheduler {
    core: Arc<SchedulerCore>,
}

/// Name under which [`Scheduler::wrap`] registers its single model.
pub const DEFAULT_MODEL: &str = "default";

impl Scheduler {
    /// Single-model convenience: wraps `service` under
    /// [`DEFAULT_MODEL`] with a §IV-C-derived cap.
    pub fn wrap(service: Arc<FsdService>, cfg: SchedulerConfig) -> Scheduler {
        SchedulerBuilder::new(cfg)
            .model(DEFAULT_MODEL, service)
            .build()
    }

    /// The global in-flight cap this scheduler enforces.
    pub fn global_cap(&self) -> usize {
        self.core.cfg.global_cap
    }

    /// Whether the scheduler is in manual-dispatch (harness) mode.
    pub fn is_manual(&self) -> bool {
        self.core.cfg.manual_dispatch
    }

    /// The registered model names, in registration order.
    pub fn model_names(&self) -> Vec<&str> {
        self.core.models.iter().map(|m| m.name.as_str()).collect()
    }

    /// The per-model concurrency cap.
    pub fn model_cap(&self, model: &str) -> Option<usize> {
        self.core
            .by_name
            .get(model)
            .map(|&i| self.core.models[i].cap)
    }

    /// The service registered under `model`.
    pub fn service(&self, model: &str) -> Option<&Arc<FsdService>> {
        self.core
            .by_name
            .get(model)
            .map(|&i| &self.core.models[i].service)
    }

    /// Accepts a request into `model`'s intake, or rejects it with
    /// [`FsdError::Overloaded`] (class queue full) /
    /// [`FsdError::ShuttingDown`] (drain in progress) /
    /// [`FsdError::UnknownModel`] (no such registration).
    pub fn enqueue(
        &self,
        model: &str,
        priority: Priority,
        req: BatchedRequest,
    ) -> Result<Ticket, FsdError> {
        self.enqueue_at(model, priority, VirtualTime::ZERO, req)
    }

    /// [`Scheduler::enqueue`] with a retry budget: an admitted request
    /// that fails with a *retryable* cause ([`FailureCause::is_retryable`]
    /// — comm faults and instance crashes, never timeouts) is re-admitted
    /// at the head of its class queue up to `max_retries` times before the
    /// ticket resolves the error. Retries hold no queue slot twice:
    /// admission is charged once per logical request (`enqueued` does not
    /// grow, the predictor is not re-fed), and each re-execution runs
    /// under a fresh flow id so billing never double-counts.
    pub fn enqueue_with_retries(
        &self,
        model: &str,
        priority: Priority,
        req: BatchedRequest,
        max_retries: u32,
    ) -> Result<Ticket, FsdError> {
        self.enqueue_full(model, priority, VirtualTime::ZERO, req, max_retries)
    }

    /// [`Scheduler::enqueue`] with an explicit virtual arrival instant —
    /// the timestamps the continuous-batching window
    /// ([`BatchingConfig::window`]) is measured between. Harness replays
    /// stamp each trace arrival here, so which requests coalesce is a pure
    /// function of the trace, not of wall-clock enqueue timing.
    pub fn enqueue_at(
        &self,
        model: &str,
        priority: Priority,
        arrival: VirtualTime,
        req: BatchedRequest,
    ) -> Result<Ticket, FsdError> {
        self.enqueue_full(model, priority, arrival, req, 0)
    }

    /// The full intake path: explicit arrival stamp *and* retry budget.
    pub fn enqueue_full(
        &self,
        model: &str,
        priority: Priority,
        arrival: VirtualTime,
        req: BatchedRequest,
        max_retries: u32,
    ) -> Result<Ticket, FsdError> {
        let &model_idx = self
            .core
            .by_name
            .get(model)
            .ok_or_else(|| FsdError::UnknownModel {
                name: model.to_string(),
            })?;
        let class = priority.index();
        // Capture the arrival's shape fields (cheap, pure computation)
        // before taking the lock; the potentially expensive `Auto`
        // resolution runs only after acceptance and outside the scheduler
        // lock.
        let need_shape =
            self.core.predictors[model_idx].is_some() || self.core.cfg.batching.is_some();
        let shape = need_shape.then(|| ArrivalShape::capture(&req));
        let mut state = self.core.state.lock();
        if state.shutting_down {
            return Err(FsdError::ShuttingDown);
        }
        if state.queues[class].len() >= self.core.cfg.queue_capacity {
            state.counters.rejected[class] += 1;
            let retry_after = self.core.retry_after(&state);
            return Err(FsdError::Overloaded { retry_after });
        }
        state.next_seq += 1;
        state.counters.enqueued += 1;
        let shared = Arc::new(TicketShared {
            seq: state.next_seq,
            priority,
            model: model_idx,
            cell: Mutex::new(TicketCell { result: None }),
            done: Condvar::new(),
            slot: Mutex::new(None),
        });
        state.queues[class].push_back(Pending {
            ticket: shared.clone(),
            req,
            arrival,
            shape: None,
            retries_left: max_retries,
        });
        drop(state);
        // Resolve the shape only for *accepted* requests (rejected
        // arrivals must never inflate pre-warm targets), then feed the
        // predictor — pre-warm *before* admission, so trees predicted for
        // this arrival's burst are parked by the time the request (and its
        // burst peers) are admitted; in manual mode the same ordering
        // holds trivially, enqueues precede the driver's dispatch call —
        // and stamp the coalescing shape back onto the queued entry.
        if let Some(shape) = shape {
            let resolved =
                SchedulerCore::resolve_shape(&self.core.models[model_idx].service, shape);
            self.core.drive_predictor(model_idx, resolved);
            if self.core.cfg.batching.is_some() {
                let mut state = self.core.state.lock();
                // If auto-mode admission already raced the request out of
                // the queue it dispatched solo — correct either way.
                if let Some(pending) = state.queues[class]
                    .iter_mut()
                    .find(|p| p.ticket.seq == shared.seq)
                {
                    pending.shape = resolved;
                }
            }
        }
        let admitted = if self.core.cfg.manual_dispatch {
            Vec::new()
        } else {
            let mut state = self.core.state.lock();
            let admitted = self.core.dispatch_locked(&mut state);
            drop(state);
            admitted
        };
        self.core.spawn(admitted);
        Ok(Ticket {
            shared,
            core: self.core.clone(),
        })
    }

    /// Single-model convenience for [`Scheduler::wrap`] schedulers.
    pub fn enqueue_default(
        &self,
        priority: Priority,
        req: BatchedRequest,
    ) -> Result<Ticket, FsdError> {
        let name = self.core.models[0].name.clone();
        self.enqueue(&name, priority, req)
    }

    /// Runs one admission pass, spawning every request the caps allow.
    /// Returns how many were admitted. The manual-dispatch driver's pump;
    /// harmless (and normally a no-op) in auto mode. With predictive
    /// pre-warming enabled this is also the drain tick: standing
    /// quiescence evictions are applied first, so a draining system
    /// converges back to zero warm trees.
    pub fn dispatch(&self) -> usize {
        self.core.apply_standing_evictions();
        let mut state = self.core.state.lock();
        let admitted = self.core.dispatch_locked(&mut state);
        drop(state);
        let n = admitted.len();
        self.core.spawn(admitted);
        n
    }

    /// Stops intake: subsequent `enqueue` calls fail with
    /// [`FsdError::ShuttingDown`]. Requests already *admitted* still run;
    /// requests still **queued** are cancelled — their tickets resolve
    /// promptly with [`FsdError::ShuttingDown`] instead of hanging (they
    /// never held a slot, so their harvest releases nothing).
    pub fn shutdown(&self) {
        let cancelled: Vec<Arc<TicketShared>> = {
            let mut state = self.core.state.lock();
            state.shutting_down = true;
            let mut cancelled = Vec::new();
            for queue in &mut state.queues {
                cancelled.extend(queue.drain(..).map(|p| p.ticket));
            }
            state.counters.cancelled += cancelled.len() as u64;
            cancelled
        };
        for ticket in cancelled {
            let mut cell = ticket.cell.lock();
            cell.result = Some(Err(FsdError::ShuttingDown));
            drop(cell);
            ticket.done.notify_all();
        }
        self.core.idle.notify_all();
    }

    /// Blocks until no request is queued or in flight. Call
    /// [`Scheduler::shutdown`] first for a terminal drain; without it the
    /// scheduler simply waits for a momentarily empty system. In manual
    /// mode another thread must keep dispatching and harvesting.
    pub fn drain(&self) {
        let mut state = self.core.state.lock();
        while state.inflight_global > 0 || state.queues.iter().any(|q| !q.is_empty()) {
            self.core
                .idle
                .wait_for(&mut state, Duration::from_millis(50));
        }
    }

    /// Currently queued (accepted, not admitted) requests.
    pub fn queued(&self) -> usize {
        self.core
            .state
            .lock()
            .queues
            .iter()
            .map(VecDeque::len)
            .sum()
    }

    /// Requests currently holding a concurrency slot.
    pub fn inflight(&self) -> usize {
        self.core.state.lock().inflight_global
    }

    /// The admission order (seq numbers) recorded so far. Empty unless
    /// `record_admissions` is set.
    pub fn admission_log(&self) -> Vec<u64> {
        self.core.state.lock().admission_log.clone()
    }

    /// The admission *groups* recorded so far: one inner vec of seq
    /// numbers per admitted execution pass, so coalitions keep their
    /// members together (singletons without batching). Flattening this in
    /// order yields [`Scheduler::admission_log`]. Empty unless
    /// `record_admissions` is set.
    pub fn admission_groups(&self) -> Vec<Vec<u64>> {
        self.core.state.lock().admission_groups.clone()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> SchedStatsSnapshot {
        let state = self.core.state.lock();
        SchedStatsSnapshot {
            enqueued: state.counters.enqueued,
            admitted: state.counters.admitted,
            rejected: state.counters.rejected,
            completed: state.counters.completed,
            failed: state.counters.failed,
            failed_by: state.counters.failed_by,
            retried: state.counters.retried,
            warm_hits: state.counters.warm_hits,
            cold_starts: state.counters.cold_starts,
            prewarmed: state.counters.prewarmed,
            predictor_evicted: state.counters.predictor_evicted,
            cancelled: state.counters.cancelled,
            coalitions: state.counters.coalitions,
            coalesced: state.counters.coalesced,
            queued: state.queues.iter().map(VecDeque::len).sum(),
            inflight: state.inflight_global,
            max_inflight: state.max_inflight_global,
            max_inflight_per_model: state.max_inflight_model.clone(),
            ewma_latency: VirtualTime::from_micros(state.blended_latency_us().round() as u64),
            ewma_cold_latency: VirtualTime::from_micros(state.ewma_latency_us[0].round() as u64),
            ewma_warm_latency: VirtualTime::from_micros(state.ewma_latency_us[1].round() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_core::ServiceBuilder;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use fsd_sparse::SparseRows;

    fn service(seed: u64) -> (Arc<FsdService>, SparseRows, SparseRows) {
        let spec = DnnSpec {
            neurons: 64,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, seed));
        let expected = dnn.serial_inference(&inputs);
        (
            Arc::new(
                ServiceBuilder::new(dnn)
                    .deterministic(seed)
                    .prewarm(1)
                    .prewarm(2)
                    .build(),
            ),
            inputs,
            expected,
        )
    }

    fn request(inputs: &SparseRows, variant: Variant, workers: u32) -> BatchedRequest {
        BatchedRequest {
            variant,
            workers,
            memory_mb: 1769,
            batches: vec![inputs.clone()],
        }
    }

    #[test]
    fn wrap_serves_a_request_end_to_end() {
        let (svc, inputs, expected) = service(1);
        let sched = Scheduler::wrap(svc, SchedulerConfig::default());
        let ticket = sched
            .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
            .expect("accepted");
        let report = ticket.wait().expect("runs");
        assert_eq!(report.first_output(), &expected);
        let stats = sched.stats();
        assert_eq!(stats.enqueued, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.total_admitted(), 1);
        assert_eq!(stats.inflight, 0);
    }

    #[test]
    fn unknown_model_is_rejected() {
        let (svc, inputs, _) = service(2);
        let sched = Scheduler::wrap(svc, SchedulerConfig::default());
        let err = sched
            .enqueue(
                "ghost",
                Priority::Batch,
                request(&inputs, Variant::Serial, 1),
            )
            .unwrap_err();
        assert_eq!(
            err,
            FsdError::UnknownModel {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let (svc, inputs, _) = service(3);
        // Manual dispatch with nothing dispatched: the queue fills.
        let sched = Scheduler::wrap(svc, SchedulerConfig::default().manual().queue_capacity(2));
        let t1 = sched
            .enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1))
            .expect("fits");
        let t2 = sched
            .enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1))
            .expect("fits");
        match sched.enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1)) {
            Err(FsdError::Overloaded { retry_after }) => {
                assert!(retry_after > VirtualTime::ZERO, "hint must be positive");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // The other class's bounded queue is independent.
        let t3 = sched
            .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
            .expect("other class fits");
        assert_eq!(sched.stats().total_rejected(), 1);
        sched.dispatch();
        for t in [t1, t2, t3] {
            t.wait().expect("runs");
        }
    }

    #[test]
    fn shutdown_rejects_new_and_cancels_queued_tickets() {
        let (svc, inputs, expected) = service(4);
        let sched = Scheduler::wrap(svc, SchedulerConfig::default().global_cap(1));
        let tickets: Vec<Ticket> = (0..3)
            .map(|_| {
                sched
                    .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
                    .expect("accepted")
            })
            .collect();
        sched.shutdown();
        assert_eq!(
            sched
                .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
                .unwrap_err(),
            FsdError::ShuttingDown
        );
        // Whatever admission raced ahead of the shutdown still runs to
        // completion; everything still queued resolves ShuttingDown
        // promptly instead of hanging its ticket holder.
        let mut completed = 0u64;
        let mut cancelled = 0u64;
        for t in tickets {
            match t.wait() {
                Ok(report) => {
                    assert_eq!(report.first_output(), &expected);
                    completed += 1;
                }
                Err(FsdError::ShuttingDown) => cancelled += 1,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(completed + cancelled, 3);
        assert!(completed >= 1, "the admitted head must still run");
        sched.drain();
        let stats = sched.stats();
        assert_eq!(stats.completed, completed);
        assert_eq!(stats.cancelled, cancelled);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.inflight, 0);
    }

    #[test]
    fn global_cap_is_never_exceeded() {
        let (svc, inputs, _) = service(5);
        let sched = Scheduler::wrap(svc, SchedulerConfig::default().global_cap(2));
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                let class = if i % 2 == 0 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                sched
                    .enqueue_default(class, request(&inputs, Variant::Serial, 1))
                    .expect("accepted")
            })
            .collect();
        for t in tickets {
            t.wait().expect("runs");
        }
        let stats = sched.stats();
        assert!(
            stats.max_inflight <= 2,
            "cap 2 exceeded: {}",
            stats.max_inflight
        );
        assert_eq!(stats.completed, 6);
    }

    #[test]
    fn per_model_cap_constrains_only_that_model() {
        let (svc_a, inputs_a, _) = service(6);
        let (svc_b, inputs_b, _) = service(7);
        let sched = SchedulerBuilder::new(SchedulerConfig::default().global_cap(4))
            .model_with_cap("a", svc_a, 1)
            .model_with_cap("b", svc_b, 4)
            .build();
        let mut tickets = Vec::new();
        for _ in 0..3 {
            tickets.push(
                sched
                    .enqueue(
                        "a",
                        Priority::Interactive,
                        request(&inputs_a, Variant::Serial, 1),
                    )
                    .expect("accepted"),
            );
            tickets.push(
                sched
                    .enqueue(
                        "b",
                        Priority::Interactive,
                        request(&inputs_b, Variant::Serial, 1),
                    )
                    .expect("accepted"),
            );
        }
        for t in tickets {
            t.wait().expect("runs");
        }
        let stats = sched.stats();
        assert_eq!(stats.max_inflight_per_model.len(), 2);
        assert!(stats.max_inflight_per_model[0] <= 1, "model a cap violated");
        assert!(stats.max_inflight <= 4);
        assert_eq!(stats.completed, 6);
    }

    #[test]
    fn derived_cap_for_tiny_models_is_compute_bound() {
        let (svc, ..) = service(8);
        // A model the recommender routes to Serial uses no channel: cap is
        // the derived maximum and the global cap governs.
        assert_eq!(derive_model_cap(&svc, 3), MAX_DERIVED_CAP);
        let sched = Scheduler::wrap(svc, SchedulerConfig::default());
        assert_eq!(sched.model_cap(DEFAULT_MODEL), Some(MAX_DERIVED_CAP));
        assert_eq!(sched.model_names(), vec![DEFAULT_MODEL]);
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
                .deterministic(41)
                .serial_memory_mb(1)
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
        let cap = derive_model_cap(&svc, 3);
        assert!((1..=MAX_DERIVED_CAP).contains(&cap));
        for (k, expected_side) in [
            (row_nnz_for(hi / 2), Variant::Queue),
            (row_nnz_for(2 * hi), Variant::Hybrid),
        ] {
            let inputs = inputs_with(k);
            let est = fsd_sparse::codec::encoded_size(&inputs) / inputs.n_rows().max(1);
            let req = BatchedRequest {
                variant: Variant::Auto,
                workers: 3,
                memory_mb: 1769,
                batches: vec![inputs],
            };
            let planned = svc.resolve_variant(&req);
            assert_eq!(planned, expected_side, "est {est} landed off-band");
            assert_eq!(
                planned,
                svc.resolve(Variant::Auto, 3, est),
                "plan diverged from the shared resolver"
            );
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

    #[test]
    fn admission_path_routes_through_the_warm_pool() {
        let spec = fsd_model::DnnSpec {
            neurons: 64,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 31,
        };
        let dnn = Arc::new(fsd_model::generate_dnn(&spec));
        let inputs = fsd_model::generate_inputs(spec.neurons, &InputSpec::scaled(8, 31));
        let svc = Arc::new(
            ServiceBuilder::new(dnn)
                .deterministic(31)
                .warm_pool(2, u64::MAX)
                .build(),
        );
        // Serialize execution so the second request finds the first's tree.
        let sched = Scheduler::wrap(svc.clone(), SchedulerConfig::default().global_cap(1));
        let req = request(&inputs, Variant::Queue, 2);
        let a = sched
            .enqueue_default(Priority::Interactive, req.clone())
            .expect("accepted")
            .wait()
            .expect("cold run");
        let b = sched
            .enqueue_default(Priority::Interactive, req)
            .expect("accepted")
            .wait()
            .expect("warm run");
        assert_eq!(a.launch, fsd_core::LaunchPath::ColdStart);
        assert_eq!(b.launch, fsd_core::LaunchPath::WarmHit);
        assert_eq!(a.outputs, b.outputs, "paths agree on outputs");
        let stats = sched.stats();
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.cold_starts, 1);
        let pool = svc.warm_pool_stats().expect("pool enabled");
        assert_eq!((pool.hits, pool.misses), (1, 1));
    }

    #[test]
    fn weighted_fifo_interleaves_classes_deterministically() {
        let (svc, inputs, _) = service(9);
        let sched = Scheduler::wrap(
            svc,
            SchedulerConfig::default()
                .manual()
                .global_cap(1)
                .weights(2, 1)
                .queue_capacity(32),
        );
        // Backlog both classes fully before any admission.
        let mut tickets = HashMap::new();
        for class in [Priority::Interactive, Priority::Batch] {
            for _ in 0..6 {
                let t = sched
                    .enqueue_default(class, request(&inputs, Variant::Serial, 1))
                    .expect("accepted");
                tickets.insert(t.seq(), t);
            }
        }
        // Drive to completion: dispatch, harvest in admission order.
        let mut harvested = 0;
        while harvested < 12 {
            sched.dispatch();
            let log = sched.admission_log();
            if harvested < log.len() {
                let seq = log[harvested];
                harvested += 1;
                tickets.remove(&seq).expect("ticket").wait().expect("runs");
            }
        }
        // Interactive seqs are 1..=6, Batch 7..=12. With weights 2:1 the
        // smooth-WRR admission pattern is I B I · I B I · I B (2:1 in
        // every window of 3), then the Batch tail — exact and reproducible
        // because every decision happened on this thread.
        let log = sched.admission_log();
        assert_eq!(log, vec![1, 7, 2, 3, 8, 4, 5, 9, 6, 10, 11, 12]);
        assert_eq!(sched.stats().max_inflight, 1);
    }

    #[test]
    fn interactive_preempts_batch_coalition_and_followers_coalesce() {
        let spec = DnnSpec {
            neurons: 64,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 11,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 11));
        let expected = dnn.serial_inference(&inputs);
        let svc = Arc::new(ServiceBuilder::new(dnn).deterministic(11).build());
        let sched = Scheduler::wrap(
            svc,
            SchedulerConfig::default()
                .manual()
                .global_cap(1)
                .weights(1, 3)
                .batched(BatchingConfig::default()),
        );
        // Three compatible Batch requests (seqs 1..=3), then one
        // Interactive (seq 4). Batch wins the first SWRR round (weight 3),
        // but its head must run ALONE while Interactive waits.
        let mut tickets = HashMap::new();
        for _ in 0..3 {
            let t = sched
                .enqueue_default(Priority::Batch, request(&inputs, Variant::Queue, 2))
                .expect("accepted");
            tickets.insert(t.seq(), t);
        }
        let t = sched
            .enqueue_default(Priority::Interactive, request(&inputs, Variant::Queue, 2))
            .expect("accepted");
        tickets.insert(t.seq(), t);

        let mut harvested = 0;
        while harvested < 4 {
            sched.dispatch();
            let log = sched.admission_log();
            while harvested < log.len() {
                let seq = log[harvested];
                harvested += 1;
                let report = tickets.remove(&seq).expect("ticket").wait().expect("runs");
                assert_eq!(report.first_output(), &expected);
            }
        }
        // Group 1: the Batch head, solo (Interactive was waiting — the
        // fairness rule forbids widening the coalition ahead of it).
        // Group 2: the Interactive request. Group 3: the remaining Batch
        // pair coalesces once no Interactive traffic waits.
        assert_eq!(sched.admission_groups(), vec![vec![1], vec![4], vec![2, 3]]);
        let stats = sched.stats();
        assert_eq!(stats.coalitions, 1);
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.max_inflight, 1, "a coalition holds one slot");
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn retry_hint_tightens_after_warm_hits() {
        let spec = DnnSpec {
            neurons: 64,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 12,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 12));
        let svc = Arc::new(
            ServiceBuilder::new(dnn)
                .deterministic(12)
                .warm_pool(1, u64::MAX)
                .build(),
        );
        let sched = Scheduler::wrap(
            svc,
            SchedulerConfig::default()
                .manual()
                .global_cap(1)
                .queue_capacity(1),
        );
        let run_one = || {
            let t = sched
                .enqueue_default(Priority::Batch, request(&inputs, Variant::Queue, 2))
                .expect("accepted");
            sched.dispatch();
            t.wait().expect("runs")
        };
        let overload_hint = || {
            let parked = sched
                .enqueue_default(Priority::Batch, request(&inputs, Variant::Queue, 2))
                .expect("fills the queue");
            let hint =
                match sched.enqueue_default(Priority::Batch, request(&inputs, Variant::Queue, 2)) {
                    Err(FsdError::Overloaded { retry_after }) => retry_after,
                    other => panic!("expected Overloaded, got {other:?}"),
                };
            sched.dispatch();
            (hint, parked.wait().expect("parked request runs"))
        };
        assert_eq!(run_one().launch, LaunchPath::ColdStart);
        // Hint read while only the cold EWMA is seeded...
        let (hint_cold, first_warm) = overload_hint();
        assert_eq!(first_warm.launch, LaunchPath::WarmHit);
        // ...then a few warm hits weight the blended estimate toward the
        // cheaper warm path...
        for _ in 0..3 {
            assert_eq!(run_one().launch, LaunchPath::WarmHit);
        }
        // ...so the *same* backlog state must now hint a shorter retry.
        let (hint_warm, another_warm) = overload_hint();
        assert_eq!(another_warm.launch, LaunchPath::WarmHit);
        assert!(
            hint_warm < hint_cold,
            "hint must tighten after warm hits: {hint_warm:?} !< {hint_cold:?}"
        );
        let stats = sched.stats();
        assert!(stats.ewma_warm_latency < stats.ewma_cold_latency);
        assert!(stats.ewma_warm_latency > VirtualTime::ZERO);
        assert_eq!(stats.cold_starts, 1);
        assert_eq!(stats.warm_hits, 5);
    }

    #[test]
    fn retry_budget_recovers_an_injected_instance_crash() {
        let spec = DnnSpec {
            neurons: 64,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 14,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 14));
        let expected = dnn.serial_inference(&inputs);
        let svc = Arc::new(
            ServiceBuilder::new(dnn)
                .deterministic(14)
                .warm_pool(2, u64::MAX)
                .build(),
        );
        let sched = Scheduler::wrap(svc.clone(), SchedulerConfig::default().global_cap(1));
        let req = request(&inputs, Variant::Queue, 2);
        // Park a tree, then arm a kill on one of its workers through the
        // unified fault surface: the next routed request loses the
        // instance mid-request (FailureCause::InstanceCrash).
        sched
            .enqueue_default(Priority::Interactive, req.clone())
            .expect("accepted")
            .wait()
            .expect("cold run parks a tree");
        assert!(svc.inject_fault(FsdService::warm_worker_fault(Variant::Queue, 2, 1769, 1)));
        // Without a budget the crash surfaces; with one, the scheduler
        // re-admits at the class head and the rerun cold-starts cleanly.
        let report = sched
            .enqueue_with_retries(DEFAULT_MODEL, Priority::Interactive, req, 2)
            .expect("accepted")
            .wait()
            .expect("retry must recover the injected crash");
        assert_eq!(report.first_output(), &expected);
        assert_eq!(report.launch, LaunchPath::ColdStart, "rerun relaunches");
        let stats = sched.stats();
        assert_eq!(stats.enqueued, 2, "a retry is not a new enqueue");
        assert_eq!(stats.retried, 1);
        assert_eq!(stats.failed, 0, "recovered attempts are not failures");
        assert_eq!(stats.failed_by, [0; FailureCause::COUNT]);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.inflight, 0, "retry must not leak a slot");
    }

    #[test]
    fn failure_causes_classify_and_gate_retry() {
        let crash = FsdError::Comm(fsd_faas::CommFailure {
            op: "instance",
            resource: "fsd-worker-1".into(),
            detail: "keep-alive instance terminated".into(),
        });
        assert_eq!(FailureCause::of(&crash), FailureCause::InstanceCrash);
        let comm = FsdError::Comm(fsd_faas::CommFailure {
            op: "publish",
            resource: "fsd-f1-q0".into(),
            detail: "unavailable".into(),
        });
        assert_eq!(FailureCause::of(&comm), FailureCause::Comm);
        let timeout = FsdError::Timeout {
            elapsed: VirtualTime::from_micros(2),
            limit: VirtualTime::from_micros(1),
        };
        assert_eq!(FailureCause::of(&timeout), FailureCause::Timeout);
        assert_eq!(
            FailureCause::of(&FsdError::EmptyRequest),
            FailureCause::Other
        );
        assert!(FailureCause::Comm.is_retryable());
        assert!(FailureCause::InstanceCrash.is_retryable());
        assert!(
            !FailureCause::Timeout.is_retryable(),
            "reruns recompute the same overrun"
        );
        assert!(!FailureCause::Other.is_retryable());
    }

    #[test]
    fn retry_hint_jitter_is_banded_and_seeded() {
        let hints_for = |seed: u64| -> Vec<u64> {
            let (svc, inputs, _) = service(seed);
            let sched = Scheduler::wrap(svc, SchedulerConfig::default().manual().queue_capacity(1));
            let parked = sched
                .enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1))
                .expect("fills the queue");
            let hints: Vec<u64> = (0..6)
                .map(|_| {
                    match sched
                        .enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1))
                    {
                        Err(FsdError::Overloaded { retry_after }) => retry_after.as_micros(),
                        other => panic!("expected Overloaded, got {other:?}"),
                    }
                })
                .collect();
            sched.dispatch();
            parked.wait().expect("parked request runs");
            hints
        };
        // Before any completion the blended EWMA is unseeded, so the base
        // is DEFAULT_LATENCY_US × 1 wave: every hint must land inside the
        // ±RETRY_HINT_JITTER band around it...
        let hints = hints_for(15);
        let base = DEFAULT_LATENCY_US;
        for &h in &hints {
            let lo = (base * (1.0 - RETRY_HINT_JITTER)).floor() as u64;
            let hi = (base * (1.0 + RETRY_HINT_JITTER)).ceil() as u64;
            assert!((lo..=hi).contains(&h), "hint {h} outside [{lo}, {hi}]");
        }
        // ...vary across successive rejections (herd decorrelation)...
        assert!(
            hints.windows(2).any(|w| w[0] != w[1]),
            "jitter must vary between rejections: {hints:?}"
        );
        // ...and replay bit-identically under the same region seed.
        assert_eq!(hints, hints_for(15), "jitter must be seed-deterministic");
    }
}
