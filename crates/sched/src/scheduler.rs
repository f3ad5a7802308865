//! The admission-controlled scheduler: intake, tickets, the predictor glue
//! and the executor threads around the admission engine
//! (`admission.rs`).
//!
//! All intake goes through [`Scheduler::enqueue`], which either accepts a
//! request into a **bounded** per-class queue (returning a [`Ticket`]) or
//! rejects it with [`FsdError::Overloaded`]. Admission moves requests from
//! the queues into execution under two caps — global in-flight and
//! per-model in-flight — choosing between backlogged priority classes by
//! smooth weighted round-robin (strict FIFO within a class, head-of-line
//! per class so the admission order is a pure function of the enqueue
//! sequence). Each admitted pass runs on its own executor thread, which
//! folds the results back into the engine before delivering them. The two
//! modes differ only in who pumps admission:
//!
//! * **manual** (deterministic harnesses): the driver calls
//!   [`Scheduler::dispatch`], and [`Ticket::wait`] releases the ticket's
//!   share when it harvests the result. Enqueue, pre-warms, admission and
//!   harvest releases happen on the driver thread, so one driver
//!   reproduces the admission sequence bit for bit. Executor threads
//!   still bump the completion counters and latency EWMAs — in real
//!   finishing order, which is why the replay harness zeroes the EWMAs —
//!   and release and re-queue a retried member, before that pass's
//!   tickets are delivered.
//! * **auto** (production): `enqueue` pumps; when a pass finishes, its
//!   executor releases the delivered tickets' shares on their behalf and
//!   then pumps.

use crate::admission::{Pass, SchedState};
use crate::config::{
    derive_model_cap, BatchingConfig, Priority, SchedStatsSnapshot, SchedulerConfig,
};
use crate::predictor::{Predictor, PrewarmDecision};
use fsd_comm::VirtualTime;
use fsd_core::{BatchedRequest, FsdError, FsdService, InferenceReport, TreeKey};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

/// A registered model.
struct ModelEntry {
    name: String,
    service: Arc<FsdService>,
}

/// Where a ticket's result is handed over.
#[derive(Default)]
struct TicketShared {
    /// Set once, by the executor or by shutdown; taken by the holder. Boxed
    /// so the thousands of tickets a replay backlog holds do not each
    /// reserve a whole result while they wait.
    result: Mutex<Option<Box<Result<InferenceReport, FsdError>>>>,
    done: Condvar,
}

impl TicketShared {
    /// Sets the result and wakes the ticket holder.
    fn resolve(&self, result: Result<InferenceReport, FsdError>) {
        *self.result.lock() = Some(Box::new(result));
        self.done.notify_all();
    }
}

/// Handle to an accepted request; [`Ticket::wait`] blocks for the result.
///
/// In manual-dispatch mode the harvest here releases the request's share
/// of its concurrency slot, so a driver that never waits its tickets would
/// pin slots forever — harnesses must harvest every ticket. In auto mode
/// the executor has already released it on the ticket's behalf.
pub struct Ticket {
    seq: u64,
    shared: Arc<TicketShared>,
    core: Arc<SchedulerCore>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").field("seq", &self.seq).finish()
    }
}

impl Ticket {
    /// The request's admission sequence number (global, monotonically
    /// increasing in enqueue-acceptance order).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the request finishes and returns its result. Queued
    /// tickets cancelled by [`Scheduler::shutdown`] resolve promptly with
    /// [`FsdError::ShuttingDown`](fsd_core::FsdError::ShuttingDown)
    /// instead of hanging.
    pub fn wait(self) -> Result<InferenceReport, FsdError> {
        let result = {
            let mut result = self.shared.result.lock();
            loop {
                if let Some(r) = result.take() {
                    break *r;
                }
                self.shared.done.wait(&mut result);
            }
        };
        // Release the harvested share, waking `drain` if that freed the
        // slot. A no-op in auto mode, where the executor released it on
        // the ticket's behalf, and for tickets cancelled while queued.
        if self.core.state.lock().release(self.seq) {
            self.core.idle.notify_all();
        }
        result
    }
}

struct SchedulerCore {
    /// The clamped configuration (the engine holds a copy of its own).
    cfg: SchedulerConfig,
    models: Vec<ModelEntry>,
    by_name: HashMap<String, usize>,
    /// Per-model arrival-history miners (`Some` iff `cfg.predictor`). A
    /// model's predictor lock is held while its decisions apply, so
    /// concurrent enqueues never read the same pre-launch
    /// `warm_live_trees` count and launch duplicate trees (a pre-warm in
    /// flight is not yet visible as live). Lock order: predictor → state,
    /// never the reverse — the launches must not run under `state`.
    predictors: Vec<Option<Mutex<Predictor>>>,
    state: Mutex<SchedState<Arc<TicketShared>>>,
    /// Signaled on completions, harvests and queue transitions (drain).
    idle: Condvar,
}

impl SchedulerCore {
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
        let mut predictor = predictor.lock();
        let decisions = predictor.observe(resolved);
        self.apply_decisions(model, &decisions, true);
    }

    /// Re-applies every predictive model's *standing* decisions, evictions
    /// only — the drain tick. Pre-warm top-ups are deliberately excluded:
    /// between arrivals, parked counts dip while requests hold trees, and
    /// topping those dips up would over-provision (and make pool contents
    /// depend on dispatch timing instead of the arrival history).
    fn apply_standing_evictions(&self) {
        for (model, predictor) in self.predictors.iter().enumerate() {
            let Some(predictor) = predictor else {
                continue;
            };
            let predictor = predictor.lock();
            self.apply_decisions(model, &predictor.decisions(), false);
        }
    }

    /// Applies a decision set against the model's warm pool: evictions
    /// always, pre-warms (up to target, counting what is already parked)
    /// only when `prewarm` is set. Idempotent — re-applying an already
    /// satisfied decision set is a no-op. Callers hold the model's
    /// predictor lock, so every top-up reads live counts that include the
    /// previous applier's launches.
    fn apply_decisions(&self, model: usize, decisions: &[PrewarmDecision], prewarm: bool) {
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
            state.stats.prewarmed += prewarmed;
            state.stats.predictor_evicted += evicted;
        }
    }

    /// One admission pass: admits what the caps allow, spawns it, and
    /// returns the admitted passes' seq numbers in admission order.
    fn pump(self: &Arc<Self>) -> Vec<Vec<u64>> {
        let admitted = self.state.lock().dispatch();
        let seqs = admitted
            .iter()
            .map(|pass| pass.members.iter().map(|m| m.seq).collect())
            .collect();
        self.spawn(admitted);
        seqs
    }

    /// Spawns one executor thread per admitted pass: a singleton runs
    /// [`FsdService::submit_batched`], a coalition runs
    /// [`FsdService::submit_coalesced`] — one tree pass, one report per
    /// member under its own flow id.
    fn spawn(self: &Arc<Self>, admitted: Vec<Pass<Arc<TicketShared>>>) {
        for pass in admitted {
            let core = self.clone();
            let service = self.models[pass.members[0].model].service.clone();
            std::thread::spawn(move || {
                let results = match pass.reqs.as_slice() {
                    [req] => vec![service.submit_batched(req)],
                    reqs => service.submit_coalesced(reqs),
                };
                // Completion bookkeeping first, then deliver the results:
                // a manual-mode harvester must observe consistent counters.
                let mut state = core.state.lock();
                let deliver = state.complete(pass, results);
                // Auto mode pumps here: the delivered tickets' shares were
                // released on their behalf, so the freed slot pulls in the
                // next request(s) — a failing pass must never wedge the
                // queue. Requeued retries sit at their class head and are
                // picked up by this same pass.
                let follow_up = if core.cfg.manual_dispatch {
                    Vec::new()
                } else {
                    state.dispatch()
                };
                drop(state);
                core.idle.notify_all();
                core.spawn(follow_up);

                for (ticket, result) in deliver {
                    ticket.resolve(result);
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
    /// recommendation ([`derive_model_cap`]).
    pub fn model(mut self, name: impl Into<String>, service: Arc<FsdService>) -> SchedulerBuilder {
        self.models.push((name.into(), service, None));
        self
    }

    /// Registers a model with an explicit concurrency cap.
    pub fn model_with_cap(
        mut self,
        name: impl Into<String>,
        service: Arc<FsdService>,
        cap: usize,
    ) -> SchedulerBuilder {
        self.models.push((name.into(), service, Some(cap.max(1))));
        self
    }

    /// Assembles the scheduler. Every count and weight of the
    /// configuration is clamped to ≥ 1 here, once — whether it came from a
    /// setter or a struct literal — since a zero cap or queue bound would
    /// admit nothing and a zero weight would starve its class.
    ///
    /// # Panics
    /// If no model was registered or a name repeats.
    pub fn build(self) -> Scheduler {
        assert!(
            !self.models.is_empty(),
            "scheduler needs at least one registered model"
        );
        let cfg = SchedulerConfig {
            global_cap: self.cfg.global_cap.max(1),
            queue_capacity: self.cfg.queue_capacity.max(1),
            weights: self.cfg.weights.map(|w| w.max(1)),
            batching: self.cfg.batching.map(|b| BatchingConfig {
                max_batch: b.max_batch.max(1),
                ..b
            }),
            ..self.cfg
        };
        let mut models = Vec::with_capacity(self.models.len());
        let mut caps = Vec::with_capacity(self.models.len());
        let mut by_name = HashMap::new();
        for (name, service, cap) in self.models {
            caps.push(cap.unwrap_or_else(|| derive_model_cap(&service)));
            let previous = by_name.insert(name.clone(), models.len());
            assert!(previous.is_none(), "model {name:?} registered twice");
            models.push(ModelEntry { name, service });
        }
        let predictors = models
            .iter()
            .map(|m| {
                cfg.predictor.map(|pc| {
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
        let hint_seed = models[0].service.env().config().seed;
        Scheduler {
            core: Arc::new(SchedulerCore {
                cfg,
                models,
                by_name,
                predictors,
                state: Mutex::new(SchedState::new(cfg, caps, hint_seed)),
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

    /// The per-model concurrency cap.
    pub fn model_cap(&self, model: &str) -> Option<usize> {
        let &i = self.core.by_name.get(model)?;
        Some(self.core.state.lock().caps[i])
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
    /// that fails with a *retryable* cause
    /// ([`FailureCause::is_retryable`](crate::FailureCause::is_retryable)
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
    /// ([`BatchingConfig::window`](crate::BatchingConfig::window)) is
    /// measured between. Harness replays stamp each trace arrival here, so
    /// which requests coalesce is a pure function of the trace, not of
    /// wall-clock enqueue timing.
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
        // Capture the arrival's shape before the request moves into the
        // queue: the per-row payload estimate is pure computation (no
        // staging), cheap even on the backpressure fast path; the
        // potentially expensive `Auto` resolution runs only after
        // acceptance and outside the scheduler lock. An empty request has
        // no estimate and so no shape: it fails with `EmptyRequest`,
        // advances the predictor's clock without claiming warm capacity,
        // and never coalesces.
        let need_shape =
            self.core.predictors[model_idx].is_some() || self.core.cfg.batching.is_some();
        let shape = need_shape.then(|| {
            let requested = TreeKey {
                variant: req.variant,
                workers: req.workers,
                memory_mb: req.memory_mb,
            };
            let est = req
                .batches
                .first()
                .map(|first| fsd_sparse::codec::encoded_size(first) / first.n_rows().max(1));
            (requested, est)
        });
        let shared = Arc::new(TicketShared::default());
        let seq = self.core.state.lock().enqueue(
            shared.clone(),
            priority,
            model_idx,
            arrival,
            max_retries,
            req,
        )?;
        // Resolve the shape — the tree the request will run on, through
        // the same `FsdService::tree_key` the execution path uses, so
        // predicted and coalescing shapes always match the trees requests
        // actually run on — only for *accepted* requests (resolution may
        // stage partitions, and rejected arrivals must never inflate
        // pre-warm targets), then feed the
        // predictor — pre-warm *before* admission, so trees predicted for
        // this arrival's burst are parked by the time the request (and its
        // burst peers) are admitted; in manual mode the same ordering
        // holds trivially, enqueues precede the driver's dispatch call —
        // and stamp the coalescing shape back onto the queued entry.
        if let Some((requested, est)) = shape {
            let service = &self.core.models[model_idx].service;
            let resolved = est.map(|est| service.tree_key(requested, est));
            self.core.drive_predictor(model_idx, resolved);
            if self.core.cfg.batching.is_some() {
                self.core.state.lock().set_shape(priority, seq, resolved);
            }
        }
        // Auto mode pumps on every enqueue.
        if !self.core.cfg.manual_dispatch {
            self.core.pump();
        }
        Ok(Ticket {
            seq,
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

    /// Runs one admission pass, spawning every execution pass the caps
    /// allow, and returns the admitted passes as seq numbers in admission
    /// order (one inner vec per pass; a coalition's members share one).
    /// The manual-dispatch driver's pump; harmless (and normally a no-op)
    /// in auto mode. With predictive pre-warming enabled this is also the
    /// drain tick: standing quiescence evictions are applied first, so a
    /// draining system converges back to zero warm trees.
    pub fn dispatch(&self) -> Vec<Vec<u64>> {
        self.core.apply_standing_evictions();
        self.core.pump()
    }

    /// Stops intake: subsequent `enqueue` calls fail with
    /// [`FsdError::ShuttingDown`]. Requests already *admitted* still run;
    /// requests still **queued** are cancelled — their tickets resolve
    /// promptly with [`FsdError::ShuttingDown`] instead of hanging (they
    /// never held a slot, so their harvest releases nothing).
    pub fn shutdown(&self) {
        let cancelled = self.core.state.lock().shut_down();
        for ticket in cancelled {
            ticket.resolve(Err(FsdError::ShuttingDown));
        }
        self.core.idle.notify_all();
    }

    /// Blocks until no request is queued or in flight. Call
    /// [`Scheduler::shutdown`] first for a terminal drain; without it the
    /// scheduler simply waits for a momentarily empty system. In manual
    /// mode another thread must keep dispatching and harvesting.
    pub fn drain(&self) {
        let mut state = self.core.state.lock();
        while state.inflight() > 0 || state.queued() > 0 {
            self.core.idle.wait(&mut state);
        }
    }

    /// Currently queued (accepted, not admitted) requests.
    pub fn queued(&self) -> usize {
        self.core.state.lock().queued()
    }

    /// Requests currently holding a concurrency slot.
    pub fn inflight(&self) -> usize {
        self.core.state.lock().inflight()
    }

    /// The admission order (seq numbers) so far. Recorded in manual mode
    /// only: empty in auto mode.
    pub fn admission_log(&self) -> Vec<u64> {
        self.core.state.lock().admission_log.clone()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> SchedStatsSnapshot {
        self.core.state.lock().snapshot()
    }
}
