//! The admission-controlled scheduler: intake, tickets, the predictor glue
//! and the executor threads around the admission engine (`admission.rs`,
//! which documents the caps, the class order and coalescing).
//!
//! All intake goes through [`Scheduler::enqueue`], which passes a request
//! through its service's door ([`FsdService::tree_of`]) once, before the
//! state lock: the door refuses it with a typed error, or fixes the tree
//! it runs on, which it queues with (a full class queue rejects it with
//! [`FsdError::Overloaded`]). No breaker is consulted at intake. Each
//! admitted pass runs on its own executor thread, which folds the results
//! back into the engine before delivering them. Who pumps admission:
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

use crate::admission::{Member, Pass, SchedState};
use crate::config::{
    derive_model_cap, BatchingConfig, Priority, SchedStatsSnapshot, SchedulerConfig,
};
use crate::predictor::{Predictor, PrewarmDecision};
use fsd_comm::VirtualTime;
use fsd_core::{BatchedRequest, FsdError, FsdService, InferenceReport};
use fsd_faas::FaasError;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// How an executor runs an admitted pass: one result per member.
type PassFn = fn(&FsdService, &[BatchedRequest]) -> Vec<Result<InferenceReport, FsdError>>;

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
        self.spawn(admitted, FsdService::submit_coalesced);
        seqs
    }

    /// Spawns one executor thread per admitted pass, which runs it through
    /// `run` — [`FsdService::submit_coalesced`]: one forward pass, one
    /// report per member (a singleton is a one-member pass). A panicking
    /// pass is a bug, contained here: each of its members fails with
    /// [`FsdError::Panic`] (not retried), and the pass still completes, so
    /// its slot is released and its tickets resolve.
    fn spawn(self: &Arc<Self>, admitted: Vec<Pass<Arc<TicketShared>>>, run: PassFn) {
        for pass in admitted {
            let core = self.clone();
            let service = self.models[pass.members[0].model].service.clone();
            std::thread::spawn(move || {
                let ran = panic::catch_unwind(AssertUnwindSafe(|| run(&service, &pass.reqs)));
                let results = ran.unwrap_or_else(|payload| {
                    let failure = FsdError::from(FaasError::panic("fsd-sched-executor", &*payload));
                    pass.reqs.iter().map(|_| Err(failure.clone())).collect()
                });
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
                core.spawn(follow_up, run);

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
    models: Vec<(String, Arc<FsdService>)>,
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
        self.models.push((name.into(), service));
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
        for (name, service) in self.models {
            caps.push(derive_model_cap(&service));
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

    /// Accepts a request into `model`'s intake, or refuses it with
    /// [`FsdError::UnknownModel`] (no such registration), the door's
    /// typed refusal ([`FsdService::tree_of`]), [`FsdError::ShuttingDown`]
    /// (drain in progress) or [`FsdError::Overloaded`] (class queue full).
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
    fn enqueue_full(
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
        // The door, before the lock: a refused request is never queued,
        // counted or billed, and an accepted one carries the shape it
        // coalesces and is predicted by.
        let shape = self.core.models[model_idx].service.tree_of(&req)?;
        let shared = Arc::new(TicketShared::default());
        let member = Member {
            ticket: shared.clone(),
            seq: 0,
            priority,
            model: model_idx,
            arrival,
            shape,
            retries_left: max_retries,
        };
        let seq = self.core.state.lock().enqueue(member, req)?;
        // Feed the predictor *accepted* arrivals only (a flood of rejections
        // must not inflate pre-warm targets), on the enqueueing thread — in
        // manual mode the driver, so pool mutations stay totally ordered —
        // and pre-warm *before* admission, so trees predicted for this
        // arrival's burst are parked by the time its requests are admitted.
        // The predictor stays locked while its decisions apply.
        if let Some(predictor) = &self.core.predictors[model_idx] {
            let mut predictor = predictor.lock();
            let decisions = predictor.observe(Some(shape));
            self.core.apply_decisions(model_idx, &decisions, true);
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

    /// The quiescence check: one line per violated invariant, empty when
    /// clean. Call it once every ticket is harvested and the scheduler is
    /// drained. It checks the admission engine — no pass holds a slot,
    /// nothing is queued, `enqueued == completed + failed + cancelled` and
    /// `Σ admitted == completed + failed + retried` — and then every
    /// registered model's [`FsdService::audit`], each line prefixed with
    /// the model's name.
    pub fn audit(&self) -> Vec<String> {
        let mut found = self.core.state.lock().audit();
        for model in &self.core.models {
            let lines = model.service.audit().into_iter();
            found.extend(lines.map(|line| format!("{}: {line}", model.name)));
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureCause;
    use fsd_core::{ServiceBuilder, Variant};
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use std::time::Duration;

    /// The pass an executor runs in place of `submit_coalesced`: a bug.
    fn planted(_: &FsdService, _: &[BatchedRequest]) -> Vec<Result<InferenceReport, FsdError>> {
        panic!("planted pass panic")
    }

    #[test]
    fn a_panicking_pass_fails_its_members_and_frees_its_slot() {
        let spec = DnnSpec {
            neurons: 32,
            layers: 2,
            nnz_per_row: 4,
            bias: -0.25,
            clip: 32.0,
            seed: 5,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(4, 5));
        let service = Arc::new(ServiceBuilder::new(dnn).deterministic(5).build());
        let cfg = SchedulerConfig::default()
            .manual()
            .batched(BatchingConfig::default());
        let sched = Scheduler::wrap(service, cfg);
        let req = BatchedRequest {
            variant: Variant::Queue,
            workers: 2,
            memory_mb: 1769,
            batches: vec![inputs],
        };
        // Two members of one coalition, each with a retry budget the panic
        // must not spend.
        let tickets: Vec<Ticket> = (0..2)
            .map(|_| {
                sched
                    .enqueue_with_retries(DEFAULT_MODEL, Priority::Batch, req.clone(), 3)
                    .expect("accepted")
            })
            .collect();
        let admitted = sched.core.state.lock().dispatch();
        assert_eq!(admitted.len(), 1, "one coalition");
        sched.core.spawn(admitted, planted);
        let (done, results) = std::sync::mpsc::channel();
        for ticket in tickets {
            let done = done.clone();
            std::thread::spawn(move || {
                let _ = done.send(ticket.wait());
            });
        }
        for _ in 0..2 {
            let result = results
                .recv_timeout(Duration::from_secs(10))
                .expect("the ticket resolves");
            match result {
                Err(FsdError::Panic { instance, detail }) => {
                    assert_eq!(instance, "fsd-sched-executor");
                    assert!(detail.contains("planted pass panic"), "{detail}");
                }
                other => panic!("expected the pass's panic, got {other:?}"),
            }
        }
        let stats = sched.stats();
        assert_eq!((stats.failed, stats.retried), (2, 0));
        assert_eq!(stats.failed_by[FailureCause::Other.index()], 2);
        assert_eq!(sched.inflight(), 0);
        assert_eq!(sched.audit(), Vec::<String>::new());
    }
}
