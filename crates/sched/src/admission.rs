//! The admission engine: a pure state machine over the class queues.
//!
//! [`SchedState`] holds everything admission decides on — the bounded
//! class queues, the smooth weighted round-robin (SWRR) credit, the global
//! and per-model in-flight counts, coalescing, and the pass table that
//! frees a slot once per execution pass — plus the completion bookkeeping
//! that folds a finished pass back in (stats, latency EWMAs, retry
//! re-queue). It calls no service, spawns no thread and takes no lock: the
//! scheduler keeps it behind one mutex and runs the passes it admits, so
//! every decision here can be driven and checked one call at a time.
//!
//! Admission runs only in [`SchedState::dispatch`], and a slot is released
//! only by [`SchedState::release`], once per admitted member — a pass's
//! slot frees on its last member's release, so a coalition of `k` members
//! frees exactly one slot.

use crate::config::{Priority, SchedStatsSnapshot, SchedulerConfig};
use crate::retry::{self, FailureCause};
use fsd_comm::VirtualTime;
use fsd_core::{BatchedRequest, FsdError, InferenceReport, LaunchPath, TreeKey};
use std::collections::{HashMap, VecDeque};

/// EWMA smoothing factor for observed request latency.
const EWMA_ALPHA: f64 = 0.2;

/// A request's admission bookkeeping — everything the engine reads — and
/// the caller's handle `T` to resolve it by.
pub(crate) struct Member<T> {
    pub(crate) ticket: T,
    /// Assigned by [`SchedState::enqueue`].
    pub(crate) seq: u64,
    pub(crate) priority: Priority,
    pub(crate) model: usize,
    /// Stamped virtual arrival instant; the continuous-batching window is
    /// measured between these.
    pub(crate) arrival: VirtualTime,
    /// The tree it runs on while every breaker is closed
    /// (`FsdService::tree_of`): it may join a coalition of the same shape.
    pub(crate) shape: TreeKey,
    /// Remaining retry budget: a retryable failure with budget left
    /// re-enters its class queue at the head instead of resolving the
    /// ticket.
    pub(crate) retries_left: u32,
}

/// One accepted, not-yet-admitted request.
struct Pending<T> {
    member: Member<T>,
    req: BatchedRequest,
}

/// One admitted execution pass, holding one concurrency slot: its members
/// in admission order and, index-aligned, their requests — the slice a
/// coalition runs as one tree pass.
pub(crate) struct Pass<T> {
    pub(crate) members: Vec<Member<T>>,
    pub(crate) reqs: Vec<BatchedRequest>,
}

/// The admission state machine. `T` is the caller's per-request handle,
/// carried through untouched and handed back when the request resolves.
pub(crate) struct SchedState<T> {
    /// The clamped configuration: caps, weights, batching and the mode.
    cfg: SchedulerConfig,
    /// Per-model in-flight caps, in registration order.
    pub(crate) caps: Vec<usize>,
    /// The region seed `retry_after` hints draw their jitter from.
    hint_seed: u64,
    queues: [VecDeque<Pending<T>>; Priority::COUNT],
    /// Smooth-WRR credit per class; grows while a class is backlogged,
    /// drains when it wins an admission.
    credits: [i64; Priority::COUNT],
    inflight_model: Vec<usize>,
    /// Admitted passes still holding their slot — one per global slot in
    /// use: pass id → (model, members yet to release).
    passes: HashMap<u64, (usize, usize)>,
    /// Admitted member seq → the pass whose slot it shares.
    pass_of: HashMap<u64, u64>,
    next_pass: u64,
    shutting_down: bool,
    /// The counters and high-water marks; [`SchedState::snapshot`] fills in
    /// the live fields.
    pub(crate) stats: SchedStatsSnapshot,
    /// Seq numbers in admission order — recorded in manual mode only.
    pub(crate) admission_log: Vec<u64>,
    /// Smoothed observed latency of cold starts and of warm hits, regressed
    /// separately — a warm pool must tighten the `retry_after` hint, not be
    /// averaged away into the cold estimate.
    ewma_cold_us: f64,
    ewma_warm_us: f64,
}

impl<T> SchedState<T> {
    /// An empty engine over `caps.len()` models; `cfg` must already be
    /// clamped.
    pub(crate) fn new(cfg: SchedulerConfig, caps: Vec<usize>, hint_seed: u64) -> SchedState<T> {
        let models = caps.len();
        SchedState {
            cfg,
            caps,
            hint_seed,
            queues: Default::default(),
            credits: [0; Priority::COUNT],
            inflight_model: vec![0; models],
            passes: HashMap::new(),
            pass_of: HashMap::new(),
            next_pass: 0,
            shutting_down: false,
            stats: SchedStatsSnapshot {
                max_inflight_per_model: vec![0; models],
                ..SchedStatsSnapshot::default()
            },
            admission_log: Vec::new(),
            ewma_cold_us: 0.0,
            ewma_warm_us: 0.0,
        }
    }

    /// Queues `member`'s request at the back of its class and returns its
    /// sequence number, or refuses it: [`FsdError::ShuttingDown`] once shut
    /// down, [`FsdError::Overloaded`] with a `retry_after` hint when the
    /// class queue is full.
    pub(crate) fn enqueue(
        &mut self,
        mut member: Member<T>,
        req: BatchedRequest,
    ) -> Result<u64, FsdError> {
        if self.shutting_down {
            return Err(FsdError::ShuttingDown);
        }
        let class = member.priority.index();
        if self.queues[class].len() >= self.cfg.queue_capacity {
            self.stats.rejected[class] += 1;
            let retry_after = retry::retry_after(
                self.queued() + self.inflight() + 1,
                self.cfg.global_cap,
                self.blended_latency_us(),
                self.hint_seed,
                self.stats.total_rejected(),
            );
            return Err(FsdError::Overloaded { retry_after });
        }
        self.stats.enqueued += 1;
        let seq = self.stats.enqueued; // the n-th accepted request is seq n
        member.seq = seq;
        self.queues[class].push_back(Pending { member, req });
        Ok(seq)
    }

    /// Admits as many queued execution passes as the caps allow, in
    /// admission order. With continuous batching a pass may be a
    /// multi-member coalition — one concurrency slot, one tree pass —
    /// otherwise every pass is a singleton.
    pub(crate) fn dispatch(&mut self) -> Vec<Pass<T>> {
        let mut admitted = Vec::new();
        while self.inflight() < self.cfg.global_cap {
            // A class is backlogged if non-empty; eligible if additionally
            // its head's model has a free slot (head-of-line per class
            // keeps the admission order a pure function of enqueue order).
            let mut backlogged = [false; Priority::COUNT];
            let mut eligible = [false; Priority::COUNT];
            for (i, q) in self.queues.iter().enumerate() {
                if let Some(head) = q.front() {
                    let model = head.member.model;
                    backlogged[i] = true;
                    eligible[i] = self.inflight_model[model] < self.caps[model];
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
                    let w = self.cfg.weights[i] as i64;
                    self.credits[i] += w;
                    round_weight += w;
                }
            }
            let winner = (0..Priority::COUNT)
                .filter(|&i| eligible[i])
                .max_by_key(|&i| (self.credits[i], std::cmp::Reverse(i)))
                .expect("an eligible class exists");
            self.credits[winner] -= round_weight;
            let head = self.queues[winner].pop_front().expect("eligible head");
            let (model, shape) = (head.member.model, head.member.shape);
            let head_arrival = head.member.arrival.as_micros();
            let mut pass = Pass {
                members: vec![head.member],
                reqs: vec![head.req],
            };
            // Coalesce compatible followers behind the head: same model,
            // same shape, arrivals within the window — and never across
            // classes. Fairness rule: while Interactive traffic waits, a
            // Batch head is admitted *alone* (Interactive preempts the
            // window close; a fat Batch coalition must not widen ahead of
            // latency-sensitive work).
            let interactive_waiting = winner == Priority::Batch.index()
                && !self.queues[Priority::Interactive.index()].is_empty();
            if let (Some(batching), false) = (self.cfg.batching, interactive_waiting) {
                let window = batching.window.as_micros();
                let queue = &mut self.queues[winner];
                let mut i = 0;
                while i < queue.len() && pass.members.len() < batching.max_batch {
                    let m = &queue[i].member;
                    let joins = m.model == model
                        && m.shape == shape
                        && m.arrival.as_micros().abs_diff(head_arrival) <= window;
                    if joins {
                        let joined = queue.remove(i).expect("scanned index in bounds");
                        pass.members.push(joined.member);
                        pass.reqs.push(joined.req);
                    } else {
                        i += 1;
                    }
                }
            }
            // The whole pass holds ONE concurrency slot: its members run
            // as a single tree pass.
            let seqs: Vec<u64> = pass.members.iter().map(|m| m.seq).collect();
            self.occupy(model, &seqs);
            self.stats.admitted[winner] += seqs.len() as u64;
            if seqs.len() > 1 {
                self.stats.coalitions += 1;
                self.stats.coalesced += seqs.len() as u64;
            }
            if self.cfg.manual_dispatch {
                self.admission_log.extend_from_slice(&seqs);
            }
            admitted.push(pass);
        }
        admitted
    }

    /// Gives one admitted execution pass — `members`, all of `model` — a
    /// global and a model slot. Each member returns its share through
    /// [`SchedState::release`].
    fn occupy(&mut self, model: usize, members: &[u64]) {
        let pass = self.next_pass;
        self.next_pass += 1;
        self.passes.insert(pass, (model, members.len()));
        for &seq in members {
            self.pass_of.insert(seq, pass);
        }
        self.inflight_model[model] += 1;
        self.stats.max_inflight = self.stats.max_inflight.max(self.inflight());
        let peak = &mut self.stats.max_inflight_per_model[model];
        *peak = (*peak).max(self.inflight_model[model]);
    }

    /// Returns `seq`'s share of its pass's slot — the only place a slot is
    /// freed. The pass's last share frees its global and model slot and
    /// returns `true`; a seq with no share held (never admitted, or
    /// already released) frees nothing.
    pub(crate) fn release(&mut self, seq: u64) -> bool {
        let Some(pass) = self.pass_of.remove(&seq) else {
            return false;
        };
        let (model, left) = self
            .passes
            .get_mut(&pass)
            .expect("a pass holds its slot until its last member releases");
        *left -= 1;
        if *left > 0 {
            return false;
        }
        let model = *model;
        self.passes.remove(&pass);
        self.inflight_model[model] -= 1;
        true
    }

    /// Folds a finished pass back in and returns the members to resolve,
    /// with their results, in pass order. A success counts its launch path
    /// and feeds that path's latency EWMA; a retryable failure with budget
    /// left returns its share of the pass slot before re-entering its
    /// class queue at the *head* (it already waited its turn once) — not
    /// re-counted under `enqueued`, so admission is charged exactly once
    /// per logical request; any other failure is counted by cause. In auto
    /// mode each delivered member's share is released here, on its
    /// ticket's behalf.
    pub(crate) fn complete(
        &mut self,
        pass: Pass<T>,
        results: Vec<Result<InferenceReport, FsdError>>,
    ) -> Vec<(T, Result<InferenceReport, FsdError>)> {
        debug_assert_eq!(pass.members.len(), results.len());
        let mut deliver = Vec::with_capacity(results.len());
        for ((mut member, req), result) in pass.members.into_iter().zip(pass.reqs).zip(results) {
            let result = match result {
                Ok(report) => {
                    self.stats.completed += 1;
                    let (count, e) = match report.launch {
                        LaunchPath::WarmHit => (&mut self.stats.warm_hits, &mut self.ewma_warm_us),
                        LaunchPath::ColdStart => {
                            (&mut self.stats.cold_starts, &mut self.ewma_cold_us)
                        }
                    };
                    *count += 1;
                    let l = report.latency.as_micros() as f64;
                    *e = if *e == 0.0 {
                        l
                    } else {
                        (1.0 - EWMA_ALPHA) * *e + EWMA_ALPHA * l
                    };
                    Ok(report)
                }
                Err(e) => {
                    let cause = FailureCause::of(&e);
                    if member.retries_left > 0 && cause.is_retryable() && !self.shutting_down {
                        self.release(member.seq);
                        self.stats.retried += 1;
                        member.retries_left -= 1;
                        let class = member.priority.index();
                        self.queues[class].push_front(Pending { member, req });
                        continue;
                    }
                    self.stats.failed += 1;
                    self.stats.failed_by[cause.index()] += 1;
                    Err(e)
                }
            };
            if !self.cfg.manual_dispatch {
                self.release(member.seq);
            }
            deliver.push((member.ticket, result));
        }
        deliver
    }

    /// Stops intake and cancels everything still queued, returning the
    /// cancelled members' handles. They never held a slot, so their
    /// harvest releases nothing.
    pub(crate) fn shut_down(&mut self) -> Vec<T> {
        self.shutting_down = true;
        let cancelled: Vec<T> = self
            .queues
            .iter_mut()
            .flat_map(|q| q.drain(..))
            .map(|p| p.member.ticket)
            .collect();
        self.stats.cancelled += cancelled.len() as u64;
        cancelled
    }

    /// Accepted requests not yet admitted.
    pub(crate) fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Passes holding a concurrency slot.
    pub(crate) fn inflight(&self) -> usize {
        self.passes.len()
    }

    /// The engine's quiescence check: one line per violated invariant,
    /// empty when every admitted share was released once, nothing is
    /// queued and every accepted request was accounted for.
    pub(crate) fn audit(&self) -> Vec<String> {
        let mut found: Vec<String> = [
            (self.passes.len(), "pass(es) holding a slot"),
            (self.pass_of.len(), "member share(s) unreleased"),
            (self.inflight_model.iter().sum(), "model slot(s) held"),
            (self.queued(), "request(s) still queued"),
        ]
        .into_iter()
        .filter(|&(n, _)| n > 0)
        .map(|(n, what)| format!("{n} {what}"))
        .collect();
        let s = &self.stats;
        if s.enqueued != s.completed + s.failed + s.cancelled {
            found.push(format!(
                "enqueued {} != completed {} + failed {} + cancelled {}",
                s.enqueued, s.completed, s.failed, s.cancelled
            ));
        }
        let admitted: u64 = s.admitted.iter().sum();
        if admitted != s.completed + s.failed + s.retried {
            found.push(format!(
                "admitted {admitted} != completed {} + failed {} + retried {}",
                s.completed, s.failed, s.retried
            ));
        }
        found
    }

    /// The statistics, live fields included.
    pub(crate) fn snapshot(&self) -> SchedStatsSnapshot {
        let us = |v: f64| VirtualTime::from_micros(v.round() as u64);
        SchedStatsSnapshot {
            queued: self.queued(),
            inflight: self.inflight(),
            ewma_latency: us(self.blended_latency_us()),
            ewma_cold_latency: us(self.ewma_cold_us),
            ewma_warm_latency: us(self.ewma_warm_us),
            ..self.stats.clone()
        }
    }

    /// The path-mix-weighted latency estimate `retry_after` hints use:
    /// each path's EWMA weighted by how many completions took it. 0.0
    /// before the first completion.
    fn blended_latency_us(&self) -> f64 {
        let cold_n = self.stats.cold_starts as f64;
        let warm_n = self.stats.warm_hits as f64;
        let total = cold_n + warm_n;
        if total == 0.0 {
            return 0.0;
        }
        (self.ewma_cold_us * cold_n + self.ewma_warm_us * warm_n) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_core::Variant;

    /// Queues one request of `model` (no service behind it: the engine
    /// never runs what it admits).
    fn enqueue(state: &mut SchedState<()>, priority: Priority, model: usize) -> u64 {
        let shape = TreeKey {
            variant: Variant::Serial,
            workers: 1,
            memory_mb: 1769,
        };
        let req = BatchedRequest {
            variant: shape.variant,
            workers: shape.workers,
            memory_mb: shape.memory_mb,
            batches: Vec::new(),
        };
        let member = Member {
            ticket: (),
            seq: 0,
            priority,
            model,
            arrival: VirtualTime::ZERO,
            shape,
            retries_left: 0,
        };
        state.enqueue(member, req).expect("queue has room")
    }

    fn seqs(passes: Vec<Pass<()>>) -> Vec<Vec<u64>> {
        passes
            .into_iter()
            .map(|p| p.members.iter().map(|m| m.seq).collect())
            .collect()
    }

    #[test]
    fn a_pass_frees_one_slot_on_its_last_release() {
        let mut state = SchedState::<()>::new(SchedulerConfig::default(), vec![4, 4], 0);
        state.occupy(1, &[4, 5, 6]);
        assert_eq!((state.inflight(), state.inflight_model[1]), (1, 1));
        assert!(!state.release(4));
        assert!(!state.release(6));
        assert_eq!(state.inflight(), 1, "the pass holds its slot");
        assert_eq!(state.audit().len(), 3, "{:?}", state.audit());
        assert!(state.release(5), "the k-th release frees the slot");
        assert_eq!(state.inflight(), 0);
        assert_eq!(state.inflight_model, vec![0, 0]);
        assert!(!state.release(5), "a second release frees nothing");
        assert!(!state.release(99), "an unknown seq frees nothing");
        assert_eq!(state.inflight(), 0);
        assert_eq!(state.stats.max_inflight, 1);
        assert_eq!(state.stats.max_inflight_per_model, vec![0, 1]);
        assert_eq!(state.audit(), Vec::<String>::new());
    }

    #[test]
    fn a_model_blocked_head_blocks_its_class_and_banks_its_credit() {
        // Model 0 holds one slot, model 1 eight; Batch outweighs
        // Interactive 3:1.
        let cfg = SchedulerConfig::default().global_cap(8).weights(1, 3);
        let mut state = SchedState::<()>::new(cfg, vec![1, 8], 0);
        let first = enqueue(&mut state, Priority::Interactive, 0);
        assert_eq!(seqs(state.dispatch()), vec![vec![first]]);
        // Model 0 is at its cap. Interactive's head wants model 0; the
        // request behind it wants model 1, which has free slots.
        let blocked = enqueue(&mut state, Priority::Interactive, 0);
        let behind = enqueue(&mut state, Priority::Interactive, 1);
        let batch: Vec<u64> = (0..7)
            .map(|_| enqueue(&mut state, Priority::Batch, 1))
            .collect();
        // Batch fills every free global slot; Interactive admits nothing,
        // not even the model-1 request behind its head.
        let admitted = seqs(state.dispatch());
        assert_eq!(admitted, batch.iter().map(|&s| vec![s]).collect::<Vec<_>>());
        assert_eq!(state.queued(), 2, "{blocked} and {behind} still queued");
        assert_eq!(state.inflight(), 8);
        // Model 0 frees while Batch is still backlogged: the credit
        // Interactive earned during the seven blocked rounds wins it the
        // very next round, which weights 1:3 alone would give Batch.
        assert!(state.release(first));
        let late_batch = enqueue(&mut state, Priority::Batch, 1);
        assert_eq!(seqs(state.dispatch()), vec![vec![blocked]]);
        // A fresh engine in the same queue state gives that round to Batch.
        let mut fresh = SchedState::<()>::new(cfg, vec![1, 8], 0);
        enqueue(&mut fresh, Priority::Interactive, 0);
        let fresh_batch = enqueue(&mut fresh, Priority::Batch, 1);
        assert_eq!(seqs(fresh.dispatch())[0], vec![fresh_batch]);
        // `behind` and `late_batch` wait for a slot.
        assert_eq!(state.queued(), 2, "{behind} and {late_batch} still queued");
    }
}
