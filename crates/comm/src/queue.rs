//! SQS-like message queues with long/short polling.
//!
//! Each FSD-Inference worker owns a dedicated queue (one queue per consumer
//! avoids consumer-side filtering entirely — Section III-A). Semantics
//! modeled after SQS:
//!
//! * `ReceiveMessage` returns at most 10 messages per call;
//! * **long polling** (`W > 0`) visits "all servers": every visible message
//!   is eligible, and an empty response costs the full wait `W`;
//! * **short polling** (`W = 0`) samples a subset of servers: each visible
//!   message is seen with fixed probability, so polls can return
//!   empty-handed even when messages exist (the behaviour the paper's
//!   analysis found strictly worse);
//! * received messages become *in flight* until deleted; a failure-injection
//!   hook re-queues them, modeling visibility-timeout expiry.

use crate::fault::{ApiClass, FaultPlane};
use crate::grace::wait_for_producers;
use crate::latency::{Jitter, LatencyModel};
use crate::message::{quota, Message, QueuedMessage, ReceivedMessage};
use crate::meter::ServiceMeter;
use crate::time::{VClock, VirtualTime};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a receive call polls the queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PollKind {
    /// Long polling with wait parameter `W` (seconds of virtual time).
    Long { wait_secs: f64 },
    /// Short polling: immediate response, may miss visible messages.
    Short,
}

/// Probability that short polling sees any given message (subset-of-servers
/// model). Deterministic per queue seed.
const SHORT_POLL_VISIBILITY: f64 = 0.7;

/// How long a poll blocks in *real* time waiting for producers before
/// returning empty. Real time is never load-bearing — this only prevents
/// busy-spinning while producer threads catch up.
const REAL_WAIT: Duration = Duration::from_millis(2);

/// Cap on consecutive injected receive/delete failures modeled inside one
/// [`SqsQueue::settle_receives`] round. Bounds the settle loop even under
/// a pathological 100% fault rate; in that regime the visibility timeout
/// would expire and redeliver the batch anyway, which is exactly what the
/// capped re-settle models.
const MAX_SETTLE_RETRIES: u32 = 8;

struct QueueInner {
    visible: VecDeque<QueuedMessage>,
    in_flight: HashMap<u64, QueuedMessage>,
}

/// A single simulated queue.
pub struct SqsQueue {
    name: String,
    inner: Mutex<QueueInner>,
    cond: Condvar,
    next_handle: AtomicU64,
    meter: Arc<ServiceMeter>,
    latency: LatencyModel,
    jitter: Arc<Jitter>,
    faults: Arc<FaultPlane>,
}

impl SqsQueue {
    /// Creates a queue bound to an environment's meter/latency/jitter.
    pub(crate) fn new(
        name: String,
        meter: Arc<ServiceMeter>,
        latency: LatencyModel,
        jitter: Arc<Jitter>,
        faults: Arc<FaultPlane>,
    ) -> SqsQueue {
        SqsQueue {
            name,
            inner: Mutex::new(QueueInner {
                visible: VecDeque::new(),
                in_flight: HashMap::new(),
            }),
            cond: Condvar::new(),
            next_handle: AtomicU64::new(1),
            meter,
            latency,
            jitter,
            faults,
        }
    }

    /// Queue name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueues a message stamped with its virtual availability time.
    /// Called by the pub-sub fan-out (and directly by tests).
    pub fn enqueue(&self, available_at: VirtualTime, message: Message) {
        let mut inner = self.inner.lock();
        inner.visible.push_back(QueuedMessage {
            available_at,
            message,
        });
        drop(inner);
        self.cond.notify_all();
    }

    /// Number of currently visible messages (diagnostics/tests).
    pub fn visible_len(&self) -> usize {
        self.inner.lock().visible.len()
    }

    /// Number of in-flight (received, undeleted) messages.
    pub fn in_flight_len(&self) -> usize {
        self.inner.lock().in_flight.len()
    }

    /// One `ReceiveMessage` call. Advances `clock` by the poll round trip
    /// (plus the wait `W` when a long poll comes back empty) and joins the
    /// clock against the returned messages' availability stamps.
    pub fn poll(&self, clock: &mut VClock, kind: PollKind) -> Vec<ReceivedMessage> {
        let mut inner = self.inner.lock();
        if inner.visible.is_empty() {
            if let PollKind::Long { .. } = kind {
                // Block briefly in real time so producer threads can run;
                // virtual cost is accounted below regardless.
                self.cond.wait_for(&mut inner, REAL_WAIT);
            }
        }
        let mut out = Vec::new();
        let mut taken_bytes = 0usize;
        let mut kept: VecDeque<QueuedMessage> = VecDeque::new();
        while let Some(qm) = inner.visible.pop_front() {
            if out.len() == quota::MAX_BATCH_MESSAGES {
                kept.push_back(qm);
                continue;
            }
            let seen = match kind {
                PollKind::Long { .. } => true,
                // Deterministic subset-of-servers sampling.
                PollKind::Short => self.jitter.unit() < SHORT_POLL_VISIBILITY,
            };
            if seen {
                let handle = self.next_handle.fetch_add(1, Ordering::Relaxed);
                taken_bytes += qm.message.len();
                inner.in_flight.insert(
                    handle,
                    QueuedMessage {
                        available_at: qm.available_at,
                        message: qm.message.clone(),
                    },
                );
                out.push(ReceivedMessage {
                    handle,
                    available_at: qm.available_at,
                    message: qm.message,
                });
            } else {
                kept.push_back(qm);
            }
        }
        inner.visible = kept;
        drop(inner);

        self.meter
            .record_sqs_call(clock.flow(), out.len() as u64, out.is_empty());
        clock.advance_micros(
            self.jitter
                .apply(self.latency.sqs_poll_total_us(taken_bytes)),
        );
        if out.is_empty() {
            if let PollKind::Long { wait_secs } = kind {
                clock.advance_micros(VirtualTime::from_secs_f64(wait_secs).as_micros());
            }
        } else {
            let latest = out
                .iter()
                .map(|m| m.available_at)
                .max()
                .expect("non-empty poll result");
            clock.observe(latest);
        }
        out
    }

    /// Raw destructive take for the deterministic channel receive path:
    /// blocks briefly in *real* time for producers, then removes and
    /// returns up to `max` visible messages — **no billing, no clock
    /// movement**. The caller later reconstructs the billed long-poll
    /// sequence from the returned availability stamps with
    /// [`SqsQueue::settle_receives`], which is what decouples billing and
    /// timing from real-thread batching entirely.
    pub fn take_visible(&self, max: usize) -> Vec<ReceivedMessage> {
        let mut inner = self.inner.lock();
        wait_for_producers(&self.cond, &mut inner, |q| !q.visible.is_empty());
        let mut out = Vec::new();
        while out.len() < max {
            let Some(qm) = inner.visible.pop_front() else {
                break;
            };
            let handle = self.next_handle.fetch_add(1, Ordering::Relaxed);
            out.push(ReceivedMessage {
                handle,
                available_at: qm.available_at,
                message: qm.message,
            });
        }
        out
    }

    /// Bills one empty long poll (timeout after the full wait `W`) —
    /// the liveness escape hatch of the deterministic receive path when a
    /// producer has really not shown up within the real-time grace: the
    /// consumer's virtual clock keeps moving toward its timeout budget.
    pub fn empty_poll(&self, clock: &mut VClock, wait_secs: f64) {
        self.meter.record_sqs_call(clock.flow(), 0, true);
        clock.advance_micros(self.jitter.apply(self.latency.sqs_poll_us));
        clock.advance_micros(VirtualTime::from_secs_f64(wait_secs).as_micros().max(1));
    }

    /// Reconstructs — deterministically, from virtual stamps alone — the
    /// long-poll sequence a consumer starting at `clock` with wait `W`
    /// would have issued to collect messages with the given
    /// `(availability stamp, body bytes)` set, billing every receive
    /// (including empty timeout rounds while a stamp is still in the
    /// virtual future) and one `DeleteMessageBatch` per productive round,
    /// and advancing the clock through the whole sequence. Returns the
    /// number of billed SQS calls.
    ///
    /// Because the stamp set of a request's layer is a pure function of
    /// the workload, so is everything this bills — regardless of how real
    /// threads happened to batch the physical arrivals.
    pub fn settle_receives(
        &self,
        clock: &mut VClock,
        wait_secs: f64,
        taken: &[(VirtualTime, usize)],
    ) -> u64 {
        let wait_us = VirtualTime::from_secs_f64(wait_secs).as_micros().max(1);
        let mut msgs: Vec<(VirtualTime, usize)> = taken.to_vec();
        msgs.sort_unstable();
        let mut calls = 0u64;
        let mut i = 0usize;
        while i < msgs.len() {
            let next = msgs[i].0;
            if next.as_micros() > clock.now().as_micros().saturating_add(wait_us) {
                // The poll would have timed out empty before this message
                // became visible.
                self.meter.record_sqs_call(clock.flow(), 0, true);
                calls += 1;
                clock.advance_micros(self.jitter.apply(self.latency.sqs_poll_us));
                clock.advance_micros(wait_us);
                continue;
            }
            // Long polling returns as soon as the earliest message lands;
            // the round takes everything visible at that instant (≤ 10).
            clock.observe(next);
            // Injected receive failure: the `ReceiveMessage` round trip
            // is billed but returns nothing; the messages stay governed
            // by the visibility machinery and the next round re-settles
            // them — retries here are *never* a blind re-call.
            let mut retries = 0u32;
            while retries < MAX_SETTLE_RETRIES
                && self
                    .faults
                    .check(
                        ApiClass::QueueReceive,
                        clock.flow(),
                        clock.now(),
                        &self.name,
                    )
                    .is_some()
            {
                self.meter.record_sqs_call(clock.flow(), 0, true);
                calls += 1;
                clock.advance_micros(self.jitter.apply(self.latency.sqs_poll_us));
                retries += 1;
            }
            let mut batch_bytes = 0usize;
            let mut n = 0u64;
            while i < msgs.len() && msgs[i].0 <= clock.now() && n < quota::MAX_BATCH_MESSAGES as u64
            {
                batch_bytes += msgs[i].1;
                n += 1;
                i += 1;
            }
            self.meter.record_sqs_call(clock.flow(), n, false);
            calls += 1;
            clock.advance_micros(
                self.jitter
                    .apply(self.latency.sqs_poll_total_us(batch_bytes)),
            );
            // Injected delete failure: the `DeleteMessageBatch` is billed
            // and retried with the same receipt handles (idempotent).
            let mut retries = 0u32;
            while retries < MAX_SETTLE_RETRIES
                && self
                    .faults
                    .check(ApiClass::QueueDelete, clock.flow(), clock.now(), &self.name)
                    .is_some()
            {
                self.meter.record_sqs_call(clock.flow(), 0, false);
                calls += 1;
                clock.advance_micros(self.jitter.apply(self.latency.sqs_delete_us));
                retries += 1;
            }
            // Algorithm 1 line 15: delete the polled batch.
            self.meter.record_sqs_call(clock.flow(), 0, false);
            calls += 1;
            clock.advance_micros(self.jitter.apply(self.latency.sqs_delete_us));
        }
        calls
    }

    /// One `DeleteMessageBatch` call for up to 10 receipt handles.
    pub fn delete_batch(&self, clock: &mut VClock, handles: &[u64]) {
        assert!(
            handles.len() <= quota::MAX_BATCH_MESSAGES,
            "delete batch too large"
        );
        let mut inner = self.inner.lock();
        for h in handles {
            inner.in_flight.remove(h);
        }
        drop(inner);
        self.meter.record_sqs_call(clock.flow(), 0, false);
        clock.advance_micros(self.jitter.apply(self.latency.sqs_delete_us));
    }

    /// Failure injection: every in-flight message's visibility timeout
    /// "expires" and it returns to the queue (as after a consumer crash).
    pub fn requeue_in_flight(&self) {
        let mut inner = self.inner.lock();
        let handles: Vec<u64> = inner.in_flight.keys().copied().collect();
        for h in handles {
            let qm = inner.in_flight.remove(&h).expect("handle just listed");
            inner.visible.push_back(qm);
        }
        drop(inner);
        self.cond.notify_all();
    }

    /// Drops all queue state (between benchmark repetitions).
    pub fn purge(&self) {
        let mut inner = self.inner.lock();
        inner.visible.clear();
        inner.in_flight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageAttributes;

    fn queue() -> SqsQueue {
        SqsQueue::new(
            "q-test".into(),
            Arc::new(ServiceMeter::new()),
            LatencyModel::deterministic(),
            Arc::new(Jitter::new(1, 0.0)),
            Arc::new(FaultPlane::disabled()),
        )
    }

    fn msg(source: u32, body: &[u8]) -> Message {
        Message {
            attributes: MessageAttributes {
                flow: 0,
                source,
                target: 0,
                layer: 0,
                total_chunks: 1,
                batch: 0,
            },
            body: body.to_vec(),
        }
    }

    #[test]
    fn poll_returns_enqueued_messages_and_advances_clock() {
        let q = queue();
        q.enqueue(VirtualTime::from_micros(500), msg(1, b"hello"));
        let mut clock = VClock::default();
        let got = q.poll(&mut clock, PollKind::Long { wait_secs: 1.0 });
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].message.body, b"hello");
        // Clock advanced by poll RTT and joined to the availability stamp.
        assert!(clock.now().as_micros() >= 8_000);
    }

    #[test]
    fn poll_joins_clock_to_future_message_stamp() {
        let q = queue();
        q.enqueue(VirtualTime::from_secs_f64(5.0), msg(1, b"late"));
        let mut clock = VClock::default();
        q.poll(&mut clock, PollKind::Long { wait_secs: 2.0 });
        assert!(
            clock.now() >= VirtualTime::from_secs_f64(5.0),
            "clock not pulled forward"
        );
    }

    #[test]
    fn empty_long_poll_costs_the_wait() {
        let q = queue();
        let mut clock = VClock::default();
        let got = q.poll(&mut clock, PollKind::Long { wait_secs: 3.0 });
        assert!(got.is_empty());
        assert!(clock.now() >= VirtualTime::from_secs_f64(3.0));
    }

    #[test]
    fn empty_short_poll_returns_immediately() {
        let q = queue();
        let mut clock = VClock::default();
        let got = q.poll(&mut clock, PollKind::Short);
        assert!(got.is_empty());
        assert!(clock.now() < VirtualTime::from_secs_f64(0.5));
    }

    #[test]
    fn poll_caps_at_ten_messages() {
        let q = queue();
        for i in 0..25 {
            q.enqueue(VirtualTime::ZERO, msg(i, b"x"));
        }
        let mut clock = VClock::default();
        let got = q.poll(&mut clock, PollKind::Long { wait_secs: 1.0 });
        assert_eq!(got.len(), 10);
        assert_eq!(q.visible_len(), 15);
        assert_eq!(q.in_flight_len(), 10);
    }

    #[test]
    fn delete_batch_removes_in_flight() {
        let q = queue();
        for i in 0..5 {
            q.enqueue(VirtualTime::ZERO, msg(i, b"x"));
        }
        let mut clock = VClock::default();
        let got = q.poll(&mut clock, PollKind::Long { wait_secs: 1.0 });
        let handles: Vec<u64> = got.iter().map(|m| m.handle).collect();
        q.delete_batch(&mut clock, &handles);
        assert_eq!(q.in_flight_len(), 0);
        assert_eq!(q.visible_len(), 0);
    }

    #[test]
    fn requeue_in_flight_redelivers() {
        let q = queue();
        q.enqueue(VirtualTime::ZERO, msg(1, b"again"));
        let mut clock = VClock::default();
        let got = q.poll(&mut clock, PollKind::Long { wait_secs: 1.0 });
        assert_eq!(got.len(), 1);
        q.requeue_in_flight();
        let got2 = q.poll(&mut clock, PollKind::Long { wait_secs: 1.0 });
        assert_eq!(got2.len(), 1);
        assert_eq!(got2[0].message.body, b"again");
        // A fresh receipt handle is issued on redelivery.
        assert_ne!(got[0].handle, got2[0].handle);
    }

    #[test]
    fn meter_counts_polls_and_empties() {
        let meter = Arc::new(ServiceMeter::new());
        let q = SqsQueue::new(
            "q".into(),
            meter.clone(),
            LatencyModel::deterministic(),
            Arc::new(Jitter::new(1, 0.0)),
            Arc::new(FaultPlane::disabled()),
        );
        let mut clock = VClock::default();
        q.poll(&mut clock, PollKind::Long { wait_secs: 0.1 });
        q.enqueue(VirtualTime::ZERO, msg(0, b"x"));
        let got = q.poll(&mut clock, PollKind::Long { wait_secs: 0.1 });
        q.delete_batch(&mut clock, &[got[0].handle]);
        let s = meter.snapshot();
        assert_eq!(s.sqs_api_calls, 3);
        assert_eq!(s.sqs_empty_polls, 1);
        assert_eq!(s.sqs_messages, 1);
    }

    #[test]
    fn blocked_long_poll_wakes_on_enqueue() {
        let q = Arc::new(queue());
        let q2 = q.clone();
        let t = std::thread::spawn(move || {
            let mut clock = VClock::default();
            // Poll until the message arrives (bounded by the test harness).
            for _ in 0..10_000 {
                let got = q2.poll(&mut clock, PollKind::Long { wait_secs: 0.5 });
                if !got.is_empty() {
                    return got[0].message.body.clone();
                }
            }
            Vec::new()
        });
        std::thread::sleep(Duration::from_millis(5));
        q.enqueue(VirtualTime::from_micros(10), msg(3, b"wake"));
        assert_eq!(t.join().expect("join"), b"wake");
    }

    /// The production receive: raw take, then settle the billed long-poll
    /// sequence from the taken stamps. Returns `(messages, billed calls)`.
    fn take_and_settle(q: &SqsQueue, clock: &mut VClock, wait_secs: f64) -> (usize, u64) {
        let got = q.take_visible(quota::MAX_BATCH_MESSAGES);
        let taken: Vec<(VirtualTime, usize)> = got
            .iter()
            .map(|m| (m.available_at, m.message.len()))
            .collect();
        (got.len(), q.settle_receives(clock, wait_secs, &taken))
    }

    #[test]
    fn settle_bills_virtual_rounds_for_future_stamps() {
        let q = queue();
        // Message stamped 5s into the consumer's future; W = 2s → the
        // consumer would have issued 2 empty polls, then the productive
        // receive and its delete.
        q.enqueue(VirtualTime::from_secs_f64(5.0), msg(1, b"later"));
        let mut clock = VClock::default();
        let (got, calls) = take_and_settle(&q, &mut clock, 2.0);
        assert_eq!(got, 1);
        assert_eq!(calls, 4, "2 empty rounds + 1 delivery + 1 delete");
        let s = q.meter.snapshot();
        assert_eq!(s.sqs_api_calls, 4);
        assert_eq!(s.sqs_empty_polls, 2);
        assert_eq!(s.sqs_messages, 1);
        assert!(clock.now() >= VirtualTime::from_secs_f64(5.0));
        assert_eq!(q.visible_len(), 0, "the take is destructive");
    }

    #[test]
    fn settle_single_round_for_ready_messages() {
        let q = queue();
        q.enqueue(VirtualTime::ZERO, msg(1, b"now"));
        let start = VirtualTime::from_secs_f64(1.0);
        let mut clock = VClock::starting_at(start);
        let (got, calls) = take_and_settle(&q, &mut clock, 2.0);
        assert_eq!(got, 1);
        assert_eq!(calls, 2, "one receive + its delete");
        assert_eq!(q.meter.snapshot().sqs_empty_polls, 0);
        // No wait: only the two round trips elapse.
        assert!(clock.now() < start.plus_micros(1_000_000));
    }

    #[test]
    fn drought_takes_nothing_and_empty_poll_bills_one_wait() {
        let q = queue();
        let mut clock = VClock::default();
        // No producer within the real-time grace: the take moves no clock
        // and bills nothing; the caller's drought bill is one empty poll.
        assert!(q.take_visible(quota::MAX_BATCH_MESSAGES).is_empty());
        assert_eq!(clock.now(), VirtualTime::ZERO);
        assert_eq!(q.meter.snapshot().sqs_api_calls, 0);
        q.empty_poll(&mut clock, 2.0);
        assert_eq!(q.meter.snapshot().sqs_api_calls, 1);
        assert_eq!(q.meter.snapshot().sqs_empty_polls, 1);
        assert!(clock.now() >= VirtualTime::from_secs_f64(2.0));
    }

    #[test]
    fn purge_clears_everything() {
        let q = queue();
        q.enqueue(VirtualTime::ZERO, msg(0, b"x"));
        let mut clock = VClock::default();
        q.poll(&mut clock, PollKind::Long { wait_secs: 0.1 });
        q.enqueue(VirtualTime::ZERO, msg(1, b"y"));
        q.purge();
        assert_eq!(q.visible_len(), 0);
        assert_eq!(q.in_flight_len(), 0);
    }
}
