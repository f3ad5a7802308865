//! SQS-like message queues.
//!
//! Each FSD-Inference worker owns a dedicated queue (one queue per consumer
//! avoids consumer-side filtering entirely — Section III-A). Semantics
//! modeled after SQS, through the crate's one receive protocol — a raw
//! [`SqsQueue::take_visible`], then [`SqsQueue::settle_receives`] over the
//! taken stamps:
//!
//! * `ReceiveMessage` returns at most 10 messages per call;
//! * **long polling** (`W > 0`, Algorithm 1) is *modelled by the settle*:
//!   a receive returns as soon as the earliest message lands and takes
//!   everything visible at that instant, an empty response costs the full
//!   wait `W`, and every productive receive is followed by its
//!   `DeleteMessageBatch`, which runs behind the consumer: the settle
//!   bills it and reports when the last one lands, but the consumer's
//!   clock moves on from the poll's return;
//! * **short polling** (`W = 0`, subset-of-servers sampling) is not
//!   modelled: the paper's analysis found it strictly worse, and nothing
//!   in the system selects it;
//! * the take is destructive — there is no in-flight state. An injected
//!   receive or delete failure is re-billed inside the settle, which is
//!   what a visibility-timeout redelivery would cost the consumer.

use crate::env::Region;
use crate::fault::ApiClass;
use crate::mailbox::{wait_for_producers, wake_parked};
use crate::message::{quota, Message, QueuedMessage};
use crate::time::{VClock, VirtualTime};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Cap on consecutive injected receive/delete failures modeled inside one
/// [`SqsQueue::settle_receives`] round. Bounds the settle loop even under
/// a pathological 100% fault rate; in that regime the visibility timeout
/// would expire and redeliver the batch anyway, which is exactly what the
/// capped re-settle models.
const MAX_SETTLE_RETRIES: u64 = 8;

/// A single simulated queue.
pub struct SqsQueue {
    name: String,
    visible: Mutex<VecDeque<QueuedMessage>>,
    cond: Condvar,
    region: Region,
}

impl SqsQueue {
    /// Creates a queue bound to a region's meter, latency model and fault plane.
    pub(crate) fn new(name: String, region: Region) -> SqsQueue {
        SqsQueue {
            name,
            visible: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            region,
        }
    }

    /// Queue name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueues a message stamped with its virtual availability time.
    /// Called by the pub-sub fan-out (and directly by tests).
    pub fn enqueue(&self, available_at: VirtualTime, message: Message) {
        self.visible.lock().push_back(QueuedMessage {
            available_at,
            message,
        });
        self.cond.notify_all();
    }

    /// Number of currently visible messages (diagnostics/tests).
    // fsd_lint::allow(orphan-pub): integration-test inspection surface
    pub fn visible_len(&self) -> usize {
        self.visible.lock().len()
    }

    /// Raw destructive take for the deterministic channel receive path:
    /// waits until a message is visible or the caller is aborted, then
    /// removes and returns up to `max` visible messages in FIFO order —
    /// **no billing, no clock movement**. The caller later reconstructs the
    /// billed long-poll sequence from the returned availability stamps with
    /// [`SqsQueue::settle_receives`], which is what decouples billing and
    /// timing from real-thread batching entirely.
    pub fn take_visible(&self, max: usize) -> Vec<QueuedMessage> {
        let mut visible = self.visible.lock();
        wait_for_producers(&self.cond, &mut visible, |q| !q.is_empty());
        let n = max.min(visible.len());
        visible.drain(..n).collect()
    }

    /// Wakes every receiver parked in [`SqsQueue::take_visible`].
    pub(crate) fn wake_receivers(&self) {
        wake_parked(&self.visible, &self.cond);
    }

    /// Bills one SQS round trip of `rtt_us`: a receive that came back
    /// `empty`, or a delete / productive receive of `messages`.
    fn bill(&self, clock: &mut VClock, messages: u64, empty: bool, rtt_us: u64) {
        self.region
            .meter
            .record_sqs_call(clock.flow(), messages, empty);
        clock.advance_micros(rtt_us);
    }

    /// Bills one empty long poll (timeout after the full wait `W`): the
    /// round [`SqsQueue::settle_receives`] reconstructs while the next
    /// stamp is still more than `W` in the consumer's virtual future.
    pub(crate) fn empty_poll(&self, clock: &mut VClock, wait_secs: f64) {
        self.bill(clock, 0, true, self.region.latency.sqs_poll_us);
        clock.advance_micros(VirtualTime::from_secs_f64(wait_secs).as_micros().max(1));
    }

    /// Bills the injected failures of one `class` round trip at the
    /// clock's instant — each a billed call that achieved nothing — until
    /// the fault plane lets the call through (at most
    /// [`MAX_SETTLE_RETRIES`]). Returns the number of failed calls.
    fn bill_faults(&self, clock: &mut VClock, class: ApiClass, empty: bool, rtt_us: u64) -> u64 {
        let mut failed = 0u64;
        while failed < MAX_SETTLE_RETRIES
            && self
                .region
                .faults
                .check(class, clock.flow(), clock.now(), &self.name)
                .is_some()
        {
            self.bill(clock, 0, empty, rtt_us);
            failed += 1;
        }
        failed
    }

    /// Reconstructs — deterministically, from virtual stamps alone — the
    /// long-poll sequence a consumer starting at `clock` with wait `W`
    /// would have issued to collect messages with the given
    /// `(availability stamp, body bytes)` set, billing every receive
    /// (including empty timeout rounds while a stamp is still in the
    /// virtual future) and one `DeleteMessageBatch` per productive round.
    ///
    /// The receives advance `clock`; the deletes do not. Nothing the
    /// consumer does next needs a delete's acknowledgement, so every
    /// delete — its injected-fault retries included — runs on one
    /// background clock forked from `clock`: it starts when its poll
    /// returns, or when the previous delete lands if that is later. Returns
    /// `(billed SQS calls, instant the last delete lands)`; with no
    /// productive round the instant is where `clock` started. The caller
    /// joins that instant before its billing window closes.
    ///
    /// Because the stamp set of a request's layer is a pure function of
    /// the workload, so is everything this bills — regardless of how real
    /// threads happened to batch the physical arrivals.
    pub fn settle_receives(
        &self,
        clock: &mut VClock,
        wait_secs: f64,
        taken: &[(VirtualTime, usize)],
    ) -> (u64, VirtualTime) {
        let latency = self.region.latency;
        let wait_us = VirtualTime::from_secs_f64(wait_secs).as_micros().max(1);
        let mut msgs: Vec<(VirtualTime, usize)> = taken.to_vec();
        msgs.sort_unstable();
        let mut deletes = *clock;
        let mut calls = 0u64;
        let mut i = 0usize;
        while i < msgs.len() {
            let next = msgs[i].0;
            if next.as_micros() > clock.now().as_micros().saturating_add(wait_us) {
                // The poll would have timed out empty before this message
                // became visible.
                self.empty_poll(clock, wait_secs);
                calls += 1;
                continue;
            }
            // Long polling returns as soon as the earliest message lands;
            // the round takes everything visible at that instant (≤ 10).
            clock.observe(next);
            // Injected receive failure: the `ReceiveMessage` round trip
            // is billed but returns nothing, and the next one collects the
            // same messages — retries here are *never* a blind re-call.
            calls += self.bill_faults(clock, ApiClass::QueueReceive, true, latency.sqs_poll_us);
            let mut batch_bytes = 0usize;
            let mut n = 0u64;
            while i < msgs.len() && msgs[i].0 <= clock.now() && n < quota::MAX_BATCH_MESSAGES as u64
            {
                batch_bytes += msgs[i].1;
                n += 1;
                i += 1;
            }
            self.bill(clock, n, false, latency.sqs_poll_total_us(batch_bytes));
            // Algorithm 1 line 15: delete the polled batch, behind the
            // consumer. An injected delete failure is billed and retried
            // for the same batch (idempotent).
            deletes.observe(clock.now());
            calls += self.bill_faults(
                &mut deletes,
                ApiClass::QueueDelete,
                false,
                latency.sqs_delete_us,
            );
            self.bill(&mut deletes, 0, false, latency.sqs_delete_us);
            calls += 2;
        }
        (calls, deletes.now())
    }

    /// Drops all queue state (teardown of a removed queue).
    pub fn purge(&self) {
        self.visible.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TargetedFault;
    use crate::mailbox::on_aborted_thread;
    use crate::message::MessageAttributes;
    use std::sync::Arc;

    fn queue() -> SqsQueue {
        SqsQueue::new("q-test".into(), Region::deterministic())
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

    /// The production receive: raw take, then settle the billed long-poll
    /// sequence from the taken stamps. Returns `(messages, billed calls)`.
    fn take_and_settle(
        q: &SqsQueue,
        clock: &mut VClock,
        wait_secs: f64,
    ) -> (Vec<QueuedMessage>, u64) {
        let got = q.take_visible(quota::MAX_BATCH_MESSAGES);
        let taken: Vec<(VirtualTime, usize)> = got
            .iter()
            .map(|m| (m.available_at, m.message.len()))
            .collect();
        let (calls, _) = q.settle_receives(clock, wait_secs, &taken);
        (got, calls)
    }

    #[test]
    fn take_and_settled_rounds_cap_at_ten_messages() {
        let q = queue();
        for i in 0..25 {
            q.enqueue(VirtualTime::ZERO, msg(i, b"x"));
        }
        let got = q.take_visible(quota::MAX_BATCH_MESSAGES);
        assert_eq!(got.len(), 10);
        assert_eq!(q.visible_len(), 15);
        let sources: Vec<u32> = got.iter().map(|m| m.message.attributes.source).collect();
        assert_eq!(sources, (0..10).collect::<Vec<u32>>(), "FIFO");
        // However the 25 were physically taken, the settled sequence is
        // three receives of ≤ 10, each with its delete.
        let mut clock = VClock::default();
        let (calls, _) = q.settle_receives(&mut clock, 1.0, &[(VirtualTime::ZERO, 1); 25]);
        assert_eq!(calls, 6);
        assert_eq!(q.region.meter.snapshot().sqs_messages, 25);
    }

    #[test]
    fn blocked_take_wakes_on_enqueue() {
        let q = Arc::new(queue());
        let q2 = q.clone();
        // One take waits for the message, however late it is enqueued.
        let t = std::thread::spawn(move || q2.take_visible(1));
        q.enqueue(VirtualTime::from_micros(10), msg(3, b"wake"));
        let got = t.join().expect("join");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].message.body, b"wake");
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
        assert_eq!(got.len(), 1);
        assert_eq!(calls, 4, "2 empty rounds + 1 delivery + 1 delete");
        let s = q.region.meter.snapshot();
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
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].message.body, b"now");
        assert_eq!(calls, 2, "one receive + its delete");
        assert_eq!(q.region.meter.snapshot().sqs_empty_polls, 0);
        // No wait: only the poll's round trip elapses; its delete runs
        // behind the consumer.
        assert!(clock.now() >= start.plus_micros(8_000));
        assert!(clock.now() < start.plus_micros(1_000_000));
    }

    #[test]
    fn injected_receive_and_delete_failures_are_billed_and_lose_nothing() {
        let q = queue();
        for class in [ApiClass::QueueReceive, ApiClass::QueueDelete] {
            q.region
                .faults
                .inject(TargetedFault::first(class, "q-test"));
        }
        q.enqueue(VirtualTime::ZERO, msg(1, b"precious"));
        let mut clock = VClock::default();
        let (got, calls) = take_and_settle(&q, &mut clock, 1.0);
        assert_eq!(got[0].message.body, b"precious");
        assert_eq!(calls, 4, "failed receive, receive, failed delete, delete");
        let s = q.region.meter.snapshot();
        assert_eq!(
            (s.sqs_api_calls, s.sqs_empty_polls, s.sqs_messages),
            (4, 1, 1)
        );
    }

    /// Stamps in ms → the settle's `(calls, worker clock, last delete)`,
    /// all in µs, from a clock starting at zero.
    fn settle_ms(q: &SqsQueue, stamps_ms: &[u64]) -> (u64, u64, u64) {
        let taken: Vec<(VirtualTime, usize)> = stamps_ms
            .iter()
            .map(|&ms| (VirtualTime::from_micros(ms * 1_000), 1))
            .collect();
        let mut clock = VClock::default();
        let (calls, deleted_at) = q.settle_receives(&mut clock, 1.0, &taken);
        (calls, clock.now().as_micros(), deleted_at.as_micros())
    }

    #[test]
    fn deletes_run_behind_the_worker_and_report_their_landing() {
        let q = queue();
        let lat = q.region.latency;
        let (poll, delete) = (lat.sqs_poll_total_us(1), lat.sqs_delete_us);
        // Two productive rounds: 0 ms, and 20 ms — past the first poll's
        // return and its delete's landing.
        let (calls, worker, deleted_at) = settle_ms(&q, &[0, 20]);
        // The worker ends at the second poll's return; the reported
        // instant is that poll's delete landing behind it.
        assert_eq!(worker, 20_000 + poll);
        assert_eq!(deleted_at, worker + delete);
        // The serial settle's meter: two receives, two deletes, two
        // messages, no empty poll.
        let s = q.region.meter.snapshot();
        assert_eq!(calls, 4);
        assert_eq!(
            (s.sqs_api_calls, s.sqs_empty_polls, s.sqs_messages),
            (4, 0, 2)
        );
    }

    #[test]
    fn an_earlier_poll_can_take_fewer_messages_and_add_a_round() {
        let q = queue();
        let lat = q.region.latency;
        let (poll, delete) = (lat.sqs_poll_total_us(1), lat.sqs_delete_us);
        // Serially the second poll started after the first delete (13 ms)
        // and took both 10 and 12 in two rounds. Now it starts at 10 ms,
        // takes only 10, and 12 needs a third round.
        let (calls, worker, deleted_at) = settle_ms(&q, &[0, 10, 12]);
        assert_eq!(calls, 6, "three receives, three deletes");
        assert_eq!(worker, 10_000 + 2 * poll);
        assert_eq!(deleted_at, worker + delete);
        let s = q.region.meter.snapshot();
        assert_eq!((s.sqs_api_calls, s.sqs_messages), (6, 3));
    }

    #[test]
    fn a_failed_delete_is_rebilled_behind_the_worker() {
        let clean = queue();
        let faulted = queue();
        faulted
            .region
            .faults
            .inject(TargetedFault::first(ApiClass::QueueDelete, "q-test"));
        let (calls, worker, deleted_at) = settle_ms(&faulted, &[0]);
        let (clean_calls, clean_worker, clean_deleted_at) = settle_ms(&clean, &[0]);
        // The retry costs a call and a delete round trip, on the
        // background clock only.
        let delete = clean.region.latency.sqs_delete_us;
        assert_eq!((calls, clean_calls), (3, 2));
        assert_eq!(worker, clean_worker);
        assert_eq!(deleted_at, clean_deleted_at + delete);
        assert_eq!(faulted.region.meter.snapshot().sqs_api_calls, 3);
    }

    #[test]
    fn aborted_take_returns_what_is_there_and_empty_poll_bills_one_wait() {
        let q = queue();
        let mut clock = VClock::default();
        // An aborted receiver does not wait: it takes what is there — here
        // nothing — moves no clock and bills nothing. An empty poll (the
        // settle's timeout round) bills one call and the full wait.
        let take = || q.take_visible(quota::MAX_BATCH_MESSAGES);
        assert!(on_aborted_thread(take).is_empty());
        q.enqueue(VirtualTime::ZERO, msg(1, b"there"));
        assert_eq!(on_aborted_thread(take).len(), 1);
        assert_eq!(clock.now(), VirtualTime::ZERO);
        assert_eq!(q.region.meter.snapshot().sqs_api_calls, 0);
        q.empty_poll(&mut clock, 2.0);
        assert_eq!(q.region.meter.snapshot().sqs_api_calls, 1);
        assert_eq!(q.region.meter.snapshot().sqs_empty_polls, 1);
        assert!(clock.now() >= VirtualTime::from_secs_f64(2.0));
    }

    #[test]
    fn purge_clears_everything() {
        let q = queue();
        q.enqueue(VirtualTime::ZERO, msg(0, b"x"));
        q.enqueue(VirtualTime::ZERO, msg(1, b"y"));
        assert_eq!(q.take_visible(1).len(), 1);
        q.purge();
        assert_eq!(q.visible_len(), 0);
    }
}
