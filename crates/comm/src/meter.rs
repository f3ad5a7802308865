//! Billing meters — the simulation's "AWS Cost & Usage report".
//!
//! Every simulated service records its API events here as they happen,
//! *independently* of the cost model's predictions (Section IV of the
//! paper). Cost-model validation (§VI-F) compares the two.
//!
//! A meter is a [`FlowLedger`]: one counter struct kept at two
//! granularities under one lock —
//!
//! * **total** — everything billed since the meter came up;
//! * **per flow** — the same events bucketed by the request flow id that
//!   caused them; flow `0` is the **unattributed** window (work launched
//!   ahead of traffic, such as pre-warms), which is never released.
//!   Per-flow windows are what make `InferenceReport::comm` request-local
//!   under concurrent load: two overlapping requests each see exactly
//!   their own traffic instead of a shared global delta.
//!
//! [`FlowLedger::record`] applies an event to the total and to its flow's
//! window in one critical section, so the two halves of one event are
//! never observed apart: at any instant the total equals the live windows
//! plus the released ones plus the unattributed window. The service meter
//! ([`ServiceMeter`]) and the Lambda meter (`fsd_faas::LambdaMeter`) are
//! both this ledger, over [`MeterSnapshot`] and `LambdaSnapshot`.

use parking_lot::Mutex;
use std::collections::HashMap;

/// A counter struct `S` kept as a running total plus one window per
/// request flow, under one lock (see the module docs).
#[derive(Debug, Default)]
pub struct FlowLedger<S> {
    inner: Mutex<Ledger<S>>,
}

#[derive(Debug, Default)]
struct Ledger<S> {
    total: S,
    /// Flow 0's window: never released, never tracked.
    unattributed: S,
    /// Windows of flows not yet released (flow 0 never has one).
    flows: HashMap<u64, S>,
}

impl<S: Copy + Default> FlowLedger<S> {
    /// Fresh ledger, all zeros and no windows.
    pub fn new() -> FlowLedger<S> {
        FlowLedger::default()
    }

    /// Applies the event `f` to the total and to the flow's window
    /// (creating it; flow 0's is the unattributed window), in one critical
    /// section.
    pub fn record(&self, flow: u64, f: impl Fn(&mut S)) {
        let mut ledger = self.inner.lock();
        f(&mut ledger.total);
        match flow {
            0 => f(&mut ledger.unattributed),
            _ => f(ledger.flows.entry(flow).or_default()),
        }
    }

    /// Copies the total.
    pub fn snapshot(&self) -> S {
        self.inner.lock().total
    }

    /// Copies the unattributed (flow 0) window.
    pub fn unattributed(&self) -> S {
        self.inner.lock().unattributed
    }

    /// The events attributed to `flow` so far (zeros for unknown flows).
    // fsd_lint::allow(orphan-pub): the comm, faas and core unit tests read one flow's window
    pub fn flow_snapshot(&self, flow: u64) -> S {
        self.inner
            .lock()
            .flows
            .get(&flow)
            .copied()
            .unwrap_or_default()
    }

    /// Removes `flow`'s window and returns it (request teardown — a
    /// long-lived service must not accrete one window per request ever
    /// served). The total keeps the released flow's history.
    pub fn release_flow(&self, flow: u64) -> S {
        self.inner.lock().flows.remove(&flow).unwrap_or_default()
    }

    /// Number of flows currently holding a window (leak checks in tests).
    pub fn tracked_flows(&self) -> usize {
        self.inner.lock().flows.len()
    }
}

/// The region's service meter: every billable event of the simulated
/// services, in total and per flow.
pub type ServiceMeter = FlowLedger<MeterSnapshot>;

/// Counters of billable service events (a total or one flow's window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// SNS billed publish requests (64 KiB increments, min 1 per batch).
    pub sns_publish_requests: u64,
    /// Raw SNS `PublishBatch` API calls (un-billed unit, for diagnostics).
    pub sns_publish_batches: u64,
    /// Bytes delivered from topics into queues (`Z` in the cost model).
    pub sns_delivered_bytes: u64,
    /// SQS API calls: receives + deletes (`Q` in the cost model).
    pub sqs_api_calls: u64,
    /// SQS receive calls that returned no messages (long-poll timeouts).
    pub sqs_empty_polls: u64,
    /// Messages delivered through queues.
    pub sqs_messages: u64,
    /// S3 PUT requests (`V`).
    pub s3_put_requests: u64,
    /// S3 GET requests (`R`).
    pub s3_get_requests: u64,
    /// S3 LIST requests (`L`).
    pub s3_list_requests: u64,
    /// Bytes written to object storage.
    pub s3_put_bytes: u64,
    /// Bytes read from object storage.
    pub s3_get_bytes: u64,
    /// Direct-exchange punch attempts (successful handshakes).
    pub direct_punches: u64,
    /// Direct-exchange punch attempts that failed.
    pub direct_punch_failures: u64,
    /// Frames delivered over punched direct connections.
    pub direct_messages: u64,
    /// Bytes moved over punched direct connections (un-billed — direct's
    /// whole point is zero per-message API cost; tracked for validation).
    pub direct_bytes: u64,
    /// Weight-stream frames forwarded down the launch cascade.
    pub weight_frames: u64,
    /// Weight bytes forwarded down the launch cascade (un-billed in
    /// dollars — intra-flow transfer like direct — but attributed to the
    /// *forwarding* flow so chaos replays and per-flow windows stay exact).
    pub weight_bytes: u64,
}

impl MeterSnapshot {
    /// Element-wise sum (aggregating per-flow windows).
    pub fn plus(&self, other: &MeterSnapshot) -> MeterSnapshot {
        let (mut sum, mut other) = (*self, *other);
        for (a, b) in sum.counters_mut().into_iter().zip(other.counters_mut()) {
            *a += *b;
        }
        sum
    }

    /// Every counter, in declaration order: the one list element-wise
    /// arithmetic over a window walks.
    pub fn counters_mut(&mut self) -> [&mut u64; 17] {
        let MeterSnapshot {
            sns_publish_requests,
            sns_publish_batches,
            sns_delivered_bytes,
            sqs_api_calls,
            sqs_empty_polls,
            sqs_messages,
            s3_put_requests,
            s3_get_requests,
            s3_list_requests,
            s3_put_bytes,
            s3_get_bytes,
            direct_punches,
            direct_punch_failures,
            direct_messages,
            direct_bytes,
            weight_frames,
            weight_bytes,
        } = self;
        [
            sns_publish_requests,
            sns_publish_batches,
            sns_delivered_bytes,
            sqs_api_calls,
            sqs_empty_polls,
            sqs_messages,
            s3_put_requests,
            s3_get_requests,
            s3_list_requests,
            s3_put_bytes,
            s3_get_bytes,
            direct_punches,
            direct_punch_failures,
            direct_messages,
            direct_bytes,
            weight_frames,
            weight_bytes,
        ]
    }
}

impl ServiceMeter {
    pub(crate) fn record_sns_publish(&self, flow: u64, billed_requests: u64) {
        self.record(flow, |s| {
            s.sns_publish_batches += 1;
            s.sns_publish_requests += billed_requests;
        });
    }

    pub(crate) fn record_sns_delivery(&self, flow: u64, bytes: u64) {
        self.record(flow, |s| s.sns_delivered_bytes += bytes);
    }

    pub(crate) fn record_sqs_call(&self, flow: u64, messages: u64, empty: bool) {
        self.record(flow, |s| {
            s.sqs_api_calls += 1;
            s.sqs_messages += messages;
            s.sqs_empty_polls += u64::from(empty);
        });
    }

    pub(crate) fn record_s3_put(&self, flow: u64, bytes: u64) {
        self.record(flow, |s| {
            s.s3_put_requests += 1;
            s.s3_put_bytes += bytes;
        });
    }

    pub(crate) fn record_s3_get(&self, flow: u64, bytes: u64) {
        self.record(flow, |s| {
            s.s3_get_requests += 1;
            s.s3_get_bytes += bytes;
        });
    }

    pub(crate) fn record_s3_list(&self, flow: u64) {
        self.record(flow, |s| s.s3_list_requests += 1);
    }

    pub(crate) fn record_direct_punch(&self, flow: u64, ok: bool) {
        self.record(flow, |s| {
            s.direct_punches += u64::from(ok);
            s.direct_punch_failures += u64::from(!ok);
        });
    }

    pub(crate) fn record_direct_send(&self, flow: u64, messages: u64, bytes: u64) {
        self.record(flow, |s| {
            s.direct_messages += messages;
            s.direct_bytes += bytes;
        });
    }

    pub(crate) fn record_weight_send(&self, flow: u64, frames: u64, bytes: u64) {
        self.record(flow, |s| {
            s.weight_frames += frames;
            s.weight_bytes += bytes;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn records_accumulate() {
        let m = ServiceMeter::new();
        m.record_sns_publish(0, 4);
        m.record_sns_publish(0, 1);
        m.record_sns_delivery(0, 1000);
        m.record_sqs_call(0, 10, false);
        m.record_sqs_call(0, 0, true);
        m.record_s3_put(0, 500);
        m.record_s3_get(0, 300);
        m.record_s3_list(0);
        m.record_direct_punch(0, true);
        m.record_direct_punch(0, false);
        m.record_direct_send(0, 3, 900);
        m.record_weight_send(0, 2, 700);
        let s = m.snapshot();
        assert_eq!(s.sns_publish_requests, 5);
        assert_eq!(s.sns_publish_batches, 2);
        assert_eq!(s.sns_delivered_bytes, 1000);
        assert_eq!(s.sqs_api_calls, 2);
        assert_eq!(s.sqs_empty_polls, 1);
        assert_eq!(s.sqs_messages, 10);
        assert_eq!(s.s3_put_requests, 1);
        assert_eq!(s.s3_get_requests, 1);
        assert_eq!(s.s3_list_requests, 1);
        assert_eq!(s.s3_put_bytes, 500);
        assert_eq!(s.s3_get_bytes, 300);
        assert_eq!(s.direct_punches, 1);
        assert_eq!(s.direct_punch_failures, 1);
        assert_eq!(s.direct_messages, 3);
        assert_eq!(s.direct_bytes, 900);
        assert_eq!(s.weight_frames, 2);
        assert_eq!(s.weight_bytes, 700);
        assert_eq!(m.tracked_flows(), 0, "flow 0 is never tracked");
        assert_eq!(m.unattributed(), s, "flow 0 bills its own window");
    }

    #[test]
    fn flows_are_bucketed_disjointly() {
        let m = ServiceMeter::new();
        m.record_s3_put(1, 100);
        m.record_s3_put(2, 40);
        m.record_s3_put(2, 60);
        m.record_sqs_call(1, 3, false);
        m.record_sns_publish(0, 2); // unattributed: no flow window
        let f1 = m.flow_snapshot(1);
        let f2 = m.flow_snapshot(2);
        assert_eq!(f1.s3_put_requests, 1);
        assert_eq!(f1.s3_put_bytes, 100);
        assert_eq!(f1.sqs_api_calls, 1);
        assert_eq!(f2.s3_put_requests, 2);
        assert_eq!(f2.s3_put_bytes, 100);
        assert_eq!(f2.sqs_api_calls, 0);
        // Per-flow windows are disjoint and sum, with the unattributed
        // window, to the total.
        assert_eq!(m.unattributed().sns_publish_requests, 2);
        assert_eq!(m.snapshot(), f1.plus(&f2).plus(&m.unattributed()));
    }

    #[test]
    fn release_flow_returns_and_clears() {
        let m = ServiceMeter::new();
        m.record_s3_get(9, 123);
        assert_eq!(m.tracked_flows(), 1);
        let window = m.release_flow(9);
        assert_eq!(window.s3_get_requests, 1);
        assert_eq!(window.s3_get_bytes, 123);
        assert_eq!(m.tracked_flows(), 0);
        assert_eq!(m.flow_snapshot(9), MeterSnapshot::default());
        assert_eq!(m.release_flow(9), MeterSnapshot::default());
        // The global counters keep the released flow's history.
        assert_eq!(m.snapshot().s3_get_requests, 1);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let m = Arc::new(ServiceMeter::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    m.record_sqs_call(t % 2 + 1, 1, false);
                }
            }));
        }
        for h in handles {
            h.join().expect("thread");
        }
        assert_eq!(m.snapshot().sqs_api_calls, 8000);
        assert_eq!(m.snapshot().sqs_messages, 8000);
        assert_eq!(m.flow_snapshot(1).sqs_api_calls, 4000);
        assert_eq!(m.flow_snapshot(2).sqs_api_calls, 4000);
    }

    /// Eight recorders hit flows 0, 1 and 2 while a ninth thread keeps
    /// releasing flow 2: every event lands in the total and in exactly one
    /// of {flow 0, a live window, a released window}, for every field.
    #[test]
    fn total_partitions_into_unattributed_live_and_released_windows() {
        let m = Arc::new(ServiceMeter::new());
        let stop = Arc::new(AtomicBool::new(false));
        let start = Arc::new(Barrier::new(9));
        let releaser = {
            let (m, stop, start) = (m.clone(), stop.clone(), start.clone());
            std::thread::spawn(move || {
                let mut released = MeterSnapshot::default();
                start.wait();
                loop {
                    let last = stop.load(Ordering::Acquire);
                    released = released.plus(&m.release_flow(2));
                    if last {
                        return released;
                    }
                    std::thread::yield_now();
                }
            })
        };
        let recorders: Vec<_> = (0..8u64)
            .map(|t| {
                let (m, start) = (m.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..600u64 {
                        let flow = (t + i) % 3;
                        match i % 9 {
                            0 => m.record_sns_publish(flow, 1 + i % 4),
                            1 => m.record_sns_delivery(flow, i),
                            2 => m.record_sqs_call(flow, i % 5, i % 2 == 0),
                            3 => m.record_s3_put(flow, i * 3),
                            4 => m.record_s3_get(flow, i * 7),
                            5 => m.record_s3_list(flow),
                            6 => m.record_direct_punch(flow, i % 4 != 0),
                            7 => m.record_direct_send(flow, 1 + i % 3, i * 11),
                            _ => m.record_weight_send(flow, 1 + i % 2, i * 13),
                        }
                    }
                })
            })
            .collect();
        for r in recorders {
            r.join().expect("recorder");
        }
        stop.store(true, Ordering::Release);
        let released = releaser.join().expect("releaser");
        let expected = m
            .unattributed()
            .plus(&released)
            .plus(&m.flow_snapshot(1))
            .plus(&m.flow_snapshot(2));
        let total = m.snapshot();
        assert_eq!(total, expected, "field by field");
        assert_eq!(m.tracked_flows(), 1, "flow 2's last window was released");
        assert!(total.sns_publish_requests > 0 && total.weight_bytes > 0);
    }
}
