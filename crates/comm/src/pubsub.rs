//! SNS-like pub-sub topics with filter-policy fan-out.
//!
//! FSD-Inf-Queue publishes message batches to one of several parallel topics
//! (`topic-{m % 10}` in the paper — parallel topics raise aggregate
//! throughput and dodge per-topic API limits). Each topic holds filter-policy
//! subscriptions keyed by the `target` message attribute; delivery of each
//! message is offloaded to the service, which routes it into the matching
//! worker's dedicated queue. Messages whose target has no subscription are
//! silently dropped — exact SNS filter semantics.

use crate::env::Region;
use crate::fault::ApiClass;
use crate::message::{quota, CommError, Message};
use crate::queue::SqsQueue;
use crate::time::VClock;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// One topic's filter policy: `(flow, target)` attributes → subscribed queue.
type Topic = RwLock<HashMap<(u64, u32), Arc<SqsQueue>>>;

/// The pub-sub service: a fixed set of pre-created topics (the paper
/// pre-creates all communication resources to keep them off the inference
/// critical path — they carry no idle cost).
pub struct PubSub {
    topics: Vec<Topic>,
    region: Region,
}

impl PubSub {
    pub(crate) fn new(n_topics: usize, region: Region) -> PubSub {
        let topics = (0..n_topics.max(1)).map(|_| Topic::default()).collect();
        PubSub { topics, region }
    }

    fn topic(&self, topic: usize) -> Result<&Topic, CommError> {
        self.topics
            .get(topic)
            .ok_or(CommError::NoSuchTopic { topic })
    }

    /// Number of parallel topics.
    pub fn n_topics(&self) -> usize {
        self.topics.len()
    }

    /// Subscribes `queue` to `topic` with a filter policy matching messages
    /// whose `(flow, target)` attributes equal the given pair. Flows scope
    /// concurrent inference requests onto the same shared topics without
    /// cross-delivery.
    pub fn subscribe(
        &self,
        topic: usize,
        flow: u64,
        target: u32,
        queue: Arc<SqsQueue>,
    ) -> Result<(), CommError> {
        let t = self.topic(topic)?;
        t.write().insert((flow, target), queue);
        Ok(())
    }

    /// Removes the `(flow, target)` filter-policy subscription from `topic`
    /// (request teardown). Unknown subscriptions are ignored.
    pub fn unsubscribe(&self, topic: usize, flow: u64, target: u32) -> Result<(), CommError> {
        let t = self.topic(topic)?;
        t.write().remove(&(flow, target));
        Ok(())
    }

    /// Number of live subscriptions on `topic` (diagnostics/tests).
    pub fn subscription_count(&self, topic: usize) -> usize {
        self.topics.get(topic).map_or(0, |t| t.read().len())
    }

    /// One `PublishBatch` call: validates quotas, advances the caller's
    /// clock by the publish round trip, bills `ceil(total/64 KiB)` requests,
    /// and fan-outs each message to its target's queue with the topic→queue
    /// delivery delay.
    ///
    /// Returns the number of billed requests.
    pub fn publish_batch(
        &self,
        topic: usize,
        clock: &mut VClock,
        messages: Vec<Message>,
    ) -> Result<u64, CommError> {
        let t = self.topic(topic)?;
        if messages.len() > quota::MAX_BATCH_MESSAGES {
            return Err(CommError::TooManyMessages {
                got: messages.len(),
            });
        }
        let total: usize = messages.iter().map(|m| m.len()).sum();
        if total > quota::MAX_PUBLISH_BYTES {
            return Err(CommError::PayloadTooLarge { bytes: total });
        }
        // Billed in 64 KiB increments, minimum one request per batch.
        let billed = (total.div_ceil(quota::BILLING_INCREMENT)).max(1) as u64;
        let Region {
            meter,
            latency,
            jitter,
            faults,
        } = &self.region;
        let fault = faults.check(
            ApiClass::TopicPublish,
            clock.flow(),
            clock.now(),
            &topic_name(topic),
        );
        meter.record_sns_publish(clock.flow(), billed);
        self.region
            .elapse(clock, latency.sns_publish_total_us(total));
        // Injected publish failure: the API call is billed and takes the
        // full round trip (AWS bills failed requests), but nothing is
        // delivered — the batch is all-or-nothing, so a retry republishes
        // it whole and cannot double-deliver.
        if let Some(kind) = fault {
            return Err(kind.to_error(format!("sns:publish {}", topic_name(topic))));
        }

        // Service-side distribution: each message becomes visible in its
        // target queue after an independent delivery delay.
        let subs = t.read();
        for msg in messages {
            if let Some(queue) = subs.get(&(msg.attributes.flow, msg.attributes.target)) {
                let mut delay = jitter.apply(latency.sns_delivery_us);
                // Injected delivery fault: SNS retries queue delivery
                // internally, so the message is *delayed*, never lost — a
                // lost delivery after a successful publish would be
                // unrecoverable for the receiver (no failed call to retry).
                if faults
                    .check(
                        ApiClass::QueueSend,
                        msg.attributes.flow,
                        clock.now(),
                        queue.name(),
                    )
                    .is_some()
                {
                    delay += latency.sns_delivery_us.max(1) * 4;
                }
                let available_at = clock.now().plus_micros(delay);
                // Delivery is attributed to the *message's* flow — the
                // service-side fan-out belongs to the request that published
                // the message, whatever clock carried the API call.
                meter.record_sns_delivery(msg.attributes.flow, msg.len() as u64);
                queue.enqueue(available_at, msg);
            }
            // No matching filter policy: dropped, exactly like SNS.
        }
        Ok(billed)
    }
}

/// Canonical topic naming: `topic-{m}` as in the paper's `topic-{m % 10}`
/// parallel-topic scheme. Topics are addressed by index everywhere; this is
/// the single place the display form is assembled (diagnostics, errors).
pub fn topic_name(topic: usize) -> String {
    format!("topic-{topic}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageAttributes;

    /// A queue on the pub-sub's own region (one shared meter).
    fn queue(ps: &PubSub, name: &str) -> Arc<SqsQueue> {
        Arc::new(SqsQueue::new(name.into(), ps.region.clone()))
    }

    fn setup(n_topics: usize) -> (PubSub, Arc<SqsQueue>, Arc<SqsQueue>) {
        let ps = PubSub::new(n_topics, Region::deterministic());
        let (q0, q1) = (queue(&ps, "q0"), queue(&ps, "q1"));
        ps.subscribe(0, 0, 0, q0.clone()).expect("subscribe q0");
        ps.subscribe(0, 0, 1, q1.clone()).expect("subscribe q1");
        (ps, q0, q1)
    }

    fn msg(target: u32, body: &[u8]) -> Message {
        Message {
            attributes: MessageAttributes {
                flow: 0,
                source: 9,
                target,
                layer: 0,
                total_chunks: 1,
                batch: 0,
            },
            body: body.to_vec(),
        }
    }

    fn msg_in_flow(flow: u64, target: u32, body: &[u8]) -> Message {
        let mut m = msg(target, body);
        m.attributes.flow = flow;
        m
    }

    #[test]
    fn fan_out_routes_by_target_attribute() {
        let (ps, q0, q1) = setup(1);
        let mut clock = VClock::default();
        ps.publish_batch(
            0,
            &mut clock,
            vec![msg(0, b"to-0"), msg(1, b"to-1"), msg(0, b"to-0b")],
        )
        .expect("publish");
        assert_eq!(q0.visible_len(), 2);
        assert_eq!(q1.visible_len(), 1);
        assert_eq!(q1.take_visible(1)[0].message.body, b"to-1");
    }

    #[test]
    fn unmatched_target_is_dropped() {
        let (ps, q0, q1) = setup(1);
        let mut clock = VClock::default();
        ps.publish_batch(0, &mut clock, vec![msg(7, b"nobody")])
            .expect("publish");
        assert_eq!(q0.visible_len(), 0);
        assert_eq!(q1.visible_len(), 0);
    }

    #[test]
    fn rejects_oversized_batches() {
        let (ps, _q0, _q1) = setup(1);
        let mut clock = VClock::default();
        let too_many: Vec<Message> = (0..11).map(|_| msg(0, b"x")).collect();
        assert_eq!(
            ps.publish_batch(0, &mut clock, too_many),
            Err(CommError::TooManyMessages { got: 11 })
        );
        let huge = vec![msg(0, &vec![0u8; 300 * 1024])];
        assert!(matches!(
            ps.publish_batch(0, &mut clock, huge),
            Err(CommError::PayloadTooLarge { .. })
        ));
        // Two messages summing over the cap also rejected (batch-level cap).
        let pair = vec![
            msg(0, &vec![0u8; 200 * 1024]),
            msg(1, &vec![0u8; 100 * 1024]),
        ];
        assert!(matches!(
            ps.publish_batch(0, &mut clock, pair),
            Err(CommError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn billing_in_64k_increments() {
        let (ps, _q0, _q1) = setup(1);
        let meter = &ps.region.meter;
        let mut clock = VClock::default();
        // Tiny batch: 1 billed request.
        let b = ps
            .publish_batch(0, &mut clock, vec![msg(0, b"small")])
            .expect("ok");
        assert_eq!(b, 1);
        // 256 KiB across 4 messages: billed as 4 (the paper's example).
        let batch: Vec<Message> = (0..4).map(|_| msg(0, &vec![0u8; 64 * 1024])).collect();
        let b = ps.publish_batch(0, &mut clock, batch).expect("ok");
        assert_eq!(b, 4);
        // 64 KiB + 1 byte: 2 requests.
        let b = ps
            .publish_batch(0, &mut clock, vec![msg(0, &vec![0u8; 64 * 1024 + 1])])
            .expect("ok");
        assert_eq!(b, 2);
        assert_eq!(meter.snapshot().sns_publish_requests, 7);
        assert_eq!(meter.snapshot().sns_publish_batches, 3);
    }

    #[test]
    fn delivery_bytes_metered_only_for_matches() {
        let (ps, _q0, _q1) = setup(1);
        let meter_before = ps.region.meter.snapshot();
        let mut clock = VClock::default();
        ps.publish_batch(0, &mut clock, vec![msg(0, b"match"), msg(9, b"drop-me")])
            .expect("publish");
        let d = ps.region.meter.snapshot().since(&meter_before);
        assert_eq!(d.sns_delivered_bytes, 5);
    }

    #[test]
    fn delivery_stamp_is_after_publish() {
        let (ps, q0, _q1) = setup(1);
        let mut clock = VClock::default();
        ps.publish_batch(0, &mut clock, vec![msg(0, b"timed")])
            .expect("publish");
        let publish_done = clock.now();
        assert!(
            q0.take_visible(1)[0].available_at > publish_done,
            "delivery must add topic→queue delay"
        );
    }

    #[test]
    fn bad_topic_is_an_error() {
        let (ps, q0, _q1) = setup(2);
        let mut clock = VClock::default();
        assert_eq!(
            ps.publish_batch(5, &mut clock, vec![msg(0, b"x")]),
            Err(CommError::NoSuchTopic { topic: 5 })
        );
        assert!(matches!(
            ps.subscribe(9, 0, 0, q0),
            Err(CommError::NoSuchTopic { topic: 9 })
        ));
    }

    #[test]
    fn flows_are_isolated_on_shared_topics() {
        // Two concurrent requests subscribe the same worker rank (target 0)
        // on the same topic; each flow's messages reach only its own queue.
        let ps = PubSub::new(1, Region::deterministic());
        let (qa, qb) = (queue(&ps, "flow-a"), queue(&ps, "flow-b"));
        ps.subscribe(0, 1, 0, qa.clone()).expect("subscribe flow 1");
        ps.subscribe(0, 2, 0, qb.clone()).expect("subscribe flow 2");
        let mut clock = VClock::default();
        ps.publish_batch(0, &mut clock, vec![msg_in_flow(1, 0, b"for-a")])
            .expect("publish");
        ps.publish_batch(0, &mut clock, vec![msg_in_flow(2, 0, b"for-b")])
            .expect("publish");
        assert_eq!(qa.visible_len(), 1);
        assert_eq!(qb.visible_len(), 1);
        assert_eq!(qa.take_visible(1)[0].message.body, b"for-a");
        assert_eq!(qb.take_visible(1)[0].message.body, b"for-b");
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let (ps, q0, _q1) = setup(1);
        let mut clock = VClock::default();
        ps.publish_batch(0, &mut clock, vec![msg(0, b"first")])
            .expect("publish");
        assert_eq!(q0.visible_len(), 1);
        assert_eq!(ps.subscription_count(0), 2);
        ps.unsubscribe(0, 0, 0).expect("unsubscribe");
        assert_eq!(ps.subscription_count(0), 1);
        ps.publish_batch(0, &mut clock, vec![msg(0, b"second")])
            .expect("publish");
        assert_eq!(
            q0.visible_len(),
            1,
            "post-unsubscribe message must be dropped"
        );
    }
}
