//! Property-based tests on the simulated communication services: billing
//! exactness, message conservation (no loss, no duplication), and quota
//! enforcement under arbitrary traffic patterns.

use fsd_inference::comm::{
    bucket_name, quota, CloudConfig, CloudEnv, Message, MessageAttributes, VClock, VirtualTime,
};
use fsd_inference::core::{ChannelOptions, RecvTracker, Tag, Transport, Variant};
use fsd_inference::faas::{ComputeModel, FaasError, FaasPlatform, FunctionConfig, WorkerCtx};
use fsd_inference::sparse::SparseRows;
use proptest::prelude::*;
use std::sync::Arc;

mod common;

/// Runs `body` inside one simulated worker invocation on `variant`'s
/// channel.
fn with_ctx<T: Send + 'static>(
    variant: Variant,
    env: Arc<CloudEnv>,
    body: impl FnOnce(&mut WorkerCtx) -> Result<T, FaasError> + Send + 'static,
) -> T {
    let platform = FaasPlatform::new(env, ComputeModel::default());
    platform
        .invoke(FunctionConfig::worker("t", 2048), VirtualTime::ZERO, body)
        .join()
        .unwrap_or_else(|e| panic!("{variant}: {e}"))
        .0
}

fn msg(source: u32, target: u32, body: Vec<u8>) -> Message {
    Message {
        attributes: MessageAttributes {
            flow: 0,
            source,
            target,
            layer: 0,
            total_chunks: 1,
            batch: 0,
        },
        body,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sns_billing_is_exact_64k_increments(
        sizes in proptest::collection::vec(0usize..80_000, 1..10),
    ) {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let q = env.queue("t");
        env.pubsub().subscribe(0, 0, 0, q).expect("subscribe");
        let total: usize = sizes.iter().sum();
        prop_assume!(total <= quota::MAX_PUBLISH_BYTES);
        let batch: Vec<Message> = sizes.iter().map(|&s| msg(0, 0, vec![7u8; s])).collect();
        let mut clock = VClock::default();
        let billed = env.pubsub().publish_batch(0, &mut clock, batch).expect("publish");
        let expected = (total.div_ceil(quota::BILLING_INCREMENT)).max(1) as u64;
        prop_assert_eq!(billed, expected);
        prop_assert_eq!(env.snapshot().sns_publish_requests, expected);
        prop_assert_eq!(env.snapshot().sns_delivered_bytes, total as u64);
    }

    #[test]
    fn queue_conserves_messages(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..40),
    ) {
        let env = CloudEnv::new(CloudConfig::deterministic(2));
        let q = env.queue("conserve");
        for (i, b) in bodies.iter().enumerate() {
            q.enqueue(VirtualTime::from_micros(i as u64), msg(i as u32, 0, b.clone()));
        }
        let mut clock = VClock::default();
        let mut got: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut billed = 0u64;
        let mut takes = 0u64;
        while got.len() < bodies.len() {
            let msgs = q.take_visible(quota::MAX_BATCH_MESSAGES);
            prop_assert!(!msgs.is_empty(), "queue lost messages");
            prop_assert!(msgs.len() <= quota::MAX_BATCH_MESSAGES);
            let taken: Vec<(VirtualTime, usize)> =
                msgs.iter().map(|m| (m.available_at, m.message.len())).collect();
            let (calls, deleted_at) = q.settle_receives(&mut clock, 1.0, &taken);
            // Each take is productive, so its last delete lands behind the
            // poll that returned it.
            prop_assert!(deleted_at > clock.now());
            billed += calls;
            takes += 1;
            for m in msgs {
                got.push((m.message.attributes.source, m.message.body));
            }
        }
        // Exactly once, order preserved (single consumer, FIFO).
        prop_assert_eq!(got.len(), bodies.len());
        for (i, (src, body)) in got.iter().enumerate() {
            prop_assert_eq!(*src, i as u32);
            prop_assert_eq!(body, &bodies[i]);
        }
        prop_assert_eq!(q.visible_len(), 0);
        // Billed calls = receives + their deletes: the first long poll
        // returns the moment message 0 lands, alone; by then every other
        // stamp has passed, so each later receive carries a whole take.
        let receives = takes + u64::from(bodies.len() > 1);
        prop_assert_eq!(billed, 2 * receives);
        prop_assert_eq!(env.snapshot().sqs_api_calls, billed);
        prop_assert_eq!(env.snapshot().sqs_empty_polls, 0);
        prop_assert_eq!(env.snapshot().sqs_messages, bodies.len() as u64);
    }

    #[test]
    fn object_store_meter_matches_operations(
        keys in proptest::collection::btree_set("[a-z]{1,8}", 1..20),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let env = CloudEnv::new(CloudConfig::deterministic(3));
        let store = env.object_store();
        let bucket = bucket_name(0);
        let mut clock = VClock::default();
        for k in &keys {
            store.put(&bucket, k, body.clone(), &mut clock).expect("put");
        }
        for k in &keys {
            let got = store.get(&bucket, k, &mut clock).expect("get");
            prop_assert_eq!(&got[..], &body[..]);
        }
        let snap = env.snapshot();
        prop_assert_eq!(snap.s3_put_requests, keys.len() as u64);
        prop_assert_eq!(snap.s3_get_requests, keys.len() as u64);
        prop_assert_eq!(snap.s3_put_bytes, (keys.len() * body.len()) as u64);
        prop_assert_eq!(store.object_count(&bucket, ""), keys.len());
    }

    #[test]
    fn oversized_publishes_always_rejected(
        extra in 1usize..100_000,
        n_msgs in 1usize..4,
    ) {
        let env = CloudEnv::new(CloudConfig::deterministic(4));
        let per = (quota::MAX_PUBLISH_BYTES + extra) / n_msgs + 1;
        let batch: Vec<Message> = (0..n_msgs).map(|i| msg(i as u32, 0, vec![0u8; per])).collect();
        let mut clock = VClock::default();
        let before = env.snapshot();
        let res = env.pubsub().publish_batch(0, &mut clock, batch);
        prop_assert!(res.is_err(), "oversized batch accepted");
        // Rejected calls must not bill or deliver anything.
        prop_assert_eq!(env.snapshot(), before);
    }

    #[test]
    fn selected_channel_conserves_arbitrary_payloads(
        seed in 1u64..1000,
        rows in proptest::collection::vec((0u32..64, 1usize..40), 1..6),
        variant in common::any_channel_variant(),
    ) {
        // Arbitrary per-row payloads must arrive bit-identically, whatever
        // transport (and, for hybrid, whatever spill decisions) carried
        // them.
        let env = CloudEnv::new(CloudConfig::deterministic(seed));
        let channel = Transport::of(variant)
            .unwrap_or_else(|| panic!("no transport for {variant}"))
            .provision(&env, 2, ChannelOptions { spill_threshold: 512, ..ChannelOptions::default() }, 0);
        let mut sent = SparseRows::new(64);
        for (pos, &(id_off, nnz)) in rows.iter().enumerate() {
            let id = pos as u32 * 64 + id_off; // strictly increasing ids
            let cols: Vec<u32> = (0..nnz as u32).collect();
            let vals: Vec<f32> = (0..nnz).map(|j| (j as f32) * 0.31 + seed as f32).collect();
            sent.push_row(id, &cols, &vals);
        }
        let sent2 = sent.clone();
        let ch_send = channel.clone();
        with_ctx(variant, env.clone(), move |ctx| {
            ch_send.send_layer(ctx, Tag::Layer(0), 0, &[(1, sent2)])
        });
        let ch_recv = channel.clone();
        let got = with_ctx(variant, env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch_recv.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        let mut merged = SparseRows::new(64);
        for (_, block) in got {
            merged.merge(&block);
        }
        prop_assert_eq!(&merged, &sent, "{}: received {:?}, sent {:?}", variant, merged, sent);
        // Teardown leaves the region exactly as found, on every transport.
        channel.teardown();
        let residue = env.residue_report();
        prop_assert!(residue.is_empty(), "{}: residue {:?}", variant, residue);
    }

    #[test]
    fn clock_joins_are_monotone(
        stamps in proptest::collection::vec(0u64..10_000_000, 1..50),
    ) {
        let mut clock = VClock::default();
        let mut last = VirtualTime::ZERO;
        for s in stamps {
            clock.observe(VirtualTime::from_micros(s));
            prop_assert!(clock.now() >= last, "clock moved backwards");
            prop_assert!(clock.now() >= VirtualTime::from_micros(s));
            last = clock.now();
        }
    }
}
