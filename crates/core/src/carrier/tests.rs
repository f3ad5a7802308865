//! What every built-in transport must do, checked once over all four, and
//! the helpers the carrier-specific tests share.

use super::{Carrier, Engine};
use crate::channel::{barrier, reduce, ChannelOptions, FsiChannel, RecvTracker, Tag};
use crate::engine::Variant;
use crate::transport::Transport;
use fsd_comm::{bucket_name, CloudConfig, CloudEnv, VirtualTime};
use fsd_faas::{ComputeModel, FaasError, FaasPlatform, FunctionConfig, WorkerCtx};
use fsd_sparse::SparseRows;
use std::sync::Arc;
use std::time::Duration;

const TRANSPORTS: [Variant; 4] = [
    Variant::Queue,
    Variant::Object,
    Variant::Hybrid,
    Variant::Direct,
];

/// Runs `body` inside one simulated worker invocation (flow 0).
pub(super) fn with_ctx<T: Send + 'static>(
    env: Arc<CloudEnv>,
    body: impl FnOnce(&mut WorkerCtx) -> Result<T, FaasError> + Send + 'static,
) -> T {
    with_ctx_in(env, 0, body)
}

/// Runs `body` inside one simulated worker invocation of `flow`.
fn with_ctx_in<T: Send + 'static>(
    env: Arc<CloudEnv>,
    flow: u64,
    body: impl FnOnce(&mut WorkerCtx) -> Result<T, FaasError> + Send + 'static,
) -> T {
    let platform = FaasPlatform::new(env, ComputeModel::default());
    let cfg = FunctionConfig::worker("t", 2048).for_flow(flow);
    platform
        .invoke(cfg, VirtualTime::ZERO, body)
        .join()
        .expect("test body ok")
        .0
}

/// A small block with one two-entry row per id.
pub(super) fn rows(ids: &[u32]) -> SparseRows {
    SparseRows::from_rows(
        4,
        ids.iter().map(|&i| (i, vec![0u32, 2], vec![1.0f32, 2.0])),
    )
}

/// A block whose serialized size comfortably exceeds `bytes`.
pub(super) fn big_rows(bytes: usize) -> SparseRows {
    let nnz_per_row = 64usize;
    let n_rows = bytes / (nnz_per_row * 8) + 2;
    SparseRows::from_rows(
        nnz_per_row,
        (0..n_rows as u32).map(|i| {
            (
                i,
                (0..nnz_per_row as u32).collect::<Vec<_>>(),
                (0..nnz_per_row)
                    .map(|j| (i as f32) + (j as f32) * 0.37)
                    .collect(),
            )
        }),
    )
}

pub(super) fn total_object_count(env: &Arc<CloudEnv>) -> usize {
    (0..fsd_comm::N_BUCKETS)
        .map(|i| env.object_store().object_count(&bucket_name(i)))
        .sum()
}

/// The engine over carrier `C`, in the default flow (0).
pub(super) fn bind<C: Carrier>(
    env: &Arc<CloudEnv>,
    n_workers: u32,
    opts: ChannelOptions,
) -> Arc<dyn FsiChannel> {
    Engine::<C>::bind(env, n_workers, opts, 0)
}

fn merged(blocks: Vec<(u32, SparseRows)>, width: usize) -> SparseRows {
    let mut m = SparseRows::new(width);
    for (_, b) in blocks {
        m.merge(&b);
    }
    m
}

fn provision(
    variant: Variant,
    env: &Arc<CloudEnv>,
    n_workers: u32,
    opts: ChannelOptions,
    flow: u64,
) -> Arc<dyn FsiChannel> {
    Transport::of(variant)
        .expect("built-in transport")
        .provision(env, n_workers, opts, flow)
}

#[test]
fn send_receive_roundtrip() {
    for (seed, variant) in TRANSPORTS.into_iter().enumerate() {
        let env = CloudEnv::new(CloudConfig::deterministic(seed as u64 + 1));
        let ch = provision(variant, &env, 2, ChannelOptions::default(), 0);
        let ch2 = ch.clone();
        let sent = rows(&[3, 8]);
        let sent2 = sent.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(2), 0, &[(1, sent2)])
        });
        let got = with_ctx(env, move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(2), 1, &mut tracker)
        });
        assert_eq!(got.len(), 1, "{variant}");
        assert_eq!(got[0].0, 0, "{variant}");
        assert_eq!(got[0].1, sent, "{variant}");
    }
}

#[test]
fn empty_send_completes_tracker_without_rows() {
    for (seed, variant) in TRANSPORTS.into_iter().enumerate() {
        let env = CloudEnv::new(CloudConfig::deterministic(seed as u64 + 11));
        let ch = provision(variant, &env, 2, ChannelOptions::default(), 0);
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, SparseRows::new(4))])
        });
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        assert!(got.is_empty(), "{variant}");
        assert_eq!(env.snapshot().direct_bytes, 0, "{variant}: 0-byte marker");
    }
}

#[test]
fn barrier_and_reduce_work_over_every_transport() {
    for (seed, variant) in TRANSPORTS.into_iter().enumerate() {
        let env = CloudEnv::new(CloudConfig::deterministic(seed as u64 + 21));
        let ch = provision(variant, &env, 3, ChannelOptions::default(), 0);
        let platform = FaasPlatform::new(env, ComputeModel::default());
        let mut handles = Vec::new();
        for m in 0..3u32 {
            let ch = ch.clone();
            handles.push(platform.invoke(
                FunctionConfig::worker(format!("w{m}"), 2048),
                VirtualTime::ZERO,
                move |ctx| {
                    barrier(ch.as_ref(), ctx, m, 3, 0)?;
                    let mine = rows(&[m * 10]);
                    reduce(ch.as_ref(), ctx, m, 3, &mine, 0)
                },
            ));
        }
        let outs: Vec<Option<SparseRows>> = handles
            .into_iter()
            .map(|h| h.join().expect("worker ok").0)
            .collect();
        let root = outs.iter().flatten().next().expect("root produced output");
        assert_eq!(root.ids(), &[0, 10, 20], "{variant}");
        assert_eq!(outs.iter().filter(|o| o.is_some()).count(), 1, "{variant}");
    }
}

#[test]
fn scoped_flows_are_isolated() {
    // Two channels over the same environment and worker ranks, distinct
    // flows: each receiver sees only its own flow's payloads (large enough
    // to spill on the hybrid carrier), and teardown releases exactly that
    // flow's resources.
    for (seed, variant) in TRANSPORTS.into_iter().enumerate() {
        let env = CloudEnv::new(CloudConfig::deterministic(seed as u64 + 31));
        let opts = ChannelOptions {
            spill_threshold: 1024,
            ..ChannelOptions::default()
        };
        // Both flows send before either receives.
        let flows: Vec<(Arc<dyn FsiChannel>, SparseRows)> = [(1, 8), (2, 12)]
            .into_iter()
            .map(|(flow, kib)| {
                let ch = provision(variant, &env, 2, opts, flow);
                let (ch2, sent) = (ch.clone(), big_rows(kib * 1024));
                let sent2 = sent.clone();
                with_ctx_in(env.clone(), flow, move |ctx| {
                    ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, sent2)])
                });
                (ch, sent)
            })
            .collect();
        for (flow, (ch, sent)) in (1..).zip(&flows) {
            let ch = ch.clone();
            let got = with_ctx_in(env.clone(), flow, move |ctx| {
                let mut tracker = RecvTracker::expecting([0u32]);
                ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
            });
            assert_eq!(&merged(got, sent.width()), sent, "{variant}: flow {flow}");
        }
        let (a, b) = (&flows[0].0, &flows[1].0);

        let queues = env.queue_count();
        a.teardown();
        assert_eq!(env.queue_count(), queues / 2, "{variant}");
        b.teardown();
        assert_eq!(env.queue_count(), 0, "{variant}");
        for t in 0..env.pubsub().n_topics() {
            assert_eq!(env.pubsub().subscription_count(t), 0, "{variant}");
        }
        assert_eq!(total_object_count(&env), 0, "{variant}");
        assert_eq!(env.direct().connection_count(), 0, "{variant}");
        assert_eq!(env.direct().undrained_frames(), 0, "{variant}");
    }
}

#[test]
fn a_late_producer_thread_moves_no_bill_and_no_clock() {
    // The receiver enters its receive loop first and its producer thread
    // sends 400 ms of real time later, while the receiver is parked in its
    // take. Virtual time and billing are functions of the
    // workload, so the receiver must end exactly where it does when the
    // producer sent first: same clock, same channel counters, same flow
    // meter. The lateness under test is real time, so a sleep makes it;
    // a receiver scheduled later still can only make the runs agree.
    const FLOW: u64 = 5;
    let run = |variant: Variant, late: bool| {
        let env = CloudEnv::new(CloudConfig::deterministic(51));
        let ch = provision(variant, &env, 2, ChannelOptions::default(), FLOW);
        let send = {
            let (env, ch) = (env.clone(), ch.clone());
            move || {
                with_ctx_in(env, FLOW, move |ctx| {
                    ch.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[4, 9]))])
                })
            }
        };
        let receive = {
            let ch = ch.clone();
            move |ctx: &mut WorkerCtx| {
                let mut tracker = RecvTracker::expecting([0u32]);
                let got = ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)?;
                assert_eq!(got.len(), 1);
                Ok(ctx.now())
            }
        };
        let received_at = if late {
            let producer = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(400));
                send()
            });
            let at = with_ctx_in(env.clone(), FLOW, receive);
            producer.join().expect("producer");
            at
        } else {
            send();
            with_ctx_in(env.clone(), FLOW, receive)
        };
        let meter = env.meter().flow_snapshot(FLOW);
        (received_at, ch.stats().snapshot(), meter)
    };
    for variant in TRANSPORTS {
        assert_eq!(run(variant, true), run(variant, false), "{variant}");
    }
}

#[test]
fn tags_that_do_not_fit_surface_as_comm_errors() {
    // The engine is the only place a tag is encoded: a round/batch past
    // the 16-bit field or a layer inside the control range must come back
    // from the channel as an error, not panic a worker or alias round 0.
    for variant in TRANSPORTS {
        let env = CloudEnv::new(CloudConfig::deterministic(41));
        let ch = provision(variant, &env, 2, ChannelOptions::default(), 0);
        let (sent, received) = with_ctx(env, move |ctx| {
            let sent = ch.send_layer(ctx, Tag::Reduce(65_536), 1, &[(0, rows(&[1]))]);
            let mut tracker = RecvTracker::expecting([1u32]);
            let received = ch.receive_round(ctx, Tag::Layer(0xFFFF_0001), 0, &mut tracker);
            Ok((sent, received.map(|_| ())))
        });
        for res in [sent, received] {
            let err = res.expect_err("tag must not fit");
            assert!(
                matches!(err, FaasError::Comm(ref f) if f.op == "tag"),
                "{variant}: {err}"
            );
        }
    }
}
