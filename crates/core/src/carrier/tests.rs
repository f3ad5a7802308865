//! What every built-in transport must do, checked once over all four, and
//! the helpers the carrier-specific tests share.

use super::queue::{chunk_bodies, CHUNK_NNZ};
use super::{
    frame_field, Carrier, Core, Cx, Engine, FramePool, QueueCarrier, COMPRESS_BPS, ENCODE_BPS,
};
use crate::channel::{barrier, reduce, ChannelOptions, FsiChannel, RecvTracker, Tag};
use crate::engine::Variant;
use crate::transport::Transport;
use fsd_comm::{bucket_name, quota, CloudConfig, CloudEnv, VirtualTime};
use fsd_faas::{ComputeModel, FaasError, FaasPlatform, FunctionConfig, WorkerCtx};
use fsd_sparse::{codec, compress, SparseRows};
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
        .map(|i| env.object_store().object_count(&bucket_name(i), ""))
        .sum()
}

/// The engine over carrier `C`, in the default flow (0).
pub(super) fn bind<C: Carrier>(
    env: &Arc<CloudEnv>,
    n_workers: u32,
    opts: ChannelOptions,
) -> Arc<dyn FsiChannel> {
    Engine::<C>::bind(env, n_workers, opts, 0, &Arc::default())
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
                    let mut mine = rows(&[m * 10]);
                    let out = reduce(ch.as_ref(), ctx, m, 3, &mut mine, 0)?;
                    assert_eq!(mine, rows(&[m * 10]), "reduce hands the block back");
                    Ok(out)
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
        // The billing windows are the service's to release.
        env.release_flow(1);
        env.release_flow(2);
        assert_eq!(env.residue_report(), Vec::<String>::new(), "{variant}");
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

/// [`chunk_bodies`] as it was before a block that fits one chunk was
/// encoded in place: split first, whatever the block's size, and each
/// chunk serialized and compressed into fresh buffers.
fn chunk_bodies_split_first(
    cx: &Cx,
    ctx: &mut WorkerCtx,
    rows: &SparseRows,
    prefix: &[u8],
) -> Vec<Vec<u8>> {
    let encode = |ctx: &mut WorkerCtx, rows: &SparseRows| {
        let encoded = codec::encode(rows);
        ctx.charge_bytes(encoded.len() as u64, ENCODE_BPS);
        cx.stats
            .add(|s| s.bytes_precompress += encoded.len() as u64);
        let body = if cx.opts.compression {
            let compressed = compress::compress(&encoded);
            ctx.charge_bytes(encoded.len() as u64, COMPRESS_BPS);
            compressed
        } else {
            encoded
        };
        [prefix, &body].concat()
    };
    if rows.is_empty() {
        return vec![encode(ctx, rows)];
    }
    let mut bodies = Vec::new();
    let mut pending: Vec<SparseRows> = rows.split_by_nnz(CHUNK_NNZ);
    while let Some(chunk) = pending.pop() {
        let body = encode(ctx, &chunk);
        if body.len() > quota::MAX_PUBLISH_BYTES && chunk.n_rows() > 1 {
            pending.extend(chunk.split_by_nnz((chunk.nnz() / 2).max(1)));
            continue;
        }
        bodies.push(body);
    }
    bodies
}

/// `n_rows` rows of `per_row` seeded entries each over `width` columns.
fn seeded_rows(width: u32, n_rows: u32, per_row: u32, seed: u64) -> SparseRows {
    let mut state = seed;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut id = 0u32;
    let rows = (0..n_rows).map(|_| {
        id += 1 + (next() % 64) as u32;
        let stride = width / per_row;
        let cols: Vec<u32> = (0..per_row)
            .map(|k| k * stride + (next() % u64::from(stride)) as u32)
            .collect();
        let vals = cols
            .iter()
            .map(|_| f32::from_bits(next() as u32 >> 2))
            .collect();
        (id, cols, vals)
    });
    SparseRows::from_rows(width as usize, rows)
}

#[test]
fn chunks_encoded_in_place_equal_the_split_first_chunks() {
    // Bodies, the worker clock after the encode charges, and the
    // pre-compression byte count, with and without compression and a
    // hybrid tag byte. The last block fits one chunk by nonzeros, but its
    // incompressible body passes the publish cap and is re-split.
    let mut one = SparseRows::new(8);
    one.push_row(5, &[3], &[1.5]);
    let mut just_over = seeded_rows(256, 280, 100, 3);
    just_over.push_row(100_000, &[7], &[2.0]);
    let oversize = seeded_rows(1 << 30, CHUNK_NNZ as u32, 1, 4);
    let blocks = [
        SparseRows::new(8),
        one,
        seeded_rows(256, 280, 100, 2),
        just_over,
        oversize,
    ];
    assert_eq!(
        blocks.iter().map(SparseRows::nnz).collect::<Vec<_>>(),
        [0, 1, CHUNK_NNZ, CHUNK_NNZ + 1, CHUNK_NNZ]
    );
    for (b, rows) in blocks.iter().enumerate() {
        for compression in [true, false] {
            for prefix in [&[][..], &[0x00][..]] {
                let run = |split_first: bool| {
                    let env = CloudEnv::new(CloudConfig::deterministic(71));
                    let opts = ChannelOptions {
                        compression,
                        ..ChannelOptions::default()
                    };
                    let core = Core::new(&env, 2, opts, 0, &Arc::default());
                    let rows = rows.clone();
                    with_ctx(env, move |ctx| {
                        let cx = Cx {
                            core: &core,
                            tag: Tag::Layer(0),
                            code: 0,
                            rank: 1,
                        };
                        let bodies = if split_first {
                            chunk_bodies_split_first(&cx, ctx, &rows, prefix)
                        } else {
                            chunk_bodies(&cx, ctx, &rows, prefix)
                        };
                        let precompress = core.stats.snapshot().bytes_precompress;
                        Ok((bodies, ctx.now(), precompress))
                    })
                };
                let (in_place, split_first) = (run(false), run(true));
                let at = format!("block {b}, compression {compression}, prefix {prefix:?}");
                assert!(in_place == split_first, "{at}");
                let want_chunks = if b >= 3 { 2 } else { 1 };
                assert_eq!(in_place.0.len(), want_chunks, "{at}");
            }
        }
    }
}

#[test]
fn frame_fields_past_u32_fail_the_send_instead_of_wrapping() {
    // The queue's `total_chunks` and the hybrid pointer's key length.
    for field in ["total_chunks", "pointer key length"] {
        assert_eq!(frame_field(u32::MAX as usize, field).ok(), Some(u32::MAX));
        match frame_field(u32::MAX as usize + 1, field) {
            Err(FaasError::Comm(failure)) => {
                assert_eq!((failure.op, failure.resource.as_str()), ("frame", field));
            }
            other => panic!("{field}: expected a frame error, got {other:?}"),
        }
    }
}

#[test]
fn frames_are_built_and_read_in_buffers_a_bounded_pool_keeps() {
    // A frame's buffers go back to the service's pool, grown, after the
    // send and after the receive, for any later channel to take.
    let env = CloudEnv::new(CloudConfig::deterministic(81));
    let pool = Arc::new(FramePool::default());
    let ch = Engine::<QueueCarrier>::bind(&env, 2, ChannelOptions::default(), 0, &pool);
    let sent = rows(&[3, 8]);
    let (ch2, sent2) = (ch.clone(), sent.clone());
    with_ctx(env.clone(), move |ctx| {
        ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, sent2)])
    });
    let grown = |pool: &FramePool| {
        let idle = pool.idle();
        (
            idle.len(),
            idle.iter().map(|b| b.plain.capacity()).sum::<usize>(),
        )
    };
    let (sets, plain) = grown(&pool);
    assert_eq!(sets, 1);
    assert!(plain > 0);
    let ch2 = ch.clone();
    let got = with_ctx(env.clone(), move |ctx| {
        let mut tracker = RecvTracker::expecting([0u32]);
        ch2.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
    });
    assert_eq!(got[0].1, sent);
    assert_eq!(grown(&pool), (sets, plain), "the receive reused the set");
    ch.teardown();
    // Twenty frames in flight at once take twenty sets; of those given
    // back, the ones beyond the bound are freed.
    fn in_flight(pool: &FramePool, frames: usize) {
        if frames > 0 {
            pool.with(|_| in_flight(pool, frames - 1));
        }
    }
    in_flight(&pool, FramePool::MAX_IDLE + 4);
    assert_eq!(pool.idle().len(), FramePool::MAX_IDLE);
}
