//! FSD-Inf-Queue: the pub-sub/queueing carrier (FSI Algorithm 1).
//!
//! Send path: per-target row blocks are split into byte strings sized by
//! the NNZ heuristic, serialized, compressed, and packed greedily into
//! publish batches (≤ 10 messages, ≤ 256 KiB) to maximize payload
//! utilization — the paper's main cost lever for `S`. Batches are issued to
//! the sender's topic (`topic-{m % T}`); the service fans each message out
//! to its target's dedicated queue via filter policies.
//!
//! Receive path: long polls against the worker's own queue; each message
//! carries `(source, total_chunks)` attributes so the tracker knows when a
//! source is complete. Early messages for later tags (a fast sender already
//! one layer ahead) are stashed by the engine, never dropped.

use super::{Arrival, Carrier, Core, Cx, Opened, Sends, Wire};
use fsd_comm::{quota, topic_name, Message, MessageAttributes, SqsQueue, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::SparseRows;
use std::cmp::Ordering;
use std::sync::Arc;

/// Target nonzeros per byte string — the NNZ packing heuristic.
const CHUNK_NNZ: usize = 28_000;

/// One queue per worker, named by flow and rank and subscribed to every
/// topic with a `(flow, rank)` filter policy.
pub(crate) struct QueueCarrier {
    queues: Vec<Arc<SqsQueue>>,
    /// Distinguishes the hybrid carrier's queues from the pure queue
    /// carrier's, so mixed-transport tests over one region never collide.
    /// The names are the fault plane's hash resource: renaming moves every
    /// chaos baseline.
    infix: &'static str,
}

/// Canonical per-flow queue naming.
fn queue_name(flow: u64, infix: &str, rank: u32) -> String {
    format!("fsd-f{flow}-{infix}{rank}")
}

/// Builds the byte-string bodies for one target: NNZ heuristic first, then
/// a hard re-split while a body plus `frame_overhead` bytes of framing
/// would exceed the publish cap (rare: compression underperformed the
/// heuristic). A single row that still does not fit is returned as is. An
/// empty send still announces itself with one tiny message so the
/// receiver's tracker can complete the source.
pub(crate) fn chunk_bodies(
    cx: &Cx,
    ctx: &mut WorkerCtx,
    rows: &SparseRows,
    frame_overhead: usize,
) -> Vec<Vec<u8>> {
    if rows.is_empty() {
        return vec![cx.encode(ctx, rows)];
    }
    let mut bodies = Vec::new();
    let mut pending: Vec<SparseRows> = rows.split_by_nnz(CHUNK_NNZ);
    while let Some(chunk) = pending.pop() {
        let body = cx.encode(ctx, &chunk);
        if body.len() + frame_overhead > quota::MAX_PUBLISH_BYTES && chunk.n_rows() > 1 {
            pending.extend(chunk.split_by_nnz((chunk.nnz() / 2).max(1)));
            continue;
        }
        bodies.push(body);
    }
    bodies
}

impl QueueCarrier {
    pub(crate) fn bind_named(core: &Core, infix: &'static str) -> QueueCarrier {
        let pubsub = core.env.pubsub();
        let subscribed = |m| {
            let q = core.env.queue(&queue_name(core.flow, infix, m));
            for t in 0..pubsub.n_topics() {
                pubsub
                    .subscribe(t, core.flow, m, q.clone())
                    .expect("topic pre-created");
            }
            q
        };
        QueueCarrier {
            queues: (0..core.n_workers).map(subscribed).collect(),
            infix,
        }
    }

    /// Wraps each target's bodies (Xsend_list in Algorithm 1) in messages
    /// and packs them greedily into publish batches (≤ 10 messages,
    /// ≤ 256 KiB — or one message per publish with packing disabled).
    pub(crate) fn batches(&self, cx: &Cx, bodies: Vec<(u32, Vec<Vec<u8>>)>) -> Vec<Vec<Message>> {
        let max_batch = if cx.opts.packing {
            quota::MAX_BATCH_MESSAGES
        } else {
            1
        };
        let mut batches: Vec<Vec<Message>> = Vec::new();
        let mut cur: Vec<Message> = Vec::new();
        let mut cur_bytes = 0usize;
        for (target, bodies) in bodies {
            let attributes = MessageAttributes {
                flow: cx.flow,
                source: cx.rank,
                target,
                layer: cx.code,
                total_chunks: bodies.len() as u32,
                batch: 0,
            };
            for body in bodies {
                let msg = Message { attributes, body };
                let too_full = cur.len() == max_batch
                    || (!cur.is_empty() && cur_bytes + msg.len() > quota::MAX_PUBLISH_BYTES);
                if too_full {
                    batches.push(std::mem::take(&mut cur));
                    cur_bytes = 0;
                }
                cur_bytes += msg.len();
                cur.push(msg);
            }
        }
        if !cur.is_empty() {
            batches.push(cur);
        }
        batches
    }
}

impl Carrier for QueueCarrier {
    type Parcel = Vec<Message>;
    type Body = Vec<u8>;
    const DESTRUCTIVE_TAKE: bool = true;
    const DECODE_BEFORE_SETTLE: bool = true;

    fn bind(core: &Core) -> QueueCarrier {
        QueueCarrier::bind_named(core, "q")
    }

    /// Unsubscribes this flow's filter policies and removes its queues from
    /// the region.
    fn release(&self, core: &Core) {
        for m in 0..core.n_workers {
            for t in 0..core.env.pubsub().n_topics() {
                let _ = core.env.pubsub().unsubscribe(t, core.flow, m);
            }
            if let Some(q) = core.env.remove_queue(&queue_name(core.flow, self.infix, m)) {
                q.purge();
            }
        }
    }

    fn frame(&self, cx: &Cx, ctx: &mut WorkerCtx, sends: &Sends) -> Vec<Vec<Vec<Message>>> {
        let chunked =
            |(target, rows): &(u32, SparseRows)| (*target, chunk_bodies(cx, ctx, rows, 0));
        vec![self.batches(cx, sends.iter().map(chunked).collect())]
    }

    fn put(&self, cx: &Cx, lane: &mut VClock, batch: &Vec<Message>) -> Result<(), FaasError> {
        let pubsub = cx.env.pubsub();
        let topic = cx.rank as usize % pubsub.n_topics();
        let publish = |lane: &mut VClock| pubsub.publish_batch(topic, lane, batch.clone());
        let billed = cx.retried(lane, "publish", || topic_name(topic), publish)?;
        let bytes: u64 = batch.iter().map(|m| m.len() as u64).sum();
        cx.stats.add(&cx.stats.sns_billed, billed);
        cx.stats.add(&cx.stats.sns_batches, 1);
        cx.stats.add(&cx.stats.messages, batch.len() as u64);
        cx.stats.add(&cx.stats.bytes_sent, bytes);
        Ok(())
    }

    fn take(&self, cx: &Cx, _known: usize) -> Result<Vec<Arrival<Vec<u8>>>, FaasError> {
        let msgs = self.queues[cx.rank as usize].take_visible(quota::MAX_BATCH_MESSAGES);
        let arrival = |msg: fsd_comm::QueuedMessage| Arrival {
            tag: msg.message.attributes.layer,
            stamp: msg.available_at,
            src: msg.message.attributes.source,
            total_chunks: msg.message.attributes.total_chunks,
            body: msg.message.body,
        };
        Ok(msgs.into_iter().map(arrival).collect())
    }

    fn order(a: &Arrival<Vec<u8>>, b: &Arrival<Vec<u8>>) -> Ordering {
        (a.stamp, a.src, a.body.len()).cmp(&(b.stamp, b.src, b.body.len()))
    }

    fn settle(&self, cx: &Cx, clock: &mut VClock, raw: &[Arrival<Vec<u8>>]) {
        let billing: Vec<(VirtualTime, usize)> =
            raw.iter().map(|a| (a.stamp, a.body.len())).collect();
        let queue = &self.queues[cx.rank as usize];
        let rounds = queue.settle_receives(clock, cx.opts.long_poll_secs, &billing);
        cx.stats.add(&cx.stats.sqs_calls, rounds);
    }

    fn open<'a>(&self, _cx: &Cx, _clock: &mut VClock, body: &'a Vec<u8>) -> Opened<'a> {
        Ok(Some(Wire::Inline(body)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{bind, rows, with_ctx};
    use super::*;
    use crate::channel::{ChannelOptions, RecvTracker, Tag};
    use fsd_comm::{CloudConfig, CloudEnv};

    #[test]
    fn large_blocks_split_into_multiple_chunks() {
        let env = CloudEnv::new(CloudConfig::deterministic(3));
        let ch = bind::<QueueCarrier>(&env, 2, ChannelOptions::default());
        let ch2 = ch.clone();
        // 128 000 nonzeros against the 28 000-nnz heuristic: ≥ 5 chunks.
        let big = SparseRows::from_rows(
            1024,
            (0..125u32).map(|i| (i, (0..1024u32).collect::<Vec<_>>(), vec![1.5f32; 1024])),
        );
        assert!(big.nnz() > 4 * CHUNK_NNZ);
        let big2 = big.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(1), 0, &[(1, big2)])
        });
        assert!(
            ch.stats().snapshot().messages >= 5,
            "NNZ heuristic did not chunk"
        );
        let got = with_ctx(env, move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(1), 1, &mut tracker)
        });
        let mut merged = SparseRows::new(1024);
        for (_, b) in got {
            merged.merge(&b);
        }
        assert_eq!(merged, big);
    }

    #[test]
    fn early_arrivals_are_stashed_not_lost() {
        let env = CloudEnv::new(CloudConfig::deterministic(4));
        let ch = bind::<QueueCarrier>(&env, 2, ChannelOptions::default());
        let ch_send = ch.clone();
        // Sender ships layer 0 AND layer 1 before the receiver polls at all.
        with_ctx(env.clone(), move |ctx| {
            ch_send.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[1]))])?;
            ch_send.send_layer(ctx, Tag::Layer(1), 0, &[(1, rows(&[2]))])
        });
        let ch_recv = ch.clone();
        let (l0, l1) = with_ctx(env, move |ctx| {
            let mut t0 = RecvTracker::expecting([0u32]);
            let l0 = ch_recv.receive_all(ctx, Tag::Layer(0), 1, &mut t0)?;
            let mut t1 = RecvTracker::expecting([0u32]);
            let l1 = ch_recv.receive_all(ctx, Tag::Layer(1), 1, &mut t1)?;
            Ok((l0, l1))
        });
        assert_eq!(l0[0].1.ids(), &[1]);
        assert_eq!(l1[0].1.ids(), &[2]);
    }

    #[test]
    fn batches_pack_up_to_ten_messages() {
        let env = CloudEnv::new(CloudConfig::deterministic(5));
        let ch = bind::<QueueCarrier>(&env, 12, ChannelOptions::default());
        let ch2 = ch.clone();
        // 11 small sends → 11 messages → 2 publish batches (10 + 1).
        let sends: Vec<(u32, SparseRows)> = (1..12u32).map(|t| (t, rows(&[t]))).collect();
        with_ctx(env, move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)
        });
        let snap = ch.stats().snapshot();
        assert_eq!(snap.messages, 11);
        assert_eq!(snap.sns_batches, 2);
        assert_eq!(snap.sns_billed, 2, "small batches bill one request each");
    }

    #[test]
    fn client_stats_match_service_meter() {
        let env = CloudEnv::new(CloudConfig::deterministic(6));
        let ch = bind::<QueueCarrier>(&env, 3, ChannelOptions::default());
        let ch2 = ch.clone();
        let sends: Vec<(u32, SparseRows)> = vec![(1, rows(&[0, 5])), (2, rows(&[7]))];
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &sends)
        });
        let ch3 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch3.receive_all(ctx, Tag::Layer(0), 1, &mut t)
        });
        let client = ch.stats().snapshot();
        let service = env.snapshot();
        assert_eq!(client.sns_billed, service.sns_publish_requests);
        assert_eq!(client.bytes_sent, service.sns_delivered_bytes);
        assert_eq!(
            client.messages,
            service.sqs_messages + 1 /* undelivered to w2 */
        );
    }
}
