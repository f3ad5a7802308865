//! FSD-Inf-Hybrid: queue control plane with size-based payload spilling.
//!
//! The paper's §IV finding is that neither pure transport wins everywhere:
//! queue messages are fast and cheap per request but payload-capped, while
//! object storage carries unbounded intermediates at a higher per-op
//! latency. The hybrid carrier deploys both at once, per message, and owns
//! no fabric code of its own — it *is* the two carriers:
//!
//! * **control plane** — every send travels the [`QueueCarrier`]'s path
//!   (per-flow queues, filter-policy fan-out, publish batching, long
//!   polling), so receivers keep the queue's completion tracking and
//!   latency profile;
//! * **data plane** — any per-target payload whose serialized
//!   (pre-compression) size exceeds `ChannelOptions::spill_threshold` is
//!   written once through the [`ObjectCarrier`] and replaced in-queue by a
//!   small **pointer record** the receiver dereferences transparently.
//!
//! Wire framing (first byte of every message body):
//!
//! ```text
//! 0x00  inline:  [0x00][encoded payload …]
//! 0x01  pointer: [0x01][key_len: u32 LE][key bytes][payload_len: u64 LE]
//! ```
//!
//! A pointer record is read through `fsd_sparse::bytes::Reader`, the one
//! bounds-checked reader every byte format shares: a truncated record, a
//! key that is not UTF-8 or bytes after the record are refused.
//!
//! Spilled objects live under the flow namespace
//! (`f{flow}/{tag}/{target}/…`), so teardown removes them together with
//! the flow's queues and subscriptions. The PUT lane pool joins before the
//! publish pool starts, so a pointer is only published after its object's
//! PUT has completed and a receiver that has seen the pointer (clock ≥
//! message stamp ≥ PUT stamp) always finds the object visible.

use super::queue::chunk_bodies;
use super::{
    frame_field, Arrival, Carrier, Core, Cx, ObjectCarrier, Opened, QueueCarrier, Sends, Wire,
};
use fsd_comm::{quota, Message, VClock};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::bytes::{DecodeError, Reader};
use fsd_sparse::codec;
use std::cmp::Ordering;
use std::sync::Arc;

const FRAME_INLINE: u8 = 0x00;
const FRAME_POINTER: u8 = 0x01;

/// A parsed hybrid message body.
enum Frame<'a> {
    /// The payload travelled inline on the queue.
    Inline(&'a [u8]),
    /// The payload was spilled; fetch it from the receiver's bucket and
    /// check it against the advertised length.
    Pointer { key: &'a str, payload_len: u64 },
}

/// Frames a pointer record: `[0x01][key_len u32][key][payload_len u64]`.
/// A key too long for its length field fails the send.
fn frame_pointer(key: &str, payload_len: u64) -> Result<Vec<u8>, FaasError> {
    let key_len = frame_field(key.len(), "pointer key length")?;
    let mut framed = Vec::with_capacity(1 + 4 + key.len() + 8);
    framed.push(FRAME_POINTER);
    framed.extend_from_slice(&key_len.to_le_bytes());
    framed.extend_from_slice(key.as_bytes());
    framed.extend_from_slice(&payload_len.to_le_bytes());
    Ok(framed)
}

/// Parses a framed body (strict: truncated or unknown frames, and bytes
/// after a pointer record, are errors).
fn parse_frame(body: &[u8]) -> Result<Frame<'_>, FaasError> {
    let mut r = Reader::new(body);
    match r.u8() {
        Ok(FRAME_INLINE) => Ok(Frame::Inline(&body[1..])),
        Ok(FRAME_POINTER) => parse_pointer(r).map_err(|e| FaasError::comm("frame", "", e)),
        _ => Err(FaasError::comm("frame", "", "unknown hybrid frame tag")),
    }
}

/// The pointer record after its tag: `[key_len u32][key][payload_len u64]`.
fn parse_pointer(mut r: Reader<'_>) -> Result<Frame<'_>, DecodeError> {
    let key_len = r.u32_le()? as usize;
    let key = std::str::from_utf8(r.take(key_len)?)
        .map_err(|_| DecodeError::Corrupt("pointer key is not UTF-8"))?;
    let payload_len = r.u64_le()?;
    r.finish()?;
    Ok(Frame::Pointer { key, payload_len })
}

/// The queue carrier (under its own queue names) plus the object carrier.
pub(crate) struct HybridCarrier {
    queue: QueueCarrier,
    object: ObjectCarrier,
}

/// A spilled payload's PUT, or a publish batch of inline/pointer frames.
pub(crate) enum HybridParcel {
    Put(<ObjectCarrier as Carrier>::Parcel),
    Publish(Vec<Message>),
}

impl Carrier for HybridCarrier {
    type Parcel = HybridParcel;
    type Body = Vec<u8>;
    const DESTRUCTIVE_TAKE: bool = true;
    const DECODE_BEFORE_SETTLE: bool = false;

    fn bind(core: &Core) -> HybridCarrier {
        HybridCarrier {
            queue: QueueCarrier::bind_named(core, "hq"),
            object: ObjectCarrier::bind(core),
        }
    }

    fn release(&self, core: &Core) {
        self.queue.release(core);
        self.object.release(core);
    }

    /// The whole block spills when its serialized size exceeds the
    /// threshold; otherwise it is chunked inline exactly like the queue
    /// carrier's, each chunk compressed straight in behind its tag byte.
    /// An inline chunk that still cannot fit one publish message (a single
    /// giant row) falls back to spilling just that chunk.
    fn frame(
        &self,
        cx: &Cx,
        ctx: &mut WorkerCtx,
        sends: &Sends,
    ) -> Result<Vec<Vec<HybridParcel>>, FaasError> {
        let mut puts = Vec::new();
        let mut frames = Vec::with_capacity(sends.len());
        for (target, rows) in sends {
            let mut spill = |chunk_idx: usize, body: Arc<[u8]>| {
                let suffix = format!(".c{chunk_idx}.dat");
                let put = self.object.object(cx, *target, &suffix, body);
                let pointer = frame_pointer(&put.key, put.body.len() as u64);
                puts.push(HybridParcel::Put(put));
                pointer
            };
            let spills = !rows.is_empty() && codec::encoded_size(rows) > cx.opts.spill_threshold;
            let framed = if spills {
                vec![spill(0, cx.encode(ctx, rows, &[], |wire| Arc::from(wire)))?]
            } else {
                let inline = chunk_bodies(cx, ctx, rows, &[FRAME_INLINE]);
                let framed = inline.into_iter().enumerate().map(|(i, framed)| {
                    if framed.len() > quota::MAX_PUBLISH_BYTES {
                        spill(i, Arc::from(&framed[1..]))
                    } else {
                        Ok(framed)
                    }
                });
                framed.collect::<Result<_, _>>()?
            };
            frames.push((*target, framed));
        }
        let publishes = self.queue.batches(cx, frames)?.into_iter();
        Ok(vec![puts, publishes.map(HybridParcel::Publish).collect()])
    }

    fn put(&self, cx: &Cx, lane: &mut VClock, parcel: &HybridParcel) -> Result<(), FaasError> {
        match parcel {
            HybridParcel::Put(put) => self.object.put(cx, lane, put),
            HybridParcel::Publish(batch) => self.queue.put(cx, lane, batch),
        }
    }

    fn take(&self, cx: &Cx, known: usize) -> Result<Vec<Arrival<Vec<u8>>>, FaasError> {
        self.queue.take(cx, known)
    }

    fn order(a: &Arrival<Vec<u8>>, b: &Arrival<Vec<u8>>) -> Ordering {
        QueueCarrier::order(a, b)
    }

    fn settle(&self, cx: &Cx, ctx: &mut WorkerCtx, raw: &[Arrival<Vec<u8>>]) {
        self.queue.settle(cx, ctx, raw);
    }

    fn open<'a>(&self, cx: &Cx, clock: &mut VClock, body: &'a Vec<u8>) -> Opened<'a> {
        let (key, payload_len) = match parse_frame(body)? {
            Frame::Inline(inline) => return Ok(Some(Wire::Inline(inline))),
            Frame::Pointer { key, payload_len } => (key, payload_len),
        };
        let fetched = self.object.get(cx, clock, key)?;
        if fetched.len() as u64 != payload_len {
            let detail = format!(
                "spilled object length mismatch: pointer advertised {payload_len} bytes, \
                 object holds {}",
                fetched.len()
            );
            return Err(FaasError::comm("get", key, detail));
        }
        Ok(Some(Wire::Fetched(fetched)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{big_rows, bind, rows, total_object_count, with_ctx};
    use super::*;
    use crate::channel::{ChannelOptions, RecvTracker, Tag};
    use fsd_comm::{bucket_name, CloudConfig, CloudEnv, VirtualTime};
    use fsd_faas::{ComputeModel, FaasPlatform, FunctionConfig};
    use fsd_sparse::SparseRows;

    #[test]
    fn frames_roundtrip() {
        match parse_frame(&[FRAME_INLINE, 1, 2, 3]).expect("inline") {
            Frame::Inline(b) => assert_eq!(b, &[1, 2, 3]),
            _ => panic!("wrong frame"),
        }
        let pointer = frame_pointer("f1/L0/1/0_1.c0.dat", 99).expect("fits");
        match parse_frame(&pointer).expect("pointer") {
            Frame::Pointer { key, payload_len } => {
                assert_eq!(key, "f1/L0/1/0_1.c0.dat");
                assert_eq!(payload_len, 99);
            }
            _ => panic!("wrong frame"),
        }
        assert!(parse_frame(&[0x02, 0, 0]).is_err(), "unknown tag");
        assert!(parse_frame(&[FRAME_POINTER, 9]).is_err(), "truncated");
        assert!(parse_frame(&[]).is_err(), "empty body");
    }

    /// The exact bytes of both frames: a pointer record's size is billed
    /// as a publish, so a changed byte would move hybrid latencies. (An
    /// inline frame is the tag byte, then the wire body.)
    #[test]
    fn frame_formats_are_locked() {
        assert_eq!(FRAME_INLINE, 0);
        assert_eq!(
            frame_pointer("f1/L0/1/0_1.c0.dat", 300).expect("fits"),
            vec![
                1, 18, 0, 0, 0, 102, 49, 47, 76, 48, 47, 49, 47, 48, 95, 49, 46, 99, 48, 46, 100,
                97, 116, 44, 1, 0, 0, 0, 0, 0, 0
            ]
        );
    }

    #[test]
    fn pointer_prefixes_are_refused_and_no_mutation_panics() {
        let frame = frame_pointer("f3/L2/1/0_1.c0.dat", 70_000).expect("fits");
        for cut in 0..frame.len() {
            assert!(parse_frame(&frame[..cut]).is_err(), "prefix {cut} parsed");
        }
        // Every single-byte overwrite, and every key length.
        for at in 0..frame.len() {
            for byte in 0..=255u8 {
                let mut bytes = frame.clone();
                bytes[at] = byte;
                let _ = parse_frame(&bytes);
            }
        }
    }

    #[test]
    fn small_payloads_stay_inline() {
        let env = CloudEnv::new(CloudConfig::deterministic(61));
        let ch = bind::<HybridCarrier>(&env, 2, ChannelOptions::default());
        let ch2 = ch.clone();
        let sent = rows(&[3, 8]);
        let sent2 = sent.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, sent2)])
        });
        let snap = ch.stats().snapshot();
        assert_eq!(snap.s3_puts, 0, "small payload must not spill");
        assert!(snap.messages > 0);
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
        });
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, sent);
        assert_eq!(env.snapshot().s3_get_requests, 0, "inline needs no GET");
    }

    #[test]
    fn large_payloads_spill_to_objects() {
        let env = CloudEnv::new(CloudConfig::deterministic(62));
        let opts = ChannelOptions {
            spill_threshold: 4 * 1024,
            ..ChannelOptions::default()
        };
        let ch = bind::<HybridCarrier>(&env, 2, opts);
        let ch2 = ch.clone();
        let sent = big_rows(16 * 1024);
        let sent2 = sent.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(2), 0, &[(1, sent2)])
        });
        let snap = ch.stats().snapshot();
        assert_eq!(snap.s3_puts, 1, "one object per spilled payload");
        assert_eq!(snap.messages, 1, "one pointer record in-queue");
        assert!(
            snap.bytes_sent < 256,
            "pointer record must be tiny, sent {} bytes",
            snap.bytes_sent
        );
        let ch_recv = ch.clone();
        let got = with_ctx(env.clone(), move |ctx| {
            let mut tracker = RecvTracker::expecting([0u32]);
            ch_recv.receive_all(ctx, Tag::Layer(2), 1, &mut tracker)
        });
        let mut merged = SparseRows::new(sent.width());
        for (_, b) in got {
            merged.merge(&b);
        }
        assert_eq!(merged, sent);
        assert_eq!(ch.stats().snapshot().s3_gets, 1, "one dereference GET");
    }

    #[test]
    fn threshold_compares_serialized_size_exactly() {
        let sent = rows(&[1, 2, 3]);
        let wire = codec::encoded_size(&sent);
        for (threshold, expect_spill) in [(wire, false), (wire - 1, true)] {
            let env = CloudEnv::new(CloudConfig::deterministic(63));
            let opts = ChannelOptions {
                spill_threshold: threshold,
                ..ChannelOptions::default()
            };
            let ch = bind::<HybridCarrier>(&env, 2, opts);
            let ch2 = ch.clone();
            let sent2 = sent.clone();
            with_ctx(env, move |ctx| {
                ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, sent2)])
            });
            assert_eq!(
                ch.stats().snapshot().s3_puts > 0,
                expect_spill,
                "threshold {threshold} vs wire {wire}"
            );
        }
    }

    #[test]
    fn teardown_removes_queues_subscriptions_and_spilled_objects() {
        let env = CloudEnv::new(CloudConfig::deterministic(65));
        let opts = ChannelOptions {
            spill_threshold: 1024,
            ..ChannelOptions::default()
        };
        let ch = bind::<HybridCarrier>(&env, 3, opts);
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(
                ctx,
                Tag::Layer(0),
                0,
                &[(1, big_rows(8 * 1024)), (2, big_rows(8 * 1024))],
            )
        });
        assert_eq!(env.queue_count(), 3);
        assert_eq!(total_object_count(&env), 2, "two spilled objects");
        ch.teardown();
        assert_eq!(env.residue_report(), Vec::<String>::new());
    }

    #[test]
    fn pointer_length_mismatch_is_detected() {
        let env = CloudEnv::new(CloudConfig::deterministic(69));
        let opts = ChannelOptions {
            spill_threshold: 1024,
            ..ChannelOptions::default()
        };
        let ch = bind::<HybridCarrier>(&env, 2, opts);
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, big_rows(8 * 1024))])
        });
        // Corrupt the spilled object: overwrite it with a body whose
        // length disagrees with the pointer record's advertised size.
        let bucket = bucket_name(1 % fsd_comm::N_BUCKETS);
        env.object_store()
            .put_offline(&bucket, "f0/L0/1/0_1.c0.dat", &b"truncated"[..])
            .expect("overwrite spilled object");
        let platform = FaasPlatform::new(env, ComputeModel::default());
        let res = platform
            .invoke(
                FunctionConfig::worker("t", 2048),
                VirtualTime::ZERO,
                move |ctx| {
                    let mut tracker = RecvTracker::expecting([0u32]);
                    ch.receive_all(ctx, Tag::Layer(0), 1, &mut tracker)
                },
            )
            .join();
        let err = res.expect_err("length mismatch must surface as an error");
        assert!(
            err.to_string().contains("length mismatch"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn mixed_inline_and_spilled_sends_in_one_layer() {
        let env = CloudEnv::new(CloudConfig::deterministic(66));
        let opts = ChannelOptions {
            spill_threshold: 4 * 1024,
            ..ChannelOptions::default()
        };
        let ch = bind::<HybridCarrier>(&env, 3, opts);
        let ch2 = ch.clone();
        let small = rows(&[1]);
        let big = big_rows(16 * 1024);
        let (small2, big2) = (small.clone(), big.clone());
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, small2), (2, big2)])
        });
        let snap = ch.stats().snapshot();
        assert_eq!(snap.s3_puts, 1);
        assert_eq!(snap.messages, 2, "inline body + pointer record");
        let ch_a = ch.clone();
        let got_small = with_ctx(env.clone(), move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch_a.receive_all(ctx, Tag::Layer(0), 1, &mut t)
        });
        assert_eq!(got_small[0].1, small);
        let got_big = with_ctx(env, move |ctx| {
            let mut t = RecvTracker::expecting([0u32]);
            ch.receive_all(ctx, Tag::Layer(0), 2, &mut t)
        });
        let mut merged = SparseRows::new(big.width());
        for (_, b) in got_big {
            merged.merge(&b);
        }
        assert_eq!(merged, big);
    }
}
