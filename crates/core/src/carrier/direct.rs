//! FSD-Inf-Direct: the FMI-style direct-exchange carrier.
//!
//! Send path: exactly one frame per (source, target) pair per tag, shipped
//! over NAT-punched connections ([`fsd_comm::DirectNet`]). The first send
//! in a direction pays the hole-punching handshake — the only
//! step that can fail (and the one the fault plane intercepts as
//! [`fsd_comm::ApiClass::DirectPunch`]); after that, frames move at TCP
//! latency with **zero per-message API cost**, which is the whole economic
//! argument for the transport (FMI, PAPERS.md).
//!
//! Receive path: each worker drains its own `(flow, rank, tag)` mailbox.
//! Mailboxes on the fabric are append-only until flow teardown. An empty
//! send still ships a 0-byte frame (the direct analogue of the `.nul`
//! marker) so receivers never block on silent sources.

use super::{Arrival, Carrier, Core, Cx, Opened, Sends, Wire};
use fsd_comm::{DirectFrame, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
use std::cmp::Ordering;
use std::sync::Arc;

/// All connections and mailboxes live under the flow on the region's
/// direct-exchange fabric, so concurrent requests punch and drain
/// disjoint fabrics; there is nothing to set up.
pub(crate) struct DirectCarrier;

type Frame = Arc<[u8]>;

impl Carrier for DirectCarrier {
    /// `(target, frame)`.
    type Parcel = (u32, Frame);
    type Body = Frame;
    const DESTRUCTIVE_TAKE: bool = false;
    const DECODE_BEFORE_SETTLE: bool = false;

    fn bind(_core: &Core) -> DirectCarrier {
        DirectCarrier
    }

    /// Drops the flow's punched connections and undrained mailboxes —
    /// closing sockets is free.
    fn release(&self, core: &Core) {
        core.env.direct().close_flow(core.flow);
    }

    fn frame(
        &self,
        cx: &Cx,
        ctx: &mut WorkerCtx,
        sends: &Sends,
    ) -> Result<Vec<Vec<(u32, Frame)>>, FaasError> {
        let frames = sends.iter().map(|(target, rows)| {
            // An empty send ships a 0-byte frame, uncharged.
            let body = if rows.is_empty() {
                Frame::from([])
            } else {
                cx.encode(ctx, rows, &[], |wire| Frame::from(wire))
            };
            (*target, body)
        });
        Ok(vec![frames.collect()])
    }

    /// The punch is the only fallible step; a retried send re-attempts it.
    fn put(
        &self,
        cx: &Cx,
        lane: &mut VClock,
        (target, body): &(u32, Frame),
    ) -> Result<(), FaasError> {
        let (net, tag_key) = (cx.env.direct(), cx.tag.key_segment());
        let (src, target) = (cx.rank as usize, *target as usize);
        let punched_before = net.is_connected(cx.flow, src, target);
        let send = |lane: &mut VClock| net.send(lane, src, target, &tag_key, body.clone());
        cx.retried(
            lane,
            "direct-send",
            || format!("f{}/{tag_key}", cx.flow),
            send,
        )?;
        cx.stats.add(|s| {
            s.direct_punches += u64::from(!punched_before);
            s.direct_msgs += 1;
            s.direct_bytes += body.len() as u64;
        });
        Ok(())
    }

    fn take(&self, cx: &Cx, known: usize) -> Result<Vec<Arrival<Frame>>, FaasError> {
        let net = cx.env.direct();
        let found = net.fetch(cx.flow, cx.rank as usize, &cx.tag.key_segment(), known);
        let arrival = |frame: DirectFrame| Arrival {
            tag: cx.code,
            stamp: frame.available_at,
            src: frame.src as u32,
            total_chunks: 1,
            body: frame.body,
        };
        Ok(found.into_iter().map(arrival).collect())
    }

    fn order(a: &Arrival<Frame>, b: &Arrival<Frame>) -> Ordering {
        (a.stamp, a.src).cmp(&(b.stamp, b.src))
    }

    fn settle(&self, cx: &Cx, ctx: &mut WorkerCtx, raw: &[Arrival<Frame>]) {
        let stamps: Vec<VirtualTime> = raw.iter().map(|a| a.stamp).collect();
        cx.env.direct().settle_recv(ctx.clock_mut(), &stamps);
    }

    fn open<'a>(&self, _cx: &Cx, _clock: &mut VClock, body: &'a Frame) -> Opened<'a> {
        Ok((!body.is_empty()).then_some(Wire::Inline(body)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{bind, rows, with_ctx};
    use super::*;
    use crate::channel::{ChannelOptions, Tag};
    use fsd_comm::{ApiClass, CloudConfig, CloudEnv, TargetedFault};

    #[test]
    fn punch_paid_once_per_direction() {
        let env = CloudEnv::new(CloudConfig::deterministic(23));
        let ch = bind::<DirectCarrier>(&env, 4, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[0])), (2, rows(&[1]))])?;
            // Second layer over the same pairs: no further handshakes.
            ch2.send_layer(ctx, Tag::Layer(1), 0, &[(1, rows(&[2])), (2, rows(&[3]))])
        });
        assert_eq!(env.snapshot().direct_punches, 2);
        assert_eq!(ch.stats().snapshot().direct_punches, 2);
        assert_eq!(ch.stats().snapshot().direct_msgs, 4);
    }

    #[test]
    fn transient_punch_fault_is_retried() {
        let env = CloudEnv::new(CloudConfig::deterministic(24));
        env.faults()
            .inject(TargetedFault::first(ApiClass::DirectPunch, ""));
        let ch = bind::<DirectCarrier>(&env, 2, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[5]))])
        });
        let snap = env.snapshot();
        assert_eq!(snap.direct_punch_failures, 1);
        assert_eq!(snap.direct_punches, 1);
        assert!(ch.stats().snapshot().retries >= 1);
    }

    #[test]
    fn permanent_punch_fault_errors_cleanly() {
        let env = CloudEnv::new(CloudConfig::deterministic(25));
        env.faults()
            .inject(TargetedFault::first(ApiClass::DirectPunch, "").permanent());
        let ch = bind::<DirectCarrier>(&env, 2, ChannelOptions::default());
        let err = with_ctx(env.clone(), move |ctx| {
            Ok(ch.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[5]))]))
        })
        .expect_err("permanent punch failure must surface");
        assert!(matches!(err, FaasError::Comm { .. }), "got {err:?}");
    }

    #[test]
    fn teardown_leaves_no_residue() {
        let env = CloudEnv::new(CloudConfig::deterministic(26));
        let ch = bind::<DirectCarrier>(&env, 3, ChannelOptions::default());
        let ch2 = ch.clone();
        with_ctx(env.clone(), move |ctx| {
            ch2.send_layer(ctx, Tag::Layer(0), 0, &[(1, rows(&[0])), (2, rows(&[1]))])
        });
        assert!(env.direct().connection_count() > 0);
        ch.teardown();
        // Flow 0 bills the unattributed window, which is never tracked.
        assert_eq!(env.residue_report(), Vec::<String>::new());
    }
}
