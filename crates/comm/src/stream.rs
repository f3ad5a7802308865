//! λScale-style weight multicast down the launch cascade.
//!
//! On a cold tree launch every worker used to fetch its weight partition
//! from object storage independently. λScale ("λScale: Enabling Fast
//! Scaling for Serverless Large Language Model Inference") shows the
//! faster shape: the first instance fetches once and *multicasts* model
//! state down the scaling tree while loading its own partition. The
//! launch cascade (`fsd_faas::launch::children_of`) is already that tree;
//! this module is the fabric the weight blocks ride on.
//!
//! The model mirrors `crate::direct` — both are policies over the one
//! `crate::mailbox` fabric: frames move at direct-exchange
//! bandwidth with **zero per-frame API cost**, are stamped with the
//! sender's virtual clock after the transfer (so forwarded bytes are
//! billed — as [`crate::meter::MeterSnapshot::weight_bytes`] — to the
//! *forwarding* flow's lane, and chaos replays stay bit-identical under
//! any thread interleaving), and the receive path is a free, untimed
//! [`WeightNet::fetch`] whose timing is settled later by
//! observing the per-frame stamps — which is exactly what makes λScale's
//! execute-while-load expressible: a worker's clock only waits for the
//! layers it actually touches.
//!
//! Frames are addressed hop-by-hop: a mailbox is keyed `(flow, hop)` and
//! each frame names its final destination rank, so an interior worker of
//! a deep tree keeps its own blocks and relays the rest toward their
//! destination on its own lane. A hop is whatever number the caller
//! gives its receiver; a caller running several trees on one flow gives
//! each tree its own hops. [`ApiClass::WeightStream`] faults
//! intercept block sends; a faulted send kills the stream below that hop
//! (the sender emits [`WeightPayload::Abort`] and every descendant falls
//! back to an independent load).

use crate::env::Region;
use crate::fault::ApiClass;
use crate::mailbox::Mailbox;
use crate::message::CommError;
use crate::time::{VClock, VirtualTime};
use std::sync::Arc;

/// Payload of one weight-stream frame.
#[derive(Clone)]
pub enum WeightPayload {
    /// One encoded weight block — an artifact object, byte-identical to
    /// what object storage holds, so streamed decodes match independent
    /// loads bit for bit.
    Block {
        /// Artifact object key the block decodes as.
        key: String,
        /// Encoded bytes.
        body: Arc<[u8]>,
    },
    /// The sender has forwarded every block for the receiver's subtree.
    End,
    /// The stream died mid-flight; the receiver's subtree must fall back
    /// to independent loads.
    Abort,
}

/// One frame moving down the weight-stream tree.
#[derive(Clone)]
pub struct WeightFrame {
    /// Final destination rank. Relays forward frames whose `dst` is not
    /// their own rank; control frames carry the hop they were sent to.
    pub dst: usize,
    /// Payload.
    pub payload: WeightPayload,
    /// Virtual instant the frame lands in the hop's mailbox.
    pub available_at: VirtualTime,
}

/// The weight-multicast fabric of one region: per-`(flow, hop)` mailboxes
/// of in-flight weight frames.
pub struct WeightNet {
    mailboxes: Mailbox<(u64, usize), WeightFrame>,
    region: Region,
}

impl WeightNet {
    pub(crate) fn new(region: Region) -> WeightNet {
        WeightNet {
            mailboxes: Mailbox::new(),
            region,
        }
    }

    /// Sends one weight block to `hop`, addressed to `dst`, on the
    /// caller's lane clock. The transfer elapses at direct-exchange
    /// bandwidth whether or not it succeeds; on success the frame is
    /// stamped with the sender's clock and the bytes are attributed to
    /// the sender's (forwarding) flow. [`ApiClass::WeightStream`] faults
    /// surface here — a failed send delivers nothing.
    pub fn send_block(
        &self,
        clock: &mut VClock,
        hop: usize,
        dst: usize,
        key: &str,
        body: Arc<[u8]>,
    ) -> Result<(), CommError> {
        let flow = clock.flow();
        let region = &self.region;
        let fault = region
            .faults
            .check(ApiClass::WeightStream, flow, clock.now(), key);
        clock.advance_micros(region.latency.direct_send_total_us(body.len()));
        if let Some(kind) = fault {
            return Err(kind.to_error(format!("weight-stream:{key}")));
        }
        let bytes = body.len() as u64;
        let key = key.to_string();
        self.post(clock, hop, dst, WeightPayload::Block { key, body }, bytes);
        Ok(())
    }

    /// Lands one frame in `hop`'s mailbox, stamped with the sender's clock
    /// and metered to the sender's flow.
    fn post(&self, clock: &VClock, hop: usize, dst: usize, payload: WeightPayload, bytes: u64) {
        let flow = clock.flow();
        self.region.meter.record_weight_send(flow, 1, bytes);
        let available_at = clock.now();
        self.mailboxes.post(
            (flow, hop),
            WeightFrame {
                dst,
                payload,
                available_at,
            },
        );
    }

    /// Marks `hop`'s stream complete: every block for its subtree has
    /// been forwarded. Control frames are never faulted — the stream's
    /// outcome must reach the receiver either way.
    pub fn send_end(&self, clock: &mut VClock, hop: usize) {
        self.send_control(clock, hop, WeightPayload::End);
    }

    /// Aborts `hop`'s stream: the receiver (and its whole subtree) must
    /// fall back to an independent load.
    pub fn send_abort(&self, clock: &mut VClock, hop: usize) {
        self.send_control(clock, hop, WeightPayload::Abort);
    }

    fn send_control(&self, clock: &mut VClock, hop: usize, payload: WeightPayload) {
        clock.advance_micros(self.region.latency.direct_latency_us);
        self.post(clock, hop, hop, payload, 0);
    }

    /// Raw mailbox read for the deterministic receive path: waits while
    /// no more than `known` frames sit under `(flow, hop)` and the caller
    /// is not aborted, then returns every frame — no clock movement. The
    /// receiver settles timing lazily by observing frame stamps as the
    /// blocks are actually decoded (execute-while-load).
    pub fn fetch(&self, flow: u64, hop: usize, known: usize) -> Vec<WeightFrame> {
        self.mailboxes.fetch(&(flow, hop), known)
    }

    /// Wakes every receiver parked in [`WeightNet::fetch`].
    pub(crate) fn wake_receivers(&self) {
        self.mailboxes.wake_receivers();
    }

    /// Tears down one hop's mailbox (the receiver calls this once its
    /// stream has ended — each hop has exactly one receiver, so a drained
    /// mailbox is dead weight). Returns the number of frames dropped.
    pub fn close_hop(&self, flow: u64, hop: usize) -> usize {
        self.mailboxes.close(|&key| key == (flow, hop))
    }

    /// Tears down every mailbox the flow holds. Returns the number of
    /// frames dropped.
    pub fn close_flow(&self, flow: u64) -> usize {
        self.mailboxes.close(|&(f, _)| f == flow)
    }

    /// Undrained frames across all flows (residue audit).
    pub fn undrained_frames(&self) -> usize {
        self.mailboxes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TargetedFault;
    use crate::mailbox::on_aborted_thread;

    fn net() -> WeightNet {
        WeightNet::new(Region::deterministic())
    }

    #[test]
    fn block_send_bills_the_forwarding_flow_and_stamps() {
        let n = net();
        let mut clock = VClock::default().with_flow(7);
        n.send_block(
            &mut clock,
            1,
            3,
            "model/p4/w3/L0",
            Arc::from(&b"weights"[..]),
        )
        .expect("send");
        let snap = n.region.meter.snapshot();
        assert_eq!(snap.weight_frames, 1);
        assert_eq!(snap.weight_bytes, 7);
        assert_eq!(n.region.meter.flow_snapshot(7).weight_bytes, 7);
        assert_eq!(
            clock.now().as_micros(),
            n.region.latency.direct_send_total_us(7),
            "transfer elapses on the sender's lane"
        );
        let frames = n.fetch(7, 1, 0);
        assert_eq!(frames.len(), 1);
        // Mailboxes are keyed by (flow, hop), not by destination rank: an
        // aborted receiver gets the other boxes back empty.
        assert!(on_aborted_thread(|| n.fetch(7, 3, 0)).is_empty());
        assert!(on_aborted_thread(|| n.fetch(8, 1, 0)).is_empty());
        assert_eq!(frames[0].dst, 3);
        assert_eq!(frames[0].available_at, clock.now());
        match &frames[0].payload {
            WeightPayload::Block { key, body } => {
                assert_eq!(key, "model/p4/w3/L0");
                assert_eq!(&body[..], b"weights");
            }
            _ => panic!("expected a block"),
        }
        n.region.meter.release_flow(7);
    }

    #[test]
    fn control_frames_are_free_of_bytes_but_counted() {
        let n = net();
        let mut clock = VClock::default().with_flow(2);
        n.send_end(&mut clock, 5);
        n.send_abort(&mut clock, 5);
        let snap = n.region.meter.snapshot();
        assert_eq!(snap.weight_frames, 2);
        assert_eq!(snap.weight_bytes, 0);
        let frames = n.fetch(2, 5, 1);
        assert_eq!(frames.len(), 2);
        assert!(matches!(frames[0].payload, WeightPayload::End));
        assert!(matches!(frames[1].payload, WeightPayload::Abort));
        assert_eq!(frames[0].dst, 5, "control frames address the hop itself");
    }

    #[test]
    fn injected_fault_elapses_but_delivers_and_bills_nothing() {
        let n = net();
        n.region
            .faults
            .inject(TargetedFault::first(ApiClass::WeightStream, "w2/L1"));
        let mut clock = VClock::default().with_flow(9);
        let err = n
            .send_block(&mut clock, 2, 2, "model/p4/w2/L1", Arc::from(&b"x"[..]))
            .expect_err("injected stream fault");
        assert!(err.is_retryable());
        assert!(clock.now() > VirtualTime::ZERO, "failed transfer elapses");
        assert_eq!(n.region.meter.snapshot().weight_frames, 0);
        assert_eq!(n.undrained_frames(), 0);
        // The schedule is one-shot: a later frame moves again.
        n.send_block(&mut clock, 2, 2, "model/p4/w2/L1", Arc::from(&b"x"[..]))
            .expect("retry succeeds");
        assert_eq!(n.undrained_frames(), 1);
        n.region.meter.release_flow(9);
    }

    #[test]
    fn close_flow_drops_only_that_flow() {
        let n = net();
        let mut f1 = VClock::default().with_flow(1);
        let mut f2 = VClock::default().with_flow(2);
        n.send_block(&mut f1, 1, 1, "a", Arc::from(&b"a"[..]))
            .expect("send");
        n.send_end(&mut f2, 1);
        assert_eq!(n.undrained_frames(), 2);
        assert_eq!(n.close_hop(1, 2), 0, "untouched hops drop nothing");
        assert_eq!(n.close_flow(1), 1);
        assert_eq!(n.undrained_frames(), 1);
        assert_eq!(n.close_hop(2, 1), 1, "a drained hop's mailbox dies");
        assert_eq!(n.undrained_frames(), 0);
        n.region.meter.release_flow(1);
        n.region.meter.release_flow(2);
    }
}
