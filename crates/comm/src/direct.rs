//! FMI-style direct exchange between workers.
//!
//! FSD-Inf-Direct moves intermediate results over NAT-punched TCP
//! connections between function instances (FMI: "Fast and Cheap Message
//! Passing for Serverless Functions") instead of going through a managed
//! service. The economics are the inverse of SNS/SQS and S3: connection
//! *establishment* costs a hole-punching handshake through a rendezvous
//! (and can fail — functions sit behind NAT), but once punched, frames
//! move at in-region TCP latency with **zero per-message API cost**.
//! Connections are directed — each sender hole-punches its own outbound
//! half — so handshake billing and fault draws depend only on the
//! sender's own clock.
//!
//! The punch is the only step the fault plane intercepts
//! ([`ApiClass::DirectPunch`]); established connections never drop
//! in-model. Frames are stamped with the sender's virtual clock; the
//! receive path is the crate's one protocol — a free, untimed
//! [`DirectNet::fetch`] from the shared `crate::mailbox`, then
//! [`DirectNet::settle_recv`] joins the receiver's clock against the
//! stamps — so billing (here: byte/message accounting only) and timing
//! never depend on real-thread scheduling.

use crate::env::Region;
use crate::fault::ApiClass;
use crate::mailbox::Mailbox;
use crate::message::CommError;
use crate::time::{VClock, VirtualTime};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// One frame delivered over a punched connection.
#[derive(Clone)]
pub struct DirectFrame {
    /// Sending worker id.
    pub src: usize,
    /// Frame body.
    pub body: Arc<[u8]>,
    /// Virtual instant the frame lands in the receiver's mailbox.
    pub available_at: VirtualTime,
}

/// The direct-exchange fabric of one region: punched connections and
/// per-(flow, receiver, tag) mailboxes.
pub struct DirectNet {
    /// Punched outbound connections, keyed `(flow, src, dst)`. Directed:
    /// each endpoint runs its *own* hole punch through the rendezvous, so
    /// who pays a handshake (and which clock the fault plane draws
    /// against) is a pure function of the sender's lane — never of which
    /// of two concurrent workers reached a shared pair first.
    connections: Mutex<HashSet<(u64, usize, usize)>>,
    /// Undrained frames, keyed `(flow, receiver, tag)`.
    mailboxes: Mailbox<(u64, usize, String), DirectFrame>,
    region: Region,
}

impl DirectNet {
    pub(crate) fn new(region: Region) -> DirectNet {
        DirectNet {
            connections: Mutex::new(HashSet::new()),
            mailboxes: Mailbox::new(),
            region,
        }
    }

    /// Establishes `src`'s outbound punched connection to `dst` for the
    /// caller's flow (idempotent; an existing connection is free). The
    /// handshake round trip elapses whether or not it succeeds — the
    /// rendezvous relay does its work either way — and failed punches are
    /// what the fault plane injects under [`ApiClass::DirectPunch`].
    pub fn punch(&self, clock: &mut VClock, src: usize, dst: usize) -> Result<(), CommError> {
        let flow = clock.flow();
        if self.is_connected(flow, src, dst) {
            return Ok(());
        }
        let region = &self.region;
        let resource = format!("f{flow}/{src}-{dst}");
        let fault = region
            .faults
            .check(ApiClass::DirectPunch, flow, clock.now(), &resource);
        region.elapse(clock, region.latency.direct_punch_us);
        region.meter.record_direct_punch(flow, fault.is_none());
        if let Some(kind) = fault {
            return Err(kind.to_error(format!("direct:punch {resource}")));
        }
        self.connections.lock().insert((flow, src, dst));
        Ok(())
    }

    /// Whether `src`'s outbound connection to `dst` is punched for `flow`.
    pub fn is_connected(&self, flow: u64, src: usize, dst: usize) -> bool {
        self.connections.lock().contains(&(flow, src, dst))
    }

    /// Sends one frame from `src` to `dst` under `tag`, punching the
    /// outbound connection first if needed (the first send in a direction
    /// pays the handshake; a retried send re-attempts the punch). The
    /// frame is stamped with the sender's clock after the transfer —
    /// unlike the managed services there is no billed API call, only
    /// bytes on the wire.
    pub fn send(
        &self,
        clock: &mut VClock,
        src: usize,
        dst: usize,
        tag: &str,
        body: impl Into<Arc<[u8]>>,
    ) -> Result<(), CommError> {
        self.punch(clock, src, dst)?;
        let body = body.into();
        let region = &self.region;
        region.elapse(clock, region.latency.direct_send_total_us(body.len()));
        let flow = clock.flow();
        region.meter.record_direct_send(flow, 1, body.len() as u64);
        let frame = DirectFrame {
            src,
            body,
            available_at: clock.now(),
        };
        self.mailboxes.post((flow, dst, tag.to_string()), frame);
        Ok(())
    }

    /// Raw mailbox read for the deterministic receive path: waits while no
    /// more than `known` frames sit under `(flow, dst, tag)` and the caller
    /// is not aborted, then returns every frame — **no clock movement, no
    /// visibility filter**. The caller later settles timing from the
    /// stamps with [`DirectNet::settle_recv`].
    pub fn fetch(&self, flow: u64, dst: usize, tag: &str, known: usize) -> Vec<DirectFrame> {
        self.mailboxes.fetch(&(flow, dst, tag.to_string()), known)
    }

    /// Wakes every receiver parked in [`DirectNet::fetch`].
    pub(crate) fn wake_receivers(&self) {
        self.mailboxes.wake_receivers();
    }

    /// Joins the receiver's clock against frame stamps: a blocked receiver
    /// wakes when the last frame lands, plus one local round trip of
    /// processing. Nothing is billed — receiving over a punched
    /// connection costs no API call.
    pub fn settle_recv(&self, clock: &mut VClock, stamps: &[VirtualTime]) {
        for s in stamps {
            clock.observe(*s);
        }
        self.region
            .elapse(clock, self.region.latency.direct_latency_us);
    }

    /// Tears down everything the flow holds: punched connections and
    /// undrained mailboxes. Returns `(connections, frames)` dropped.
    pub fn close_flow(&self, flow: u64) -> (usize, usize) {
        let mut connections = self.connections.lock();
        let before = connections.len();
        connections.retain(|&(f, _, _)| f != flow);
        let conns = before - connections.len();
        drop(connections);
        (conns, self.mailboxes.close(|&(f, _, _)| f == flow))
    }

    /// Live punched connections across all flows (residue audit).
    pub fn connection_count(&self) -> usize {
        self.connections.lock().len()
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

    fn net() -> DirectNet {
        DirectNet::new(Region::deterministic())
    }

    #[test]
    fn punch_is_billed_once_per_direction_and_idempotent() {
        let n = net();
        let mut clock = VClock::default().with_flow(7);
        n.punch(&mut clock, 2, 5).expect("punch");
        let after_first = clock.now();
        assert_eq!(after_first.as_micros(), n.region.latency.direct_punch_us);
        assert!(n.is_connected(7, 2, 5));
        // Re-punching the same direction is free…
        n.punch(&mut clock, 2, 5).expect("repunch");
        assert_eq!(clock.now(), after_first);
        assert_eq!(n.region.meter.snapshot().direct_punches, 1);
        assert_eq!(n.connection_count(), 1);
        // …but the reverse direction is its own outbound hole punch.
        assert!(!n.is_connected(7, 5, 2));
        n.punch(&mut clock, 5, 2).expect("reverse punch");
        assert_eq!(n.region.meter.snapshot().direct_punches, 2);
        assert_eq!(n.connection_count(), 2);
    }

    #[test]
    fn punch_fault_fails_billed_and_elapsed() {
        let n = net();
        n.region
            .faults
            .inject(TargetedFault::first(ApiClass::DirectPunch, "f9/"));
        let mut clock = VClock::default().with_flow(9);
        let err = n.punch(&mut clock, 0, 1).expect_err("injected punch fault");
        assert!(err.is_retryable());
        assert_eq!(clock.now().as_micros(), n.region.latency.direct_punch_us);
        assert_eq!(n.region.meter.snapshot().direct_punch_failures, 1);
        assert!(!n.is_connected(9, 0, 1));
        // The schedule is one-shot: the retry punches through.
        n.punch(&mut clock, 0, 1).expect("retry succeeds");
        assert!(n.is_connected(9, 0, 1));
    }

    #[test]
    fn send_punches_stamps_and_meters() {
        let n = net();
        let mut clock = VClock::default().with_flow(4);
        n.send(&mut clock, 1, 2, "L0", &b"payload"[..])
            .expect("send");
        let snap = n.region.meter.snapshot();
        assert_eq!(snap.direct_punches, 1);
        assert_eq!(snap.direct_messages, 1);
        assert_eq!(snap.direct_bytes, 7);
        let frames = n.fetch(4, 2, "L0", 0);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].src, 1);
        assert_eq!(&frames[0].body[..], b"payload");
        assert_eq!(frames[0].available_at, clock.now());
        // A second send in the same direction pays no second punch; the
        // reverse direction pays its own.
        n.send(&mut clock, 1, 2, "L1", &b"x"[..]).expect("send");
        assert_eq!(n.region.meter.snapshot().direct_punches, 1);
        n.send(&mut clock, 2, 1, "L1", &b"y"[..]).expect("send");
        assert_eq!(n.region.meter.snapshot().direct_punches, 2);
        // Mailboxes are keyed by (flow, receiver, tag); an aborted receiver
        // gets another flow's box back empty instead of waiting on it.
        assert_eq!(n.fetch(4, 2, "L0", 0).len(), 1);
        assert_eq!(n.fetch(4, 1, "L1", 0).len(), 1);
        assert!(on_aborted_thread(|| n.fetch(5, 2, "L0", 0)).is_empty());
    }

    #[test]
    fn settle_recv_joins_stamps() {
        let n = net();
        let mut sender = VClock::starting_at(VirtualTime::from_secs_f64(2.0)).with_flow(1);
        n.send(&mut sender, 0, 1, "L0", &b"abc"[..]).expect("send");
        let frames = n.fetch(1, 1, "L0", 0);
        let stamps: Vec<VirtualTime> = frames.iter().map(|f| f.available_at).collect();
        let mut receiver = VClock::default().with_flow(1);
        n.settle_recv(&mut receiver, &stamps);
        assert!(receiver.now() >= sender.now());
        // A receiver already past the stamps only pays the local RTT.
        let mut late = VClock::starting_at(VirtualTime::from_secs_f64(100.0)).with_flow(1);
        n.settle_recv(&mut late, &stamps);
        assert_eq!(
            late.now().as_micros(),
            VirtualTime::from_secs_f64(100.0).as_micros() + n.region.latency.direct_latency_us
        );
    }

    #[test]
    fn close_flow_drops_only_that_flow() {
        let n = net();
        let mut f1 = VClock::default().with_flow(1);
        let mut f2 = VClock::default().with_flow(2);
        n.send(&mut f1, 0, 1, "L0", &b"a"[..]).expect("send");
        n.send(&mut f2, 0, 1, "L0", &b"b"[..]).expect("send");
        assert_eq!(n.connection_count(), 2);
        assert_eq!(n.undrained_frames(), 2);
        let (conns, frames) = n.close_flow(1);
        assert_eq!((conns, frames), (1, 1));
        assert_eq!(n.connection_count(), 1);
        assert_eq!(n.undrained_frames(), 1);
        assert!(!n.is_connected(1, 0, 1));
        assert!(n.is_connected(2, 0, 1));
    }
}
