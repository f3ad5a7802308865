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
//! receive path mirrors the object store's deterministic split — a free
//! real-time-grace [`DirectNet::fetch`], then [`DirectNet::settle_recv`]
//! joins the receiver's clock against the stamps — so billing (here:
//! byte/message accounting only) and timing never depend on real-thread
//! scheduling.

use crate::fault::{ApiClass, FaultPlane};
use crate::grace::wait_for_producers;
use crate::latency::{Jitter, LatencyModel};
use crate::message::CommError;
use crate::meter::ServiceMeter;
use crate::time::{VClock, VirtualTime};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
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

#[derive(Default)]
struct NetState {
    /// Punched outbound connections, keyed `(flow, src, dst)`. Directed:
    /// each endpoint runs its *own* hole punch through the rendezvous, so
    /// who pays a handshake (and which clock the fault plane draws
    /// against) is a pure function of the sender's lane — never of which
    /// of two concurrent workers reached a shared pair first.
    connections: HashSet<(u64, usize, usize)>,
    /// Undrained frames, keyed `(flow, receiver, tag)`. Frames persist
    /// until [`DirectNet::close_flow`] — receivers track how many they
    /// have consumed, exactly like object-channel prefix scans.
    mailboxes: HashMap<(u64, usize, String), Vec<DirectFrame>>,
}

/// The direct-exchange fabric of one region: punched connections and
/// per-(flow, receiver, tag) mailboxes.
pub struct DirectNet {
    state: Mutex<NetState>,
    cond: Condvar,
    meter: Arc<ServiceMeter>,
    latency: LatencyModel,
    jitter: Arc<Jitter>,
    faults: Arc<FaultPlane>,
}

impl DirectNet {
    pub(crate) fn new(
        meter: Arc<ServiceMeter>,
        latency: LatencyModel,
        jitter: Arc<Jitter>,
        faults: Arc<FaultPlane>,
    ) -> DirectNet {
        DirectNet {
            state: Mutex::new(NetState::default()),
            cond: Condvar::new(),
            meter,
            latency,
            jitter,
            faults,
        }
    }

    /// Establishes `src`'s outbound punched connection to `dst` for the
    /// caller's flow (idempotent; an existing connection is free). The
    /// handshake round trip elapses whether or not it succeeds — the
    /// rendezvous relay does its work either way — and failed punches are
    /// what the fault plane injects under [`ApiClass::DirectPunch`].
    pub fn punch(&self, clock: &mut VClock, src: usize, dst: usize) -> Result<(), CommError> {
        let flow = clock.flow();
        let key = (flow, src, dst);
        if self.state.lock().connections.contains(&key) {
            return Ok(());
        }
        let resource = format!("f{flow}/{src}-{dst}");
        let dur = self.jitter.apply(self.latency.direct_punch_us);
        if let Some(kind) = self
            .faults
            .check(ApiClass::DirectPunch, flow, clock.now(), &resource)
        {
            self.meter.record_direct_punch(flow, false);
            clock.advance_micros(dur);
            return Err(kind.to_error(format!("direct:punch {resource}")));
        }
        clock.advance_micros(dur);
        self.meter.record_direct_punch(flow, true);
        self.state.lock().connections.insert(key);
        Ok(())
    }

    /// Whether `src`'s outbound connection to `dst` is punched for `flow`.
    pub fn is_connected(&self, flow: u64, src: usize, dst: usize) -> bool {
        self.state.lock().connections.contains(&(flow, src, dst))
    }

    /// Sends one frame from `src` to `dst` under `tag`, punching the
    /// outbound connection first if needed (the first send in a direction
    /// pays the handshake; a retried send re-attempts the punch). The
    /// frame is stamped with
    /// the sender's clock after the transfer — unlike the managed
    /// services there is no billed API call, only bytes on the wire.
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
        clock.advance_micros(
            self.jitter
                .apply(self.latency.direct_send_total_us(body.len())),
        );
        let flow = clock.flow();
        self.meter.record_direct_send(flow, 1, body.len() as u64);
        let frame = DirectFrame {
            src,
            body,
            available_at: clock.now(),
        };
        self.state
            .lock()
            .mailboxes
            .entry((flow, dst, tag.to_string()))
            .or_default()
            .push(frame);
        self.cond.notify_all();
        Ok(())
    }

    /// Raw mailbox read for the deterministic receive path: blocks briefly
    /// in *real* time while no more than `known` frames sit under
    /// `(flow, dst, tag)`, then returns every frame — **no clock movement,
    /// no visibility filter**. The caller later settles timing from the
    /// stamps with [`DirectNet::settle_recv`].
    pub fn fetch(&self, flow: u64, dst: usize, tag: &str, known: usize) -> Vec<DirectFrame> {
        let key = (flow, dst, tag.to_string());
        let mut state = self.state.lock();
        wait_for_producers(&self.cond, &mut state, |s| {
            s.mailboxes.get(&key).map_or(0, Vec::len) > known
        });
        state.mailboxes.get(&key).cloned().unwrap_or_default()
    }

    /// Joins the receiver's clock against frame stamps: a blocked receiver
    /// wakes when the last frame lands, plus one local round trip of
    /// processing. Nothing is billed — receiving over a punched
    /// connection costs no API call.
    pub fn settle_recv(&self, clock: &mut VClock, stamps: &[VirtualTime]) {
        for s in stamps {
            clock.observe(*s);
        }
        clock.advance_micros(self.jitter.apply(self.latency.direct_latency_us));
    }

    /// The liveness escape hatch when a producer has really not shown up
    /// within the real-time grace: one blocking-receive timeout slice
    /// elapses on the receiver's clock (so `receive_all` walks toward its
    /// deadline), again with no billed call.
    pub fn idle_wait(&self, clock: &mut VClock) {
        clock.advance_micros(self.jitter.apply(self.latency.direct_punch_us / 2));
    }

    /// Tears down everything the flow holds: punched connections and
    /// undrained mailboxes. Returns `(connections, frames)` dropped.
    pub fn close_flow(&self, flow: u64) -> (usize, usize) {
        let mut state = self.state.lock();
        let conns_before = state.connections.len();
        state.connections.retain(|&(f, _, _)| f != flow);
        let conns = conns_before - state.connections.len();
        let mut frames = 0usize;
        state.mailboxes.retain(|&(f, _, _), v| {
            if f == flow {
                frames += v.len();
                false
            } else {
                true
            }
        });
        drop(state);
        self.cond.notify_all();
        (conns, frames)
    }

    /// Live punched connections across all flows (residue audit).
    pub fn connection_count(&self) -> usize {
        self.state.lock().connections.len()
    }

    /// Undrained frames across all flows (residue audit).
    pub fn undrained_frames(&self) -> usize {
        self.state.lock().mailboxes.values().map(Vec::len).sum()
    }

    /// Drops all connections and mailboxes (between benchmark
    /// repetitions; never while a request is in flight).
    pub fn reset(&self) {
        let mut state = self.state.lock();
        state.connections.clear();
        state.mailboxes.clear();
        drop(state);
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, TargetedFault};

    fn net() -> DirectNet {
        DirectNet::new(
            Arc::new(ServiceMeter::new()),
            LatencyModel::deterministic(),
            Arc::new(Jitter::new(3, 0.0)),
            Arc::new(FaultPlane::disabled()),
        )
    }

    #[test]
    fn punch_is_billed_once_per_direction_and_idempotent() {
        let n = net();
        let mut clock = VClock::default().with_flow(7);
        n.punch(&mut clock, 2, 5).expect("punch");
        let after_first = clock.now();
        assert_eq!(after_first.as_micros(), n.latency.direct_punch_us);
        assert!(n.is_connected(7, 2, 5));
        // Re-punching the same direction is free…
        n.punch(&mut clock, 2, 5).expect("repunch");
        assert_eq!(clock.now(), after_first);
        assert_eq!(n.meter.snapshot().direct_punches, 1);
        assert_eq!(n.connection_count(), 1);
        // …but the reverse direction is its own outbound hole punch.
        assert!(!n.is_connected(7, 5, 2));
        n.punch(&mut clock, 5, 2).expect("reverse punch");
        assert_eq!(n.meter.snapshot().direct_punches, 2);
        assert_eq!(n.connection_count(), 2);
    }

    #[test]
    fn punch_fault_fails_billed_and_elapsed() {
        let n = DirectNet::new(
            Arc::new(ServiceMeter::new()),
            LatencyModel::deterministic(),
            Arc::new(Jitter::new(3, 0.0)),
            Arc::new(FaultPlane::new(Some(FaultPlan::new(1)))),
        );
        n.faults
            .inject(TargetedFault::first(ApiClass::DirectPunch, "f9/"));
        let mut clock = VClock::default().with_flow(9);
        let err = n.punch(&mut clock, 0, 1).expect_err("injected punch fault");
        assert!(err.is_retryable());
        assert_eq!(clock.now().as_micros(), n.latency.direct_punch_us);
        assert_eq!(n.meter.snapshot().direct_punch_failures, 1);
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
        let snap = n.meter.snapshot();
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
        assert_eq!(n.meter.snapshot().direct_punches, 1);
        n.send(&mut clock, 2, 1, "L1", &b"y"[..]).expect("send");
        assert_eq!(n.meter.snapshot().direct_punches, 2);
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
            VirtualTime::from_secs_f64(100.0).as_micros() + n.latency.direct_latency_us
        );
    }

    #[test]
    fn idle_wait_moves_the_clock() {
        let n = net();
        let mut clock = VClock::default();
        n.idle_wait(&mut clock);
        assert!(clock.now() > VirtualTime::ZERO);
    }

    #[test]
    fn fetch_honors_known_and_returns_everything() {
        let n = net();
        let mut clock = VClock::default().with_flow(2);
        n.send(&mut clock, 0, 3, "L5", &b"a"[..]).expect("send");
        n.send(&mut clock, 1, 3, "L5", &b"b"[..]).expect("send");
        // known=2: nothing new — returns after the grace with both frames.
        let frames = n.fetch(2, 3, "L5", 2);
        assert_eq!(frames.len(), 2);
        // Other tags and receivers are isolated.
        assert!(n.fetch(2, 3, "L6", 0).is_empty());
        assert!(n.fetch(2, 4, "L5", 0).is_empty());
    }

    #[test]
    fn concurrent_senders_wake_a_fetching_receiver() {
        let n = Arc::new(net());
        let reader = {
            let n = n.clone();
            std::thread::spawn(move || n.fetch(1, 9, "L0", 1))
        };
        let mut handles = Vec::new();
        for src in 0..2usize {
            let n = n.clone();
            handles.push(std::thread::spawn(move || {
                let mut clock = VClock::default().with_flow(1);
                n.send(&mut clock, src, 9, "L0", &b"z"[..]).expect("send");
            }));
        }
        for h in handles {
            h.join().expect("sender");
        }
        let frames = reader.join().expect("reader");
        assert_eq!(frames.len(), 2);
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
        n.reset();
        assert_eq!(n.connection_count() + n.undrained_frames(), 0);
    }
}
