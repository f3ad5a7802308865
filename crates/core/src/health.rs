//! Per-transport health scoreboard and circuit breaker.
//!
//! The service keeps a rolling error-rate EWMA per *concrete* transport
//! (queue / object / hybrid / direct). When a transport's error rate trips
//! the breaker, [`Variant::Auto`] routing degrades gracefully — direct
//! falls back to hybrid (same payload band, managed services in the path),
//! hybrid falls back to a pure transport, queue and object fall back to
//! each other — until a half-open probe phase observes enough consecutive
//! successes to close the breaker again. Explicitly requested variants are
//! never rerouted: the caller asked for that transport and gets its errors.

use crate::engine::Variant;
use parking_lot::Mutex;

/// EWMA smoothing factor for the per-transport error rate.
const EWMA_ALPHA: f64 = 0.2;
/// Error-rate level that trips a closed breaker.
const TRIP_THRESHOLD: f64 = 0.5;
/// Number of routing consults an open breaker waits before probing; an
/// `Auto` request makes one, where it runs (`FsdService::key_of`).
const OPEN_COOLDOWN: u32 = 4;
/// Consecutive half-open successes required to close the breaker.
const PROBE_SUCCESSES: u32 = 2;

/// Circuit-breaker state of one transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests route normally.
    Closed,
    /// Tripped: `Auto` routing avoids this transport while the cooldown
    /// drains (one tick per `Auto` request routed, whatever fronts it).
    Open,
    /// Probing: traffic is admitted again; enough consecutive successes
    /// close the breaker, any failure re-opens it.
    HalfOpen,
}

#[derive(Debug)]
struct TransportHealth {
    error_rate: f64,
    state: BreakerState,
    /// Remaining consults before an open breaker half-opens.
    cooldown: u32,
    /// Consecutive successes observed while half-open.
    probes: u32,
}

impl Default for TransportHealth {
    fn default() -> Self {
        TransportHealth {
            error_rate: 0.0,
            state: BreakerState::Closed,
            cooldown: 0,
            probes: 0,
        }
    }
}

/// Health snapshot of one transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportHealthSnapshot {
    /// Rolling error-rate EWMA in `[0, 1]`.
    pub error_rate: f64,
    /// Current breaker state.
    pub state: BreakerState,
}

/// Health snapshot of all four concrete transports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Pub-sub/queueing transport.
    pub queue: TransportHealthSnapshot,
    /// Object-storage transport.
    pub object: TransportHealthSnapshot,
    /// Hybrid transport.
    pub hybrid: TransportHealthSnapshot,
    /// Direct-exchange transport.
    pub direct: TransportHealthSnapshot,
}

impl HealthSnapshot {
    /// The snapshot for `variant`, or `None` for Serial/Auto, which carry
    /// no transport health.
    #[cfg(test)]
    fn for_variant(&self, variant: Variant) -> Option<TransportHealthSnapshot> {
        match variant {
            Variant::Queue => Some(self.queue),
            Variant::Object => Some(self.object),
            Variant::Hybrid => Some(self.hybrid),
            Variant::Direct => Some(self.direct),
            Variant::Serial | Variant::Auto => None,
        }
    }
}

/// The service's per-transport scoreboard. Outcome recording and routing
/// consults are cheap (one short mutex each); the board is shared by all
/// requests of a service instance.
#[derive(Debug, Default)]
pub struct HealthBoard {
    slots: [Mutex<TransportHealth>; 4],
}

fn slot_index(variant: Variant) -> Option<usize> {
    match variant {
        Variant::Queue => Some(0),
        Variant::Object => Some(1),
        Variant::Hybrid => Some(2),
        Variant::Direct => Some(3),
        Variant::Serial | Variant::Auto => None,
    }
}

impl HealthBoard {
    /// Fresh board: everything closed and healthy.
    pub fn new() -> HealthBoard {
        HealthBoard::default()
    }

    /// Records the outcome of one request executed over `variant`.
    /// Serial/Auto (no transport) are ignored. `ok = false` means a
    /// communication-layer failure — compute-side errors (OOM, timeout)
    /// say nothing about transport health and must not be recorded.
    pub fn record(&self, variant: Variant, ok: bool) {
        let Some(i) = slot_index(variant) else {
            return;
        };
        let mut h = self.slots[i].lock();
        let err = if ok { 0.0 } else { 1.0 };
        h.error_rate = EWMA_ALPHA * err + (1.0 - EWMA_ALPHA) * h.error_rate;
        match h.state {
            BreakerState::Closed => {
                if h.error_rate > TRIP_THRESHOLD {
                    h.state = BreakerState::Open;
                    h.cooldown = OPEN_COOLDOWN;
                    h.probes = 0;
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    h.probes += 1;
                    if h.probes >= PROBE_SUCCESSES {
                        h.state = BreakerState::Closed;
                        // Forgive the tripping history so one stray error
                        // after recovery does not immediately re-trip.
                        h.error_rate = 0.0;
                    }
                } else {
                    h.state = BreakerState::Open;
                    h.cooldown = OPEN_COOLDOWN;
                    h.probes = 0;
                }
            }
            BreakerState::Open => {}
        }
    }

    /// One routing consult for `variant`: drains an open breaker's cooldown
    /// (transitioning to half-open at zero) and returns the state the
    /// router should act on. Serial/Auto always read as closed.
    fn consult(&self, variant: Variant) -> BreakerState {
        let Some(i) = slot_index(variant) else {
            return BreakerState::Closed;
        };
        let mut h = self.slots[i].lock();
        if h.state == BreakerState::Open {
            h.cooldown = h.cooldown.saturating_sub(1);
            if h.cooldown == 0 {
                h.state = BreakerState::HalfOpen;
                h.probes = 0;
            }
        }
        h.state
    }

    /// Applies graceful degradation to an `Auto`-recommended `variant`:
    /// if its breaker is open, reroute — direct prefers hybrid (the
    /// nearest managed-service band) then the pure transports, hybrid
    /// prefers queue then object, queue and object fall back to each
    /// other. When every fallback is open too, the original
    /// recommendation stands (failing over to an equally broken transport
    /// buys nothing). Serial is never rerouted.
    pub fn degrade(&self, variant: Variant) -> Variant {
        if slot_index(variant).is_none() || self.consult(variant) != BreakerState::Open {
            return variant;
        }
        let fallbacks: &[Variant] = match variant {
            Variant::Direct => &[Variant::Hybrid, Variant::Queue, Variant::Object],
            Variant::Hybrid => &[Variant::Queue, Variant::Object],
            Variant::Queue => &[Variant::Object],
            Variant::Object => &[Variant::Queue],
            Variant::Serial | Variant::Auto => &[],
        };
        for &fb in fallbacks {
            if self.consult(fb) != BreakerState::Open {
                return fb;
            }
        }
        variant
    }

    /// Copies the scoreboard.
    pub fn snapshot(&self) -> HealthSnapshot {
        let snap = |i: usize| {
            let h = self.slots[i].lock();
            TransportHealthSnapshot {
                error_rate: h.error_rate,
                state: h.state,
            }
        };
        HealthSnapshot {
            queue: snap(0),
            object: snap(1),
            hybrid: snap(2),
            direct: snap(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(board: &HealthBoard, v: Variant) {
        for _ in 0..8 {
            board.record(v, false);
        }
        let snap = board.snapshot().for_variant(v).expect("transport variant");
        assert_eq!(snap.state, BreakerState::Open);
    }

    #[test]
    fn healthy_board_changes_nothing() {
        let b = HealthBoard::new();
        for v in [
            Variant::Queue,
            Variant::Object,
            Variant::Hybrid,
            Variant::Direct,
        ] {
            b.record(v, true);
            assert_eq!(b.degrade(v), v);
        }
    }

    #[test]
    fn open_direct_degrades_to_hybrid() {
        let b = HealthBoard::new();
        trip(&b, Variant::Direct);
        assert_eq!(b.degrade(Variant::Direct), Variant::Hybrid);
        trip(&b, Variant::Hybrid);
        trip(&b, Variant::Direct); // re-trip: degrade consults drained it
        assert_eq!(b.degrade(Variant::Direct), Variant::Queue);
    }

    #[test]
    fn repeated_failures_trip_the_breaker() {
        let b = HealthBoard::new();
        b.record(Variant::Queue, false);
        assert_eq!(
            b.snapshot().queue.state,
            BreakerState::Closed,
            "one failure must not trip (EWMA smoothing)"
        );
        trip(&b, Variant::Queue);
    }

    #[test]
    fn open_hybrid_degrades_to_queue_then_object() {
        let b = HealthBoard::new();
        trip(&b, Variant::Hybrid);
        assert_eq!(b.degrade(Variant::Hybrid), Variant::Queue);
        trip(&b, Variant::Queue);
        trip(&b, Variant::Hybrid); // re-trip: degrade consults drained it
        assert_eq!(b.degrade(Variant::Hybrid), Variant::Object);
    }

    #[test]
    fn all_open_keeps_the_original_recommendation() {
        let b = HealthBoard::new();
        trip(&b, Variant::Queue);
        trip(&b, Variant::Object);
        assert_eq!(b.degrade(Variant::Queue), Variant::Queue);
    }

    #[test]
    fn cooldown_half_opens_then_successes_close() {
        let b = HealthBoard::new();
        trip(&b, Variant::Object);
        // Drain the cooldown with routing consults.
        let mut state = b.consult(Variant::Object);
        for _ in 0..OPEN_COOLDOWN {
            state = b.consult(Variant::Object);
        }
        assert_eq!(state, BreakerState::HalfOpen);
        b.record(Variant::Object, true);
        assert_eq!(b.snapshot().object.state, BreakerState::HalfOpen);
        b.record(Variant::Object, true);
        assert_eq!(
            b.snapshot().object.state,
            BreakerState::Closed,
            "enough probe successes close the breaker"
        );
        assert_eq!(b.snapshot().object.error_rate, 0.0);
    }

    #[test]
    fn half_open_failure_reopens() {
        let b = HealthBoard::new();
        trip(&b, Variant::Hybrid);
        for _ in 0..=OPEN_COOLDOWN {
            b.consult(Variant::Hybrid);
        }
        assert_eq!(b.snapshot().hybrid.state, BreakerState::HalfOpen);
        b.record(Variant::Hybrid, false);
        assert_eq!(b.snapshot().hybrid.state, BreakerState::Open);
    }

    #[test]
    fn serial_and_auto_are_ignored() {
        let b = HealthBoard::new();
        for _ in 0..20 {
            b.record(Variant::Serial, false);
            b.record(Variant::Auto, false);
        }
        assert_eq!(b.consult(Variant::Serial), BreakerState::Closed);
        assert_eq!(b.degrade(Variant::Serial), Variant::Serial);
    }
}
