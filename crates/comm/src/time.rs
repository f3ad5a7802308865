//! Virtual time.
//!
//! Cloud latencies are *modeled*, not slept: workers run at full speed on
//! real threads while each carries a [`VClock`] measuring simulated wall
//! time in microseconds. Payloads moving through simulated services carry a
//! [`VirtualTime`] availability stamp; receivers join their clock against it
//! (`clock = max(clock + latency, stamp)`), which is the standard
//! conservative scheme for distributed virtual-time simulation.

use std::fmt;

/// A point in simulated time, in microseconds since the run began.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// Time zero.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// Builds from whole microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> VirtualTime {
        VirtualTime(us)
    }

    /// Builds from (possibly fractional) seconds.
    #[inline]
    pub fn from_secs_f64(s: f64) -> VirtualTime {
        VirtualTime((s * 1_000_000.0).round().max(0.0) as u64)
    }

    /// Microsecond count.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as `f64` (reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Milliseconds as `f64` (reporting).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating addition of a duration in microseconds.
    #[inline]
    pub fn plus_micros(self, us: u64) -> VirtualTime {
        VirtualTime(self.0.saturating_add(us))
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A worker's private simulated clock.
///
/// Besides the time, the clock carries the **flow id** of the request its
/// worker belongs to: every metered service call takes `&mut VClock`, so
/// the flow travels to the billing meters without threading an extra
/// parameter through each call site. Flow `0` means "unattributed" (tests,
/// offline tooling, baselines).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VClock {
    now: VirtualTime,
    flow: u64,
}

impl VClock {
    /// A clock starting at `t` in the unattributed flow.
    pub fn starting_at(t: VirtualTime) -> VClock {
        VClock { now: t, flow: 0 }
    }

    /// The request flow this clock's billable events are attributed to.
    #[inline]
    pub fn flow(&self) -> u64 {
        self.flow
    }

    /// Attributes subsequent billable events to `flow` (the FaaS platform
    /// stamps each worker's clock with its function's flow at launch).
    #[inline]
    pub fn set_flow(&mut self, flow: u64) {
        self.flow = flow;
    }

    /// Builder form of [`VClock::set_flow`] — used when deriving side
    /// clocks (e.g. a channel's modeled sender thread pool) that must keep
    /// billing to the originating request.
    #[inline]
    pub fn with_flow(mut self, flow: u64) -> VClock {
        self.flow = flow;
        self
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Advances by a duration in microseconds.
    #[inline]
    pub fn advance_micros(&mut self, us: u64) {
        self.now = self.now.plus_micros(us);
    }

    /// Advances by fractional seconds (compute-model output).
    #[inline]
    pub fn advance_secs_f64(&mut self, s: f64) {
        self.advance_micros((s * 1_000_000.0).round().max(0.0) as u64);
    }

    /// Joins an observed timestamp: the clock never moves backwards, and
    /// observing a message stamped in the (virtual) future pulls the clock
    /// forward to it — the receiver must have waited at least that long.
    #[inline]
    pub fn observe(&mut self, ts: VirtualTime) {
        if ts > self.now {
            self.now = ts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(VirtualTime::from_micros(1500).as_micros(), 1500);
        assert_eq!(VirtualTime::from_secs_f64(0.0015).as_micros(), 1500);
        assert!((VirtualTime::from_micros(2_500_000).as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn negative_durations_clamp_to_zero() {
        assert_eq!(VirtualTime::from_secs_f64(-1.0), VirtualTime::ZERO);
    }

    #[test]
    fn clock_advances_and_joins() {
        let mut c = VClock::default();
        c.advance_micros(100);
        assert_eq!(c.now().as_micros(), 100);
        c.observe(VirtualTime::from_micros(50)); // past: no-op
        assert_eq!(c.now().as_micros(), 100);
        c.observe(VirtualTime::from_micros(400)); // future: jump forward
        assert_eq!(c.now().as_micros(), 400);
        c.advance_secs_f64(0.001);
        assert_eq!(c.now().as_micros(), 1400);
    }

    #[test]
    fn saturating_addition() {
        let t = VirtualTime(u64::MAX - 1);
        assert_eq!(t.plus_micros(100).as_micros(), u64::MAX);
    }

    #[test]
    fn clock_carries_its_flow() {
        let mut c = VClock::default();
        assert_eq!(c.flow(), 0, "default clock is unattributed");
        c.set_flow(7);
        c.advance_micros(100);
        assert_eq!(c.flow(), 7, "time movement must not lose the flow");
        assert_eq!(VClock::starting_at(VirtualTime::from_micros(5)).flow(), 0);
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(VirtualTime::from_micros(1500).to_string(), "1.500ms");
    }
}
