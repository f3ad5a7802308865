//! One worker's modelled connection pool.
//!
//! A worker overlaps its service calls: the paper multi-threads message
//! construction and publication, and λScale pipelines a loader's GETs over
//! several connections. Every such path — the channel engine's puts and
//! receive-side GETs, the multicast source's fetches and a launcher's
//! Invokes (`warm::ServeShared::invoke_ranks`: the coordinator's, a
//! cascade parent's children, the control plane's flat launch) — runs
//! through the same [`Lanes`]. One overlapped call does not: a queue
//! receive's `DeleteMessageBatch` calls run one after another on a
//! background clock of their own, joined only when the billing window
//! closes (`fsd_comm::SqsQueue::settle_receives`).
//!
//! A pool is [`LANES`] virtual clocks forked from the caller's clock. A
//! call takes the earliest-free lane (lowest index on ties) and advances
//! only that lane; the caller then observes the lane it waits for, or
//! [`Lanes::slowest`] at a join.
//!
//! Lanes are clocks only — no thread, no allocation — so overlapping
//! calls changes when things happen in virtual time, never what is sent,
//! read or billed.

use fsd_comm::{VClock, VirtualTime};

/// Concurrent connections one worker keeps to the cloud services.
pub const LANES: usize = 8;

/// [`LANES`] lane clocks, each carrying the forking clock's flow so the
/// calls made on it bill to the caller's request.
pub(crate) struct Lanes([VClock; LANES]);

impl Lanes {
    /// Every lane free at `clock`'s instant, in `clock`'s flow.
    pub(crate) fn fork(clock: &VClock) -> Lanes {
        Lanes([*clock; LANES])
    }

    /// The earliest-free lane, lowest index on ties.
    pub(crate) fn next(&mut self) -> &mut VClock {
        // `min_by_key` returns the first of several equal minima.
        let free = self.0.iter_mut().min_by_key(|lane| lane.now());
        free.expect("LANES > 0")
    }

    /// The instant the last lane is free: where a join lands.
    pub(crate) fn slowest(&self) -> VirtualTime {
        self.0.iter().map(VClock::now).max().expect("LANES > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_take_the_earliest_free_lane_lowest_index_first() {
        let mut lanes = Lanes::fork(&VClock::starting_at(VirtualTime(10)).with_flow(7));
        // Eight calls of falling length fill the lanes in index order.
        for i in 0..LANES as u64 {
            let lane = lanes.next();
            assert_eq!((lane.now(), lane.flow()), (VirtualTime(10), 7));
            lane.advance_micros(200 - i);
        }
        assert_eq!(lanes.slowest(), VirtualTime(210));
        // The ninth rides lane 7, the first to come free, not lane 0; the
        // tenth then rides lane 6.
        let ninth = lanes.next();
        assert_eq!(ninth.now(), VirtualTime(10 + 200 - 7));
        ninth.advance_micros(5);
        assert_eq!(lanes.next().now(), VirtualTime(10 + 200 - 6));
        // A call that moves no clock leaves its lane the earliest free.
        let mut idle = Lanes::fork(&VClock::default());
        idle.next().advance_micros(0);
        idle.next().advance_micros(5);
        assert_eq!(idle.next().now(), VirtualTime::ZERO);
        assert_eq!(idle.slowest(), VirtualTime(5));
    }
}
