//! The one real-time wait of the simulated services.
//!
//! Workers are OS threads, so a raw receive (`SqsQueue::take_visible`,
//! `ObjectStore::scan_keys`, `DirectNet::fetch`, `WeightNet::fetch`) may
//! run before its producer thread has. Each of them blocks here, in *real*
//! time, until the producer shows up or the grace elapses. Real time is
//! never load-bearing: every virtual effect is settled later from the
//! stamps, and a receive that comes back empty-handed after the grace only
//! bills one drought round so a stuck run keeps walking toward its virtual
//! timeout.

use parking_lot::{Condvar, MutexGuard};
use std::time::{Duration, Instant};

/// How long a raw receive waits for producer threads before handing back
/// whatever is there.
pub(crate) const PRODUCER_GRACE: Duration = Duration::from_millis(150);

/// Blocks on `cond` until `ready` holds for the guarded state or
/// [`PRODUCER_GRACE`] has elapsed. Producers notify `cond` on every write.
pub(crate) fn wait_for_producers<T>(
    cond: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    mut ready: impl FnMut(&T) -> bool,
) {
    let deadline = Instant::now() + PRODUCER_GRACE;
    while !ready(guard) {
        let timeout = deadline.saturating_duration_since(Instant::now());
        if timeout.is_zero() {
            break;
        }
        cond.wait_for(guard, timeout);
    }
}
