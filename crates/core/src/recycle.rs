//! [`Recycler`]: a service's bounded stock of idle, reusable buffers.

use parking_lot::Mutex;

/// Idle values a service hands out and takes back, so buffers grown by one
/// user are reused by the next instead of being allocated afresh. What
/// stays allocated is bounded by the values in use at once, and at most
/// [`Recycler::MAX_IDLE`] idle ones are kept.
#[derive(Default)]
pub(crate) struct Recycler<T> {
    idle: Mutex<Vec<T>>,
}

impl<T: Default> Recycler<T> {
    /// Idle values kept; one given back beyond that is freed.
    pub(crate) const MAX_IDLE: usize = 16;

    /// An idle value, or a new one.
    pub(crate) fn take(&self) -> T {
        self.idle.lock().pop().unwrap_or_default()
    }

    /// Gives a value back for reuse, or frees it if enough are idle.
    pub(crate) fn give(&self, value: T) {
        let mut idle = self.idle.lock();
        if idle.len() < Self::MAX_IDLE {
            idle.push(value);
        }
    }

    /// Runs `f` on a taken value and gives the value back.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut value = self.take();
        let out = f(&mut value);
        self.give(value);
        out
    }

    /// The idle values (inspection in tests).
    #[cfg(test)]
    pub(crate) fn idle(&self) -> parking_lot::MutexGuard<'_, Vec<T>> {
        self.idle.lock()
    }
}
