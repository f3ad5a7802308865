//! The stamped-frame mailbox, and the one fabric wait of the crate.
//!
//! Workers are OS threads, so a raw receive (`SqsQueue::take_visible`,
//! `ObjectStore::scan_keys`, `DirectNet::fetch`, `WeightNet::fetch`) may
//! run before its producer thread has. Each of them parks in
//! [`wait_for_producers`], untimed, until the producer shows up or the
//! calling thread's abort flag ([`install_abort`]) is raised. The wait
//! never reaches a bill or a clock: every virtual effect is settled later
//! from the stamps, and an aborted receive that comes back empty-handed
//! bills nothing — its caller fails its next limit check. Every expected
//! producer either posts or fails, a failure poisons its tree, and raising
//! the poison wakes every fabric wait of the region
//! ([`crate::CloudEnv::wake_receivers`]), so the wait always ends.
//!
//! [`Mailbox`] is the fabric FMI-style direct exchange and λScale-style
//! weight multicast share: a sender stamps a frame with its virtual clock
//! and [`Mailbox::post`]s it under the receiver's key; the receiver
//! [`Mailbox::fetch`]es every frame under its key and settles timing from
//! the stamps. Frames persist until [`Mailbox::close`] — receivers track
//! how many they have consumed, like object-channel prefix scans.
//! `DirectNet` and `WeightNet` add only what a send bills and which sends
//! the fault plane intercepts.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

thread_local! {
    /// The abort flag of the function instance running on this thread.
    static ABORT: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// Installs `flag` as the calling thread's abort flag: once it is raised
/// and the region's receivers are woken, every raw receive on this thread
/// returns what is there instead of waiting. A function instance is one
/// thread, so `fsd_faas::WorkerCtx::set_abort` installs its tree's poison
/// here; a thread that installs nothing waits until its producer posts.
pub fn install_abort(flag: Arc<AtomicBool>) {
    ABORT.with(|abort| *abort.borrow_mut() = Some(flag));
}

/// Whether the calling thread's abort flag is raised.
fn aborted() -> bool {
    ABORT.with(|abort| {
        let abort = abort.borrow();
        abort
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Acquire))
    })
}

/// Blocks on `cond` until `ready` holds for the guarded state or the
/// calling thread is aborted. Producers notify `cond` on every write, and
/// [`wake_parked`] on every abort.
pub(crate) fn wait_for_producers<T>(
    cond: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    mut ready: impl FnMut(&T) -> bool,
) {
    while !ready(guard) && !aborted() {
        cond.wait(guard);
    }
}

/// Wakes every receiver parked on `cond` so it re-reads its abort flag.
/// Taking `lock` first is what makes this safe after the flag was raised:
/// a receiver that read the flag as clear holds `lock` until `cond.wait`
/// releases it, so it is parked before this notify runs and cannot miss it.
pub(crate) fn wake_parked<T>(lock: &Mutex<T>, cond: &Condvar) {
    let _parked = lock.lock();
    cond.notify_all();
}

/// Per-key boxes of undrained frames, in posting order.
pub(crate) struct Mailbox<K, F> {
    boxes: Mutex<HashMap<K, Vec<F>>>,
    cond: Condvar,
}

impl<K: Hash + Eq, F: Clone> Mailbox<K, F> {
    pub(crate) fn new() -> Mailbox<K, F> {
        Mailbox {
            boxes: Mutex::new(HashMap::new()),
            cond: Condvar::new(),
        }
    }

    /// Appends `frame` to the box under `key` and wakes waiting receivers.
    pub(crate) fn post(&self, key: K, frame: F) {
        self.boxes.lock().entry(key).or_default().push(frame);
        self.cond.notify_all();
    }

    /// Raw read for the deterministic receive path: waits while no more
    /// than `known` frames sit under `key` and the caller is not aborted,
    /// then returns **every** frame under it — `known` only gates the wait.
    pub(crate) fn fetch(&self, key: &K, known: usize) -> Vec<F> {
        let mut boxes = self.boxes.lock();
        wait_for_producers(&self.cond, &mut boxes, |b| {
            b.get(key).map_or(0, Vec::len) > known
        });
        boxes.get(key).cloned().unwrap_or_default()
    }

    /// Wakes every receiver parked in [`Mailbox::fetch`].
    pub(crate) fn wake_receivers(&self) {
        wake_parked(&self.boxes, &self.cond);
    }

    /// Drops every box whose key satisfies `closing`. Returns the number
    /// of frames dropped.
    pub(crate) fn close(&self, closing: impl Fn(&K) -> bool) -> usize {
        let mut frames = 0usize;
        self.boxes.lock().retain(|key, frames_of| {
            let close = closing(key);
            if close {
                frames += frames_of.len();
            }
            !close
        });
        frames
    }

    /// Undrained frames across all boxes (residue audit).
    pub(crate) fn len(&self) -> usize {
        self.boxes.lock().values().map(Vec::len).sum()
    }
}

/// Runs `body` on a fresh thread whose abort flag is already raised, so
/// every raw receive in it returns what is there without waiting.
#[cfg(test)]
pub(crate) fn on_aborted_thread<T: Send>(body: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        let aborted = s.spawn(|| {
            install_abort(Arc::new(AtomicBool::new(true)));
            body()
        });
        aborted.join().expect("aborted receiver")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn fetch_returns_every_frame_and_known_only_gates_the_wait() {
        let m: Mailbox<(u64, usize), u32> = Mailbox::new();
        m.post((2, 3), 10);
        m.post((2, 3), 11);
        assert_eq!(m.fetch(&(2, 3), 0), vec![10, 11]);
        assert_eq!(m.fetch(&(2, 3), 1), vec![10, 11]);
        // An aborted receiver does not wait: with nothing new (known = 2)
        // it still gets both frames, and other keys stay isolated.
        on_aborted_thread(|| {
            assert_eq!(m.fetch(&(2, 3), 2), vec![10, 11]);
            assert!(m.fetch(&(2, 4), 0).is_empty());
            assert!(m.fetch(&(3, 3), 0).is_empty());
        });
    }

    #[test]
    fn a_post_wakes_a_fetching_receiver() {
        let m: Arc<Mailbox<u8, u32>> = Arc::new(Mailbox::new());
        m.post(9, 0);
        // The reader already knows one frame, so it can only come back
        // with two if the concurrent post reached it — before its fetch,
        // or by waking it out of the wait.
        let reader = {
            let m = m.clone();
            std::thread::spawn(move || m.fetch(&9, 1))
        };
        m.post(9, 1);
        assert_eq!(reader.join().expect("reader"), vec![0, 1]);
    }

    #[test]
    fn a_receiver_that_blocks_first_gets_a_late_frame_from_one_fetch() {
        // However late in real time the producer runs, a single fetch
        // waits for it instead of handing back an empty round.
        let m: Arc<Mailbox<u8, u32>> = Arc::new(Mailbox::new());
        let reader = {
            let m = m.clone();
            std::thread::spawn(move || m.fetch(&4, 0))
        };
        std::thread::sleep(Duration::from_millis(400));
        m.post(4, 7);
        assert_eq!(reader.join().expect("reader"), vec![7]);
    }

    #[test]
    fn interleaved_posts_arrive_per_sender_in_order() {
        const SENDERS: u32 = 4;
        const EACH: u32 = 50;
        let m: Arc<Mailbox<u8, (u32, u32)>> = Arc::new(Mailbox::new());
        let start = Arc::new(Barrier::new(SENDERS as usize));
        let senders: Vec<_> = (0..SENDERS)
            .map(|src| {
                let (m, start) = (m.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for seq in 0..EACH {
                        m.post(0, (src, seq));
                    }
                })
            })
            .collect();
        for s in senders {
            s.join().expect("sender");
        }
        let frames = m.fetch(&0, 0);
        assert_eq!(frames.len(), (SENDERS * EACH) as usize);
        for src in 0..SENDERS {
            let seqs: Vec<u32> = frames.iter().filter(|f| f.0 == src).map(|f| f.1).collect();
            assert_eq!(seqs, (0..EACH).collect::<Vec<u32>>(), "sender {src}");
        }
    }

    #[test]
    fn close_drops_only_matching_boxes_and_counts_their_frames() {
        let m: Mailbox<(u64, usize), u8> = Mailbox::new();
        m.post((1, 0), 0);
        m.post((1, 1), 0);
        m.post((1, 1), 0);
        m.post((2, 0), 0);
        assert_eq!(m.len(), 4);
        assert_eq!(m.close(|k| *k == (1, 7)), 0, "untouched keys drop nothing");
        assert_eq!(m.close(|k| k.0 == 1), 3);
        assert_eq!(m.len(), 1);
        assert_eq!(m.fetch(&(2, 0), 0).len(), 1);
    }
}
