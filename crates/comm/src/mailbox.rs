//! The stamped-frame mailbox, and the one real-time wait of the crate.
//!
//! Workers are OS threads, so a raw receive (`SqsQueue::take_visible`,
//! `ObjectStore::scan_keys`, `DirectNet::fetch`, `WeightNet::fetch`) may
//! run before its producer thread has. Each of them blocks in
//! [`wait_for_producers`], in *real* time, until the producer shows up or
//! the grace elapses. Real time never reaches a bill or a clock: every
//! virtual effect is settled later from the stamps, and a receive that
//! comes back empty-handed after the grace bills nothing — its caller
//! re-checks its abort flag and asks again. Every expected producer
//! either posts or fails, and a failure poisons its tree, so the wait
//! always ends.
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
use std::collections::HashMap;
use std::hash::Hash;
use std::time::{Duration, Instant};

/// How long a raw receive waits for producer threads before handing back
/// whatever is there — how often a waiting receiver re-checks its abort
/// flag.
const PRODUCER_GRACE: Duration = Duration::from_millis(150);

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

    /// Raw read for the deterministic receive path: blocks briefly in
    /// *real* time while no more than `known` frames sit under `key`, then
    /// returns **every** frame under it — `known` only gates the wait.
    pub(crate) fn fetch(&self, key: &K, known: usize) -> Vec<F> {
        let mut boxes = self.boxes.lock();
        wait_for_producers(&self.cond, &mut boxes, |b| {
            b.get(key).map_or(0, Vec::len) > known
        });
        boxes.get(key).cloned().unwrap_or_default()
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

    /// Drops every box (between benchmark repetitions; never while a
    /// request is in flight).
    pub(crate) fn clear(&self) {
        self.boxes.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn fetch_returns_every_frame_and_known_only_gates_the_wait() {
        let m: Mailbox<(u64, usize), u32> = Mailbox::new();
        m.post((2, 3), 10);
        m.post((2, 3), 11);
        // known=2: nothing new — returns after the grace with both frames.
        assert_eq!(m.fetch(&(2, 3), 2), vec![10, 11]);
        assert_eq!(m.fetch(&(2, 3), 0), vec![10, 11]);
        // Other keys are isolated.
        assert!(m.fetch(&(2, 4), 0).is_empty());
        assert!(m.fetch(&(3, 3), 0).is_empty());
    }

    #[test]
    fn a_post_wakes_a_fetching_receiver() {
        let m: Arc<Mailbox<u8, u32>> = Arc::new(Mailbox::new());
        m.post(9, 0);
        // The reader already knows one frame, so it can only come back
        // with two if the concurrent post reached it — before its fetch,
        // or by waking it out of the grace wait.
        let reader = {
            let m = m.clone();
            std::thread::spawn(move || m.fetch(&9, 1))
        };
        m.post(9, 1);
        assert_eq!(reader.join().expect("reader"), vec![0, 1]);
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
        m.clear();
        assert_eq!(m.len(), 0);
    }
}
