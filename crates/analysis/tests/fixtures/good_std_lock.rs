use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{mpsc::SyncSender, Arc};

// Channels and atomics are not locks, and neither is a std::sync::Mutex
// named in a comment or a string.
const NAME: &str = "std::sync::Mutex";

struct Slots {
    controls: Mutex<Vec<Option<Receiver<u32>>>>,
    flag: Arc<AtomicBool>,
}
