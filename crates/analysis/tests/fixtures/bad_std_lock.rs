use std::sync::{Arc, Mutex};
use std::sync::{atomic::AtomicBool, Condvar, RwLock as Lock};

struct Slots {
    controls: std::sync::Mutex<Vec<u32>>,
}

#[cfg(test)]
mod tests {
    use std::sync::{Barrier, Mutex};

    #[test]
    fn tests_may_use_std_locks() {
        let _ = (Barrier::new(1), Mutex::new(0));
    }
}
