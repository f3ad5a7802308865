// GOOD: drop the guard before blocking; condvar waits consume the guard
// (the lock is released atomically while parked).
pub fn drain(&self) {
    let guard = self.inner.lock();
    let batch = guard.take_batch();
    drop(guard);
    std::thread::sleep(Duration::from_millis(10));
    self.flush(batch);
}

pub fn park(&self) {
    let mut stopped = self.lock.lock();
    while !*stopped {
        let result = self.cvar.wait_timeout(&mut stopped, self.interval);
        if result.timed_out() {
            self.reap();
        }
    }
}

pub fn stamp_then_park(&self, key: Option<u64>) {
    if let Some(key) = key {
        let mut stamped = self.stamped.lock();
        stamped.insert(key);
    }
    self.settle();
    let mut stopped = self.lock.lock();
    while !*stopped {
        self.cvar.wait(&mut stopped);
    }
}
