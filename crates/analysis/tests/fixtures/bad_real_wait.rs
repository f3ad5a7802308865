fn bad_second_grace(cond: &Condvar, guard: &mut MutexGuard<'_, State>) {
    // A private real-time wait next to the shared one.
    cond.wait_for(guard, Duration::from_millis(2));
}

fn bad_backoff() {
    std::thread::sleep(Duration::from_millis(1));
}

fn bad_deadline() -> Instant {
    Instant::now() + Duration::from_millis(150)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_sleep() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
