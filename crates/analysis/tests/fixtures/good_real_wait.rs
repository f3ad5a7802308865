use std::time::Instant;

fn good_take(&self, max: usize) -> Vec<QueuedMessage> {
    // The one real-time wait is the shared producer grace.
    let mut visible = self.visible.lock();
    wait_for_producers(&self.cond, &mut visible, |q| !q.is_empty());
    let n = max.min(visible.len());
    visible.drain(..n).collect()
}

fn good_virtual_time(clock: &mut VClock, region: &Region) {
    // Virtual clocks are not real time.
    region.elapse(clock, region.latency.sqs_poll_us);
    let _ = clock.now();
}
