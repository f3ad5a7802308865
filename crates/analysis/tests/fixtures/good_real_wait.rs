use std::time::Instant;

fn good_take(&self, max: usize) -> Vec<QueuedMessage> {
    // The shared fabric wait is untimed: a post or an abort ends it.
    let mut visible = self.visible.lock();
    wait_for_producers(&self.cond, &mut visible, |q| !q.is_empty());
    let n = max.min(visible.len());
    visible.drain(..n).collect()
}

fn good_virtual_time(clock: &mut VClock, region: &Region) {
    // Virtual clocks are not real time.
    clock.advance_micros(region.latency.sqs_poll_us);
    let _ = clock.now();
}
