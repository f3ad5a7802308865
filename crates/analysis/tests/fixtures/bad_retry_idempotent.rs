fn bad_retry_over_receive(opts: &Opts, lane: &mut VClock, env: &CloudEnv, q: u32) {
    let (res, retries) = opts.retry.run(lane, |lane| {
        env.queue(q).poll(lane, PollKind::Short)
    });
    let _ = (res, retries);
}

fn bad_retry_over_delete(lane: &mut VClock, env: &CloudEnv, q: u32, handles: Vec<u64>) {
    let (res, _) = RetryPolicy::default().run(lane, |lane| {
        env.queue(q).delete_batch(lane, &handles)
    });
    let _ = res;
}

fn bad_retried_take(cx: &Core, clock: &mut VClock, env: &CloudEnv, q: u32) {
    let msgs = cx.retried(clock, "take", String::new, |_| {
        Ok(env.queue(q).take_visible(10))
    });
    let _ = msgs;
}
