fn bad_retry_over_settle(opts: &Opts, lane: &mut VClock, env: &CloudEnv, q: u32) {
    let (res, retries) = opts.retry.run(lane, |lane| {
        env.queue(q).settle_receives(lane, 2.0, &[])
    });
    let _ = (res, retries);
}

fn bad_retry_over_enqueue(lane: &mut VClock, env: &CloudEnv, q: u32, m: Message) {
    let (res, _) = RetryPolicy::default().run(lane, |lane| {
        env.queue(q).enqueue(lane.now(), m.clone())
    });
    let _ = res;
}

fn bad_retried_take(cx: &Core, clock: &mut VClock, env: &CloudEnv, q: u32) {
    let msgs = cx.retried(clock, "take", String::new, |_| {
        Ok(env.queue(q).take_visible(10))
    });
    let _ = msgs;
}
