fn good_retry_over_put(opts: &Opts, lane: &mut VClock, store: &ObjectStore, key: &str) {
    // Re-PUT of the same key is idempotent: a retried attempt overwrites
    // its own partial effect.
    let (res, retries) = opts.retry.run(lane, |lane| {
        store.put(lane, "b", key, vec![1, 2, 3])
    });
    let _ = (res, retries);
}

fn good_receive_outside_policy(lane: &mut VClock, env: &CloudEnv, q: u32) {
    // Consuming receives are fine outside a retry closure.
    let msgs = env.queue(q).take_visible(10);
    let _ = msgs;
}

fn good_retried_get(cx: &Core, clock: &mut VClock, store: &ObjectStore, key: &str) {
    // A GET is a pure read: safe under the engine's retry wrapper.
    let body = cx.retried(clock, "get", || key.to_string(), |clock| {
        store.get("b", key, clock)
    });
    let _ = body;
}

fn good_unrelated_run(runner: &Runner, lane: &mut VClock) {
    // `.run(` on a non-retry receiver is not the policy's run.
    let out = runner.run(lane, |lane| lane.tick());
    let _ = out;
}
