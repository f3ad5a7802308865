//! Predictive pre-warming acceptance: on the seeded bursty trace, a
//! predictor-driven scheduler must land strictly more requests on warm
//! trees than the same pool running purely reactively — and the
//! predictive replay itself must stay bit-identical across runs.
//!
//! Determinism setup: manual dispatch with `global_cap = 1` totally
//! orders every pool mutation. Within an arrival group the driver
//! enqueues (each enqueue feeds the predictor, whose pre-warms launch
//! synchronously on the driver thread) before any admission; between
//! groups the driver harvests the in-flight request — whose tree checkin
//! completes before its result is delivered — before enqueuing more. The
//! warm/cold label of every request is therefore a pure function of
//! `(trace, config)`.

use fsd_inference::core::ServiceBuilder;
use fsd_inference::model::{generate_dnn, DnnSpec};
use fsd_inference::sched::harness::{replay, ReplayReport};
use fsd_inference::sched::{
    trace, Arrival, PredictorConfig, Scheduler, SchedulerBuilder, SchedulerConfig,
};
use std::sync::Arc;

const SEED: u64 = 29;

fn spec() -> DnnSpec {
    DnnSpec {
        neurons: 72,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: SEED,
    }
}

/// The bursty trace both schedulers replay: 3 bursts of 8, carrying four
/// distinct distributed shapes (Queue/Object × P ∈ {1, 2}) per burst.
fn bursty_trace() -> Vec<Arrival> {
    trace::bursty(3, 8, 400_000, SEED)
}

/// A manual-dispatch scheduler over an auto-sized warm pool; `predictive`
/// toggles the predictor, everything else is identical.
fn fresh_scheduler(predictive: bool) -> Scheduler {
    let dnn = Arc::new(generate_dnn(&spec()));
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(SEED)
            .prewarm(1)
            .prewarm(2)
            // Four shapes bursting up to two deep — the predictor's
            // default envelope, sized by the same formula its targets
            // assume.
            .auto_warm_pool(4, 2)
            .build(),
    );
    let mut cfg = SchedulerConfig::default()
        .global_cap(1)
        .queue_capacity(64)
        .manual();
    if predictive {
        // Window of one burst (8 arrivals), so in-window counts equal the
        // burst depth per shape.
        cfg = cfg.predictive(PredictorConfig::default().window(8).max_warm(8));
    }
    SchedulerBuilder::new(cfg).model("m", service).build()
}

fn run(predictive: bool) -> ReplayReport {
    replay(&fresh_scheduler(predictive), "m", &bursty_trace())
}

#[test]
fn predictor_beats_reactive_warm_hit_rate_on_the_bursty_trace() {
    let reactive = run(false);
    let predictive = run(true);

    // Both runs completed everything.
    assert!(reactive.rejected.is_empty());
    assert!(predictive.rejected.is_empty());
    assert_eq!(reactive.stats.failed, 0);
    assert_eq!(predictive.stats.failed, 0);

    // The reactive pool pays at least one cold start per distinct shape
    // (nothing is parked before traffic arrives); the predictor pre-warms
    // each shape at its first in-burst arrival, before admission runs.
    assert!(
        reactive.stats.cold_starts > predictive.stats.cold_starts,
        "reactive cold starts {} must exceed predictive {}",
        reactive.stats.cold_starts,
        predictive.stats.cold_starts
    );
    assert!(
        predictive.stats.warm_hits > reactive.stats.warm_hits,
        "predictive warm hits {} must exceed reactive {} — the \
         acceptance criterion",
        predictive.stats.warm_hits,
        reactive.stats.warm_hits
    );
    assert!(
        predictive.stats.prewarmed > 0,
        "the predictor must actually have pre-warmed trees"
    );
    assert_eq!(
        reactive.stats.prewarmed, 0,
        "the reactive run must not pre-warm"
    );

    // Mean virtual latency drops with the hit rate: warm hits skip the
    // whole launch bill.
    let mean = |r: &ReplayReport| {
        let (sum, n) = r
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .fold((0u64, 0u64), |(s, n), d| (s + d.latency_us, n + 1));
        sum / n.max(1)
    };
    assert!(
        mean(&predictive) < mean(&reactive),
        "predictive mean latency {}µs must beat reactive {}µs",
        mean(&predictive),
        mean(&reactive)
    );
}

#[test]
fn predictive_replays_are_bit_identical() {
    let first = run(true);
    for attempt in 1..3 {
        let again = run(true);
        assert_eq!(
            first.admission_order, again.admission_order,
            "run {attempt}: admission order diverged"
        );
        assert_eq!(
            first.outcomes, again.outcomes,
            "run {attempt}: per-request reports (incl. warm/cold labels) diverged"
        );
        assert_eq!(first, again, "run {attempt}: replay reports diverged");
    }
    // The warm/cold split itself is part of the deterministic contract.
    assert!(first.stats.warm_hits > 0);
    assert!(first.stats.prewarmed > 0);
}

/// Regression (scheduler-hint sweep): the predictor must observe only
/// *admitted* requests. A flood that overflows the bounded queues used to
/// risk feeding every rejected `Overloaded` arrival into the shape
/// counters, inflating pre-warm targets far past what will ever run. Two
/// floods sharing a seed accept the identical prefix (the rng stream is
/// sequential per arrival), so tripling the rejected tail must change
/// *nothing* about pre-warming.
#[test]
fn rejected_flood_arrivals_do_not_inflate_prewarm_targets() {
    let run_flood = |n: usize| {
        let dnn = Arc::new(generate_dnn(&spec()));
        let service = Arc::new(
            ServiceBuilder::new(dnn)
                .deterministic(SEED)
                .prewarm(4)
                .auto_warm_pool(4, 2)
                .build(),
        );
        let cfg = SchedulerConfig::default()
            .global_cap(1)
            .queue_capacity(4)
            .manual()
            .predictive(PredictorConfig::default().window(8).max_warm(8));
        let sched = SchedulerBuilder::new(cfg).model("m", service).build();
        replay(&sched, "m", &trace::flood(n, 4, SEED))
    };
    let small = run_flood(16);
    let large = run_flood(48);

    // Both floods overflow; the larger one rejects strictly more.
    assert!(small.stats.total_rejected() > 0, "flood must overflow");
    assert!(large.stats.total_rejected() > small.stats.total_rejected());
    // The accepted prefix is identical, so the admitted work is identical…
    assert_eq!(small.stats.total_admitted(), large.stats.total_admitted());
    assert_eq!(small.admission_order, large.admission_order);
    // …and so must be the predictor's output: rejected arrivals are
    // invisible to it, no matter how many there are.
    assert!(
        small.stats.prewarmed > 0,
        "predictor must engage on the flood"
    );
    assert_eq!(
        small.stats.prewarmed, large.stats.prewarmed,
        "rejected arrivals inflated pre-warm targets: {} -> {}",
        small.stats.prewarmed, large.stats.prewarmed
    );
    assert_eq!(small.stats.warm_hits, large.stats.warm_hits);
    assert_eq!(small.stats.cold_starts, large.stats.cold_starts);
}

#[test]
fn quiescence_evicts_prewarmed_trees_on_drain_ticks() {
    use fsd_inference::core::{BatchedRequest, Variant};
    use fsd_inference::model::{generate_inputs, InputSpec};
    use fsd_inference::sched::Priority;

    let dnn = Arc::new(generate_dnn(&spec()));
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(SEED)
            .prewarm(2)
            .auto_warm_pool(2, 2)
            .build(),
    );
    // An aggressive quiescence horizon: a shape unseen for 4 arrivals is
    // predicted dead.
    let cfg = SchedulerConfig::default()
        .global_cap(1)
        .manual()
        .predictive(PredictorConfig::default().window(4).quiet_after(4));
    let sched = SchedulerBuilder::new(cfg)
        .model("m", service.clone())
        .build();
    let inputs = generate_inputs(72, &InputSpec::scaled(8, SEED));
    let req = |variant| BatchedRequest {
        variant,
        workers: 2,
        memory_mb: 1769,
        batches: vec![inputs.clone()],
    };

    // One Queue arrival pre-warms its shape…
    let t = sched
        .enqueue_default(Priority::Interactive, req(Variant::Queue))
        .expect("accepted");
    assert_eq!(service.warm_idle_trees(Variant::Queue, 2, 1769), 1);
    sched.dispatch();
    t.wait().expect("runs");
    // …then Serial-only traffic ages it past the horizon…
    for _ in 0..4 {
        let t = sched
            .enqueue_default(Priority::Interactive, req(Variant::Serial))
            .expect("accepted");
        sched.dispatch();
        t.wait().expect("runs");
    }
    // …and the next drain tick applies the standing eviction.
    sched.dispatch();
    assert_eq!(
        service.warm_idle_trees(Variant::Queue, 2, 1769),
        0,
        "quiescent traffic must converge to zero pre-warms"
    );
    assert!(sched.stats().predictor_evicted >= 1);
}
