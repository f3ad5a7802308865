//! The deterministic scheduler load harness (the `fsd-sched` acceptance
//! test).
//!
//! Each test replays one seeded arrival trace — steady trickle, bursts,
//! and an adversarial large-`P` flood — through a manual-dispatch
//! scheduler three times over (fresh service and scheduler each time) and
//! requires the replays to be **identical**: same admission order, same
//! rejection set, same per-request reports (variant, latency, outputs
//! digest, request-local billing). Determinism holds even though every
//! admitted request executes on real worker-tree threads, because all
//! scheduler-state mutations happen on the driver thread and all request
//! state (flows, meters, virtual clocks) is request-local.
//!
//! On top of reproducibility, each trace asserts the scheduler's
//! invariants: caps never exceeded, FIFO within a class, weighted
//! interleave across classes, and — in the flood — bounded queues
//! rejecting with backpressure.

use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sched::harness::{replay, ReplayReport};
use fsd_inference::sched::{trace, Arrival, Priority, Scheduler, SchedulerConfig};
use fsd_inference::{core::ServiceBuilder, sched::SchedulerBuilder};
use std::sync::Arc;

/// A fresh single-model scheduler in harness mode. Every parallelism the
/// traces use is pre-warmed so replays race on nothing but the request
/// path.
fn fresh_scheduler(seed: u64, cfg: SchedulerConfig) -> Scheduler {
    let spec = DnnSpec {
        neurons: 72,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(seed)
            .prewarm(1)
            .prewarm(2)
            .prewarm(4)
            .build(),
    );
    SchedulerBuilder::new(cfg.manual())
        .model("m", service)
        .build()
}

/// A harness-mode scheduler over a **warm-pooled** service: every
/// distributed shape the steady trace produces (`Queue` × P ∈ {1, 2}) is
/// pre-warmed `global_cap` times, so a matching request can never miss —
/// the warm/cold split stays a pure function of the trace and the replay
/// digests (which include the launch label) stay bit-identical.
fn fresh_pooled_scheduler(seed: u64, cfg: SchedulerConfig) -> Scheduler {
    use fsd_inference::core::Variant;
    let spec = DnnSpec {
        neurons: 72,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let mut builder = ServiceBuilder::new(dnn)
        .deterministic(seed)
        .prewarm(1)
        .prewarm(2)
        .warm_pool(2 * cfg.global_cap, u64::MAX);
    for p in [1u32, 2] {
        for _ in 0..cfg.global_cap {
            builder = builder.prewarm_tree(Variant::Queue, p, 1769);
        }
    }
    let service = Arc::new(builder.build());
    SchedulerBuilder::new(cfg.manual())
        .model("m", service)
        .build()
}

/// Replays `trace` three times against fresh schedulers; asserts the runs
/// are identical and returns the (canonical) first report.
fn replay_thrice(seed: u64, cfg: SchedulerConfig, trace: &[Arrival]) -> ReplayReport {
    replay_thrice_with(|| fresh_scheduler(seed, cfg), trace)
}

/// [`replay_thrice`] over an arbitrary scheduler factory.
fn replay_thrice_with(fresh: impl Fn() -> Scheduler, trace: &[Arrival]) -> ReplayReport {
    let first = replay(&fresh(), "m", trace);
    for run in 1..3 {
        let again = replay(&fresh(), "m", trace);
        assert_eq!(
            first.admission_order, again.admission_order,
            "run {run}: admission order diverged"
        );
        assert_eq!(
            first.rejected, again.rejected,
            "run {run}: rejection set diverged"
        );
        assert_eq!(
            first.outcomes, again.outcomes,
            "run {run}: per-request reports diverged"
        );
        assert_eq!(first, again, "run {run}: replay reports diverged");
    }
    first
}

/// Shared invariants every trace must satisfy.
fn assert_invariants(report: &ReplayReport, cfg: &SchedulerConfig) {
    assert!(
        report.stats.max_inflight <= cfg.global_cap,
        "global cap {} exceeded: {}",
        cfg.global_cap,
        report.stats.max_inflight
    );
    // FIFO within each class: admission seqs strictly increase.
    for class in Priority::ALL {
        let seqs = report.admissions_of(class);
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "{class} admissions out of FIFO order: {seqs:?}"
        );
    }
    // Every accepted request finished and was accounted.
    assert_eq!(
        report.outcomes.len() as u64,
        report.stats.total_admitted(),
        "admitted requests must all be harvested"
    );
    assert_eq!(report.stats.queued, 0);
    assert_eq!(report.stats.inflight, 0);
}

#[test]
fn auto_under_the_scheduler_routes_like_sequential_and_matches_outputs() {
    // `Variant::Auto` resolves through the §IV-C rules per request; the
    // scheduler must not change that. Run mixed-size Auto requests twice —
    // sequentially against a bare service, then concurrently through an
    // auto-dispatch scheduler over an identical service — and require the
    // same resolved channel and byte-identical outputs for every request.
    use fsd_inference::core::{BatchedRequest, Variant};
    use fsd_inference::sched::Ticket;

    let spec = DnnSpec {
        neurons: 72,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 23,
    };
    let fresh_service = || {
        Arc::new(
            ServiceBuilder::new(Arc::new(generate_dnn(&spec)))
                .deterministic(23)
                .prewarm(1)
                .prewarm(2)
                .prewarm(3)
                .build(),
        )
    };
    let requests: Vec<BatchedRequest> = (0..6)
        .map(|i| BatchedRequest {
            variant: Variant::Auto,
            workers: 1 + (i % 3) as u32,
            memory_mb: 1769,
            batches: vec![generate_inputs(
                spec.neurons,
                &InputSpec::scaled(4 + 3 * i, 23 + i as u64),
            )],
        })
        .collect();

    let sequential_service = fresh_service();
    let sequential: Vec<_> = requests
        .iter()
        .map(|r| {
            let report = sequential_service.submit_batched(r).expect("sequential");
            (report.variant, report.outputs)
        })
        .collect();

    let service = fresh_service();
    let sched = Scheduler::wrap(service.clone(), SchedulerConfig::default().global_cap(3));
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| {
            sched
                .enqueue_default(Priority::Interactive, r.clone())
                .expect("accepted")
        })
        .collect();
    for (i, (t, req)) in tickets.into_iter().zip(&requests).enumerate() {
        let report = t.wait().expect("scheduled run");
        assert_ne!(report.variant, Variant::Auto, "Auto must resolve");
        assert_eq!(
            report.variant,
            service.resolve_variant(req),
            "request {i}: scheduler changed the §IV-C routing"
        );
        assert_eq!(
            (report.variant, &report.outputs),
            (sequential[i].0, &sequential[i].1),
            "request {i}: concurrent Auto diverged from sequential"
        );
    }
    sched.shutdown();
    sched.drain();
    assert_eq!(sched.stats().completed, 6);
}

#[test]
fn steady_trace_is_deterministic_and_unthrottled() {
    let cfg = SchedulerConfig::default()
        .global_cap(3)
        .queue_capacity(8)
        .weights(3, 1);
    let trace = trace::steady(12, 250_000, 11);
    let report = replay_thrice(11, cfg, &trace);
    assert_invariants(&report, &cfg);
    // A trickle under capacity sees no backpressure and no failures.
    assert!(report.rejected.is_empty(), "steady trace must not reject");
    assert_eq!(report.stats.total_admitted(), 12);
    assert_eq!(report.stats.failed, 0);
    for outcome in &report.outcomes {
        let digest = outcome.result.as_ref().expect("steady requests succeed");
        assert!(digest.latency_us > 0);
        assert!(digest.invocations > 0, "lambda billing is request-local");
    }
}

#[test]
fn warm_pool_replays_are_deterministic_and_all_warm() {
    use fsd_inference::core::{LaunchPath, Variant};
    let cfg = SchedulerConfig::default()
        .global_cap(3)
        .queue_capacity(8)
        .weights(3, 1);
    let trace = trace::steady(12, 250_000, 19);
    let report = replay_thrice_with(|| fresh_pooled_scheduler(19, cfg), &trace);
    assert_invariants(&report, &cfg);
    assert!(report.rejected.is_empty(), "steady trace must not reject");
    assert_eq!(report.stats.failed, 0);
    // With the pool pre-warmed past the concurrency cap, every distributed
    // request is a warm hit — zero invocations, label included in the
    // bit-identical digests — while Serial requests stay cold.
    let mut warm = 0;
    for outcome in &report.outcomes {
        let digest = outcome.result.as_ref().expect("steady requests succeed");
        match digest.variant {
            Variant::Queue => {
                assert_eq!(digest.launch, LaunchPath::WarmHit, "{digest:?}");
                assert_eq!(digest.invocations, 0, "warm hits invoke nothing");
                warm += 1;
            }
            _ => {
                assert_eq!(digest.launch, LaunchPath::ColdStart, "{digest:?}");
                assert!(digest.invocations > 0);
            }
        }
        assert!(digest.latency_us > 0);
    }
    assert_eq!(warm, 8, "the steady trace carries 8 Queue requests");
    assert_eq!(report.stats.warm_hits, 8);
    assert_eq!(report.stats.cold_starts, 4);
}

#[test]
fn bursty_trace_interleaves_classes_by_weight() {
    let cfg = SchedulerConfig::default()
        .global_cap(2)
        .queue_capacity(12)
        .weights(2, 1);
    let trace = trace::bursty(2, 9, 600_000, 13);
    let report = replay_thrice(13, cfg, &trace);
    assert_invariants(&report, &cfg);
    assert!(report.rejected.is_empty(), "bursts fit the bounded queues");
    assert_eq!(report.stats.total_admitted(), 18);
    // Each burst backlogs both classes, so the weighted round-robin must
    // interleave them from the start: batch service begins within the
    // first weight-window instead of after the interactive backlog.
    let window = 1 + cfg.weights[0] as usize;
    assert!(
        report.admitted_classes[..window].contains(&Priority::Batch),
        "batch starved at the head: {:?}",
        &report.admitted_classes[..window]
    );
    assert!(
        report.admitted_classes[..window].contains(&Priority::Interactive),
        "interactive missing from the head window"
    );
    // Weighted share over the saturated phase: interactive may lead, but
    // batch throughput stays within its configured proportion.
    let batch_admitted = report
        .admitted_classes
        .iter()
        .filter(|c| **c == Priority::Batch)
        .count();
    assert_eq!(batch_admitted, 6, "2 bursts × 3 batch arrivals each");
}

#[test]
fn large_p_flood_trips_backpressure_without_starving() {
    let cfg = SchedulerConfig::default()
        .global_cap(3)
        .queue_capacity(4)
        .weights(2, 1);
    let trace = trace::flood(20, 4, 17);
    let report = replay_thrice(17, cfg, &trace);
    assert_invariants(&report, &cfg);

    // The flood arrives in one instant: only `queue_capacity` requests per
    // class fit, the rest must be rejected with explicit backpressure —
    // never buffered without bound.
    let accepted = report.stats.total_admitted() as usize;
    assert_eq!(accepted, 2 * cfg.queue_capacity, "both class queues filled");
    assert_eq!(
        report.rejected.len(),
        trace.len() - accepted,
        "every non-fitting arrival was rejected"
    );
    assert!(
        report.stats.total_rejected() >= 8,
        "flood must visibly trip backpressure, rejected only {}",
        report.stats.total_rejected()
    );
    // Rejection preserves arrival order within the trace.
    assert!(report.rejected.windows(2).all(|w| w[0] < w[1]));

    // Interactive arrivals kept being admitted despite the batch-heavy
    // flood, and every accepted large-P request ran to completion.
    assert!(report.admitted_classes.contains(&Priority::Interactive));
    assert_eq!(report.stats.failed, 0);
    for outcome in &report.outcomes {
        let digest = outcome.result.as_ref().expect("accepted flood runs");
        assert_eq!(digest.workers, 4, "flood requests are large-P");
    }
}
