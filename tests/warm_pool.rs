//! Warm-tree pool acceptance: warm hits must skip the launch bill while
//! producing byte-identical outputs; the pool must evict on TTL, bound its
//! shelf, survive worker death without wedging the scheduler, and keep
//! per-flow billing disjoint across tree reuse.

use fsd_inference::comm::{ApiClass, TargetedFault};
use fsd_inference::core::{
    BatchedRequest, FsdError, FsdService, InferenceReport, InferenceRequest, LaunchPath,
    ServiceBuilder, Variant,
};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sched::{Priority, Scheduler, SchedulerConfig};
use fsd_sparse::SparseRows;
use std::sync::Arc;

fn spec(seed: u64) -> DnnSpec {
    DnnSpec {
        neurons: 64,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    }
}

/// A pooled service plus one input batch and its serial ground truth.
fn pooled_service(
    seed: u64,
    max_trees: usize,
    idle_ttl: u64,
) -> (Arc<FsdService>, SparseRows, SparseRows) {
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(seed)
            .warm_pool(max_trees, idle_ttl)
            .build(),
    );
    (service, inputs, expected)
}

fn request(inputs: &SparseRows, variant: Variant, workers: u32) -> InferenceRequest {
    InferenceRequest {
        variant,
        workers,
        memory_mb: 1769,
        inputs: inputs.clone(),
    }
}

/// Everything a launch must reproduce whichever way its tree was acquired:
/// the virtual timeline, both bills, both cost views, the work and the
/// full rank-ordered per-worker record.
fn launch_fingerprint(r: &InferenceReport) -> impl PartialEq + std::fmt::Debug {
    let per_worker: Vec<_> = r
        .per_worker
        .iter()
        .map(|w| (w.rank, w.started, w.finished, w.billed_ms, w.peak_mem_bytes))
        .collect();
    (
        (r.launch, r.latency, r.lambda, r.comm),
        (r.cost_actual, r.cost_predicted, r.work_done),
        (per_worker, r.outputs.clone()),
    )
}

fn assert_clean(service: &FsdService, what: &str) {
    service.env().assert_no_residue();
    assert_eq!(service.env().meter().tracked_flows(), 0, "{what}");
    assert_eq!(
        service.platform().lambda_meter().tracked_flows(),
        0,
        "{what}"
    );
}

/// There is one launch path: a pool-less request, a pooled cold miss and
/// member 0 of a pool-less coalition all launch a tree for their own flow
/// and must be indistinguishable — on every transport, in both launch
/// shapes (cascade, streamed/flat) and at P ∈ {1, 3, 8} — while a warm hit
/// on the parked tree skips the launch bill and still matches the outputs.
#[test]
fn warm_hits_skip_launch_and_match_cold_outputs_on_both_channels() {
    let seed = 41;
    let dnn = Arc::new(generate_dnn(&spec(seed)));
    let inputs = generate_inputs(spec(seed).neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    let build = |stream: bool, pool: bool| {
        let b = ServiceBuilder::new(dnn.clone())
            .deterministic(seed)
            .weight_streaming(stream);
        if pool { b.warm_pool(4, u64::MAX) } else { b }.build()
    };
    for stream in [false, true] {
        for variant in [
            Variant::Queue,
            Variant::Object,
            Variant::Hybrid,
            Variant::Direct,
        ] {
            for p in [1u32, 3, 8] {
                let what = format!("{variant} P={p} stream={stream}");
                let req = request(&inputs, variant, p);
                let batched = BatchedRequest {
                    variant,
                    workers: p,
                    memory_mb: req.memory_mb,
                    batches: vec![inputs.clone()],
                };
                let (poolless, pooled, coalition) = (
                    build(stream, false),
                    build(stream, true),
                    build(stream, false),
                );
                let oneshot = poolless.submit(&req).expect("pool-less run");
                let cold = pooled.submit(&req).expect("cold run");
                let warm = pooled.submit(&req).expect("warm run");
                let mut members = coalition.submit_coalesced(&[batched.clone(), batched]);
                let follower = members.pop().expect("two members").expect("member 1");
                let leader = members.pop().expect("two members").expect("member 0");

                assert_eq!(cold.first_output(), &expected, "{what}");
                assert_eq!(cold.launch, LaunchPath::ColdStart, "{what}");
                assert!(
                    cold.per_worker.iter().map(|w| w.rank).eq(0..p),
                    "{what}: per_worker must come back in rank order"
                );
                // The launch bill: coordinator + P ranks down the cascade,
                // P ranks flat when weights are streamed.
                let launched = if stream { p } else { p + 1 };
                assert_eq!(cold.lambda.invocations, launched as u64, "{what}");
                // §VI-F on the launch path: the client-side prediction sees
                // every GET the instances issued.
                let err = cold.cost_actual.relative_error(&cold.cost_predicted);
                assert!(err < 1e-3, "{what}: predicted cost off by {err:.5}");
                let reference = launch_fingerprint(&cold);
                assert_eq!(launch_fingerprint(&oneshot), reference, "{what}: pool-less");
                assert_eq!(launch_fingerprint(&leader), reference, "{what}: member 0");

                // Landing on the resident tree invokes nothing and skips
                // the launch latency, for the same answer.
                for hit in [&warm, &follower] {
                    assert_eq!(hit.launch, LaunchPath::WarmHit, "{what}");
                    assert_eq!(hit.lambda.invocations, 0, "{what}");
                    assert!(hit.lambda.mb_ms > 0, "{what}: execution still bills");
                    assert_eq!(hit.outputs, cold.outputs, "{what}");
                    assert!(
                        hit.latency < cold.latency,
                        "{what}: warm {} must beat cold {}",
                        hit.latency,
                        cold.latency
                    );
                }
                for service in [&poolless, &pooled, &coalition] {
                    assert_clean(service, &what);
                }
            }
        }
    }
}

#[test]
fn warm_p50_is_strictly_below_cold_p50_under_the_deterministic_clock() {
    let (service, inputs, _) = pooled_service(43, 2, u64::MAX);
    let req = request(&inputs, Variant::Queue, 3);
    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    for _ in 0..5 {
        // Invalidation forces the next request back onto the cold path.
        service.invalidate_warm_trees();
        let cold = service.submit(&req).expect("cold");
        assert_eq!(cold.launch, LaunchPath::ColdStart);
        cold_us.push(cold.latency.as_micros());
        let warm = service.submit(&req).expect("warm");
        assert_eq!(warm.launch, LaunchPath::WarmHit);
        warm_us.push(warm.latency.as_micros());
    }
    cold_us.sort_unstable();
    warm_us.sort_unstable();
    let (cold_p50, warm_p50) = (cold_us[cold_us.len() / 2], warm_us[warm_us.len() / 2]);
    assert!(
        warm_p50 < cold_p50,
        "warm p50 {warm_p50}µs must be strictly below cold p50 {cold_p50}µs"
    );
    // The deterministic clock makes every sample of a path identical.
    assert_eq!(cold_us.first(), cold_us.last());
    assert_eq!(warm_us.first(), warm_us.last());
}

#[test]
fn idle_ttl_evicts_parked_trees() {
    // TTL of 2 pool ticks (checkout attempts).
    let (service, inputs, _) = pooled_service(44, 4, 2);
    let queue_req = request(&inputs, Variant::Queue, 2);
    let object_req = request(&inputs, Variant::Object, 2);
    assert_eq!(
        service
            .submit(&queue_req)
            .expect("parks a queue tree")
            .launch,
        LaunchPath::ColdStart
    );
    // Three other-shape requests age the parked queue tree past its TTL.
    for _ in 0..3 {
        service.submit(&object_req).expect("object runs");
    }
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert!(stats.evicted_ttl >= 1, "queue tree must age out: {stats:?}");
    assert_eq!(
        service.submit(&queue_req).expect("re-launches").launch,
        LaunchPath::ColdStart,
        "an evicted tree cannot serve a warm hit"
    );
}

#[test]
fn full_shelf_evicts_the_lru_shape_instead_of_rejecting_the_checkin() {
    // Shelf of one: a checkin on a full shelf evicts the
    // least-recently-used shape to park the (hotter) incoming tree.
    let (service, inputs, _) = pooled_service(45, 1, u64::MAX);
    let queue_req = request(&inputs, Variant::Queue, 2);
    let object_req = request(&inputs, Variant::Object, 2);
    service.submit(&queue_req).expect("queue parks");
    // The object tree's checkin finds the shelf full: the parked queue
    // tree (LRU shape) is evicted and the object tree parks.
    service.submit(&object_req).expect("object cold");
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.evicted_lru, 1, "{stats:?}");
    assert_eq!(stats.idle, 1);
    // …so the recently used shape is warm and the evicted one is cold.
    assert_eq!(
        service.submit(&object_req).expect("object again").launch,
        LaunchPath::WarmHit
    );
    assert_eq!(
        service.submit(&queue_req).expect("queue again").launch,
        LaunchPath::ColdStart
    );
}

#[test]
fn lru_under_pressure_evicts_the_least_recently_used_shape() {
    // Shelf of two, three shapes. Use order: Q2, O2, then Q3. At Q3's
    // checkin the shelf holds {Q2, O2}; Q2 is the least recently used
    // shape, so it is the victim — O2 and Q3 stay warm.
    let (service, inputs, _) = pooled_service(48, 2, u64::MAX);
    let q2 = request(&inputs, Variant::Queue, 2);
    let o2 = request(&inputs, Variant::Object, 2);
    let q3 = request(&inputs, Variant::Queue, 3);
    service.submit(&q2).expect("q2 parks");
    service.submit(&o2).expect("o2 parks");
    service.submit(&q3).expect("q3 evicts the LRU shape");
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.evicted_lru, 1, "{stats:?}");
    assert_eq!(stats.idle, 2);
    assert_eq!(service.warm_idle_trees(Variant::Queue, 2, 1769), 0);
    assert_eq!(service.warm_idle_trees(Variant::Object, 2, 1769), 1);
    assert_eq!(service.warm_idle_trees(Variant::Queue, 3, 1769), 1);
    assert_eq!(
        service.submit(&o2).expect("o2 again").launch,
        LaunchPath::WarmHit
    );
    assert_eq!(
        service.submit(&q3).expect("q3 again").launch,
        LaunchPath::WarmHit
    );
    assert_eq!(
        service.submit(&q2).expect("q2 again").launch,
        LaunchPath::ColdStart,
        "the LRU shape was evicted"
    );
}

#[test]
fn dead_worker_evicts_the_tree_without_wedging_the_scheduler() {
    let (service, inputs, expected) = pooled_service(46, 4, u64::MAX);
    let sched = Scheduler::wrap(service.clone(), SchedulerConfig::default().global_cap(2));
    let req = || fsd_inference::core::BatchedRequest {
        variant: Variant::Queue,
        workers: 3,
        memory_mb: 1769,
        batches: vec![inputs.clone()],
    };
    // Park a tree, then arm a mid-request kill on one of its workers.
    sched
        .enqueue_default(Priority::Interactive, req())
        .expect("accepted")
        .wait()
        .expect("cold run parks the tree");
    assert!(
        service.inject_fault(FsdService::warm_worker_fault(Variant::Queue, 3, 1769, 1)),
        "a parked tree must match the injection shape"
    );
    // The next matching request loses worker 1 mid-request: the request
    // fails, the tree is evicted (not checked back in)…
    let err = sched
        .enqueue_default(Priority::Interactive, req())
        .expect("accepted")
        .wait()
        .expect_err("a dying instance must fail the request");
    let msg = err.to_string();
    assert!(
        msg.contains("terminated") || msg.contains("poisoned") || msg.contains("abort"),
        "unexpected failure detail: {msg}"
    );
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.discarded_poisoned, 1, "{stats:?}");
    assert_eq!(stats.idle, 0, "the poisoned tree must not be re-shelved");
    // …the slot is released and the scheduler keeps serving: a fresh
    // request cold-launches a replacement tree and succeeds.
    assert_eq!(sched.inflight(), 0, "failure must release its slot");
    let recovered = sched
        .enqueue_default(Priority::Interactive, req())
        .expect("accepted")
        .wait()
        .expect("scheduler must keep serving after the eviction");
    assert_eq!(recovered.launch, LaunchPath::ColdStart);
    assert_eq!(recovered.first_output(), &expected);
    let sstats = sched.stats();
    assert_eq!(sstats.failed, 1);
    assert_eq!(sstats.completed, 2);
    assert_eq!(sstats.inflight, 0);
    // Even the failed request released its billing windows.
    assert_eq!(service.env().meter().tracked_flows(), 0);
    assert_eq!(service.platform().lambda_meter().tracked_flows(), 0);
    sched.shutdown();
    sched.drain();
}

/// A dying instance reports its own error *before* it poisons the tree,
/// so what the request surfaces is the root cause (`"instance"`), never a
/// peer's secondary `"abort"` that won a race into the result channel.
#[test]
fn the_first_error_a_request_reports_is_the_root_cause() {
    let op_of = |res: Result<InferenceReport, FsdError>| match res {
        Err(FsdError::Comm(failure)) => failure.op,
        other => panic!("expected a comm failure, got {other:?}"),
    };
    let (pooled, inputs, _) = pooled_service(48, 2, u64::MAX);
    let poolless = ServiceBuilder::new(Arc::new(generate_dnn(&spec(48))))
        .deterministic(48)
        .build();
    for rep in 0..50 {
        // A rank of a parked tree killed as the next request lands on it.
        pooled
            .submit(&request(&inputs, Variant::Queue, 3))
            .expect("cold run parks the tree");
        assert!(pooled.inject_fault(FsdService::warm_worker_fault(Variant::Queue, 3, 1769, 1)));
        let killed = pooled.submit(&request(&inputs, Variant::Queue, 3));
        assert_eq!(op_of(killed), "instance", "rep {rep}: killed rank");
        // A launch refused two levels down the cascade (rank 6 is a child
        // of rank 1 at P=8, b=4): rank 0 only ever hears of it second-hand.
        poolless.inject_fault(TargetedFault::first(
            ApiClass::InstanceLaunch,
            "fsd-worker-6",
        ));
        let refused = poolless.submit(&request(&inputs, Variant::Queue, 8));
        assert_eq!(op_of(refused), "instance", "rep {rep}: refused launch");
    }
    for service in [&*pooled, &poolless] {
        assert_clean(service, "failed requests release everything");
    }
}

#[test]
fn billing_stays_per_flow_disjoint_across_tree_reuse() {
    let spec = spec(47);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, 47));
    let expected = dnn.serial_inference(&inputs);
    // Two pre-warmed trees: both concurrent requests hit warm.
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(47)
            .warm_pool(2, u64::MAX)
            .prewarm_tree(Variant::Queue, 2, 1769)
            .prewarm_tree(Variant::Queue, 2, 1769)
            .build(),
    );
    let concurrent_round = || {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let service = service.clone();
                let inputs = inputs.clone();
                std::thread::spawn(move || {
                    service
                        .submit(&request(&inputs, Variant::Queue, 2))
                        .expect("warm run")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect::<Vec<_>>()
    };
    // Warm-up round: two concurrent checkouts necessarily take distinct
    // trees, so afterwards both launch cascades have fully completed and
    // the invocation counter is quiescent.
    for report in concurrent_round() {
        assert_eq!(report.launch, LaunchPath::WarmHit);
    }
    let before = service.platform().lambda_snapshot();
    let reports = concurrent_round();
    let after = service.platform().lambda_snapshot();
    let mut windows_mb_ms = 0;
    for report in &reports {
        assert_eq!(report.launch, LaunchPath::WarmHit);
        assert_eq!(report.first_output(), &expected);
        assert_eq!(report.lambda.invocations, 0);
        assert!(report.lambda.mb_ms > 0, "request window bills to its flow");
        assert!(report.comm.sqs_api_calls > 0, "comm bills request-locally");
        windows_mb_ms += report.lambda.mb_ms;
    }
    // Warm hits add no invocations, and the global duration billing grew
    // by exactly the two disjoint request windows.
    assert_eq!(after.invocations, before.invocations);
    assert_eq!(after.mb_ms - before.mb_ms, windows_mb_ms);
    // Nothing leaked: all flow windows were released at teardown.
    assert_eq!(service.env().meter().tracked_flows(), 0);
    assert_eq!(service.platform().lambda_meter().tracked_flows(), 0);
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.hits, 4);
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.idle, 2, "both trees were checked back in");
}
