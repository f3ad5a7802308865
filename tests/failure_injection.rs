//! Failure injection and robustness: slow regions, cold-start skew,
//! worker crashes, breaker trips and corrupted payload handling.
//! Correctness must never depend on fair-weather timing.

mod common;

use fsd_inference::comm::{CloudConfig, LatencyModel, VirtualTime};
use fsd_inference::core::{EngineConfig, InferenceRequest, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sparse::SparseRows;
use std::sync::Arc;

#[test]
fn slow_channel_region_still_correct() {
    // A degraded region: 10x service latencies. Runs slower, same result.
    let spec = DnnSpec {
        neurons: 96,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 32,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(12, 32));
    let expected = dnn.serial_inference(&inputs);

    let mut slow = LatencyModel::default();
    slow.sns_publish_us *= 10;
    slow.sns_delivery_us *= 10;
    slow.sqs_poll_us *= 10;
    slow.s3_put_us *= 10;
    slow.s3_get_us *= 10;
    slow.s3_list_us *= 10;

    let mut slow_cloud = CloudConfig::deterministic(32);
    slow_cloud.latency = slow;

    let fast_service = ServiceBuilder::new(dnn.clone()).deterministic(32).build();
    let slow_service = ServiceBuilder::new(dnn)
        .deterministic(32)
        .cloud(slow_cloud)
        .build();
    let req = InferenceRequest {
        variant: Variant::Object,
        workers: 3,
        memory_mb: 1769,
        inputs,
    };
    let fast = fast_service.submit(&req).expect("fast region");
    let slow = slow_service.submit(&req).expect("slow region");
    assert_eq!(fast.first_output(), &expected);
    assert_eq!(slow.first_output(), &expected);
    assert!(
        slow.latency > fast.latency,
        "10x latencies must slow the run: {} vs {}",
        slow.latency,
        fast.latency
    );
    assert_eq!(fast_service.audit(), Vec::<String>::new());
    assert_eq!(slow_service.audit(), Vec::<String>::new());
}

#[test]
fn corrupted_payload_surfaces_as_comm_error() {
    // A corrupted wire body must produce a clean error, not a wrong result.
    use fsd_inference::sparse::{codec, compress};
    let block = generate_inputs(64, &InputSpec::scaled(8, 33));
    let mut wire_bytes = compress::compress(&codec::encode(&block));
    let last = wire_bytes.len() - 1;
    wire_bytes[last] ^= 0xFF;
    let decompressed = compress::decompress(&wire_bytes);
    match decompressed {
        Err(_) => {} // rejected at the compression frame
        Ok(bytes) => {
            assert!(
                codec::decode(&bytes).is_err(),
                "corruption must not decode cleanly"
            );
        }
    }
}

#[test]
fn scheduler_failed_request_releases_slot_and_does_not_wedge_the_queue() {
    common::watchdog(|| {
        // The scheduler's failure story: a request that dies mid-flight must
        // release its concurrency slot and let the backlog keep draining. The
        // "broken" model's compute is so slow that any request blows the 900 s
        // FaaS runtime limit (a mid-execution kill, not an admission reject).
        use fsd_inference::core::{BatchedRequest, FsdError, ServiceBuilder};
        use fsd_inference::faas::ComputeModel;
        use fsd_inference::sched::{Priority, SchedulerBuilder, SchedulerConfig};

        let spec = DnnSpec {
            neurons: 64,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 35,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 35));
        let expected = dnn.serial_inference(&inputs);
        let good = Arc::new(ServiceBuilder::new(dnn.clone()).deterministic(35).build());
        let broken = Arc::new(
            ServiceBuilder::new(dnn)
                .deterministic(35)
                .compute(ComputeModel {
                    units_per_sec_per_vcpu: 1e-3, // ~3 hours of virtual time per unit
                    parallel_fraction: 0.85,
                })
                .build(),
        );

        // Global cap 1: if the failing request held its slot, nothing behind it
        // could ever run and every wait below would hang.
        let sched = SchedulerBuilder::new(SchedulerConfig::default().global_cap(1))
            .model("broken", broken)
            .model("good", good)
            .build();
        let request = |inputs: &fsd_inference::sparse::SparseRows| BatchedRequest {
            variant: Variant::Serial,
            workers: 1,
            memory_mb: 1769,
            batches: vec![inputs.clone()],
        };
        let doomed = sched
            .enqueue("broken", Priority::Interactive, request(&inputs))
            .expect("admission accepts it — the failure is mid-flight");
        let survivors: Vec<_> = (0..3)
            .map(|i| {
                let class = if i == 1 {
                    Priority::Batch
                } else {
                    Priority::Interactive
                };
                sched
                    .enqueue("good", class, request(&inputs))
                    .expect("accepted behind the doomed request")
            })
            .collect();

        match doomed.wait() {
            Err(FsdError::Timeout { elapsed, limit }) => {
                assert!(elapsed > limit, "kill fired past the limit")
            }
            other => panic!("expected a mid-flight timeout, got {other:?}"),
        }
        for (i, t) in survivors.into_iter().enumerate() {
            let report = t
                .wait()
                .unwrap_or_else(|e| panic!("survivor {i} wedged: {e}"));
            assert_eq!(
                report.first_output(),
                &expected,
                "survivor {i} wrong output"
            );
        }

        let stats = sched.stats();
        assert_eq!(stats.failed, 1, "exactly the doomed request failed");
        assert_eq!(stats.completed, 3, "the backlog drained past the failure");
        assert!(stats.max_inflight <= 1);
        // The failed request tore down its flow state like any other, and
        // its bill is accounted.
        assert_eq!(sched.audit(), Vec::<String>::new());
    });
}

/// A service whose direct transport's breaker was just tripped, an `Auto`
/// request that recommends direct, and that request's serial output.
/// Targeted NAT-punch refusals fail five explicit-direct requests, each at
/// its first pairwise punch by a *permanent* fault (never retried — a
/// clean terminal communication failure); the explicit variant surfaces
/// the error instead of being rerouted.
fn tripped_direct(
    warm_pool: bool,
) -> (
    fsd_inference::core::FsdService,
    fsd_inference::core::BatchedRequest,
    SparseRows,
) {
    use fsd_inference::comm::{ApiClass, TargetedFault};
    use fsd_inference::core::{BatchedRequest, BreakerState, FsdError};

    let spec = DnnSpec {
        neurons: 96,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 36,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 36));
    let expected = dnn.serial_inference(&inputs);
    // A Serial instance too small for any model, so Auto recommends a
    // transport — the tiny per-pair volume lands in the Direct band.
    let mut builder = ServiceBuilder::new(dnn)
        .config(EngineConfig {
            serial_memory_mb: 0,
            ..EngineConfig::default()
        })
        .deterministic(36);
    if warm_pool {
        builder = builder.warm_pool(4, u64::MAX);
    }
    let service = builder.build();
    let request = |variant| BatchedRequest {
        variant,
        workers: 3,
        memory_mb: 1769,
        batches: vec![inputs.clone()],
    };
    for i in 0..5 {
        service
            .env()
            .faults()
            .inject(TargetedFault::first(ApiClass::DirectPunch, "f").permanent());
        let err = service
            .submit_batched(&request(Variant::Direct))
            .expect_err("an injected punch refusal must fail the request");
        assert!(matches!(err, FsdError::Comm(_)), "attempt {i}: {err}");
    }
    let snap = service.health_snapshot();
    assert_eq!(snap.direct.state, BreakerState::Open, "{snap:?}");
    assert!(snap.direct.error_rate > 0.5, "{snap:?}");
    // Failed attempts are billed — the service accounted their meters.
    assert!(service.failed_attempt_bill().lambda.invocations > 0);
    (service, request(Variant::Auto), expected)
}

#[test]
fn breaker_trips_degrades_auto_and_recovers_via_half_open_probes() {
    // The transport scoreboard end to end: targeted NAT-punch refusals
    // fail enough direct requests to trip its breaker, Auto routing
    // degrades direct → hybrid while the breaker is open, and once the
    // cooldown drains the half-open probes run on direct again and close
    // it.
    use fsd_inference::core::BreakerState;

    let (service, auto_req, expected) = tripped_direct(false);
    // While open (cooldown = 4 consults), Auto degrades direct → hybrid
    // and keeps serving correct results on the healthy transport.
    for i in 0..3 {
        let report = service
            .submit_batched(&auto_req)
            .unwrap_or_else(|e| panic!("degraded run {i}: {e}"));
        assert_eq!(report.variant, Variant::Hybrid, "degraded run {i}");
        assert_eq!(report.first_output(), &expected);
    }
    // Cooldown drained: the breaker half-opens and Auto probes direct
    // again; two clean probes close it and forgive the error history.
    for i in 0..2 {
        let report = service
            .submit_batched(&auto_req)
            .unwrap_or_else(|e| panic!("probe run {i}: {e}"));
        assert_eq!(report.variant, Variant::Direct, "probe run {i}");
        assert_eq!(report.first_output(), &expected);
    }
    let snap = service.health_snapshot();
    assert_eq!(snap.direct.state, BreakerState::Closed, "{snap:?}");
    assert_eq!(snap.direct.error_rate, 0.0, "recovery forgives history");
    // Failure or not, every request released its flow state.
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn auto_requests_consult_the_breakers_once_whatever_fronts_the_service() {
    // Each consult ticks an open breaker's cooldown, so a request that
    // consulted twice — once at intake, once where it runs — would drain
    // it twice as fast. Whatever sits in front of the service, five Auto
    // requests after the trip run three degraded and two probes.
    use fsd_inference::core::BreakerState;
    use fsd_inference::sched::SchedulerConfig;
    use fsd_inference::sched::{BatchingConfig, PredictorConfig, Priority, Scheduler};

    let route = [
        Variant::Hybrid,
        Variant::Hybrid,
        Variant::Hybrid,
        Variant::Direct,
        Variant::Direct,
    ];
    let closed = |service: &fsd_inference::core::FsdService, what: &str| {
        let snap = service.health_snapshot();
        assert_eq!(snap.direct.state, BreakerState::Closed, "{what}: {snap:?}");
        assert_eq!(service.audit(), Vec::<String>::new(), "{what}");
    };

    let (service, auto_req, expected) = tripped_direct(false);
    let ran: Vec<Variant> = (0..5)
        .map(|_| {
            let report = service.submit_batched(&auto_req).expect("runs");
            assert_eq!(report.first_output(), &expected);
            report.variant
        })
        .collect();
    assert_eq!(ran, route, "submit_batched");
    closed(&service, "submit_batched");

    let manual = SchedulerConfig::default().manual();
    for (what, cfg, warm_pool) in [
        ("plain scheduler", manual, false),
        (
            "batching scheduler",
            manual.batched(BatchingConfig::default()),
            false,
        ),
        (
            "predictive scheduler",
            manual.predictive(PredictorConfig::default()),
            true,
        ),
    ] {
        let (service, auto_req, expected) = tripped_direct(warm_pool);
        let service = Arc::new(service);
        let sched = Scheduler::wrap(service.clone(), cfg);
        // One at a time, so the consults happen in arrival order; the
        // batching scheduler takes all five as one coalition.
        let batching = what.starts_with("batching");
        let mut tickets = Vec::new();
        let mut ran = Vec::new();
        for _ in 0..5 {
            let ticket = sched
                .enqueue_default(Priority::Interactive, auto_req.clone())
                .expect("accepted");
            tickets.push(ticket);
            if !batching {
                sched.dispatch();
                let report = tickets.pop().expect("ticket").wait().expect("runs");
                assert_eq!(report.first_output(), &expected, "{what}");
                ran.push(report.variant);
            }
        }
        if batching {
            assert_eq!(sched.dispatch(), vec![vec![1, 2, 3, 4, 5]], "{what}");
            for ticket in tickets {
                let report = ticket.wait().expect("runs");
                assert_eq!(report.first_output(), &expected, "{what}");
                ran.push(report.variant);
            }
        }
        assert_eq!(ran, route, "{what}");
        closed(&service, what);
        sched.dispatch();
        assert_eq!(sched.audit(), Vec::<String>::new(), "{what}");
    }
}

#[test]
fn crash_mid_fused_item_fails_no_member() {
    common::watchdog(|| {
        // A warm-tree instance dying mid fused item fails the item, not its
        // members: the poisoned tree is discarded, the item's window is
        // billed as a failed attempt, and each member reruns alone.
        use fsd_inference::core::{BatchedRequest, Bill};

        let spec = DnnSpec {
            neurons: 96,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 37,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs: Vec<_> = (0..3u64)
            .map(|i| generate_inputs(spec.neurons, &InputSpec::scaled(8, 37 + i)))
            .collect();
        let service = ServiceBuilder::new(dnn.clone())
            .deterministic(37)
            .warm_pool(2, u64::MAX)
            .build();
        let req = |x: &SparseRows| BatchedRequest {
            variant: Variant::Queue,
            workers: 2,
            memory_mb: 1769,
            batches: vec![x.clone()],
        };
        // Park a tree, then arm a mid-request kill on its rank 1 through the
        // unified fault surface.
        service
            .submit_batched(&req(&inputs[0]))
            .expect("cold run parks the tree");
        assert!(
            service.kill_warm_worker(Variant::Queue, 2, 1769, 1),
            "a parked tree must match the injection shape"
        );
        assert_eq!(service.failed_attempt_bill(), Bill::default());
        let meters = || {
            let (comm, lambda) = (service.env().meter(), service.platform().lambda_meter());
            (comm.snapshot(), lambda.snapshot())
        };
        let before = meters();

        let reqs: Vec<BatchedRequest> = inputs.iter().map(req).collect();
        let results = service.submit_coalesced(&reqs);
        assert_eq!(results.len(), 3);
        for (i, (r, x)) in results.iter().zip(&inputs).enumerate() {
            let report = r
                .as_ref()
                .unwrap_or_else(|e| panic!("member {i} failed: {e}"));
            assert_eq!(
                report.first_output(),
                &dnn.serial_inference(x),
                "member {i} wrong output"
            );
        }
        let stats = service.warm_pool_stats().expect("pool enabled");
        assert_eq!(stats.discarded_poisoned, 1, "{stats:?}");
        // The poisoned tree is never re-shelved; the solo reruns park
        // exactly one fresh replacement.
        assert_eq!(stats.idle, 1, "{stats:?}");
        // The dead item ran warm under its own flow, and what its window
        // billed is the failed-attempt bill: with the members' solo windows
        // it is everything the meters counted since the kill was armed.
        let failed = service.failed_attempt_bill();
        assert_eq!(failed.lambda.invocations, 0, "a warm item launches nothing");
        let billed = results.iter().flatten().fold(
            (before.0.plus(&failed.comm), before.1.plus(&failed.lambda)),
            |(comm, lambda), r| (comm.plus(&r.comm), lambda.plus(&r.lambda)),
        );
        assert_eq!(billed, meters());
        // Success or failure, every attempt released its flow-scoped state.
        assert_eq!(service.audit(), Vec::<String>::new());
    });
}

#[test]
fn cold_start_skew_does_not_break_early_layers() {
    // Exaggerated cold starts stagger worker launch times wildly; early
    // senders' messages must wait safely for late-starting receivers.
    let spec = DnnSpec {
        neurons: 96,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 34,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(12, 34));
    let expected = dnn.serial_inference(&inputs);
    let mut cloud = CloudConfig::deterministic(34);
    cloud.latency.lambda_cold_start_us = 5_000_000; // 5 s cold starts
    let service = ServiceBuilder::new(dnn)
        .config(EngineConfig {
            branching: Some(1), // a chain: maximal start-time skew
            ..EngineConfig::default()
        })
        .deterministic(34)
        .cloud(cloud)
        .build();
    let report = service
        .submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 4,
            memory_mb: 1769,
            inputs,
        })
        .expect("skewed run");
    assert_eq!(report.first_output(), &expected);
    // The chain launch forces ≥ 3 cold-start generations of skew.
    assert!(report.latency >= VirtualTime::from_secs_f64(15.0));
    assert_eq!(service.audit(), Vec::<String>::new());
}
