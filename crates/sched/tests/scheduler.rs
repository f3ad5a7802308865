//! The scheduler end to end: every test here drives a [`Scheduler`] over
//! real (simulated-cloud) services through the crate's public API — intake,
//! admission caps and class interleaving, continuous batching, completion
//! bookkeeping, retries and backpressure hints. The admission engine's own
//! decisions are unit-tested without a service in `src/admission.rs`.

use fsd_comm::VirtualTime;
use fsd_core::{BatchedRequest, FsdError, FsdService, LaunchPath, ServiceBuilder, Variant};
use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_sched::{
    BatchingConfig, FailureCause, Priority, Scheduler, SchedulerBuilder, SchedulerConfig, Ticket,
    DEFAULT_MODEL,
};
use fsd_sparse::SparseRows;
use std::collections::HashMap;
use std::sync::Arc;

/// A small deterministic service (Serial and P ∈ {1, 2} staged), its
/// inputs and their serial ground truth.
fn service(seed: u64) -> (Arc<FsdService>, SparseRows, SparseRows) {
    let spec = DnnSpec {
        neurons: 64,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, seed));
    let expected = dnn.serial_inference(&inputs);
    (
        Arc::new(
            ServiceBuilder::new(dnn)
                .deterministic(seed)
                .prewarm(1)
                .prewarm(2)
                .build(),
        ),
        inputs,
        expected,
    )
}

fn request(inputs: &SparseRows, variant: Variant, workers: u32) -> BatchedRequest {
    BatchedRequest {
        variant,
        workers,
        memory_mb: 1769,
        batches: vec![inputs.clone()],
    }
}

#[test]
fn wrap_serves_a_request_end_to_end() {
    let (svc, inputs, expected) = service(1);
    let sched = Scheduler::wrap(svc, SchedulerConfig::default());
    let ticket = sched
        .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
        .expect("accepted");
    let report = ticket.wait().expect("runs");
    assert_eq!(report.first_output(), &expected);
    let stats = sched.stats();
    assert_eq!(stats.enqueued, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.total_admitted(), 1);
    assert_eq!(stats.inflight, 0);
}

#[test]
fn unknown_model_is_rejected() {
    let (svc, inputs, _) = service(2);
    let sched = Scheduler::wrap(svc, SchedulerConfig::default());
    let err = sched
        .enqueue(
            "ghost",
            Priority::Batch,
            request(&inputs, Variant::Serial, 1),
        )
        .unwrap_err();
    assert_eq!(
        err,
        FsdError::UnknownModel {
            name: "ghost".into()
        }
    );
}

#[test]
fn shutdown_rejects_new_and_cancels_queued_tickets() {
    let (svc, inputs, expected) = service(4);
    let sched = Scheduler::wrap(svc, SchedulerConfig::default().global_cap(1));
    let tickets: Vec<Ticket> = (0..3)
        .map(|_| {
            sched
                .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
                .expect("accepted")
        })
        .collect();
    sched.shutdown();
    assert_eq!(
        sched
            .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
            .unwrap_err(),
        FsdError::ShuttingDown
    );
    // Whatever admission raced ahead of the shutdown still runs to
    // completion; everything still queued resolves ShuttingDown
    // promptly instead of hanging its ticket holder.
    let mut completed = 0u64;
    let mut cancelled = 0u64;
    for t in tickets {
        match t.wait() {
            Ok(report) => {
                assert_eq!(report.first_output(), &expected);
                completed += 1;
            }
            Err(FsdError::ShuttingDown) => cancelled += 1,
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert_eq!(completed + cancelled, 3);
    assert!(completed >= 1, "the admitted head must still run");
    sched.drain();
    let stats = sched.stats();
    assert_eq!(stats.completed, completed);
    assert_eq!(stats.cancelled, cancelled);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.inflight, 0);
}

#[test]
fn an_empty_request_gets_no_coalescing_shape() {
    // An empty request runs no tree whatever its variant — it fails
    // with `EmptyRequest` — so it must neither join a coalition nor
    // split one: its valid neighbours coalesce around it and it runs
    // alone.
    let (svc, inputs, expected) = service(18);
    let sched = Scheduler::wrap(
        svc,
        SchedulerConfig::default()
            .manual()
            .global_cap(1)
            .batched(BatchingConfig::default()),
    );
    let empty = BatchedRequest {
        batches: Vec::new(),
        ..request(&inputs, Variant::Queue, 2)
    };
    let mut tickets = [
        request(&inputs, Variant::Queue, 2),
        empty,
        request(&inputs, Variant::Queue, 2),
    ]
    .map(|req| {
        sched
            .enqueue_default(Priority::Batch, req)
            .expect("accepted")
    })
    .into_iter();
    let (head, empty, follower) = (
        tickets.next().expect("three tickets"),
        tickets.next().expect("three tickets"),
        tickets.next().expect("three tickets"),
    );
    assert_eq!(sched.dispatch(), vec![vec![1, 3]]);
    let head = head.wait().expect("the coalition head runs");
    let follower = follower.wait().expect("the follower runs");
    assert_eq!(head.first_output(), &expected);
    assert_eq!(follower.first_output(), &expected);
    assert_eq!(
        (head.launch, follower.launch),
        (LaunchPath::ColdStart, LaunchPath::WarmHit),
        "the follower lands on the head's tree"
    );
    assert_eq!(sched.dispatch(), vec![vec![2]]);
    assert_eq!(empty.wait().unwrap_err(), FsdError::EmptyRequest);
    let stats = sched.stats();
    assert_eq!((stats.coalitions, stats.coalesced), (1, 2));
    assert_eq!((stats.cold_starts, stats.warm_hits), (1, 1));
    assert_eq!(stats.failed, 1);
}

#[test]
fn full_queue_rejects_with_retry_hint() {
    let (svc, inputs, _) = service(3);
    // Manual dispatch with nothing dispatched: the queue fills.
    let sched = Scheduler::wrap(svc, SchedulerConfig::default().manual().queue_capacity(2));
    let t1 = sched
        .enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1))
        .expect("fits");
    let t2 = sched
        .enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1))
        .expect("fits");
    match sched.enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1)) {
        Err(FsdError::Overloaded { retry_after }) => {
            assert!(retry_after > VirtualTime::ZERO, "hint must be positive");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The other class's bounded queue is independent.
    let t3 = sched
        .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
        .expect("other class fits");
    assert_eq!(sched.stats().total_rejected(), 1);
    sched.dispatch();
    for t in [t1, t2, t3] {
        t.wait().expect("runs");
    }
}

#[test]
fn global_cap_is_never_exceeded() {
    let (svc, inputs, _) = service(5);
    let sched = Scheduler::wrap(svc, SchedulerConfig::default().global_cap(2));
    let tickets: Vec<Ticket> = (0..6)
        .map(|i| {
            let class = if i % 2 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            sched
                .enqueue_default(class, request(&inputs, Variant::Serial, 1))
                .expect("accepted")
        })
        .collect();
    for t in tickets {
        t.wait().expect("runs");
    }
    let stats = sched.stats();
    assert!(
        stats.max_inflight <= 2,
        "cap 2 exceeded: {}",
        stats.max_inflight
    );
    assert_eq!(stats.completed, 6);
}

#[test]
fn per_model_cap_constrains_only_that_model() {
    let (svc_a, inputs_a, _) = service(6);
    let (svc_b, inputs_b, _) = service(7);
    let sched = SchedulerBuilder::new(SchedulerConfig::default().global_cap(4))
        .model_with_cap("a", svc_a, 1)
        .model_with_cap("b", svc_b, 4)
        .build();
    let mut tickets = Vec::new();
    for _ in 0..3 {
        tickets.push(
            sched
                .enqueue(
                    "a",
                    Priority::Interactive,
                    request(&inputs_a, Variant::Serial, 1),
                )
                .expect("accepted"),
        );
        tickets.push(
            sched
                .enqueue(
                    "b",
                    Priority::Interactive,
                    request(&inputs_b, Variant::Serial, 1),
                )
                .expect("accepted"),
        );
    }
    for t in tickets {
        t.wait().expect("runs");
    }
    let stats = sched.stats();
    assert_eq!(stats.max_inflight_per_model.len(), 2);
    assert!(stats.max_inflight_per_model[0] <= 1, "model a cap violated");
    assert!(stats.max_inflight <= 4);
    assert_eq!(stats.completed, 6);
}

#[test]
fn admission_path_routes_through_the_warm_pool() {
    let spec = DnnSpec {
        neurons: 64,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 31,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 31));
    let svc = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(31)
            .warm_pool(2, u64::MAX)
            .build(),
    );
    // Serialize execution so the second request finds the first's tree.
    let sched = Scheduler::wrap(svc.clone(), SchedulerConfig::default().global_cap(1));
    let req = request(&inputs, Variant::Queue, 2);
    let a = sched
        .enqueue_default(Priority::Interactive, req.clone())
        .expect("accepted")
        .wait()
        .expect("cold run");
    let b = sched
        .enqueue_default(Priority::Interactive, req)
        .expect("accepted")
        .wait()
        .expect("warm run");
    assert_eq!(a.launch, LaunchPath::ColdStart);
    assert_eq!(b.launch, LaunchPath::WarmHit);
    assert_eq!(a.outputs, b.outputs, "paths agree on outputs");
    let stats = sched.stats();
    assert_eq!(stats.warm_hits, 1);
    assert_eq!(stats.cold_starts, 1);
    let pool = svc.warm_pool_stats().expect("pool enabled");
    assert_eq!((pool.hits, pool.misses), (1, 1));
}

#[test]
fn weighted_fifo_interleaves_classes_deterministically() {
    let (svc, inputs, _) = service(9);
    let sched = Scheduler::wrap(
        svc,
        SchedulerConfig::default()
            .manual()
            .global_cap(1)
            .weights(2, 1)
            .queue_capacity(32),
    );
    // Backlog both classes fully before any admission.
    let mut tickets = HashMap::new();
    for class in [Priority::Interactive, Priority::Batch] {
        for _ in 0..6 {
            let t = sched
                .enqueue_default(class, request(&inputs, Variant::Serial, 1))
                .expect("accepted");
            tickets.insert(t.seq(), t);
        }
    }
    // Drive to completion: dispatch, harvest in admission order.
    let mut harvested = 0;
    while harvested < 12 {
        sched.dispatch();
        let log = sched.admission_log();
        if harvested < log.len() {
            let seq = log[harvested];
            harvested += 1;
            tickets.remove(&seq).expect("ticket").wait().expect("runs");
        }
    }
    // Interactive seqs are 1..=6, Batch 7..=12. With weights 2:1 the
    // smooth-WRR admission pattern is I B I · I B I · I B (2:1 in
    // every window of 3), then the Batch tail — exact and reproducible
    // because every decision happened on this thread.
    let log = sched.admission_log();
    assert_eq!(log, vec![1, 7, 2, 3, 8, 4, 5, 9, 6, 10, 11, 12]);
    assert_eq!(sched.stats().max_inflight, 1);
}

#[test]
fn interactive_preempts_batch_coalition_and_followers_coalesce() {
    let spec = DnnSpec {
        neurons: 64,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 11,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 11));
    let expected = dnn.serial_inference(&inputs);
    let svc = Arc::new(ServiceBuilder::new(dnn).deterministic(11).build());
    let sched = Scheduler::wrap(
        svc,
        SchedulerConfig::default()
            .manual()
            .global_cap(1)
            .weights(1, 3)
            .batched(BatchingConfig::default()),
    );
    // Three compatible Batch requests (seqs 1..=3), then one
    // Interactive (seq 4). Batch wins the first SWRR round (weight 3),
    // but its head must run ALONE while Interactive waits.
    let mut tickets = HashMap::new();
    for _ in 0..3 {
        let t = sched
            .enqueue_default(Priority::Batch, request(&inputs, Variant::Queue, 2))
            .expect("accepted");
        tickets.insert(t.seq(), t);
    }
    let t = sched
        .enqueue_default(Priority::Interactive, request(&inputs, Variant::Queue, 2))
        .expect("accepted");
    tickets.insert(t.seq(), t);

    let mut groups = Vec::new();
    let mut harvested = 0;
    while harvested < 4 {
        groups.extend(sched.dispatch());
        let log = sched.admission_log();
        while harvested < log.len() {
            let seq = log[harvested];
            harvested += 1;
            let report = tickets.remove(&seq).expect("ticket").wait().expect("runs");
            assert_eq!(report.first_output(), &expected);
        }
    }
    // Group 1: the Batch head, solo (Interactive was waiting — the
    // fairness rule forbids widening the coalition ahead of it).
    // Group 2: the Interactive request. Group 3: the remaining Batch
    // pair coalesces once no Interactive traffic waits.
    assert_eq!(groups, vec![vec![1], vec![4], vec![2, 3]]);
    let stats = sched.stats();
    assert_eq!(stats.coalitions, 1);
    assert_eq!(stats.coalesced, 2);
    assert_eq!(stats.max_inflight, 1, "a coalition holds one slot");
    assert_eq!(stats.completed, 4);
}

#[test]
fn retry_hint_jitter_is_banded_and_seeded() {
    let hints_for = |seed: u64| -> Vec<u64> {
        let (svc, inputs, _) = service(seed);
        let sched = Scheduler::wrap(svc, SchedulerConfig::default().manual().queue_capacity(1));
        let parked = sched
            .enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1))
            .expect("fills the queue");
        let hints: Vec<u64> = (0..6)
            .map(|_| {
                match sched.enqueue_default(Priority::Batch, request(&inputs, Variant::Serial, 1)) {
                    Err(FsdError::Overloaded { retry_after }) => retry_after.as_micros(),
                    other => panic!("expected Overloaded, got {other:?}"),
                }
            })
            .collect();
        sched.dispatch();
        parked.wait().expect("parked request runs");
        hints
    };
    // Before any completion the blended EWMA is unseeded, so the base
    // is DEFAULT_LATENCY_US × 1 wave: every hint must land inside the
    // ±RETRY_HINT_JITTER band around it...
    let hints = hints_for(15);
    for &h in &hints {
        assert!(
            (900_000..=1_100_000).contains(&h),
            "hint {h} outside [900000, 1100000]"
        );
    }
    // ...vary across successive rejections (herd decorrelation)...
    assert!(
        hints.windows(2).any(|w| w[0] != w[1]),
        "jitter must vary between rejections: {hints:?}"
    );
    // ...and replay bit-identically under the same region seed.
    assert_eq!(hints, hints_for(15), "jitter must be seed-deterministic");
}

#[test]
fn retry_hint_tightens_after_warm_hits() {
    let spec = DnnSpec {
        neurons: 64,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 12,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 12));
    let svc = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(12)
            .warm_pool(1, u64::MAX)
            .build(),
    );
    let sched = Scheduler::wrap(
        svc,
        SchedulerConfig::default()
            .manual()
            .global_cap(1)
            .queue_capacity(1),
    );
    let run_one = || {
        let t = sched
            .enqueue_default(Priority::Batch, request(&inputs, Variant::Queue, 2))
            .expect("accepted");
        sched.dispatch();
        t.wait().expect("runs")
    };
    let overload_hint = || {
        let parked = sched
            .enqueue_default(Priority::Batch, request(&inputs, Variant::Queue, 2))
            .expect("fills the queue");
        let hint = match sched.enqueue_default(Priority::Batch, request(&inputs, Variant::Queue, 2))
        {
            Err(FsdError::Overloaded { retry_after }) => retry_after,
            other => panic!("expected Overloaded, got {other:?}"),
        };
        sched.dispatch();
        (hint, parked.wait().expect("parked request runs"))
    };
    assert_eq!(run_one().launch, LaunchPath::ColdStart);
    // Hint read while only the cold EWMA is seeded...
    let (hint_cold, first_warm) = overload_hint();
    assert_eq!(first_warm.launch, LaunchPath::WarmHit);
    // ...then a few warm hits weight the blended estimate toward the
    // cheaper warm path...
    for _ in 0..3 {
        assert_eq!(run_one().launch, LaunchPath::WarmHit);
    }
    // ...so the *same* backlog state must now hint a shorter retry.
    let (hint_warm, another_warm) = overload_hint();
    assert_eq!(another_warm.launch, LaunchPath::WarmHit);
    assert!(
        hint_warm < hint_cold,
        "hint must tighten after warm hits: {hint_warm:?} !< {hint_cold:?}"
    );
    let stats = sched.stats();
    assert!(stats.ewma_warm_latency < stats.ewma_cold_latency);
    assert!(stats.ewma_warm_latency > VirtualTime::ZERO);
    assert_eq!(stats.cold_starts, 1);
    assert_eq!(stats.warm_hits, 5);
}

#[test]
fn retry_budget_recovers_an_injected_instance_crash() {
    let spec = DnnSpec {
        neurons: 64,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 14,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 14));
    let expected = dnn.serial_inference(&inputs);
    let svc = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(14)
            .warm_pool(2, u64::MAX)
            .build(),
    );
    let sched = Scheduler::wrap(svc.clone(), SchedulerConfig::default().global_cap(1));
    let req = request(&inputs, Variant::Queue, 2);
    // Park a tree, then arm a kill on one of its workers through the
    // unified fault surface: the next routed request loses the
    // instance mid-request (FailureCause::InstanceCrash).
    sched
        .enqueue_default(Priority::Interactive, req.clone())
        .expect("accepted")
        .wait()
        .expect("cold run parks a tree");
    assert!(svc.inject_fault(FsdService::warm_worker_fault(Variant::Queue, 2, 1769, 1)));
    // Without a budget the crash surfaces; with one, the scheduler
    // re-admits at the class head and the rerun cold-starts cleanly.
    let report = sched
        .enqueue_with_retries(DEFAULT_MODEL, Priority::Interactive, req, 2)
        .expect("accepted")
        .wait()
        .expect("retry must recover the injected crash");
    assert_eq!(report.first_output(), &expected);
    assert_eq!(report.launch, LaunchPath::ColdStart, "rerun relaunches");
    let stats = sched.stats();
    assert_eq!(stats.enqueued, 2, "a retry is not a new enqueue");
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.failed, 0, "recovered attempts are not failures");
    assert_eq!(stats.failed_by, [0; FailureCause::COUNT]);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.inflight, 0, "retry must not leak a slot");
}

#[test]
fn a_retried_coalition_member_returns_its_share_before_readmission() {
    let spec = DnnSpec {
        neurons: 64,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 16,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, 16));
    let expected = dnn.serial_inference(&inputs);
    let svc = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(16)
            .warm_pool(2, u64::MAX)
            .build(),
    );
    let sched = Scheduler::wrap(
        svc.clone(),
        SchedulerConfig::default()
            .manual()
            .global_cap(1)
            .batched(BatchingConfig::default()),
    );
    let req = request(&inputs, Variant::Queue, 2);
    // Seq 1 parks a tree; arm a kill on one of its workers.
    let parker = sched
        .enqueue_default(Priority::Interactive, req.clone())
        .expect("accepted");
    assert_eq!(sched.dispatch(), vec![vec![1]]);
    parker.wait().expect("cold run parks a tree");
    assert!(svc.inject_fault(FsdService::warm_worker_fault(Variant::Queue, 2, 1769, 1)));
    let mut tickets: Vec<Ticket> = (0..3)
        .map(|_| {
            sched
                .enqueue_with_retries(DEFAULT_MODEL, Priority::Interactive, req.clone(), 1)
                .expect("accepted")
        })
        .collect();
    // The coalition lands on the armed tree: its head loses the
    // instance and is requeued, the followers finish. Harvesting them
    // returns the last two shares, so the head's rerun can take the
    // one slot.
    assert_eq!(sched.dispatch(), vec![vec![2, 3, 4]]);
    let head = tickets.remove(0);
    for follower in tickets {
        let report = follower.wait().expect("followers run");
        assert_eq!(report.first_output(), &expected);
    }
    assert_eq!(sched.dispatch(), vec![vec![2]]);
    let report = head.wait().expect("the retry recovers the crash");
    assert_eq!(report.first_output(), &expected);
    assert_eq!(sched.admission_log(), vec![1, 2, 3, 4, 2]);
    let stats = sched.stats();
    assert_eq!(stats.retried, 1);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.inflight, 0, "retry must not leak a slot");
    assert_eq!(stats.max_inflight, 1);
}

#[test]
fn a_zeroed_config_still_serves() {
    // Public fields bypass the setters, so zeros set by struct literal
    // must be clamped at build: a zero global cap admits nothing (the
    // untimed wait would hang), a zero queue bound rejects everything.
    let zeroed_admission = SchedulerConfig {
        global_cap: 0,
        weights: [0, 0],
        batching: Some(BatchingConfig {
            max_batch: 0,
            ..BatchingConfig::default()
        }),
        ..SchedulerConfig::default()
    };
    let zeroed_queue = SchedulerConfig {
        queue_capacity: 0,
        ..SchedulerConfig::default()
    };
    for cfg in [zeroed_admission, zeroed_queue] {
        let (svc, inputs, expected) = service(6);
        let sched = Scheduler::wrap(svc, cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        let client = sched.clone();
        let submitter = std::thread::spawn(move || {
            let served = client
                .enqueue_default(Priority::Interactive, request(&inputs, Variant::Serial, 1))
                .and_then(Ticket::wait);
            let _ = tx.send(served);
        });
        let report = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("{cfg:?} never served its request"))
            .expect("runs");
        submitter.join().expect("submitter thread");
        assert_eq!(report.first_output(), &expected);
        assert_eq!(sched.global_cap(), cfg.global_cap.max(1));
    }
}
