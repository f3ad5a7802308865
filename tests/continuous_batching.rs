//! Continuous-batching acceptance: cross-request coalescing must change
//! *scheduling* without changing *semantics*. A coalesced pass has to
//! produce bit-identical outputs to sequential execution, meter every
//! member under its own flow (billing partitions the global meters
//! exactly), replay bit-identically, keep Interactive traffic ahead of
//! fat Batch coalitions, and — at shutdown — cancel still-queued tickets
//! promptly instead of hanging them.

use fsd_inference::comm::MeterSnapshot;
use fsd_inference::core::{BatchedRequest, FsdError, LaunchPath, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sched::harness::replay;
use fsd_inference::sched::{
    trace, Arrival, BatchingConfig, Priority, Scheduler, SchedulerBuilder, SchedulerConfig,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

fn spec(seed: u64) -> DnnSpec {
    DnnSpec {
        neurons: 72,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    }
}

fn compatible_requests(neurons: usize, n: usize, seed: u64) -> Vec<BatchedRequest> {
    (0..n)
        .map(|i| BatchedRequest {
            variant: Variant::Queue,
            workers: 2,
            memory_mb: 1769,
            batches: vec![generate_inputs(
                neurons,
                &InputSpec::scaled(4 + i, seed + i as u64),
            )],
        })
        .collect()
}

#[test]
fn coalesced_pass_outputs_are_bit_identical_to_sequential() {
    let spec = spec(37);
    let dnn = Arc::new(generate_dnn(&spec));
    let fresh = || {
        Arc::new(
            ServiceBuilder::new(dnn.clone())
                .deterministic(37)
                .prewarm(2)
                .build(),
        )
    };
    let reqs = compatible_requests(spec.neurons, 4, 37);

    let sequential_svc = fresh();
    let sequential: Vec<_> = reqs
        .iter()
        .map(|r| sequential_svc.submit_batched(r).expect("sequential run"))
        .collect();

    let coalesced_svc = fresh();
    let coalesced = coalesced_svc.submit_coalesced(&reqs);
    assert_eq!(coalesced.len(), reqs.len());
    let mut cold = 0;
    for (i, (c, s)) in coalesced.iter().zip(&sequential).enumerate() {
        let c = c.as_ref().expect("coalesced member runs");
        assert_eq!(c.variant, s.variant, "request {i}: variant diverged");
        assert_eq!(c.workers, s.workers);
        assert_eq!(c.outputs, s.outputs, "request {i}: outputs diverged");
        if c.launch == LaunchPath::ColdStart {
            cold += 1;
        }
    }
    // Followers land warm on the head's resident tree: the whole pass
    // pays exactly one launch.
    assert_eq!(cold, 1, "a coalition pays exactly one cold start");
    assert_eq!(
        coalesced_svc.env().meter().tracked_flows(),
        0,
        "leaked flows"
    );
}

#[test]
fn coalesced_billing_partitions_the_global_meters() {
    let spec = spec(38);
    let dnn = Arc::new(generate_dnn(&spec));
    let svc = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(38)
            .prewarm(2)
            .build(),
    );
    let reqs = compatible_requests(spec.neurons, 5, 38);
    let reports = svc.submit_coalesced(&reqs);

    // One coalesced tree pass, but every member was metered under its own
    // flow: summing the per-request snapshots must reproduce the global
    // comm meter field for field, and likewise the Lambda meter — no
    // double billing, no unattributed residue.
    let mut comm_sum = MeterSnapshot::default();
    let mut invocations = 0u64;
    let mut mb_ms = 0u64;
    for r in &reports {
        let r = r.as_ref().expect("member runs");
        comm_sum = comm_sum.plus(&r.comm);
        invocations += r.lambda.invocations;
        mb_ms += r.lambda.mb_ms;
    }
    assert_eq!(
        comm_sum,
        svc.env().meter().snapshot(),
        "per-flow comm billing must partition the global meter"
    );
    let lambda = svc.platform().lambda_meter().snapshot();
    assert_eq!((invocations, mb_ms), (lambda.invocations, lambda.mb_ms));
    assert_eq!(svc.env().meter().tracked_flows(), 0, "leaked comm flows");
    assert_eq!(svc.platform().lambda_meter().tracked_flows(), 0);
}

/// A manual-dispatch scheduler with continuous batching over a fresh
/// deterministic service.
fn fresh_batched_scheduler(seed: u64, cfg: SchedulerConfig) -> Scheduler {
    let dnn = Arc::new(generate_dnn(&spec(seed)));
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(seed)
            .prewarm(1)
            .prewarm(2)
            .build(),
    );
    SchedulerBuilder::new(cfg.manual().batched(BatchingConfig::default()))
        .model("m", service)
        .build()
}

#[test]
fn batched_bursty_replays_are_bit_identical() {
    let trace = trace::bursty(3, 8, 400_000, 41);
    let cfg = SchedulerConfig::default().global_cap(2).queue_capacity(64);
    let run = || {
        let sched = fresh_batched_scheduler(41, cfg);
        let report = replay(&sched, "m", &trace);
        let groups = sched.admission_groups();
        (report, groups)
    };
    let (first, groups) = run();
    for run_i in 1..3 {
        let (again, groups_again) = run();
        assert_eq!(first, again, "run {run_i}: batched replay diverged");
        assert_eq!(
            groups, groups_again,
            "run {run_i}: coalition formation diverged"
        );
    }
    assert!(first.rejected.is_empty(), "generous queues must not reject");
    assert_eq!(first.stats.failed, 0);
    assert!(
        first.stats.coalesced > 0,
        "the bursty trace must form coalitions"
    );
    assert!(groups.iter().any(|g| g.len() > 1));
    // A coalition never spans priority classes.
    let class_of: HashMap<u64, Priority> =
        first.outcomes.iter().map(|o| (o.seq, o.priority)).collect();
    for group in &groups {
        assert!(
            group.iter().all(|s| class_of[s] == class_of[&group[0]]),
            "coalition spans classes: {group:?}"
        );
    }
}

#[test]
fn interactive_stays_bounded_while_batch_coalitions_drain() {
    // Adversarial instant: 24 same-shape Batch requests enqueued *before*
    // 4 Interactive ones, all sharing one arrival time. Without the
    // fairness rule the Batch head would widen into max_batch coalitions
    // and the Interactive tail would wait behind them.
    let mut arrivals: Vec<Arrival> = Vec::new();
    for i in 0..28usize {
        arrivals.push(Arrival {
            at: fsd_inference::comm::VirtualTime::ZERO,
            priority: if i < 24 {
                Priority::Batch
            } else {
                Priority::Interactive
            },
            variant: Variant::Queue,
            workers: 2,
            memory_mb: 1769,
            width: 4 + (i % 5),
            input_seed: 43 + i as u64,
        });
    }
    let cfg = SchedulerConfig::default()
        .global_cap(1)
        .queue_capacity(32)
        .weights(3, 1);
    let sched = fresh_batched_scheduler(43, cfg);
    let report = replay(&sched, "m", &arrivals);
    let groups = sched.admission_groups();
    assert!(report.rejected.is_empty());
    assert_eq!(report.stats.failed, 0);

    let interactive: HashSet<u64> = report
        .outcomes
        .iter()
        .filter(|o| o.priority == Priority::Interactive)
        .map(|o| o.seq)
        .collect();
    assert_eq!(interactive.len(), 4);

    // Invariant: a multi-member Batch coalition may only form once no
    // Interactive request is still queued — Interactive preempts the
    // window close (Batch heads may still run solo in their SWRR turns).
    let mut interactive_seen = 0usize;
    for group in &groups {
        if interactive.contains(&group[0]) {
            interactive_seen += group.len();
        } else if group.len() > 1 {
            assert_eq!(
                interactive_seen,
                interactive.len(),
                "a Batch coalition widened while Interactive waited: {groups:?}"
            );
        }
    }
    // Boundedness: with weights 3:1 the last Interactive admission lands
    // within the first few groups — never behind the Batch backlog.
    let last_interactive = groups
        .iter()
        .rposition(|g| interactive.contains(&g[0]))
        .expect("interactive admitted");
    assert!(
        last_interactive < interactive.len() + 4,
        "interactive delayed to group {last_interactive}: {groups:?}"
    );
    // The Batch backlog did drain through real coalitions afterwards.
    assert!(report.stats.coalitions >= 2);
    assert!(report.stats.coalesced >= 16);
    assert_eq!(report.stats.completed, 28);
}

#[test]
fn shutdown_resolves_queued_tickets_within_a_bound() {
    let dnn = Arc::new(generate_dnn(&spec(44)));
    let svc = Arc::new(ServiceBuilder::new(dnn).deterministic(44).build());
    // Manual mode with no dispatch calls: every accepted ticket stays
    // queued past the (never-consumed) caps.
    let sched = Scheduler::wrap(
        svc,
        SchedulerConfig::default()
            .manual()
            .global_cap(1)
            .queue_capacity(16),
    );
    let inputs = generate_inputs(72, &InputSpec::scaled(4, 44));
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            let class = if i % 2 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            sched
                .enqueue_default(
                    class,
                    BatchedRequest {
                        variant: Variant::Serial,
                        workers: 1,
                        memory_mb: 1769,
                        batches: vec![inputs.clone()],
                    },
                )
                .expect("accepted")
        })
        .collect();
    sched.shutdown();

    // Join every ticket from its own thread with an explicit bound: a
    // regression back to hanging waits fails here instead of wedging the
    // whole suite.
    let (tx, rx) = std::sync::mpsc::channel();
    for t in tickets {
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send(t.wait());
        });
    }
    drop(tx);
    for _ in 0..12 {
        let result = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("cancelled ticket must resolve within the bound");
        assert!(
            matches!(result, Err(FsdError::ShuttingDown)),
            "queued ticket must cancel with ShuttingDown, got {result:?}"
        );
    }
    let stats = sched.stats();
    assert_eq!(stats.cancelled, 12);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.inflight, 0);
    assert_eq!(stats.completed, 0);
    // A post-shutdown drain returns immediately on the empty system.
    sched.drain();
}
