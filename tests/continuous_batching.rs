//! Continuous-batching acceptance: cross-request coalescing must change
//! *cost and scheduling* without changing *semantics*. A coalition's
//! members ride one fused work item — their samples side by side in one
//! batch, one flow, one channel, one dispatch — so a warm coalition bills
//! the calls of one lone request at the fused width. Each member still
//! gets its own outputs, bit-identical to sequential execution, and its
//! own report: the item's latency and launch path, and the item's window
//! apportioned by samples, so the members' bills sum to it exactly and
//! billing still partitions the global meters. Replays stay
//! bit-identical, Interactive traffic stays ahead of fat Batch coalitions,
//! and shutdown cancels still-queued tickets promptly instead of hanging
//! them.

mod common;

use fsd_inference::comm::MeterSnapshot;
use fsd_inference::core::{
    BatchedRequest, FsdError, FsdService, InferenceReport, LaunchPath, ServiceBuilder, Variant,
};
use fsd_inference::faas::LambdaSnapshot;
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sched::harness::replay;
use fsd_inference::sched::{
    trace, Arrival, BatchingConfig, Priority, Scheduler, SchedulerBuilder, SchedulerConfig,
};
use fsd_inference::sparse::SparseRows;
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
    assert_eq!(sequential_svc.audit(), Vec::<String>::new());
    assert_eq!(coalesced_svc.audit(), Vec::<String>::new());
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
    // flow: the per-request windows partition the global comm and Lambda
    // meters — no double billing — and the head's flow paid the launch,
    // so nothing is unattributed.
    assert!(reports.iter().all(Result::is_ok), "{reports:?}");
    assert_eq!(svc.audit(), Vec::<String>::new());
    let (comm, lambda) = (svc.env().meter(), svc.platform().lambda_meter());
    assert_eq!(
        (comm.unattributed(), lambda.unattributed()),
        Default::default()
    );
}

/// Every channel transport plus Serial, the one-rank tree.
fn fused_variants() -> impl Iterator<Item = Variant> {
    common::channel_variants().chain([Variant::Serial])
}

/// A deterministic P = 2 service of `variant` whose warm pool holds one
/// parked tree of the shape, so a pass's checkout hits.
fn parked_service(dnn: &Arc<fsd_inference::model::SparseDnn>, variant: Variant) -> FsdService {
    ServiceBuilder::new(dnn.clone())
        .deterministic(39)
        .warm_pool(2, u64::MAX)
        .prewarm_tree(variant, 2, 1769)
        .build()
}

/// `members` P = 2 requests of `variant`, member `i` of width `4 + i`,
/// with `batches(i)` batches each.
fn members_of(
    variant: Variant,
    members: usize,
    batches: impl Fn(usize) -> usize,
) -> Vec<BatchedRequest> {
    (0..members)
        .map(|i| BatchedRequest {
            variant,
            workers: 2,
            memory_mb: 1769,
            batches: (0..batches(i))
                .map(|b| {
                    generate_inputs(72, &InputSpec::scaled(4 + i, 39 + 8 * i as u64 + b as u64))
                })
                .collect(),
        })
        .collect()
}

/// The service's global comm and Lambda meters.
fn meters(service: &FsdService) -> (MeterSnapshot, LambdaSnapshot) {
    let (comm, lambda) = (service.env().meter(), service.platform().lambda_meter());
    (comm.snapshot(), lambda.snapshot())
}

/// The billed calls the fused-item checks compare.
fn calls(comm: &MeterSnapshot) -> [u64; 5] {
    [
        comm.s3_put_requests,
        comm.s3_list_requests,
        comm.sqs_api_calls,
        comm.sns_publish_requests,
        comm.direct_messages,
    ]
}

fn runs(results: Vec<Result<InferenceReport, FsdError>>) -> Vec<InferenceReport> {
    results
        .into_iter()
        .map(|r| r.expect("member runs"))
        .collect()
}

#[test]
fn a_warm_coalition_bills_one_lone_requests_calls() {
    let dnn = Arc::new(generate_dnn(&spec(39)));
    for variant in fused_variants() {
        let reqs = members_of(variant, 4, |_| 1);
        let coalition = parked_service(&dnn, variant);
        let members = runs(coalition.submit_coalesced(&reqs));
        let inputs: Vec<&SparseRows> = reqs.iter().map(|r| &r.batches[0]).collect();
        let lone = parked_service(&dnn, variant)
            .submit_batched(&BatchedRequest {
                batches: vec![SparseRows::concat_columns(&inputs)],
                ..reqs[0].clone()
            })
            .expect("lone request runs");
        assert_eq!(lone.samples, 4 + 5 + 6 + 7);
        let mut summed = [0; 5];
        for m in &members {
            assert_eq!(m.launch, LaunchPath::WarmHit, "{variant}");
            for (sum, n) in summed.iter_mut().zip(calls(&m.comm)) {
                *sum += n;
            }
        }
        assert_eq!(summed, calls(&lone.comm), "{variant}");
        assert_eq!(coalition.audit(), Vec::<String>::new(), "{variant}");
    }
}

#[test]
fn fused_members_split_the_items_window_exactly_and_pay_one_rate_per_sample() {
    let dnn = Arc::new(generate_dnn(&spec(39)));
    for variant in fused_variants() {
        let reqs = members_of(variant, 4, |_| 1);
        let service = parked_service(&dnn, variant);
        let members = runs(service.submit_coalesced(&reqs));
        // One item ran, on the parked tree: beside the pre-warm's
        // unattributed launch, everything the meters counted is its
        // window, and the members' windows sum to it field by field.
        let (comm, lambda) = (service.env().meter(), service.platform().lambda_meter());
        let launch = (comm.unattributed(), lambda.unattributed());
        let summed = members.iter().fold(launch, |(comm, lambda), m| {
            (comm.plus(&m.comm), lambda.plus(&m.lambda))
        });
        assert_eq!(summed, meters(&service), "{variant}");
        // Work done and costs are split the same way.
        let work: u64 = members.iter().map(|m| m.work_done).sum();
        assert!(work > 0, "{variant}");
        let rate = members[0].per_sample_cost();
        assert!(rate > 0.0, "{variant}");
        for (i, m) in members.iter().enumerate() {
            assert_eq!(m.samples, 4 + i, "{variant}");
            // Equal up to the rounding of one f64 scale and division.
            let off = (m.per_sample_cost() - rate).abs() / rate;
            assert!(off < 1e-12, "{variant} member {i}: off by {off:e}");
            assert_eq!(m.latency, members[0].latency, "{variant}");
        }
        assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
    }
}

#[test]
fn members_of_unequal_batch_counts_ride_one_item_per_count() {
    let dnn = Arc::new(generate_dnn(&spec(39)));
    for variant in fused_variants() {
        // Members 0 and 2 carry one batch, 1 and 3 two.
        let reqs = members_of(variant, 4, |i| 1 + i % 2);
        let service = parked_service(&dnn, variant);
        let members = runs(service.submit_coalesced(&reqs));
        for (m, req) in members.iter().zip(&reqs) {
            assert_eq!(m.outputs.len(), req.batches.len(), "{variant}");
            for (out, x) in m.outputs.iter().zip(&req.batches) {
                assert_eq!(out, &dnn.serial_inference(x), "{variant}");
            }
        }
        // Two items, each at one latency; the two-batch item runs longer.
        assert_eq!(members[0].latency, members[2].latency, "{variant}");
        assert_eq!(members[1].latency, members[3].latency, "{variant}");
        assert!(members[1].latency > members[0].latency, "{variant}");
        let stats = service.warm_pool_stats().expect("pool");
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 0),
            "one checkout: {stats:?}"
        );
        assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
    }
}

#[test]
fn a_cold_coalitions_head_rides_the_launch_alone() {
    let dnn = Arc::new(generate_dnn(&spec(39)));
    for variant in fused_variants() {
        let reqs = members_of(variant, 4, |_| 1);
        let service = ServiceBuilder::new(dnn.clone()).deterministic(39).build();
        let members = runs(service.submit_coalesced(&reqs));
        let launches: Vec<LaunchPath> = members.iter().map(|m| m.launch).collect();
        assert_eq!(
            launches,
            [
                LaunchPath::ColdStart,
                LaunchPath::WarmHit,
                LaunchPath::WarmHit,
                LaunchPath::WarmHit
            ],
            "{variant}"
        );
        // The followers ride one item on the resident tree: one latency,
        // with no launch in it.
        assert!(members[1..].iter().all(|m| m.latency == members[1].latency));
        assert!(members[1].latency < members[0].latency, "{variant}");
        for (m, req) in members.iter().zip(&reqs) {
            assert_eq!(m.first_output(), &dnn.serial_inference(&req.batches[0]));
        }
        assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
    }
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
        assert_eq!(sched.audit(), Vec::<String>::new());
        report
    };
    let first = run();
    for run_i in 1..3 {
        let again = run();
        assert_eq!(
            first.admission_groups, again.admission_groups,
            "run {run_i}: coalition formation diverged"
        );
        assert_eq!(first, again, "run {run_i}: batched replay diverged");
    }
    let groups = &first.admission_groups;
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
    for group in groups {
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
    let groups = &report.admission_groups;
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
    for group in groups {
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
    assert_eq!(sched.audit(), Vec::<String>::new());
}

#[test]
fn same_burst_serial_requests_form_one_coalition() {
    // Three Serial Batch arrivals at one instant, asking for different P:
    // all run on the one-rank tree, so they coalesce into one pass that
    // pays one launch.
    let arrivals: Vec<Arrival> = (0..3u32)
        .map(|i| Arrival {
            at: fsd_inference::comm::VirtualTime::ZERO,
            priority: Priority::Batch,
            variant: Variant::Serial,
            workers: 1 + i,
            memory_mb: 1769,
            width: 4 + i as usize,
            input_seed: 45 + u64::from(i),
        })
        .collect();
    let cfg = SchedulerConfig::default().global_cap(1).queue_capacity(8);
    let sched = fresh_batched_scheduler(45, cfg);
    let report = replay(&sched, "m", &arrivals);
    assert_eq!(report.stats.failed, 0);
    let sizes: Vec<usize> = report.admission_groups.iter().map(Vec::len).collect();
    assert_eq!(sizes, [3], "{:?}", report.admission_groups);
    assert_eq!(report.stats.coalitions, 1);
    assert_eq!((report.stats.cold_starts, report.stats.warm_hits), (1, 2));
    assert_eq!(sched.audit(), Vec::<String>::new());
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
    assert_eq!(stats.completed, 0);
    // A post-shutdown drain returns immediately on the empty system.
    sched.drain();
    assert_eq!(sched.audit(), Vec::<String>::new());
}
