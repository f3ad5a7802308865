//! Chaos soak — the fault-injection acceptance gate.
//!
//! Drives a seeded bursty trace through an admission-controlled scheduler
//! twice: once fault-free (the overhead baseline the CI bench gate
//! tracks) and once with a 5% per-operation transient fault rate across
//! every API class (`FaultPlan::uniform_transient`), with channel-level
//! retry/backoff and a scheduler retry budget absorbing the injected
//! failures. The faulted soak is replayed **three times** and must be
//! bit-identical — same injected faults, same retries, same outputs, same
//! bills — because every injection decision is a pure hash of
//! `(plan seed, api class, flow, virtual now, resource)`.
//!
//! Hard assertions (the chaos gate):
//! * every request ultimately succeeds (≥99% required; zero terminal
//!   failures delivered) and returns the exact serial-reference output;
//! * ×3 bit-identical faulted replays (per-request latency + billing
//!   fingerprints, scheduler counters, fault-plane stats, global meters);
//! * a clean `Scheduler::audit` after drain: zero cloud residue and an
//!   exact billing partition — the global comm + Lambda meters equal the
//!   per-flow request digests plus the failed-attempt bill, even though
//!   failed attempts are billed and retries add calls;
//! * the fault-free run injects nothing and retries nothing.
//!
//! `FSD_FAULT_SEED` selects the fault-plane seed (CI sweeps several); the
//! workload itself stays fixed so only the injection schedule moves.
//!
//! ```text
//! FSD_FAULT_SEED=7 cargo run --release -p fsd-bench --bin chaos_soak
//! ```

use fsd_bench::gate::{self, Val};
use fsd_bench::{row, small_dnn, Table, SEED};
use fsd_comm::{CloudConfig, FaultPlan, MeterSnapshot, VirtualTime};
use fsd_core::{Bill, FsdService, ServiceBuilder};
use fsd_model::SparseDnn;
use fsd_sched::{trace, Arrival, Scheduler, SchedulerConfig, Ticket, DEFAULT_MODEL};
use std::sync::Arc;
use std::time::Instant;

/// Per-operation transient fault probability in the chaos run.
const FAULT_RATE: f64 = 0.05;
/// Scheduler-level retry budget per request (on top of channel retries).
const RETRY_BUDGET: u32 = 6;

/// Everything a soak run must reproduce bit-for-bit on replay.
#[derive(Debug, PartialEq)]
struct SoakRun {
    /// Per request: (virtual latency µs, SQS calls, SNS publishes,
    /// S3 GET+PUT, Lambda invocations).
    fingerprints: Vec<(u64, u64, u64, u64, u64)>,
    retried: u64,
    failed: u64,
    injected: u64,
    global_comm: MeterSnapshot,
    global_invocations: u64,
    /// What the failed (retried-away) attempts were billed.
    failed_bill: Bill,
    mean_latency_us: u64,
}

/// One full soak: enqueue the whole trace with a retry budget through an
/// auto-dispatch scheduler at `global_cap(1)` (serial admission keeps the
/// flow-id sequence — and therefore the injection schedule — replayable),
/// wait every ticket, then audit the scheduler and its service.
fn soak(dnn: &Arc<SparseDnn>, arrivals: &[Arrival], plan: Option<FaultPlan>) -> SoakRun {
    let mut cloud = CloudConfig::deterministic(SEED);
    if let Some(plan) = plan {
        cloud = cloud.with_faults(plan);
    }
    let service: Arc<FsdService> = Arc::new(
        ServiceBuilder::new(dnn.clone())
            .cloud(cloud)
            .seed(SEED)
            .build(),
    );
    let sched = Scheduler::wrap(
        service.clone(),
        SchedulerConfig::default().global_cap(1).queue_capacity(256),
    );
    let neurons = dnn.spec().neurons;
    let tickets: Vec<Ticket> = arrivals
        .iter()
        .map(|a| {
            sched
                .enqueue_with_retries(DEFAULT_MODEL, a.priority, a.request(neurons), RETRY_BUDGET)
                .expect("generous queues must not reject")
        })
        .collect();

    let mut fingerprints = Vec::with_capacity(arrivals.len());
    let mut total_latency_us = 0u64;
    for (t, a) in tickets.into_iter().zip(arrivals) {
        let report = t
            .wait()
            .expect("the retry budget must absorb every injected fault");
        // Faults must never corrupt payloads: every answer is still the
        // exact serial reference for its input.
        assert_eq!(
            report.first_output(),
            &dnn.serial_inference(&a.request(neurons).batches[0]),
            "faulted run must still produce the serial-reference output"
        );
        total_latency_us += report.latency.as_micros();
        fingerprints.push((
            report.latency.as_micros(),
            report.comm.sqs_api_calls,
            report.comm.sns_publish_requests,
            report.comm.s3_get_requests + report.comm.s3_put_requests,
            report.lambda.invocations,
        ));
    }
    sched.shutdown();
    sched.drain();

    assert_eq!(sched.audit(), Vec::<String>::new());

    let stats = sched.stats();
    assert_eq!(stats.failed, 0, "zero terminal failures required");
    assert_eq!(stats.completed, arrivals.len() as u64);
    SoakRun {
        fingerprints,
        retried: stats.retried,
        failed: stats.failed,
        injected: service.env().faults().stats().injected_total(),
        global_comm: service.env().snapshot(),
        global_invocations: service.platform().lambda_snapshot().invocations,
        failed_bill: service.failed_attempt_bill(),
        mean_latency_us: total_latency_us / arrivals.len().max(1) as u64,
    }
}

fn main() {
    let fault_seed = fsd_bench::fault_seed(std::env::var_os("FSD_FAULT_SEED").as_deref())
        .unwrap_or_else(|e| {
            eprintln!("chaos_soak: {e}");
            std::process::exit(2)
        });
    let dnn = small_dnn(64, 2, SEED);
    let arrivals = trace::bursty(6, 8, 300_000, SEED);
    let plan = FaultPlan::uniform_transient(fault_seed, FAULT_RATE);

    // Fault-free baseline: the plane must stay perfectly dormant.
    let started = Instant::now();
    let baseline = soak(&dnn, &arrivals, None);
    let baseline_wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(baseline.injected, 0, "no plan, no faults");
    assert_eq!(baseline.retried, 0, "no faults, no retries");
    assert_eq!(
        baseline.failed_bill,
        Bill::default(),
        "a fault-free run must bill no failed attempts"
    );

    // Chaos run ×3 — must replay bit-identically.
    let started = Instant::now();
    let chaos = soak(&dnn, &arrivals, Some(plan));
    let chaos_wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    assert!(chaos.injected > 0, "a 5% plan over this trace must inject");
    assert!(chaos.retried > 0, "injected faults must surface as retries");
    for replay in 0..2 {
        assert_eq!(
            soak(&dnn, &arrivals, Some(plan)),
            chaos,
            "faulted replay {} diverged — injection must be deterministic",
            replay + 2,
        );
    }

    let success_pct =
        |r: &SoakRun| 100.0 * (arrivals.len() as u64 - r.failed) as f64 / arrivals.len() as f64;
    let mut t = Table::new(&[
        "mode",
        "requests",
        "success %",
        "injected",
        "retried",
        "mean virt latency",
        "SQS calls",
        "invocations",
        "wall ms",
    ]);
    for (mode, r, wall_ms) in [
        ("fault-free", &baseline, baseline_wall_ms),
        ("5% chaos ×3", &chaos, chaos_wall_ms),
    ] {
        t.row(vec![
            mode.to_string(),
            arrivals.len().to_string(),
            format!("{:.1}%", success_pct(r)),
            r.injected.to_string(),
            r.retried.to_string(),
            VirtualTime::from_micros(r.mean_latency_us).to_string(),
            r.global_comm.sqs_api_calls.to_string(),
            r.global_invocations.to_string(),
            format!("{wall_ms:.1}"),
        ]);
    }
    t.print(&format!(
        "Chaos soak — bursty trace ({} requests), fault seed {fault_seed}: \
         bit-identical ×3, exact billing partition, zero residue",
        arrivals.len(),
    ));
    println!(
        "failed attempts are billed: chaos run bills {} extra SQS calls and \
         {} extra invocations over the fault-free baseline",
        chaos.global_comm.sqs_api_calls as i64 - baseline.global_comm.sqs_api_calls as i64,
        chaos.global_invocations as i64 - baseline.global_invocations as i64,
    );

    // Machine-readable emission for the CI bench-regression gate. Only
    // the fault-free latency is gated (the chaos run's latency moves with
    // FSD_FAULT_SEED); the success rate is gated for both modes.
    let soak = vec![
        row!(
            mode: "fault_free",
            fault_free_mean_latency_us: baseline.mean_latency_us,
            success_rate_pct: Val::Fixed(success_pct(&baseline), 1),
        ),
        row!(
            mode: "faulted",
            injected: chaos.injected,
            retried: chaos.retried,
            success_rate_pct: Val::Fixed(success_pct(&chaos), 1),
        ),
    ];
    gate::emit("chaos_soak", &[], &[("soak", soak)]);
}
