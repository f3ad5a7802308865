//! The deterministic load-test driver.
//!
//! [`replay_fleet`] pushes a seeded arrival trace through a
//! **manual-dispatch** scheduler from a single driver thread ([`replay`]
//! is its one-model case). Every scheduler-state mutation —
//! enqueue, admission ([`Scheduler::dispatch`]) and slot release (ticket
//! harvest) — happens on that thread in a fixed protocol, so the admission
//! order, the rejection set and every per-request report are pure
//! functions of `(trace, scheduler config, models)`. Execution itself still
//! fans out over real threads (each admitted request launches its own
//! coordinator + worker tree), which is exactly what makes the replay a
//! *load* test rather than a unit test: up to `global_cap` whole worker
//! trees run concurrently while the driver's bookkeeping stays serial.
//!
//! Driver protocol, per arrival-instant group (arrivals sharing one
//! virtual timestamp):
//!
//! 1. free capacity the backlog would have drained before this instant:
//!    while all slots are held, harvest the earliest-admitted ticket;
//! 2. enqueue the group's arrivals back to back (a burst arrives faster
//!    than anyone can drain it — this is what fills the bounded queues and
//!    produces backpressure rejections);
//! 3. run one admission pass.
//!
//! After the last group the driver drains: dispatch / harvest in admission
//! order until nothing is queued or running.

use crate::scheduler::{Priority, SchedStatsSnapshot, Scheduler, Ticket};
use crate::trace::{Arrival, FleetArrival};
use fsd_core::{BatchedRequest, FsdError, LaunchPath, Variant};
use fsd_model::{generate_inputs, InputSpec};
use fsd_sparse::codec;
use std::collections::HashMap;

/// The deterministic digest of one completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigest {
    /// Variant that executed (Auto resolves before execution).
    pub variant: Variant,
    /// Workers the run used.
    pub workers: u32,
    /// Launch path the run took (warm hit vs cold start) — part of the
    /// deterministic contract: replays must route requests identically.
    pub launch: LaunchPath,
    /// End-to-end virtual latency in microseconds.
    pub latency_us: u64,
    /// FNV-1a digest over every output batch's wire encoding.
    pub output_digest: u64,
    /// Request-local service billing (flow-scoped meters).
    pub sqs_api_calls: u64,
    pub sns_publish_requests: u64,
    pub s3_get_requests: u64,
    pub s3_put_requests: u64,
    /// Request-local Lambda invocations.
    pub invocations: u64,
}

/// Outcome of one accepted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Scheduler sequence number.
    pub seq: u64,
    /// Index into the replayed trace.
    pub trace_index: usize,
    /// Priority class.
    pub priority: Priority,
    /// The run's digest, or the error's display string.
    pub result: Result<RunDigest, String>,
}

/// Everything a replay observed; two replays of the same trace against
/// identically configured schedulers must compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Seq numbers in admission order.
    pub admission_order: Vec<u64>,
    /// Priority class of each admission, aligned with `admission_order`.
    pub admitted_classes: Vec<Priority>,
    /// Trace indices rejected with backpressure, in arrival order.
    pub rejected: Vec<usize>,
    /// Per-request outcomes in admission order.
    pub outcomes: Vec<ReplayOutcome>,
    /// Final scheduler statistics.
    pub stats: SchedStatsSnapshot,
}

impl ReplayReport {
    /// Seq → trace-index admission pairs restricted to one class, in
    /// admission order (FIFO-within-class assertions).
    pub fn admissions_of(&self, class: Priority) -> Vec<u64> {
        self.admission_order
            .iter()
            .zip(&self.admitted_classes)
            .filter(|(_, c)| **c == class)
            .map(|(s, _)| *s)
            .collect()
    }
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_report(report: &fsd_core::InferenceReport) -> RunDigest {
    let mut output_digest = 0xcbf2_9ce4_8422_2325u64;
    for out in &report.outputs {
        fnv1a(&mut output_digest, &codec::encode(out));
    }
    RunDigest {
        variant: report.variant,
        workers: report.workers,
        launch: report.launch,
        latency_us: report.latency.as_micros(),
        output_digest,
        sqs_api_calls: report.comm.sqs_api_calls,
        sns_publish_requests: report.comm.sns_publish_requests,
        s3_get_requests: report.comm.s3_get_requests,
        s3_put_requests: report.comm.s3_put_requests,
        invocations: report.lambda.invocations,
    }
}

/// Replays `trace` against `model` on a manual-dispatch scheduler: the
/// one-model case of [`replay_fleet`], with each outcome's priority class
/// read back from the trace.
///
/// # Panics
/// As [`replay_fleet`]: if the scheduler is not in manual dispatch mode
/// with admission recording (`SchedulerConfig::manual()`), if `model` is
/// not registered, or if an enqueue fails with anything but backpressure.
pub fn replay(sched: &Scheduler, model: &str, trace: &[Arrival]) -> ReplayReport {
    let fleet: Vec<FleetArrival> = trace
        .iter()
        .map(|a| FleetArrival {
            model: 0,
            arrival: a.clone(),
        })
        .collect();
    let report = replay_fleet(sched, &[model], &fleet);
    let outcomes: Vec<ReplayOutcome> = report
        .outcomes
        .into_iter()
        .map(|o| ReplayOutcome {
            seq: o.seq,
            trace_index: o.trace_index,
            priority: trace[o.trace_index].priority,
            result: o.result,
        })
        .collect();
    let class_of: HashMap<u64, Priority> = outcomes.iter().map(|o| (o.seq, o.priority)).collect();
    let admitted_classes = report.admission_order.iter().map(|s| class_of[s]).collect();
    ReplayReport {
        admission_order: report.admission_order,
        admitted_classes,
        rejected: report.rejected,
        outcomes,
        stats: report.stats,
    }
}

/// Outcome of one accepted fleet request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    /// Scheduler sequence number.
    pub seq: u64,
    /// Index into the replay's model list.
    pub model: usize,
    /// Index into the replayed trace.
    pub trace_index: usize,
    /// Stamped virtual arrival instant (µs) — with the per-run latency in
    /// the digest, everything a virtual-makespan model needs.
    pub arrival_us: u64,
    /// The run's digest, or the error's display string.
    pub result: Result<RunDigest, String>,
}

/// Everything a fleet replay observed (the multi-model analogue of
/// [`ReplayReport`]), plus the admission groups continuous batching
/// formed. Two replays of the same fleet trace against identically
/// configured schedulers must compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReplayReport {
    /// Seq numbers in admission order.
    pub admission_order: Vec<u64>,
    /// Seq numbers grouped per execution pass: a multi-member group is a
    /// coalition that ran as one tree pass.
    pub admission_groups: Vec<Vec<u64>>,
    /// Trace indices rejected with backpressure, in arrival order.
    pub rejected: Vec<usize>,
    /// Per-request outcomes in admission order.
    pub outcomes: Vec<FleetOutcome>,
    /// Final scheduler statistics.
    pub stats: SchedStatsSnapshot,
}

/// Replays a multi-model fleet trace against a manual-dispatch scheduler:
/// the driver protocol of the module docs, with each arrival routed to
/// `models[a.model]` and stamped with its virtual arrival instant
/// ([`Scheduler::enqueue_at`]) so continuous batching coalesces as a pure
/// function of the trace.
///
/// # Panics
/// If the scheduler is not in manual dispatch mode with admission
/// recording, if a trace entry's model index is out of range or the name
/// is not registered, or if an enqueue fails with anything but
/// backpressure.
pub fn replay_fleet(
    sched: &Scheduler,
    models: &[&str],
    trace: &[FleetArrival],
) -> FleetReplayReport {
    assert!(
        sched.is_manual(),
        "replay_fleet needs SchedulerConfig::manual(): admissions must \
         only happen on this driver thread"
    );
    let neurons: Vec<usize> = models
        .iter()
        .map(|m| {
            sched
                .service(m)
                // fsd_lint::allow(no-unwrap): replay_fleet is a test/bench
                // driver — a misconfigured fleet must fail fast
                // (documented under # Panics).
                .unwrap_or_else(|| panic!("model {m:?} not registered"))
                .dnn()
                .spec()
                .neurons
        })
        .collect();
    let global_cap = sched.global_cap();

    let mut tickets: HashMap<u64, (usize, FleetArrival, Ticket)> = HashMap::new();
    let mut rejected = Vec::new();
    let mut outcomes = Vec::new();
    let mut harvested = 0usize;

    let harvest_next = |sched: &Scheduler,
                        tickets: &mut HashMap<u64, (usize, FleetArrival, Ticket)>,
                        harvested: &mut usize,
                        outcomes: &mut Vec<FleetOutcome>|
     -> bool {
        let log = sched.admission_log();
        if *harvested >= log.len() {
            return false;
        }
        let seq = log[*harvested];
        *harvested += 1;
        let (trace_index, a, ticket) = tickets.remove(&seq).expect("admitted ticket is held");
        let result = ticket
            .wait()
            .map(|r| digest_report(&r))
            .map_err(|e| e.to_string());
        outcomes.push(FleetOutcome {
            seq,
            model: a.model,
            trace_index,
            arrival_us: a.arrival.at.as_micros(),
            result,
        });
        true
    };

    let mut i = 0usize;
    while i < trace.len() {
        // One arrival-instant group.
        let t = trace[i].arrival.at;
        let group_end = trace[i..]
            .iter()
            .position(|a| a.arrival.at != t)
            .map_or(trace.len(), |off| i + off);

        // The virtual gap before this instant lets the backlog drain.
        while sched.inflight() >= global_cap
            && harvest_next(sched, &mut tickets, &mut harvested, &mut outcomes)
        {}

        for (idx, fa) in trace.iter().enumerate().take(group_end).skip(i) {
            let a = &fa.arrival;
            let req = BatchedRequest {
                variant: a.variant,
                workers: a.workers,
                memory_mb: a.memory_mb,
                batches: vec![generate_inputs(
                    neurons[fa.model],
                    &InputSpec::scaled(a.width, a.input_seed),
                )],
            };
            match sched.enqueue_at(models[fa.model], a.priority, a.at, req) {
                Ok(ticket) => {
                    tickets.insert(ticket.seq(), (idx, fa.clone(), ticket));
                }
                Err(FsdError::Overloaded { retry_after }) => {
                    assert!(
                        retry_after > fsd_comm::VirtualTime::ZERO,
                        "backpressure must carry a positive retry hint"
                    );
                    rejected.push(idx);
                }
                // fsd_lint::allow(no-unwrap): fail fast on non-backpressure
                // errors — documented under # Panics.
                Err(e) => panic!("replay_fleet enqueue failed: {e}"),
            }
        }
        sched.dispatch();
        i = group_end;
    }

    // Drain: keep admitting and harvesting until the system is empty.
    loop {
        sched.dispatch();
        if harvest_next(sched, &mut tickets, &mut harvested, &mut outcomes) {
            continue;
        }
        if sched.queued() == 0 && sched.inflight() == 0 {
            break;
        }
    }
    assert!(tickets.is_empty(), "every accepted ticket was harvested");

    let mut stats = sched.stats();
    // The latency EWMAs fold completions in the order real threads
    // finished — advisory backoff signals, deliberately outside the
    // deterministic contract. Everything else in the report is a pure
    // function of (trace, config, models).
    stats.ewma_latency = fsd_comm::VirtualTime::ZERO;
    stats.ewma_cold_latency = fsd_comm::VirtualTime::ZERO;
    stats.ewma_warm_latency = fsd_comm::VirtualTime::ZERO;
    FleetReplayReport {
        admission_order: sched.admission_log(),
        admission_groups: sched.admission_groups(),
        rejected,
        outcomes,
        stats,
    }
}
