//! Scheduler throughput — admission control in front of `FsdService`.
//!
//! Not a paper table: this measures the PR-2 scheduling layer. A seeded
//! bursty trace is pushed through auto-dispatch schedulers at increasing
//! global concurrency caps; real worker trees execute concurrently, so
//! wall-clock throughput rises with the cap until the host saturates. A
//! second run floods the scheduler with large-`P` requests against small
//! bounded queues to show explicit backpressure (rejection rate + retry
//! hints) instead of unbounded buffering. Parts 4 and 5 turn on
//! cross-request continuous batching: the same bursty trace replayed with
//! coalescing (mean latency must beat the non-batched run), then the
//! fleet axis — 10× the requests across four models — where virtual
//! throughput must *rise* with the global cap and per-flow billing must
//! partition each model's global meters exactly.
//!
//! ```text
//! cargo run --release -p fsd-bench --bin scheduler_throughput
//! ```

use fsd_bench::Table;
use fsd_comm::VirtualTime;
use fsd_core::{BatchedRequest, FsdError, FsdService, ServiceBuilder};
use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_sched::{
    harness, trace, Arrival, BatchingConfig, Scheduler, SchedulerBuilder, SchedulerConfig, Ticket,
    DEFAULT_MODEL,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 42;

fn service_builder() -> ServiceBuilder {
    let spec = DnnSpec {
        neurons: 128,
        layers: 4,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: SEED,
    };
    ServiceBuilder::new(Arc::new(generate_dnn(&spec)))
        .deterministic(SEED)
        .prewarm(1)
        .prewarm(2)
        .prewarm(4)
}

fn fresh_service() -> Arc<FsdService> {
    Arc::new(service_builder().build())
}

/// A service whose warm pool is pre-warmed past the concurrency cap for
/// the four channel shapes the bursty trace produces, so each such
/// request is a warm hit. Its Serial requests are not pre-warmed: a miss
/// cold-launches their one-rank tree, which then parks on the full shelf
/// by evicting a spare tree of the least-recently-used shape.
fn fresh_pooled_service(cap: usize) -> Arc<FsdService> {
    use fsd_core::Variant;
    let mut builder = service_builder().warm_pool(4 * cap, u64::MAX);
    for variant in [Variant::Queue, Variant::Object] {
        for workers in [1u32, 2] {
            for _ in 0..cap {
                builder = builder.prewarm_tree(variant, workers, 1769);
            }
        }
    }
    Arc::new(builder.build())
}

fn request_for(service: &FsdService, a: &Arrival) -> BatchedRequest {
    BatchedRequest {
        variant: a.variant,
        workers: a.workers,
        memory_mb: a.memory_mb,
        batches: vec![generate_inputs(
            service.dnn().spec().neurons,
            &InputSpec::scaled(a.width, a.input_seed),
        )],
    }
}

/// Deterministic virtual makespan of a fleet replay: list-schedule the
/// admission groups (in admission order) over `cap` slots — a group
/// starts at `max(its latest member arrival, earliest slot free)` and
/// occupies its slot for the sum of its members' virtual latencies (a
/// coalesced pass runs its members back to back on one resident tree).
/// A pure function of the replay report, so the derived throughput is
/// gateable.
fn virtual_makespan_us(report: &harness::FleetReplayReport, cap: usize) -> u64 {
    let by_seq: HashMap<u64, (u64, u64)> = report
        .outcomes
        .iter()
        .map(|o| {
            let latency = o.result.as_ref().map_or(0, |d| d.latency_us);
            (o.seq, (o.arrival_us, latency))
        })
        .collect();
    let mut slots = vec![0u64; cap.max(1)];
    let mut makespan = 0u64;
    for group in &report.admission_groups {
        let ready = group.iter().map(|s| by_seq[s].0).max().unwrap_or(0);
        let duration: u64 = group.iter().map(|s| by_seq[s].1).sum();
        let slot = slots.iter_mut().min().expect("cap >= 1 slot");
        let start = (*slot).max(ready);
        *slot = start + duration;
        makespan = makespan.max(*slot);
    }
    makespan
}

struct RunResult {
    accepted: usize,
    rejected: usize,
    wall_ms: f64,
    max_inflight: usize,
    mean_virtual_latency: VirtualTime,
    last_retry_hint: VirtualTime,
    warm_hits: u64,
    cold_starts: u64,
}

/// Enqueues the whole trace (auto dispatch), waits every ticket, and
/// reports wall-clock + scheduler statistics.
fn drive(sched: &Scheduler, service: &FsdService, arrivals: &[Arrival]) -> RunResult {
    let started = Instant::now();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(arrivals.len());
    let mut rejected = 0usize;
    let mut last_retry_hint = VirtualTime::ZERO;
    for a in arrivals {
        match sched.enqueue_default(a.priority, request_for(service, a)) {
            Ok(t) => tickets.push(t),
            Err(FsdError::Overloaded { retry_after }) => {
                rejected += 1;
                last_retry_hint = retry_after;
            }
            Err(e) => panic!("enqueue failed: {e}"),
        }
    }
    let accepted = tickets.len();
    let mut total_latency_us = 0u64;
    for t in tickets {
        let report = t.wait().expect("scheduled request runs");
        total_latency_us += report.latency.as_micros();
    }
    sched.shutdown();
    sched.drain();
    let stats = sched.stats();
    RunResult {
        accepted,
        rejected,
        wall_ms: started.elapsed().as_secs_f64() * 1000.0,
        max_inflight: stats.max_inflight,
        mean_virtual_latency: VirtualTime::from_micros(total_latency_us / accepted.max(1) as u64),
        last_retry_hint,
        warm_hits: stats.warm_hits,
        cold_starts: stats.cold_starts,
    }
}

fn main() {
    // Virtual-time metrics are deterministic (per-request private
    // timelines, seeded jitter) and feed the CI bench-regression gate;
    // wall-clock numbers are printed but never emitted.
    let mut cap_rows: Vec<(usize, u64)> = Vec::new();
    let mut pool_rows: Vec<(&str, u64, u64, u64)> = Vec::new();

    // Part 1: throughput vs global concurrency cap on a bursty trace.
    let arrivals = trace::bursty(4, 8, 400_000, SEED);
    let mut t = Table::new(&[
        "global cap",
        "accepted",
        "wall ms",
        "req/s (wall)",
        "max in-flight",
        "mean virt latency",
    ]);
    for cap in [1usize, 2, 4, 8] {
        let service = fresh_service();
        let sched = Scheduler::wrap(
            service.clone(),
            SchedulerConfig::default()
                .global_cap(cap)
                .queue_capacity(256),
        );
        let r = drive(&sched, &service, &arrivals);
        assert_eq!(r.rejected, 0, "generous queues must not reject");
        cap_rows.push((cap, r.mean_virtual_latency.as_micros()));
        t.row(vec![
            cap.to_string(),
            r.accepted.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.1}", r.accepted as f64 / (r.wall_ms / 1000.0)),
            r.max_inflight.to_string(),
            r.mean_virtual_latency.to_string(),
        ]);
    }
    t.print(&format!(
        "Scheduler throughput — bursty trace ({} requests), queue_capacity=256",
        arrivals.len(),
    ));

    // Part 2: backpressure under a large-P flood with small bounded queues.
    let flood = trace::flood(48, 4, SEED);
    let mut t = Table::new(&[
        "queue cap",
        "accepted",
        "rejected",
        "rejection %",
        "retry hint",
        "wall ms",
    ]);
    for queue_cap in [4usize, 8, 16] {
        let service = fresh_service();
        let sched = Scheduler::wrap(
            service.clone(),
            SchedulerConfig::default()
                .global_cap(4)
                .queue_capacity(queue_cap),
        );
        let r = drive(&sched, &service, &flood);
        t.row(vec![
            queue_cap.to_string(),
            r.accepted.to_string(),
            r.rejected.to_string(),
            format!("{:.0}%", 100.0 * r.rejected as f64 / flood.len() as f64),
            r.last_retry_hint.to_string(),
            format!("{:.1}", r.wall_ms),
        ]);
    }
    t.print(&format!(
        "Backpressure — large-P flood ({} simultaneous requests), global_cap=4",
        flood.len(),
    ));

    // Part 3: the same bursty trace with the warm-tree pool pre-warmed —
    // requests that land on a parked tree skip cold start + launch rounds
    // entirely.
    let cap = 4usize;
    let mut t = Table::new(&[
        "pool",
        "warm hits",
        "cold starts",
        "mean virt latency",
        "wall ms",
    ]);
    for pooled in [false, true] {
        let service = if pooled {
            fresh_pooled_service(cap)
        } else {
            fresh_service()
        };
        let sched = Scheduler::wrap(
            service.clone(),
            SchedulerConfig::default()
                .global_cap(cap)
                .queue_capacity(256),
        );
        let r = drive(&sched, &service, &arrivals);
        assert_eq!(r.rejected, 0, "generous queues must not reject");
        pool_rows.push((
            if pooled { "warm" } else { "off" },
            r.warm_hits,
            r.cold_starts,
            r.mean_virtual_latency.as_micros(),
        ));
        t.row(vec![
            if pooled { "warm" } else { "off" }.to_string(),
            r.warm_hits.to_string(),
            r.cold_starts.to_string(),
            r.mean_virtual_latency.to_string(),
            format!("{:.1}", r.wall_ms),
        ]);
    }
    t.print(&format!(
        "Warm pool — bursty trace ({} requests), global_cap={cap}: \
         warm hits skip coordinator cold start and all launch rounds",
        arrivals.len(),
    ));

    // Part 4: continuous batching on the same bursty trace — a manual,
    // deterministic replay that coalesces compatible burst members into
    // shared tree passes, so every follower lands warm on its coalition's
    // resident tree without any pre-warmed pool.
    let started = Instant::now();
    let service = fresh_service();
    let sched = Scheduler::wrap(
        service.clone(),
        SchedulerConfig::default()
            .global_cap(cap)
            .queue_capacity(256)
            .manual()
            .batched(BatchingConfig::default()),
    );
    let report = harness::replay(&sched, DEFAULT_MODEL, &arrivals);
    assert!(
        report.rejected.is_empty(),
        "generous queues must not reject"
    );
    let total_batched_us: u64 = report
        .outcomes
        .iter()
        .map(|o| {
            o.result
                .as_ref()
                .expect("batched replay request runs")
                .latency_us
        })
        .sum();
    let batched_mean_us = total_batched_us / report.outcomes.len().max(1) as u64;
    let batched_stats = report.stats.clone();
    assert!(
        batched_stats.coalesced > 0,
        "the bursty trace must form at least one coalition"
    );
    let unbatched_mean_us = cap_rows
        .iter()
        .find(|(c, _)| *c == cap)
        .expect("cap row from part 1")
        .1;
    assert!(
        batched_mean_us <= unbatched_mean_us,
        "batched bursty mean {batched_mean_us}us must not exceed the \
         non-batched {unbatched_mean_us}us"
    );
    let mut t = Table::new(&[
        "mode",
        "coalitions",
        "coalesced reqs",
        "mean virt latency",
        "wall ms",
    ]);
    t.row(vec![
        "off".to_string(),
        "0".to_string(),
        "0".to_string(),
        VirtualTime::from_micros(unbatched_mean_us).to_string(),
        "(part 1)".to_string(),
    ]);
    t.row(vec![
        "batched".to_string(),
        batched_stats.coalitions.to_string(),
        batched_stats.coalesced.to_string(),
        VirtualTime::from_micros(batched_mean_us).to_string(),
        format!("{:.1}", started.elapsed().as_secs_f64() * 1000.0),
    ]);
    t.print(&format!(
        "Continuous batching — bursty trace ({} requests), global_cap={cap}: \
         coalition followers run warm on the shared tree pass",
        arrivals.len(),
    ));

    // Part 5: the fleet axis — four models, 10× the request count, caps
    // swept with batching ON. The old per-request bottleneck made mean
    // latency flat in the cap; with coalesced passes the deterministic
    // virtual throughput must now RISE with every cap step. Also asserts
    // billing disjointness: each model's global meters must equal the sum
    // of its per-flow (per-request) reports even under coalesced passes.
    const FLEET_MODELS: usize = 4;
    let fleet_trace = trace::fleet(FLEET_MODELS, 10, 8, 400_000, SEED);
    let fleet_names: Vec<String> = (0..FLEET_MODELS).map(|m| format!("m{m}")).collect();
    let mut fleet_rows: Vec<(usize, usize, u64, f64)> = Vec::new();
    let mut t = Table::new(&[
        "global cap",
        "accepted",
        "coalitions",
        "virt makespan",
        "req/s (virtual)",
        "wall ms",
    ]);
    for cap in [1usize, 2, 4, 8] {
        let started = Instant::now();
        let mut builder = SchedulerBuilder::new(
            SchedulerConfig::default()
                .global_cap(cap)
                .queue_capacity(512)
                .manual()
                .batched(BatchingConfig::default()),
        );
        let mut services = Vec::new();
        for (m, name) in fleet_names.iter().enumerate() {
            let spec = DnnSpec {
                neurons: 64,
                layers: 2,
                nnz_per_row: 8,
                bias: -0.25,
                clip: 32.0,
                seed: SEED + m as u64,
            };
            let service = Arc::new(
                ServiceBuilder::new(Arc::new(generate_dnn(&spec)))
                    .deterministic(SEED + m as u64)
                    .warm_pool(16, u64::MAX)
                    .build(),
            );
            services.push(service.clone());
            builder = builder.model(name, service);
        }
        let sched = builder.build();
        let names: Vec<&str> = fleet_names.iter().map(String::as_str).collect();
        let report = harness::replay_fleet(&sched, &names, &fleet_trace);
        assert!(report.rejected.is_empty(), "fleet queues must not reject");
        assert_eq!(report.outcomes.len(), fleet_trace.len());

        // Billing disjointness: the coalesced passes meter each member
        // under its own flow id, so summing the per-request digests must
        // reproduce each model's global comm + Lambda meters exactly.
        for (m, service) in services.iter().enumerate() {
            let mut sqs = 0u64;
            let mut sns = 0u64;
            let mut s3_get = 0u64;
            let mut s3_put = 0u64;
            let mut invocations = 0u64;
            for o in report.outcomes.iter().filter(|o| o.model == m) {
                let d = o.result.as_ref().expect("fleet request runs");
                sqs += d.sqs_api_calls;
                sns += d.sns_publish_requests;
                s3_get += d.s3_get_requests;
                s3_put += d.s3_put_requests;
                invocations += d.invocations;
            }
            let global = service.env().meter().snapshot();
            assert_eq!(
                (sqs, sns, s3_get, s3_put),
                (
                    global.sqs_api_calls,
                    global.sns_publish_requests,
                    global.s3_get_requests,
                    global.s3_put_requests,
                ),
                "model {m}: per-flow comm billing must partition the global meter"
            );
            assert_eq!(
                invocations,
                service.platform().lambda_meter().snapshot().invocations,
                "model {m}: per-flow invocations must partition the global meter"
            );
            assert_eq!(
                service.env().meter().tracked_flows(),
                0,
                "model {m}: leaked comm flows"
            );
        }

        let makespan_us = virtual_makespan_us(&report, cap);
        let throughput =
            report.outcomes.len() as f64 / (makespan_us as f64 / 1_000_000.0).max(f64::EPSILON);
        fleet_rows.push((cap, report.outcomes.len(), makespan_us, throughput));
        t.row(vec![
            cap.to_string(),
            report.outcomes.len().to_string(),
            report.stats.coalitions.to_string(),
            VirtualTime::from_micros(makespan_us).to_string(),
            format!("{throughput:.2}"),
            format!("{:.1}", started.elapsed().as_secs_f64() * 1000.0),
        ]);
    }
    t.print(&format!(
        "Fleet scale — {} requests across {FLEET_MODELS} models, continuous \
         batching on: virtual throughput rises with the global cap",
        fleet_trace.len(),
    ));
    for pair in fleet_rows.windows(2) {
        assert!(
            pair[1].3 > pair[0].3,
            "fleet throughput must strictly rise with the cap: \
             cap {} gave {:.2} req/s, cap {} gave {:.2} req/s",
            pair[0].0,
            pair[0].3,
            pair[1].0,
            pair[1].3,
        );
    }

    // Machine-readable emission for the CI bench-regression gate —
    // deterministic virtual-time metrics only.
    let mut json = String::from("{\n  \"bench\": \"scheduler_throughput\",\n  \"caps\": [\n");
    for (i, (cap, mean_us)) in cap_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"global_cap\": {cap}, \"bursty_mean_latency_us\": {mean_us}}}{}",
            if i + 1 < cap_rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"pool\": [\n");
    for (i, (mode, warm_hits, cold_starts, mean_us)) in pool_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{mode}\", \"warm_hits\": {warm_hits}, \
             \"cold_starts\": {cold_starts}, \"bursty_mean_latency_us\": {mean_us}}}{}",
            if i + 1 < pool_rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n  \"batched\": [\n");
    let _ = writeln!(
        json,
        "    {{\"mode\": \"batched\", \"coalitions\": {}, \"coalesced\": {}, \
         \"bursty_mean_latency_us\": {batched_mean_us}}}",
        batched_stats.coalitions, batched_stats.coalesced,
    );
    json.push_str("  ],\n  \"fleet\": [\n");
    for (i, (fleet_cap, accepted, makespan_us, throughput)) in fleet_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"global_cap\": {fleet_cap}, \"accepted\": {accepted}, \
             \"fleet_makespan_us\": {makespan_us}, \
             \"fleet_throughput_rps\": {throughput:.2}}}{}",
            if i + 1 < fleet_rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_scheduler_throughput.json", &json)
        .expect("write BENCH_scheduler_throughput.json");
    println!("wrote BENCH_scheduler_throughput.json");
}
