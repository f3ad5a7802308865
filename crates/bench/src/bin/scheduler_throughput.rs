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
//! throughput must *rise* with the global cap, every model's audit must
//! be clean, and each row emits the fleet's billed µUSD per request
//! (`fleet_cost_uusd_per_req`, gated lower-is-better: a coalition's
//! members share one fused work item's calls).
//!
//! ```text
//! cargo run --release -p fsd-bench --bin scheduler_throughput
//! ```

use fsd_bench::gate::{self, Val};
use fsd_bench::{mean_latency_us, row, small_dnn, Table, SEED};
use fsd_comm::VirtualTime;
use fsd_core::cost::CostModel;
use fsd_core::{FsdError, ServiceBuilder};
use fsd_sched::{
    harness, trace, Arrival, BatchingConfig, SchedStatsSnapshot, Scheduler, SchedulerBuilder,
    SchedulerConfig, Ticket, DEFAULT_MODEL,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Neurons of the single-model parts' model.
const NEURONS: usize = 128;

fn service_builder() -> ServiceBuilder {
    ServiceBuilder::new(small_dnn(NEURONS, 4, SEED))
        .deterministic(SEED)
        .prewarm(1)
        .prewarm(2)
        .prewarm(4)
}

/// A service whose warm pool is pre-warmed past the concurrency cap for
/// the four channel shapes the bursty trace produces, so each such
/// request is a warm hit. Its Serial requests are not pre-warmed: a miss
/// cold-launches their one-rank tree, which then parks on the full shelf
/// by evicting a spare tree of the least-recently-used shape.
fn pooled_builder(cap: usize) -> ServiceBuilder {
    use fsd_core::Variant;
    let mut builder = service_builder().warm_pool(4 * cap, u64::MAX);
    for variant in [Variant::Queue, Variant::Object] {
        for workers in [1u32, 2] {
            for _ in 0..cap {
                builder = builder.prewarm_tree(variant, workers, 1769);
            }
        }
    }
    builder
}

/// Deterministic virtual makespan of a fleet replay: list-schedule the
/// admission groups (in admission order) over `cap` slots — a group
/// starts at `max(its latest member arrival, earliest slot free)` and
/// occupies its slot for the sum of its members' virtual latencies. That
/// sum over-charges the slot: a coalition's members ride fused work items
/// (a launching head alone, then one item per batch count), and every
/// member of one item reports the item's latency, so an item's time is
/// counted once per member. The bound is kept so the gated throughput
/// stays comparable with its baseline. A pure function of the replay
/// report, so the derived throughput is gateable.
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
    mean_virtual_latency: VirtualTime,
    last_retry_hint: VirtualTime,
    stats: SchedStatsSnapshot,
}

/// Enqueues the whole trace through an auto-dispatch scheduler over the
/// built service, waits every ticket, audits the drained scheduler, and
/// reports wall-clock + scheduler statistics.
fn drive(
    service: ServiceBuilder,
    global_cap: usize,
    queue_cap: usize,
    arrivals: &[Arrival],
) -> RunResult {
    let sched = Scheduler::wrap(
        Arc::new(service.build()),
        SchedulerConfig::default()
            .global_cap(global_cap)
            .queue_capacity(queue_cap),
    );
    let started = Instant::now();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(arrivals.len());
    let mut rejected = 0usize;
    let mut last_retry_hint = VirtualTime::ZERO;
    for a in arrivals {
        match sched.enqueue_default(a.priority, a.request(NEURONS)) {
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
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(sched.audit(), Vec::<String>::new());
    RunResult {
        accepted,
        rejected,
        wall_ms,
        mean_virtual_latency: VirtualTime::from_micros(total_latency_us / accepted.max(1) as u64),
        last_retry_hint,
        stats: sched.stats(),
    }
}

fn main() {
    // Virtual-time metrics are deterministic (per-request private
    // timelines, seeded jitter) and feed the CI bench-regression gate;
    // wall-clock numbers are printed but never emitted.
    let mut caps = Vec::new();
    let mut mean_us_by_cap = HashMap::new();
    let mut pool_rows = Vec::new();

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
        let r = drive(service_builder(), cap, 256, &arrivals);
        assert_eq!(r.rejected, 0, "generous queues must not reject");
        let mean_us = r.mean_virtual_latency.as_micros();
        mean_us_by_cap.insert(cap, mean_us);
        caps.push(row!(global_cap: cap, bursty_mean_latency_us: mean_us));
        t.row(vec![
            cap.to_string(),
            r.accepted.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.1}", r.accepted as f64 / (r.wall_ms / 1000.0)),
            r.stats.max_inflight.to_string(),
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
        let r = drive(service_builder(), 4, queue_cap, &flood);
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
            pooled_builder(cap)
        } else {
            service_builder()
        };
        let r = drive(service, cap, 256, &arrivals);
        assert_eq!(r.rejected, 0, "generous queues must not reject");
        let mode = if pooled { "warm" } else { "off" };
        pool_rows.push(row!(
            mode: mode,
            warm_hits: r.stats.warm_hits,
            cold_starts: r.stats.cold_starts,
            bursty_mean_latency_us: r.mean_virtual_latency.as_micros(),
        ));
        t.row(vec![
            mode.to_string(),
            r.stats.warm_hits.to_string(),
            r.stats.cold_starts.to_string(),
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
    let sched = Scheduler::wrap(
        Arc::new(service_builder().build()),
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
    assert_eq!(sched.audit(), Vec::<String>::new());
    let batched_mean_us = mean_latency_us(&report);
    let batched_stats = report.stats.clone();
    assert!(
        batched_stats.coalesced > 0,
        "the bursty trace must form at least one coalition"
    );
    let unbatched_mean_us = mean_us_by_cap[&cap];
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
    // virtual throughput must now RISE with every cap step. Also audits
    // every model: billing stays partitioned by flow under coalesced
    // passes, and nothing leaks.
    const FLEET_MODELS: usize = 4;
    let fleet_trace = trace::fleet(FLEET_MODELS, 10, 8, 400_000, SEED);
    let fleet_names: Vec<String> = (0..FLEET_MODELS).map(|m| format!("m{m}")).collect();
    let mut fleet = Vec::new();
    let mut prev: Option<(usize, f64)> = None;
    let mut t = Table::new(&[
        "global cap",
        "accepted",
        "coalitions",
        "virt makespan",
        "req/s (virtual)",
        "µUSD/req",
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
        let mut services = Vec::with_capacity(FLEET_MODELS);
        for (m, name) in fleet_names.iter().enumerate() {
            let service = Arc::new(
                ServiceBuilder::new(small_dnn(64, 2, SEED + m as u64))
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

        assert!(
            report.outcomes.iter().all(|o| o.result.is_ok()),
            "every fleet request runs"
        );
        assert_eq!(sched.audit(), Vec::<String>::new());

        // What the regions billed in total, from the global meters: every
        // member's apportioned window plus the pool's launches.
        let billed_usd: f64 = services
            .iter()
            .map(|s| {
                CostModel::default()
                    .actual(&s.platform().lambda_snapshot(), &s.env().snapshot())
                    .total()
            })
            .sum();
        let cost_uusd = billed_usd * 1e6 / report.outcomes.len() as f64;
        let makespan_us = virtual_makespan_us(&report, cap);
        let throughput =
            report.outcomes.len() as f64 / (makespan_us as f64 / 1_000_000.0).max(f64::EPSILON);
        if let Some((prev_cap, prev_rps)) = prev {
            assert!(
                throughput > prev_rps,
                "fleet throughput must strictly rise with the cap: \
                 cap {prev_cap} gave {prev_rps:.2} req/s, cap {cap} gave {throughput:.2} req/s",
            );
        }
        prev = Some((cap, throughput));
        fleet.push(row!(
            global_cap: cap,
            accepted: report.outcomes.len(),
            fleet_makespan_us: makespan_us,
            fleet_throughput_rps: Val::Fixed(throughput, 2),
            fleet_cost_uusd_per_req: Val::Fixed(cost_uusd, 3),
        ));
        t.row(vec![
            cap.to_string(),
            report.outcomes.len().to_string(),
            report.stats.coalitions.to_string(),
            VirtualTime::from_micros(makespan_us).to_string(),
            format!("{throughput:.2}"),
            format!("{cost_uusd:.3}"),
            format!("{:.1}", started.elapsed().as_secs_f64() * 1000.0),
        ]);
    }
    t.print(&format!(
        "Fleet scale — {} requests across {FLEET_MODELS} models, continuous \
         batching on: virtual throughput rises with the global cap",
        fleet_trace.len(),
    ));
    // Machine-readable emission for the CI bench-regression gate —
    // deterministic virtual-time metrics only.
    let batched = vec![row!(
        mode: "batched",
        coalitions: batched_stats.coalitions,
        coalesced: batched_stats.coalesced,
        bursty_mean_latency_us: batched_mean_us,
    )];
    gate::emit(
        "scheduler_throughput",
        &[],
        &[
            ("caps", caps),
            ("pool", pool_rows),
            ("batched", batched),
            ("fleet", fleet),
        ],
    );
}
