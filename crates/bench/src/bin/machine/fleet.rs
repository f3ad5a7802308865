//! `sched_fleet`: back-to-back manual replays of seeded fleet traces
//! through the scheduler — the `scheduler_throughput` fleet configuration,
//! forty times longer and with queues that never refuse. `sched` admission
//! and coalescing, pool checkout and the per-request fixed cost of
//! `FsdService` do all the work; kernels do almost none.

use crate::closed::{put_host_metrics, put_setup_metric, put_virt_metrics, Segment};
use crate::report::{Phase, RunResult};
use crate::span::Tracer;
use crate::{host, stats};
use fsd_core::cost::CostModel;
use fsd_core::{FsdService, ServiceBuilder};
use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec, SparseDnn};
use fsd_sched::harness::{self, FleetReplayReport};
use fsd_sched::{
    trace, BatchingConfig, FleetArrival, Scheduler, SchedulerBuilder, SchedulerConfig,
};
use fsd_sparse::{codec, SparseRows};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub const MODELS: usize = 4;
/// Rounds of a timed trace: 4 models × 400 rounds × 8 = 12 800 requests.
pub const ROUNDS: usize = 400;
/// Rounds of the untimed warm-up replay that ends each set-up.
const WARMUP_ROUNDS: usize = 25;
pub const BURST: usize = 8;
pub const GAP_US: u64 = 400_000;
pub const GLOBAL_CAP: usize = 2;
/// Large enough that the bounded queues never refuse, where
/// `scheduler_throughput` uses 512: the backlog of this trace grows, and a
/// refusal is a failed operation. The `Overloaded` path therefore never
/// runs here and `sched.rejected_share` reads 0.
const QUEUE_CAPACITY: usize = 1 << 20;
/// Timed replay `i` runs the trace of `seed + i`, and the virtual
/// statistics are taken over the first this-many replays (every run makes
/// at least that many): the same requests whatever the host had time for.
pub const VIRT_REPLAYS: usize = 3;

pub const MODEL_NAMES: [&str; MODELS] = ["m0", "m1", "m2", "m3"];

/// Model `m` of the fleet: `N=64, L=2`, as `scheduler_throughput` has it.
pub fn model_spec(seed: u64, m: usize) -> DnnSpec {
    DnnSpec {
        neurons: 64,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: seed.wrapping_add(m as u64),
    }
}

/// Four services and a manual-dispatch, batching scheduler in front.
pub struct Fleet {
    pub services: Vec<Arc<FsdService>>,
    pub sched: Scheduler,
}

impl Fleet {
    pub fn build(models: &[Arc<SparseDnn>], seed: u64) -> Fleet {
        let mut builder = SchedulerBuilder::new(
            SchedulerConfig::default()
                .global_cap(GLOBAL_CAP)
                .queue_capacity(QUEUE_CAPACITY)
                .manual()
                .batched(BatchingConfig::default()),
        );
        let mut services = Vec::with_capacity(models.len());
        for (m, dnn) in models.iter().enumerate() {
            let service = Arc::new(
                ServiceBuilder::new(dnn.clone())
                    .deterministic(seed.wrapping_add(m as u64))
                    .warm_pool(16, u64::MAX)
                    .build(),
            );
            services.push(service.clone());
            builder = builder.model(MODEL_NAMES[m], service);
        }
        Fleet {
            services,
            sched: builder.build(),
        }
    }

    /// Dollars the fleet's regions billed in total, from the global
    /// meters — `RunDigest` carries no cost, and at quiescence the global
    /// meters are the sum of the per-flow ones plus the pool's launches.
    pub fn billed_usd(&self) -> f64 {
        let model = CostModel::default();
        self.services
            .iter()
            .map(|s| {
                model
                    .actual(&s.platform().lambda_snapshot(), &s.env().snapshot())
                    .total()
            })
            .sum()
    }

    /// Stops the scheduler, releases the warm trees and audits every
    /// region for residue.
    pub fn teardown(self, phase: &mut Phase) {
        self.sched.shutdown();
        self.sched.drain();
        for (m, service) in self.services.iter().enumerate() {
            service.invalidate_warm_trees();
            phase.audit(&format!("model {m}"), service.env());
        }
    }
}

pub fn generate_models(seed: u64) -> Vec<Arc<SparseDnn>> {
    (0..MODELS)
        .map(|m| Arc::new(generate_dnn(&model_spec(seed, m))))
        .collect()
}

/// `RunDigest::output_digest` of a request's outputs: FNV-1a over the wire
/// encoding of every output batch.
pub fn output_digest(outputs: &[SparseRows]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for out in outputs {
        for &b in &codec::encode(out) {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    digest
}

/// The seeded fleet trace of `rounds` rounds.
pub fn arrivals(rounds: usize, seed: u64) -> Vec<FleetArrival> {
    trace::fleet(MODELS, rounds, BURST, GAP_US, seed)
}

/// A fleet trace and what each arrival's outputs must digest to
/// (`RunDigest::output_digest` of the serial reference's output). The
/// digests are the benchmark's own checking state: build a `Trace` outside
/// every timed window.
pub struct Trace {
    pub arrivals: Vec<FleetArrival>,
    pub digests: Vec<u64>,
}

impl Trace {
    pub fn new(models: &[Arc<SparseDnn>], arrivals: Vec<FleetArrival>) -> Trace {
        let digests = arrivals
            .iter()
            .map(|fa| {
                let dnn = &models[fa.model];
                let inputs = generate_inputs(
                    dnn.spec().neurons,
                    &InputSpec::scaled(fa.arrival.width, fa.arrival.input_seed),
                );
                output_digest(&[dnn.serial_inference(&inputs)])
            })
            .collect();
        Trace { arrivals, digests }
    }

    pub fn len(&self) -> usize {
        self.arrivals.len()
    }
}

/// Counts every arrival of a replay: refused, errored or wrong-output
/// requests fail. Returns the per-request virtual latencies (µs) of the
/// requests that ran.
pub fn check_replay(report: &FleetReplayReport, trace: &Trace, phase: &mut Phase) -> Vec<u64> {
    let mut latencies = Vec::with_capacity(report.outcomes.len());
    for &idx in &report.rejected {
        phase.record(Err(format!("arrival {idx} refused (Overloaded)")));
    }
    for o in &report.outcomes {
        phase.record(match &o.result {
            Ok(d) if d.output_digest == trace.digests[o.trace_index] => {
                latencies.push(d.latency_us);
                Ok(())
            }
            Ok(_) => Err(format!(
                "arrival {}: output digest differs from serial_inference",
                o.trace_index
            )),
            Err(e) => Err(format!("arrival {}: {e}", o.trace_index)),
        });
    }
    let missing = trace.len() - report.rejected.len() - report.outcomes.len();
    for _ in 0..missing {
        phase.record(Err("arrival neither refused nor resolved".into()));
    }
    latencies
}

/// Virtual makespan of a replay: its admission groups list-scheduled over
/// the global cap — a group is ready at its latest member's arrival and
/// holds a slot for the sum of its members' latencies (a coalesced pass
/// runs them back to back on one resident tree).
pub fn replay_makespan_us(report: &FleetReplayReport) -> u64 {
    let by_seq: HashMap<u64, (u64, u64)> = report
        .outcomes
        .iter()
        .map(|o| {
            let latency = o.result.as_ref().map_or(0, |d| d.latency_us);
            (o.seq, (o.arrival_us, latency))
        })
        .collect();
    let passes: Vec<(u64, u64)> = report
        .admission_groups
        .iter()
        .map(|group| {
            let members = group.iter().filter_map(|s| by_seq.get(s));
            let ready = members.clone().map(|m| m.0).max().unwrap_or(0);
            (ready, members.map(|m| m.1).sum())
        })
        .collect();
    stats::virtual_makespan_us(&passes, GLOBAL_CAP)
}

/// What one timed replay produced.
pub struct Replay {
    pub segment: Segment,
    pub latencies_us: Vec<u64>,
    pub makespan_us: u64,
    pub billed_usd: f64,
}

/// One replay of `trace` on a fresh fleet over `models`; only
/// `replay_fleet` itself is inside the timed window. `request` labels the
/// span.
pub fn timed_replay(
    models: &[Arc<SparseDnn>],
    seed: u64,
    trace: &Trace,
    tr: &mut Tracer,
    request: u64,
    phase: &mut Phase,
    residue: &mut Phase,
) -> Replay {
    let fleet = Fleet::build(models, seed);
    let cpu_before = host::cpu_ms();
    let started = Instant::now();
    let open = tr.enter("sched.replay_fleet", request);
    let report = harness::replay_fleet(&fleet.sched, &MODEL_NAMES, &trace.arrivals);
    tr.exit(open);
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_ms = host::cpu_ms() - cpu_before;
    let latencies_us = check_replay(&report, trace, phase);
    let makespan_us = replay_makespan_us(&report);
    let billed_usd = fleet.billed_usd();
    fleet.teardown(residue);
    Replay {
        segment: Segment {
            requests: trace.len(),
            wall_s,
            cpu_ms,
        },
        latencies_us,
        makespan_us,
        billed_usd,
    }
}

/// One set-up: generate the models, build the fleet, and push the short
/// warm-up trace through it. Returns the models.
pub fn setup(
    seed: u64,
    tr: &mut Tracer,
    warmup: &mut Phase,
    residue: &mut Phase,
) -> Vec<Arc<SparseDnn>> {
    let whole = tr.enter("setup", 0);
    let open = tr.enter("model.generate", 0);
    let models = generate_models(seed);
    let warm_arrivals = arrivals(WARMUP_ROUNDS, seed);
    tr.exit(open);
    let open = tr.enter("core.service.build", 0);
    let fleet = Fleet::build(&models, seed);
    tr.exit(open);
    let open = tr.enter("warmup", 0);
    let report = harness::replay_fleet(&fleet.sched, &MODEL_NAMES, &warm_arrivals);
    tr.exit(open);
    tr.exit(whole);
    let warm_trace = Trace::new(&models, warm_arrivals);
    check_replay(&report, &warm_trace, warmup);
    fleet.teardown(residue);
    models
}

/// The `--trace 0` run of `sched_fleet`.
pub fn measure(name: &str, seed: u64, seconds: u64) -> RunResult {
    let mut result = RunResult::new(name, seed, seconds, false);
    let mut tr = Tracer::new(false);
    let mut warmup = Phase::new("warmup");
    let mut timed = Phase::new("timed");
    let mut residue = Phase::new("residue");

    let before = host::calibration_ms();
    let mut setups = Vec::with_capacity(crate::SETUP_REPEATS);
    let mut models = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let started = Instant::now();
        models = setup(seed, &mut tr, &mut warmup, &mut residue);
        setups.push(started.elapsed().as_secs_f64());
    }

    // Every replay is one segment, each of its own trace (`seed + i`,
    // generated and digested between the timed windows); replays run until
    // the timed wall reaches the budget.
    let mut replays: Vec<Replay> = Vec::new();
    let mut timed_s = 0.0;
    while timed_s < seconds as f64 || replays.len() < VIRT_REPLAYS {
        let trace_seed = seed.wrapping_add(replays.len() as u64);
        let trace = Trace::new(&models, arrivals(ROUNDS, trace_seed));
        let r = timed_replay(&models, seed, &trace, &mut tr, 0, &mut timed, &mut residue);
        timed_s += r.segment.wall_s;
        replays.push(r);
    }
    let after = host::calibration_ms();

    result.calibration_ms = (before, after);
    put_setup_metric(&mut result, &mut setups);
    let segments: Vec<Segment> = replays.iter().map(|r| r.segment.clone()).collect();
    put_host_metrics(&mut result, &segments);
    let virt = &replays[..VIRT_REPLAYS];
    let latencies: Vec<u64> = virt
        .iter()
        .flat_map(|r| r.latencies_us.iter().copied())
        .collect();
    let cost: f64 = virt.iter().map(|r| r.billed_usd).sum();
    let makespan: u64 = virt.iter().map(|r| r.makespan_us).sum();
    put_virt_metrics(&mut result, &latencies, cost, makespan);
    result.phases = vec![warmup, timed, residue];
    result
}
