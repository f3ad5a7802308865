//! The three closed-loop workloads: one submitting thread, the next
//! request sent when the previous one returned.
//!
//! A workload is a [`Shape`]: model size, input width, worker count and
//! how worker trees come to exist. Requests run in *cycles* — one request
//! per `(service, transport)` combination on one input of the pool — and
//! the input rotates from cycle to cycle, so [`INPUT_POOL`] consecutive
//! cycles are one full pass over every combination.

use crate::report::{Phase, RunResult};
use crate::span::Tracer;
use crate::{host, stats};
use fsd_comm::MeterSnapshot;
use fsd_core::{
    ChannelStatsSnapshot, FsdService, InferenceReport, InferenceRequest, LaunchPath,
    ServiceBuilder, Variant,
};
use fsd_faas::LambdaSnapshot;
use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec, SparseDnn};
use fsd_sparse::SparseRows;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-worker memory of every request: one full vCPU, as the repo's
/// traces and reduced-scale benches use.
pub const MEMORY_MB: u32 = 1769;

/// The four channel transports a cycle goes through, in
/// `report::TRANSPORT_NAMES` order.
pub const TRANSPORTS: [Variant; 4] = [
    Variant::Queue,
    Variant::Object,
    Variant::Hybrid,
    Variant::Direct,
];

/// Distinct inputs a workload rotates through.
pub const INPUT_POOL: usize = 4;

/// Timed sections are split into this many segments; host metrics are
/// medians over them, so one disturbed segment does not move the result.
pub const SEGMENTS: usize = 8;

/// How a workload's worker trees come to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launch {
    /// A warm pool with one pre-warmed tree per transport: every request
    /// is a warm hit.
    Warm,
    /// No pool. Two services over the same model alternate — the default
    /// launch cascade with independent weight loads, and flat provisioning
    /// with multicast weight streaming — so every request is cold.
    ColdPair,
}

/// What defines a closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub spec: DnnSpec,
    pub width: usize,
    pub workers: u32,
    pub launch: Launch,
}

/// The shape behind a closed-loop workload's name.
pub fn shape_for(workload: &str, seed: u64) -> Shape {
    match workload {
        "compute_bound" => Shape {
            spec: DnnSpec::scaled(4096, seed),
            width: 256,
            workers: 2,
            launch: Launch::Warm,
        },
        "comm_bound" => Shape {
            spec: DnnSpec::scaled(1024, seed),
            width: 32,
            workers: 8,
            launch: Launch::Warm,
        },
        "cold_launch" => Shape {
            spec: DnnSpec::scaled(1024, seed),
            width: 8,
            workers: 8,
            launch: Launch::ColdPair,
        },
        other => panic!("{other} is not a closed-loop workload"),
    }
}

/// The pool of inputs and, for each, what the serial reference computes.
/// Benchmark-side state: it is built once, outside every timed section.
pub struct Oracle {
    pub inputs: Vec<SparseRows>,
    pub expected: Vec<SparseRows>,
}

fn pool_inputs(shape: &Shape, seed: u64) -> Vec<SparseRows> {
    (0..INPUT_POOL as u64)
        .map(|i| {
            generate_inputs(
                shape.spec.neurons,
                &InputSpec::scaled(shape.width, seed.wrapping_add(i)),
            )
        })
        .collect()
}

impl Oracle {
    pub fn new(shape: &Shape, seed: u64) -> Oracle {
        let dnn = generate_dnn(&shape.spec);
        let inputs = pool_inputs(shape, seed);
        let expected = inputs.iter().map(|x| dnn.serial_inference(x)).collect();
        Oracle { inputs, expected }
    }
}

/// What one request reported, without its outputs.
#[derive(Debug, Clone)]
pub struct Obs {
    pub cycle: usize,
    /// Index into [`ClosedLoop::combos`].
    pub combo: usize,
    pub variant: Variant,
    pub wall_ns: u64,
    pub launch: LaunchPath,
    pub latency_us: u64,
    pub cost_actual: f64,
    pub cost_predicted: f64,
    pub comm: MeterSnapshot,
    pub lambda: LambdaSnapshot,
    pub client: ChannelStatsSnapshot,
    pub work_done: u64,
    /// Slowest rank's runtime over the mean rank's.
    pub rank_skew: f64,
    pub billed_ms: u64,
    pub peak_mem_bytes: usize,
}

/// One request as it came back, until it has been checked.
pub struct Sample {
    cycle: usize,
    combo: usize,
    variant: Variant,
    wall_ns: u64,
    outcome: Result<InferenceReport, String>,
}

impl Sample {
    /// Checks the output against the oracle and keeps the light facts.
    pub fn check(self, oracle: &Oracle, phase: &mut Phase) -> Option<Obs> {
        let input = self.cycle % INPUT_POOL;
        let report = match self.outcome {
            Ok(r) if r.outputs.len() == 1 && r.first_output() == &oracle.expected[input] => r,
            Ok(_) => {
                phase.record(Err(format!(
                    "{} cycle {} input {input}: output differs from serial_inference",
                    self.variant, self.cycle
                )));
                return None;
            }
            Err(e) => {
                phase.record(Err(format!("{} cycle {}: {e}", self.variant, self.cycle)));
                return None;
            }
        };
        phase.record(Ok(()));
        let runtimes: Vec<f64> = report
            .per_worker
            .iter()
            .map(|w| (w.finished.as_micros() - w.started.as_micros()) as f64)
            .collect();
        let mean = runtimes.iter().sum::<f64>() / runtimes.len().max(1) as f64;
        let slowest = runtimes.iter().copied().fold(0.0, f64::max);
        Some(Obs {
            cycle: self.cycle,
            combo: self.combo,
            variant: report.variant,
            wall_ns: self.wall_ns,
            launch: report.launch,
            latency_us: report.latency.as_micros(),
            cost_actual: report.cost_actual.total(),
            cost_predicted: report.cost_predicted.total(),
            comm: report.comm,
            lambda: report.lambda,
            client: report.client,
            work_done: report.work_done,
            rank_skew: if mean > 0.0 { slowest / mean } else { 1.0 },
            billed_ms: report.per_worker.iter().map(|w| w.billed_ms).sum(),
            peak_mem_bytes: report
                .per_worker
                .iter()
                .map(|w| w.peak_mem_bytes)
                .max()
                .unwrap_or(0),
        })
    }
}

/// A set-up workload: model, inputs, services and the request mix.
pub struct ClosedLoop {
    pub shape: Shape,
    pub dnn: Arc<SparseDnn>,
    pub services: Vec<FsdService>,
    /// `(service, transport)` of each request of a cycle.
    pub combos: Vec<(usize, Variant)>,
    inputs: Vec<SparseRows>,
}

impl ClosedLoop {
    /// Generates the model and inputs, builds (partitions, stages,
    /// pre-warms) the services. Everything `setup_s` times except the
    /// warm-up cycle.
    pub fn setup(shape: &Shape, seed: u64, tr: &mut Tracer) -> ClosedLoop {
        let open = tr.enter("model.generate", 0);
        let dnn = Arc::new(generate_dnn(&shape.spec));
        let inputs = pool_inputs(shape, seed);
        tr.exit(open);
        let base = || ServiceBuilder::new(dnn.clone()).deterministic(seed);
        let open = tr.enter("core.service.build", 0);
        let (services, combos) = match shape.launch {
            Launch::Warm => {
                let mut b = base().warm_pool(TRANSPORTS.len(), u64::MAX);
                for v in TRANSPORTS {
                    b = b.prewarm_tree(v, shape.workers, MEMORY_MB);
                }
                (vec![b.build()], TRANSPORTS.map(|v| (0, v)).to_vec())
            }
            Launch::ColdPair => {
                let cascade = base().prewarm(shape.workers).build();
                let streamed = base().weight_streaming(true).prewarm(shape.workers).build();
                let combos = TRANSPORTS.iter().flat_map(|&v| [(0, v), (1, v)]).collect();
                (vec![cascade, streamed], combos)
            }
        };
        tr.exit(open);
        ClosedLoop {
            shape: *shape,
            dnn,
            services,
            combos,
            inputs,
        }
    }

    /// Runs one cycle: each combination once, on input `cycle % pool`.
    /// `first_request` numbers the spans' requests.
    pub fn cycle(&self, cycle: usize, first_request: u64, tr: &mut Tracer, out: &mut Vec<Sample>) {
        let input = &self.inputs[cycle % INPUT_POOL];
        for (combo, &(service, variant)) in self.combos.iter().enumerate() {
            let id = first_request + combo as u64;
            let request = tr.enter("request", id);
            let req = InferenceRequest {
                variant,
                workers: self.shape.workers,
                memory_mb: MEMORY_MB,
                inputs: input.clone(),
            };
            let started = Instant::now();
            let submit = tr.enter("core.service.submit", id);
            let outcome = self.services[service].submit(&req);
            tr.exit(submit);
            let wall_ns = started.elapsed().as_nanos() as u64;
            tr.exit(request);
            out.push(Sample {
                cycle,
                combo,
                variant,
                wall_ns,
                outcome: outcome.map_err(|e| e.to_string()),
            });
        }
    }

    /// Releases the warm trees and audits every service's region: one
    /// failed operation per service that left residue behind.
    pub fn teardown(self, phase: &mut Phase) {
        for (i, service) in self.services.iter().enumerate() {
            service.invalidate_warm_trees();
            phase.audit(&format!("service {i}"), service.env());
        }
    }
}

/// One timed segment: whole cycles, verified after the clock stopped.
#[derive(Debug, Clone)]
pub struct Segment {
    pub requests: usize,
    pub wall_s: f64,
    pub cpu_ms: f64,
}

/// What a timed section produced.
pub struct Section {
    pub segments: Vec<Segment>,
    /// The checked requests, in order.
    pub obs: Vec<Obs>,
    pub first_cycle: usize,
    pub cycles: usize,
}

impl Section {
    /// The cycle the next section continues with.
    pub fn next_cycle(&self) -> usize {
        self.first_cycle + self.cycles
    }

    /// The observations of complete passes only (every input of the pool
    /// the same number of times), so the virtual statistics do not depend
    /// on how many cycles the host had time for.
    pub fn complete_passes(&self) -> impl Iterator<Item = &Obs> {
        let whole = self.cycles / INPUT_POOL * INPUT_POOL;
        let end = self.first_cycle + whole;
        self.obs.iter().filter(move |o| o.cycle < end)
    }
}

/// Runs whole cycles from `first_cycle` for `budget` of timed wall, in
/// [`SEGMENTS`] segments (segment `s` ends at the first cycle boundary past
/// `(s+1)/8` of the budget, so overshoot does not add up), and at least
/// one full pass over the input pool. Outputs are checked between
/// segments, outside the timed windows.
pub fn timed_section(
    w: &ClosedLoop,
    oracle: &Oracle,
    budget: Duration,
    first_cycle: usize,
    tr: &mut Tracer,
    phase: &mut Phase,
) -> Section {
    let mut segments = Vec::with_capacity(SEGMENTS);
    let mut obs = Vec::new();
    let mut timed = Duration::ZERO;
    let mut cycles = 0usize;
    for s in 0..SEGMENTS {
        let seg_end = budget * (s as u32 + 1) / SEGMENTS as u32;
        let cycles_due = INPUT_POOL * (s + 1) / SEGMENTS;
        let mut samples = Vec::new();
        let cpu_before = host::cpu_ms();
        let started = Instant::now();
        loop {
            let cycle = first_cycle + cycles;
            let first_request = (cycle * w.combos.len()) as u64 + 1;
            w.cycle(cycle, first_request, tr, &mut samples);
            cycles += 1;
            if timed + started.elapsed() >= seg_end && cycles >= cycles_due {
                break;
            }
        }
        let wall = started.elapsed();
        let cpu_ms = host::cpu_ms() - cpu_before;
        timed += wall;
        segments.push(Segment {
            requests: samples.len(),
            wall_s: wall.as_secs_f64(),
            cpu_ms,
        });
        obs.extend(samples.into_iter().filter_map(|s| s.check(oracle, phase)));
    }
    Section {
        segments,
        obs,
        first_cycle,
        cycles,
    }
}

/// Sets the workload up `repeats` times (each torn down before the next),
/// warm-up cycle included, and returns the last one with every set-up
/// time in seconds.
pub fn repeated_setup(
    shape: &Shape,
    seed: u64,
    oracle: &Oracle,
    repeats: usize,
    tr: &mut Tracer,
    warmup: &mut Phase,
    residue: &mut Phase,
) -> (ClosedLoop, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut live: Option<ClosedLoop> = None;
    for _ in 0..repeats {
        if let Some(prev) = live.take() {
            prev.teardown(residue);
        }
        let started = Instant::now();
        let open = tr.enter("setup", 0);
        let w = ClosedLoop::setup(shape, seed, tr);
        let mut samples = Vec::new();
        let warm = tr.enter("warmup", 0);
        w.cycle(0, 0, tr, &mut samples);
        tr.exit(warm);
        tr.exit(open);
        times.push(started.elapsed().as_secs_f64());
        for s in samples {
            s.check(oracle, warmup);
        }
        live = Some(w);
    }
    (live.expect("at least one set-up"), times)
}

/// The `--trace 0` run of a closed-loop workload.
pub fn measure(name: &str, seed: u64, seconds: u64) -> RunResult {
    let shape = shape_for(name, seed);
    let oracle = Oracle::new(&shape, seed);
    let mut result = RunResult::new(name, seed, seconds, false);
    let mut tr = Tracer::new(false);
    let mut warmup = Phase::new("warmup");
    let mut timed = Phase::new("timed");
    let mut residue = Phase::new("residue");

    let before = host::calibration_ms();
    let (w, mut setups) = repeated_setup(
        &shape,
        seed,
        &oracle,
        crate::SETUP_REPEATS,
        &mut tr,
        &mut warmup,
        &mut residue,
    );
    let section = timed_section(
        &w,
        &oracle,
        Duration::from_secs(seconds),
        0,
        &mut tr,
        &mut timed,
    );
    let after = host::calibration_ms();
    w.teardown(&mut residue);

    result.calibration_ms = (before, after);
    put_setup_metric(&mut result, &mut setups);
    put_host_metrics(&mut result, &section.segments);
    let latencies: Vec<u64> = section.complete_passes().map(|o| o.latency_us).collect();
    let cost: f64 = section.complete_passes().map(|o| o.cost_actual).sum();
    // A closed loop has one request in the system at a time, so its
    // virtual makespan is the sum of the latencies.
    let makespan_us: u64 = latencies.iter().sum();
    put_virt_metrics(&mut result, &latencies, cost, makespan_us);
    result.phases = vec![warmup, timed, residue];
    result
}

/// `setup_s`: the median of the run's set-ups.
pub fn put_setup_metric(result: &mut RunResult, setups: &mut [f64]) {
    let median = stats::median(setups);
    let note = format!("median of {} set-ups", setups.len());
    result.put_sampled("setup_s", median, setups, note);
}

/// `host_rps` (segment median), `host_cpu_ms_per_req` and the peak RSS.
///
/// CPU time comes from `/proc/self/stat` in 10 ms ticks, so it is taken
/// over the whole timed section — a per-segment median would be quantised
/// into a handful of values — and is far less exposed to a disturbed
/// segment than wall time anyway: time spent preempted is not CPU time.
/// The per-segment values still give its within-run spread.
pub fn put_host_metrics(result: &mut RunResult, segments: &[Segment]) {
    let requests: usize = segments.iter().map(|s| s.requests).sum();
    let mut rps: Vec<f64> = segments
        .iter()
        .map(|s| s.requests as f64 / s.wall_s)
        .collect();
    let in_order: Vec<String> = rps.iter().map(|r| format!("{r:.1}")).collect();
    result.put_sampled(
        "host_rps",
        stats::median(&mut rps),
        &rps,
        format!(
            "median of {} segments ({}), {requests} requests",
            segments.len(),
            in_order.join(" ")
        ),
    );
    let cpu_ms: f64 = segments.iter().map(|s| s.cpu_ms).sum();
    let cpu_per_req: Vec<f64> = segments
        .iter()
        .map(|s| s.cpu_ms / s.requests.max(1) as f64)
        .collect();
    result.put_sampled(
        "host_cpu_ms_per_req",
        cpu_ms / requests.max(1) as f64,
        &cpu_per_req,
        format!("{cpu_ms:.0} ms over {requests} requests"),
    );
    result.put("host_peak_rss_mb", host::peak_rss_mb());
}

/// The four virtual-ledger metrics from per-request latencies (µs), their
/// total cost in dollars and the virtual makespan.
pub fn put_virt_metrics(result: &mut RunResult, latencies_us: &[u64], cost: f64, makespan_us: u64) {
    let n = latencies_us.len();
    let mut sorted: Vec<f64> = latencies_us.iter().map(|&l| l as f64 / 1000.0).collect();
    sorted.sort_by(f64::total_cmp);
    let mean = sorted.iter().sum::<f64>() / n.max(1) as f64;
    let supported =
        stats::highest_supported_percentile(n).map_or("none".to_string(), |p| format!("p{p}"));
    result.put_noted("virt_latency_ms_mean", mean, format!("{n} samples"));
    result.put_noted(
        "virt_latency_ms_p90",
        if n == 0 {
            0.0
        } else {
            stats::percentile(&sorted, 90.0)
        },
        format!(
            "{n} samples, {} beyond; highest percentile with ten beyond: {supported}",
            if n == 0 {
                0
            } else {
                stats::samples_beyond(n, 90.0)
            }
        ),
    );
    result.put("virt_cost_uusd_per_req", cost * 1e6 / n.max(1) as f64);
    result.put(
        "virt_rps",
        n as f64 / (makespan_us as f64 / 1e6).max(f64::EPSILON),
    );
}
