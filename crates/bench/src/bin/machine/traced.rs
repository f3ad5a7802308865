//! The `--trace 1` run: every per-layer metric of one workload.
//!
//! End-to-end metrics are measured with tracing off (`--trace 0`). A
//! closed loop's traced run sets the workload up once under spans, runs a
//! quarter of the timed section untraced and a quarter traced (the
//! difference is the tracing overhead), replays one request layer by layer
//! on this thread, then probes the layers below the request path one at a
//! time; `sched_fleet` has a shorter path of its own. Spans are
//! recorded in the benchmark's own files, around calls into the crates'
//! public functions, and written as Chrome-trace JSON when the run ends.

use crate::closed::{
    repeated_setup, shape_for, timed_section, ClosedLoop, Obs, Oracle, Segment, INPUT_POOL,
    TRANSPORTS,
};
use crate::report::{Phase, RunResult, TRANSPORT_NAMES};
use crate::span::{chrome_trace, Tracer};
use crate::{alloc, fleet, host, layers, probes, stats};
use fsd_core::{LaunchPath, Variant};
use fsd_partition::{partition_model, CommPlan};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Host seconds per request over a set of segments.
fn wall_per_request(segments: &[Segment]) -> f64 {
    let requests: usize = segments.iter().map(|s| s.requests).sum();
    segments.iter().map(|s| s.wall_s).sum::<f64>() / requests.max(1) as f64
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n.max(1) as f64
}

/// Relative difference, in parts per million, between the summed virtual
/// latencies of two replays of the same requests (0 = bit-stable).
fn drift_ppm(first: u64, second: u64) -> f64 {
    if first == 0 {
        return 0.0;
    }
    first.abs_diff(second) as f64 / first as f64 * 1e6
}

/// Σ virtual latency of the first observation of every `(combo, input)`
/// pair, restricted to the pairs `other` also saw.
fn matched_latency_sum(obs: &[Obs], other: &[Obs]) -> u64 {
    let key = |o: &Obs| (o.combo, o.cycle % INPUT_POOL);
    let theirs: HashSet<(usize, usize)> = other.iter().map(key).collect();
    let mut firsts: HashMap<(usize, usize), u64> = HashMap::new();
    for o in obs.iter().filter(|o| theirs.contains(&key(o))) {
        firsts.entry(key(o)).or_insert(o.latency_us);
    }
    firsts.values().sum()
}

/// The metrics that come out of the requests' own reports.
fn put_request_metrics(result: &mut RunResult, w: &ClosedLoop, obs: &[Obs], serial_ms: f64) {
    let n = obs.len().max(1) as f64;
    let mut walls: Vec<f64> = obs.iter().map(|o| o.wall_ns as f64 / 1e6).collect();
    walls.sort_by(f64::total_cmp);
    if !walls.is_empty() {
        let supported = stats::highest_supported_percentile(walls.len())
            .map_or("none".to_string(), |p| format!("p{p}"));
        let note = format!(
            "{} samples; highest percentile with ten beyond: {supported}",
            walls.len()
        );
        result.put_noted(
            "core.service.submit_ms_p50",
            stats::percentile(&walls, 50.0),
            note.clone(),
        );
        result.put_noted(
            "core.service.submit_ms_p90",
            stats::percentile(&walls, 90.0),
            note,
        );
    }
    result.put("core.service.submit_samples", walls.len() as f64);
    for (variant, name) in TRANSPORTS.iter().zip(TRANSPORT_NAMES) {
        let of: Vec<&Obs> = obs.iter().filter(|o| o.variant == *variant).collect();
        if of.is_empty() {
            continue;
        }
        let mut walls: Vec<f64> = of.iter().map(|o| o.wall_ns as f64 / 1e6).collect();
        result.put_noted(
            &format!("core.service.submit_ms_p50.{name}"),
            stats::median(&mut walls),
            format!("{} samples", of.len()),
        );
        result.put(
            &format!("core.channel.{name}.frames_per_req"),
            mean(
                of.iter()
                    .map(|o| (o.client.messages + o.client.s3_puts + o.client.direct_msgs) as f64),
            ),
        );
        result.put(
            &format!("core.channel.{name}.retries_per_req"),
            mean(of.iter().map(|o| o.client.retries as f64)),
        );
    }

    let api_calls = |o: &Obs| {
        o.comm.sns_publish_requests
            + o.comm.sqs_api_calls
            + o.comm.s3_put_requests
            + o.comm.s3_get_requests
            + o.comm.s3_list_requests
    };
    let bytes = |o: &Obs| {
        o.comm.sns_delivered_bytes
            + o.comm.s3_put_bytes
            + o.comm.s3_get_bytes
            + o.comm.direct_bytes
            + o.comm.weight_bytes
    };
    result.put(
        "comm.api_calls_per_req",
        mean(obs.iter().map(|o| api_calls(o) as f64)),
    );
    result.put(
        "comm.bytes_per_req",
        mean(obs.iter().map(|o| bytes(o) as f64)),
    );
    let sqs: u64 = obs.iter().map(|o| o.comm.sqs_api_calls).sum();
    let empty: u64 = obs.iter().map(|o| o.comm.sqs_empty_polls).sum();
    result.put("comm.empty_poll_share", empty as f64 / sqs.max(1) as f64);

    result.put(
        "faas.invocations_per_req",
        mean(obs.iter().map(|o| o.lambda.invocations as f64)),
    );
    result.put(
        "faas.billed_ms_per_req",
        mean(obs.iter().map(|o| o.billed_ms as f64)),
    );
    let peak = obs.iter().map(|o| o.peak_mem_bytes).max().unwrap_or(0);
    result.put("faas.peak_mem_mb", peak as f64 / (1024.0 * 1024.0));

    // Queue and direct move no request data through object storage, so
    // their GETs are artifact loads only: weights, maps and input shares.
    let artifact_only = obs
        .iter()
        .filter(|o| matches!(o.variant, Variant::Queue | Variant::Direct));
    result.put(
        "core.weights.s3_gets_per_req",
        mean(artifact_only.map(|o| o.comm.s3_get_requests as f64)),
    );
    let (hits, misses) = w.services.iter().fold((0u64, 0u64), |(h, m), s| {
        let c = s.weight_cache().stats();
        (h + c.hits, m + c.misses)
    });
    result.put(
        "core.weights.cache_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    let input0 = obs.iter().filter(|o| o.cycle % INPUT_POOL == 0);
    let submit_ms = mean(input0.map(|o| o.wall_ns as f64 / 1e6));
    result.put_noted(
        "core.service.wall_over_kernel",
        submit_ms / serial_ms,
        format!("submit {submit_ms:.3} ms over serial_inference {serial_ms:.3} ms, input 0"),
    );
    result.put(
        "core.service.rank_skew",
        mean(obs.iter().map(|o| o.rank_skew)),
    );
    let warm = obs
        .iter()
        .filter(|o| o.launch == LaunchPath::WarmHit)
        .count();
    result.put("core.pool.warm_hit_share", warm as f64 / n);
    let predicted: f64 = obs.iter().map(|o| o.cost_predicted).sum();
    let actual: f64 = obs.iter().map(|o| o.cost_actual).sum();
    result.put(
        "core.cost.predicted_over_actual",
        if actual > 0.0 {
            predicted / actual
        } else {
            0.0
        },
    );
}

/// Milliseconds recorded under a span name.
fn span_ms(tr: &Tracer, name: &str) -> f64 {
    tr.total_ns(name) as f64 / 1e6
}

/// What the traced part of a run cost over the untraced part, and how far
/// apart the two parts' virtual latencies are: `host.alloc.*` since
/// `counted_before` over `requests`, `host.trace_overhead_share` and
/// `core.service.virt_replay_drift_ppm`.
fn put_trace_cost(
    result: &mut RunResult,
    counted_before: (u64, u64),
    requests: usize,
    overhead: f64,
    drift: f64,
) {
    let counted = alloc::counted();
    let per_request = requests.max(1) as f64;
    result.put(
        "host.alloc.count_per_req",
        (counted.0 - counted_before.0) as f64 / per_request,
    );
    result.put(
        "host.alloc.bytes_per_req",
        (counted.1 - counted_before.1) as f64 / per_request,
    );
    result.put("host.trace_overhead_share", overhead);
    result.put("core.service.virt_replay_drift_ppm", drift);
}

/// The `--trace 1` run of any workload.
pub fn run(name: &str, seed: u64, seconds: u64) -> RunResult {
    let mut result = RunResult::new(name, seed, seconds, true);
    let mut tr = Tracer::new(true);
    let before = host::calibration_ms();
    let (phases, layer_tr) = if name == "sched_fleet" {
        (fleet_run(seed, &mut result, &mut tr), None)
    } else {
        let (phases, layer_tr) = closed_run(name, seed, seconds, &mut result, &mut tr);
        (phases, Some(layer_tr))
    };
    let after = host::calibration_ms();
    result.calibration_ms = (before, after);
    result.put("host.calibration_ms", before);
    result.complete();
    result.phases = phases;

    // One file: the run's spans on thread 1, a closed loop's layer replay
    // on thread 2 (its clock starts when the replay did).
    tr.print_summary("run");
    let mut events = tr.chrome_events(1);
    if let Some(layer_tr) = layer_tr {
        layer_tr.print_summary("layer replay");
        events.extend(layer_tr.chrome_events(2));
    }
    let path = crate::output_dir().join(format!("{name}.chrome-trace.json"));
    crate::write_file(&path, &chrome_trace(events).to_string());
    println!("# chrome trace: {}", path.display());
    result
}

/// `sched_fleet` traced: its requests go through the scheduler, so it
/// spans its set-up, replays one trace untraced and once more traced, and
/// probes the request-path floors and the scheduler. The per-request and
/// kernel metrics of the closed loops are not its to report.
fn fleet_run(seed: u64, result: &mut RunResult, tr: &mut Tracer) -> Vec<Phase> {
    let mut warmup = Phase::new("warmup");
    let mut untraced = Phase::new("untraced");
    let mut traced = Phase::new("traced");
    let mut probe = Phase::new("probes");
    let mut residue = Phase::new("residue");

    let models = fleet::setup(seed, tr, &mut warmup, &mut residue);
    result.put("model.generate_ms", span_ms(tr, "model.generate"));
    result.put("core.service.build_ms", span_ms(tr, "core.service.build"));

    let trace = fleet::Trace::new(&models, fleet::arrivals(fleet::ROUNDS, seed));
    tr.set_on(false);
    let off = fleet::timed_replay(&models, seed, &trace, tr, 0, &mut untraced, &mut residue);
    tr.set_on(true);
    let counted_before = alloc::counted();
    alloc::arm(true);
    let on = fleet::timed_replay(&models, seed, &trace, tr, 1, &mut traced, &mut residue);
    alloc::arm(false);
    put_trace_cost(
        result,
        counted_before,
        trace.len(),
        on.segment.wall_s / off.segment.wall_s - 1.0,
        drift_ppm(off.latencies_us.iter().sum(), on.latencies_us.iter().sum()),
    );

    result.put_all(probes::floors(seed, &mut probe));
    result.put_all(probes::predictor());
    result.put_all(probes::scheduler(seed, tr, &mut probe));
    result.put_all(probes::replay_scaling(seed, &mut probe));
    vec![warmup, untraced, traced, probe, residue]
}

/// A closed-loop workload traced; returns its phases and the layer
/// replay's own tracer.
fn closed_run(
    name: &str,
    seed: u64,
    seconds: u64,
    result: &mut RunResult,
    tr: &mut Tracer,
) -> (Vec<Phase>, Tracer) {
    let shape = shape_for(name, seed);
    let oracle = Oracle::new(&shape, seed);
    let mut warmup = Phase::new("warmup");
    let mut untraced = Phase::new("untraced");
    let mut traced = Phase::new("traced");
    let mut replay = Phase::new("replay");
    let mut probe = Phase::new("probes");
    let mut residue = Phase::new("residue");

    // Set-up under spans, then the two offline steps the service runs
    // inside `build`, called directly so each gets its own span.
    let (w, _) = repeated_setup(&shape, seed, &oracle, 1, tr, &mut warmup, &mut residue);
    let cfg = *w.services[0].config();
    let parts = shape.workers as usize;
    let partition = tr.span("partition.partition_model", 0, || {
        partition_model(&w.dnn, parts, cfg.scheme, cfg.seed)
    });
    let plan = tr.span("partition.commplan", 0, || {
        CommPlan::build(&w.dnn, &partition)
    });
    replay.check(*w.services[0].partition(shape.workers) == partition, || {
        "the replay's partition differs from the service's".into()
    });

    // A quarter of the timed section untraced, a quarter traced.
    let quarter = Duration::from_secs_f64(seconds as f64 / 4.0);
    tr.set_on(false);
    let off = timed_section(&w, &oracle, quarter, 0, tr, &mut untraced);
    tr.set_on(true);
    let counted_before = alloc::counted();
    alloc::arm(true);
    let on = timed_section(&w, &oracle, quarter, off.next_cycle(), tr, &mut traced);
    alloc::arm(false);
    put_trace_cost(
        result,
        counted_before,
        on.obs.len(),
        wall_per_request(&on.segments) / wall_per_request(&off.segments) - 1.0,
        drift_ppm(
            matched_latency_sum(&off.obs, &on.obs),
            matched_latency_sum(&on.obs, &off.obs),
        ),
    );

    // The kernel-only reference for input 0, then the request metrics.
    let mut serial: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let out = tr.span("model.serial_inference", 0, || {
                w.dnn.serial_inference(&oracle.inputs[0])
            });
            replay.check(out == oracle.expected[0], || {
                "serial_inference is not repeatable".into()
            });
            started.elapsed().as_secs_f64() * 1000.0
        })
        .collect();
    let serial_ms = stats::median(&mut serial);
    result.put("model.serial_inference_ms", serial_ms);
    put_request_metrics(result, &w, &on.obs, serial_ms);

    // The layer replay: a few requests' worth of kernel and packing work
    // on this thread, under their own tracer so the totals are theirs.
    let mut layer_tr = Tracer::new(true);
    let ranks = layers::Ranks::build(&w.dnn, &partition, &plan, &mut layer_tr);
    let passes = ((300.0 / serial_ms.max(0.01)) as u64).clamp(1, 8);
    let replayed = ranks.replay(
        &oracle.inputs[0],
        &oracle.expected[0],
        passes,
        &mut layer_tr,
    );
    replay.check(replayed.correct, || {
        "layer replay differs from serial_inference".into()
    });
    // Same request, same work: the units the replay's kernels reported
    // must be the units the service charged for input 0.
    let replay_units = (replayed.counts.accumulate_units + replayed.counts.finalize_units) / passes;
    if let Some(o) = on.obs.iter().find(|o| o.cycle % INPUT_POOL == 0) {
        replay.check(o.work_done == replay_units, || {
            format!(
                "layer replay did {replay_units} work units, the service charged {}",
                o.work_done
            )
        });
    }
    result.put(
        "sparse.ops.from_layer_ms",
        span_ms(&layer_tr, "sparse.ops.from_layer"),
    );
    result.put_all(layers::sparse_metrics(&layer_tr, &replayed));
    drop(ranks);

    result.put("model.generate_ms", span_ms(tr, "model.generate"));
    result.put("core.service.build_ms", span_ms(tr, "core.service.build"));
    result.put("partition.hgp_ms", span_ms(tr, "partition.partition_model"));
    result.put("partition.commplan_ms", span_ms(tr, "partition.commplan"));
    result.put("partition.cut_row_sends", plan.total_row_sends() as f64);
    let row_weights: Vec<u32> = (0..shape.spec.neurons)
        .map(|r| w.dnn.layers().iter().map(|l| l.row_nnz(r) as u32).sum())
        .collect();
    result.put("partition.imbalance", partition.imbalance(&row_weights));

    // Probes, one layer at a time, payload = the workload's median frame.
    let block = replayed.median_block(shape.width);
    let frame = probes::frame_of(&block);
    let dnn = w.dnn.clone();
    w.teardown(&mut residue);
    result.put_all(probes::comm(seed, &frame, &mut probe));
    result.put_all(probes::faas(seed));
    result.put_all(probes::channels(seed, &block, shape.workers, &mut probe));
    result.put_all(probes::wire_codec(&dnn));
    result.put_all(probes::floors(seed, &mut probe));
    result.put_all(probes::predictor());
    result.put_all(probes::scheduler(seed, tr, &mut probe));
    (
        vec![warmup, untraced, traced, replay, probe, residue],
        layer_tr,
    )
}
