//! Single-layer probes of the traced run: `comm` fabrics, `faas`
//! invoke/join, the four channels, `core::wire`, the request-path floors
//! and the scheduler — each on a fresh region, with the workload's median
//! frame as payload. Every probe returns `(metric, value)` pairs.

use crate::closed::{MEMORY_MB, TRANSPORTS};
use crate::fleet::{self, Fleet, MODEL_NAMES};
use crate::report::{Phase, TRANSPORT_NAMES};
use crate::span::Tracer;
use crate::stats;
use fsd_comm::{
    bucket_name, CloudConfig, CloudEnv, Message, MessageAttributes, VClock, VirtualTime,
};
use fsd_core::{
    barrier, wire, ChannelOptions, ChannelRegistry, FsiChannel, InferenceRequest, RecvTracker,
    ServiceBuilder, Tag, TreeKey, Variant,
};
use fsd_faas::{ComputeModel, FaasPlatform, FunctionConfig};
use fsd_model::{generate_dnn, generate_inputs, InputSpec, SparseDnn};
use fsd_sched::{harness, Predictor, PredictorConfig, Ticket};
use fsd_sparse::{codec, compress, SparseRows};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Flow the fabric probes bill to (any non-zero id: 0 is "unattributed").
const PROBE_FLOW: u64 = 7;

/// Largest body a probe sends: one publish batch holds at most 256 KiB.
const MAX_PROBE_BYTES: usize = 200 * 1024;

/// Bytes the fabric probes may keep queued at once.
const PROBE_BUDGET_BYTES: usize = 32 << 20;

/// Operations per fabric probe for a payload of `bytes`.
fn fabric_ops(bytes: usize) -> usize {
    (PROBE_BUDGET_BYTES / bytes.max(1)).clamp(50, 2000)
}

fn ns_per_op(started: Instant, ops: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The wire frame of a block, as the channels build it.
pub fn frame_of(block: &SparseRows) -> Vec<u8> {
    let mut frame = compress::compress(&codec::encode(block));
    frame.truncate(MAX_PROBE_BYTES);
    frame
}

/// `comm.*_ns`: single-thread operations on a fresh region.
pub fn comm(seed: u64, frame: &[u8], phase: &mut Phase) -> Vec<(&'static str, f64)> {
    let env = CloudEnv::new(CloudConfig::deterministic(seed));
    let ops = fabric_ops(frame.len());
    let mut clock = VClock::starting_at(VirtualTime::ZERO).with_flow(PROBE_FLOW);
    let message = |target: u32| Message {
        attributes: MessageAttributes {
            flow: PROBE_FLOW,
            source: 0,
            target,
            layer: 0,
            total_chunks: 1,
            batch: 0,
        },
        body: frame.to_vec(),
    };
    let mut out = Vec::new();

    // Queue: enqueue, then take + settle in batches of ten.
    let queue = env.queue("machine-probe-queue");
    let messages: Vec<Message> = (0..ops).map(|_| message(1)).collect();
    let started = Instant::now();
    for m in messages {
        queue.enqueue(VirtualTime::ZERO, m);
    }
    out.push(("comm.queue.enqueue_ns", ns_per_op(started, ops)));
    let started = Instant::now();
    let mut taken = 0usize;
    while taken < ops {
        let batch = queue.take_visible(10);
        let stamps: Vec<(VirtualTime, usize)> = batch
            .iter()
            .map(|m| (m.available_at, m.message.len()))
            .collect();
        queue.settle_receives(&mut clock, 2.0, &stamps);
        taken += batch.len().max(1);
    }
    out.push(("comm.queue.take_settle_ns", ns_per_op(started, ops)));

    // Pub-sub: one-message publish batches fanned out to a subscribed queue.
    env.pubsub()
        .subscribe(0, PROBE_FLOW, 1, queue.clone())
        .expect("topic 0 exists");
    let messages: Vec<Message> = (0..ops).map(|_| message(1)).collect();
    let started = Instant::now();
    for m in messages {
        env.pubsub()
            .publish_batch(0, &mut clock, vec![m])
            .expect("frame fits a publish batch");
    }
    out.push(("comm.pubsub.publish_batch_ns", ns_per_op(started, ops)));
    env.pubsub()
        .unsubscribe(0, PROBE_FLOW, 1)
        .expect("topic 0 exists");
    env.remove_queue("machine-probe-queue");

    // Object store: PUT, GET, then scan + settle over the prefix.
    let bucket = bucket_name(0);
    let store = env.object_store();
    let keys: Vec<String> = (0..ops).map(|i| format!("machine-probe/{i:06}")).collect();
    let body: Arc<[u8]> = frame.into();
    let started = Instant::now();
    for k in &keys {
        store
            .put(&bucket, k, body.clone(), &mut clock)
            .expect("bucket exists");
    }
    out.push(("comm.object.put_ns", ns_per_op(started, ops)));
    let started = Instant::now();
    for k in &keys {
        store.get(&bucket, k, &mut clock).expect("key was put");
    }
    out.push(("comm.object.get_ns", ns_per_op(started, ops)));
    let scans = 50usize;
    let started = Instant::now();
    for _ in 0..scans {
        let found = store
            .scan_keys(&bucket, "machine-probe/", 0)
            .expect("bucket exists");
        let stamps: Vec<VirtualTime> = found.iter().map(|(_, at)| *at).collect();
        store.settle_scans(&mut clock, None, &stamps);
    }
    out.push(("comm.object.scan_ns", ns_per_op(started, scans)));
    store.delete_prefix(&bucket, "machine-probe/");

    // Direct exchange: each frame under its own tag, so a fetch clones one.
    let tags: Vec<String> = (0..ops).map(|i| format!("t{i}")).collect();
    let started = Instant::now();
    for t in &tags {
        env.direct()
            .send(&mut clock, 0, 1, t, body.clone())
            .expect("unarmed fault plane");
    }
    out.push(("comm.direct.send_ns", ns_per_op(started, ops)));
    let started = Instant::now();
    for t in &tags {
        let frames = env.direct().fetch(PROBE_FLOW, 1, t, 0);
        let stamps: Vec<VirtualTime> = frames.iter().map(|f| f.available_at).collect();
        env.direct().settle_recv(&mut clock, &stamps);
    }
    out.push(("comm.direct.fetch_ns", ns_per_op(started, ops)));
    env.direct().close_flow(PROBE_FLOW);

    // Weight stream: blocks down one hop.
    let started = Instant::now();
    for k in &keys {
        env.weight_net()
            .send_block(&mut clock, 1, 1, k, body.clone())
            .expect("unarmed fault plane");
    }
    out.push(("comm.stream.send_block_ns", ns_per_op(started, ops)));
    env.weight_net().close_flow(PROBE_FLOW);

    env.release_flow(PROBE_FLOW);
    phase.audit("comm probe", &env);
    out
}

/// `faas.invoke_join_us`: invoke + join of an empty body.
pub fn faas(seed: u64) -> Vec<(&'static str, f64)> {
    let env = CloudEnv::new(CloudConfig::deterministic(seed));
    let platform = FaasPlatform::new(env, ComputeModel::default());
    let ops = 200usize;
    let started = Instant::now();
    for _ in 0..ops {
        platform
            .invoke(
                FunctionConfig::worker("machine-probe", MEMORY_MB),
                VirtualTime::ZERO,
                |_| Ok(()),
            )
            .join()
            .expect("empty body runs");
    }
    vec![("faas.invoke_join_us", ns_per_op(started, ops) / 1000.0)]
}

/// Ping-pongs `block` between ranks 0 and 1 of a channel `rounds` times;
/// the host microseconds per round trip, measured on rank 0.
fn roundtrip_us(
    platform: &Arc<FaasPlatform>,
    channel: &Arc<dyn FsiChannel>,
    flow: u64,
    block: &SparseRows,
    rounds: u32,
) -> f64 {
    let spawn = |rank: u32| {
        let channel = channel.clone();
        let block = block.clone();
        let cfg = FunctionConfig::worker(format!("machine-probe-{rank}"), MEMORY_MB).for_flow(flow);
        platform.invoke(cfg, VirtualTime::ZERO, move |ctx| {
            let peer = 1 - rank;
            let started = Instant::now();
            for r in 0..rounds {
                let (ping, pong) = (Tag::Layer(2 * r), Tag::Layer(2 * r + 1));
                let (mine, theirs) = if rank == 0 {
                    (ping, pong)
                } else {
                    (pong, ping)
                };
                if rank == 0 {
                    channel.send_layer(ctx, mine, rank, &[(peer, block.clone())])?;
                }
                let mut tracker = RecvTracker::expecting([peer]);
                channel.receive_all(ctx, theirs, rank, &mut tracker)?;
                if rank == 1 {
                    channel.send_layer(ctx, mine, rank, &[(peer, block.clone())])?;
                }
            }
            Ok(started.elapsed().as_nanos() as f64 / 1000.0 / f64::from(rounds))
        })
    };
    let (zero, one) = (spawn(0), spawn(1));
    let (us, _) = zero.join().expect("rank 0 ping-pongs");
    one.join().expect("rank 1 ping-pongs");
    us
}

/// `rounds` P-way barriers; host microseconds per barrier on rank 0.
fn barrier_us(
    platform: &Arc<FaasPlatform>,
    channel: &Arc<dyn FsiChannel>,
    flow: u64,
    workers: u32,
    rounds: u32,
) -> f64 {
    let invocations: Vec<_> = (0..workers)
        .map(|rank| {
            let channel = channel.clone();
            let cfg =
                FunctionConfig::worker(format!("machine-probe-{rank}"), MEMORY_MB).for_flow(flow);
            platform.invoke(cfg, VirtualTime::ZERO, move |ctx| {
                let started = Instant::now();
                for r in 0..rounds {
                    barrier(channel.as_ref(), ctx, rank, workers, r)?;
                }
                Ok(started.elapsed().as_nanos() as f64 / 1000.0 / f64::from(rounds))
            })
        })
        .collect();
    let mut rank0 = 0.0;
    for (rank, inv) in invocations.into_iter().enumerate() {
        let (us, _) = inv.join().expect("barrier rounds complete");
        if rank == 0 {
            rank0 = us;
        }
    }
    rank0
}

/// `core.channel.<v>.roundtrip_us` / `barrier_us` for the four transports.
pub fn channels(
    seed: u64,
    block: &SparseRows,
    workers: u32,
    phase: &mut Phase,
) -> Vec<(String, f64)> {
    let registry = ChannelRegistry::with_builtins();
    let mut out = Vec::new();
    for (i, name) in TRANSPORT_NAMES.iter().enumerate() {
        let env = CloudEnv::new(CloudConfig::deterministic(seed));
        let platform = FaasPlatform::new(env.clone(), ComputeModel::default());
        let provider = registry.get(name).expect("builtin transport");
        // One flow per collective, as the service gives every request its
        // own: tags and receive state never carry over.
        let flows = [100 + 2 * i as u64, 101 + 2 * i as u64];
        let channel = provider.provision(&env, 2, ChannelOptions::default(), flows[0]);
        let us = roundtrip_us(&platform, &channel, flows[0], block, 30);
        channel.teardown();
        out.push((format!("core.channel.{name}.roundtrip_us"), us));
        let channel = provider.provision(&env, workers, ChannelOptions::default(), flows[1]);
        let us = barrier_us(&platform, &channel, flows[1], workers, 20);
        channel.teardown();
        out.push((format!("core.channel.{name}.barrier_us"), us));
        for flow in flows {
            env.release_flow(flow);
            platform.lambda_meter().release_flow(flow);
        }
        phase.audit(name, &env);
    }
    out
}

/// `core.wire.*`: encode and decode of the model's first layer.
pub fn wire_codec(dnn: &SparseDnn) -> Vec<(&'static str, f64)> {
    let layer = dnn.layer(0);
    let reps = 20usize;
    let started = Instant::now();
    let mut bytes = Vec::new();
    for _ in 0..reps {
        bytes = wire::encode_csr(std::hint::black_box(layer));
    }
    let encode = ns_per_op(started, reps * bytes.len());
    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(wire::decode_csr(std::hint::black_box(&bytes)).expect("own bytes"));
    }
    let decode = ns_per_op(started, reps * bytes.len());
    vec![
        ("core.wire.encode_csr_ns_per_byte", encode),
        ("core.wire.decode_csr_ns_per_byte", decode),
    ]
}

/// `core.service.{warm,cold}_floor_us`: a one-sample request on an
/// `N=64, L=2, P=2` model — what the request path costs when the kernels
/// cost nothing. Median of 40 queue-transport requests each.
pub fn floors(seed: u64, phase: &mut Phase) -> Vec<(&'static str, f64)> {
    let spec = fleet::model_spec(seed, 0);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(1, seed));
    let expected = dnn.serial_inference(&inputs);
    let warm = ServiceBuilder::new(dnn.clone())
        .deterministic(seed)
        .warm_pool(1, u64::MAX)
        .prewarm_tree(Variant::Queue, 2, MEMORY_MB)
        .build();
    let cold = ServiceBuilder::new(dnn)
        .deterministic(seed)
        .prewarm(2)
        .build();
    let mut out = Vec::new();
    for (name, service) in [
        ("core.service.warm_floor_us", &warm),
        ("core.service.cold_floor_us", &cold),
    ] {
        let mut walls = Vec::with_capacity(40);
        for _ in 0..40 {
            let req = InferenceRequest {
                variant: Variant::Queue,
                workers: 2,
                memory_mb: MEMORY_MB,
                inputs: inputs.clone(),
            };
            let started = Instant::now();
            let report = service.submit(&req);
            walls.push(started.elapsed().as_nanos() as f64 / 1000.0);
            phase.record(match report {
                Ok(r) if r.first_output() == &expected => Ok(()),
                Ok(_) => Err(format!("{name}: wrong output")),
                Err(e) => Err(format!("{name}: {e}")),
            });
        }
        out.push((name, stats::median(&mut walls)));
        service.invalidate_warm_trees();
        phase.audit(name, service.env());
    }
    out
}

/// `sched.predictor.observe_ns`: arrivals cycling through the four
/// transports' shapes.
pub fn predictor() -> Vec<(&'static str, f64)> {
    let mut predictor = Predictor::new(PredictorConfig::default());
    let shapes = TRANSPORTS.map(|variant| TreeKey {
        variant,
        workers: 2,
        memory_mb: MEMORY_MB,
    });
    let ops = 100_000usize;
    let started = Instant::now();
    for i in 0..ops {
        std::hint::black_box(predictor.observe(Some(shapes[i % shapes.len()])));
    }
    vec![("sched.predictor.observe_ns", ns_per_op(started, ops))]
}

/// The scheduler under its own minimal manual driver — the harness
/// protocol, with `enqueue_at`, `dispatch` and `Ticket::wait` timed — over
/// one 3 200-request slice of the fleet trace.
pub fn scheduler(seed: u64, tr: &mut Tracer, phase: &mut Phase) -> Vec<(&'static str, f64)> {
    let models = fleet::generate_models(seed);
    let fleet::Trace {
        arrivals: trace,
        digests: oracle,
    } = fleet::Trace::new(&models, fleet::arrivals(100, seed));
    let fleet = Fleet::build(&models, seed);
    let sched = &fleet.sched;
    let requests: Vec<_> = trace
        .iter()
        .map(|fa| fsd_core::BatchedRequest {
            variant: fa.arrival.variant,
            workers: fa.arrival.workers,
            memory_mb: fa.arrival.memory_mb,
            batches: vec![generate_inputs(
                models[fa.model].spec().neurons,
                &InputSpec::scaled(fa.arrival.width, fa.arrival.input_seed),
            )],
        })
        .collect();

    let mut tickets: HashMap<u64, (usize, Ticket)> = HashMap::new();
    let mut harvested = 0usize;
    let (mut enqueue_ns, mut dispatch_ns, mut dispatches) = (0u64, 0u64, 0u64);
    let mut harvest =
        |tickets: &mut HashMap<u64, (usize, Ticket)>, tr: &mut Tracer, phase: &mut Phase| -> bool {
            let log = sched.admission_log();
            let Some(&seq) = log.get(harvested) else {
                return false;
            };
            harvested += 1;
            let (idx, ticket) = tickets.remove(&seq).expect("admitted ticket is held");
            let open = tr.enter("sched.ticket.wait", seq);
            let outcome = ticket.wait();
            tr.exit(open);
            phase.record(match outcome {
                Ok(r) if fleet::output_digest(&r.outputs) == oracle[idx] => Ok(()),
                Ok(_) => Err(format!("sched probe arrival {idx}: wrong output")),
                Err(e) => Err(format!("sched probe arrival {idx}: {e}")),
            });
            true
        };

    let mut requests = requests.into_iter().enumerate().peekable();
    while let Some((first, _)) = requests.peek() {
        let at = trace[*first].arrival.at;
        while sched.inflight() >= sched.global_cap() && harvest(&mut tickets, tr, phase) {}
        while let Some((idx, req)) = requests.next_if(|(i, _)| trace[*i].arrival.at == at) {
            let a = &trace[idx].arrival;
            let started = Instant::now();
            let open = tr.enter("sched.enqueue_at", idx as u64);
            let ticket = sched.enqueue_at(MODEL_NAMES[trace[idx].model], a.priority, a.at, req);
            tr.exit(open);
            enqueue_ns += started.elapsed().as_nanos() as u64;
            match ticket {
                Ok(t) => {
                    tickets.insert(t.seq(), (idx, t));
                }
                Err(e) => phase.record(Err(format!("sched probe arrival {idx} refused: {e}"))),
            }
        }
        let started = Instant::now();
        let open = tr.enter("sched.dispatch", 0);
        sched.dispatch();
        tr.exit(open);
        dispatch_ns += started.elapsed().as_nanos() as u64;
        dispatches += 1;
    }
    loop {
        let started = Instant::now();
        sched.dispatch();
        dispatch_ns += started.elapsed().as_nanos() as u64;
        dispatches += 1;
        if harvest(&mut tickets, tr, phase) {
            continue;
        }
        if sched.queued() == 0 && sched.inflight() == 0 {
            break;
        }
    }
    let s = sched.stats();
    let n = trace.len() as f64;
    let launched = (s.warm_hits + s.cold_starts).max(1) as f64;
    let out = vec![
        ("sched.enqueue_us", enqueue_ns as f64 / 1000.0 / n),
        (
            "sched.dispatch_us",
            dispatch_ns as f64 / 1000.0 / dispatches.max(1) as f64,
        ),
        ("sched.coalesced_share", s.coalesced as f64 / n),
        ("sched.warm_hit_share", s.warm_hits as f64 / launched),
        ("sched.rejected_share", s.total_rejected() as f64 / n),
    ];
    fleet.teardown(phase);
    out
}

/// `sched.replay_scaling_ratio`: host µs per request of a 51 200-request
/// replay over that of a 3 200-request one (1 = linear in trace length).
pub fn replay_scaling(seed: u64, phase: &mut Phase) -> Vec<(&'static str, f64)> {
    let models = fleet::generate_models(seed);
    let mut us_per_request = |rounds: usize| {
        let trace = fleet::Trace::new(&models, fleet::arrivals(rounds, seed));
        let fleet = Fleet::build(&models, seed);
        let started = Instant::now();
        let report = harness::replay_fleet(&fleet.sched, &MODEL_NAMES, &trace.arrivals);
        let us = started.elapsed().as_nanos() as f64 / 1000.0 / trace.len() as f64;
        fleet::check_replay(&report, &trace, phase);
        fleet.teardown(phase);
        us
    };
    let short = us_per_request(100);
    let long = us_per_request(1600);
    vec![("sched.replay_scaling_ratio", long / short)]
}
