//! Property-based tests (proptest) on the core invariants:
//! codecs are lossless, kernels match dense references, partitions are
//! sound, and the distributed engine equals the serial oracle for
//! arbitrary models/batches/parallelism.

use fsd_inference::core::wire;
use fsd_inference::core::{ChannelOptions, RecvTracker, Tag, Transport, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::partition::{partition_model, CommPlan, Hypergraph, PartitionScheme};
use fsd_inference::sparse::{codec, compress, CsrMatrix, SparseRows};
use proptest::prelude::*;

/// Strategy: a sparse row block with sorted ids/cols.
fn sparse_rows_strategy(max_rows: usize, width: usize) -> impl Strategy<Value = SparseRows> {
    let row = (0u32..width as u32, -100.0f32..100.0);
    proptest::collection::btree_map(
        0u32..(4 * max_rows as u32),
        proptest::collection::btree_map(0u32..width as u32, -100.0f32..100.0, 0..width.min(12)),
        0..max_rows,
    )
    .prop_map(move |rows| {
        let mut block = SparseRows::new(width);
        for (id, cells) in rows {
            if cells.is_empty() {
                continue;
            }
            let cols: Vec<u32> = cells.keys().copied().collect();
            let vals: Vec<f32> = cells.values().copied().collect();
            block.push_row(id, &cols, &vals);
        }
        block
    })
    .prop_filter("row strategy unused var", move |_| {
        let _ = &row;
        true
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrip(block in sparse_rows_strategy(20, 16)) {
        let encoded = codec::encode(&block);
        prop_assert_eq!(codec::encoded_size(&block), encoded.len());
        let back = codec::decode(&encoded).expect("decodes");
        prop_assert_eq!(back, block);
    }

    #[test]
    fn compress_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress::compress(&data);
        let back = compress::decompress(&c).expect("decompresses");
        prop_assert_eq!(back, data);
    }

    #[test]
    fn compress_then_codec_roundtrip(block in sparse_rows_strategy(16, 8)) {
        let wire_bytes = compress::compress(&codec::encode(&block));
        let back = codec::decode(&compress::decompress(&wire_bytes).expect("ok")).expect("ok");
        prop_assert_eq!(back, block);
    }

    #[test]
    fn csr_wire_roundtrip(
        triplets in proptest::collection::btree_map(
            (0u32..24, 0u32..24), -10.0f32..10.0, 0..64,
        )
    ) {
        let m = CsrMatrix::from_triplets(
            24, 24, triplets.into_iter().map(|((r, c), v)| (r, c, v)),
        ).expect("valid");
        let back = wire::decode_csr(&wire::encode_csr(&m)).expect("decodes");
        prop_assert_eq!(back, m);
    }

    #[test]
    fn maps_wire_roundtrip(
        maps in proptest::collection::vec(
            proptest::collection::vec(
                (0u32..16, proptest::collection::btree_set(0u32..512, 1..20)),
                0..6,
            ),
            0..5,
        )
    ) {
        let maps: Vec<Vec<(u32, Vec<u32>)>> = maps
            .into_iter()
            .map(|layer| layer.into_iter().map(|(p, rows)| (p, rows.into_iter().collect())).collect())
            .collect();
        let back = wire::decode_maps(&wire::encode_maps(&maps)).expect("decodes");
        prop_assert_eq!(back, maps);
    }

    #[test]
    fn extract_preserves_rows(block in sparse_rows_strategy(24, 12), take_every in 1usize..4) {
        let wanted: Vec<u32> = block.ids().iter().copied().step_by(take_every).collect();
        let sub = block.extract(&wanted);
        for &id in &wanted {
            prop_assert_eq!(sub.row_by_id(id), block.row_by_id(id));
        }
        prop_assert_eq!(sub.nnz(), block.extract_nnz(&wanted));
    }

    #[test]
    fn split_merge_identity(block in sparse_rows_strategy(24, 12), max_nnz in 1usize..20) {
        let chunks = block.split_by_nnz(max_nnz);
        let mut merged = SparseRows::new(block.width());
        for c in &chunks {
            merged.merge(c);
        }
        prop_assert_eq!(merged, block);
    }

    #[test]
    fn partition_schemes_cover_each_vertex_once(
        neurons in 32usize..160,
        parts in 2usize..7,
        seed in 0u64..50,
    ) {
        let spec = DnnSpec { neurons, layers: 2, nnz_per_row: 4, bias: -0.2, clip: 32.0, seed };
        let dnn = generate_dnn(&spec);
        for scheme in [PartitionScheme::Hgp, PartitionScheme::Random, PartitionScheme::Block] {
            let part = partition_model(&dnn, parts, scheme, seed);
            prop_assert_eq!(part.n_vertices(), neurons);
            let covered: usize = (0..parts as u32).map(|q| part.owned(q).len()).sum();
            prop_assert_eq!(covered, neurons, "{:?}", scheme);
            // Owned lists are sorted, disjoint, and consistent with part_of.
            for q in 0..parts as u32 {
                let owned = part.owned(q);
                prop_assert!(owned.windows(2).all(|w| w[0] < w[1]));
                prop_assert!(owned.iter().all(|&v| part.part_of(v) == q));
            }
        }
    }

    #[test]
    fn comm_plan_volume_equals_connectivity_cost(
        neurons in 32usize..128,
        parts in 2usize..6,
        seed in 0u64..30,
    ) {
        let spec = DnnSpec { neurons, layers: 3, nnz_per_row: 4, bias: -0.2, clip: 32.0, seed };
        let dnn = generate_dnn(&spec);
        let part = partition_model(&dnn, parts, PartitionScheme::Random, seed);
        let plan = CommPlan::build(&dnn, &part);
        let h = Hypergraph::from_dnn(&dnn);
        prop_assert_eq!(
            plan.total_row_sends(),
            h.connectivity_cost(part.assignment(), parts)
        );
    }

    #[test]
    fn serial_inference_outputs_bounded(
        neurons in 32usize..128,
        batch in 1usize..24,
        seed in 0u64..40,
    ) {
        let spec = DnnSpec { neurons, layers: 4, nnz_per_row: 6, bias: -0.25, clip: 32.0, seed };
        let dnn = generate_dnn(&spec);
        let inputs = generate_inputs(neurons, &InputSpec::scaled(batch, seed));
        let out = dnn.serial_inference(&inputs);
        for (_, _, vals) in out.iter() {
            prop_assert!(vals.iter().all(|&v| v > 0.0 && v <= spec.clip));
        }
    }
}

// Distributed == serial equality over random configurations. Engine runs
// spawn real threads, so keep the case count small and the models tiny.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn distributed_equals_serial_for_arbitrary_configs(
        neurons in 48usize..96,
        parts in 2u32..5,
        seed in 0u64..1000,
        variant_idx in 0usize..4,
    ) {
        use fsd_inference::core::{InferenceRequest, ServiceBuilder, Variant};
        use std::sync::Arc;
        let spec = DnnSpec { neurons, layers: 3, nnz_per_row: 6, bias: -0.25, clip: 32.0, seed };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(neurons, &InputSpec::scaled(12, seed));
        let expected = dnn.serial_inference(&inputs);
        let service = ServiceBuilder::new(dnn).deterministic(seed).build();
        let variant =
            [Variant::Queue, Variant::Object, Variant::Hybrid, Variant::Direct][variant_idx];
        let report = service
            .submit(&InferenceRequest { variant, workers: parts, memory_mb: 1536, inputs })
            .expect("run succeeds");
        prop_assert_eq!(report.first_output(), &expected);
    }
}

/// Runs `body` inside one simulated worker invocation (channel-level
/// property tests below).
fn with_worker_ctx<T: Send + 'static>(
    env: std::sync::Arc<fsd_inference::comm::CloudEnv>,
    body: impl FnOnce(&mut fsd_inference::faas::WorkerCtx) -> Result<T, fsd_inference::faas::FaasError>
        + Send
        + 'static,
) -> T {
    use fsd_inference::comm::VirtualTime;
    use fsd_inference::faas::{ComputeModel, FaasPlatform, FunctionConfig};
    let platform = FaasPlatform::new(env, ComputeModel::default());
    platform
        .invoke(FunctionConfig::worker("t", 2048), VirtualTime::ZERO, body)
        .join()
        .expect("test body ok")
        .0
}

// Hybrid spill boundaries: a payload exactly at the threshold, one byte
// under it, and far above it must all deliver rows bit-identical to the
// pure-queue path — the spill decision may move bytes between planes but
// never change what arrives — and a spilled flow's teardown must leave
// zero residual objects, queues or subscriptions.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn hybrid_spill_boundaries_match_pure_queue(
        block in sparse_rows_strategy(24, 16),
        seed in 1u64..500,
    ) {
        use fsd_inference::comm::{bucket_name, CloudConfig, CloudEnv};
        prop_assume!(!block.is_empty());
        let wire = codec::encoded_size(&block);
        // spill iff serialized size > threshold: at and one-under stay
        // inline, far-above (and zero) thresholds spill.
        for (threshold, spills) in [(wire, false), (wire + 1, false), (wire / 8, true), (0, true)] {
            let env = CloudEnv::new(CloudConfig::deterministic(seed));
            let opts = ChannelOptions { spill_threshold: threshold, ..ChannelOptions::default() };
            let queue = Transport::of(Variant::Queue).expect("queue").provision(&env, 2, opts, 1);
            let hybrid = Transport::of(Variant::Hybrid).expect("hybrid").provision(&env, 2, opts, 2);
            let (q2, h2) = (queue.clone(), hybrid.clone());
            let (block_q, block_h) = (block.clone(), block.clone());
            with_worker_ctx(env.clone(), move |ctx| {
                q2.send_layer(ctx, Tag::Layer(0), 0, &[(1, block_q)])?;
                h2.send_layer(ctx, Tag::Layer(0), 0, &[(1, block_h)])
            });
            prop_assert_eq!(
                hybrid.stats().snapshot().s3_puts > 0,
                spills,
                "threshold {} vs wire {}: wrong spill decision",
                threshold,
                wire
            );
            let (q3, h3) = (queue.clone(), hybrid.clone());
            let (got_q, got_h) = with_worker_ctx(env.clone(), move |ctx| {
                let mut tq = RecvTracker::expecting([0u32]);
                let gq = q3.receive_all(ctx, Tag::Layer(0), 1, &mut tq)?;
                let mut th = RecvTracker::expecting([0u32]);
                let gh = h3.receive_all(ctx, Tag::Layer(0), 1, &mut th)?;
                Ok((gq, gh))
            });
            let merge = |blocks: Vec<(u32, SparseRows)>| {
                let mut m = SparseRows::new(block.width());
                for (_, b) in blocks {
                    m.merge(&b);
                }
                m
            };
            let (merged_q, merged_h) = (merge(got_q), merge(got_h));
            prop_assert_eq!(&merged_h, &merged_q, "hybrid diverged from queue");
            prop_assert_eq!(&merged_h, &block, "delivery lost rows");
            // Flow-namespaced cleanup holds for spilled flows too.
            queue.teardown();
            hybrid.teardown();
            prop_assert_eq!(env.queue_count(), 0);
            for t in 0..env.pubsub().n_topics() {
                prop_assert_eq!(env.pubsub().subscription_count(t), 0);
            }
            for i in 0..fsd_inference::comm::N_BUCKETS {
                prop_assert_eq!(env.object_store().object_count(&bucket_name(i)), 0);
            }
        }
    }
}

// Predictor invariants: decisions are a deterministic pure function of
// the arrival history, warm targets never exceed the budget, and
// quiescent shapes converge to eviction. Pure state-machine properties —
// no engine threads — so the case count can stay high.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn predictor_decisions_are_deterministic_and_budgeted(
        arrivals in proptest::collection::vec((0usize..5, 1u32..4), 1..64),
        window in 1usize..24,
        burst_threshold in 1usize..5,
        max_warm in 0usize..10,
        quiet_after in 1u64..64,
    ) {
        use fsd_inference::core::{TreeKey, Variant};
        use fsd_inference::sched::{Predictor, PredictorConfig, PrewarmDecision};

        // Shape alphabet: index 0 is Serial (no tree), the rest map to
        // channel-variant shapes.
        let shape_of = |i: usize, p: u32| -> Option<TreeKey> {
            match i {
                0 => None,
                1 | 2 => Some(TreeKey { variant: Variant::Queue, workers: p, memory_mb: 1769 }),
                _ => Some(TreeKey { variant: Variant::Object, workers: p, memory_mb: 1769 }),
            }
        };
        let cfg = PredictorConfig::default()
            .window(window)
            .burst_threshold(burst_threshold)
            .max_warm(max_warm)
            .quiet_after(quiet_after);

        let mut a = Predictor::new(cfg);
        let mut b = Predictor::new(cfg);
        for &(i, p) in &arrivals {
            let shape = shape_of(i, p);
            let da = a.observe(shape);
            let db = b.observe(shape);
            // Determinism: identical histories yield identical decisions.
            prop_assert_eq!(&da, &db);
            // Budget: summed warm targets never exceed max_warm.
            let total: usize = da.iter().map(|d| match d {
                PrewarmDecision::Warm { target, .. } => *target,
                PrewarmDecision::Evict { .. } => 0,
            }).sum();
            prop_assert!(total <= max_warm,
                "targets {} exceed budget {}: {:?}", total, max_warm, da);
            // No shape is simultaneously warmed and evicted.
            for d in &da {
                if let PrewarmDecision::Evict { shape } = d {
                    prop_assert!(!da.iter().any(|o| matches!(
                        o, PrewarmDecision::Warm { shape: w, .. } if w == shape)));
                }
            }
        }
        // decisions() is pure: calling it twice changes nothing.
        prop_assert_eq!(a.decisions(), a.decisions());
    }

    #[test]
    fn predictor_quiescent_traffic_converges_to_zero_prewarms(
        arrivals in proptest::collection::vec(1usize..4, 1..24),
        quiet_after in 1u64..32,
    ) {
        use fsd_inference::core::{TreeKey, Variant};
        use fsd_inference::sched::{Predictor, PredictorConfig, PrewarmDecision};

        let shape_of = |i: usize| TreeKey {
            variant: if i.is_multiple_of(2) { Variant::Queue } else { Variant::Object },
            workers: 1 + (i % 3) as u32,
            memory_mb: 1769,
        };
        let cfg = PredictorConfig::default().quiet_after(quiet_after);
        let mut p = Predictor::new(cfg);
        let mut seen = std::collections::BTreeSet::new();
        for &i in &arrivals {
            let s = shape_of(i);
            seen.insert(s);
            p.observe(Some(s));
        }
        // Traffic stops: only no-tree arrivals past the horizon.
        let mut last = Vec::new();
        for _ in 0..(quiet_after + cfg.window as u64) {
            last = p.observe(None);
        }
        prop_assert!(
            !last.iter().any(|d| matches!(d, PrewarmDecision::Warm { .. })),
            "quiescent traffic must emit no warm targets: {:?}", last
        );
        // Every shape ever seen has a standing eviction.
        for s in &seen {
            prop_assert!(
                last.contains(&PrewarmDecision::Evict { shape: *s }),
                "missing eviction for {:?}: {:?}", s, last
            );
        }
    }
}

// Chaos determinism and payload conservation: a run under a seeded fault
// plan is a pure function of (plan seed, workload) — replaying the same
// service three times yields bit-identical latencies, billing windows,
// failed-attempt bills and injection counts — and injected transient
// faults never corrupt payloads: every request that survives its retries
// returns exactly the serial oracle's outputs, and teardown leaves zero
// residue either way. Real engine threads per case, so the count is small.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn chaos_replays_are_bit_identical_and_conserve_payloads(
        fault_seed in 0u64..1000,
        model_seed in 0u64..100,
        variant_idx in 0usize..4,
        parts in 2u32..4,
    ) {
        use fsd_inference::comm::{CloudConfig, FaultPlan};
        use fsd_inference::core::{InferenceRequest, ServiceBuilder, Variant};
        use std::sync::Arc;

        let spec = DnnSpec {
            neurons: 64, layers: 2, nnz_per_row: 6, bias: -0.25, clip: 32.0, seed: model_seed,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(8, model_seed));
        let expected = dnn.serial_inference(&inputs);
        let variant =
            [Variant::Queue, Variant::Object, Variant::Hybrid, Variant::Direct][variant_idx];

        let replay = || -> Result<_, String> {
            let cloud = CloudConfig::deterministic(model_seed)
                .with_faults(FaultPlan::uniform_transient(fault_seed, 0.05));
            let service = ServiceBuilder::new(dnn.clone())
                .cloud(cloud)
                .seed(model_seed)
                .build();
            let mut outcomes = Vec::new();
            for _ in 0..3 {
                let res = service.submit(&InferenceRequest {
                    variant,
                    workers: parts,
                    memory_mb: 1769,
                    inputs: inputs.clone(),
                });
                outcomes.push(match res {
                    Ok(report) => {
                        // Conservation: faults may delay or re-send, but
                        // what arrives is exactly the oracle's answer.
                        if report.first_output() != &expected {
                            return Err("surviving run corrupted payload".into());
                        }
                        Ok((report.latency, report.comm, report.lambda))
                    }
                    Err(e) => Err(e.to_string()),
                });
            }
            // Fault or not, every flow released its namespaced state.
            service.env().assert_no_residue();
            Ok((
                outcomes,
                service.env().meter().snapshot(),
                service.failed_attempt_bill(),
                service.env().faults().stats(),
            ))
        };

        let a = replay()?;
        let b = replay()?;
        let c = replay()?;
        prop_assert_eq!(&a, &b, "replay 2 diverged from replay 1");
        prop_assert_eq!(&b, &c, "replay 3 diverged from replay 2");
    }
}

// Scheduler invariants over arbitrary configurations and request mixes.
// Each case drives a real scheduler (auto dispatch, real worker threads),
// so the case count stays small and the models tiny.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn scheduler_invariants_hold_for_arbitrary_configs(
        global_cap in 1usize..4,
        queue_capacity in 1usize..5,
        w_interactive in 1u32..4,
        w_batch in 1u32..4,
        n_requests in 6usize..16,
        seed in 0u64..500,
    ) {
        use fsd_inference::core::{BatchedRequest, FsdError, ServiceBuilder, Variant};
        use fsd_inference::sched::{Priority, Scheduler, SchedulerConfig};
        use std::sync::Arc;

        let spec = DnnSpec { neurons: 56, layers: 2, nnz_per_row: 6, bias: -0.25, clip: 32.0, seed };
        let dnn = Arc::new(generate_dnn(&spec));
        let service = Arc::new(
            ServiceBuilder::new(dnn)
                .deterministic(seed)
                .prewarm(1)
                .prewarm(2)
                .build(),
        );
        let cfg = SchedulerConfig::default()
            .global_cap(global_cap)
            .queue_capacity(queue_capacity)
            .weights(w_interactive, w_batch);
        let sched = Scheduler::wrap(service.clone(), cfg);

        // A single-threaded enqueue flood: with tiny bounded queues some
        // arrivals are rejected with backpressure, the rest are accepted.
        let mut tickets = Vec::new();
        let mut rejections = 0u64;
        for i in 0..n_requests {
            let priority = if i % 3 == 2 { Priority::Batch } else { Priority::Interactive };
            let variant = match i % 3 {
                0 => Variant::Serial,
                1 => Variant::Queue,
                _ => Variant::Object,
            };
            let req = BatchedRequest {
                variant,
                workers: 1 + (i % 2) as u32,
                memory_mb: 1769,
                batches: vec![generate_inputs(spec.neurons, &InputSpec::scaled(4 + i % 4, seed + i as u64))],
            };
            match sched.enqueue_default(priority, req) {
                Ok(t) => tickets.push(t),
                Err(FsdError::Overloaded { retry_after }) => {
                    prop_assert!(retry_after > fsd_inference::comm::VirtualTime::ZERO);
                    rejections += 1;
                }
                Err(e) => return Err(format!("unexpected enqueue error: {e}")),
            }
        }

        // No starvation: every accepted request — both classes — completes.
        let accepted = tickets.len() as u64;
        for t in tickets {
            let report = t.wait().expect("accepted request completes");
            prop_assert!(!report.outputs.is_empty());
        }
        sched.shutdown();
        sched.drain();

        let stats = sched.stats();
        // Caps are never exceeded, not even transiently (high-water marks).
        prop_assert!(stats.max_inflight <= global_cap,
            "global cap {} exceeded: {}", global_cap, stats.max_inflight);
        let model_cap = sched.model_cap("default").expect("registered");
        for &m in &stats.max_inflight_per_model {
            prop_assert!(m <= model_cap, "model cap {} exceeded: {}", model_cap, m);
        }
        // Conservation: every enqueue attempt is accounted exactly once.
        prop_assert_eq!(stats.enqueued, accepted);
        prop_assert_eq!(stats.total_admitted(), accepted);
        prop_assert_eq!(stats.total_rejected(), rejections);
        prop_assert_eq!(stats.completed, accepted);
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.queued, 0);
        prop_assert_eq!(stats.inflight, 0);

        // Rejected requests leave nothing behind: no queues, subscriptions,
        // intermediate objects or per-flow meter buckets survive the drain.
        prop_assert_eq!(service.env().queue_count(), 0, "leaked queues");
        for t in 0..service.env().pubsub().n_topics() {
            prop_assert_eq!(service.env().pubsub().subscription_count(t), 0,
                "leaked filter policies on topic {}", t);
        }
        for i in 0..fsd_inference::comm::N_BUCKETS {
            prop_assert_eq!(
                service.env().object_store().object_count(&fsd_inference::comm::bucket_name(i)),
                0, "leaked objects in bucket {}", i);
        }
        prop_assert_eq!(service.env().meter().tracked_flows(), 0, "leaked comm flows");
        prop_assert_eq!(service.platform().lambda_meter().tracked_flows(), 0, "leaked lambda flows");
    }
}
