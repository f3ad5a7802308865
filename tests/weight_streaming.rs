//! Multicast weight-streaming acceptance: streamed cold starts must be
//! bit-identical to independent eager loads on every transport, keep the
//! exactly-once artifact-GET invariant (rank 0 fetches each block once and
//! multicasts it), bill forwarded frames to the requesting flow, survive
//! mid-stream faults by falling back to the shared cache without
//! double-billing, and serve repeat cold starts from the cache until an
//! invalidation retires it.
//!
//! Every test that does not pin one transport's footprint runs on each
//! channel transport in turn (`common::channel_variants`).

mod common;

use common::channel_variants;
use fsd_inference::comm::{ApiClass, CloudConfig, FaultPlan, TargetedFault};
use fsd_inference::core::{FsdService, InferenceRequest, LaunchPath, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_sparse::SparseRows;
use std::sync::Arc;

const LAYERS: usize = 3;

fn spec(seed: u64) -> DnnSpec {
    DnnSpec {
        neurons: 64,
        layers: LAYERS,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    }
}

/// Ground truth plus two identically seeded services: one loading weights
/// independently (the original eager path), one streaming them down the
/// launch cascade.
fn paired_services(seed: u64) -> (Arc<FsdService>, Arc<FsdService>, SparseRows, SparseRows) {
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    let eager = Arc::new(ServiceBuilder::new(dnn.clone()).deterministic(seed).build());
    let streamed = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(seed)
            .weight_streaming(true)
            .build(),
    );
    (eager, streamed, inputs, expected)
}

fn request(inputs: &SparseRows, variant: Variant, workers: u32) -> InferenceRequest {
    InferenceRequest {
        variant,
        workers,
        memory_mb: 1769,
        inputs: inputs.clone(),
    }
}

/// Weight objects a `P`-way partitioned model stages: owned/send/recv maps
/// plus one block per layer, per rank.
fn weight_objects(p: u64) -> u64 {
    p * (3 + LAYERS as u64)
}

#[test]
fn streamed_cold_start_is_bit_identical_and_faster_than_independent_loads() {
    // P=4 exercises the flat relay-free tree (branching 4); P=8 forces a
    // two-level cascade where ranks 1–4 relay frames to ranks 5–7.
    for variant in channel_variants() {
        for (p, seed) in [(4u32, 61u64), (8, 62)] {
            let what = format!("{variant} P={p}");
            let (eager, streamed, inputs, expected) = paired_services(seed);
            let req = request(&inputs, variant, p);
            let cold_eager = eager
                .submit(&req)
                .unwrap_or_else(|e| panic!("{what}: eager cold run: {e}"));
            let cold_streamed = streamed
                .submit(&req)
                .unwrap_or_else(|e| panic!("{what}: streamed cold run: {e}"));

            assert_eq!(cold_eager.launch, LaunchPath::ColdStart, "{what}");
            assert_eq!(cold_streamed.launch, LaunchPath::ColdStart, "{what}");
            // Bit-identical on both paths, equal to the serial ground truth.
            assert_eq!(cold_eager.first_output(), &expected, "{what}");
            assert_eq!(cold_streamed.outputs, cold_eager.outputs, "{what}");
            // Identical kernel work: streaming changes *when* blocks decode,
            // never what is computed.
            assert_eq!(cold_streamed.work_done, cold_eager.work_done, "{what}");
            // The cascade pays a coordinator function plus P workers; flat
            // controller-driven provisioning dispatches the P workers
            // straight from the control plane — one invocation fewer.
            assert_eq!(cold_eager.lambda.invocations, 1 + p as u64, "{what}");
            assert_eq!(cold_streamed.lambda.invocations, p as u64, "{what}");
            // Exactly-once fetch: the source GETs each weight object once
            // and multicasts it, so the total S3 GET count matches P workers
            // each fetching their own share independently.
            assert_eq!(
                cold_streamed.comm.s3_get_requests, cold_eager.comm.s3_get_requests,
                "{what}: multicast must not change the artifact GET total"
            );
            // The stream actually ran — and only on the streaming service.
            assert!(cold_streamed.comm.weight_frames > 0, "{what}");
            assert!(cold_streamed.comm.weight_bytes > 0, "{what}");
            assert_eq!(cold_eager.comm.weight_frames, 0, "{what}");
            // The point of the exercise: the streamed cold start is faster.
            assert!(
                cold_streamed.latency < cold_eager.latency,
                "{what}: streamed cold {} must beat eager cold {}",
                cold_streamed.latency,
                cold_eager.latency
            );
            // No leaked per-request state on either service.
            assert_eq!(eager.audit(), Vec::<String>::new(), "eager {what}");
            assert_eq!(streamed.audit(), Vec::<String>::new(), "streamed {what}");
        }
    }
}

#[test]
fn forwarded_frames_bill_to_the_requesting_flow_and_partition_exactly() {
    for variant in channel_variants() {
        let (_, streamed, inputs, expected) = paired_services(63);
        let report = streamed
            .submit(&request(&inputs, variant, 4))
            .unwrap_or_else(|e| panic!("{variant}: cold run: {e}"));
        assert_eq!(report.first_output(), &expected, "{variant}");
        // Every frame the fabric carried was billed inside this request's
        // flow window: the global meter is exactly the report's share.
        assert!(report.comm.weight_frames > 0, "{variant}");
        assert_eq!(streamed.env().snapshot(), report.comm, "{variant}");
        assert_eq!(streamed.audit(), Vec::<String>::new(), "{variant}");
    }
}

#[test]
fn shared_cache_serves_repeat_cold_starts_until_invalidated() {
    let seed = 64;
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    let p = 4u32;
    for variant in channel_variants() {
        let service = Arc::new(
            ServiceBuilder::new(dnn.clone())
                .deterministic(seed)
                .weight_streaming(true)
                .warm_pool(2, u64::MAX)
                .build(),
        );
        let req = request(&inputs, variant, p);

        // Cold miss: the stream populates the shared cache as it multicasts.
        let miss = service
            .submit(&req)
            .unwrap_or_else(|e| panic!("{variant}: cache-miss cold run: {e}"));
        assert_eq!(miss.launch, LaunchPath::ColdStart, "{variant}");
        let stats = service.weight_cache().stats();
        assert_eq!(stats.inserts, weight_objects(p as u64), "{variant}");
        assert_eq!(stats.hits, 0, "{variant}");
        assert!(!service.weight_cache().is_empty(), "{variant}");

        // Evicting the parked trees (predictor decision, capacity pressure)
        // preserves the cache: the relaunch is a ColdStart that fetches
        // *nothing* from object storage for weights.
        assert_eq!(service.evict_warm_trees(variant, p, 1769), 1, "{variant}");
        let gets_before = service.env().meter().snapshot().s3_get_requests;
        let hit = service
            .submit(&req)
            .unwrap_or_else(|e| panic!("{variant}: cache-hit cold run: {e}"));
        assert_eq!(hit.launch, LaunchPath::ColdStart, "{variant}");
        let hit_gets = service.env().meter().snapshot().s3_get_requests - gets_before;
        let input_gets = miss.comm.s3_get_requests - weight_objects(p as u64);
        assert_eq!(
            hit_gets, input_gets,
            "{variant}: a fully cached relaunch must issue zero weight GETs (inputs only)"
        );
        assert!(
            service.weight_cache().stats().hits >= weight_objects(p as u64),
            "{variant}"
        );
        assert_eq!(hit.outputs, miss.outputs, "{variant}");
        assert_eq!(hit.first_output(), &expected, "{variant}");
        // Every rank boots at the same instant, so a miss may wait on the
        // source's GETs that a hit skips, but the cache can never
        // *lengthen* the critical path; the GET accounting above is the
        // load-bearing proof that it was used. The latency win is asserted
        // at realistic scale by the cold_start bench.
        assert!(
            hit.latency <= miss.latency,
            "{variant}: cached cold start {} must not exceed the populating one {}",
            hit.latency,
            miss.latency
        );

        // Invalidation (model re-staged) retires the generation and sweeps
        // the blocks: the next request is a true miss again.
        service.invalidate_warm_trees();
        assert_eq!(service.weight_cache().len(), 0, "{variant}");
        let after = service
            .submit(&req)
            .unwrap_or_else(|e| panic!("{variant}: post-invalidate cold run: {e}"));
        assert_eq!(after.launch, LaunchPath::ColdStart, "{variant}");
        assert_eq!(after.outputs, miss.outputs, "{variant}");
        let stats = service.weight_cache().stats();
        assert_eq!(
            stats.inserts,
            2 * weight_objects(p as u64),
            "{variant}: the post-invalidate run must re-populate from object storage"
        );
        service.invalidate_warm_trees();
        assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
    }
}

#[test]
fn mid_stream_fault_falls_back_to_cache_without_extra_fetches_or_billing() {
    common::watchdog(|| {
        for variant in channel_variants() {
            let (_, clean, inputs, expected) = paired_services(65);
            let req = request(&inputs, variant, 4);
            let baseline = clean
                .submit(&req)
                .unwrap_or_else(|e| panic!("{variant}: clean run: {e}"));

            let (_, faulted, ..) = paired_services(65);
            // Kill the very first forwarded frame permanently: the source
            // aborts the cascade and every receiver falls back to loading
            // through the shared cache — which already holds everything the
            // source fetched before the fault, so no block is ever fetched
            // twice.
            faulted
                .env()
                .faults()
                .inject(TargetedFault::first(ApiClass::WeightStream, "").permanent());
            let report = faulted.submit(&req).unwrap_or_else(|e| {
                panic!("{variant}: a torn stream must degrade, not fail the request: {e}")
            });
            assert_eq!(report.launch, LaunchPath::ColdStart, "{variant}");
            assert_eq!(report.first_output(), &expected, "{variant}");
            assert_eq!(
                report.outputs, baseline.outputs,
                "{variant}: fallback changes nothing"
            );
            // Exactly-once even through the fault: blocks the source had
            // already cached are not re-fetched by the falling-back
            // receivers, and blocks it never reached are fetched by exactly
            // one receiver each.
            assert_eq!(
                report.comm.s3_get_requests, baseline.comm.s3_get_requests,
                "{variant}: the fallback must not double-fetch any artifact"
            );
            // The request succeeded, so nothing landed in the failed-attempt
            // bill and the flow windows all closed.
            assert_eq!(
                faulted.failed_attempt_bill(),
                Default::default(),
                "{variant}"
            );
            assert_eq!(clean.audit(), Vec::<String>::new(), "{variant}");
            assert_eq!(faulted.audit(), Vec::<String>::new(), "{variant}");
        }
    });
}

#[test]
fn refused_rank_launch_fails_the_request_cleanly_and_recovers() {
    common::watchdog(|| {
        for variant in channel_variants() {
            let (_, streamed, inputs, expected) = paired_services(66);
            let req = request(&inputs, variant, 4);
            // Flat provisioning invokes every rank by name; refuse rank 2's
            // launch permanently. The abort flag must unwedge the peers'
            // drain loops and the request must fail without leaking flows
            // or parked frames.
            streamed
                .env()
                .faults()
                .inject(TargetedFault::first(ApiClass::InstanceLaunch, "fsd-worker-2").permanent());
            let Err(err) = streamed.submit(&req) else {
                panic!("{variant}: a refused rank must fail the streamed request");
            };
            let msg = err.to_string();
            assert!(
                msg.contains("faulted") || msg.contains("abort") || msg.contains("instance"),
                "{variant}: unexpected failure detail: {msg}"
            );
            // The failed attempt was billed (AWS semantics) into the
            // accumulator.
            assert!(
                streamed.failed_attempt_bill().lambda.invocations > 0,
                "{variant}"
            );
            assert_eq!(streamed.audit(), Vec::<String>::new(), "{variant}");
            // The fault was one-shot: the next request streams normally.
            let recovered = streamed
                .submit(&req)
                .unwrap_or_else(|e| panic!("{variant}: recovers: {e}"));
            assert_eq!(recovered.first_output(), &expected, "{variant}");
            assert_eq!(streamed.audit(), Vec::<String>::new(), "{variant}");
        }
    });
}

#[test]
fn concurrent_streamed_requests_survive_cache_invalidation_races() {
    let seed = 67;
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    for variant in channel_variants() {
        let service = Arc::new(
            ServiceBuilder::new(dnn.clone())
                .deterministic(seed)
                .weight_streaming(true)
                .warm_pool(2, u64::MAX)
                .build(),
        );
        // Two submitting threads race three invalidations: loads straddling
        // an invalidation must reject their stale inserts rather than
        // repopulate retired blocks, and every request must still be
        // exactly right.
        let submitters: Vec<_> = (0..2)
            .map(|_| {
                let service = service.clone();
                let req = request(&inputs, variant, 3);
                std::thread::spawn(move || {
                    (0..3)
                        .map(|rep| {
                            service
                                .submit(&req)
                                .unwrap_or_else(|e| panic!("{variant} rep {rep}: {e}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for _ in 0..3 {
            service.invalidate_warm_trees();
            std::thread::yield_now();
        }
        for handle in submitters {
            let reports = handle
                .join()
                .unwrap_or_else(|_| panic!("{variant}: a submitter panicked"));
            for report in reports {
                assert_eq!(report.first_output(), &expected, "{variant}");
            }
        }
        // Whatever interleaving happened, no retired block survived: a
        // final invalidate leaves the cache empty and the region
        // residue-free.
        service.invalidate_warm_trees();
        assert_eq!(service.weight_cache().len(), 0, "{variant}");
        assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
    }
}

/// One streamed P = 8 Queue cold start (branching 4: rank 1 relays for
/// ranks 5–7) rendered as the numbers the refactor lock pins.
fn streamed_footprint(report: &fsd_inference::core::InferenceReport) -> String {
    let c = &report.comm;
    let ranks: Vec<String> = report
        .per_worker
        .iter()
        .map(|w| format!("{}:{}", w.finished.as_micros(), w.peak_mem_bytes))
        .collect();
    format!(
        "latency_us={} frames={} bytes={} gets={} ranks=[{}]",
        report.latency.as_micros(),
        c.weight_frames,
        c.weight_bytes,
        c.s3_get_requests,
        ranks.join(" ")
    )
}

#[test]
fn streamed_relay_footprint_is_pinned_for_cold_and_warm_caches() {
    let seed = 68;
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    let service = ServiceBuilder::new(dnn)
        .deterministic(seed)
        .weight_streaming(true)
        .build();
    let req = request(&inputs, Variant::Queue, 8);
    // No pool: the second request cold-starts again, but every weight
    // block is already in the shared cache.
    for (cache, pinned) in PINNED_RELAY_FOOTPRINTS {
        let report = service
            .submit(&req)
            .unwrap_or_else(|e| panic!("{cache}: {e}"));
        assert_eq!(report.launch, LaunchPath::ColdStart, "{cache}");
        assert_eq!(report.first_output(), &expected, "{cache}");
        assert_eq!(streamed_footprint(&report), pinned, "{cache}");
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

/// Taken at `5d0ea8e` (three runs, identical), before the multicast
/// source and the receivers shared one relay loop. Re-taken when batches
/// stopped ending in a barrier: `frames`, `bytes`, `gets` and every rank's
/// peak kept their values; only the finish times moved. Re-taken, with
/// the same result, when a queue receive's deletes moved behind the
/// worker. Re-taken when the control plane started issuing every Invoke of
/// the flat launch at once: all eight ranks now start together, so the
/// finish times fell and the source's cold-cache GETs reach the critical
/// path (the warm-cache row finishes 42 900 µs sooner); `frames`, `bytes`,
/// `gets` and every peak kept their values. Re-taken when the channel
/// reduce left the request: rank 0 no longer waits for the other ranks'
/// final blocks, so its finish fell to the others' (cold cache 597 079 →
/// 534 057 µs, warm cache 554 179 → 499 150 µs) and ranks 1–7 finish
/// sooner too; `frames`, `bytes`, `gets` and every peak kept their values.
const PINNED_RELAY_FOOTPRINTS: [(&str, &str); 2] = [
    (
        "cold cache",
        "latency_us=534057 frames=67 bytes=11658 gets=56 ranks=[534052:5016 534051:4748 534051:4968 534051:4840 534052:4936 534057:4740 534054:4984 534055:5060]",
    ),
    (
        "warm cache",
        "latency_us=499150 frames=67 bytes=11658 gets=8 ranks=[499149:5016 499149:4748 499148:4968 491149:4840 499150:4936 497053:4740 497054:4984 497056:5060]",
    ),
];

#[test]
fn interior_relay_fault_falls_back_below_it_with_gets_exactly_once() {
    common::watchdog(|| {
        let seed = 69;
        let spec = spec(seed);
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
        let expected = dnn.serial_inference(&inputs);
        let build = |faults: Option<FaultPlan>| {
            let mut cloud = CloudConfig::deterministic(seed);
            cloud.faults = faults;
            ServiceBuilder::new(dnn.clone())
                .deterministic(seed)
                .cloud(cloud)
                .weight_streaming(true)
                .build()
        };
        for variant in channel_variants() {
            let req = request(&inputs, variant, 8);
            let clean_service = build(None);
            let clean = clean_service
                .submit(&req)
                .unwrap_or_else(|e| panic!("{variant}: clean run: {e}"));
            // P = 8, branching 4: rank 0 sends to ranks 1–4, rank 1
            // forwards to ranks 5–7. Under this plan the one injected fault
            // is rank 1's first forward (`w5/owned` to hop 5) on every
            // transport: rank 1 stops relaying and, when its own stream
            // ends, aborts ranks 5–7. By then the source has cached every
            // block, so their fallback loads GET nothing.
            let faulted = build(Some(
                FaultPlan::new(RELAY_FAULT_SEED)
                    .with_transient(ApiClass::WeightStream, RELAY_FAULT_RATE),
            ));
            let report = faulted.submit(&req).unwrap_or_else(|e| {
                panic!("{variant}: a torn relay must degrade, not fail the request: {e}")
            });
            assert_eq!(
                faulted.env().faults().stats().injected[ApiClass::WeightStream.index()],
                1,
                "{variant}"
            );
            assert_eq!(report.first_output(), &expected, "{variant}");
            assert_eq!(report.outputs, clean.outputs, "{variant}");
            assert_eq!(
                report.comm.s3_get_requests, clean.comm.s3_get_requests,
                "{variant}: the fallback must not double-fetch any artifact"
            );
            assert!(
                report.comm.weight_frames < clean.comm.weight_frames,
                "{variant}"
            );
            assert_eq!(clean_service.audit(), Vec::<String>::new(), "{variant}");
            assert_eq!(faulted.audit(), Vec::<String>::new(), "{variant}");
        }
    });
}

const RELAY_FAULT_SEED: u64 = 4;
const RELAY_FAULT_RATE: f64 = 0.03;

#[test]
fn twin_streamed_prewarms_on_the_unattributed_flow_both_serve() {
    common::watchdog(|| {
        let seed = 1;
        let spec = spec(seed);
        let dnn = Arc::new(generate_dnn(&spec));
        let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
        let expected = dnn.serial_inference(&inputs);
        // Both pre-warms launch on flow 0 and stream at once: each tree
        // must read, and close, only its own hops' mailboxes.
        let service = ServiceBuilder::new(dnn)
            .deterministic(seed)
            .weight_streaming(true)
            .warm_pool(4, u64::MAX)
            .prewarm_tree(Variant::Queue, 8, 1769)
            .prewarm_tree(Variant::Queue, 8, 1769)
            .build();
        let req = request(&inputs, Variant::Queue, 8);
        // Whether one tree's receiver could drop its twin's frames depends
        // on how their threads interleave, so the pair is relaunched and
        // raced many times.
        for round in 0..ROUNDS {
            if round > 0 {
                service.invalidate_warm_trees();
                for _ in 0..2 {
                    service
                        .prewarm_tree(Variant::Queue, 8, 1769)
                        .expect("pre-warm");
                }
            }
            // Two requests at once check out both trees.
            std::thread::scope(|s| {
                let served = [(); 2].map(|()| s.spawn(|| service.submit(&req)));
                for handle in served {
                    let report = handle
                        .join()
                        .expect("no panic")
                        .expect("a warm tree serves");
                    assert_eq!(report.launch, LaunchPath::WarmHit);
                    assert_eq!(report.first_output(), &expected);
                }
            });
            // Parked, the twins hold no frame and no in-service mark.
            assert_eq!(service.audit(), Vec::<String>::new(), "round {round}");
        }
        service.invalidate_warm_trees();
        assert_eq!(service.audit(), Vec::<String>::new());
    });
}

const ROUNDS: usize = 100;
