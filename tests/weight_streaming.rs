//! Multicast weight-streaming acceptance: streamed cold starts must be
//! bit-identical to independent eager loads on every transport, keep the
//! exactly-once artifact-GET invariant (rank 0 fetches each block once and
//! multicasts it), bill forwarded frames to the requesting flow, survive
//! mid-stream faults by falling back to the shared cache without
//! double-billing, and serve repeat cold starts from the cache until an
//! invalidation retires it.
//!
//! Runs under the CI channel matrix (`FSD_TEST_VARIANT`), so the stream
//! equivalence holds on queue, object, hybrid and direct transports alike.

mod common;

use common::test_variant;
use fsd_inference::comm::{ApiClass, TargetedFault};
use fsd_inference::core::{FsdService, InferenceRequest, LaunchPath, ServiceBuilder};
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

fn request(inputs: &SparseRows, workers: u32) -> InferenceRequest {
    InferenceRequest {
        variant: test_variant(),
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
    for (p, seed) in [(4u32, 61u64), (8, 62)] {
        let (eager, streamed, inputs, expected) = paired_services(seed);
        let cold_eager = eager.submit(&request(&inputs, p)).expect("eager cold run");
        let cold_streamed = streamed
            .submit(&request(&inputs, p))
            .expect("streamed cold run");

        assert_eq!(cold_eager.launch, LaunchPath::ColdStart, "P={p}");
        assert_eq!(cold_streamed.launch, LaunchPath::ColdStart, "P={p}");
        // Bit-identical on both paths, equal to the serial ground truth.
        assert_eq!(cold_eager.first_output(), &expected, "P={p}");
        assert_eq!(cold_streamed.outputs, cold_eager.outputs, "P={p}");
        // Identical kernel work: streaming changes *when* blocks decode,
        // never what is computed.
        assert_eq!(cold_streamed.work_done, cold_eager.work_done, "P={p}");
        // The cascade pays a coordinator function plus P workers; flat
        // controller-driven provisioning dispatches the P workers straight
        // from the control plane — one invocation fewer.
        assert_eq!(cold_eager.lambda.invocations, 1 + p as u64, "P={p}");
        assert_eq!(cold_streamed.lambda.invocations, p as u64, "P={p}");
        // Exactly-once fetch: the source GETs each weight object once and
        // multicasts it, so the total S3 GET count matches P workers each
        // fetching their own share independently.
        assert_eq!(
            cold_streamed.comm.s3_get_requests, cold_eager.comm.s3_get_requests,
            "P={p}: multicast must not change the artifact GET total"
        );
        // The stream actually ran — and only on the streaming service.
        assert!(cold_streamed.comm.weight_frames > 0, "P={p}");
        assert!(cold_streamed.comm.weight_bytes > 0, "P={p}");
        assert_eq!(cold_eager.comm.weight_frames, 0, "P={p}");
        // The point of the exercise: the streamed cold start is faster.
        assert!(
            cold_streamed.latency < cold_eager.latency,
            "P={p}: streamed cold {} must beat eager cold {}",
            cold_streamed.latency,
            cold_eager.latency
        );
        // No leaked per-request state on either service.
        for (label, service) in [("eager", &eager), ("streamed", &streamed)] {
            service.env().assert_no_residue();
            assert_eq!(service.env().meter().tracked_flows(), 0, "{label} P={p}");
            assert_eq!(
                service.platform().lambda_meter().tracked_flows(),
                0,
                "{label} P={p}"
            );
        }
    }
}

#[test]
fn forwarded_frames_bill_to_the_requesting_flow_and_partition_exactly() {
    let (_, streamed, inputs, expected) = paired_services(63);
    let report = streamed.submit(&request(&inputs, 4)).expect("cold run");
    assert_eq!(report.first_output(), &expected);
    // Every frame the fabric carried was billed inside this request's flow
    // window: the global meters grew by exactly the report's share and the
    // failed-attempt accumulator stayed empty.
    let global = streamed.env().meter().snapshot();
    let failed = streamed.failed_attempt_bill();
    assert!(report.comm.weight_frames > 0);
    assert_eq!(
        global.weight_frames,
        report.comm.weight_frames + failed.comm.weight_frames
    );
    assert_eq!(
        global.weight_bytes,
        report.comm.weight_bytes + failed.comm.weight_bytes
    );
    assert_eq!(failed.comm.weight_frames, 0);
    assert_eq!(streamed.env().meter().tracked_flows(), 0);
    streamed.env().assert_no_residue();
}

#[test]
fn shared_cache_serves_repeat_cold_starts_until_invalidated() {
    let seed = 64;
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(seed)
            .weight_streaming(true)
            .warm_pool(2, u64::MAX)
            .build(),
    );
    let p = 4u32;
    let req = request(&inputs, p);
    let variant = req.variant;

    // Cold miss: the stream populates the shared cache as it multicasts.
    let miss = service.submit(&req).expect("cache-miss cold run");
    assert_eq!(miss.launch, LaunchPath::ColdStart);
    let stats = service.weight_cache().stats();
    assert_eq!(stats.inserts, weight_objects(p as u64));
    assert_eq!(stats.hits, 0);
    assert!(!service.weight_cache().is_empty());

    // Evicting the parked trees (predictor decision, capacity pressure)
    // preserves the cache: the relaunch is a ColdStart that fetches
    // *nothing* from object storage for weights.
    assert_eq!(service.evict_warm_trees(variant, p, 1769), 1);
    let gets_before = service.env().meter().snapshot().s3_get_requests;
    let hit = service.submit(&req).expect("cache-hit cold run");
    assert_eq!(hit.launch, LaunchPath::ColdStart);
    let hit_gets = service.env().meter().snapshot().s3_get_requests - gets_before;
    let input_gets = miss.comm.s3_get_requests - weight_objects(p as u64);
    assert_eq!(
        hit_gets, input_gets,
        "a fully cached relaunch must issue zero weight GETs (inputs only)"
    );
    assert!(service.weight_cache().stats().hits >= weight_objects(p as u64));
    assert_eq!(hit.outputs, miss.outputs);
    assert_eq!(hit.first_output(), &expected);
    // At this model size the fetches hide entirely inside the boot
    // stagger, so the cache cannot *lengthen* the critical path; the GET
    // accounting above is the load-bearing proof that it was used. The
    // latency win is asserted at realistic scale by the cold_start bench.
    assert!(
        hit.latency <= miss.latency,
        "cached cold start {} must not exceed the populating one {}",
        hit.latency,
        miss.latency
    );

    // Invalidation (model re-staged) retires the generation and sweeps the
    // blocks: the next request is a true miss again.
    service.invalidate_warm_trees();
    assert_eq!(service.weight_cache().len(), 0);
    let after = service.submit(&req).expect("post-invalidate cold run");
    assert_eq!(after.launch, LaunchPath::ColdStart);
    assert_eq!(after.outputs, miss.outputs);
    let stats = service.weight_cache().stats();
    assert_eq!(
        stats.inserts,
        2 * weight_objects(p as u64),
        "the post-invalidate run must re-populate from object storage"
    );
    service.invalidate_warm_trees();
    service.env().assert_no_residue();
    assert_eq!(service.env().meter().tracked_flows(), 0);
}

#[test]
fn mid_stream_fault_falls_back_to_cache_without_extra_fetches_or_billing() {
    let (_, clean, inputs, expected) = paired_services(65);
    let baseline = clean.submit(&request(&inputs, 4)).expect("clean run");

    let (_, faulted, inputs, _) = paired_services(65);
    // Kill the very first forwarded frame permanently: the source aborts
    // the cascade and every receiver falls back to loading through the
    // shared cache — which already holds everything the source fetched
    // before the fault, so no block is ever fetched twice.
    faulted
        .env()
        .faults()
        .inject(TargetedFault::first(ApiClass::WeightStream, "").permanent());
    let report = faulted
        .submit(&request(&inputs, 4))
        .expect("a torn stream must degrade, not fail the request");
    assert_eq!(report.launch, LaunchPath::ColdStart);
    assert_eq!(report.first_output(), &expected);
    assert_eq!(report.outputs, baseline.outputs, "fallback changes nothing");
    // Exactly-once even through the fault: blocks the source had already
    // cached are not re-fetched by the falling-back receivers, and blocks
    // it never reached are fetched by exactly one receiver each.
    assert_eq!(
        report.comm.s3_get_requests, baseline.comm.s3_get_requests,
        "the fallback must not double-fetch any artifact"
    );
    // The request succeeded, so nothing landed in the failed-attempt bill
    // and the flow windows all closed.
    let failed = faulted.failed_attempt_bill();
    assert_eq!(failed.lambda.invocations, 0);
    assert_eq!(failed.comm.weight_frames, 0);
    assert_eq!(faulted.env().meter().tracked_flows(), 0);
    assert_eq!(faulted.platform().lambda_meter().tracked_flows(), 0);
    faulted.env().assert_no_residue();
}

#[test]
fn refused_rank_launch_fails_the_request_cleanly_and_recovers() {
    let (_, streamed, inputs, expected) = paired_services(66);
    // Flat provisioning invokes every rank by name; refuse rank 2's launch
    // permanently. The abort flag must unwedge the peers' drain loops and
    // the request must fail without leaking flows or parked frames.
    streamed
        .env()
        .faults()
        .inject(TargetedFault::first(ApiClass::InstanceLaunch, "fsd-worker-2").permanent());
    let err = streamed
        .submit(&request(&inputs, 4))
        .expect_err("a refused rank must fail the streamed request");
    let msg = err.to_string();
    assert!(
        msg.contains("faulted") || msg.contains("abort") || msg.contains("instance"),
        "unexpected failure detail: {msg}"
    );
    // The failed attempt was billed (AWS semantics) into the accumulator.
    assert!(streamed.failed_attempt_bill().lambda.invocations > 0);
    assert_eq!(streamed.env().meter().tracked_flows(), 0);
    assert_eq!(streamed.platform().lambda_meter().tracked_flows(), 0);
    streamed.env().assert_no_residue();
    // The fault was one-shot: the next request streams normally.
    let recovered = streamed.submit(&request(&inputs, 4)).expect("recovers");
    assert_eq!(recovered.first_output(), &expected);
    streamed.env().assert_no_residue();
}

#[test]
fn concurrent_streamed_requests_survive_cache_invalidation_races() {
    let seed = 67;
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    let expected = dnn.serial_inference(&inputs);
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(seed)
            .weight_streaming(true)
            .warm_pool(2, u64::MAX)
            .build(),
    );
    // Two submitting threads race three invalidations: loads straddling an
    // invalidation must reject their stale inserts rather than repopulate
    // retired blocks, and every request must still be exactly right.
    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let service = service.clone();
            let inputs = inputs.clone();
            std::thread::spawn(move || {
                (0..3)
                    .map(|rep| {
                        service
                            .submit(&request(&inputs, 3))
                            .unwrap_or_else(|e| panic!("rep {rep}: {e}"))
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
        for report in handle.join().expect("no panic") {
            assert_eq!(report.first_output(), &expected);
        }
    }
    // Whatever interleaving happened, no retired block survived: a final
    // invalidate leaves the cache empty and the region residue-free.
    service.invalidate_warm_trees();
    assert_eq!(service.weight_cache().len(), 0);
    assert!(service.weight_cache().residue_report().is_empty());
    assert_eq!(service.env().meter().tracked_flows(), 0);
    service.env().assert_no_residue();
}
