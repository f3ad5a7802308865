//! Concurrent serving: one `Arc<FsdService>` driven from many threads.
//!
//! The API redesign's acceptance test: request state (input keys, channel
//! queues, filter policies, object prefixes) is flow-scoped, so concurrent
//! requests — including several on the *same* channel variant, the case
//! that used to collide on shared queues and the global
//! `reset_channels()` wipe — must produce byte-identical outputs to the
//! same requests run sequentially.

use fsd_inference::core::{FsdService, InferenceRequest, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sparse::SparseRows;
use std::sync::Arc;

fn service_with_inputs(seed: u64) -> (Arc<FsdService>, Vec<SparseRows>) {
    let spec = DnnSpec {
        neurons: 80,
        layers: 4,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let batches: Vec<SparseRows> = (0..8)
        .map(|i| {
            generate_inputs(
                spec.neurons,
                &InputSpec::scaled(10 + 2 * i, seed + i as u64),
            )
        })
        .collect();
    // Pre-warm every parallelism the requests will use so concurrent first
    // requests race on nothing but the request path itself.
    let service = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(seed)
            .prewarm(1)
            .prewarm(2)
            .prewarm(3)
            .build(),
    );
    (service, batches)
}

/// The request mix: Queue/Object/Serial interleaved, several requests per
/// variant, differing worker counts.
fn request_mix(batches: &[SparseRows]) -> Vec<InferenceRequest> {
    let variants = [
        (Variant::Queue, 3u32),
        (Variant::Object, 2),
        (Variant::Serial, 1),
        (Variant::Queue, 2),
        (Variant::Object, 3),
        (Variant::Serial, 1),
        (Variant::Queue, 3),
        (Variant::Object, 2),
    ];
    variants
        .iter()
        .zip(batches)
        .map(|(&(variant, workers), inputs)| InferenceRequest {
            variant,
            workers,
            memory_mb: 1769,
            inputs: inputs.clone(),
        })
        .collect()
}

#[test]
fn concurrent_mixed_requests_match_sequential_outputs() {
    let (service, batches) = service_with_inputs(41);
    let requests = request_mix(&batches);

    // Ground truth twice over: the serial oracle, and a sequential pass
    // through the service itself.
    let oracle: Vec<SparseRows> = requests
        .iter()
        .map(|r| service.dnn().serial_inference(&r.inputs))
        .collect();
    let sequential: Vec<SparseRows> = requests
        .iter()
        .map(|r| {
            service
                .submit(r)
                .expect("sequential run")
                .first_output()
                .clone()
        })
        .collect();

    // The same eight requests, one thread each, against one shared Arc.
    let handles: Vec<_> = requests
        .iter()
        .map(|r| {
            let service = service.clone();
            let req = r.clone();
            std::thread::spawn(move || {
                service
                    .submit(&req)
                    .map(|report| (report.variant, report.first_output().clone()))
            })
        })
        .collect();
    let concurrent: Vec<(Variant, SparseRows)> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .expect("no panics")
                .expect("concurrent run succeeds")
        })
        .collect();

    for (i, ((variant, out), req)) in concurrent.iter().zip(&requests).enumerate() {
        assert_eq!(
            *variant, req.variant,
            "request {i} ran the requested variant"
        );
        assert_eq!(
            out, &sequential[i],
            "request {i}: concurrent != sequential output"
        );
        assert_eq!(out, &oracle[i], "request {i}: output != serial oracle");
    }

    // Every request's flow was torn down: no queues, no filter policies,
    // no intermediate objects left behind.
    assert_eq!(service.env().queue_count(), 0, "leaked per-request queues");
    for t in 0..service.env().pubsub().n_topics() {
        assert_eq!(
            service.env().pubsub().subscription_count(t),
            0,
            "leaked filter policies on topic {t}"
        );
    }
    for i in 0..service.env().config().n_buckets {
        assert_eq!(
            service
                .env()
                .object_store()
                .object_count(&fsd_inference::comm::bucket_name(i)),
            0,
            "leaked intermediate objects in bucket {i}"
        );
    }
    assert_eq!(service.requests_served(), 16, "8 sequential + 8 concurrent");
}

#[test]
fn same_variant_concurrency_does_not_cross_deliver() {
    // The regression the flow-scoped redesign fixes: multiple simultaneous
    // Queue requests used to overwrite each other's filter-policy
    // subscriptions (same ranks, same topics) and share the same queues.
    let (service, batches) = service_with_inputs(43);
    let expected: Vec<SparseRows> = batches
        .iter()
        .take(4)
        .map(|b| service.dnn().serial_inference(b))
        .collect();

    let handles: Vec<_> = batches
        .iter()
        .take(4)
        .map(|inputs| {
            let service = service.clone();
            let req = InferenceRequest {
                variant: Variant::Queue,
                workers: 3,
                memory_mb: 1769,
                inputs: inputs.clone(),
            };
            std::thread::spawn(move || service.submit(&req).expect("queue run"))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let report = h.join().expect("no panics");
        assert_eq!(
            report.first_output(),
            &expected[i],
            "queue request {i} got another request's data"
        );
        // Each request's client statistics are request-local: bytes shipped
        // are a deterministic function of its own workload.
        assert!(report.client.bytes_sent > 0);
    }
}

#[test]
fn concurrent_billing_windows_are_request_local_and_disjoint() {
    // Per-flow metering: `InferenceReport::comm`/`lambda` must be
    // request-local deltas, not windows over a shared global meter. Run the
    // same mix sequentially (fresh service) and concurrently (another fresh
    // service, same seed): every request's billing must be identical in
    // both, because each request only ever sees its own traffic.
    let (sequential_service, batches) = service_with_inputs(53);
    let requests = request_mix(&batches);
    let baseline: Vec<_> = requests
        .iter()
        .map(|r| {
            let report = sequential_service.submit(r).expect("sequential run");
            (report.comm, report.lambda)
        })
        .collect();

    let (service, _) = service_with_inputs(53);
    let handles: Vec<_> = requests
        .iter()
        .map(|r| {
            let service = service.clone();
            let req = r.clone();
            std::thread::spawn(move || service.submit(&req).expect("concurrent run"))
        })
        .collect();
    let concurrent: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("no panics"))
        .collect();

    let mut comm_sum = fsd_inference::comm::MeterSnapshot::default();
    let mut lambda_sum = 0u64;
    for (i, report) in concurrent.iter().enumerate() {
        assert_eq!(
            report.comm, baseline[i].0,
            "request {i}: concurrent comm window differs from sequential — \
             billing leaked across overlapping flows"
        );
        assert_eq!(
            report.lambda, baseline[i].1,
            "request {i}: concurrent lambda window differs from sequential"
        );
        comm_sum = comm_sum.plus(&report.comm);
        lambda_sum += report.lambda.invocations;
    }

    // Disjointness: the per-request windows partition the region's billing.
    // Offline staging writes are unbilled and every billed event carries a
    // flow, so the global meters must equal the sum of the request windows
    // exactly — nothing double-counted, nothing unattributed.
    assert_eq!(
        service.env().snapshot(),
        comm_sum,
        "global meter != sum of request windows: flows overlap or leak"
    );
    assert_eq!(
        service.platform().lambda_snapshot().invocations,
        lambda_sum,
        "lambda invocations not fully attributed to flows"
    );

    // Both services released every flow bucket at request teardown.
    for svc in [&sequential_service, &service] {
        assert_eq!(svc.env().meter().tracked_flows(), 0, "leaked comm flows");
        assert_eq!(
            svc.platform().lambda_meter().tracked_flows(),
            0,
            "leaked lambda flows"
        );
    }
}

#[test]
fn auto_requests_can_run_concurrently() {
    let (service, batches) = service_with_inputs(47);
    let expected: Vec<SparseRows> = batches
        .iter()
        .take(4)
        .map(|b| service.dnn().serial_inference(b))
        .collect();
    let handles: Vec<_> = batches
        .iter()
        .take(4)
        .map(|inputs| {
            let service = service.clone();
            let req = InferenceRequest {
                variant: Variant::Auto,
                workers: 3,
                memory_mb: 1769,
                inputs: inputs.clone(),
            };
            std::thread::spawn(move || service.submit(&req).expect("auto run"))
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let report = h.join().expect("no panics");
        assert_ne!(
            report.variant,
            Variant::Auto,
            "Auto must resolve to a concrete variant"
        );
        assert_eq!(
            report.first_output(),
            &expected[i],
            "auto request {i} wrong output"
        );
    }
}
