//! Quickstart: run fully serverless distributed inference end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a sparse DNN (Graph Challenge-style), builds an [`FsdService`]
//! over a simulated cloud region, and submits a request with
//! `Variant::Auto` — the service applies the paper's §IV-C design
//! recommendations per request (model fit → Serial; per-pair payload
//! volume → Queue vs Object) and runs the variant it picked. The result is
//! checked against the single-node ground truth.

use fsd_inference::core::{FsdService, InferenceRequest, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use std::sync::Arc;

fn main() {
    // 1. A "trained model": 1024 neurons/layer, 24 sparse layers.
    let spec = DnnSpec::scaled(1024, 7);
    let dnn = Arc::new(generate_dnn(&spec));
    println!(
        "model: {} neurons x {} layers, {} weights ({:.1} MB in memory)",
        spec.neurons,
        spec.layers,
        dnn.total_nnz(),
        dnn.mem_bytes() as f64 / 1e6
    );

    // 2. An inference batch of 128 sparse samples.
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(128, 7));
    println!(
        "batch: {} samples, {} nonzero pixels",
        inputs.width(),
        inputs.nnz()
    );

    // 3. Ground truth from the single-node reference.
    let expected = dnn.serial_inference(&inputs);

    // 4. The service owns a simulated cloud region. The builder stages the
    //    P=4 partition at build time (pre-warm), so the first request pays
    //    no offline partitioning cost. `Arc<FsdService>` is the handle a
    //    real deployment would share across request-handler threads.
    let service: Arc<FsdService> =
        Arc::new(ServiceBuilder::new(dnn).deterministic(7).prewarm(4).build());

    // 5. What would the paper's §IV-C rules pick for this workload?
    let est_bytes_per_row = 64; // typical compressed activation row
    let recommendation = service.recommend(4, est_bytes_per_row);
    println!(
        "\nrecommendation for P = 4: {} (model {} MB, ~{} B/pair/layer)",
        recommendation.variant,
        recommendation.profile.model_bytes / 1_000_000,
        recommendation.profile.bytes_per_pair_layer
    );

    // 6. Submit with Variant::Auto: the service routes the request through
    //    exactly that recommendation path, per request.
    let report = service
        .submit(&InferenceRequest {
            variant: Variant::Auto,
            workers: 4,
            memory_mb: 1769,
            inputs: inputs.clone(),
        })
        .expect("inference runs");

    assert_eq!(
        report.first_output(),
        &expected,
        "result must equal ground truth"
    );
    assert_eq!(
        report.variant, recommendation.variant,
        "Auto must follow the §IV-C rules"
    );
    println!(
        "\nAuto resolved to {}, P = {}:",
        report.variant, report.workers
    );
    println!(
        "  query latency        : {:.1} ms",
        report.latency.as_millis_f64()
    );
    println!("  per-sample runtime   : {:.3} ms", report.per_sample_ms());
    println!("  lambda invocations   : {}", report.lambda.invocations);
    println!(
        "  SNS billed publishes : {}",
        report.comm.sns_publish_requests
    );
    println!("  SQS API calls        : {}", report.comm.sqs_api_calls);
    println!(
        "  cost (actual)        : ${:.6}",
        report.cost_actual.total()
    );
    println!(
        "  cost (predicted)     : ${:.6}",
        report.cost_predicted.total()
    );

    // 7. The distributed path on demand: force FSD-Inf-Queue across the
    //    pre-warmed 4-worker tree and check it agrees bit-for-bit.
    let distributed = service
        .submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 4,
            memory_mb: 1769,
            inputs,
        })
        .expect("distributed inference runs");
    assert_eq!(
        distributed.first_output(),
        &expected,
        "distributed result must equal ground truth"
    );
    println!(
        "\nforced {}, P = {}:",
        distributed.variant, distributed.workers
    );
    println!(
        "  query latency        : {:.1} ms",
        distributed.latency.as_millis_f64()
    );
    println!(
        "  SNS billed publishes : {}",
        distributed.comm.sns_publish_requests
    );
    println!(
        "  SQS API calls        : {}",
        distributed.comm.sqs_api_calls
    );
    println!(
        "  cost (actual)        : ${:.6}",
        distributed.cost_actual.total()
    );
    println!("\nboth paths match the serial ground truth bit-for-bit ✓");

    // 8. Quiescent, the service audits clean: nothing leaked and every
    //    billed call is accounted for.
    assert_eq!(service.audit(), Vec::<String>::new());
}
