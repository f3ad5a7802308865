//! Warm worker-tree pool: take cold starts off the hot path.
//!
//! ```text
//! cargo run --release --example warm_pool
//! ```
//!
//! Every request of a pool-less service pays the full launch bill —
//! coordinator invoke + cold start, the launch tree's Invoke rounds
//! (`fsd_faas::launch::launch_span`), per-worker weight loads. With
//! `ServiceBuilder::warm_pool(max, ttl)`, the tree a request launches
//! stays parked (weights resident, instances in a serve loop) and the
//! next request of the same `(variant, P, memory)` shape is routed
//! straight into it: one control-plane hop instead of the whole launch.
//! `InferenceReport::launch` labels the path each request took.

use fsd_inference::core::{InferenceRequest, LaunchPath, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use std::sync::Arc;

fn main() {
    let spec = DnnSpec::scaled(512, 7);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(64, 7));
    let expected = dnn.serial_inference(&inputs);

    // Up to 4 trees stay warm; a tree that sits out 64 subsequent
    // distributed requests is evicted. `prewarm_tree` parks one at build
    // time, so even the very first matching request is a warm hit.
    let service = ServiceBuilder::new(dnn)
        .deterministic(7)
        .warm_pool(4, 64)
        .prewarm_tree(Variant::Queue, 4, 1769)
        .build();

    let req = InferenceRequest {
        variant: Variant::Queue,
        workers: 4,
        memory_mb: 1769,
        inputs,
    };
    println!("request           path        latency    invocations");
    println!("------------------------------------------------------");
    for i in 0..4 {
        let report = service.submit(&req).expect("request runs");
        assert_eq!(report.first_output(), &expected);
        println!(
            "#{i}                {:<10}  {:>9}  {:>11}",
            report.launch.to_string(),
            report.latency.to_string(),
            report.lambda.invocations,
        );
    }

    // Re-staging weights? Invalidate: parked trees are generation-tagged
    // and never serve requests for newer artifacts.
    let dropped = service.invalidate_warm_trees();
    let cold = service.submit(&req).expect("post-invalidate run");
    assert_eq!(cold.launch, LaunchPath::ColdStart);
    println!(
        "\ninvalidated {dropped} warm tree(s); next request was {} at {}",
        cold.launch, cold.latency
    );
    let stats = service.warm_pool_stats().expect("pool enabled");
    println!(
        "pool: {} hits / {} misses, {} created, {} idle",
        stats.hits, stats.misses, stats.created, stats.idle
    );
    assert_eq!(service.audit(), Vec::<String>::new());
}
