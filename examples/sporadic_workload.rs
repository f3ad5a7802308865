//! Sporadic inference workloads (the paper's §VI-C motivation).
//!
//! ```text
//! cargo run --release --example sporadic_workload
//! ```
//!
//! Simulates a day of irregular queries over models of different sizes —
//! the e-commerce / trading / monitoring setting where neither an
//! always-on server nor a single-instance endpoint fits. For each query
//! the engine picks the recommended variant, runs it, and the example
//! totals the day's bill against an always-on server.

use fsd_inference::baselines::C5_12XLARGE;
use fsd_inference::core::{
    recommend_variant, FsdService, InferenceRequest, ServiceBuilder, Variant, WorkloadProfile,
};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    // Three deployed models of different sizes share the region.
    let sizes = [256usize, 1024, 2048];
    let services: Vec<FsdService> = sizes
        .iter()
        .map(|&n| {
            let dnn = Arc::new(generate_dnn(&DnnSpec::scaled(n, 1)));
            ServiceBuilder::new(dnn).deterministic(n as u64).build()
        })
        .collect();

    let queries = 12; // a sporadic trickle over the day
    let mut total_cost = 0.0;
    let mut total_latency_ms = 0.0;
    println!(
        "simulating {queries} sporadic queries across {} models…\n",
        sizes.len()
    );
    for q in 0..queries {
        let which = rng.gen_range(0..sizes.len());
        let n = sizes[which];
        let batch = *[32usize, 64, 128][rng.gen_range(0..3)..][..1]
            .first()
            .expect("non-empty");
        let inputs = generate_inputs(n, &InputSpec::scaled(batch, q as u64));
        let service = &services[which];

        // Per-query variant selection (Section IV-C recommendations).
        let profile = WorkloadProfile {
            model_bytes: service.dnn().mem_bytes() * 40, // pretend real-scale weights
            workers: 4,
            bytes_per_pair_layer: inputs.nnz() * 8 / 16,
        };
        let variant = if n == sizes[0] {
            Variant::Serial
        } else {
            recommend_variant(&profile)
        };
        let report = service
            .submit(&InferenceRequest {
                variant,
                workers: 4,
                memory_mb: 1769,
                inputs,
            })
            .expect("query runs");
        total_cost += report.cost_actual.total();
        total_latency_ms += report.latency.as_millis_f64();
        println!(
            "query {q:>2}: N={n:<5} batch={batch:<4} {:<16} latency {:>8.1} ms  cost ${:.6}",
            report.variant.to_string(),
            report.latency.as_millis_f64(),
            report.cost_actual.total()
        );
    }
    let always_on_daily = 2.0 * 24.0 * C5_12XLARGE.hourly_usd;
    println!("\nday total: ${total_cost:.4} (FSD, pay-per-query)");
    println!(
        "vs ${always_on_daily:.2}/day for 2x always-on {}",
        C5_12XLARGE.name
    );
    println!(
        "avg query latency: {:.1} ms",
        total_latency_ms / queries as f64
    );
    assert!(total_cost < always_on_daily);
    for service in &services {
        assert_eq!(service.audit(), Vec::<String>::new());
    }
}
