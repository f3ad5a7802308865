//! Multi-batch requests (paper Fig. 1: "Batch 1 … Batch n, SYNC"): one
//! worker tree processes successive batches, with launch and weight loads
//! amortized and a barrier + reduce closing each batch.

use fsd_inference::core::{
    BatchedRequest, FsdError, FsdService, InferenceRequest, ServiceBuilder, Variant,
};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use std::sync::Arc;

fn setup(seed: u64) -> (FsdService, Vec<fsd_inference::sparse::SparseRows>) {
    let spec = DnnSpec {
        neurons: 96,
        layers: 4,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let batches: Vec<_> = (0..3)
        .map(|b| {
            generate_inputs(
                spec.neurons,
                &InputSpec::scaled(16 + 8 * b, seed + b as u64),
            )
        })
        .collect();
    (
        ServiceBuilder::new(dnn).deterministic(seed).build(),
        batches,
    )
}

#[test]
fn batched_outputs_match_per_batch_ground_truth() {
    let (service, batches) = setup(21);
    let expected: Vec<_> = batches
        .iter()
        .map(|b| service.dnn().serial_inference(b))
        .collect();
    for variant in [Variant::Queue, Variant::Object, Variant::Serial] {
        let report = service
            .submit_batched(&BatchedRequest {
                variant,
                workers: 3,
                memory_mb: 1769,
                batches: batches.clone(),
            })
            .unwrap_or_else(|e| panic!("{variant}: {e}"));
        assert_eq!(report.outputs.len(), 3, "{variant}: one output per batch");
        for (b, exp) in expected.iter().enumerate() {
            assert_eq!(&report.outputs[b], exp, "{variant}: batch {b} mismatch");
        }
        assert_eq!(report.samples, 16 + 24 + 32);
        assert_eq!(report.first_output(), &report.outputs[0]);
    }
}

#[test]
fn batching_amortizes_launch_and_weight_loads() {
    let (service, batches) = setup(22);
    // Three batches in one tree…
    let together = service
        .submit_batched(&BatchedRequest {
            variant: Variant::Queue,
            workers: 3,
            memory_mb: 1769,
            batches: batches.clone(),
        })
        .expect("batched run");
    // …vs three separate single-batch runs.
    let mut separate_invocations = 0u64;
    let mut separate_latency = 0.0;
    for b in &batches {
        let r = service
            .submit(&InferenceRequest {
                variant: Variant::Queue,
                workers: 3,
                memory_mb: 1769,
                inputs: b.clone(),
            })
            .expect("single run");
        separate_invocations += r.lambda.invocations;
        separate_latency += r.latency.as_secs_f64();
    }
    // One tree instead of three: a third of the invocations…
    assert_eq!(together.lambda.invocations * 3, separate_invocations);
    // …and less total time (launch + weight loads paid once).
    assert!(
        together.latency.as_secs_f64() < separate_latency,
        "batched {:.2}s should beat {:.2}s total for separate runs",
        together.latency.as_secs_f64(),
        separate_latency
    );
}

#[test]
fn single_batch_request_is_equivalent_to_submit() {
    let (service, batches) = setup(23);
    let single = service
        .submit(&InferenceRequest {
            variant: Variant::Object,
            workers: 2,
            memory_mb: 1769,
            inputs: batches[0].clone(),
        })
        .expect("submit");
    let batched = service
        .submit_batched(&BatchedRequest {
            variant: Variant::Object,
            workers: 2,
            memory_mb: 1769,
            batches: vec![batches[0].clone()],
        })
        .expect("submit_batched");
    assert_eq!(single.first_output(), batched.first_output());
    assert_eq!(single.outputs.len(), 1);
    assert_eq!(batched.outputs.len(), 1);
}

#[test]
fn empty_batch_list_is_a_structured_error() {
    let (service, _) = setup(24);
    let res = service.submit_batched(&BatchedRequest {
        variant: Variant::Serial,
        workers: 1,
        memory_mb: 1769,
        batches: vec![],
    });
    assert_eq!(res.unwrap_err(), FsdError::EmptyRequest);
}
