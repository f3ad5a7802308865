//! Multi-batch requests (paper Fig. 1: "Batch 1 … Batch n, SYNC"): one
//! worker tree processes successive batches, with launch and weight loads
//! amortized. Neither a SYNC barrier nor a reduce closes a batch: a rank
//! keeps its own final rows for its result and goes straight on to the
//! next batch, so only the per-(batch, layer) tags keep two batches'
//! frames apart, and the tree merges the ranks' rows once all reported.

use fsd_inference::core::{
    BatchedRequest, EngineConfig, FsdError, FsdService, InferenceRequest, ServiceBuilder, Variant,
};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::partition::CommPlan;
use fsd_inference::sparse::SparseRows;
use std::sync::Arc;

mod common;

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
    for variant in common::channel_variants().chain([Variant::Serial]) {
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
        assert_eq!(report.samples, 16 + 24 + 32, "{variant}");
        assert_eq!(report.first_output(), &report.outputs[0], "{variant}");
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

/// Ranks of a chain launch start one cold start apart, and no barrier
/// holds a rank at the end of a batch, so the ranks move through the
/// batches out of step. Every batch must still equal its own ground
/// truth: a frame of batch b + 1 is never read as one of batch b, and
/// none is left behind.
#[test]
fn ranks_running_batches_apart_never_cross_them() {
    common::watchdog(|| {
        let spec = DnnSpec {
            neurons: 96,
            layers: 2,
            nnz_per_row: 8,
            bias: -0.25,
            clip: 32.0,
            seed: 26,
        };
        let dnn = Arc::new(generate_dnn(&spec));
        let batches: Vec<_> = (0..5)
            .map(|b| generate_inputs(spec.neurons, &InputSpec::scaled(8 + 4 * b, 26 + b as u64)))
            .collect();
        let expected: Vec<_> = batches.iter().map(|b| dnn.serial_inference(b)).collect();
        let service = ServiceBuilder::new(dnn)
            .config(EngineConfig {
                branching: Some(1), // a chain: the widest start-time skew
                ..EngineConfig::default()
            })
            .deterministic(26)
            .build();
        for variant in common::channel_variants() {
            let report = service
                .submit_batched(&BatchedRequest {
                    variant,
                    workers: 8,
                    memory_mb: 1769,
                    batches: batches.clone(),
                })
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
            assert_eq!(report.outputs.len(), expected.len(), "{variant}");
            for (b, (got, exp)) in report.outputs.iter().zip(&expected).enumerate() {
                assert_eq!(got, exp, "{variant}: batch {b} mismatch");
            }
            assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
        }
    });
}

/// A batch ends with its last layer: every rank hands its own `x^L` rows
/// back with its result and the tree merges them. Over every transport at
/// P ∈ {2, 3, 8}, a two-batch request of unequal widths must equal the
/// serial oracle per batch, and its meters must carry exactly the layer
/// frames its `CommPlan` implies — one per (source, target) pair, layer
/// and batch — and nothing after the last layer. The second batch is so
/// sparse that some ranks' final blocks are empty while others are not,
/// so the merge sees empty and full parts of one width.
#[test]
fn a_batch_ends_with_its_last_layer_and_each_rank_returns_its_own_rows() {
    let spec = DnnSpec {
        neurons: 96,
        layers: 3,
        nnz_per_row: 6,
        bias: -0.3,
        clip: 32.0,
        seed: 27,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let sparse = InputSpec {
        batch: 3,
        active_region: 0.1,
        density: 0.1,
        seed: 28,
    };
    let batches = vec![
        generate_inputs(spec.neurons, &InputSpec::scaled(20, 27)),
        generate_inputs(spec.neurons, &sparse),
    ];
    assert_ne!(batches[0].width(), batches[1].width());
    let expected: Vec<SparseRows> = batches.iter().map(|b| dnn.serial_inference(b)).collect();
    let service = ServiceBuilder::new(dnn.clone()).deterministic(27).build();
    let mut saw_empty_part = false;
    for p in [2u32, 3, 8] {
        let partition = service.partition(p);
        let plan = CommPlan::build(&dnn, &partition);
        let frames = batches.len() as u64 * plan.total_pairs();
        // A rank none of whose owned rows is in the sparse batch's output
        // returned an empty block for it.
        let empty = (0..p)
            .filter(|&r| {
                let owned = partition.owned(r);
                owned.iter().all(|&id| expected[1].row_by_id(id).is_none())
            })
            .count();
        saw_empty_part |= 0 < empty && empty < p as usize;
        for variant in common::channel_variants() {
            let report = service
                .submit_batched(&BatchedRequest {
                    variant,
                    workers: p,
                    memory_mb: 1769,
                    batches: batches.clone(),
                })
                .unwrap_or_else(|e| panic!("{variant} P={p}: {e}"));
            assert_eq!(report.outputs, expected, "{variant} P={p}");
            let c = &report.comm;
            assert_eq!(
                c.sqs_messages + c.s3_put_requests + c.direct_messages,
                frames,
                "{variant} P={p}: one frame per plan pair, layer and batch"
            );
            if variant == Variant::Object {
                assert_eq!(c.s3_put_requests, frames, "P={p}");
            }
        }
    }
    assert!(
        saw_empty_part,
        "some rank's last-layer block is empty while another's is not"
    );
    assert_eq!(service.audit(), Vec::<String>::new());
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
    assert_eq!(service.audit(), Vec::<String>::new());
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
    assert_eq!(service.audit(), Vec::<String>::new());
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
    assert_eq!(service.audit(), Vec::<String>::new());
}

/// The scheduler runs every admitted pass, a singleton included, through
/// `submit_coalesced`: on a one-member slice it must be `submit_batched`,
/// number for number, on every channel transport.
#[test]
fn one_member_coalesced_pass_equals_submit_batched() {
    for variant in common::channel_variants() {
        let (alone, batches) = setup(25);
        let (coalesced, _) = setup(25);
        let req = BatchedRequest {
            variant,
            workers: 3,
            memory_mb: 1769,
            batches,
        };
        let single = alone
            .submit_batched(&req)
            .unwrap_or_else(|e| panic!("{variant}: submit_batched: {e}"));
        let mut members = coalesced.submit_coalesced(std::slice::from_ref(&req));
        assert_eq!(members.len(), 1, "{variant}: one result per member");
        let member = members
            .pop()
            .expect("one member")
            .unwrap_or_else(|e| panic!("{variant}: submit_coalesced: {e}"));
        assert_eq!(member.outputs, single.outputs, "{variant}");
        assert_eq!(member.latency, single.latency, "{variant}");
        assert_eq!(member.comm, single.comm, "{variant}");
        assert_eq!(member.lambda, single.lambda, "{variant}");
        assert_eq!(member.work_done, single.work_done, "{variant}");
        assert_eq!(member.launch, single.launch, "{variant}");

        let empty = BatchedRequest {
            batches: vec![],
            ..req
        };
        assert_eq!(
            alone.submit_batched(&empty).unwrap_err(),
            FsdError::EmptyRequest,
            "{variant}"
        );
        let errors: Vec<_> = coalesced
            .submit_coalesced(std::slice::from_ref(&empty))
            .into_iter()
            .map(Result::unwrap_err)
            .collect();
        assert_eq!(errors, [FsdError::EmptyRequest], "{variant}");
        assert_eq!(alone.audit(), Vec::<String>::new(), "{variant}");
        assert_eq!(coalesced.audit(), Vec::<String>::new(), "{variant}");
    }
}
