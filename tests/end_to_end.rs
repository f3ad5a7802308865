//! Cross-crate integration tests: every FSD-Inference variant must produce
//! the exact serial ground truth, limits must bind the way the paper
//! describes, and reports must be internally consistent.

use fsd_inference::core::{
    EngineConfig, FsdError, FsdService, InferenceRequest, ServiceBuilder, Variant,
};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::partition::PartitionScheme;
use std::sync::Arc;

mod common;

fn small_spec(seed: u64) -> DnnSpec {
    DnnSpec {
        neurons: 96,
        layers: 5,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    }
}

fn service_for(spec: &DnnSpec, seed: u64) -> (FsdService, fsd_inference::sparse::SparseRows) {
    let dnn = Arc::new(generate_dnn(spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(24, seed));
    (ServiceBuilder::new(dnn).deterministic(seed).build(), inputs)
}

#[test]
fn serial_variant_matches_ground_truth() {
    let spec = small_spec(1);
    let (service, inputs) = service_for(&spec, 1);
    let expected = service.dnn().serial_inference(&inputs);
    let report = service
        .submit(&InferenceRequest {
            variant: Variant::Serial,
            workers: 1,
            memory_mb: 2048,
            inputs,
        })
        .expect("serial runs");
    assert_eq!(report.first_output(), &expected);
    assert_eq!(report.workers, 1);
    // Serial has no communication charges.
    assert_eq!(report.comm.sns_publish_requests, 0);
    assert_eq!(report.comm.sqs_api_calls, 0);
    assert_eq!(report.comm.s3_put_requests, 0);
    // Its one-rank tree's channel provisions nothing and leaves nothing.
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn queue_variant_matches_ground_truth_at_various_p() {
    let spec = small_spec(2);
    let (service, inputs) = service_for(&spec, 2);
    let expected = service.dnn().serial_inference(&inputs);
    for p in [2u32, 3, 6] {
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Queue,
                workers: p,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("queue P={p}: {e}"));
        assert_eq!(
            report.first_output(),
            &expected,
            "queue P={p} output mismatch"
        );
        assert_eq!(report.per_worker.len(), p as usize, "one report per worker");
        assert!(
            report.comm.sns_publish_requests > 0,
            "queue run must publish"
        );
        assert!(report.comm.sqs_api_calls > 0, "queue run must poll");
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn object_variant_matches_ground_truth_at_various_p() {
    let spec = small_spec(3);
    let (service, inputs) = service_for(&spec, 3);
    let expected = service.dnn().serial_inference(&inputs);
    for p in [2u32, 4, 7] {
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Object,
                workers: p,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("object P={p}: {e}"));
        assert_eq!(
            report.first_output(),
            &expected,
            "object P={p} output mismatch"
        );
        assert!(report.comm.s3_put_requests > 0, "object run must PUT");
        assert!(report.comm.s3_list_requests > 0, "object run must LIST");
        // Queue services untouched by the object channel.
        assert_eq!(report.comm.sns_publish_requests, 0);
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn hybrid_variant_matches_ground_truth_at_various_p() {
    let spec = small_spec(14);
    let (service, inputs) = service_for(&spec, 14);
    let expected = service.dnn().serial_inference(&inputs);
    for p in [2u32, 3, 5] {
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Hybrid,
                workers: p,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("hybrid P={p}: {e}"));
        assert_eq!(
            report.first_output(),
            &expected,
            "hybrid P={p} output mismatch"
        );
        assert_eq!(report.variant, Variant::Hybrid);
        assert!(
            report.comm.sns_publish_requests > 0,
            "hybrid control plane must publish"
        );
        assert_eq!(
            report.comm.s3_list_requests, 0,
            "hybrid receivers poll queues, never LIST"
        );
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

/// Ground truth, per-worker reporting and flow-scoped cleanup hold
/// identically on every channel transport.
#[test]
fn every_channel_matches_ground_truth() {
    let spec = small_spec(15);
    let (service, inputs) = service_for(&spec, 15);
    let expected = service.dnn().serial_inference(&inputs);
    for variant in common::channel_variants() {
        for p in [2u32, 4] {
            let report = service
                .submit(&InferenceRequest {
                    variant,
                    workers: p,
                    memory_mb: 1536,
                    inputs: inputs.clone(),
                })
                .unwrap_or_else(|e| panic!("{variant} P={p}: {e}"));
            assert_eq!(
                report.first_output(),
                &expected,
                "{variant} P={p} output mismatch"
            );
            assert_eq!(report.per_worker.len(), p as usize, "{variant} P={p}");
            assert_eq!(report.variant, variant, "{variant} P={p}");
        }
        // Whatever the transport held on the region is gone after teardown.
        assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
    }
}

#[test]
fn all_variants_agree_with_each_other() {
    let spec = small_spec(4);
    let (service, inputs) = service_for(&spec, 4);
    let serial = service
        .submit(&InferenceRequest {
            variant: Variant::Serial,
            workers: 1,
            memory_mb: 2048,
            inputs: inputs.clone(),
        })
        .expect("serial");
    let queue = service
        .submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 4,
            memory_mb: 1536,
            inputs: inputs.clone(),
        })
        .expect("queue");
    let object = service
        .submit(&InferenceRequest {
            variant: Variant::Object,
            workers: 4,
            memory_mb: 1536,
            inputs,
        })
        .expect("object");
    assert_eq!(serial.first_output(), queue.first_output());
    assert_eq!(queue.first_output(), object.first_output());
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn random_partitioning_still_correct_but_ships_more() {
    let spec = small_spec(5);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(24, 5));
    let expected = dnn.serial_inference(&inputs);

    let hgp_service = ServiceBuilder::new(dnn.clone()).deterministic(5).build();
    let rp_service = ServiceBuilder::new(dnn)
        .config(EngineConfig {
            scheme: PartitionScheme::Random,
            ..EngineConfig::default()
        })
        .deterministic(5)
        .build();

    let req = InferenceRequest {
        variant: Variant::Object,
        workers: 4,
        memory_mb: 1536,
        inputs,
    };
    let hgp = hgp_service.submit(&req).expect("hgp");
    let rp = rp_service.submit(&req).expect("rp");
    assert_eq!(hgp.first_output(), &expected);
    assert_eq!(rp.first_output(), &expected);
    assert!(
        hgp.client.s3_bytes_put < rp.client.s3_bytes_put,
        "HGP bytes {} should undercut RP bytes {}",
        hgp.client.s3_bytes_put,
        rp.client.s3_bytes_put
    );
    assert_eq!(hgp_service.audit(), Vec::<String>::new());
    assert_eq!(rp_service.audit(), Vec::<String>::new());
}

#[test]
fn serial_oom_on_oversized_model() {
    // A model whose CSR footprint (~170 MB) exceeds the serial instance's
    // memory — the paper's N=65536 case, where neither FSD-Inf-Serial nor
    // Sage-SL-Inf could load the model. The service's serial memory is
    // lowered to Lambda's 128 MB floor to keep the test fast; the model is
    // built structurally (diagonal layers) so the test stays cheap.
    use fsd_inference::model::SparseDnn;
    use fsd_inference::sparse::CsrMatrix;
    let n: usize = 1 << 21;
    let spec = DnnSpec {
        neurons: n,
        layers: 5,
        nnz_per_row: 1,
        bias: -0.3,
        clip: 32.0,
        seed: 6,
    };
    let layers: Vec<CsrMatrix> = (0..spec.layers)
        .map(|_| {
            CsrMatrix::new(
                n,
                n,
                (0..=n).collect(),
                (0..n as u32).collect(),
                vec![0.5f32; n],
            )
            .expect("diagonal layer is valid CSR")
        })
        .collect();
    let dnn = Arc::new(SparseDnn::new(spec, layers));
    let inputs = generate_inputs(64, &InputSpec::scaled(4, 6));
    let service = ServiceBuilder::new(dnn)
        .config(EngineConfig {
            serial_memory_mb: 128,
            ..EngineConfig::default()
        })
        .deterministic(6)
        .build();
    let res = service.submit(&InferenceRequest {
        variant: Variant::Serial,
        workers: 1,
        memory_mb: 128,
        inputs,
    });
    match res {
        Err(FsdError::OutOfMemory {
            used_bytes,
            limit_bytes,
        }) => {
            assert!(used_bytes > limit_bytes);
        }
        other => panic!("expected OOM, got {other:?}"),
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn timeout_kills_underprovisioned_runs() {
    // Extremely slow compute model → the 15-minute virtual limit binds
    // (the paper hit this with FSD-Inf-Queue, N = 65536, P = 8).
    let spec = small_spec(7);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(24, 7));
    let compute = fsd_inference::faas::ComputeModel {
        units_per_sec_per_vcpu: 50.0, // pathologically slow
        ..Default::default()
    };
    let service = ServiceBuilder::new(dnn)
        .deterministic(7)
        .compute(compute)
        .build();
    let res = service.submit(&InferenceRequest {
        variant: Variant::Queue,
        workers: 2,
        memory_mb: 1536,
        inputs,
    });
    match res {
        Err(FsdError::Timeout { .. }) => {}
        other => panic!("expected timeout, got {other:?}"),
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn cost_model_validation_predicted_vs_actual() {
    // §VI-F: application-side predicted charges vs service-side metered
    // charges must agree tightly for both channels.
    let spec = small_spec(8);
    let (service, inputs) = service_for(&spec, 8);
    for variant in [Variant::Queue, Variant::Object] {
        let report = service
            .submit(&InferenceRequest {
                variant,
                workers: 4,
                memory_mb: 1536,
                inputs: inputs.clone(),
            })
            .expect("runs");
        let err = report.cost_actual.relative_error(&report.cost_predicted);
        assert!(
            err < 0.02,
            "{variant}: predicted {:.6} vs actual {:.6} ({err:.3} rel err)",
            report.cost_predicted.total(),
            report.cost_actual.total()
        );
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn report_latency_covers_all_workers() {
    let spec = small_spec(9);
    let (service, inputs) = service_for(&spec, 9);
    let report = service
        .submit(&InferenceRequest {
            variant: Variant::Object,
            workers: 3,
            memory_mb: 1536,
            inputs,
        })
        .expect("runs");
    for w in &report.per_worker {
        assert!(
            w.finished <= report.latency,
            "worker {} finished after latency",
            w.rank
        );
        assert!(w.started < w.finished);
        assert!(w.billed_ms > 0);
    }
    assert!(report.per_sample_ms() > 0.0);
    assert!(report.work_done > 0);
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn deterministic_reruns_under_deterministic_config() {
    // The modelled ledger is a function of the workload alone: twenty
    // fresh services under the default config give one latency and one
    // bill per transport, whatever order the threads ran in.
    let spec = small_spec(10);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(24, 10));
    let expected = dnn.serial_inference(&inputs);
    let shapes = common::channel_variants()
        .map(|v| (v, 8))
        .chain([(Variant::Serial, 1)]);
    for (variant, workers) in shapes {
        let run = || {
            let service = ServiceBuilder::new(dnn.clone()).build();
            let report = service
                .submit(&InferenceRequest {
                    variant,
                    workers,
                    memory_mb: 1769,
                    inputs: inputs.clone(),
                })
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
            assert_eq!(report.first_output(), &expected, "{variant}");
            assert_eq!(service.audit(), Vec::<String>::new(), "{variant}");
            (report.latency, report.comm, report.lambda)
        };
        let first = run();
        for _ in 1..20 {
            assert_eq!(run(), first, "{variant}: (latency, comm, lambda)");
        }
    }
}

#[test]
fn service_recommendation_follows_model_size() {
    // A small model that fits one instance comfortably -> Serial.
    let (service, _) = service_for(&small_spec(12), 12);
    let rec = service.recommend(4, 8);
    assert_eq!(rec.variant, Variant::Serial);
    assert!(rec.profile.model_bytes < 1024 * 1024);
    // Serial is forced for P <= 1 regardless of size.
    let rec1 = service.recommend(1, 8);
    assert_eq!(rec1.variant, Variant::Serial);
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn auto_variant_runs_the_recommended_path() {
    // §IV-C end to end: an Auto request on a small model resolves to
    // Serial, runs, and reports the resolved variant.
    let spec = small_spec(13);
    let (service, inputs) = service_for(&spec, 13);
    let expected = service.dnn().serial_inference(&inputs);
    let report = service
        .submit(&InferenceRequest {
            variant: Variant::Auto,
            workers: 4,
            memory_mb: 1536,
            inputs,
        })
        .expect("auto runs");
    assert_eq!(report.variant, service.recommend(4, 8).variant);
    assert_eq!(report.first_output(), &expected);
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn larger_batches_cost_more_but_amortize_per_sample() {
    let spec = small_spec(11);
    let dnn = Arc::new(generate_dnn(&spec));
    let small_in = generate_inputs(spec.neurons, &InputSpec::scaled(8, 11));
    let big_in = generate_inputs(spec.neurons, &InputSpec::scaled(64, 11));
    let service = ServiceBuilder::new(dnn).deterministic(11).build();
    let small = service
        .submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 3,
            memory_mb: 1536,
            inputs: small_in,
        })
        .expect("small");
    let big = service
        .submit(&InferenceRequest {
            variant: Variant::Queue,
            workers: 3,
            memory_mb: 1536,
            inputs: big_in,
        })
        .expect("big");
    // Cost comparison uses the byte-driven components only: empty-poll
    // counts can wobble by a few calls with real-thread timing, while byte
    // volumes are deterministic functions of the workload.
    assert!(
        big.client.bytes_sent > small.client.bytes_sent,
        "bigger batches must ship more bytes"
    );
    assert!(
        big.per_sample_ms() < small.per_sample_ms(),
        "batching must amortize: big {:.2} ms vs small {:.2} ms",
        big.per_sample_ms(),
        small.per_sample_ms()
    );
    assert_eq!(service.audit(), Vec::<String>::new());
}

/// The modelled footprint of one fixed P=8 request per transport, pinned
/// from the commit before the worker stopped materialising the merged
/// activation block: `run_batches` feeds `track_alloc`/`track_free` the
/// byte counts that block *would* have had, so per-worker peak memory — and
/// the work units, wire bytes and billed calls around it — must not move.
#[test]
fn modelled_footprint_of_a_fixed_request_is_pinned_per_transport() {
    let spec = DnnSpec {
        neurons: 256,
        layers: 6,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: 22,
    };
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(32, 22));
    let expected = dnn.serial_inference(&inputs);
    let service = ServiceBuilder::new(dnn).deterministic(22).build();
    assert!(
        PINNED_FOOTPRINTS
            .iter()
            .map(|&(v, _)| v)
            .eq(common::channel_variants()),
        "every channel transport pins its footprint, in `Variant::ALL` order"
    );
    for (variant, pinned) in PINNED_FOOTPRINTS {
        let report = service
            .submit(&InferenceRequest {
                variant,
                workers: 8,
                memory_mb: 1769,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("{variant}: {e}"));
        assert_eq!(report.first_output(), &expected, "{variant}");
        let c = &report.comm;
        let peaks: Vec<usize> = report.per_worker.iter().map(|w| w.peak_mem_bytes).collect();
        let got = format!(
            "work={} latency_us={} peaks={peaks:?} bytes={} calls={} pre={}",
            report.work_done,
            report.latency.as_micros(),
            c.sns_delivered_bytes + c.s3_put_bytes + c.s3_get_bytes + c.direct_bytes,
            c.sns_publish_requests
                + (c.sqs_api_calls - c.sqs_empty_polls)
                + c.s3_put_requests
                + c.s3_get_requests
                + c.direct_messages,
            report.client.bytes_precompress,
        );
        assert_eq!(got, pinned, "{variant}");
    }
    assert_eq!(service.audit(), Vec::<String>::new());
}

/// Taken at `921aed7` (three runs, identical). Re-taken when batches
/// stopped ending in a barrier: `work` and `peaks` kept their values;
/// `latency_us`, `calls` and, where the carrier ships empty frames as
/// bytes, `bytes` and `pre` fell by the barrier's frames. Re-taken when
/// receives joined the lane pool: only object's `latency_us` moved (its
/// receive GETs now overlap). Re-taken when a queue receive's deletes
/// moved behind the worker: only queue's and hybrid's `latency_us` moved.
/// Re-taken when every Invoke joined the lane pool (a parent invokes all
/// its children in one round trip): every `latency_us` moved; queue's and
/// hybrid's `calls` fell 403 → 369 (the ranks start together, so a poll
/// finds more of a layer's frames at once); `work`, `peaks`, `bytes` and
/// `pre` kept their values. Re-taken when the eager launch became flat
/// from rank 0 at P = 8 (`EngineConfig::launch_fanout`): every
/// `latency_us` fell by 272–300 ms (ranks 5–7 start one level sooner);
/// queue's and hybrid's `calls` fell 369 → 345; `work`, `peaks`, `bytes`
/// and `pre` kept their values. Re-taken when the channel reduce left the
/// request (each rank returns its own final rows with its result): `work`
/// and `peaks` kept their values; the seven reduce frames left `calls`
/// (queue and hybrid 345 → 334, object 713 → 699, direct 406 → 399),
/// `bytes` and `pre` (111 899 → 92 761 on the queue-fed carriers,
/// 111 861 → 92 723 on object and direct); every `latency_us` fell, by
/// 63 ms on the queue-fed carriers, 60 ms on object and 1.6 ms on direct.
const PINNED_FOOTPRINTS: [(Variant, &str); 4] = [
    (
        Variant::Queue,
        "work=186475 latency_us=1374219 peaks=[32320, 33656, 33008, 34892, 33344, 32312, 32468, 33268] bytes=161941 calls=334 pre=92761",
    ),
    (
        Variant::Object,
        "work=186475 latency_us=1451319 peaks=[32320, 33656, 33008, 34892, 33344, 32312, 32468, 33268] bytes=249706 calls=699 pre=92723",
    ),
    (
        Variant::Hybrid,
        "work=186475 latency_us=1374269 peaks=[32320, 33656, 33008, 34892, 33344, 32312, 32468, 33268] bytes=162260 calls=334 pre=92761",
    ),
    (
        Variant::Direct,
        "work=186475 latency_us=1079654 peaks=[32320, 33656, 33008, 34892, 33344, 32312, 32468, 33268] bytes=161808 calls=399 pre=92723",
    ),
];
