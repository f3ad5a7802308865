//! Launch timing in a deterministic region: every Invoke rides its issuer's
//! lane pool, so a launcher starts up to eight children in one round trip,
//! and each child starts one Invoke round trip plus one cold start after
//! its call is issued. The eager launch's default fan-out is flat from
//! rank 0 at these sizes (`fsd_faas::launch::best_fanout`).

mod common;

use fsd_inference::comm::{ApiClass, TargetedFault};
use fsd_inference::core::{
    EngineConfig, FsdService, InferenceReport, InferenceRequest, ServiceBuilder, Variant,
};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use std::sync::Arc;

const SEED: u64 = 71;

/// A seeded service over a small model; `stream` picks the flat
/// control-plane launch over the cascade, whose fan-out `branching`
/// overrides.
fn service(stream: bool, branching: Option<usize>) -> FsdService {
    let spec = DnnSpec {
        neurons: 96,
        layers: 2,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: SEED,
    };
    let mut cfg = EngineConfig::deterministic(SEED);
    cfg.branching = branching;
    ServiceBuilder::new(Arc::new(generate_dnn(&spec)))
        .config(cfg)
        .weight_streaming(stream)
        .build()
}

fn request(workers: u32) -> InferenceRequest {
    InferenceRequest {
        variant: Variant::Queue,
        workers,
        memory_mb: 1769,
        inputs: generate_inputs(96, &InputSpec::scaled(4, SEED)),
    }
}

/// Each rank's start, in µs, in rank order.
fn starts(report: &InferenceReport) -> Vec<u64> {
    let mut ranks: Vec<_> = report
        .per_worker
        .iter()
        .map(|w| (w.rank, w.started.as_micros()))
        .collect();
    ranks.sort_unstable();
    ranks.into_iter().map(|(_, started)| started).collect()
}

/// One Invoke round trip, and one round trip plus a cold start (µs).
fn rtt_and_launch(service: &FsdService) -> (u64, u64) {
    let lat = service.env().latency();
    (
        lat.lambda_invoke_us,
        lat.lambda_invoke_us + lat.lambda_cold_start_us,
    )
}

#[test]
fn a_flat_launch_of_eight_starts_every_rank_at_once() {
    let service = service(true, Some(4));
    let (_, launch) = rtt_and_launch(&service);
    let report = service.submit(&request(8)).expect("streamed cold start");
    assert_eq!(starts(&report), vec![launch; 8]);
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn a_flat_launch_past_the_lanes_starts_the_ninth_rank_one_round_trip_later() {
    let service = service(true, Some(4));
    let (rtt, launch) = rtt_and_launch(&service);
    let report = service.submit(&request(12)).expect("streamed cold start");
    let mut expected = vec![launch; 8];
    expected.extend([launch + rtt; 4]);
    assert_eq!(starts(&report), expected);
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn a_cascade_starts_each_level_one_launch_after_its_parent() {
    let service = service(false, Some(4));
    let (_, launch) = rtt_and_launch(&service);
    let report = service.submit(&request(8)).expect("cascade cold start");
    let starts = starts(&report);
    // b = 4, P = 8: rank 0 invokes ranks 1–4 at once, rank 1 then ranks
    // 5–7 at once.
    let root = starts[0];
    let mut expected = vec![root];
    expected.extend([root + launch; 4]);
    expected.extend([root + 2 * launch; 3]);
    assert_eq!(starts, expected);
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn a_refused_child_fails_the_launch_and_its_siblings_are_still_invoked() {
    common::watchdog(|| {
        let service = service(false, Some(4));
        // Rank 2 is the second of rank 0's four children at P = 8, b = 4.
        service
            .env()
            .faults()
            .inject(TargetedFault::first(ApiClass::InstanceLaunch, "fsd-worker-2").permanent());
        assert!(
            service.submit(&request(8)).is_err(),
            "a refused child must fail the request"
        );
        // The coordinator and all eight ranks were invoked (the refused
        // Invoke is billed too): ranks 3 and 4 after the refusal, and rank
        // 1's children 5–7.
        assert_eq!(service.failed_attempt_bill().lambda.invocations, 9);
        assert_eq!(service.audit(), Vec::<String>::new());
    });
}

#[test]
fn the_default_eager_launch_of_eight_starts_every_rank_one_launch_after_rank_0() {
    let service = service(false, None);
    let (_, launch) = rtt_and_launch(&service);
    let report = service.submit(&request(8)).expect("eager cold start");
    let starts = starts(&report);
    let root = starts[0];
    let mut expected = vec![root];
    expected.extend([root + launch; 7]);
    assert_eq!(starts, expected);
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn the_default_eager_launch_past_the_lanes_starts_ranks_9_to_11_one_round_trip_later() {
    let service = service(false, None);
    let (rtt, launch) = rtt_and_launch(&service);
    let report = service.submit(&request(12)).expect("eager cold start");
    let starts = starts(&report);
    // Rank 0 issues its 11 Invokes over two lane rounds.
    let root = starts[0];
    let mut expected = vec![root];
    expected.extend([root + launch; 8]);
    expected.extend([root + launch + rtt; 3]);
    assert_eq!(starts, expected);
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn a_unary_override_still_launches_a_chain() {
    let service = service(false, Some(1));
    let (_, launch) = rtt_and_launch(&service);
    let report = service.submit(&request(4)).expect("chain cold start");
    let starts = starts(&report);
    let root = starts[0];
    let expected: Vec<u64> = (0..4).map(|depth| root + depth * launch).collect();
    assert_eq!(starts, expected);
    assert_eq!(service.audit(), Vec::<String>::new());
}
