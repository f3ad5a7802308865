//! Post-teardown leak audit: after every request completes and warm
//! capacity is released, the cloud region must hold **zero** per-request
//! residue — no queues, no filter-policy subscriptions, no objects in the
//! data buckets, no tracked billing flows, no parked trees, no tracked
//! lambda flows. `CloudEnv::assert_no_residue` is the runtime twin of the
//! `teardown-pair` static lint: the lint proves every `create_*` has a
//! teardown on the public surface; this suite proves the teardowns are
//! actually called.
//!
//! The audit requires quiescence, so every test drains its service before
//! auditing.

use fsd_inference::core::{FsdService, InferenceRequest, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_sparse::SparseRows;
use std::sync::Arc;

fn spec(seed: u64) -> DnnSpec {
    DnnSpec {
        neurons: 64,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed,
    }
}

fn service_for(seed: u64) -> (FsdService, SparseRows) {
    let spec = spec(seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(10, seed));
    (ServiceBuilder::new(dnn).deterministic(seed).build(), inputs)
}

fn audit(service: &FsdService, label: &str) {
    let residue = service.env().residue_report();
    assert!(
        residue.is_empty(),
        "{label}: cloud residue after teardown: {}",
        residue.join("; ")
    );
    assert_eq!(
        service.platform().lambda_meter().tracked_flows(),
        0,
        "{label}: lambda meter still tracks per-flow buckets"
    );
}

#[test]
fn every_variant_leaves_zero_residue() {
    for (i, variant) in [
        Variant::Serial,
        Variant::Queue,
        Variant::Object,
        Variant::Hybrid,
        Variant::Direct,
        Variant::Auto,
    ]
    .into_iter()
    .enumerate()
    {
        let (service, inputs) = service_for(10 + i as u64);
        let workers = if variant == Variant::Serial { 1 } else { 3 };
        service
            .submit(&InferenceRequest {
                variant,
                workers,
                memory_mb: 1769,
                inputs,
            })
            .unwrap_or_else(|e| panic!("{variant}: {e}"));
        audit(&service, &variant.to_string());
        service.env().assert_no_residue();
    }
}

#[test]
fn repeated_requests_accumulate_no_residue() {
    let (service, inputs) = service_for(42);
    for rep in 0..3 {
        service
            .submit(&InferenceRequest {
                variant: Variant::Queue,
                workers: 3,
                memory_mb: 1769,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("rep {rep}: {e}"));
    }
    audit(&service, "3 repeated queue requests");
}

#[test]
fn warm_pool_release_leaves_zero_residue() {
    let s = spec(7);
    let dnn = Arc::new(generate_dnn(&s));
    let inputs = generate_inputs(s.neurons, &InputSpec::scaled(10, 7));
    let service = ServiceBuilder::new(dnn)
        .deterministic(7)
        .warm_pool(2, u64::MAX)
        .build();
    for _ in 0..2 {
        service
            .submit(&InferenceRequest {
                variant: Variant::Queue,
                workers: 3,
                memory_mb: 1769,
                inputs: inputs.clone(),
            })
            .expect("pooled queue request");
    }
    // Parked trees legitimately hold workers while idle; release them, then
    // the region must audit clean.
    service.invalidate_warm_trees();
    let stats = service.warm_pool_stats().expect("pool enabled");
    assert_eq!(stats.idle, 0, "parked trees survived invalidation");
    audit(&service, "warm pool after invalidate");
}

#[test]
fn audit_detects_planted_leaks() {
    // Sensitivity check: a checker that cannot fail proves nothing.
    let (service, _) = service_for(99);
    let env = service.env();

    let _q = env.queue("leak-probe");
    let report = env.residue_report();
    assert!(
        report.iter().any(|r| r.contains("queue")),
        "planted queue not reported: {report:?}"
    );
    env.remove_queue("leak-probe");

    let mut clock = fsd_inference::comm::VClock::default();
    env.object_store()
        .put(
            &fsd_inference::comm::bucket_name(0),
            "leak",
            &b"x"[..],
            &mut clock,
        )
        .expect("put succeeds on pre-created bucket");
    let report = env.residue_report();
    assert!(
        report.iter().any(|r| r.contains("object")),
        "planted object not reported: {report:?}"
    );
    env.object_store()
        .delete_prefix(&fsd_inference::comm::bucket_name(0), "");
    env.assert_no_residue();

    let mut clock = fsd_inference::comm::VClock::default();
    clock.set_flow(77);
    env.direct()
        .punch(&mut clock, 0, 1)
        .expect("punch succeeds without faults");
    let report = env.residue_report();
    assert!(
        report.iter().any(|r| r.contains("direct connection")),
        "planted direct connection not reported: {report:?}"
    );
    env.direct().close_flow(77);
    // The punch billed on flow 77, opening a per-flow meter bucket — the
    // audit counts that as residue too, so release it like teardown would.
    env.meter().release_flow(77);
    env.assert_no_residue();
}

#[test]
fn audit_detects_leaked_weight_stream_state() {
    // Sensitivity checks for the two kinds of state multicast weight
    // streaming adds: frames parked in a flow's mailboxes, and cache
    // blocks surviving the retirement of their generation.
    let (service, _) = service_for(98);
    let env = service.env();

    // A streamed launch that died between send and drain leaves its
    // frames parked; the audit must see them.
    let mut clock = fsd_inference::comm::VClock::default();
    clock.set_flow(88);
    env.weight_net()
        .send_block(
            &mut clock,
            1,
            3,
            "model/p4/w3/owned",
            Arc::from(&b"blk"[..]),
        )
        .expect("send succeeds without faults");
    let report = env.residue_report();
    assert!(
        report.iter().any(|r| r.contains("weight frame")),
        "planted undrained frame not reported: {report:?}"
    );
    // Teardown twin: closing the flow drops the mailboxes (the send also
    // billed on flow 88, so release that window like teardown would).
    assert_eq!(env.weight_net().close_flow(88), 1);
    env.meter().release_flow(88);
    env.assert_no_residue();

    // A retired generation whose blocks were never swept is a leak the
    // cache's own audit must flag — and purge_stale must clear.
    let cache = service.weight_cache();
    assert!(cache.insert_block(
        "model/p4/w0/owned",
        Arc::from(&b"blk"[..]),
        cache.generation()
    ));
    cache.retire_generation();
    let report = cache.residue_report();
    assert!(
        report
            .iter()
            .any(|r| r.contains("stale weight-cache block")),
        "planted stale block not reported: {report:?}"
    );
    assert_eq!(cache.purge_stale(), 1);
    assert!(cache.residue_report().is_empty());
    assert_eq!(cache.len(), 0);
}

#[test]
fn streamed_requests_leave_zero_residue() {
    let s = spec(97);
    let dnn = Arc::new(generate_dnn(&s));
    let inputs = generate_inputs(s.neurons, &InputSpec::scaled(10, 97));
    let service = ServiceBuilder::new(dnn)
        .deterministic(97)
        .weight_streaming(true)
        .warm_pool(2, u64::MAX)
        .build();
    for rep in 0..2 {
        service
            .submit(&InferenceRequest {
                variant: Variant::Queue,
                workers: 4,
                memory_mb: 1769,
                inputs: inputs.clone(),
            })
            .unwrap_or_else(|e| panic!("rep {rep}: {e}"));
    }
    // Parked trees and cached blocks are legitimate warm capacity; an
    // invalidation releases both, after which the region audits clean.
    service.invalidate_warm_trees();
    assert_eq!(service.weight_cache().len(), 0);
    assert!(service.weight_cache().residue_report().is_empty());
    audit(&service, "streamed requests after invalidate");
    service.env().assert_no_residue();
}

#[test]
fn remove_bucket_is_create_buckets_teardown_twin() {
    // The teardown-pair lint demands create_bucket/remove_bucket; prove the
    // pair actually round-trips.
    let (service, _) = service_for(5);
    let store = service.env().object_store();
    store.create_bucket("transient");
    assert!(store.bucket_exists("transient"));
    let mut clock = fsd_inference::comm::VClock::default();
    store
        .put("transient", "k", &b"v"[..], &mut clock)
        .expect("put into transient bucket");
    store.remove_bucket("transient");
    assert!(!store.bucket_exists("transient"));
    // Idempotent, like create_bucket.
    store.remove_bucket("transient");
}
