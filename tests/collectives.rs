//! Collectives (barrier / reduce) over the serverless channels, at
//! varying worker counts — the MPI-style primitives of §II-B objective 6.

use fsd_inference::comm::{CloudConfig, CloudEnv, VirtualTime};
use fsd_inference::core::{barrier, reduce, ChannelOptions, FsiChannel, Transport, Variant};
use fsd_inference::faas::{ComputeModel, FaasPlatform, FunctionConfig};
use fsd_inference::sparse::SparseRows;
use std::sync::Arc;

mod common;

/// Builds `variant`'s built-in channel (flow 0) through its transport —
/// the same construction path the service uses per request.
fn channel(env: &Arc<CloudEnv>, variant: Variant, p: u32) -> Arc<dyn FsiChannel> {
    Transport::of(variant)
        .unwrap_or_else(|| panic!("no transport for {variant}"))
        .provision(env, p, ChannelOptions::default(), 0)
}

fn rows_for(rank: u32) -> SparseRows {
    SparseRows::from_rows(
        4,
        [(
            rank * 5,
            vec![0u32, 2],
            vec![rank as f32 + 1.0, 2.0 * rank as f32 + 1.0],
        )],
    )
}

/// Runs barrier+reduce on `p` workers over `variant`'s channel in a region
/// seeded `seed`; returns the root's merged rows and each worker's finish
/// time.
fn run_collective(variant: Variant, seed: u64, p: u32) -> (SparseRows, Vec<VirtualTime>) {
    let env = CloudEnv::new(CloudConfig::deterministic(seed));
    let channel = channel(&env, variant, p);
    let platform = FaasPlatform::new(env, ComputeModel::default());
    let mut handles = Vec::new();
    for m in 0..p {
        let channel = channel.clone();
        handles.push(platform.invoke(
            FunctionConfig::worker(format!("w{m}"), 2048),
            VirtualTime::ZERO,
            move |ctx| {
                // Stagger arrival: worker m "computes" for m units first.
                ctx.charge_work(m as u64 * 100_000_000);
                barrier(channel.as_ref(), ctx, m, p, 0)?;
                reduce(channel.as_ref(), ctx, m, p, &mut rows_for(m), 0)
            },
        ));
    }
    let mut root_rows = None;
    let mut finishes = Vec::new();
    for h in handles {
        let (out, report) = h
            .join()
            .unwrap_or_else(|e| panic!("{variant} P={p}: worker failed: {e}"));
        if let Some(rows) = out {
            assert!(
                root_rows.is_none(),
                "{variant} P={p}: only the root may hold the reduction"
            );
            root_rows = Some(rows);
        }
        finishes.push(report.finished);
    }
    let rows = root_rows.unwrap_or_else(|| panic!("{variant} P={p}: the root holds no output"));
    (rows, finishes)
}

/// Asserts the root's reduction over `variant` at `p` workers holds every
/// worker's row, in id order, with that worker's values.
fn assert_reduces_every_row(variant: Variant, seed: u64, p: u32) {
    let (rows, _) = run_collective(variant, seed, p);
    let expected_ids: Vec<u32> = (0..p).map(|m| m * 5).collect();
    assert_eq!(rows.ids(), &expected_ids[..], "{variant} P={p}");
    for m in 0..p {
        let (_, vals) = rows
            .row_by_id(m * 5)
            .unwrap_or_else(|| panic!("{variant} P={p}: worker {m}'s row is missing"));
        assert_eq!(vals[0], m as f32 + 1.0, "{variant} P={p} worker {m} values");
    }
}

/// Runs `rounds` consecutive barriers on `p` workers over `variant`'s
/// channel; every worker must pass every round.
fn run_barrier_rounds(variant: Variant, seed: u64, p: u32, rounds: u32) {
    let env = CloudEnv::new(CloudConfig::deterministic(seed));
    let ch = channel(&env, variant, p);
    let platform = FaasPlatform::new(env, ComputeModel::default());
    let mut handles = Vec::new();
    for m in 0..p {
        let ch = ch.clone();
        handles.push(platform.invoke(
            FunctionConfig::worker(format!("w{m}"), 1024),
            VirtualTime::ZERO,
            move |ctx| {
                for round in 0..rounds {
                    barrier(ch.as_ref(), ctx, m, p, round)?;
                }
                Ok(())
            },
        ));
    }
    for h in handles {
        h.join()
            .unwrap_or_else(|e| panic!("{variant}: every round completes: {e}"));
    }
}

#[test]
fn reduce_collects_every_workers_rows_queue() {
    for p in [2u32, 4, 7] {
        assert_reduces_every_row(Variant::Queue, p as u64, p);
    }
}

#[test]
fn reduce_collects_every_workers_rows_object() {
    for p in [2u32, 5] {
        assert_reduces_every_row(Variant::Object, 100 + p as u64, p);
    }
}

#[test]
fn reduce_collects_every_workers_rows_env_variant() {
    // Every channel transport in turn, so a new transport joins this test
    // without an edit.
    for variant in common::channel_variants() {
        for p in [2u32, 4, 5, 7] {
            assert_reduces_every_row(variant, 500 + p as u64, p);
        }
    }
}

#[test]
fn consecutive_barrier_rounds_env_variant() {
    for variant in common::channel_variants() {
        run_barrier_rounds(variant, 600, 3, 4);
    }
}

#[test]
fn barrier_synchronizes_staggered_workers() {
    // Workers arrive at the barrier seconds apart (staggered compute);
    // nobody passes it until the slowest arrives, so finish times cluster.
    let p = 4u32;
    for variant in common::channel_variants() {
        let (_, finishes) = run_collective(variant, 200, p);
        let min = finishes.iter().min().expect("non-empty").as_secs_f64();
        let max = finishes.iter().max().expect("non-empty").as_secs_f64();
        // Worker compute stagger was (p-1) * 0.4 s ≈ 1.2 s; post-barrier
        // spread must be far smaller than that.
        assert!(
            max - min < 1.0,
            "{variant}: barrier failed to synchronize: finish spread {:.2}s",
            max - min
        );
    }
}

#[test]
fn single_worker_collectives_are_noops() {
    let env = CloudEnv::new(CloudConfig::deterministic(300));
    let ch = channel(&env, Variant::Queue, 1);
    let platform = FaasPlatform::new(env.clone(), ComputeModel::default());
    let (out, _) = platform
        .invoke(
            FunctionConfig::worker("solo", 1024),
            VirtualTime::ZERO,
            move |ctx| {
                barrier(ch.as_ref(), ctx, 0, 1, 0)?;
                reduce(ch.as_ref(), ctx, 0, 1, &mut rows_for(0), 0)
            },
        )
        .join()
        .expect("solo ok");
    assert_eq!(out.expect("root keeps its own rows"), rows_for(0));
    // No communication should have happened at all.
    let snap = env.snapshot();
    assert_eq!(snap.sns_publish_requests, 0);
    assert_eq!(snap.s3_put_requests, 0);
}

#[test]
fn consecutive_barrier_rounds_do_not_collide() {
    run_barrier_rounds(Variant::Queue, 400, 3, 5);
}
