//! The barrier collective over the serverless channels, at varying worker
//! counts — the MPI-style primitive of §II-B objective 6. (No reduce closes
//! a batch: each rank returns its own output rows with its result, checked
//! in `multi_batch.rs`.)

use fsd_inference::comm::{CloudConfig, CloudEnv, VirtualTime};
use fsd_inference::core::{barrier, ChannelOptions, FsiChannel, Transport, Variant};
use fsd_inference::faas::{ComputeModel, FaasPlatform, FunctionConfig};
use std::sync::Arc;

mod common;

/// Builds `variant`'s built-in channel (flow 0) through its transport —
/// the same construction path the service uses per request.
fn channel(env: &Arc<CloudEnv>, variant: Variant, p: u32) -> Arc<dyn FsiChannel> {
    Transport::of(variant)
        .unwrap_or_else(|| panic!("no transport for {variant}"))
        .provision(env, p, ChannelOptions::default(), 0)
}

/// Runs one barrier on `p` workers over `variant`'s channel in a region
/// seeded `seed`, worker m arriving m × 0.4 s of compute late; returns
/// each worker's finish time.
fn run_staggered_barrier(variant: Variant, seed: u64, p: u32) -> Vec<VirtualTime> {
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
                barrier(channel.as_ref(), ctx, m, p, 0)
            },
        ));
    }
    handles
        .into_iter()
        .map(|h| {
            let ((), report) = h
                .join()
                .unwrap_or_else(|e| panic!("{variant} P={p}: worker failed: {e}"));
            report.finished
        })
        .collect()
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
        let finishes = run_staggered_barrier(variant, 200, p);
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
    platform
        .invoke(
            FunctionConfig::worker("solo", 1024),
            VirtualTime::ZERO,
            move |ctx| barrier(ch.as_ref(), ctx, 0, 1, 0),
        )
        .join()
        .expect("solo ok");
    // No communication should have happened at all.
    let snap = env.snapshot();
    assert_eq!(snap.sns_publish_requests, 0);
    assert_eq!(snap.s3_put_requests, 0);
}

#[test]
fn consecutive_barrier_rounds_do_not_collide() {
    run_barrier_rounds(Variant::Queue, 400, 3, 5);
}
