//! Collectives (barrier / reduce) over the serverless channels, at
//! varying worker counts — the MPI-style primitives of §II-B objective 6.

use fsd_inference::comm::{CloudConfig, CloudEnv, VirtualTime};
use fsd_inference::core::{barrier, reduce, ChannelOptions, ChannelRegistry, FsiChannel};
use fsd_inference::faas::{ComputeModel, FaasPlatform, FunctionConfig};
use fsd_inference::sparse::SparseRows;
use std::sync::Arc;

mod common;

/// Builds the named built-in channel (flow 0) through the provider
/// registry — the same construction path the service uses per request.
fn channel(env: &Arc<CloudEnv>, name: &str, p: u32) -> Arc<dyn FsiChannel> {
    ChannelRegistry::with_builtins()
        .get(name)
        .unwrap_or_else(|| panic!("no provider for {name}"))
        .provision(env, p, ChannelOptions::default(), 0)
}

/// The channel the CI matrix selected.
fn selected_channel(env: &Arc<CloudEnv>, p: u32) -> Arc<dyn FsiChannel> {
    let variant = common::test_variant();
    channel(
        env,
        variant.channel_name().expect("matrix selects channels"),
        p,
    )
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

/// Runs barrier+reduce on `p` workers over `channel`; returns the root's
/// merged rows and each worker's finish time.
fn run_collective(
    env: Arc<CloudEnv>,
    channel: Arc<dyn FsiChannel>,
    p: u32,
) -> (SparseRows, Vec<VirtualTime>) {
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
                let after_barrier = ctx.now();
                let out = reduce(channel.as_ref(), ctx, m, p, &rows_for(m), 0)?;
                Ok((out, after_barrier))
            },
        ));
    }
    let mut root_rows = None;
    let mut finishes = Vec::new();
    for h in handles {
        let ((out, after_barrier), report) = h.join().expect("worker ok");
        if let Some(rows) = out {
            assert!(root_rows.is_none(), "only the root may hold the reduction");
            root_rows = Some(rows);
        }
        finishes.push(report.finished);
        let _ = after_barrier;
    }
    (root_rows.expect("root produced output"), finishes)
}

#[test]
fn reduce_collects_every_workers_rows_queue() {
    for p in [2u32, 4, 7] {
        let env = CloudEnv::new(CloudConfig::deterministic(p as u64));
        let ch = channel(&env, "queue", p);
        let (rows, _) = run_collective(env, ch, p);
        let expected_ids: Vec<u32> = (0..p).map(|m| m * 5).collect();
        assert_eq!(rows.ids(), &expected_ids[..], "queue P={p}");
        for m in 0..p {
            assert_eq!(
                rows.row_by_id(m * 5).expect("present").1[0],
                m as f32 + 1.0,
                "queue P={p} worker {m} values"
            );
        }
    }
}

#[test]
fn reduce_collects_every_workers_rows_object() {
    for p in [2u32, 5] {
        let env = CloudEnv::new(CloudConfig::deterministic(100 + p as u64));
        let ch = channel(&env, "object", p);
        let (rows, _) = run_collective(env, ch, p);
        assert_eq!(rows.n_rows(), p as usize, "object P={p}");
    }
}

#[test]
fn reduce_collects_every_workers_rows_env_variant() {
    // The CI channel matrix points this at each transport in turn.
    for p in [2u32, 4] {
        let env = CloudEnv::new(CloudConfig::deterministic(500 + p as u64));
        let ch = selected_channel(&env, p);
        let (rows, _) = run_collective(env, ch, p);
        let expected_ids: Vec<u32> = (0..p).map(|m| m * 5).collect();
        assert_eq!(
            rows.ids(),
            &expected_ids[..],
            "{} P={p}",
            common::test_variant()
        );
    }
}

#[test]
fn consecutive_barrier_rounds_env_variant() {
    let p = 3u32;
    let env = CloudEnv::new(CloudConfig::deterministic(600));
    let ch = selected_channel(&env, p);
    let platform = FaasPlatform::new(env, ComputeModel::default());
    let mut handles = Vec::new();
    for m in 0..p {
        let ch = ch.clone();
        handles.push(platform.invoke(
            FunctionConfig::worker(format!("w{m}"), 1024),
            VirtualTime::ZERO,
            move |ctx| {
                for round in 0..4 {
                    barrier(ch.as_ref(), ctx, m, p, round)?;
                }
                Ok(())
            },
        ));
    }
    for h in handles {
        h.join().expect("all rounds complete");
    }
}

#[test]
fn barrier_synchronizes_staggered_workers() {
    // Workers arrive at the barrier seconds apart (staggered compute);
    // nobody passes it until the slowest arrives, so finish times cluster.
    let p = 4u32;
    let env = CloudEnv::new(CloudConfig::deterministic(200));
    let ch = channel(&env, "queue", p);
    let (_, finishes) = run_collective(env, ch, p);
    let min = finishes.iter().min().expect("non-empty").as_secs_f64();
    let max = finishes.iter().max().expect("non-empty").as_secs_f64();
    // Worker compute stagger was (p-1) * 0.4 s ≈ 1.2 s; post-barrier spread
    // must be far smaller than that.
    assert!(
        max - min < 1.0,
        "barrier failed to synchronize: finish spread {:.2}s",
        max - min
    );
}

#[test]
fn single_worker_collectives_are_noops() {
    let env = CloudEnv::new(CloudConfig::deterministic(300));
    let ch = channel(&env, "queue", 1);
    let platform = FaasPlatform::new(env.clone(), ComputeModel::default());
    let (out, _) = platform
        .invoke(
            FunctionConfig::worker("solo", 1024),
            VirtualTime::ZERO,
            move |ctx| {
                barrier(ch.as_ref(), ctx, 0, 1, 0)?;
                reduce(ch.as_ref(), ctx, 0, 1, &rows_for(0), 0)
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
    let p = 3u32;
    let env = CloudEnv::new(CloudConfig::deterministic(400));
    let ch = channel(&env, "queue", p);
    let platform = FaasPlatform::new(env, ComputeModel::default());
    let mut handles = Vec::new();
    for m in 0..p {
        let ch = ch.clone();
        handles.push(platform.invoke(
            FunctionConfig::worker(format!("w{m}"), 1024),
            VirtualTime::ZERO,
            move |ctx| {
                for round in 0..5 {
                    barrier(ch.as_ref(), ctx, m, p, round)?;
                }
                Ok(ctx.now())
            },
        ));
    }
    for h in handles {
        h.join().expect("all rounds complete");
    }
}
