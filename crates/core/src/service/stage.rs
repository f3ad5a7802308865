//! Offline staging (paper §III) and the request's staged inputs.

use super::FsdService;
use crate::artifacts::{stage_inputs, stage_partitioned_model};
use crate::engine::BatchedRequest;
use fsd_partition::{partition_model, CommPlan, Partition};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Offline staging state shared by all requests (read-mostly):
/// partitions (and their communication plans) staged per worker count `P`.
pub(super) type StagedState = HashMap<u32, StagedPartition>;

/// One staged `P`-way partitioning: the partition plus the communication
/// plan built from it (cached so the recommender never rebuilds it on the
/// request path).
pub(super) struct StagedPartition {
    partition: Arc<Partition>,
    pub(super) plan: Arc<CommPlan>,
}

impl FsdService {
    /// The partition used for `P` workers (staging it if needed). `P ≤ 1`
    /// returns the degenerate 1-way partition.
    pub fn partition(&self, p: u32) -> Arc<Partition> {
        let p = p.max(1);
        self.prepare(p);
        self.state.read()[&p].partition.clone()
    }

    /// Offline step: partition for `P` workers (any `P`; `P ≤ 1` is the
    /// 1-way partition a Serial tree loads) and stage the artifacts.
    /// Idempotent and safe under concurrency; done "a priori, not per
    /// request" (paper §III).
    pub fn prepare(&self, p: u32) {
        let p = p.max(1);
        if self.state.read().contains_key(&p) {
            return;
        }
        let _staging = self.stage_lock.lock();
        if self.state.read().contains_key(&p) {
            return;
        }
        let part = partition_model(&self.dnn, p as usize, self.cfg.scheme, self.cfg.seed);
        let plan = CommPlan::build(&self.dnn, &part);
        stage_partitioned_model(&self.env, &self.model_key, &self.dnn, &part, &plan);
        self.state.write().insert(
            p,
            StagedPartition {
                partition: Arc::new(part),
                plan: Arc::new(plan),
            },
        );
    }

    /// Accepts a request: allocates its flow id — which namespaces
    /// everything the request touches and is its billing window on every
    /// meter (offline staging uses unbilled writes and never shows up) —
    /// and stages its input batches under [`input_key`].
    pub(super) fn stage_request(&self, req: &BatchedRequest, partition: &Partition) -> u64 {
        let flow = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        for (b, batch) in req.batches.iter().enumerate() {
            let key = format!("{}/b{b}", input_key(flow));
            stage_inputs(&self.env, &key, batch, partition);
        }
        flow
    }
}

/// Where requests' inputs are staged in the artifact bucket.
pub(super) const INPUTS: &str = "inputs/";

/// The staged-input prefix of request `flow` (batch `b` under `…/b{b}`).
pub(super) fn input_key(flow: u64) -> String {
    format!("{INPUTS}req{flow}")
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::small_service;
    use super::*;
    use crate::engine::{InferenceRequest, Variant};

    #[test]
    fn distributed_variants_run_with_a_single_worker() {
        // A degenerate one-worker tree must still work: the service stages
        // a 1-way partition instead of failing on missing per-worker
        // artifacts.
        let (service, inputs, expected) = small_service(6);
        for variant in [Variant::Queue, Variant::Object] {
            let report = service
                .submit(&InferenceRequest {
                    variant,
                    workers: 0, // clamped to 1
                    memory_mb: 1769,
                    inputs: inputs.clone(),
                })
                .unwrap_or_else(|e| panic!("{variant} with one worker: {e}"));
            assert_eq!(report.workers, 1);
            assert_eq!(report.first_output(), &expected);
        }
    }

    #[test]
    fn partition_accessor_handles_degenerate_counts() {
        let (service, ..) = small_service(7);
        // p <= 1 returns the 1-way partition instead of panicking on a
        // missing map entry.
        let one = service.partition(1);
        assert_eq!(one.n_parts(), 1);
        assert!(Arc::ptr_eq(&one, &service.partition(0)));
        let three = service.partition(3);
        assert_eq!(three.n_parts(), 3);
    }
}
