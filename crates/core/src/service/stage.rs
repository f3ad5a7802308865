//! Offline staging (paper §III) and the delivery of each request's
//! inputs: in its warm dispatch where they fit, staged for a GET where not.

use super::FsdService;
use crate::artifacts::{
    encode_input_shares, input_share_key, stage_input_share, stage_partitioned_model,
};
use crate::engine::BatchedRequest;
use crate::warm::InlineShares;
use fsd_faas::MAX_ASYNC_PAYLOAD_BYTES;
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

    /// Accepts a request: allocates its flow id, which namespaces
    /// everything the request touches and is its billing window on every
    /// meter (offline staging uses unbilled writes and never shows up).
    pub(super) fn open_flow(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Delivers request `flow`'s input batches, one encoded share per rank
    /// of `partition`, and returns the shares that ride the dispatch (see
    /// [`crate::warm::WorkItem::inline`]). A `warm` item's share rides its
    /// rank's Invoke while the rank's payload stays within
    /// [`MAX_ASYNC_PAYLOAD_BYTES`]; every other share — all of a cold
    /// item's, whose ranks a launcher that never held the input starts —
    /// is staged under its [`input_share_key`] for the rank to GET.
    ///
    /// The cap is taken against a share's raw encoded bytes, which assumes
    /// a binary-safe Invoke payload. A JSON event would carry the share
    /// base64-encoded at 4/3 its size, so there the raw cap is 192 KiB.
    pub(super) fn stage_request(
        &self,
        req: &BatchedRequest,
        partition: &Partition,
        flow: u64,
        warm: bool,
    ) -> InlineShares {
        let p = partition.n_parts();
        let mut room = vec![if warm { MAX_ASYNC_PAYLOAD_BYTES } else { 0 }; p];
        let mut inline = vec![Vec::with_capacity(req.batches.len()); p];
        for (b, batch) in req.batches.iter().enumerate() {
            for (m, share) in encode_input_shares(batch, partition).enumerate() {
                let rode = if rides(&mut room[m], share.len()) {
                    Some(share.into())
                } else {
                    let key = input_share_key(flow, b, p as u32, m as u32);
                    stage_input_share(&self.env, &key, share);
                    None
                };
                inline[m].push(rode);
            }
        }
        inline.into()
    }
}

/// Whether a share of `len` bytes fits a dispatch with `room` bytes of
/// payload left, taking its bytes out of `room` if it does.
fn rides(room: &mut usize, len: usize) -> bool {
    let fits = len <= *room;
    if fits {
        *room -= len;
    }
    fits
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
    fn a_share_of_exactly_the_payload_cap_rides_and_one_byte_more_is_staged() {
        let mut room = MAX_ASYNC_PAYLOAD_BYTES;
        assert!(!rides(&mut room, MAX_ASYNC_PAYLOAD_BYTES + 1));
        assert_eq!(
            room, MAX_ASYNC_PAYLOAD_BYTES,
            "a staged share takes no room"
        );
        assert!(rides(&mut room, MAX_ASYNC_PAYLOAD_BYTES));
        assert_eq!(room, 0);
        assert!(!rides(&mut room, 1), "a full dispatch carries nothing more");
    }

    #[test]
    fn a_warm_items_small_shares_ride_and_a_cold_items_are_staged() {
        let (service, inputs, _) = small_service(8);
        let req = BatchedRequest {
            variant: Variant::Queue,
            workers: 3,
            memory_mb: 1769,
            batches: vec![inputs.clone(), inputs],
        };
        let partition = service.partition(3);
        let store = service.env.object_store();
        let staged = |flow| {
            let prefix = crate::artifacts::input_prefix(flow);
            store.object_count(crate::artifacts::ARTIFACT_BUCKET, &prefix)
        };
        let flow = service.open_flow();
        let warm = service.stage_request(&req, &partition, flow, true);
        assert!(warm
            .iter()
            .all(|rank| rank.len() == 2 && rank.iter().all(Option::is_some)));
        assert_eq!((warm.len(), staged(flow)), (3, 0));
        let flow = service.open_flow();
        let cold = service.stage_request(&req, &partition, flow, false);
        assert!(cold
            .iter()
            .all(|rank| rank.len() == 2 && rank.iter().all(Option::is_none)));
        assert_eq!((cold.len(), staged(flow)), (3, 6));
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
