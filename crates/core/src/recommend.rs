//! Design recommendations (paper Section IV-C, extended with the FMI
//! direct-exchange band).
//!
//! * Models that fit one instance comfortably → **Serial** (no IPC latency);
//! * otherwise **Direct** while per-pair payloads stay within the punched
//!   connections' socket-buffer budget: NAT-punched TCP has no per-message
//!   API cost at all and sub-millisecond latency, so for small/mid
//!   payloads it dominates every managed service (FMI, PAPERS.md);
//! * **Queue** while per-pair payloads stay within a few publish
//!   quotas (its API requests are ~1 OOM cheaper and batch 10 targets);
//! * **Hybrid** in the mid-size band where payloads overflow the publish
//!   quotas but a queue control plane (one pointer message per pair) still
//!   beats scanning object storage for everything — the configuration the
//!   paper actually deploys once intermediates straddle the SQS cap;
//! * **Object** once per-layer pairwise volumes are so large that even the
//!   pointer control traffic is noise next to the transfers (object size
//!   is effectively unbounded and transfer is free).

use crate::engine::Variant;
use fsd_comm::quota;
use fsd_faas::MAX_MEMORY_MB;

/// Workload description for the recommender.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadProfile {
    /// In-memory bytes of the whole (unpartitioned) model.
    pub model_bytes: usize,
    /// Planned worker parallelism.
    pub workers: u32,
    /// Estimated bytes shipped per (source, target) pair per layer.
    pub bytes_per_pair_layer: usize,
}

/// Fraction of instance memory the model may take before Serial stops
/// being recommended (activations, buffers and runtime need the rest).
const SERIAL_FIT_FRACTION: f64 = 0.55;

/// Per-pair-per-layer bytes the direct channel absorbs before queueing
/// effects on the punched connections' socket buffers erase its latency
/// edge: half a publish quota — safely below the band where the queue
/// channel still delivers a pair in a single billed publish.
const DIRECT_SATURATION_BYTES: usize = quota::MAX_PUBLISH_BYTES / 2;

/// Publish quotas a pair/layer may consume before the queue channel starts
/// paying multiple billed requests per target consistently (§IV-C: queue
/// wins "until multiple publishes are consistently required per target").
const QUEUE_SATURATION_PUBLISHES: usize = 4;

/// Publish quotas a pair/layer may consume before the hybrid channel's
/// spilled-payload regime stops winning: past this, the per-pair transfer
/// so dominates that the queue control plane buys nothing over a pure
/// object scan, and pub-sub fan-out of the pointer records only adds a
/// delivery hop.
const HYBRID_SATURATION_PUBLISHES: usize = 12;

/// A recommendation with the profile that produced it (diagnostics).
#[derive(Debug, Clone, Copy)]
pub struct Recommendation {
    /// The recommended execution variant.
    pub variant: Variant,
    /// The workload profile the rules were evaluated on.
    pub profile: WorkloadProfile,
}

/// Whether a model fits an instance of `memory_mb` with the §IV-C headroom
/// fraction. Services evaluate this against their configured Serial
/// instance size; the paper's deployment uses Lambda's maximum.
pub fn fits_instance(model_bytes: usize, memory_mb: u32) -> bool {
    let budget = (memory_mb as usize * 1024 * 1024) as f64 * SERIAL_FIT_FRACTION;
    (model_bytes as f64) <= budget
}

/// Whether a model fits one maximum-memory instance with the §IV-C
/// headroom fraction (the Serial-eligibility test).
fn fits_single_instance(model_bytes: usize) -> bool {
    fits_instance(model_bytes, MAX_MEMORY_MB)
}

/// Picks among the channel transports by per-pair-per-layer volume — the
/// Direct → Queue → Hybrid → Object bands, for callers that have already
/// ruled Serial out with their own fit test ([`fits_instance`]).
pub fn channel_variant(bytes_per_pair_layer: usize) -> Variant {
    if bytes_per_pair_layer <= DIRECT_SATURATION_BYTES {
        Variant::Direct
    } else if bytes_per_pair_layer <= quota::MAX_PUBLISH_BYTES * QUEUE_SATURATION_PUBLISHES {
        Variant::Queue
    } else if bytes_per_pair_layer <= quota::MAX_PUBLISH_BYTES * HYBRID_SATURATION_PUBLISHES {
        Variant::Hybrid
    } else {
        Variant::Object
    }
}

/// Recommends the variant for a workload.
pub fn recommend_variant(w: &WorkloadProfile) -> Variant {
    if fits_single_instance(w.model_bytes) {
        return Variant::Serial;
    }
    channel_variant(w.bytes_per_pair_layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_models_route_to_serial() {
        let w = WorkloadProfile {
            model_bytes: 100 * 1024 * 1024,
            workers: 8,
            bytes_per_pair_layer: 10_000,
        };
        assert_eq!(recommend_variant(&w), Variant::Serial);
    }

    #[test]
    fn small_payloads_use_direct() {
        let w = WorkloadProfile {
            model_bytes: 8 * 1024 * 1024 * 1024,
            workers: 20,
            bytes_per_pair_layer: 10 * 1024,
        };
        assert_eq!(recommend_variant(&w), Variant::Direct);
    }

    #[test]
    fn medium_models_use_queue() {
        let w = WorkloadProfile {
            model_bytes: 8 * 1024 * 1024 * 1024,
            workers: 20,
            bytes_per_pair_layer: 200 * 1024,
        };
        assert_eq!(recommend_variant(&w), Variant::Queue);
    }

    #[test]
    fn mid_band_volumes_use_hybrid() {
        let w = WorkloadProfile {
            model_bytes: 16 * 1024 * 1024 * 1024,
            workers: 42,
            bytes_per_pair_layer: 2 * 1024 * 1024,
        };
        assert_eq!(recommend_variant(&w), Variant::Hybrid);
    }

    #[test]
    fn huge_volumes_use_object() {
        let w = WorkloadProfile {
            model_bytes: 30 * 1024 * 1024 * 1024,
            workers: 62,
            bytes_per_pair_layer: 4 * 1024 * 1024,
        };
        assert_eq!(recommend_variant(&w), Variant::Object);
    }

    #[test]
    fn boundaries_are_the_publish_quota_multiples() {
        let base = WorkloadProfile {
            model_bytes: 8 * 1024 * 1024 * 1024,
            workers: 40,
            bytes_per_pair_layer: 0,
        };
        let at = |v: usize| WorkloadProfile {
            bytes_per_pair_layer: v,
            ..base
        };
        let q = quota::MAX_PUBLISH_BYTES;
        assert_eq!(
            recommend_variant(&at(DIRECT_SATURATION_BYTES)),
            Variant::Direct
        );
        assert_eq!(
            recommend_variant(&at(DIRECT_SATURATION_BYTES + 1)),
            Variant::Queue
        );
        assert_eq!(
            recommend_variant(&at(q * QUEUE_SATURATION_PUBLISHES)),
            Variant::Queue
        );
        assert_eq!(
            recommend_variant(&at(q * QUEUE_SATURATION_PUBLISHES + 1)),
            Variant::Hybrid
        );
        assert_eq!(
            recommend_variant(&at(q * HYBRID_SATURATION_PUBLISHES)),
            Variant::Hybrid
        );
        assert_eq!(
            recommend_variant(&at(q * HYBRID_SATURATION_PUBLISHES + 1)),
            Variant::Object
        );
    }

    #[test]
    fn fit_test_scales_with_instance_memory() {
        let model = 512 * 1024 * 1024;
        assert!(fits_single_instance(model));
        assert!(!fits_instance(model, 512), "55% headroom must bind");
        assert!(fits_instance(model, 1024));
    }
}
