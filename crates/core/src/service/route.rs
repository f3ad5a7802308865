//! The §IV-C variant choice and the worker-tree shape a request runs on.

use super::FsdService;
use crate::engine::{BatchedRequest, Variant};
use crate::recommend::{self, Recommendation, WorkloadProfile};
use crate::warm::TreeKey;

impl FsdService {
    /// Recommends a variant for this model at parallelism `p`, from the
    /// Section IV-C rules: whether the model fits this service's Serial
    /// instance (`EngineConfig::serial_memory_mb`, Lambda's maximum by
    /// default), then estimated per-pair payload volume (plan rows ×
    /// typical row bytes) against the publish-quota bands
    /// (Queue → Hybrid → Object). Models that fit one instance skip the
    /// partitioning step entirely.
    pub fn recommend(&self, p: u32, est_bytes_per_row: usize) -> Recommendation {
        let model_bytes = self.dnn.mem_bytes();
        if p <= 1 || recommend::fits_instance(model_bytes, self.cfg.serial_memory_mb) {
            return Recommendation {
                variant: Variant::Serial,
                profile: WorkloadProfile {
                    model_bytes,
                    workers: p.max(1),
                    bytes_per_pair_layer: 0,
                },
            };
        }
        self.prepare(p);
        let plan = self.state.read()[&p].plan.clone();
        let pairs = plan.total_pairs().max(1);
        let bytes_per_pair_layer =
            (plan.total_row_sends() as usize * est_bytes_per_row) / pairs as usize;
        let profile = WorkloadProfile {
            model_bytes,
            workers: p,
            bytes_per_pair_layer,
        };
        // Serial eligibility was decided above against *this service's*
        // instance size; what remains is the volume-band choice.
        Recommendation {
            variant: recommend::channel_variant(bytes_per_pair_layer),
            profile,
        }
    }

    /// The worker tree a request asking for shape `requested` runs on,
    /// with `est_bytes_per_row` the wire-bytes-per-row estimate
    /// [`Variant::Auto`] resolves by ([`FsdService::resolve`]). A channel
    /// variant runs on `requested.workers` ranks (at least one) of
    /// `requested.memory_mb`; FSD-Inf-Serial — one instance holding the
    /// whole model — is the one-rank tree at
    /// [`EngineConfig::serial_memory_mb`], whatever `P` and memory were
    /// asked for. The execution path, the scheduler's coalescing key and
    /// predictor, pre-warms and fault targeting all key trees through
    /// here, so a parked tree is always the one its requests check out.
    ///
    /// [`EngineConfig::serial_memory_mb`]: crate::EngineConfig::serial_memory_mb
    pub fn tree_key(&self, requested: TreeKey, est_bytes_per_row: usize) -> TreeKey {
        let variant = self.resolve(requested.variant, requested.workers, est_bytes_per_row);
        if variant == Variant::Serial {
            return TreeKey {
                variant,
                workers: 1,
                memory_mb: self.cfg.serial_memory_mb,
            };
        }
        TreeKey {
            variant,
            workers: requested.workers.max(1),
            memory_mb: requested.memory_mb,
        }
    }

    /// [`FsdService::tree_key`] of a non-empty request; `Auto` resolves on
    /// its first batch's wire bytes per row, a proxy for the intermediate
    /// activations the layers will exchange.
    pub(super) fn key_of(&self, req: &BatchedRequest) -> TreeKey {
        let requested = TreeKey {
            variant: req.variant,
            workers: req.workers,
            memory_mb: req.memory_mb,
        };
        let est = req.est_bytes_per_row().expect("a non-empty request");
        self.tree_key(requested, est)
    }

    /// [`FsdService::tree_key`] of a shape named by its parts, with the
    /// a-priori bytes-per-row estimate (the pool's inspection, eviction
    /// and pre-warm calls).
    pub(super) fn shape(&self, variant: Variant, workers: u32, memory_mb: u32) -> TreeKey {
        let requested = TreeKey {
            variant,
            workers,
            memory_mb,
        };
        self.tree_key(requested, self.est_bytes_per_row())
    }

    /// The single §IV-C resolution point: resolves a (possibly
    /// [`Variant::Auto`]) variant for `workers` ranks and an estimated
    /// wire-bytes-per-row. Explicit variants pass through unchanged. The
    /// execution path and the scheduler's intake ([`FsdService::tree_key`])
    /// and its admission-cap derivation all route through here, so caps
    /// and execution can never disagree on where a request runs.
    pub fn resolve(&self, variant: Variant, workers: u32, est_bytes_per_row: usize) -> Variant {
        match variant {
            // Auto routing consults the circuit breakers: a recommendation
            // whose transport is tripped open degrades to a healthy
            // fallback (direct → hybrid → queue → object; hybrid → queue →
            // object; queue ↔ object). Explicit
            // variants pass through — the caller asked for that transport
            // and gets its errors.
            Variant::Auto => self
                .health
                .degrade(self.recommend(workers.max(1), est_bytes_per_row).variant),
            v @ (Variant::Serial
            | Variant::Queue
            | Variant::Object
            | Variant::Hybrid
            | Variant::Direct) => v,
        }
    }

    /// The a-priori wire-bytes-per-row estimate for this model (each
    /// nonzero costs a column id + value on the wire) — what cap
    /// derivation uses before any request exists. Per-request resolution
    /// refines it with the request's own first batch.
    pub fn est_bytes_per_row(&self) -> usize {
        self.dnn.spec().nnz_per_row.max(1) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::small_service;
    use super::*;
    use crate::builder::ServiceBuilder;
    use crate::engine::InferenceRequest;

    #[test]
    fn auto_routes_small_models_to_serial() {
        let (service, inputs, expected) = small_service(4);
        let report = service
            .submit(&InferenceRequest {
                variant: Variant::Auto,
                workers: 4,
                memory_mb: 1769,
                inputs,
            })
            .expect("auto runs");
        assert_eq!(
            report.variant,
            Variant::Serial,
            "tiny model must route to Serial"
        );
        assert_eq!(report.workers, 1);
        assert_eq!(report.first_output(), &expected);
    }

    #[test]
    fn serial_is_one_rank_on_both_launch_shapes() {
        // The cascade invokes a coordinator and rank 0; a streamed launch
        // provisions rank 0 flat, with no coordinator.
        for (stream, invocations) in [(false, 2), (true, 1)] {
            let (base, inputs, expected) = small_service(8);
            let service = ServiceBuilder::new(base.dnn().clone())
                .deterministic(8)
                .weight_streaming(stream)
                .build();
            let report = service
                .submit(&InferenceRequest {
                    variant: Variant::Serial,
                    workers: 4,
                    memory_mb: 512,
                    inputs,
                })
                .expect("serial runs");
            assert_eq!(report.first_output(), &expected, "stream={stream}");
            assert_eq!(report.workers, 1);
            assert_eq!(report.per_worker[0].memory_mb, fsd_faas::MAX_MEMORY_MB);
            assert_eq!(report.lambda.invocations, invocations, "stream={stream}");
            assert_eq!(service.audit(), Vec::<String>::new(), "stream={stream}");
        }
    }
}
