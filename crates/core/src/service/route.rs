//! The §IV-C variant choice, the worker-tree shape a request runs on, and
//! the door that decides it or refuses the request.

use super::FsdService;
use crate::engine::{BatchedRequest, Variant};
use crate::error::FsdError;
use crate::recommend::{self, Recommendation, WorkloadProfile};
use crate::warm::TreeKey;
use fsd_faas::{MAX_CONCURRENCY, MAX_MEMORY_MB, MIN_MEMORY_MB};
use fsd_sparse::codec;

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

    /// The door every request passes once, on every path: the tree `req`
    /// runs on before any breaker steers it, or its typed refusal —
    /// [`FsdError::EmptyRequest`] without a batch, [`FsdError::InvalidRequest`]
    /// for a worker count past [`MAX_CONCURRENCY`] or a tree memory outside
    /// [`MIN_MEMORY_MB`]`..=`[`MAX_MEMORY_MB`] (`provisionable`). `Auto`
    /// resolves on the first batch's wire bytes per row, a proxy for the
    /// activations the layers will exchange, and may stage that `P`'s
    /// partition (offline, unbilled, once per `P`).
    pub fn tree_of(&self, req: &BatchedRequest) -> Result<TreeKey, FsdError> {
        let first = req.batches.first().ok_or(FsdError::EmptyRequest)?;
        let est = codec::encoded_size(first) / first.n_rows().max(1);
        self.provisionable(req.variant, req.workers, req.memory_mb, est)
    }

    /// The tree of `(variant, workers, memory_mb)`, `Auto` resolved on `est`
    /// wire bytes per row, or the refusal of a tree Lambda cannot
    /// provision: `workers` past [`MAX_CONCURRENCY`] — refused before
    /// `Auto` resolves, so no resolution partitions the model that many
    /// ways — or a tree memory outside [`MIN_MEMORY_MB`]`..=`[`MAX_MEMORY_MB`]
    /// (for Serial, `EngineConfig::serial_memory_mb`). Requests and
    /// pre-warms pass it alike.
    pub(super) fn provisionable(
        &self,
        variant: Variant,
        workers: u32,
        memory_mb: u32,
        est: usize,
    ) -> Result<TreeKey, FsdError> {
        if workers > MAX_CONCURRENCY {
            return Err(FsdError::InvalidRequest {
                field: "workers",
                value: workers,
                min: 0,
                max: MAX_CONCURRENCY,
            });
        }
        let key = self.tree_key(variant, workers, memory_mb, est);
        if (MIN_MEMORY_MB..=MAX_MEMORY_MB).contains(&key.memory_mb) {
            return Ok(key);
        }
        let field = if key.variant == Variant::Serial {
            "serial_memory_mb"
        } else {
            "memory_mb"
        };
        Err(FsdError::InvalidRequest {
            field,
            value: key.memory_mb,
            min: MIN_MEMORY_MB,
            max: MAX_MEMORY_MB,
        })
    }

    /// Where `req` runs: its [`FsdService::tree_of`], an `Auto` request's
    /// transport degraded past an open breaker — the one breaker consult a
    /// request makes, whatever fronts the service.
    pub(super) fn key_of(&self, req: &BatchedRequest) -> Result<TreeKey, FsdError> {
        let mut key = self.tree_of(req)?;
        if req.variant == Variant::Auto {
            key.variant = self.health.degrade(key.variant);
        }
        Ok(key)
    }

    /// The tree of a shape named by its parts, on the a-priori
    /// bytes-per-row estimate (pool inspection, eviction and pre-warms).
    pub(super) fn shape(&self, variant: Variant, workers: u32, memory_mb: u32) -> TreeKey {
        self.tree_key(variant, workers, memory_mb, self.est_bytes_per_row())
    }

    /// The tree a request for `(variant, workers, memory_mb)` runs on, `Auto`
    /// resolved on `est` wire bytes per row: a channel variant on `workers`
    /// ranks (at least one) of `memory_mb`; FSD-Inf-Serial — one instance
    /// holding the whole model — on the one-rank tree at
    /// `EngineConfig::serial_memory_mb`, whatever was asked for. Every tree
    /// is keyed here, so a parked tree is the one its requests check out.
    fn tree_key(&self, variant: Variant, workers: u32, memory_mb: u32, est: usize) -> TreeKey {
        let variant = self.resolve(variant, workers, est);
        if variant == Variant::Serial {
            return TreeKey {
                variant,
                workers: 1,
                memory_mb: self.cfg.serial_memory_mb,
            };
        }
        TreeKey {
            variant,
            workers: workers.max(1),
            memory_mb,
        }
    }

    /// The single §IV-C resolution point, a pure function of the model and
    /// its arguments: [`Variant::Auto`] becomes the recommendation for
    /// `workers` ranks and an estimated wire-bytes-per-row; explicit
    /// variants pass through. Tree keys and the scheduler's admission-cap
    /// derivation all route through here, so caps and execution can never
    /// disagree on where a request runs.
    pub fn resolve(&self, variant: Variant, workers: u32, est_bytes_per_row: usize) -> Variant {
        match variant {
            Variant::Auto => self.recommend(workers.max(1), est_bytes_per_row).variant,
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
