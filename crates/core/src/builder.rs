//! [`ServiceBuilder`]: typed construction of an [`FsdService`].
//!
//! Named, composable configuration — cloud region, compute model, channel
//! tuning, partition scheme, warm pool, and a pre-warm list
//! of worker counts whose artifacts are partitioned and staged at build
//! time (so first requests skip the offline step, exactly the "a priori,
//! not per request" discipline of §III).

use crate::channel::ChannelOptions;
use crate::engine::{EngineConfig, Variant};
use crate::pool::WarmPoolConfig;
use crate::service::FsdService;
use fsd_comm::CloudConfig;
use fsd_faas::ComputeModel;
use fsd_model::SparseDnn;
use std::sync::Arc;

/// Builds an [`FsdService`] over a model.
pub struct ServiceBuilder {
    dnn: Arc<SparseDnn>,
    cfg: EngineConfig,
    prewarm: Vec<u32>,
    warm_pool: Option<WarmPoolConfig>,
    prewarm_trees: Vec<(Variant, u32, u32)>,
}

impl ServiceBuilder {
    /// Starts a builder for `dnn` with default configuration. Every
    /// [`Variant`] with a channel is served by its built-in transport
    /// ([`crate::Transport::of`]).
    pub fn new(dnn: Arc<SparseDnn>) -> ServiceBuilder {
        ServiceBuilder {
            dnn,
            cfg: EngineConfig::default(),
            prewarm: Vec::new(),
            warm_pool: None,
            prewarm_trees: Vec::new(),
        }
    }

    /// Replaces the whole raw configuration (migration aid for callers
    /// holding an [`EngineConfig`]).
    pub fn config(mut self, cfg: EngineConfig) -> ServiceBuilder {
        self.cfg = cfg;
        self
    }

    /// Sets the simulated cloud region parameters.
    pub fn cloud(mut self, cloud: CloudConfig) -> ServiceBuilder {
        self.cfg.cloud = cloud;
        self
    }

    /// Sets the FaaS compute-time model.
    pub fn compute(mut self, compute: ComputeModel) -> ServiceBuilder {
        self.cfg.compute = compute;
        self
    }

    /// Sets the channel tuning knobs.
    pub fn channel_options(mut self, channel: ChannelOptions) -> ServiceBuilder {
        self.cfg.channel = channel;
        self
    }

    /// Sets the partitioning seed.
    pub fn seed(mut self, seed: u64) -> ServiceBuilder {
        self.cfg.seed = seed;
        self
    }

    /// Enables λScale-style cold-start weight streaming
    /// ([`EngineConfig::stream_weights`]): cold tree launches provision
    /// instances flat straight from the control plane (no coordinator
    /// function cold-starts ahead of the workers), rank 0 multicasts
    /// weight blocks down the launch tree, and fetched blocks populate
    /// the service-wide [`crate::WeightCache`]. Off by default.
    pub fn weight_streaming(mut self, enabled: bool) -> ServiceBuilder {
        self.cfg.stream_weights = enabled;
        self
    }

    /// Convenience: seeds the region ([`CloudConfig::deterministic`]) and
    /// the partitioning with `seed`. Every region is deterministic; this
    /// only pins the seeds, as every test and validation run does.
    pub fn deterministic(mut self, seed: u64) -> ServiceBuilder {
        self.cfg.cloud = CloudConfig::deterministic(seed);
        self.cfg.seed = seed;
        self
    }

    /// Adds a worker count whose partition/artifacts are staged at build
    /// time. May be called repeatedly; duplicates are fine (staging is
    /// idempotent).
    pub fn prewarm(mut self, workers: u32) -> ServiceBuilder {
        self.prewarm.push(workers);
        self
    }

    /// Enables the warm-tree pool: up to `max_trees` launched worker trees
    /// stay parked between requests of the same `(variant, P, memory)`
    /// shape, so matching requests skip cold start, launch rounds and
    /// weight loads entirely ([`crate::LaunchPath::WarmHit`]). A parked
    /// tree that sits out `idle_ttl` subsequent requests is evicted — the
    /// pool clock ticks once per checkout, of any variant, Serial's
    /// one-rank tree included (`u64::MAX` never evicts). `max_trees = 0`
    /// disables the pool.
    pub fn warm_pool(mut self, max_trees: usize, idle_ttl: u64) -> ServiceBuilder {
        self.warm_pool = Some(WarmPoolConfig::new(max_trees, idle_ttl));
        self
    }

    /// Enables a predictor-sized warm pool: shelf and tick TTL derived
    /// from the expected workload shape via [`WarmPoolConfig::auto`] —
    /// room for `shapes` distinct `(variant, P, memory)` request shapes
    /// bursting up to `burst_depth` deep, with a tick TTL spanning four
    /// shelf turnovers. This is the sizing the `fsd-sched` predictor's
    /// burst targets are designed against; use it instead of hand-tuning
    /// `warm_pool(max, ttl)` when a predictive scheduler fronts the
    /// service.
    pub fn auto_warm_pool(mut self, shapes: usize, burst_depth: usize) -> ServiceBuilder {
        self.warm_pool = Some(WarmPoolConfig::auto(shapes, burst_depth));
        self
    }

    /// Launches and parks a warm tree for this shape at build time, so the
    /// very first matching request is already a warm hit. Requires
    /// [`ServiceBuilder::warm_pool`]; may be called repeatedly (each call
    /// parks one more tree).
    pub fn prewarm_tree(
        mut self,
        variant: Variant,
        workers: u32,
        memory_mb: u32,
    ) -> ServiceBuilder {
        self.prewarm_trees.push((variant, workers, memory_mb));
        self
    }

    /// Assembles the service, staging artifacts for every pre-warmed
    /// worker count and launching every pre-warmed tree.
    ///
    /// # Panics
    /// If `prewarm_tree` was used without an *enabled* `warm_pool`
    /// (`max_trees ≥ 1`), or a pre-warm launch fails (a build-time
    /// configuration bug, not a request error).
    pub fn build(self) -> FsdService {
        assert!(
            self.prewarm_trees.is_empty() || self.warm_pool.is_some_and(|w| w.max_trees > 0),
            "prewarm_tree requires an enabled warm_pool (max_trees >= 1)"
        );
        let service = FsdService::assemble(self.dnn, self.cfg, self.warm_pool);
        for p in self.prewarm {
            service.prepare(p);
        }
        for (variant, workers, memory_mb) in self.prewarm_trees {
            service
                .prewarm_tree(variant, workers, memory_mb)
                .expect("pre-warm tree launch failed at build time");
        }
        service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::ARTIFACT_BUCKET;
    use fsd_model::{generate_dnn, DnnSpec};
    use fsd_partition::PartitionScheme;

    fn dnn(seed: u64) -> Arc<SparseDnn> {
        Arc::new(generate_dnn(&DnnSpec {
            neurons: 48,
            layers: 2,
            nnz_per_row: 6,
            bias: -0.25,
            clip: 32.0,
            seed,
        }))
    }

    #[test]
    fn builder_threads_config_through() {
        let service = ServiceBuilder::new(dnn(1))
            .config(EngineConfig {
                scheme: PartitionScheme::Block,
                branching: Some(2),
                serial_memory_mb: 512,
                ..EngineConfig::default()
            })
            .deterministic(9)
            .build();
        assert_eq!(service.config().branching, Some(2));
        assert_eq!(service.config().seed, 9);
        assert_eq!(service.config().scheme, PartitionScheme::Block);
        assert_eq!(service.config().serial_memory_mb, 512);
    }

    #[test]
    fn prewarm_stages_artifacts_at_build_time() {
        let service = ServiceBuilder::new(dnn(2))
            .deterministic(2)
            .prewarm(3)
            .prewarm(1)
            .build();
        // Partitioned artifacts for P=3 and P=1 are already in the
        // artifact bucket; no request has run.
        let store = service.env().object_store();
        let staged = store.object_count(ARTIFACT_BUCKET, "");
        assert!(staged > 0, "prewarm must stage artifacts");
        // Preparing again is a no-op.
        service.prepare(3);
        assert_eq!(store.object_count(ARTIFACT_BUCKET, ""), staged);
    }
}
