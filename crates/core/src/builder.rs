//! [`ServiceBuilder`]: typed construction of an [`FsdService`].
//!
//! The builder replaces the old `FsdInference::new(dnn, EngineConfig)`
//! two-argument constructor with named, composable configuration — cloud
//! region, compute model, channel tuning, partition scheme, custom channel
//! providers, and a pre-warm list of worker counts whose artifacts are
//! partitioned and staged at build time (so first requests skip the offline
//! step, exactly the "a priori, not per request" discipline of §III).

use crate::channel::ChannelOptions;
use crate::engine::{EngineConfig, Variant};
use crate::pool::WarmPoolConfig;
use crate::provider::{ChannelProvider, ChannelRegistry};
use crate::service::FsdService;
use fsd_comm::CloudConfig;
use fsd_faas::ComputeModel;
use fsd_model::SparseDnn;
use fsd_partition::PartitionScheme;
use std::sync::Arc;

/// Builds an [`FsdService`] over a model.
pub struct ServiceBuilder {
    dnn: Arc<SparseDnn>,
    cfg: EngineConfig,
    registry: ChannelRegistry,
    prewarm: Vec<u32>,
    warm_pool: Option<WarmPoolConfig>,
    prewarm_trees: Vec<(Variant, u32, u32)>,
}

impl ServiceBuilder {
    /// Starts a builder for `dnn` with default configuration and the
    /// built-in queue/object channel providers.
    pub fn new(dnn: Arc<SparseDnn>) -> ServiceBuilder {
        ServiceBuilder {
            dnn,
            cfg: EngineConfig::default(),
            registry: ChannelRegistry::with_builtins(),
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

    /// Sets the launch-tree branching factor.
    pub fn branching(mut self, branching: usize) -> ServiceBuilder {
        self.cfg.branching = branching;
        self
    }

    /// Sets the partitioning scheme for distributed variants.
    pub fn partition_scheme(mut self, scheme: PartitionScheme) -> ServiceBuilder {
        self.cfg.scheme = scheme;
        self
    }

    /// Sets the partitioning seed.
    pub fn seed(mut self, seed: u64) -> ServiceBuilder {
        self.cfg.seed = seed;
        self
    }

    /// Sets the FSD-Inf-Serial instance memory (tests lower it to exercise
    /// OOM paths; the paper uses Lambda's maximum).
    pub fn serial_memory_mb(mut self, memory_mb: u32) -> ServiceBuilder {
        self.cfg.serial_memory_mb = memory_mb;
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

    /// Convenience: jitter-free region and partitioning seeded with `seed`
    /// (the deterministic setup every test and validation run uses).
    pub fn deterministic(mut self, seed: u64) -> ServiceBuilder {
        self.cfg.cloud = CloudConfig::deterministic(seed);
        self.cfg.seed = seed;
        self
    }

    /// Registers a custom channel provider (replacing any provider already
    /// registered under the same name).
    pub fn register_channel(mut self, provider: Arc<dyn ChannelProvider>) -> ServiceBuilder {
        self.registry.register(provider);
        self
    }

    /// Drops all registered channel providers (test hook for exercising
    /// the unknown-channel path; a real deployment keeps the builtins).
    pub fn clear_channels(mut self) -> ServiceBuilder {
        self.registry = ChannelRegistry::empty();
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
    /// tree that sits out `idle_ttl` subsequent *distributed* requests is
    /// evicted — the pool clock ticks once per Queue/Object checkout;
    /// Serial requests run no tree and do not age the shelf (`u64::MAX`
    /// never evicts). `max_trees = 0` disables the pool.
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
        let service = FsdService::assemble(self.dnn, self.cfg, self.registry, self.warm_pool);
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
            .deterministic(9)
            .branching(2)
            .partition_scheme(PartitionScheme::Block)
            .serial_memory_mb(512)
            .build();
        assert_eq!(service.config().branching, 2);
        assert_eq!(service.config().seed, 9);
        assert_eq!(service.config().scheme, PartitionScheme::Block);
        assert_eq!(service.config().serial_memory_mb, 512);
        assert_eq!(
            service.channel_names(),
            vec!["direct", "hybrid", "object", "queue"]
        );
    }

    #[test]
    fn prewarm_stages_artifacts_at_build_time() {
        let service = ServiceBuilder::new(dnn(2))
            .deterministic(2)
            .prewarm(3)
            .prewarm(1)
            .build();
        // Partitioned artifacts for P=3 and the full model are already in
        // the artifact bucket; no request has run.
        assert_eq!(service.requests_served(), 0);
        let staged = service.env().object_store().object_count(ARTIFACT_BUCKET);
        assert!(staged > 0, "prewarm must stage artifacts");
        // Preparing again is a no-op.
        service.prepare(3);
        assert_eq!(
            service.env().object_store().object_count(ARTIFACT_BUCKET),
            staged
        );
    }
}
