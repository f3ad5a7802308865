//! Channel providers: uniform construction of communication backends.
//!
//! Each backend registers under a name in a [`ChannelRegistry`]; the
//! service looks the name up per request and provisions a
//! **request-scoped** channel instance (FMI-style uniform channel
//! interface). The four built-in transports are one provider type — the
//! channel engine bound to a different carrier (see `carrier/mod.rs`) —
//! and custom transports plug in through
//! `ServiceBuilder::register_channel` without touching the request path.

use crate::carrier::{DirectCarrier, Engine, HybridCarrier, ObjectCarrier, QueueCarrier};
use crate::channel::{ChannelOptions, FsiChannel};
use crate::engine::Variant;
use fsd_comm::CloudEnv;
use std::collections::HashMap;
use std::sync::Arc;

/// Builds request-scoped channel instances for one transport backend.
pub trait ChannelProvider: Send + Sync {
    /// Registry name (`"queue"`, `"object"`, …).
    fn name(&self) -> &'static str;

    /// Creates a channel for one request: `n_workers` ranks, tuned by
    /// `opts`, with every service resource namespaced by `flow`.
    fn provision(
        &self,
        env: &Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<dyn FsiChannel>;
}

/// Provider of one built-in transport: the channel engine over the
/// variant's carrier.
struct Builtin {
    name: &'static str,
    bind: fn(&Arc<CloudEnv>, u32, ChannelOptions, u64) -> Arc<dyn FsiChannel>,
}

impl ChannelProvider for Builtin {
    fn name(&self) -> &'static str {
        self.name
    }

    fn provision(
        &self,
        env: &Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<dyn FsiChannel> {
        (self.bind)(env, n_workers, opts, flow)
    }
}

/// The provider registry consulted by the service per request.
pub struct ChannelRegistry {
    providers: HashMap<&'static str, Arc<dyn ChannelProvider>>,
}

impl ChannelRegistry {
    /// An empty registry.
    pub fn empty() -> ChannelRegistry {
        ChannelRegistry {
            providers: HashMap::new(),
        }
    }

    /// A registry holding the built-in transports, assembled by iterating
    /// [`Variant::ALL`] with an exhaustive match: a new variant with a
    /// channel fails to compile (and fails the `variant-exhaustive` lint)
    /// right here until its carrier is wired in, so the registry list can
    /// never drift from the enum.
    pub fn with_builtins() -> ChannelRegistry {
        let mut r = ChannelRegistry::empty();
        for v in Variant::ALL {
            let bind = match v {
                Variant::Serial | Variant::Auto => continue,
                Variant::Queue => Engine::<QueueCarrier>::bind,
                Variant::Object => Engine::<ObjectCarrier>::bind,
                Variant::Hybrid => Engine::<HybridCarrier>::bind,
                Variant::Direct => Engine::<DirectCarrier>::bind,
            };
            let name = v
                .channel_name()
                .expect("variants with a carrier name a channel");
            r.register(Arc::new(Builtin { name, bind }));
        }
        r
    }

    /// Registers (or replaces) a provider under its name.
    pub fn register(&mut self, provider: Arc<dyn ChannelProvider>) {
        self.providers.insert(provider.name(), provider);
    }

    /// Looks a provider up by name.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn ChannelProvider>> {
        self.providers.get(name)
    }

    /// Registered provider names, sorted for stable diagnostics.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.providers.keys().copied().collect();
        names.sort_unstable();
        names
    }
}

impl Default for ChannelRegistry {
    fn default() -> ChannelRegistry {
        ChannelRegistry::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_comm::CloudConfig;

    #[test]
    fn builtins_are_registered() {
        let r = ChannelRegistry::with_builtins();
        assert_eq!(r.names(), vec!["direct", "hybrid", "object", "queue"]);
        assert!(r.get("queue").is_some());
        assert!(r.get("object").is_some());
        assert!(r.get("hybrid").is_some());
        assert!(r.get("direct").is_some());
        assert!(r.get("warp").is_none());
    }

    #[test]
    fn providers_build_scoped_channels() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let r = ChannelRegistry::with_builtins();
        let q = r
            .get("queue")
            .expect("queue")
            .provision(&env, 3, ChannelOptions::default(), 7);
        // Three queues created for flow 7, each subscribed on every topic.
        assert_eq!(env.queue_count(), 3);
        assert_eq!(env.pubsub().subscription_count(0), 3);
        q.teardown();
        assert_eq!(env.queue_count(), 0);
        assert_eq!(env.pubsub().subscription_count(0), 0);
        let _o = r
            .get("object")
            .expect("object")
            .provision(&env, 3, ChannelOptions::default(), 7);
    }

    #[test]
    fn hybrid_provider_leaks_nothing_on_teardown() {
        // The hybrid channel holds queue-side *and* object-side resources;
        // teardown must release both, leaving the region exactly as found.
        let env = CloudEnv::new(CloudConfig::deterministic(2));
        let r = ChannelRegistry::with_builtins();
        let h = r
            .get("hybrid")
            .expect("hybrid")
            .provision(&env, 4, ChannelOptions::default(), 9);
        assert_eq!(env.queue_count(), 4);
        for t in 0..env.pubsub().n_topics() {
            assert_eq!(env.pubsub().subscription_count(t), 4);
        }
        h.teardown();
        assert_eq!(env.queue_count(), 0, "hybrid queues leaked");
        for t in 0..env.pubsub().n_topics() {
            assert_eq!(
                env.pubsub().subscription_count(t),
                0,
                "hybrid subscriptions leaked on topic {t}"
            );
        }
        for i in 0..env.config().n_buckets {
            assert_eq!(
                env.object_store().object_count(&fsd_comm::bucket_name(i)),
                0,
                "hybrid objects leaked in bucket {i}"
            );
        }
    }

    #[test]
    fn registration_replaces_by_name() {
        let builtins = ChannelRegistry::with_builtins();
        let queue = builtins.get("queue").expect("queue");
        let mut r = ChannelRegistry::empty();
        r.register(queue.clone());
        r.register(queue.clone());
        assert_eq!(r.names(), vec!["queue"]);
    }
}
