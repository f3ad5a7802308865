//! Carrier binding. The transports are a fixed menu (paper §VI-A), so
//! [`Transport::of`] binds each [`Variant`] to its carrier — the channel
//! engine over it (see `carrier/mod.rs`) — in one exhaustive `match`: a
//! new variant fails to compile (and the `variant-exhaustive` lint) here
//! until its carrier is wired in.

use crate::carrier::{DirectCarrier, Engine, HybridCarrier, ObjectCarrier, QueueCarrier};
use crate::channel::{ChannelOptions, FsiChannel};
use crate::engine::Variant;
use fsd_comm::CloudEnv;
use std::sync::Arc;

/// One built-in transport: the channel engine over a variant's carrier.
#[derive(Clone, Copy)]
pub struct Transport {
    bind: fn(&Arc<CloudEnv>, u32, ChannelOptions, u64) -> Arc<dyn FsiChannel>,
}

impl Transport {
    /// The transport `variant` runs on; `None` for Auto, which resolves
    /// into another variant first.
    pub fn of(variant: Variant) -> Option<Transport> {
        let bind = match variant {
            Variant::Auto => return None,
            // A Serial tree has one rank and no peer: the engine returns on
            // its empty sends and its collectives at `n_workers <= 1`, so
            // the carrier is never used. The direct carrier provisions and
            // bills nothing, which makes the channel free.
            Variant::Serial => Engine::<DirectCarrier>::bind,
            Variant::Queue => Engine::<QueueCarrier>::bind,
            Variant::Object => Engine::<ObjectCarrier>::bind,
            Variant::Hybrid => Engine::<HybridCarrier>::bind,
            Variant::Direct => Engine::<DirectCarrier>::bind,
        };
        Some(Transport { bind })
    }

    /// Creates a **request-scoped** channel: `n_workers` ranks, tuned by
    /// `opts`, with every service resource namespaced by `flow`.
    pub fn provision(
        self,
        env: &Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<dyn FsiChannel> {
        (self.bind)(env, n_workers, opts, flow)
    }
}

/// Name-keyed access to the built-in transports, for callers holding a
/// [`Variant::channel_name`] rather than a variant.
pub struct ChannelRegistry;

impl ChannelRegistry {
    /// The built-in transports.
    pub fn with_builtins() -> ChannelRegistry {
        ChannelRegistry
    }

    /// The transport whose channel is named `name`.
    pub fn get(&self, name: &str) -> Option<Transport> {
        Variant::from_channel_name(name).and_then(Transport::of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_comm::CloudConfig;

    #[test]
    fn variant_names_round_trip() {
        let registry = ChannelRegistry::with_builtins();
        for v in Variant::ALL {
            // Every variant but Auto runs on a transport; Serial's has no
            // service names, so it has no channel name either.
            assert_eq!(Transport::of(v).is_some(), v != Variant::Auto, "{v}");
            if let Some(name) = v.channel_name() {
                assert_eq!(Variant::from_channel_name(name), Some(v), "{v}");
                assert!(registry.get(name).is_some(), "{v}");
            }
        }
        for name in ["serial", "auto", "warp"] {
            assert_eq!(Variant::from_channel_name(name), None, "{name}");
            assert!(registry.get(name).is_none(), "{name}");
        }
    }

    #[test]
    fn transports_build_scoped_channels() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let q = Transport::of(Variant::Queue).expect("queue").provision(
            &env,
            3,
            ChannelOptions::default(),
            7,
        );
        // Three queues created for flow 7, each subscribed on every topic.
        assert_eq!(env.queue_count(), 3);
        assert_eq!(env.pubsub().subscription_count(0), 3);
        q.teardown();
        assert_eq!(env.queue_count(), 0);
        assert_eq!(env.pubsub().subscription_count(0), 0);
        let _o = Transport::of(Variant::Object).expect("object").provision(
            &env,
            3,
            ChannelOptions::default(),
            7,
        );
    }

    #[test]
    fn hybrid_transport_leaks_nothing_on_teardown() {
        // The hybrid channel holds queue-side *and* object-side resources;
        // teardown must release both, leaving the region exactly as found.
        let env = CloudEnv::new(CloudConfig::deterministic(2));
        let h = Transport::of(Variant::Hybrid).expect("hybrid").provision(
            &env,
            4,
            ChannelOptions::default(),
            9,
        );
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
        for i in 0..fsd_comm::N_BUCKETS {
            assert_eq!(
                env.object_store().object_count(&fsd_comm::bucket_name(i)),
                0,
                "hybrid objects leaked in bucket {i}"
            );
        }
    }
}
