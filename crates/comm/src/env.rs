//! The shared cloud environment: services + meters + timing sources.

use crate::direct::DirectNet;
use crate::fault::{FaultPlan, FaultPlane};
use crate::latency::LatencyModel;
use crate::meter::{MeterSnapshot, ServiceMeter};
use crate::object::ObjectStore;
use crate::pubsub::PubSub;
use crate::queue::SqsQueue;
use crate::stream::WeightNet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Parallel pub-sub topics every region pre-creates (the paper uses 10).
pub const N_TOPICS: usize = 10;

/// Object-storage buckets every region pre-creates, named
/// [`bucket_name`]`(0..N_BUCKETS)` (the paper uses 10).
pub const N_BUCKETS: usize = 10;

/// Configuration of a simulated cloud region. Its shape — [`N_TOPICS`]
/// topics and [`N_BUCKETS`] buckets — is fixed, as the paper fixes it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CloudConfig {
    /// Service latency/bandwidth model.
    pub latency: LatencyModel,
    /// Seed of the jitter on the scheduler's `retry_after` hints, the only
    /// draw the region seeds (fault plans carry their own
    /// [`FaultPlan::seed`]). It fixes the jitter, not the hint: the hint's
    /// latency term comes from EWMAs folded in real completion order.
    pub seed: u64,
    /// Optional seeded fault-injection plan (chaos testing). `None`
    /// draws nothing and adds no overhead.
    pub faults: Option<FaultPlan>,
}

impl CloudConfig {
    /// The default region under `seed`. Every region is deterministic;
    /// this only seeds it.
    pub fn deterministic(seed: u64) -> CloudConfig {
        CloudConfig {
            seed,
            ..CloudConfig::default()
        }
    }

    /// Arms the fault-injection plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> CloudConfig {
        self.faults = Some(plan);
        self
    }
}

/// What every service of a region shares: the billing meter, the latency
/// model and the fault plane.
#[derive(Clone)]
pub(crate) struct Region {
    pub(crate) meter: Arc<ServiceMeter>,
    pub(crate) latency: LatencyModel,
    pub(crate) faults: Arc<FaultPlane>,
}

impl Region {
    fn new(config: &CloudConfig) -> Region {
        Region {
            meter: Arc::new(ServiceMeter::new()),
            latency: config.latency,
            faults: Arc::new(FaultPlane::new(config.faults)),
        }
    }

    /// A default region with no fault plan (standalone service tests;
    /// targeted faults can still be injected on `faults`).
    #[cfg(test)]
    pub(crate) fn deterministic() -> Region {
        Region::new(&CloudConfig::deterministic(1))
    }
}

/// One simulated cloud region holding all communication services. Shared
/// (via `Arc`) by every FaaS worker thread in a run.
pub struct CloudEnv {
    config: CloudConfig,
    region: Region,
    pubsub: PubSub,
    store: ObjectStore,
    direct: DirectNet,
    weights: WeightNet,
    queues: Mutex<HashMap<String, Arc<SqsQueue>>>,
}

impl CloudEnv {
    /// Brings up a region: pre-creates topics and buckets (named
    /// `bucket-{i}`), mirroring the paper's pre-created resources.
    pub fn new(config: CloudConfig) -> Arc<CloudEnv> {
        let region = Region::new(&config);
        let store = ObjectStore::new(region.clone());
        for i in 0..N_BUCKETS {
            store.create_bucket(&bucket_name(i));
        }
        Arc::new(CloudEnv {
            config,
            pubsub: PubSub::new(N_TOPICS, region.clone()),
            store,
            direct: DirectNet::new(region.clone()),
            weights: WeightNet::new(region.clone()),
            region,
            queues: Mutex::new(HashMap::new()),
        })
    }

    /// The region's configuration.
    pub fn config(&self) -> &CloudConfig {
        &self.config
    }

    /// The latency model used by all services.
    pub fn latency(&self) -> &LatencyModel {
        &self.config.latency
    }

    /// The shared billing meter.
    pub fn meter(&self) -> &ServiceMeter {
        &self.region.meter
    }

    /// Convenience: snapshot of the billing meter.
    pub fn snapshot(&self) -> MeterSnapshot {
        self.region.meter.snapshot()
    }

    /// Convenience: removes a flow's billing bucket, returning its final
    /// window (request teardown).
    pub fn release_flow(&self, flow: u64) -> MeterSnapshot {
        self.region.meter.release_flow(flow)
    }

    /// The region's fault-injection plane (inert unless a plan or a
    /// targeted schedule is armed).
    pub fn faults(&self) -> &FaultPlane {
        &self.region.faults
    }

    /// The pub-sub service.
    pub fn pubsub(&self) -> &PubSub {
        &self.pubsub
    }

    /// The object store.
    pub fn object_store(&self) -> &ObjectStore {
        &self.store
    }

    /// The direct-exchange fabric (punched connections).
    pub fn direct(&self) -> &DirectNet {
        &self.direct
    }

    /// The weight-multicast fabric (cold-launch weight streaming).
    pub fn weight_net(&self) -> &WeightNet {
        &self.weights
    }

    /// Creates (or returns) the queue with the given name. Queues are
    /// pre-created per worker before inference, at no idle cost.
    pub fn queue(&self, name: &str) -> Arc<SqsQueue> {
        self.queues
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(SqsQueue::new(name.to_string(), self.region.clone())))
            .clone()
    }

    /// Removes a queue from the region (request teardown). Live `Arc`
    /// handles held by straggler workers stay valid; the queue simply stops
    /// being discoverable. Returns the removed queue, if any.
    pub fn remove_queue(&self, name: &str) -> Option<Arc<SqsQueue>> {
        self.queues.lock().remove(name)
    }

    /// Number of live queues in the region (diagnostics/tests).
    // fsd_lint::allow(orphan-pub): inspection surface of other crates' channel unit tests
    pub fn queue_count(&self) -> usize {
        self.queues.lock().len()
    }

    /// Wakes every receiver parked in a raw receive of the region — on
    /// every live queue, the object store and both mailboxes — so that one
    /// whose abort flag is raised ([`crate::install_abort`]) returns. Call
    /// it after raising a flag: a receiver whose producer died has nothing
    /// else to wake it.
    pub fn wake_receivers(&self) {
        let queues: Vec<Arc<SqsQueue>> = self.queues.lock().values().cloned().collect();
        for queue in queues {
            queue.wake_receivers();
        }
        self.store.wake_receivers();
        self.direct.wake_receivers();
        self.weights.wake_receivers();
    }

    /// Leak audit: everything per-request still alive in the region, as
    /// human-readable descriptions. Empty means clean.
    ///
    /// Covered: live queues, filter-policy subscriptions on every topic,
    /// objects left in the data buckets (`bucket-{i}`), punched direct
    /// connections and their undrained frames, undrained weight frames,
    /// and per-flow billing windows still open on the meter. Buckets
    /// outside the `bucket-{i}` set (e.g. the artifact bucket holding
    /// staged model weights) are deliberately long-lived and not audited
    /// here; `FsdService::audit` checks the staged inputs there.
    ///
    /// The audit requires quiescence: it must not run while requests are
    /// in flight, or their legitimately-live resources read as leaks. The
    /// serving path therefore never calls it; `FsdService::audit` does,
    /// once the service is quiescent.
    pub fn residue_report(&self) -> Vec<String> {
        let mut residue = Vec::new();
        let mut note = |count: usize, what: &str| {
            if count > 0 {
                residue.push(format!("{count} {what}"));
            }
        };
        note(self.queue_count(), "live queue(s)");
        for t in 0..self.pubsub.n_topics() {
            let on = format!("subscription(s) on {}", crate::pubsub::topic_name(t));
            note(self.pubsub.subscription_count(t), &on);
        }
        for i in 0..N_BUCKETS {
            let name = bucket_name(i);
            note(
                self.store.object_count(&name, ""),
                &format!("object(s) in {name}"),
            );
        }
        note(
            self.direct.connection_count(),
            "punched direct connection(s)",
        );
        note(self.direct.undrained_frames(), "undrained direct frame(s)");
        note(self.weights.undrained_frames(), "undrained weight frame(s)");
        note(self.region.meter.tracked_flows(), "tracked billing flow(s)");
        residue
    }
}

/// Canonical bucket naming: `bucket-{i}` as in the paper's examples.
pub fn bucket_name(i: usize) -> String {
    format!("bucket-{i}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VClock;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn env_precreates_buckets_and_topics() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        assert_eq!(env.pubsub().n_topics(), N_TOPICS);
        for i in 0..N_BUCKETS {
            assert!(
                env.object_store().bucket_exists(&bucket_name(i)),
                "bucket {i}"
            );
        }
    }

    #[test]
    fn queue_is_created_once_and_shared() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let a = env.queue("worker-3");
        let b = env.queue("worker-3");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.name(), "worker-3");
    }

    #[test]
    fn raising_the_flag_and_waking_returns_every_parked_receiver_empty() {
        type Take = Box<dyn FnOnce(&CloudEnv) -> usize + Send>;
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let queue = env.queue("w");
        let takes: [(&str, Take); 4] = [
            (
                "queue take",
                Box::new(move |_| queue.take_visible(10).len()),
            ),
            (
                "object scan",
                Box::new(|env| {
                    let store = env.object_store();
                    store
                        .scan_keys(&bucket_name(0), "none/", 0)
                        .expect("bucket")
                        .len()
                }),
            ),
            (
                "direct fetch",
                Box::new(|env| env.direct().fetch(1, 0, "L0", 0).len()),
            ),
            (
                "weight fetch",
                Box::new(|env| env.weight_net().fetch(1, 0, 0).len()),
            ),
        ];
        for (fabric, take) in takes {
            let flag = Arc::new(AtomicBool::new(false));
            let receiver = {
                let (env, flag) = (env.clone(), flag.clone());
                std::thread::spawn(move || {
                    crate::install_abort(flag);
                    take(&env)
                })
            };
            // Parked or not yet started, the receiver must come back; the
            // pause only lets the assert catch one that did not wait.
            std::thread::sleep(Duration::from_millis(50));
            assert!(!receiver.is_finished(), "{fabric}: nothing to take parks");
            flag.store(true, Ordering::Release);
            env.wake_receivers();
            assert_eq!(receiver.join().expect(fabric), 0, "{fabric}");
        }
        assert_eq!(env.snapshot(), MeterSnapshot::default(), "no bills");
    }

    #[test]
    fn meter_is_shared_across_services() {
        let env = CloudEnv::new(CloudConfig::deterministic(1));
        let mut clock = VClock::default();
        env.object_store()
            .put(&bucket_name(1), "k", &b"v"[..], &mut clock)
            .expect("put");
        env.queue("w0").empty_poll(&mut clock, 1.0);
        let snap = env.snapshot();
        assert_eq!(snap.s3_put_requests, 1);
        assert_eq!(snap.sqs_api_calls, 1);
    }
}
