//! # fsd-comm — simulated serverless communication services
//!
//! The substrate replacing AWS in this reproduction: SNS-like pub-sub with
//! filter-policy fan-out ([`PubSub`]), SQS-like long-polled queues
//! ([`SqsQueue`]), S3-like object storage ([`ObjectStore`]), FMI-style
//! direct exchange ([`DirectNet`]) and λScale-style weight multicast
//! ([`WeightNet`]) — all sharing one billing meter ([`ServiceMeter`]) and a
//! deterministic latency model ([`LatencyModel`]). The meter is a
//! [`FlowLedger`]: a total and one window per request flow, both written
//! by each event in one critical section; the Lambda meter in `fsd-faas`
//! is the same ledger over its own counters.
//!
//! **Timing model.** Latencies are *modeled in virtual time*, not slept:
//! each worker carries a [`VClock`]; payloads are stamped with virtual
//! availability times; receivers join their clock against the stamps. Real
//! threads still move real bytes, so distributed executions are genuinely
//! concurrent while timing stays reproducible. See `DESIGN.md` §2.
//!
//! **One receive protocol: raw take → settle from stamps.** Every fabric
//! receives in two steps. The *take* ([`SqsQueue::take_visible`],
//! [`ObjectStore::scan_keys`], [`DirectNet::fetch`], [`WeightNet::fetch`])
//! waits, untimed, for producer threads and hands back stamped payloads —
//! no billing, no clock movement, no visibility filter. Only an abort ends
//! the wait early: a function instance installs its tree's poison flag
//! ([`install_abort`]), and whoever raises it calls
//! [`CloudEnv::wake_receivers`].
//! The *settle* ([`SqsQueue::settle_receives`],
//! [`ObjectStore::settle_scans`], [`DirectNet::settle_recv`]) then
//! reconstructs, from the stamps alone, the call sequence the paper's
//! receive loops (Alg. 1 long-poll + delete, Alg. 2 prefix rescan) would
//! have issued, bills it and advances the clock through it — except the
//! queue's `DeleteMessageBatch` calls, which nothing downstream waits for:
//! they run on a background clock forked from the receiver's, and the
//! settle returns the instant the last one lands for the caller to join
//! before its billing window closes. A receive bills and moves a clock
//! only in `settle_*` — a take that comes back empty bills nothing — so
//! billing and virtual time are functions of the workload, never of
//! thread timing.
//!
//! ```
//! use fsd_comm::{bucket_name, CloudConfig, CloudEnv, VClock};
//!
//! let env = CloudEnv::new(CloudConfig::deterministic(7));
//! let mut clock = VClock::default();
//! env.object_store().put(&bucket_name(0), "k", &b"v"[..], &mut clock).unwrap();
//! let body = env.object_store().get(&bucket_name(0), "k", &mut clock).unwrap();
//! assert_eq!(&body[..], b"v");
//! assert_eq!(env.snapshot().s3_put_requests, 1);
//! ```
#![forbid(unsafe_code)]

mod direct;
mod env;
mod fault;
mod latency;
mod mailbox;
mod message;
mod meter;
mod object;
mod pubsub;
mod queue;
mod stream;
mod time;

pub use direct::{DirectFrame, DirectNet};
pub use env::{bucket_name, CloudConfig, CloudEnv, N_BUCKETS, N_TOPICS};
pub use fault::{
    mix64, unit_from, ApiClass, FaultKind, FaultPlan, FaultPlane, FaultStatsSnapshot, TargetedFault,
};
pub use latency::LatencyModel;
pub use mailbox::install_abort;
pub use message::{quota, CommError, Message, MessageAttributes, QueuedMessage};
pub use meter::{FlowLedger, MeterSnapshot, ServiceMeter};
pub use object::ObjectStore;
pub use pubsub::{topic_name, PubSub};
pub use queue::SqsQueue;
pub use stream::{WeightFrame, WeightNet, WeightPayload};
pub use time::{VClock, VirtualTime};
