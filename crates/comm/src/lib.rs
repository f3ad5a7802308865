//! # fsd-comm — simulated serverless communication services
//!
//! The substrate replacing AWS in this reproduction: SNS-like pub-sub with
//! filter-policy fan-out ([`PubSub`]), SQS-like queues with long/short
//! polling ([`SqsQueue`]), and S3-like object storage ([`ObjectStore`]) —
//! all sharing one billing meter ([`ServiceMeter`]) and a deterministic
//! latency/jitter model ([`LatencyModel`]).
//!
//! **Timing model.** Latencies are *modeled in virtual time*, not slept:
//! each worker carries a [`VClock`]; payloads are stamped with virtual
//! availability times; receivers join their clock against the stamps. Real
//! threads still move real bytes, so distributed executions are genuinely
//! concurrent while timing stays reproducible. See `DESIGN.md` §2.
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
mod grace;
mod latency;
mod message;
mod meter;
mod object;
mod pubsub;
mod queue;
mod stream;
mod time;

pub use direct::{DirectFrame, DirectNet};
pub use env::{bucket_name, CloudConfig, CloudEnv};
pub use fault::{
    mix64, unit_from, ApiClass, ClassFaults, FaultKind, FaultPlan, FaultPlane, FaultStatsSnapshot,
    TargetedFault,
};
pub use latency::{Jitter, LatencyModel};
pub use message::{quota, CommError, Message, MessageAttributes, QueuedMessage, ReceivedMessage};
pub use meter::{MeterSnapshot, ServiceMeter};
pub use object::ObjectStore;
pub use pubsub::{topic_name, PubSub};
pub use queue::{PollKind, SqsQueue};
pub use stream::{WeightFrame, WeightNet, WeightPayload};
pub use time::{VClock, VirtualTime};
