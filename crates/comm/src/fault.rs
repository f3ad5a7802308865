//! Seeded fault injection for the simulated cloud services.
//!
//! Real SQS/SNS/S3/Lambda APIs fail transiently; the paper's
//! design (and every retry/degradation layer above it) has to survive
//! that. This module models those failures *deterministically*: every
//! injection decision is a pure hash of the plan seed, the API class, the
//! calling flow, the caller's virtual clock, and the resource name — no
//! hidden RNG state — so a chaos run replays bit-identically under the
//! same seed, and a fault-free run draws nothing at all (zero overhead,
//! zero baseline drift).
//!
//! Two surfaces:
//!
//! * a [`FaultPlan`] on `CloudConfig` — `Copy`, one transient-failure
//!   probability per API class (a throttle is handled exactly like a
//!   transient failure by every retry path, so it is not a second kind);
//! * runtime [`TargetedFault`] schedules installed on the live
//!   [`FaultPlane`] — "fail the next call of this class whose resource
//!   name matches" — for surgical tests (e.g. killing one warm worker).
//!
//! A targeted schedule fires on the first matching call in real order, so
//! it is meant for sequential test scenarios, not for races between
//! concurrent flows.

use crate::latency::splitmix;
use crate::message::CommError;
use crate::time::VirtualTime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The API classes fault injection distinguishes. Each class corresponds
/// to one billed (or, for deletes, lifecycle) cloud operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApiClass {
    /// SNS → SQS delivery of a published message into a target queue.
    QueueSend,
    /// SQS `ReceiveMessage` (settled through the visibility machinery).
    QueueReceive,
    /// SQS `DeleteMessageBatch`.
    QueueDelete,
    /// SNS `PublishBatch`.
    TopicPublish,
    /// S3 `PUT`.
    ObjectPut,
    /// S3 `GET`.
    ObjectGet,
    /// S3 `DELETE` (lifecycle cleanup; free and idempotent in-model).
    ObjectDelete,
    /// Lambda `Invoke` — launching a worker instance.
    InstanceLaunch,
    /// Direct-exchange NAT punch / pairwise connection handshake.
    DirectPunch,
    /// Weight-block frame forwarded down the launch cascade (multicast
    /// weight streaming; a fault aborts the stream mid-flight).
    WeightStream,
}

impl ApiClass {
    /// Number of API classes (per-class table width).
    pub const COUNT: usize = 10;

    /// Every class, in index order.
    pub const ALL: [ApiClass; Self::COUNT] = [
        ApiClass::QueueSend,
        ApiClass::QueueReceive,
        ApiClass::QueueDelete,
        ApiClass::TopicPublish,
        ApiClass::ObjectPut,
        ApiClass::ObjectGet,
        ApiClass::ObjectDelete,
        ApiClass::InstanceLaunch,
        ApiClass::DirectPunch,
        ApiClass::WeightStream,
    ];

    /// Dense index for per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            ApiClass::QueueSend => "queue-send",
            ApiClass::QueueReceive => "queue-receive",
            ApiClass::QueueDelete => "queue-delete",
            // fsd_lint::allow(raw-channel-name): API-class label, not a topic name.
            ApiClass::TopicPublish => "topic-publish",
            ApiClass::ObjectPut => "object-put",
            ApiClass::ObjectGet => "object-get",
            ApiClass::ObjectDelete => "object-delete",
            ApiClass::InstanceLaunch => "instance-launch",
            ApiClass::DirectPunch => "direct-punch",
            ApiClass::WeightStream => "weight-stream",
        }
    }
}

/// What kind of failure an injection produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// 5xx/429-class transient service failure — retryable after backoff.
    Transient,
    /// Permanent failure (targeted schedules only) — not retryable.
    Permanent,
}

impl FaultKind {
    /// The [`CommError`] an injection of this kind surfaces as.
    pub fn to_error(self, api: impl Into<String>) -> CommError {
        let api = api.into();
        match self {
            FaultKind::Transient => CommError::Unavailable { api },
            FaultKind::Permanent => CommError::Faulted { api },
        }
    }
}

/// A seeded, per-class fault-injection plan. `Copy` so it rides on
/// `CloudConfig`; runtime-only targeted schedules live on the
/// [`FaultPlane`] instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the decision hash chain (independent of the latency
    /// jitter seed so fault schedules can vary while timing stays fixed).
    pub seed: u64,
    /// Per-op probability of a transient failure, `[0, 1]`, indexed by
    /// [`ApiClass::index`].
    pub transient: [f64; ApiClass::COUNT],
}

impl FaultPlan {
    /// An inert plan (no class enabled) under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient: [0.0; ApiClass::COUNT],
        }
    }

    /// A plan injecting transient failures at `rate` on every class.
    pub fn uniform_transient(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            transient: [rate; ApiClass::COUNT],
        }
    }

    /// Sets one class's transient-failure probability.
    pub fn with_transient(mut self, class: ApiClass, rate: f64) -> FaultPlan {
        self.transient[class.index()] = rate;
        self
    }

    /// Whether any class can inject.
    pub fn is_enabled(&self) -> bool {
        self.transient.iter().any(|&rate| rate > 0.0)
    }
}

/// A one-shot targeted fault: fail the first call of `class` whose
/// resource name contains `resource_contains` (empty matches all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetedFault {
    /// API class to intercept.
    pub class: ApiClass,
    /// Substring predicate over the resource name (queue name, object
    /// key, topic name, function name). Empty matches every call.
    pub resource_contains: String,
    /// Failure kind the interception produces.
    pub kind: FaultKind,
}

impl TargetedFault {
    /// Fail the first matching call with a transient error.
    pub fn first(class: ApiClass, resource_contains: impl Into<String>) -> TargetedFault {
        TargetedFault {
            class,
            resource_contains: resource_contains.into(),
            kind: FaultKind::Transient,
        }
    }

    /// Same schedule, but the injected failure is permanent.
    pub fn permanent(mut self) -> TargetedFault {
        self.kind = FaultKind::Permanent;
        self
    }
}

struct TargetedState {
    fault: TargetedFault,
    fired: bool,
}

/// Point-in-time fault statistics, per API class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Injection decisions evaluated per class (only counted while a
    /// plan or targeted schedule is armed).
    pub checks: [u64; ApiClass::COUNT],
    /// Faults injected per class.
    pub injected: [u64; ApiClass::COUNT],
}

impl FaultStatsSnapshot {
    /// Total faults injected across all classes.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Faults injected for one class.
    pub fn injected_for(&self, class: ApiClass) -> u64 {
        self.injected[class.index()]
    }
}

/// The live fault-injection plane of one cloud region. Shared (via the
/// `CloudEnv`) by every simulated service; decisions are pure hashes, so
/// concurrent callers never contend on RNG state.
pub struct FaultPlane {
    plan: Option<FaultPlan>,
    targeted: Mutex<Vec<TargetedState>>,
    /// Count of unfired targeted entries — lock-free fast path.
    armed: AtomicUsize,
    /// Per-class counters stay atomics, unlike the meters': the
    /// probabilistic path that bumps them takes no lock.
    checks: [AtomicU64; ApiClass::COUNT],
    injected: [AtomicU64; ApiClass::COUNT],
}

impl FaultPlane {
    /// Builds the plane from an optional plan.
    pub(crate) fn new(plan: Option<FaultPlan>) -> FaultPlane {
        FaultPlane {
            plan: plan.filter(|p| p.is_enabled()),
            targeted: Mutex::new(Vec::new()),
            armed: AtomicUsize::new(0),
            checks: Default::default(),
            injected: Default::default(),
        }
    }

    /// A plane that never injects (standalone service tests).
    #[cfg(test)]
    pub(crate) fn disabled() -> FaultPlane {
        FaultPlane::new(None)
    }

    /// The probabilistic plan, if one is armed.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Whether anything (plan or targeted schedule) can currently inject.
    pub fn is_active(&self) -> bool {
        self.plan.is_some() || self.armed.load(Ordering::Relaxed) > 0
    }

    /// Installs a targeted fault schedule.
    pub fn inject(&self, fault: TargetedFault) {
        self.targeted.lock().push(TargetedState {
            fault,
            fired: false,
        });
        self.armed.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of installed-but-unfired targeted faults.
    pub fn pending_targets(&self) -> usize {
        self.armed.load(Ordering::Relaxed)
    }

    /// The injection decision for one API call: `class` op by `flow` at
    /// virtual time `now` on `resource`. Pure in (plan seed, class, flow,
    /// now, resource) for the probabilistic path; a targeted schedule is
    /// consumed by its first match. Returns the fault to inject, if any.
    pub fn check(
        &self,
        class: ApiClass,
        flow: u64,
        now: VirtualTime,
        resource: &str,
    ) -> Option<FaultKind> {
        if self.plan.is_none() && self.armed.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let i = class.index();
        self.checks[i].fetch_add(1, Ordering::Relaxed);
        if self.armed.load(Ordering::Relaxed) > 0 {
            let mut targeted = self.targeted.lock();
            for t in targeted.iter_mut() {
                if t.fired || t.fault.class != class {
                    continue;
                }
                if !t.fault.resource_contains.is_empty()
                    && !resource.contains(&t.fault.resource_contains)
                {
                    continue;
                }
                t.fired = true;
                self.armed.fetch_sub(1, Ordering::Relaxed);
                self.injected[i].fetch_add(1, Ordering::Relaxed);
                return Some(t.fault.kind);
            }
        }
        let plan = self.plan.as_ref()?;
        let rate = plan.transient[i];
        let fires = rate > 0.0 && decision_unit(plan.seed, class, flow, now, resource) < rate;
        if !fires {
            return None;
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        Some(FaultKind::Transient)
    }

    /// Current statistics.
    pub fn stats(&self) -> FaultStatsSnapshot {
        let mut snap = FaultStatsSnapshot::default();
        for i in 0..ApiClass::COUNT {
            snap.checks[i] = self.checks[i].load(Ordering::Relaxed);
            snap.injected[i] = self.injected[i].load(Ordering::Relaxed);
        }
        snap
    }
}

/// One step of the splitmix64 finalizer — the repo-wide deterministic
/// hash (also used for retry-backoff and hint jitter outside this crate).
pub fn mix64(z: u64) -> u64 {
    splitmix(z)
}

/// Uniform `[0, 1)` from a 64-bit hash.
pub fn unit_from(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over the resource name: decorrelates calls issued by different
/// lanes at the *same* virtual instant (parallel PUT/publish fan-outs).
fn resource_salt(resource: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in resource.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The pure decision draw. Retried calls naturally re-draw because every
/// failed attempt bills latency (and backoff) onto the caller's clock, so
/// `now` differs on the next attempt.
fn decision_unit(seed: u64, class: ApiClass, flow: u64, now: VirtualTime, resource: &str) -> f64 {
    let mut z = splitmix(seed ^ 0xD1B5_4A32_D192_ED03);
    z = splitmix(z ^ (class.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = splitmix(z ^ flow.rotate_left(17));
    z = splitmix(z ^ now.as_micros());
    z = splitmix(z ^ resource_salt(resource));
    unit_from(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plane_never_injects_or_counts() {
        let plane = FaultPlane::disabled();
        for class in ApiClass::ALL {
            for t in 0..50 {
                assert_eq!(
                    plane.check(class, 1, VirtualTime::from_micros(t), "r"),
                    None
                );
            }
        }
        assert_eq!(plane.stats().checks.iter().sum::<u64>(), 0);
        assert!(!plane.is_active());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultPlane::new(Some(FaultPlan::uniform_transient(7, 0.3)));
        let b = FaultPlane::new(Some(FaultPlan::uniform_transient(7, 0.3)));
        for class in ApiClass::ALL {
            for t in 0..200 {
                let now = VirtualTime::from_micros(t * 131);
                assert_eq!(a.check(class, 3, now, "res"), b.check(class, 3, now, "res"));
            }
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().injected_total() > 0, "rate 0.3 never fired");
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plane = FaultPlane::new(Some(
            FaultPlan::new(11).with_transient(ApiClass::ObjectGet, 0.2),
        ));
        let mut hits = 0;
        for t in 0..5000u64 {
            if plane
                .check(
                    ApiClass::ObjectGet,
                    5,
                    VirtualTime::from_micros(t * 997),
                    "k",
                )
                .is_some()
            {
                hits += 1;
            }
        }
        assert!(
            (700..1300).contains(&hits),
            "0.2 rate produced {hits}/5000 hits"
        );
        // Other classes untouched.
        assert_eq!(
            plane.check(ApiClass::ObjectPut, 5, VirtualTime::ZERO, "k"),
            None
        );
    }

    #[test]
    fn distinct_resources_decorrelate_at_the_same_instant() {
        let plane = FaultPlane::new(Some(
            FaultPlan::new(3).with_transient(ApiClass::ObjectPut, 0.5),
        ));
        let now = VirtualTime::from_micros(1000);
        let mut outcomes = std::collections::HashSet::new();
        for k in 0..64 {
            outcomes.insert(
                plane
                    .check(ApiClass::ObjectPut, 9, now, &format!("f9/key-{k}"))
                    .is_some(),
            );
        }
        assert_eq!(outcomes.len(), 2, "resource salt failed to decorrelate");
    }

    #[test]
    fn targeted_fault_fires_on_first_match_once() {
        let plane = FaultPlane::disabled();
        plane.inject(TargetedFault::first(ApiClass::ObjectGet, "f3/"));
        assert!(plane.is_active());
        assert_eq!(plane.pending_targets(), 1);
        let now = VirtualTime::ZERO;
        // Non-matching resource never counts.
        assert_eq!(plane.check(ApiClass::ObjectGet, 1, now, "f4/x"), None);
        // Wrong class never counts.
        assert_eq!(plane.check(ApiClass::ObjectPut, 1, now, "f3/x"), None);
        assert_eq!(
            plane.check(ApiClass::ObjectGet, 1, now, "f3/a"),
            Some(FaultKind::Transient)
        );
        // One-shot: consumed after firing.
        assert_eq!(plane.check(ApiClass::ObjectGet, 1, now, "f3/b"), None);
        assert_eq!(plane.pending_targets(), 0);
        assert_eq!(plane.stats().injected_for(ApiClass::ObjectGet), 1);
    }

    /// The whole decision stream over a fixed grid, folded into one FNV-1a
    /// digest: a uniform plan, and a per-class plan with two targeted
    /// schedules armed. Any change to the draw, the rate comparison or the
    /// targeted matching moves it.
    #[test]
    fn fault_decision_stream_is_pinned() {
        const RESOURCES: [&str; 4] = ["", "q", "f9/key-3", "bucket-7/L2/x"];
        let uniform = FaultPlane::new(Some(FaultPlan::uniform_transient(7, 0.3)));
        let per_class = FaultPlane::new(Some(
            FaultPlan::new(11)
                .with_transient(ApiClass::ObjectGet, 0.2)
                .with_transient(ApiClass::TopicPublish, 0.5),
        ));
        per_class.inject(TargetedFault::first(ApiClass::ObjectGet, "f9/"));
        per_class.inject(TargetedFault::first(ApiClass::QueueSend, "").permanent());
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for plane in [&uniform, &per_class] {
            for class in ApiClass::ALL {
                for flow in [0u64, 1, 3, 42] {
                    for t in 0..64u64 {
                        for resource in RESOURCES {
                            let now = VirtualTime::from_micros(t * 131);
                            let outcome = match plane.check(class, flow, now, resource) {
                                None => 0u8,
                                Some(FaultKind::Transient) => 1,
                                Some(FaultKind::Permanent) => 2,
                            };
                            digest ^= outcome as u64;
                            digest = digest.wrapping_mul(0x100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 0xf0f7_f367_09f6_1bc5, "decision stream moved");
    }

    #[test]
    fn fault_kinds_map_to_errors() {
        assert!(FaultKind::Transient.to_error("x").is_retryable());
        assert!(!FaultKind::Permanent.to_error("x").is_retryable());
    }
}
