//! What a failed request means to the scheduler, and what a rejected one is
//! told: [`FailureCause`] classifies errors for the counters and the retry
//! budget; `retry_after` computes the backpressure hint an
//! [`FsdError::Overloaded`] carries.

use fsd_comm::VirtualTime;
use fsd_core::FsdError;

/// Relative half-width of the seeded jitter applied to `retry_after`
/// hints, decorrelating retry herds: every rejected client of one
/// overload burst would otherwise be told the *same* instant to return.
pub(crate) const RETRY_HINT_JITTER: f64 = 0.1;

/// Fallback service-latency estimate for `retry_after` before the first
/// completion has seeded the EWMA (1 virtual second).
pub(crate) const DEFAULT_LATENCY_US: f64 = 1_000_000.0;

/// Why an admitted request failed — the scheduler's coarse classification
/// of [`FsdError`] for its counters and retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureCause {
    /// A communication-layer failure (transport fault, quota, codec).
    /// Retryable: the next attempt draws fresh fault decisions.
    Comm,
    /// A worker instance (or its whole tree) crashed mid-request.
    /// Retryable: the relaunch lands on fresh instances.
    InstanceCrash,
    /// A worker exceeded its runtime limit. **Not** retryable — the rerun
    /// would compute the same too-long answer and burn the bill twice.
    Timeout,
    /// Everything else (OOM, config errors, empty requests, a panicking
    /// worker). Not retryable: deterministic failures of the request
    /// itself, or a bug a retry would only hit again.
    Other,
}

impl FailureCause {
    /// Number of causes (dense-array sizing).
    pub const COUNT: usize = 4;

    /// Classifies a request error. Instance deaths travel as
    /// [`FsdError::Comm`] with the platform's launch/abort/tree op tags,
    /// so they are split out *before* the generic comm bucket.
    pub fn of(err: &FsdError) -> FailureCause {
        match err {
            FsdError::Comm(f) if matches!(f.op, "instance" | "abort" | "tree") => {
                FailureCause::InstanceCrash
            }
            FsdError::Comm(_) => FailureCause::Comm,
            FsdError::Timeout { .. } => FailureCause::Timeout,
            _ => FailureCause::Other,
        }
    }

    /// Dense index for per-cause arrays.
    pub fn index(self) -> usize {
        match self {
            FailureCause::Comm => 0,
            FailureCause::InstanceCrash => 1,
            FailureCause::Timeout => 2,
            FailureCause::Other => 3,
        }
    }

    /// Whether a failed attempt of this cause is worth re-admitting: comm
    /// faults and instance crashes are environmental and transient;
    /// timeouts and compute-side errors are properties of the request.
    pub fn is_retryable(self) -> bool {
        matches!(self, FailureCause::Comm | FailureCause::InstanceCrash)
    }
}

/// Backpressure hint: how long (virtual time) a `backlog` of requests
/// (queued + in flight + the rejected one) would take to drain a slot at
/// `global_cap` passes per wave of `latency_us` each — the per-launch-path
/// latency EWMAs blended by the observed warm/cold mix, so a warm pool that
/// starts absorbing traffic tightens the hint instead of being averaged
/// into the cold estimate ([`DEFAULT_LATENCY_US`] before the first
/// completion). A seeded ±[`RETRY_HINT_JITTER`] factor decorrelates the
/// herd (every client of one overload burst would otherwise be told the
/// same return instant); the jitter is a pure function of the region
/// `seed` and the rejection count `draw`. The hint as a whole is not: its
/// `latency_us` comes from EWMAs that executor threads fold in the order
/// completions really finish, so identically seeded replays can hint
/// differently (which is why `harness::replay_fleet` zeroes the EWMAs in
/// its report).
pub(crate) fn retry_after(
    backlog: usize,
    global_cap: usize,
    latency_us: f64,
    seed: u64,
    draw: u64,
) -> VirtualTime {
    let per = if latency_us > 0.0 {
        latency_us
    } else {
        DEFAULT_LATENCY_US
    };
    let waves = (backlog as f64 / global_cap as f64).ceil();
    let unit = fsd_comm::unit_from(fsd_comm::mix64(
        seed.rotate_left(17) ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    ));
    let factor = 1.0 - RETRY_HINT_JITTER + 2.0 * RETRY_HINT_JITTER * unit;
    VirtualTime::from_micros((per * waves * factor).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_causes_classify_and_gate_retry() {
        let crash = FsdError::Comm(fsd_faas::CommFailure {
            op: "instance",
            resource: "fsd-worker-1".into(),
            detail: "keep-alive instance terminated".into(),
        });
        assert_eq!(FailureCause::of(&crash), FailureCause::InstanceCrash);
        let comm = FsdError::Comm(fsd_faas::CommFailure {
            op: "publish",
            resource: "fsd-f1-q0".into(),
            detail: "unavailable".into(),
        });
        assert_eq!(FailureCause::of(&comm), FailureCause::Comm);
        let timeout = FsdError::Timeout {
            elapsed: VirtualTime::from_micros(2),
            limit: VirtualTime::from_micros(1),
        };
        assert_eq!(FailureCause::of(&timeout), FailureCause::Timeout);
        assert_eq!(
            FailureCause::of(&FsdError::EmptyRequest),
            FailureCause::Other
        );
        assert!(FailureCause::Comm.is_retryable());
        assert!(FailureCause::InstanceCrash.is_retryable());
        assert!(
            !FailureCause::Timeout.is_retryable(),
            "reruns recompute the same overrun"
        );
        assert!(!FailureCause::Other.is_retryable());
    }
}
