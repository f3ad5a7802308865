//! Bounded retry with exponential backoff and seeded jitter.
//!
//! Transient service faults (see `fsd_comm::FaultPlan`) surface as
//! [`CommError::Unavailable`]; this module gives the channels one
//! deterministic recovery loop around them, under one fixed policy — as a
//! deployment runs every AWS call under one SDK retry configuration:
//! 4 attempts, backoff doubling from 10 ms up to 160 ms, jittered by ±25 %
//! (the constants below).
//!
//! **Idempotence contract.** A retry loop may wrap only operations that are
//! all-or-nothing in the communication model:
//!
//! * `publish_batch` — a failed publish bills its requests but delivers
//!   *nothing*, so republishing the same batch cannot duplicate messages;
//! * object `put` — a failed PUT bills but stores nothing;
//! * object `get` — a pure read.
//!
//! Queue **receives and deletes are never wrapped here**: redelivery of an
//! unsettled message is the visibility-timeout machinery's job, and the
//! channels' `settle_receives` path already reconstructs the billed poll
//! sequence — including fault-injected unproductive rounds, and each
//! faulted delete re-billed on the background clock its deletes run on —
//! deterministically. The `retry-idempotent` lint (`fsd-analysis`)
//! enforces this allowlist.
//!
//! **Determinism.** Backoff jitter is a pure hash of the clock's
//! `(flow, now, attempt)`, so a replay under the same fault seed sleeps the
//! same virtual durations and re-draws the same fault decisions. Failed
//! attempts have already advanced the clock and billed their requests
//! (AWS semantics: you pay for the call that failed).

use fsd_comm::{mix64, unit_from, CommError, VClock};

/// Total attempts, the first included.
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the first retry, in virtual microseconds.
const BASE_BACKOFF_US: u64 = 10_000;
/// Backoff ceiling (exponential doubling is clamped here).
const MAX_BACKOFF_US: u64 = 160_000;
/// Jitter half-width as a fraction of the backoff (0.25 ⇒ ±25%).
const JITTER: f64 = 0.25;

/// The retry policy for transient communication faults. It changes
/// nothing when no faults are injected, because retries only trigger on
/// retryable [`CommError`]s.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy;

impl RetryPolicy {
    /// The jittered backoff before retry number `attempt` (1-based), drawn
    /// deterministically from the clock position so replays are identical.
    fn backoff_us(self, clock: &VClock, attempt: u32) -> u64 {
        let exp = BASE_BACKOFF_US
            .saturating_mul(1u64 << (attempt - 1).min(16))
            .min(MAX_BACKOFF_US);
        let h = mix64(
            clock
                .flow()
                .rotate_left(23)
                .wrapping_add(clock.now().as_micros())
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ attempt as u64,
        );
        let factor = 1.0 - JITTER + 2.0 * JITTER * unit_from(h);
        ((exp as f64) * factor).round() as u64
    }

    /// Runs `op` under the policy: retries on retryable [`CommError`]s,
    /// advancing `clock` by the jittered backoff between attempts. Returns
    /// the final outcome plus the number of retries performed (0 on
    /// first-attempt success), which callers fold into their client-side
    /// stats.
    ///
    /// `op` receives the clock so every attempt — including failed ones —
    /// bills its latency and charges at the attempt's own virtual instant.
    pub fn run<T>(
        self,
        clock: &mut VClock,
        mut op: impl FnMut(&mut VClock) -> Result<T, CommError>,
    ) -> (Result<T, CommError>, u64) {
        let mut retries = 0u64;
        loop {
            match op(clock) {
                Ok(v) => return (Ok(v), retries),
                Err(e) if e.is_retryable() && (retries as u32) < MAX_ATTEMPTS - 1 => {
                    retries += 1;
                    clock.advance_micros(self.backoff_us(clock, retries as u32));
                }
                Err(e) => return (Err(e), retries),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_comm::VirtualTime;

    fn clock() -> VClock {
        VClock::starting_at(VirtualTime::ZERO).with_flow(7)
    }

    #[test]
    fn first_attempt_success_is_free() {
        let mut c = clock();
        let (res, retries) = RetryPolicy.run(&mut c, |_| Ok::<_, CommError>(42));
        assert_eq!(res.expect("ok"), 42);
        assert_eq!(retries, 0);
        assert_eq!(c.now(), VirtualTime::ZERO, "no backoff on success");
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        let mut c = clock();
        let mut calls = 0u32;
        let (res, retries) = RetryPolicy.run(&mut c, |_| {
            calls += 1;
            if calls < 3 {
                Err(CommError::Unavailable { api: "x".into() })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(res.expect("recovered"), 3);
        assert_eq!(retries, 2);
        assert!(c.now() > VirtualTime::ZERO, "backoff advanced the clock");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let mut c = clock();
        let mut calls = 0u32;
        let (res, retries) = RetryPolicy.run(&mut c, |_| {
            calls += 1;
            Err::<(), _>(CommError::Faulted { api: "x".into() })
        });
        assert!(res.is_err());
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
    }

    #[test]
    fn attempts_are_bounded() {
        let mut c = clock();
        let mut calls = 0u32;
        let (res, retries) = RetryPolicy.run(&mut c, |_| {
            calls += 1;
            Err::<(), _>(CommError::Unavailable { api: "x".into() })
        });
        assert!(res.is_err());
        assert_eq!(calls, MAX_ATTEMPTS);
        assert_eq!(retries, (MAX_ATTEMPTS - 1) as u64);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let c = clock();
        for attempt in 1..=3 {
            let a = RetryPolicy.backoff_us(&c, attempt);
            let b = RetryPolicy.backoff_us(&c, attempt);
            assert_eq!(a, b, "same clock position ⇒ same jitter");
            let exp = (BASE_BACKOFF_US << (attempt - 1)).min(MAX_BACKOFF_US) as f64;
            assert!((a as f64) >= exp * (1.0 - JITTER) - 1.0);
            assert!((a as f64) <= exp * (1.0 + JITTER) + 1.0);
        }
        // Doubling: attempt 2's band sits above attempt 1's.
        let a1 = RetryPolicy.backoff_us(&c, 1) as f64;
        let a2 = RetryPolicy.backoff_us(&c, 2) as f64;
        assert!(a2 > a1 * (1.0 - 2.0 * JITTER));
    }
}
