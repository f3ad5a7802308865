//! The unified, structured error type of the public serving API.
//!
//! Everything a request can die of is enumerated here: the two FaaS limits
//! the paper designs against, structured communication failures (wrapping
//! [`CommFailure`] rather than a formatted string), and the service-level
//! conditions (a refused request, missing output, scheduler admission). Deep engine
//! plumbing keeps using [`fsd_faas::FaasError`] — function bodies run under
//! the FaaS platform and must speak its error type — and the service maps
//! it at the boundary via `From`.

use fsd_comm::VirtualTime;
use fsd_faas::{CommFailure, FaasError};

/// Errors returned by the `FsdService` request path.
#[derive(Debug, Clone, PartialEq)]
pub enum FsdError {
    /// A worker's resident data exceeded its configured memory.
    OutOfMemory {
        /// Bytes resident when the limit tripped.
        used_bytes: usize,
        /// The instance's configured limit.
        limit_bytes: usize,
    },
    /// A worker exceeded the platform's maximum runtime.
    Timeout {
        /// Virtual runtime at the kill.
        elapsed: VirtualTime,
        /// The configured limit.
        limit: VirtualTime,
    },
    /// A communication or codec operation failed.
    Comm(CommFailure),
    /// A worker instance panicked: a bug in the engine, surfaced as the
    /// request's failure instead of hanging its peers.
    Panic {
        /// The instance's function name.
        instance: String,
        /// The panic's message.
        detail: String,
    },
    /// The request carried no batches.
    EmptyRequest,
    /// A request field (or the setting Serial runs on in its place) is
    /// outside what the platform can run; nothing was staged or billed.
    InvalidRequest {
        /// The field: `memory_mb`, or `serial_memory_mb` for Serial.
        field: &'static str,
        /// The value it carried.
        value: u32,
        /// The smallest value allowed.
        min: u32,
        /// The largest value allowed.
        max: u32,
    },
    /// The run completed but the root worker produced no final output
    /// (an engine invariant violation, surfaced instead of masked).
    MissingOutput,
    /// The run completed but produced no worker reports, so latency and
    /// billing attribution would be meaningless (an engine invariant
    /// violation, previously masked as a zero latency).
    NoWorkerReports,
    /// The scheduler's admission queue for the request's priority class is
    /// full: explicit backpressure instead of unbounded buffering. The
    /// caller should retry after `retry_after` (virtual time, estimated
    /// from the current backlog and observed service latency).
    Overloaded {
        /// Suggested virtual-time backoff before retrying.
        retry_after: VirtualTime,
    },
    /// The scheduler is draining for shutdown and accepts no new requests.
    ShuttingDown,
    /// The scheduler has no model registered under this name.
    UnknownModel {
        /// The name the request addressed.
        name: String,
    },
}

impl std::fmt::Display for FsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsdError::OutOfMemory {
                used_bytes,
                limit_bytes,
            } => {
                write!(
                    f,
                    "out of memory: {used_bytes} bytes used, limit {limit_bytes}"
                )
            }
            FsdError::Timeout { elapsed, limit } => {
                write!(f, "worker timed out: ran {elapsed}, limit {limit}")
            }
            FsdError::Comm(failure) => write!(f, "communication failure: {failure}"),
            FsdError::Panic { instance, detail } => {
                write!(f, "worker {instance} panicked: {detail}")
            }
            FsdError::EmptyRequest => write!(f, "request carried no batches"),
            FsdError::InvalidRequest {
                field,
                value,
                min,
                max,
            } => write!(f, "{field} {value} outside [{min}, {max}]"),
            FsdError::MissingOutput => write!(f, "root worker returned no final output"),
            FsdError::NoWorkerReports => write!(f, "run produced no worker reports"),
            FsdError::Overloaded { retry_after } => {
                write!(f, "scheduler overloaded: retry after {retry_after}")
            }
            FsdError::ShuttingDown => write!(f, "scheduler is shutting down"),
            FsdError::UnknownModel { name } => {
                write!(f, "no model registered under {name:?}")
            }
        }
    }
}

impl std::error::Error for FsdError {}

impl From<FaasError> for FsdError {
    fn from(e: FaasError) -> FsdError {
        match e {
            FaasError::OutOfMemory {
                used_bytes,
                limit_bytes,
            } => FsdError::OutOfMemory {
                used_bytes,
                limit_bytes,
            },
            FaasError::Timeout { elapsed, limit } => FsdError::Timeout { elapsed, limit },
            FaasError::Comm(failure) => FsdError::Comm(failure),
            FaasError::Panic { instance, detail } => FsdError::Panic { instance, detail },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faas_errors_map_structurally() {
        let oom = FaasError::OutOfMemory {
            used_bytes: 10,
            limit_bytes: 5,
        };
        assert_eq!(
            FsdError::from(oom),
            FsdError::OutOfMemory {
                used_bytes: 10,
                limit_bytes: 5
            }
        );
        let to = FaasError::Timeout {
            elapsed: VirtualTime::from_micros(9),
            limit: VirtualTime::from_micros(3),
        };
        assert!(matches!(FsdError::from(to), FsdError::Timeout { .. }));
        let comm = FaasError::comm("get", "bucket/key", "no such key");
        match FsdError::from(comm) {
            FsdError::Comm(failure) => {
                assert_eq!(failure.op, "get");
                assert_eq!(failure.resource, "bucket/key");
            }
            other => panic!("expected Comm, got {other:?}"),
        }
    }

    #[test]
    fn scheduler_errors_display() {
        let overloaded = FsdError::Overloaded {
            retry_after: VirtualTime::from_secs_f64(1.5),
        };
        assert!(overloaded.to_string().contains("retry after"));
        assert!(FsdError::ShuttingDown.to_string().contains("shutting down"));
    }

    #[test]
    fn displays_are_informative() {
        assert!(FsdError::EmptyRequest.to_string().contains("no batches"));
        let invalid = FsdError::InvalidRequest {
            field: "memory_mb",
            value: 64,
            min: 128,
            max: 10_240,
        };
        assert_eq!(invalid.to_string(), "memory_mb 64 outside [128, 10240]");
        assert!(FsdError::MissingOutput
            .to_string()
            .contains("no final output"));
        assert!(FsdError::NoWorkerReports
            .to_string()
            .contains("no worker reports"));
    }
}
