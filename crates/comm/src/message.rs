//! Messages and service quotas.

use crate::time::VirtualTime;

/// AWS-documented quotas the paper designs against (Section III-A).
pub mod quota {
    /// Maximum messages per `PublishBatch` / `ReceiveMessage` response.
    pub const MAX_BATCH_MESSAGES: usize = 10;
    /// Maximum total payload bytes per publish batch (also the per-message cap).
    pub const MAX_PUBLISH_BYTES: usize = 256 * 1024;
    /// SNS billing granularity: one billed request per 64 KiB (or part).
    pub const BILLING_INCREMENT: usize = 64 * 1024;
}

/// Attributes carried alongside each message body — the paper attaches the
/// source worker id, the layer, and the total number of byte strings the
/// source will send to this target in this layer (so the receiver knows
/// when a source is complete). The `(flow, target)` pair drives the
/// SNS → SQS filter policy: `flow` isolates concurrent inference requests
/// sharing the region's topics, `target` routes within a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageAttributes {
    /// Request-flow id scoping the filter policy (one per inference run).
    pub flow: u64,
    /// Sending worker id.
    pub source: u32,
    /// Receiving worker id (filter-policy routing key within the flow).
    pub target: u32,
    /// Layer index the payload belongs to.
    pub layer: u32,
    /// Total byte strings `source` ships to `target` in `layer`.
    pub total_chunks: u32,
    /// Inference batch identifier (multi-batch requests).
    pub batch: u32,
}

/// A pub-sub / queue message: attributes plus an opaque byte-string body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub attributes: MessageAttributes,
    pub body: Vec<u8>,
}

impl Message {
    /// Body size in bytes (what quotas and billing look at).
    #[inline]
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

/// A message as it sits in a queue — and as a take hands it to the
/// consumer: stamped with the virtual time at which it becomes visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedMessage {
    pub available_at: VirtualTime,
    pub message: Message,
}

/// Errors raised by the simulated communication services.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// Publish batch exceeds [`quota::MAX_BATCH_MESSAGES`].
    TooManyMessages { got: usize },
    /// Publish batch or single message exceeds [`quota::MAX_PUBLISH_BYTES`].
    PayloadTooLarge { bytes: usize },
    /// Referenced topic was never created.
    NoSuchTopic { topic: usize },
    /// Referenced bucket was never created.
    NoSuchBucket { bucket: String },
    /// GET on a key that does not exist (or is not yet visible).
    NoSuchKey { key: String },
    /// Injected 5xx-class transient service failure; retryable.
    Unavailable { api: String },
    /// Injected 429-class throttle; retryable after backoff.
    Throttled { api: String },
    /// Injected permanent failure (targeted fault schedule); not
    /// retryable.
    Faulted { api: String },
}

impl CommError {
    /// Whether a bounded retry of the same call may succeed. Quota and
    /// missing-resource errors are logic errors — retrying them burns
    /// billed calls for nothing — so only injected transient/throttle
    /// failures qualify.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            CommError::Unavailable { .. } | CommError::Throttled { .. }
        )
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::TooManyMessages { got } => {
                write!(
                    f,
                    "publish batch of {got} messages exceeds {}",
                    quota::MAX_BATCH_MESSAGES
                )
            }
            CommError::PayloadTooLarge { bytes } => {
                write!(
                    f,
                    "payload of {bytes} bytes exceeds {}",
                    quota::MAX_PUBLISH_BYTES
                )
            }
            CommError::NoSuchTopic { topic } => write!(f, "topic {topic} does not exist"),
            CommError::NoSuchBucket { bucket } => write!(f, "bucket {bucket} does not exist"),
            CommError::NoSuchKey { key } => write!(f, "key {key} does not exist"),
            CommError::Unavailable { api } => {
                write!(f, "{api}: service unavailable (injected transient fault)")
            }
            CommError::Throttled { api } => write!(f, "{api}: throttled (injected fault)"),
            CommError::Faulted { api } => write!(f, "{api}: permanent injected fault"),
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_len_reports_body() {
        let m = Message {
            attributes: MessageAttributes {
                flow: 0,
                source: 0,
                target: 1,
                layer: 2,
                total_chunks: 3,
                batch: 0,
            },
            body: vec![1, 2, 3],
        };
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn errors_display() {
        assert!(CommError::TooManyMessages { got: 11 }
            .to_string()
            .contains("11"));
        assert!(CommError::PayloadTooLarge { bytes: 300_000 }
            .to_string()
            .contains("300000"));
        assert!(CommError::NoSuchKey { key: "a/b".into() }
            .to_string()
            .contains("a/b"));
    }
}
