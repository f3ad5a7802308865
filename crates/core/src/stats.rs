//! Client-side channel statistics.
//!
//! The paper validates its cost model by capturing fine-grained per-layer /
//! per-batch metrics *inside the application* and comparing the predicted
//! charges against the AWS Cost & Usage report. [`ChannelStats`] plays the
//! application-side role here: channels count the work they believe they
//! did, the service meters (`fsd_comm::ServiceMeter`) independently count
//! what was billed. The counters live once, in [`ChannelStatsSnapshot`],
//! behind one lock; a carrier updates all the counters of one channel
//! operation in one [`ChannelStats::add`].

use parking_lot::Mutex;

/// Client-side counters, aggregated across all workers of a run.
#[derive(Debug, Default)]
pub struct ChannelStats(Mutex<ChannelStatsSnapshot>);

/// The client-side counters of one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStatsSnapshot {
    /// Billed SNS publish requests (client's own 64 KiB accounting): `S`.
    pub sns_billed: u64,
    /// `PublishBatch` API calls issued.
    pub sns_batches: u64,
    /// Messages handed to the pub-sub service.
    pub messages: u64,
    /// Payload bytes shipped through pub-sub (= SNS→SQS transfer): `Z`.
    pub bytes_sent: u64,
    /// SQS API calls (receive rounds + deletes): `Q`.
    pub sqs_calls: u64,
    /// Object PUT requests: `V`.
    pub s3_puts: u64,
    /// Object GET requests: `R`.
    pub s3_gets: u64,
    /// Object LIST requests: `L`.
    pub s3_lists: u64,
    /// Bytes written to object storage (diagnostics; not billed by S3).
    pub s3_bytes_put: u64,
    /// Pre-compression payload bytes (compression-effectiveness metric).
    pub bytes_precompress: u64,
    /// Direct-exchange punch handshakes performed.
    pub direct_punches: u64,
    /// Frames shipped over punched direct connections.
    pub direct_msgs: u64,
    /// Payload bytes shipped over punched direct connections (un-billed).
    pub direct_bytes: u64,
    /// Retries performed on idempotent ops after transient faults. Failed
    /// attempts are billed by the service meters, so under injected faults
    /// the service-side counts exceed these client-side logical counts by
    /// design (AWS semantics).
    pub retries: u64,
}

impl ChannelStatsSnapshot {
    /// Every counter, in declaration order.
    pub(crate) fn counters_mut(&mut self) -> [&mut u64; 14] {
        let ChannelStatsSnapshot {
            sns_billed,
            sns_batches,
            messages,
            bytes_sent,
            sqs_calls,
            s3_puts,
            s3_gets,
            s3_lists,
            s3_bytes_put,
            bytes_precompress,
            direct_punches,
            direct_msgs,
            direct_bytes,
            retries,
        } = self;
        [
            sns_billed,
            sns_batches,
            messages,
            bytes_sent,
            sqs_calls,
            s3_puts,
            s3_gets,
            s3_lists,
            s3_bytes_put,
            bytes_precompress,
            direct_punches,
            direct_msgs,
            direct_bytes,
            retries,
        ]
    }
}

impl ChannelStats {
    /// Fresh zeroed stats.
    pub fn new() -> ChannelStats {
        ChannelStats::default()
    }

    /// Applies one channel operation's counts, in one critical section.
    pub(crate) fn add(&self, f: impl FnOnce(&mut ChannelStatsSnapshot)) {
        f(&mut self.0.lock());
    }

    /// Copies the counters.
    pub fn snapshot(&self) -> ChannelStatsSnapshot {
        *self.0.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_adds() {
        let s = ChannelStats::new();
        s.add(|c| {
            c.sns_billed += 4;
            c.messages += 10;
        });
        s.add(|c| c.bytes_sent += 1000);
        let snap = s.snapshot();
        assert_eq!(snap.sns_billed, 4);
        assert_eq!(snap.messages, 10);
        assert_eq!(snap.bytes_sent, 1000);
        assert_eq!(snap.sqs_calls, 0);
    }
}
