//! The fully serverless communication channel abstraction.
//!
//! The FSI algorithms share one shape: per layer, each worker *sends* row
//! blocks to a set of targets, computes its local product, then *receives*
//! until every expected source has delivered. [`FsiChannel`] captures that
//! shape. The crate implements it once — the channel engine in
//! `carrier/mod.rs` — and runs that engine over four interchangeable
//! carriers: pub-sub/queueing (Algorithm 1), object storage (Algorithm 2),
//! their size-switched hybrid, and punched direct links.
//!
//! Collectives (`barrier`, `reduce`) are built on the same primitives using
//! reserved tags, exactly as the paper layers them on its channels.

use fsd_comm::quota;
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::SparseRows;
use std::collections::HashMap;

/// Tuning knobs shared by every built-in transport. Transient faults on
/// the idempotent operations (publish / PUT / GET / direct send) are
/// retried under the one fixed [`RetryPolicy`](crate::RetryPolicy); with
/// no faults injected it changes nothing.
#[derive(Debug, Clone, Copy)]
pub struct ChannelOptions {
    /// Long-poll wait `W` in seconds.
    pub long_poll_secs: f64,
    /// Whether payloads are compressed (ablation lever; paper uses ZLIB).
    pub compression: bool,
    /// Object channel: write 0-byte `.nul` markers for empty sends instead
    /// of `.dat` files the receiver must GET (ablation lever; paper §III-C2).
    pub nul_markers: bool,
    /// Queue channel: pack messages into multi-message publish batches
    /// (ablation lever; `false` = one message per publish, inflating `S`).
    pub packing: bool,
    /// Hybrid channel: per-target payloads whose serialized
    /// (pre-compression) size exceeds this many bytes are spilled to
    /// object storage and replaced in-queue by a pointer record; at or
    /// below it they ride the queue inline. Defaults to one publish quota
    /// — anything that would not fit a single message spills.
    pub spill_threshold: usize,
}

impl Default for ChannelOptions {
    fn default() -> Self {
        ChannelOptions {
            long_poll_secs: 2.0,
            compression: true,
            nul_markers: true,
            packing: true,
            spill_threshold: quota::MAX_PUBLISH_BYTES,
        }
    }
}

/// Message class carried in the `layer` attribute / key segment.
///
/// Layers use their index; collectives use reserved values well above any
/// real layer count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Intermediate results entering layer `k` (0-based).
    Layer(u32),
    /// Barrier round `r`: arrival (worker → root).
    BarrierArrive(u32),
    /// Barrier round `r`: release (root → workers).
    BarrierRelease(u32),
    /// Output reduction for batch `b` (worker → root).
    Reduce(u32),
}

const TAG_BARRIER_ARRIVE: u32 = 0xFFFF_0000;
const TAG_BARRIER_RELEASE: u32 = 0xFFFE_0000;
const TAG_REDUCE: u32 = 0xFFFD_0000;

impl Tag {
    /// Encodes into the 32-bit attribute field. Control tags carry 16 bits
    /// of round/batch and layers must stay below the lowest control base;
    /// a value that does not fit is an error (surfaced by the channel's
    /// `send_layer`/`receive_round`), never a silent alias of another tag.
    pub fn encode(self) -> Result<u32, FaasError> {
        let (base, value, limit) = match self {
            Tag::Layer(k) => (0, k, TAG_REDUCE),
            Tag::BarrierArrive(r) => (TAG_BARRIER_ARRIVE, r, 1 << 16),
            Tag::BarrierRelease(r) => (TAG_BARRIER_RELEASE, r, 1 << 16),
            Tag::Reduce(b) => (TAG_REDUCE, b, 1 << 16),
        };
        if value >= limit {
            return Err(FaasError::comm(
                "tag",
                self.key_segment(),
                format!("{value} does not fit the tag field (limit {limit})"),
            ));
        }
        Ok(base | value)
    }

    /// Decodes from the attribute field.
    pub fn decode(v: u32) -> Tag {
        match v & 0xFFFF_0000 {
            TAG_BARRIER_ARRIVE => Tag::BarrierArrive(v & 0xFFFF),
            TAG_BARRIER_RELEASE => Tag::BarrierRelease(v & 0xFFFF),
            TAG_REDUCE => Tag::Reduce(v & 0xFFFF),
            _ => Tag::Layer(v),
        }
    }

    /// Key segment for object-store paths.
    pub fn key_segment(self) -> String {
        match self {
            Tag::Layer(k) => format!("L{k}"),
            Tag::BarrierArrive(r) => format!("BA{r}"),
            Tag::BarrierRelease(r) => format!("BR{r}"),
            Tag::Reduce(b) => format!("RED{b}"),
        }
    }
}

/// Tracks which sources have completed delivery for one `(tag, receiver)`.
///
/// Queue-fed carriers: a source is complete when all `total_chunks` byte
/// strings have arrived (the count travels as a message attribute).
/// Object and direct carriers: a source is complete when its single
/// `.dat`/`.nul` file or frame has been seen (one chunk of one).
#[derive(Debug, Default)]
pub struct RecvTracker {
    /// Chunks received so far from each source that still owes data.
    pending: HashMap<u32, u32>,
}

impl RecvTracker {
    /// Tracker expecting one delivery from each listed source.
    pub fn expecting(sources: impl IntoIterator<Item = u32>) -> RecvTracker {
        RecvTracker {
            pending: sources.into_iter().map(|s| (s, 0)).collect(),
        }
    }

    /// Whether every source has fully delivered.
    pub fn done(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether `source` still owes data (the object carrier ignores `.dat`
    /// files from completed sources — the paper's redundant-read
    /// optimization).
    pub fn is_pending(&self, source: u32) -> bool {
        self.pending.contains_key(&source)
    }

    /// Records one received chunk from `source` announcing `total_chunks`
    /// (0 counts as 1: an empty send still produces one message). Unknown
    /// sources are ignored (stale redeliveries).
    pub fn record_chunk(&mut self, source: u32, total_chunks: u32) {
        if let Some(got) = self.pending.get_mut(&source) {
            *got += 1;
            if *got >= total_chunks.max(1) {
                self.pending.remove(&source);
            }
        }
    }
}

/// A fully serverless point-to-point channel for FSI.
///
/// Channels are **request-scoped**: [`crate::Transport::provision`] builds one
/// instance per inference flow, so client-side statistics and service
/// resources (queues, subscriptions, object prefixes) belong to exactly one
/// request and concurrent requests never share mutable channel state.
pub trait FsiChannel: Send + Sync {
    /// Client-side statistics collected by this channel instance
    /// (cost-model inputs; request-local by construction).
    fn stats(&self) -> &crate::stats::ChannelStats;

    /// Releases the per-request service resources this channel set up
    /// (filter-policy subscriptions, queues, namespaced objects). Called by
    /// the service once the request's worker tree has been joined; safe to
    /// call more than once. Straggler workers holding `Arc` handles keep
    /// working against the detached resources until their timeout binds.
    fn teardown(&self) {}

    /// Ships `sends` (target, rows — possibly empty) for `tag`. Packing,
    /// chunking, compression and API batching are channel concerns; the
    /// caller's clock is advanced by the modeled (multi-threaded) cost.
    fn send_layer(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        src: u32,
        sends: &[(u32, SparseRows)],
    ) -> Result<(), FaasError>;

    /// One receive round for `me`: returns zero or more `(source, rows)`
    /// blocks and updates `tracker`. Callers loop until `tracker.done()`,
    /// re-checking FaaS limits between rounds (a worker that waits past its
    /// timeout budget dies with [`FaasError::Timeout`]).
    fn receive_round(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError>;

    /// Receives until every source in `tracker` delivered; the common loop.
    fn receive_all(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError> {
        let mut all = Vec::new();
        while !tracker.done() {
            ctx.check_limits()?;
            let got = self.receive_round(ctx, tag, me, tracker)?;
            all.extend(got);
        }
        Ok(all)
    }
}

/// Barrier across all `n_workers` (paper line `barrier(P_all)`): everyone
/// reports to worker 0, which releases everyone. Built on the channel's own
/// primitives so it is exactly as serverless as the data path.
pub fn barrier(
    channel: &dyn FsiChannel,
    ctx: &mut WorkerCtx,
    me: u32,
    n_workers: u32,
    round: u32,
) -> Result<(), FaasError> {
    if n_workers <= 1 {
        return Ok(());
    }
    let empty = SparseRows::new(0);
    if me == 0 {
        let mut tracker = RecvTracker::expecting(1..n_workers);
        channel.receive_all(ctx, Tag::BarrierArrive(round), 0, &mut tracker)?;
        let releases: Vec<(u32, SparseRows)> = (1..n_workers).map(|w| (w, empty.clone())).collect();
        channel.send_layer(ctx, Tag::BarrierRelease(round), 0, &releases)?;
    } else {
        channel.send_layer(ctx, Tag::BarrierArrive(round), me, &[(0, empty)])?;
        let mut tracker = RecvTracker::expecting([0u32]);
        channel.receive_all(ctx, Tag::BarrierRelease(round), me, &mut tracker)?;
    }
    Ok(())
}

/// Reduce to worker 0 (paper line `reduce(P_0, x^L_m)`): every worker ships
/// its final rows for batch `batch` to the root, which merges them — in one
/// pass, into an exact-capacity block — into the inference result.
///
/// A sender's block is moved into its send slice and back, not copied, so
/// `mine` holds the same rows when this returns, sent or not.
pub fn reduce(
    channel: &dyn FsiChannel,
    ctx: &mut WorkerCtx,
    me: u32,
    n_workers: u32,
    mine: &mut SparseRows,
    batch: u32,
) -> Result<Option<SparseRows>, FaasError> {
    if n_workers <= 1 {
        return Ok(Some(mine.clone()));
    }
    if me == 0 {
        let mut tracker = RecvTracker::expecting(1..n_workers);
        let blocks = channel.receive_all(ctx, Tag::Reduce(batch), 0, &mut tracker)?;
        let parts: Vec<&SparseRows> = std::iter::once(&*mine)
            .chain(blocks.iter().map(|(_, block)| block))
            .collect();
        Ok(Some(SparseRows::merge_all(&parts)))
    } else {
        let mut slice = [(0, std::mem::take(mine))];
        let sent = channel.send_layer(ctx, Tag::Reduce(batch), me, &slice);
        *mine = std::mem::take(&mut slice[0].1);
        sent?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for tag in [
            Tag::Layer(0),
            Tag::Layer(119),
            Tag::BarrierArrive(0),
            Tag::BarrierArrive(7),
            Tag::BarrierRelease(7),
            Tag::Reduce(0),
            Tag::Reduce(3),
        ] {
            assert_eq!(Tag::decode(tag.encode().expect("fits")), tag, "{tag:?}");
        }
    }

    #[test]
    fn tag_key_segments_are_distinct() {
        let tags = [
            Tag::Layer(3),
            Tag::BarrierArrive(3),
            Tag::BarrierRelease(3),
            Tag::Reduce(3),
        ];
        let mut segs: Vec<String> = tags.iter().map(|t| t.key_segment()).collect();
        segs.sort();
        segs.dedup();
        assert_eq!(segs.len(), tags.len());
    }

    #[test]
    fn tags_that_do_not_fit_are_errors_not_aliases() {
        // 16 bits of round/batch: 65 535 round-trips, 65 536 used to alias 0.
        let last = Tag::Reduce(65_535);
        assert_eq!(Tag::decode(last.encode().expect("fits")), last);
        for tag in [
            Tag::Reduce(65_536),
            Tag::BarrierArrive(65_536),
            Tag::BarrierRelease(u32::MAX),
            Tag::Layer(0xFFFF_0001),
            // Below the old assert's bound, but decodes as `Reduce(5)`.
            Tag::Layer(0xFFFD_0005),
        ] {
            let err = tag.encode().expect_err("must not fit");
            assert!(
                matches!(err, FaasError::Comm(ref f) if f.op == "tag"),
                "{err}"
            );
        }
        let top = Tag::Layer(0xFFFC_FFFF);
        assert_eq!(Tag::decode(top.encode().expect("fits")), top);
    }

    #[test]
    fn tracker_multi_chunk_source() {
        let mut t = RecvTracker::expecting([1u32, 2]);
        assert!(!t.done());
        t.record_chunk(1, 3);
        t.record_chunk(1, 3);
        assert!(t.is_pending(1));
        t.record_chunk(1, 3);
        assert!(!t.is_pending(1));
        t.record_chunk(2, 1);
        assert!(t.done());
    }

    #[test]
    fn tracker_ignores_unknown_sources() {
        let mut t = RecvTracker::expecting([5u32]);
        t.record_chunk(9, 1);
        assert!(!t.done());
        t.record_chunk(5, 1);
        assert!(t.done());
    }

    #[test]
    fn tracker_zero_chunk_announcement_counts_as_one() {
        // An empty send still produces one (empty) message; total_chunks=0
        // is clamped so the source completes.
        let mut t = RecvTracker::expecting([1u32]);
        t.record_chunk(1, 0);
        assert!(t.done());
    }

    #[test]
    fn empty_tracker_is_done() {
        let t = RecvTracker::expecting([]);
        assert!(t.done());
    }
}
