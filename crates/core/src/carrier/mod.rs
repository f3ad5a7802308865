//! The one channel engine and the carriers it runs over.
//!
//! Every built-in transport is the same algorithm (FSI Algorithms 1 and 2
//! are one shape, and FMI layers its collectives over interchangeable
//! channels the same way), so it is written once, in [`Engine`]:
//!
//! * **send** — the carrier *frames* each target's rows into parcels,
//!   calling back into [`Core::encode`] (serialize + compress + charge the
//!   worker); the engine then *puts* every parcel on the worker's
//!   [`Lanes`] (earliest-free lane, slowest-lane join), each put running
//!   under the retry policy ([`Core::retried`]);
//! * **receive** — a raw *take* of new arrivals with **no billing and no
//!   clock movement**, stashed per `(receiver, tag)` while the tracker
//!   fills (a round with nothing new for the tag — an aborted take, or
//!   a queue take of other tags' messages — is empty: the caller
//!   re-checks its limits and asks again); once the tag completes, the
//!   whole arrival set is sorted by stamp, *settled* (the billed receive
//!   sequence is reconstructed from the stamps alone; a queue's deletes
//!   run behind the worker, which joins the last of them only when its
//!   billing window closes), then each arrival
//!   is opened on the same kind of lane pool — a GET of a stored body
//!   overlaps the others; an inline body moves no lane — and decoded
//!   ([`Core::decode`]) on the worker once its lane has landed — so
//!   per-request timing and billing never depend on how real threads
//!   happened to batch the arrivals, or on how late they ran.
//!
//! Both ends work in [`FrameBufs`] the calling rank takes from its
//! service's [`FramePool`] for one frame: a frame is serialized,
//! compressed and inflated in reused buffers and index tables, so the
//! only allocations per frame are the body the fabric keeps and,
//! received, the block it decodes to.
//!
//! A [`Carrier`] supplies only what differs between transports: its
//! service resources, its framing, one put, one raw take, its settle
//! call, its sort key, and how a stored body is opened.
//! [`QueueCarrier`], [`ObjectCarrier`] and [`DirectCarrier`] are the three
//! fabrics; [`HybridCarrier`] owns no fabric code — it composes the queue
//! and object carriers behind a size predicate and a 1-byte frame tag.

use crate::channel::{ChannelOptions, FsiChannel, RecvTracker, Tag};
use crate::lanes::Lanes;
use crate::recycle::Recycler;
use crate::retry::RetryPolicy;
use crate::stats::ChannelStats;
use fsd_comm::{CloudEnv, CommError, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_sparse::compress::LzTables;
use fsd_sparse::{codec, compress, SparseRows};
use parking_lot::Mutex;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

mod direct;
mod hybrid;
mod object;
mod queue;

pub(crate) use direct::DirectCarrier;
pub(crate) use hybrid::HybridCarrier;
pub(crate) use object::ObjectCarrier;
pub(crate) use queue::QueueCarrier;

/// Single-thread payload-processing throughputs (bytes/second on one full
/// vCPU) — the CPU property behind the paper's serialization/compression
/// overheads, independent of the kernel-work compute model.
const ENCODE_BPS: f64 = 150e6;
const COMPRESS_BPS: f64 = 60e6;
const DECODE_BPS: f64 = 140e6;

/// What every transport shares, owned once by the engine and lent to the
/// carrier on each call.
pub(crate) struct Core {
    pub(crate) env: Arc<CloudEnv>,
    pub(crate) flow: u64,
    pub(crate) n_workers: u32,
    pub(crate) opts: ChannelOptions,
    pub(crate) stats: ChannelStats,
    /// Where [`Core::encode`] and [`Core::decode`] take their buffers.
    frames: Arc<FramePool>,
}

/// The buffers one frame is built or read in. They grow to the largest
/// frame they have served.
#[derive(Default)]
pub(crate) struct FrameBufs {
    /// A block's codec bytes: serialized into before compression,
    /// inflated into before decoding.
    plain: Vec<u8>,
    /// The frame being built: a carrier's prefix, then the wire body.
    wire: Vec<u8>,
    lz: LzTables,
}

/// A service's idle [`FrameBufs`]. A rank takes a set for one frame and
/// gives it back after, so the sets are as many as the frames ever built
/// or read at once — not one per rank, request or parked instance — and
/// each has grown to the frames before it.
pub(crate) type FramePool = Recycler<FrameBufs>;

impl Core {
    fn new(
        env: &Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
        frames: &Arc<FramePool>,
    ) -> Core {
        Core {
            env: env.clone(),
            flow,
            n_workers,
            opts,
            stats: ChannelStats::new(),
            frames: frames.clone(),
        }
    }

    /// Serializes (and optionally compresses) a block behind `prefix`,
    /// charging the worker, and hands the frame — `prefix`, then the wire
    /// body — to `keep`, which copies out what the fabric stores.
    pub(crate) fn encode<T>(
        &self,
        ctx: &mut WorkerCtx,
        rows: &SparseRows,
        prefix: &[u8],
        keep: impl FnOnce(&[u8]) -> T,
    ) -> T {
        self.frames.with(|FrameBufs { plain, wire, lz }| {
            wire.clear();
            wire.extend_from_slice(prefix);
            let encoded = if self.opts.compression {
                plain.clear();
                codec::encode_into(rows, plain);
                compress::compress_into(plain, wire, lz);
                plain.len()
            } else {
                codec::encode_into(rows, wire);
                wire.len() - prefix.len()
            } as u64;
            ctx.charge_bytes(encoded, ENCODE_BPS);
            self.stats.add(|s| s.bytes_precompress += encoded);
            if self.opts.compression {
                ctx.charge_bytes(encoded, COMPRESS_BPS);
            }
            keep(wire)
        })
    }

    /// Decodes a wire body produced by [`Core::encode`], charging the
    /// worker.
    fn decode(&self, ctx: &mut WorkerCtx, body: &[u8]) -> Result<SparseRows, FaasError> {
        ctx.charge_bytes(body.len() as u64, DECODE_BPS);
        let mut rows = SparseRows::default();
        let mut decode = |encoded: &[u8]| {
            codec::decode_into(encoded, &mut rows).map_err(|e| FaasError::comm("decode", "", e))
        };
        if self.opts.compression {
            self.frames.with(|bufs| {
                compress::decompress_into(body, &mut bufs.plain)
                    .map_err(|e| FaasError::comm("decompress", "", e))?;
                decode(&bufs.plain)
            })?;
        } else {
            decode(body)?;
        }
        Ok(rows)
    }

    /// Runs one **idempotent** service op under the retry policy (a
    /// faulted publish / PUT / punch bills but delivers nothing and a GET
    /// is a pure read, so repeating the call cannot duplicate an effect;
    /// each failed attempt has already advanced `clock`), counting the
    /// retries and naming the op and resource if it fails for good.
    pub(crate) fn retried<T>(
        &self,
        clock: &mut VClock,
        op: &'static str,
        resource: impl FnOnce() -> String,
        attempt: impl FnMut(&mut VClock) -> Result<T, CommError>,
    ) -> Result<T, FaasError> {
        let (res, retries) = RetryPolicy.run(clock, attempt);
        self.stats.add(|s| s.retries += retries);
        res.map_err(|e| FaasError::comm(op, resource(), e))
    }
}

/// `n` as a `u32` frame field (a chunk count, a key length), or a
/// `"frame"` error that fails the send — never a silent wrap.
pub(crate) fn frame_field(n: usize, field: &'static str) -> Result<u32, FaasError> {
    u32::try_from(n)
        .map_err(|_| FaasError::comm("frame", field, format!("{n} does not fit a u32 field")))
}

/// One channel call as the carrier sees it: the shared state plus the tag
/// (checked once, by [`Engine::call`]) and the calling worker.
pub(crate) struct Cx<'a> {
    core: &'a Core,
    pub(crate) tag: Tag,
    /// [`Tag::encode`]d form: the `layer` message attribute and inbox key.
    pub(crate) code: u32,
    /// The caller: the source when sending, the receiver when receiving.
    pub(crate) rank: u32,
}

impl std::ops::Deref for Cx<'_> {
    type Target = Core;
    fn deref(&self) -> &Core {
        self.core
    }
}

/// One raw arrival, as taken from the carrier's fabric.
pub(crate) struct Arrival<B> {
    /// Encoded tag it was sent under (a queue hands over whatever is
    /// visible, so this may not be the tag being received).
    pub(crate) tag: u32,
    /// Virtual instant it became available to the receiver.
    pub(crate) stamp: VirtualTime,
    pub(crate) src: u32,
    /// How many arrivals complete `src` for this tag.
    pub(crate) total_chunks: u32,
    pub(crate) body: B,
}

/// The wire payload behind one arrival.
pub(crate) enum Wire<'a> {
    /// It travelled in the arrival itself.
    Inline(&'a [u8]),
    /// It was fetched from object storage.
    Fetched(Arc<[u8]>),
}

/// `None` for an empty-send marker: there is nothing to decode.
pub(crate) type Opened<'a> = Result<Option<Wire<'a>>, FaasError>;
pub(crate) type Sends = [(u32, SparseRows)];

/// What differs between transports. Everything here is load-bearing for
/// byte-identical virtual time across the refactor that introduced it —
/// the consts and the sort key are carrier *data*, not tunables.
pub(crate) trait Carrier: Send + Sync + Sized + 'static {
    /// What one lane op ships: a publish batch, one object, one frame.
    type Parcel;
    /// What an arrival holds until its tag completes: a message body, an
    /// object key, a frame.
    type Body: Send + 'static;

    /// A destructive take (queue) removes what it returns from the
    /// service: it hands over only new arrivals and every one of them must
    /// be kept and billed. A non-destructive take re-reads an append-only
    /// mailbox: it returns everything, arrivals past the `known` count are
    /// the new ones, and those of sources no longer pending are dropped
    /// unopened (the paper's redundant-read optimization).
    const DESTRUCTIVE_TAKE: bool;
    /// Whether the completed set is decoded before the receive sequence is
    /// settled (queue) or after (everything that may have to fetch: the
    /// settled clock has walked past every stamp, so objects are visible).
    const DECODE_BEFORE_SETTLE: bool;

    /// Sets up the flow's service resources.
    fn bind(core: &Core) -> Self;
    /// Releases them; safe to call more than once.
    fn release(&self, core: &Core);
    /// Frames `sends` into parcels, as lane pools that run one after the
    /// other (a pool's slowest lane joins before the next pool starts).
    fn frame(
        &self,
        cx: &Cx,
        ctx: &mut WorkerCtx,
        sends: &Sends,
    ) -> Result<Vec<Vec<Self::Parcel>>, FaasError>;
    /// Ships one parcel on a lane clock and counts it.
    fn put(&self, cx: &Cx, lane: &mut VClock, parcel: &Self::Parcel) -> Result<(), FaasError>;
    /// Raw take for `(cx.rank, cx.tag)`: waits, untimed, until a producer
    /// posts or the calling instance is aborted; bills nothing, moves no
    /// clock.
    fn take(&self, cx: &Cx, known: usize) -> Result<Vec<Arrival<Self::Body>>, FaasError>;
    /// Deterministic processing order of a completed set.
    fn order(a: &Arrival<Self::Body>, b: &Arrival<Self::Body>) -> Ordering;
    /// Reconstructs and bills the receive sequence that collected `raw`,
    /// advancing the worker's clock through it; a call that runs behind
    /// the worker (a queue's deletes) is handed to
    /// [`WorkerCtx::observe_background`] instead.
    fn settle(&self, cx: &Cx, ctx: &mut WorkerCtx, raw: &[Arrival<Self::Body>]);
    /// The wire payload behind `body`; a fetch runs on `lane`, an inline
    /// body leaves it where it is.
    fn open<'a>(&self, cx: &Cx, lane: &mut VClock, body: &'a Self::Body) -> Opened<'a>;
}

/// Per-`(receiver, tag)` buffer of raw arrivals awaiting the tag's
/// completion.
struct Inbox<B> {
    /// Arrivals a non-destructive take has returned so far.
    known: usize,
    raw: Vec<Arrival<B>>,
    /// `(source, total_chunks)` announcements not yet applied to the tag's
    /// tracker (they arrived while another tag was being received).
    unapplied: Vec<(u32, u32)>,
}

/// Deferred arrivals: `(receiver, encoded tag) → inbox`.
type Inboxes<B> = HashMap<(u32, u32), Inbox<B>>;

impl<B> Default for Inbox<B> {
    fn default() -> Self {
        Inbox {
            known: 0,
            raw: Vec::new(),
            unapplied: Vec::new(),
        }
    }
}

/// The channel: one instance serves one request flow, with every service
/// resource namespaced by the flow id, so concurrent requests share the
/// region without cross-delivery, shared mutable state or residue.
pub(crate) struct Engine<C: Carrier> {
    core: Core,
    carrier: C,
    inboxes: Mutex<Inboxes<C::Body>>,
}

impl<C: Carrier> Engine<C> {
    /// Builds the channel for one request, its frames built and read in
    /// buffers from `frames`. Queue/topic/bucket infrastructure is
    /// pre-created offline in the paper and carries no idle cost, so
    /// set-up is not billed.
    pub(crate) fn bind(
        env: &Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
        frames: &Arc<FramePool>,
    ) -> Arc<dyn FsiChannel> {
        let core = Core::new(env, n_workers, opts, flow, frames);
        Arc::new(Engine {
            carrier: C::bind(&core),
            core,
            inboxes: Mutex::new(HashMap::new()),
        })
    }

    /// The one place a tag is encoded: a round, batch or layer that does
    /// not fit the tag field fails the call instead of aliasing another.
    fn call(&self, tag: Tag, rank: u32) -> Result<Cx<'_>, FaasError> {
        Ok(Cx {
            core: &self.core,
            tag,
            code: tag.encode()?,
            rank,
        })
    }
}

impl<C: Carrier> FsiChannel for Engine<C> {
    fn stats(&self) -> &ChannelStats {
        &self.core.stats
    }

    fn teardown(&self) {
        self.carrier.release(&self.core);
    }

    fn send_layer(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        src: u32,
        sends: &Sends,
    ) -> Result<(), FaasError> {
        if sends.is_empty() {
            return Ok(());
        }
        let cx = self.call(tag, src)?;
        // Bodies first (single-threaded CPU work), then each pool's puts
        // over the worker's lanes; the caller's clock joins the slowest.
        for pool in self.carrier.frame(&cx, ctx, sends)? {
            let mut lanes = Lanes::fork(ctx.clock_mut());
            for parcel in &pool {
                self.carrier.put(&cx, lanes.next(), parcel)?;
            }
            ctx.clock_mut().observe(lanes.slowest());
        }
        Ok(())
    }

    fn receive_round(
        &self,
        ctx: &mut WorkerCtx,
        tag: Tag,
        me: u32,
        tracker: &mut RecvTracker,
    ) -> Result<Vec<(u32, SparseRows)>, FaasError> {
        let cx = self.call(tag, me)?;
        let slot = (me, cx.code);
        let known = {
            let mut inboxes = self.inboxes.lock();
            inboxes.get_mut(&slot).map_or(0, |inbox| {
                for (source, total) in inbox.unapplied.drain(..) {
                    tracker.record_chunk(source, total);
                }
                inbox.known
            })
        };
        if !tracker.done() {
            let arrivals = self.carrier.take(&cx, known)?;
            if arrivals.len() <= known {
                return Ok(Vec::new());
            }
            let mut inboxes = self.inboxes.lock();
            if !C::DESTRUCTIVE_TAKE {
                inboxes.entry(slot).or_default().known = arrivals.len();
            }
            for a in arrivals {
                if a.tag != cx.code {
                    let early = inboxes.entry((me, a.tag)).or_default();
                    early.unapplied.push((a.src, a.total_chunks));
                    early.raw.push(a);
                } else if C::DESTRUCTIVE_TAKE || tracker.is_pending(a.src) {
                    tracker.record_chunk(a.src, a.total_chunks);
                    inboxes.entry(slot).or_default().raw.push(a);
                }
            }
        }
        if !tracker.done() {
            return Ok(Vec::new());
        }
        // Tag complete: process the whole arrival set in deterministic
        // stamp order and settle the billed receive sequence from the
        // stamps.
        let inbox = self.inboxes.lock().remove(&slot).unwrap_or_default();
        let mut raw = inbox.raw;
        raw.sort_unstable_by(C::order);
        if !C::DECODE_BEFORE_SETTLE {
            self.carrier.settle(&cx, ctx, &raw);
        }
        // Every open starts on a lane forked here; the worker waits for
        // each body's landing, then decodes it while later GETs fly.
        let mut lanes = Lanes::fork(ctx.clock_mut());
        let mut out = Vec::new();
        for a in &raw {
            let lane = lanes.next();
            let opened = self.carrier.open(&cx, lane, &a.body);
            ctx.clock_mut().observe(lane.now());
            let rows = match opened? {
                None => continue,
                Some(Wire::Inline(body)) => cx.decode(ctx, body)?,
                Some(Wire::Fetched(body)) => cx.decode(ctx, &body)?,
            };
            if !rows.is_empty() {
                out.push((a.src, rows));
            }
        }
        if C::DECODE_BEFORE_SETTLE {
            self.carrier.settle(&cx, ctx, &raw);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests;
