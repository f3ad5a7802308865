//! The one channel engine and the carriers it runs over.
//!
//! Every built-in transport is the same algorithm (FSI Algorithms 1 and 2
//! are one shape, and FMI layers its collectives over interchangeable
//! channels the same way), so it is written once, in [`Engine`]:
//!
//! * **send** — the carrier *frames* each target's rows into parcels,
//!   calling back into [`Core::encode`] (serialize + compress + charge the
//!   worker); the engine then *puts* every parcel over one modeled lane
//!   pool (lane clocks, slowest-lane join), each
//!   put running under the retry policy ([`Core::retried`]);
//! * **receive** — a raw *take* of new arrivals with **no billing and no
//!   clock movement**, stashed per `(receiver, tag)` while the tracker
//!   fills (a round with nothing new for the tag — an aborted take, or
//!   a queue take of other tags' messages — is empty: the caller
//!   re-checks its limits and asks again); once the tag completes, the
//!   whole arrival set is sorted by stamp, *settled* (the billed receive
//!   sequence is reconstructed from the stamps alone) and opened +
//!   decoded — so per-request timing and billing never depend on how
//!   real threads happened to batch the arrivals, or on how late they ran.
//!
//! A [`Carrier`] supplies only what differs between transports: its
//! service resources, its framing, one put, one raw take, its settle
//! call, its sort key, and how a stored body is opened.
//! [`QueueCarrier`], [`ObjectCarrier`] and [`DirectCarrier`] are the three
//! fabrics; [`HybridCarrier`] owns no fabric code — it composes the queue
//! and object carriers behind a size predicate and a 1-byte frame tag.

use crate::channel::{ChannelOptions, FsiChannel, RecvTracker, Tag};
use crate::retry::RetryPolicy;
use crate::stats::ChannelStats;
use fsd_comm::{CloudEnv, CommError, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
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

/// Modeled sender-side thread pool width (the paper multi-threads message
/// construction and publication).
const SEND_THREADS: usize = 8;

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
}

impl Core {
    /// Serializes (and optionally compresses) a block, charging the
    /// worker. Returns the wire body.
    pub(crate) fn encode(&self, ctx: &mut WorkerCtx, rows: &SparseRows) -> Vec<u8> {
        let encoded = codec::encode(rows);
        ctx.charge_bytes(encoded.len() as u64, ENCODE_BPS);
        self.stats
            .add(|s| s.bytes_precompress += encoded.len() as u64);
        if self.opts.compression {
            let compressed = compress::compress(&encoded);
            ctx.charge_bytes(encoded.len() as u64, COMPRESS_BPS);
            compressed
        } else {
            encoded
        }
    }

    /// Decodes a wire body produced by [`Core::encode`], charging the
    /// worker.
    fn decode(&self, ctx: &mut WorkerCtx, body: &[u8]) -> Result<SparseRows, FaasError> {
        ctx.charge_bytes(body.len() as u64, DECODE_BPS);
        let inflated;
        let encoded = if self.opts.compression {
            inflated =
                compress::decompress(body).map_err(|e| FaasError::comm("decompress", "", e))?;
            &inflated[..]
        } else {
            body
        };
        codec::decode(encoded).map_err(|e| FaasError::comm("decode", "", e))
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
    fn frame(&self, cx: &Cx, ctx: &mut WorkerCtx, sends: &Sends) -> Vec<Vec<Self::Parcel>>;
    /// Ships one parcel on a lane clock and counts it.
    fn put(&self, cx: &Cx, lane: &mut VClock, parcel: &Self::Parcel) -> Result<(), FaasError>;
    /// Raw take for `(cx.rank, cx.tag)`: waits, untimed, until a producer
    /// posts or the calling instance is aborted; bills nothing, moves no
    /// clock.
    fn take(&self, cx: &Cx, known: usize) -> Result<Vec<Arrival<Self::Body>>, FaasError>;
    /// Deterministic processing order of a completed set.
    fn order(a: &Arrival<Self::Body>, b: &Arrival<Self::Body>) -> Ordering;
    /// Reconstructs and bills the receive sequence that collected `raw`.
    fn settle(&self, cx: &Cx, clock: &mut VClock, raw: &[Arrival<Self::Body>]);
    /// The wire payload behind `body`.
    fn open<'a>(&self, cx: &Cx, clock: &mut VClock, body: &'a Self::Body) -> Opened<'a>;
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
    /// Builds the channel for one request. Queue/topic/bucket
    /// infrastructure is pre-created offline in the paper and carries no
    /// idle cost, so set-up is not billed.
    pub(crate) fn bind(
        env: &Arc<CloudEnv>,
        n_workers: u32,
        opts: ChannelOptions,
        flow: u64,
    ) -> Arc<dyn FsiChannel> {
        let core = Core {
            env: env.clone(),
            flow,
            n_workers,
            opts,
            stats: ChannelStats::new(),
        };
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
        // over the modeled thread pool. Lane clocks inherit the worker's
        // flow so the ops bill to the request; the caller's clock joins the
        // slowest lane.
        for pool in self.carrier.frame(&cx, ctx, sends) {
            let lane0 = VClock::starting_at(ctx.now()).with_flow(ctx.clock_mut().flow());
            let mut lanes = [lane0; SEND_THREADS];
            for (i, parcel) in pool.iter().enumerate() {
                self.carrier
                    .put(&cx, &mut lanes[i % SEND_THREADS], parcel)?;
            }
            let slowest = lanes.iter().map(|c| c.now()).max().expect("≥1 lane");
            ctx.clock_mut().observe(slowest);
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
            self.carrier.settle(&cx, ctx.clock_mut(), &raw);
        }
        let mut out = Vec::new();
        for a in &raw {
            let rows = match self.carrier.open(&cx, ctx.clock_mut(), &a.body)? {
                None => continue,
                Some(Wire::Inline(body)) => cx.decode(ctx, body)?,
                Some(Wire::Fetched(body)) => cx.decode(ctx, &body)?,
            };
            if !rows.is_empty() {
                out.push((a.src, rows));
            }
        }
        if C::DECODE_BEFORE_SETTLE {
            self.carrier.settle(&cx, ctx.clock_mut(), &raw);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests;
