//! λScale-style multicast weight loading for streamed cold starts.
//!
//! With [`crate::EngineConfig::stream_weights`] on, a cold tree launch
//! stops loading weights independently per worker. Rank 0 becomes the
//! *multicast source*: it fetches every partition's artifact objects from
//! object storage exactly once (through the service-wide
//! [`crate::WeightCache`], so repeat launches skip even that) and pushes
//! the encoded blocks down a [`RELAY_FANOUT`]-ary relay tree over the
//! [`fsd_comm::WeightNet`] fabric. Layer blocks stay encoded until compute
//! first touches them
//! ([`crate::artifacts::WorkerArtifacts::ensure_layer`]) — λScale's
//! execute-while-load.
//!
//! # One relay loop
//!
//! Every rank, the source included, handles its stream with the same
//! [`Relay`]: it keeps a block addressed to itself (tracking its bytes),
//! forwards any other block one hop toward its destination on its own
//! lane clock, stops forwarding once a send fails, and at the end of the
//! stream sends each child End — or Abort, if the stream aborted or this
//! rank stopped forwarding. Only the items differ: the source's come from
//! the manifest, through the cache or a GET; a receiver's come from its
//! mailbox.
//!
//! # Mailbox namespace
//!
//! The fabric keys a mailbox `(flow, hop)`, and every tree launched ahead
//! of traffic bills to flow 0. So each streamed launch takes its own range
//! of `P` hops (`WorkerTree::launch`), and rank `r` reads hop
//! `hops + r`: trees streaming at once never read or close each other's
//! frames, and a tree's shutdown closes only its own hops.
//!
//! # Timing model
//!
//! The source pipelines its GETs over its [`Lanes`] (each fetch on the
//! earliest-free lane) and serializes outbound transfers on a single
//! forward-lane clock, observing each block's fetch completion before
//! sending it. Sends are asynchronous to the source's own compute — wire
//! time rides on the frame stamps that receivers (and the source's own
//! lazy decodes) observe, and forwarded bytes are billed to the
//! forwarding flow by the fabric itself. The manifest is ordered
//! maps-first (every rank can assemble early), then *layer-major* across
//! ranks, so every rank's layer 0 arrives before any rank's layer 1 and
//! first-layer compute overlaps later-layer transfer tree-wide.
//!
//! # Failure semantics
//!
//! Control frames are never faulted, so the stream's outcome always
//! reaches the subtree. A rank whose block send fails stops forwarding
//! and, at the end of its own stream, sends its children Abort
//! ([`WeightPayload::Abort`]) instead of End; aborted receivers fall back
//! to a cache-assisted independent load. By then the source has fetched
//! every block it ever will — inserting each into the shared cache before
//! sending it, and fetching nothing for others once its own send failed —
//! so a fallback misses only blocks the source never fetched, each owned
//! by exactly one receiver. Every artifact object is therefore GET'd at
//! most once globally, fault or no fault, by an instance thread timing
//! does not choose, and the run's total GET count equals the
//! non-streaming path's. Deferring the abort moves no clock: the lane is
//! idle after the failed send, and a receiver never observes a control
//! frame's stamp. Only a failed source GET — the source's death — aborts
//! at once.

use crate::artifacts::{
    assemble_streamed, fetch_encoded, load_worker_artifacts, Part, PartStore, WorkerArtifacts,
};
use crate::lanes::Lanes;
use crate::warm::TreeParams;
use crate::weight_cache::WeightCache;
use fsd_comm::{VClock, VirtualTime, WeightNet, WeightPayload};
use fsd_faas::launch::{children_of, hop_toward};
use fsd_faas::{FaasError, WorkerCtx};
use std::sync::Arc;

/// Fan-out of the weight relay tree. Independent of the eager launch's
/// fan-out: a relay parent puts every forwarded block on its own link, so
/// its best fan-out depends on link bandwidth, not Invoke concurrency.
pub(crate) const RELAY_FANOUT: usize = 4;

/// The per-worker entry point of a streamed cold launch whose ranks read
/// the mailboxes `hops..hops + P`: rank 0 runs the multicast source,
/// every other rank drains (and relays) its stream. Returns artifacts
/// whose layer slots decode lazily; outputs are bit-identical to
/// [`crate::artifacts::load_worker_artifacts`].
pub(crate) fn stream_load(
    ctx: &mut WorkerCtx,
    params: &TreeParams,
    rank: u32,
    hops: usize,
) -> Result<WorkerArtifacts, FaasError> {
    let (model, p, n_layers) = (&params.model_key, params.n_workers, params.spec.layers);
    let env = ctx.env().clone();
    let mut relay = Relay {
        net: env.weight_net(),
        lane: *ctx.clock_mut(),
        rank: rank as usize,
        hops,
        children: children_of(rank as usize, RELAY_FANOUT, p as usize),
        live: true,
        own: PartStore::new(model, p, rank, n_layers),
    };
    if rank == 0 {
        let n_gets = relay.source(ctx, &params.cache, model, p, n_layers)?;
        return assemble_streamed(ctx, relay.own, n_gets);
    }
    let flow = ctx.config().flow;
    let ended = relay.drain(ctx, flow);
    // This hop's mailbox has exactly one receiver — this worker — so it is
    // dead weight from here on, whatever the outcome.
    relay.net.close_hop(flow, hops + rank as usize);
    if ended? && relay.own.is_complete() {
        // A receiver issued zero GETs — everything came over the fabric.
        return assemble_streamed(ctx, relay.own, 0);
    }
    // Aborted, or ended torn: the raw frames collected so far are
    // discarded (the shared cache still holds everything the source
    // fetched, so the fallback re-reads them for free).
    ctx.track_free(relay.own.bytes);
    let neurons = params.spec.neurons;
    load_worker_artifacts(ctx, model, p, rank, n_layers, neurons, Some(&params.cache))
}

/// One rank's side of the stream: its own parts as they arrive, and its
/// relay lane toward its children.
struct Relay<'a> {
    net: &'a WeightNet,
    /// Relaying rides its own lane: forwarding a late block must never
    /// stall this worker's compute, and vice versa.
    lane: VClock,
    rank: usize,
    /// First hop of this launch's mailbox namespace.
    hops: usize,
    children: Vec<usize>,
    /// Cleared once a forward fails: the subtree below is cut off.
    live: bool,
    own: PartStore,
}

impl Relay<'_> {
    /// Keeps a block addressed to this rank; forwards any other toward
    /// its destination while the subtree is live.
    fn block(
        &mut self,
        ctx: &mut WorkerCtx,
        dst: usize,
        key: &str,
        body: Arc<[u8]>,
        available_at: VirtualTime,
    ) {
        if dst == self.rank {
            ctx.track_alloc(body.len());
            self.own.put(key, body, available_at);
        } else if self.live {
            // A block cannot leave before it has arrived; the lane then
            // serializes the outbound transfer.
            self.lane.observe(available_at);
            let hop = self.hops + hop_toward(self.rank, dst, RELAY_FANOUT);
            if self
                .net
                .send_block(&mut self.lane, hop, dst, key, body)
                .is_err()
            {
                // Everything below this hop is cut off; its abort waits for
                // the end of the stream (see the module docs), and this
                // rank keeps collecting its own blocks.
                self.live = false;
            }
        }
    }

    /// Closes every child's stream — End if the stream ended and this rank
    /// relayed all of it, Abort otherwise — and returns whether it ended.
    fn finish(&mut self, ended: bool) -> bool {
        let end = ended && self.live;
        for &child in &self.children {
            let hop = self.hops + child;
            if end {
                self.net.send_end(&mut self.lane, hop);
            } else {
                self.net.send_abort(&mut self.lane, hop);
            }
        }
        ended
    }

    /// Rank 0's items: every rank's parts, each fetched once (cache-first,
    /// on the earliest-free lane) and inserted into the cache before
    /// it is relayed. Returns the GETs issued.
    fn source(
        &mut self,
        ctx: &mut WorkerCtx,
        cache: &WeightCache,
        model: &str,
        p: u32,
        n_layers: usize,
    ) -> Result<u64, FaasError> {
        let env = ctx.env().clone();
        let generation = cache.generation();
        // Maps first (rank-major) so every receiver can assemble as soon as
        // its maps land; then layers layer-major so layer-0 compute overlaps
        // layer-1+ transfer tree-wide.
        let maps = (0..p).flat_map(|m| [Part::Owned, Part::Send, Part::Recv].map(|part| (part, m)));
        let layers = (0..n_layers).flat_map(|k| (0..p).map(move |m| (Part::Layer(k), m)));
        let mut lanes = Lanes::fork(&self.lane);
        let mut n_gets = 0u64;
        for (part, m) in maps.chain(layers) {
            if m != 0 && !self.live {
                continue; // a dead subtree loads for itself; don't fetch for it
            }
            let key = part.key(model, p, m);
            let (body, available_at) = match cache.lookup(&key) {
                // Resident process memory: no GET, no transfer, no wait.
                Some(body) => (body, VirtualTime::ZERO),
                None => {
                    let lane = lanes.next();
                    let body = fetch_encoded(&env, lane, &key).inspect_err(|_| {
                        // The source itself is dead; its descendants must
                        // not wait on a stream that will never finish.
                        self.finish(false);
                    })?;
                    n_gets += 1;
                    cache.insert_block(&key, body.clone(), generation);
                    (body, lane.now())
                }
            };
            self.block(ctx, m as usize, &key, body, available_at);
        }
        self.finish(true);
        Ok(n_gets)
    }

    /// A receiver's items: its mailbox's frames, until End or Abort.
    /// Returns whether the stream ended rather than aborted.
    fn drain(&mut self, ctx: &mut WorkerCtx, flow: u64) -> Result<bool, FaasError> {
        let mailbox = self.hops + self.rank;
        let mut known = 0usize;
        loop {
            // A poisoned launch (peer death, coordinator teardown) must
            // unwedge this loop — the source may never send another frame.
            ctx.check_limits()?;
            let frames = self.net.fetch(flow, mailbox, known);
            if frames.len() <= known {
                continue; // aborted: the limit check above now fails
            }
            let seen = known;
            known = frames.len();
            for frame in frames.into_iter().skip(seen) {
                match frame.payload {
                    WeightPayload::Block { key, body } => {
                        self.block(ctx, frame.dst, &key, body, frame.available_at)
                    }
                    WeightPayload::End => return Ok(self.finish(true)),
                    WeightPayload::Abort => return Ok(self.finish(false)),
                }
            }
        }
    }
}
