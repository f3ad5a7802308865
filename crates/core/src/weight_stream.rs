//! λScale-style multicast weight loading for streamed cold starts.
//!
//! With [`crate::EngineConfig::stream_weights`] on, a cold tree launch
//! stops loading weights independently per worker. Rank 0 becomes the
//! *multicast source*: it fetches every partition's artifact objects from
//! object storage exactly once (through the service-wide
//! [`crate::WeightCache`], so repeat launches skip even that) and pushes
//! the encoded blocks down the launch tree over the
//! [`fsd_comm::WeightNet`] fabric. Interior ranks keep their own blocks
//! and relay the rest toward their destinations on their own lane clocks;
//! layer blocks stay encoded until compute first touches them
//! ([`crate::artifacts::WorkerArtifacts::ensure_layer`]) — λScale's
//! execute-while-load.
//!
//! # Timing model
//!
//! The source pipelines its GETs over [`FETCH_SLOTS`] concurrent
//! connections (each a forked [`VClock`]) and serializes outbound
//! transfers on a single forward-lane clock, observing each block's fetch
//! completion before sending it. Sends are asynchronous to the source's
//! own compute — wire time rides on the frame stamps that receivers (and
//! the source's own lazy decodes) observe, and forwarded bytes are billed
//! to the forwarding flow by the fabric itself. The manifest is ordered
//! maps-first (every rank can assemble early), then *layer-major* across
//! ranks, so every rank's layer 0 arrives before any rank's layer 1 and
//! first-layer compute overlaps later-layer transfer tree-wide.
//!
//! # Failure semantics
//!
//! Control frames are never faulted, so the stream's outcome always
//! reaches the subtree. A faulted block send aborts the sender's whole
//! subtree ([`WeightPayload::Abort`]); aborted receivers fall back to a
//! cache-assisted independent load. Because the source inserts every
//! fetched block into the shared cache *before* sending it, fallback
//! loads miss only blocks the source never fetched — each owned by
//! exactly one receiver — so every artifact object is GET'd at most once
//! globally, fault or no fault, and the run's total GET count equals the
//! non-streaming path's.

use crate::artifacts::{
    assemble_streamed, fetch_encoded, load_worker_artifacts, worker_layer_key, worker_owned_key,
    worker_recv_key, worker_send_key, StreamedArtifacts, StreamedPart, WorkerArtifacts,
};
use crate::weight_cache::WeightCache;
use fsd_comm::{VClock, VirtualTime, WeightPayload};
use fsd_faas::launch::{children_of, hop_toward};
use fsd_faas::{FaasError, WorkerCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// Concurrent GET connections the multicast source pipelines its
/// artifact fetches over (each is an independently-advancing clock; a
/// fetch lands on the earliest-free one).
const FETCH_SLOTS: usize = 8;

/// Which artifact object of one worker a key denotes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    Owned,
    Send,
    Recv,
    Layer(usize),
}

/// Accumulates one worker's streamed parts as frames arrive.
struct Stash {
    owned: Option<StreamedPart>,
    send: Option<StreamedPart>,
    recv: Option<StreamedPart>,
    layers: Vec<Option<StreamedPart>>,
    bytes: usize,
}

impl Stash {
    fn new(n_layers: usize) -> Stash {
        Stash {
            owned: None,
            send: None,
            recv: None,
            layers: (0..n_layers).map(|_| None).collect(),
            bytes: 0,
        }
    }

    fn put(&mut self, part: Part, body: Arc<[u8]>, available_at: VirtualTime) {
        self.bytes += body.len();
        let slot = StreamedPart { body, available_at };
        match part {
            Part::Owned => self.owned = Some(slot),
            Part::Send => self.send = Some(slot),
            Part::Recv => self.recv = Some(slot),
            Part::Layer(k) => self.layers[k] = Some(slot),
        }
    }

    /// Converts to assembly input if every part arrived.
    fn complete(self, n_gets: u64) -> Option<StreamedArtifacts> {
        let layers: Option<Vec<StreamedPart>> = self.layers.into_iter().collect();
        Some(StreamedArtifacts {
            owned: self.owned?,
            send: self.send?,
            recv: self.recv?,
            layers: layers?,
            n_gets,
        })
    }
}

/// The per-worker entry point of a streamed cold launch: rank 0 runs the
/// multicast source, every other rank drains (and relays) its stream.
/// Returns artifacts whose layer slots decode lazily; outputs are
/// bit-identical to [`crate::artifacts::load_worker_artifacts`].
pub(crate) fn stream_load(
    ctx: &mut WorkerCtx,
    cache: &WeightCache,
    model_key: &str,
    rank: u32,
    p: u32,
    n_layers: usize,
    branching: usize,
) -> Result<WorkerArtifacts, FaasError> {
    if rank == 0 {
        source_load(ctx, cache, model_key, p, n_layers, branching)
    } else {
        receive_load(ctx, cache, model_key, rank, p, n_layers, branching)
    }
}

/// Rank 0: fetch every rank's artifacts once (cache-first), multicast the
/// foreign ones down the launch tree, keep its own for lazy decode.
fn source_load(
    ctx: &mut WorkerCtx,
    cache: &WeightCache,
    model_key: &str,
    p: u32,
    n_layers: usize,
    branching: usize,
) -> Result<WorkerArtifacts, FaasError> {
    let env = ctx.env().clone();
    let net = env.weight_net();
    let generation = cache.generation();
    let children = children_of(0, branching, p as usize);

    // Maps first (rank-major) so every receiver can assemble as soon as
    // its maps land; then layers layer-major so layer-0 compute overlaps
    // layer-1+ transfer tree-wide.
    let mut manifest: Vec<(String, u32, Part)> = Vec::with_capacity(p as usize * (3 + n_layers));
    for m in 0..p {
        manifest.push((worker_owned_key(model_key, p, m), m, Part::Owned));
        manifest.push((worker_send_key(model_key, p, m), m, Part::Send));
        manifest.push((worker_recv_key(model_key, p, m), m, Part::Recv));
    }
    for k in 0..n_layers {
        for m in 0..p {
            manifest.push((worker_layer_key(model_key, p, m, k), m, Part::Layer(k)));
        }
    }

    let base = *ctx.clock_mut();
    let mut slots: Vec<VClock> = vec![base; FETCH_SLOTS];
    let mut fwd = base;
    let mut own = Stash::new(n_layers);
    let mut n_gets = 0u64;
    let mut relaying = true;

    for (key, dst, part) in manifest {
        if dst != 0 && !relaying {
            continue; // a dead subtree loads for itself; don't fetch for it
        }
        let (body, available_at) = match cache.lookup(&key) {
            // Resident process memory: no GET, no transfer, no wait.
            Some(body) => (body, VirtualTime::ZERO),
            None => {
                let slot = slots
                    .iter_mut()
                    .enumerate()
                    .min_by_key(|(i, c)| (c.now(), *i))
                    .map(|(_, c)| c)
                    .expect("FETCH_SLOTS > 0");
                let body = match fetch_encoded(&env, slot, &key) {
                    Ok(body) => body,
                    Err(e) => {
                        // The source itself is dead; its descendants must
                        // not wait on a stream that will never finish.
                        for &child in &children {
                            net.send_abort(&mut fwd, child);
                        }
                        return Err(e);
                    }
                };
                n_gets += 1;
                cache.insert_block(&key, body.clone(), generation);
                (body, slot.now())
            }
        };
        if dst == 0 {
            ctx.track_alloc(body.len());
            own.put(part, body, available_at);
        } else {
            // A block cannot leave before it has arrived; the forward lane
            // then serializes the outbound transfer.
            fwd.observe(available_at);
            let hop = hop_toward(0, dst as usize, branching);
            if net
                .send_block(&mut fwd, hop, dst as usize, &key, body)
                .is_err()
            {
                // The fabric below is suspect: abort the whole multicast
                // and let every receiver fall back to the shared cache.
                relaying = false;
                for &child in &children {
                    net.send_abort(&mut fwd, child);
                }
            }
        }
    }
    if relaying {
        for &child in &children {
            net.send_end(&mut fwd, child);
        }
    }
    let parts = own
        .complete(n_gets)
        .expect("source manifest covers every own part");
    assemble_streamed(ctx, parts)
}

/// Rank > 0: drain the stream, keeping own blocks and relaying the rest
/// toward their destinations; on abort (or a torn stream) fall back to a
/// cache-assisted independent load.
fn receive_load(
    ctx: &mut WorkerCtx,
    cache: &WeightCache,
    model_key: &str,
    rank: u32,
    p: u32,
    n_layers: usize,
    branching: usize,
) -> Result<WorkerArtifacts, FaasError> {
    let env = ctx.env().clone();
    let flow = ctx.config().flow;
    let drained = drain_stream(ctx, model_key, rank, p, n_layers, branching);
    // This hop's mailbox has exactly one receiver — this worker — so it is
    // dead weight from here on, whatever the outcome.
    env.weight_net().close_hop(flow, rank as usize);
    match drained? {
        Some(parts) => assemble_streamed(ctx, parts),
        None => load_worker_artifacts(ctx, model_key, p, rank, n_layers, Some(cache)),
    }
}

/// The receive loop proper. `Ok(None)` means the stream aborted (or ended
/// torn) and the caller must fall back.
fn drain_stream(
    ctx: &mut WorkerCtx,
    model_key: &str,
    rank: u32,
    p: u32,
    n_layers: usize,
    branching: usize,
) -> Result<Option<StreamedArtifacts>, FaasError> {
    let env = ctx.env().clone();
    let net = env.weight_net();
    let flow = ctx.config().flow;
    let children = children_of(rank as usize, branching, p as usize);

    let mut expect: HashMap<String, Part> = HashMap::with_capacity(3 + n_layers);
    expect.insert(worker_owned_key(model_key, p, rank), Part::Owned);
    expect.insert(worker_send_key(model_key, p, rank), Part::Send);
    expect.insert(worker_recv_key(model_key, p, rank), Part::Recv);
    for k in 0..n_layers {
        expect.insert(worker_layer_key(model_key, p, rank, k), Part::Layer(k));
    }

    let mut stash = Stash::new(n_layers);
    // Relaying rides its own lane: forwarding a late block must never
    // stall this worker's compute, and vice versa.
    let mut relay = *ctx.clock_mut();
    let mut relaying = true;
    let mut known = 0usize;
    let ended = 'drain: loop {
        // A poisoned launch (peer death, coordinator teardown) must
        // unwedge this loop — the source may never send another frame.
        ctx.check_limits()?;
        let frames = net.fetch(flow, rank as usize, known);
        if frames.len() <= known {
            continue; // aborted: the limit check above now fails
        }
        let fresh = frames[known..].to_vec();
        known = frames.len();
        for frame in fresh {
            match frame.payload {
                WeightPayload::Block { key, body } => {
                    if frame.dst == rank as usize {
                        if let Some(&part) = expect.get(key.as_str()) {
                            ctx.track_alloc(body.len());
                            stash.put(part, body, frame.available_at);
                        }
                    } else if relaying {
                        relay.observe(frame.available_at);
                        let hop = hop_toward(rank as usize, frame.dst, branching);
                        if net
                            .send_block(&mut relay, hop, frame.dst, &key, body)
                            .is_err()
                        {
                            // Everything below this hop is cut off; tell the
                            // subtree now and keep collecting own frames.
                            relaying = false;
                            for &child in &children {
                                net.send_abort(&mut relay, child);
                            }
                        }
                    }
                }
                WeightPayload::End => {
                    if relaying {
                        for &child in &children {
                            net.send_end(&mut relay, child);
                        }
                    }
                    break 'drain true;
                }
                WeightPayload::Abort => {
                    if relaying {
                        for &child in &children {
                            net.send_abort(&mut relay, child);
                        }
                    }
                    break 'drain false;
                }
            }
        }
    };
    let bytes = stash.bytes;
    if ended {
        // A receiver issued zero GETs — everything came over the fabric.
        if let Some(parts) = stash.complete(0) {
            return Ok(Some(parts));
        }
        // End arrived but parts are missing — a torn stream; fall back.
        ctx.track_free(bytes);
        return Ok(None);
    }
    // Aborted: the raw frames collected so far are discarded (the shared
    // cache still holds everything the source fetched, so the fallback
    // re-reads them for free).
    ctx.track_free(bytes);
    Ok(None)
}
