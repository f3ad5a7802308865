//! Worker trees: the one way a request runs.
//!
//! A [`WorkerTree`] is `P` keep-alive instances (FSD-Inf-Serial: one)
//! ([`FunctionConfig::keep_alive`]) brought up by one launch — the paper's
//! coordinator → `worker_invoke_children` cascade (flat from rank 0 up to
//! P = 81, see [`fsd_faas::launch::best_fanout`]), or, with
//! `stream_weights`, flat controller-driven provisioning — each of which
//! loads its weight/map artifacts once and then parks in a serve loop on a
//! control channel.
//! Every Invoke of a launch — the coordinator's, a cascade parent's, the
//! control plane's — rides its issuer's lane pool (`crate::lanes`): a
//! launcher issues all its children at once, `LANES` per Invoke round
//! trip, and each child starts one round trip plus one cold start after
//! its call is issued.
//! Requests are routed into the tree as [`WorkItem`]s, each carrying its
//! own flow id, input prefix, the input shares that ride its dispatch and
//! a freshly provisioned (flow-namespaced) data channel.
//!
//! A cold request is merely the first item on a tree it launched itself
//! (`warm = false`): the instances stay on their launch timeline, so that
//! item's window covers cold start → result and pays the whole launch
//! bill — invocations, launch rounds, weight loads. Every later item
//! (`warm = true`) jumps onto its own timeline one control-plane hop after
//! arrival and pays none of it (λScale-style request routing into
//! model-loaded instances). Without a warm pool the tree is dropped — and
//! every instance joined — after that first item; with one it is parked
//! for the next request of its shape.
//!
//! Billing stays per-flow disjoint across reuse: every work item opens its
//! own metering window on the instance ([`WorkerCtx::begin_request`] /
//! [`WorkerCtx::finish_request`], which also applies the exit-time limit
//! check), and the per-request data channel namespaces all service traffic
//! by the request's flow. Parked (idle) time is never billed.
//!
//! Failure containment: a dying instance — one whose body returned an
//! error or panicked ([`FaasError::Panic`]) — reports its error to the
//! tree owner and *then* raises the tree's poison flag, which also wakes
//! every receiver parked in a fabric wait of the region; a peer waiting
//! for the dead instance's frames returns empty-handed, and every peer
//! fails fast at its next limit check, so the first error the owner
//! collects is the root cause, and the tree is discarded instead of
//! parked.
//!
//! [`WorkerCtx::begin_request`]: fsd_faas::WorkerCtx::begin_request
//! [`WorkerCtx::finish_request`]: fsd_faas::WorkerCtx::finish_request

use crate::artifacts::{load_worker_artifacts, WorkerArtifacts};
use crate::channel::FsiChannel;
use crate::engine::{LaunchPath, Variant};
use crate::lanes::Lanes;
use crate::pool::{Live, TreePool};
use crate::weight_cache::WeightCache;
use crate::worker::{run_batches, RunOutput, WorkerOutput, WorkspacePool};
use fsd_comm::{CloudEnv, VClock, VirtualTime};
use fsd_faas::{launch, FaasError, FaasPlatform, FunctionConfig, Invocation, InvocationReport};
use fsd_model::DnnSpec;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel as mpsc_channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// The next unused weight-stream hop. Each streamed launch takes `P`
/// consecutive hops for its mailboxes (see `weight_stream`), so two trees
/// streaming on one flow — pre-warms all bill to flow 0 — never share one.
static NEXT_HOP: AtomicUsize = AtomicUsize::new(0);

/// The shape a worker tree serves: requests match on the resolved variant,
/// worker count and per-worker memory. `Ord` gives predictors and pool
/// policies a canonical shape order for deterministic iteration.
/// `FsdService::tree_of` maps a request to the tree it runs on; a Serial
/// tree is `{ Serial, 1, EngineConfig::serial_memory_mb }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeKey {
    /// Resolved variant — never `Auto`, which resolves before a tree is
    /// acquired.
    pub variant: Variant,
    /// Worker count `P`.
    pub workers: u32,
    /// Per-worker memory (MB).
    pub memory_mb: u32,
}

/// Launch-time (request-independent) parameters of a tree.
#[derive(Clone)]
pub(crate) struct TreeParams {
    pub n_workers: u32,
    /// The eager cascade's fan-out, resolved once per tree
    /// ([`crate::EngineConfig::launch_fanout`]); a streamed launch is flat
    /// and its weight relay has its own
    /// ([`crate::weight_stream::RELAY_FANOUT`]).
    pub branching: usize,
    pub memory_mb: u32,
    pub model_key: String,
    pub spec: DnnSpec,
    /// λScale-style streamed cold launch: instances are provisioned flat
    /// by the control plane and weights arrive multicast from rank 0.
    pub stream: bool,
    /// The service-wide weight-block cache streamed loads read through.
    pub cache: Arc<WeightCache>,
    /// The service-wide layer-loop buffers, checked out per work item.
    pub workspaces: Arc<WorkspacePool>,
}

/// One request routed into a tree.
#[derive(Clone)]
pub(crate) struct WorkItem {
    /// `false` for the first item of a tree launched for this request: the
    /// instances continue on their launch timeline (so the request pays —
    /// and measures — the full cold-start bill); `true` for every request
    /// routed into an already-resident tree.
    pub warm: bool,
    /// The request's flow id (billing + channel namespacing).
    pub flow: u64,
    /// Staged input prefix (batch `b` under `{input_key}/b{b}`).
    pub input_key: String,
    /// The input shares that ride the dispatch: `inline[m][b]` is rank
    /// `m`'s encoded share of batch `b`, or `None` where the share is
    /// staged under `input_key` instead — every share of a cold item, and
    /// any that would overflow its rank's Invoke payload
    /// ([`fsd_faas::MAX_ASYNC_PAYLOAD_BYTES`]). The service decides; a rank
    /// reads whichever it is given.
    pub inline: InlineShares,
    /// Width of each successive batch.
    pub batch_widths: Vec<usize>,
    /// The request-scoped data channel (provisioned for `flow`).
    pub channel: Arc<dyn FsiChannel>,
    /// Virtual instant (on the request's own timeline) at which resident
    /// instances receive a `warm` item — one control-plane hop after
    /// arrival.
    pub dispatch_at: VirtualTime,
}

/// Per rank, per batch: the encoded input share a [`WorkItem`] carries, if
/// it rides the dispatch.
pub(crate) type InlineShares = Arc<[Vec<Option<Arc<[u8]>>>]>;

type WorkResult = (u32, Result<(WorkerOutput, InvocationReport), FaasError>);

/// A tree's poison flag (every instance's abort flag) and the region whose
/// receivers raising it must wake.
#[derive(Clone)]
struct Poison {
    flag: Arc<AtomicBool>,
    env: Arc<CloudEnv>,
}

impl Poison {
    /// The one way a tree is poisoned: raises the flag (Release pairs with
    /// the Acquire of every abort check), then wakes every receiver parked
    /// in a fabric wait, so one waiting for a producer that will never
    /// post returns and fails its next limit check.
    fn raise(&self) {
        self.flag.store(true, Ordering::Release);
        self.env.wake_receivers();
    }
}

/// Shared plumbing cloned into every instance of a tree.
#[derive(Clone)]
struct ServeShared {
    params: TreeParams,
    /// Flow the launch bills to (the creating request, or 0 for pre-warmed
    /// trees).
    launch_flow: u64,
    /// The launch's weight-stream mailboxes (rank `r` reads
    /// `hops.start + r`); empty for a cascade launch.
    hops: Range<usize>,
    /// Per-rank control receivers, taken exactly once by their rank.
    controls: Arc<Mutex<Vec<Option<Receiver<WorkItem>>>>>,
    results: Sender<WorkResult>,
    handles: Sender<Invocation<()>>,
    /// Per-rank kill switches (failure injection / chaos hooks).
    kills: Arc<Vec<Arc<AtomicBool>>>,
    /// Tree-wide poison; raised by the first dying instance.
    poison: Poison,
}

impl ServeShared {
    /// Reports `rank`'s death to the tree owner, *then* poisons the tree —
    /// in that order, so no peer can observe the poison and get its
    /// secondary `"abort"` into the result channel ahead of the root
    /// cause.
    fn fail(&self, rank: u32, e: FaasError) -> FaasError {
        let _ = self.results.send((rank, Err(e.clone())));
        self.poison.raise();
        e
    }

    /// Invokes keep-alive instance `rank` with the call issued at virtual
    /// time `at` and hands its join handle to the tree owner. A refused
    /// launch (an injected Invoke fault, known synchronously) is returned
    /// *and* reported as the rank's death, so peers unwedge instead of
    /// polling collectives for an instance that never existed.
    fn spawn_rank(
        &self,
        platform: &Arc<FaasPlatform>,
        rank: u32,
        at: VirtualTime,
    ) -> Result<(), FaasError> {
        let cfg = FunctionConfig::worker(format!("fsd-worker-{rank}"), self.params.memory_mb)
            .for_flow(self.launch_flow)
            .keep_alive();
        let shared = self.clone();
        let inv = platform.invoke(cfg, at, move |ctx| {
            // A panic is a death like any other: caught here, it reports
            // and poisons, so no peer waits on this rank forever.
            let served = catch_unwind(AssertUnwindSafe(|| serve_worker(ctx, rank, &shared)));
            served.unwrap_or_else(|payload| {
                let e = FaasError::panic(ctx.config().name.clone(), payload.as_ref());
                Err(shared.fail(rank, e))
            })
        });
        let refused = inv.launch_error();
        let _ = self.handles.send(inv);
        refused.map_or(Ok(()), |e| Err(self.fail(rank, e)))
    }

    /// Invokes `ranks` in order, each on the next free lane of one
    /// [`Lanes`] pool forked at `issued`: a rank is spawned at the instant
    /// its call is issued ([`FaasPlatform::invoke`] adds the round trip and
    /// the cold start), and its lane is then busy for one Invoke round
    /// trip. Every rank is invoked, even after one is refused.
    /// Returns the instant the last lane comes free — where an issuer that
    /// is a Lambda function joins — and the first refusal with its rank.
    fn invoke_ranks(
        &self,
        platform: &Arc<FaasPlatform>,
        issued: VirtualTime,
        ranks: impl IntoIterator<Item = u32>,
    ) -> (VirtualTime, Result<(), (u32, FaasError)>) {
        let env = platform.env();
        let mut lanes = Lanes::fork(&VClock::starting_at(issued));
        let mut refused = Ok(());
        for rank in ranks {
            let lane = lanes.next();
            let spawned = self.spawn_rank(platform, rank, lane.now());
            lane.advance_micros(env.latency().lambda_invoke_us);
            refused = refused.and(spawned.map_err(|e| (rank, e)));
        }
        (lanes.slowest(), refused)
    }

    /// Starts the launch in the shape `params.stream` selects (see
    /// [`WorkerTree::launch`]). Consumes this copy of the plumbing: the
    /// tree owner joins instances until the last sender is gone.
    fn seed(self, platform: &Arc<FaasPlatform>) -> Result<(), FaasError> {
        if self.params.stream {
            // The always-on control plane issues `LANES` Invokes per round
            // trip; it bills no time, so nothing joins its lanes.
            let ranks = 0..self.params.n_workers;
            return match self.invoke_ranks(platform, VirtualTime::ZERO, ranks).1 {
                // No multicast source: a refused root fails the launch.
                Err((0, e)) => Err(e),
                _ => Ok(()),
            };
        }
        let platform_c = platform.clone();
        let coordinator = platform.invoke(
            FunctionConfig::coordinator().for_flow(self.launch_flow),
            VirtualTime::ZERO,
            move |ctx| {
                ctx.charge_work(10_000); // request parsing
                let (joined, refused) = self.invoke_ranks(&platform_c, ctx.now(), [0]);
                // The coordinator pays its Invoke's round trip.
                ctx.clock_mut().observe(joined);
                refused.map_err(|(_, e)| e)
            },
        );
        coordinator.join().map(|_| ())
    }
}

/// What every instance of a tree runs: launch its subtree, load its
/// artifacts, then serve work items until the control channel closes.
fn serve_worker(
    ctx: &mut fsd_faas::WorkerCtx,
    rank: u32,
    shared: &ServeShared,
) -> Result<(), FaasError> {
    let params = &shared.params;
    let p = params.n_workers;
    // A dying peer must be able to unwedge this instance mid-receive.
    ctx.set_abort(shared.poison.flag.clone());

    // --- worker_invoke_children(): the hierarchical launch, the children
    // Invoked over the lanes, `LANES` per round trip; the parent joins
    // the last round trip. Streamed launches are provisioned flat — their tree carries
    // weight state, not invocations — so no instance launches children
    // there.
    if !params.stream {
        let children = launch::children_of(rank as usize, params.branching, p as usize);
        let children = children.into_iter().map(|c| c as u32);
        let (joined, refused) = shared.invoke_ranks(ctx.platform(), ctx.now(), children);
        ctx.clock_mut().observe(joined);
        // The subtree below a refused child will never exist and the
        // collectives could only wedge: die now, before loading anything.
        refused.map_err(|(_, e)| e)?;
    }

    let control = shared
        .controls
        .lock()
        .expect("control slots lock")
        .get_mut(rank as usize)
        .and_then(Option::take)
        .expect("each rank takes its control receiver exactly once");

    // --- load weights and maps once; they stay resident while parked -----
    let loaded = if params.stream {
        crate::weight_stream::stream_load(ctx, params, rank, shared.hops.start)
    } else {
        load_worker_artifacts(
            ctx,
            &params.model_key,
            p,
            rank,
            params.spec.layers,
            params.spec.neurons,
            None,
        )
    };
    let mut art = loaded.map_err(|e| shared.fail(rank, e))?;

    // --- the serve loop: park until the control channel closes -----------
    while let Ok(item) = control.recv() {
        match serve_item(ctx, rank, shared, &mut art, &item) {
            Ok(done) => {
                let _ = shared.results.send((rank, Ok(done)));
            }
            Err(e) => return Err(shared.fail(rank, e)),
        }
    }
    Ok(())
}

/// Runs one work item on a loaded instance inside its own billing window.
fn serve_item(
    ctx: &mut fsd_faas::WorkerCtx,
    rank: u32,
    shared: &ServeShared,
    art: &mut WorkerArtifacts,
    item: &WorkItem,
) -> Result<(WorkerOutput, InvocationReport), FaasError> {
    if shared.kills[rank as usize].load(Ordering::Relaxed) {
        return Err(FaasError::comm(
            "instance",
            format!("fsd-worker-{rank}"),
            "keep-alive instance terminated",
        ));
    }
    if item.warm {
        // A routed request: jump onto its timeline, one control hop in.
        ctx.begin_request(item.flow, item.dispatch_at);
    }
    let mut out = run_batches(ctx, item, rank, &shared.params, art)?;
    if !item.warm {
        // The creating request also pays the launch-time loads.
        out.artifact_gets += art.n_gets;
    }
    Ok((out, ctx.finish_request()?))
}

/// `P` keep-alive instances parked in serve loops.
///
/// Launched for a request (or a pre-warm), driven with
/// [`WorkerTree::run`], and eventually [`WorkerTree::shutdown`] — also
/// invoked on drop, so a finished, evicted or discarded tree never leaks
/// its instance threads.
pub(crate) struct WorkerTree {
    key: TreeKey,
    generation: u64,
    controls: Vec<Sender<WorkItem>>,
    kills: Vec<Arc<AtomicBool>>,
    poison: Poison,
    results: Receiver<WorkResult>,
    handles: Receiver<Invocation<()>>,
    joined: bool,
    /// Launch flow and weight-stream mailboxes for teardown: once every
    /// instance has joined, any weight frames still parked in them (e.g.
    /// after an abort) have no receiver left.
    launch_flow: u64,
    hops: Range<usize>,
    /// The pool's count of this tree, given back when the tree drops.
    live: Option<Live>,
}

impl WorkerTree {
    /// Launches a tree billed to `flow`, in one of two shapes. The
    /// **cascade** (the paper's launch): a coordinator function invokes
    /// rank 0 and every rank invokes its `children_of` — `1 + P`
    /// invocations, each launcher overlapping up to `LANES` Invokes per
    /// round trip (`fsd_faas::launch::launch_span`). **Flat**
    /// (`params.stream`, FaaSNet-style): the always-on control plane
    /// dispatches every rank itself over one lane pool — no coordinator to
    /// cold-start first, `P` invocations, `LANES` of them per round trip —
    /// and the tree topology multicasts weights instead of invocations.
    ///
    /// Returns as soon as the launch is seeded; instances still booting
    /// pick queued work items up when they are ready. A refused
    /// coordinator or rank 0 fails the launch (whatever did start is
    /// joined); any other refused rank surfaces from the next
    /// [`WorkerTree::run`]. With a `pool`, the tree carries the pool's
    /// current generation and, once launched, a place in the pool's live
    /// count ([`TreePool::record_created`]) until it drops.
    pub(crate) fn launch(
        platform: &Arc<FaasPlatform>,
        key: TreeKey,
        pool: Option<&TreePool>,
        params: TreeParams,
        flow: u64,
    ) -> Result<WorkerTree, FaasError> {
        let p = params.n_workers;
        let hops = if params.stream {
            let start = NEXT_HOP.fetch_add(p as usize, Ordering::Relaxed);
            start..start + p as usize
        } else {
            0..0
        };
        let (result_tx, results) = mpsc_channel();
        let (handle_tx, handles) = mpsc_channel();
        let (controls, control_rxs) = (0..p)
            .map(|_| {
                let (tx, rx) = mpsc_channel();
                (tx, Some(rx))
            })
            .unzip();
        let kills: Vec<Arc<AtomicBool>> =
            (0..p).map(|_| Arc::new(AtomicBool::new(false))).collect();
        let shared = ServeShared {
            params,
            launch_flow: flow,
            hops: hops.clone(),
            controls: Arc::new(Mutex::new(control_rxs)),
            results: result_tx,
            handles: handle_tx,
            kills: Arc::new(kills.clone()),
            poison: Poison {
                flag: Arc::new(AtomicBool::new(false)),
                env: platform.env().clone(),
            },
        };
        // Built before anything is invoked: dropping it on a failed launch
        // joins whatever did start.
        let mut tree = WorkerTree {
            key,
            generation: pool.map_or(0, TreePool::generation),
            controls,
            kills,
            poison: shared.poison.clone(),
            results,
            handles,
            joined: false,
            launch_flow: flow,
            hops,
            live: None,
        };
        shared.seed(platform)?;
        tree.live = pool.map(|pool| pool.record_created(key));
        Ok(tree)
    }

    /// The shape this tree serves.
    pub(crate) fn key(&self) -> TreeKey {
        self.key
    }

    /// The pool generation this tree was created under.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether an instance of this tree has died (the tree must not be
    /// parked).
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poison.flag.load(Ordering::Relaxed)
    }

    /// Arms the kill switch of one rank: the instance terminates at its
    /// next work item, poisoning the tree (failure injection / chaos hook).
    pub(crate) fn kill_worker(&self, rank: u32) {
        if let Some(flag) = self.kills.get(rank as usize) {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Routes one request into the tree and collects every instance's
    /// result. The first error collected — the root cause, see
    /// `ServeShared::fail` — is returned immediately; peers unwedge
    /// through the poison and the tree must be discarded.
    pub(crate) fn run(&mut self, item: WorkItem) -> Result<RunOutput, FaasError> {
        let ran = self.collect(&item);
        if ran.is_err() {
            self.poison.raise();
        }
        ran
    }

    fn collect(&self, item: &WorkItem) -> Result<RunOutput, FaasError> {
        for control in &self.controls {
            // An instance that hung up has reported its death first; the
            // result channel below holds the root cause.
            let _ = control.send(item.clone());
        }
        let mut run = RunOutput::new(if item.warm {
            LaunchPath::WarmHit
        } else {
            LaunchPath::ColdStart
        });
        for _ in 0..self.controls.len() {
            let (rank, result) = self.results.recv().map_err(|_| {
                let tree = format!("fsd-tree-p{}", self.key.workers);
                FaasError::comm("tree", tree, "worker tree hung up mid-request")
            })?;
            let (out, report) = result?;
            run.absorb(rank, out, report);
        }
        // Arrival order races across real threads; rank order is canonical.
        run.reports.sort_unstable_by_key(|(rank, _)| *rank);
        run.merge_parts();
        run.client = item.channel.stats().snapshot();
        Ok(run)
    }

    /// Closes the control channels and joins every instance. Safe to call
    /// more than once. A poisoned tree's stragglers are woken out of their
    /// receives and exit through the abort in their limit checks, so this
    /// returns even after a failure.
    pub(crate) fn shutdown(&mut self) {
        if self.joined {
            return;
        }
        self.joined = true;
        // Stop serve loops (they exit once queued items are drained)…
        self.controls.clear();
        // …and make sure nothing can stay parked in a receive.
        self.poison.raise();
        // Every live instance holds a handle sender, so this ends once the
        // last of them — fewer than `P` after a refused launch — has exited.
        for handle in self.handles.iter() {
            // Poisoned / killed instances legitimately return errors.
            let _ = handle.join();
        }
        // Every instance has joined: no receiver is left for any weight
        // frame still parked in this tree's mailboxes (aborted streams,
        // frames addressed to a rank that died booting) — drop them so
        // the residue audit stays clean. Other trees on the same flow keep
        // theirs.
        let net = self.poison.env.weight_net();
        for hop in self.hops.clone() {
            net.close_hop(self.launch_flow, hop);
        }
    }
}

impl Drop for WorkerTree {
    fn drop(&mut self) {
        self.shutdown();
    }
}
