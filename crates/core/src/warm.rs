//! Worker trees: the one way a distributed request runs.
//!
//! A [`WorkerTree`] is `P` keep-alive instances
//! ([`FunctionConfig::keep_alive`]) brought up by one launch — the paper's
//! coordinator → hierarchical `worker_invoke_children` cascade of
//! `launch_rounds(P, b)` rounds, or, with `stream_weights`, flat
//! controller-driven provisioning — each of which loads its weight/map
//! artifacts once and then parks in a serve loop on a control channel.
//! Requests are routed into the tree as [`WorkItem`]s, each carrying its
//! own flow id, input prefix and a freshly provisioned (flow-namespaced)
//! data channel.
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
//! Failure containment: a dying instance reports its error to the tree
//! owner and *then* raises the tree's poison flag; peers observe it at
//! their next limit check and fail fast, so the first error the owner
//! collects is the root cause, and the tree is discarded instead of
//! parked.
//!
//! [`WorkerCtx::begin_request`]: fsd_faas::WorkerCtx::begin_request
//! [`WorkerCtx::finish_request`]: fsd_faas::WorkerCtx::finish_request

use crate::artifacts::{load_worker_artifacts, WorkerArtifacts};
use crate::channel::FsiChannel;
use crate::engine::{LaunchPath, Variant};
use crate::weight_cache::WeightCache;
use crate::worker::{run_batches, RunOutput, WorkerOutput, WorkspacePool};
use fsd_comm::{CloudEnv, VirtualTime};
use fsd_faas::{launch, FaasError, FaasPlatform, FunctionConfig, Invocation, InvocationReport};
use fsd_model::DnnSpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as mpsc_channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// The shape a worker tree serves: requests match on the resolved variant,
/// worker count and per-worker memory. `Ord` gives predictors and pool
/// policies a canonical shape order for deterministic iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeKey {
    /// Resolved channel variant — `Queue`, `Object`, `Hybrid` or `Direct`
    /// (never `Serial`/`Auto`: Serial runs no tree and Auto resolves
    /// before a tree is acquired).
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
    /// Width of each successive batch.
    pub batch_widths: Vec<usize>,
    /// The request-scoped data channel (provisioned for `flow`).
    pub channel: Arc<dyn FsiChannel>,
    /// Virtual instant (on the request's own timeline) at which resident
    /// instances receive a `warm` item — one control-plane hop after
    /// arrival.
    pub dispatch_at: VirtualTime,
}

type WorkResult = (u32, Result<(WorkerOutput, InvocationReport), FaasError>);

/// Shared plumbing cloned into every instance of a tree.
#[derive(Clone)]
struct ServeShared {
    params: TreeParams,
    /// Flow the launch bills to (the creating request, or 0 for pre-warmed
    /// trees).
    launch_flow: u64,
    /// Per-rank control receivers, taken exactly once by their rank.
    controls: Arc<Mutex<Vec<Option<Receiver<WorkItem>>>>>,
    results: Sender<WorkResult>,
    handles: Sender<Invocation<()>>,
    /// Per-rank kill switches (failure injection / chaos hooks).
    kills: Arc<Vec<Arc<AtomicBool>>>,
    /// Tree-wide poison flag; raised by the first dying instance.
    poison: Arc<AtomicBool>,
}

impl ServeShared {
    /// Reports `rank`'s death to the tree owner, *then* poisons the tree —
    /// in that order, so no peer can observe the poison and get its
    /// secondary `"abort"` into the result channel ahead of the root
    /// cause (Release here pairs with the Acquire in `check_limits`).
    fn fail(&self, rank: u32, e: FaasError) -> FaasError {
        let _ = self.results.send((rank, Err(e.clone())));
        self.poison.store(true, Ordering::Release);
        e
    }

    /// Invokes keep-alive instance `rank` at virtual time `at` and hands
    /// its join handle to the tree owner. A refused launch (an injected
    /// Invoke fault, known synchronously) is returned *and* reported as
    /// the rank's death, so peers unwedge instead of polling collectives
    /// for an instance that never existed.
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
        let inv = platform.invoke(cfg, at, move |ctx| serve_worker(ctx, rank, shared));
        let refused = inv.launch_error();
        let _ = self.handles.send(inv);
        refused.map_or(Ok(()), |e| Err(self.fail(rank, e)))
    }

    /// Starts the launch in the shape `params.stream` selects (see
    /// [`WorkerTree::launch`]). Consumes this copy of the plumbing: the
    /// tree owner joins instances until the last sender is gone.
    fn seed(self, platform: &Arc<FaasPlatform>) -> Result<(), FaasError> {
        if self.params.stream {
            let env = platform.env();
            let mut at = VirtualTime::ZERO;
            let mut root = Ok(());
            for rank in 0..self.params.n_workers {
                if rank > 0 {
                    let lat = env.latency().lambda_invoke_us;
                    at = at.plus_micros(env.jitter().apply(lat));
                }
                let spawned = self.spawn_rank(platform, rank, at);
                if rank == 0 {
                    // No multicast source: a refused root fails the launch.
                    root = spawned;
                }
            }
            return root;
        }
        let platform_c = platform.clone();
        let coordinator = platform.invoke(
            FunctionConfig::coordinator().for_flow(self.launch_flow),
            VirtualTime::ZERO,
            move |ctx| {
                ctx.charge_work(10_000); // request parsing
                self.spawn_rank(&platform_c, 0, ctx.now())
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
    shared: ServeShared,
) -> Result<(), FaasError> {
    let params = &shared.params;
    let p = params.n_workers;
    // A dying peer must be able to unwedge this instance mid-poll.
    ctx.set_abort(shared.poison.clone());

    // --- worker_invoke_children(): the hierarchical launch. Streamed
    // launches are provisioned flat — their tree carries weight state,
    // not invocations — so no instance launches children there.
    let mut launched = Ok(());
    if !params.stream {
        let platform = ctx.platform().clone();
        for child in launch::children_of(rank as usize, params.branching, p as usize) {
            // The (async) Invoke API call costs the parent one round trip.
            let lat = ctx.env().latency().lambda_invoke_us;
            let jittered = ctx.env().jitter().apply(lat);
            ctx.clock_mut().advance_micros(jittered);
            launched = launched.and(shared.spawn_rank(&platform, child as u32, ctx.now()));
        }
    }
    // The subtree below a refused child will never exist and the
    // collectives could only wedge: die now, before loading anything.
    launched?;

    let control = shared
        .controls
        .lock()
        .expect("control slots lock")
        .get_mut(rank as usize)
        .and_then(Option::take)
        .expect("each rank takes its control receiver exactly once");

    // --- load weights and maps once; they stay resident while parked -----
    let layers = params.spec.layers;
    let loaded = if params.stream {
        crate::weight_stream::stream_load(
            ctx,
            &params.cache,
            &params.model_key,
            rank,
            p,
            layers,
            params.branching,
        )
    } else {
        load_worker_artifacts(ctx, &params.model_key, p, rank, layers)
    };
    let mut art = loaded.map_err(|e| shared.fail(rank, e))?;

    // --- the serve loop: park until the control channel closes -----------
    while let Ok(item) = control.recv() {
        match serve_item(ctx, rank, &shared, &mut art, &item) {
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
    let mut out = run_batches(
        ctx,
        &item.channel,
        rank,
        shared.params.n_workers,
        &shared.params.spec,
        art,
        &shared.params.workspaces,
        &item.input_key,
        &item.batch_widths,
    )?;
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
    poison: Arc<AtomicBool>,
    results: Receiver<WorkResult>,
    handles: Receiver<Invocation<()>>,
    joined: bool,
    /// Region handle + launch flow for stream-mode teardown: once every
    /// instance has joined, any weight frames still parked in the launch
    /// flow's mailboxes (e.g. after an abort) have no receiver left.
    env: Arc<CloudEnv>,
    launch_flow: u64,
    stream: bool,
}

impl WorkerTree {
    /// Launches a tree billed to `flow`, in one of two shapes. The
    /// **cascade** (the paper's launch): a coordinator function invokes
    /// rank 0 and every rank invokes its `children_of` — `1 + P`
    /// invocations over `launch_rounds(P, b)` rounds. **Flat**
    /// (`params.stream`, FaaSNet-style): the always-on control plane
    /// dispatches every rank itself, one sequential API round trip apart —
    /// no coordinator to cold-start first, `P` invocations — and the tree
    /// topology multicasts weights instead of invocations.
    ///
    /// Returns as soon as the launch is seeded; instances still booting
    /// pick queued work items up when they are ready. A refused
    /// coordinator or rank 0 fails the launch (whatever did start is
    /// joined); any other refused rank surfaces from the next
    /// [`WorkerTree::run`].
    pub(crate) fn launch(
        platform: &Arc<FaasPlatform>,
        key: TreeKey,
        generation: u64,
        params: TreeParams,
        flow: u64,
    ) -> Result<WorkerTree, FaasError> {
        let p = params.n_workers;
        let stream = params.stream;
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
            controls: Arc::new(Mutex::new(control_rxs)),
            results: result_tx,
            handles: handle_tx,
            kills: Arc::new(kills.clone()),
            poison: Arc::new(AtomicBool::new(false)),
        };
        // Built before anything is invoked: dropping it on a failed launch
        // joins whatever did start.
        let tree = WorkerTree {
            key,
            generation,
            controls,
            kills,
            poison: shared.poison.clone(),
            results,
            handles,
            joined: false,
            env: platform.env().clone(),
            launch_flow: flow,
            stream,
        };
        shared.seed(platform)?;
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
        self.poison.load(Ordering::Relaxed)
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
    /// through the poison flag and the tree must be discarded.
    pub(crate) fn run(&mut self, item: WorkItem) -> Result<RunOutput, FaasError> {
        let ran = self.collect(&item);
        if ran.is_err() {
            self.poison.store(true, Ordering::Release);
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
        run.client = item.channel.stats().snapshot();
        Ok(run)
    }

    /// Closes the control channels and joins every instance. Safe to call
    /// more than once. A poisoned tree's stragglers exit through the
    /// poison-raised abort in their limit checks, so this returns in real
    /// time even after a failure.
    pub(crate) fn shutdown(&mut self) {
        if self.joined {
            return;
        }
        self.joined = true;
        // Stop serve loops (they exit once queued items are drained)…
        self.controls.clear();
        // …and make sure nothing can park in a poll forever.
        self.poison.store(true, Ordering::Release);
        // Every live instance holds a handle sender, so this ends once the
        // last of them — fewer than `P` after a refused launch — has exited.
        for handle in self.handles.iter() {
            // Poisoned / killed instances legitimately return errors.
            let _ = handle.join();
        }
        // Every instance has joined: no receiver is left for any weight
        // frame still parked under the launch flow (aborted streams,
        // frames addressed to a rank that died booting) — drop them so
        // the residue audit stays clean.
        if self.stream {
            self.env.weight_net().close_flow(self.launch_flow);
        }
    }
}

impl Drop for WorkerTree {
    fn drop(&mut self) {
        self.shutdown();
    }
}
