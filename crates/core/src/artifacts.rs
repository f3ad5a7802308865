//! Model/input artifact staging and loading.
//!
//! Partitioning is *offline post-processing* of a trained model (paper
//! §III): weight row-blocks, ownership lists and send/recv maps are written
//! to object storage ahead of time. At inference time each worker GETs its
//! own artifacts — those requests and transfer times are part of the
//! measured run (the paper attributes serial's slow small-model latency to
//! exactly this weight read — FSD-Inf-Serial's one rank loads the 1-way
//! partition, i.e. the whole model). A worker's artifact set is [`Part`]:
//! staging writes it, the eager loader GETs it, and a streamed cold start
//! (`weight_stream`) multicasts it into a [`PartStore`]. A request's input
//! shares are encoded here too; the service stages the ones that do not
//! ride a warm dispatch ([`load_input_share_into`]).

use crate::retry::RetryPolicy;
use crate::weight_cache::WeightCache;
use crate::wire::{self, LayerMaps};
use fsd_comm::{CloudEnv, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_model::SparseDnn;
use fsd_partition::{CommPlan, Partition};
use fsd_sparse::{codec, ColMajorBlock, SparseRows};
use std::sync::Arc;

/// Bucket holding model and input artifacts (distinct from the
/// intermediate-result buckets so channel LIST scans never see them).
pub(crate) const ARTIFACT_BUCKET: &str = "fsd-artifacts";

/// Artifact parsing throughput (bytes/second on one full vCPU).
const ARTIFACT_DECODE_BPS: f64 = 200e6;

/// One artifact object of a worker's partition.
#[derive(Clone, Copy)]
pub(crate) enum Part {
    /// Global row ids the worker owns (sorted).
    Owned,
    /// The worker's row block of layer `k` (local rows, global columns).
    Layer(usize),
    /// Per-layer send maps `[(target, rows)]`.
    Send,
    /// Per-layer recv maps `[(source, rows)]`.
    Recv,
}

impl Part {
    /// The object key of this part of worker `m` of a `p`-way partition.
    pub(crate) fn key(self, model: &str, p: u32, m: u32) -> String {
        match self {
            Part::Owned => format!("{model}/p{p}/w{m}/owned"),
            Part::Layer(k) => format!("{model}/p{p}/w{m}/L{k}"),
            Part::Send => format!("{model}/p{p}/w{m}/send"),
            Part::Recv => format!("{model}/p{p}/w{m}/recv"),
        }
    }
}

/// Where requests' inputs are staged in the artifact bucket.
pub(crate) const INPUTS: &str = "inputs/";

/// The prefix every staged input share of request `flow` lies under.
pub(crate) fn input_prefix(flow: u64) -> String {
    format!("{INPUTS}req{flow}/")
}

/// Where rank `m`'s share of batch `b` of request `flow` is staged for a
/// `p`-way tree.
pub(crate) fn input_share_key(flow: u64, b: usize, p: u32, m: u32) -> String {
    format!("{}b{b}/p{p}/w{m}", input_prefix(flow))
}

/// Stages the partitioned model for `P = partition.n_parts()` workers:
/// per-worker weight blocks (rows owned, global columns), ownership lists
/// and per-layer send/recv maps.
pub(crate) fn stage_partitioned_model(
    env: &CloudEnv,
    model_key: &str,
    dnn: &SparseDnn,
    partition: &Partition,
    plan: &CommPlan,
) {
    env.object_store().create_bucket(ARTIFACT_BUCKET);
    let p = partition.n_parts() as u32;
    let store = env.object_store();
    for m in 0..p {
        let put = |part: Part, body: Vec<u8>| {
            store
                .put_offline(ARTIFACT_BUCKET, &part.key(model_key, p, m), body)
                .expect("bucket exists");
        };
        let owned = partition.owned(m);
        put(Part::Owned, wire::encode_ids(owned));
        for (k, layer) in dnn.layers().iter().enumerate() {
            put(Part::Layer(k), wire::encode_csr(&layer.select_rows(owned)));
        }
        let layers = || (0..plan.n_layers()).map(|k| plan.layer(k));
        let send: LayerMaps = layers().map(|l| l.send[m as usize].clone()).collect();
        let recv: LayerMaps = layers().map(|l| l.recv[m as usize].clone()).collect();
        put(Part::Send, wire::encode_maps(&send));
        put(Part::Recv, wire::encode_maps(&recv));
    }
}

/// Rank `m`'s share of an input batch, encoded as it is staged or
/// dispatched, for each rank `m` of `partition` in order.
pub(crate) fn encode_input_shares<'a>(
    inputs: &'a SparseRows,
    partition: &'a Partition,
) -> impl Iterator<Item = Vec<u8>> + 'a {
    (0..partition.n_parts() as u32).map(|m| codec::encode(&inputs.extract(partition.owned(m))))
}

/// Stages an encoded input share under `key` (an [`input_share_key`]),
/// where [`load_input_share_into`] GETs it.
pub(crate) fn stage_input_share(env: &CloudEnv, key: &str, share: Vec<u8>) {
    let store = env.object_store();
    store.create_bucket(ARTIFACT_BUCKET);
    store
        .put_offline(ARTIFACT_BUCKET, key, share)
        .expect("bucket exists");
}

/// One layer's weight block: decoded and ready, or still the encoded
/// bytes a streamed cold start received (λScale execute-while-load —
/// layers decode lazily as compute reaches them, so first-layer compute
/// overlaps later-layer transfer).
enum LayerSlot {
    /// Decoded column-major block, ready for the kernel.
    Ready(ColMajorBlock),
    /// Encoded bytes delivered by the weight stream, not yet decoded, and
    /// the virtual time they finished arriving on this instance.
    Pending(Delivered),
}

/// Everything one distributed worker loads before inference starts
/// (inputs arrive separately, per batch — see
/// [`load_input_share_into`]).
pub(crate) struct WorkerArtifacts {
    /// Global row ids this worker owns (sorted).
    pub owned: Vec<u32>,
    /// Per-layer weight blocks. Eager loads fill every slot
    /// [`LayerSlot::Ready`]; streamed loads leave slots
    /// [`LayerSlot::Pending`] until [`WorkerArtifacts::ensure_layer`]
    /// decodes them on first use.
    weights: Vec<LayerSlot>,
    /// Per-layer send maps `[(target, rows)]`.
    pub send: LayerMaps,
    /// Per-layer recv maps `[(source, rows)]`.
    pub recv: LayerMaps,
    /// Number of artifact GET requests issued (cost-model input).
    pub n_gets: u64,
}

impl WorkerArtifacts {
    /// Decodes layer `k` of a `neurons`-wide model if it is still
    /// [`LayerSlot::Pending`]: waits (in virtual time) for the bytes to
    /// finish arriving, then runs the eager load's layer decode — so a
    /// streamed load's decoded blocks, outputs and work totals are
    /// bit-identical to an independent load's. No-op on ready slots.
    pub(crate) fn ensure_layer(
        &mut self,
        ctx: &mut WorkerCtx,
        k: usize,
        neurons: usize,
    ) -> Result<(), FaasError> {
        let LayerSlot::Pending((body, available_at)) = &self.weights[k] else {
            return Ok(());
        };
        ctx.clock_mut().observe(*available_at);
        let block = decode_layer(ctx, body, self.owned.len(), neurons, k)?;
        ctx.track_free(body.len());
        ctx.track_alloc(block.mem_bytes());
        ctx.check_limits()?;
        self.weights[k] = LayerSlot::Ready(block);
        Ok(())
    }

    /// The decoded block of layer `k`. Panics if the slot is still
    /// pending — call [`WorkerArtifacts::ensure_layer`] first.
    pub(crate) fn weight(&self, k: usize) -> &ColMajorBlock {
        match &self.weights[k] {
            LayerSlot::Ready(block) => block,
            LayerSlot::Pending(_) => {
                // fsd_lint::allow(no-unwrap): load-order invariant — the
                // batch loop decodes slot k (`ensure_layer`) before any read
                // of it, so a pending slot here is a library bug, not a
                // recoverable runtime state.
                panic!("layer {k} weights not decoded; ensure_layer must run first")
            }
        }
    }
}

/// Charges the decode of `body` on the worker's clock, then decodes it.
fn decode<T, E: std::fmt::Display>(
    ctx: &mut WorkerCtx,
    body: &[u8],
    what: &str,
    parse: impl FnOnce(&[u8]) -> Result<T, E>,
) -> Result<T, FaasError> {
    ctx.charge_bytes(body.len() as u64, ARTIFACT_DECODE_BPS);
    parse(body).map_err(|e| FaasError::comm("decode", what, e))
}

/// The one layer decode of eager and streamed loads: the CSR sub-block
/// (rows local to the worker's `n_owned`, columns global to the
/// `neurons`-wide model), transposed into a column-major block whose
/// construction is charged as work. A block of any other shape fails the
/// instance before the transpose reads a row past it or sizes a table by
/// its column count.
fn decode_layer(
    ctx: &mut WorkerCtx,
    body: &[u8],
    n_owned: usize,
    neurons: usize,
    k: usize,
) -> Result<ColMajorBlock, FaasError> {
    let what = format!("layer {k}");
    let sub = decode(ctx, body, &what, wire::decode_csr)?;
    if (sub.rows(), sub.cols()) != (n_owned, neurons) {
        let detail = format!(
            "block is {} x {}, expected {n_owned} x {neurons}",
            sub.rows(),
            sub.cols()
        );
        return Err(FaasError::comm("decode", what, detail));
    }
    let local_ids: Vec<u32> = (0..n_owned as u32).collect();
    let block = ColMajorBlock::from_layer(&sub, &local_ids);
    ctx.charge_work(block.nnz() as u64 * 2); // transpose construction
    Ok(block)
}

/// Resident bytes of a worker's decoded send/recv maps.
fn maps_mem(send: &LayerMaps, recv: &LayerMaps) -> usize {
    send.iter()
        .chain(recv)
        .flatten()
        .map(|(_, rows)| 8 + rows.len() * 4)
        .sum()
}

/// Retry-wrapped artifact GET against an arbitrary clock, returning the
/// encoded bytes without charging decode time. The streaming source runs
/// it on the lanes of its [`crate::lanes::Lanes`]; decode is charged by
/// whichever instance actually decodes.
pub(crate) fn fetch_encoded(
    env: &CloudEnv,
    clock: &mut VClock,
    key: &str,
) -> Result<Arc<[u8]>, FaasError> {
    // Artifact GETs are pure reads; a transient fault here would otherwise
    // kill the whole worker before inference even starts, so the default
    // retry policy wraps this single funnel.
    let (res, _) = RetryPolicy.run(clock, |clock| {
        env.object_store().get(ARTIFACT_BUCKET, key, clock)
    });
    res.map_err(|e| FaasError::comm("artifact", key, e))
}

/// Encoded bytes as a weight stream delivered them, and the virtual time
/// they finished arriving ([`VirtualTime::ZERO`] when served from resident
/// cache memory).
type Delivered = (Arc<[u8]>, VirtualTime);

/// One worker's parts as its weight stream delivers them, in any order,
/// until [`assemble_streamed`] consumes them.
pub(crate) struct PartStore {
    /// Each part, its key, and its bytes once delivered: the maps first,
    /// then the layers.
    parts: Vec<(Part, String, Option<Delivered>)>,
    /// Raw bytes stored so far (the caller tracks each as it arrives).
    pub bytes: usize,
}

impl PartStore {
    /// An empty store for worker `m` of a `p`-way, `n_layers`-layer model.
    pub(crate) fn new(model: &str, p: u32, m: u32, n_layers: usize) -> PartStore {
        let parts = [Part::Owned, Part::Send, Part::Recv]
            .into_iter()
            .chain((0..n_layers).map(Part::Layer))
            .map(|part| (part, part.key(model, p, m), None))
            .collect();
        PartStore { parts, bytes: 0 }
    }

    /// Stores the part whose key is `key`.
    pub(crate) fn put(&mut self, key: &str, body: Arc<[u8]>, available_at: VirtualTime) {
        self.bytes += body.len();
        if let Some((.., slot)) = self.parts.iter_mut().find(|(_, k, _)| k == key) {
            *slot = Some((body, available_at));
        }
    }

    /// Whether every part has arrived.
    pub(crate) fn is_complete(&self) -> bool {
        self.parts.iter().all(|(.., delivered)| delivered.is_some())
    }
}

/// Assembles [`WorkerArtifacts`] from a complete [`PartStore`]: ownership
/// and send/recv maps decode eagerly (the serve loop needs them before the
/// first batch), weight layers stay [`LayerSlot::Pending`] for lazy decode.
/// The caller must already have `track_alloc`ed every raw body as it
/// arrived; this converts the map bodies to their decoded forms in the
/// memory tracker and leaves layer bodies resident. `n_gets` is the GET
/// requests *this instance* issued.
pub(crate) fn assemble_streamed(
    ctx: &mut WorkerCtx,
    store: PartStore,
    n_gets: u64,
) -> Result<WorkerArtifacts, FaasError> {
    let (mut owned, mut send, mut recv) = (Vec::new(), Vec::new(), Vec::new());
    let mut weights = Vec::with_capacity(store.parts.len());
    let mut map_bytes = 0;
    for (part, key, delivered) in store.parts {
        let (body, available_at) =
            delivered.ok_or_else(|| FaasError::comm("stream", key, "part never arrived"))?;
        if let Part::Layer(_) = part {
            weights.push(LayerSlot::Pending((body, available_at)));
            continue;
        }
        ctx.clock_mut().observe(available_at);
        match part {
            Part::Owned => owned = decode(ctx, &body, "owned ids", wire::decode_ids)?,
            Part::Send => send = decode(ctx, &body, "send maps", wire::decode_maps)?,
            Part::Recv => recv = decode(ctx, &body, "recv maps", wire::decode_maps)?,
            Part::Layer(_) => {}
        }
        map_bytes += body.len();
    }
    ctx.track_free(map_bytes);
    ctx.track_alloc(owned.len() * 4 + maps_mem(&send, &recv));
    ctx.check_limits()?;
    Ok(WorkerArtifacts {
        owned,
        weights,
        send,
        recv,
        n_gets,
    })
}

/// Loads a distributed worker's artifacts, charging GET latencies, decode
/// work and resident memory against the FaaS context, part by part: GET,
/// then decode, then track.
///
/// The GETs run one after another on the worker's own clock, not on its
/// lanes: this load is the eager cold start the `cold_start` bench gates
/// a streamed start against (ROADMAP item 21).
///
/// `cache` selects the GET. `None` GETs every object (retry-wrapped).
/// `Some` reads cache-first — a resident block costs no GET and no
/// transfer wait, only its decode — and inserts every miss, which keeps a
/// streamed launch's fallback load (see `weight_stream`) at exactly one
/// GET per object globally.
pub(crate) fn load_worker_artifacts(
    ctx: &mut WorkerCtx,
    model_key: &str,
    p: u32,
    m: u32,
    n_layers: usize,
    neurons: usize,
    cache: Option<&WeightCache>,
) -> Result<WorkerArtifacts, FaasError> {
    let mut n_gets = 0u64;
    let mut get = |ctx: &mut WorkerCtx, part: Part| -> Result<Arc<[u8]>, FaasError> {
        let key = part.key(model_key, p, m);
        if let Some(body) = cache.and_then(|c| c.lookup(&key)) {
            return Ok(body);
        }
        let insert = cache.map(|c| (c, c.generation()));
        let env = ctx.env().clone();
        let body = fetch_encoded(&env, ctx.clock_mut(), &key)?;
        n_gets += 1;
        if let Some((cache, generation)) = insert {
            cache.insert_block(&key, body.clone(), generation);
        }
        Ok(body)
    };
    let body = get(ctx, Part::Owned)?;
    let owned = decode(ctx, &body, "owned ids", wire::decode_ids)?;
    ctx.track_alloc(owned.len() * 4);
    let mut weights = Vec::with_capacity(n_layers);
    for k in 0..n_layers {
        let body = get(ctx, Part::Layer(k))?;
        let block = decode_layer(ctx, &body, owned.len(), neurons, k)?;
        // Tracked as it loads: an instance too small for its blocks dies
        // mid-load, as a real one would.
        ctx.track_alloc(block.mem_bytes());
        ctx.check_limits()?;
        weights.push(LayerSlot::Ready(block));
    }
    let body = get(ctx, Part::Send)?;
    let send = decode(ctx, &body, "send maps", wire::decode_maps)?;
    let body = get(ctx, Part::Recv)?;
    let recv = decode(ctx, &body, "recv maps", wire::decode_maps)?;
    ctx.track_alloc(maps_mem(&send, &recv));
    ctx.check_limits()?;
    Ok(WorkerArtifacts {
        owned,
        weights,
        send,
        recv,
        n_gets,
    })
}

/// Loads one worker's share of one input batch into a block whose buffers
/// are reused, and returns whether it issued a GET. A share that rode the
/// rank's dispatch (`inline`) is read from there: its body time is charged
/// at the S3 stream rate, as the same bytes reach the instance, but no
/// GET's first-byte latency, request or artifact count. Any other share is
/// GET from `key` (an [`input_share_key`]), where the service staged it.
/// Either way the decode and the decoded block are charged to the instance.
pub(crate) fn load_input_share_into(
    ctx: &mut WorkerCtx,
    key: &str,
    inline: Option<&[u8]>,
    inputs: &mut SparseRows,
) -> Result<bool, FaasError> {
    let env = ctx.env().clone();
    let fetched;
    let body = match inline {
        Some(body) => {
            ctx.clock_mut()
                .advance_micros(env.latency().s3_body_us(body.len()));
            body
        }
        None => {
            fetched = fetch_encoded(&env, ctx.clock_mut(), key)?;
            &fetched[..]
        }
    };
    decode(ctx, body, "inputs", |b| codec::decode_into(b, inputs))?;
    ctx.track_alloc(inputs.mem_bytes());
    ctx.check_limits()?;
    Ok(inline.is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_comm::CloudConfig;
    use fsd_faas::{ComputeModel, FaasPlatform, FunctionConfig};
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use fsd_partition::{partition_model, PartitionScheme};
    use fsd_sparse::CsrMatrix;
    use std::sync::Arc;

    fn setup() -> (Arc<CloudEnv>, SparseDnn, Partition, CommPlan, SparseRows) {
        let env = CloudEnv::new(CloudConfig::deterministic(7));
        let dnn = generate_dnn(&DnnSpec {
            neurons: 64,
            layers: 3,
            nnz_per_row: 8,
            bias: -0.2,
            clip: 32.0,
            seed: 5,
        });
        let part = partition_model(&dnn, 4, PartitionScheme::Block, 1);
        let plan = CommPlan::build(&dnn, &part);
        let inputs = generate_inputs(64, &InputSpec::scaled(16, 2));
        (env, dnn, part, plan, inputs)
    }

    #[test]
    fn staged_worker_artifacts_roundtrip() {
        let (env, dnn, part, plan, inputs) = setup();
        stage_partitioned_model(&env, "m1", &dnn, &part, &plan);
        let shares: Vec<Vec<u8>> = encode_input_shares(&inputs, &part).collect();
        for (m, share) in shares.iter().enumerate() {
            stage_input_share(&env, &input_share_key(1, 0, 4, m as u32), share.clone());
        }
        let platform = FaasPlatform::new(env.clone(), ComputeModel::default());
        for m in 0..4u32 {
            let part = part.clone();
            let plan = plan.clone();
            let inputs = inputs.clone();
            let (art, _) = platform
                .invoke(
                    FunctionConfig::worker("w", 4096),
                    VirtualTime::ZERO,
                    move |ctx| {
                        let art = load_worker_artifacts(ctx, "m1", 4, m, 3, 64, None)?;
                        let mut share = SparseRows::new(0);
                        let key = input_share_key(1, 0, 4, m);
                        assert!(load_input_share_into(ctx, &key, None, &mut share)?);
                        assert_eq!(art.owned, part.owned(m));
                        assert_eq!(art.weights.len(), 3);
                        assert_eq!(art.send.len(), 3);
                        assert_eq!(art.send[0], plan.layer(0).send[m as usize]);
                        assert_eq!(art.recv[2], plan.layer(2).recv[m as usize]);
                        assert_eq!(share, inputs.extract(part.owned(m)));
                        assert!(art.n_gets >= 5);
                        Ok(art.n_gets)
                    },
                )
                .join()
                .expect("load ok");
            assert!(art >= 6);
        }
        // A share that rides the dispatch decodes to the same block and
        // GETs nothing; the staged copy of the same share costs exactly one
        // GET's first byte more, so both pay the same body time and decode.
        let gets = env.meter().snapshot().s3_get_requests;
        let first_byte = env.latency().s3_get_us;
        for (m, body) in shares.into_iter().enumerate() {
            let expected = inputs.extract(part.owned(m as u32));
            let load = |inline: bool| {
                let (body, expected) = (body.clone(), expected.clone());
                platform
                    .invoke(
                        FunctionConfig::worker("w", 1769),
                        VirtualTime::ZERO,
                        move |ctx| {
                            let mut share = SparseRows::new(0);
                            let inline = inline.then_some(&body[..]);
                            let key = input_share_key(1, 0, 4, m as u32);
                            let got = load_input_share_into(ctx, &key, inline, &mut share)?;
                            assert_eq!(share, expected);
                            Ok((got, ctx.now()))
                        },
                    )
                    .join()
                    .expect("load ok")
                    .0
            };
            let (inline_got, inline_at) = load(true);
            assert!(!inline_got);
            assert_eq!(env.meter().snapshot().s3_get_requests, gets + m as u64);
            let (staged_got, staged_at) = load(false);
            assert!(staged_got);
            assert_eq!(env.meter().snapshot().s3_get_requests, gets + m as u64 + 1);
            assert_eq!(staged_at.as_micros() - inline_at.as_micros(), first_byte);
        }
    }

    #[test]
    fn a_mis_shaped_layer_block_fails_the_load() {
        let (env, dnn, part, plan, _) = setup();
        stage_partitioned_model(&env, "m1", &dnn, &part, &plan);
        let owned = part.owned(1);
        let block = dnn.layers()[0].select_rows(owned);
        let (indptr, indices, values) = block.parts();
        let short = dnn.layers()[0].select_rows(&owned[..owned.len() - 1]);
        let wide = CsrMatrix::new(
            owned.len(),
            65,
            indptr.to_vec(),
            indices.to_vec(),
            values.to_vec(),
        )
        .expect("valid");
        let platform = FaasPlatform::new(env.clone(), ComputeModel::default());
        for bad in [short, wide] {
            let key = Part::Layer(0).key("m1", 4, 1);
            env.object_store()
                .put_offline(ARTIFACT_BUCKET, &key, wire::encode_csr(&bad))
                .expect("bucket exists");
            let res = platform
                .invoke(
                    FunctionConfig::worker("w", 4096),
                    VirtualTime::ZERO,
                    |ctx| load_worker_artifacts(ctx, "m1", 4, 1, 3, 64, None).map(|_| ()),
                )
                .join();
            match res {
                Err(FaasError::Comm(failure)) => {
                    assert_eq!((failure.op, &*failure.resource), ("decode", "layer 0"));
                }
                other => panic!("{} x {} block: {other:?}", bad.rows(), bad.cols()),
            }
        }
    }

    #[test]
    fn one_rank_load_of_oversized_model_ooms_mid_load() {
        let (env, dnn, ..) = setup();
        let whole = partition_model(&dnn, 1, PartitionScheme::Block, 1);
        let plan = CommPlan::build(&dnn, &whole);
        stage_partitioned_model(&env, "m1", &dnn, &whole, &plan);
        let platform = FaasPlatform::new(env.clone(), ComputeModel::default());
        // A 128 MB box with room for the ownership list only: the first
        // weight block must push it over, before any later layer is read.
        let res = platform
            .invoke(
                FunctionConfig::worker("w", 128),
                VirtualTime::ZERO,
                move |ctx| {
                    ctx.track_alloc(128 * 1024 * 1024 - 64 * 4);
                    load_worker_artifacts(ctx, "m1", 1, 0, 3, 64, None).map(|_| ())
                },
            )
            .join();
        assert!(matches!(res, Err(FaasError::OutOfMemory { .. })), "{res:?}");
        assert_eq!(env.meter().snapshot().s3_get_requests, 2, "owned + L0");
    }

    #[test]
    fn missing_artifacts_error_cleanly() {
        let (env, ..) = setup();
        let platform = FaasPlatform::new(env, ComputeModel::default());
        let res = platform
            .invoke(
                FunctionConfig::worker("w", 1024),
                VirtualTime::ZERO,
                |ctx| load_worker_artifacts(ctx, "ghost", 4, 0, 3, 64, None).map(|_| ()),
            )
            .join();
        assert!(matches!(res, Err(FaasError::Comm(_))));
    }
}
