//! Model/input artifact staging and loading.
//!
//! Partitioning is *offline post-processing* of a trained model (paper
//! §III): weight row-blocks, ownership lists and send/recv maps are written
//! to object storage ahead of time. At inference time each worker GETs its
//! own artifacts — those requests and transfer times are part of the
//! measured run (the paper attributes serial's slow small-model latency to
//! exactly this weight read — FSD-Inf-Serial's one rank loads the 1-way
//! partition, i.e. the whole model).

use crate::retry::RetryPolicy;
use crate::weight_cache::WeightCache;
use crate::wire;
use fsd_comm::{CloudEnv, VClock, VirtualTime};
use fsd_faas::{FaasError, WorkerCtx};
use fsd_model::SparseDnn;
use fsd_partition::{CommPlan, Partition};
use fsd_sparse::{codec, ColMajorBlock, SparseRows};
use std::sync::Arc;

/// Bucket holding model and input artifacts (distinct from the
/// intermediate-result buckets so channel LIST scans never see them).
pub const ARTIFACT_BUCKET: &str = "fsd-artifacts";

/// Artifact parsing throughput (bytes/second on one full vCPU).
pub(crate) const ARTIFACT_DECODE_BPS: f64 = 200e6;

/// Key layout helpers. The `worker_*` ones are crate-visible: the
/// weight-streaming source enumerates every rank's keys to build its
/// multicast manifest, and receivers enumerate their own to classify
/// incoming frames.
pub(crate) fn worker_layer_key(model: &str, p: u32, m: u32, k: usize) -> String {
    format!("{model}/p{p}/w{m}/L{k}")
}
pub(crate) fn worker_owned_key(model: &str, p: u32, m: u32) -> String {
    format!("{model}/p{p}/w{m}/owned")
}
pub(crate) fn worker_send_key(model: &str, p: u32, m: u32) -> String {
    format!("{model}/p{p}/w{m}/send")
}
pub(crate) fn worker_recv_key(model: &str, p: u32, m: u32) -> String {
    format!("{model}/p{p}/w{m}/recv")
}
fn input_worker_key(input: &str, p: u32, m: u32) -> String {
    format!("{input}/p{p}/w{m}")
}

/// Stages the partitioned model for `P = partition.n_parts()` workers:
/// per-worker weight blocks (rows owned, global columns), ownership lists
/// and per-layer send/recv maps.
pub fn stage_partitioned_model(
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
        let owned = partition.owned(m);
        store
            .put_offline(
                ARTIFACT_BUCKET,
                &worker_owned_key(model_key, p, m),
                wire::encode_ids(owned),
            )
            .expect("bucket exists");
        for (k, layer) in dnn.layers().iter().enumerate() {
            let sub = layer.select_rows(owned);
            store
                .put_offline(
                    ARTIFACT_BUCKET,
                    &worker_layer_key(model_key, p, m, k),
                    wire::encode_csr(&sub),
                )
                .expect("bucket exists");
        }
        let send: Vec<Vec<(u32, Vec<u32>)>> = (0..plan.n_layers())
            .map(|k| plan.layer(k).send[m as usize].clone())
            .collect();
        let recv: Vec<Vec<(u32, Vec<u32>)>> = (0..plan.n_layers())
            .map(|k| plan.layer(k).recv[m as usize].clone())
            .collect();
        store
            .put_offline(
                ARTIFACT_BUCKET,
                &worker_send_key(model_key, p, m),
                wire::encode_maps(&send),
            )
            .expect("bucket exists");
        store
            .put_offline(
                ARTIFACT_BUCKET,
                &worker_recv_key(model_key, p, m),
                wire::encode_maps(&recv),
            )
            .expect("bucket exists");
    }
}

/// Stages an input batch as one share per worker of `partition`.
pub fn stage_inputs(env: &CloudEnv, input_key: &str, inputs: &SparseRows, partition: &Partition) {
    env.object_store().create_bucket(ARTIFACT_BUCKET);
    let store = env.object_store();
    let p = partition.n_parts() as u32;
    for m in 0..p {
        let share = inputs.extract(partition.owned(m));
        store
            .put_offline(
                ARTIFACT_BUCKET,
                &input_worker_key(input_key, p, m),
                codec::encode(&share),
            )
            .expect("bucket exists");
    }
}

/// One layer's weight block: decoded and ready, or still the encoded
/// bytes a streamed cold start received (λScale execute-while-load —
/// layers decode lazily as compute reaches them, so first-layer compute
/// overlaps later-layer transfer).
pub enum LayerSlot {
    /// Decoded column-major block, ready for the kernel.
    Ready(ColMajorBlock),
    /// Encoded bytes delivered by the weight stream, not yet decoded.
    Pending {
        /// The wire-encoded CSR sub-block.
        body: Arc<[u8]>,
        /// Virtual time the bytes finished arriving on this instance
        /// ([`VirtualTime::ZERO`] for blocks served from the process-wide
        /// weight cache: they are already resident memory).
        available_at: VirtualTime,
    },
}

/// Everything one distributed worker loads before inference starts
/// (inputs are fetched separately, per batch — see [`load_input_share`]).
pub struct WorkerArtifacts {
    /// Global row ids this worker owns (sorted).
    pub owned: Vec<u32>,
    /// Per-layer weight blocks. Eager loads fill every slot
    /// [`LayerSlot::Ready`]; streamed loads leave slots
    /// [`LayerSlot::Pending`] until [`WorkerArtifacts::ensure_layer`]
    /// decodes them on first use.
    pub weights: Vec<LayerSlot>,
    /// Per-layer send maps `[(target, rows)]`.
    pub send: Vec<Vec<(u32, Vec<u32>)>>,
    /// Per-layer recv maps `[(source, rows)]`.
    pub recv: Vec<Vec<(u32, Vec<u32>)>>,
    /// Number of artifact GET requests issued (cost-model input).
    pub n_gets: u64,
    /// Tracked resident bytes for the FaaS memory model.
    pub mem_bytes: usize,
}

impl WorkerArtifacts {
    /// Decodes layer `k` if it is still [`LayerSlot::Pending`]: waits (in
    /// virtual time) for the bytes to finish arriving, then charges the
    /// same decode bytes and transpose work an eager load charges — so a
    /// streamed load's decoded blocks, outputs and work totals are
    /// bit-identical to an independent load's. No-op on ready slots.
    pub fn ensure_layer(&mut self, ctx: &mut WorkerCtx, k: usize) -> Result<(), FaasError> {
        let (body, available_at) = match &self.weights[k] {
            LayerSlot::Ready(_) => return Ok(()),
            LayerSlot::Pending { body, available_at } => (body.clone(), *available_at),
        };
        ctx.clock_mut().observe(available_at);
        ctx.charge_bytes(body.len() as u64, ARTIFACT_DECODE_BPS);
        let sub = wire::decode_csr(&body)
            .map_err(|e| FaasError::comm("decode", format!("layer {k}"), e))?;
        let local_ids: Vec<u32> = (0..self.owned.len() as u32).collect();
        let block = ColMajorBlock::from_layer(&sub, &local_ids);
        ctx.charge_work(block.nnz() as u64 * 2); // transpose construction
        ctx.track_free(body.len());
        ctx.track_alloc(block.mem_bytes());
        self.mem_bytes = self.mem_bytes.saturating_sub(body.len()) + block.mem_bytes();
        ctx.check_limits()?;
        self.weights[k] = LayerSlot::Ready(block);
        Ok(())
    }

    /// The decoded block of layer `k`. Panics if the slot is still
    /// pending — call [`WorkerArtifacts::ensure_layer`] first.
    pub fn weight(&self, k: usize) -> &ColMajorBlock {
        match &self.weights[k] {
            LayerSlot::Ready(block) => block,
            LayerSlot::Pending { .. } => {
                // fsd_lint::allow(no-unwrap): load-order invariant — the
                // batch loop decodes slot k (`ensure_layer`) before any read
                // of it, so a pending slot here is a library bug, not a
                // recoverable runtime state.
                panic!("layer {k} weights not decoded; ensure_layer must run first")
            }
        }
    }
}

/// Artifact GET on the worker's own clock, charging the decode of the
/// bytes it returns.
fn fetch(ctx: &mut WorkerCtx, key: &str) -> Result<Arc<[u8]>, FaasError> {
    let env = ctx.env().clone();
    let body = fetch_encoded(&env, ctx.clock_mut(), key)?;
    ctx.charge_bytes(body.len() as u64, ARTIFACT_DECODE_BPS);
    Ok(body)
}

/// Retry-wrapped artifact GET against an arbitrary clock, returning the
/// encoded bytes without charging decode time. The streaming source uses
/// this with its pipelined fetch-slot clocks; decode is charged later, on
/// whichever instance actually decodes ([`WorkerArtifacts::ensure_layer`]
/// / [`assemble_streamed`]).
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

/// One artifact object as the weight stream delivered it: encoded bytes
/// plus the virtual time they finished arriving ([`VirtualTime::ZERO`]
/// when served from resident cache memory).
pub(crate) struct StreamedPart {
    pub body: Arc<[u8]>,
    pub available_at: VirtualTime,
}

/// A worker's full artifact set in streamed form, before assembly.
/// `n_gets` is the GET requests *this instance* issued (the multicast
/// source counts its fetches; pure receivers count zero unless they fell
/// back to direct loads).
pub(crate) struct StreamedArtifacts {
    pub owned: StreamedPart,
    pub send: StreamedPart,
    pub recv: StreamedPart,
    pub layers: Vec<StreamedPart>,
    pub n_gets: u64,
}

/// Assembles [`WorkerArtifacts`] from streamed parts: ownership and
/// send/recv maps decode eagerly (the serve loop needs them before the
/// first batch), weight layers stay [`LayerSlot::Pending`] for lazy
/// decode. The caller must already have `track_alloc`ed every raw body as
/// it arrived; this converts the map bodies to their decoded forms in the
/// memory tracker and leaves layer bodies resident.
pub(crate) fn assemble_streamed(
    ctx: &mut WorkerCtx,
    parts: StreamedArtifacts,
) -> Result<WorkerArtifacts, FaasError> {
    let StreamedArtifacts {
        owned,
        send,
        recv,
        layers,
        n_gets,
    } = parts;
    ctx.clock_mut().observe(owned.available_at);
    ctx.charge_bytes(owned.body.len() as u64, ARTIFACT_DECODE_BPS);
    let owned_ids =
        wire::decode_ids(&owned.body).map_err(|e| FaasError::comm("decode", "owned ids", e))?;
    ctx.clock_mut().observe(send.available_at);
    ctx.charge_bytes(send.body.len() as u64, ARTIFACT_DECODE_BPS);
    let send_maps =
        wire::decode_maps(&send.body).map_err(|e| FaasError::comm("decode", "send maps", e))?;
    ctx.clock_mut().observe(recv.available_at);
    ctx.charge_bytes(recv.body.len() as u64, ARTIFACT_DECODE_BPS);
    let recv_maps =
        wire::decode_maps(&recv.body).map_err(|e| FaasError::comm("decode", "recv maps", e))?;
    let decoded_mem = owned_ids.len() * 4
        + send_maps
            .iter()
            .chain(recv_maps.iter())
            .flatten()
            .map(|(_, r)| 8 + r.len() * 4)
            .sum::<usize>();
    ctx.track_free(owned.body.len() + send.body.len() + recv.body.len());
    ctx.track_alloc(decoded_mem);
    let mem = decoded_mem + layers.iter().map(|l| l.body.len()).sum::<usize>();
    let weights = layers
        .into_iter()
        .map(|l| LayerSlot::Pending {
            body: l.body,
            available_at: l.available_at,
        })
        .collect();
    ctx.check_limits()?;
    Ok(WorkerArtifacts {
        owned: owned_ids,
        weights,
        send: send_maps,
        recv: recv_maps,
        n_gets,
        mem_bytes: mem,
    })
}

/// Loads a distributed worker's artifacts, charging GET latencies, decode
/// work and resident memory against the FaaS context.
///
/// `cache` selects the GET. `None` GETs every object (retry-wrapped).
/// `Some` reads cache-first — a resident block costs no GET and no
/// transfer wait, only its decode — and inserts every miss, which keeps a
/// streamed launch's fallback load (see `weight_stream`) at exactly one
/// GET per object globally.
pub fn load_worker_artifacts(
    ctx: &mut WorkerCtx,
    model_key: &str,
    p: u32,
    m: u32,
    n_layers: usize,
    cache: Option<&WeightCache>,
) -> Result<WorkerArtifacts, FaasError> {
    let mut n_gets = 0u64;
    let mut get = |ctx: &mut WorkerCtx, key: &str| -> Result<Arc<[u8]>, FaasError> {
        if let Some(body) = cache.and_then(|c| c.lookup(key)) {
            ctx.charge_bytes(body.len() as u64, ARTIFACT_DECODE_BPS);
            return Ok(body);
        }
        let insert = cache.map(|c| (c, c.generation()));
        let body = fetch(ctx, key)?;
        n_gets += 1;
        if let Some((cache, generation)) = insert {
            cache.insert_block(key, body.clone(), generation);
        }
        Ok(body)
    };
    let owned = wire::decode_ids(&get(ctx, &worker_owned_key(model_key, p, m))?)
        .map_err(|e| FaasError::comm("decode", "owned ids", e))?;
    let local_ids: Vec<u32> = (0..owned.len() as u32).collect();
    let mut weights = Vec::with_capacity(n_layers);
    let mut mem = owned.len() * 4;
    ctx.track_alloc(mem);
    for k in 0..n_layers {
        let sub = wire::decode_csr(&get(ctx, &worker_layer_key(model_key, p, m, k))?)
            .map_err(|e| FaasError::comm("decode", format!("layer {k}"), e))?;
        // The sub-block's rows are local (0..owned); columns stay global.
        let block = ColMajorBlock::from_layer(&sub, &local_ids);
        ctx.charge_work(block.nnz() as u64 * 2); // transpose construction
        mem += block.mem_bytes();
        // Tracked as it loads: an instance too small for its blocks dies
        // mid-load, as a real one would.
        ctx.track_alloc(block.mem_bytes());
        ctx.check_limits()?;
        weights.push(LayerSlot::Ready(block));
    }
    let send = wire::decode_maps(&get(ctx, &worker_send_key(model_key, p, m))?)
        .map_err(|e| FaasError::comm("decode", "send maps", e))?;
    let recv = wire::decode_maps(&get(ctx, &worker_recv_key(model_key, p, m))?)
        .map_err(|e| FaasError::comm("decode", "recv maps", e))?;
    let maps_mem = send
        .iter()
        .chain(recv.iter())
        .flatten()
        .map(|(_, r)| 8 + r.len() * 4)
        .sum::<usize>();
    mem += maps_mem;
    ctx.track_alloc(maps_mem);
    ctx.check_limits()?;
    Ok(WorkerArtifacts {
        owned,
        weights,
        send,
        recv,
        n_gets,
        mem_bytes: mem,
    })
}

/// Loads one worker's share of one input batch (a GET + decode, tracked
/// against the FaaS memory model).
pub fn load_input_share(
    ctx: &mut WorkerCtx,
    input_key: &str,
    p: u32,
    m: u32,
) -> Result<SparseRows, FaasError> {
    let mut inputs = SparseRows::new(0);
    load_input_share_into(ctx, input_key, p, m, &mut inputs)?;
    Ok(inputs)
}

/// [`load_input_share`] into a block whose buffers are reused.
pub(crate) fn load_input_share_into(
    ctx: &mut WorkerCtx,
    input_key: &str,
    p: u32,
    m: u32,
    inputs: &mut SparseRows,
) -> Result<(), FaasError> {
    codec::decode_into(&fetch(ctx, &input_worker_key(input_key, p, m))?, inputs)
        .map_err(|e| FaasError::comm("decode", "inputs", e))?;
    ctx.track_alloc(inputs.mem_bytes());
    ctx.check_limits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_comm::{CloudConfig, VirtualTime};
    use fsd_faas::{ComputeModel, FaasPlatform, FunctionConfig};
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
    use fsd_partition::{partition_model, PartitionScheme};
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
        stage_inputs(&env, "i1", &inputs, &part);
        let platform = FaasPlatform::new(env, ComputeModel::default());
        for m in 0..4u32 {
            let part = part.clone();
            let plan = plan.clone();
            let inputs = inputs.clone();
            let (art, _) = platform
                .invoke(
                    FunctionConfig::worker("w", 4096),
                    VirtualTime::ZERO,
                    move |ctx| {
                        let art = load_worker_artifacts(ctx, "m1", 4, m, 3, None)?;
                        let share = load_input_share(ctx, "i1", 4, m)?;
                        assert_eq!(art.owned, part.owned(m));
                        assert_eq!(art.weights.len(), 3);
                        assert_eq!(art.send.len(), 3);
                        assert_eq!(art.send[0], plan.layer(0).send[m as usize]);
                        assert_eq!(art.recv[2], plan.layer(2).recv[m as usize]);
                        assert_eq!(share, inputs.extract(part.owned(m)));
                        assert!(art.n_gets >= 5);
                        assert!(art.mem_bytes > 0);
                        Ok(art.n_gets)
                    },
                )
                .join()
                .expect("load ok");
            assert!(art >= 6);
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
                    load_worker_artifacts(ctx, "m1", 1, 0, 3, None).map(|_| ())
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
                |ctx| load_worker_artifacts(ctx, "ghost", 4, 0, 3, None).map(|_| ()),
            )
            .join();
        assert!(matches!(res, Err(FaasError::Comm(_))));
    }
}
