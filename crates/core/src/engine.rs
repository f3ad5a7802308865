//! Public request/report types of the serving API.
//!
//! The engine logic itself lives in [`crate::service::FsdService`]; this
//! module defines what goes in (requests, [`EngineConfig`]) and what comes
//! out ([`InferenceReport`]).

use crate::channel::ChannelOptions;
use crate::cost::CostBreakdown;
use crate::lanes::LANES;
use fsd_comm::{CloudConfig, MeterSnapshot, VirtualTime};
use fsd_faas::{launch, ComputeModel, LambdaSnapshot, MAX_MEMORY_MB};
use fsd_partition::PartitionScheme;
use fsd_sparse::SparseRows;

use crate::stats::ChannelStatsSnapshot;

/// Which FSD-Inference variant executes a request (paper §VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variant {
    /// Single instance, no communication.
    Serial,
    /// Pub-sub/queueing channel (FSI Algorithm 1).
    Queue,
    /// Object-storage channel (FSI Algorithm 2).
    Object,
    /// Queue control plane with per-target payloads above
    /// `ChannelOptions::spill_threshold` spilled to object storage and
    /// dereferenced through in-queue pointer records.
    Hybrid,
    /// FMI-style direct exchange: NAT-punched pairwise connections
    /// between workers, zero per-message API cost after the handshake.
    Direct,
    /// Per-request routing by the Section IV-C recommendation rules: the
    /// service picks Serial/Direct/Queue/Hybrid/Object from the model
    /// size and the estimated per-pair payload volume of this request.
    Auto,
}

impl Variant {
    /// Every variant, in declaration order. Compile-time companion of the
    /// enum: the channel-name inverse ([`Variant::from_channel_name`]) and
    /// exhaustiveness-sensitive sweeps iterate this so their coverage can
    /// never drift from the enum definition. Keep in sync when adding a
    /// variant — the `variant-exhaustive` lint flags every match site.
    pub const ALL: [Variant; 6] = [
        Variant::Serial,
        Variant::Queue,
        Variant::Object,
        Variant::Hybrid,
        Variant::Direct,
        Variant::Auto,
    ];

    /// The name of the channel this variant runs on — the one place
    /// service names are written; `None` for Serial, whose one-rank tree
    /// never uses its channel and names no service resource, and for Auto,
    /// which resolves into another variant first.
    pub(crate) fn channel_name(self) -> Option<&'static str> {
        match self {
            Variant::Serial | Variant::Auto => None,
            Variant::Queue => Some("queue"),
            Variant::Object => Some("object"),
            Variant::Hybrid => Some("hybrid"),
            Variant::Direct => Some("direct"),
        }
    }

    /// The variant whose channel is named `name` (`"queue"`, `"object"`,
    /// `"hybrid"` or `"direct"`).
    pub fn from_channel_name(name: &str) -> Option<Variant> {
        Variant::ALL
            .into_iter()
            .find(|v| v.channel_name() == Some(name))
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Variant::Serial => write!(f, "FSD-Inf-Serial"),
            Variant::Queue => write!(f, "FSD-Inf-Queue"),
            Variant::Object => write!(f, "FSD-Inf-Object"),
            Variant::Hybrid => write!(f, "FSD-Inf-Hybrid"),
            Variant::Direct => write!(f, "FSD-Inf-Direct"),
            Variant::Auto => write!(f, "FSD-Inf-Auto"),
        }
    }
}

/// How a request's worker tree came to exist (reported per request so
/// callers, schedulers and benches can split latency by path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaunchPath {
    /// The request paid the full launch bill: coordinator invoke + cold
    /// start, the launch tree's invocations
    /// ([`EngineConfig::launch_fanout`]) and per-worker weight loads
    /// (every request of a service without a warm pool, and a pool miss —
    /// Serial's one-rank tree included). With
    /// [`EngineConfig::stream_weights`] the bill shrinks — instances are
    /// provisioned flat and weights are multicast/cached instead of
    /// independently fetched — but the path still reports `ColdStart`.
    ColdStart,
    /// The request was routed into an already-launched, weights-resident
    /// warm tree: no invocations, no cold starts, no launch rounds, no
    /// weight loads — one control-plane hop.
    WarmHit,
}

impl std::fmt::Display for LaunchPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchPath::ColdStart => write!(f, "cold-start"),
            LaunchPath::WarmHit => write!(f, "warm-hit"),
        }
    }
}

/// Engine configuration (the raw knobs behind `ServiceBuilder`).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Simulated cloud region parameters.
    pub cloud: CloudConfig,
    /// FaaS compute-time model.
    pub compute: ComputeModel,
    /// Channel tuning (threads, long-poll wait, compression, chunking).
    pub channel: ChannelOptions,
    /// Fan-out of the eager launch tree. `None` (the default) picks it
    /// per tree with [`EngineConfig::launch_fanout`]; `Some(b)` forces a
    /// `b`-ary tree (`Some(1)` is the serial chain). The streamed launch
    /// is flat whatever this says.
    pub branching: Option<usize>,
    /// Partitioning scheme for distributed variants.
    pub scheme: PartitionScheme,
    /// Seed for partitioning.
    pub seed: u64,
    /// Memory for the FSD-Inf-Serial instance (defaults to Lambda's
    /// maximum, as in the paper; tests lower it to exercise OOM paths).
    pub serial_memory_mb: u32,
    /// λScale-style cold-start weight streaming: when `true`, a cold tree
    /// launch provisions all `P` instances flat (FaaSNet-style — the tree
    /// distributes *state*, not invocations), rank 0 fetches every
    /// partition's weight blocks once and multicasts them down a 4-ary
    /// relay tree over the weight fabric, descendants decode layers lazily
    /// as compute reaches them (execute-while-load), and fetched blocks are
    /// kept in the service-wide [`crate::WeightCache`]. `false` (the
    /// default) keeps the original independent per-worker loads — and
    /// their bit-stable timing — untouched.
    pub stream_weights: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            cloud: CloudConfig::default(),
            compute: ComputeModel::default(),
            channel: ChannelOptions::default(),
            branching: None,
            scheme: PartitionScheme::Hgp,
            seed: 0,
            serial_memory_mb: MAX_MEMORY_MB,
            stream_weights: false,
        }
    }
}

impl EngineConfig {
    /// The default configuration with the region
    /// ([`CloudConfig::deterministic`]) and the partitioning seeded with
    /// `seed`. Every region is deterministic; this only pins the seeds.
    pub fn deterministic(seed: u64) -> EngineConfig {
        EngineConfig {
            cloud: CloudConfig::deterministic(seed),
            seed,
            ..EngineConfig::default()
        }
    }

    /// The eager launch's fan-out for a tree of `workers` ranks: the
    /// [`EngineConfig::branching`] override, or else
    /// [`launch::best_fanout`] over the worker's lane pool and the
    /// region's Invoke round trip and cold start (flat up to P = 81).
    pub fn launch_fanout(&self, workers: u32) -> usize {
        self.branching.unwrap_or_else(|| {
            let lat = &self.cloud.latency;
            launch::best_fanout(
                workers as usize,
                LANES,
                lat.lambda_invoke_us,
                lat.lambda_cold_start_us,
            )
        })
    }
}

/// One inference request: a one-batch [`BatchedRequest`].
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    /// Execution variant ([`Variant::Auto`] routes per request).
    pub variant: Variant,
    /// Worker count `P` (Serial runs one rank whatever is asked).
    pub workers: u32,
    /// Per-worker memory MB (Serial runs at
    /// [`EngineConfig::serial_memory_mb`], Lambda's 10 GB maximum by
    /// default, as the paper).
    pub memory_mb: u32,
    /// The input batch.
    pub inputs: SparseRows,
}

/// A request carrying several successive batches, processed by one worker
/// tree (paper Fig. 1) — launch and weight loads amortize across the
/// batches. No barrier separates them: the tags keep batches apart.
#[derive(Debug, Clone)]
pub struct BatchedRequest {
    /// Execution variant ([`Variant::Auto`] routes per request).
    pub variant: Variant,
    /// Worker count `P` (Serial runs one rank whatever is asked). `0`
    /// runs one rank under the requested variant. A `P` above the model's
    /// neuron count runs `P` ranks, the ones no row is partitioned to
    /// empty: they still launch, and bill their instance time.
    pub workers: u32,
    /// Per-worker memory MB, within Lambda's 128–10 240 or refused with
    /// `FsdError::InvalidRequest`; Serial runs (and is checked) at
    /// [`EngineConfig::serial_memory_mb`] instead.
    pub memory_mb: u32,
    /// The successive input batches; none is refused with
    /// `FsdError::EmptyRequest`. A width-0 batch returns an empty block.
    pub batches: Vec<SparseRows>,
}

/// Per-worker runtime facts extracted from invocation reports.
#[derive(Debug, Clone, Copy)]
pub struct WorkerReport {
    /// Worker rank within the tree (0 = root/coordinator).
    pub rank: u32,
    /// Virtual time the worker body began executing.
    pub started: VirtualTime,
    /// Virtual time the worker body returned.
    pub finished: VirtualTime,
    /// Billed duration in milliseconds (Lambda rounds up per invocation).
    pub billed_ms: u64,
    /// Peak resident bytes observed by the memory tracker.
    pub peak_mem_bytes: usize,
    /// Configured instance memory in MB.
    pub memory_mb: u32,
}

/// Everything measured about one inference run.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// The variant that executed (an [`Variant::Auto`] request reports the
    /// variant it resolved to).
    pub variant: Variant,
    /// Worker count `P` the request ran with.
    pub workers: u32,
    /// Whether the run paid the launch bill ([`LaunchPath::ColdStart`]) or
    /// was routed into a warm tree ([`LaunchPath::WarmHit`]).
    pub launch: LaunchPath,
    /// End-to-end query latency: request arrival (virtual time zero) →
    /// the last rank finishes.
    pub latency: VirtualTime,
    /// Per-worker runtime facts, indexed by rank.
    pub per_worker: Vec<WorkerReport>,
    /// Service-side billing events of *this request only*: the meters
    /// bucket events by the request's flow id (carried on every worker's
    /// clock), so concurrent neighbors never leak into this window.
    pub comm: MeterSnapshot,
    /// Lambda billing of this request only (same flow-scoped window).
    pub lambda: LambdaSnapshot,
    /// Client-side channel statistics (request-local).
    pub client: ChannelStatsSnapshot,
    /// Cost from the service meters ("Cost & Usage report").
    pub cost_actual: CostBreakdown,
    /// Cost from the application's own metrics (§VI-F validation).
    pub cost_predicted: CostBreakdown,
    /// Results of every batch, in order (never empty).
    pub outputs: Vec<SparseRows>,
    /// Total samples across batches.
    pub samples: usize,
    /// Total kernel work units charged.
    pub work_done: u64,
}

impl InferenceReport {
    /// The first batch's inference result (single-batch requests' result).
    pub fn first_output(&self) -> &SparseRows {
        &self.outputs[0]
    }

    /// End-to-end per-sample runtime in milliseconds (Table II metric).
    pub fn per_sample_ms(&self) -> f64 {
        self.latency.as_millis_f64() / self.samples.max(1) as f64
    }

    /// Per-sample cost in dollars (Figure 6 metric).
    pub fn per_sample_cost(&self) -> f64 {
        self.cost_actual.total() / self.samples.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_displays() {
        assert_eq!(Variant::Auto.to_string(), "FSD-Inf-Auto");
        assert_eq!(Variant::Queue.to_string(), "FSD-Inf-Queue");
        assert_eq!(Variant::Hybrid.to_string(), "FSD-Inf-Hybrid");
        assert_eq!(Variant::Direct.to_string(), "FSD-Inf-Direct");
    }

    #[test]
    fn launch_path_displays() {
        assert_eq!(LaunchPath::ColdStart.to_string(), "cold-start");
        assert_eq!(LaunchPath::WarmHit.to_string(), "warm-hit");
    }
}
