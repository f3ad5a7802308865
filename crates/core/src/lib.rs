//! # fsd-core — FSD-Inference: fully serverless distributed inference
//!
//! The paper's primary contribution, faithfully reproduced:
//!
//! * **FSI Algorithms 1 & 2** ([`worker`] + one channel engine): intra-layer
//!   model parallelism over disconnected FaaS instances, with communication
//!   overlapped against the local sparse product. The engine (pack → frame
//!   → lane-send / drain → track → settle, behind [`FsiChannel`]) is written
//!   once and runs over four carriers, selected by [`Variant`] through the
//!   [`ChannelRegistry`]:
//!   * **queue** — pub-sub + per-worker queues, byte-string chunking by NNZ
//!     heuristic, ≤10-message/≤256 KiB publish batching, service-side
//!     filter fan-out, long polling;
//!   * **object** — one object per (source, target) pair, multiple buckets,
//!     `.nul` markers, redundant-read avoidance;
//!   * **hybrid** — the queue carrier plus the object carrier: payloads
//!     above [`ChannelOptions::spill_threshold`] are spilled to object
//!     storage behind in-queue pointer records (the paper's deployed mixed
//!     regime);
//!   * **direct** — FMI-style NAT-punched direct exchange, zero per-message
//!     API cost after the pairwise handshake;
//! * **hierarchical launch** — `worker_invoke_children` b-ary tree;
//! * **multicast weight streaming** — [`EngineConfig::stream_weights`]:
//!   λScale-style cold starts where rank 0 fetches each weight block once
//!   and multicasts it down the launch-tree topology, with per-layer lazy
//!   decode and a process-wide [`WeightCache`];
//! * **collectives** — [`channel::barrier`] / [`channel::reduce`] built on
//!   the same serverless primitives;
//! * **cost model** (Section IV) — [`cost::CostModel`] with actual
//!   (service-metered) vs predicted (client-metered) breakdowns;
//! * **design recommendations** (Section IV-C) — [`recommend_variant`],
//!   applied per request by [`Variant::Auto`].
//!
//! Entry point: [`ServiceBuilder`] → [`FsdService`]. The service's request
//! path takes `&self`, so one `Arc<FsdService>` serves concurrent requests
//! from many threads; per-request state (input keys, channels, queues,
//! object prefixes) is namespaced by a flow id and torn down after each
//! run. Channel backends plug in through [`ChannelProvider`] /
//! [`ChannelRegistry`]. Errors are the structured [`FsdError`].
//!
//! With [`ServiceBuilder::warm_pool`], launched worker trees stay parked
//! between requests of the same `(variant, P, memory)` shape and matching
//! requests are routed into them — skipping cold start, launch rounds and
//! weight loads ([`LaunchPath::WarmHit`] in the report); see [`TreeKey`]
//! and [`WarmPoolStats`].
//!
//! ```
//! use fsd_core::{InferenceRequest, ServiceBuilder, Variant};
//! use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
//! use std::sync::Arc;
//!
//! let spec = DnnSpec { neurons: 64, layers: 3, nnz_per_row: 8,
//!                      bias: -0.2, clip: 32.0, seed: 1 };
//! let dnn = Arc::new(generate_dnn(&spec));
//! let inputs = generate_inputs(64, &InputSpec::scaled(8, 1));
//! let expected = dnn.serial_inference(&inputs);
//!
//! let service = Arc::new(ServiceBuilder::new(dnn).deterministic(1).build());
//! let report = service
//!     .submit(&InferenceRequest { variant: Variant::Queue, workers: 3, memory_mb: 1024, inputs })
//!     .unwrap();
//! assert_eq!(report.first_output(), &expected);
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod artifacts;
mod builder;
mod carrier;
pub mod channel;
pub mod cost;
mod engine;
mod error;
mod health;
mod pool;
mod provider;
mod recommend;
mod retry;
mod service;
mod stats;
mod warm;
mod weight_cache;
mod weight_stream;
pub mod wire;
pub mod worker;

pub use artifacts::{
    load_full_model, load_input_share, load_worker_artifacts, stage_full_model, stage_inputs,
    stage_partitioned_model, LayerSlot, WorkerArtifacts, ARTIFACT_BUCKET,
};
pub use builder::ServiceBuilder;
pub use channel::{barrier, reduce, ChannelOptions, FsiChannel, RecvTracker, Tag};
pub use engine::{
    BatchedRequest, EngineConfig, InferenceReport, InferenceRequest, LaunchPath, Variant,
    WorkerReport,
};
pub use error::FsdError;
pub use health::{BreakerState, HealthSnapshot, TransportHealthSnapshot};
pub use pool::{WarmPoolConfig, WarmPoolStats};
pub use provider::{ChannelProvider, ChannelRegistry};
pub use retry::RetryPolicy;

pub use recommend::{
    channel_variant, fits_instance, fits_single_instance, recommend_variant, Recommendation,
    WorkloadProfile,
};
pub use service::{FailedAttemptBill, FsdService};
pub use stats::{ChannelStats, ChannelStatsSnapshot};
pub use warm::TreeKey;
pub use weight_cache::{WeightCache, WeightCacheStats};
