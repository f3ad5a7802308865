//! # fsd-baselines — the platforms FSD-Inference is evaluated against
//!
//! * [`run_server`] — Server-Always-On (hot/cold) and Server-Job-Scoped on
//!   EC2 c5 instances, the paper's server-ful cloud baselines;
//! * [`run_hspff`] — H-SpFF, the optimized on-premise HPC solution
//!   (MPI-style, hypergraph-partitioned);
//! * [`run_sagemaker`] — Sage-SL-Inf, the commercial serverless endpoint
//!   with its 6 GB / 6 MB / 60 s limits.
//!
//! All baselines execute the *real* inference kernel (their outputs are
//! checked against ground truth) and model their platform's latency and
//! billing.
#![forbid(unsafe_code)]

mod hspff;
mod sagemaker;
mod server;

pub use hspff::{run_hspff, HpcConfig};
pub use sagemaker::{run_sagemaker, SageConfig};
pub use server::{
    job_scoped_instance, run_server, BaselineError, InstanceType, PlatformReport, ServerKind,
    ServerTimings, C5_12XLARGE,
};
