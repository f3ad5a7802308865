//! # fsd-faas — the serverless compute substrate (AWS Lambda role)
//!
//! Function instances are real threads whose *timing* lives on a virtual
//! clock: invoke latency, cold starts, a memory-proportional vCPU share
//! ([`ComputeModel`]), and enforcement of the two limits that shape the
//! paper's entire design space — instance memory and the 15-minute
//! runtime cap ([`FaasError`]). Billing follows Lambda: a per-invocation
//! request charge plus MB-milliseconds of execution ([`LambdaMeter`]).
//!
//! The [`launch`] module implements the paper's hierarchical
//! `worker_invoke_children` tree: every worker derives its rank and its
//! children's ranks locally and launches its own subtree, populating `P`
//! instances in `O(log P)` invocation rounds.
//!
//! ```
//! use fsd_comm::{CloudConfig, CloudEnv, VirtualTime};
//! use fsd_faas::{ComputeModel, FaasPlatform, FunctionConfig};
//!
//! let env = CloudEnv::new(CloudConfig::deterministic(0));
//! let platform = FaasPlatform::new(env, ComputeModel::default());
//! let inv = platform.invoke(FunctionConfig::worker("w", 1024), VirtualTime::ZERO, |ctx| {
//!     ctx.charge_work(1_000_000);
//!     Ok(2 + 2)
//! });
//! assert_eq!(inv.join().unwrap().0, 4);
//! ```
#![forbid(unsafe_code)]

mod compute;
pub mod launch;
mod platform;

pub use compute::{ComputeModel, MAX_MEMORY_MB, MAX_TIMEOUT_SECS, MB_PER_VCPU, MIN_MEMORY_MB};
pub use platform::{
    CommFailure, FaasError, FaasPlatform, FunctionConfig, Invocation, InvocationReport,
    LambdaMeter, LambdaSnapshot, WorkerCtx,
};
