//! # fsd-sched — admission control in front of [`FsdService`](fsd_core::FsdService)
//!
//! The service accepts concurrent `&self` requests, but nothing in it
//! bounds or orders that concurrency: every caller races straight into
//! the engine, so a burst of large-`P` requests could starve small ones
//! and there is no backpressure story. This crate adds the explicit
//! scheduling layer that serverless serving systems live or die on
//! (λScale's request admission/routing trees; FMI's "saturated but not
//! oversubscribed" communication fabric):
//!
//! * **[`Scheduler`]** owns all request intake:
//!   [`Scheduler::enqueue`] → [`Ticket`] → [`Ticket::wait`];
//! * **priority classes** ([`Priority::Interactive`] / [`Priority::Batch`])
//!   drained by weighted FIFO (smooth weighted round-robin between
//!   backlogged classes, strict FIFO within a class);
//! * **concurrency caps** — a global in-flight cap plus per-model caps
//!   derived from the paper's §IV-C recommendation rules
//!   ([`derive_model_cap`]): the predicted per-tree channel load against
//!   the region's aggregate publish budget;
//! * **bounded queues with explicit backpressure** — a full class queue
//!   rejects with [`FsdError::Overloaded`](fsd_core::FsdError::Overloaded)`{ retry_after }` instead of
//!   buffering without bound;
//! * **graceful drain/shutdown** — [`Scheduler::shutdown`] stops intake,
//!   [`Scheduler::drain`] waits for the backlog to finish;
//! * **predictive pre-warming** ([`SchedulerConfig::predictive`]) — the
//!   [`predictor`] mines each model's arrival history (sliding-window
//!   rate + burst detection per `(variant, P, memory)` shape) and the
//!   intake path pre-warms matching worker trees *before* admission, so
//!   a predicted burst lands on already-parked trees; quiet shapes are
//!   evicted, converging an idle system back to zero pre-warms.
//!
//! Inside, the scheduler is a pure admission engine (`admission`: class
//! queues, SWRR, caps, coalescing, the pass table and completion
//! bookkeeping — no service call, thread or lock) wrapped by the
//! [`Scheduler`] front end (intake, tickets, predictor glue, executor
//! threads); [`FailureCause`] and the `retry_after` hint live in `retry`,
//! the configuration and [`SchedStatsSnapshot`] in `config`.
//!
//! The second half of the crate is a **deterministic load-test harness**:
//! [`trace`] generates seeded arrival traces (steady / bursty / flood /
//! fleet) and [`harness::replay_fleet`] ([`harness::replay`] for one
//! model) drives them through a manual-dispatch scheduler so that every
//! admission decision happens on the driver thread — same seed ⇒ identical
//! admission order and identical reports, while execution still fans out
//! across real worker threads.
//!
//! ```
//! use fsd_core::{BatchedRequest, ServiceBuilder, Variant};
//! use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
//! use fsd_sched::{Priority, Scheduler, SchedulerConfig};
//! use std::sync::Arc;
//!
//! let spec = DnnSpec { neurons: 64, layers: 2, nnz_per_row: 8,
//!                      bias: -0.2, clip: 32.0, seed: 1 };
//! let dnn = Arc::new(generate_dnn(&spec));
//! let inputs = generate_inputs(64, &InputSpec::scaled(8, 1));
//! let service = Arc::new(ServiceBuilder::new(dnn).deterministic(1).build());
//!
//! let sched = Scheduler::wrap(service, SchedulerConfig::default());
//! let ticket = sched
//!     .enqueue_default(Priority::Interactive, BatchedRequest {
//!         variant: Variant::Auto, workers: 2, memory_mb: 1769,
//!         batches: vec![inputs],
//!     })
//!     .unwrap();
//! let report = ticket.wait().unwrap();
//! assert!(!report.outputs.is_empty());
//! sched.shutdown();
//! sched.drain();
//! ```
#![forbid(unsafe_code)]

mod admission;
mod config;
pub mod harness;
pub mod predictor;
mod retry;
mod scheduler;
pub mod trace;

pub use config::{derive_model_cap, BatchingConfig, Priority, SchedStatsSnapshot, SchedulerConfig};
pub use predictor::{Predictor, PredictorConfig, PrewarmDecision};
pub use retry::FailureCause;
pub use scheduler::{Scheduler, SchedulerBuilder, Ticket, DEFAULT_MODEL};
pub use trace::{Arrival, FleetArrival};
