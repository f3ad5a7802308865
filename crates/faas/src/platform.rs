//! The FaaS platform: invocation, limits, billing.
//!
//! Function instances run as real threads; their *timing* lives on the
//! virtual clock (see `fsd-comm`). The platform enforces the two limits
//! that shape the paper's design space — instance memory and maximum
//! runtime — and bills invocations the way Lambda does (requests +
//! MB-milliseconds of execution).

use crate::compute::{ComputeModel, MAX_MEMORY_MB, MAX_TIMEOUT_SECS, MIN_MEMORY_MB};
use fsd_comm::{CloudEnv, FlowLedger, VClock, VirtualTime};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Static configuration of a deployed function.
#[derive(Debug, Clone)]
pub struct FunctionConfig {
    /// Function name (diagnostics).
    pub name: String,
    /// Allocated memory in MB; drives both the memory limit and vCPU share.
    pub memory_mb: u32,
    /// Maximum runtime before the platform kills the instance.
    pub timeout: VirtualTime,
    /// Request flow this invocation bills to (0 = unattributed). The
    /// platform stamps the instance's clock with it, so every metered
    /// service call the function makes is attributed to the flow too.
    pub flow: u64,
    /// Keep-alive instance: the body outlives a single request (a warm
    /// worker parked in a serve loop). The platform then skips the
    /// exit-time duration billing and limit check — the body meters (and
    /// limit-checks) each request it serves through
    /// [`WorkerCtx::begin_request`] / [`WorkerCtx::finish_request`].
    pub keep_alive: bool,
}

impl FunctionConfig {
    /// A worker function with the given memory, at the maximum timeout.
    pub fn worker(name: impl Into<String>, memory_mb: u32) -> FunctionConfig {
        assert!(
            (MIN_MEMORY_MB..=MAX_MEMORY_MB).contains(&memory_mb),
            "memory {memory_mb} MB outside Lambda's [{MIN_MEMORY_MB}, {MAX_MEMORY_MB}]"
        );
        FunctionConfig {
            name: name.into(),
            memory_mb,
            timeout: VirtualTime::from_secs_f64(MAX_TIMEOUT_SECS),
            flow: 0,
            keep_alive: false,
        }
    }

    /// The lightweight coordinator configuration (128 MB, as in the paper).
    pub fn coordinator() -> FunctionConfig {
        FunctionConfig {
            name: "coordinator".into(),
            memory_mb: MIN_MEMORY_MB,
            timeout: VirtualTime::from_secs_f64(MAX_TIMEOUT_SECS),
            flow: 0,
            keep_alive: false,
        }
    }

    /// Attributes this invocation (and everything it bills) to `flow`.
    pub fn for_flow(mut self, flow: u64) -> FunctionConfig {
        self.flow = flow;
        self
    }

    /// Marks this invocation as a keep-alive (warm-pool) instance; see
    /// [`FunctionConfig::keep_alive`].
    pub fn keep_alive(mut self) -> FunctionConfig {
        self.keep_alive = true;
        self
    }

    /// Memory limit in bytes.
    fn memory_bytes(&self) -> usize {
        self.memory_mb as usize * 1024 * 1024
    }
}

/// A structured communication/IO failure: which operation failed, on which
/// resource, and the service- or codec-level detail. Replaces the old
/// stringly `Comm(String)` payload so callers can route on `op` instead of
/// parsing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommFailure {
    /// The operation that failed (`"publish"`, `"put"`, `"get"`, `"list"`,
    /// `"decode"`, `"decompress"`, `"artifact"`, …).
    pub op: &'static str,
    /// The resource involved (key, queue, bucket…); empty when not
    /// applicable.
    pub resource: String,
    /// Underlying service/codec detail.
    pub detail: String,
}

impl std::fmt::Display for CommFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.resource.is_empty() {
            write!(f, "{} failed: {}", self.op, self.detail)
        } else {
            write!(
                f,
                "{} of {} failed: {}",
                self.op, self.resource, self.detail
            )
        }
    }
}

/// Errors terminating a function instance.
#[derive(Debug, Clone, PartialEq)]
pub enum FaasError {
    /// Resident data exceeded the configured memory.
    OutOfMemory {
        used_bytes: usize,
        limit_bytes: usize,
    },
    /// Execution exceeded the configured timeout.
    Timeout {
        elapsed: VirtualTime,
        limit: VirtualTime,
    },
    /// A communication-layer failure surfaced to the function.
    Comm(CommFailure),
    /// The function body panicked — a bug in the code it runs, not a
    /// simulated fault — and whoever ran it caught the unwind.
    Panic {
        /// The instance's function name.
        instance: String,
        /// The panic's message.
        detail: String,
    },
}

impl FaasError {
    /// Builds a [`FaasError::Comm`] from its parts.
    pub fn comm(
        op: &'static str,
        resource: impl Into<String>,
        detail: impl std::fmt::Display,
    ) -> FaasError {
        FaasError::Comm(CommFailure {
            op,
            resource: resource.into(),
            detail: detail.to_string(),
        })
    }

    /// A [`FaasError::Panic`] of `instance` from a caught unwind's payload.
    pub fn panic(instance: impl Into<String>, payload: &(dyn std::any::Any + Send)) -> FaasError {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        FaasError::Panic {
            instance: instance.into(),
            detail,
        }
    }
}

impl std::fmt::Display for FaasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaasError::OutOfMemory {
                used_bytes,
                limit_bytes,
            } => {
                write!(
                    f,
                    "out of memory: {used_bytes} bytes used, limit {limit_bytes}"
                )
            }
            FaasError::Timeout { elapsed, limit } => {
                write!(f, "function timed out: ran {elapsed}, limit {limit}")
            }
            FaasError::Comm(failure) => write!(f, "communication failure: {failure}"),
            FaasError::Panic { instance, detail } => {
                write!(f, "instance {instance} panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for FaasError {}

/// Billing/runtime record of one completed invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationReport {
    /// Virtual time the instance began executing user code (post cold start).
    pub started: VirtualTime,
    /// Virtual time the instance finished.
    pub finished: VirtualTime,
    /// Billed duration in virtual milliseconds (≥ 1, as Lambda bills).
    pub billed_ms: u64,
    /// Peak tracked resident bytes.
    pub peak_mem_bytes: usize,
    /// Configured memory (for GB-s cost computation downstream).
    pub memory_mb: u32,
}

/// Lambda billing: a [`FlowLedger`] of [`LambdaSnapshot`] — a global total
/// plus per-flow windows (flow 0's is the unattributed window), each event
/// written to both in one critical section.
pub type LambdaMeter = FlowLedger<LambdaSnapshot>;

/// Lambda billing counters (the total or one flow's window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LambdaSnapshot {
    /// Total invocation requests.
    pub invocations: u64,
    /// Total billed MB·milliseconds.
    pub mb_ms: u64,
}

impl LambdaSnapshot {
    /// Element-wise sum (aggregating per-flow windows).
    pub fn plus(&self, other: &LambdaSnapshot) -> LambdaSnapshot {
        LambdaSnapshot {
            invocations: self.invocations + other.invocations,
            mb_ms: self.mb_ms + other.mb_ms,
        }
    }

    /// Every counter, in declaration order.
    pub fn counters_mut(&mut self) -> [&mut u64; 2] {
        let LambdaSnapshot { invocations, mb_ms } = self;
        [invocations, mb_ms]
    }
}

/// The platform: shared cloud environment plus compute model and billing.
pub struct FaasPlatform {
    env: Arc<CloudEnv>,
    compute: ComputeModel,
    meter: LambdaMeter,
}

/// A running invocation; `join` waits for the instance to finish.
pub struct Invocation<T> {
    handle: JoinHandle<Result<(T, InvocationReport), FaasError>>,
    launch_error: Option<FaasError>,
}

impl<T> Invocation<T> {
    /// Waits for the instance and returns its output and billing report.
    /// A panic the function body did not catch itself is propagated as a
    /// panic here — it is a bug in the engine, not a simulated fault (a
    /// worker tree's instances catch theirs and fail with
    /// [`FaasError::Panic`]).
    pub fn join(self) -> Result<(T, InvocationReport), FaasError> {
        self.handle.join().expect("function instance panicked")
    }

    /// The injected launch fault, if this invoke drew one — known to the
    /// caller synchronously (as a real Invoke API error would be), so a
    /// fire-and-forget launcher can fail its tree fast instead of leaving
    /// peers waiting on an instance that will never start. [`Invocation::join`]
    /// returns the same error.
    pub fn launch_error(&self) -> Option<FaasError> {
        self.launch_error.clone()
    }
}

impl FaasPlatform {
    /// Creates a platform over a cloud environment.
    pub fn new(env: Arc<CloudEnv>, compute: ComputeModel) -> Arc<FaasPlatform> {
        Arc::new(FaasPlatform {
            env,
            compute,
            meter: LambdaMeter::default(),
        })
    }

    /// The underlying cloud environment.
    pub fn env(&self) -> &Arc<CloudEnv> {
        &self.env
    }

    /// The compute-time model.
    pub fn compute(&self) -> &ComputeModel {
        &self.compute
    }

    /// Lambda billing snapshot (global).
    pub fn lambda_snapshot(&self) -> LambdaSnapshot {
        self.meter.snapshot()
    }

    /// The Lambda billing meter (per-flow windows live here).
    pub fn lambda_meter(&self) -> &LambdaMeter {
        &self.meter
    }

    /// Invokes `cfg` asynchronously; `at` is the virtual instant the
    /// Invoke call is issued. The instance suffers the invoke round trip
    /// plus a cold start from `at` before `body` runs with a
    /// [`WorkerCtx`]. Returns immediately with an [`Invocation`]; the
    /// issuer's own wait for the call is the caller's to model.
    // fsd_lint::allow(billing-pair): the launch window has no
    // begin_request — it opens when the instance's `WorkerCtx` is built.
    pub fn invoke<T, F>(
        self: &Arc<Self>,
        cfg: FunctionConfig,
        at: VirtualTime,
        body: F,
    ) -> Invocation<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut WorkerCtx) -> Result<T, FaasError> + Send + 'static,
    {
        self.meter.record(cfg.flow, |s| s.invocations += 1);
        // Injected launch fault: the invoke request is billed (Lambda
        // charges the request even when the instance fails to start) and
        // the round trip is suffered, but the body never runs. Drawn on
        // the caller thread so the decision depends only on (flow, at,
        // function name) — deterministic across replays.
        let launch_error = self
            .env
            .faults()
            .check(fsd_comm::ApiClass::InstanceLaunch, cfg.flow, at, &cfg.name)
            .map(|kind| {
                FaasError::comm(
                    "instance",
                    cfg.name.clone(),
                    kind.to_error(format!("lambda:invoke {}", cfg.name)),
                )
            });
        let launch_fault = launch_error.clone();
        let platform = self.clone();
        let handle = std::thread::spawn(move || {
            let lat = platform.env.latency();
            let mut clock = VClock::starting_at(at);
            // The instance's clock carries the flow, so every metered
            // service call this function makes bills to its request.
            clock.set_flow(cfg.flow);
            clock.advance_micros(lat.lambda_invoke_us);
            if let Some(err) = launch_fault {
                return Err(err);
            }
            clock.advance_micros(lat.lambda_cold_start_us);
            let started = clock.now();
            let mut ctx = WorkerCtx {
                platform: platform.clone(),
                cfg,
                clock,
                started,
                background: started,
                mem_bytes: 0,
                peak_mem_bytes: 0,
                abort: None,
            };
            let out = body(&mut ctx)?;
            if !ctx.cfg.keep_alive {
                // A one-shot function's only window — opened by building
                // `ctx` above — closes at exit.
                return Ok((out, ctx.finish_request()?));
            }
            // A keep-alive body meters and limit-checks every request it
            // served through begin_request/finish_request; its idle
            // lifetime is neither billed nor checked at exit.
            let report = InvocationReport {
                started,
                finished: ctx.clock.now(),
                billed_ms: 0,
                peak_mem_bytes: ctx.peak_mem_bytes,
                memory_mb: ctx.cfg.memory_mb,
            };
            Ok((out, report))
        });
        Invocation {
            handle,
            launch_error,
        }
    }
}

/// Per-instance execution context handed to function bodies: the virtual
/// clock, limit tracking, and accessors to the shared cloud services.
pub struct WorkerCtx {
    platform: Arc<FaasPlatform>,
    cfg: FunctionConfig,
    clock: VClock,
    started: VirtualTime,
    /// When the last call still running behind the worker lands (the
    /// watermark [`WorkerCtx::observe_background`] raises); the request
    /// window does not close before it.
    background: VirtualTime,
    mem_bytes: usize,
    peak_mem_bytes: usize,
    /// Cooperative abort: when the flag is raised (a peer instance of the
    /// same warm tree died), [`WorkerCtx::check_limits`] fails fast instead
    /// of letting the instance poll toward its full virtual timeout.
    abort: Option<Arc<std::sync::atomic::AtomicBool>>,
}

impl WorkerCtx {
    /// The shared cloud environment (queues, topics, object store).
    pub fn env(&self) -> &Arc<CloudEnv> {
        self.platform.env()
    }

    /// The platform (to invoke children — the hierarchical launch).
    pub fn platform(&self) -> &Arc<FaasPlatform> {
        &self.platform
    }

    /// This instance's function configuration.
    pub fn config(&self) -> &FunctionConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.clock.now()
    }

    /// Mutable access to the clock for service calls
    /// (`store.put(..., ctx.clock_mut())`).
    pub fn clock_mut(&mut self) -> &mut VClock {
        &mut self.clock
    }

    /// Records a call that runs behind the worker — billed, but nothing
    /// the worker does next waits for it — and lands at `at`. The clock
    /// does not move; [`WorkerCtx::finish_request`] joins the latest such
    /// instant before it closes the window.
    pub fn observe_background(&mut self, at: VirtualTime) {
        self.background = self.background.max(at);
    }

    /// Opens a fresh request window on a kept-alive instance: the clock
    /// jumps onto the new request's own virtual timeline at `at`, all
    /// subsequent metered calls bill to `flow`, and the timeout/billing
    /// window restarts. Peak-memory tracking restarts from the currently
    /// resident bytes (the warm instance keeps its loaded weights), and
    /// the background watermark from `at`.
    pub fn begin_request(&mut self, flow: u64, at: VirtualTime) {
        self.clock = VClock::starting_at(at).with_flow(flow);
        self.cfg.flow = flow;
        self.started = at;
        self.background = at;
        self.peak_mem_bytes = self.mem_bytes;
    }

    /// Closes the current request window — the one billing-window close,
    /// which the platform also runs when a one-shot function exits: first
    /// waits for every call still running behind the worker (the clock
    /// joins the [`WorkerCtx::observe_background`] watermark, so the
    /// billed time and the reported `finished` cover them), re-checks the
    /// limits (a window that crossed its memory or runtime limit in its
    /// last step fails, unbilled), then bills the window's MB-milliseconds
    /// (ceiled, at least 1 ms) to the window's flow and returns its
    /// [`InvocationReport`]. On a kept-alive instance this is the *only*
    /// duration billing and exit check (the platform skips both); the
    /// window opened at launch covers cold start → now.
    pub fn finish_request(&mut self) -> Result<InvocationReport, FaasError> {
        self.clock.observe(self.background);
        self.check_limits()?;
        let finished = self.clock.now();
        let elapsed_ms = ((finished
            .as_micros()
            .saturating_sub(self.started.as_micros())) as f64
            / 1000.0)
            .ceil() as u64;
        let billed_ms = elapsed_ms.max(1);
        let mb_ms = billed_ms * self.cfg.memory_mb as u64;
        self.platform
            .meter
            .record(self.cfg.flow, |s| s.mb_ms += mb_ms);
        Ok(InvocationReport {
            started: self.started,
            finished,
            billed_ms,
            peak_mem_bytes: self.peak_mem_bytes,
            memory_mb: self.cfg.memory_mb,
        })
    }

    /// Installs a cooperative abort flag; once raised,
    /// [`WorkerCtx::check_limits`] fails with a structured `"abort"` comm
    /// failure. The flag also becomes this instance thread's abort flag in
    /// `fsd_comm` ([`fsd_comm::install_abort`]), so a raw receive parked
    /// for a producer returns once whoever raises it wakes the region's
    /// receivers. Warm trees use this so the death of one peer tears the
    /// whole request down instead of leaving its receivers waiting.
    pub fn set_abort(&mut self, flag: Arc<std::sync::atomic::AtomicBool>) {
        fsd_comm::install_abort(flag.clone());
        self.abort = Some(flag);
    }

    /// Charges `work` kernel units against the clock under the platform's
    /// compute model and this instance's vCPU share.
    pub fn charge_work(&mut self, work: u64) {
        let secs = self.platform.compute.seconds(work, self.cfg.memory_mb);
        self.clock.advance_secs_f64(secs);
    }

    /// Charges byte-stream processing (serialization, compression, parsing)
    /// at a fixed single-thread throughput, scaled by this instance's share
    /// of one vCPU. Unlike [`WorkerCtx::charge_work`], this does not go
    /// through the kernel compute model — byte shuffling speed is a
    /// property of the CPU, not of the experiment's work calibration.
    pub fn charge_bytes(&mut self, bytes: u64, bytes_per_sec: f64) {
        let share = crate::compute::ComputeModel::vcpus(self.cfg.memory_mb).clamp(1e-3, 1.0);
        let secs = bytes as f64 / bytes_per_sec / share;
        self.clock.advance_secs_f64(secs);
    }

    /// Registers `bytes` of resident data (weights, activations, buffers).
    pub fn track_alloc(&mut self, bytes: usize) {
        self.mem_bytes += bytes;
        self.peak_mem_bytes = self.peak_mem_bytes.max(self.mem_bytes);
    }

    /// Releases previously tracked bytes.
    pub fn track_free(&mut self, bytes: usize) {
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
    }

    /// Currently tracked resident bytes.
    pub fn mem_bytes(&self) -> usize {
        self.mem_bytes
    }

    /// Verifies the memory and runtime limits; engines call this at layer
    /// boundaries and inside poll loops. The platform also re-checks at
    /// function exit.
    pub fn check_limits(&self) -> Result<(), FaasError> {
        if let Some(flag) = &self.abort {
            // Acquire pairs with the Release store of whoever raised the
            // flag: what they did first (report the root cause) is visible
            // before this instance acts on the abort.
            if flag.load(std::sync::atomic::Ordering::Acquire) {
                return Err(FaasError::comm(
                    "abort",
                    self.cfg.name.clone(),
                    "worker tree poisoned: a peer instance died",
                ));
            }
        }
        if self.mem_bytes > self.cfg.memory_bytes() {
            return Err(FaasError::OutOfMemory {
                used_bytes: self.mem_bytes,
                limit_bytes: self.cfg.memory_bytes(),
            });
        }
        let elapsed = VirtualTime::from_micros(
            self.clock
                .now()
                .as_micros()
                .saturating_sub(self.started.as_micros()),
        );
        if elapsed > self.cfg.timeout {
            return Err(FaasError::Timeout {
                elapsed,
                limit: self.cfg.timeout,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_comm::CloudConfig;

    fn platform() -> Arc<FaasPlatform> {
        FaasPlatform::new(
            CloudEnv::new(CloudConfig::deterministic(1)),
            ComputeModel::default(),
        )
    }

    #[test]
    fn invoke_runs_body_and_bills() {
        let p = platform();
        let inv = p.invoke(
            FunctionConfig::worker("w", 1769),
            VirtualTime::ZERO,
            |ctx| {
                ctx.charge_work(250_000_000); // exactly 1s at 1 vCPU
                Ok(42)
            },
        );
        let (out, report) = inv.join().expect("success");
        assert_eq!(out, 42);
        // Started after invoke latency + cold start.
        assert!(report.started >= VirtualTime::from_micros(280_000));
        let run_s = (report.finished.as_micros() - report.started.as_micros()) as f64 / 1e6;
        assert!((run_s - 1.0).abs() < 0.01, "ran {run_s}s, expected ~1s");
        assert!(report.billed_ms >= 1000);
        let snap = p.lambda_snapshot();
        assert_eq!(snap.invocations, 1);
        assert_eq!(snap.mb_ms, report.billed_ms * 1769);
    }

    #[test]
    fn minimum_billing_is_one_ms() {
        let p = platform();
        let (_, report) = p
            .invoke(FunctionConfig::worker("w", 512), VirtualTime::ZERO, |_| {
                Ok(())
            })
            .join()
            .expect("success");
        assert_eq!(report.billed_ms, 1);
    }

    #[test]
    fn memory_limit_enforced() {
        let p = platform();
        let cfg = FunctionConfig::worker("w", 128);
        let res = p
            .invoke(cfg, VirtualTime::ZERO, |ctx| {
                ctx.track_alloc(200 * 1024 * 1024); // 200 MB into a 128 MB box
                ctx.check_limits()?;
                Ok(())
            })
            .join();
        assert!(matches!(res, Err(FaasError::OutOfMemory { .. })));
    }

    #[test]
    fn memory_limit_checked_at_exit_even_without_explicit_check() {
        let p = platform();
        let res = p
            .invoke(FunctionConfig::worker("w", 128), VirtualTime::ZERO, |ctx| {
                ctx.track_alloc(600 * 1024 * 1024);
                Ok(())
            })
            .join();
        assert!(matches!(res, Err(FaasError::OutOfMemory { .. })));
    }

    #[test]
    fn keep_alive_window_is_limit_checked_when_it_closes() {
        let p = platform();
        let res = p
            .invoke(
                FunctionConfig::worker("warm", 128).for_flow(3).keep_alive(),
                VirtualTime::ZERO,
                |ctx| {
                    ctx.track_alloc(600 * 1024 * 1024);
                    ctx.finish_request()
                },
            )
            .join();
        assert!(matches!(res, Err(FaasError::OutOfMemory { .. })));
        // Like a one-shot function killed at exit, the window never bills.
        assert_eq!(p.lambda_meter().flow_snapshot(3).mb_ms, 0);
    }

    #[test]
    fn track_free_releases_memory() {
        let p = platform();
        let res = p
            .invoke(FunctionConfig::worker("w", 128), VirtualTime::ZERO, |ctx| {
                ctx.track_alloc(100 * 1024 * 1024);
                ctx.track_free(90 * 1024 * 1024);
                assert_eq!(ctx.mem_bytes(), 10 * 1024 * 1024);
                ctx.check_limits()?;
                Ok(ctx.mem_bytes())
            })
            .join();
        assert!(res.is_ok());
    }

    #[test]
    fn timeout_enforced() {
        let p = platform();
        let mut cfg = FunctionConfig::worker("w", 1769);
        cfg.timeout = VirtualTime::from_secs_f64(0.5);
        let res = p
            .invoke(cfg, VirtualTime::ZERO, |ctx| {
                ctx.charge_work(2_500_000_000); // ~10s of work
                Ok(())
            })
            .join();
        match res {
            Err(FaasError::Timeout { elapsed, limit }) => {
                assert!(elapsed > limit);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn child_invocation_starts_after_parent_clock() {
        let p = platform();
        let (child_started, _) = p
            .invoke(
                FunctionConfig::worker("parent", 1769),
                VirtualTime::ZERO,
                |ctx| {
                    ctx.charge_work(250_000_000); // 1s
                    let at = ctx.now();
                    let child =
                        ctx.platform()
                            .invoke(FunctionConfig::worker("child", 1769), at, |c| Ok(c.now()));
                    let (started, _) = child
                        .join()
                        .map_err(|e| FaasError::comm("child-join", "child", e))?;
                    Ok(started)
                },
            )
            .join()
            .expect("parent ok");
        // Child observes parent's clock + invoke + cold start.
        assert!(child_started >= VirtualTime::from_secs_f64(1.0).plus_micros(280_000));
    }

    #[test]
    fn peak_memory_is_reported() {
        let p = platform();
        let (_, report) = p
            .invoke(
                FunctionConfig::worker("w", 1024),
                VirtualTime::ZERO,
                |ctx| {
                    ctx.track_alloc(50 * 1024 * 1024);
                    ctx.track_free(50 * 1024 * 1024);
                    ctx.track_alloc(10 * 1024 * 1024);
                    Ok(())
                },
            )
            .join()
            .expect("ok");
        assert_eq!(report.peak_mem_bytes, 50 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "outside Lambda")]
    fn rejects_memory_outside_lambda_band() {
        FunctionConfig::worker("w", 20_000);
    }

    #[test]
    fn flow_attribution_buckets_invocations_and_mb_ms() {
        let p = platform();
        let run = |flow: u64| {
            p.invoke(
                FunctionConfig::worker("w", 1000).for_flow(flow),
                VirtualTime::ZERO,
                |ctx| {
                    ctx.charge_work(25_000_000);
                    Ok(())
                },
            )
        };
        let (a, b, c) = (run(1), run(1), run(2));
        let mut reports = vec![
            a.join().expect("ok").1,
            b.join().expect("ok").1,
            c.join().expect("ok").1,
        ];
        let f2 = reports.pop().expect("three reports");
        let f1_mb_ms: u64 = reports.iter().map(|r| r.billed_ms * 1000).sum();
        assert_eq!(p.lambda_meter().flow_snapshot(1).invocations, 2);
        assert_eq!(p.lambda_meter().flow_snapshot(1).mb_ms, f1_mb_ms);
        assert_eq!(p.lambda_meter().flow_snapshot(2).invocations, 1);
        assert_eq!(p.lambda_meter().flow_snapshot(2).mb_ms, f2.billed_ms * 1000);
        // Global totals include every flow; releasing a window keeps them.
        assert_eq!(p.lambda_snapshot().invocations, 3);
        let released = p.lambda_meter().release_flow(1);
        assert_eq!(released.invocations, 2);
        assert_eq!(p.lambda_meter().tracked_flows(), 1);
        assert_eq!(p.lambda_snapshot().invocations, 3);
        // Unattributed invocations never create a window.
        p.invoke(FunctionConfig::worker("w", 512), VirtualTime::ZERO, |_| {
            Ok(())
        })
        .join()
        .expect("ok");
        assert_eq!(p.lambda_meter().tracked_flows(), 1);
    }

    #[test]
    fn worker_clock_is_stamped_with_the_flow() {
        let p = platform();
        let (flow_seen, _) = p
            .invoke(
                FunctionConfig::worker("w", 512).for_flow(42),
                VirtualTime::ZERO,
                |ctx| Ok(ctx.clock_mut().flow()),
            )
            .join()
            .expect("ok");
        assert_eq!(flow_seen, 42);
    }

    #[test]
    fn keep_alive_bills_per_request_window_not_at_exit() {
        let p = platform();
        // A keep-alive body serving two request windows: each window bills
        // its own flow; the instance's exit adds nothing.
        let (reports, exit_report) = p
            .invoke(
                FunctionConfig::worker("warm", 1000)
                    .for_flow(7)
                    .keep_alive(),
                VirtualTime::ZERO,
                |ctx| {
                    // Window 1: the launch window (flow 7, covers cold start).
                    ctx.charge_work(25_000_000);
                    let r1 = ctx.finish_request()?;
                    // Window 2: a warm request on its own timeline.
                    ctx.begin_request(9, VirtualTime::from_micros(30_000));
                    ctx.charge_work(25_000_000);
                    let r2 = ctx.finish_request()?;
                    Ok((r1, r2))
                },
            )
            .join()
            .expect("ok");
        let (r1, r2) = reports;
        assert_eq!(exit_report.billed_ms, 0, "keep-alive exit is unbilled");
        assert!(r1.started >= VirtualTime::from_micros(280_000));
        assert_eq!(r2.started, VirtualTime::from_micros(30_000));
        assert!(
            r2.finished < r1.finished,
            "warm window lives on its own (earlier) timeline"
        );
        assert_eq!(p.lambda_meter().flow_snapshot(7).mb_ms, r1.billed_ms * 1000);
        assert_eq!(p.lambda_meter().flow_snapshot(9).mb_ms, r2.billed_ms * 1000);
        // Global duration billing is exactly the sum of the two windows.
        assert_eq!(
            p.lambda_snapshot().mb_ms,
            (r1.billed_ms + r2.billed_ms) * 1000
        );
        // The launch invocation itself billed to the creating flow only.
        assert_eq!(p.lambda_meter().flow_snapshot(7).invocations, 1);
        assert_eq!(p.lambda_meter().flow_snapshot(9).invocations, 0);
    }

    #[test]
    fn begin_request_restarts_timeout_and_peak_tracking() {
        let p = platform();
        let (peaks, _) = p
            .invoke(
                FunctionConfig::worker("warm", 1024).keep_alive(),
                VirtualTime::ZERO,
                |ctx| {
                    ctx.track_alloc(80 * 1024 * 1024); // resident weights
                    ctx.track_alloc(100 * 1024 * 1024); // request-1 scratch
                    ctx.track_free(100 * 1024 * 1024);
                    let peak1 = ctx.finish_request()?.peak_mem_bytes;
                    ctx.begin_request(2, VirtualTime::ZERO);
                    ctx.check_limits()?; // fresh window: timeout restarted
                    let peak2 = ctx.finish_request()?.peak_mem_bytes;
                    Ok((peak1, peak2))
                },
            )
            .join()
            .expect("ok");
        assert_eq!(peaks.0, 180 * 1024 * 1024);
        assert_eq!(
            peaks.1,
            80 * 1024 * 1024,
            "peak restarts from the resident weights"
        );
    }

    #[test]
    fn finish_request_joins_the_background_watermark() {
        let p = platform();
        let (reports, _) = p
            .invoke(
                FunctionConfig::worker("bg", 1000).keep_alive(),
                VirtualTime::ZERO,
                |ctx| {
                    ctx.begin_request(3, VirtualTime::from_micros(10_000));
                    // A call lands 40 ms behind the worker; the clock stays.
                    ctx.observe_background(VirtualTime::from_micros(50_000));
                    ctx.observe_background(VirtualTime::from_micros(20_000));
                    assert_eq!(ctx.now(), VirtualTime::from_micros(10_000));
                    let joined = ctx.finish_request()?;
                    // The next window starts with no call behind it.
                    ctx.begin_request(4, VirtualTime::from_micros(10_000));
                    let fresh = ctx.finish_request()?;
                    Ok((joined, fresh))
                },
            )
            .join()
            .expect("ok");
        let (joined, fresh) = reports;
        assert_eq!(joined.finished, VirtualTime::from_micros(50_000));
        assert_eq!(joined.billed_ms, 40);
        assert_eq!(p.lambda_meter().flow_snapshot(3).mb_ms, 40 * 1000);
        assert_eq!(fresh.finished, VirtualTime::from_micros(10_000));
        assert_eq!(fresh.billed_ms, 1);
    }

    #[test]
    fn raised_abort_flag_fails_limit_checks() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let p = platform();
        let flag = Arc::new(AtomicBool::new(false));
        let f = flag.clone();
        let res = p
            .invoke(
                FunctionConfig::worker("w", 512),
                VirtualTime::ZERO,
                move |ctx| {
                    ctx.set_abort(f.clone());
                    ctx.check_limits()?; // not raised yet
                    f.store(true, Ordering::Relaxed);
                    ctx.check_limits()?;
                    Ok(())
                },
            )
            .join();
        match res {
            Err(FaasError::Comm(failure)) => assert_eq!(failure.op, "abort"),
            other => panic!("expected abort comm failure, got {other:?}"),
        }
    }

    #[test]
    fn injected_launch_fault_bills_the_request_but_never_runs_the_body() {
        use fsd_comm::{ApiClass, TargetedFault};
        use std::sync::atomic::{AtomicU64, Ordering};
        let p = platform();
        p.env()
            .faults()
            .inject(TargetedFault::first(ApiClass::InstanceLaunch, "w"));
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        let res = p
            .invoke(
                FunctionConfig::worker("w", 512),
                VirtualTime::ZERO,
                move |_| {
                    r.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
            .join();
        match res {
            Err(FaasError::Comm(failure)) => assert_eq!(failure.op, "instance"),
            other => panic!("expected instance comm failure, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 0, "body must not run");
        // The failed launch still bills the invoke request (AWS semantics).
        assert_eq!(p.lambda_snapshot().invocations, 1);
        // The targeted schedule is consumed: the retry launches fine.
        p.invoke(FunctionConfig::worker("w", 512), VirtualTime::ZERO, |_| {
            Ok(())
        })
        .join()
        .expect("retry launches");
        assert_eq!(p.lambda_snapshot().invocations, 2);
    }

    #[test]
    fn parallel_invocations_all_bill() {
        let p = platform();
        let invs: Vec<_> = (0..8)
            .map(|i| {
                p.invoke(
                    FunctionConfig::worker(format!("w{i}"), 512),
                    VirtualTime::ZERO,
                    move |ctx| {
                        ctx.charge_work(1_000_000);
                        Ok(i)
                    },
                )
            })
            .collect();
        let mut got: Vec<usize> = invs.into_iter().map(|h| h.join().expect("ok").0).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(p.lambda_snapshot().invocations, 8);
    }
}
