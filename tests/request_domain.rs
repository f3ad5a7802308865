//! The request domain: every request either runs, equal to the serial
//! oracle, or is refused with a typed error before anything is staged,
//! launched, queued or billed — through the service and through a
//! scheduler alike — and neither path leaves an open flow, a held slot or
//! an unresolved ticket behind.

use fsd_inference::core::{
    BatchedRequest, EngineConfig, FsdError, FsdService, ServiceBuilder, Variant,
};
use fsd_inference::faas::{MAX_MEMORY_MB, MIN_MEMORY_MB};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sched::{BatchingConfig, Priority, Scheduler, SchedulerConfig, DEFAULT_MODEL};
use fsd_inference::sparse::SparseRows;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Neurons of the models here: a request of `2 N` workers starts at most
/// 64 instance threads.
const N: usize = 32;

fn dnn(seed: u64) -> Arc<fsd_inference::model::SparseDnn> {
    Arc::new(generate_dnn(&DnnSpec {
        neurons: N,
        layers: 2,
        nnz_per_row: 4,
        bias: -0.25,
        clip: 32.0,
        seed,
    }))
}

fn request(variant: Variant, workers: u32, memory_mb: u32, batches: usize) -> BatchedRequest {
    BatchedRequest {
        variant,
        workers,
        memory_mb,
        batches: (0..batches)
            .map(|b| generate_inputs(N, &InputSpec::scaled(6, b as u64)))
            .collect(),
    }
}

fn out_of_range(memory_mb: u32) -> FsdError {
    FsdError::InvalidRequest {
        field: "memory_mb",
        value: memory_mb,
        min: MIN_MEMORY_MB,
        max: MAX_MEMORY_MB,
    }
}

/// What the door refuses on each path is refused whole: no invocation
/// is billed and the service audits clean.
fn assert_nothing_billed(service: &FsdService) {
    let lambda = service.platform().lambda_snapshot();
    assert_eq!((lambda.invocations, lambda.mb_ms), (0, 0), "{lambda:?}");
    assert_eq!(service.audit(), Vec::<String>::new());
}

#[test]
fn an_out_of_range_memory_is_refused_by_submit_batched() {
    let service = ServiceBuilder::new(dnn(1)).deterministic(1).build();
    for memory_mb in [64, 20_000] {
        for variant in [Variant::Queue, Variant::Direct] {
            let err = service
                .submit_batched(&request(variant, 2, memory_mb, 1))
                .expect_err("refused");
            assert_eq!(err, out_of_range(memory_mb), "{variant}");
        }
        let errors: Vec<FsdError> = service
            .submit_coalesced(&[
                request(Variant::Queue, 2, memory_mb, 1),
                request(Variant::Queue, 2, memory_mb, 1),
            ])
            .into_iter()
            .map(|r| r.expect_err("refused"))
            .collect();
        assert_eq!(errors, vec![out_of_range(memory_mb); 2]);
    }
    assert_nothing_billed(&service);
    // Serial runs at the service's own instance memory whatever is asked,
    // so only that setting can put it out of range.
    let report = service
        .submit_batched(&request(Variant::Serial, 4, 64, 1))
        .expect("Serial ignores the requested memory");
    assert_eq!(report.per_worker[0].memory_mb, MAX_MEMORY_MB);
    // The next valid request is served.
    let valid = request(Variant::Queue, 2, 1769, 1);
    let report = service
        .submit_batched(&valid)
        .expect("a valid request runs");
    assert_eq!(
        report.outputs,
        vec![service.dnn().serial_inference(&valid.batches[0])]
    );
    assert_eq!(service.audit(), Vec::<String>::new());

    let small_serial = ServiceBuilder::new(dnn(1))
        .config(EngineConfig {
            serial_memory_mb: 64,
            ..EngineConfig::default()
        })
        .deterministic(1)
        .warm_pool(2, u64::MAX)
        .build();
    let serial_refusal = FsdError::InvalidRequest {
        field: "serial_memory_mb",
        value: 64,
        min: MIN_MEMORY_MB,
        max: MAX_MEMORY_MB,
    };
    assert_eq!(
        small_serial
            .submit_batched(&request(Variant::Serial, 1, 1769, 1))
            .expect_err("refused"),
        serial_refusal
    );
    // A pre-warm passes the same range check.
    assert_eq!(
        small_serial.prewarm_tree(Variant::Queue, 2, 64),
        Err(out_of_range(64))
    );
    assert_eq!(
        small_serial.prewarm_tree(Variant::Serial, 2, 1769),
        Err(serial_refusal)
    );
    assert_eq!(small_serial.warm_pool_stats().expect("pool").created, 0);
    assert_nothing_billed(&small_serial);
}

#[test]
fn an_out_of_range_memory_is_refused_at_enqueue() {
    for cfg in [
        SchedulerConfig::default(),
        SchedulerConfig::default()
            .manual()
            .batched(BatchingConfig::default()),
    ] {
        let service = Arc::new(ServiceBuilder::new(dnn(2)).deterministic(2).build());
        let sched = Scheduler::wrap(service.clone(), cfg);
        for memory_mb in [64, 20_000] {
            let err = sched
                .enqueue(
                    DEFAULT_MODEL,
                    Priority::Interactive,
                    request(Variant::Queue, 2, memory_mb, 1),
                )
                .expect_err("refused at intake");
            assert_eq!(err, out_of_range(memory_mb));
        }
        assert_eq!((sched.queued(), sched.inflight()), (0, 0));
        assert_eq!(sched.stats().enqueued, 0, "a refusal is not counted");
        assert_eq!(sched.audit(), Vec::<String>::new());
        assert_nothing_billed(&service);
        // The next valid request is served.
        let valid = request(Variant::Queue, 2, 1769, 1);
        let expected = service.dnn().serial_inference(&valid.batches[0]);
        let ticket = sched
            .enqueue(DEFAULT_MODEL, Priority::Interactive, valid)
            .expect("accepted");
        if sched.is_manual() {
            sched.dispatch();
        }
        let report = ticket.wait().expect("a valid request runs");
        assert_eq!(report.outputs, vec![expected]);
        assert_eq!(sched.inflight(), 0);
        assert_eq!(sched.audit(), Vec::<String>::new());
    }
}

#[test]
fn out_of_range_counts_and_widths_run_as_documented() {
    let service = ServiceBuilder::new(dnn(4)).deterministic(4).build();
    // `workers: 0` runs one rank under the requested variant.
    let one = service
        .submit_batched(&request(Variant::Queue, 0, 1769, 1))
        .expect("runs");
    assert_eq!((one.variant, one.workers), (Variant::Queue, 1));
    // More ranks than neurons: every rank launches and bills, the ones
    // owning no row included, and the output is still the serial one.
    let wide = request(Variant::Queue, 2 * N as u32, 1769, 1);
    let report = service.submit_batched(&wide).expect("runs");
    assert_eq!(report.workers, 2 * N as u32);
    assert_eq!(report.per_worker.len(), 2 * N);
    assert!(report.per_worker.iter().all(|w| w.billed_ms > 0));
    assert_eq!(
        report.outputs,
        vec![service.dnn().serial_inference(&wide.batches[0])]
    );
    // A width-0 batch returns an empty block of width 0.
    let empty_block = generate_inputs(N, &InputSpec::scaled(0, 1));
    let report = service
        .submit_batched(&BatchedRequest {
            batches: vec![empty_block.clone()],
            ..request(Variant::Object, 3, 1769, 0)
        })
        .expect("runs");
    assert_eq!(report.first_output().width(), 0);
    assert_eq!(
        report.outputs,
        vec![service.dnn().serial_inference(&empty_block)]
    );
    assert_eq!(service.audit(), Vec::<String>::new());
}

/// A memory drawn over all of `u32` about half the time, and near
/// Lambda's range otherwise, so most cases run a tree.
fn any_memory() -> impl Strategy<Value = u32> {
    (any::<bool>(), any::<u32>(), 0u32..12_001).prop_map(
        |(wide, any, near)| {
            if wide {
                any
            } else {
                near
            }
        },
    )
}

/// One request with 0–3 batches of widths 0–5 (a width-0 batch included).
fn any_request() -> impl Strategy<Value = BatchedRequest> {
    (
        0..Variant::ALL.len(),
        0u32..2 * N as u32 + 1,
        any_memory(),
        proptest::collection::vec((0usize..6, any::<u64>()), 0..4),
    )
        .prop_map(|(v, workers, memory_mb, widths)| BatchedRequest {
            variant: Variant::ALL[v],
            workers,
            memory_mb,
            batches: widths
                .into_iter()
                .map(|(width, seed)| generate_inputs(N, &InputSpec::scaled(width, seed)))
                .collect(),
        })
}

/// The paths the proptest drives, built once: a pool-less service, and a
/// batching manual scheduler over a service of the same model.
fn paths() -> &'static (FsdService, Scheduler) {
    static PATHS: OnceLock<(FsdService, Scheduler)> = OnceLock::new();
    PATHS.get_or_init(|| {
        let direct = ServiceBuilder::new(dnn(3)).deterministic(3).build();
        let fronted = Arc::new(ServiceBuilder::new(dnn(3)).deterministic(3).build());
        let cfg = SchedulerConfig::default()
            .manual()
            .batched(BatchingConfig::default());
        (direct, Scheduler::wrap(fronted, cfg))
    })
}

/// The oracle: each output is its batch's `serial_inference`, or the
/// error is one of the door's typed refusals.
fn check(
    service: &FsdService,
    req: &BatchedRequest,
    result: Result<Vec<SparseRows>, FsdError>,
) -> Result<(), String> {
    match result {
        Ok(outputs) => {
            let expected: Vec<SparseRows> = req
                .batches
                .iter()
                .map(|b| service.dnn().serial_inference(b))
                .collect();
            prop_assert_eq!(outputs, expected);
        }
        Err(FsdError::EmptyRequest) => prop_assert!(req.batches.is_empty()),
        Err(FsdError::InvalidRequest { field, value, .. }) => {
            prop_assert_eq!(field, "memory_mb");
            prop_assert_eq!(value, req.memory_mb);
            prop_assert!(!(MIN_MEMORY_MB..=MAX_MEMORY_MB).contains(&value));
        }
        Err(e) => return Err(format!("{req:?}: untyped failure {e}")),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_request_runs_or_is_refused_typed(req in any_request()) {
        let (direct, sched) = paths();
        let ran = direct.submit_batched(&req).map(|r| r.outputs);
        check(direct, &req, ran)?;
        prop_assert_eq!(direct.audit(), Vec::<String>::new());

        let fronted = sched.service(DEFAULT_MODEL).expect("registered");
        let ran = match sched.enqueue(DEFAULT_MODEL, Priority::Batch, req.clone()) {
            Ok(ticket) => {
                sched.dispatch();
                let (done, result) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let _ = done.send(ticket.wait());
                });
                result
                    .recv_timeout(Duration::from_secs(30))
                    .map_err(|_| format!("{req:?}: ticket unresolved"))?
                    .map(|r| r.outputs)
            }
            Err(refused) => Err(refused),
        };
        check(fronted, &req, ran)?;
        prop_assert_eq!(sched.inflight(), 0);
        prop_assert_eq!(sched.audit(), Vec::<String>::new());
    }
}
