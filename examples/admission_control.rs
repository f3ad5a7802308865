//! Admission control: serve a bursty mix through the scheduler.
//!
//! ```text
//! cargo run --release --example admission_control
//! ```
//!
//! Wraps an [`FsdService`] in the `fsd-sched` [`Scheduler`]: all intake
//! goes through `enqueue` → `Ticket` → `wait`, with two priority classes
//! drained by weighted FIFO, a global in-flight cap, a per-model cap
//! derived from the paper's §IV-C channel-load rules, and **bounded**
//! queues that reject with `FsdError::Overloaded { retry_after }` instead
//! of buffering without bound. A request no Lambda could run (64 MB
//! workers) is refused at the door with a typed
//! `FsdError::InvalidRequest` before it is queued, counted or billed.

use fsd_inference::core::{BatchedRequest, FsdError, FsdService, ServiceBuilder, Variant};
use fsd_inference::model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};
use fsd_inference::sched::{Priority, Scheduler, SchedulerConfig, Ticket};
use std::sync::Arc;

fn main() {
    // 1. The model and the serving front end (as in `quickstart`).
    let spec = DnnSpec::scaled(512, 11);
    let dnn = Arc::new(generate_dnn(&spec));
    let service: Arc<FsdService> = Arc::new(
        ServiceBuilder::new(dnn)
            .deterministic(11)
            .prewarm(2)
            .prewarm(4)
            .build(),
    );

    // 2. The admission-controlled scheduler in front of it: at most 3
    //    requests execute at once, interactive traffic gets a 3:1 share
    //    over batch, and each class buffers at most 4 waiting requests.
    let cfg = SchedulerConfig::default()
        .global_cap(3)
        .queue_capacity(4)
        .weights(3, 1);
    let sched = Scheduler::wrap(service.clone(), cfg);
    println!(
        "scheduler: global cap {}, per-model cap {} (derived from §IV-C), queues of 4",
        sched.global_cap(),
        sched.model_cap("default").unwrap(),
    );

    // 3. A burst: 10 requests arrive back to back, mixed priorities and
    //    sizes, more than the bounded queues can hold.
    let mut tickets: Vec<(usize, Ticket)> = Vec::new();
    for i in 0..10 {
        let priority = if i % 3 == 2 {
            Priority::Batch
        } else {
            Priority::Interactive
        };
        let request = BatchedRequest {
            variant: Variant::Auto,
            workers: 2 + (i % 2) as u32,
            memory_mb: 1769,
            batches: vec![generate_inputs(
                spec.neurons,
                &InputSpec::scaled(16 + 8 * i, 11 + i as u64),
            )],
        };
        match sched.enqueue_default(priority, request) {
            Ok(t) => {
                println!("request {i:2} ({priority}): accepted as seq {}", t.seq());
                tickets.push((i, t));
            }
            Err(FsdError::Overloaded { retry_after }) => {
                // Explicit backpressure: the client is told how long the
                // current backlog needs to drain a slot (virtual time).
                println!("request {i:2} ({priority}): REJECTED — retry after {retry_after}");
            }
            Err(e) => panic!("enqueue failed: {e}"),
        }
    }

    // 4. A request Lambda cannot run — 64 MB workers, under its 128 MB
    //    floor — is refused at the door with a typed error, before the
    //    queues see it: it takes no queue place and bills nothing.
    let too_small = BatchedRequest {
        variant: Variant::Queue,
        workers: 2,
        memory_mb: 64,
        batches: vec![generate_inputs(spec.neurons, &InputSpec::scaled(8, 99))],
    };
    match sched.enqueue_default(Priority::Interactive, too_small) {
        Err(e @ FsdError::InvalidRequest { .. }) => println!("64 MB request: REFUSED — {e}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    let enqueued = sched.stats().enqueued;
    assert_eq!(enqueued, tickets.len() as u64, "a refusal is not counted");

    // 5. Harvest. Every accepted request completes; priorities shaped who
    //    went first, the caps bounded how many ran at once.
    for (i, ticket) in tickets {
        let report = ticket.wait().expect("accepted request runs");
        println!(
            "request {i:2}: {} P={} — {} virtual latency, {} samples",
            report.variant, report.workers, report.latency, report.samples,
        );
    }

    // 6. Graceful shutdown: stop intake, wait for the backlog.
    sched.shutdown();
    sched.drain();
    let stats = sched.stats();
    println!("admitted {:?} (interactive, batch)", stats.admitted);
    println!(
        "rejected {:?}, peak concurrency {}/{}",
        stats.rejected,
        stats.max_inflight,
        sched.global_cap(),
    );
    // Drained, the scheduler and its service audit clean: every slot
    // released, nothing leaked, every billed call accounted for.
    assert_eq!(sched.audit(), Vec::<String>::new());
}
