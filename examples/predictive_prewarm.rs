//! Predictive pre-warming: mine arrival history, pre-warm ahead of bursts.
//!
//! ```text
//! cargo run --release --example predictive_prewarm
//! ```
//!
//! The warm pool alone is reactive — a tree only parks after some request
//! already paid its cold start. With `SchedulerConfig::predictive`, every
//! accepted arrival feeds a per-model predictor (sliding-window rate +
//! burst detection per `(variant, P, memory)` shape) whose decisions
//! pre-warm trees *before* admission runs and evict shapes whose traffic
//! went quiet. The same seeded bursty trace is replayed below through a
//! reactive-only and a predictive scheduler; watch the cold starts drop.

use fsd_inference::core::ServiceBuilder;
use fsd_inference::model::{generate_dnn, DnnSpec};
use fsd_inference::sched::harness::replay;
use fsd_inference::sched::{trace, PredictorConfig, Scheduler, SchedulerBuilder, SchedulerConfig};
use std::sync::Arc;

const SEED: u64 = 7;

fn fresh_scheduler(predictive: bool) -> Scheduler {
    let spec = DnnSpec {
        neurons: 96,
        layers: 3,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: SEED,
    };
    let service = Arc::new(
        ServiceBuilder::new(Arc::new(generate_dnn(&spec)))
            .deterministic(SEED)
            .prewarm(1)
            .prewarm(2)
            // Pool sized by the same formula the predictor's targets
            // assume: 4 shapes bursting up to 2 deep.
            .auto_warm_pool(4, 2)
            .build(),
    );
    let mut cfg = SchedulerConfig::default()
        .global_cap(1)
        .queue_capacity(64)
        .manual();
    if predictive {
        cfg = cfg.predictive(PredictorConfig::default().window(8).max_warm(8));
    }
    SchedulerBuilder::new(cfg).model("m", service).build()
}

fn main() {
    let arrivals = trace::bursty(3, 8, 400_000, SEED);
    println!("mode        warm hits  cold starts  prewarmed  evicted  mean latency");
    println!("----------------------------------------------------------------------");
    for predictive in [false, true] {
        let sched = fresh_scheduler(predictive);
        let report = replay(&sched, "m", &arrivals);
        assert_eq!(sched.audit(), Vec::<String>::new());
        let (sum_us, n) = report
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .fold((0u64, 0u64), |(s, n), d| (s + d.latency_us, n + 1));
        println!(
            "{:<10}  {:>9}  {:>11}  {:>9}  {:>7}  {:>9.1}ms",
            if predictive { "predictive" } else { "reactive" },
            report.stats.warm_hits,
            report.stats.cold_starts,
            report.stats.prewarmed,
            report.stats.predictor_evicted,
            sum_us as f64 / n.max(1) as f64 / 1000.0,
        );
    }
    println!(
        "\nThe predictor pre-warms each shape at its first in-burst arrival —\n\
         before admission — so even first-of-shape requests land warm; the\n\
         reactive pool pays one cold start per shape before anything parks."
    );
}
