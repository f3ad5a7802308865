//! Predictive pre-warming — predicted-burst hit rate vs reactive-only.
//!
//! Not a paper table: this measures the PR-4 predictor. The same seeded
//! bursty trace is replayed through three manual-dispatch schedulers over
//! identically seeded models:
//!
//! * **off** — no warm pool at all (every request pays the launch bill);
//! * **reactive** — the PR-3 pool: trees park only after traffic already
//!   paid their cold start;
//! * **predictive** — the same pool fronted by the arrival-history
//!   predictor ([`fsd_sched::PredictorConfig`]), which pre-warms each
//!   shape before its burst is admitted.
//!
//! Replays run at `global_cap = 1` so every pool mutation is totally
//! ordered and the emitted metrics are bit-stable — exactly what the CI
//! bench-regression gate needs. The run asserts the acceptance criterion
//! (predictive hit rate strictly above reactive) and emits
//! `BENCH_prewarm.json`.
//!
//! ```text
//! cargo run --release -p fsd-bench --bin prewarm
//! ```

use fsd_bench::{gate, mean_latency_us, row, small_dnn, Table, SEED};
use fsd_core::ServiceBuilder;
use fsd_sched::harness::replay;
use fsd_sched::{trace, PredictorConfig, Scheduler, SchedulerBuilder, SchedulerConfig};
use std::sync::Arc;

/// A manual-dispatch scheduler at `global_cap = 1` over a fresh service,
/// configured for `mode` (`off`, `reactive` or `predictive`).
fn fresh_scheduler(mode: &str) -> Scheduler {
    let mut builder = ServiceBuilder::new(small_dnn(128, 4, SEED))
        .deterministic(SEED)
        .prewarm(1)
        .prewarm(2);
    if mode != "off" {
        // The bursty trace carries five shapes — Queue/Object × P ∈ {1, 2}
        // and Serial's one-rank tree — bursting up to two deep. A shelf
        // sized for four of them still never evicts a tree a later
        // request wants at global_cap 1: reactive mode's cold starts are
        // exactly the five shapes' first arrivals.
        builder = builder.auto_warm_pool(4, 2);
    }
    let mut cfg = SchedulerConfig::default()
        .global_cap(1)
        .queue_capacity(64)
        .manual();
    if mode == "predictive" {
        // Window of one burst (8 arrivals): in-window counts equal the
        // burst depth per shape instead of double-counting across bursts.
        cfg = cfg.predictive(PredictorConfig::default().window(8).max_warm(8));
    }
    SchedulerBuilder::new(cfg)
        .model("m", Arc::new(builder.build()))
        .build()
}

fn main() {
    let arrivals = trace::bursty(4, 8, 400_000, SEED);
    let mut table = Table::new(&[
        "pool",
        "warm hits",
        "cold starts",
        "hit rate",
        "prewarmed",
        "mean virt latency",
    ]);
    let mut modes = Vec::new();
    // (warm hits, mean latency µs) per mode, for the acceptance criterion.
    let mut runs = Vec::new();
    for mode in ["off", "reactive", "predictive"] {
        let sched = fresh_scheduler(mode);
        let report = replay(&sched, "m", &arrivals);
        assert!(report.rejected.is_empty(), "generous queues never reject");
        assert_eq!(report.stats.failed, 0);
        let stats = &report.stats;
        let hit_rate_pct = 100 * stats.warm_hits / (stats.warm_hits + stats.cold_starts).max(1);
        let mean_latency_us = mean_latency_us(&report);
        table.row(vec![
            mode.to_string(),
            stats.warm_hits.to_string(),
            stats.cold_starts.to_string(),
            format!("{hit_rate_pct}%"),
            stats.prewarmed.to_string(),
            format!("{:.1}ms", mean_latency_us as f64 / 1000.0),
        ]);
        modes.push(row!(
            mode: mode,
            warm_hits: stats.warm_hits,
            cold_starts: stats.cold_starts,
            hit_rate_pct: hit_rate_pct,
            prewarmed: stats.prewarmed,
            mean_latency_us: mean_latency_us,
        ));
        runs.push((stats.warm_hits, mean_latency_us));
    }
    table.print(&format!(
        "Predictive pre-warming — bursty trace ({} requests), manual replay, global_cap=1",
        arrivals.len(),
    ));

    // The acceptance criterion, enforced on every bench run: the
    // predictor's hit rate strictly beats reactive-only, which in turn
    // beats no pool at all.
    let [off, reactive, predictive] = [runs[0], runs[1], runs[2]];
    assert_eq!(off.0, 0, "a pool-less run cannot hit warm");
    assert!(
        predictive.0 > reactive.0,
        "predicted-burst hit rate must beat reactive-only: {} vs {}",
        predictive.0,
        reactive.0
    );
    assert!(
        predictive.1 < reactive.1 && reactive.1 < off.1,
        "latency must fall with the hit rate"
    );

    // Machine-readable emission for the CI bench-regression gate.
    gate::emit("prewarm", &[], &[("modes", modes)]);
}
