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

use fsd_core::{FsdService, ServiceBuilder};
use fsd_model::{generate_dnn, DnnSpec};
use fsd_sched::harness::replay;
use fsd_sched::{trace, PredictorConfig, Scheduler, SchedulerBuilder, SchedulerConfig};
use std::fmt::Write as _;
use std::sync::Arc;

const SEED: u64 = 42;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Off,
    Reactive,
    Predictive,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Reactive => "reactive",
            Mode::Predictive => "predictive",
        }
    }
}

fn fresh_service(mode: Mode) -> Arc<FsdService> {
    let spec = DnnSpec {
        neurons: 128,
        layers: 4,
        nnz_per_row: 8,
        bias: -0.25,
        clip: 32.0,
        seed: SEED,
    };
    let mut builder = ServiceBuilder::new(Arc::new(generate_dnn(&spec)))
        .deterministic(SEED)
        .prewarm(1)
        .prewarm(2);
    if mode != Mode::Off {
        // The bursty trace carries five shapes — Queue/Object × P ∈ {1, 2}
        // and Serial's one-rank tree — bursting up to two deep. A shelf
        // sized for four of them still never evicts a tree a later
        // request wants at global_cap 1: reactive mode's cold starts are
        // exactly the five shapes' first arrivals.
        builder = builder.auto_warm_pool(4, 2);
    }
    Arc::new(builder.build())
}

fn fresh_scheduler(mode: Mode) -> Scheduler {
    let mut cfg = SchedulerConfig::default()
        .global_cap(1)
        .queue_capacity(64)
        .manual();
    if mode == Mode::Predictive {
        // Window of one burst (8 arrivals): in-window counts equal the
        // burst depth per shape instead of double-counting across bursts.
        cfg = cfg.predictive(PredictorConfig::default().window(8).max_warm(8));
    }
    SchedulerBuilder::new(cfg)
        .model("m", fresh_service(mode))
        .build()
}

struct Row {
    mode: &'static str,
    warm_hits: u64,
    cold_starts: u64,
    hit_rate_pct: u64,
    prewarmed: u64,
    mean_latency_us: u64,
}

fn main() {
    let arrivals = trace::bursty(4, 8, 400_000, SEED);
    let mut table = fsd_bench::Table::new(&[
        "pool",
        "warm hits",
        "cold starts",
        "hit rate",
        "prewarmed",
        "mean virt latency",
    ]);
    let mut rows = Vec::new();
    for mode in [Mode::Off, Mode::Reactive, Mode::Predictive] {
        let sched = fresh_scheduler(mode);
        let report = replay(&sched, "m", &arrivals);
        assert!(report.rejected.is_empty(), "generous queues never reject");
        assert_eq!(report.stats.failed, 0);
        let (sum_us, n) = report
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .fold((0u64, 0u64), |(s, n), d| (s + d.latency_us, n + 1));
        let launched = report.stats.warm_hits + report.stats.cold_starts;
        let row = Row {
            mode: mode.name(),
            warm_hits: report.stats.warm_hits,
            cold_starts: report.stats.cold_starts,
            hit_rate_pct: 100 * report.stats.warm_hits / launched.max(1),
            prewarmed: report.stats.prewarmed,
            mean_latency_us: sum_us / n.max(1),
        };
        table.row(vec![
            row.mode.to_string(),
            row.warm_hits.to_string(),
            row.cold_starts.to_string(),
            format!("{}%", row.hit_rate_pct),
            row.prewarmed.to_string(),
            format!("{:.1}ms", row.mean_latency_us as f64 / 1000.0),
        ]);
        rows.push(row);
    }
    table.print(&format!(
        "Predictive pre-warming — bursty trace ({} requests), manual replay, global_cap=1",
        arrivals.len(),
    ));

    // The acceptance criterion, enforced on every bench run: the
    // predictor's hit rate strictly beats reactive-only, which in turn
    // beats no pool at all.
    let (off, reactive, predictive) = (&rows[0], &rows[1], &rows[2]);
    assert_eq!(off.warm_hits, 0, "a pool-less run cannot hit warm");
    assert!(
        predictive.warm_hits > reactive.warm_hits,
        "predicted-burst hit rate must beat reactive-only: {} vs {}",
        predictive.warm_hits,
        reactive.warm_hits
    );
    assert!(
        predictive.mean_latency_us < reactive.mean_latency_us
            && reactive.mean_latency_us < off.mean_latency_us,
        "latency must fall with the hit rate"
    );

    // Machine-readable emission for the CI bench-regression gate.
    let mut json = String::from("{\n  \"bench\": \"prewarm\",\n  \"modes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"warm_hits\": {}, \"cold_starts\": {}, \
             \"hit_rate_pct\": {}, \"prewarmed\": {}, \"mean_latency_us\": {}}}{}",
            r.mode,
            r.warm_hits,
            r.cold_starts,
            r.hit_rate_pct,
            r.prewarmed,
            r.mean_latency_us,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_prewarm.json", &json).expect("write BENCH_prewarm.json");
    println!("wrote BENCH_prewarm.json");
}
