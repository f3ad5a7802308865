//! Figure 4 — daily cost vs query volume.
//!
//! Queries arrive over 24 h, evenly spread over the neuron-count grid. For
//! each volume: FSD-Inference picks its best variant per model size and
//! pays per query; Server-Always-On keeps 2× c5.12xlarge running all day
//! (fixed cost); Server-Job-Scoped provisions per query. The sweep doubles
//! the daily query count until FSD's bill passes always-on (at most 2^24
//! queries/day) and prints where it crosses.
//!
//! The paper's shape: FSD is far cheaper than always-on until ~4M
//! samples/day; job-scoped is marginally cheaper than FSD but (Fig. 5)
//! suffers minute-scale latency. Measured here at the default scale: FSD
//! passes always-on at 2^17 queries/day (≈33.6M samples/day), and
//! job-scoped is the most expensive of the three per query — each query
//! bills at least EC2's 60-second minimum, so at 65 536 queries/day it
//! costs $967.64 against FSD's $89.83.

use fsd_baselines::{job_scoped_instance, run_server, ServerKind, ServerTimings, C5_12XLARGE};
use fsd_bench::{engine_for, run_checked, usd, Scale, Table};
use fsd_core::Variant;

/// The sweep's cap: 2^24 queries/day.
const MAX_QUERIES_LOG2: u32 = 24;

fn main() {
    let scale = Scale::from_args();
    let batch = scale.batch();
    let grid = scale.neuron_grid();

    // Per-query cost of FSD's best configuration for each model size.
    println!("Measuring FSD per-query costs (best variant per N)…");
    let mut fsd_query_cost = Vec::new();
    let mut js_query_cost = Vec::new();
    for &n in &grid {
        let w = fsd_bench::workload(scale, n, 42);
        let engine = engine_for(&w, scale, 42);
        // Best variant: serial for the smallest model, queue/object beyond
        // (the engine's own recommendation logic is exercised in tests;
        // here we measure both parallel variants and keep the cheaper).
        let mem = scale.worker_memory_mb(n);
        let p = scale.worker_grid()[scale.worker_grid().len() / 2];
        let candidates = if n == grid[0] {
            vec![run_checked(&engine, &w, Variant::Serial, 1, mem)]
        } else {
            vec![
                run_checked(&engine, &w, Variant::Queue, p, mem),
                run_checked(&engine, &w, Variant::Object, p, mem),
            ]
        };
        let best = candidates
            .into_iter()
            .min_by(|a, b| {
                a.cost_actual
                    .total()
                    .partial_cmp(&b.cost_actual.total())
                    .expect("finite")
            })
            .expect("non-empty");
        println!(
            "  N={n}: {} P={} -> {}/query",
            best.variant,
            best.workers,
            usd(best.cost_actual.total())
        );
        fsd_query_cost.push(best.cost_actual.total());

        let js = run_server(
            &w.dnn,
            &w.inputs,
            ServerKind::JobScoped,
            job_scoped_instance(n),
            &scale.compute(),
            &ServerTimings::default(),
        )
        .expect("job-scoped fits");
        js_query_cost.push(js.cost_per_query.expect("per-query billed"));
    }

    let always_on_daily = 2.0 * 24.0 * C5_12XLARGE.hourly_usd;

    let mut t = Table::new(&[
        "samples/day (k)",
        "queries/day",
        "FSD-Inference",
        "Server-Always-On",
        "Server-Job-Scoped",
    ]);
    // Volume grid: query-count doublings until FSD passes always-on.
    let daily_cost = |queries: u64| -> (f64, f64) {
        let per_model = (queries as f64 / grid.len() as f64).ceil();
        let fsd: f64 = fsd_query_cost.iter().map(|c| c * per_model).sum();
        let js: f64 = js_query_cost.iter().map(|c| c * per_model).sum();
        (fsd, js)
    };
    let mut crossover: Option<u64> = None;
    for i in 0..=MAX_QUERIES_LOG2 {
        let queries = 1u64 << i;
        let daily_samples = queries * batch as u64;
        let (fsd, js) = daily_cost(queries);
        t.row(vec![
            format!("{:.1}", daily_samples as f64 / 1000.0),
            format!("{queries}"),
            usd(fsd),
            usd(always_on_daily),
            usd(js),
        ]);
        if fsd > always_on_daily {
            crossover = Some(queries);
            break;
        }
    }
    t.print("Figure 4: daily cost vs query volume");

    // The paper's headline shape: FSD is far cheaper than always-on until
    // very high daily volumes, where the lines cross (≈4M samples/day in
    // the paper).
    let (fsd_low, _) = daily_cost(1);
    assert!(
        fsd_low < always_on_daily,
        "FSD must undercut always-on at low volume"
    );
    let crossover = crossover.unwrap_or_else(|| {
        panic!("FSD never passes always-on within 2^{MAX_QUERIES_LOG2} queries/day")
    });
    println!(
        "\nShape check: FSD {} at the lowest volume; it passes always-on at {crossover} \
         queries/day (~{:.1}k samples/day; the paper: ~4M samples/day) — OK",
        usd(fsd_low),
        (crossover * batch as u64) as f64 / 1000.0
    );
}
