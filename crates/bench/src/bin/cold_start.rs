//! Cold-start multicast — independent weight loads vs λScale-style
//! streaming down the launch cascade.
//!
//! Not a paper table: this measures the weight-streaming cold path. For
//! each (model size, P), `SAMPLES` distinct single-batch requests are
//! served three ways, all of them `ColdStart` launches:
//!
//! * **off** — streaming disabled: the hierarchical cascade, every worker
//!   fetching its own partition from object storage (the original path);
//! * **miss** — streaming enabled, cache invalidated first: rank 0
//!   fetches each block once and multicasts it down the tree;
//! * **hit** — streaming enabled, parked trees evicted but the shared
//!   weight cache kept: the relaunch streams straight out of memory.
//!
//! The run asserts miss p50 strictly below off p50 and hit p50 at or
//! below miss p50, gates the streamed cold start against the *committed*
//! `BENCH_warm_pool.json` cold baselines (≥20% drop at the workers=4
//! rows; in-run off p50 when no baseline is checked out), and emits
//! `BENCH_cold_start.json` for the CI bench-regression gate.
//!
//! ```text
//! cargo run --release -p fsd-bench --bin cold_start
//! ```

use fsd_bench::{gate, percentile, row, varied_samples, Scale, Table, SAMPLES, SEED};
use fsd_core::{LaunchPath, ServiceBuilder, Variant};

fn main() {
    let scale = Scale::from_args();
    // P = 4 (comparable to the committed warm-pool baselines) and P = 8
    // (a two-level cascade, so relay forwarding is on the measured path).
    let worker_grid = [scale.worker_grid()[1], scale.worker_grid()[2]];
    // The acceptance gate: at the committed warm-pool baseline's shape
    // (reduced scale, workers = 4) the streamed cold start must undercut
    // the recorded eager cold p50 by at least 20%. Without a checked-out
    // baseline (ad-hoc runs outside the repo root) the in-run off p50
    // stands in, which the relative assertions below already cover.
    let baseline =
        std::fs::read_to_string("bench-baselines/BENCH_warm_pool.json").unwrap_or_default();
    let base_neurons = gate::extract(&baseline, "neurons");
    let base_cold = gate::extract(&baseline, "cold_p50_us");
    let mut table = Table::new(&[
        "neurons",
        "P",
        "off p50",
        "miss p50",
        "hit p50",
        "drop miss",
        "drop hit",
    ]);
    let mut sizes = Vec::new();
    for &neurons in &scale.neuron_grid() {
        for &workers in &worker_grid {
            // The warm-pool bench's samples, so the off path reproduces
            // its cold distribution.
            let (dnn, samples) = varied_samples(scale, neurons, workers);
            let pooled = || {
                ServiceBuilder::new(dnn.clone())
                    .config(scale.engine_config(SEED))
                    .warm_pool(2, u64::MAX)
            };
            let eager = pooled().build();
            let streamed = pooled().weight_streaming(true).build();
            let mut off_us = Vec::with_capacity(SAMPLES);
            let mut miss_us = Vec::with_capacity(SAMPLES);
            let mut hit_us = Vec::with_capacity(SAMPLES);
            for (req, expected) in &samples {
                // Stream off: drop the parked tree, full hierarchical
                // cascade with independent weight loads.
                eager.invalidate_warm_trees();
                let off = eager.submit(req).expect("stream-off cold run");
                assert_eq!(off.launch, LaunchPath::ColdStart);
                assert_eq!(off.first_output(), expected, "off output wrong");
                off_us.push(off.latency.as_micros());
                // Stream miss: tree AND cache dropped — rank 0 refetches
                // everything and multicasts it.
                streamed.invalidate_warm_trees();
                let miss = streamed.submit(req).expect("stream-miss cold run");
                assert_eq!(miss.launch, LaunchPath::ColdStart);
                assert_eq!(miss.outputs, off.outputs, "miss output diverged");
                miss_us.push(miss.latency.as_micros());
                // Stream hit: trees evicted, cache kept — the relaunch is
                // still a ColdStart but streams out of memory.
                streamed.evict_warm_trees(Variant::Queue, workers, req.memory_mb);
                let hit = streamed.submit(req).expect("stream-hit cold run");
                assert_eq!(hit.launch, LaunchPath::ColdStart);
                assert_eq!(hit.outputs, off.outputs, "hit output diverged");
                hit_us.push(hit.latency.as_micros());
            }
            off_us.sort_unstable();
            miss_us.sort_unstable();
            hit_us.sort_unstable();
            let [off_p50, off_p99] = [50.0, 99.0].map(|p| percentile(&off_us, p));
            let [miss_p50, miss_p99] = [50.0, 99.0].map(|p| percentile(&miss_us, p));
            let [hit_p50, hit_p99] = [50.0, 99.0].map(|p| percentile(&hit_us, p));
            assert!(
                miss_p50 < off_p50,
                "streaming must beat independent loads (N={neurons}, P={workers}): \
                 miss {miss_p50} >= off {off_p50}"
            );
            assert!(
                hit_p50 <= miss_p50,
                "a cached stream must not lose to a fetching one \
                 (N={neurons}, P={workers}): hit {hit_p50} > miss {miss_p50}"
            );
            assert!(
                off_p50 < off_p99,
                "varied samples must spread the distribution (N={neurons}, P={workers})"
            );
            if scale == Scale::Scaled && workers == 4 {
                let committed = base_neurons
                    .iter()
                    .position(|&n| n == neurons as f64)
                    .and_then(|i| base_cold.get(i).copied());
                let (reference, source) = match committed {
                    Some(v) => (v, "committed"),
                    None => (off_p50 as f64, "in-run"),
                };
                for (what, p50) in [("streamed", miss_p50), ("cached streamed", hit_p50)] {
                    assert!(
                        (p50 as f64) <= 0.8 * reference,
                        "N={neurons}: {what} cold p50 {p50}us must drop >=20% below the \
                         {source} eager cold p50 {reference}us"
                    );
                }
            }
            table.row(vec![
                neurons.to_string(),
                workers.to_string(),
                format!("{:.1}ms", off_p50 as f64 / 1000.0),
                format!("{:.1}ms", miss_p50 as f64 / 1000.0),
                format!("{:.1}ms", hit_p50 as f64 / 1000.0),
                format!("{:.1}%", 100.0 * (1.0 - miss_p50 as f64 / off_p50 as f64)),
                format!("{:.1}%", 100.0 * (1.0 - hit_p50 as f64 / off_p50 as f64)),
            ]);
            sizes.push(row!(
                neurons: neurons,
                workers: workers,
                samples: off_us.len(),
                off_p50_us: off_p50,
                off_p99_us: off_p99,
                miss_p50_us: miss_p50,
                miss_p99_us: miss_p99,
                hit_p50_us: hit_p50,
                hit_p99_us: hit_p99,
            ));
        }
    }
    table.print(&format!(
        "Cold-start multicast — launch-to-first-output, {SAMPLES} varied samples per path, \
         FSD-Inf-Queue"
    ));

    // Machine-readable emission for the CI bench-regression gate.
    gate::emit(
        "cold_start",
        &[("samples_per_path", SAMPLES.into())],
        &[("sizes", sizes)],
    );
}
