//! Warm-pool launch-to-first-output — cold starts vs warm hits.
//!
//! Not a paper table: this measures the warm-tree pool. For each model
//! size, `SAMPLES` distinct single-batch requests (per-sample input seed
//! and width, so the deterministic clock still yields a real latency
//! distribution) are served through a pooled service; before each *cold*
//! sample the pool is invalidated (the parked tree is dropped, forcing
//! the full coordinator + cold start + launch-tree +
//! weight-load bill), while the matching *warm* sample routes the same
//! inputs into the parked tree. The run asserts warm p50 strictly below
//! cold p50, prints both distributions, and emits `BENCH_warm_pool.json`
//! for the CI bench-regression gate.
//!
//! ```text
//! cargo run --release -p fsd-bench --bin warm_pool
//! ```

use fsd_bench::{gate, percentile, row, varied_samples, Scale, Table, SAMPLES, SEED};
use fsd_core::{LaunchPath, ServiceBuilder};

fn main() {
    let scale = Scale::from_args();
    let mut table = Table::new(&[
        "neurons",
        "P",
        "cold p50",
        "cold p99",
        "warm p50",
        "warm p99",
        "speedup p50",
    ]);
    let mut sizes = Vec::new();
    for &neurons in &scale.neuron_grid() {
        let workers = scale.worker_grid()[1];
        let (dnn, samples) = varied_samples(scale, neurons, workers);
        let service = ServiceBuilder::new(dnn)
            .config(scale.engine_config(SEED))
            .warm_pool(2, u64::MAX)
            .prewarm(workers)
            .build();
        let mut cold_us = Vec::with_capacity(SAMPLES);
        let mut warm_us = Vec::with_capacity(SAMPLES);
        for (req, expected) in &samples {
            service.invalidate_warm_trees();
            let cold = service.submit(req).expect("cold run");
            assert_eq!(cold.launch, LaunchPath::ColdStart);
            assert_eq!(cold.first_output(), expected, "cold output wrong");
            cold_us.push(cold.latency.as_micros());
            let warm = service.submit(req).expect("warm run");
            assert_eq!(warm.launch, LaunchPath::WarmHit);
            assert_eq!(warm.first_output(), expected, "warm output wrong");
            warm_us.push(warm.latency.as_micros());
        }
        cold_us.sort_unstable();
        warm_us.sort_unstable();
        let [cold_p50, cold_p99] = [50.0, 99.0].map(|p| percentile(&cold_us, p));
        let [warm_p50, warm_p99] = [50.0, 99.0].map(|p| percentile(&warm_us, p));
        assert!(
            warm_p50 < cold_p50,
            "warm p50 must be strictly below cold p50 (N={neurons})"
        );
        assert!(
            cold_p50 < cold_p99,
            "varied samples must spread the distribution (N={neurons}): \
             p50 {cold_p50} == p99 {cold_p99}"
        );
        table.row(vec![
            neurons.to_string(),
            workers.to_string(),
            format!("{:.1}ms", cold_p50 as f64 / 1000.0),
            format!("{:.1}ms", cold_p99 as f64 / 1000.0),
            format!("{:.1}ms", warm_p50 as f64 / 1000.0),
            format!("{:.1}ms", warm_p99 as f64 / 1000.0),
            format!("{:.2}x", cold_p50 as f64 / warm_p50 as f64),
        ]);
        sizes.push(row!(
            neurons: neurons,
            workers: workers,
            samples: cold_us.len(),
            cold_p50_us: cold_p50,
            cold_p99_us: cold_p99,
            warm_p50_us: warm_p50,
            warm_p99_us: warm_p99,
        ));
    }
    table.print(&format!(
        "Warm pool — launch-to-first-output, {SAMPLES} varied samples per path, FSD-Inf-Queue"
    ));

    // Machine-readable emission for the CI bench-regression gate.
    gate::emit(
        "warm_pool",
        &[("samples_per_path", SAMPLES.into())],
        &[("sizes", sizes)],
    );
}
