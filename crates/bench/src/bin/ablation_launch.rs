//! Ablation: launch tree fan-out.
//!
//! The paper's `worker_invoke_children` populates `P` instances in
//! `O(log_b P)` invocation rounds and "reduces the launch time for the
//! fully populated instance tree, compared to a centralized single-loop
//! launch or a two-level launch loop as used in Lambada". That holds when
//! a launcher issues its Invokes one after another; here it overlaps up to
//! `LANES` (8) of them per round trip. Rows: fan-out 1 is a chain (the
//! worst case), 2 and 4 are the paper's tree, "chosen" is the eager
//! launch's default (`EngineConfig::launch_fanout`) and `P` is the
//! centralized loop (rank 0 invokes every other rank itself). The metric
//! is the time until the *last* worker has started (tree fully
//! populated). The bin asserts that the chosen fan-out starts its last
//! rank no later than any other row and that each b = 4 tree level costs
//! one Invoke round trip plus one cold start, and prints the smallest `P`
//! at which a tree beats the flat loop, with overlapped and with serial
//! Invokes.

use fsd_bench::{Scale, Table};
use fsd_core::{ServiceBuilder, Variant, LANES};
use fsd_faas::launch::{best_fanout, launch_span};

fn main() {
    let scale = Scale::from_args();
    let n = match scale {
        Scale::Scaled => 1024usize,
        Scale::Paper => 16384,
    };
    let p = *scale.worker_grid().last().expect("non-empty");
    let w = fsd_bench::workload_with_batch(scale, n, 32, 42);
    let mem = scale.worker_memory_mb(n);
    let lat = scale.engine_config(42).cloud.latency;
    let (rtt, cold) = (lat.lambda_invoke_us, lat.lambda_cold_start_us);
    let chosen = scale.engine_config(42).launch_fanout(p);

    let mut t = Table::new(&[
        "branching",
        "round trips",
        "last start (ms)",
        "latency (ms)",
    ]);
    let mut last_starts = Vec::new();
    for branching in [1usize, 2, 4, chosen, p as usize] {
        let mut cfg = scale.engine_config(42);
        cfg.branching = Some(branching);
        let engine = ServiceBuilder::new(w.dnn.clone()).config(cfg).build();
        let r = fsd_bench::run_checked(&engine, &w, Variant::Object, p, mem);
        let last_start = r
            .per_worker
            .iter()
            .map(|wr| wr.started)
            .max()
            .expect("workers exist")
            .as_millis_f64();
        let root_start = r
            .per_worker
            .iter()
            .find(|wr| wr.rank == 0)
            .expect("rank 0 exists")
            .started
            .as_millis_f64();
        // Invoke round trips on the critical path after rank 0 starts.
        let trips = launch_span(p as usize, branching, LANES, rtt, cold).1;
        let label = match branching {
            b if b == chosen => format!("{b} (chosen)"),
            b if b == p as usize => format!("{b} (root invokes all)"),
            b => b.to_string(),
        };
        t.row(vec![
            label,
            trips.to_string(),
            format!("{last_start:.1}"),
            format!("{:.1}", r.latency.as_millis_f64()),
        ]);
        last_starts.push((root_start, last_start, trips));
    }
    t.print(&format!(
        "Ablation: launch tree branching (N = {n}, P = {p})"
    ));

    let chain = last_starts[0].1;
    let (root, tree, trips) = last_starts[2]; // branching 4
    println!(
        "\nShape check: tree launch (b=4) populates in {tree:.0} ms vs {chain:.0} ms for a chain"
    );
    assert!(
        tree < chain,
        "the hierarchical tree must beat the chain launch"
    );
    // Every level below rank 0 costs one Invoke round trip plus one cold
    // start: a parent issues its four children at once. Serial per-child
    // Invokes would add a round trip per earlier sibling.
    let level_ms = (rtt + cold) as f64 / 1000.0;
    let expected = root + trips as f64 * level_ms;
    println!(
        "Level check: b=4 last start {tree:.1} ms, rank 0 + depth x launch = {expected:.1} ms"
    );
    assert!(
        (tree - expected).abs() <= 1.0,
        "each tree level must cost one Invoke round trip plus one cold start"
    );
    let best = last_starts[3].1;
    assert!(
        last_starts.iter().all(|&(_, last, _)| best <= last),
        "the chosen fan-out must start its last rank no later than any other"
    );

    // The smallest P at which some tree readies its last rank before the
    // flat loop from rank 0 does.
    let crossover = |connections: usize| {
        (2usize..)
            .find(|&p| {
                let span = |b| launch_span(p, b, connections, rtt, cold).0;
                span(best_fanout(p, connections, rtt, cold)) < span(p - 1)
            })
            .expect("a tree wins at some P")
    };
    println!(
        "Crossover: a tree first beats the flat loop at P = {} with {LANES} overlapped Invokes, \
         at P = {} with serial Invokes (the paper's premise)",
        crossover(LANES),
        crossover(1)
    );
}
