//! Ablation: hierarchical launch tree vs flatter/deeper alternatives.
//!
//! The paper's `worker_invoke_children` populates `P` instances in
//! `O(log_b P)` invocation rounds and "reduces the launch time for the
//! fully populated instance tree, compared to a centralized single-loop
//! launch or a two-level launch loop as used in Lambada". Here: branching
//! factor 1 is a chain (worst case, `P` rounds), branching `P` is the
//! centralized loop (rank 0 invokes every other rank itself, overlapping
//! up to eight Invokes per round trip on its connection pool), and
//! moderate branching is the paper's tree. The metric is the time until
//! the *last* worker has started (tree fully populated); each tree level
//! costs one Invoke round trip plus one cold start, which the bin asserts
//! for the b = 4 row.

use fsd_bench::{Scale, Table};
use fsd_core::{ServiceBuilder, Variant};

fn main() {
    let scale = Scale::from_args();
    let n = match scale {
        Scale::Scaled => 1024usize,
        Scale::Paper => 16384,
    };
    let p = *scale.worker_grid().last().expect("non-empty");
    let w = fsd_bench::workload_with_batch(scale, n, 32, 42);
    let mem = scale.worker_memory_mb(n);

    let mut t = Table::new(&[
        "branching",
        "launch rounds",
        "last start (ms)",
        "latency (ms)",
    ]);
    let mut last_starts = Vec::new();
    for branching in [1usize, 2, 4, p as usize] {
        let mut cfg = scale.engine_config(42);
        cfg.branching = branching;
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
        let rounds = fsd_faas::launch::launch_rounds(p as usize, branching);
        t.row(vec![
            if branching == p as usize {
                format!("{branching} (root invokes all)")
            } else {
                branching.to_string()
            },
            rounds.to_string(),
            format!("{last_start:.1}"),
            format!("{:.1}", r.latency.as_millis_f64()),
        ]);
        last_starts.push((root_start, last_start, rounds));
    }
    t.print(&format!(
        "Ablation: launch tree branching (N = {n}, P = {p})"
    ));

    let chain = last_starts[0].1;
    let (root, tree, rounds) = last_starts[2]; // branching 4
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
    let lat = scale.engine_config(42).cloud.latency;
    let level_ms = (lat.lambda_invoke_us + lat.lambda_cold_start_us) as f64 / 1000.0;
    let expected = root + (rounds - 1) as f64 * level_ms;
    println!(
        "Level check: b=4 last start {tree:.1} ms, rank 0 + depth x launch = {expected:.1} ms"
    );
    assert!(
        (tree - expected).abs() <= 1.0,
        "each tree level must cost one Invoke round trip plus one cold start"
    );
}
