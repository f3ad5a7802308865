//! The launch tree (`worker_invoke_children`).
//!
//! FSD-Inference launches `P` workers as a b-ary tree: the coordinator
//! invokes worker 0; every worker derives its children from its own rank
//! and invokes them before starting compute. Ranks are assigned
//! deterministically so each instance can compute its own position with
//! no coordination.
//!
//! The paper reports that this `O(log_b P)` tree beats a single launch
//! loop — which holds when a launcher issues its Invokes one after
//! another. Here a launcher overlaps up to `connections` Invokes (8, the
//! lanes of `fsd_core`'s connection pool), so one level costs
//! `ceil(children / connections)` Invoke round trips plus one cold start,
//! and every extra level pays a full round trip plus a cold start.
//! [`launch_span`] walks that rule over a tree and [`best_fanout`] picks
//! the fan-out it finds fastest: with the default 30 ms round trip and
//! 250 ms cold start, rank 0 invoking every rank itself (`b = P − 1`) wins
//! up to P = 81 with 8 connections, and up to P = 11 with serial Invokes.
//! Past that the winner is still nearly flat: rank 0 invokes all but the
//! last few ranks, and rank 1, up since the first lane round, invokes
//! those (b = 73 at P = 82).
//!
//! # Degenerate branching
//!
//! `branching = 1` is **documented, supported behavior**: the "tree"
//! degrades to a serial invocation chain (`rank r` launches only
//! `rank r + 1`), so [`launch_span`] counts `P − 1` round trips — the
//! serial-launch cost the paper compares against, and `ablation_launch`'s
//! worst case. `branching = 0` is rejected: a node with no children could
//! never populate the tree.

/// Children of `rank` in a `branching`-ary tree over `0..total`.
/// With `branching = 1` this is the serial chain `[rank + 1]` (see the
/// module docs on degenerate branching).
pub fn children_of(rank: usize, branching: usize, total: usize) -> Vec<usize> {
    assert!(branching >= 1, "branching factor must be ≥ 1");
    (1..=branching)
        .map(|i| rank * branching + i)
        .take_while(|&c| c < total)
        .collect()
}

/// Parent of `rank` (`None` for the root).
fn parent_of(rank: usize, branching: usize) -> Option<usize> {
    if rank == 0 {
        None
    } else {
        Some((rank - 1) / branching)
    }
}

/// The child of `from` through which frames for `dst` travel: `dst`'s
/// ancestor whose parent is `from` (or `dst` itself when it is a direct
/// child). This is the weight-multicast routing step — a parent forwards
/// a block one hop toward its final rank.
///
/// # Panics
/// If `dst` is not in `from`'s subtree (the caller routed against the
/// tree shape).
pub fn hop_toward(from: usize, dst: usize, branching: usize) -> usize {
    let mut hop = dst;
    loop {
        match parent_of(hop, branching) {
            Some(p) if p == from => return hop,
            Some(p) => hop = p,
            // fsd_lint::allow(no-unwrap): tree-shape invariant — routing
            // toward a rank outside the subtree is a caller bug.
            None => panic!("rank {dst} is not in the subtree of rank {from}"),
        }
    }
}

/// Walks a `branching`-ary launch of `total` ranks, timed from rank 0's
/// start. A launcher overlaps `connections` Invokes, so its child `i`
/// (0-based among its siblings) starts `i / connections + 1` round trips
/// plus one cold start after it. Returns the instant (µs) the last rank
/// starts and the Invoke round trips on that critical path. That is also
/// when every rank is ready to load: a launcher joins its slowest lane
/// first, but that lane frees one cold start before its last child starts.
pub fn launch_span(
    total: usize,
    branching: usize,
    connections: usize,
    rtt_us: u64,
    cold_us: u64,
) -> (u64, usize) {
    assert!(connections >= 1, "a launcher needs a connection");
    // Each rank's (start, round trips to it); a parent precedes its
    // children in rank order.
    let mut start = vec![(0u64, 0usize); total];
    for rank in 0..total {
        let (at, trips) = start[rank];
        for (i, child) in children_of(rank, branching, total).into_iter().enumerate() {
            let rounds = i / connections + 1;
            start[child] = (at + rounds as u64 * rtt_us + cold_us, trips + rounds);
        }
    }
    start.into_iter().max().unwrap_or((0, 0))
}

/// The smallest fan-out `b ∈ 1..=max(total − 1, 1)` whose
/// [`launch_span`] starts the last rank soonest. `b = total − 1` is the
/// flat loop: rank 0 invokes every other rank itself.
pub fn best_fanout(total: usize, connections: usize, rtt_us: u64, cold_us: u64) -> usize {
    (1..=total.saturating_sub(1).max(1))
        .min_by_key(|&b| launch_span(total, b, connections, rtt_us, cold_us).0)
        .expect("the range holds at least b = 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_tree_structure() {
        assert_eq!(children_of(0, 2, 7), vec![1, 2]);
        assert_eq!(children_of(1, 2, 7), vec![3, 4]);
        assert_eq!(children_of(2, 2, 7), vec![5, 6]);
        assert_eq!(children_of(3, 2, 7), Vec::<usize>::new());
    }

    #[test]
    fn truncated_tree_drops_out_of_range_children() {
        assert_eq!(children_of(1, 3, 6), vec![4, 5]);
        assert_eq!(children_of(2, 3, 6), Vec::<usize>::new());
    }

    #[test]
    fn parents_invert_children() {
        for b in 1..5 {
            for rank in 0..40 {
                for &c in &children_of(rank, b, 1000) {
                    assert_eq!(parent_of(c, b), Some(rank), "b={b} rank={rank} child={c}");
                }
            }
        }
    }

    #[test]
    fn every_rank_reachable_exactly_once() {
        let total = 62;
        let b = 4;
        let mut seen = vec![false; total];
        let mut frontier = vec![0usize];
        seen[0] = true;
        while let Some(r) = frontier.pop() {
            for c in children_of(r, b, total) {
                assert!(!seen[c], "rank {c} launched twice");
                seen[c] = true;
                frontier.push(c);
            }
        }
        assert!(seen.iter().all(|&s| s), "unreached ranks exist");
    }

    const RTT: u64 = 30_000;
    const COLD: u64 = 250_000;

    #[test]
    fn spans_count_round_trips_per_lane_round_and_cold_starts_per_level() {
        assert_eq!(launch_span(0, 4, 8, RTT, COLD), (0, 0));
        assert_eq!(launch_span(1, 4, 8, RTT, COLD), (0, 0));
        // b = 4, P = 12: two levels of one round trip each.
        assert_eq!(launch_span(12, 4, 8, RTT, COLD), (2 * (RTT + COLD), 2));
        // The flat loop at P = 12 issues 11 Invokes over two lane rounds.
        assert_eq!(launch_span(12, 11, 8, RTT, COLD), (2 * RTT + COLD, 2));
        // Serial Invokes: the eleventh child waits for ten earlier ones.
        assert_eq!(launch_span(12, 11, 1, RTT, COLD), (11 * RTT + COLD, 11));
        // Without a cold start a launcher's join ties its last child's
        // start.
        assert_eq!(launch_span(3, 2, 1, RTT, 0), (2 * RTT, 2));
    }

    #[test]
    fn unary_tree_degenerates_to_chain() {
        assert_eq!(children_of(3, 1, 10), vec![4]);
        assert_eq!(launch_span(10, 1, 8, RTT, COLD), (9 * (RTT + COLD), 9));
    }

    /// The instant the last rank is ready to load, simulated on explicit
    /// lane clocks: each launcher's next Invoke takes its earliest-free
    /// lane, and the launcher is ready once its slowest lane is free.
    fn simulate(total: usize, b: usize, connections: usize) -> u64 {
        let mut start = vec![0u64; total];
        let mut last = 0;
        for rank in 0..total {
            let mut lanes = vec![start[rank]; connections];
            for child in children_of(rank, b, total) {
                let lane = lanes.iter_mut().min().expect("connections ≥ 1");
                start[child] = *lane + RTT + COLD;
                *lane += RTT;
            }
            last = last.max(*lanes.iter().max().expect("connections ≥ 1"));
        }
        last
    }

    #[test]
    fn best_fanout_is_the_brute_force_argmin_over_every_fanout() {
        for connections in [1, 8] {
            for total in 1..=128 {
                // Fan-outs past P − 1 are all the flat loop.
                let spans: Vec<u64> = (1..=total + 1)
                    .map(|b| simulate(total, b, connections))
                    .collect();
                // The walk's last start is the simulated last ready.
                for (b, &span) in (1..).zip(&spans) {
                    assert_eq!(launch_span(total, b, connections, RTT, COLD).0, span);
                }
                let best = spans.iter().min().expect("non-empty");
                let argmin = 1 + spans.iter().position(|s| s == best).expect("present");
                assert_eq!(
                    best_fanout(total, connections, RTT, COLD),
                    argmin,
                    "P = {total}, connections = {connections}"
                );
            }
        }
        assert_eq!(best_fanout(1, 8, RTT, COLD), 1);
    }

    #[test]
    fn the_flat_loop_wins_until_the_crossover() {
        let flat_until = |connections| {
            (1..=128)
                .find(|&p| best_fanout(p, connections, RTT, COLD) < p.saturating_sub(1))
                .expect("a tree wins somewhere below 128")
                - 1
        };
        assert_eq!(flat_until(8), 81);
        assert_eq!(flat_until(1), 11);
        // The eager launch of the `cold_launch` and `cold_start` shapes.
        assert_eq!(best_fanout(8, 8, RTT, COLD), 7);
        assert_eq!(best_fanout(4, 8, RTT, COLD), 3);
    }

    #[test]
    fn hop_toward_routes_one_step_down() {
        // b=4, P=8: 0 → {1,2,3,4}, 1 → {5,6,7}.
        assert_eq!(hop_toward(0, 3, 4), 3);
        assert_eq!(hop_toward(0, 6, 4), 1);
        assert_eq!(hop_toward(1, 6, 4), 6);
        // Deep chain with b=1.
        assert_eq!(hop_toward(2, 9, 1), 3);
    }

    #[test]
    #[should_panic(expected = "not in the subtree")]
    fn hop_toward_rejects_foreign_destinations() {
        hop_toward(2, 1, 4);
    }
}
