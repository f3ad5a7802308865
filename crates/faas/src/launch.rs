//! The hierarchical launch tree (`worker_invoke_children`).
//!
//! FSD-Inference launches `P` workers as a b-ary tree: the coordinator
//! invokes worker 0; every worker derives its children from its own rank
//! and invokes them before starting compute. Launch latency is therefore
//! `O(log_b P)` invocation rounds instead of `O(P)` for a chain — the paper
//! reports this beats both a single launch loop and Lambada's two-level
//! scheme. A round is not one Invoke per child: the launcher overlaps up to
//! `LANES` (8) Invokes on its connection pool (`fsd_core`'s lane pool), so
//! a round costs `ceil(children / LANES)` Invoke round trips plus one cold
//! start, and a central loop over up to `LANES` children is a single
//! round trip.
//! Ranks are assigned deterministically so each instance can compute its
//! own position with no coordination.
//!
//! # Degenerate branching
//!
//! `branching = 1` is **documented, supported behavior**: the "tree"
//! degrades to a serial invocation chain (`rank r` launches only
//! `rank r + 1`), so [`launch_rounds`]`(P, 1) == P` — the serial-launch
//! cost the paper compares against, and `ablation_launch`'s worst case.
//! `branching = 0` is rejected: a node with no children could never
//! populate the tree.

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

/// Depth of `rank` in the tree (root = 0).
fn depth_of(rank: usize, branching: usize) -> usize {
    let mut d = 0;
    let mut r = rank;
    while let Some(p) = parent_of(r, branching) {
        r = p;
        d += 1;
    }
    d
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

/// Number of sequential invocation rounds to populate the whole tree —
/// the launch critical path (tree height + 1 initial invocation).
///
/// Documented edge cases: `launch_rounds(0, b) == 0` (an empty tree
/// launches nothing), and `launch_rounds(P, 1) == P` (unary branching is
/// a serial loop — see the module docs on degenerate branching).
pub fn launch_rounds(total: usize, branching: usize) -> usize {
    if total == 0 {
        return 0;
    }
    1 + depth_of(total - 1, branching)
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

    #[test]
    fn depth_and_rounds() {
        assert_eq!(depth_of(0, 2), 0);
        assert_eq!(depth_of(1, 2), 1);
        assert_eq!(depth_of(6, 2), 2);
        assert_eq!(launch_rounds(1, 4), 1);
        assert_eq!(launch_rounds(62, 4), 1 + depth_of(61, 4));
        // Tree launch must be exponentially better than a serial loop.
        assert!(launch_rounds(62, 4) <= 4);
        assert_eq!(launch_rounds(0, 4), 0);
    }

    #[test]
    fn unary_tree_degenerates_to_chain() {
        assert_eq!(children_of(3, 1, 10), vec![4]);
        assert_eq!(launch_rounds(10, 1), 10);
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
