//! Multilevel hypergraph partitioning — the PaToH substitute ("HGP-DNN").
//!
//! Classic three-phase scheme:
//! 1. **Coarsening** — heavy-connectivity matching merges vertex pairs that
//!    share heavily-weighted small nets until the hypergraph is small;
//! 2. **Initial partitioning** — greedy weight-ordered growth under the
//!    balance constraint;
//! 3. **Uncoarsening + refinement** — the partition is projected back level
//!    by level and improved with positive-gain FM passes on boundary
//!    vertices under the connectivity-1 objective.
//!
//! Quality is below PaToH's but the objective and constraint are identical;
//! the paper's Table III only requires HGP ≫ random partitioning, which this
//! implementation achieves by a wide margin on DNN hypergraphs.
//!
//! **Cost.** One FM sweep is `O(pins × P)`: a vertex's best move is one pass
//! over its nets that reads each net's `Λ` row once.
//!
//! **Bit-identity.** The partition is a pure function of (hypergraph, P,
//! seed): every step is integer or `f64` work in a fixed order, with the
//! RNG drawn only for the matching and initial-partition orders. A best move
//! is the highest gain, ties to the lowest part. `partition_model`'s
//! partitions at the benchmark shapes are pinned by digest in the crate's
//! tests; a faster partitioner must keep them.

use crate::hypergraph::{Hypergraph, Span};
use crate::partition::Partition;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Allowed load imbalance ε: every part's weight ≤ `(1+ε)·total/P`.
const EPSILON: f64 = 0.10;
/// Stop coarsening when at most `COARSEN_TO_PER_PART · P` vertices remain.
const COARSEN_TO_PER_PART: usize = 30;
/// Maximum FM passes per uncoarsening level.
const FM_PASSES: usize = 4;
/// Nets larger than this are ignored during coarsening scoring (they
/// carry little locality signal and cost quadratic work).
const MAX_SCORED_NET: usize = 64;

/// The balance cap under [`EPSILON`]: the heaviest load a part may carry.
fn part_cap(h: &Hypergraph, p: usize) -> u64 {
    (((h.total_weight() as f64) * (1.0 + EPSILON)) / p as f64).ceil() as u64
}

/// Runs the full multilevel pipeline on `h`, splitting it into `n_parts`
/// parts (FaaS workers) `P`; `seed` drives the matching and
/// initial-partition orders. The tuning is fixed: ε = 10 %, 4 FM passes,
/// coarsen to ~30 vertices per part.
pub fn partition_hypergraph(h: &Hypergraph, n_parts: usize, seed: u64) -> Partition {
    assert!(n_parts > 0, "need at least one part");
    if n_parts == 1 {
        return Partition::new(1, vec![0; h.n_vertices()]);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x48_47_50_2d_44_4e_4e_21);

    // --- Phase 1: coarsen ---------------------------------------------
    // levels[i] = (graph i+1, map from graph i's vertices to it); graph 0 is h.
    let mut levels: Vec<(Hypergraph, Vec<u32>)> = Vec::new();
    let target = (COARSEN_TO_PER_PART * n_parts).max(2 * n_parts);
    loop {
        let current = levels.last().map_or(h, |(g, _)| g);
        if current.n_vertices() <= target {
            break;
        }
        let map = match_heavy_connectivity(current, &mut rng);
        let coarse = contract(current, &map);
        let reduction = 1.0 - coarse.n_vertices() as f64 / current.n_vertices() as f64;
        levels.push((coarse, map));
        if reduction < 0.05 {
            break; // matching stalled; further levels would waste time
        }
    }

    // --- Phase 2: initial partition at the coarsest level ---------------
    let coarsest = levels.last().map_or(h, |(g, _)| g);
    let mut assignment = greedy_initial(coarsest, n_parts, &mut rng);
    refine_fm(coarsest, &mut assignment, n_parts);

    // --- Phase 3: project back + refine at every level ------------------
    for i in (0..levels.len()).rev() {
        let fine = if i == 0 { h } else { &levels[i - 1].0 };
        assignment = levels[i]
            .1
            .iter()
            .map(|&c| assignment[c as usize])
            .collect();
        refine_fm(fine, &mut assignment, n_parts);
    }

    // Multi-start: DNN hypergraphs are locality-heavy, so an FM-refined
    // contiguous seed is a strong second candidate (PaToH similarly runs
    // multiple starts). Keep whichever cut is lower.
    let mut block = crate::partition::block_partition(h.vertex_weights(), n_parts)
        .assignment()
        .to_vec();
    refine_fm(h, &mut block, n_parts);
    if h.connectivity_cost(&block, n_parts) < h.connectivity_cost(&assignment, n_parts) {
        assignment = block;
    }
    Partition::new(n_parts, assignment)
}

/// Heavy-connectivity matching: each unmatched vertex merges with the
/// unmatched neighbour sharing the largest `Σ w(e)/(|e|−1)` over common
/// nets. Returns the fine→coarse cluster map.
fn match_heavy_connectivity(h: &Hypergraph, rng: &mut StdRng) -> Vec<u32> {
    let n = h.n_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut cluster = vec![u32::MAX; n];
    let mut next_cluster = 0u32;
    // Sparse scoring scratch: neighbour -> accumulated score, with a reset list.
    let mut score = vec![0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    for &v in &order {
        if cluster[v as usize] != u32::MAX {
            continue;
        }
        touched.clear();
        for &e in h.nets_of(v) {
            let pins = h.net(e);
            if pins.len() > MAX_SCORED_NET {
                continue;
            }
            let s = h.net_weight(e) as f64 / (pins.len() - 1) as f64;
            for &u in pins {
                if u == v || cluster[u as usize] != u32::MAX {
                    continue;
                }
                if score[u as usize] == 0.0 {
                    touched.push(u);
                }
                score[u as usize] += s;
            }
        }
        let mut best: Option<(u32, f64)> = None;
        for &u in &touched {
            let s = score[u as usize];
            score[u as usize] = 0.0;
            // Avoid gigantic clusters: prefer light partners on near-ties.
            let adj = s / (1.0 + h.vertex_weight(u) as f64).ln().max(1.0);
            if best.is_none_or(|(_, bs)| adj > bs) {
                best = Some((u, adj));
            }
        }
        let c = next_cluster;
        next_cluster += 1;
        cluster[v as usize] = c;
        if let Some((u, _)) = best {
            cluster[u as usize] = c;
        }
    }
    cluster
}

/// Builds the coarse hypergraph induced by a cluster map.
fn contract(h: &Hypergraph, cluster: &[u32]) -> Hypergraph {
    let n_coarse = cluster.iter().map(|&c| c + 1).max().unwrap_or(0) as usize;
    let mut weights = vec![0u32; n_coarse];
    for v in 0..h.n_vertices() {
        weights[cluster[v] as usize] =
            weights[cluster[v] as usize].saturating_add(h.vertex_weight(v as u32));
    }
    let mut pins = Vec::with_capacity(h.n_pins());
    let mut spans = Vec::with_capacity(h.n_nets());
    for e in 0..h.n_nets() as u32 {
        let start = pins.len();
        pins.extend(h.net(e).iter().map(|&p| cluster[p as usize]));
        spans.push(Span::new(start, pins.len(), h.net_weight(e)));
    }
    Hypergraph::from_spans(n_coarse, weights, pins, spans)
}

/// Greedy initial partitioning: vertices in descending weight order go to
/// the feasible part with the strongest attraction (net weight already
/// placed there), tie-broken by lightest load.
fn greedy_initial(h: &Hypergraph, p: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = h.n_vertices();
    let cap = part_cap(h, p);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    order.sort_by_key(|&v| std::cmp::Reverse(h.vertex_weight(v)));
    let mut assignment = vec![u32::MAX; n];
    let mut loads = vec![0u64; p];
    let mut attraction = vec![0u64; p];
    for &v in &order {
        attraction.iter_mut().for_each(|a| *a = 0);
        for &e in h.nets_of(v) {
            let w = h.net_weight(e) as u64;
            for &u in h.net(e) {
                let part = assignment[u as usize];
                if part != u32::MAX {
                    attraction[part as usize] += w;
                }
            }
        }
        let w = h.vertex_weight(v) as u64;
        let mut best: Option<usize> = None;
        for cand in 0..p {
            if loads[cand] + w > cap {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    attraction[cand] > attraction[b]
                        || (attraction[cand] == attraction[b] && loads[cand] < loads[b])
                }
            };
            if better {
                best = Some(cand);
            }
        }
        // All parts over cap (possible with huge vertices): take the lightest.
        let part =
            best.unwrap_or_else(|| (0..p).min_by_key(|&q| loads[q]).expect("at least one part"));
        assignment[v as usize] = part as u32;
        loads[part] += w;
    }
    assignment
}

/// Positive-gain FM refinement passes under the connectivity-1 objective.
///
/// Per pass: compute `Λ(e, part)` pin counts, walk boundary vertices in
/// descending best-gain order, apply each still-valid positive-gain move
/// that keeps balance, updating `Λ` incrementally. Stops when a pass yields
/// no improvement or [`FM_PASSES`] is reached.
fn refine_fm(h: &Hypergraph, assignment: &mut [u32], p: usize) {
    let cap = part_cap(h, p);

    let mut lambda = lambda_of(h, assignment, p);
    let mut loads = vec![0u64; p];
    for v in 0..h.n_vertices() {
        loads[assignment[v] as usize] += h.vertex_weight(v as u32) as u64;
    }
    let mut scratch = MoveScratch::new(p);

    for _pass in 0..FM_PASSES {
        // Collect boundary vertices with their currently-best move.
        let mut moves: Vec<(i64, u32, u32)> = Vec::new(); // (gain, v, target)
        for v in 0..h.n_vertices() as u32 {
            if let Some((gain, target)) = scratch.best_move(h, &lambda, assignment, v) {
                if gain > 0 {
                    moves.push((gain, v, target));
                }
            }
        }
        if moves.is_empty() {
            return;
        }
        moves.sort_unstable_by_key(|&(g, v, _)| (std::cmp::Reverse(g), v));
        let mut improved = false;
        for (_, v, _) in moves {
            // Re-evaluate: earlier moves this pass may have changed the gain.
            let Some((gain, target)) = scratch.best_move(h, &lambda, assignment, v) else {
                continue;
            };
            if gain <= 0 {
                continue;
            }
            let src = assignment[v as usize] as usize;
            let w = h.vertex_weight(v) as u64;
            if loads[target as usize] + w > cap {
                continue;
            }
            // Apply the move.
            assignment[v as usize] = target;
            loads[src] -= w;
            loads[target as usize] += w;
            for &e in h.nets_of(v) {
                let base = e as usize * p;
                lambda[base + src] -= 1;
                lambda[base + target as usize] += 1;
            }
            improved = true;
        }
        if !improved {
            return;
        }
    }
}

/// `Λ(e, part)`: the pins of net `e` in each part, one row of `p` per net.
fn lambda_of(h: &Hypergraph, assignment: &[u32], p: usize) -> Vec<u32> {
    let mut lambda = vec![0u32; h.n_nets() * p];
    for e in 0..h.n_nets() {
        for &u in h.net(e as u32) {
            lambda[e * p + assignment[u as usize] as usize] += 1;
        }
    }
    lambda
}

/// The per-part scratch [`MoveScratch::best_move`] fills and leaves zeroed,
/// allocated once per [`refine_fm`] call.
struct MoveScratch {
    /// `conn[t]`: weight of the current vertex's nets with a pin in part `t`.
    conn: Vec<i64>,
    /// Whether part `t` has a pin in one of the current vertex's nets —
    /// separate from `conn` because a zero-weight net still makes `t` a
    /// candidate.
    seen: Vec<bool>,
}

impl MoveScratch {
    fn new(p: usize) -> MoveScratch {
        MoveScratch {
            conn: vec![0; p],
            seen: vec![false; p],
        }
    }

    /// The best single-vertex move for `v`: highest connectivity-1 gain over
    /// all target parts that appear in `v`'s nets, ties to the lowest part.
    /// Returns `None` for interior vertices (all nets single-part).
    ///
    /// One pass over `v`'s nets (`O(|nets(v)| · P)`): moving to `t` gains
    /// the weight of the nets `v` alone keeps in `src` and pays for the nets
    /// with no pin in `t`, `gain(t) = leave_gain − (W_v − conn[t])`.
    fn best_move(
        &mut self,
        h: &Hypergraph,
        lambda: &[u32],
        assignment: &[u32],
        v: u32,
    ) -> Option<(i64, u32)> {
        let p = self.conn.len();
        let src = assignment[v as usize] as usize;
        let mut leave_gain = 0i64;
        let mut w_v = 0i64;
        for &e in h.nets_of(v) {
            let w = h.net_weight(e) as i64;
            let row = &lambda[e as usize * p..(e as usize + 1) * p];
            w_v += w;
            if row[src] == 1 {
                leave_gain += w;
            }
            for ((conn, seen), &pins_in_t) in self.conn.iter_mut().zip(&mut self.seen).zip(row) {
                *conn += if pins_in_t > 0 { w } else { 0 };
                *seen |= pins_in_t > 0;
            }
        }
        let mut best: Option<(i64, u32)> = None;
        for t in 0..p {
            if self.seen[t] && t != src {
                let gain = leave_gain - (w_v - self.conn[t]);
                if best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, t as u32));
                }
            }
            self.conn[t] = 0;
            self.seen[t] = false;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::random_nets;
    use crate::partition::random_partition;
    use fsd_model::{generate_dnn, DnnSpec};
    use rand::Rng;

    /// The per-candidate rescan `MoveScratch::best_move` replaced: its oracle.
    fn best_move_reference(
        h: &Hypergraph,
        lambda: &[u32],
        assignment: &[u32],
        v: u32,
        p: usize,
    ) -> Option<(i64, u32)> {
        let src = assignment[v as usize] as usize;
        let mut leave_gain = 0i64;
        let mut is_boundary = false;
        for &e in h.nets_of(v) {
            let base = e as usize * p;
            if lambda[base + src] == 1 {
                leave_gain += h.net_weight(e) as i64;
            }
            let pins = h.net(e).len() as u32;
            if lambda[base + src] < pins {
                is_boundary = true;
            }
        }
        if !is_boundary {
            return None;
        }
        let mut candidates: Vec<u32> = Vec::with_capacity(8);
        for &e in h.nets_of(v) {
            let base = e as usize * p;
            for t in 0..p {
                if t != src && lambda[base + t] > 0 && !candidates.contains(&(t as u32)) {
                    candidates.push(t as u32);
                }
            }
        }
        let mut best: Option<(i64, u32)> = None;
        for &t in &candidates {
            let mut gain = leave_gain;
            for &e in h.nets_of(v) {
                if lambda[e as usize * p + t as usize] == 0 {
                    gain -= h.net_weight(e) as i64;
                }
            }
            if best.is_none_or(|(bg, bt)| gain > bg || (gain == bg && t < bt)) {
                best = Some((gain, t));
            }
        }
        best
    }

    /// A random hypergraph and an assignment over a random window of the
    /// `p` parts, so interior vertices and tied gains both occur.
    fn random_case(rng: &mut StdRng, p: usize) -> (Hypergraph, Vec<u32>) {
        let n = rng.gen_range(1..48usize);
        let h = Hypergraph::from_nets(n, vec![1; n], random_nets(rng, n));
        let width = rng.gen_range(1..p as u32 + 1);
        let offset = rng.gen_range(0..p as u32 - width + 1);
        let assignment = (0..n).map(|_| offset + rng.gen_range(0..width)).collect();
        (h, assignment)
    }

    const PART_COUNTS: [usize; 7] = [2, 3, 5, 8, 42, 65, 100];

    #[test]
    fn best_move_equals_the_rescan_reference_for_every_vertex() {
        let mut rng = StdRng::seed_from_u64(0xBE57);
        for p in PART_COUNTS {
            let mut scratch = MoveScratch::new(p);
            for case in 0..60 {
                let (h, assignment) = random_case(&mut rng, p);
                let lambda = lambda_of(&h, &assignment, p);
                for v in 0..h.n_vertices() as u32 {
                    assert_eq!(
                        scratch.best_move(&h, &lambda, &assignment, v),
                        best_move_reference(&h, &lambda, &assignment, v, p),
                        "P = {p}, case {case}, vertex {v}"
                    );
                }
            }
        }
    }

    fn ring_hypergraph(n: usize) -> Hypergraph {
        // Nets {i, i+1}: a ring. Optimal P-way cut = P (contiguous arcs).
        let nets = (0..n).map(|i| (vec![i as u32, ((i + 1) % n) as u32], 1u32));
        Hypergraph::from_nets(n, vec![1; n], nets)
    }

    #[test]
    fn single_part_is_trivial() {
        let h = ring_hypergraph(16);
        let p = partition_hypergraph(&h, 1, 0);
        assert!(p.assignment().iter().all(|&a| a == 0));
        assert_eq!(h.connectivity_cost(p.assignment(), 1), 0);
    }

    #[test]
    fn ring_is_cut_near_optimally() {
        let h = ring_hypergraph(256);
        let p = partition_hypergraph(&h, 4, 7);
        let cost = h.connectivity_cost(p.assignment(), 4);
        // Optimum is 8 (each boundary cuts two {i,i+1} nets); accept ≤ 3x.
        assert!(cost <= 24, "ring cut {cost} far from optimal 8");
        assert!(p.imbalance(h.vertex_weights()) <= EPSILON + 0.05);
    }

    #[test]
    fn respects_balance_constraint() {
        let h = ring_hypergraph(300);
        for parts in [2usize, 5, 8] {
            let p = partition_hypergraph(&h, parts, 3);
            assert!(
                p.imbalance(h.vertex_weights()) <= EPSILON + 0.05,
                "{parts} parts imbalance {}",
                p.imbalance(h.vertex_weights())
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let h = ring_hypergraph(128);
        let a = partition_hypergraph(&h, 4, 11);
        let b = partition_hypergraph(&h, 4, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn beats_random_on_dnn_hypergraphs() {
        let spec = DnnSpec {
            neurons: 256,
            layers: 6,
            nnz_per_row: 8,
            bias: -0.3,
            clip: 32.0,
            seed: 2,
        };
        let dnn = generate_dnn(&spec);
        let h = Hypergraph::from_dnn(&dnn);
        let parts = 8;
        let hgp = partition_hypergraph(&h, parts, 5);
        let rnd = random_partition(h.n_vertices(), parts, 5);
        let hgp_cost = h.connectivity_cost(hgp.assignment(), parts);
        let rnd_cost = h.connectivity_cost(rnd.assignment(), parts);
        assert!(
            (hgp_cost as f64) < 0.5 * rnd_cost as f64,
            "HGP {hgp_cost} not clearly better than RP {rnd_cost}"
        );
        assert!(hgp.imbalance(h.vertex_weights()) < 0.2);
    }

    #[test]
    fn all_vertices_assigned_exactly_once() {
        let h = ring_hypergraph(97); // prime size exercises uneven splits
        let p = partition_hypergraph(&h, 5, 1);
        assert_eq!(p.n_vertices(), 97);
        let total: usize = (0..5).map(|q| p.owned(q).len()).sum();
        assert_eq!(total, 97);
    }
}
