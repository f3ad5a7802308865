//! Partition assignments and the simple baseline schemes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A `P`-way assignment of vertices (neurons) to parts (workers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    n_parts: usize,
    assignment: Vec<u32>,
    owned: Vec<Vec<u32>>,
}

impl Partition {
    /// Wraps an assignment vector. Panics on out-of-range parts; empty parts
    /// are allowed (a worker may own no rows under adversarial inputs).
    pub fn new(n_parts: usize, assignment: Vec<u32>) -> Partition {
        assert!(n_parts > 0, "need at least one part");
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
        for (v, &p) in assignment.iter().enumerate() {
            assert!(
                (p as usize) < n_parts,
                "part {p} out of range for vertex {v}"
            );
            owned[p as usize].push(v as u32);
        }
        Partition {
            n_parts,
            assignment,
            owned,
        }
    }

    /// Number of parts.
    #[inline]
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// Number of vertices.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: u32) -> u32 {
        self.assignment[v as usize]
    }

    /// The raw assignment vector.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Sorted vertex ids owned by part `p`.
    #[inline]
    pub fn owned(&self, p: u32) -> &[u32] {
        &self.owned[p as usize]
    }

    /// Per-part load under the given vertex weights.
    fn loads(&self, weights: &[u32]) -> Vec<u64> {
        let mut loads = vec![0u64; self.n_parts];
        for (v, &p) in self.assignment.iter().enumerate() {
            loads[p as usize] += weights[v] as u64;
        }
        loads
    }

    /// Load imbalance `max_load / avg_load - 1` (0 = perfectly balanced).
    pub fn imbalance(&self, weights: &[u32]) -> f64 {
        let loads = self.loads(weights);
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let avg = total as f64 / self.n_parts as f64;
        let max = *loads.iter().max().expect("non-empty") as f64;
        max / avg - 1.0
    }
}

/// Random balanced partition — the paper's "RP" baseline (PaToH's random
/// scheme): a seeded shuffle dealt round-robin, so part sizes differ by at
/// most one vertex but content is random. One part or none is the one-part
/// partition.
pub fn random_partition(n_vertices: usize, n_parts: usize, seed: u64) -> Partition {
    if n_parts <= 1 {
        return Partition::new(1, vec![0; n_vertices]);
    }
    let mut order: Vec<u32> = (0..n_vertices as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ RANDOM_SEED_SALT);
    order.shuffle(&mut rng);
    let mut assignment = vec![0u32; n_vertices];
    for (i, &v) in order.iter().enumerate() {
        assignment[v as usize] = (i % n_parts) as u32;
    }
    Partition::new(n_parts, assignment)
}

const RANDOM_SEED_SALT: u64 = 0xB10C_0000_0000_0001;

/// Contiguous block partition balanced by vertex weight: part boundaries are
/// chosen so cumulative weight is as even as possible while keeping vertex
/// ranges contiguous. One part or none is the one-part partition.
pub fn block_partition(weights: &[u32], n_parts: usize) -> Partition {
    let n = weights.len();
    if n_parts <= 1 {
        return Partition::new(1, vec![0; n]);
    }
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    let mut assignment = vec![0u32; n];
    let mut acc = 0u64;
    let mut part = 0u32;
    for v in 0..n {
        // Advance to the next part when this part's weight share is met.
        let target = (part as u64 + 1) * total / n_parts as u64;
        if acc >= target && (part as usize) < n_parts - 1 {
            part += 1;
        }
        assignment[v] = part;
        acc += weights[v] as u64;
    }
    Partition::new(n_parts, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_builds_owned_lists() {
        let p = Partition::new(3, vec![2, 0, 2, 1]);
        assert_eq!(p.owned(0), &[1]);
        assert_eq!(p.owned(1), &[3]);
        assert_eq!(p.owned(2), &[0, 2]);
        assert_eq!(p.part_of(2), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_rejects_bad_part() {
        Partition::new(2, vec![0, 5]);
    }

    #[test]
    fn empty_parts_are_allowed() {
        let p = Partition::new(4, vec![0, 0]);
        assert!(p.owned(3).is_empty());
        assert_eq!(p.loads(&[1, 1]), vec![2, 0, 0, 0]);
    }

    #[test]
    fn random_partition_is_balanced_and_seeded() {
        let a = random_partition(100, 7, 1);
        let b = random_partition(100, 7, 1);
        let c = random_partition(100, 7, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let loads = a.loads(&vec![1u32; 100]);
        let max = loads.iter().max().unwrap();
        let min = loads.iter().min().unwrap();
        assert!(max - min <= 1, "round-robin must balance to within 1");
    }

    #[test]
    fn random_partition_of_zero_parts_is_one_part() {
        assert_eq!(random_partition(5, 0, 9), Partition::new(1, vec![0; 5]));
    }

    #[test]
    fn random_partition_is_not_contiguous() {
        let p = random_partition(1000, 4, 3);
        // A contiguous partition has exactly n_parts-1 boundaries; random has many.
        let switches = p.assignment().windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches > 100,
            "only {switches} part switches — suspiciously contiguous"
        );
    }

    #[test]
    fn block_partition_is_contiguous_and_balanced() {
        let weights = vec![1u32; 103];
        let p = block_partition(&weights, 4);
        let switches = p.assignment().windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(switches, 3);
        assert!(
            p.imbalance(&weights) < 0.05,
            "imbalance {}",
            p.imbalance(&weights)
        );
    }

    #[test]
    fn block_partition_of_zero_parts_is_one_part() {
        assert_eq!(
            block_partition(&[3, 1, 4], 0),
            Partition::new(1, vec![0; 3])
        );
    }

    #[test]
    fn block_partition_handles_skewed_weights() {
        let mut weights = vec![1u32; 100];
        weights[0] = 1000; // one huge vertex
        let p = block_partition(&weights, 4);
        // The heavy vertex forces part 0 to be tiny in vertex count.
        assert!(p.owned(0).len() <= 2);
        // All parts must be non-degenerate in assignment coverage.
        assert_eq!(p.n_vertices(), 100);
    }

    #[test]
    fn imbalance_zero_when_perfect() {
        let p = Partition::new(2, vec![0, 1, 0, 1]);
        assert_eq!(p.imbalance(&[1, 1, 1, 1]), 0.0);
        assert!(p.imbalance(&[3, 1, 1, 1]) > 0.0);
    }
}
