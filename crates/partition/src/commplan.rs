//! Per-layer send/receive maps (`Xsend`, `Xrecv` in the paper).
//!
//! Given a unified neuron partition and the layer matrices, the plan records
//! for every layer `k` and worker `m`:
//! * `send[m] = [(n, rows)]` — activation rows of layer `k−1` that `m` owns
//!   and must ship to worker `n` (because `W^k_n` has nonzeros in those
//!   columns);
//! * `recv[m] = [(n, rows)]` — rows `m` expects from `n`, the exact dual.
//!
//! These maps are produced *offline* (post-processing of the trained model,
//! per the paper) and loaded by each worker alongside its weight blocks.

use crate::partition::Partition;
use fsd_model::SparseDnn;

/// Send/recv maps for one layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerPlan {
    /// `send[m]` = list of `(target, sorted rows)`; targets sorted, no
    /// self-targets, no empty row lists.
    pub send: Vec<Vec<(u32, Vec<u32>)>>,
    /// `recv[m]` = list of `(source, sorted rows)`; exact dual of `send`.
    pub recv: Vec<Vec<(u32, Vec<u32>)>>,
}

/// The complete communication plan for a partitioned model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommPlan {
    n_parts: usize,
    layers: Vec<LayerPlan>,
}

impl CommPlan {
    /// Builds the plan for `dnn` under `partition`.
    pub fn build(dnn: &SparseDnn, partition: &Partition) -> CommPlan {
        let p = partition.n_parts();
        let n = dnn.spec().neurons;
        assert_eq!(
            partition.n_vertices(),
            n,
            "partition does not cover the neuron space"
        );
        let mut layers = Vec::with_capacity(dnn.spec().layers);
        // Scratch: needed[q] = sorted input rows worker q requires this layer.
        let mut needed: Vec<Vec<u32>> = vec![Vec::new(); p];
        for w in dnn.layers() {
            needed.iter_mut().for_each(|v| v.clear());
            for r in 0..n {
                let owner = partition.part_of(r as u32) as usize;
                needed[owner].extend_from_slice(w.row(r).0);
            }
            let mut plan = LayerPlan {
                send: vec![Vec::new(); p],
                recv: vec![Vec::new(); p],
            };
            // pair_rows[m][n_idx]: rows m ships to n. Keep a dense P x P grid
            // of row vectors; P is small (≤ low hundreds).
            let mut grid: Vec<Vec<u32>> = vec![Vec::new(); p * p];
            for (q, need) in needed.iter_mut().enumerate() {
                need.sort_unstable();
                need.dedup();
                for &j in need.iter() {
                    let owner = partition.part_of(j) as usize;
                    if owner != q {
                        grid[owner * p + q].push(j);
                    }
                }
            }
            for m in 0..p {
                for q in 0..p {
                    let rows = std::mem::take(&mut grid[m * p + q]);
                    if rows.is_empty() {
                        continue;
                    }
                    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
                    plan.send[m].push((q as u32, rows.clone()));
                    plan.recv[q].push((m as u32, rows));
                }
            }
            for m in 0..p {
                plan.send[m].sort_by_key(|&(t, _)| t);
                plan.recv[m].sort_by_key(|&(s, _)| s);
            }
            layers.push(plan);
        }
        CommPlan { n_parts: p, layers }
    }

    /// Number of parts.
    #[inline]
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// Number of layers.
    #[inline]
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Plan for layer `k` (0-based).
    #[inline]
    pub fn layer(&self, k: usize) -> &LayerPlan {
        &self.layers[k]
    }

    /// Total `(row, target)` transmissions across all layers — the paper's
    /// communication volume metric in row units (the connectivity-1 cost of
    /// the partition on the DNN hypergraph).
    pub fn total_row_sends(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| l.send.iter())
            .flat_map(|s| s.iter())
            .map(|(_, rows)| rows.len() as u64)
            .sum()
    }

    /// Communication pairs (m → n with non-empty rows) per layer, summed.
    pub fn total_pairs(&self) -> u64 {
        self.layers
            .iter()
            .flat_map(|l| l.send.iter())
            .map(|s| s.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{block_partition, random_partition};
    use fsd_model::{generate_dnn, DnnSpec};

    fn dnn() -> SparseDnn {
        generate_dnn(&DnnSpec {
            neurons: 64,
            layers: 4,
            nnz_per_row: 8,
            bias: -0.3,
            clip: 32.0,
            seed: 3,
        })
    }

    #[test]
    fn send_recv_are_exact_duals() {
        let dnn = dnn();
        let part = random_partition(64, 4, 1);
        let plan = CommPlan::build(&dnn, &part);
        for k in 0..plan.n_layers() {
            let layer = plan.layer(k);
            for m in 0..4u32 {
                for (n, rows) in &layer.send[m as usize] {
                    let back = layer.recv[*n as usize]
                        .iter()
                        .find(|(s, _)| s == &m)
                        .map(|(_, r)| r);
                    assert_eq!(back, Some(rows), "layer {k}: send {m}->{n} has no dual");
                }
                for (n, rows) in &layer.recv[m as usize] {
                    let fwd = layer.send[*n as usize]
                        .iter()
                        .find(|(t, _)| t == &m)
                        .map(|(_, r)| r);
                    assert_eq!(fwd, Some(rows), "layer {k}: recv {m}<-{n} has no dual");
                }
            }
        }
    }

    #[test]
    fn sent_rows_are_owned_by_sender_and_needed_by_target() {
        let dnn = dnn();
        let part = random_partition(64, 4, 2);
        let plan = CommPlan::build(&dnn, &part);
        for k in 0..plan.n_layers() {
            let w = dnn.layer(k);
            for m in 0..4u32 {
                for (n, rows) in &plan.layer(k).send[m as usize] {
                    assert_ne!(n, &m, "self-send in plan");
                    for &j in rows {
                        assert_eq!(part.part_of(j), m, "row {j} sent by non-owner");
                        // Target must consume column j in layer k.
                        let consumed = part
                            .owned(*n)
                            .iter()
                            .any(|&r| w.row(r as usize).0.binary_search(&j).is_ok());
                        assert!(consumed, "row {j} sent to {n} but unused");
                    }
                }
            }
        }
    }

    #[test]
    fn plan_covers_every_remote_dependency() {
        // Every nonzero column of every owned weight row must be either
        // local or covered by a recv entry.
        let dnn = dnn();
        let part = block_partition(&vec![1u32; 64], 4);
        let plan = CommPlan::build(&dnn, &part);
        for k in 0..plan.n_layers() {
            let w = dnn.layer(k);
            for m in 0..4u32 {
                let recvs = &plan.layer(k).recv[m as usize];
                for &r in part.owned(m) {
                    for &j in w.row(r as usize).0 {
                        if part.part_of(j) == m {
                            continue;
                        }
                        let covered = recvs.iter().any(|(s, rows)| {
                            *s == part.part_of(j) && rows.binary_search(&j).is_ok()
                        });
                        assert!(covered, "layer {k} worker {m}: dependency {j} not covered");
                    }
                }
            }
        }
    }

    #[test]
    fn single_worker_has_no_communication() {
        let dnn = dnn();
        let plan = CommPlan::build(&dnn, &Partition::new(1, vec![0; 64]));
        assert_eq!(plan.total_row_sends(), 0);
        assert_eq!(plan.total_pairs(), 0);
    }

    #[test]
    fn row_sends_equal_connectivity_cost() {
        // The plan's row-send count must equal the hypergraph's
        // connectivity-1 cost — they are two derivations of the same volume.
        use crate::hypergraph::Hypergraph;
        let dnn = dnn();
        let part = random_partition(64, 4, 9);
        let plan = CommPlan::build(&dnn, &part);
        let h = Hypergraph::from_dnn(&dnn);
        assert_eq!(
            plan.total_row_sends(),
            h.connectivity_cost(part.assignment(), 4)
        );
    }

    #[test]
    fn block_partition_ships_less_than_random() {
        let dnn = dnn();
        let block = CommPlan::build(&dnn, &block_partition(&vec![1u32; 64], 4));
        let random = CommPlan::build(&dnn, &random_partition(64, 4, 4));
        assert!(
            block.total_row_sends() < random.total_row_sends(),
            "block {} >= random {}",
            block.total_row_sends(),
            random.total_row_sends()
        );
    }
}
