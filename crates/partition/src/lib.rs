//! # fsd-partition — model partitioning for FaaS workers
//!
//! Reproduces the paper's offline partitioning pipeline (its PaToH role):
//!
//! * [`Hypergraph`] — the communication hypergraph of a sparse DNN
//!   (connectivity-1 cost ≡ rows transmitted between workers);
//! * [`partition_hypergraph`] — multilevel partitioner ("HGP-DNN"):
//!   heavy-connectivity coarsening, greedy initial partitioning, FM
//!   refinement under a balance constraint;
//! * [`random_partition`] ("RP") and [`block_partition`] baselines;
//! * [`CommPlan`] — the per-layer `Xsend`/`Xrecv` maps each worker loads
//!   before inference.
//!
//! ```
//! use fsd_model::{generate_dnn, DnnSpec};
//! use fsd_partition::{CommPlan, Hypergraph, partition_hypergraph};
//!
//! let dnn = generate_dnn(&DnnSpec::scaled(128, 1));
//! let h = Hypergraph::from_dnn(&dnn);
//! let part = partition_hypergraph(&h, 4, 1);
//! let plan = CommPlan::build(&dnn, &part);
//! assert!(plan.total_row_sends() > 0);
//! ```
#![forbid(unsafe_code)]

mod commplan;
mod hgp;
mod hypergraph;
mod partition;

pub use commplan::{CommPlan, LayerPlan};
pub use hgp::partition_hypergraph;
pub use hypergraph::Hypergraph;
pub use partition::{block_partition, random_partition, Partition};

/// How a model is split across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Multilevel hypergraph partitioning (the paper's HGP-DNN).
    Hgp,
    /// PaToH-style random partitioning (the paper's RP baseline).
    Random,
    /// Contiguous, weight-balanced blocks.
    Block,
}

/// Partitions a model with the chosen scheme; the single entry point used
/// by the inference engine and the benchmark harness. One part (or none)
/// is the whole model under every scheme, built without a hypergraph.
pub fn partition_model(
    dnn: &fsd_model::SparseDnn,
    n_parts: usize,
    scheme: PartitionScheme,
    seed: u64,
) -> Partition {
    if n_parts <= 1 {
        return Partition::new(1, vec![0; dnn.spec().neurons]);
    }
    match scheme {
        PartitionScheme::Hgp => {
            let h = Hypergraph::from_dnn(dnn);
            partition_hypergraph(&h, n_parts, seed)
        }
        PartitionScheme::Random => random_partition(dnn.spec().neurons, n_parts, seed),
        PartitionScheme::Block => {
            let h = Hypergraph::from_dnn(dnn);
            block_partition(h.vertex_weights(), n_parts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_model::{generate_dnn, DnnSpec};

    #[test]
    fn partition_model_all_schemes_cover_all_neurons() {
        let dnn = generate_dnn(&DnnSpec::scaled(128, 2));
        for scheme in [
            PartitionScheme::Hgp,
            PartitionScheme::Random,
            PartitionScheme::Block,
        ] {
            let p = partition_model(&dnn, 4, scheme, 1);
            assert_eq!(p.n_vertices(), 128, "{scheme:?}");
            let covered: usize = (0..4).map(|q| p.owned(q).len()).sum();
            assert_eq!(covered, 128, "{scheme:?}");
        }
    }

    #[test]
    fn one_part_is_the_whole_model_under_every_scheme() {
        let dnn = generate_dnn(&DnnSpec::scaled(128, 4));
        let whole = Partition::new(1, vec![0; 128]);
        for scheme in [
            PartitionScheme::Hgp,
            PartitionScheme::Random,
            PartitionScheme::Block,
        ] {
            for n_parts in [0, 1] {
                let p = partition_model(&dnn, n_parts, scheme, 4);
                assert_eq!(p.assignment(), whole.assignment(), "{scheme:?}");
                assert_eq!(p.n_parts(), 1, "{scheme:?}");
                assert_eq!(p.owned(0), whole.owned(0), "{scheme:?}");
            }
        }
    }

    /// FNV-1a 64 over the assignment, one `u64` word per entry.
    fn digest(p: &Partition) -> u64 {
        p.assignment().iter().fold(0xcbf2_9ce4_8422_2325, |h, &a| {
            (h ^ a as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    fn hgp_digest(neurons: usize, n_parts: usize) -> u64 {
        let dnn = generate_dnn(&DnnSpec::scaled(neurons, 42));
        digest(&partition_model(&dnn, n_parts, PartitionScheme::Hgp, 42))
    }

    // A partitioner change must keep these: every committed bench baseline
    // and the serving stack's virtual numbers follow from the partition.
    #[test]
    fn hgp_partitions_are_pinned() {
        assert_eq!(hgp_digest(64, 2), 0xeccb_7ecb_ad56_df60);
        assert_eq!(hgp_digest(256, 8), 0xfb0d_ae01_99c8_89a5);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in debug; runs in release")]
    fn hgp_partitions_at_the_benchmark_shapes_are_pinned() {
        assert_eq!(hgp_digest(1024, 8), 0xe7f3_3ac1_01de_3d25);
        assert_eq!(hgp_digest(4096, 2), 0x1856_f46d_e928_6b25);
    }

    #[test]
    fn hgp_beats_random_in_plan_volume() {
        let dnn = generate_dnn(&DnnSpec::scaled(256, 3));
        let hgp = CommPlan::build(&dnn, &partition_model(&dnn, 8, PartitionScheme::Hgp, 3));
        let rnd = CommPlan::build(&dnn, &partition_model(&dnn, 8, PartitionScheme::Random, 3));
        assert!(
            (hgp.total_row_sends() as f64) < 0.5 * rnd.total_row_sends() as f64,
            "HGP volume {} vs RP {}",
            hgp.total_row_sends(),
            rnd.total_row_sends()
        );
    }
}
