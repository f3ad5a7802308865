//! Hypergraph model of a sparse DNN's communication structure.
//!
//! Following Demirci & Ferhatosmanoglu (ICS'21), adapted in the paper for
//! FaaS: vertices are neurons (activation rows), and each column `j` of each
//! layer matrix `W^k` induces a net whose pins are `{j} ∪ {i : W^k[i,j] ≠ 0}`
//! — the producer of activation row `j` plus every consumer of it in layer
//! `k`. A net spanning `λ` parts forces `λ − 1` row transmissions, so the
//! connectivity-1 objective *is* the communication volume.

use fsd_model::SparseDnn;

/// An undirected hypergraph with weighted vertices and nets, stored in CSR
/// form both ways (nets → pins and vertex → incident nets).
#[derive(Clone, Debug)]
pub struct Hypergraph {
    n_vertices: usize,
    vertex_weight: Vec<u32>,
    net_ptr: Vec<usize>,
    pins: Vec<u32>,
    net_weight: Vec<u32>,
    vtx_ptr: Vec<usize>,
    vtx_nets: Vec<u32>,
}

impl Hypergraph {
    /// Builds a hypergraph from nets laid out in one flat pin buffer. Pins
    /// may arrive unsorted: each span is sorted and deduplicated in place,
    /// spans under two pins are dropped (they can never be cut), the rest
    /// are put in lexicographic pin order and identical nets merged by
    /// summing weights (saturating at `u32::MAX`) — the nets and weights a
    /// map from pin list to summed weight gives, without one allocation per
    /// net.
    pub(crate) fn from_spans(
        n_vertices: usize,
        vertex_weight: Vec<u32>,
        mut pins: Vec<u32>,
        mut spans: Vec<Span>,
    ) -> Hypergraph {
        assert_eq!(vertex_weight.len(), n_vertices, "vertex weight length");
        spans.retain_mut(|span| {
            let net = &mut pins[span.start..span.end];
            net.sort_unstable();
            let mut len = usize::from(!net.is_empty());
            for i in 1..net.len() {
                if net[i] != net[len - 1] {
                    net[len] = net[i];
                    len += 1;
                }
            }
            if len < 2 {
                return false;
            }
            debug_assert!((net[len - 1] as usize) < n_vertices, "pin out of range");
            span.end = span.start + len;
            true
        });

        spans.sort_unstable_by(|a, b| a.pins(&pins).cmp(b.pins(&pins)));

        let mut net_ptr = Vec::with_capacity(spans.len() + 1);
        let mut net_pins = Vec::with_capacity(pins.len());
        let mut net_weight: Vec<u32> = Vec::with_capacity(spans.len());
        net_ptr.push(0usize);
        for (i, span) in spans.iter().enumerate() {
            let net = span.pins(&pins);
            if i > 0 && spans[i - 1].pins(&pins) == net {
                let w = net_weight.last_mut().expect("span 0 opened a net");
                *w = w.saturating_add(span.weight);
            } else {
                net_pins.extend_from_slice(net);
                net_ptr.push(net_pins.len());
                net_weight.push(span.weight);
            }
        }

        let (vtx_ptr, vtx_nets) = invert(n_vertices, &net_ptr, &net_pins);
        Hypergraph {
            n_vertices,
            vertex_weight,
            net_ptr,
            pins: net_pins,
            net_weight,
            vtx_ptr,
            vtx_nets,
        }
    }

    /// Builds the communication hypergraph of `dnn` for a *unified* neuron
    /// partition (one ownership map shared by all layers, as deployed by
    /// FSD-Inference: workers keep their row block identity across layers).
    pub fn from_dnn(dnn: &SparseDnn) -> Hypergraph {
        let n = dnn.spec().neurons;
        // Vertex weight = compute load proxy: weights stored for the neuron's
        // row across all layers (constant here, but kept general).
        let mut vweight = vec![0u32; n];
        for layer in dnn.layers() {
            for (r, w) in vweight.iter_mut().enumerate() {
                *w += layer.row_nnz(r) as u32;
            }
        }
        // One net per nonempty column `j` of each layer: `j`, then its
        // consumers in ascending row order — a transpose without values.
        let mut pins = Vec::new();
        let mut spans = Vec::new();
        let mut next = vec![0usize; n];
        for layer in dnn.layers() {
            let mut column_len = vec![0usize; n];
            for &c in layer.parts().1 {
                column_len[c as usize] += 1;
            }
            for (j, &len) in column_len.iter().enumerate() {
                if len > 0 {
                    let start = pins.len();
                    pins.push(j as u32);
                    next[j] = pins.len();
                    pins.resize(pins.len() + len, 0);
                    spans.push(Span::new(start, pins.len(), 1));
                }
            }
            for (r, cols, _) in layer.iter_rows() {
                for &c in cols {
                    pins[next[c as usize]] = r as u32;
                    next[c as usize] += 1;
                }
            }
        }
        Hypergraph::from_spans(n, vweight, pins, spans)
    }

    /// Number of vertices.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of nets.
    #[inline]
    pub fn n_nets(&self) -> usize {
        self.net_weight.len()
    }

    /// Total pin count.
    #[inline]
    pub fn n_pins(&self) -> usize {
        self.pins.len()
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: u32) -> u32 {
        self.vertex_weight[v as usize]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[u32] {
        &self.vertex_weight
    }

    /// Sum of all vertex weights.
    pub fn total_weight(&self) -> u64 {
        self.vertex_weight.iter().map(|&w| w as u64).sum()
    }

    /// Pins of net `e`.
    #[inline]
    pub fn net(&self, e: u32) -> &[u32] {
        &self.pins[self.net_ptr[e as usize]..self.net_ptr[e as usize + 1]]
    }

    /// Weight of net `e`.
    #[inline]
    pub fn net_weight(&self, e: u32) -> u32 {
        self.net_weight[e as usize]
    }

    /// Nets incident to vertex `v`.
    #[inline]
    pub fn nets_of(&self, v: u32) -> &[u32] {
        &self.vtx_nets[self.vtx_ptr[v as usize]..self.vtx_ptr[v as usize + 1]]
    }

    /// Connectivity-1 cost of an assignment: `Σ_e w(e) · (λ(e) − 1)` where
    /// `λ(e)` is the number of distinct parts containing pins of `e`.
    pub fn connectivity_cost(&self, assignment: &[u32], n_parts: usize) -> u64 {
        assert_eq!(assignment.len(), self.n_vertices);
        let mut seen = vec![u32::MAX; n_parts];
        let mut cost = 0u64;
        for e in 0..self.n_nets() as u32 {
            let mut lambda = 0u32;
            for &p in self.net(e) {
                let part = assignment[p as usize] as usize;
                if seen[part] != e {
                    seen[part] = e;
                    lambda += 1;
                }
            }
            cost += (lambda.saturating_sub(1)) as u64 * self.net_weight(e) as u64;
        }
        cost
    }
}

/// One net of a flat pin buffer under construction: pins `start..end` with
/// a weight.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Span {
    start: usize,
    end: usize,
    weight: u32,
}

impl Span {
    pub(crate) fn new(start: usize, end: usize, weight: u32) -> Span {
        Span { start, end, weight }
    }

    fn pins<'a>(&self, buf: &'a [u32]) -> &'a [u32] {
        &buf[self.start..self.end]
    }
}

/// Builds the vertex → nets CSR from the nets → pins CSR.
fn invert(n_vertices: usize, net_ptr: &[usize], pins: &[u32]) -> (Vec<usize>, Vec<u32>) {
    let mut counts = vec![0usize; n_vertices + 1];
    for &p in pins {
        counts[p as usize + 1] += 1;
    }
    for i in 0..n_vertices {
        counts[i + 1] += counts[i];
    }
    let vtx_ptr = counts.clone();
    let mut vtx_nets = vec![0u32; pins.len()];
    for e in 0..net_ptr.len() - 1 {
        for &p in &pins[net_ptr[e]..net_ptr[e + 1]] {
            vtx_nets[counts[p as usize]] = e as u32;
            counts[p as usize] += 1;
        }
    }
    (vtx_ptr, vtx_nets)
}

#[cfg(test)]
impl Hypergraph {
    /// [`Hypergraph::from_spans`] over one `Vec` per net, the form the tests
    /// write nets in.
    pub(crate) fn from_nets(
        n_vertices: usize,
        vertex_weight: Vec<u32>,
        nets: impl IntoIterator<Item = (Vec<u32>, u32)>,
    ) -> Hypergraph {
        let mut pins = Vec::new();
        let mut spans = Vec::new();
        for (net, weight) in nets {
            let start = pins.len();
            pins.extend_from_slice(&net);
            spans.push(Span::new(start, pins.len(), weight));
        }
        Hypergraph::from_spans(n_vertices, vertex_weight, pins, spans)
    }
}

/// Random nets over `n` vertices for the equivalence tests: unsorted pins
/// with duplicates, empty and single-pin nets, repeated nets (permuted) and
/// zero, small and near-`u32::MAX` weights.
#[cfg(test)]
pub(crate) fn random_nets(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<(Vec<u32>, u32)> {
    use rand::seq::SliceRandom;
    use rand::Rng;
    let mut nets: Vec<(Vec<u32>, u32)> = Vec::new();
    for _ in 0..rng.gen_range(0..3 * n + 2) {
        let weight = match rng.gen_range(0..10u32) {
            0 => 0,
            9 => u32::MAX - rng.gen_range(0..3u32),
            _ => rng.gen_range(1..4u32),
        };
        let mut pins = if !nets.is_empty() && rng.gen_range(0..5u32) == 0 {
            nets[rng.gen_range(0..nets.len())].0.clone()
        } else {
            // A narrow pin range makes duplicate pins and equal prefixes common.
            let lo = rng.gen_range(0..n as u32);
            let hi = rng.gen_range(lo + 1..n as u32 + 1);
            (0..rng.gen_range(0..9usize))
                .map(|_| rng.gen_range(lo..hi))
                .collect()
        };
        pins.shuffle(rng);
        nets.push((pins, weight));
    }
    nets
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_model::{generate_dnn, DnnSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The hash-map construction `from_nets` replaced: the oracle for
    /// [`Hypergraph::from_spans`].
    fn from_nets_reference(
        n_vertices: usize,
        vertex_weight: Vec<u32>,
        nets: impl IntoIterator<Item = (Vec<u32>, u32)>,
    ) -> Hypergraph {
        let mut merged: HashMap<Vec<u32>, u32> = HashMap::new();
        for (mut pins, w) in nets {
            pins.sort_unstable();
            pins.dedup();
            if pins.len() < 2 {
                continue;
            }
            let total = merged.entry(pins).or_insert(0);
            *total = total.saturating_add(w);
        }
        let mut net_list: Vec<(Vec<u32>, u32)> = merged.into_iter().collect();
        net_list.sort_unstable();

        let mut net_ptr = vec![0usize];
        let mut pins = Vec::new();
        let mut net_weight = Vec::new();
        for (p, w) in &net_list {
            pins.extend_from_slice(p);
            net_ptr.push(pins.len());
            net_weight.push(*w);
        }
        let (vtx_ptr, vtx_nets) = invert(n_vertices, &net_ptr, &pins);
        Hypergraph {
            n_vertices,
            vertex_weight,
            net_ptr,
            pins,
            net_weight,
            vtx_ptr,
            vtx_nets,
        }
    }

    fn assert_same(h: &Hypergraph, reference: &Hypergraph, case: &str) {
        assert_eq!(h.n_vertices, reference.n_vertices, "{case}: n_vertices");
        assert_eq!(
            h.vertex_weight, reference.vertex_weight,
            "{case}: vertex_weight"
        );
        assert_eq!(h.net_ptr, reference.net_ptr, "{case}: net_ptr");
        assert_eq!(h.pins, reference.pins, "{case}: pins");
        assert_eq!(h.net_weight, reference.net_weight, "{case}: net_weight");
        assert_eq!(h.vtx_ptr, reference.vtx_ptr, "{case}: vtx_ptr");
        assert_eq!(h.vtx_nets, reference.vtx_nets, "{case}: vtx_nets");
    }

    #[test]
    fn from_nets_equals_the_hash_map_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..400 {
            let n = rng.gen_range(1..48usize);
            let weights: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5u32)).collect();
            let nets = random_nets(&mut rng, n);
            let h = Hypergraph::from_nets(n, weights.clone(), nets.clone());
            let reference = from_nets_reference(n, weights, nets);
            assert_same(&h, &reference, &format!("case {case} (n = {n})"));
        }
    }

    #[test]
    fn from_dnn_equals_the_transpose_reference() {
        for (neurons, seed) in [(32, 1), (64, 7), (128, 42)] {
            let dnn = generate_dnn(&DnnSpec::scaled(neurons, seed));
            let weights = Hypergraph::from_dnn(&dnn).vertex_weight;
            let nets = dnn.layers().iter().flat_map(|layer| {
                // The transpose's rows: each input's consumers, ascending.
                let mut consumers = vec![Vec::new(); neurons];
                for r in 0..layer.rows() {
                    for &j in layer.row(r).0 {
                        consumers[j as usize].push(r as u32);
                    }
                }
                consumers
                    .into_iter()
                    .enumerate()
                    .filter(|(_, rows)| !rows.is_empty())
                    .map(|(j, rows)| {
                        let mut pins = vec![j as u32];
                        pins.extend(rows);
                        (pins, 1u32)
                    })
                    .collect::<Vec<_>>()
            });
            let reference = from_nets_reference(neurons, weights, nets);
            assert_same(
                &Hypergraph::from_dnn(&dnn),
                &reference,
                &format!("N = {neurons}"),
            );
        }
    }

    #[test]
    fn merged_net_weights_saturate() {
        let h = Hypergraph::from_nets(2, vec![1, 1], [(vec![0, 1], u32::MAX - 1), (vec![1, 0], 5)]);
        assert_eq!(h.n_nets(), 1);
        assert_eq!(h.net_weight(0), u32::MAX);
    }

    fn tiny() -> Hypergraph {
        // 4 vertices; nets {0,1}, {1,2,3}, {0,1} (duplicate, merged).
        Hypergraph::from_nets(
            4,
            vec![1, 1, 1, 1],
            [(vec![0, 1], 2), (vec![1, 2, 3], 1), (vec![1, 0], 3)],
        )
    }

    #[test]
    fn from_nets_merges_duplicates_and_drops_singletons() {
        let h = Hypergraph::from_nets(
            3,
            vec![1, 1, 1],
            [
                (vec![0, 1], 1),
                (vec![1, 0], 1),
                (vec![2], 5),
                (vec![1, 1], 9),
            ],
        );
        assert_eq!(h.n_nets(), 1);
        assert_eq!(h.net(0), &[0, 1]);
        assert_eq!(h.net_weight(0), 2);
    }

    #[test]
    fn incidence_is_consistent() {
        let h = tiny();
        assert_eq!(h.n_nets(), 2);
        for e in 0..h.n_nets() as u32 {
            for &p in h.net(e) {
                assert!(h.nets_of(p).contains(&e), "vertex {p} missing net {e}");
            }
        }
        for v in 0..4u32 {
            for &e in h.nets_of(v) {
                assert!(h.net(e).contains(&v), "net {e} missing vertex {v}");
            }
        }
    }

    #[test]
    fn connectivity_cost_examples() {
        let h = tiny();
        // nets (sorted order): [0,1] w=5, [1,2,3] w=1
        assert_eq!(h.connectivity_cost(&[0, 0, 0, 0], 1), 0);
        // split {0,1} vs {2,3}: net0 internal, net1 spans both -> 1
        assert_eq!(h.connectivity_cost(&[0, 0, 1, 1], 2), 1);
        // 0|1 cut: net0 spans -> 5; net1 {1,2,3} in part1..: 1 in p1? assignment [0,1,1,1]
        assert_eq!(h.connectivity_cost(&[0, 1, 1, 1], 2), 5);
        // all separate: net0 λ=2 -> 5, net1 λ=3 -> 2
        assert_eq!(h.connectivity_cost(&[0, 1, 2, 3], 4), 7);
    }

    #[test]
    fn from_dnn_shapes() {
        let spec = DnnSpec {
            neurons: 32,
            layers: 3,
            nnz_per_row: 4,
            bias: -0.1,
            clip: 32.0,
            seed: 1,
        };
        let dnn = generate_dnn(&spec);
        let h = Hypergraph::from_dnn(&dnn);
        assert_eq!(h.n_vertices(), 32);
        assert!(h.n_nets() > 0);
        // Every vertex computes 4 weights per layer over 3 layers.
        assert!(h.vertex_weights().iter().all(|&w| w == 12));
        // Pins per net ≥ 2 by construction.
        for e in 0..h.n_nets() as u32 {
            assert!(h.net(e).len() >= 2);
        }
    }

    #[test]
    fn from_dnn_total_weight_matches_nnz() {
        let spec = DnnSpec {
            neurons: 32,
            layers: 3,
            nnz_per_row: 4,
            bias: -0.1,
            clip: 32.0,
            seed: 1,
        };
        let dnn = generate_dnn(&spec);
        let h = Hypergraph::from_dnn(&dnn);
        assert_eq!(h.total_weight(), dnn.total_nnz() as u64);
    }
}
