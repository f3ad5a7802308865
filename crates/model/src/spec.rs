//! Model specifications mirroring the Sparse DNN Graph Challenge grid.

/// Parameters of a synthetic sparse DNN.
///
/// The Graph Challenge evaluates per-layer neuron counts
/// `N ∈ {1024, 4096, 16384, 65536}` with `L = 120` layers, ~32 connections
/// per neuron, ReLU clipped at 32, and a per-`N` bias. [`DnnSpec::paper`]
/// reproduces that grid; [`DnnSpec::scaled`] provides the reduced default
/// grid used by tests and the default benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DnnSpec {
    /// Neurons per layer (`N`).
    pub neurons: usize,
    /// Number of fully-connected sparse layers (`L`).
    pub layers: usize,
    /// Incoming connections per neuron (Graph Challenge uses 32).
    pub nnz_per_row: usize,
    /// Bias added to every structurally nonzero pre-activation.
    pub bias: f32,
    /// ReLU clip ceiling (Graph Challenge thresholds activations at 32).
    pub clip: f32,
    /// Seed for the deterministic weight/topology generator.
    pub seed: u64,
}

impl DnnSpec {
    /// The bias the paper applies for each Graph Challenge neuron count
    /// (−0.30, −0.35, −0.40, −0.45 for N = 1024 … 65536). Other sizes
    /// interpolate on `log2(N)`.
    fn bias_for_neurons(neurons: usize) -> f32 {
        match neurons {
            1024 => -0.30,
            4096 => -0.35,
            16384 => -0.40,
            65536 => -0.45,
            n => {
                let l = (n.max(2) as f32).log2();
                // Linear in log2: matches the published points exactly.
                (-0.30 - (l - 10.0) * 0.025).clamp(-0.60, -0.10)
            }
        }
    }

    /// Paper-scale spec: `L = 120`, 32 connections/neuron, clip 32, and the
    /// published per-`N` bias.
    pub fn paper(neurons: usize, seed: u64) -> DnnSpec {
        DnnSpec {
            neurons,
            layers: 120,
            nnz_per_row: 32,
            bias: Self::bias_for_neurons(neurons),
            clip: 32.0,
            seed,
        }
    }

    /// Reduced-scale spec preserving the structural ratios: `L = 24` layers
    /// and 8 connections/neuron with the same published bias (the weight
    /// calibration in the generator adapts to `nnz_per_row`).
    pub fn scaled(neurons: usize, seed: u64) -> DnnSpec {
        DnnSpec {
            neurons,
            layers: 24,
            nnz_per_row: 8,
            bias: Self::bias_for_neurons(neurons),
            clip: 32.0,
            seed,
        }
    }

    /// Total structural nonzeros over all layers.
    pub fn total_nnz(&self) -> usize {
        self.neurons * self.nnz_per_row * self.layers
    }
}

/// Parameters of a synthetic inference input batch.
///
/// The Graph Challenge uses 10 000 thresholded MNIST-like samples scaled to
/// `N` pixels and flattened; entries are binary. We reproduce that shape
/// with a seeded sparse binary generator concentrated on a leading
/// "image region" of the neuron space (MNIST upscaling leaves trailing
/// neurons dark).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSpec {
    /// Number of samples in the batch.
    pub batch: usize,
    /// Fraction of the neuron space that can be active in an input
    /// (the "image region"); MNIST-to-1024 upscaling keeps ≈ 0.77.
    pub active_region: f32,
    /// Probability that a pixel inside the region is lit.
    pub density: f32,
    /// Seed for the deterministic input generator.
    pub seed: u64,
}

impl InputSpec {
    /// Paper-scale batch: 10 000 samples, MNIST-like density.
    pub fn paper(seed: u64) -> InputSpec {
        InputSpec {
            batch: 10_000,
            active_region: 0.77,
            density: 0.15,
            seed,
        }
    }

    /// Reduced-scale batch for tests and default benches.
    pub fn scaled(batch: usize, seed: u64) -> InputSpec {
        InputSpec {
            batch,
            active_region: 0.77,
            density: 0.15,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_biases() {
        assert_eq!(DnnSpec::bias_for_neurons(1024), -0.30);
        assert_eq!(DnnSpec::bias_for_neurons(4096), -0.35);
        assert_eq!(DnnSpec::bias_for_neurons(16384), -0.40);
        assert_eq!(DnnSpec::bias_for_neurons(65536), -0.45);
    }

    #[test]
    fn interpolated_bias_is_monotone_and_bounded() {
        let mut last = 0.0f32;
        for n in [256usize, 512, 2048, 8192, 32768, 131072] {
            let b = DnnSpec::bias_for_neurons(n);
            assert!(
                (-0.60..=-0.10).contains(&b),
                "bias {b} out of range for {n}"
            );
            assert!(b < last, "bias must decrease with N");
            last = b;
        }
    }

    #[test]
    fn paper_spec_matches_benchmark() {
        let s = DnnSpec::paper(16384, 7);
        assert_eq!(s.layers, 120);
        assert_eq!(s.nnz_per_row, 32);
        assert_eq!(s.clip, 32.0);
        assert_eq!(s.total_nnz(), 16384 * 32 * 120);
    }

    #[test]
    fn nnz_scales_with_n() {
        assert!(DnnSpec::paper(4096, 0).total_nnz() > DnnSpec::paper(1024, 0).total_nnz());
        assert!(DnnSpec::scaled(1024, 0).total_nnz() < DnnSpec::paper(1024, 0).total_nnz());
    }
}
