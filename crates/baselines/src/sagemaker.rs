//! Sage-SL-Inf: the commercial serverless inference endpoint baseline.
//!
//! Models SageMaker Serverless Inference as deployed in the paper: a single
//! managed FaaS instance with (then-current) limits of **6 GB memory**,
//! **6 MB request payload**, and **60 s runtime**. The paper found it could
//! not load the larger models and could only process truncated batches
//! (8 000 / 2 500 / 1 000 samples at N = 1024/4096/16384; nothing at
//! 65536) — this model reproduces that behaviour mechanically from the
//! limits rather than by hard-coding outcomes.

use crate::server::{BaselineError, PlatformReport};
use fsd_faas::ComputeModel;
use fsd_model::SparseDnn;
use fsd_sparse::{codec, SparseRows};

/// SageMaker Serverless limits and prices at the paper's time of writing.
#[derive(Debug, Clone, Copy)]
pub struct SageConfig {
    /// Maximum endpoint memory (bytes): 6 GB.
    pub memory_bytes: usize,
    /// Maximum request payload (bytes): 6 MB.
    pub payload_bytes: usize,
    /// Maximum runtime per request (seconds): 60.
    pub runtime_secs: f64,
    /// Endpoint cold-start + dispatch overhead per request (seconds).
    pub dispatch_secs: f64,
    /// Compute price per GB-second (serverless inference premium over raw
    /// Lambda compute).
    pub usd_per_gb_s: f64,
    /// Per-request charge.
    pub usd_per_request: f64,
}

impl Default for SageConfig {
    fn default() -> Self {
        SageConfig {
            memory_bytes: 6 * 1024 * 1024 * 1024,
            payload_bytes: 6 * 1024 * 1024,
            runtime_secs: 60.0,
            // Serverless endpoint dispatch + container warm-up; multi-
            // second cold starts are typical for SageMaker Serverless.
            dispatch_secs: 1.0,
            usd_per_gb_s: 0.000_020_0,
            usd_per_request: 0.20 / 1e6,
        }
    }
}

/// Outcome of a Sage-SL-Inf run: the report plus how many samples were
/// actually processed (the paper reports truncated batches).
pub fn run_sagemaker(
    dnn: &SparseDnn,
    inputs: &SparseRows,
    cfg: &SageConfig,
    compute: &ComputeModel,
) -> Result<PlatformReport, BaselineError> {
    let model_bytes = dnn.mem_bytes();
    // PyTorch runtime + model + working set must fit 6 GB.
    if model_bytes * 10 / 8 > cfg.memory_bytes {
        return Err(BaselineError::OutOfMemory {
            need_bytes: model_bytes,
            limit_bytes: cfg.memory_bytes,
        });
    }
    // Find the largest sample count whose (a) request payload fits 6 MB and
    // (b) inference finishes inside 60 s. Binary search over prefix widths.
    let total = inputs.width();
    let vcpus = cfg.memory_bytes as f64 / 1024.0 / 1024.0 / 1769.0;
    let fits = |samples: usize| -> bool {
        if samples == 0 {
            return true;
        }
        let share = take_samples(inputs, samples);
        if codec::encode(&share).len() > cfg.payload_bytes {
            return false;
        }
        let (_, trace) = dnn.serial_inference_traced(&share);
        compute.seconds_on_vcpus(trace.work, vcpus) <= cfg.runtime_secs - cfg.dispatch_secs
    };
    let mut lo = 0usize;
    let mut hi = total;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let samples = lo;
    if samples == 0 {
        return Err(BaselineError::QuotaExceeded(
            "no samples fit the 6 MB payload / 60 s runtime limits".to_string(),
        ));
    }
    let share = take_samples(inputs, samples);
    let (output, trace) = dnn.serial_inference_traced(&share);
    let compute_secs = compute.seconds_on_vcpus(trace.work, vcpus);
    let latency = cfg.dispatch_secs + compute_secs;
    let gb = cfg.memory_bytes as f64 / 1024.0 / 1024.0 / 1024.0;
    let cost = cfg.usd_per_request + latency * gb * cfg.usd_per_gb_s;
    Ok(PlatformReport {
        platform: "Sage-SL-Inf".to_string(),
        latency_secs: latency,
        cost_per_query: Some(cost),
        daily_fixed_cost: None,
        output,
        samples,
    })
}

/// Restricts a batch to its first `samples` columns.
fn take_samples(inputs: &SparseRows, samples: usize) -> SparseRows {
    let mut out = SparseRows::new(samples);
    for (id, cols, vals) in inputs.iter() {
        let keep: Vec<usize> = cols
            .iter()
            .enumerate()
            .filter(|(_, &c)| (c as usize) < samples)
            .map(|(i, _)| i)
            .collect();
        if keep.is_empty() {
            continue;
        }
        let c: Vec<u32> = keep.iter().map(|&i| cols[i]).collect();
        let v: Vec<f32> = keep.iter().map(|&i| vals[i]).collect();
        out.push_row(id, &c, &v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};

    fn dnn(neurons: usize, layers: usize) -> SparseDnn {
        generate_dnn(&DnnSpec {
            neurons,
            layers,
            nnz_per_row: 8,
            bias: -0.3,
            clip: 32.0,
            seed: 2,
        })
    }

    #[test]
    fn take_samples_truncates_columns() {
        let b = SparseRows::from_rows(
            8,
            [
                (0u32, vec![0u32, 3, 7], vec![1.0f32, 2.0, 3.0]),
                (4, vec![6], vec![4.0]),
            ],
        );
        let t = take_samples(&b, 4);
        assert_eq!(t.width(), 4);
        assert_eq!(t.row_by_id(0), Some((&[0u32, 3][..], &[1.0f32, 2.0][..])));
        assert_eq!(t.row_by_id(4), None);
    }

    #[test]
    fn small_model_processes_full_batch() {
        let d = dnn(64, 3);
        let inputs = generate_inputs(64, &InputSpec::scaled(32, 3));
        let r = run_sagemaker(
            &d,
            &inputs,
            &SageConfig::default(),
            &ComputeModel::default(),
        )
        .expect("fits");
        assert_eq!(r.samples, 32);
        assert_eq!(r.output, d.serial_inference(&inputs));
        assert!(r.cost_per_query.expect("billed") > 0.0);
    }

    #[test]
    fn runtime_limit_truncates_batch() {
        let d = dnn(256, 8);
        let inputs = generate_inputs(256, &InputSpec::scaled(64, 3));
        // Starve the runtime limit so only a prefix fits.
        let cfg = SageConfig {
            runtime_secs: 1.1,
            dispatch_secs: 1.0,
            ..SageConfig::default()
        };
        // Slow "hardware" so per-sample compute is material.
        let compute = ComputeModel {
            units_per_sec_per_vcpu: 2e5,
            ..ComputeModel::default()
        };
        match run_sagemaker(&d, &inputs, &cfg, &compute) {
            Ok(r) => assert!(r.samples < 64, "expected truncation, got {}", r.samples),
            Err(BaselineError::QuotaExceeded(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn payload_limit_truncates_batch() {
        let d = dnn(64, 2);
        let inputs = generate_inputs(64, &InputSpec::scaled(512, 3));
        let cfg = SageConfig {
            payload_bytes: 400,
            ..SageConfig::default()
        };
        match run_sagemaker(&d, &inputs, &cfg, &ComputeModel::default()) {
            Ok(r) => assert!(r.samples < 512),
            Err(BaselineError::QuotaExceeded(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn oversized_model_cannot_load() {
        let spec = DnnSpec {
            neurons: 1 << 21,
            layers: 120,
            nnz_per_row: 32,
            bias: -0.45,
            clip: 32.0,
            seed: 0,
        };
        // CSR's 8 bytes per nonzero alone bound the weights from below.
        let csr_bytes = spec.total_nnz() * 8;
        assert!(csr_bytes * 10 / 8 > SageConfig::default().memory_bytes);
        // Use the real check with a shrunk memory limit to avoid generating
        // a multi-GB model in tests.
        let d = dnn(256, 3);
        let cfg = SageConfig {
            memory_bytes: 10_000,
            ..SageConfig::default()
        };
        let inputs = generate_inputs(256, &InputSpec::scaled(16, 1));
        assert!(matches!(
            run_sagemaker(&d, &inputs, &cfg, &ComputeModel::default()),
            Err(BaselineError::OutOfMemory { .. })
        ));
    }
}
