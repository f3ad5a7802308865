//! Server-based baselines: Server-Always-On (hot/cold) and Server-Job-Scoped.
//!
//! Both run the same single-node inference kernel as FSD-Inf-Serial, on EC2
//! compute-optimized instances sized per the paper (§VI-A2): the smallest
//! instance with more total vCPU and memory than the equivalent
//! FSD-Inference deployment. Latency composition:
//!
//! * **Always-On-Hot** — model already resident: pure compute;
//! * **Always-On-Cold** — model fetched from EBS-like block storage first
//!   (the SageMaker multi-model-endpoint eviction behaviour the paper
//!   mimics);
//! * **Job-Scoped** — instance provisioning (minutes) + object-storage
//!   model load + compute.

use fsd_faas::ComputeModel;
use fsd_model::SparseDnn;
use fsd_sparse::SparseRows;

/// An EC2 instance type (paper's c5 family, us-east-1 on-demand pricing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceType {
    pub name: &'static str,
    pub vcpus: u32,
    pub mem_gib: u32,
    pub hourly_usd: f64,
}

/// `c5.2xlarge` — 8 vCPU / 16 GiB.
pub(crate) const C5_2XLARGE: InstanceType = InstanceType {
    name: "c5.2xlarge",
    vcpus: 8,
    mem_gib: 16,
    hourly_usd: 0.34,
};
/// `c5.9xlarge` — 36 vCPU / 72 GiB.
const C5_9XLARGE: InstanceType = InstanceType {
    name: "c5.9xlarge",
    vcpus: 36,
    mem_gib: 72,
    hourly_usd: 1.53,
};
/// `c5.12xlarge` — 48 vCPU / 96 GiB.
pub const C5_12XLARGE: InstanceType = InstanceType {
    name: "c5.12xlarge",
    vcpus: 48,
    mem_gib: 96,
    hourly_usd: 2.04,
};

/// Picks the paper's job-scoped instance for a neuron count (§VI-A2).
pub fn job_scoped_instance(neurons: usize) -> InstanceType {
    match neurons {
        n if n <= 4096 => C5_2XLARGE,
        n if n <= 16384 => C5_9XLARGE,
        _ => C5_12XLARGE,
    }
}

/// Server execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerKind {
    /// Always-on, model resident in memory (50 % of requests in §VI-C2).
    AlwaysOnHot,
    /// Always-on, model loaded from block storage.
    AlwaysOnCold,
    /// Provisioned on demand, model loaded from object storage.
    JobScoped,
}

/// Infrastructure timing parameters for the server baselines.
#[derive(Debug, Clone, Copy)]
pub struct ServerTimings {
    /// EBS-like block storage read bandwidth (bytes/s).
    pub ebs_bandwidth_bps: u64,
    /// Object storage read bandwidth (bytes/s).
    pub s3_bandwidth_bps: u64,
    /// Job-scoped instance provisioning delay (seconds) — "often several
    /// minutes" per the paper's introduction.
    pub provision_secs: f64,
    /// Process/start overhead for a query on a warm instance (seconds).
    pub dispatch_secs: f64,
    /// Fixed model (re)initialization cost when the model is not resident:
    /// deserialization + inference-server warm-up, paid by AO-Cold and
    /// Job-Scoped on top of the raw byte transfer.
    pub cold_init_secs: f64,
}

impl Default for ServerTimings {
    fn default() -> Self {
        ServerTimings {
            ebs_bandwidth_bps: 250_000_000,
            s3_bandwidth_bps: 85_000_000,
            provision_secs: 150.0,
            dispatch_secs: 0.05,
            cold_init_secs: 1.0,
        }
    }
}

/// What every baseline run reports (comparable to `InferenceReport`).
#[derive(Debug, Clone)]
pub struct PlatformReport {
    /// Platform label for tables.
    pub platform: String,
    /// End-to-end query latency (seconds).
    pub latency_secs: f64,
    /// Marginal cost of this query (None where the paper lacks figures,
    /// e.g. H-SpFF; always-on platforms bill by the hour instead).
    pub cost_per_query: Option<f64>,
    /// Fixed daily cost of keeping the platform available (always-on).
    pub daily_fixed_cost: Option<f64>,
    /// The inference output.
    pub output: SparseRows,
    /// Samples processed (may be fewer than requested when limits bind).
    pub samples: usize,
}

/// Errors from baseline platforms.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// Model does not fit the platform's memory.
    OutOfMemory {
        need_bytes: usize,
        limit_bytes: usize,
    },
    /// Request violates a platform quota (payload, runtime…).
    QuotaExceeded(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::OutOfMemory {
                need_bytes,
                limit_bytes,
            } => {
                write!(
                    f,
                    "model needs {need_bytes} bytes, platform has {limit_bytes}"
                )
            }
            BaselineError::QuotaExceeded(what) => write!(f, "quota exceeded: {what}"),
        }
    }
}

impl std::error::Error for BaselineError {}

/// Runs a server baseline. Executes the *real* inference (the output is
/// checked against ground truth by the harness) and models latency/cost.
pub fn run_server(
    dnn: &SparseDnn,
    inputs: &SparseRows,
    kind: ServerKind,
    instance: InstanceType,
    compute: &ComputeModel,
    timings: &ServerTimings,
) -> Result<PlatformReport, BaselineError> {
    let model_bytes = dnn.mem_bytes();
    let limit = instance.mem_gib as usize * 1024 * 1024 * 1024;
    // Headroom for activations/OS, as when the paper sizes its servers.
    if model_bytes * 10 / 8 > limit {
        return Err(BaselineError::OutOfMemory {
            need_bytes: model_bytes,
            limit_bytes: limit,
        });
    }
    let (output, trace) = dnn.serial_inference_traced(inputs);
    let compute_secs = compute.seconds_on_vcpus(trace.work, instance.vcpus as f64);
    let load_secs = match kind {
        ServerKind::AlwaysOnHot => 0.0,
        ServerKind::AlwaysOnCold => {
            timings.cold_init_secs + model_bytes as f64 / timings.ebs_bandwidth_bps as f64
        }
        ServerKind::JobScoped => {
            timings.provision_secs
                + timings.cold_init_secs
                + model_bytes as f64 / timings.s3_bandwidth_bps as f64
        }
    };
    let latency = timings.dispatch_secs + load_secs + compute_secs;
    let (cost_per_query, daily_fixed) = match kind {
        ServerKind::AlwaysOnHot | ServerKind::AlwaysOnCold => {
            // The paper provisions two instances for redundancy/overlap.
            (None, Some(2.0 * 24.0 * instance.hourly_usd))
        }
        ServerKind::JobScoped => {
            // Per-second billing with EC2's 60-second minimum.
            let billed_secs = latency.max(60.0);
            (Some(instance.hourly_usd * billed_secs / 3600.0), None)
        }
    };
    let label = match kind {
        ServerKind::AlwaysOnHot => "Server-Always-On-Hot",
        ServerKind::AlwaysOnCold => "Server-Always-On-Cold",
        ServerKind::JobScoped => "Server-Job-Scoped",
    };
    Ok(PlatformReport {
        platform: format!("{label} ({})", instance.name),
        latency_secs: latency,
        cost_per_query,
        daily_fixed_cost: daily_fixed,
        output,
        samples: inputs.width(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec};

    fn setup() -> (SparseDnn, SparseRows) {
        let dnn = generate_dnn(&DnnSpec {
            neurons: 128,
            layers: 4,
            nnz_per_row: 8,
            bias: -0.3,
            clip: 32.0,
            seed: 9,
        });
        let inputs = generate_inputs(128, &InputSpec::scaled(32, 9));
        (dnn, inputs)
    }

    #[test]
    fn hot_is_faster_than_cold_is_faster_than_job_scoped() {
        let (dnn, inputs) = setup();
        let cm = ComputeModel::default();
        let t = ServerTimings::default();
        let hot =
            run_server(&dnn, &inputs, ServerKind::AlwaysOnHot, C5_12XLARGE, &cm, &t).expect("fits");
        let cold = run_server(
            &dnn,
            &inputs,
            ServerKind::AlwaysOnCold,
            C5_12XLARGE,
            &cm,
            &t,
        )
        .expect("fits");
        let js =
            run_server(&dnn, &inputs, ServerKind::JobScoped, C5_2XLARGE, &cm, &t).expect("fits");
        assert!(hot.latency_secs < cold.latency_secs);
        assert!(cold.latency_secs < js.latency_secs);
        assert!(
            js.latency_secs > t.provision_secs,
            "job-scoped must pay provisioning"
        );
    }

    #[test]
    fn outputs_match_ground_truth() {
        let (dnn, inputs) = setup();
        let expected = dnn.serial_inference(&inputs);
        let r = run_server(
            &dnn,
            &inputs,
            ServerKind::AlwaysOnHot,
            C5_12XLARGE,
            &ComputeModel::default(),
            &ServerTimings::default(),
        )
        .expect("fits");
        assert_eq!(r.output, expected);
    }

    #[test]
    fn billing_modes() {
        let (dnn, inputs) = setup();
        let cm = ComputeModel::default();
        let t = ServerTimings::default();
        let hot =
            run_server(&dnn, &inputs, ServerKind::AlwaysOnHot, C5_12XLARGE, &cm, &t).expect("fits");
        assert!(hot.cost_per_query.is_none());
        assert!((hot.daily_fixed_cost.expect("fixed") - 2.0 * 24.0 * 2.04).abs() < 1e-9);
        let js =
            run_server(&dnn, &inputs, ServerKind::JobScoped, C5_2XLARGE, &cm, &t).expect("fits");
        let cost = js.cost_per_query.expect("per query");
        assert!(cost >= 0.34 * 60.0 / 3600.0, "minimum 60s billed");
        assert!(js.daily_fixed_cost.is_none());
    }

    #[test]
    fn oversized_model_rejected() {
        // A model bigger than c5.2xlarge's 16 GiB memory (with headroom).
        let spec = DnnSpec {
            neurons: 1 << 20,
            layers: 200,
            nnz_per_row: 10,
            bias: -0.3,
            clip: 32.0,
            seed: 0,
        };
        // Don't generate 2G nonzeros — construct a fake via mem estimate:
        // instead verify the check directly with a small dnn and a tiny box.
        // CSR: 8 bytes per nonzero plus an 8-byte row pointer per row.
        let csr_bytes = spec.total_nnz() * 8 + spec.layers * (spec.neurons + 1) * 8;
        assert!(csr_bytes > 16 * (1 << 30));
        let (dnn, inputs) = setup();
        let tiny = InstanceType {
            name: "tiny",
            vcpus: 2,
            mem_gib: 0,
            hourly_usd: 0.01,
        };
        let r = run_server(
            &dnn,
            &inputs,
            ServerKind::AlwaysOnHot,
            tiny,
            &ComputeModel::default(),
            &ServerTimings::default(),
        );
        assert!(matches!(r, Err(BaselineError::OutOfMemory { .. })));
    }

    #[test]
    fn job_scoped_instance_selection_follows_paper() {
        assert_eq!(job_scoped_instance(1024), C5_2XLARGE);
        assert_eq!(job_scoped_instance(4096), C5_2XLARGE);
        assert_eq!(job_scoped_instance(16384), C5_9XLARGE);
        assert_eq!(job_scoped_instance(65536), C5_12XLARGE);
    }
}
