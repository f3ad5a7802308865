//! The FaaS compute-time model.
//!
//! Lambda allocates vCPU proportionally to memory (1 vCPU per 1769 MB, up
//! to 10240 MB ≈ 5.8 vCPU) — the source of the cost-to-performance
//! trade-off the paper's cost model discusses. Work done by a worker is
//! counted in *work units* (multiply-adds, bytes decoded, …) by the actual
//! kernels; this model converts units to simulated seconds.

/// AWS-published memory-to-vCPU ratio (MB per vCPU).
const MB_PER_VCPU: f64 = 1769.0;

/// Lambda memory floor/ceiling (MB) at the time of the paper.
pub const MIN_MEMORY_MB: u32 = 128;
pub const MAX_MEMORY_MB: u32 = 10_240;

/// Lambda's default regional concurrency: the most instances one account
/// runs at once, so the widest worker tree a request can ask for.
pub const MAX_CONCURRENCY: u32 = 1_000;

/// Maximum function runtime (15 minutes) at the time of the paper.
pub const MAX_TIMEOUT_SECS: f64 = 900.0;

/// Largest request payload an asynchronous (`Event`) Invoke — the call
/// `LatencyModel::lambda_invoke_us` times — accepts, at the time of the
/// paper (256 KB).
pub const MAX_ASYNC_PAYLOAD_BYTES: usize = 256 * 1024;

/// Converts work units to simulated seconds given an instance size.
#[derive(Debug, Clone, Copy)]
pub struct ComputeModel {
    /// Work units per second on one full vCPU.
    pub units_per_sec_per_vcpu: f64,
    /// Parallelizable fraction of the workload (Amdahl) — batch inference
    /// parallelizes across samples on multi-vCPU instances/servers.
    pub parallel_fraction: f64,
}

impl Default for ComputeModel {
    fn default() -> Self {
        // ~250M sparse multiply-accumulates per second per vCPU: the order
        // of magnitude of index-chasing f32 SpGEMM on one cloud core.
        ComputeModel {
            units_per_sec_per_vcpu: 2.5e8,
            parallel_fraction: 0.85,
        }
    }
}

impl ComputeModel {
    /// Fractional vCPUs for a memory size.
    pub fn vcpus(memory_mb: u32) -> f64 {
        memory_mb as f64 / MB_PER_VCPU
    }

    /// Simulated seconds to execute `work` units at `memory_mb`.
    ///
    /// Below one vCPU the instance gets a proportional share of a core;
    /// above one vCPU, Amdahl's law with [`ComputeModel::parallel_fraction`]
    /// bounds the speed-up.
    pub fn seconds(&self, work: u64, memory_mb: u32) -> f64 {
        let v = Self::vcpus(memory_mb);
        let single = work as f64 / self.units_per_sec_per_vcpu;
        if v <= 1.0 {
            single / v.max(1e-3)
        } else {
            single * ((1.0 - self.parallel_fraction) + self.parallel_fraction / v)
        }
    }

    /// Simulated seconds on an explicit vCPU count (server baselines).
    pub fn seconds_on_vcpus(&self, work: u64, vcpus: f64) -> f64 {
        let single = work as f64 / self.units_per_sec_per_vcpu;
        if vcpus <= 1.0 {
            single / vcpus.max(1e-3)
        } else {
            single * ((1.0 - self.parallel_fraction) + self.parallel_fraction / vcpus)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vcpus_match_aws_ratio() {
        assert!((ComputeModel::vcpus(1769) - 1.0).abs() < 1e-9);
        assert!((ComputeModel::vcpus(10_240) - 5.788).abs() < 0.01);
        assert!(ComputeModel::vcpus(128) < 0.1);
    }

    #[test]
    fn sub_vcpu_instances_slow_proportionally() {
        let m = ComputeModel::default();
        let half = m.seconds(1_000_000, (MB_PER_VCPU / 2.0) as u32);
        let full = m.seconds(1_000_000, MB_PER_VCPU as u32);
        assert!(
            (half / full - 2.0).abs() < 0.01,
            "half-vCPU should be ~2x slower"
        );
    }

    #[test]
    fn amdahl_limits_multicore_speedup() {
        let m = ComputeModel::default();
        let one = m.seconds_on_vcpus(1_000_000_000, 1.0);
        let many = m.seconds_on_vcpus(1_000_000_000, 48.0);
        let speedup = one / many;
        assert!(
            speedup > 4.0,
            "48 cores should speed up > 4x, got {speedup:.1}"
        );
        assert!(
            speedup < 48.0 / 2.0,
            "speedup {speedup:.1} ignores serial fraction"
        );
    }

    #[test]
    fn more_memory_is_never_slower() {
        let m = ComputeModel::default();
        let mut last = f64::INFINITY;
        for mb in [256u32, 512, 1024, 1769, 4096, 10_240] {
            let t = m.seconds(10_000_000, mb);
            assert!(t <= last + 1e-12, "seconds({mb}) regressed");
            last = t;
        }
    }

    #[test]
    fn zero_work_costs_nothing() {
        let m = ComputeModel::default();
        assert_eq!(m.seconds(0, 1024), 0.0);
    }
}
