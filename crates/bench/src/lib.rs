//! # fsd-bench — the benchmark harness
//!
//! One binary per table/figure of the paper's evaluation (Section VI), plus
//! the `machine` host benchmark (`src/bin/machine/README.md`). Binaries
//! print the same rows/series the paper reports; run them with `--paper-scale` to use the published parameter
//! grid (N up to 65536, L = 120, 10 000-sample batches — slow and
//! memory-hungry) or at the reduced default scale that preserves the
//! shapes (who wins, crossovers).
#![forbid(unsafe_code)]

use fsd_core::{
    EngineConfig, FsdService, InferenceReport, InferenceRequest, ServiceBuilder, Variant,
};
use fsd_faas::ComputeModel;
use fsd_model::{generate_dnn, generate_inputs, DnnSpec, InputSpec, SparseDnn};
use fsd_sparse::SparseRows;
use std::sync::Arc;

/// Experiment scale, selected by the `--paper-scale` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced grid: N ∈ {256, 1024, 4096}, L = 24, 256-sample batches,
    /// P ∈ {2, 4, 8, 12}.
    Scaled,
    /// The published grid: N ∈ {1024, 4096, 16384, 65536}, L = 120,
    /// 10 000-sample batches, P ∈ {8, 20, 42, 62}.
    Paper,
}

impl Scale {
    /// Parses process arguments (`--paper-scale` selects [`Scale::Paper`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--paper-scale") {
            Scale::Paper
        } else {
            Scale::Scaled
        }
    }

    /// The neuron-count grid.
    pub fn neuron_grid(self) -> Vec<usize> {
        match self {
            Scale::Scaled => vec![256, 1024, 4096],
            Scale::Paper => vec![1024, 4096, 16384, 65536],
        }
    }

    /// The worker-parallelism grid.
    pub fn worker_grid(self) -> Vec<u32> {
        match self {
            Scale::Scaled => vec![2, 4, 8, 12],
            Scale::Paper => vec![8, 20, 42, 62],
        }
    }

    /// Batch size (samples per query).
    pub fn batch(self) -> usize {
        match self {
            Scale::Scaled => 256,
            Scale::Paper => 10_000,
        }
    }

    /// Model spec for a neuron count at this scale.
    pub fn spec(self, neurons: usize, seed: u64) -> DnnSpec {
        match self {
            Scale::Scaled => DnnSpec::scaled(neurons, seed),
            Scale::Paper => DnnSpec::paper(neurons, seed),
        }
    }

    /// The compute model at this scale.
    ///
    /// The reduced grid shrinks models ~100x (fewer layers, fewer weights,
    /// smaller batches), which would make compute trivially cheap next to
    /// the *unchanged* cloud latencies and erase the paper's compute/
    /// communication trade-offs. The scaled rate is therefore lowered by
    /// the same factor, keeping the regime (and hence who wins where)
    /// faithful. Used consistently for FSD and every baseline platform.
    pub fn compute(self) -> ComputeModel {
        match self {
            Scale::Scaled => ComputeModel {
                units_per_sec_per_vcpu: 2.5e6,
                ..ComputeModel::default()
            },
            Scale::Paper => ComputeModel::default(),
        }
    }

    /// Engine configuration at this scale (deterministic region).
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        let mut cfg = EngineConfig::deterministic(seed);
        cfg.compute = self.compute();
        cfg
    }

    /// Worker memory (MB) for a neuron count — the paper's M map for the
    /// published grid, one-vCPU instances at reduced scale.
    pub fn worker_memory_mb(self, neurons: usize) -> u32 {
        match self {
            Scale::Scaled => 1769,
            Scale::Paper => match neurons {
                n if n <= 1024 => 1000,
                n if n <= 4096 => 1500,
                n if n <= 16384 => 2000,
                _ => 4000,
            },
        }
    }
}

/// A prepared workload: model + inputs + ground truth.
pub struct Workload {
    pub spec: DnnSpec,
    pub dnn: Arc<SparseDnn>,
    pub inputs: SparseRows,
    pub expected: SparseRows,
}

/// Builds the workload for one neuron count.
pub fn workload(scale: Scale, neurons: usize, seed: u64) -> Workload {
    let spec = scale.spec(neurons, seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(scale.batch(), seed));
    let expected = dnn.serial_inference(&inputs);
    Workload {
        spec,
        dnn,
        inputs,
        expected,
    }
}

/// Like [`workload`] but with an explicit batch size.
pub fn workload_with_batch(scale: Scale, neurons: usize, batch: usize, seed: u64) -> Workload {
    let spec = scale.spec(neurons, seed);
    let dnn = Arc::new(generate_dnn(&spec));
    let inputs = generate_inputs(spec.neurons, &InputSpec::scaled(batch, seed));
    let expected = dnn.serial_inference(&inputs);
    Workload {
        spec,
        dnn,
        inputs,
        expected,
    }
}

/// Runs one FSD-Inference configuration and verifies the output against
/// ground truth (panicking on mismatch — a wrong benchmark is worthless).
pub fn run_checked(
    service: &FsdService,
    workload: &Workload,
    variant: Variant,
    workers: u32,
    memory_mb: u32,
) -> InferenceReport {
    let report = service
        .submit(&InferenceRequest {
            variant,
            workers,
            memory_mb,
            inputs: workload.inputs.clone(),
        })
        // fsd_lint::allow(no-unwrap): the bench harness aborts on any
        // submit failure by design — a broken run must not produce numbers.
        .unwrap_or_else(|e| panic!("{variant} P={workers}: {e}"));
    assert_eq!(
        report.first_output(),
        &workload.expected,
        "{variant} P={workers} wrong output"
    );
    report
}

/// Median of three runs by latency (the paper reports medians of 3).
pub fn median_of_3(
    service: &FsdService,
    workload: &Workload,
    variant: Variant,
    workers: u32,
    memory_mb: u32,
) -> InferenceReport {
    let mut runs: Vec<InferenceReport> = (0..3)
        .map(|_| run_checked(service, workload, variant, workers, memory_mb))
        .collect();
    runs.sort_by_key(|a| a.latency);
    runs.swap_remove(1)
}

/// Fresh service over a deterministic region for a workload at a scale.
pub fn engine_for(workload: &Workload, scale: Scale, seed: u64) -> FsdService {
    ServiceBuilder::new(workload.dnn.clone())
        .config(scale.engine_config(seed))
        .build()
}

/// Plain-text table printer with right-aligned numeric columns.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table with a title.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }
}

pub mod gate;

/// Formats dollars with enough precision for per-sample figures.
pub fn usd(v: f64) -> String {
    if v >= 0.01 {
        format!("${v:.2}")
    } else {
        format!("${v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_grids() {
        assert_eq!(Scale::Paper.neuron_grid(), vec![1024, 4096, 16384, 65536]);
        assert_eq!(Scale::Paper.worker_grid(), vec![8, 20, 42, 62]);
        assert_eq!(Scale::Paper.batch(), 10_000);
        assert_eq!(Scale::Scaled.batch(), 256);
        assert_eq!(Scale::Paper.worker_memory_mb(65536), 4000);
        assert_eq!(Scale::Paper.worker_memory_mb(1024), 1000);
        assert_eq!(Scale::Scaled.worker_memory_mb(1024), 1769);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("12345"));
        // All data lines equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn usd_formatting() {
        assert_eq!(usd(1.5), "$1.50");
        assert_eq!(usd(0.000012), "$0.000012");
    }

    #[test]
    fn run_checked_round_trips_tiny_workload() {
        let w = workload_with_batch(Scale::Scaled, 256, 8, 3);
        let service = engine_for(&w, Scale::Scaled, 3);
        let r = run_checked(&service, &w, Variant::Serial, 1, 2048);
        assert_eq!(r.first_output(), &w.expected);
    }
}
