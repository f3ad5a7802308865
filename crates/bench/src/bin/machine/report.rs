//! What a run reports: the metric tables, the result record, its file
//! form (what `--compare` reads) and the one-line form the driver reads.

use crate::json::Value;
use fsd_comm::CloudEnv;

/// Which ledger a number is on: **host** is what the Rust costs on this
/// CPU; **virt** is what the modelled cloud reports, and must not move
/// when only the simulator gets faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ledger {
    Host,
    Virt,
    /// A count or share that is the same on both.
    Both,
}

impl Ledger {
    pub fn label(self) -> &'static str {
        match self {
            Ledger::Host => "host",
            Ledger::Virt => "virt",
            Ledger::Both => "both",
        }
    }
}

/// `(name, unit, ledger)` of every end-to-end metric, as in
/// `BENCHMARK.json`. `failed_share` is not among them because the
/// contract wants metrics that are never 0; it travels as the
/// `attempted`/`failed` counts instead.
pub const END_TO_END: [(&str, &str, Ledger); 8] = [
    ("setup_s", "s", Ledger::Host),
    ("host_rps", "req/s", Ledger::Host),
    ("host_cpu_ms_per_req", "ms", Ledger::Host),
    ("host_peak_rss_mb", "MB", Ledger::Host),
    ("virt_latency_ms_mean", "ms", Ledger::Virt),
    ("virt_latency_ms_p90", "ms", Ledger::Virt),
    ("virt_cost_uusd_per_req", "uUSD", Ledger::Virt),
    ("virt_rps", "req/s", Ledger::Virt),
];

/// The four channel transports, by provider name.
pub const TRANSPORT_NAMES: [&str; 4] = ["queue", "object", "hybrid", "direct"];

/// `(name, unit, ledger)` of every per-layer metric that does not carry a
/// transport name; [`per_layer`] adds the per-transport ones.
const PER_LAYER_FIXED: [(&str, &str, Ledger); 60] = [
    ("sparse.ops.accumulate_ns_per_unit", "ns", Ledger::Host),
    ("sparse.ops.finalize_ns_per_row", "ns", Ledger::Host),
    ("sparse.ops.from_layer_ms", "ms", Ledger::Host),
    ("sparse.rows.extract_ns_per_nnz", "ns", Ledger::Host),
    ("sparse.rows.merge_ns_per_nnz", "ns", Ledger::Host),
    ("sparse.codec.encode_ns_per_byte", "ns", Ledger::Host),
    ("sparse.codec.decode_ns_per_byte", "ns", Ledger::Host),
    ("sparse.compress.compress_ns_per_byte", "ns", Ledger::Host),
    ("sparse.compress.decompress_ns_per_byte", "ns", Ledger::Host),
    ("sparse.compress.ratio", "ratio", Ledger::Both),
    ("sparse.kernel_ms_per_req", "ms", Ledger::Host),
    ("sparse.pack_ms_per_req", "ms", Ledger::Host),
    ("model.generate_ms", "ms", Ledger::Host),
    ("model.serial_inference_ms", "ms", Ledger::Host),
    ("partition.hgp_ms", "ms", Ledger::Host),
    ("partition.commplan_ms", "ms", Ledger::Host),
    ("partition.cut_row_sends", "count", Ledger::Both),
    ("partition.imbalance", "ratio", Ledger::Both),
    ("comm.queue.enqueue_ns", "ns", Ledger::Host),
    ("comm.queue.take_settle_ns", "ns", Ledger::Host),
    ("comm.pubsub.publish_batch_ns", "ns", Ledger::Host),
    ("comm.object.put_ns", "ns", Ledger::Host),
    ("comm.object.get_ns", "ns", Ledger::Host),
    ("comm.object.scan_ns", "ns", Ledger::Host),
    ("comm.direct.send_ns", "ns", Ledger::Host),
    ("comm.direct.fetch_ns", "ns", Ledger::Host),
    ("comm.stream.send_block_ns", "ns", Ledger::Host),
    ("comm.api_calls_per_req", "count", Ledger::Virt),
    ("comm.bytes_per_req", "B", Ledger::Virt),
    ("comm.empty_poll_share", "ratio", Ledger::Virt),
    ("faas.invoke_join_us", "us", Ledger::Host),
    ("faas.invocations_per_req", "count", Ledger::Virt),
    ("faas.billed_ms_per_req", "ms", Ledger::Virt),
    ("faas.peak_mem_mb", "MB", Ledger::Virt),
    ("core.wire.encode_csr_ns_per_byte", "ns", Ledger::Host),
    ("core.wire.decode_csr_ns_per_byte", "ns", Ledger::Host),
    ("core.weights.s3_gets_per_req", "count", Ledger::Virt),
    ("core.weights.cache_hit_share", "ratio", Ledger::Both),
    ("core.service.submit_ms_p50", "ms", Ledger::Host),
    ("core.service.submit_ms_p90", "ms", Ledger::Host),
    ("core.service.submit_samples", "count", Ledger::Both),
    ("core.service.build_ms", "ms", Ledger::Host),
    ("core.service.warm_floor_us", "us", Ledger::Host),
    ("core.service.cold_floor_us", "us", Ledger::Host),
    ("core.service.wall_over_kernel", "ratio", Ledger::Host),
    ("core.service.rank_skew", "ratio", Ledger::Virt),
    ("core.service.virt_replay_drift_ppm", "ppm", Ledger::Virt),
    ("core.pool.warm_hit_share", "ratio", Ledger::Both),
    ("core.cost.predicted_over_actual", "ratio", Ledger::Virt),
    ("sched.enqueue_us", "us", Ledger::Host),
    ("sched.dispatch_us", "us", Ledger::Host),
    ("sched.predictor.observe_ns", "ns", Ledger::Host),
    ("sched.coalesced_share", "ratio", Ledger::Both),
    ("sched.warm_hit_share", "ratio", Ledger::Both),
    ("sched.rejected_share", "ratio", Ledger::Both),
    ("sched.replay_scaling_ratio", "ratio", Ledger::Host),
    ("host.calibration_ms", "ms", Ledger::Host),
    ("host.alloc.count_per_req", "count", Ledger::Host),
    ("host.alloc.bytes_per_req", "B", Ledger::Host),
    ("host.trace_overhead_share", "ratio", Ledger::Host),
];

/// Per-transport metric stems: `core.channel.<v>.<stem>` and
/// `core.service.submit_ms_p50.<v>`.
const CHANNEL_STEMS: [(&str, &str, Ledger); 4] = [
    ("roundtrip_us", "us", Ledger::Host),
    ("barrier_us", "us", Ledger::Host),
    ("frames_per_req", "count", Ledger::Virt),
    ("retries_per_req", "count", Ledger::Virt),
];

/// `(name, unit, ledger)` of every per-layer metric, as in `BENCHMARK.json`.
pub fn per_layer() -> Vec<(String, &'static str, Ledger)> {
    let mut out: Vec<(String, &'static str, Ledger)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u, l)| (n.to_string(), u, l))
        .collect();
    for v in TRANSPORT_NAMES {
        for (stem, unit, ledger) in CHANNEL_STEMS {
            out.push((format!("core.channel.{v}.{stem}"), unit, ledger));
        }
        out.push((
            format!("core.service.submit_ms_p50.{v}"),
            "ms",
            Ledger::Host,
        ));
    }
    out
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub ledger: Ledger,
    /// Printed beside the value (sample counts and the like).
    pub note: String,
    /// Quartile spread of the samples within this run the value was taken
    /// from (segments, set-ups), when there were any: what one run knows
    /// about its own steadiness.
    pub spread: Option<f64>,
}

/// Attempted and failed operations of one phase of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    pub fn new(name: &'static str) -> Phase {
        Phase {
            name,
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one operation; a failure is explained on stderr.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("FAILED [{}]: {why}", self.name);
        }
    }

    /// Counts one check that must hold; `why` explains a failure.
    pub fn check(&mut self, holds: bool, why: impl FnOnce() -> String) {
        self.record(if holds { Ok(()) } else { Err(why()) });
    }

    /// Counts one residue audit of a quiescent region: per-request queues,
    /// subscriptions, objects, connections and billing flows must be gone
    /// (what `CloudEnv::assert_no_residue` asserts, counted not panicked).
    pub fn audit(&mut self, what: &str, env: &CloudEnv) {
        let residue = env.residue_report();
        self.check(residue.is_empty(), || {
            format!("{what} residue: {}", residue.join("; "))
        });
    }
}

/// Everything one `--workload` run measured.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Noise-guard readings before and after the workload.
    pub calibration_ms: (f64, f64),
    pub phases: Vec<Phase>,
    metrics: Vec<Metric>,
}

impl RunResult {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            calibration_ms: (0.0, 0.0),
            phases: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a metric; its unit and ledger come from the tables above.
    ///
    /// # Panics
    /// On a name that is in neither table or that was already recorded.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_noted(name, value, String::new());
    }

    pub fn put_noted(&mut self, name: &str, value: f64, note: String) {
        self.record(name, value, note, None);
    }

    /// Records a metric taken from several samples within this run, with
    /// their quartile spread (`stats::quartile_spread`) beside it.
    pub fn put_sampled(&mut self, name: &str, value: f64, samples: &[f64], note: String) {
        let spread = crate::stats::quartile_spread(samples);
        self.record(name, value, note, Some(spread));
    }

    fn record(&mut self, name: &str, value: f64, note: String, spread: Option<f64>) {
        let known = if self.trace {
            per_layer().into_iter().find(|(n, _, _)| n == name)
        } else {
            END_TO_END
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(n, u, l)| (n.to_string(), u, l))
        };
        let (_, unit, ledger) = known.unwrap_or_else(|| panic!("unknown metric {name}"));
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            ledger,
            note,
            spread,
        });
    }

    /// Records every `(name, value)` pair of a probe.
    pub fn put_all<N: AsRef<str>>(&mut self, metrics: impl IntoIterator<Item = (N, f64)>) {
        for (name, value) in metrics {
            self.put(name.as_ref(), value);
        }
    }

    /// Fills every metric of this run's table that nothing recorded with 0
    /// — a per-layer metric of a module the workload never enters — and
    /// puts the metrics in table order.
    pub fn complete(&mut self) {
        let names: Vec<String> = if self.trace {
            per_layer().into_iter().map(|(n, _, _)| n).collect()
        } else {
            END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect()
        };
        for name in &names {
            if self.metrics.iter().all(|m| &m.name != name) {
                self.put_noted(name, 0.0, "not exercised by this workload".into());
            }
        }
        self.metrics
            .sort_by_key(|m| names.iter().position(|n| *n == m.name));
    }

    #[cfg(test)]
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The noise guard: the two calibration readings differ by more than
    /// a tenth, so host metrics of this run cannot be trusted.
    pub fn noisy(&self) -> bool {
        let (before, after) = self.calibration_ms;
        (before - after).abs() > 0.1 * before.min(after)
    }

    /// Prints every metric by name with its unit and ledger, then the
    /// per-phase counts.
    pub fn print(&self) {
        println!(
            "# machine: workload={} seed={} seconds={} trace={} nproc={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            crate::host::nproc()
        );
        for m in &self.metrics {
            let spread = m
                .spread
                .map_or(String::new(), |s| format!(" (spread {:.1} %)", s * 100.0));
            println!(
                "{:<44} {:>16.6} {:<6} [{}] {}{spread}",
                m.name,
                m.value,
                m.unit,
                m.ledger.label(),
                m.note
            );
        }
        for p in &self.phases {
            println!(
                "phase {:<10} attempted={} succeeded={} failed={}",
                p.name,
                p.attempted,
                p.attempted - p.failed,
                p.failed
            );
        }
        println!(
            "calibration_ms before={:.3} after={:.3}{}",
            self.calibration_ms.0,
            self.calibration_ms.1,
            if self.noisy() { "  NOISY" } else { "" }
        );
    }

    /// `{name: {value, unit}}`; a result file also keeps each metric's
    /// within-run spread, which the driver's line has no key for.
    fn metrics_json(&self, with_spread: bool) -> Value {
        Value::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut fields = vec![
                        ("value".into(), Value::Num(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ];
                    if let (true, Some(spread)) = (with_spread, m.spread) {
                        fields.push(("spread".into(), Value::Num(spread)));
                    }
                    (m.name.clone(), Value::Obj(fields))
                })
                .collect(),
        )
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn contract_line(&self) -> String {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.failed() == 0)),
            ("attempted".into(), Value::Num(self.attempted() as f64)),
            ("failed".into(), Value::Num(self.failed() as f64)),
            ("metrics".into(), self.metrics_json(false)),
        ])
        .to_string()
    }

    /// The record a result file holds for this run.
    pub fn to_json(&self) -> Value {
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(p.name.into())),
                    ("attempted".into(), Value::Num(p.attempted as f64)),
                    ("failed".into(), Value::Num(p.failed as f64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("seconds".into(), Value::Num(self.seconds as f64)),
            ("trace".into(), Value::Bool(self.trace)),
            ("nproc".into(), Value::Num(crate::host::nproc() as f64)),
            ("noisy".into(), Value::Bool(self.noisy())),
            (
                "calibration_ms".into(),
                Value::Arr(vec![
                    Value::Num(self.calibration_ms.0),
                    Value::Num(self.calibration_ms.1),
                ]),
            ),
            ("attempted".into(), Value::Num(self.attempted() as f64)),
            ("failed".into(), Value::Num(self.failed() as f64)),
            ("phases".into(), Value::Arr(phases)),
            ("metrics".into(), self.metrics_json(true)),
        ])
    }
}

/// A result file: the runs of one invocation.
pub fn result_file(runs: Vec<Value>) -> Value {
    Value::Obj(vec![
        ("machine".into(), Value::Num(1.0)),
        ("runs".into(), Value::Arr(runs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` at the repository root, five directories up.
    const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String)> {
        let bench = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        bench
            .get(section)
            .and_then(Value::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = declared_workloads();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    fn declared_workloads() -> Vec<String> {
        let bench = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        bench
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn complete_fills_the_table_in_order() {
        let mut r = RunResult::new("comm_bound", 42, 1, true);
        r.put("host.calibration_ms", 3.5);
        r.put("sparse.compress.ratio", 2.0);
        r.complete();
        let names: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        let got: Vec<&str> = r.metrics().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(got, names.iter().map(String::as_str).collect::<Vec<_>>());
        let cal = r.metrics().iter().find(|m| m.name == "host.calibration_ms");
        assert_eq!(cal.map(|m| m.value), Some(3.5));
    }

    #[test]
    fn noise_guard_trips_past_a_tenth() {
        let mut r = RunResult::new("comm_bound", 42, 1, false);
        r.calibration_ms = (100.0, 109.0);
        assert!(!r.noisy());
        r.calibration_ms = (100.0, 111.0);
        assert!(r.noisy());
        r.calibration_ms = (111.0, 100.0);
        assert!(r.noisy());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut r = RunResult::new("comm_bound", 42, 1, false);
        r.phases.push(Phase {
            name: "timed",
            attempted: 10,
            failed: 0,
        });
        r.put("setup_s", 0.25);
        let line = json::parse(&r.contract_line()).expect("parses");
        let Value::Obj(fields) = &line else {
            panic!("object expected")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("attempted").and_then(Value::as_f64), Some(10.0));
        let setup = line.get("metrics").and_then(|m| m.get("setup_s"));
        assert_eq!(
            setup.and_then(|m| m.get("unit")).and_then(Value::as_str),
            Some("s")
        );
    }
}
