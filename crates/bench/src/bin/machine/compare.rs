//! `machine --compare A.json[,A2.json…] B.json[,B2.json…]`: per workload ×
//! end-to-end metric, the median of each side's runs, the ratio with its
//! base, each side's spread, and a verdict against the bound
//! `BENCHMARK.json` fixes.
//!
//! A host metric is only decided on evidence that can decide it: runs the
//! noise guard marked `noisy` are left out of host medians, and a side
//! whose spread exceeds the bound leaves the metric UNRESOLVED. A side's
//! spread is the quartile spread of its runs' values, or — with one run —
//! what that run recorded about its own segments and set-ups.

use crate::json::{self, Value};
use crate::report::{Ledger, END_TO_END};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    /// A host metric whose runs cannot decide it: every run of a side was
    /// `noisy`, or a side's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// How an end-to-end metric may move, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn bounds_from(benchmark: &Value) -> Result<Vec<Bound>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

/// The share of the base by which `new` is worse than `base` (negative
/// when it is better).
pub fn worsening(base: f64, new: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        base - new
    } else {
        new - base
    };
    delta / base.abs().max(f64::MIN_POSITIVE)
}

/// One side's evidence for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evidence {
    /// Median over the side's usable runs.
    pub value: f64,
    /// Quartile spread over those runs; with one run, its recorded
    /// within-run spread.
    pub spread: f64,
    /// False when a host metric has no quiet run to stand on (the value is
    /// then the median over the noisy ones, for the record).
    pub usable: bool,
}

pub fn verdict(base: &Evidence, new: &Evidence, bound: &Bound, host: bool) -> Verdict {
    let open = !base.usable || !new.usable || base.spread > bound.bound || new.spread > bound.bound;
    if host && open {
        Verdict::Unresolved
    } else if worsening(base.value, new.value, bound.higher_is_better) > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

/// The `--trace 0` runs of one side's result files, grouped by workload
/// in order of first appearance.
fn runs_of(files: &[Value]) -> Result<Vec<(&str, Vec<&Value>)>, String> {
    let mut out: Vec<(&str, Vec<&Value>)> = Vec::new();
    for file in files {
        let runs = file
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or("not a machine result file: no runs")?;
        for run in runs {
            if run.get("trace").and_then(Value::as_bool) != Some(false) {
                continue;
            }
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("run without a workload")?;
            match out.iter_mut().find(|(w, _)| *w == workload) {
                Some((_, of)) => of.push(run),
                None => out.push((workload, vec![run])),
            }
        }
    }
    Ok(out)
}

fn field(run: &Value, name: &str, key: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get(key)?.as_f64()
}

fn count(run: &Value, key: &str) -> f64 {
    run.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn is_noisy(run: &Value) -> bool {
    run.get("noisy").and_then(Value::as_bool) == Some(true)
}

/// What `runs` say about metric `name`; a host metric listens to quiet
/// runs only.
fn evidence(runs: &[&Value], name: &str, host: bool) -> Result<Evidence, String> {
    let quiet: Vec<&Value> = runs.iter().copied().filter(|r| !is_noisy(r)).collect();
    let usable = !host || !quiet.is_empty();
    let of = if host && usable { &quiet[..] } else { runs };
    let mut values = of
        .iter()
        .map(|r| field(r, name, "value").ok_or(format!("metric {name} is missing")))
        .collect::<Result<Vec<f64>, String>>()?;
    let spread = match of {
        [one] => field(one, name, "spread").unwrap_or(0.0),
        _ => stats::quartile_spread(&values),
    };
    Ok(Evidence {
        value: stats::median(&mut values),
        spread,
        usable,
    })
}

/// Compares two sides, each the parsed result files of one or more
/// invocations; prints one row per workload × metric. `Ok(true)` when
/// nothing regressed; an error when a side has no runs or the two sides
/// do not hold the same workloads.
pub fn compare(base: &[Value], new: &[Value], bounds: &[Bound]) -> Result<bool, String> {
    let (base_runs, new_runs) = (runs_of(base)?, runs_of(new)?);
    for (side, runs) in [("A", &base_runs), ("B", &new_runs)] {
        if runs.is_empty() {
            return Err(format!(
                "{side} holds no --trace 0 runs: nothing to compare"
            ));
        }
    }
    for (here, there, missing_from) in [(&base_runs, &new_runs, "B"), (&new_runs, &base_runs, "A")]
    {
        if let Some((w, _)) = here.iter().find(|(w, _)| there.iter().all(|(t, _)| t != w)) {
            return Err(format!("workload {w} is missing from {missing_from}"));
        }
    }
    let mut clean = true;
    println!(
        "{:<14} {:<24} {:>14} {:>14} {:>8} {:>8} {:>8}  {:<10} bound",
        "workload", "metric", "A (base)", "B", "B/A", "spread A", "spread B", "verdict"
    );
    for (workload, a) in &base_runs {
        let (_, b) = new_runs
            .iter()
            .find(|(w, _)| w == workload)
            .expect("the two sides hold the same workloads");
        let quiet = |runs: &[&Value]| runs.iter().filter(|r| !is_noisy(r)).count();
        println!(
            "{workload}: A {} runs ({} quiet), B {} runs ({} quiet)",
            a.len(),
            quiet(a),
            b.len(),
            quiet(b)
        );
        for bound in bounds {
            let host = END_TO_END
                .iter()
                .any(|(n, _, l)| *n == bound.name && *l == Ledger::Host);
            let side = |runs: &[&Value]| {
                evidence(runs, &bound.name, host).map_err(|e| format!("{workload}: {e}"))
            };
            let (ea, eb) = (side(a)?, side(b)?);
            let v = verdict(&ea, &eb, bound, host);
            clean &= v != Verdict::Regressed;
            println!(
                "{:<14} {:<24} {:>14.6} {:>14.6} {:>8.4} {:>7.2}% {:>7.2}%  {:<10} {}{}%",
                workload,
                bound.name,
                ea.value,
                eb.value,
                eb.value / ea.value,
                ea.spread * 100.0,
                eb.spread * 100.0,
                v.label(),
                if bound.higher_is_better { "-" } else { "+" },
                bound.bound * 100.0
            );
        }
        // Any increase in the share of failed operations is a regression.
        let share = |runs: &[&Value]| {
            let sum = |key: &str| runs.iter().map(|r| count(r, key)).sum::<f64>();
            sum("failed") / sum("attempted").max(1.0)
        };
        let (fa, fb) = (share(a), share(b));
        let v = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Pass
        };
        clean &= v != Verdict::Regressed;
        println!(
            "{:<14} {:<24} {:>14.6} {:>14.6} {:>8} {:>8} {:>8}  {:<10} any increase",
            workload,
            "failed_share",
            fa,
            fb,
            "-",
            "-",
            "-",
            v.label()
        );
    }
    Ok(clean)
}

/// Reads the two sides (each a comma-separated list of result files) and
/// `BENCHMARK.json`, compares, and returns the process exit code: 0 clean,
/// 1 regressed, 2 unusable input.
pub fn run(a: &str, b: &str, benchmark: &str) -> u8 {
    let read = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let read_side = |paths: &str| paths.split(',').map(read).collect::<Result<Vec<_>, _>>();
    let outcome = (|| {
        let bounds = bounds_from(&read(benchmark)?)?;
        compare(&read_side(a)?, &read_side(b)?, &bounds)
    })();
    match outcome {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("machine --compare: at least one metric REGRESSED");
            1
        }
        Err(e) => {
            eprintln!("machine --compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{result_file, Phase, RunResult};

    /// A result file with one `comm_bound` run, through text, as
    /// `--compare` reads it. `segment_rps` are the segment rates behind
    /// `host_rps`.
    fn run_with(segment_rps: &[f64], latency: f64, calibration: (f64, f64), failed: u64) -> Value {
        run_of("comm_bound", segment_rps, latency, calibration, failed)
    }

    fn run_of(
        workload: &str,
        segment_rps: &[f64],
        latency: f64,
        calibration: (f64, f64),
        failed: u64,
    ) -> Value {
        let mut r = RunResult::new(workload, 42, 1, false);
        r.calibration_ms = calibration;
        r.phases.push(Phase {
            name: "timed",
            attempted: 100,
            failed,
        });
        let rps = stats::median(&mut segment_rps.to_vec());
        r.put_sampled("host_rps", rps, segment_rps, String::new());
        r.put("virt_latency_ms_mean", latency);
        json::parse(&result_file(vec![r.to_json()]).to_string()).expect("writer output parses")
    }

    const QUIET: (f64, f64) = (30.0, 30.0);

    fn bounds() -> Vec<Bound> {
        vec![
            Bound {
                name: "host_rps".into(),
                higher_is_better: true,
                bound: 0.10,
            },
            Bound {
                name: "virt_latency_ms_mean".into(),
                higher_is_better: false,
                bound: 0.01,
            },
        ]
    }

    #[test]
    fn writer_round_trips_through_the_reader() {
        let file = [run_with(&[36.0, 36.5, 37.0], 2007.155, (30.0, 30.5), 0)];
        let runs = runs_of(&file).expect("a result file");
        assert_eq!(runs.len(), 1);
        let (workload, of) = &runs[0];
        assert_eq!((*workload, of.len()), ("comm_bound", 1));
        assert_eq!(field(of[0], "host_rps", "value"), Some(36.5));
        assert_eq!(
            field(of[0], "host_rps", "spread"),
            Some(stats::quartile_spread(&[36.0, 36.5, 37.0]))
        );
        assert_eq!(
            field(of[0], "virt_latency_ms_mean", "value"),
            Some(2007.155)
        );
        assert_eq!(field(of[0], "virt_latency_ms_mean", "spread"), None);
        assert!(!is_noisy(of[0]));
        assert_eq!(count(of[0], "attempted"), 100.0);
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let b = bounds();
        let steady = |value| Evidence {
            value,
            spread: 0.02,
            usable: true,
        };
        let v = |base, new, bound, host| verdict(&steady(base), &steady(new), bound, host);
        // Throughput: 9 % lower passes, 11 % lower regresses, higher passes.
        assert_eq!(v(100.0, 91.0, &b[0], true), Verdict::Pass);
        assert_eq!(v(100.0, 89.0, &b[0], true), Verdict::Regressed);
        assert_eq!(v(100.0, 150.0, &b[0], true), Verdict::Pass);
        // Latency: lower is better.
        assert_eq!(v(100.0, 100.9, &b[1], false), Verdict::Pass);
        assert_eq!(v(100.0, 101.1, &b[1], false), Verdict::Regressed);
        // A side that is wider than the bound, or has no quiet run, leaves
        // a host metric open — whichever side it is, whichever way the
        // values point — and a virtual one decided.
        let wide = Evidence {
            spread: 0.3,
            ..steady(100.0)
        };
        let deaf = Evidence {
            usable: false,
            ..steady(100.0)
        };
        for shaky in [wide, deaf] {
            assert_eq!(
                verdict(&shaky, &steady(50.0), &b[0], true),
                Verdict::Unresolved
            );
            assert_eq!(
                verdict(&steady(50.0), &shaky, &b[0], true),
                Verdict::Unresolved
            );
            assert_eq!(
                verdict(&shaky, &steady(102.0), &b[1], false),
                Verdict::Regressed
            );
        }
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let steady = |rps: f64| [rps - 1.0, rps, rps + 1.0];
        let base = [run_with(&steady(100.0), 50.0, QUIET, 0)];
        let b = bounds();
        let against = |new: Value| compare(&base, &[new], &b);
        assert_eq!(against(run_with(&steady(95.0), 50.2, QUIET, 0)), Ok(true));
        assert_eq!(against(run_with(&steady(80.0), 50.0, QUIET, 0)), Ok(false));
        // The same drop is unresolved, not regressed, under a tripped
        // noise guard or when the run's own segments are 30 % apart; a
        // failed request always regresses.
        assert_eq!(
            against(run_with(&steady(80.0), 50.0, (30.0, 40.0), 0)),
            Ok(true)
        );
        assert_eq!(
            against(run_with(&[70.0, 80.0, 95.0], 50.0, QUIET, 0)),
            Ok(true)
        );
        assert_eq!(against(run_with(&steady(100.0), 50.0, QUIET, 1)), Ok(false));
    }

    #[test]
    fn several_runs_a_side_compare_by_median_of_the_quiet_ones() {
        let b = bounds();
        let side = |rps: [f64; 3], noisy_outlier: f64| {
            let mut files: Vec<Value> = rps
                .iter()
                .map(|&r| run_with(&[r, r, r], 50.0, QUIET, 0))
                .collect();
            files.push(run_with(&[noisy_outlier; 3], 50.0, (30.0, 40.0), 0));
            files
        };
        let base = side([99.0, 100.0, 101.0], 10.0);
        let runs = runs_of(&base).expect("result files");
        assert_eq!(runs[0].1.len(), 4);
        // The noisy run's 10 req/s is not heard: median 100, spread 2 %.
        let e = evidence(&runs[0].1, "host_rps", true).expect("metric");
        assert_eq!((e.value, e.usable), (100.0, true));
        assert!((e.spread - 0.02).abs() < 1e-12);
        // A virtual metric hears every run.
        let e = evidence(&runs[0].1, "virt_latency_ms_mean", false).expect("metric");
        assert_eq!((e.value, e.spread), (50.0, 0.0));
        assert_eq!(
            compare(&base, &side([94.0, 95.0, 96.0], 10.0), &b),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &side([84.0, 85.0, 86.0], 500.0), &b),
            Ok(false)
        );
        // Runs a quarter apart cannot resolve a 10 % bound.
        assert_eq!(
            compare(&base, &side([70.0, 85.0, 95.0], 10.0), &b),
            Ok(true)
        );
    }

    #[test]
    fn sides_must_hold_runs_and_the_same_workloads() {
        let b = bounds();
        let comm = run_with(&[100.0; 3], 50.0, QUIET, 0);
        let cold = run_of("cold_launch", &[100.0; 3], 50.0, QUIET, 0);
        let both = [comm.clone(), cold.clone()];
        let one = [comm];
        assert!(compare(&one, &[result_file(vec![])], &b).is_err());
        assert!(compare(&[result_file(vec![])], &one, &b).is_err());
        // A workload only one side ran is an error, not a skipped row.
        assert_eq!(
            compare(&one, &both, &b),
            Err("workload cold_launch is missing from A".into())
        );
        assert_eq!(
            compare(&both, &one, &b),
            Err("workload cold_launch is missing from B".into())
        );
        assert_eq!(compare(&both, &both, &b), Ok(true));
        // A traced run is not an end-to-end run.
        let traced = RunResult::new("comm_bound", 42, 1, true);
        assert!(compare(&[result_file(vec![traced.to_json()])], &one, &b).is_err());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let bench = json::parse(
            r#"{"end_to_end": [{"name": "host_rps", "unit": "req/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .expect("valid");
        assert_eq!(bounds_from(&bench), Ok(bounds()[..1].to_vec()));
        assert!(bounds_from(&json::parse("{}").expect("valid")).is_err());
    }
}
