//! `machine` — the repository's end-to-end benchmark.
//!
//! An architecture-simulation benchmark keeps two ledgers and names which
//! one every number is on: **host** (what the Rust costs on this CPU) and
//! **virt** (what the modelled cloud reports — it must not move when only
//! the simulator gets faster). Four closed workloads stress different
//! layers; `--trace 1` adds an outside-in layer trace. See `README.md`
//! beside this file for the metric glossary and how the layers interact.
//!
//! ```text
//! machine [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! machine --compare A.json[,A2.json…] B.json[,B2.json…] [--benchmark BENCHMARK.json]
//! ```
//!
//! The directory is a package of its own (`Cargo.toml` beside this file):
//! that is the build `BENCHMARK.json` measures and the one to run the unit
//! tests on. Cargo also discovers `main.rs` as a bin of `fsd-bench`, the
//! same sources against the same crates.
//!
//! The bin uses only the public API of the layer crates — none of
//! `fsd_bench`'s helpers and nothing ROADMAP marks for removal — so a
//! simplicity change never has to edit it.

mod alloc;
mod closed;
mod compare;
mod fleet;
mod host;
mod json;
mod layers;
mod probes;
mod report;
mod span;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["compute_bound", "comm_bound", "cold_launch", "sched_fleet"];

/// Seconds a timed section lasts unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 15;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Where result files and Chrome traces go: `machine/` under cargo's
/// target directory (`target/` unless `CARGO_TARGET_DIR` moves it).
pub fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("machine")
}

pub fn write_file(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    benchmark: String,
}

fn usage() -> String {
    format!(
        "usage: machine [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n\
         \x20      machine --compare A.json[,A2.json...] B.json[,B2.json...] [--benchmark BENCHMARK.json]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        compare: None,
        benchmark: "BENCHMARK.json".into(),
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| {
        text.parse::<u64>()
            .map_err(|_| format!("{flag}: {text:?} is not a whole number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(&mut it, flag)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => args.seconds = number(value(&mut it, flag)?, flag)?.max(1),
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // driver's form.
            "--trace" => {
                args.trace = match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--benchmark" => args.benchmark = value(&mut it, flag)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn default_out(workload: &str, trace: bool) -> PathBuf {
    output_dir().join(format!("{workload}.trace{}.json", u8::from(trace)))
}

/// One workload in this process (so `VmHWM` is that workload's own).
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let result = match (workload, args.trace) {
        (w, true) => traced::run(w, args.seed, args.seconds),
        ("sched_fleet", false) => fleet::measure(workload, args.seed, args.seconds),
        (w, false) => closed::measure(w, args.seed, args.seconds),
    };
    result.print();
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| default_out(workload, args.trace));
    write_file(
        &out,
        &report::result_file(vec![result.to_json()]).to_string(),
    );
    println!("# result file: {}", out.display());
    println!("{}", result.contract_line());
    if result.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "machine: {} of {} operations failed",
            result.failed(),
            result.attempted()
        );
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process, merged into one result file.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut runs = Vec::new();
    let mut clean = true;
    for workload in WORKLOADS {
        let part = default_out(workload, args.trace);
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status()
            .expect("spawn a child run");
        clean &= status.success();
        let parsed = std::fs::read_to_string(&part)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t));
        match parsed {
            Ok(file) => runs.extend(
                file.get("runs")
                    .and_then(json::Value::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .cloned(),
            ),
            Err(e) => {
                eprintln!("machine: {workload} left no result file: {e}");
                clean = false;
            }
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| default_out("all", args.trace));
    write_file(&out, &report::result_file(runs).to_string());
    println!("# result file: {}", out.display());
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("machine: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return ExitCode::from(compare::run(a, b, &args.benchmark));
    }
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_human_forms_of_trace() {
        let a = parse(&[
            "--workload",
            "comm_bound",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .expect("driver form");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, false));
        assert_eq!(a.workload.as_deref(), Some("comm_bound"));
        assert!(parse(&["--trace", "1"]).expect("on").trace);
        assert!(parse(&["--trace"]).expect("bare flag").trace);
        let a = parse(&["--trace", "--seed", "3"]).expect("flag then another");
        assert!(a.trace && a.seed == 3);
        assert_eq!(parse(&[]).expect("defaults").seed, 42);
    }

    /// The `[section]`s of a manifest whose header starts with `prefix`,
    /// header and body, blank lines and comments dropped.
    fn sections(manifest: &str, prefix: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut keep = false;
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                keep = line.starts_with(prefix);
            }
            if keep && !line.is_empty() && !line.starts_with('#') {
                out.push(line.to_string());
            }
        }
        out
    }

    /// The package's own manifest must build what the workspace builds:
    /// the layer crates `fsd-bench` depends on, at the workspace's paths,
    /// under the workspace's profiles and patches — cargo lets a package
    /// outside the workspace inherit none of these, so they are checked.
    #[test]
    fn own_manifest_tracks_the_workspace() {
        let own = include_str!("Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let deps = sections(own, "[dependencies]");
        assert!(deps.len() > 1, "the package depends on the layer crates");
        for dep in &deps[1..] {
            let (name, rest) = dep.split_once(" = ").expect("name = { path = .. }");
            assert!(
                bench.contains(&format!("{name}.workspace = true")),
                "{name} is not a dependency of fsd-bench"
            );
            let here = rest.replace("../../../../", "crates/");
            assert!(
                root.contains(&format!("{name} = {here}")),
                "{name}: {rest} is not the workspace's path"
            );
        }
        for prefix in ["[profile", "[patch"] {
            assert_eq!(
                sections(own, prefix),
                sections(root, prefix),
                "mirror the workspace's {prefix}..] sections in the package's manifest"
            );
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--compare", "a.json"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
