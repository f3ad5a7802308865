//! The bench-regression gate: compare freshly emitted `BENCH_*.json`
//! metrics against committed baselines with a relative tolerance.
//!
//! The bench binaries emit flat JSON through one writer, [`emit`] (the
//! workspace builds offline — no serde), so the gate reads metrics with a
//! minimal extractor: every `"key": <number>` occurrence of a metric key,
//! in file order. Baseline and fresh runs of the same binary emit the same
//! rows in the same order, so an elementwise comparison is sound.
//!
//! Two metric directions exist:
//!
//! * **lower-is-better** (latencies): fail when
//!   `fresh > baseline × (1 + tolerance)`;
//! * **higher-is-better** (hit rates): fail when
//!   `fresh < baseline × (1 − tolerance)`.
//!
//! Used by the `bench_gate` binary, which CI runs after regenerating the
//! JSONs in `--release`.

use std::fmt::{self, Write as _};

/// Metrics the gate checks per bench file, with their direction.
pub const GATED: &[(&str, &[(&str, Direction)])] = &[
    (
        "BENCH_warm_pool.json",
        &[
            ("warm_p50_us", Direction::LowerIsBetter),
            ("cold_p50_us", Direction::LowerIsBetter),
        ],
    ),
    (
        "BENCH_scheduler_throughput.json",
        &[
            ("bursty_mean_latency_us", Direction::LowerIsBetter),
            ("fleet_throughput_rps", Direction::HigherIsBetter),
            ("fleet_cost_uusd_per_req", Direction::LowerIsBetter),
        ],
    ),
    (
        "BENCH_prewarm.json",
        &[
            ("mean_latency_us", Direction::LowerIsBetter),
            ("hit_rate_pct", Direction::HigherIsBetter),
        ],
    ),
    (
        "BENCH_comm_matrix.json",
        &[
            ("queue_p50_us", Direction::LowerIsBetter),
            ("object_p50_us", Direction::LowerIsBetter),
            ("hybrid_p50_us", Direction::LowerIsBetter),
            ("direct_p50_us", Direction::LowerIsBetter),
            ("direct_punch_p50_us", Direction::LowerIsBetter),
        ],
    ),
    (
        "BENCH_chaos_soak.json",
        &[
            ("fault_free_mean_latency_us", Direction::LowerIsBetter),
            ("success_rate_pct", Direction::HigherIsBetter),
        ],
    ),
    (
        "BENCH_cold_start.json",
        &[
            ("off_p50_us", Direction::LowerIsBetter),
            ("miss_p50_us", Direction::LowerIsBetter),
            ("hit_p50_us", Direction::LowerIsBetter),
        ],
    ),
];

/// Which way a metric regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latency-like: regression = fresh above baseline.
    LowerIsBetter,
    /// Rate-like: regression = fresh below baseline.
    HigherIsBetter,
}

/// One value of a bench JSON row or scalar line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// A bare integer.
    Int(u64),
    /// A float with a fixed number of decimals.
    Fixed(f64, usize),
    /// `true` / `false`.
    Bool(bool),
    /// A quoted string (labels only: nothing is escaped).
    Str(&'static str),
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Val::Int(v) => write!(f, "{v}"),
            Val::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Val::Bool(v) => write!(f, "{v}"),
            Val::Str(v) => write!(f, "\"{v}\""),
        }
    }
}

macro_rules! val_from {
    ($($t:ty => $variant:ident),*) => {
        $(impl From<$t> for Val {
            fn from(v: $t) -> Val {
                Val::$variant(v as _)
            }
        })*
    };
}
val_from!(u64 => Int, usize => Int, u32 => Int, bool => Bool, &'static str => Str);

/// One row of a section: keys and values in emission order.
pub type Row = Vec<(&'static str, Val)>;

/// Builds a [`Row`]: `row!(neurons: n, label: "small")`.
#[macro_export]
macro_rules! row {
    ($($key:ident: $val:expr),* $(,)?) => {
        vec![$((stringify!($key), $crate::gate::Val::from($val))),*]
    };
}

/// The document [`emit`] writes.
fn render(bench: &str, scalars: &[(&str, Val)], sections: &[(&str, Vec<Row>)]) -> String {
    let mut lines = vec![format!("  \"bench\": \"{bench}\"")];
    lines.extend(scalars.iter().map(|(key, v)| format!("  \"{key}\": {v}")));
    for (key, rows) in sections {
        let rows: Vec<String> = rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
                format!("    {{{}}}", cells.join(", "))
            })
            .collect();
        lines.push(format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n")));
    }
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Writes `BENCH_<bench>.json` into the working directory: the `"bench"`
/// line, the scalar lines, then each named section with one row per line.
pub fn emit(bench: &str, scalars: &[(&str, Val)], sections: &[(&str, Vec<Row>)]) {
    let path = format!("BENCH_{bench}.json");
    std::fs::write(&path, render(bench, scalars, sections))
        .expect("write BENCH_*.json into the working directory");
    println!("wrote {path}");
}

/// Extracts every `"key": <number>` value from `json`, in file order.
/// Tolerant of whitespace; keys must match exactly.
pub fn extract(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let Some(colon) = rest.find(':') else { break };
        // Only a directly following colon counts (skip matches inside
        // string values, where other text precedes the next colon).
        if !rest[..colon].trim().is_empty() {
            continue;
        }
        let after = rest[colon + 1..].trim_start();
        let end = after
            .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '+' || c == '.' || c == 'e'))
            .unwrap_or(after.len());
        if let Ok(v) = after[..end].parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// One metric comparison that failed the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Bench file the metric came from.
    pub file: String,
    /// Metric key.
    pub key: String,
    /// Row index within the file (emission order).
    pub index: usize,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}[{}] regressed {:.0} -> {:.0} ({:+.1}%)",
            self.file,
            self.key,
            self.index,
            self.baseline,
            self.fresh,
            100.0 * (self.fresh - self.baseline) / self.baseline.abs().max(f64::MIN_POSITIVE),
        )
    }
}

/// Compares one metric sequence; returns the rows breaching `tolerance`.
///
/// # Panics
/// If baseline and fresh disagree on row count — the bench changed shape,
/// which means the baseline must be regenerated, not compared.
pub fn compare(
    file: &str,
    key: &str,
    direction: Direction,
    baseline: &[f64],
    fresh: &[f64],
    tolerance: f64,
) -> Vec<Regression> {
    assert_eq!(
        baseline.len(),
        fresh.len(),
        "{file}: {key} row count changed ({} baseline vs {} fresh) — \
         regenerate the committed baseline",
        baseline.len(),
        fresh.len()
    );
    baseline
        .iter()
        .zip(fresh)
        .enumerate()
        .filter(|(_, (&b, &f))| match direction {
            Direction::LowerIsBetter => f > b * (1.0 + tolerance),
            Direction::HigherIsBetter => f < b * (1.0 - tolerance),
        })
        .map(|(index, (&b, &f))| Regression {
            file: file.to_string(),
            key: key.to_string(),
            index,
            baseline: b,
            fresh: f,
        })
        .collect()
}

/// Gates every metric of one bench file. Returns `(checked, regressions)`.
pub fn gate_file(
    file: &str,
    keys: &[(&str, Direction)],
    baseline_json: &str,
    fresh_json: &str,
    tolerance: f64,
) -> (usize, Vec<Regression>) {
    let mut checked = 0;
    let mut regressions = Vec::new();
    for &(key, direction) in keys {
        let baseline = extract(baseline_json, key);
        let fresh = extract(fresh_json, key);
        assert!(
            !baseline.is_empty(),
            "{file}: baseline carries no {key:?} metric — wrong file?"
        );
        checked += baseline.len();
        regressions.extend(compare(file, key, direction, &baseline, &fresh, tolerance));
    }
    (checked, regressions)
}

/// Renders a human-readable gate report.
pub fn report(checked: usize, regressions: &[Regression], tolerance: f64) -> String {
    let mut out = String::new();
    if regressions.is_empty() {
        let _ = writeln!(
            out,
            "bench gate OK: {checked} metrics within {:.0}% of baseline",
            tolerance * 100.0
        );
    } else {
        let _ = writeln!(
            out,
            "bench gate FAILED: {} of {checked} metrics regressed beyond {:.0}%:",
            regressions.len(),
            tolerance * 100.0
        );
        for r in regressions {
            let _ = writeln!(out, "  {r}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "warm_pool",
  "samples_per_path": 9,
  "sizes": [
    {"neurons": 256, "workers": 4, "warm_p50_us": 100, "cold_p50_us": 200},
    {"neurons": 1024, "workers": 4, "warm_p50_us": 300, "cold_p50_us": 600}
  ],
  "rates": [
    {"mode": "warm", "spilled": false, "hit_rate_pct": 99.5, "rps": 28.89}
  ]
}
"#;

    #[test]
    fn extract_reads_values_in_order() {
        assert_eq!(extract(SAMPLE, "warm_p50_us"), vec![100.0, 300.0]);
        assert_eq!(extract(SAMPLE, "cold_p50_us"), vec![200.0, 600.0]);
        assert_eq!(extract(SAMPLE, "neurons"), vec![256.0, 1024.0]);
        assert!(extract(SAMPLE, "missing").is_empty());
    }

    #[test]
    fn extract_ignores_string_values_and_partial_keys() {
        // "bench" holds a string, not a number.
        assert!(extract(SAMPLE, "bench").is_empty());
        // "p50_us" is a substring of two keys but not a key itself.
        assert!(extract(SAMPLE, "p50_us").is_empty());
    }

    #[test]
    fn compare_flags_only_breaches() {
        let r = compare(
            "f",
            "k",
            Direction::LowerIsBetter,
            &[100.0, 100.0, 100.0],
            &[124.0, 126.0, 90.0],
            0.25,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].index, 1);
        assert_eq!(r[0].fresh, 126.0);
    }

    #[test]
    fn compare_direction_matters() {
        // A falling hit rate is a regression; a falling latency is not.
        let lower = compare("f", "k", Direction::LowerIsBetter, &[80.0], &[50.0], 0.25);
        assert!(lower.is_empty());
        let higher = compare("f", "k", Direction::HigherIsBetter, &[80.0], &[50.0], 0.25);
        assert_eq!(higher.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row count changed")]
    fn compare_rejects_shape_changes() {
        compare(
            "f",
            "k",
            Direction::LowerIsBetter,
            &[1.0, 2.0],
            &[1.0],
            0.25,
        );
    }

    /// [`SAMPLE`] is what the writer emits: two sections, one a single
    /// row, holding integers, strings, a bool and `{:.1}` / `{:.2}` floats,
    /// and every number it writes reads back in order.
    #[test]
    fn render_writes_the_sample() {
        let sizes = vec![
            row!(neurons: 256u64, workers: 4u32, warm_p50_us: 100u64, cold_p50_us: 200u64),
            row!(neurons: 1024u64, workers: 4u32, warm_p50_us: 300u64, cold_p50_us: 600u64),
        ];
        let rates = vec![row!(
            mode: "warm",
            spilled: false,
            hit_rate_pct: Val::Fixed(99.46, 1),
            rps: Val::Fixed(28.886, 2),
        )];
        let scalars = [("samples_per_path", 9u64.into())];
        let json = render("warm_pool", &scalars, &[("sizes", sizes), ("rates", rates)]);
        assert_eq!(json, SAMPLE);
        assert_eq!(extract(&json, "samples_per_path"), vec![9.0]);
        assert_eq!(extract(&json, "hit_rate_pct"), vec![99.5]);
        assert_eq!(extract(&json, "rps"), vec![28.89]);
    }

    /// The committed baselines and [`GATED`] name the same files and keys,
    /// so a bin renamed away from its baseline fails here.
    #[test]
    fn baselines_match_the_gated_list() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench-baselines");
        for &(file, keys) in GATED {
            let json = std::fs::read_to_string(dir.join(file))
                .unwrap_or_else(|e| panic!("gated {file} has no baseline: {e}"));
            for &(key, _) in keys {
                assert!(!extract(&json, key).is_empty(), "{file} lacks {key}");
            }
        }
        for entry in std::fs::read_dir(&dir).expect("bench-baselines/") {
            let name = entry.expect("baseline entry").file_name();
            let name = name.to_str().expect("UTF-8 baseline name");
            let lock = name.starts_with("BENCH_chaos_soak.seed");
            assert!(
                lock || GATED.iter().any(|&(file, _)| file == name),
                "{name} is neither gated nor a chaos-soak seed lock"
            );
        }
    }

    #[test]
    fn gate_file_end_to_end() {
        let fresh = SAMPLE.replace("\"warm_p50_us\": 100", "\"warm_p50_us\": 130");
        let (checked, regressions) = gate_file(
            "BENCH_warm_pool.json",
            &[
                ("warm_p50_us", Direction::LowerIsBetter),
                ("cold_p50_us", Direction::LowerIsBetter),
            ],
            SAMPLE,
            &fresh,
            0.25,
        );
        assert_eq!(checked, 4);
        assert_eq!(regressions.len(), 1);
        assert!(report(checked, &regressions, 0.25).contains("FAILED"));
        let (_, none) = gate_file(
            "BENCH_warm_pool.json",
            &[("warm_p50_us", Direction::LowerIsBetter)],
            SAMPLE,
            SAMPLE,
            0.25,
        );
        assert!(none.is_empty());
    }
}
