//! The machine-readable perf baseline (`BENCH_baseline.json`).
//!
//! Every `all_experiments` invocation measures the wall-clock cost and
//! simulated kilo-cycles/sec of each (configuration, benchmark) run and can
//! serialise them here, establishing the repository's perf trajectory: the
//! committed `BENCH_baseline.json` holds the latest recorded point, CI
//! compares a fresh point against it per run (`baseline_delta`, warn-only),
//! and regressions show up as falling `kcycles_per_sec`.
//!
//! Schema history: `lnuca-bench-baseline/v1` (PR 2) had no `engine` field;
//! `v2` adds it (the [`lnuca_sim::system::Engine`] label, e.g.
//! `event-horizon`) so the perf trajectory records which time-stepping
//! engine produced each point; `v3` added the lockstep batch width of the
//! since-removed batched engine (DESIGN.md §13). Points written now omit
//! it, and `baseline_delta` prints it only as provenance of older points. Results are engine-independent — only the throughput
//! changes.
//!
//! The workspace builds offline (DESIGN.md §8), so the vendored `serde` shim
//! cannot serialise; this module emits the small, flat document by hand. The
//! schema is versioned through the `schema` field.

use lnuca_sim::experiments::{ExperimentOptions, RunPerf};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One timed study (conventional, D-NUCA, ...) to be recorded.
pub struct StudyPerf<'a> {
    /// Study name, e.g. `conventional`.
    pub name: &'a str,
    /// Wall-clock seconds of the whole study (includes scheduling overhead,
    /// so with several workers this is far less than the sum of the runs).
    pub wall_seconds: f64,
    /// Per-run measurements, in result order.
    pub runs: &'a [RunPerf],
}

/// Aggregates `runs` per configuration label, preserving first-appearance
/// order. Returns `(label, run count, wall seconds, simulated cycles,
/// kcycles/sec)` tuples.
#[must_use]
pub fn per_configuration(runs: &[RunPerf]) -> Vec<(String, usize, f64, u64, f64)> {
    let mut rows: Vec<(String, usize, f64, u64, f64)> = Vec::new();
    for run in runs {
        let row = match rows.iter_mut().find(|r| r.0 == run.label) {
            Some(row) => row,
            None => {
                rows.push((run.label.clone(), 0, 0.0, 0, 0.0));
                rows.last_mut().expect("just pushed")
            }
        };
        row.1 += 1;
        row.2 += run.wall_nanos as f64 / 1e9;
        row.3 += run.cycles;
    }
    for row in &mut rows {
        row.4 = if row.2 > 0.0 { row.3 as f64 / 1_000.0 / row.2 } else { 0.0 };
    }
    rows
}

/// Renders the baseline document. `total_wall_seconds` covers everything the
/// caller timed (all studies plus reporting).
#[must_use]
pub fn baseline_json(
    opts: &ExperimentOptions,
    studies: &[StudyPerf<'_>],
    total_wall_seconds: f64,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n");
    push_str_field(&mut out, 1, "schema", "lnuca-bench-baseline/v3");
    push_str_field(&mut out, 1, "engine", opts.engine.label());
    push_raw_field(&mut out, 1, "threads", &opts.threads.to_string());
    push_raw_field(
        &mut out,
        1,
        "available_parallelism",
        &crate::default_threads().to_string(),
    );
    push_raw_field(&mut out, 1, "instructions_per_run", &opts.instructions.to_string());
    push_raw_field(
        &mut out,
        1,
        "benchmarks_per_suite",
        &opts
            .benchmarks_per_suite
            .map_or("null".to_owned(), |n| n.to_string()),
    );
    let levels: Vec<String> = opts.lnuca_levels.iter().map(u8::to_string).collect();
    push_raw_field(&mut out, 1, "lnuca_levels", &format!("[{}]", levels.join(", ")));
    push_raw_field(&mut out, 1, "seed", &opts.seed.to_string());
    push_raw_field(&mut out, 1, "total_wall_seconds", &json_f64(total_wall_seconds));
    out.push_str("  \"studies\": [\n");
    for (si, study) in studies.iter().enumerate() {
        out.push_str("    {\n");
        push_str_field(&mut out, 3, "study", study.name);
        push_raw_field(&mut out, 3, "wall_seconds", &json_f64(study.wall_seconds));
        out.push_str("      \"configurations\": [\n");
        let configs = per_configuration(study.runs);
        for (ci, (label, runs, wall, cycles, kcps)) in configs.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"label\": {}, \"runs\": {runs}, \"wall_seconds\": {}, \
                 \"simulated_cycles\": {cycles}, \"kcycles_per_sec\": {}}}{}\n",
                json_string(label),
                json_f64(*wall),
                json_f64(*kcps),
                trailing_comma(ci, configs.len()),
            );
        }
        out.push_str("      ],\n");
        out.push_str("      \"runs\": [\n");
        for (ri, run) in study.runs.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"label\": {}, \"workload\": {}, \"wall_seconds\": {}, \
                 \"simulated_cycles\": {}, \"kcycles_per_sec\": {}}}{}\n",
                json_string(&run.label),
                json_string(&run.workload),
                json_f64(run.wall_nanos as f64 / 1e9),
                run.cycles,
                json_f64(run.kcycles_per_sec),
                trailing_comma(ri, study.runs.len()),
            );
        }
        out.push_str("      ]\n");
        let _ = write!(out, "    }}{}\n", trailing_comma(si, studies.len()));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Resolves the baseline output path from `LNUCA_BENCH_JSON`.
///
/// * unset — `Some("BENCH_baseline.json")` when `default_on`, else `None`,
/// * empty or `-` — `None` (explicitly disabled),
/// * anything else — that path.
#[must_use]
pub fn path_from_env(default_on: bool) -> Option<PathBuf> {
    match std::env::var("LNUCA_BENCH_JSON") {
        Ok(v) if v.is_empty() || v == "-" => None,
        Ok(v) => Some(PathBuf::from(v)),
        Err(_) if default_on => Some(PathBuf::from("BENCH_baseline.json")),
        Err(_) => None,
    }
}

/// Writes `json` to `path`, reporting the destination on stderr.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write(path: &Path, json: &str) -> std::io::Result<()> {
    std::fs::write(path, json)?;
    eprintln!("perf baseline written to {}", path.display());
    Ok(())
}

fn push_str_field(out: &mut String, indent: usize, key: &str, value: &str) {
    let _ = writeln!(out, "{}\"{key}\": {},", "  ".repeat(indent), json_string(value));
}

fn push_raw_field(out: &mut String, indent: usize, key: &str, value: &str) {
    let _ = writeln!(out, "{}\"{key}\": {value},", "  ".repeat(indent));
}

fn trailing_comma(index: usize, len: usize) -> &'static str {
    if index + 1 == len {
        ""
    } else {
        ","
    }
}

/// Formats an `f64` as a JSON number (never NaN/Inf, which JSON forbids).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "0.0".to_owned()
    }
}

/// Escapes a string for JSON. The labels and workload names in this
/// workspace are plain ASCII, but escape defensively anyway.
fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(label: &str, workload: &str, wall_nanos: u64, cycles: u64) -> RunPerf {
        RunPerf {
            label: label.to_owned(),
            workload: workload.to_owned(),
            wall_nanos,
            cycles,
            kcycles_per_sec: cycles as f64 / 1_000.0 / (wall_nanos as f64 / 1e9),
        }
    }

    #[test]
    fn per_configuration_aggregates_in_first_appearance_order() {
        let runs = [
            run("L2-256KB", "int.a", 1_000_000, 5_000),
            run("LN3-144KB", "int.a", 2_000_000, 6_000),
            run("L2-256KB", "fp.b", 3_000_000, 7_000),
        ];
        let rows = per_configuration(&runs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "L2-256KB");
        assert_eq!(rows[0].1, 2);
        assert_eq!(rows[0].3, 12_000);
        assert_eq!(rows[1].0, "LN3-144KB");
        assert!((rows[0].2 - 0.004).abs() < 1e-12);
        assert!(rows[0].4 > 0.0);
    }

    #[test]
    fn baseline_json_is_structurally_sound() {
        let opts = ExperimentOptions::quick();
        let runs = [run("L2-256KB", "int.compress \"x\"", 1_500_000, 9_000)];
        let studies = [StudyPerf {
            name: "conventional",
            wall_seconds: 0.0015,
            runs: &runs,
        }];
        let json = baseline_json(&opts, &studies, 0.002);
        assert!(json.contains("\"schema\": \"lnuca-bench-baseline/v3\""));
        assert!(json.contains("\"engine\": \"event-horizon\""));
        assert!(json.contains("\"kcycles_per_sec\""));
        assert!(json.contains("\\\"x\\\""), "quotes inside names are escaped");
        // Balanced braces/brackets and no trailing commas before closers.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]") && !json.contains(",\n}"));
    }

    #[test]
    fn json_f64_never_emits_non_numbers() {
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
        assert_eq!(json_f64(1.25), "1.250000");
    }
}
