//! Prints a per-configuration `kcycles_per_sec` delta table between two
//! `BENCH_baseline.json` files (committed trajectory point vs a freshly
//! generated one). **Warn-only for throughput**: large drops are flagged on
//! stderr, but they never fail the build — CI runs on a noisy 1-core
//! runner, so throughput is tracked, not gated. A document with an
//! *unknown schema version*, however, exits with code 2: comparing fields
//! whose meaning may have changed would silently produce nonsense, so
//! schema drift must be acknowledged here (add the version to
//! `KNOWN_SCHEMAS`) rather than ignored. An *absent fresh file* is the
//! benign case — nothing recorded a fresh point this run — and is reported
//! as exactly that, with the command to generate one, before exiting 0.
//!
//! ```text
//! baseline_delta <committed.json> <fresh.json>
//! ```
//!
//! The reader is the vendored `serde::json` document parser walking the
//! schema emitted by `lnuca_bench::baseline` (`v1` through `v3`
//! documents): each study's `configurations` array carries the
//! per-configuration aggregates this table compares. Points recorded while
//! the batched engine existed also carry a `batch_size` field; it is
//! printed as provenance only (DESIGN.md §13).

use lnuca_sim::report::format_table;
use serde::json;

/// Throughput (kcycles/s) drop in percent beyond which a configuration is
/// flagged.
const WARN_DROP_PCT: f64 = 30.0;

/// Every `BENCH_baseline.json` schema version this reader understands.
/// A document claiming any other version is a hard error (exit 2) — see
/// the module docs.
const KNOWN_SCHEMAS: &[&str] = &[
    "lnuca-bench-baseline/v1",
    "lnuca-bench-baseline/v2",
    "lnuca-bench-baseline/v3",
];

/// One parsed baseline document: run-context metadata plus the
/// per-configuration aggregates.
struct Baseline {
    /// `engine` field (`v2`+), or `?` for a `v1` document.
    engine: String,
    /// `batch_size` field of points recorded by the since-removed batched
    /// engine (a number or `"full"`); `None` when the document has none.
    batch_size: Option<String>,
    /// `(study, label, wall seconds, simulated cycles, kcycles/s)` rows.
    configurations: Vec<(String, String, f64, u64, f64)>,
}

impl Baseline {
    /// How the point was produced: its engine, plus the batch size of a
    /// point recorded by the since-removed batched engine.
    fn provenance(&self) -> String {
        match &self.batch_size {
            Some(batch) => format!(
                "engine {}, batch size {batch} (batched engine)",
                self.engine
            ),
            None => format!("engine {}", self.engine),
        }
    }

    /// Aggregate throughput over every configuration of every study:
    /// total simulated kilo-cycles over total per-configuration wall time.
    /// `None` when the document carries no timed work.
    fn aggregate_kcps(&self) -> Option<f64> {
        let wall: f64 = self.configurations.iter().map(|c| c.2).sum();
        let cycles: u64 = self.configurations.iter().map(|c| c.3).sum();
        (wall > 0.0 && cycles > 0).then(|| cycles as f64 / 1_000.0 / wall)
    }

    /// Aggregate throughput split by the core count encoded in each
    /// configuration label, sorted ascending — so the trajectory separates
    /// single-core points from CMP ones (whose per-cycle work includes the
    /// directory).
    fn aggregate_kcps_by_cores(&self) -> Vec<(u64, f64)> {
        let mut buckets: std::collections::BTreeMap<u64, (f64, u64)> =
            std::collections::BTreeMap::new();
        for (_, label, wall, cycles, _) in &self.configurations {
            let slot = buckets.entry(core_count(label)).or_insert((0.0, 0));
            slot.0 += wall;
            slot.1 += cycles;
        }
        buckets
            .into_iter()
            .filter(|&(_, (wall, cycles))| wall > 0.0 && cycles > 0)
            .map(|(cores, (wall, cycles))| (cores, cycles as f64 / 1_000.0 / wall))
            .collect()
    }
}

/// The core count a configuration label encodes: a leading `{N}x ` prefix
/// (derived CMP labels, e.g. `4x LN2 + DN-4x8`) or `{N}x-` (sweep labels,
/// e.g. `4x-LN2-t8k-rnd-l3-m1`); everything else is a single-core point.
fn core_count(label: &str) -> u64 {
    let digits = label.chars().take_while(char::is_ascii_digit).count();
    if digits == 0 {
        return 1;
    }
    let rest = &label[digits..];
    if rest.starts_with("x ") || rest.starts_with("x-") {
        label[..digits].parse().unwrap_or(1)
    } else {
        1
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(committed_path), Some(fresh_path)) = (args.next(), args.next()) else {
        eprintln!("usage: baseline_delta <committed.json> <fresh.json>");
        std::process::exit(2);
    };
    // A missing fresh point is not an error — it just means nothing produced
    // one this run (e.g. `all_experiments` was skipped or wrote elsewhere).
    // Say so clearly and exit 0 instead of warning about an unreadable file
    // and printing a table where every committed row looks "gone".
    if !std::path::Path::new(&fresh_path).exists() {
        println!(
            "no fresh point: {fresh_path} does not exist — nothing to compare against \
             {committed_path}."
        );
        println!(
            "generate one with `LNUCA_BENCH_JSON={fresh_path} cargo run --release -p \
             lnuca-bench --bin all_experiments` (or `lnuca-serve --baseline {fresh_path}` \
             through the daemon); skipping the delta table."
        );
        return;
    }
    let committed = read_baseline(&committed_path);
    let fresh = read_baseline(&fresh_path);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut warned = false;
    for (study, label, _, _, new_kcps) in &fresh.configurations {
        let old = committed
            .configurations
            .iter()
            .find(|(s, l, _, _, _)| s == study && l == label)
            .map(|&(_, _, _, _, kcps)| kcps);
        let (old_cell, delta_cell) = match old {
            Some(old_kcps) if old_kcps > 0.0 => {
                let delta = (new_kcps / old_kcps - 1.0) * 100.0;
                if delta < -WARN_DROP_PCT {
                    warned = true;
                    eprintln!(
                        "::warning::throughput drop on {study}/{label}: \
                         {old_kcps:.0} -> {new_kcps:.0} kcycles/s ({delta:+.1}%)"
                    );
                }
                (format!("{old_kcps:.0}"), format!("{delta:+.1}%"))
            }
            _ => ("—".to_owned(), "new".to_owned()),
        };
        rows.push(vec![
            study.clone(),
            label.clone(),
            old_cell,
            format!("{new_kcps:.0}"),
            delta_cell,
        ]);
    }
    for (study, label, _, _, old_kcps) in &committed.configurations {
        if !fresh
            .configurations
            .iter()
            .any(|(s, l, _, _, _)| s == study && l == label)
        {
            rows.push(vec![
                study.clone(),
                label.clone(),
                format!("{old_kcps:.0}"),
                "—".to_owned(),
                "gone".to_owned(),
            ]);
        }
    }

    println!("== Simulator throughput delta (committed vs fresh, kcycles/s) ==\n");
    println!(
        "{}",
        format_table(&["study", "configuration", "committed", "fresh", "delta"], &rows)
    );
    println!(
        "committed point: {}; fresh point: {}",
        committed.provenance(),
        fresh.provenance()
    );
    // Per-core-count aggregates: CMP configurations retire fewer cycles
    // per second of wall time by design (N cores + a directory per
    // cycle), so lumping them into one aggregate would mask single-core
    // regressions behind multicore mix changes.
    let old_by_cores = committed.aggregate_kcps_by_cores();
    let new_by_cores = fresh.aggregate_kcps_by_cores();
    if old_by_cores.len() > 1 || new_by_cores.len() > 1 {
        let mut core_rows: Vec<Vec<String>> = Vec::new();
        let mut counts: Vec<u64> = old_by_cores.iter().chain(&new_by_cores).map(|&(c, _)| c).collect();
        counts.sort_unstable();
        counts.dedup();
        for cores in counts {
            let old = old_by_cores.iter().find(|&&(c, _)| c == cores).map(|&(_, k)| k);
            let new = new_by_cores.iter().find(|&&(c, _)| c == cores).map(|&(_, k)| k);
            let ratio = match (old, new) {
                (Some(o), Some(n)) if o > 0.0 => format!("{:.2}x", n / o),
                _ => "—".to_owned(),
            };
            core_rows.push(vec![
                cores.to_string(),
                old.map_or("—".to_owned(), |k| format!("{k:.0}")),
                new.map_or("—".to_owned(), |k| format!("{k:.0}")),
                ratio,
            ]);
        }
        println!("\nper-core-count aggregate throughput (kcycles/s):\n");
        println!(
            "{}",
            format_table(&["cores", "committed", "fresh", "ratio (fresh/committed)"], &core_rows)
        );
    }
    if let (Some(old_kcps), Some(new_kcps)) = (committed.aggregate_kcps(), fresh.aggregate_kcps()) {
        println!(
            "aggregate throughput ratio (fresh/committed): {:.2}x \
             ({new_kcps:.0} vs {old_kcps:.0} kcycles/s)",
            new_kcps / old_kcps
        );
    }
    if warned {
        eprintln!(
            "note: drops beyond {WARN_DROP_PCT}% flagged above are informational; \
             this step never fails the build"
        );
    }
}

/// Reads a baseline document, exiting with a warning (and an empty set) if
/// the file is unreadable or malformed — the delta step must never break CI.
fn read_baseline(path: &str) -> Baseline {
    let empty = Baseline {
        engine: "?".to_owned(),
        batch_size: None,
        configurations: Vec::new(),
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("::warning::cannot read {path}: {err}; skipping comparison");
            return empty;
        }
    };
    let document = match json::parse(&text) {
        Ok(document) => document,
        Err(err) => {
            eprintln!("::warning::{path} is not valid JSON ({err}); skipping comparison");
            return empty;
        }
    };
    // Unknown schema versions are the one hard failure: silently diffing
    // fields whose meaning may have changed would produce a plausible but
    // meaningless table.
    match document.get("schema").and_then(json::Value::as_str) {
        Some(schema) if KNOWN_SCHEMAS.contains(&schema) => {}
        Some(schema) => {
            eprintln!(
                "::error::{path} declares unknown baseline schema {schema:?}; this reader \
                 understands {}. Update baseline_delta (KNOWN_SCHEMAS) alongside the emitter.",
                KNOWN_SCHEMAS.join(", ")
            );
            std::process::exit(2);
        }
        None => {
            eprintln!(
                "::error::{path} has no \"schema\" field; expected one of {}",
                KNOWN_SCHEMAS.join(", ")
            );
            std::process::exit(2);
        }
    }
    let engine = document
        .get("engine")
        .and_then(json::Value::as_str)
        .unwrap_or("?")
        .to_owned();
    // Points recorded by the batched engine carry a number or "full".
    let batch_size = document.get("batch_size").map(|value| {
        value
            .as_u64()
            .map(|n| n.to_string())
            .or_else(|| value.as_str().map(str::to_owned))
            .unwrap_or_else(|| "?".to_owned())
    });
    let mut configurations = Vec::new();
    let studies = document.get("studies").and_then(json::Value::as_array);
    for study in studies.unwrap_or_default() {
        let Some(name) = study.get("study").and_then(json::Value::as_str) else {
            continue;
        };
        let rows = study
            .get("configurations")
            .and_then(json::Value::as_array)
            .unwrap_or_default();
        for row in rows {
            if let (Some(label), Some(kcps)) = (
                row.get("label").and_then(json::Value::as_str),
                row.get("kcycles_per_sec").and_then(json::Value::as_f64),
            ) {
                let wall = row
                    .get("wall_seconds")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(0.0);
                let cycles = row
                    .get("simulated_cycles")
                    .and_then(json::Value::as_u64)
                    .unwrap_or(0);
                configurations.push((name.to_owned(), label.to_owned(), wall, cycles, kcps));
            }
        }
    }
    Baseline {
        engine,
        batch_size,
        configurations,
    }
}
