//! The crash-safe study journal behind `lnuca run --journal`/`--resume`
//! (DESIGN.md §14).
//!
//! A journal is a JSON-Lines file: one header line identifying the plan,
//! then one self-checked record line per **completed** run, appended (and
//! pushed to the OS in a single `write` call) the moment the run finishes.
//! Failures are never journaled — they are deterministic (or worth
//! retrying) and simply run again on resume.
//!
//! The header carries a digest over the plan's *semantic* fields only: the
//! resolved workload names, the instruction budget, the base seed and the
//! fully-expanded hierarchy configurations. Execution knobs that cannot
//! change results — thread count, engine, watchdog budgets,
//! retries, the plan name — are excluded, so a study journaled on one
//! machine can be resumed with different parallelism and still produce a
//! byte-identical report (runs are deterministic; see
//! `tests/journal_digest.rs` for the pinned invariants).
//!
//! Robustness contract:
//!
//! * a torn trailing line (the process died mid-append) is silently
//!   dropped — that run simply re-runs;
//! * any other malformed line, a failed per-line checksum, a header
//!   mismatch or an out-of-range job index is a structured
//!   [`RunError::JournalCorrupt`] — never a panic, never silent reuse of
//!   data from a different plan.

use crate::experiments::{ExperimentPlan, RunPerf};
use crate::scenario::spec_to_value;
use crate::system::RunResult;
use lnuca_core::LNucaStats;
use lnuca_cpu::CoreStats;
use lnuca_dnuca::DNucaStats;
use lnuca_energy::EnergyAccount;
use lnuca_mem::CacheStats;
use lnuca_noc::mesh::MeshStats;
use lnuca_types::{ConfigError, RunError};
use lnuca_workloads::Suite;
use serde::json::{self, Value};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// Schema identifier of the journal header line.
pub const JOURNAL_SCHEMA: &str = "lnuca-journal/v1";

// ---------------------------------------------------------------------------
// Digests and compact encoding
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over a byte string — stable, dependency-free, plenty for
/// torn-write detection and plan identity (this is an integrity check, not
/// a cryptographic commitment).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders a [`Value`] as single-line compact JSON (no spaces, no
/// trailing newline) — the canonical byte string journal digests are
/// computed over. The vendored document model only ships a pretty-printer;
/// record lines must be exactly one line each.
fn write_compact(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(v) => out.push_str(&v.to_string()),
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::Float(v) => {
            // Journal records never hold Float (floats travel as bit
            // patterns), but keep the writer total and JSON-valid.
            if v.is_finite() {
                let s = format!("{v}");
                if s.contains('.') || s.contains('e') || s.contains('E') {
                    out.push_str(&s);
                } else {
                    out.push_str(&s);
                    out.push_str(".0");
                }
            } else {
                out.push_str("0.0");
            }
        }
        Value::String(s) => write_json_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, key);
                out.push(':');
                write_compact(value, out);
            }
            out.push('}');
        }
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn compact(value: &Value) -> String {
    let mut out = String::new();
    write_compact(value, &mut out);
    out
}

/// The semantic identity of a plan: exactly the fields that determine the
/// bit-identical results of its matrix. Workloads are resolved to their
/// final name list (capturing both the selection keyword and any
/// per-suite cap); configurations are fully expanded spec documents.
fn plan_semantic_value(plan: &ExperimentPlan) -> Result<Value, ConfigError> {
    let workloads: Vec<Value> = plan
        .options
        .workloads()?
        .iter()
        .map(|profile| Value::String(profile.name.clone()))
        .collect();
    Ok(Value::Object(vec![
        ("schema".to_owned(), Value::String(JOURNAL_SCHEMA.to_owned())),
        ("instructions".to_owned(), Value::UInt(plan.options.instructions)),
        ("seed".to_owned(), Value::UInt(plan.options.seed)),
        ("workloads".to_owned(), Value::Array(workloads)),
        (
            "configs".to_owned(),
            Value::Array(plan.configs.iter().map(spec_to_value).collect()),
        ),
    ]))
}

/// Digest of a plan's semantic fields (see `plan_semantic_value`) — the
/// content address a journal is bound to.
///
/// # Errors
///
/// [`RunError::Config`] when the plan's workload selection does not
/// resolve.
pub fn plan_digest(plan: &ExperimentPlan) -> Result<u64, RunError> {
    let value = plan_semantic_value(plan).map_err(RunError::Config)?;
    Ok(fnv1a(compact(&value).as_bytes()))
}

/// Number of (configuration, workload) cells in a plan's matrix — the
/// index space journal records live in.
///
/// # Errors
///
/// [`RunError::Config`] when the plan's workload selection does not
/// resolve.
pub fn job_count(plan: &ExperimentPlan) -> Result<usize, RunError> {
    let workloads = plan.options.workloads().map_err(RunError::Config)?;
    Ok(plan.configs.len() * workloads.len())
}

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

// ---------------------------------------------------------------------------
// Result/perf codec (bit-exact: floats travel as `f64::to_bits`)
// ---------------------------------------------------------------------------

fn bits(v: f64) -> Value {
    Value::UInt(v.to_bits())
}

fn u64v(v: u64) -> Value {
    Value::UInt(v)
}

fn strv(s: &str) -> Value {
    Value::String(s.to_owned())
}

fn opt(value: Option<Value>) -> Value {
    value.unwrap_or(Value::Null)
}

fn suite_to_value(suite: Suite) -> Value {
    Value::String(
        match suite {
            Suite::Integer => "int",
            Suite::FloatingPoint => "fp",
        }
        .to_owned(),
    )
}

fn cache_stats_to_value(s: &CacheStats) -> Value {
    Value::Object(vec![
        ("accesses".to_owned(), u64v(s.accesses)),
        ("read_hits".to_owned(), u64v(s.read_hits)),
        ("read_misses".to_owned(), u64v(s.read_misses)),
        ("write_hits".to_owned(), u64v(s.write_hits)),
        ("write_misses".to_owned(), u64v(s.write_misses)),
        ("fills".to_owned(), u64v(s.fills)),
        ("clean_evictions".to_owned(), u64v(s.clean_evictions)),
        ("dirty_evictions".to_owned(), u64v(s.dirty_evictions)),
    ])
}

fn core_stats_to_value(s: &CoreStats) -> Value {
    Value::Object(vec![
        ("fetched".to_owned(), u64v(s.fetched)),
        ("committed".to_owned(), u64v(s.committed)),
        ("loads".to_owned(), u64v(s.loads)),
        ("stores".to_owned(), u64v(s.stores)),
        ("branches".to_owned(), u64v(s.branches)),
        ("mispredictions".to_owned(), u64v(s.mispredictions)),
        ("load_latency_sum".to_owned(), u64v(s.load_latency_sum)),
        ("load_latency_samples".to_owned(), u64v(s.load_latency_samples)),
        ("rob_full_stalls".to_owned(), u64v(s.rob_full_stalls)),
        ("memory_reject_stalls".to_owned(), u64v(s.memory_reject_stalls)),
        ("store_buffer_stalls".to_owned(), u64v(s.store_buffer_stalls)),
    ])
}

fn u64_array(values: &[u64]) -> Value {
    Value::Array(values.iter().copied().map(u64v).collect())
}

fn lnuca_stats_to_value(s: &LNucaStats) -> Value {
    Value::Object(vec![
        ("searches".to_owned(), u64v(s.searches)),
        ("read_hits_per_level".to_owned(), u64_array(&s.read_hits_per_level)),
        ("write_hits_per_level".to_owned(), u64_array(&s.write_hits_per_level)),
        ("global_misses".to_owned(), u64v(s.global_misses)),
        ("tile_lookups".to_owned(), u64v(s.tile_lookups)),
        ("in_flight_hits".to_owned(), u64v(s.in_flight_hits)),
        ("tile_fills".to_owned(), u64v(s.tile_fills)),
        ("spills".to_owned(), u64v(s.spills)),
        ("root_evictions".to_owned(), u64v(s.root_evictions)),
        ("transport_deliveries".to_owned(), u64v(s.transport_deliveries)),
        ("transport_latency_sum".to_owned(), u64v(s.transport_latency_sum)),
        (
            "transport_min_latency_sum".to_owned(),
            u64v(s.transport_min_latency_sum),
        ),
        ("transport_stall_cycles".to_owned(), u64v(s.transport_stall_cycles)),
        (
            "replacement_stall_cycles".to_owned(),
            u64v(s.replacement_stall_cycles),
        ),
        ("search_link_traversals".to_owned(), u64v(s.search_link_traversals)),
        (
            "transport_link_traversals".to_owned(),
            u64v(s.transport_link_traversals),
        ),
        (
            "replacement_link_traversals".to_owned(),
            u64v(s.replacement_link_traversals),
        ),
    ])
}

fn dnuca_stats_to_value(s: &DNucaStats) -> Value {
    Value::Object(vec![
        ("accesses".to_owned(), u64v(s.accesses)),
        ("hits_per_row".to_owned(), u64_array(&s.hits_per_row)),
        ("misses".to_owned(), u64v(s.misses)),
        ("bank_lookups".to_owned(), u64v(s.bank_lookups)),
        ("bank_fills".to_owned(), u64v(s.bank_fills)),
        ("migrations".to_owned(), u64v(s.migrations)),
        ("dirty_evictions".to_owned(), u64v(s.dirty_evictions)),
        ("hit_latency_sum".to_owned(), u64v(s.hit_latency_sum)),
    ])
}

fn mesh_stats_to_value(s: &MeshStats) -> Value {
    Value::Object(vec![
        ("messages".to_owned(), u64v(s.messages)),
        ("hops".to_owned(), u64v(s.hops)),
        ("flit_hops".to_owned(), u64v(s.flit_hops)),
        ("contention_cycles".to_owned(), u64v(s.contention_cycles)),
    ])
}

fn energy_to_value(account: &EnergyAccount) -> Value {
    let bucket = |entries: Vec<(&str, f64)>| {
        Value::Object(
            entries
                .into_iter()
                .map(|(name, pj)| (name.to_owned(), bits(pj)))
                .collect(),
        )
    };
    Value::Object(vec![
        ("dynamic".to_owned(), bucket(account.dynamic_entries().collect())),
        ("static".to_owned(), bucket(account.static_entries().collect())),
    ])
}

fn hierarchy_stats_to_value(s: &crate::hierarchy::HierarchyStats) -> Value {
    Value::Object(vec![
        ("label".to_owned(), strv(&s.label)),
        ("l1".to_owned(), cache_stats_to_value(&s.l1)),
        ("l2".to_owned(), opt(s.l2.as_ref().map(cache_stats_to_value))),
        (
            "deeper_levels".to_owned(),
            Value::Array(s.deeper_levels.iter().map(cache_stats_to_value).collect()),
        ),
        ("l3".to_owned(), opt(s.l3.as_ref().map(cache_stats_to_value))),
        ("lnuca".to_owned(), opt(s.lnuca.as_ref().map(lnuca_stats_to_value))),
        ("lnuca_tiles".to_owned(), u64v(s.lnuca_tiles as u64)),
        ("dnuca".to_owned(), opt(s.dnuca.as_ref().map(dnuca_stats_to_value))),
        (
            "dnuca_mesh".to_owned(),
            opt(s.dnuca_mesh.as_ref().map(mesh_stats_to_value)),
        ),
        ("dnuca_banks".to_owned(), u64v(s.dnuca_banks as u64)),
        ("memory_accesses".to_owned(), u64v(s.memory_accesses)),
        ("write_drains".to_owned(), u64v(s.write_drains)),
    ])
}

fn core_row_to_value(row: &crate::cmp::CoreRow) -> Value {
    Value::Object(vec![
        ("core".to_owned(), u64v(row.core as u64)),
        ("instructions".to_owned(), u64v(row.instructions)),
        ("ipc".to_owned(), bits(row.ipc)),
        ("stats".to_owned(), core_stats_to_value(&row.stats)),
        ("l1".to_owned(), cache_stats_to_value(&row.l1)),
        ("fabric".to_owned(), opt(row.fabric.as_ref().map(cache_stats_to_value))),
        ("coherence_hits".to_owned(), u64v(row.coherence_hits)),
        ("coherence_misses".to_owned(), u64v(row.coherence_misses)),
        (
            "invalidations_received".to_owned(),
            u64v(row.invalidations_received),
        ),
    ])
}

fn coherence_stats_to_value(s: &crate::cmp::CoherenceStats) -> Value {
    Value::Object(vec![
        ("reads".to_owned(), u64v(s.reads)),
        ("writes".to_owned(), u64v(s.writes)),
        ("hits".to_owned(), u64v(s.hits)),
        ("misses".to_owned(), u64v(s.misses)),
        ("evictions".to_owned(), u64v(s.evictions)),
        ("invalidations_sent".to_owned(), u64v(s.invalidations_sent)),
        ("downgrades".to_owned(), u64v(s.downgrades)),
        ("writebacks".to_owned(), u64v(s.writebacks)),
        ("recalls".to_owned(), u64v(s.recalls)),
        (
            "per_core_invalidations".to_owned(),
            Value::Array(s.per_core_invalidations.iter().copied().map(u64v).collect()),
        ),
    ])
}

fn result_to_value(result: &RunResult) -> Value {
    let mut fields = vec![
        ("label".to_owned(), strv(&result.label)),
        ("workload".to_owned(), strv(&result.workload)),
        ("suite".to_owned(), suite_to_value(result.suite)),
        ("instructions".to_owned(), u64v(result.instructions)),
        ("cycles".to_owned(), u64v(result.cycles)),
        ("ipc".to_owned(), bits(result.ipc)),
        ("core".to_owned(), core_stats_to_value(&result.core)),
        ("hierarchy".to_owned(), hierarchy_stats_to_value(&result.hierarchy)),
        ("energy".to_owned(), energy_to_value(&result.energy)),
    ];
    // CMP-only fields are emitted only for CMP results, so single-core
    // journal lines (and their digests) are byte-identical to older
    // releases.
    if !result.per_core.is_empty() {
        fields.push((
            "per_core".to_owned(),
            Value::Array(result.per_core.iter().map(core_row_to_value).collect()),
        ));
    }
    if let Some(coherence) = &result.coherence {
        fields.push(("coherence".to_owned(), coherence_stats_to_value(coherence)));
    }
    Value::Object(fields)
}

fn perf_to_value(perf: &RunPerf) -> Value {
    Value::Object(vec![
        ("label".to_owned(), strv(&perf.label)),
        ("workload".to_owned(), strv(&perf.workload)),
        ("wall_nanos".to_owned(), u64v(perf.wall_nanos)),
        ("cycles".to_owned(), u64v(perf.cycles)),
        ("kcycles_per_sec".to_owned(), bits(perf.kcycles_per_sec)),
    ])
}

// --- decoding -------------------------------------------------------------

type DecodeResult<T> = Result<T, String>;

fn field<'a>(value: &'a Value, key: &str) -> DecodeResult<&'a Value> {
    value.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn field_u64(value: &Value, key: &str) -> DecodeResult<u64> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a non-negative integer"))
}

fn field_usize(value: &Value, key: &str) -> DecodeResult<usize> {
    usize::try_from(field_u64(value, key)?)
        .map_err(|_| format!("field {key:?} does not fit in usize"))
}

fn field_bits(value: &Value, key: &str) -> DecodeResult<f64> {
    Ok(f64::from_bits(field_u64(value, key)?))
}

fn field_str(value: &Value, key: &str) -> DecodeResult<String> {
    Ok(field(value, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .to_owned())
}

fn field_u64_array(value: &Value, key: &str) -> DecodeResult<Vec<u64>> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} is not an array"))?
        .iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| format!("field {key:?} holds a non-integer element"))
        })
        .collect()
}

/// `Null` → `None`, anything else decoded by `decode`.
fn field_opt<T>(
    value: &Value,
    key: &str,
    decode: impl Fn(&Value) -> DecodeResult<T>,
) -> DecodeResult<Option<T>> {
    match field(value, key)? {
        Value::Null => Ok(None),
        present => decode(present).map(Some),
    }
}

fn suite_from_value(value: &Value, key: &str) -> DecodeResult<Suite> {
    match field_str(value, key)?.as_str() {
        "int" => Ok(Suite::Integer),
        "fp" => Ok(Suite::FloatingPoint),
        other => Err(format!("unknown suite {other:?} (expected \"int\" or \"fp\")")),
    }
}

fn cache_stats_from_value(value: &Value) -> DecodeResult<CacheStats> {
    Ok(CacheStats {
        accesses: field_u64(value, "accesses")?,
        read_hits: field_u64(value, "read_hits")?,
        read_misses: field_u64(value, "read_misses")?,
        write_hits: field_u64(value, "write_hits")?,
        write_misses: field_u64(value, "write_misses")?,
        fills: field_u64(value, "fills")?,
        clean_evictions: field_u64(value, "clean_evictions")?,
        dirty_evictions: field_u64(value, "dirty_evictions")?,
    })
}

fn core_stats_from_value(value: &Value) -> DecodeResult<CoreStats> {
    Ok(CoreStats {
        fetched: field_u64(value, "fetched")?,
        committed: field_u64(value, "committed")?,
        loads: field_u64(value, "loads")?,
        stores: field_u64(value, "stores")?,
        branches: field_u64(value, "branches")?,
        mispredictions: field_u64(value, "mispredictions")?,
        load_latency_sum: field_u64(value, "load_latency_sum")?,
        load_latency_samples: field_u64(value, "load_latency_samples")?,
        rob_full_stalls: field_u64(value, "rob_full_stalls")?,
        memory_reject_stalls: field_u64(value, "memory_reject_stalls")?,
        store_buffer_stalls: field_u64(value, "store_buffer_stalls")?,
    })
}

fn lnuca_stats_from_value(value: &Value) -> DecodeResult<LNucaStats> {
    Ok(LNucaStats {
        searches: field_u64(value, "searches")?,
        read_hits_per_level: field_u64_array(value, "read_hits_per_level")?,
        write_hits_per_level: field_u64_array(value, "write_hits_per_level")?,
        global_misses: field_u64(value, "global_misses")?,
        tile_lookups: field_u64(value, "tile_lookups")?,
        in_flight_hits: field_u64(value, "in_flight_hits")?,
        tile_fills: field_u64(value, "tile_fills")?,
        spills: field_u64(value, "spills")?,
        root_evictions: field_u64(value, "root_evictions")?,
        transport_deliveries: field_u64(value, "transport_deliveries")?,
        transport_latency_sum: field_u64(value, "transport_latency_sum")?,
        transport_min_latency_sum: field_u64(value, "transport_min_latency_sum")?,
        transport_stall_cycles: field_u64(value, "transport_stall_cycles")?,
        replacement_stall_cycles: field_u64(value, "replacement_stall_cycles")?,
        search_link_traversals: field_u64(value, "search_link_traversals")?,
        transport_link_traversals: field_u64(value, "transport_link_traversals")?,
        replacement_link_traversals: field_u64(value, "replacement_link_traversals")?,
    })
}

fn dnuca_stats_from_value(value: &Value) -> DecodeResult<DNucaStats> {
    Ok(DNucaStats {
        accesses: field_u64(value, "accesses")?,
        hits_per_row: field_u64_array(value, "hits_per_row")?,
        misses: field_u64(value, "misses")?,
        bank_lookups: field_u64(value, "bank_lookups")?,
        bank_fills: field_u64(value, "bank_fills")?,
        migrations: field_u64(value, "migrations")?,
        dirty_evictions: field_u64(value, "dirty_evictions")?,
        hit_latency_sum: field_u64(value, "hit_latency_sum")?,
    })
}

fn mesh_stats_from_value(value: &Value) -> DecodeResult<MeshStats> {
    Ok(MeshStats {
        messages: field_u64(value, "messages")?,
        hops: field_u64(value, "hops")?,
        flit_hops: field_u64(value, "flit_hops")?,
        contention_cycles: field_u64(value, "contention_cycles")?,
    })
}

fn energy_from_value(value: &Value) -> DecodeResult<EnergyAccount> {
    let mut account = EnergyAccount::new();
    let bucket = |value: &Value, key: &str| -> DecodeResult<Vec<(String, f64)>> {
        field(value, key)?
            .as_object()
            .ok_or_else(|| format!("energy bucket {key:?} is not an object"))?
            .iter()
            .map(|(name, pj)| {
                let bits = pj
                    .as_u64()
                    .ok_or_else(|| format!("energy entry {name:?} is not a bit pattern"))?;
                Ok((name.clone(), f64::from_bits(bits)))
            })
            .collect()
    };
    for (name, pj) in bucket(value, "dynamic")? {
        account.add_dynamic(&name, pj);
    }
    for (name, pj) in bucket(value, "static")? {
        account.add_static(&name, pj);
    }
    Ok(account)
}

fn hierarchy_stats_from_value(value: &Value) -> DecodeResult<crate::hierarchy::HierarchyStats> {
    Ok(crate::hierarchy::HierarchyStats {
        label: field_str(value, "label")?,
        l1: cache_stats_from_value(field(value, "l1")?)?,
        l2: field_opt(value, "l2", cache_stats_from_value)?,
        deeper_levels: field(value, "deeper_levels")?
            .as_array()
            .ok_or_else(|| "field \"deeper_levels\" is not an array".to_owned())?
            .iter()
            .map(cache_stats_from_value)
            .collect::<DecodeResult<_>>()?,
        l3: field_opt(value, "l3", cache_stats_from_value)?,
        lnuca: field_opt(value, "lnuca", lnuca_stats_from_value)?,
        lnuca_tiles: field_usize(value, "lnuca_tiles")?,
        dnuca: field_opt(value, "dnuca", dnuca_stats_from_value)?,
        dnuca_mesh: field_opt(value, "dnuca_mesh", mesh_stats_from_value)?,
        dnuca_banks: field_usize(value, "dnuca_banks")?,
        memory_accesses: field_u64(value, "memory_accesses")?,
        write_drains: field_u64(value, "write_drains")?,
    })
}

fn core_row_from_value(value: &Value) -> DecodeResult<crate::cmp::CoreRow> {
    Ok(crate::cmp::CoreRow {
        core: field_usize(value, "core")?,
        instructions: field_u64(value, "instructions")?,
        ipc: field_bits(value, "ipc")?,
        stats: core_stats_from_value(field(value, "stats")?)?,
        l1: cache_stats_from_value(field(value, "l1")?)?,
        fabric: field_opt(value, "fabric", cache_stats_from_value)?,
        coherence_hits: field_u64(value, "coherence_hits")?,
        coherence_misses: field_u64(value, "coherence_misses")?,
        invalidations_received: field_u64(value, "invalidations_received")?,
    })
}

fn coherence_stats_from_value(value: &Value) -> DecodeResult<crate::cmp::CoherenceStats> {
    Ok(crate::cmp::CoherenceStats {
        reads: field_u64(value, "reads")?,
        writes: field_u64(value, "writes")?,
        hits: field_u64(value, "hits")?,
        misses: field_u64(value, "misses")?,
        evictions: field_u64(value, "evictions")?,
        invalidations_sent: field_u64(value, "invalidations_sent")?,
        downgrades: field_u64(value, "downgrades")?,
        writebacks: field_u64(value, "writebacks")?,
        recalls: field_u64(value, "recalls")?,
        per_core_invalidations: field_u64_array(value, "per_core_invalidations")?,
    })
}

fn result_from_value(value: &Value) -> DecodeResult<RunResult> {
    // Both CMP fields are absent from pre-multicore journals and from every
    // single-core line, so they decode as empty/None when missing.
    let per_core = match value.get("per_core") {
        None | Some(Value::Null) => Vec::new(),
        Some(rows) => rows
            .as_array()
            .ok_or_else(|| "field \"per_core\" is not an array".to_owned())?
            .iter()
            .map(core_row_from_value)
            .collect::<DecodeResult<_>>()?,
    };
    let coherence = match value.get("coherence") {
        None | Some(Value::Null) => None,
        Some(stats) => Some(coherence_stats_from_value(stats)?),
    };
    Ok(RunResult {
        label: field_str(value, "label")?,
        workload: field_str(value, "workload")?,
        suite: suite_from_value(value, "suite")?,
        instructions: field_u64(value, "instructions")?,
        cycles: field_u64(value, "cycles")?,
        ipc: field_bits(value, "ipc")?,
        core: core_stats_from_value(field(value, "core")?)?,
        hierarchy: hierarchy_stats_from_value(field(value, "hierarchy")?)?,
        energy: energy_from_value(field(value, "energy")?)?,
        per_core,
        coherence,
    })
}

fn perf_from_value(value: &Value) -> DecodeResult<RunPerf> {
    Ok(RunPerf {
        label: field_str(value, "label")?,
        workload: field_str(value, "workload")?,
        wall_nanos: field_u64(value, "wall_nanos")?,
        cycles: field_u64(value, "cycles")?,
        kcycles_per_sec: field_bits(value, "kcycles_per_sec")?,
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// An append-only journal file shared by every worker of a study.
///
/// `record` is called from worker threads as runs complete; each record is
/// one `write` call of one newline-terminated line, so an interrupted
/// process leaves at most one torn trailing line (which
/// [`read_journal`] drops). Write errors are sticky and surfaced by
/// [`JournalWriter::finish`] — a journal problem must not abort the study
/// mid-flight, only mark it at the end.
#[derive(Debug)]
pub struct JournalWriter {
    inner: Mutex<WriterInner>,
}

#[derive(Debug)]
struct WriterInner {
    file: File,
    error: Option<String>,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path` and writes the header
    /// line binding it to `plan`.
    ///
    /// # Errors
    ///
    /// [`RunError::JournalCorrupt`] when the file cannot be created or the
    /// plan's workloads do not resolve.
    pub fn create(path: &Path, plan: &ExperimentPlan, jobs: usize) -> Result<Self, RunError> {
        let digest = plan_digest(plan)?;
        let header = Value::Object(vec![
            ("schema".to_owned(), Value::String(JOURNAL_SCHEMA.to_owned())),
            ("plan".to_owned(), Value::String(plan.name.clone())),
            ("digest".to_owned(), Value::String(hex(digest))),
            ("jobs".to_owned(), Value::UInt(jobs as u64)),
        ]);
        let mut file = File::create(path).map_err(|e| corrupt(path, &e.to_string()))?;
        let mut line = compact(&header);
        line.push('\n');
        file.write_all(line.as_bytes())
            .map_err(|e| corrupt(path, &e.to_string()))?;
        Ok(JournalWriter {
            inner: Mutex::new(WriterInner { file, error: None }),
        })
    }

    /// Opens an existing, already-validated journal for appending (the
    /// resume path: [`read_journal`] has checked the header).
    ///
    /// # Errors
    ///
    /// [`RunError::JournalCorrupt`] when the file cannot be opened.
    pub fn append(path: &Path) -> Result<Self, RunError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| corrupt(path, &e.to_string()))?;
        Ok(JournalWriter {
            inner: Mutex::new(WriterInner { file, error: None }),
        })
    }

    /// Appends one completed run. Never fails the caller — I/O errors are
    /// remembered and surfaced by [`JournalWriter::finish`].
    pub fn record(&self, index: usize, result: &RunResult, perf: &RunPerf) {
        let body = Value::Object(vec![
            ("job".to_owned(), Value::UInt(index as u64)),
            ("result".to_owned(), result_to_value(result)),
            ("perf".to_owned(), perf_to_value(perf)),
        ]);
        let check = fnv1a(compact(&body).as_bytes());
        let Value::Object(mut members) = body else {
            unreachable!("body was constructed as an object")
        };
        members.push(("check".to_owned(), Value::String(hex(check))));
        let mut line = compact(&Value::Object(members));
        line.push('\n');
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if inner.error.is_some() {
            return;
        }
        if let Err(e) = inner.file.write_all(line.as_bytes()) {
            inner.error = Some(format!("journal append failed: {e}"));
        }
    }

    /// Flushes and surfaces any write error encountered during the study.
    ///
    /// # Errors
    ///
    /// [`RunError::JournalCorrupt`] when any record failed to append.
    pub fn finish(self) -> Result<(), RunError> {
        let inner = self
            .inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        match inner.error {
            Some(detail) => Err(RunError::JournalCorrupt { detail }),
            None => Ok(()),
        }
    }
}

fn corrupt(path: &Path, detail: &str) -> RunError {
    RunError::JournalCorrupt {
        detail: format!("{}: {detail}", path.display()),
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Reads a journal back for resumption: validates the header against
/// `plan`, checks every record line's checksum and returns the completed
/// runs indexed by matrix position (`None` = not journaled, re-run it).
///
/// A torn **trailing** line is dropped silently (the crash the journal
/// exists for); any other defect is [`RunError::JournalCorrupt`].
///
/// # Errors
///
/// [`RunError::JournalCorrupt`] on an unreadable file, a header that does
/// not match the plan (wrong schema, digest or job count) or a corrupt
/// interior line.
pub fn read_journal(
    path: &Path,
    plan: &ExperimentPlan,
    jobs: usize,
) -> Result<Vec<Option<(RunResult, RunPerf)>>, RunError> {
    let text = std::fs::read_to_string(path).map_err(|e| corrupt(path, &e.to_string()))?;
    let digest = plan_digest(plan)?;
    let lines: Vec<&str> = text.lines().filter(|line| !line.trim().is_empty()).collect();
    let Some((&header_line, records)) = lines.split_first() else {
        return Err(corrupt(path, "journal is empty (no header line)"));
    };
    let header = json::parse(header_line).map_err(|e| corrupt(path, &format!("header: {e}")))?;
    let schema = header.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != JOURNAL_SCHEMA {
        return Err(corrupt(
            path,
            &format!("unknown journal schema {schema:?} (expected {JOURNAL_SCHEMA:?})"),
        ));
    }
    let header_digest = header.get("digest").and_then(Value::as_str).unwrap_or("");
    if header_digest != hex(digest) {
        return Err(corrupt(
            path,
            &format!(
                "journal was written for a different plan (digest {header_digest}, this plan \
                 is {})",
                hex(digest)
            ),
        ));
    }
    let header_jobs = header.get("jobs").and_then(Value::as_u64);
    if header_jobs != Some(jobs as u64) {
        return Err(corrupt(
            path,
            &format!("journal header declares {header_jobs:?} jobs, this plan has {jobs}"),
        ));
    }

    let mut loaded: Vec<Option<(RunResult, RunPerf)>> = (0..jobs).map(|_| None).collect();
    for (i, line) in records.iter().enumerate() {
        let last = i + 1 == records.len();
        match decode_record(line, jobs) {
            Ok((index, result, perf)) => loaded[index] = Some((result, perf)),
            // The only tolerated defect: the final line was torn by the
            // crash/kill this journal exists to survive. That run re-runs.
            Err(_) if last => break,
            Err(detail) => {
                return Err(corrupt(path, &format!("record line {}: {detail}", i + 2)))
            }
        }
    }
    Ok(loaded)
}

fn decode_record(line: &str, jobs: usize) -> DecodeResult<(usize, RunResult, RunPerf)> {
    let value = json::parse(line).map_err(|e| e.to_string())?;
    let stored_check = field_str(&value, "check")?;
    let members = value
        .as_object()
        .ok_or_else(|| "record is not an object".to_owned())?;
    let body = Value::Object(
        members
            .iter()
            .filter(|(key, _)| key != "check")
            .cloned()
            .collect(),
    );
    let computed = hex(fnv1a(compact(&body).as_bytes()));
    if stored_check != computed {
        return Err(format!(
            "checksum mismatch (stored {stored_check}, computed {computed})"
        ));
    }
    let index = field_usize(&value, "job")?;
    if index >= jobs {
        return Err(format!("job index {index} out of range (plan has {jobs} jobs)"));
    }
    let result = result_from_value(field(&value, "result")?)?;
    let perf = perf_from_value(field(&value, "perf")?)?;
    Ok((index, result, perf))
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{ExperimentOptions, Study};
    use crate::spec::HierarchySpec;

    fn tiny_plan(name: &str) -> ExperimentPlan {
        ExperimentPlan::builder(name)
            .config(
                HierarchySpec::builder()
                    .fabric(lnuca_core::LNucaConfig::paper(2).expect("paper fabric is valid"))
                    .build()
                    .expect("tiny spec is valid"),
            )
            .options(
                ExperimentOptions::builder()
                    .instructions(1_500)
                    .benchmarks_per_suite(Some(1))
                    .build(),
            )
            .build()
            .expect("tiny plan is valid")
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "lnuca-journal-test-{tag}-{}.jsonl",
            std::process::id()
        ));
        path
    }

    #[test]
    fn result_codec_round_trips_bit_identically() {
        let plan = tiny_plan("codec");
        let study = Study::run(&plan).expect("tiny plan runs");
        for (result, perf) in study.results.iter().zip(&study.perf) {
            let back = result_from_value(&result_to_value(result)).expect("decodes");
            assert_eq!(&back, result);
            let perf_back = perf_from_value(&perf_to_value(perf)).expect("decodes");
            assert_eq!(&perf_back, perf);
        }
    }

    #[test]
    fn journaled_run_resumes_to_identical_study() {
        let plan = tiny_plan("resume");
        let path = temp_path("resume");
        let full = Study::run_journaled(&plan, &path, false).expect("journaled run succeeds");

        // Simulate a crash: drop the journal's trailing records (keep the
        // header and the first record) plus a torn half-line.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "expected header + 2 records");
        lines.truncate(2);
        let torn = format!("{}\n{{\"job\":1,\"result\":{{\"lab", lines.join("\n"));
        std::fs::write(&path, torn).expect("journal writable");

        let resumed = Study::run_journaled(&plan, &path, true).expect("resume succeeds");
        assert_eq!(resumed.results, full.results);
        assert_eq!(resumed.configs, full.configs);
        assert!(resumed.failures.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_or_corrupt_journals_are_rejected() {
        let plan = tiny_plan("corrupt");
        let other = tiny_plan_with_seed(99);
        let path = temp_path("corrupt");
        Study::run_journaled(&plan, &path, false).expect("journaled run succeeds");

        // A journal for a different plan must not resume.
        let err = Study::run_journaled(&other, &path, true)
            .expect_err("foreign journal must be rejected");
        assert!(matches!(err, RunError::JournalCorrupt { .. }), "got {err}");

        // A corrupted interior record must be rejected, not skipped.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let mangled = text.replacen("\"cycles\":", "\"cycles\":9", 1);
        assert_ne!(text, mangled, "expected to mangle a record");
        std::fs::write(&path, mangled).expect("journal writable");
        let err = Study::run_journaled(&plan, &path, true)
            .expect_err("mangled journal must be rejected");
        assert!(matches!(err, RunError::JournalCorrupt { .. }), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    fn tiny_plan_with_seed(seed: u64) -> ExperimentPlan {
        let base = tiny_plan("corrupt");
        ExperimentPlan::builder("corrupt")
            .configs(base.configs)
            .options(
                ExperimentOptions::builder()
                    .instructions(1_500)
                    .benchmarks_per_suite(Some(1))
                    .seed(seed)
                    .build(),
            )
            .build()
            .expect("plan is valid")
    }

    #[test]
    fn digest_ignores_execution_knobs_but_not_semantics() {
        let base = tiny_plan("digest");
        let base_digest = plan_digest(&base).expect("digest computes");

        // Non-semantic knobs: threads, engine, budgets, name.
        let mut exec = base.clone();
        exec.name = "renamed".to_owned();
        exec.options = ExperimentOptions::builder()
            .instructions(1_500)
            .benchmarks_per_suite(Some(1))
            .threads(7)
            .engine(crate::system::Engine::CycleStep)
            .cycle_budget(Some(123))
            .run_timeout_ms(Some(456))
            .livelock_window(Some(789))
            .retries(9)
            .build();
        assert_eq!(plan_digest(&exec).expect("digest computes"), base_digest);

        // Semantic fields: seed, instructions.
        let mut seeded = base.clone();
        seeded.options = ExperimentOptions::builder()
            .instructions(1_500)
            .benchmarks_per_suite(Some(1))
            .seed(2)
            .build();
        assert_ne!(plan_digest(&seeded).expect("digest computes"), base_digest);

        let mut longer = base.clone();
        longer.options = ExperimentOptions::builder()
            .instructions(3_000)
            .benchmarks_per_suite(Some(1))
            .build();
        assert_ne!(plan_digest(&longer).expect("digest computes"), base_digest);
    }

    #[test]
    fn compact_writer_is_parseable_and_stable() {
        let value = Value::Object(vec![
            ("s".to_owned(), Value::String("a\"b\\c\nd".to_owned())),
            (
                "a".to_owned(),
                Value::Array(vec![Value::UInt(1), Value::Null, Value::Bool(true)]),
            ),
            ("n".to_owned(), Value::Int(-3)),
        ]);
        let text = compact(&value);
        assert!(!text.contains('\n'), "compact output must be one line");
        let reparsed = json::parse(&text).expect("compact output parses");
        assert_eq!(reparsed, value);
        assert_eq!(compact(&reparsed), text);
    }
}
