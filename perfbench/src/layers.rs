//! The traced run (`--trace 1`): per-layer metrics for one workload.
//!
//! It alternates untraced `Study::run` calls with traced replicas of the
//! same runs (the difference is the tracing overhead), then drives single
//! layers in isolation through their public APIs: the core against a
//! fixed-latency memory, a bare `LNuca` replaying a recorded root-miss and
//! victim stream, a bare `Directory` replaying a recorded coherence stream,
//! and the daemon's layers in process and over loopback. Each isolated
//! drive is checked to do the same work the stream did inside the full
//! run. The drives run on every workload, so every per-layer metric is
//! measured on every workload; the layers a workload does not use show
//! zero counts.

use crate::mixed::{self, Alongside, InProcess, Kind, RequestSpan, Session};
use crate::plans::{self, Workload, WARM_INSTRUCTIONS};
use crate::serve::Route;
use crate::stats::{median, Summary};
use crate::study::{self, check_study, profiles, render_report};
use crate::traced::{self, nanos, LoopTrace, Span};
use crate::Report;
use lnuca_cpu::CoreStats;
use lnuca_sim::configs::{self, HierarchyKind};
use lnuca_sim::experiments::{ExperimentPlan, Study};
use lnuca_sim::journal;
use lnuca_sim::system::{RunResult, System};
use lnuca_workloads::suites;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Replays per isolated drive; each drive reports the median.
const REPLAYS: usize = 5;

/// Calls per in-process parse and digest measurement.
const PARSE_CALLS: usize = 20;

/// Mix cycles of the daemon drive on the simulator workloads.
const SERVE_DRIVE_CYCLES: usize = 4;

/// Traced-replica pairs of `serve-mixed`'s small cold-job study run this
/// long, so its overhead ratio rests on more than one pair.
const SERVE_STUDY_BUDGET: Duration = Duration::from_secs(1);

/// Traced replicas of a plan's study.
#[derive(Debug, Default)]
struct StudyTrace {
    /// Every run of the workload's own study.
    study: LoopTrace,
    /// Every single-core run (the study's, or the companions of a CMP study).
    solo: LoopTrace,
    /// Every CMP run.
    cmp: LoopTrace,
    /// Single-core runs by configuration label.
    per_config: BTreeMap<String, LoopTrace>,
    /// Runs of the last pair, in order, for the per-run span table.
    runs: Vec<(String, String, LoopTrace)>,
    /// Core counters of the single-core traced runs, by (profile, seed).
    core_stats: BTreeMap<(String, u64), CoreStats>,
    untraced_rates: Vec<f64>,
    traced_rates: Vec<f64>,
    last_study: Option<Study>,
}

impl StudyTrace {
    fn record(&mut self, label: &str, workload: &str, run: LoopTrace, cmp: bool, in_study: bool) {
        if in_study {
            self.study.merge(&run);
        }
        if cmp {
            self.cmp.merge(&run);
        } else {
            self.solo.merge(&run);
            self.per_config
                .entry(label.to_owned())
                .or_default()
                .merge(&run);
        }
        self.runs.push((label.to_owned(), workload.to_owned(), run));
    }
}

/// Alternates one untraced `Study::run` with one traced replica of all its
/// runs until `budget` has passed (at least once). A CMP study also gets
/// single-core companion runs of its first configuration with one core, so
/// the core and hierarchy spans exist for it too.
fn trace_study(plan: &ExperimentPlan, budget: Duration, report: &mut Report) -> StudyTrace {
    let mut out = StudyTrace::default();
    let Ok(profiles) = profiles(plan).map_err(|e| report.fail(e)) else {
        return out;
    };
    let instructions = study::study_instructions(plan).unwrap_or(0) as f64;
    let start = Instant::now();
    while out.traced_rates.is_empty() || start.elapsed() < budget {
        let began = Instant::now();
        let study = match Study::run(plan) {
            Ok(s) => s,
            Err(e) => {
                report.fail(format!("Study::run: {e}"));
                return out;
            }
        };
        out.untraced_rates
            .push(instructions / began.elapsed().as_secs_f64() / 1e6);
        check_study(plan, &study, report);
        out.runs.clear();

        let began = Instant::now();
        for spec in &plan.configs {
            for (i, profile) in profiles.iter().enumerate() {
                let seed = plan.options.seed.wrapping_add(i as u64);
                let mut run = LoopTrace::default();
                let traced = if spec.cores > 1 {
                    traced::cmp(spec, profile, plan.options.instructions, seed, &mut run)
                } else {
                    traced::solo(spec, profile, plan.options.instructions, seed, &mut run)
                };
                let label = spec.label();
                match traced {
                    Ok(result) => {
                        let untraced = study
                            .results
                            .iter()
                            .find(|r| r.label == label && r.workload == profile.name);
                        report.check(untraced == Some(&result), || {
                            format!("traced {label} / {} differs from Study::run", profile.name)
                        });
                        if spec.cores == 1 {
                            out.core_stats
                                .insert((profile.name.clone(), seed), result.core);
                        }
                    }
                    Err(e) => report.fail(format!("traced {label} / {}: {e}", profile.name)),
                }
                out.record(&label, &profile.name, run, spec.cores > 1, true);
            }
        }
        out.traced_rates
            .push(instructions / began.elapsed().as_secs_f64() / 1e6);
        out.last_study = Some(study);
    }

    if let Some(first) = plan.configs.first().filter(|c| c.cores > 1) {
        let mut single = first.clone();
        single.cores = 1;
        let label = single.label();
        for (i, profile) in profiles.iter().enumerate() {
            let seed = plan.options.seed.wrapping_add(i as u64);
            let mut run = LoopTrace::default();
            match traced::solo(&single, profile, plan.options.instructions, seed, &mut run) {
                Ok(result) => {
                    let expected =
                        System::run_spec(&single, profile, plan.options.instructions, seed);
                    report.check(expected.as_ref().ok() == Some(&result), || {
                        format!(
                            "traced companion {label} / {} differs from System::run_spec",
                            profile.name
                        )
                    });
                    out.core_stats
                        .insert((profile.name.clone(), seed), result.core);
                }
                Err(e) => report.fail(format!("companion {label}: {e}")),
            }
            out.record(&label, &profile.name, run, false, false);
        }
    }
    out
}

/// Sums of the simulated counters the per-layer metrics explain.
#[derive(Debug, Default)]
struct Counts {
    l1_accesses: u64,
    l1_misses: u64,
    l3_accesses: u64,
    dram: u64,
    write_drains: u64,
    dnuca_accesses: u64,
    dnuca_hits: u64,
    searches: u64,
    fabric_hits: u64,
    tile_lookups: u64,
    tile_fills: u64,
    spills: u64,
    transport_latency: u64,
    transport_min_latency: u64,
    stall_cycles: u64,
    transactions: u64,
    recalls: u64,
    invalidations: u64,
}

impl Counts {
    fn of(results: &[RunResult]) -> Counts {
        let mut c = Counts::default();
        for r in results {
            let h = &r.hierarchy;
            c.l1_accesses += h.l1.accesses;
            c.l1_misses += h.l1.misses();
            c.l3_accesses += h.l3.map_or(0, |l3| l3.accesses);
            c.dram += h.memory_accesses;
            c.write_drains += h.write_drains;
            if let Some(d) = &h.dnuca {
                c.dnuca_accesses += d.accesses;
                c.dnuca_hits += d.hits();
            }
            if let Some(f) = &h.lnuca {
                c.searches += f.searches;
                c.fabric_hits += f.hits();
                c.tile_lookups += f.tile_lookups;
                c.tile_fills += f.tile_fills;
                c.spills += f.spills;
                c.transport_latency += f.transport_latency_sum;
                c.transport_min_latency += f.transport_min_latency_sum;
                c.stall_cycles += f.transport_stall_cycles + f.replacement_stall_cycles;
            }
            if let Some(k) = &r.coherence {
                c.transactions += k.reads + k.writes;
                c.recalls += k.recalls;
                c.invalidations += k.invalidations_sent;
            }
        }
        c
    }
}

/// `num / den`, 0 when `den` is 0; prints the base next to the ratio.
fn ratio(name: &str, num: u64, den: u64) -> f64 {
    let value = if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    };
    println!("{name} = {num} / {den} = {value:.6}");
    value
}

fn per(ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64
    }
}

fn span_line(out: &mut String, name: &str, span: Span, self_ns: u64) {
    let _ = writeln!(
        out,
        "span {name:<28} count {:>10} total_ms {:>10.3} self_ms {:>10.3}",
        span.count,
        span.ns as f64 / 1e6,
        self_ns as f64 / 1e6
    );
}

/// The spans of a loop trace, aggregated per layer-call class.
fn span_table(t: &LoopTrace) -> String {
    let mut out = String::new();
    let loop_span = Span {
        count: t.iters,
        ns: t.loop_ns,
    };
    let run_self = t
        .run
        .ns
        .saturating_sub(t.build.ns + t.loop_ns + t.finish.ns);
    span_line(&mut out, "run", t.run, run_self);
    span_line(&mut out, "sim.build", t.build, t.build.ns);
    span_line(&mut out, "sim.loop", loop_span, t.loop_self_ns());
    span_line(
        &mut out,
        "hierarchy.tick",
        t.hierarchy_tick,
        t.hierarchy_tick.ns,
    );
    span_line(&mut out, "cpu.tick", t.core_tick, t.core_self_ns());
    span_line(&mut out, "workloads.next", t.trace, t.trace.ns);
    span_line(&mut out, "hierarchy.issue", t.issue, t.issue.ns);
    span_line(&mut out, "hierarchy.drain", t.drain, t.drain.ns);
    span_line(&mut out, "cmp.tick", t.cmp_tick, t.cmp_tick.ns);
    span_line(&mut out, "sim.next_event", t.next_event, t.next_event.ns);
    span_line(&mut out, "sim.finish", t.finish, t.finish.ns);
    out
}

/// The core alone against a fixed-latency memory, on the profiles and
/// seeds the traced single-core runs used; checked against their counters.
fn drive_core(trace: &StudyTrace, instructions: u64, report: &mut Report) -> f64 {
    let mut rates = Vec::new();
    for _ in 0..REPLAYS {
        let (mut committed, mut wall) = (0, Duration::ZERO);
        for ((name, seed), full) in &trace.core_stats {
            let Ok(profile) = suites::by_name(name) else {
                report.fail(format!("unknown profile {name}"));
                continue;
            };
            match traced::ideal_core(&profile, instructions, *seed) {
                Ok(ideal) => {
                    let same_stream = ideal.stats.committed == full.committed
                        && ideal.stats.loads == full.loads
                        && ideal.stats.stores == full.stores
                        && ideal.stats.branches == full.branches
                        && ideal.stats.committed == instructions
                        && ideal.accepted == full.loads + full.stores;
                    report.check(same_stream, || {
                        format!(
                            "ideal-memory core on {name} ran another stream: {:?} vs {full:?}",
                            ideal.stats
                        )
                    });
                    committed += ideal.stats.committed;
                    wall += ideal.wall;
                }
                Err(e) => report.fail(format!("ideal-memory core: {e}")),
            }
        }
        if committed > 0 {
            rates.push(committed as f64 / wall.as_secs_f64() / 1e6);
        }
    }
    if rates.is_empty() {
        report.fail("the ideal-memory core drive ran nothing".to_owned());
        return 0.0;
    }
    let s = Summary::of(&rates);
    println!(
        "cpu.ideal_minstr_per_s (core vs FixedLatencyMemory): {}",
        s.describe_rate("Minstr/s")
    );
    s.median
}

/// A bare `LNuca` replaying the fabric inputs of a warm LN3 run.
fn drive_fabric(seed: u64, report: &mut Report) -> f64 {
    let spec = HierarchyKind::LNucaL3(configs::lnuca_hierarchy(3)).to_spec();
    let profile = suites::spec_int_like()[0].clone();
    let stream = match traced::record_fabric(&spec, &profile, WARM_INSTRUCTIONS, seed) {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("fabric recording: {e}"));
            return 0.0;
        }
    };
    let untraced = System::run_spec(&spec, &profile, WARM_INSTRUCTIONS, seed);
    report.check(untraced.as_ref().ok() == Some(&stream.result), || {
        "the fabric recording run differs from System::run_spec".to_owned()
    });
    let mut per_search = Vec::new();
    for _ in 0..REPLAYS {
        match traced::replay_fabric(&stream) {
            Ok((stats, wall)) => {
                report.check(Some(&stats) == stream.expected(), || {
                    format!(
                        "fabric replay counters {stats:?} differ from the run's {:?}",
                        stream.expected()
                    )
                });
                per_search.push(per(nanos(wall), stream.searches()));
            }
            Err(e) => report.fail(format!("fabric replay: {e}")),
        }
    }
    if per_search.is_empty() {
        return 0.0;
    }
    let s = Summary::of(&per_search);
    println!(
        "fabric.replay_ns_per_search ({} searches of {} / {}): {}",
        stream.searches(),
        stream.result.label,
        profile.name,
        s.describe("ns")
    );
    s.median
}

/// A bare `Directory` replaying the coherence stream of a 2-core sharing
/// run. When the workload has no CMP runs, the same run is also traced so
/// the CMP spans exist.
fn drive_coherence(seed: u64, trace: &mut StudyTrace, report: &mut Report) -> f64 {
    let shape = match plans::parse(&Workload::CmpSharing.document(seed)) {
        Ok(p) => p,
        Err(e) => {
            report.fail(format!("cmp-sharing document: {e}"));
            return 0.0;
        }
    };
    let Some(spec) = shape.configs.iter().find(|c| c.cores == 2) else {
        report.fail("cmp-sharing has no 2-core configuration".to_owned());
        return 0.0;
    };
    let Some(profile) = profiles(&shape).ok().and_then(|p| p.into_iter().next()) else {
        report.fail("cmp-sharing names no workload".to_owned());
        return 0.0;
    };
    let instructions = shape.options.instructions;
    let stream = match traced::record_coherence(spec, &profile, instructions, seed) {
        Ok(s) => s,
        Err(e) => {
            report.fail(format!("coherence recording: {e}"));
            return 0.0;
        }
    };
    if trace.cmp.run.count == 0 {
        let mut run = LoopTrace::default();
        match traced::cmp(spec, &profile, instructions, seed, &mut run) {
            Ok(result) => report.check(result == stream.result, || {
                "the traced CMP run differs from System::run_spec".to_owned()
            }),
            Err(e) => report.fail(format!("traced CMP run: {e}")),
        }
        trace.record(&spec.label(), &profile.name, run, true, false);
    }
    let mut per_op = Vec::new();
    for _ in 0..REPLAYS {
        match traced::replay_coherence(&stream) {
            Ok((stats, wall)) => {
                report.check(Some(&stats) == stream.result.coherence.as_ref(), || {
                    format!("directory replay counters {stats:?} differ from the run's")
                });
                per_op.push(per(nanos(wall), stream.ops()));
            }
            Err(e) => report.fail(format!("directory replay: {e}")),
        }
    }
    if per_op.is_empty() {
        return 0.0;
    }
    let s = Summary::of(&per_op);
    println!(
        "coherence.replay_ns_per_op ({} directory operations of {} / {}): {}",
        stream.ops(),
        stream.result.label,
        profile.name,
        s.describe("ns")
    );
    s.median
}

/// Writes one line per served request to `.perfbench/` under the working
/// directory.
fn write_request_spans(
    workload: Workload,
    seed: u64,
    spans: &[RequestSpan],
) -> Result<String, String> {
    let dir = std::path::Path::new(".perfbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("requests-{}-{seed}.tsv", workload.name()));
    let mut text = String::from("kind\troute\tstart_us\tlatency_us\tstatus\n");
    for s in spans {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}",
            s.kind.name(),
            s.route.name(),
            s.start.as_micros(),
            s.latency.as_micros(),
            s.status
        );
    }
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: Duration, report: &mut Report) {
    let doc = workload.document(seed);
    let plan = match study::setup(&doc) {
        Ok(p) => p,
        Err(e) => return report.fail(format!("set-up failed: {e}")),
    };
    let (study_budget, serve_budget) = if workload == Workload::ServeMixed {
        (SERVE_STUDY_BUDGET, seconds)
    } else {
        (seconds, Duration::ZERO)
    };
    let mut trace = trace_study(&plan, study_budget, report);

    // The daemon, in process and over loopback.
    let mut calls = InProcess::default();
    let (spans, (cache_hits, cache_misses)) = match Session::open(seed, report) {
        Ok(mut session) => {
            let spans = session.run(
                serve_budget,
                SERVE_DRIVE_CYCLES,
                Alongside::InProcess(&mut calls),
                report,
            );
            let counts = session.cache_counts();
            if let Err(e) = session.close() {
                report.fail(format!("drain: {e}"));
            }
            (spans, counts)
        }
        Err(e) => {
            report.fail(format!("daemon drive: {e}"));
            (Vec::new(), (0, 0))
        }
    };
    match write_request_spans(workload, seed, &spans) {
        Ok(path) => println!("request spans ({}) written to {path}", spans.len()),
        Err(e) => report.fail(e),
    }

    let ideal = drive_core(&trace, plan.options.instructions, report);
    let replay_fabric = drive_fabric(seed, report);
    let replay_directory = drive_coherence(seed, &mut trace, report);

    // Parse and digest of the workload's own document; its report.
    let parse_us: Vec<f64> = (0..PARSE_CALLS)
        .map(|_| {
            let began = Instant::now();
            black_box(plans::parse(&doc).ok());
            began.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let digest_us: Vec<f64> = (0..PARSE_CALLS)
        .map(|_| {
            let began = Instant::now();
            black_box(journal::plan_digest(&plan).ok());
            began.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let report_ms: Vec<f64> = match &trace.last_study {
        Some(study) => (0..REPLAYS)
            .map(|_| {
                let began = Instant::now();
                black_box(render_report(&plan, study));
                began.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
        None => vec![0.0],
    };

    let results: Vec<RunResult> = trace
        .last_study
        .as_ref()
        .map(|s| s.results.clone())
        .unwrap_or_default();
    println!(
        "sim.result_digest {:016x}",
        crate::stats::result_digest(&results)
    );
    print!("{}", span_table(&trace.study));
    for (label, workload, run) in &trace.runs {
        let self_ns = run
            .run
            .ns
            .saturating_sub(run.build.ns + run.loop_ns + run.finish.ns);
        println!(
            "run {label} / {workload}: wall_ms {:.3} self_ms {:.3} iters {} cycles {}",
            run.run.ns as f64 / 1e6,
            self_ns as f64 / 1e6,
            run.iters,
            run.cycles
        );
    }
    for (label, t) in &trace.per_config {
        println!(
            "hierarchy.{label}: tick_ns_per_iter {:.2} port_ns_per_instr {:.2}",
            per(t.hierarchy_tick.ns, t.iters),
            per(t.issue.ns + t.drain.ns, t.instructions)
        );
    }

    let c = Counts::of(&results);
    let s = &trace.study;
    let solo = &trace.solo;
    let cmp = &trace.cmp;
    let hit = Summary::of(&nonempty(mixed::latencies_ms(
        &spans,
        Kind::Hit,
        Route::Direct,
    )));
    let submit_hit = Summary::of(&nonempty(calls.submit_hit_us.clone()));
    let untraced = median(&nonempty(trace.untraced_rates.clone()));
    let traced_rate = median(&nonempty(trace.traced_rates.clone()));
    println!("trace.overhead_ratio = untraced {untraced:.4} / traced {traced_rate:.4} Minstr/s");
    let rejected = spans
        .iter()
        .filter(|r| matches!(r.status, 429 | 503))
        .count();

    let metrics = [
        (
            "workloads.gen_ns_per_instr",
            per(solo.trace.ns, solo.trace.count),
        ),
        (
            "cpu.self_ns_per_instr",
            per(solo.core_self_ns(), solo.instructions),
        ),
        ("cpu.ideal_minstr_per_s", ideal),
        ("sim.loop_iters", s.iters as f64),
        ("sim.skip_ratio", ratio("sim.skip_ratio", s.iters, s.cycles)),
        ("sim.next_event_ns_per_iter", per(s.next_event.ns, s.iters)),
        ("sim.loop_self_ns_per_iter", per(s.loop_self_ns(), s.iters)),
        (
            "hierarchy.tick_ns_per_iter",
            per(solo.hierarchy_tick.ns, solo.iters),
        ),
        (
            "hierarchy.port_ns_per_instr",
            per(solo.issue.ns + solo.drain.ns, solo.instructions),
        ),
        ("hierarchy.issues", solo.issue.count as f64),
        (
            "hierarchy.issue_reject_ratio",
            ratio(
                "hierarchy.issue_reject_ratio",
                solo.rejects,
                solo.issue.count,
            ),
        ),
        ("fabric.searches", c.searches as f64),
        (
            "fabric.hit_ratio",
            ratio("fabric.hit_ratio", c.fabric_hits, c.searches),
        ),
        ("fabric.tile_lookups", c.tile_lookups as f64),
        ("fabric.tile_fills", c.tile_fills as f64),
        ("fabric.spills", c.spills as f64),
        (
            "fabric.transport_latency_ratio",
            ratio(
                "fabric.transport_latency_ratio",
                c.transport_latency,
                c.transport_min_latency,
            ),
        ),
        ("fabric.stall_cycles", c.stall_cycles as f64),
        ("fabric.replay_ns_per_search", replay_fabric),
        (
            "mem.l1_miss_ratio",
            ratio("mem.l1_miss_ratio", c.l1_misses, c.l1_accesses),
        ),
        ("mem.l3_accesses", c.l3_accesses as f64),
        ("mem.dram_accesses", c.dram as f64),
        ("mem.write_drains", c.write_drains as f64),
        ("dnuca.accesses", c.dnuca_accesses as f64),
        (
            "dnuca.hit_ratio",
            ratio("dnuca.hit_ratio", c.dnuca_hits, c.dnuca_accesses),
        ),
        ("cmp.tick_ns_per_iter", per(cmp.cmp_tick.ns, cmp.iters)),
        (
            "cmp.next_event_ns_per_iter",
            per(cmp.next_event.ns, cmp.iters),
        ),
        ("coherence.transactions", c.transactions as f64),
        ("coherence.recalls", c.recalls as f64),
        ("coherence.invalidations", c.invalidations as f64),
        ("coherence.replay_ns_per_op", replay_directory),
        ("study.report_ms", median(&report_ms)),
        ("serve.parse_us", median(&parse_us)),
        ("serve.digest_us", median(&digest_us)),
        ("serve.submit_hit_us", submit_hit.median),
        (
            "serve.http_overhead_ms",
            hit.median - submit_hit.median / 1e3,
        ),
        (
            "serve.cold_wait_ms",
            median(&nonempty(calls.cold_wait_ms.clone())),
        ),
        (
            "serve.cache_hit_ratio",
            ratio(
                "serve.cache_hit_ratio",
                cache_hits,
                cache_hits + cache_misses,
            ),
        ),
        ("serve.rejected", rejected as f64),
        ("trace.overhead_ratio", untraced / traced_rate),
        (
            "trace.unattributed_share",
            1.0 - s.attributed_ns() as f64 / s.run.ns.max(1) as f64,
        ),
    ];
    println!(
        "parse_us of the workload document: {}",
        Summary::of(&parse_us).describe("us")
    );
    println!(
        "digest_us of the workload plan: {}",
        Summary::of(&digest_us).describe("us")
    );
    println!("serve hit over HTTP (direct route): {}", hit.describe("ms"));
    println!("serve hit in process: {}", submit_hit.describe("us"));
    for (name, value) in metrics {
        report.set(name, value);
    }
}

/// `v`, or `[0.0]` when a drive produced no samples (its failure is
/// already on the report).
fn nonempty(v: Vec<f64>) -> Vec<f64> {
    if v.is_empty() {
        vec![0.0]
    } else {
        v
    }
}
