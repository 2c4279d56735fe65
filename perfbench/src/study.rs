//! The simulator workloads (`uni-warm`, `uni-miss`, `cmp-sharing`):
//! set-up, the timed `Study::run` loop and the correctness checks.

use crate::plans::{self, Workload};
use crate::stats::{result_digest, Summary};
use crate::Report;
use lnuca_sim::cmp::CmpMachine;
use lnuca_sim::experiments::{ExperimentPlan, Study, WorkloadSelection};
use lnuca_sim::journal;
use lnuca_sim::scenario;
use lnuca_sim::system::{RunResult, System};
use lnuca_workloads::{suites, WorkloadProfile};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Share of each study's wall time spent right after it on the short
/// operations: quick runs (`op_p50_ms`) alternating with set-ups
/// (`setup_s`). Spreading their samples over the run keeps one moment of
/// host load from setting the median of a millisecond-scale figure.
const SHORT_OPS_SHARE: f64 = 0.05;

/// Instructions per core of a quick run: the cold scale of
/// `BENCH_baseline.json` and of a first look at a scenario, where
/// construction and the cold-cache phase weigh as much as the warm path.
const QUICK_INSTRUCTIONS: u64 = 5_000;

/// The profiles a plan names, in plan order.
///
/// # Errors
///
/// A plan that does not name its workloads, or an unknown name.
pub fn profiles(plan: &ExperimentPlan) -> Result<Vec<WorkloadProfile>, String> {
    match &plan.options.workloads {
        WorkloadSelection::Named(names) => names
            .iter()
            .map(|n| suites::by_name(n).map_err(|e| e.to_string()))
            .collect(),
        other => Err(format!(
            "benchmark plans name their workloads, got {other:?}"
        )),
    }
}

/// Simulated instructions one study of `plan` commits (all cores).
///
/// # Errors
///
/// See [`profiles`].
pub fn study_instructions(plan: &ExperimentPlan) -> Result<u64, String> {
    let cores: u64 = plan.configs.iter().map(|c| c.cores as u64).sum();
    Ok(cores * profiles(plan)?.len() as u64 * plan.options.instructions)
}

/// Everything a study needs before its first run: the document parsed into
/// a plan, the plan's digest, and every configuration built once.
///
/// # Errors
///
/// Any parse, plan or configuration error.
pub fn setup(doc: &str) -> Result<ExperimentPlan, String> {
    let plan = plans::parse(doc)?;
    black_box(journal::plan_digest(&plan).map_err(|e| e.to_string())?);
    let first = profiles(&plan)?
        .into_iter()
        .next()
        .ok_or("a benchmark plan names at least one workload")?;
    let (instructions, seed) = (plan.options.instructions, plan.options.seed);
    for spec in &plan.configs {
        if spec.cores > 1 {
            let machine =
                CmpMachine::from_spec(spec, &first, instructions, seed, lnuca_mem::NoProbe);
            black_box(machine.map_err(|e| e.to_string())?);
        } else {
            black_box(System::build_spec(spec).map_err(|e| e.to_string())?);
        }
    }
    Ok(plan)
}

/// Cores of the configuration labelled `label`.
fn cores_of(plan: &ExperimentPlan, label: &str) -> Option<u64> {
    plan.configs
        .iter()
        .find(|c| c.label() == label)
        .map(|c| c.cores as u64)
}

/// Whether `result` committed its full budget: `instructions` per core.
#[must_use]
pub fn full_budget(plan: &ExperimentPlan, result: &RunResult) -> bool {
    let budget = plan.options.instructions;
    let per_core_ok = result.per_core.iter().all(|row| row.instructions == budget);
    cores_of(plan, &result.label).is_some_and(|cores| result.instructions == budget * cores)
        && per_core_ok
}

/// Checks one study: every cell ran, reported `ok` and committed its full
/// budget. Counts every cell as one attempted operation.
pub fn check_study(plan: &ExperimentPlan, study: &Study, report: &mut Report) {
    let cells = plan.configs.len() * profiles(plan).map_or(0, |p| p.len());
    report.check(study.results.len() + study.failures.len() == cells, || {
        format!(
            "study {} accounted for {} of {cells} cells",
            plan.name,
            study.results.len() + study.failures.len()
        )
    });
    for result in &study.results {
        let ok = full_budget(plan, result);
        report.tally.record(ok);
        report.check(ok, || {
            format!(
                "{} / {} committed {} instructions, short of its budget",
                result.label, result.workload, result.instructions
            )
        });
    }
    for failure in &study.failures {
        report.tally.record(false);
        report.fail(format!(
            "{} / {} failed: {}",
            failure.label, failure.workload, failure.error
        ));
    }
}

/// Validates a rendered `lnuca-report/v1` document against the schema and
/// checks that each row is `ok` with its full budget.
///
/// # Errors
///
/// The first violation.
pub fn check_report_text(text: &str, plan: &ExperimentPlan) -> Result<(), String> {
    let value = serde::json::parse(text).map_err(|e| format!("report is not JSON: {e}"))?;
    scenario::validate_report(&value)?;
    let rows = value
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or("report has no results array")?;
    let cells = plan.configs.len() * profiles(plan)?.len();
    if rows.len() != cells {
        return Err(format!(
            "report has {} rows, the plan {cells} cells",
            rows.len()
        ));
    }
    for row in rows {
        let field = |name: &str| row.get(name).ok_or(format!("row without {name}"));
        let status = field("status")?.as_str().unwrap_or_default();
        let label = field("label")?.as_str().unwrap_or_default();
        let instructions = field("instructions")?.as_u64();
        let budget = cores_of(plan, label).map(|c| c * plan.options.instructions);
        if status != "ok" || instructions != budget {
            return Err(format!(
                "row {label}: status {status}, {instructions:?} instructions for budget {budget:?}"
            ));
        }
    }
    Ok(())
}

/// Renders `study`'s report as the CLI and daemon do.
#[must_use]
pub fn render_report(plan: &ExperimentPlan, study: &Study) -> String {
    scenario::report_value(plan, study).to_pretty()
}

/// A quick run: the plan's first configuration on its first profile at
/// [`QUICK_INSTRUCTIONS`] per core, built and run from scratch.
///
/// # Errors
///
/// See [`profiles`] and `System::run_spec`.
fn quick_run(plan: &ExperimentPlan) -> Result<RunResult, String> {
    let spec = plan
        .configs
        .first()
        .ok_or("the plan has no configuration")?;
    let profile = profiles(plan)?
        .into_iter()
        .next()
        .ok_or("the plan names no workload")?;
    System::run_spec(spec, &profile, QUICK_INSTRUCTIONS, plan.options.seed)
        .map_err(|e| e.to_string())
}

/// The untraced run of a simulator workload: set-up, then `Study::run`
/// repeated until `seconds` have passed (at least once), each study
/// followed by the short operations for [`SHORT_OPS_SHARE`] of its time.
pub fn run(workload: Workload, seed: u64, seconds: Duration, report: &mut Report) {
    let doc = workload.document(seed);
    let began = Instant::now();
    let plan = match setup(&doc) {
        Ok(p) => p,
        Err(e) => return report.fail(format!("set-up failed: {e}")),
    };
    let mut setups = vec![began.elapsed().as_secs_f64()];
    let instructions = match study_instructions(&plan) {
        Ok(n) => n,
        Err(e) => return report.fail(e),
    };
    let quick_budget = QUICK_INSTRUCTIONS * plan.configs.first().map_or(1, |c| c.cores as u64);
    let mut walls_ms = Vec::new();
    let mut quick_ms = Vec::new();
    let mut rates = Vec::new();
    let mut digest = None;
    let mut first_quick = None;
    let start = Instant::now();
    while walls_ms.is_empty() || start.elapsed() < seconds {
        let began = Instant::now();
        let study = match Study::run(&plan) {
            Ok(s) => s,
            Err(e) => return report.fail(format!("Study::run: {e}")),
        };
        let wall = began.elapsed().as_secs_f64();
        check_study(&plan, &study, report);
        let this = result_digest(&study.results);
        report.check(*digest.get_or_insert(this) == this, || {
            format!(
                "study {} gave digest {this:016x}, an earlier one differed",
                walls_ms.len()
            )
        });
        if walls_ms.is_empty() {
            if let Err(e) = check_report_text(&render_report(&plan, &study), &plan) {
                report.fail(format!("report check: {e}"));
            }
        }
        let until = Instant::now() + Duration::from_secs_f64(wall * SHORT_OPS_SHARE);
        loop {
            let began = Instant::now();
            let quick = quick_run(&plan);
            quick_ms.push(began.elapsed().as_secs_f64() * 1e3);
            let ok = match quick {
                Ok(result) => {
                    result.instructions == quick_budget
                        && *first_quick.get_or_insert_with(|| result.clone()) == result
                }
                Err(e) => return report.fail(format!("quick run: {e}")),
            };
            report.tally.record(ok);
            report.check(ok, || {
                "a quick run fell short of its budget or differed from the first".to_owned()
            });
            let began = Instant::now();
            if let Err(e) = setup(&doc) {
                return report.fail(format!("set-up failed: {e}"));
            }
            setups.push(began.elapsed().as_secs_f64());
            if Instant::now() >= until {
                break;
            }
        }
        println!(
            "study {}: {:.1} ms, {:.4} Minstr/s",
            walls_ms.len(),
            wall * 1e3,
            instructions as f64 / wall / 1e6
        );
        walls_ms.push(wall * 1e3);
        rates.push(instructions as f64 / wall / 1e6);
    }
    let rate = Summary::of(&rates);
    let wall = Summary::of(&walls_ms);
    let quick = Summary::of(&quick_ms);
    let setup = Summary::of(&setups);
    println!("sim.result_digest {:016x}", digest.unwrap_or_default());
    println!(
        "metric sim_minstr_per_s: {} ({instructions} simulated instructions per study)",
        rate.describe_rate("Minstr/s")
    );
    println!("one Study::run: {}", wall.describe("ms"));
    println!(
        "metric op_p50_ms (quick run: first configuration and profile, {quick_budget} instructions, built from scratch): {}",
        quick.describe("ms")
    );
    println!(
        "metric setup_s (parse, plan, build every configuration): {}",
        setup.describe("s")
    );
    report.set("sim_minstr_per_s", rate.median);
    report.set("op_p50_ms", quick.median);
    report.set("setup_s", setup.median);
}
