//! One entry point per table/figure of the paper's evaluation.
//!
//! The evaluation has two halves, each driven by one [`Study`]:
//!
//! * the **conventional** study (Figs. 4(a), 4(b) and Table III) compares
//!   `L2-256KB` against `LN2/LN3/LN4` backed by the 8 MB L3,
//! * the **D-NUCA** study (Figs. 5(a) and 5(b)) compares `DN-4x8` against
//!   `LN2/LN3/LN4 + DN-4x8`.
//!
//! A study runs every configuration on every synthetic benchmark of both
//! suites once; the per-figure summaries are then derived from the stored
//! [`RunResult`]s, so the expensive simulations are never repeated.
//! Table II (area) needs no simulation and is computed from the area model.

use crate::configs::{self, HierarchyKind};
use crate::energy_model;
use crate::journal::{self, JournalWriter};
use crate::spec::HierarchySpec;
use crate::supervise::{self, StopSignal, Supervisor};
use crate::system::{Engine, RunResult};
use lnuca_energy::{AreaModel, PAPER_TABLE2};
use lnuca_types::stats::harmonic_mean;
use lnuca_types::{ConfigError, RunError};
use lnuca_workloads::{suites, Suite, WorkloadProfile};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which workload profiles an experiment matrix runs over.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WorkloadSelection {
    /// The paper's 22 synthetic benchmarks (11 INT-like + 11 FP-like).
    #[default]
    Paper,
    /// The paper suites plus the four adversarial access-pattern classes
    /// (`suites::adversarial`): pointer chase, strided streaming, GUPS and
    /// phase mix.
    Extended,
    /// Only the four adversarial access-pattern classes.
    Adversarial,
    /// Explicit profile names, resolved case-insensitively through
    /// `suites::by_name` (unknown names fail loudly with the valid list).
    Named(Vec<String>),
}

impl WorkloadSelection {
    /// Parses one of the predefined-set keywords (`paper`/`default`,
    /// `extended`/`all`, `adversarial`/`adv`), as the `LNUCA_WORKLOADS`
    /// knob and the scenario files spell them. Explicit name lists are not
    /// keywords; `None` for anything else.
    #[must_use]
    pub fn from_keyword(raw: &str) -> Option<Self> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "paper" | "default" => Some(WorkloadSelection::Paper),
            "extended" | "all" => Some(WorkloadSelection::Extended),
            "adversarial" | "adv" => Some(WorkloadSelection::Adversarial),
            _ => None,
        }
    }

    /// The keyword of a predefined selection (`None` for [`Self::Named`]).
    #[must_use]
    pub fn keyword(&self) -> Option<&'static str> {
        match self {
            WorkloadSelection::Paper => Some("paper"),
            WorkloadSelection::Extended => Some("extended"),
            WorkloadSelection::Adversarial => Some("adversarial"),
            WorkloadSelection::Named(_) => None,
        }
    }
}

/// Knobs shared by every experiment.
///
/// `#[non_exhaustive]`: construct one with [`ExperimentOptions::builder`]
/// (or start from [`ExperimentOptions::default`] / [`ExperimentOptions::quick`]
/// and mutate fields) — three consecutive PRs added fields here by breaking
/// every downstream struct literal; the builder ends that.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentOptions {
    /// Instructions simulated per (configuration, benchmark) pair.
    pub instructions: u64,
    /// Base seed for the synthetic traces.
    pub seed: u64,
    /// Restrict each suite to its first N benchmarks (None = all eleven).
    pub benchmarks_per_suite: Option<usize>,
    /// Which workload profiles to run the matrix over.
    pub workloads: WorkloadSelection,
    /// L-NUCA level counts to evaluate (the paper uses 2, 3 and 4).
    pub lnuca_levels: Vec<u8>,
    /// Worker threads running the configuration × benchmark matrix
    /// (1 = sequential on the calling thread). Every run is seed-isolated,
    /// so the results — and every summary derived from them — are identical
    /// whatever the thread count; only the wall-clock changes.
    pub threads: usize,
    /// Time-stepping engine for every run. Like `threads`, this changes
    /// only the wall clock: both engines are bit-identical in results
    /// (`tests/event_horizon_determinism.rs`), so summaries never depend on
    /// it. Recorded in the `lnuca-bench-baseline/v2` perf baseline.
    pub engine: Engine,
    /// Watchdog: abort any run whose simulated clock reaches this many
    /// cycles with the workload unfinished (`None` = no budget; the
    /// `LNUCA_CYCLE_BUDGET` knob). Deterministic — a tripped run trips at
    /// the same cycle on every attempt and engine, so it is never retried.
    pub cycle_budget: Option<u64>,
    /// Watchdog: abort any run whose wall clock exceeds this many
    /// milliseconds (`None` = no timeout; the `LNUCA_RUN_TIMEOUT_MS`
    /// knob). Host-dependent, hence treated as transient and retried.
    pub run_timeout_ms: Option<u64>,
    /// Watchdog: abort any run in which no instruction commits for this
    /// many consecutive cycles (`None` = no livelock detection; the
    /// `LNUCA_LIVELOCK_WINDOW` knob). Deterministic per engine.
    pub livelock_window: Option<u64>,
    /// Extra attempts granted to transiently-failed runs (panics and
    /// wall-clock timeouts); deterministic watchdog trips never retry.
    /// The `LNUCA_RETRIES` knob.
    pub retries: u32,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            instructions: 200_000,
            seed: 1,
            benchmarks_per_suite: None,
            workloads: WorkloadSelection::Paper,
            lnuca_levels: vec![2, 3, 4],
            threads: 1,
            engine: Engine::EventHorizon,
            cycle_budget: None,
            run_timeout_ms: None,
            livelock_window: None,
            retries: 1,
        }
    }
}

impl ExperimentOptions {
    /// A reduced option set for quick smoke runs and unit tests.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentOptions {
            instructions: 5_000,
            benchmarks_per_suite: Some(2),
            lnuca_levels: vec![2, 3],
            ..ExperimentOptions::default()
        }
    }

    /// Starts building options from [`ExperimentOptions::default`].
    #[must_use]
    pub fn builder() -> ExperimentOptionsBuilder {
        ExperimentOptionsBuilder {
            options: ExperimentOptions::default(),
        }
    }

    pub(crate) fn workloads(&self) -> Result<Vec<WorkloadProfile>, ConfigError> {
        let take = |v: Vec<WorkloadProfile>| -> Vec<WorkloadProfile> {
            match self.benchmarks_per_suite {
                Some(n) => v.into_iter().take(n).collect(),
                None => v,
            }
        };
        let paper = || {
            let mut all = take(suites::spec_int_like());
            all.extend(take(suites::spec_fp_like()));
            all
        };
        Ok(match &self.workloads {
            WorkloadSelection::Paper => paper(),
            WorkloadSelection::Extended => {
                let mut all = paper();
                all.extend(take(suites::adversarial()));
                all
            }
            WorkloadSelection::Adversarial => take(suites::adversarial()),
            WorkloadSelection::Named(names) => {
                if names.is_empty() {
                    return Err(ConfigError::new(
                        "workloads",
                        "Named selection lists no workloads; the matrix would be empty",
                    ));
                }
                names
                    .iter()
                    .map(|name| suites::by_name(name))
                    .collect::<Result<Vec<_>, _>>()?
            }
        })
    }
}

/// Builder for [`ExperimentOptions`] (see [`ExperimentOptions::builder`]).
#[derive(Debug, Clone)]
pub struct ExperimentOptionsBuilder {
    options: ExperimentOptions,
}

impl ExperimentOptionsBuilder {
    /// Sets the instructions per (configuration, benchmark) pair.
    #[must_use]
    pub fn instructions(mut self, instructions: u64) -> Self {
        self.options.instructions = instructions;
        self
    }

    /// Sets the base seed for the synthetic traces.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Restricts each suite to its first N benchmarks.
    #[must_use]
    pub fn benchmarks_per_suite(mut self, n: Option<usize>) -> Self {
        self.options.benchmarks_per_suite = n;
        self
    }

    /// Sets which workload profiles the matrix runs over.
    #[must_use]
    pub fn workloads(mut self, workloads: WorkloadSelection) -> Self {
        self.options.workloads = workloads;
        self
    }

    /// Sets the L-NUCA level counts the built-in paper plans expand into
    /// configurations.
    #[must_use]
    pub fn lnuca_levels(mut self, levels: Vec<u8>) -> Self {
        self.options.lnuca_levels = levels;
        self
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads.max(1);
        self
    }

    /// Sets the time-stepping engine.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.options.engine = engine;
        self
    }

    /// Sets the cycle-budget watchdog (`None` = no budget).
    #[must_use]
    pub fn cycle_budget(mut self, budget: Option<u64>) -> Self {
        self.options.cycle_budget = budget;
        self
    }

    /// Sets the wall-clock timeout watchdog in milliseconds (`None` = no
    /// timeout).
    #[must_use]
    pub fn run_timeout_ms(mut self, timeout_ms: Option<u64>) -> Self {
        self.options.run_timeout_ms = timeout_ms;
        self
    }

    /// Sets the no-commit livelock window in cycles (`None` = no livelock
    /// detection).
    #[must_use]
    pub fn livelock_window(mut self, window: Option<u64>) -> Self {
        self.options.livelock_window = window;
        self
    }

    /// Sets how many extra attempts a transiently-failed run gets.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.options.retries = retries;
        self
    }

    /// Produces the options (no validation needed — every field is clamped
    /// or checked where it is consumed).
    #[must_use]
    pub fn build(self) -> ExperimentOptions {
        self.options
    }
}

/// A named, fully-declarative experiment: which hierarchy configurations to
/// run (baseline first) over which workloads with which engine knobs.
///
/// This is the single entry point's input ([`Study::run`]); the scenario
/// JSON files of `crate::scenario` deserialize into it, and the built-in
/// paper plans ([`ExperimentPlan::paper_conventional`] /
/// [`ExperimentPlan::paper_dnuca`]) spell out the paper's two study
/// matrices.
///
/// # Example
///
/// ```
/// use lnuca_sim::experiments::{ExperimentOptions, ExperimentPlan, Study};
/// use lnuca_sim::spec::HierarchySpec;
///
/// let plan = ExperimentPlan::builder("fabric-only")
///     .config(
///         HierarchySpec::builder()
///             .fabric(lnuca_core::LNucaConfig::paper(2)?)
///             .build()?,
///     )
///     .options(
///         ExperimentOptions::builder()
///             .instructions(2_000)
///             .benchmarks_per_suite(Some(1))
///             .build(),
///     )
///     .build()?;
/// let study = Study::run(&plan)?;
/// assert_eq!(study.baseline, "LN2-72KB + mem");
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPlan {
    /// Plan name (the scenario name when loaded from a file).
    pub name: String,
    /// The hierarchy configurations to evaluate; the first is the baseline
    /// every summary normalises to.
    pub configs: Vec<HierarchySpec>,
    /// Run knobs (instructions, seed, workloads, threads, engine).
    pub options: ExperimentOptions,
}

impl ExperimentPlan {
    /// Starts building a plan named `name` with default options and no
    /// configurations.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ExperimentPlanBuilder {
        ExperimentPlanBuilder {
            plan: ExperimentPlan {
                name: name.into(),
                configs: Vec::new(),
                options: ExperimentOptions::default(),
            },
        }
    }

    /// The conventional-study plan: baseline `L2-256KB` plus one
    /// `LNx + L3` configuration per entry of `options.lnuca_levels` —
    /// the matrix of Figs. 4(a)/4(b) and Table III.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if a level count is out of range.
    pub fn paper_conventional(options: &ExperimentOptions) -> Result<Self, ConfigError> {
        let mut builder = Self::builder("paper-conventional")
            .config(HierarchyKind::Conventional(configs::conventional()).to_spec());
        for &levels in &options.lnuca_levels {
            let config = lnuca_core::LNucaConfig::paper(levels)?;
            builder = builder.config(
                HierarchySpec::builder()
                    .fabric(config)
                    .backing_cache(configs::paper_l3())
                    .build()?,
            );
        }
        builder.options(options.clone()).build()
    }

    /// The D-NUCA-study plan: baseline `DN-4x8` plus one `LNx + DN-4x8`
    /// configuration per entry of `options.lnuca_levels` — the matrix of
    /// Figs. 5(a)/5(b).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if a level count is out of range.
    pub fn paper_dnuca(options: &ExperimentOptions) -> Result<Self, ConfigError> {
        let mut builder = Self::builder("paper-dnuca")
            .config(HierarchyKind::DNuca(configs::dnuca_hierarchy()).to_spec());
        for &levels in &options.lnuca_levels {
            let config = lnuca_core::LNucaConfig::paper(levels)?;
            builder = builder.config(
                HierarchySpec::builder()
                    .fabric(config)
                    .backing_dnuca(lnuca_dnuca::DNucaConfig::paper())
                    .build()?,
            );
        }
        builder.options(options.clone()).build()
    }

    /// The label of the baseline configuration (the first one).
    #[must_use]
    pub fn baseline_label(&self) -> String {
        self.configs
            .first()
            .map(HierarchySpec::label)
            .unwrap_or_default()
    }
}

/// Builder for [`ExperimentPlan`] (see [`ExperimentPlan::builder`]).
#[derive(Debug, Clone)]
pub struct ExperimentPlanBuilder {
    plan: ExperimentPlan,
}

impl ExperimentPlanBuilder {
    /// Appends one configuration (the first appended is the baseline).
    #[must_use]
    pub fn config(mut self, spec: HierarchySpec) -> Self {
        self.plan.configs.push(spec);
        self
    }

    /// Appends several configurations in order.
    #[must_use]
    pub fn configs(mut self, specs: impl IntoIterator<Item = HierarchySpec>) -> Self {
        self.plan.configs.extend(specs);
        self
    }

    /// Sets the run options.
    #[must_use]
    pub fn options(mut self, options: ExperimentOptions) -> Self {
        self.plan.options = options;
        self
    }

    /// Validates and produces the plan.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the plan has no configurations, a spec
    /// is invalid, or two configurations share a label (summaries group
    /// results by label, so duplicates would silently merge).
    pub fn build(self) -> Result<ExperimentPlan, ConfigError> {
        if self.plan.configs.is_empty() {
            return Err(ConfigError::new(
                "configs",
                "an experiment plan needs at least one hierarchy configuration",
            ));
        }
        if self.plan.options.benchmarks_per_suite == Some(0) {
            return Err(ConfigError::new(
                "options.benchmarks_per_suite",
                "a zero-benchmark cap would empty every suite; use 1 or more, \
                 or None for all (the LNUCA_BENCHMARKS_PER_SUITE knob)",
            ));
        }
        let mut labels: Vec<String> = Vec::new();
        for spec in &self.plan.configs {
            spec.validate()?;
            let label = spec.label();
            if labels.contains(&label) {
                return Err(ConfigError::new(
                    "configs",
                    format!(
                        "two configurations derive the label {label:?}; set an explicit \
                         label on one of them"
                    ),
                ));
            }
            labels.push(label);
        }
        Ok(self.plan)
    }
}

/// All simulation results of one half of the evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Study {
    /// Label of the baseline configuration the others are normalised to.
    pub baseline: String,
    /// Configuration labels in evaluation order (baseline first).
    pub configs: Vec<String>,
    /// One result per (configuration, benchmark) that completed.
    pub results: Vec<RunResult>,
    /// Wall-clock measurement of each run, index-aligned with `results`.
    /// Unlike `results` this is host-dependent (machine, load, thread
    /// count); determinism comparisons must ignore it.
    pub perf: Vec<RunPerf>,
    /// Runs that could not produce a result (panicked, tripped a watchdog,
    /// exhausted their retries), in matrix order. The summaries aggregate
    /// over `results` only; a non-empty `failures` makes the `lnuca` CLI
    /// exit nonzero after still writing the report.
    pub failures: Vec<FailedRun>,
}

/// One cell of the experiment matrix that failed to produce a result, with
/// the structured reason and the attempts spent (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedRun {
    /// Configuration label of the failed run.
    pub label: String,
    /// Workload name of the failed run.
    pub workload: String,
    /// Suite the workload belongs to.
    pub suite: Suite,
    /// Trace seed of the failed run.
    pub seed: u64,
    /// Why the run failed (final error after retries).
    pub error: RunError,
    /// Total attempts spent (1 = failed on the first try and the failure
    /// was not retryable).
    pub attempts: u32,
}

/// Wall-clock cost of simulating one (configuration, benchmark) pair,
/// recorded by the experiment engine next to the [`RunResult`] at the same
/// index of [`Study::results`]. This is the simulator's own throughput (the
/// perf-trajectory metric of `BENCH_baseline.json`), not a property of the
/// modelled hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunPerf {
    /// Configuration label.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Wall-clock nanoseconds spent simulating this run.
    pub wall_nanos: u64,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Simulated kilo-cycles per wall-clock second.
    pub kcycles_per_sec: f64,
}

/// One row of Fig. 4(a) / Fig. 5(a): harmonic-mean IPC per suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IpcSummaryRow {
    /// Configuration label.
    pub label: String,
    /// Harmonic-mean IPC over the Integer suite.
    pub int_ipc: f64,
    /// Harmonic-mean IPC over the Floating-Point suite.
    pub fp_ipc: f64,
    /// Percent change of `int_ipc` versus the baseline configuration.
    pub int_gain_pct: f64,
    /// Percent change of `fp_ipc` versus the baseline configuration.
    pub fp_gain_pct: f64,
}

/// One row of Fig. 4(b) / Fig. 5(b): energy normalised to the baseline,
/// split into the paper's four bar segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergySummaryRow {
    /// Configuration label.
    pub label: String,
    /// Dynamic energy / baseline total energy.
    pub dynamic: f64,
    /// Static L1 (root tile) energy / baseline total energy.
    pub static_l1: f64,
    /// Static L2-or-tiles energy / baseline total energy.
    pub static_second: f64,
    /// Static L3-or-D-NUCA energy / baseline total energy.
    pub static_last: f64,
    /// Total normalised energy (sum of the four segments).
    pub total: f64,
}

/// One row of Table III: read hits per L-NUCA level relative to the read
/// hits of the baseline's second level, plus the transport-contention ratio.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HitDistributionRow {
    /// Configuration label.
    pub label: String,
    /// Workload suite the row aggregates.
    pub suite: Suite,
    /// Per-level percentage (index 0 = Le2) relative to baseline L2 hits.
    pub level_percent: Vec<f64>,
    /// Sum of all levels, relative to baseline L2 hits.
    pub all_levels_percent: f64,
    /// Average-to-minimum Transport-network latency ratio.
    pub avg_to_min_transport: f64,
}

/// One row of Table II: configuration areas, paper value and model value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AreaRow {
    /// Configuration label.
    pub label: String,
    /// Area printed in the paper (mm²), if the paper tabulates it.
    pub paper_mm2: Option<f64>,
    /// Area computed by the analytical model (mm²).
    pub model_mm2: f64,
    /// Network share printed in the paper (percent).
    pub paper_network_pct: Option<f64>,
    /// Network share computed by the model (percent).
    pub model_network_pct: f64,
}

/// The headline comparison of the paper's abstract/conclusion: LN3-144KB
/// versus L2-256KB.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadlineSummary {
    /// Area change of LN3 versus the baseline, in percent (negative = saves
    /// area).
    pub area_change_pct: f64,
    /// Integer IPC change in percent.
    pub int_ipc_gain_pct: f64,
    /// Floating-point IPC change in percent.
    pub fp_ipc_gain_pct: f64,
    /// Total energy change in percent (negative = saves energy).
    pub energy_change_pct: f64,
}

impl Study {
    /// Runs an [`ExperimentPlan`]: every configuration × every selected
    /// workload, fanned out over `plan.options.threads` workers, outcomes
    /// collected in job order (bit-identical to a sequential run).
    ///
    /// Every job runs supervised (DESIGN.md §14): a panic, watchdog trip or
    /// retry exhaustion lands in [`Study::failures`] instead of unwinding or
    /// aborting the study.
    ///
    /// This is the one experiment entry point; the paper studies are the
    /// built-in [`ExperimentPlan::paper_conventional`] /
    /// [`ExperimentPlan::paper_dnuca`] plans.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the plan is empty, a configuration is
    /// invalid, or a named workload does not exist. Per-run failures do
    /// **not** error — they are collected in [`Study::failures`].
    pub fn run(plan: &ExperimentPlan) -> Result<Self, ConfigError> {
        Self::run_inner(plan, None, Vec::new(), None)
    }

    /// Runs a plan with a crash-safe journal at `path`: every completed run
    /// is appended to the journal as it finishes, and with `resume = true` a
    /// journal left behind by an interrupted invocation of the *same* plan
    /// is replayed — already-journaled runs are not re-simulated, and the
    /// finished study is byte-identical (runs are deterministic) to one
    /// produced in a single uninterrupted invocation.
    ///
    /// The journal is content-addressed by a digest over the plan's
    /// semantic fields (configurations, workloads, instructions, seed —
    /// not threads or engine, which cannot change results); resuming
    /// against a journal written for a different plan is a
    /// [`RunError::JournalCorrupt`].
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] on an invalid plan, [`RunError::JournalCorrupt`]
    /// on a journal that does not match the plan or cannot be read/written.
    pub fn run_journaled(
        plan: &ExperimentPlan,
        path: &Path,
        resume: bool,
    ) -> Result<Self, RunError> {
        Self::run_controlled(plan, Some(path), resume, &StopSignal::new())
    }

    /// The full-control entry point behind the serve daemon: an optional
    /// crash-safe journal (as in [`Study::run_journaled`]) plus a
    /// cooperative [`StopSignal`].
    ///
    /// Raising the signal mid-study stops the worker pool cleanly at run
    /// granularity: in-flight runs finish (and are journaled), every run
    /// not yet started lands in [`Study::failures`] with the signal's
    /// [`RunError`] (`Cancelled` or `Shutdown`). Because failures are never
    /// journaled, re-running the same plan against the same journal with
    /// `resume = true` replays the completed runs and simulates only the
    /// rest — producing a report byte-identical to one from a single
    /// uninterrupted invocation.
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] on an invalid plan, [`RunError::JournalCorrupt`]
    /// on a journal that does not match the plan or cannot be read/written.
    pub fn run_controlled(
        plan: &ExperimentPlan,
        journal: Option<&Path>,
        resume: bool,
        stop: &StopSignal,
    ) -> Result<Self, RunError> {
        let Some(path) = journal else {
            return Ok(Self::run_inner(plan, None, Vec::new(), Some(stop))?);
        };
        let total = journal::job_count(plan)?;
        let (writer, preloaded) = if resume && path.exists() {
            let preloaded = journal::read_journal(path, plan, total)?;
            (JournalWriter::append(path)?, preloaded)
        } else {
            (JournalWriter::create(path, plan, total)?, Vec::new())
        };
        let study = Self::run_inner(plan, Some(&writer), preloaded, Some(stop))?;
        writer.finish()?;
        Ok(study)
    }

    /// The shared engine behind [`Study::run`] and [`Study::run_journaled`]:
    /// builds the job matrix, skips jobs already present in `preloaded`
    /// (index-aligned with the matrix), runs the rest supervised and merges
    /// everything back in matrix order.
    fn run_inner(
        plan: &ExperimentPlan,
        journal: Option<&JournalWriter>,
        mut preloaded: Vec<Option<(RunResult, RunPerf)>>,
        stop: Option<&StopSignal>,
    ) -> Result<Self, ConfigError> {
        let opts = &plan.options;
        let workloads = opts.workloads()?;
        if plan.configs.is_empty() {
            return Err(ConfigError::new(
                "configs",
                "an experiment plan needs at least one hierarchy configuration",
            ));
        }
        let configs: Vec<String> = plan.configs.iter().map(HierarchySpec::label).collect();
        let baseline = configs[0].clone();
        let supervisor = Supervisor::from_options(opts);
        let mut jobs = Vec::with_capacity(plan.configs.len() * workloads.len());
        for spec in &plan.configs {
            for (i, profile) in workloads.iter().enumerate() {
                jobs.push(Job {
                    index: jobs.len(),
                    spec,
                    profile,
                    seed: opts.seed.wrapping_add(i as u64),
                });
            }
        }
        let pending: Vec<Job<'_>> = jobs
            .iter()
            .filter(|job| !matches!(preloaded.get(job.index), Some(Some(_))))
            .copied()
            .collect();
        let outcomes = run_jobs(
            &pending,
            opts.instructions,
            opts.threads,
            opts.engine,
            &supervisor,
            journal,
            stop,
        );
        let mut ran = pending.iter().zip(outcomes);
        let mut results = Vec::with_capacity(jobs.len());
        let mut perf = Vec::with_capacity(jobs.len());
        let mut failures = Vec::new();
        for job in &jobs {
            if let Some(slot @ Some(_)) = preloaded.get_mut(job.index) {
                let (result, run_perf) = slot.take().expect("checked Some above");
                results.push(result);
                perf.push(run_perf);
                continue;
            }
            let (ran_job, supervised) = ran
                .next()
                .expect("run_jobs returns one outcome per pending job");
            debug_assert_eq!(ran_job.index, job.index);
            match supervised.outcome {
                Ok((result, run_perf)) => {
                    results.push(result);
                    perf.push(run_perf);
                }
                Err(error) => failures.push(FailedRun {
                    label: job.spec.label(),
                    workload: job.profile.name.clone(),
                    suite: job.profile.suite,
                    seed: job.seed,
                    error,
                    attempts: supervised.attempts,
                }),
            }
        }
        Ok(Study {
            baseline,
            configs,
            results,
            perf,
            failures,
        })
    }

    /// Results belonging to one configuration.
    pub fn results_for<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a RunResult> {
        self.results.iter().filter(move |r| r.label == label)
    }

    fn suite_ipcs(&self, label: &str, suite: Suite) -> Vec<f64> {
        self.results_for(label)
            .filter(|r| r.suite == suite)
            .map(|r| r.ipc)
            .collect()
    }

    /// Harmonic-mean IPC per suite for every configuration (Figs. 4(a) and
    /// 5(a)).
    #[must_use]
    pub fn ipc_summary(&self) -> Vec<IpcSummaryRow> {
        let base_int = harmonic_mean(&self.suite_ipcs(&self.baseline, Suite::Integer)).unwrap_or(1.0);
        let base_fp =
            harmonic_mean(&self.suite_ipcs(&self.baseline, Suite::FloatingPoint)).unwrap_or(1.0);
        self.configs
            .iter()
            .map(|label| {
                let int_ipc =
                    harmonic_mean(&self.suite_ipcs(label, Suite::Integer)).unwrap_or(0.0);
                let fp_ipc =
                    harmonic_mean(&self.suite_ipcs(label, Suite::FloatingPoint)).unwrap_or(0.0);
                IpcSummaryRow {
                    label: label.clone(),
                    int_ipc,
                    fp_ipc,
                    int_gain_pct: (int_ipc / base_int - 1.0) * 100.0,
                    fp_gain_pct: (fp_ipc / base_fp - 1.0) * 100.0,
                }
            })
            .collect()
    }

    /// Average energy per configuration, normalised to the baseline's
    /// average total energy and split into the paper's four bar segments
    /// (Figs. 4(b) and 5(b)).
    #[must_use]
    pub fn energy_summary(&self) -> Vec<EnergySummaryRow> {
        let mean_components = |label: &str| -> (f64, f64, f64, f64) {
            let runs: Vec<&RunResult> = self.results_for(label).collect();
            let n = runs.len().max(1) as f64;
            let sum = |f: &dyn Fn(&RunResult) -> f64| runs.iter().map(|r| f(r)).sum::<f64>() / n;
            (
                sum(&|r| r.energy.total_dynamic_pj()),
                sum(&|r| r.energy.static_pj(energy_model::STATIC_L1)),
                sum(&|r| r.energy.static_pj(energy_model::STATIC_SECOND)),
                sum(&|r| r.energy.static_pj(energy_model::STATIC_LAST)),
            )
        };
        let (bd, bl1, bsec, blast) = mean_components(&self.baseline);
        let baseline_total = bd + bl1 + bsec + blast;
        self.configs
            .iter()
            .map(|label| {
                let (d, l1, sec, last) = mean_components(label);
                let norm = |v: f64| if baseline_total > 0.0 { v / baseline_total } else { 0.0 };
                EnergySummaryRow {
                    label: label.clone(),
                    dynamic: norm(d),
                    static_l1: norm(l1),
                    static_second: norm(sec),
                    static_last: norm(last),
                    total: norm(d + l1 + sec + last),
                }
            })
            .collect()
    }

    /// Table III: per-level L-NUCA read hits relative to the baseline's
    /// second-level read hits, and the transport contention ratio, per
    /// suite. Configurations without a fabric (the baselines) are skipped.
    #[must_use]
    pub fn hit_distribution(&self) -> Vec<HitDistributionRow> {
        let mut rows = Vec::new();
        for label in &self.configs {
            for suite in [Suite::Integer, Suite::FloatingPoint] {
                let runs: Vec<&RunResult> = self
                    .results_for(label)
                    .filter(|r| r.suite == suite)
                    .collect();
                if runs.is_empty() || runs.iter().all(|r| r.hierarchy.lnuca.is_none()) {
                    continue;
                }
                let baseline_hits: u64 = self
                    .results_for(&self.baseline)
                    .filter(|r| r.suite == suite)
                    .map(|r| r.hierarchy.second_level_read_hits())
                    .sum();
                let levels = runs
                    .iter()
                    .filter_map(|r| r.hierarchy.lnuca.as_ref())
                    .map(|s| s.read_hits_per_level.len())
                    .max()
                    .unwrap_or(0);
                let mut level_percent = Vec::with_capacity(levels);
                for level_idx in 0..levels {
                    let hits: u64 = runs
                        .iter()
                        .filter_map(|r| r.hierarchy.lnuca.as_ref())
                        .map(|s| s.read_hits_per_level.get(level_idx).copied().unwrap_or(0))
                        .sum();
                    level_percent.push(percent_of(hits, baseline_hits));
                }
                let all: f64 = level_percent.iter().sum();
                let latency_sum: u64 = runs
                    .iter()
                    .filter_map(|r| r.hierarchy.lnuca.as_ref())
                    .map(|s| s.transport_latency_sum)
                    .sum();
                let min_sum: u64 = runs
                    .iter()
                    .filter_map(|r| r.hierarchy.lnuca.as_ref())
                    .map(|s| s.transport_min_latency_sum)
                    .sum();
                rows.push(HitDistributionRow {
                    label: label.clone(),
                    suite,
                    level_percent,
                    all_levels_percent: all,
                    avg_to_min_transport: if min_sum == 0 {
                        1.0
                    } else {
                        latency_sum as f64 / min_sum as f64
                    },
                });
            }
        }
        rows
    }
}

/// One (configuration, benchmark) cell of the experiment matrix. `index` is
/// the cell's position in the full matrix — the key the study journal
/// records completed runs under.
#[derive(Clone, Copy)]
struct Job<'a> {
    index: usize,
    spec: &'a HierarchySpec,
    profile: &'a WorkloadProfile,
    seed: u64,
}

use crate::supervise::SupervisedOutcome as JobOutcome;

/// Runs one job supervised and journals it if it succeeded.
fn run_job(
    job: &Job<'_>,
    instructions: u64,
    engine: Engine,
    supervisor: &Supervisor,
    journal: Option<&JournalWriter>,
) -> JobOutcome {
    let outcome = supervise::run_job_supervised(
        engine,
        job.spec,
        job.profile,
        instructions,
        job.seed,
        supervisor,
    );
    if let (Some(writer), Ok((result, perf))) = (journal, &outcome.outcome) {
        writer.record(job.index, result, perf);
    }
    outcome
}

/// Runs the experiment matrix on up to `threads` scoped workers pulling
/// work from a shared queue, returning the outcomes in job order.
///
/// Each job builds its own hierarchy, trace generator and core from nothing
/// but the job description, so runs share no state and the outcome vector is
/// bit-identical to a sequential execution — the workers only change which
/// wall-clock instant each run happens at.
///
/// `stop` is checked once per claimed job: a raised signal turns every
/// not-yet-claimed job into a failure carrying the signal's error, without
/// simulating it.
fn run_jobs(
    jobs: &[Job<'_>],
    instructions: u64,
    threads: usize,
    engine: Engine,
    supervisor: &Supervisor,
    journal: Option<&JournalWriter>,
    stop: Option<&StopSignal>,
) -> Vec<JobOutcome> {
    let claim = |job: &Job<'_>| match stop.and_then(StopSignal::error) {
        Some(error) => JobOutcome {
            outcome: Err(error),
            attempts: 0,
        },
        None => run_job(job, instructions, engine, supervisor, journal),
    };
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads == 1 {
        return jobs.iter().map(claim).collect();
    }

    let next_job = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobOutcome>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                *slots[i].lock().expect("no other holder can panic") = Some(claim(job));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panics propagate out of the scope")
                .expect("every job index below jobs.len() was claimed exactly once")
        })
        .collect()
}

fn percent_of(value: u64, baseline: u64) -> f64 {
    if baseline == 0 {
        0.0
    } else {
        value as f64 / baseline as f64 * 100.0
    }
}

/// Table II: the areas of the conventional baseline and of the L-NUCA
/// configurations, both as published and as computed by the analytical area
/// model.
#[must_use]
pub fn area_table() -> Vec<AreaRow> {
    const KB: u64 = 1024;
    let model = AreaModel::paper();
    let configs = [
        ("L2-256KB", None),
        ("LN2-72KB", Some(5usize)),
        ("LN3-144KB", Some(14)),
        ("LN4-248KB", Some(27)),
    ];
    configs
        .iter()
        .map(|(label, tiles)| {
            let (model_mm2, model_net) = match tiles {
                None => (model.conventional_mm2(32 * KB, 256 * KB), 0.0),
                Some(t) => (
                    model.lnuca_mm2(32 * KB, *t, 8 * KB),
                    model.lnuca_network_percent(32 * KB, *t, 8 * KB),
                ),
            };
            let paper = PAPER_TABLE2.iter().find(|row| row.name == *label);
            AreaRow {
                label: (*label).to_owned(),
                paper_mm2: paper.map(|p| p.area_mm2),
                model_mm2,
                paper_network_pct: paper.map(|p| p.network_percent),
                model_network_pct: model_net,
            }
        })
        .collect()
}

/// The headline comparison (abstract/§V-A): LN3-144KB versus L2-256KB in
/// area, IPC and energy. Uses the given conventional [`Study`] for the
/// simulated quantities and the area model for the area.
#[must_use]
pub fn headline(study: &Study) -> HeadlineSummary {
    let areas = area_table();
    let base_area = areas
        .iter()
        .find(|a| a.label == "L2-256KB")
        .map(|a| a.model_mm2)
        .unwrap_or(1.0);
    let ln3_area = areas
        .iter()
        .find(|a| a.label == "LN3-144KB")
        .map(|a| a.model_mm2)
        .unwrap_or(base_area);

    let ipc = study.ipc_summary();
    let ln3_ipc = ipc.iter().find(|r| r.label.starts_with("LN3"));
    let energy = study.energy_summary();
    let ln3_energy = energy.iter().find(|r| r.label.starts_with("LN3"));

    HeadlineSummary {
        area_change_pct: (ln3_area / base_area - 1.0) * 100.0,
        int_ipc_gain_pct: ln3_ipc.map(|r| r.int_gain_pct).unwrap_or(0.0),
        fp_ipc_gain_pct: ln3_ipc.map(|r| r.fp_gain_pct).unwrap_or(0.0),
        energy_change_pct: ln3_energy.map(|r| (r.total - 1.0) * 100.0).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the built-in conventional paper plan.
    fn conventional(opts: &ExperimentOptions) -> Result<Study, ConfigError> {
        Study::run(&ExperimentPlan::paper_conventional(opts)?)
    }

    /// Runs the built-in D-NUCA paper plan.
    fn dnuca(opts: &ExperimentOptions) -> Result<Study, ConfigError> {
        Study::run(&ExperimentPlan::paper_dnuca(opts)?)
    }

    #[test]
    fn area_table_contains_all_four_configurations_and_paper_values() {
        let rows = area_table();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].label, "L2-256KB");
        assert_eq!(rows[0].paper_mm2, Some(0.91));
        assert!(rows[2].model_mm2 < rows[0].model_mm2, "LN3 saves area vs the baseline");
        assert!(rows[3].model_mm2 > rows[0].model_mm2, "LN4 costs more area");
        assert!(rows[1].model_network_pct > 0.0);
    }

    #[test]
    fn quick_conventional_study_produces_all_summaries() {
        let opts = ExperimentOptions::quick();
        let study = conventional(&opts).unwrap();
        // 3 configs (baseline + LN2 + LN3) x 4 workloads (2 per suite).
        assert_eq!(study.configs.len(), 3);
        assert_eq!(study.results.len(), 3 * 4);

        let ipc = study.ipc_summary();
        assert_eq!(ipc.len(), 3);
        assert_eq!(ipc[0].label, "L2-256KB");
        assert!(ipc.iter().all(|r| r.int_ipc > 0.0 && r.fp_ipc > 0.0));
        assert!((ipc[0].int_gain_pct).abs() < 1e-9, "baseline gain is zero by definition");

        let energy = study.energy_summary();
        assert_eq!(energy.len(), 3);
        assert!((energy[0].total - 1.0).abs() < 1e-9, "baseline normalises to 1.0");
        assert!(energy.iter().all(|r| r.static_last > 0.0));

        let hits = study.hit_distribution();
        // Two suites per L-NUCA configuration.
        assert_eq!(hits.len(), 2 * 2);
        for row in &hits {
            assert!(row.avg_to_min_transport >= 1.0);
            assert!(row.all_levels_percent >= 0.0);
            assert!(!row.level_percent.is_empty());
        }
    }

    #[test]
    fn quick_dnuca_study_runs() {
        let mut opts = ExperimentOptions::quick();
        opts.lnuca_levels = vec![2];
        opts.benchmarks_per_suite = Some(1);
        let study = dnuca(&opts).unwrap();
        assert_eq!(study.baseline, "DN-4x8");
        assert_eq!(study.configs.len(), 2);
        let ipc = study.ipc_summary();
        assert!(ipc.iter().all(|r| r.int_ipc > 0.0));
        let energy = study.energy_summary();
        assert!((energy[0].total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn workload_selection_steers_the_matrix() {
        let mut opts = ExperimentOptions::quick();
        opts.instructions = 1_000;
        opts.lnuca_levels = vec![2];
        opts.benchmarks_per_suite = None;

        opts.workloads = WorkloadSelection::Adversarial;
        let adv = conventional(&opts).unwrap();
        // 2 configs x 7 adversarial classes.
        assert_eq!(adv.results.len(), 2 * 7);
        assert!(adv.results.iter().any(|r| r.workload == "adv.pointer_chase"));

        opts.workloads = WorkloadSelection::Named(vec![
            "ADV.GUPS".to_owned(),
            "int.compress".to_owned(),
        ]);
        let named = conventional(&opts).unwrap();
        assert_eq!(named.results.len(), 2 * 2);
        assert_eq!(named.results[0].workload, "adv.gups", "names resolve case-insensitively");

        opts.workloads = WorkloadSelection::Named(vec!["no.such.workload".to_owned()]);
        let err = conventional(&opts).unwrap_err().to_string();
        assert!(err.contains("no.such.workload"));
        assert!(err.contains("adv.phase_mix"), "error lists the valid names: {err}");
    }

    #[test]
    fn extended_selection_appends_the_adversarial_classes() {
        let mut opts = ExperimentOptions::quick();
        opts.instructions = 500;
        opts.lnuca_levels = vec![2];
        opts.benchmarks_per_suite = Some(1);
        opts.workloads = WorkloadSelection::Extended;
        let study = conventional(&opts).unwrap();
        // 2 configs x (1 INT + 1 FP + 1 adversarial) — the per-suite cap
        // applies to the adversarial group too.
        assert_eq!(study.results.len(), 2 * 3);
    }

    #[test]
    fn zero_knobs_are_rejected_at_plan_validation() {
        let spec = HierarchyKind::Conventional(configs::conventional()).to_spec();
        let mut opts = ExperimentOptions::quick();
        opts.benchmarks_per_suite = Some(0);
        let err = ExperimentPlan::builder("zero-benchmarks")
            .config(spec)
            .options(opts)
            .build()
            .unwrap_err()
            .to_string();
        assert!(err.contains("benchmarks_per_suite"), "the offending knob is named: {err}");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mut opts = ExperimentOptions::quick();
        opts.instructions = 3_000;
        opts.lnuca_levels = vec![2];
        let sequential = conventional(&opts).unwrap();
        opts.threads = 3;
        let parallel = conventional(&opts).unwrap();
        assert_eq!(sequential.results, parallel.results);
        assert_eq!(sequential.configs, parallel.configs);
        // Perf is recorded for every run either way (values are host noise).
        assert_eq!(parallel.perf.len(), parallel.results.len());
        assert!(parallel.perf.iter().all(|p| p.wall_nanos > 0 && p.cycles > 0));
    }

    #[test]
    fn oversubscribed_thread_count_is_clamped_to_the_job_count() {
        let mut opts = ExperimentOptions::quick();
        opts.instructions = 1_000;
        opts.lnuca_levels = vec![2];
        opts.benchmarks_per_suite = Some(1);
        opts.threads = 64;
        let study = conventional(&opts).unwrap();
        assert_eq!(study.results.len(), 2 * 2);
        assert_eq!(study.perf.len(), study.results.len());
    }

    #[test]
    fn headline_uses_ln3_when_present() {
        let mut opts = ExperimentOptions::quick();
        opts.lnuca_levels = vec![3];
        opts.benchmarks_per_suite = Some(1);
        let study = conventional(&opts).unwrap();
        let h = headline(&study);
        assert!(h.area_change_pct < 0.0, "LN3 must save area vs L2-256KB");
        assert!(h.int_ipc_gain_pct.is_finite());
        assert!(h.energy_change_pct.is_finite());
    }

    #[test]
    fn raised_stop_signal_fails_every_unstarted_run_without_simulating() {
        let mut opts = ExperimentOptions::quick();
        opts.instructions = 1_000;
        opts.lnuca_levels = vec![2];
        opts.benchmarks_per_suite = Some(1);
        let plan = ExperimentPlan::paper_conventional(&opts).unwrap();

        let stop = StopSignal::new();
        stop.cancel();
        stop.shutdown(); // the first raise wins
        let study = Study::run_controlled(&plan, None, false, &stop).unwrap();
        assert!(study.results.is_empty(), "no run may start after the signal");
        assert_eq!(study.failures.len(), 2 * 2);
        assert!(study
            .failures
            .iter()
            .all(|f| f.error == lnuca_types::RunError::Cancelled && f.attempts == 0));

        // An unraised signal is invisible: bit-identical to Study::run.
        let baseline = Study::run(&plan).unwrap();
        let unstopped = Study::run_controlled(&plan, None, false, &StopSignal::new()).unwrap();
        assert_eq!(baseline.results, unstopped.results);
        assert!(unstopped.failures.is_empty());
    }
}
