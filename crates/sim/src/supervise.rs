//! Run supervision: panic isolation, watchdogs and bounded retry
//! (DESIGN.md §14).
//!
//! The experiment engine fans thousands of jobs across workers; at that
//! scale one poisoned run — a panic in a hot loop, a livelocked horizon, a
//! runaway configuration — must not take down a whole study. This module
//! wraps every job behind a [`Supervisor`]:
//!
//! * **Panic isolation.** Each job runs under `catch_unwind`; a panic
//!   becomes a structured [`RunError::Panic`] instead of unwinding through
//!   the worker pool.
//! * **Watchdogs.** A [`JobGuard`] observes the run loop once per engine
//!   iteration and trips on a cycle budget, a no-commit livelock window or
//!   a wall-clock timeout (the budget fields of
//!   [`ExperimentOptions`]). Guards are generic
//!   ([`RunGuard`]) so the unbudgeted path compiles to the exact loop it
//!   was before supervision existed — bit-identity and the zero-allocation
//!   pin are untouched.
//! * **Bounded retry.** Transient failures (panic, wall-clock timeout) get
//!   up to [`ExperimentOptions::retries`] extra attempts; deterministic
//!   trips (cycle budget, livelock) reproduce identically and are never
//!   retried.
//!
//! The deterministic fault-injection hook ([`install_fault_hook`]) is the
//! seam the `lnuca_verify::chaos` harness uses to schedule panics and
//! watchdog trips at exact cycles; it is process-global, off by default,
//! and costs one relaxed atomic load per guard construction when unarmed.

use crate::experiments::{ExperimentOptions, RunPerf};
use crate::spec::HierarchySpec;
use crate::system::{Engine, RunResult, System};
use lnuca_mem::NoProbe;
use lnuca_types::{Cycle, RunError};
use lnuca_workloads::WorkloadProfile;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often (in loop observations) a guard samples the wall clock: the
/// first observation, then every 1024th. `Instant::now` is far cheaper
/// than a simulated cycle, but the hot loop should still not pay a syscall
/// per iteration.
const WALL_CHECK_PERIOD: u64 = 1024;

/// A watchdog observing a run loop.
///
/// The run loop behind [`System::run_spec_guarded`] calls
/// [`RunGuard::observe`] at the top of every engine iteration and bounds
/// event-horizon jumps by [`RunGuard::horizon_clamp`]. The trait is
/// generic (not `dyn`) so [`NoGuard`] compiles to nothing.
pub trait RunGuard {
    /// Observes one loop iteration at `now` with `committed` instructions
    /// retired so far. Returning an error aborts the run with that failure.
    ///
    /// # Errors
    ///
    /// A [`RunError`] when a watchdog trips (or a fault hook injects one).
    fn observe(&mut self, now: Cycle, committed: u64) -> Result<(), RunError>;

    /// The latest cycle the event-horizon engine may jump to without
    /// skipping an observation this guard needs (`None` = unbounded). The
    /// engine clamps its jump target to `max(now + 1, clamp)`; ticking at a
    /// non-event cycle is a no-op state-wise (the cycle-step engine proves
    /// this every run), so clamping never changes results — it only
    /// guarantees deterministic trip cycles.
    fn horizon_clamp(&self) -> Option<u64> {
        None
    }
}

/// The no-op guard of every unsupervised run: observes nothing, clamps
/// nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGuard;

impl RunGuard for NoGuard {
    #[inline(always)]
    fn observe(&mut self, _now: Cycle, _committed: u64) -> Result<(), RunError> {
        Ok(())
    }
}

/// The watchdog budgets of one run, derived from the budget fields of
/// [`ExperimentOptions`] (`None` everywhere = supervision without
/// watchdogs: panics are still isolated, nothing ever trips).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Abort when the simulated clock reaches this cycle with the workload
    /// unfinished ([`ExperimentOptions::cycle_budget`]).
    pub cycle_budget: Option<u64>,
    /// Abort when a run's wall clock exceeds this many milliseconds
    /// ([`ExperimentOptions::run_timeout_ms`]).
    pub run_timeout_ms: Option<u64>,
    /// Abort when no instruction commits for this many consecutive cycles
    /// ([`ExperimentOptions::livelock_window`]).
    pub livelock_window: Option<u64>,
}

impl Budgets {
    /// Extracts the budget fields from run options.
    #[must_use]
    pub fn from_options(options: &ExperimentOptions) -> Self {
        Budgets {
            cycle_budget: options.cycle_budget,
            run_timeout_ms: options.run_timeout_ms,
            livelock_window: options.livelock_window,
        }
    }

    /// Whether any watchdog is armed.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.cycle_budget.is_some() || self.run_timeout_ms.is_some() || self.livelock_window.is_some()
    }
}

/// The identity of one supervised run attempt, handed to the fault hook on
/// every observation so injected faults can target exact runs and attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunKey {
    /// Configuration label of the run.
    pub label: String,
    /// Workload name of the run.
    pub workload: String,
    /// Trace seed of the run.
    pub seed: u64,
    /// Zero-based attempt number (0 = first try; retries count up from
    /// there).
    pub attempt: u32,
}

/// A deterministic fault hook: observes `(key, cycle, committed)` at every
/// guarded loop iteration and may inject a failure by returning it — or
/// model a hard crash by panicking. See [`install_fault_hook`].
pub type FaultHook = dyn Fn(&RunKey, u64, u64) -> Option<RunError> + Send + Sync;

static FAULT_ARMED: AtomicBool = AtomicBool::new(false);
static FAULT_HOOK: Mutex<Option<Arc<FaultHook>>> = Mutex::new(None);

/// Installs the process-global fault-injection hook (replacing any previous
/// one). **Test harness seam** — `lnuca_verify::chaos` schedules panics and
/// watchdog trips through it; production runs never install one. Guards
/// snapshot the hook at construction, so a swap mid-run affects only runs
/// started afterwards.
pub fn install_fault_hook(hook: Arc<FaultHook>) {
    *lock_hook() = Some(hook);
    FAULT_ARMED.store(true, Ordering::SeqCst);
}

/// Removes the fault-injection hook (no-op when none is installed).
pub fn clear_fault_hook() {
    FAULT_ARMED.store(false, Ordering::SeqCst);
    *lock_hook() = None;
}

fn lock_hook() -> std::sync::MutexGuard<'static, Option<Arc<FaultHook>>> {
    // A hook that panicked while a test held the lock must not poison every
    // later test: the Option inside is always valid.
    FAULT_HOOK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn current_fault_hook() -> Option<Arc<FaultHook>> {
    if !FAULT_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    lock_hook().clone()
}

/// The per-run watchdog: budgets plus the fault-hook snapshot for one
/// attempt. Constructed by a [`Supervisor`]; observation does not
/// allocate.
pub struct JobGuard {
    key: RunKey,
    cycle_budget: Option<u64>,
    timeout: Option<Duration>,
    timeout_ms: u64,
    livelock_window: Option<u64>,
    hook: Option<Arc<FaultHook>>,
    started: Instant,
    observed: u64,
    last_committed: u64,
    last_commit_cycle: u64,
}

impl std::fmt::Debug for JobGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobGuard")
            .field("key", &self.key)
            .field("cycle_budget", &self.cycle_budget)
            .field("timeout", &self.timeout)
            .field("livelock_window", &self.livelock_window)
            .field("hooked", &self.hook.is_some())
            .field("observed", &self.observed)
            .finish()
    }
}

impl JobGuard {
    fn new(key: RunKey, budgets: Budgets, hook: Option<Arc<FaultHook>>) -> Self {
        JobGuard {
            key,
            cycle_budget: budgets.cycle_budget,
            timeout: budgets.run_timeout_ms.map(Duration::from_millis),
            timeout_ms: budgets.run_timeout_ms.unwrap_or(0),
            livelock_window: budgets.livelock_window,
            hook,
            started: Instant::now(),
            observed: 0,
            last_committed: 0,
            last_commit_cycle: 0,
        }
    }
}

impl RunGuard for JobGuard {
    fn observe(&mut self, now: Cycle, committed: u64) -> Result<(), RunError> {
        self.observed = self.observed.wrapping_add(1);
        if let Some(hook) = &self.hook {
            if let Some(err) = hook(&self.key, now.0, committed) {
                return Err(err);
            }
        }
        if committed > self.last_committed {
            self.last_committed = committed;
            self.last_commit_cycle = now.0;
        }
        if let Some(budget) = self.cycle_budget {
            if now.0 >= budget {
                return Err(RunError::CycleBudgetExceeded { budget, at_cycle: now.0 });
            }
        }
        if let Some(window) = self.livelock_window {
            if now.0.saturating_sub(self.last_commit_cycle) >= window {
                return Err(RunError::Livelock { window, at_cycle: now.0, committed });
            }
        }
        if let Some(timeout) = self.timeout {
            // Sampled: the first observation (so a zero timeout trips
            // deterministically before any work) and then periodically.
            if self.observed % WALL_CHECK_PERIOD == 1 && self.started.elapsed() >= timeout {
                return Err(RunError::WallClockTimeout { timeout_ms: self.timeout_ms });
            }
        }
        Ok(())
    }

    fn horizon_clamp(&self) -> Option<u64> {
        let mut clamp = self.cycle_budget;
        if let Some(window) = self.livelock_window {
            let lw = self.last_commit_cycle.saturating_add(window);
            clamp = Some(clamp.map_or(lw, |c| c.min(lw)));
        }
        clamp
    }
}

/// The outcome of one supervised run: the result-plus-perf pair on success,
/// the structured failure otherwise, and how many attempts were spent
/// (1 = first try succeeded or the failure was deterministic).
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// The run's result, or why it could not produce one.
    pub outcome: Result<(RunResult, RunPerf), RunError>,
    /// Total attempts consumed (first try + retries).
    pub attempts: u32,
}

/// Supervision policy for a set of runs: watchdog budgets plus the bounded
/// retry count, derived from one [`ExperimentOptions`]. Cheap to copy and
/// `Sync` — one instance drives every worker of a study.
#[derive(Debug, Clone, Copy, Default)]
pub struct Supervisor {
    /// Watchdog budgets applied to every run.
    pub budgets: Budgets,
    /// Extra attempts granted to transiently-failed runs
    /// ([`RunError::is_transient`]); deterministic trips never retry.
    pub retries: u32,
}

impl Supervisor {
    /// Derives the policy from run options.
    #[must_use]
    pub fn from_options(options: &ExperimentOptions) -> Self {
        Supervisor {
            budgets: Budgets::from_options(options),
            retries: options.retries,
        }
    }

    /// Builds the guard for one run attempt — `None` when no watchdog is
    /// armed and no fault hook is installed, so the unsupervised fast path
    /// (bit-identical, zero observation overhead) is taken.
    #[must_use]
    pub fn guard(&self, label: &str, workload: &str, seed: u64, attempt: u32) -> Option<JobGuard> {
        let hook = current_fault_hook();
        if !self.budgets.is_active() && hook.is_none() {
            return None;
        }
        Some(JobGuard::new(
            RunKey {
                label: label.to_owned(),
                workload: workload.to_owned(),
                seed,
                attempt,
            },
            self.budgets,
            hook,
        ))
    }
}

/// A cooperative stop signal shared between a running study and an outside
/// controller — the seam behind the serve daemon's per-job cancellation and
/// its SIGTERM graceful drain.
///
/// The worker pool checks the signal before claiming each job: once
/// raised, every not-yet-started run of the study fails with the carried
/// [`RunError`] (`Cancelled` or `Shutdown`) instead of executing. Runs already in flight finish normally — a stop is clean at
/// run granularity, so every result the study does produce is bit-identical
/// to an unstopped run's, and a journaled study resumes byte-identically.
///
/// The first raise wins: a cancel followed by a shutdown (or vice versa)
/// keeps the first reason, so a job's failure rows all carry one status.
#[derive(Clone, Debug, Default)]
pub struct StopSignal {
    /// 0 = run, 1 = cancelled, 2 = shutdown. First writer wins.
    state: Arc<AtomicU8>,
}

impl StopSignal {
    const RUN: u8 = 0;
    const CANCELLED: u8 = 1;
    const SHUTDOWN: u8 = 2;

    /// A fresh, unraised signal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the signal with [`RunError::Cancelled`] (no-op if already
    /// raised).
    pub fn cancel(&self) {
        let _ = self.state.compare_exchange(
            Self::RUN,
            Self::CANCELLED,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Raises the signal with [`RunError::Shutdown`] (no-op if already
    /// raised).
    pub fn shutdown(&self) {
        let _ = self.state.compare_exchange(
            Self::RUN,
            Self::SHUTDOWN,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Whether the signal has been raised.
    #[must_use]
    pub fn is_raised(&self) -> bool {
        self.state.load(Ordering::Acquire) != Self::RUN
    }

    /// The failure every not-yet-started run reports once the signal is
    /// raised (`None` while the study should keep running).
    #[must_use]
    pub fn error(&self) -> Option<RunError> {
        match self.state.load(Ordering::Acquire) {
            Self::CANCELLED => Some(RunError::Cancelled),
            Self::SHUTDOWN => Some(RunError::Shutdown),
            _ => None,
        }
    }
}

/// Renders a caught panic payload (the `&str`/`String` payloads `panic!`
/// produces; anything else becomes a placeholder). Public so outer
/// quarantine layers (the serve daemon's per-job `catch_unwind`) report
/// panics the same way the per-run supervision does.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// [`RunPerf`] of one run from its measured wall time.
fn perf_of(result: &RunResult, wall: Duration) -> RunPerf {
    let wall_nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    let seconds = wall.as_secs_f64();
    RunPerf {
        label: result.label.clone(),
        workload: result.workload.clone(),
        wall_nanos,
        cycles: result.cycles,
        kcycles_per_sec: if seconds > 0.0 {
            result.cycles as f64 / 1_000.0 / seconds
        } else {
            0.0
        },
    }
}

/// Runs one job under full supervision: panic isolation, watchdogs and
/// bounded retry. Never panics, never aborts the caller — every failure
/// comes back as a structured [`RunError`].
#[must_use]
pub fn run_job_supervised(
    engine: Engine,
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    supervisor: &Supervisor,
) -> SupervisedOutcome {
    let label = spec.label();
    let mut attempt = 0;
    loop {
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            match supervisor.guard(&label, &profile.name, seed, attempt) {
                Some(mut guard) => System::run_spec_guarded(
                    engine,
                    spec,
                    profile,
                    instructions,
                    seed,
                    NoProbe,
                    &mut guard,
                )
                .map(|(result, _)| result),
                None => System::run_spec_with(engine, spec, profile, instructions, seed)
                    .map_err(RunError::from),
            }
        }));
        let error = match run {
            Ok(Ok(result)) => {
                let perf = perf_of(&result, started.elapsed());
                return SupervisedOutcome {
                    outcome: Ok((result, perf)),
                    attempts: attempt + 1,
                };
            }
            Ok(Err(err)) => err,
            Err(payload) => RunError::Panic {
                message: panic_message(payload.as_ref()),
            },
        };
        if error.is_transient() && attempt < supervisor.retries {
            attempt += 1;
            continue;
        }
        return SupervisedOutcome {
            outcome: Err(error),
            attempts: attempt + 1,
        };
    }
}
