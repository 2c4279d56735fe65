//! Configuration validation errors shared across the workspace.

use std::error::Error;
use std::fmt;

/// An invalid configuration was supplied to a constructor.
///
/// Every constructor in the workspace that accepts a configuration struct
/// validates it and reports problems through this type rather than panicking,
/// so callers can surface actionable messages (which parameter, which value,
/// what the constraint is).
///
/// # Example
///
/// ```
/// use lnuca_types::ConfigError;
///
/// let err = ConfigError::new("tile_size_bytes", "must be a power of two, got 3000");
/// assert_eq!(err.parameter(), "tile_size_bytes");
/// assert!(err.to_string().contains("power of two"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    parameter: String,
    message: String,
}

impl ConfigError {
    /// Creates a new error for `parameter` with a human-readable `message`
    /// describing the violated constraint.
    pub fn new(parameter: impl Into<String>, message: impl Into<String>) -> Self {
        ConfigError {
            parameter: parameter.into(),
            message: message.into(),
        }
    }

    /// The name of the offending configuration parameter.
    #[must_use]
    pub fn parameter(&self) -> &str {
        &self.parameter
    }

    /// The constraint that was violated.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid configuration `{}`: {}", self.parameter, self.message)
    }
}

impl Error for ConfigError {}

/// A lookup by name failed: the caller asked for something this registry
/// does not contain.
///
/// Every "resolve a user-supplied name" path in the workspace — workload
/// profiles (`suites::by_name`), built-in scenarios and configuration
/// presets (the scenario loader) — reports misses through this one type, so
/// a typo always fails with the same shape of message: what was asked for,
/// what kind of thing it was supposed to be, and the complete list of valid
/// names to pick from instead.
///
/// # Example
///
/// ```
/// use lnuca_types::UnknownNameError;
///
/// let err = UnknownNameError::new("workload", "int.compres", ["int.compress", "adv.gups"]);
/// let text = err.to_string();
/// assert!(text.contains("unknown workload \"int.compres\""));
/// assert!(text.contains("int.compress, adv.gups"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownNameError {
    /// What kind of name was looked up ("workload", "scenario", "preset").
    pub kind: &'static str,
    /// The name that was asked for.
    pub given: String,
    /// Every name the registry would have accepted.
    pub valid: Vec<String>,
}

impl UnknownNameError {
    /// Creates an error for a failed `kind` lookup of `given`, listing the
    /// `valid` alternatives.
    pub fn new<I, S>(kind: &'static str, given: impl Into<String>, valid: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        UnknownNameError {
            kind,
            given: given.into(),
            valid: valid.into_iter().map(Into::into).collect(),
        }
    }
}

impl fmt::Display for UnknownNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} {:?}; valid names: {}",
            self.kind,
            self.given,
            self.valid.join(", ")
        )
    }
}

impl Error for UnknownNameError {}

/// A supervised run failed.
///
/// The experiment engine (DESIGN.md §14) isolates every job behind a
/// supervisor; when a run cannot produce a result, the failure is
/// reported through this taxonomy instead of aborting the study. Each variant
/// maps to a stable machine-readable status string (see
/// [`RunError::status`]) that surfaces in the `lnuca-report/v1` per-run
/// `status` field.
///
/// # Example
///
/// ```
/// use lnuca_types::RunError;
///
/// let err = RunError::CycleBudgetExceeded { budget: 1_000, at_cycle: 1_000 };
/// assert_eq!(err.status(), "cycle-budget");
/// assert!(!err.is_transient(), "budget trips are deterministic, never retried");
/// assert!(RunError::is_known_status("livelock"));
/// assert!(!RunError::is_known_status("exploded"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The run panicked; `message` is the stringified panic payload.
    Panic {
        /// Stringified panic payload (or a placeholder for opaque payloads).
        message: String,
    },
    /// The simulated clock reached the configured cycle budget with the
    /// workload still unfinished.
    CycleBudgetExceeded {
        /// The configured budget in cycles.
        budget: u64,
        /// The cycle at which the watchdog tripped.
        at_cycle: u64,
    },
    /// No instruction committed for a whole livelock window.
    Livelock {
        /// The configured no-progress window in cycles.
        window: u64,
        /// The cycle at which the watchdog tripped.
        at_cycle: u64,
        /// Instructions committed when progress stopped.
        committed: u64,
    },
    /// The run's wall-clock exceeded the configured timeout.
    WallClockTimeout {
        /// The configured timeout in milliseconds.
        timeout_ms: u64,
    },
    /// A study journal could not be trusted: unreadable, a foreign schema,
    /// or content-addressing digests that do not match the plan being run.
    JournalCorrupt {
        /// What exactly failed to validate.
        detail: String,
    },
    /// The job's configuration was rejected while building the system.
    Config(ConfigError),
    /// The run's job was cancelled by its submitter before this run
    /// executed (the service layer's per-job cancellation). In-flight runs
    /// are never torn mid-simulation — cancellation is clean at run
    /// granularity, so completed runs of the same job stay valid.
    Cancelled,
    /// The service began a graceful drain (SIGTERM) before this run
    /// executed. Completed runs of the job are journaled; resubmitting the
    /// same scenario against the journal resumes byte-identically.
    Shutdown,
}

/// Every status string a `lnuca-report/v1` per-run `status` field may carry:
/// `"ok"` plus one string per [`RunError`] variant.
pub const RUN_STATUSES: &[&str] = &[
    "ok",
    "panic",
    "cycle-budget",
    "livelock",
    "timeout",
    "journal-corrupt",
    "config",
    "cancelled",
    "shutdown",
];

impl RunError {
    /// The stable machine-readable status string for this failure, as
    /// written to the report's per-run `status` field.
    #[must_use]
    pub fn status(&self) -> &'static str {
        match self {
            RunError::Panic { .. } => "panic",
            RunError::CycleBudgetExceeded { .. } => "cycle-budget",
            RunError::Livelock { .. } => "livelock",
            RunError::WallClockTimeout { .. } => "timeout",
            RunError::JournalCorrupt { .. } => "journal-corrupt",
            RunError::Config(_) => "config",
            RunError::Cancelled => "cancelled",
            RunError::Shutdown => "shutdown",
        }
    }

    /// Whether `status` is a value the report schema admits (`"ok"` or one
    /// of the failure statuses).
    #[must_use]
    pub fn is_known_status(status: &str) -> bool {
        RUN_STATUSES.contains(&status)
    }

    /// Whether the failure is transient — worth one bounded retry — as
    /// opposed to deterministic (a budget or livelock trip reproduces
    /// identically on every attempt, so retrying is wasted work).
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, RunError::Panic { .. } | RunError::WallClockTimeout { .. })
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panic { message } => write!(f, "run panicked: {message}"),
            RunError::CycleBudgetExceeded { budget, at_cycle } => write!(
                f,
                "cycle budget exceeded: clock reached {at_cycle} with a budget of {budget}"
            ),
            RunError::Livelock { window, at_cycle, committed } => write!(
                f,
                "livelock: no instruction committed for {window} cycles \
                 (stuck at {committed} committed, cycle {at_cycle})"
            ),
            RunError::WallClockTimeout { timeout_ms } => {
                write!(f, "wall-clock timeout: run exceeded {timeout_ms} ms")
            }
            RunError::JournalCorrupt { detail } => write!(f, "study journal corrupt: {detail}"),
            RunError::Config(err) => write!(f, "configuration rejected: {err}"),
            RunError::Cancelled => write!(f, "job cancelled before this run executed"),
            RunError::Shutdown => {
                write!(f, "service drained (SIGTERM) before this run executed")
            }
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Config(err) => Some(err),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    /// Wraps a constructor rejection so `?` keeps working in supervised run
    /// paths that report [`RunError`].
    fn from(err: ConfigError) -> Self {
        RunError::Config(err)
    }
}

impl From<UnknownNameError> for ConfigError {
    /// Wraps the lookup failure so `?` keeps working in constructors that
    /// report [`ConfigError`] — the full valid-name list survives into the
    /// message.
    fn from(err: UnknownNameError) -> Self {
        ConfigError::new(format!("{} name", err.kind), err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_parameter_and_message() {
        let e = ConfigError::new("levels", "must be between 2 and 8");
        let s = e.to_string();
        assert!(s.contains("levels"));
        assert!(s.contains("between 2 and 8"));
    }

    #[test]
    fn accessors_return_fields() {
        let e = ConfigError::new("ways", "must be nonzero");
        assert_eq!(e.parameter(), "ways");
        assert_eq!(e.message(), "must be nonzero");
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<ConfigError>();
        assert_error::<UnknownNameError>();
    }

    #[test]
    fn run_error_statuses_are_stable_and_known() {
        let cases: Vec<(RunError, &str)> = vec![
            (RunError::Panic { message: "boom".into() }, "panic"),
            (RunError::CycleBudgetExceeded { budget: 5, at_cycle: 5 }, "cycle-budget"),
            (RunError::Livelock { window: 8, at_cycle: 20, committed: 3 }, "livelock"),
            (RunError::WallClockTimeout { timeout_ms: 10 }, "timeout"),
            (RunError::JournalCorrupt { detail: "bad digest".into() }, "journal-corrupt"),
            (RunError::Config(ConfigError::new("ways", "must be nonzero")), "config"),
            (RunError::Cancelled, "cancelled"),
            (RunError::Shutdown, "shutdown"),
        ];
        for (err, status) in cases {
            assert_eq!(err.status(), status);
            assert!(RunError::is_known_status(status), "{status} must be in RUN_STATUSES");
            assert!(!err.to_string().is_empty());
        }
        assert!(RunError::is_known_status("ok"));
        assert!(!RunError::is_known_status("OK"), "statuses are case-sensitive");
        assert_eq!(RUN_STATUSES.len(), 9, "one per variant plus ok");
    }

    #[test]
    fn only_panic_and_timeout_are_transient() {
        assert!(RunError::Panic { message: "x".into() }.is_transient());
        assert!(RunError::WallClockTimeout { timeout_ms: 1 }.is_transient());
        assert!(!RunError::CycleBudgetExceeded { budget: 1, at_cycle: 1 }.is_transient());
        assert!(!RunError::Livelock { window: 1, at_cycle: 1, committed: 0 }.is_transient());
        assert!(!RunError::JournalCorrupt { detail: "x".into() }.is_transient());
        assert!(!RunError::Config(ConfigError::new("p", "m")).is_transient());
        assert!(!RunError::Cancelled.is_transient(), "a cancelled job must not retry itself");
        assert!(!RunError::Shutdown.is_transient(), "a draining service must not retry");
    }

    #[test]
    fn config_errors_wrap_into_run_errors() {
        let cfg = ConfigError::new("levels", "must be between 2 and 8");
        let run: RunError = cfg.clone().into();
        assert_eq!(run, RunError::Config(cfg));
        assert!(std::error::Error::source(&run).is_some());
    }

    #[test]
    fn unknown_name_lists_every_valid_alternative() {
        let e = UnknownNameError::new("scenario", "papr", ["paper-conventional", "paper-dnuca"]);
        let s = e.to_string();
        assert!(s.contains("unknown scenario \"papr\""));
        assert!(s.contains("paper-conventional, paper-dnuca"));
        let cfg: ConfigError = e.into();
        assert_eq!(cfg.parameter(), "scenario name");
        assert!(cfg.to_string().contains("paper-dnuca"), "the list survives conversion");
    }
}
