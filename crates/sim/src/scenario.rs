//! Scenario files: the on-disk, declarative form of an [`ExperimentPlan`].
//!
//! A scenario is a JSON document (`lnuca-scenario/v1`) naming a set of
//! [`HierarchySpec`] configurations and the run options to drive them with.
//! The `lnuca` CLI loads scenarios from files or from the built-in registry
//! ([`builtin`]), layers the `LNUCA_*` environment knobs on top, runs them
//! through [`Study::run`](crate::experiments::Study::run) and emits an
//! `lnuca-report/v1` document next to the text tables.
//!
//! Parsing is **strict**: unknown object keys are rejected with their path
//! (schema drift in a committed scenario file fails CI instead of being
//! silently ignored), integers are range-checked, and name lookups (built-in
//! scenarios, presets, workload names) fail with the full valid-name list
//! through the shared [`UnknownNameError`] type.
//!
//! The document model is the vendored `serde::json` shim (the offline
//! container has no real serde); every type converts explicitly through
//! [`Value`], which is also what keeps the unknown-field rejection exact.
//!
//! # Scenario schema (`lnuca-scenario/v1`)
//!
//! ```json
//! {
//!   "schema": "lnuca-scenario/v1",
//!   "name": "paper-conventional",
//!   "description": "...",
//!   "options": {
//!     "instructions": 100000, "seed": 1, "benchmarks_per_suite": null,
//!     "workloads": "paper", "threads": 0, "engine": "event"
//!   },
//!   "configs": [
//!     {"preset": "conventional"},
//!     {"preset": "lnuca-l3", "levels": 3},
//!     {"label": "LN3 big tiles",
//!      "fabric": {"levels": 3, "tile_size_bytes": 16384},
//!      "backing": {"kind": "cache", "cache": {"preset": "paper-l3"}}}
//!   ]
//! }
//! ```
//!
//! Every `configs` entry starts from a preset (or from the builder default:
//! paper L1 root, no fabric, memory backing) and overrides components;
//! cache/fabric/D-NUCA objects work the same way (`preset` + field
//! overrides). `"workloads"` is a keyword or an explicit name array;
//! `"threads": 0` means "auto" (the CLI resolves it to the hardware thread
//! count; [`Study::run`](crate::experiments::Study::run) itself treats it
//! as 1). DESIGN.md §12 documents the full schema and the layering rules.

use crate::configs;
use crate::experiments::{ExperimentOptions, ExperimentPlan, Study, WorkloadSelection};
use crate::spec::{BackingSpec, HierarchySpec, IntermediateSpec};
use crate::system::Engine;
use lnuca_core::LNucaConfig;
use lnuca_dnuca::{DNucaConfig, SearchPolicy};
use lnuca_mem::{AccessMode, CacheConfig, MemoryConfig, ReplacementPolicy, WritePolicy};
use lnuca_types::{ConfigError, UnknownNameError};
use serde::json::{self, Value};
use std::fmt;

/// Schema identifier of scenario documents.
pub const SCENARIO_SCHEMA: &str = "lnuca-scenario/v1";
/// Schema identifier of report documents.
pub const REPORT_SCHEMA: &str = "lnuca-report/v1";

/// A named experiment plan plus its human-readable description — the
/// in-memory form of one scenario file.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// What the scenario evaluates (one sentence, shown by `lnuca list`).
    pub description: String,
    /// The plan to run.
    pub plan: ExperimentPlan,
}

impl Scenario {
    /// The scenario name (the plan's name).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.plan.name
    }

    /// Renders the scenario as a canonical `lnuca-scenario/v1` document
    /// (fully explicit — presets are expanded — pretty-printed, stable
    /// under round trips).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// The scenario as a JSON [`Value`] tree.
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_owned(), Value::String(SCENARIO_SCHEMA.to_owned())),
            ("name".to_owned(), Value::String(self.plan.name.clone())),
            ("description".to_owned(), Value::String(self.description.clone())),
            ("options".to_owned(), options_to_value(&self.plan.options)),
            (
                "configs".to_owned(),
                Value::Array(self.plan.configs.iter().map(spec_to_value).collect()),
            ),
        ])
    }

    /// Parses a scenario document.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] on JSON syntax errors, schema violations
    /// (including unknown fields), unknown preset names or invalid
    /// configurations.
    pub fn from_json(text: &str) -> Result<Self, ScenarioError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Converts a parsed JSON tree into a scenario.
    ///
    /// # Errors
    ///
    /// See [`Scenario::from_json`].
    pub fn from_value(value: &Value) -> Result<Self, ScenarioError> {
        let mut fields = Fields::new("$", value)?;
        let schema = fields.required_str("schema")?;
        if schema != SCENARIO_SCHEMA {
            return Err(ScenarioError::schema(
                "$.schema",
                format!("expected {SCENARIO_SCHEMA:?}, got {schema:?}"),
            ));
        }
        let name = fields.required_str("name")?.to_owned();
        let description = fields
            .optional("description")
            .map(|v| expect_str("$.description", v))
            .transpose()?
            .unwrap_or_default()
            .to_owned();
        let options = match fields.optional("options") {
            Some(v) => options_from_value("$.options", v)?,
            None => ExperimentOptions::default(),
        };
        let configs_value = fields.required("configs")?;
        let Some(entries) = configs_value.as_array() else {
            return Err(ScenarioError::schema(
                "$.configs",
                format!("expected an array, got {}", configs_value.type_name()),
            ));
        };
        let mut specs = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            specs.push(spec_from_value(&format!("$.configs[{i}]"), entry)?);
        }
        fields.finish()?;
        let plan = ExperimentPlan::builder(name)
            .configs(specs)
            .options(options)
            .build()?;
        Ok(Scenario { description, plan })
    }
}

/// Why a scenario document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The text is not valid JSON.
    Parse(json::ParseError),
    /// The document violates the schema: wrong type, missing or unknown
    /// field, out-of-range value. Carries the JSON path.
    Schema {
        /// JSON path of the violation (e.g. `$.configs[1].fabric.levels`).
        path: String,
        /// What is wrong there.
        message: String,
    },
    /// A name lookup (built-in scenario, preset, workload) failed.
    Name(UnknownNameError),
    /// The document parsed but describes an invalid configuration.
    Config(ConfigError),
}

impl ScenarioError {
    fn schema(path: impl Into<String>, message: impl Into<String>) -> Self {
        ScenarioError::Schema {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::Schema { path, message } => {
                write!(f, "invalid scenario at {path}: {message}")
            }
            ScenarioError::Name(e) => write!(f, "{e}"),
            ScenarioError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<json::ParseError> for ScenarioError {
    fn from(e: json::ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<UnknownNameError> for ScenarioError {
    fn from(e: UnknownNameError) -> Self {
        ScenarioError::Name(e)
    }
}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

// ---------------------------------------------------------------------------
// Strict object walking
// ---------------------------------------------------------------------------

/// Tracks which members of an object have been consumed so that
/// [`Fields::finish`] can reject unknown keys with their path.
struct Fields<'a> {
    path: String,
    members: &'a [(String, Value)],
    seen: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(path: impl Into<String>, value: &'a Value) -> Result<Self, ScenarioError> {
        let path = path.into();
        let Some(members) = value.as_object() else {
            return Err(ScenarioError::schema(
                path,
                format!("expected an object, got {}", value.type_name()),
            ));
        };
        Ok(Fields {
            path,
            seen: vec![false; members.len()],
            members,
        })
    }

    fn optional(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.members.iter().enumerate() {
            if k == key {
                self.seen[i] = true;
                return if matches!(v, Value::Null) { None } else { Some(v) };
            }
        }
        None
    }

    fn required(&mut self, key: &str) -> Result<&'a Value, ScenarioError> {
        self.optional(key).ok_or_else(|| {
            ScenarioError::schema(&self.path, format!("missing required field {key:?}"))
        })
    }

    fn required_str(&mut self, key: &str) -> Result<&'a str, ScenarioError> {
        let path = format!("{}.{key}", self.path);
        expect_str(&path, self.required(key)?)
    }

    fn child_path(&self, key: &str) -> String {
        format!("{}.{key}", self.path)
    }

    /// Rejects any member that was never consumed.
    fn finish(self) -> Result<(), ScenarioError> {
        let unknown: Vec<&str> = self
            .members
            .iter()
            .zip(&self.seen)
            .filter(|(_, seen)| !**seen)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ScenarioError::schema(
                self.path,
                format!("unknown field(s): {}", unknown.join(", ")),
            ))
        }
    }
}

fn expect_str<'a>(path: &str, value: &'a Value) -> Result<&'a str, ScenarioError> {
    value.as_str().ok_or_else(|| {
        ScenarioError::schema(path, format!("expected a string, got {}", value.type_name()))
    })
}

fn expect_u64(path: &str, value: &Value) -> Result<u64, ScenarioError> {
    value.as_u64().ok_or_else(|| {
        ScenarioError::schema(
            path,
            format!("expected a non-negative integer, got {}", value.type_name()),
        )
    })
}

fn expect_bool(path: &str, value: &Value) -> Result<bool, ScenarioError> {
    value.as_bool().ok_or_else(|| {
        ScenarioError::schema(path, format!("expected a boolean, got {}", value.type_name()))
    })
}

fn expect_usize(path: &str, value: &Value) -> Result<usize, ScenarioError> {
    usize::try_from(expect_u64(path, value)?)
        .map_err(|_| ScenarioError::schema(path, "value does not fit in usize"))
}

/// Applies an optional `u64` override.
fn override_u64(
    fields: &mut Fields<'_>,
    key: &str,
    slot: &mut u64,
) -> Result<(), ScenarioError> {
    if let Some(v) = fields.optional(key) {
        *slot = expect_u64(&fields.child_path(key), v)?;
    }
    Ok(())
}

fn override_usize(
    fields: &mut Fields<'_>,
    key: &str,
    slot: &mut usize,
) -> Result<(), ScenarioError> {
    if let Some(v) = fields.optional(key) {
        *slot = expect_usize(&fields.child_path(key), v)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

fn options_to_value(options: &ExperimentOptions) -> Value {
    let workloads = match (&options.workloads, options.workloads.keyword()) {
        (_, Some(keyword)) => Value::String(keyword.to_owned()),
        (WorkloadSelection::Named(names), None) => {
            Value::Array(names.iter().map(|n| Value::String(n.clone())).collect())
        }
        _ => unreachable!("keyword() is None only for Named"),
    };
    Value::Object(vec![
        ("instructions".to_owned(), Value::UInt(options.instructions)),
        ("seed".to_owned(), Value::UInt(options.seed)),
        (
            "benchmarks_per_suite".to_owned(),
            options
                .benchmarks_per_suite
                .map_or(Value::Null, |n| Value::UInt(n as u64)),
        ),
        ("workloads".to_owned(), workloads),
        ("threads".to_owned(), Value::UInt(options.threads as u64)),
        (
            "engine".to_owned(),
            Value::String(options.engine.label().to_owned()),
        ),
        (
            "cycle_budget".to_owned(),
            options.cycle_budget.map_or(Value::Null, Value::UInt),
        ),
        (
            "run_timeout_ms".to_owned(),
            options.run_timeout_ms.map_or(Value::Null, Value::UInt),
        ),
        (
            "livelock_window".to_owned(),
            options.livelock_window.map_or(Value::Null, Value::UInt),
        ),
        ("retries".to_owned(), Value::UInt(u64::from(options.retries))),
    ])
}

fn options_from_value(path: &str, value: &Value) -> Result<ExperimentOptions, ScenarioError> {
    let mut fields = Fields::new(path, value)?;
    let mut options = ExperimentOptions::default();
    override_u64(&mut fields, "instructions", &mut options.instructions)?;
    override_u64(&mut fields, "seed", &mut options.seed)?;
    // `optional` maps JSON null to None, which here means "no cap" — the
    // field default — so null and absent coincide, as intended.
    if let Some(v) = fields.optional("benchmarks_per_suite") {
        let path = fields.child_path("benchmarks_per_suite");
        let n = expect_usize(&path, v)?;
        if n == 0 {
            return Err(ScenarioError::schema(
                &path,
                "must be at least 1 (omit or null to run every benchmark)",
            ));
        }
        options.benchmarks_per_suite = Some(n);
    }
    if let Some(v) = fields.optional("workloads") {
        let path = fields.child_path("workloads");
        options.workloads = match v {
            Value::String(keyword) => WorkloadSelection::from_keyword(keyword).ok_or_else(|| {
                ScenarioError::schema(
                    &path,
                    format!(
                        "unknown workload keyword {keyword:?} (expected paper, extended or \
                         adversarial; use an array for explicit names)"
                    ),
                )
            })?,
            Value::Array(items) => {
                let mut names = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    names.push(expect_str(&format!("{path}[{i}]"), item)?.to_owned());
                }
                // Resolve now so a typo fails at load time with the full
                // valid-name list rather than at run time.
                for name in &names {
                    lnuca_workloads::suites::by_name(name)?;
                }
                WorkloadSelection::Named(names)
            }
            other => {
                return Err(ScenarioError::schema(
                    &path,
                    format!("expected a keyword string or a name array, got {}", other.type_name()),
                ))
            }
        };
    }
    override_usize(&mut fields, "threads", &mut options.threads)?;
    // Accepted and ignored for older documents: the batched engine it
    // sized is gone, and every run takes the per-run path.
    if let Some(v) = fields.optional("batch_size") {
        let path = fields.child_path("batch_size");
        if expect_usize(&path, v)? == 0 {
            return Err(ScenarioError::schema(
                &path,
                "must be at least 1 (a zero-wide batch would simulate nothing)",
            ));
        }
    }
    // Watchdog knobs (DESIGN.md §14): null and absent both mean "off",
    // matching the field defaults.
    if let Some(v) = fields.optional("cycle_budget") {
        options.cycle_budget = Some(expect_u64(&fields.child_path("cycle_budget"), v)?);
    }
    if let Some(v) = fields.optional("run_timeout_ms") {
        options.run_timeout_ms = Some(expect_u64(&fields.child_path("run_timeout_ms"), v)?);
    }
    if let Some(v) = fields.optional("livelock_window") {
        options.livelock_window = Some(expect_u64(&fields.child_path("livelock_window"), v)?);
    }
    if let Some(v) = fields.optional("retries") {
        let path = fields.child_path("retries");
        options.retries = u32::try_from(expect_u64(&path, v)?)
            .map_err(|_| ScenarioError::schema(&path, "value does not fit in u32"))?;
    }
    if let Some(v) = fields.optional("engine") {
        let path = fields.child_path("engine");
        let raw = expect_str(&path, v)?;
        options.engine = Engine::parse(raw).ok_or_else(|| {
            ScenarioError::schema(&path, format!("unknown engine {raw:?} (expected event or cycle)"))
        })?;
    }
    fields.finish()?;
    Ok(options)
}

// ---------------------------------------------------------------------------
// Hierarchy specs
// ---------------------------------------------------------------------------

/// Serializes a spec fully explicitly (presets expanded).
#[must_use]
pub fn spec_to_value(spec: &HierarchySpec) -> Value {
    let mut members = Vec::new();
    if let Some(label) = &spec.label {
        members.push(("label".to_owned(), Value::String(label.clone())));
    }
    members.push(("root".to_owned(), cache_to_value(&spec.root)));
    if let Some(fabric) = &spec.fabric {
        members.push(("fabric".to_owned(), fabric_to_value(fabric)));
    }
    if !spec.intermediate.is_empty() {
        members.push((
            "intermediate".to_owned(),
            Value::Array(spec.intermediate.iter().map(intermediate_to_value).collect()),
        ));
    }
    members.push(("backing".to_owned(), backing_to_value(&spec.backing)));
    members.push(("memory".to_owned(), memory_to_value(&spec.memory)));
    if spec.cores > 1 {
        // Emitted only for CMP shapes, so every committed single-core
        // scenario document stays byte-identical.
        members.push(("cores".to_owned(), Value::UInt(spec.cores as u64)));
    }
    Value::Object(members)
}

/// Deserializes a spec: an optional hierarchy `preset` plus component
/// overrides, validated on the way out.
///
/// # Errors
///
/// Returns a [`ScenarioError`] on schema violations, unknown presets or an
/// invalid composition.
pub fn spec_from_value(path: &str, value: &Value) -> Result<HierarchySpec, ScenarioError> {
    let mut fields = Fields::new(path, value)?;
    // Start from the preset's spec (or the builder defaults).
    let mut spec = match fields.optional("preset") {
        Some(v) => {
            let preset_path = fields.child_path("preset");
            let name = expect_str(&preset_path, v)?;
            let levels = match fields.optional("levels") {
                Some(v) => {
                    let raw = expect_u64(&fields.child_path("levels"), v)?;
                    Some(u8::try_from(raw).map_err(|_| {
                        ScenarioError::schema(fields.child_path("levels"), "out of range")
                    })?)
                }
                None => None,
            };
            hierarchy_preset(path, name, levels)?
        }
        None => {
            if fields.optional("levels").is_some() {
                return Err(ScenarioError::schema(
                    fields.child_path("levels"),
                    "\"levels\" shortcuts a fabric preset; set fabric.levels instead",
                ));
            }
            HierarchySpec::builder().build().expect("builder defaults are valid")
        }
    };
    if let Some(v) = fields.optional("label") {
        spec.label = Some(expect_str(&fields.child_path("label"), v)?.to_owned());
    }
    if let Some(v) = fields.optional("root") {
        spec.root = cache_from_value(&fields.child_path("root"), v, None)?;
    }
    if let Some(v) = fields.optional("fabric") {
        let base = spec.fabric.take();
        spec.fabric = Some(fabric_from_value(&fields.child_path("fabric"), v, base)?);
    }
    if let Some(v) = fields.optional("intermediate") {
        let inter_path = fields.child_path("intermediate");
        let Some(items) = v.as_array() else {
            return Err(ScenarioError::schema(
                &inter_path,
                format!("expected an array, got {}", v.type_name()),
            ));
        };
        spec.intermediate = items
            .iter()
            .enumerate()
            .map(|(i, item)| intermediate_from_value(&format!("{inter_path}[{i}]"), item))
            .collect::<Result<Vec<_>, _>>()?;
    }
    if let Some(v) = fields.optional("backing") {
        spec.backing = backing_from_value(&fields.child_path("backing"), v)?;
    }
    if let Some(v) = fields.optional("memory") {
        spec.memory = memory_from_value(&fields.child_path("memory"), v)?;
    }
    if let Some(v) = fields.optional("cores") {
        let cores_path = fields.child_path("cores");
        let raw = expect_u64(&cores_path, v)?;
        if raw == 0 {
            return Err(ScenarioError::schema(&cores_path, "a machine has at least one core"));
        }
        spec.cores = usize::try_from(raw)
            .map_err(|_| ScenarioError::schema(&cores_path, "out of range"))?;
    }
    fields.finish()?;
    spec.validate()?;
    Ok(spec)
}

/// The spec-level presets: the paper's four shapes by name. `levels`
/// shortcuts the fabric level count and is only meaningful for the fabric
/// presets — pairing it with `conventional`/`dnuca` is rejected rather
/// than silently ignored (the strict-parsing promise).
fn hierarchy_preset(
    path: &str,
    name: &str,
    levels: Option<u8>,
) -> Result<HierarchySpec, ScenarioError> {
    let reject_levels = || -> Result<(), ScenarioError> {
        if levels.is_some() {
            return Err(ScenarioError::schema(
                format!("{path}.levels"),
                format!("the {name:?} preset has no fabric; \"levels\" does not apply"),
            ));
        }
        Ok(())
    };
    let fabric = || LNucaConfig::paper(levels.unwrap_or(3)).map_err(ScenarioError::Config);
    Ok(match name {
        "conventional" => {
            reject_levels()?;
            crate::configs::HierarchyKind::Conventional(configs::conventional()).to_spec()
        }
        "lnuca-l3" => HierarchySpec::builder()
            .fabric(fabric()?)
            .backing_cache(configs::paper_l3())
            .build()?,
        "dnuca" => {
            reject_levels()?;
            crate::configs::HierarchyKind::DNuca(configs::dnuca_hierarchy()).to_spec()
        }
        "lnuca-dnuca" => HierarchySpec::builder()
            .fabric(fabric()?)
            .backing_dnuca(DNucaConfig::paper())
            .build()?,
        other => {
            return Err(UnknownNameError::new(
                "hierarchy preset",
                other,
                ["conventional", "lnuca-l3", "dnuca", "lnuca-dnuca"],
            )
            .into())
        }
    })
}

fn cache_to_value(cache: &CacheConfig) -> Value {
    Value::Object(vec![
        ("name".to_owned(), Value::String(cache.name.clone())),
        ("size_bytes".to_owned(), Value::UInt(cache.size_bytes)),
        ("ways".to_owned(), Value::UInt(cache.ways as u64)),
        ("block_size".to_owned(), Value::UInt(cache.block_size)),
        ("completion_cycles".to_owned(), Value::UInt(cache.completion_cycles)),
        ("initiation_interval".to_owned(), Value::UInt(cache.initiation_interval)),
        (
            "miss_determination_cycles".to_owned(),
            Value::UInt(cache.miss_determination_cycles),
        ),
        ("ports".to_owned(), Value::UInt(cache.ports as u64)),
        (
            "access_mode".to_owned(),
            Value::String(
                match cache.access_mode {
                    AccessMode::Parallel => "parallel",
                    AccessMode::Serial => "serial",
                }
                .to_owned(),
            ),
        ),
        (
            "write_policy".to_owned(),
            Value::String(
                match cache.write_policy {
                    WritePolicy::WriteThrough => "write-through",
                    WritePolicy::CopyBack => "copy-back",
                }
                .to_owned(),
            ),
        ),
        (
            "replacement".to_owned(),
            Value::String(
                match cache.replacement {
                    ReplacementPolicy::Lru => "lru",
                    ReplacementPolicy::Fifo => "fifo",
                    ReplacementPolicy::Random => "random",
                }
                .to_owned(),
            ),
        ),
    ])
}

fn cache_from_value(
    path: &str,
    value: &Value,
    base: Option<CacheConfig>,
) -> Result<CacheConfig, ScenarioError> {
    let mut fields = Fields::new(path, value)?;
    let mut cache = match fields.optional("preset") {
        Some(v) => {
            let preset_path = fields.child_path("preset");
            match expect_str(&preset_path, v)? {
                "paper-l1" => configs::paper_l1(),
                "paper-l2" => configs::paper_l2(),
                "paper-l3" => configs::paper_l3(),
                other => {
                    return Err(UnknownNameError::new(
                        "cache preset",
                        other,
                        ["paper-l1", "paper-l2", "paper-l3"],
                    )
                    .into())
                }
            }
        }
        None => base.unwrap_or_else(configs::paper_l1),
    };
    if let Some(v) = fields.optional("name") {
        cache.name = expect_str(&fields.child_path("name"), v)?.to_owned();
    }
    override_u64(&mut fields, "size_bytes", &mut cache.size_bytes)?;
    if let Some(v) = fields.optional("size_kb") {
        cache.size_bytes = expect_u64(&fields.child_path("size_kb"), v)? * 1024;
    }
    override_usize(&mut fields, "ways", &mut cache.ways)?;
    override_u64(&mut fields, "block_size", &mut cache.block_size)?;
    override_u64(&mut fields, "completion_cycles", &mut cache.completion_cycles)?;
    override_u64(&mut fields, "initiation_interval", &mut cache.initiation_interval)?;
    override_u64(
        &mut fields,
        "miss_determination_cycles",
        &mut cache.miss_determination_cycles,
    )?;
    override_usize(&mut fields, "ports", &mut cache.ports)?;
    if let Some(v) = fields.optional("access_mode") {
        let path = fields.child_path("access_mode");
        cache.access_mode = match expect_str(&path, v)? {
            "parallel" => AccessMode::Parallel,
            "serial" => AccessMode::Serial,
            other => {
                return Err(ScenarioError::schema(
                    &path,
                    format!("unknown access mode {other:?} (expected parallel or serial)"),
                ))
            }
        };
    }
    if let Some(v) = fields.optional("write_policy") {
        let path = fields.child_path("write_policy");
        cache.write_policy = match expect_str(&path, v)? {
            "write-through" => WritePolicy::WriteThrough,
            "copy-back" => WritePolicy::CopyBack,
            other => {
                return Err(ScenarioError::schema(
                    &path,
                    format!("unknown write policy {other:?} (expected write-through or copy-back)"),
                ))
            }
        };
    }
    if let Some(v) = fields.optional("replacement") {
        let path = fields.child_path("replacement");
        cache.replacement = match expect_str(&path, v)? {
            "lru" => ReplacementPolicy::Lru,
            "fifo" => ReplacementPolicy::Fifo,
            "random" => ReplacementPolicy::Random,
            other => {
                return Err(ScenarioError::schema(
                    &path,
                    format!("unknown replacement policy {other:?} (expected lru, fifo or random)"),
                ))
            }
        };
    }
    fields.finish()?;
    Ok(cache)
}

fn fabric_to_value(fabric: &LNucaConfig) -> Value {
    Value::Object(vec![
        ("levels".to_owned(), Value::UInt(u64::from(fabric.levels))),
        ("tile_size_bytes".to_owned(), Value::UInt(fabric.tile_size_bytes)),
        ("tile_ways".to_owned(), Value::UInt(fabric.tile_ways as u64)),
        ("block_size".to_owned(), Value::UInt(fabric.block_size)),
        ("buffer_entries".to_owned(), Value::UInt(fabric.buffer_entries as u64)),
        (
            "routing".to_owned(),
            Value::String(
                match fabric.routing {
                    lnuca_noc::RoutingPolicy::RandomValid => "random",
                    lnuca_noc::RoutingPolicy::DimensionOrder => "dimension-order",
                }
                .to_owned(),
            ),
        ),
        (
            "tile_replacement".to_owned(),
            Value::String(
                match fabric.tile_replacement {
                    ReplacementPolicy::Lru => "lru",
                    ReplacementPolicy::Fifo => "fifo",
                    ReplacementPolicy::Random => "random",
                }
                .to_owned(),
            ),
        ),
        ("seed".to_owned(), Value::UInt(fabric.seed)),
    ])
}

fn fabric_from_value(
    path: &str,
    value: &Value,
    base: Option<LNucaConfig>,
) -> Result<LNucaConfig, ScenarioError> {
    let mut fields = Fields::new(path, value)?;
    let mut fabric = base.unwrap_or_default();
    if let Some(v) = fields.optional("levels") {
        let raw = expect_u64(&fields.child_path("levels"), v)?;
        fabric.levels = u8::try_from(raw)
            .map_err(|_| ScenarioError::schema(fields.child_path("levels"), "out of range"))?;
    }
    override_u64(&mut fields, "tile_size_bytes", &mut fabric.tile_size_bytes)?;
    if let Some(v) = fields.optional("tile_size_kb") {
        fabric.tile_size_bytes = expect_u64(&fields.child_path("tile_size_kb"), v)? * 1024;
    }
    override_usize(&mut fields, "tile_ways", &mut fabric.tile_ways)?;
    override_u64(&mut fields, "block_size", &mut fabric.block_size)?;
    override_usize(&mut fields, "buffer_entries", &mut fabric.buffer_entries)?;
    if let Some(v) = fields.optional("routing") {
        let path = fields.child_path("routing");
        fabric.routing = match expect_str(&path, v)? {
            "random" | "random-valid" => lnuca_noc::RoutingPolicy::RandomValid,
            "dimension-order" | "dim-order" => lnuca_noc::RoutingPolicy::DimensionOrder,
            other => {
                return Err(ScenarioError::schema(
                    &path,
                    format!("unknown routing policy {other:?} (expected random or dimension-order)"),
                ))
            }
        };
    }
    if let Some(v) = fields.optional("tile_replacement") {
        let path = fields.child_path("tile_replacement");
        fabric.tile_replacement = match expect_str(&path, v)? {
            "lru" => ReplacementPolicy::Lru,
            "fifo" => ReplacementPolicy::Fifo,
            "random" => ReplacementPolicy::Random,
            other => {
                return Err(ScenarioError::schema(
                    &path,
                    format!("unknown replacement policy {other:?} (expected lru, fifo or random)"),
                ))
            }
        };
    }
    override_u64(&mut fields, "seed", &mut fabric.seed)?;
    fields.finish()?;
    Ok(fabric)
}

fn intermediate_to_value(level: &IntermediateSpec) -> Value {
    Value::Object(vec![
        ("cache".to_owned(), cache_to_value(&level.cache)),
        (
            "request_transfer_cycles".to_owned(),
            Value::UInt(level.request_transfer_cycles),
        ),
        (
            "response_transfer_cycles".to_owned(),
            Value::UInt(level.response_transfer_cycles),
        ),
    ])
}

fn intermediate_from_value(path: &str, value: &Value) -> Result<IntermediateSpec, ScenarioError> {
    let mut fields = Fields::new(path, value)?;
    let mut level = match fields.optional("preset") {
        Some(v) => {
            let preset_path = fields.child_path("preset");
            match expect_str(&preset_path, v)? {
                "paper-l2" => IntermediateSpec::paper_l2(),
                other => {
                    return Err(UnknownNameError::new("intermediate preset", other, ["paper-l2"]).into())
                }
            }
        }
        None => IntermediateSpec::new(configs::paper_l2()),
    };
    if let Some(v) = fields.optional("cache") {
        level.cache = cache_from_value(&fields.child_path("cache"), v, Some(level.cache))?;
    }
    override_u64(&mut fields, "request_transfer_cycles", &mut level.request_transfer_cycles)?;
    override_u64(
        &mut fields,
        "response_transfer_cycles",
        &mut level.response_transfer_cycles,
    )?;
    fields.finish()?;
    Ok(level)
}

fn backing_to_value(backing: &BackingSpec) -> Value {
    match backing {
        BackingSpec::Cache(cache) => Value::Object(vec![
            ("kind".to_owned(), Value::String("cache".to_owned())),
            ("cache".to_owned(), cache_to_value(cache)),
        ]),
        BackingSpec::DNuca(dnuca) => Value::Object(vec![
            ("kind".to_owned(), Value::String("dnuca".to_owned())),
            ("dnuca".to_owned(), dnuca_to_value(dnuca)),
        ]),
        BackingSpec::Memory => Value::Object(vec![(
            "kind".to_owned(),
            Value::String("memory".to_owned()),
        )]),
    }
}

fn backing_from_value(path: &str, value: &Value) -> Result<BackingSpec, ScenarioError> {
    let mut fields = Fields::new(path, value)?;
    let kind = fields.required_str("kind")?;
    let backing = match kind {
        "cache" => {
            let cache = match fields.optional("cache") {
                Some(v) => cache_from_value(&fields.child_path("cache"), v, Some(configs::paper_l3()))?,
                None => configs::paper_l3(),
            };
            BackingSpec::Cache(cache)
        }
        "dnuca" => {
            let dnuca = match fields.optional("dnuca") {
                Some(v) => dnuca_from_value(&fields.child_path("dnuca"), v)?,
                None => DNucaConfig::paper(),
            };
            BackingSpec::DNuca(dnuca)
        }
        "memory" => BackingSpec::Memory,
        other => {
            return Err(ScenarioError::schema(
                fields.child_path("kind"),
                format!("unknown backing kind {other:?} (expected cache, dnuca or memory)"),
            ))
        }
    };
    fields.finish()?;
    Ok(backing)
}

fn dnuca_to_value(dnuca: &DNucaConfig) -> Value {
    Value::Object(vec![
        ("rows".to_owned(), Value::UInt(dnuca.rows as u64)),
        ("cols".to_owned(), Value::UInt(dnuca.cols as u64)),
        ("bank_size_bytes".to_owned(), Value::UInt(dnuca.bank_size_bytes)),
        ("bank_ways".to_owned(), Value::UInt(dnuca.bank_ways as u64)),
        ("block_size".to_owned(), Value::UInt(dnuca.block_size)),
        (
            "bank_completion_cycles".to_owned(),
            Value::UInt(dnuca.bank_completion_cycles),
        ),
        (
            "bank_initiation_interval".to_owned(),
            Value::UInt(dnuca.bank_initiation_interval),
        ),
        ("flit_bytes".to_owned(), Value::UInt(dnuca.flit_bytes)),
        ("routing_latency".to_owned(), Value::UInt(dnuca.routing_latency)),
        ("virtual_channels".to_owned(), Value::UInt(dnuca.virtual_channels as u64)),
        (
            "search".to_owned(),
            Value::String(
                match dnuca.search {
                    SearchPolicy::Multicast => "multicast",
                    SearchPolicy::Incremental => "incremental",
                }
                .to_owned(),
            ),
        ),
        ("promotion".to_owned(), Value::Bool(dnuca.promotion)),
    ])
}

fn dnuca_from_value(path: &str, value: &Value) -> Result<DNucaConfig, ScenarioError> {
    let mut fields = Fields::new(path, value)?;
    let mut dnuca = DNucaConfig::paper();
    override_usize(&mut fields, "rows", &mut dnuca.rows)?;
    override_usize(&mut fields, "cols", &mut dnuca.cols)?;
    override_u64(&mut fields, "bank_size_bytes", &mut dnuca.bank_size_bytes)?;
    if let Some(v) = fields.optional("bank_size_kb") {
        dnuca.bank_size_bytes = expect_u64(&fields.child_path("bank_size_kb"), v)? * 1024;
    }
    override_usize(&mut fields, "bank_ways", &mut dnuca.bank_ways)?;
    override_u64(&mut fields, "block_size", &mut dnuca.block_size)?;
    override_u64(&mut fields, "bank_completion_cycles", &mut dnuca.bank_completion_cycles)?;
    override_u64(
        &mut fields,
        "bank_initiation_interval",
        &mut dnuca.bank_initiation_interval,
    )?;
    override_u64(&mut fields, "flit_bytes", &mut dnuca.flit_bytes)?;
    override_u64(&mut fields, "routing_latency", &mut dnuca.routing_latency)?;
    override_usize(&mut fields, "virtual_channels", &mut dnuca.virtual_channels)?;
    if let Some(v) = fields.optional("search") {
        let path = fields.child_path("search");
        dnuca.search = match expect_str(&path, v)? {
            "multicast" => SearchPolicy::Multicast,
            "incremental" => SearchPolicy::Incremental,
            other => {
                return Err(ScenarioError::schema(
                    &path,
                    format!("unknown search policy {other:?} (expected multicast or incremental)"),
                ))
            }
        };
    }
    if let Some(v) = fields.optional("promotion") {
        dnuca.promotion = expect_bool(&fields.child_path("promotion"), v)?;
    }
    fields.finish()?;
    Ok(dnuca)
}

fn memory_to_value(memory: &MemoryConfig) -> Value {
    Value::Object(vec![
        ("first_chunk_cycles".to_owned(), Value::UInt(memory.first_chunk_cycles)),
        ("inter_chunk_cycles".to_owned(), Value::UInt(memory.inter_chunk_cycles)),
        ("chunk_bytes".to_owned(), Value::UInt(memory.chunk_bytes)),
    ])
}

fn memory_from_value(path: &str, value: &Value) -> Result<MemoryConfig, ScenarioError> {
    let mut fields = Fields::new(path, value)?;
    let mut memory = configs::paper_memory();
    override_u64(&mut fields, "first_chunk_cycles", &mut memory.first_chunk_cycles)?;
    override_u64(&mut fields, "inter_chunk_cycles", &mut memory.inter_chunk_cycles)?;
    override_u64(&mut fields, "chunk_bytes", &mut memory.chunk_bytes)?;
    fields.finish()?;
    memory.validate()?;
    Ok(memory)
}

// ---------------------------------------------------------------------------
// Built-in scenarios
// ---------------------------------------------------------------------------

/// Names of the built-in scenarios, in listing order. The committed
/// `scenarios/*.json` files are the canonical serializations of these
/// (pinned by `tests/scenario_golden.rs`); `lnuca export <name>` regenerates
/// one.
#[must_use]
pub fn builtin_names() -> Vec<&'static str> {
    vec![
        "paper-conventional",
        "paper-dnuca",
        "adversarial",
        "ablation-tile-size",
        "ablation-routing",
        "ln3-no-l3",
        "deep-stack",
        "trace-replay",
        "cmp-sharing",
        "cmp-lnuca-dnuca",
    ]
}

/// Resolves a built-in scenario by name.
///
/// # Errors
///
/// Returns an [`UnknownNameError`] listing the valid names.
pub fn builtin(name: &str) -> Result<Scenario, UnknownNameError> {
    let full_options = || {
        let mut options = ExperimentOptions::builder().instructions(100_000).build();
        options.threads = 0; // auto: the CLI resolves to the hardware threads
        options
    };
    let ablation_options = || {
        let mut options = full_options();
        options.benchmarks_per_suite = Some(3);
        options
    };
    let expect_plan = |builder: ExperimentPlanBuilderResult| {
        builder.expect("built-in scenarios are valid by construction")
    };
    let scenario = |description: &str, plan: ExperimentPlan| Scenario {
        description: description.to_owned(),
        plan,
    };
    match name.trim() {
        "paper-conventional" => {
            let plan = expect_plan(ExperimentPlan::paper_conventional(&full_options()));
            Ok(scenario(
                "The conventional study: L2-256KB baseline vs LN2/LN3/LN4 + L3 \
                 (Figs. 4(a), 4(b) and Table III).",
                plan,
            ))
        }
        "paper-dnuca" => {
            let plan = expect_plan(ExperimentPlan::paper_dnuca(&full_options()));
            Ok(scenario(
                "The D-NUCA study: DN-4x8 baseline vs LN2/LN3/LN4 + DN-4x8 \
                 (Figs. 5(a) and 5(b)).",
                plan,
            ))
        }
        "adversarial" => {
            let mut options = full_options();
            options.workloads = WorkloadSelection::Adversarial;
            let plan = expect_plan(
                ExperimentPlan::builder("adversarial")
                    .config(crate::configs::HierarchyKind::Conventional(configs::conventional()).to_spec())
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(3).expect("3 levels is valid"))
                            .backing_cache(configs::paper_l3())
                            .build()
                            .expect("paper LN3 is valid"),
                    )
                    .options(options)
                    .build(),
            );
            Ok(scenario(
                "L2-256KB vs LN3-144KB under the four adversarial access-pattern \
                 classes (pointer chase, strided streaming, GUPS, phase mix).",
                plan,
            ))
        }
        "ablation-tile-size" => {
            let mut builder = ExperimentPlan::builder("ablation-tile-size");
            for tile_kb in [2u64, 4, 8, 16] {
                let mut fabric = LNucaConfig::paper(3).expect("3 levels is valid");
                fabric.tile_size_bytes = tile_kb * 1024;
                builder = builder.config(
                    HierarchySpec::builder()
                        .fabric(fabric)
                        .backing_cache(configs::paper_l3())
                        .build()
                        .expect("ablation tile sizes are valid"),
                );
            }
            let plan = expect_plan(builder.options(ablation_options()).build());
            Ok(scenario(
                "Tile-size ablation (§IV): a 3-level fabric with 2/4/8/16 KB tiles; \
                 the paper fixes 8 KB for single-cycle timing.",
                plan,
            ))
        }
        "ablation-routing" => {
            let mut builder = ExperimentPlan::builder("ablation-routing");
            for (label, routing) in [
                ("LN3-144KB (random)", lnuca_noc::RoutingPolicy::RandomValid),
                ("LN3-144KB (dim-order)", lnuca_noc::RoutingPolicy::DimensionOrder),
            ] {
                let mut fabric = LNucaConfig::paper(3).expect("3 levels is valid");
                fabric.routing = routing;
                builder = builder.config(
                    HierarchySpec::builder()
                        .label(label)
                        .fabric(fabric)
                        .backing_cache(configs::paper_l3())
                        .build()
                        .expect("routing ablation configs are valid"),
                );
            }
            let plan = expect_plan(builder.options(ablation_options()).build());
            Ok(scenario(
                "Routing ablation (§III-B): distributed random routing vs \
                 dimension-order on the 3-level fabric.",
                plan,
            ))
        }
        "ln3-no-l3" => {
            let plan = expect_plan(
                ExperimentPlan::builder("ln3-no-l3")
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(3).expect("3 levels is valid"))
                            .backing_cache(configs::paper_l3())
                            .build()
                            .expect("paper LN3 is valid"),
                    )
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(3).expect("3 levels is valid"))
                            .build()
                            .expect("fabric over bare memory is valid"),
                    )
                    .options(full_options())
                    .build(),
            );
            Ok(scenario(
                "A shape the old HierarchyKind enum could not express: the 3-level \
                 fabric with nothing behind it but DRAM, vs the same fabric with \
                 the 8 MB L3.",
                plan,
            ))
        }
        "deep-stack" => {
            let l2b = CacheConfig::builder("L2B")
                .size_bytes(1024 * 1024)
                .ways(8)
                .block_size(64)
                .completion_cycles(8)
                .initiation_interval(4)
                .access_mode(AccessMode::Serial)
                .write_policy(WritePolicy::CopyBack)
                .build()
                .expect("the deep-stack middle level is valid");
            let plan = expect_plan(
                ExperimentPlan::builder("deep-stack")
                    .config(crate::configs::HierarchyKind::Conventional(configs::conventional()).to_spec())
                    .config(
                        HierarchySpec::builder()
                            .intermediate(IntermediateSpec::paper_l2())
                            .intermediate(IntermediateSpec::new(l2b).with_transfers(3, 3))
                            .backing_cache(configs::paper_l3())
                            .build()
                            .expect("the deep stack is valid"),
                    )
                    .options(full_options())
                    .build(),
            );
            Ok(scenario(
                "A four-level conventional stack (L1 + L2 + 1 MB L2B + L3) composed \
                 through HierarchySpec — deeper than any paper configuration.",
                plan,
            ))
        }
        "trace-replay" => {
            let mut options = ExperimentOptions::builder().instructions(20_000).build();
            options.threads = 0;
            // The committed sample corpus, repo-root-relative (the file is
            // opened when the run starts, not when the scenario loads).
            options.workloads =
                WorkloadSelection::Named(vec!["scenarios/traces/sample.lnt".to_owned()]);
            let plan = expect_plan(
                ExperimentPlan::builder("trace-replay")
                    .config(crate::configs::HierarchyKind::Conventional(configs::conventional()).to_spec())
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(3).expect("3 levels is valid"))
                            .backing_cache(configs::paper_l3())
                            .build()
                            .expect("paper LN3 is valid"),
                    )
                    .options(options)
                    .build(),
            );
            Ok(scenario(
                "Replay of the committed sample trace corpus (lnuca-trace/v1, built \
                 by `lnuca ingest`) on the conventional baseline and LN3.",
                plan,
            ))
        }
        "cmp-sharing" => {
            let mut options = ExperimentOptions::builder().instructions(50_000).build();
            options.threads = 0;
            options.workloads = WorkloadSelection::Named(vec![
                "sh.prodcons".to_owned(),
                "sh.migratory".to_owned(),
                "sh.falseshare".to_owned(),
            ]);
            let plan = expect_plan(
                ExperimentPlan::builder("cmp-sharing")
                    .config(
                        HierarchySpec::builder()
                            .backing_cache(configs::paper_l3())
                            .cores(2)
                            .build()
                            .expect("the 2-core shape is valid"),
                    )
                    .config(
                        HierarchySpec::builder()
                            .backing_cache(configs::paper_l3())
                            .cores(4)
                            .build()
                            .expect("the 4-core shape is valid"),
                    )
                    .options(options)
                    .build(),
            );
            Ok(scenario(
                "Multicore sharing study (DESIGN.md §17): 2 and 4 private L1s over \
                 the shared 8 MB L3, driven by the three sharing workload classes \
                 through the MSI directory.",
                plan,
            ))
        }
        "cmp-lnuca-dnuca" => {
            let mut options = ExperimentOptions::builder().instructions(50_000).build();
            options.threads = 0;
            options.workloads = WorkloadSelection::Named(vec![
                "sh.prodcons".to_owned(),
                "sh.falseshare".to_owned(),
                "int.compress".to_owned(),
            ]);
            let plan = expect_plan(
                ExperimentPlan::builder("cmp-lnuca-dnuca")
                    .config(
                        HierarchySpec::builder()
                            .fabric(LNucaConfig::paper(2).expect("2 levels is valid"))
                            .backing_dnuca(DNucaConfig::paper())
                            .cores(4)
                            .build()
                            .expect("the 4-core fabric shape is valid"),
                    )
                    .config(
                        HierarchySpec::builder()
                            .backing_dnuca(DNucaConfig::paper())
                            .cores(4)
                            .build()
                            .expect("the fabric-less control is valid"),
                    )
                    .options(options)
                    .build(),
            );
            Ok(scenario(
                "The flagship CMP shape: four cores with private L1 + 2-level \
                 L-NUCA fabric over a shared D-NUCA, vs the fabric-less control, \
                 on sharing and private workloads.",
                plan,
            ))
        }
        other => Err(UnknownNameError::new("scenario", other, builtin_names())),
    }
}

type ExperimentPlanBuilderResult = Result<ExperimentPlan, ConfigError>;

// ---------------------------------------------------------------------------
// Reports (lnuca-report/v1)
// ---------------------------------------------------------------------------

/// Renders the structured report of one scenario run: the resolved options,
/// every [`RunResult`](crate::system::RunResult) in run order, and the
/// derived summaries the text tables print.
#[must_use]
pub fn report_value(plan: &ExperimentPlan, study: &Study) -> Value {
    let mut results: Vec<Value> = study
        .results
        .iter()
        .map(|r| {
            let mut members = vec![
                ("label".to_owned(), Value::String(r.label.clone())),
                ("workload".to_owned(), Value::String(r.workload.clone())),
                (
                    "suite".to_owned(),
                    Value::String(r.suite.label().trim_end_matches('.').to_owned()),
                ),
                ("status".to_owned(), Value::String("ok".to_owned())),
                ("instructions".to_owned(), Value::UInt(r.instructions)),
                ("cycles".to_owned(), Value::UInt(r.cycles)),
                ("ipc".to_owned(), Value::Float(r.ipc)),
                ("memory_accesses".to_owned(), Value::UInt(r.hierarchy.memory_accesses)),
                ("write_drains".to_owned(), Value::UInt(r.hierarchy.write_drains)),
                ("energy_total_pj".to_owned(), Value::Float(r.energy.total_pj())),
            ];
            // CMP rows (present only for cores > 1, so single-core report
            // documents are unchanged): one object per core plus the
            // run-wide MSI directory counters.
            if !r.per_core.is_empty() {
                members.push((
                    "per_core".to_owned(),
                    Value::Array(
                        r.per_core
                            .iter()
                            .map(|row| {
                                Value::Object(vec![
                                    ("core".to_owned(), Value::UInt(row.core as u64)),
                                    ("instructions".to_owned(), Value::UInt(row.instructions)),
                                    ("ipc".to_owned(), Value::Float(row.ipc)),
                                    (
                                        "coherence_hits".to_owned(),
                                        Value::UInt(row.coherence_hits),
                                    ),
                                    (
                                        "coherence_misses".to_owned(),
                                        Value::UInt(row.coherence_misses),
                                    ),
                                    (
                                        "invalidations_received".to_owned(),
                                        Value::UInt(row.invalidations_received),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            if let Some(c) = &r.coherence {
                members.push((
                    "coherence".to_owned(),
                    Value::Object(vec![
                        ("reads".to_owned(), Value::UInt(c.reads)),
                        ("writes".to_owned(), Value::UInt(c.writes)),
                        ("hits".to_owned(), Value::UInt(c.hits)),
                        ("misses".to_owned(), Value::UInt(c.misses)),
                        ("evictions".to_owned(), Value::UInt(c.evictions)),
                        (
                            "invalidations_sent".to_owned(),
                            Value::UInt(c.invalidations_sent),
                        ),
                        ("downgrades".to_owned(), Value::UInt(c.downgrades)),
                        ("writebacks".to_owned(), Value::UInt(c.writebacks)),
                        ("recalls".to_owned(), Value::UInt(c.recalls)),
                    ]),
                ));
            }
            Value::Object(members)
        })
        .collect();
    // Failed runs appear in the same array with their structured status
    // (DESIGN.md §14), so a report always accounts for the whole matrix.
    results.extend(study.failures.iter().map(|f| {
        Value::Object(vec![
            ("label".to_owned(), Value::String(f.label.clone())),
            ("workload".to_owned(), Value::String(f.workload.clone())),
            (
                "suite".to_owned(),
                Value::String(f.suite.label().trim_end_matches('.').to_owned()),
            ),
            ("status".to_owned(), Value::String(f.error.status().to_owned())),
            ("seed".to_owned(), Value::UInt(f.seed)),
            ("error".to_owned(), Value::String(f.error.to_string())),
            ("attempts".to_owned(), Value::UInt(u64::from(f.attempts))),
        ])
    }));
    let ipc = study
        .ipc_summary()
        .into_iter()
        .map(|row| {
            Value::Object(vec![
                ("label".to_owned(), Value::String(row.label)),
                ("int_ipc".to_owned(), Value::Float(row.int_ipc)),
                ("fp_ipc".to_owned(), Value::Float(row.fp_ipc)),
                ("int_gain_pct".to_owned(), Value::Float(row.int_gain_pct)),
                ("fp_gain_pct".to_owned(), Value::Float(row.fp_gain_pct)),
            ])
        })
        .collect();
    let energy = study
        .energy_summary()
        .into_iter()
        .map(|row| {
            Value::Object(vec![
                ("label".to_owned(), Value::String(row.label)),
                ("dynamic".to_owned(), Value::Float(row.dynamic)),
                ("static_l1".to_owned(), Value::Float(row.static_l1)),
                ("static_second".to_owned(), Value::Float(row.static_second)),
                ("static_last".to_owned(), Value::Float(row.static_last)),
                ("total".to_owned(), Value::Float(row.total)),
            ])
        })
        .collect();
    let hits = study
        .hit_distribution()
        .into_iter()
        .map(|row| {
            Value::Object(vec![
                ("label".to_owned(), Value::String(row.label)),
                (
                    "suite".to_owned(),
                    Value::String(row.suite.label().trim_end_matches('.').to_owned()),
                ),
                (
                    "level_percent".to_owned(),
                    Value::Array(row.level_percent.iter().map(|&v| Value::Float(v)).collect()),
                ),
                ("all_levels_percent".to_owned(), Value::Float(row.all_levels_percent)),
                ("avg_to_min_transport".to_owned(), Value::Float(row.avg_to_min_transport)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".to_owned(), Value::String(REPORT_SCHEMA.to_owned())),
        ("scenario".to_owned(), Value::String(plan.name.clone())),
        ("options".to_owned(), options_to_value(&plan.options)),
        ("baseline".to_owned(), Value::String(study.baseline.clone())),
        (
            "configs".to_owned(),
            Value::Array(study.configs.iter().map(|c| Value::String(c.clone())).collect()),
        ),
        ("results".to_owned(), Value::Array(results)),
        ("ipc_summary".to_owned(), Value::Array(ipc)),
        ("energy_summary".to_owned(), Value::Array(energy)),
        ("hit_distribution".to_owned(), Value::Array(hits)),
    ])
}

fn report_err(path: &str, message: impl std::fmt::Display) -> String {
    format!("invalid report at {path}: {message}")
}

/// The report-side twin of [`Fields`]: tracks consumed members so unknown
/// keys fail with their JSON path, exactly like the scenario parser — but
/// with `invalid report at …` messages and `String` errors (the
/// `check-report` surface).
struct ReportFields<'a> {
    path: String,
    members: &'a [(String, Value)],
    seen: Vec<bool>,
}

impl<'a> ReportFields<'a> {
    fn new(path: impl Into<String>, value: &'a Value) -> Result<Self, String> {
        let path = path.into();
        let Some(members) = value.as_object() else {
            return Err(report_err(
                &path,
                format!("expected an object, got {}", value.type_name()),
            ));
        };
        Ok(ReportFields {
            seen: vec![false; members.len()],
            members,
            path,
        })
    }

    fn optional(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.members.iter().enumerate() {
            if k == key {
                self.seen[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn required(&mut self, key: &str) -> Result<&'a Value, String> {
        self.optional(key)
            .ok_or_else(|| report_err(&self.path, format!("missing required field {key:?}")))
    }

    fn child_path(&self, key: &str) -> String {
        format!("{}.{key}", self.path)
    }

    fn string(&mut self, key: &str) -> Result<&'a str, String> {
        let path = self.child_path(key);
        let v = self.required(key)?;
        v.as_str()
            .ok_or_else(|| report_err(&path, format!("expected a string, got {}", v.type_name())))
    }

    fn uint(&mut self, key: &str) -> Result<u64, String> {
        let path = self.child_path(key);
        let v = self.required(key)?;
        v.as_u64().ok_or_else(|| {
            report_err(&path, format!("expected a non-negative integer, got {}", v.type_name()))
        })
    }

    fn float(&mut self, key: &str) -> Result<f64, String> {
        let path = self.child_path(key);
        let v = self.required(key)?;
        v.as_f64()
            .ok_or_else(|| report_err(&path, format!("expected a number, got {}", v.type_name())))
    }

    fn array(&mut self, key: &str) -> Result<&'a [Value], String> {
        let path = self.child_path(key);
        let v = self.required(key)?;
        v.as_array()
            .ok_or_else(|| report_err(&path, format!("expected an array, got {}", v.type_name())))
    }

    /// Rejects any member that was never consumed, with the object's path.
    fn finish(self) -> Result<(), String> {
        let unknown: Vec<&str> = self
            .members
            .iter()
            .zip(&self.seen)
            .filter(|(_, seen)| !**seen)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(report_err(
                &self.path,
                format!("unknown field(s): {}", unknown.join(", ")),
            ))
        }
    }
}

/// Validates one row of a flat summary table: the exact field set, every
/// non-label field a number.
fn validate_summary_rows(path: &str, rows: &[Value], fields: &[&str]) -> Result<(), String> {
    for (i, row) in rows.iter().enumerate() {
        let mut walker = ReportFields::new(format!("{path}[{i}]"), row)?;
        walker.string("label")?;
        for &field in fields {
            walker.float(field)?;
        }
        walker.finish()?;
    }
    Ok(())
}

/// Structurally validates an `lnuca-report/v1` document: schema marker, the
/// exact top-level field set, the exact per-row field sets of `results` and
/// every summary table, and — when present — the `sweep` extension. Unknown
/// fields anywhere fail with their JSON path, with the same strictness the
/// scenario parser applies on the way in ([`Scenario::from_json`]). Used by
/// `lnuca check-report` (and CI) to catch emission drift.
///
/// # Errors
///
/// Returns a description of the first violation, carrying its JSON path.
pub fn validate_report(value: &Value) -> Result<(), String> {
    let mut root = ReportFields::new("$", value)?;
    let schema = root.string("schema")?;
    if schema != REPORT_SCHEMA {
        return Err(report_err(
            "$.schema",
            format!("expected {REPORT_SCHEMA:?}, got {schema:?}"),
        ));
    }
    root.string("scenario")?;
    // The options object is validated by the scenario parser itself — the
    // exact same code that admits options on the way in — so the two layers
    // cannot drift apart. Only the message prefix is adapted.
    let options = root.required("options")?;
    options_from_value("$.options", options).map_err(|e| match e {
        ScenarioError::Schema { path, message } => report_err(&path, message),
        other => report_err("$.options", other),
    })?;
    root.string("baseline")?;
    let configs = root.array("configs")?;
    if configs.is_empty() {
        return Err(report_err("$.configs", "report lists no configurations"));
    }
    for (i, config) in configs.iter().enumerate() {
        if config.as_str().is_none() {
            return Err(report_err(
                &format!("$.configs[{i}]"),
                format!("expected a string label, got {}", config.type_name()),
            ));
        }
    }
    let results = root.array("results")?;
    if results.is_empty() {
        return Err(report_err("$.results", "report carries no results"));
    }
    for (i, result) in results.iter().enumerate() {
        let path = format!("$.results[{i}]");
        let mut row = ReportFields::new(&path, result)?;
        let status = row.string("status")?;
        if !lnuca_types::RunError::is_known_status(status) {
            return Err(report_err(
                &row.child_path("status"),
                format!(
                    "unknown status {status:?} (known: {})",
                    lnuca_types::RUN_STATUSES.join(", ")
                ),
            ));
        }
        row.string("label")?;
        row.string("workload")?;
        row.string("suite")?;
        // Completed rows carry the full measurement; failed rows carry the
        // structured failure instead (DESIGN.md §14). Each shape is exact.
        if status == "ok" {
            row.uint("instructions")?;
            row.uint("cycles")?;
            row.float("ipc")?;
            row.uint("memory_accesses")?;
            row.uint("write_drains")?;
            row.float("energy_total_pj")?;
            // CMP rows: per-core breakdown + directory counters, present
            // together or not at all (single-core rows carry neither).
            let per_core = row.optional("per_core").cloned();
            let coherence = row.optional("coherence").cloned();
            if per_core.is_some() != coherence.is_some() {
                return Err(report_err(
                    &path,
                    "\"per_core\" and \"coherence\" must appear together",
                ));
            }
            if let Some(rows) = &per_core {
                let Some(cores) = rows.as_array() else {
                    return Err(report_err(
                        &format!("{path}.per_core"),
                        format!("expected an array, got {}", rows.type_name()),
                    ));
                };
                if cores.is_empty() {
                    return Err(report_err(
                        &format!("{path}.per_core"),
                        "a CMP result reports at least one core",
                    ));
                }
                for (j, core_row) in cores.iter().enumerate() {
                    let core_path = format!("{path}.per_core[{j}]");
                    let mut walker = ReportFields::new(&core_path, core_row)?;
                    walker.uint("core")?;
                    walker.uint("instructions")?;
                    walker.float("ipc")?;
                    walker.uint("coherence_hits")?;
                    walker.uint("coherence_misses")?;
                    walker.uint("invalidations_received")?;
                    walker.finish()?;
                }
            }
            if let Some(counters) = &coherence {
                let mut walker = ReportFields::new(format!("{path}.coherence"), counters)?;
                for key in [
                    "reads",
                    "writes",
                    "hits",
                    "misses",
                    "evictions",
                    "invalidations_sent",
                    "downgrades",
                    "writebacks",
                    "recalls",
                ] {
                    walker.uint(key)?;
                }
                walker.finish()?;
            }
        } else {
            row.uint("seed")?;
            row.string("error")?;
            row.uint("attempts")?;
        }
        row.finish()?;
    }
    validate_summary_rows(
        "$.ipc_summary",
        root.array("ipc_summary")?,
        &["int_ipc", "fp_ipc", "int_gain_pct", "fp_gain_pct"],
    )?;
    validate_summary_rows(
        "$.energy_summary",
        root.array("energy_summary")?,
        &["dynamic", "static_l1", "static_second", "static_last", "total"],
    )?;
    let hits = root.array("hit_distribution")?;
    for (i, row) in hits.iter().enumerate() {
        let path = format!("$.hit_distribution[{i}]");
        let mut walker = ReportFields::new(&path, row)?;
        walker.string("label")?;
        walker.string("suite")?;
        let levels = walker.array("level_percent")?;
        for (j, level) in levels.iter().enumerate() {
            if level.as_f64().is_none() {
                return Err(report_err(
                    &format!("{path}.level_percent[{j}]"),
                    format!("expected a number, got {}", level.type_name()),
                ));
            }
        }
        walker.float("all_levels_percent")?;
        walker.float("avg_to_min_transport")?;
        walker.finish()?;
    }
    // The optional sweep extension (`lnuca sweep`, DESIGN.md §16).
    if let Some(sweep) = root.optional("sweep") {
        let mut walker = ReportFields::new("$.sweep", sweep)?;
        let evaluated = walker.uint("evaluated")?;
        let pruned = walker.uint("pruned")?;
        let survivors = walker.uint("survivors")?;
        if pruned + survivors != evaluated {
            return Err(report_err(
                "$.sweep",
                format!("pruned ({pruned}) + survivors ({survivors}) must equal evaluated ({evaluated})"),
            ));
        }
        walker.float("epsilon")?;
        walker.uint("probe_instructions")?;
        // The core-count axis (optional: pre-CMP sweep reports omit it).
        if let Some(cores) = walker.optional("cores") {
            let Some(items) = cores.as_array() else {
                return Err(report_err(
                    "$.sweep.cores",
                    format!("expected an array, got {}", cores.type_name()),
                ));
            };
            if items.is_empty() {
                return Err(report_err("$.sweep.cores", "the cores axis holds at least one count"));
            }
            for (i, item) in items.iter().enumerate() {
                match item.as_u64() {
                    Some(c) if c >= 1 => {}
                    _ => {
                        return Err(report_err(
                            &format!("$.sweep.cores[{i}]"),
                            "core counts are positive integers",
                        ));
                    }
                }
            }
        }
        let frontier = walker.array("frontier")?;
        if frontier.is_empty() {
            return Err(report_err("$.sweep.frontier", "a sweep always keeps at least one point"));
        }
        validate_summary_rows("$.sweep.frontier", frontier, &["ipc", "energy_pj", "area_mm2"])?;
        walker.finish()?;
    }
    root.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_parses_back_from_its_canonical_json() {
        for name in builtin_names() {
            let scenario = builtin(name).expect("builtin resolves");
            assert_eq!(scenario.name(), name);
            assert!(!scenario.description.is_empty());
            let text = scenario.to_json();
            let reparsed = Scenario::from_json(&text)
                .unwrap_or_else(|e| panic!("{name} round trip failed: {e}"));
            assert_eq!(reparsed, scenario, "{name}: JSON round trip is lossless");
        }
    }

    #[test]
    fn unknown_builtin_lists_the_registry() {
        let err = builtin("papr").unwrap_err().to_string();
        assert!(err.contains("unknown scenario"), "{err}");
        for name in builtin_names() {
            assert!(err.contains(name), "error must list {name}: {err}");
        }
    }

    #[test]
    fn presets_expand_and_overrides_apply() {
        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "configs": [
                {"preset": "lnuca-l3", "levels": 2},
                {"label": "big tiles", "preset": "lnuca-l3",
                 "fabric": {"levels": 3, "tile_size_kb": 16}}
            ]
        }"#;
        let scenario = Scenario::from_json(text).unwrap();
        assert_eq!(scenario.plan.configs.len(), 2);
        assert_eq!(scenario.plan.configs[0].label(), "LN2-72KB");
        let big = &scenario.plan.configs[1];
        assert_eq!(big.label(), "big tiles");
        assert_eq!(big.fabric.as_ref().unwrap().tile_size_bytes, 16 * 1024);
        // Options were absent: defaults.
        assert_eq!(scenario.plan.options.seed, 1);
    }

    #[test]
    fn unknown_fields_are_rejected_with_their_path() {
        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "configs": [{"preset": "conventional", "tyop": 1}]
        }"#;
        let err = Scenario::from_json(text).unwrap_err().to_string();
        assert!(err.contains("$.configs[0]"), "{err}");
        assert!(err.contains("tyop"), "{err}");

        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "options": {"instructions": 5, "frobnicate": true},
            "configs": [{"preset": "conventional"}]
        }"#;
        let err = Scenario::from_json(text).unwrap_err().to_string();
        assert!(err.contains("$.options") && err.contains("frobnicate"), "{err}");
    }

    #[test]
    fn bad_names_fail_at_load_time_with_valid_lists() {
        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "options": {"workloads": ["int.compress", "no.such"]},
            "configs": [{"preset": "conventional"}]
        }"#;
        let err = Scenario::from_json(text).unwrap_err().to_string();
        assert!(err.contains("no.such") && err.contains("adv.gups"), "{err}");

        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "configs": [{"preset": "lnuca-l9000"}]
        }"#;
        let err = Scenario::from_json(text).unwrap_err().to_string();
        assert!(err.contains("hierarchy preset") && err.contains("lnuca-dnuca"), "{err}");
    }

    #[test]
    fn levels_on_a_fabricless_preset_is_rejected_not_ignored() {
        for preset in ["conventional", "dnuca"] {
            let text = format!(
                r#"{{
                    "schema": "lnuca-scenario/v1",
                    "name": "t",
                    "configs": [{{"preset": "{preset}", "levels": 2}}]
                }}"#
            );
            let err = Scenario::from_json(&text).unwrap_err().to_string();
            assert!(
                err.contains("levels") && err.contains("no fabric"),
                "{preset}: {err}"
            );
        }
        // On the fabric presets it is meaningful and accepted.
        let text = r#"{
            "schema": "lnuca-scenario/v1",
            "name": "t",
            "configs": [{"preset": "lnuca-dnuca", "levels": 4}]
        }"#;
        let scenario = Scenario::from_json(text).unwrap();
        assert_eq!(scenario.plan.configs[0].fabric.as_ref().unwrap().levels, 4);
    }

    #[test]
    fn wrong_schema_marker_is_rejected() {
        let err = Scenario::from_json(r#"{"schema": "lnuca-scenario/v9", "name": "t", "configs": []}"#)
            .unwrap_err()
            .to_string();
        assert!(err.contains("lnuca-scenario/v1"), "{err}");
    }

    #[test]
    fn spec_value_round_trip_is_identity() {
        for name in builtin_names() {
            for (i, spec) in builtin(name).unwrap().plan.configs.iter().enumerate() {
                let value = spec_to_value(spec);
                let back = spec_from_value("$", &value)
                    .unwrap_or_else(|e| panic!("{name}[{i}]: {e}"));
                assert_eq!(&back, spec, "{name}[{i}]: spec → JSON → spec is identity");
            }
        }
    }

    #[test]
    fn report_of_a_tiny_run_validates() {
        let mut options = ExperimentOptions::quick();
        options.instructions = 1_000;
        options.benchmarks_per_suite = Some(1);
        options.lnuca_levels = vec![2];
        let plan = ExperimentPlan::paper_conventional(&options).unwrap();
        let study = Study::run(&plan).unwrap();
        let report = report_value(&plan, &study);
        validate_report(&report).expect("freshly emitted reports validate");
        // And the document survives a parse round trip.
        let text = report.to_pretty();
        let parsed = json::parse(&text).unwrap();
        validate_report(&parsed).unwrap();
        assert_eq!(parsed.get("baseline").unwrap().as_str(), Some("L2-256KB"));
    }

    #[test]
    fn report_validation_catches_drift() {
        assert!(validate_report(&Value::Null).is_err());
        let mut members = vec![
            ("schema".to_owned(), Value::String(REPORT_SCHEMA.to_owned())),
            ("scenario".to_owned(), Value::String("t".to_owned())),
        ];
        assert!(validate_report(&Value::Object(members.clone())).unwrap_err().contains("options"));
        members.push(("options".to_owned(), Value::Object(vec![])));
        members.push(("baseline".to_owned(), Value::String("b".to_owned())));
        members.push(("configs".to_owned(), Value::Array(vec![])));
        let err = validate_report(&Value::Object(members)).unwrap_err();
        assert!(err.contains("no configurations"), "{err}");
    }

    /// A valid tiny report to mutate in the negative tests below.
    fn tiny_report() -> Value {
        let mut options = ExperimentOptions::quick();
        options.instructions = 500;
        options.benchmarks_per_suite = Some(1);
        options.lnuca_levels = vec![2];
        let plan = ExperimentPlan::paper_conventional(&options).unwrap();
        let study = Study::run(&plan).unwrap();
        report_value(&plan, &study)
    }

    fn push_field(value: &mut Value, path: &[&str], key: &str, v: Value) {
        let Value::Object(members) = value else { panic!("expected object") };
        if let [head, rest @ ..] = path {
            let slot = members
                .iter_mut()
                .find(|(k, _)| k == head)
                .map(|(_, v)| v)
                .expect("path exists");
            let target = if let Value::Array(items) = slot { &mut items[0] } else { slot };
            push_field(target, rest, key, v);
        } else {
            members.push((key.to_owned(), v));
        }
    }

    #[test]
    fn report_validation_rejects_unknown_fields_with_their_path() {
        // Top level.
        let mut report = tiny_report();
        push_field(&mut report, &[], "bogus", Value::Bool(true));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("invalid report at $") && err.contains("bogus"), "{err}");

        // Inside a result row — the path names the row.
        let mut report = tiny_report();
        push_field(&mut report, &["results"], "stray", Value::UInt(1));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("$.results[0]") && err.contains("stray"), "{err}");

        // Inside the options object — strictness parity with the scenario
        // parser, which uses the very same walker.
        let mut report = tiny_report();
        push_field(&mut report, &["options"], "not_a_knob", Value::UInt(1));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("$.options") && err.contains("not_a_knob"), "{err}");
    }

    #[test]
    fn report_validation_checks_the_sweep_extension() {
        let frontier_row = |label: &str| {
            Value::Object(vec![
                ("label".to_owned(), Value::String(label.to_owned())),
                ("ipc".to_owned(), Value::Float(0.5)),
                ("energy_pj".to_owned(), Value::Float(100.0)),
                ("area_mm2".to_owned(), Value::Float(1.0)),
            ])
        };
        let sweep = |evaluated: u64, pruned: u64, survivors: u64, frontier: Vec<Value>| {
            Value::Object(vec![
                ("evaluated".to_owned(), Value::UInt(evaluated)),
                ("pruned".to_owned(), Value::UInt(pruned)),
                ("survivors".to_owned(), Value::UInt(survivors)),
                ("epsilon".to_owned(), Value::Float(0.02)),
                ("probe_instructions".to_owned(), Value::UInt(1000)),
                ("frontier".to_owned(), Value::Array(frontier)),
            ])
        };

        let mut report = tiny_report();
        push_field(&mut report, &[], "sweep", sweep(10, 6, 4, vec![frontier_row("a")]));
        validate_report(&report).expect("a well-formed sweep extension validates");

        // Inconsistent counts.
        let mut report = tiny_report();
        push_field(&mut report, &[], "sweep", sweep(10, 6, 5, vec![frontier_row("a")]));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("$.sweep") && err.contains("must equal evaluated"), "{err}");

        // Unknown field inside a frontier row, with its path.
        let mut row = frontier_row("a");
        push_field(&mut row, &[], "extra", Value::UInt(1));
        let mut report = tiny_report();
        push_field(&mut report, &[], "sweep", sweep(10, 6, 4, vec![row]));
        let err = validate_report(&report).unwrap_err();
        assert!(err.contains("$.sweep.frontier[0]") && err.contains("extra"), "{err}");
    }

    #[test]
    fn zero_batch_and_zero_benchmarks_are_rejected_with_their_paths() {
        let scenario_with_options = |options: &str| {
            format!(
                r#"{{"schema": "lnuca-scenario/v1", "name": "t",
                     "options": {options},
                     "configs": [{{"preset": "conventional"}}]}}"#
            )
        };
        let err = Scenario::from_json(&scenario_with_options(r#"{"batch_size": 0}"#)).unwrap_err();
        assert!(
            err.to_string().contains("$.options.batch_size"),
            "the error names the offending knob: {err}"
        );
        let err = Scenario::from_json(&scenario_with_options(r#"{"benchmarks_per_suite": 0}"#))
            .unwrap_err();
        assert!(
            err.to_string().contains("$.options.benchmarks_per_suite"),
            "the error names the offending knob: {err}"
        );
        // 1 stays accepted.
        Scenario::from_json(&scenario_with_options(r#"{"batch_size": 1, "benchmarks_per_suite": 1}"#))
            .expect("nonzero values are valid");
        // A nonzero batch size is read for compatibility and ignored: same
        // plan, same journal digest as a document without the field.
        let with = Scenario::from_json(&scenario_with_options(r#"{"batch_size": 8}"#))
            .expect("a nonzero batch size is accepted");
        let without = Scenario::from_json(&scenario_with_options("{}")).expect("valid");
        assert_eq!(with.plan, without.plan);
        assert_eq!(
            crate::journal::plan_digest(&with.plan).expect("digest computes"),
            crate::journal::plan_digest(&without.plan).expect("digest computes"),
        );
        assert!(!with.to_json().contains("batch_size"), "the field is no longer emitted");
    }
}
