//! The benchmark's workloads, generated from the seed as scenario documents.
//!
//! Every workload is written as an `lnuca-scenario/v1` document and parsed
//! back, so set-up pays the same parse and plan resolution a user of the
//! `lnuca` CLI or the daemon pays.

use lnuca_sim::configs::{self, HierarchyKind};
use lnuca_sim::experiments::ExperimentPlan;
use lnuca_sim::scenario::{self, spec_to_value, Scenario, SCENARIO_SCHEMA};
use lnuca_sim::spec::HierarchySpec;
use lnuca_workloads::suites;
use serde::json::Value;

/// Instructions per single-core run: the warm scale at which the caches
/// fill and the event horizon stops skipping cold-miss stalls.
pub const WARM_INSTRUCTIONS: u64 = 400_000;

/// Instructions per run of a daemon cold job: small, so the daemon's own
/// layers (accept, parse, digest, cache, queue, encode) stay visible.
pub const SERVE_INSTRUCTIONS: u64 = 10_000;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single core, the four paper hierarchies, SPEC-like INT and FP.
    UniWarm,
    /// Single core, L2 against LN3 on the adversarial access patterns.
    UniMiss,
    /// 2- and 4-core fabric-less CMPs over a shared L3, sharing patterns.
    CmpSharing,
    /// The daemon: warm hits, `/healthz` and cold `?wait` submissions.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::UniWarm,
        Workload::UniMiss,
        Workload::CmpSharing,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniWarm => "uni-warm",
            Workload::UniMiss => "uni-miss",
            Workload::CmpSharing => "cmp-sharing",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The study document this workload times. For `serve-mixed` it is the
    /// daemon's cold-job shape; the benchmark's seed becomes the plan seed.
    #[must_use]
    pub fn document(self, seed: u64) -> String {
        let paper_kinds = || {
            vec![
                HierarchyKind::Conventional(configs::conventional()).to_spec(),
                HierarchyKind::LNucaL3(configs::lnuca_hierarchy(3)).to_spec(),
            ]
        };
        let first_int = suites::spec_int_like()[0].name.clone();
        match self {
            Workload::UniWarm => {
                let mut specs = paper_kinds();
                specs.push(HierarchyKind::DNuca(configs::dnuca_hierarchy()).to_spec());
                specs.push(HierarchyKind::LNucaDNuca(configs::lnuca_dnuca_hierarchy(3)).to_spec());
                let first_fp = suites::spec_fp_like()[0].name.clone();
                document(
                    self.name(),
                    &specs,
                    &[first_int, first_fp],
                    WARM_INSTRUCTIONS,
                    seed,
                )
            }
            Workload::UniMiss => {
                // The single-core patterns; the suite's `sh.*` sharing
                // classes belong to cmp-sharing.
                let patterns: Vec<String> = suites::adversarial()
                    .into_iter()
                    .map(|p| p.name)
                    .filter(|n| n.starts_with("adv."))
                    .collect();
                document(
                    self.name(),
                    &paper_kinds(),
                    &patterns,
                    WARM_INSTRUCTIONS,
                    seed,
                )
            }
            Workload::CmpSharing => {
                let shape = scenario::builtin("cmp-sharing")
                    .expect("cmp-sharing is a built-in scenario")
                    .plan;
                let workloads: Vec<String> = crate::study::profiles(&shape)
                    .expect("cmp-sharing names its workloads")
                    .into_iter()
                    .map(|p| p.name)
                    .collect();
                document(
                    self.name(),
                    &shape.configs,
                    &workloads,
                    shape.options.instructions,
                    seed,
                )
            }
            Workload::ServeMixed => document(
                "serve-cold",
                &paper_kinds(),
                &[first_int],
                SERVE_INSTRUCTIONS,
                seed,
            ),
        }
    }
}

/// Renders an `lnuca-scenario/v1` document running `workloads` on `specs`
/// on one worker thread.
#[must_use]
pub fn document(
    name: &str,
    specs: &[HierarchySpec],
    workloads: &[String],
    instructions: u64,
    seed: u64,
) -> String {
    let string = |s: &str| Value::String(s.to_owned());
    let options = Value::Object(vec![
        ("instructions".to_owned(), Value::UInt(instructions)),
        ("seed".to_owned(), Value::UInt(seed)),
        ("benchmarks_per_suite".to_owned(), Value::Null),
        (
            "workloads".to_owned(),
            Value::Array(workloads.iter().map(|w| string(w)).collect()),
        ),
        ("threads".to_owned(), Value::UInt(1)),
        ("engine".to_owned(), string("event-horizon")),
        ("batch_size".to_owned(), Value::UInt(1)),
        ("cycle_budget".to_owned(), Value::Null),
        ("run_timeout_ms".to_owned(), Value::Null),
        ("livelock_window".to_owned(), Value::Null),
        ("retries".to_owned(), Value::UInt(1)),
    ]);
    Value::Object(vec![
        ("schema".to_owned(), string(SCENARIO_SCHEMA)),
        ("name".to_owned(), string(name)),
        ("description".to_owned(), string("lnuca-perfbench workload")),
        ("options".to_owned(), options),
        (
            "configs".to_owned(),
            Value::Array(specs.iter().map(spec_to_value).collect()),
        ),
    ])
    .to_pretty()
}

/// Parses a workload document into its plan.
///
/// # Errors
///
/// The scenario parser's diagnostic.
pub fn parse(text: &str) -> Result<ExperimentPlan, String> {
    Scenario::from_json(text)
        .map(|s| s.plan)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_document_parses_and_keeps_its_seed() {
        for workload in Workload::ALL {
            let plan = parse(&workload.document(42)).expect("benchmark documents are valid");
            assert_eq!(plan.options.seed, 42, "{}", workload.name());
            assert_eq!(plan.options.threads, 1);
            assert!(crate::study::study_instructions(&plan).expect("named workloads") > 0);
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }
}
