//! The design-space autopilot: expand a sweep grid into many
//! [`HierarchySpec`]s, probe each cheaply, prune ε-dominated points, and
//! evaluate only the survivors with the experiment engine (DESIGN.md §16).
//!
//! A sweep runs in two fidelities:
//!
//! 1. **Probe** — every expanded spec simulates one short representative
//!    workload through [`System::run_spec`], yielding a cheap
//!    (IPC, energy, area) estimate per point.
//! 2. **Prune + evaluate** — points ε-dominated by another point (worse or
//!    equal on *all three* axes, and worse by more than `epsilon`
//!    relatively on at least one) are dropped without ever reaching the
//!    expensive stage; the survivors form an [`ExperimentPlan`] that
//!    [`Study::run`] evaluates with the full workload matrix.
//!
//! The outcome renders as a standard `lnuca-report/v1` document with a
//! `sweep` extension — evaluated/pruned counts, the ε used, and the Pareto
//! frontier — which `lnuca check-report` validates field-for-field
//! ([`crate::scenario::validate_report`]).

use crate::configs;
use crate::experiments::{ExperimentOptions, ExperimentPlan, Study};
use crate::spec::{BackingSpec, HierarchySpec};
use crate::system::System;
use lnuca_core::LNucaGeometry;
use lnuca_energy::AreaModel;
use lnuca_noc::RoutingPolicy;
use lnuca_types::ConfigError;
use lnuca_workloads::WorkloadProfile;
use serde::json::Value;
use serde::{Deserialize, Serialize};

/// What sits behind the fabric in a sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepBacking {
    /// The paper's 8 MB L3.
    PaperL3,
    /// Nothing on chip: fabric misses go straight to DRAM.
    Memory,
}

impl SweepBacking {
    fn short(self) -> &'static str {
        match self {
            SweepBacking::PaperL3 => "l3",
            SweepBacking::Memory => "mem",
        }
    }
}

/// The axes of a design-space sweep: the cross product of every listed
/// value is one candidate [`HierarchySpec`].
///
/// `#[non_exhaustive]` — start from [`SweepConfig::grid`] (the full
/// 160-point default) or [`SweepConfig::miniature`] (a 16-point grid for CI
/// and tests) and mutate fields.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Sweep (and report/plan) name.
    pub name: String,
    /// L-NUCA tile sizes in KB.
    pub tile_kb: Vec<u64>,
    /// Fabric level counts (2..=8).
    pub levels: Vec<u8>,
    /// Transport/Replacement routing policies.
    pub routings: Vec<RoutingPolicy>,
    /// Backing stores behind the fabric.
    pub backings: Vec<SweepBacking>,
    /// Multipliers on the paper DRAM `first_chunk_cycles` (1 = paper
    /// timing). A slow-memory variant of an otherwise identical point costs
    /// the same area and strictly more cycles and energy, so grids that
    /// include one always exercise the pruning stage.
    pub memory_scales: Vec<u64>,
    /// Core counts. `1` is the classic single-core hierarchy; larger
    /// values replicate the private front end (root + fabric) per core
    /// over the shared backing, with MSI coherence between them — so CMP
    /// points compete on the same Pareto frontier as single-core ones.
    pub cores: Vec<usize>,
    /// Relative ε of the dominance test (knob `LNUCA_SWEEP_EPSILON`).
    pub epsilon: f64,
    /// Instructions of the probe stage (knob `LNUCA_SWEEP_PROBE`).
    pub probe_instructions: u64,
    /// Options of the survivor evaluation stage (quick-mode instruction
    /// counts, workload selection).
    pub options: ExperimentOptions,
}

impl SweepConfig {
    /// The default full grid: 5 tile sizes × 4 level counts × 2 routings ×
    /// 2 backings × 2 memory timings × 3 core counts = 480 points.
    #[must_use]
    pub fn grid() -> Self {
        SweepConfig {
            name: "sweep".to_owned(),
            tile_kb: vec![2, 4, 8, 16, 32],
            levels: vec![2, 3, 4, 5],
            routings: vec![RoutingPolicy::RandomValid, RoutingPolicy::DimensionOrder],
            backings: vec![SweepBacking::PaperL3, SweepBacking::Memory],
            memory_scales: vec![1, 3],
            cores: vec![1, 2, 4],
            epsilon: 0.02,
            probe_instructions: 2_000,
            options: Self::survivor_options(4_000),
        }
    }

    /// A 32-point grid (2 tile sizes × 2 level counts × 1 routing ×
    /// 2 backings × 2 memory timings × 2 core counts) small enough for CI
    /// and unit tests.
    #[must_use]
    pub fn miniature() -> Self {
        SweepConfig {
            name: "sweep-mini".to_owned(),
            tile_kb: vec![4, 8],
            levels: vec![2, 3],
            routings: vec![RoutingPolicy::RandomValid],
            backings: vec![SweepBacking::PaperL3, SweepBacking::Memory],
            memory_scales: vec![1, 3],
            cores: vec![1, 2],
            epsilon: 0.02,
            probe_instructions: 1_000,
            options: Self::survivor_options(2_000),
        }
    }

    /// Quick-mode options for the survivor stage: one benchmark per suite.
    fn survivor_options(instructions: u64) -> ExperimentOptions {
        ExperimentOptions::builder()
            .instructions(instructions)
            .benchmarks_per_suite(Some(1))
            .build()
    }

    /// Number of points the grid expands to.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.tile_kb.len()
            * self.levels.len()
            * self.routings.len()
            * self.backings.len()
            * self.memory_scales.len()
            * self.cores.len()
    }

    /// Expands the grid into validated specs, each with an explicit,
    /// collision-free label encoding its coordinates (derived labels would
    /// collide for points differing only in routing or memory timing).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if an axis value yields an invalid
    /// component (level count out of range, tile size not a power of two,
    /// a zero memory scale).
    pub fn expand(&self) -> Result<Vec<HierarchySpec>, ConfigError> {
        let mut specs = Vec::with_capacity(self.point_count());
        for &levels in &self.levels {
            for &tile_kb in &self.tile_kb {
                for &routing in &self.routings {
                    for &backing in &self.backings {
                        for &scale in &self.memory_scales {
                            for &cores in &self.cores {
                                if scale == 0 {
                                    return Err(ConfigError::new(
                                        "memory_scales",
                                        "memory timing multipliers must be nonzero",
                                    ));
                                }
                                let mut fabric = lnuca_core::LNucaConfig::paper(levels)?;
                                fabric.tile_size_bytes = tile_kb * 1024;
                                fabric.routing = routing;
                                let routing_short = match routing {
                                    RoutingPolicy::RandomValid => "rnd",
                                    RoutingPolicy::DimensionOrder => "dim",
                                };
                                // Override labels skip the automatic CMP
                                // `{N}x ` prefix, so the core count is
                                // encoded here; single-core labels keep
                                // their historical form.
                                let cmp = if cores > 1 { format!("{cores}x-") } else { String::new() };
                                let label = format!(
                                    "{cmp}LN{levels}-t{tile_kb}k-{routing_short}-{}-m{scale}",
                                    backing.short()
                                );
                                let mut memory = configs::paper_memory();
                                memory.first_chunk_cycles *= scale;
                                let mut builder = HierarchySpec::builder()
                                    .label(label)
                                    .fabric(fabric)
                                    .memory(memory)
                                    .cores(cores);
                                builder = match backing {
                                    SweepBacking::PaperL3 => builder.backing_cache(configs::paper_l3()),
                                    SweepBacking::Memory => builder.backing(BackingSpec::Memory),
                                };
                                specs.push(builder.build()?);
                            }
                        }
                    }
                }
            }
        }
        Ok(specs)
    }

    /// Runs the sweep: expand → probe → prune → evaluate survivors.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the grid expands to an invalid spec or
    /// a simulation rejects its configuration. Individual survivor runs
    /// that fail at simulation time are reported through
    /// [`Study::failures`], like any experiment.
    pub fn run(&self) -> Result<SweepOutcome, ConfigError> {
        let specs = self.expand()?;
        let model = AreaModel::paper();
        let probe_profile = probe_profile();
        let mut probes = Vec::with_capacity(specs.len());
        for spec in &specs {
            let result = System::run_spec(spec, &probe_profile, self.probe_instructions, 1)?;
            probes.push(ProbePoint {
                label: spec.label(),
                ipc: result.ipc,
                energy_pj: result.energy.total_pj(),
                area_mm2: spec_area_mm2(spec, &model),
            });
        }
        let dominated = dominated_mask(&probes, self.epsilon);
        let survivors: Vec<HierarchySpec> = specs
            .into_iter()
            .zip(&dominated)
            .filter_map(|(spec, &dead)| (!dead).then_some(spec))
            .collect();
        let pruned = dominated.iter().filter(|&&d| d).count();
        let plan = ExperimentPlan::builder(self.name.clone())
            .configs(survivors)
            .options(self.options.clone())
            .build()?;
        let study = Study::run(&plan)?;
        let frontier = frontier_points(&plan, &study, &probes, self.epsilon);
        Ok(SweepOutcome {
            config: self.clone(),
            probes,
            pruned,
            plan,
            study,
            frontier,
        })
    }
}

/// The probe stage's representative workload: the balanced default profile
/// (its warm region is the capacity band the tile-size axis moves through).
fn probe_profile() -> WorkloadProfile {
    let mut profile = WorkloadProfile::default();
    profile.name = "sweep.probe".to_owned();
    profile
}

/// The cheap (IPC, energy, area) estimate of one grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbePoint {
    /// Spec label of the point.
    pub label: String,
    /// Probe-run IPC (higher is better).
    pub ipc: f64,
    /// Probe-run total energy in pJ (lower is better).
    pub energy_pj: f64,
    /// Modelled on-chip cache area in mm² (lower is better).
    pub area_mm2: f64,
}

/// Whether `a` ε-dominates `b`: no worse on every axis, and relatively
/// better by more than `epsilon` on at least one — so near-ties (within the
/// probe stage's noise floor) never prune each other.
#[must_use]
pub fn dominates(a: &ProbePoint, b: &ProbePoint, epsilon: f64) -> bool {
    a.ipc >= b.ipc
        && a.energy_pj <= b.energy_pj
        && a.area_mm2 <= b.area_mm2
        && (a.ipc > b.ipc * (1.0 + epsilon)
            || a.energy_pj < b.energy_pj * (1.0 - epsilon)
            || a.area_mm2 < b.area_mm2 * (1.0 - epsilon))
}

/// Marks every point that some other point ε-dominates.
fn dominated_mask(points: &[ProbePoint], epsilon: f64) -> Vec<bool> {
    points
        .iter()
        .map(|p| points.iter().any(|q| dominates(q, p, epsilon)))
        .collect()
}

/// One surviving point of the final Pareto frontier, carrying the
/// full-fidelity metrics of the survivor evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Spec label of the point.
    pub label: String,
    /// Harmonic-mean IPC over the survivor stage's workloads.
    pub ipc: f64,
    /// Mean total energy per workload in pJ.
    pub energy_pj: f64,
    /// Modelled on-chip cache area in mm² (from the probe stage — area is
    /// workload-independent).
    pub area_mm2: f64,
}

/// Aggregates the survivor study per configuration and keeps the points no
/// other survivor ε-dominates — the Pareto frontier of the sweep.
fn frontier_points(
    plan: &ExperimentPlan,
    study: &Study,
    probes: &[ProbePoint],
    epsilon: f64,
) -> Vec<FrontierPoint> {
    let mut aggregated = Vec::new();
    for label in &study.configs {
        let runs: Vec<_> = study.results.iter().filter(|r| &r.label == label).collect();
        if runs.is_empty() {
            continue; // every run of this survivor failed
        }
        let inv_sum: f64 = runs.iter().map(|r| 1.0 / r.ipc).sum();
        let ipc = runs.len() as f64 / inv_sum;
        let energy_pj =
            runs.iter().map(|r| r.energy.total_pj()).sum::<f64>() / runs.len() as f64;
        let area_mm2 = probes
            .iter()
            .find(|p| &p.label == label)
            .map_or(0.0, |p| p.area_mm2);
        aggregated.push(ProbePoint {
            label: label.clone(),
            ipc,
            energy_pj,
            area_mm2,
        });
    }
    debug_assert_eq!(study.configs.len(), plan.configs.len());
    let dominated = dominated_mask(&aggregated, epsilon);
    aggregated
        .into_iter()
        .zip(dominated)
        .filter_map(|(p, dead)| {
            (!dead).then_some(FrontierPoint {
                label: p.label,
                ipc: p.ipc,
                energy_pj: p.energy_pj,
                area_mm2: p.area_mm2,
            })
        })
        .collect()
}

/// Modelled on-chip cache area of a spec: the (2-ported) root, the fabric's
/// tiles and networks, every intermediate level, and the backing store.
#[must_use]
pub fn spec_area_mm2(spec: &HierarchySpec, model: &AreaModel) -> f64 {
    let mut area = match &spec.fabric {
        Some(fabric) => {
            let tiles = LNucaGeometry::new(fabric.levels)
                .map(|g| g.tile_count())
                .unwrap_or(0);
            model.lnuca_mm2(spec.root.size_bytes, tiles, fabric.tile_size_bytes)
        }
        None => model.l1_mm2(spec.root.size_bytes),
    };
    // Each core replicates the private front end (root + fabric); the
    // intermediate levels and backing store are shared.
    area *= spec.cores as f64;
    for level in &spec.intermediate {
        area += model.sram_mm2(level.cache.size_bytes);
    }
    match &spec.backing {
        BackingSpec::Cache(cache) => area += model.l3_mm2(cache.size_bytes),
        BackingSpec::DNuca(dnuca) => {
            area += model.dnuca_mm2(dnuca.rows * dnuca.cols, dnuca.bank_size_bytes);
        }
        BackingSpec::Memory => {}
    }
    area
}

/// Everything a sweep produced: the probe estimates, the pruning outcome,
/// and the survivor study.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The configuration that ran.
    pub config: SweepConfig,
    /// Probe estimates of every expanded point, in grid order.
    pub probes: Vec<ProbePoint>,
    /// Points the probe stage pruned as ε-dominated.
    pub pruned: usize,
    /// The survivor plan (what the expensive stage actually ran).
    pub plan: ExperimentPlan,
    /// Full-fidelity results of the survivors.
    pub study: Study,
    /// The Pareto frontier over the survivors' final metrics.
    pub frontier: Vec<FrontierPoint>,
}

impl SweepOutcome {
    /// Points the grid expanded to.
    #[must_use]
    pub fn evaluated(&self) -> usize {
        self.probes.len()
    }

    /// Points that survived pruning.
    #[must_use]
    pub fn survivors(&self) -> usize {
        self.evaluated() - self.pruned
    }

    /// Renders the sweep as an `lnuca-report/v1` document: the standard
    /// report of the survivor study ([`crate::scenario::report_value`])
    /// plus the `sweep` extension object `check-report` validates.
    #[must_use]
    pub fn report_value(&self) -> Value {
        let mut report = crate::scenario::report_value(&self.plan, &self.study);
        let frontier: Vec<Value> = self
            .frontier
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("label".to_owned(), Value::String(p.label.clone())),
                    ("ipc".to_owned(), Value::Float(p.ipc)),
                    ("energy_pj".to_owned(), Value::Float(p.energy_pj)),
                    ("area_mm2".to_owned(), Value::Float(p.area_mm2)),
                ])
            })
            .collect();
        let sweep = Value::Object(vec![
            ("evaluated".to_owned(), Value::UInt(self.evaluated() as u64)),
            ("pruned".to_owned(), Value::UInt(self.pruned as u64)),
            ("survivors".to_owned(), Value::UInt(self.survivors() as u64)),
            ("epsilon".to_owned(), Value::Float(self.config.epsilon)),
            (
                "probe_instructions".to_owned(),
                Value::UInt(self.config.probe_instructions),
            ),
            (
                "cores".to_owned(),
                Value::Array(
                    self.config.cores.iter().map(|&c| Value::UInt(c as u64)).collect(),
                ),
            ),
            ("frontier".to_owned(), Value::Array(frontier)),
        ]);
        if let Value::Object(fields) = &mut report {
            fields.push(("sweep".to_owned(), sweep));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_grid_meets_the_hundred_point_floor() {
        let grid = SweepConfig::grid();
        assert!(grid.point_count() >= 100, "grid has {} points", grid.point_count());
        let specs = grid.expand().expect("the default grid expands");
        assert_eq!(specs.len(), grid.point_count());
        // Labels are collision-free by construction.
        let labels: std::collections::HashSet<String> =
            specs.iter().map(HierarchySpec::label).collect();
        assert_eq!(labels.len(), specs.len());
    }

    #[test]
    fn dominance_requires_a_clear_margin() {
        let a = ProbePoint { label: "a".into(), ipc: 1.0, energy_pj: 100.0, area_mm2: 1.0 };
        let near = ProbePoint { label: "b".into(), ipc: 0.99, energy_pj: 100.5, area_mm2: 1.0 };
        let worse = ProbePoint { label: "c".into(), ipc: 0.8, energy_pj: 130.0, area_mm2: 1.0 };
        let tradeoff = ProbePoint { label: "d".into(), ipc: 1.3, energy_pj: 90.0, area_mm2: 2.0 };
        assert!(dominates(&a, &worse, 0.02));
        assert!(!dominates(&a, &near, 0.02), "near-ties are kept");
        assert!(!dominates(&a, &tradeoff, 0.02) && !dominates(&tradeoff, &a, 0.02));
    }

    #[test]
    fn slow_memory_points_are_always_dominated() {
        // Same shape at paper vs 3x DRAM latency: equal area, worse IPC and
        // energy — the guaranteed-prunable axis of the default grids.
        let fast = ProbePoint { label: "m1".into(), ipc: 0.9, energy_pj: 100.0, area_mm2: 1.5 };
        let slow = ProbePoint { label: "m3".into(), ipc: 0.5, energy_pj: 140.0, area_mm2: 1.5 };
        assert!(dominates(&fast, &slow, 0.02));
        let mask = dominated_mask(&[fast, slow], 0.02);
        assert_eq!(mask, vec![false, true]);
    }

    #[test]
    fn a_miniature_sweep_prunes_and_reports_cleanly() {
        let mut config = SweepConfig::miniature();
        config.options.instructions = 1_000;
        let outcome = config.run().expect("the miniature sweep runs");
        assert_eq!(outcome.evaluated(), config.point_count());
        assert!(outcome.pruned > 0, "the slow-DRAM axis guarantees dominated points");
        assert!(outcome.survivors() >= 1, "something must survive to evaluate");
        assert!(outcome.study.failures.is_empty(), "{:?}", outcome.study.failures);
        assert!(!outcome.frontier.is_empty(), "the frontier is never empty");
        crate::scenario::validate_report(&outcome.report_value())
            .expect("the extended report is check-report clean");
    }

    #[test]
    fn the_cores_axis_expands_to_cmp_points_and_is_recorded() {
        let grid = SweepConfig::grid();
        assert_eq!(grid.cores, vec![1, 2, 4]);
        let mut mini = SweepConfig::miniature();
        mini.cores = vec![1, 4];
        let specs = mini.expand().expect("the CMP grid expands");
        assert_eq!(specs.len(), mini.point_count());
        let cmp: Vec<_> = specs.iter().filter(|s| s.cores > 1).collect();
        assert_eq!(cmp.len(), specs.len() / 2, "half the points are 4-core");
        assert!(cmp.iter().all(|s| s.label().starts_with("4x-")), "CMP labels encode the core count");
        // Replicated private front ends cost area: with no shared backing
        // the 4-core twin of a point is exactly four front ends.
        let solo = specs.iter().find(|s| s.cores == 1 && s.label().contains("-mem-")).unwrap();
        let quad = specs
            .iter()
            .find(|s| s.cores == 4 && s.label().ends_with(solo.label().as_str()))
            .unwrap();
        let model = AreaModel::paper();
        let (a_solo, a_quad) = (spec_area_mm2(solo, &model), spec_area_mm2(quad, &model));
        assert!((a_quad - 4.0 * a_solo).abs() < 1e-9, "quad {a_quad} vs solo {a_solo}");
    }

    #[test]
    fn area_model_covers_every_backing() {
        let model = AreaModel::paper();
        let ln3_l3 = HierarchySpec::builder()
            .fabric(lnuca_core::LNucaConfig::paper(3).unwrap())
            .backing_cache(configs::paper_l3())
            .build()
            .unwrap();
        let ln3_mem = HierarchySpec::builder()
            .fabric(lnuca_core::LNucaConfig::paper(3).unwrap())
            .build()
            .unwrap();
        let conventional =
            crate::configs::HierarchyKind::Conventional(configs::conventional()).to_spec();
        let a_l3 = spec_area_mm2(&ln3_l3, &model);
        let a_mem = spec_area_mm2(&ln3_mem, &model);
        let a_conv = spec_area_mm2(&conventional, &model);
        assert!(a_l3 > a_mem, "the L3 adds area");
        assert!(a_conv > 0.9, "conventional = L1 + L2 + L3");
        // The fabric-only front end matches the calibrated Table II model.
        let expected = model.lnuca_mm2(32 * 1024, 14, 8 * 1024);
        assert!((a_mem - expected).abs() < 1e-9);
    }
}
