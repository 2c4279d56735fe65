//! The differential harness: run the detailed simulator with a recording
//! probe, replay the event stream through the reference model, and assert
//! that per-level hit/miss counts, final resident line sets and writeback
//! totals agree — for any hierarchy kind, workload, seed and engine.

use crate::hierarchy::RefHierarchy;
use crate::reference::RefBacking;
use crate::recorder::RecordingProbe;
use lnuca_cpu::DataMemory;
use lnuca_mem::{Line, ProbeEvent};
use lnuca_sim::configs::HierarchyKind;
use lnuca_sim::hierarchy::{AnyHierarchy, Backing, HierarchyStats};
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::{Engine, System};
use lnuca_types::Cycle;
use lnuca_workloads::{TraceGenerator, WorkloadProfile};
use std::fmt;

/// A divergence between the detailed simulator and the reference model (or
/// an invalid configuration).
#[derive(Debug)]
pub struct DifferentialError {
    /// Which run diverged.
    pub context: String,
    /// What diverged.
    pub details: Vec<String>,
}

impl fmt::Display for DifferentialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "differential oracle failed for {}", self.context)?;
        for d in &self.details {
            writeln!(f, "  - {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DifferentialError {}

/// Summary of one verified run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Hierarchy label (e.g. `LN3-144KB`).
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Seed of the synthetic trace.
    pub seed: u64,
    /// Instructions simulated.
    pub instructions: u64,
    /// Probe events replayed.
    pub events: usize,
    /// Demand accesses (hits + misses + merges).
    pub accesses: u64,
    /// Accesses merged into in-flight fetches.
    pub merged: u64,
    /// Block fetches that reached DRAM.
    pub memory_accesses: u64,
    /// Write-buffer drains.
    pub write_drains: u64,
}

/// Runs `profile` on `kind` with the given `engine`, records every
/// functional transition, replays the stream through the timing-free
/// reference model and cross-checks per-level counters, writeback totals
/// and final resident line sets.
///
/// # Errors
///
/// Returns a [`DifferentialError`] describing the first divergence (or an
/// invalid configuration).
pub fn run_differential(
    kind: &HierarchyKind,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    engine: Engine,
) -> Result<DifferentialReport, DifferentialError> {
    run_differential_spec(&kind.to_spec(), profile, instructions, seed, engine)
}

/// Spec-level form of [`run_differential`]: verifies **any** hierarchy a
/// [`HierarchySpec`] composes — fabric over bare memory, deep conventional
/// stacks, non-paper tile sizes — not just the four paper kinds.
///
/// # Errors
///
/// Returns a [`DifferentialError`] describing the first divergence (or an
/// invalid configuration).
pub fn run_differential_spec(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    engine: Engine,
) -> Result<DifferentialReport, DifferentialError> {
    run_differential_impl(spec, profile, instructions, seed, engine).map(|(report, _)| report)
}

/// The probed run as the engine comparison needs it: the
/// [`lnuca_sim::system::RunResult`] and the pre-quiescing prefix of the
/// event stream.
pub(crate) struct LiveRun {
    pub(crate) result: lnuca_sim::system::RunResult,
    pub(crate) live_events: Vec<ProbeEvent>,
}

pub(crate) fn run_differential_impl(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    engine: Engine,
) -> Result<(DifferentialReport, LiveRun), DifferentialError> {
    let context = format!(
        "{} / {} / seed {} / {} / {} instructions",
        spec.label(),
        profile.name,
        seed,
        engine.label(),
        instructions
    );
    let fail = |details: Vec<String>| DifferentialError {
        context: context.clone(),
        details,
    };

    let (result, mut hierarchy) = System::run_spec_probed(
        engine,
        spec,
        profile,
        instructions,
        seed,
        RecordingProbe::default(),
    )
    .map_err(|e| fail(vec![format!("configuration error: {e}")]))?;

    // Drive the hierarchy to quiescence so the run does not end with
    // searches queued at the injection port, arrivals/misses/spills sitting
    // in output queues or writes parked in the write buffer: with every
    // in-flight transaction resolved, all ledgers must close *exactly*.
    let live_event_count = hierarchy.probe().events.len();
    let final_stats = quiesce(&mut hierarchy, Cycle(result.cycles))
        .map_err(|e| fail(vec![e]))?;

    let events: &[ProbeEvent] = &hierarchy.probe().events;

    // 1. The probed access stream is exactly the trace's memory operations:
    //    same multiset of (address, is_write), one successful issue per
    //    committed memory instruction — ties the oracle back to the input
    //    trace independently of the core's issue order.
    let mut trace_ops: Vec<(u64, bool)> = TraceGenerator::new(profile.clone(), seed)
        .take(usize::try_from(instructions).unwrap_or(usize::MAX))
        .filter(|i| i.kind.is_memory())
        .map(|i| (i.addr.expect("memory ops carry addresses").0, i.kind.is_store()))
        .collect();
    let mut probed_ops: Vec<(u64, bool)> = events
        .iter()
        .filter_map(|e| match *e {
            ProbeEvent::Access { addr, is_write, .. } => Some((addr.0, is_write)),
            _ => None,
        })
        .collect();
    trace_ops.sort_unstable();
    probed_ops.sort_unstable();
    if trace_ops != probed_ops {
        return Err(fail(vec![format!(
            "probed access stream does not match the trace: {} trace memory ops, \
             {} probed accesses",
            trace_ops.len(),
            probed_ops.len()
        )]));
    }

    // 2. Replay the event stream through the reference model.
    let mut reference =
        RefHierarchy::from_spec(spec).map_err(|e| fail(vec![format!("reference build: {e}")]))?;
    for (index, &event) in events.iter().enumerate() {
        reference
            .apply(event)
            .map_err(|e| fail(vec![format!("event #{index} {event:?}: {e}")]))?;
    }

    // 3. Per-level hit/miss counters, writeback totals, memory traffic
    //    (against the post-quiescing snapshot, so in-flight truncation
    //    cannot mask a divergence).
    reference
        .check_stats(&final_stats)
        .map_err(|details| fail(details))?;

    // 4. Final resident line sets, level by level.
    check_residency(&reference, &hierarchy).map_err(|details| fail(details))?;

    let report = DifferentialReport {
        label: result.label.clone(),
        workload: result.workload.clone(),
        seed,
        instructions,
        events: events.len(),
        accesses: probed_ops.len() as u64,
        merged: reference.merged,
        memory_accesses: reference.memory_accesses,
        write_drains: reference.write_drains,
    };
    let live_events = hierarchy.probe().events[..live_event_count].to_vec();
    Ok((report, LiveRun { result, live_events }))
}

/// Runs the differential oracle under the event-horizon engine and
/// additionally asserts that the cycle-step engine produces the identical
/// event stream and results (the two engines must be functionally
/// indistinguishable, not just equal in final counters).
///
/// # Errors
///
/// Returns a [`DifferentialError`] on any divergence.
pub fn run_differential_both_engines(
    kind: &HierarchyKind,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> Result<DifferentialReport, DifferentialError> {
    run_differential_spec_both_engines(&kind.to_spec(), profile, instructions, seed)
}

/// Spec-level form of [`run_differential_both_engines`].
///
/// # Errors
///
/// Returns a [`DifferentialError`] on any divergence.
pub fn run_differential_spec_both_engines(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> Result<DifferentialReport, DifferentialError> {
    let (report, eh) =
        run_differential_impl(spec, profile, instructions, seed, Engine::EventHorizon)?;

    let context = format!(
        "{} / {} / seed {} / engine comparison",
        spec.label(),
        profile.name,
        seed
    );
    let fail = |details: Vec<String>| DifferentialError {
        context: context.clone(),
        details,
    };
    let (result_cs, h_cs) = System::run_spec_probed(
        Engine::CycleStep,
        spec,
        profile,
        instructions,
        seed,
        RecordingProbe::default(),
    )
    .map_err(|e| fail(vec![e.to_string()]))?;
    if eh.result != result_cs {
        return Err(fail(vec!["RunResult differs between the engines".to_owned()]));
    }
    let (a, b) = (&eh.live_events, &h_cs.probe().events);
    if a != b {
        let first = a
            .iter()
            .zip(b.iter())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        return Err(fail(vec![format!(
            "probe streams diverge at event #{first} ({} vs {} events)",
            a.len(),
            b.len()
        )]));
    }
    Ok(report)
}

/// Ticks the hierarchy along its own event horizons until it reports
/// quiescence, draining completions as they mature. Returns the final
/// statistics snapshot.
fn quiesce(
    hierarchy: &mut AnyHierarchy<RecordingProbe>,
    from: Cycle,
) -> Result<HierarchyStats, String> {
    let mut now = from;
    let mut scratch = Vec::new();
    // The run loop exits with its final clock value un-ticked; anything
    // scheduled for exactly that cycle (e.g. a search level lookup, which
    // fires only when `process_at == now`) must see its tick before the
    // horizon walk starts, or it strands forever.
    hierarchy.tick(now);
    hierarchy.drain_completions(now, &mut scratch);
    // Generous bound: any in-flight transaction resolves within a DRAM
    // round trip plus queue drains; hitting the cap means the hierarchy
    // never goes quiet, which is itself a bug worth failing on.
    let cap = Cycle(from.0 + 1_000_000);
    while let Some(next) = hierarchy.next_event(now) {
        if next > cap {
            return Err(format!(
                "hierarchy still busy {} cycles after the run ended",
                cap.0 - from.0
            ));
        }
        now = next;
        hierarchy.tick(now);
        scratch.clear();
        hierarchy.drain_completions(now, &mut scratch);
    }
    Ok(hierarchy.stats())
}

fn sorted_lines(lines: impl Iterator<Item = Line>) -> Vec<(u64, bool)> {
    let mut v: Vec<(u64, bool)> = lines.map(|l| (l.addr.0, l.dirty)).collect();
    v.sort_unstable();
    v
}

fn check_residency(
    reference: &RefHierarchy,
    hierarchy: &AnyHierarchy<RecordingProbe>,
) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    fn compare(
        errors: &mut Vec<String>,
        name: &str,
        detailed: Vec<(u64, bool)>,
        modelled: Vec<(u64, bool)>,
    ) {
        if detailed != modelled {
            let only_detailed: Vec<_> =
                detailed.iter().filter(|x| !modelled.contains(x)).take(4).collect();
            let only_model: Vec<_> =
                modelled.iter().filter(|x| !detailed.contains(x)).take(4).collect();
            errors.push(format!(
                "{name} residency differs: {} detailed vs {} reference lines; \
                 only-detailed (first 4): {only_detailed:x?}; \
                 only-reference (first 4): {only_model:x?}",
                detailed.len(),
                modelled.len()
            ));
        }
    }

    let (l1, outer) = match hierarchy {
        AnyHierarchy::Classic(h) => (h.l1(), h.outer()),
        AnyHierarchy::LNuca(h) => (h.l1(), h.outer()),
        AnyHierarchy::Cmp(_) => {
            // Multicore runs are checked by the coherence oracle
            // (`crate::coherence`), not the single-core residency model.
            return Err(vec![
                "residency checking does not apply to multicore hierarchies; \
                 use the coherence oracle instead"
                    .to_owned(),
            ]);
        }
    };
    compare(
        &mut errors,
        "L1",
        sorted_lines(l1.lines()),
        sorted_lines(reference.l1.lines()),
    );
    let detailed_intermediates: Vec<_> = outer.intermediate_caches().collect();
    if detailed_intermediates.len() != reference.outer.intermediates.len() {
        errors.push(format!(
            "intermediate chain length differs: {} detailed vs {} reference",
            detailed_intermediates.len(),
            reference.outer.intermediates.len()
        ));
    } else {
        for (i, (detailed, modelled)) in detailed_intermediates
            .iter()
            .zip(&reference.outer.intermediates)
            .enumerate()
        {
            compare(
                &mut errors,
                &format!("intermediate[{i}]"),
                sorted_lines(detailed.lines()),
                sorted_lines(modelled.lines()),
            );
        }
    }
    match (outer.backing(), &reference.outer.backing) {
        (Backing::Cache(l3), RefBacking::Cache(r3)) => {
            compare(&mut errors, "L3", sorted_lines(l3.lines()), sorted_lines(r3.lines()));
        }
        (Backing::Memory { .. }, RefBacking::Memory) => {}
        (Backing::DNuca(dnuca), RefBacking::DNuca(rd)) => {
            let mut detailed = dnuca.resident_lines();
            let mut modelled = rd.resident_lines();
            let key = |&(c, r, l): &(usize, usize, Line)| (c, r, l.addr.0, l.dirty);
            detailed.sort_by_key(key);
            modelled.sort_by_key(key);
            let detailed: Vec<_> = detailed.iter().map(key).collect();
            let modelled: Vec<_> = modelled.iter().map(key).collect();
            if detailed != modelled {
                errors.push(format!(
                    "D-NUCA bank residency differs: {} detailed vs {} reference lines",
                    detailed.len(),
                    modelled.len()
                ));
            }
        }
        _ => errors.push("backing shapes differ between detailed and reference".to_owned()),
    }
    if let AnyHierarchy::LNuca(h) = hierarchy {
        compare(
            &mut errors,
            "fabric custody",
            sorted_lines(h.fabric().resident_lines().into_iter()),
            reference.fabric_blocks(),
        );
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}
