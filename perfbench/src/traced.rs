//! Traced replicas of the simulator's run loops and the isolated-layer
//! drives.
//!
//! Every span is taken here, around calls into the layers' public
//! functions; nothing inside the simulator is instrumented. The single-core
//! and CMP loops below step exactly like `System::run_spec` and
//! `lnuca_sim::cmp::run_cmp_guarded` with the event-horizon engine and no
//! guard, so their `RunResult`s must equal the untraced ones bit for bit;
//! the caller checks that. Spans are aggregated per layer-call class: one
//! span per simulated cycle would cost more than the cycle itself.

use lnuca_coherence::{Directory, DirectoryConfig, MsiState};
use lnuca_core::{LNuca, LNucaConfig, LNucaStats};
use lnuca_cpu::{CoreConfig, CoreStats, DataMemory, FixedLatencyMemory, OooCore};
use lnuca_mem::{AccessClass, ProbeEvent, ProbeSink};
use lnuca_sim::cmp::CmpMachine;
use lnuca_sim::energy_model;
use lnuca_sim::hierarchy::AnyHierarchy;
use lnuca_sim::spec::HierarchySpec;
use lnuca_sim::system::{Engine, RunResult, System};
use lnuca_sim::CoherenceStats;
use lnuca_types::{Addr, ConfigError, Cycle, MemRequest, MemResponse, ReqId};
use lnuca_workloads::{Instr, TraceGenerator, WorkloadProfile};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Count and accumulated host time of one layer-call class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Calls.
    pub count: u64,
    /// Host nanoseconds inside them.
    pub ns: u64,
}

impl Span {
    fn add(&mut self, elapsed: Duration) {
        self.count += 1;
        self.ns += nanos(elapsed);
    }

    fn merge(&mut self, other: Span) {
        self.count += other.count;
        self.ns += other.ns;
    }
}

/// Whole nanoseconds of `d`, saturating.
#[must_use]
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The run loop's cycle cap, as `System::run_spec` computes it.
fn cycle_cap(instructions: u64) -> u64 {
    instructions.saturating_mul(400) + 1_000_000
}

/// The event-horizon step from `now`, given the merged component horizon.
fn horizon_step(now: Cycle, horizon: Option<Cycle>, cap: u64) -> Cycle {
    horizon
        .unwrap_or(Cycle(cap))
        .max(now.next())
        .min(Cycle(cap).max(now.next()))
}

fn merge(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Where in one iteration of [`run_core`] its hook is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Point {
    /// Before the memory ticks.
    Start,
    /// After `DataMemory::tick`, before `OooCore::tick`.
    MemoryTicked,
    /// After `OooCore::tick`, before the horizon step.
    CoreTicked,
    /// After the step to the next cycle.
    Stepped,
}

/// The single-core event-horizon loop of `System::run_spec`: tick the
/// memory, tick the core against it, step to the merged horizon. `hook`
/// sees the memory at each [`Point`] of every iteration; an error from it
/// ends the loop. Returns the final cycle and the iterations run.
fn run_core<T, M, H>(
    core: &mut OooCore<T>,
    memory: &mut M,
    instructions: u64,
    mut hook: H,
) -> Result<(Cycle, u64), String>
where
    T: Iterator<Item = Instr>,
    M: DataMemory,
    H: FnMut(Point, &M, Cycle) -> Result<(), String>,
{
    let cap = cycle_cap(instructions);
    let mut now = Cycle(0);
    let mut iters = 0;
    while !core.is_finished() && now.0 < cap {
        iters += 1;
        hook(Point::Start, memory, now)?;
        memory.tick(now);
        hook(Point::MemoryTicked, memory, now)?;
        core.tick(now, memory);
        hook(Point::CoreTicked, memory, now)?;
        let at = now;
        now = if core.is_finished() {
            now.next()
        } else {
            horizon_step(
                now,
                merge(memory.next_event(now), core.next_event(now)),
                cap,
            )
        };
        hook(Point::Stepped, memory, at)?;
    }
    Ok((now, iters))
}

/// Closes the core's stall windows and assembles the single-core
/// `RunResult` exactly as `System::run_spec` does after its loop.
fn solo_result<T: Iterator<Item = Instr>, P: ProbeSink>(
    core: &mut OooCore<T>,
    hierarchy: &AnyHierarchy<P>,
    profile: &WorkloadProfile,
    now: Cycle,
) -> RunResult {
    core.finalize_stats(now);
    let stats = hierarchy.stats();
    let energy = energy_model::account_for(&stats, now.0);
    RunResult {
        label: stats.label.clone(),
        workload: profile.name.clone(),
        suite: profile.suite,
        instructions: core.committed(),
        cycles: now.0,
        ipc: core.stats().ipc(now),
        core: *core.stats(),
        hierarchy: stats,
        energy,
        per_core: Vec::new(),
        coherence: None,
    }
}

/// Spans of the calls the core makes while it ticks.
#[derive(Debug, Default)]
struct CoreCalls {
    trace: Cell<Span>,
    issue: Cell<Span>,
    rejects: Cell<u64>,
    drain: Cell<Span>,
}

fn add_to(cell: &Cell<Span>, elapsed: Duration) {
    let mut span = cell.get();
    span.add(elapsed);
    cell.set(span);
}

/// A trace that times every `next` (instruction generation).
struct TimedTrace<I> {
    inner: I,
    calls: Rc<CoreCalls>,
}

impl<I: Iterator<Item = Instr>> Iterator for TimedTrace<I> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let start = Instant::now();
        let instr = self.inner.next();
        add_to(&self.calls.trace, start.elapsed());
        instr
    }
}

/// The hierarchy as the core sees it, timing the request port.
struct TimedPort<'a, M> {
    inner: &'a mut M,
    calls: &'a CoreCalls,
}

impl<M: DataMemory> DataMemory for TimedPort<'_, M> {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        let start = Instant::now();
        let accepted = self.inner.issue(req, now);
        add_to(&self.calls.issue, start.elapsed());
        if !accepted {
            self.calls.rejects.set(self.calls.rejects.get() + 1);
        }
        accepted
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let start = Instant::now();
        self.inner.drain_completions(now, out);
        add_to(&self.calls.drain, start.elapsed());
    }

    fn tick(&mut self, now: Cycle) {
        self.inner.tick(now);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event(now)
    }
}

/// Aggregated spans of traced run loops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopTrace {
    /// One span per traced run: its whole wall time.
    pub run: Span,
    /// Hierarchy or machine construction.
    pub build: Span,
    /// Result assembly after the loop.
    pub finish: Span,
    /// Loop iterations (simulated cycles the engine visited).
    pub iters: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions committed.
    pub instructions: u64,
    /// Wall time of the loops as a whole.
    pub loop_ns: u64,
    /// `DataMemory::tick` of a single-core hierarchy.
    pub hierarchy_tick: Span,
    /// `OooCore::tick`, including the calls below.
    pub core_tick: Span,
    /// `TraceGenerator::next`, inside `OooCore::tick`.
    pub trace: Span,
    /// `DataMemory::issue`, inside `OooCore::tick`.
    pub issue: Span,
    /// Issues the hierarchy refused (the core retries them).
    pub rejects: u64,
    /// `DataMemory::drain_completions`, inside `OooCore::tick`.
    pub drain: Span,
    /// `CmpMachine::tick` (memory side and every core).
    pub cmp_tick: Span,
    /// The engine's horizon queries (`next_event` of hierarchy and core, or
    /// of the CMP machine).
    pub next_event: Span,
}

impl LoopTrace {
    /// Adds `other`'s spans and counts to these.
    pub fn merge(&mut self, other: &LoopTrace) {
        self.run.merge(other.run);
        self.build.merge(other.build);
        self.finish.merge(other.finish);
        self.iters += other.iters;
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.loop_ns += other.loop_ns;
        self.hierarchy_tick.merge(other.hierarchy_tick);
        self.core_tick.merge(other.core_tick);
        self.trace.merge(other.trace);
        self.issue.merge(other.issue);
        self.rejects += other.rejects;
        self.drain.merge(other.drain);
        self.cmp_tick.merge(other.cmp_tick);
        self.next_event.merge(other.next_event);
    }

    /// Core self time: `OooCore::tick` minus the trace pulls and memory
    /// calls made inside it.
    #[must_use]
    pub fn core_self_ns(&self) -> u64 {
        self.core_tick
            .ns
            .saturating_sub(self.trace.ns + self.issue.ns + self.drain.ns)
    }

    /// Loop self time: loop wall minus every call it makes. It includes
    /// the timer reads themselves.
    #[must_use]
    pub fn loop_self_ns(&self) -> u64 {
        self.loop_ns.saturating_sub(
            self.hierarchy_tick.ns + self.core_tick.ns + self.cmp_tick.ns + self.next_event.ns,
        )
    }

    /// Self time of every layer span: generation, core, hierarchy tick and
    /// port, CMP tick, horizon queries, construction and result assembly.
    /// The loop's own self time is not a layer and is left out.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.trace.ns
            + self.core_self_ns()
            + self.issue.ns
            + self.drain.ns
            + self.hierarchy_tick.ns
            + self.cmp_tick.ns
            + self.next_event.ns
            + self.build.ns
            + self.finish.ns
    }
}

/// Runs one single-core simulation exactly as `System::run_spec` does,
/// timing every layer call into `trace`.
///
/// # Errors
///
/// An invalid spec or core configuration.
pub fn solo(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    trace: &mut LoopTrace,
) -> Result<RunResult, ConfigError> {
    let run_start = Instant::now();
    let mut hierarchy = System::build_spec(spec)?;
    let calls = Rc::new(CoreCalls::default());
    let generator = TimedTrace {
        inner: TraceGenerator::new(profile.clone(), seed)
            .take(usize::try_from(instructions).unwrap_or(usize::MAX)),
        calls: Rc::clone(&calls),
    };
    let mut core = OooCore::new(CoreConfig::paper(), generator)?;
    trace.build.add(run_start.elapsed());

    let mut port = TimedPort {
        inner: &mut hierarchy,
        calls: &calls,
    };
    let mut mark = Instant::now();
    let loop_start = mark;
    let (now, iters) = run_core(&mut core, &mut port, instructions, |point, _, _| {
        let at = Instant::now();
        match point {
            Point::Start => {}
            Point::MemoryTicked => trace.hierarchy_tick.add(at - mark),
            Point::CoreTicked => trace.core_tick.add(at - mark),
            Point::Stepped => trace.next_event.add(at - mark),
        }
        mark = at;
        Ok(())
    })
    .expect("the timing hook never fails");
    trace.loop_ns += nanos(loop_start.elapsed());

    let finish_start = Instant::now();
    let result = solo_result(&mut core, &hierarchy, profile, now);
    trace.finish.add(finish_start.elapsed());
    trace.trace.merge(calls.trace.get());
    trace.issue.merge(calls.issue.get());
    trace.drain.merge(calls.drain.get());
    trace.rejects += calls.rejects.get();
    trace.iters += iters;
    trace.cycles += now.0;
    trace.instructions += result.instructions;
    trace.run.add(run_start.elapsed());
    Ok(result)
}

/// Runs one CMP simulation exactly as `run_cmp_guarded` does with the
/// event-horizon engine, timing `CmpMachine::tick` and `next_event`.
///
/// # Errors
///
/// An invalid spec or core configuration.
pub fn cmp(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
    trace: &mut LoopTrace,
) -> Result<RunResult, ConfigError> {
    let run_start = Instant::now();
    let mut machine = CmpMachine::from_spec(spec, profile, instructions, seed, lnuca_mem::NoProbe)?;
    trace.build.add(run_start.elapsed());

    let cap = cycle_cap(instructions);
    let mut now = Cycle(0);
    let mut iters = 0;
    let loop_start = Instant::now();
    while !machine.is_finished() && now.0 < cap {
        iters += 1;
        let a = Instant::now();
        machine.tick(now);
        let b = Instant::now();
        now = if machine.is_finished() {
            now.next()
        } else {
            horizon_step(now, machine.next_event(now), cap)
        };
        let c = Instant::now();
        trace.cmp_tick.add(b - a);
        trace.next_event.add(c - b);
    }
    trace.loop_ns += nanos(loop_start.elapsed());

    let finish_start = Instant::now();
    machine.finalize(now);
    let result = machine.result(now);
    trace.finish.add(finish_start.elapsed());
    trace.iters += iters;
    trace.cycles += now.0;
    trace.instructions += result.instructions;
    trace.run.add(run_start.elapsed());
    Ok(result)
}

/// One run of the core against a fixed-latency memory: the core's speed
/// with every hierarchy cost removed.
#[derive(Debug, Clone)]
pub struct IdealCore {
    /// The core's counters.
    pub stats: CoreStats,
    /// Requests the memory accepted.
    pub accepted: u64,
    /// Host time of the run loop.
    pub wall: Duration,
}

/// Drives the core over `profile`'s trace against a `FixedLatencyMemory`
/// with the paper L1's hit latency.
///
/// # Errors
///
/// An invalid core configuration.
pub fn ideal_core(
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> Result<IdealCore, ConfigError> {
    let mut memory = FixedLatencyMemory::new(lnuca_sim::configs::paper_l1().completion_cycles);
    let generator = TraceGenerator::new(profile.clone(), seed)
        .take(usize::try_from(instructions).unwrap_or(usize::MAX));
    let mut core = OooCore::new(CoreConfig::paper(), generator)?;
    let start = Instant::now();
    let (now, _) = run_core(&mut core, &mut memory, instructions, |_, _, _| Ok(()))
        .expect("a hook that never fails");
    let wall = start.elapsed();
    core.finalize_stats(now);
    Ok(IdealCore {
        stats: *core.stats(),
        accepted: memory.accepted(),
        wall,
    })
}

/// A probe sink that keeps every event, shared with the recording loop.
#[derive(Debug, Clone, Default)]
struct Recorder(Rc<RefCell<Vec<ProbeEvent>>>);

impl ProbeSink for Recorder {
    fn record(&mut self, event: ProbeEvent) {
        self.0.borrow_mut().push(event);
    }
}

/// What the root tile handed the fabric in one cycle.
#[derive(Debug, Clone, PartialEq)]
struct FabricStep {
    at: Cycle,
    victims: Vec<(Addr, bool)>,
    search: Option<(Addr, bool)>,
}

/// The root-miss and victim stream one LN run fed its fabric, with the
/// cycle each input entered, and the fabric counters the run ended with.
#[derive(Debug, Clone)]
pub struct FabricStream {
    config: LNucaConfig,
    steps: Vec<FabricStep>,
    last_cycle: Cycle,
    /// The recording run's result.
    pub result: RunResult,
}

impl FabricStream {
    /// Searches the stream injects.
    #[must_use]
    pub fn searches(&self) -> u64 {
        self.steps.iter().filter(|s| s.search.is_some()).count() as u64
    }

    /// The fabric counters of the recording run.
    #[must_use]
    pub fn expected(&self) -> Option<&LNucaStats> {
        self.result.hierarchy.lnuca.as_ref()
    }
}

/// Records the fabric input stream of one single-core run of a fabric
/// spec. Root misses come from the hierarchy's probe (`MissLaunched`);
/// the cycle each search entered the fabric is when the fabric's search
/// counter moved; victims come from the probe's `RootVictim` events,
/// which only fire inside `DataMemory::tick`.
///
/// # Errors
///
/// An invalid spec, a spec without a fabric, or a probe stream that breaks
/// the ordering above.
pub fn record_fabric(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> Result<FabricStream, String> {
    let config = spec
        .fabric
        .clone()
        .ok_or("the fabric drive needs a fabric spec")?;
    let recorder = Recorder::default();
    let events = Rc::clone(&recorder.0);
    let mut hierarchy = System::build_spec_probed(spec, recorder).map_err(|e| e.to_string())?;
    let searches_so_far = |h: &AnyHierarchy<Recorder>| match h {
        AnyHierarchy::LNuca(h) => h.fabric().stats().searches,
        _ => 0,
    };
    let generator = TraceGenerator::new(profile.clone(), seed)
        .take(usize::try_from(instructions).unwrap_or(usize::MAX));
    let mut core = OooCore::new(CoreConfig::paper(), generator).map_err(|e| e.to_string())?;
    let mut pending: VecDeque<(Addr, bool)> = VecDeque::new();
    let mut steps = Vec::new();
    let mut searches = 0;
    let mut last_cycle = Cycle(0);
    let (now, _) = run_core(&mut core, &mut hierarchy, instructions, |point, h, now| {
        match point {
            Point::Start => last_cycle = now,
            Point::MemoryTicked => {
                let victims: Vec<(Addr, bool)> = events
                    .borrow_mut()
                    .drain(..)
                    .filter_map(|e| match e {
                        ProbeEvent::RootVictim { addr, dirty } => Some((addr, dirty)),
                        _ => None,
                    })
                    .collect();
                let injected = searches_so_far(h) - searches;
                searches += injected;
                let search = match injected {
                    0 => None,
                    1 => Some(
                        pending
                            .pop_front()
                            .ok_or("a search entered without a root miss")?,
                    ),
                    n => return Err(format!("{n} searches entered the fabric in one cycle")),
                };
                if !victims.is_empty() || search.is_some() {
                    steps.push(FabricStep {
                        at: now,
                        victims,
                        search,
                    });
                }
            }
            Point::CoreTicked => {
                for event in events.borrow_mut().drain(..) {
                    match event {
                        ProbeEvent::Access {
                            addr,
                            is_write,
                            class: AccessClass::MissLaunched,
                        } => pending.push_back((addr, is_write)),
                        ProbeEvent::RootVictim { .. } => {
                            return Err(
                                "a root victim left the root outside DataMemory::tick".into()
                            )
                        }
                        _ => {}
                    }
                }
            }
            Point::Stepped => {}
        }
        Ok(())
    })?;
    let result = solo_result(&mut core, &hierarchy, profile, now);
    Ok(FabricStream {
        config,
        steps,
        last_cycle,
        result,
    })
}

/// Replays `stream` through a bare `LNuca`: each input enters at its
/// recorded cycle, and between inputs the fabric is ticked at its own
/// event horizon, up to the run's last cycle. Returns the fabric's final
/// counters and the host time of the replay.
///
/// # Errors
///
/// An invalid fabric configuration, or a search the fabric refused.
pub fn replay_fabric(stream: &FabricStream) -> Result<(LNucaStats, Duration), String> {
    let mut fabric = LNuca::new(stream.config.clone()).map_err(|e| e.to_string())?;
    let mut arrivals = Vec::new();
    let mut misses = Vec::new();
    let mut spills = Vec::new();
    let mut step = |fabric: &mut LNuca, at: Cycle| {
        fabric.tick(at);
        arrivals.clear();
        misses.clear();
        spills.clear();
        fabric.drain_arrivals_into(at, &mut arrivals);
        fabric.drain_global_misses_into(at, &mut misses);
        fabric.drain_spills_into(at, &mut spills);
    };
    let start = Instant::now();
    let mut now = Cycle(0);
    step(&mut fabric, now);
    for (i, input) in stream.steps.iter().enumerate() {
        while let Some(at) = fabric.next_event(now).filter(|&at| at < input.at) {
            step(&mut fabric, at);
            now = at;
        }
        if input.at != now {
            step(&mut fabric, input.at);
        }
        now = input.at;
        for &(addr, dirty) in &input.victims {
            fabric.evict_from_root(addr, dirty);
        }
        if let Some((addr, is_write)) = input.search {
            if !fabric.inject_search(addr, ReqId(i as u64), is_write, now) {
                return Err(format!(
                    "the fabric refused the search recorded at cycle {}",
                    now.0
                ));
            }
        }
    }
    while let Some(at) = fabric.next_event(now).filter(|&at| at <= stream.last_cycle) {
        step(&mut fabric, at);
        now = at;
    }
    Ok((fabric.stats().clone(), start.elapsed()))
}

/// One directory operation of a recorded CMP run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirectoryOp {
    Read(usize, u64),
    Write(usize, u64),
    Evict(usize, u64),
}

/// The directory operations one CMP run performed, in order, and the
/// directory counters it ended with.
#[derive(Debug, Clone)]
pub struct CoherenceStream {
    cores: usize,
    ops: Vec<DirectoryOp>,
    /// The recording run's result.
    pub result: RunResult,
}

impl CoherenceStream {
    /// Directory operations in the stream.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops.len() as u64
    }
}

/// Records the directory operations of one CMP run through its probe: a
/// `CoherentAccess` that missed the private domain is a directory read or
/// write, a `CoherentEvict` a directory eviction.
///
/// # Errors
///
/// An invalid spec.
pub fn record_coherence(
    spec: &HierarchySpec,
    profile: &WorkloadProfile,
    instructions: u64,
    seed: u64,
) -> Result<CoherenceStream, String> {
    let (result, hierarchy) = System::run_spec_probed(
        Engine::EventHorizon,
        spec,
        profile,
        instructions,
        seed,
        Recorder::default(),
    )
    .map_err(|e| e.to_string())?;
    let block = spec.root.block_size;
    let events = hierarchy.into_probe().0.take();
    let ops = events
        .into_iter()
        .filter_map(|e| match e {
            ProbeEvent::CoherentAccess {
                core,
                addr,
                is_write,
                hit: false,
            } => Some(if is_write {
                DirectoryOp::Write(usize::from(core), addr.0 / block)
            } else {
                DirectoryOp::Read(usize::from(core), addr.0 / block)
            }),
            ProbeEvent::CoherentEvict { core, addr } => {
                Some(DirectoryOp::Evict(usize::from(core), addr.0 / block))
            }
            _ => None,
        })
        .collect();
    Ok(CoherenceStream {
        cores: spec.cores,
        ops,
        result,
    })
}

/// Replays `stream` through a bare `Directory`, deriving each eviction's
/// dirtiness from the line's MSI state as the CMP memory does. Returns the
/// directory's final counters and the host time of the replay.
///
/// # Errors
///
/// An invalid directory configuration.
pub fn replay_coherence(stream: &CoherenceStream) -> Result<(CoherenceStats, Duration), String> {
    let mut directory =
        Directory::new(DirectoryConfig::new(stream.cores)).map_err(|e| e.0.clone())?;
    let start = Instant::now();
    for &op in &stream.ops {
        match op {
            DirectoryOp::Read(core, line) => {
                std::hint::black_box(directory.read(core, line));
            }
            DirectoryOp::Write(core, line) => {
                std::hint::black_box(directory.write(core, line));
            }
            DirectoryOp::Evict(core, line) => {
                let (state, _, owner) = directory.state_of(line);
                let dirty = state == MsiState::Modified && owner == Some(core);
                std::hint::black_box(directory.evict(core, line, dirty));
            }
        }
    }
    let elapsed = start.elapsed();
    Ok((CoherenceStats::from(directory.counters()), elapsed))
}
