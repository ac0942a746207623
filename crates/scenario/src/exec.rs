//! The scenario executor: sweep expansion → deduplicated job plan →
//! work-stealing pool → per-member results.
//!
//! Two levels of sharing keep a [`ScenarioSet`] as cheap as the
//! hand-wired pipelines it replaces (`repro all` used to do all of this
//! manually):
//!
//! * **Designs** — each unique [`DesignSpec`] is built once
//!   (`BusTables::build` and repeater sizing included) and shared by
//!   reference across every member that names it.
//! * **Heavy inputs** — members wanting the same closed loop (same
//!   design, corner, workload, controller, cycles, seed) share one run,
//!   and members wanting the same sweep histogram share one product per
//!   (design, workload, cycles, seed), since the histogram is corner-
//!   and governor-independent. The pass that already reads those words
//!   fills it: the key's shared compile ([`CompiledTrace::summary`]),
//!   else the key's first live loop (a `with_histogram` by-product),
//!   else a dedicated `TraceSummary::collect` pass. All three are
//!   bit-identical (pinned in `razorbus-core`).
//!
//! The planned jobs then drain on a bounded work-stealing pool
//! ([`crate::pool`]) instead of one OS thread per job: the worker count
//! comes from `--threads` / `RAZORBUS_THREADS` / available parallelism,
//! live loops are fed ahead of compile and summary jobs, and each
//! finished compile spawns its replay continuations onto the finishing
//! worker's own deque, where idle workers steal them. A suite is ten
//! streams, one per benchmark: compiles and summary passes run one job
//! per stream with a slot-ordered merge (the last finisher assembles in
//! [`razorbus_traces::Benchmark::ALL`] order), so a small campaign's
//! parallelism is no longer capped at its member count. A compile
//! streams in one pass when the pool has one worker or its stream fits
//! in one chunk, and otherwise splits into chunk jobs. Open-loop
//! fixed-supply members replaying one compiled stream at one sampling
//! window are judged together in a single fused pass. Every job
//! writes into a pre-assigned result slot, so scheduling order never
//! touches the output.
//!
//! Members in [`AnalysisSpec::Aggregate`] mode never materialize
//! products: as their loops complete, the executor extracts
//! [`MemberMetrics`] and folds them into one streaming
//! [`CampaignDigest`] through a rank-ordered reorder buffer
//! ([`DigestBuilder`]), keeping memory constant at Monte-Carlo scale.
//!
//! None of this sharing may show in the output: under any worker
//! count, compile chunk size and compile budget, a campaign equals
//! [`ScenarioSet::run_reference`] — every member run alone, serially
//! and live — bit for bit. One property test in [`crate::reference`]
//! pins that over generated sets.
//!
//! [`AnalysisSpec::Aggregate`]: crate::AnalysisSpec::Aggregate

use crate::aggregate::{CampaignDigest, DigestBuilder, MemberMetrics};
use crate::pool;
use crate::result::{LoopData, MemberResult, ScenarioSetResult, StreamRun, SweepData};
use crate::spec::{ControllerSpec, DesignSpec, ScenarioSpec, WorkloadSpec};
use razorbus_core::experiments::{fig8, SummaryBank};
use razorbus_core::{
    compile_chunk_knob, parse_knob, BusSimulator, CompiledChunk, CompiledTrace, DvsBusDesign,
    FusedOp, TraceSummary,
};
use razorbus_ctrl::{BoxedGovernor, GovernorSpec};
use razorbus_process::{IrDrop, ProcessCorner, PvtCorner};
use razorbus_traces::{Benchmark, TraceSource};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// A named list of scenarios executed as one deduplicated, parallel
/// campaign.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSet {
    /// Campaign name (also the artifact's self-description).
    pub name: String,
    /// Member scenarios; sweep axes expand at run time.
    pub members: Vec<ScenarioSpec>,
}

/// An executed set: the serializable [`ScenarioSetResult`] plus the
/// built designs the render-side adapters query.
#[derive(Debug)]
pub struct ScenarioSetRun {
    pub(crate) design_specs: Vec<DesignSpec>,
    pub(crate) designs: Vec<DvsBusDesign>,
    /// The persistable products.
    pub result: ScenarioSetResult,
}

/// Everything that identifies one closed-loop simulation. Compares and
/// hashes through [`LoopKey::identity`].
#[derive(Debug, Clone, Copy)]
struct LoopKey {
    design_idx: usize,
    corner: PvtCorner,
    /// Index into the plan's interned workloads.
    workload: usize,
    controller: ControllerSpec,
    cycles: u64,
    seed: u64,
}

/// Everything that identifies one sweep histogram (corner- and
/// controller-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SummaryKey {
    design_idx: usize,
    /// Index into the plan's interned workloads.
    workload: usize,
    cycles: u64,
    seed: u64,
}

/// A [`PvtCorner`] as a hashable value: the temperature goes by its
/// bit pattern.
type CornerId = (ProcessCorner, u64, IrDrop);

impl LoopKey {
    fn of(m: &ScenarioSpec, design_idx: usize, workload: usize) -> Self {
        Self {
            design_idx,
            corner: m.run.corner.resolve(),
            workload,
            controller: m.controller,
            cycles: m.run.cycles_per_benchmark,
            seed: m.run.seed,
        }
    }

    /// The fields a loop key compares and hashes by. The corner's f64
    /// temperature is keyed by `to_bits`: for every non-NaN value that
    /// groups exactly as its shortest-round-trip `Debug` rendering
    /// would, and it keeps `-0.0` apart from `0.0`.
    fn identity(&self) -> (usize, CornerId, usize, ControllerSpec, u64, u64) {
        let c = self.corner;
        (
            self.design_idx,
            (c.process, c.temperature.celsius().to_bits(), c.ir),
            self.workload,
            self.controller,
            self.cycles,
            self.seed,
        )
    }

    fn summary_key(&self) -> SummaryKey {
        SummaryKey {
            design_idx: self.design_idx,
            workload: self.workload,
            cycles: self.cycles,
            seed: self.seed,
        }
    }
}

impl PartialEq for LoopKey {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for LoopKey {}

impl Hash for LoopKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

/// Dense ids in first-appearance order: equal values share an id. A
/// run of equal values costs one comparison each instead of a hash.
struct Interner<T> {
    ids: HashMap<T, usize>,
    values: Vec<T>,
    last: Option<usize>,
}

impl<T: Hash + Eq + Clone> Interner<T> {
    fn with_capacity(n: usize) -> Self {
        Self {
            ids: HashMap::with_capacity(n),
            values: Vec::with_capacity(n),
            last: None,
        }
    }

    fn id(&mut self, value: T) -> usize {
        if let Some(last) = self.last.filter(|&last| self.values[last] == value) {
            return last;
        }
        let values = &mut self.values;
        let id = *self.ids.entry(value).or_insert_with_key(|value| {
            values.push(value.clone());
            values.len() - 1
        });
        self.last = Some(id);
        id
    }
}

/// A workload compiled against its design: the governor-independent
/// per-cycle classification, shared by reference across every loop job
/// over the same (design, workload, cycles, seed).
#[derive(Clone)]
enum CompiledWorkload {
    /// One compiled trace per benchmark, [`razorbus_traces::Benchmark::ALL`] order.
    Suite(Vec<Arc<CompiledTrace>>),
    /// A single compiled stream (one benchmark or a synthetic recipe).
    Stream(Arc<CompiledTrace>),
}

/// A chunked compile in flight: the serially drained word buffer plus
/// the slot-ordered chunk assembly. The [`Job::Compile`] handler builds
/// one of these when a stream spans more than one chunk on a pool of
/// more than one worker, spawns a [`Job::CompileChunk`] per chunk, and
/// the last chunk to finish assembles the stream and completes it
/// exactly as the streaming route would.
struct ChunkJob {
    /// Index into the plan's `compile_jobs`.
    c: usize,
    /// The workload stream being compiled (a suite's benchmark slot, or
    /// 0 for a single stream).
    stream: usize,
    /// `cycles + 1` words: cycle `k` reads `(words[k], words[k + 1])`.
    words: Vec<u32>,
    /// Per-chunk assembly slots, filled in any order, taken whole by
    /// the last finisher in chunk (= cycle) order.
    slots: Mutex<BenchSlots<CompiledChunk>>,
}

/// One schedulable unit of a campaign, indexing into the plan's job
/// vectors. [`Plan::initial_feed`] builds the pool's starting list; `Replay`s
/// are continuations a finished compile spawns for each waiting loop index,
/// and `CompileChunk`s are continuations a compile's serial drain
/// spawns for each cycle chunk — both interleave with every other job
/// on the pool. A suite's compiles and summaries are ten jobs, one per
/// benchmark stream; any other workload's are one job on stream 0.
enum Job {
    /// Compile stream `b` of `compile_jobs[c]`: stream it, or drain it
    /// and spawn its analysis chunks. The last stream to finish
    /// assembles the workload and spawns its replays.
    Compile(usize, usize),
    /// Analyze chunk `k` of an in-flight chunked compile; the last
    /// chunk to finish assembles the stream and completes it.
    CompileChunk(Arc<ChunkJob>, usize),
    /// Run `loop_jobs[i]` against the live trace.
    Loop(usize),
    /// Summarize stream `b` of `sweeps[s]`'s workload (a sweep no
    /// compile or live loop reads); the last stream to finish
    /// assembles the sweep product.
    Summary(usize, usize),
    /// Replay `loop_jobs[i]` against its shared compiled workload.
    Replay(usize, CompiledWorkload),
    /// Judge a whole group of open-loop loop jobs, each with its fixed
    /// operating point, in one fused pass over their shared compiled
    /// stream ([`CompiledTrace::replay_fused`]).
    FusedReplay(FusedGroup, Arc<CompiledTrace>),
}

/// Loop indices judged in one fused pass, each with the fixed operating
/// point the planner read off its loop key.
type FusedGroup = Vec<(usize, FusedOp)>;

/// How one finished stream compile's waiting loop jobs replay: solo
/// continuations, or fused groups judged in a single pass over the
/// stream. A pure function of the plan, so grouping is independent of
/// worker count and completion order.
#[derive(Debug, Clone, PartialEq)]
enum ReplayPlan {
    /// One [`Job::Replay`] continuation — closed-loop governors steer
    /// their own chunk boundaries.
    Solo(usize),
    /// One [`Job::FusedReplay`] over these loop indices and their
    /// operating points — open-loop fixed-supply members sharing the
    /// stream *and* the sampling window, whose shared chunk boundaries
    /// make the fused fold bit-identical to each solo replay.
    Fused(FusedGroup),
}

/// Partitions one stream compile's waiting loop indices into replay
/// plans: closed-loop members solo, in replayer order, then one
/// unbounded fused group per sampling window, in first-seen order.
fn plan_replay_groups(replayers: &[usize], loop_jobs: &[LoopKey]) -> Vec<ReplayPlan> {
    let mut plans = Vec::new();
    let mut groups: Vec<(Option<u64>, FusedGroup)> = Vec::new();
    for &i in replayers {
        let (pvt, sampling) = (loop_jobs[i].corner, loop_jobs[i].controller.sampling);
        let GovernorSpec::Fixed(supply) = loop_jobs[i].controller.governor else {
            plans.push(ReplayPlan::Solo(i));
            continue;
        };
        let op = (i, FusedOp { pvt, supply });
        match groups.iter_mut().find(|(s, _)| *s == sampling) {
            Some((_, group)) => group.push(op),
            None => groups.push((sampling, vec![op])),
        }
    }
    plans.extend(groups.into_iter().map(|(_, g)| ReplayPlan::Fused(g)));
    plans
}

/// Slot-ordered assembly of a workload's per-stream products (or a
/// stream's per-chunk ones): each finishing job fills its pre-assigned
/// slot, and the **last** finisher takes the completed list — always in
/// slot order ([`Benchmark::ALL`] order for a suite), so the merged
/// value is bit-identical to a serial pass regardless of completion
/// order.
struct BenchSlots<T> {
    slots: Vec<Option<T>>,
    remaining: usize,
}

impl<T> BenchSlots<T> {
    fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| None).collect(),
            remaining: n,
        }
    }

    /// Fills slot `b`, returning the full slot-ordered list when this
    /// was the last empty slot. The list reuses the slots' own buffer,
    /// allocated where the slots were built, so the finishing worker
    /// allocates nothing that outlives its job in its own heap.
    fn fill(&mut self, b: usize, value: T) -> Option<Vec<T>> {
        assert!(self.slots[b].is_none(), "bench slot {b} filled twice");
        self.slots[b] = Some(value);
        self.remaining -= 1;
        (self.remaining == 0).then(|| {
            std::mem::take(&mut self.slots)
                .into_iter()
                .map(|s| s.expect("all slots filled"))
                .collect()
        })
    }
}

/// One loop job's result slot: `None` until the job finishes; the
/// data itself is kept only for members that materialize it.
type LoopSlot = Option<Result<Option<LoopData>, String>>;

/// Default ceiling (bytes) on the resident size of shared compiled
/// traces; above it the executor falls back to direct (live) runs so a
/// paper-scale 10 M-cycle campaign cannot exhaust memory. Override with
/// `RAZORBUS_COMPILE_BUDGET_MB`.
pub(crate) const DEFAULT_COMPILE_BUDGET: u64 = 768 * 1024 * 1024;

/// Per-cycle resident bytes of one compiled stream (u8 toggle, u16 bin,
/// f64 switched capacitance) — kept in sync with
/// [`CompiledTrace::memory_bytes`] by a test.
pub(crate) const COMPILED_BYTES_PER_CYCLE: u64 = 11;

/// The compiled-trace budget in bytes.
///
/// # Errors
///
/// Names the variable and its value when it is set but not an unsigned
/// integer, or too large for a byte count.
pub(crate) fn compile_budget() -> Result<u64, String> {
    const VAR: &str = "RAZORBUS_COMPILE_BUDGET_MB";
    match parse_knob::<u64>(VAR, std::env::var_os(VAR))? {
        None => Ok(DEFAULT_COMPILE_BUDGET),
        Some(mb) => mb
            .checked_mul(1024 * 1024)
            .ok_or_else(|| format!("{VAR}={mb} overflows a byte count")),
    }
}

/// The streams a workload compiles and summarizes as: one per benchmark
/// for a suite, one for anything else.
fn stream_count(workload: &WorkloadSpec) -> usize {
    match workload {
        WorkloadSpec::Suite => Benchmark::ALL.len(),
        WorkloadSpec::Single(_) | WorkloadSpec::Recipe(_) => 1,
    }
}

/// A workload's per-stream summaries, in stream order and tagged
/// `Benchmark::ALL[stream]`, as its sweep product: a suite's ten merge
/// into a bank, and a single stream's one is the summary itself (its
/// tag unused).
fn sweep_of(per: Vec<(Benchmark, TraceSummary)>) -> SweepData {
    match <[(Benchmark, TraceSummary); 1]>::try_from(per) {
        Ok([(_, summary)]) => SweepData::Summary(summary),
        Err(per) => SweepData::Bank(SummaryBank::from_per_benchmark(per)),
    }
}

/// Estimated resident bytes of compiling `key`'s workload, saturating
/// for budgets no memory holds.
fn compiled_footprint(key: &SummaryKey, workloads: &[WorkloadSpec]) -> u64 {
    let streams = stream_count(&workloads[key.workload]) as u64;
    (streams * COMPILED_BYTES_PER_CYCLE).saturating_mul(key.cycles)
}

/// Each spec's index among the distinct specs, and those specs in
/// first-appearance order.
pub(crate) fn distinct_designs<'a>(
    specs: impl Iterator<Item = &'a DesignSpec>,
) -> (Vec<DesignSpec>, Vec<usize>) {
    let mut distinct: Vec<DesignSpec> = Vec::new();
    let ids = specs
        .map(|spec| {
            distinct.iter().position(|d| d == spec).unwrap_or_else(|| {
                distinct.push(*spec);
                distinct.len() - 1
            })
        })
        .collect();
    (distinct, ids)
}

/// How a campaign's members map onto jobs, fixed before the pool
/// starts. Keys name workloads by their index in `workloads`, so every
/// map below hashes a few integers per member, never a recipe.
struct Plan {
    /// The members' distinct designs, first-appearance order.
    designs: Vec<DesignSpec>,
    /// The members' distinct workloads, first-appearance order.
    workloads: Vec<WorkloadSpec>,
    /// Deduplicated loop jobs, first-appearance order.
    loop_jobs: Vec<LoopKey>,
    /// Each member's loop job (`None` if it needs none).
    member_loop: Vec<Option<usize>>,
    /// The distinct sweep products, first-appearance order.
    sweeps: Vec<SummaryKey>,
    /// Each member's sweep (`None` if it wants no sweep).
    member_sweep: Vec<Option<usize>>,
    /// Shared compiles, first-appearance order.
    compile_jobs: Vec<SummaryKey>,
    /// Each loop job's compile (`None` runs live).
    loop_compile: Vec<Option<usize>>,
    /// The sweep each compile summarizes, stream by stream.
    compile_sweep: Vec<Option<usize>>,
    /// The sweep each live loop collects as a histogram by-product.
    loop_sweep: Vec<Option<usize>>,
    /// Sweeps no compile or live loop reads: one summary pass each.
    own_sweeps: Vec<usize>,
}

impl Plan {
    /// Plans `members`: deduplicated loop runs, the compile plan when
    /// `compile_budget` is given, and one source per sweep product —
    /// its key's compile, else the key's first live loop, else a
    /// dedicated summary pass. Loop jobs are planned over *all* members
    /// first, so a sweep's source is member-order-independent: a
    /// sweep-only member rides a loop planned later in the set rather
    /// than spawning a redundant trace pass. Every step is linear in
    /// the member count.
    fn new(members: &[ScenarioSpec], compile_budget: Option<u64>) -> Self {
        let (designs, member_design) = distinct_designs(members.iter().map(|m| &m.design));
        let mut workloads = Interner::with_capacity(1);
        let member_workload: Vec<usize> =
            members.iter().map(|m| workloads.id(&m.workload)).collect();
        let workloads: Vec<WorkloadSpec> = workloads.values.into_iter().cloned().collect();
        let member_ids = || {
            members
                .iter()
                .zip(member_design.iter().zip(&member_workload))
        };

        let mut loops = Interner::with_capacity(members.len());
        let member_loop: Vec<Option<usize>> = member_ids()
            .map(|(m, (&d, &w))| {
                (m.analysis.wants_loop() || m.analysis.wants_aggregate())
                    .then(|| loops.id(LoopKey::of(m, d, w)))
            })
            .collect();
        let loop_jobs = loops.values;

        // Each loop job's summary key as a dense id; ids count up in
        // loop order, so a key's first loop is where its id first shows.
        let mut skeys = Interner::with_capacity(loop_jobs.len());
        let loop_skey: Vec<usize> = loop_jobs
            .iter()
            .map(|job| skeys.id(job.summary_key()))
            .collect();
        let mut first_loop: Vec<usize> = Vec::with_capacity(skeys.values.len());
        for (i, &s) in loop_skey.iter().enumerate() {
            if s == first_loop.len() {
                first_loop.push(i);
            }
        }

        // A (design, workload, cycles, seed) analyzed by two or more
        // loop jobs (a governor shootout, a corner sweep, `repro all`'s
        // typical+worst pair, ...) is compiled once and replayed per
        // job, so the `analyze_cycle` cost is paid once instead of N
        // times. Single-user keys stay on the live path — compiling
        // would only add work — as does anything that would blow the
        // compiled-memory budget (bytes).
        let mut users = vec![0usize; skeys.values.len()];
        for &s in &loop_skey {
            users[s] += 1;
        }
        let mut skey_compile: Vec<Option<usize>> = vec![None; skeys.values.len()];
        let mut compile_jobs = Vec::new();
        if let Some(budget) = compile_budget {
            let mut footprint = 0u64;
            for (s, key) in skeys.values.iter().enumerate() {
                let bytes = compiled_footprint(key, &workloads);
                if users[s] < 2 || bytes > budget - footprint {
                    continue;
                }
                footprint += bytes;
                skey_compile[s] = Some(compile_jobs.len());
                compile_jobs.push(*key);
            }
        }

        // One slot per sweep product, filled by the pass that already
        // reads its words.
        let mut sweeps = Interner::with_capacity(0);
        let member_sweep: Vec<Option<usize>> = member_ids()
            .map(|(m, (&d, &w))| {
                m.analysis
                    .wants_sweep()
                    .then(|| sweeps.id(LoopKey::of(m, d, w).summary_key()))
            })
            .collect();
        let mut compile_sweep = vec![None; compile_jobs.len()];
        let mut loop_sweep = vec![None; loop_jobs.len()];
        let mut own_sweeps = Vec::new();
        for (s, key) in sweeps.values.iter().enumerate() {
            match skeys.ids.get(key).map(|&k| (k, skey_compile[k])) {
                Some((_, Some(c))) => compile_sweep[c] = Some(s),
                Some((k, None)) => loop_sweep[first_loop[k]] = Some(s),
                None => own_sweeps.push(s),
            }
        }

        Self {
            designs,
            workloads,
            loop_compile: loop_skey.iter().map(|&s| skey_compile[s]).collect(),
            loop_jobs,
            member_loop,
            sweeps: sweeps.values,
            member_sweep,
            compile_jobs,
            compile_sweep,
            loop_sweep,
            own_sweeps,
        }
    }

    /// The loop jobs replaying each compile, in loop order.
    fn replayers(&self) -> Vec<Vec<usize>> {
        let mut replayers = vec![Vec::new(); self.compile_jobs.len()];
        for (i, c) in self.loop_compile.iter().enumerate() {
            if let Some(c) = *c {
                replayers[c].push(i);
            }
        }
        replayers
    }

    /// The initial pool feed, each block in plan order: live
    /// (uncompiled) loops, then compiles, then summary passes, one job
    /// per workload stream. A live loop cannot split below a whole
    /// workload — a suite loop threads one governor through every
    /// benchmark — so it starts first, and the compiles' stealable
    /// chunk jobs fill the pool around it.
    fn initial_feed(&self) -> Vec<Job> {
        let streams = |key: &SummaryKey| 0..stream_count(&self.workloads[key.workload]);
        let compiles = self.compile_jobs.iter().enumerate();
        (0..self.loop_jobs.len())
            .filter(|&i| self.loop_compile[i].is_none())
            .map(Job::Loop)
            .chain(compiles.flat_map(|(c, key)| streams(key).map(move |b| Job::Compile(c, b))))
            .chain(
                self.own_sweeps
                    .iter()
                    .flat_map(|&s| streams(&self.sweeps[s]).map(move |b| Job::Summary(s, b))),
            )
            .collect()
    }
}

impl ScenarioSet {
    /// A set with a single (possibly swept) scenario.
    #[must_use]
    pub fn single(spec: ScenarioSpec) -> Self {
        Self {
            name: spec.name.clone(),
            members: vec![spec],
        }
    }

    /// Expands every member's sweep axes, requiring the resolved names
    /// to be distinct (adapters and renders look members up by name).
    ///
    /// # Errors
    ///
    /// Propagates member expansion errors; rejects duplicate names.
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, String> {
        // Members expand up to the first error, which only surfaces if
        // no earlier member resolved to a duplicate name.
        let mut groups = Vec::with_capacity(self.members.len());
        let mut failure = None;
        for member in &self.members {
            match member.expand() {
                Ok(group) => groups.push(group),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        let total = groups.iter().map(Vec::len).sum();
        let mut names: HashSet<&str> = HashSet::with_capacity(total);
        if let Some(dup) = groups.iter().flatten().find(|m| !names.insert(&m.name)) {
            return Err(format!(
                "scenario set `{}` expands to duplicate member `{}`",
                self.name, dup.name
            ));
        }
        if let Some(e) = failure {
            return Err(e);
        }
        groups
            .into_iter()
            .reduce(|mut out, group| {
                out.extend(group);
                out
            })
            .filter(|out| !out.is_empty())
            .ok_or_else(|| format!("scenario set `{}` has no members", self.name))
    }

    /// Executes the set: builds each unique design once, deduplicates
    /// loop runs and summary passes across members, drains the
    /// remaining jobs on the work-stealing pool, and assembles
    /// per-member results in expansion order. The result is
    /// bit-identical to [`ScenarioSet::run_reference`], the naive
    /// member-by-member run.
    ///
    /// # Errors
    ///
    /// Propagates expansion, design-build, governor-build and trace
    /// construction errors, and names any member whose corner the
    /// design tables do not tabulate. A malformed (but decodable) spec
    /// artifact surfaces here as an `Err`, never a panic, and so does
    /// an unparsable `RAZORBUS_COMPILE_BUDGET_MB`, or a
    /// `RAZORBUS_THREADS` or `RAZORBUS_COMPILE_CHUNK` that is not a
    /// positive integer.
    pub fn run(&self) -> Result<ScenarioSetRun, String> {
        self.run_with_workers(Vec::new(), true, None)
    }

    /// [`ScenarioSet::run`] with the executor's options explicit:
    ///
    /// * `prebuilt` supplies designs for some (or all) of the member
    ///   [`DesignSpec`]s, so a caller that already holds a design skips
    ///   its `BusTables::build`; specs without an entry build as usual.
    /// * `share_compiled = false` disables compiled-trace sharing,
    ///   forcing every loop job onto the live `analyze_cycle` path
    ///   (`repro scenario <name> --no-compiled`).
    /// * `workers = Some(n)` pins the pool to `n` workers, bypassing
    ///   `RAZORBUS_THREADS` and the hardware default — how
    ///   `bench_report` measures 1/2/N-worker scaling in one process.
    ///
    /// # Errors
    ///
    /// Same as [`ScenarioSet::run`].
    pub fn run_with_workers(
        &self,
        prebuilt: Vec<(DesignSpec, DvsBusDesign)>,
        share_compiled: bool,
        workers: Option<usize>,
    ) -> Result<ScenarioSetRun, String> {
        let budget = compile_budget()?;
        self.run_full(
            prebuilt,
            share_compiled.then_some(budget),
            workers,
            compile_chunk_knob()?,
        )
    }

    /// [`ScenarioSet::run_with_workers`] with every executor option
    /// explicit, so the reference differential can drive them without
    /// touching process globals: `budget` caps the resident bytes of
    /// shared compiled traces (`None` shares nothing, every loop runs
    /// live), and `chunk_cycles` is the compile chunk size.
    ///
    /// Each shared compile takes one of two routes, by one rule: it
    /// streams through [`CompiledTrace::compile`] when the pool has one
    /// worker or the stream fits in one chunk (`cycles <=
    /// chunk_cycles`), and otherwise drains its words and spawns one
    /// [`Job::CompileChunk`] per chunk. Both routes give the same bytes.
    pub(crate) fn run_full(
        &self,
        prebuilt: Vec<(DesignSpec, DvsBusDesign)>,
        budget: Option<u64>,
        workers: Option<usize>,
        chunk_cycles: usize,
    ) -> Result<ScenarioSetRun, String> {
        let n_workers = pool::worker_count(workers)?;
        let members = self.expand()?;
        // A run at an untabulated corner would panic inside a job.
        members.iter().try_for_each(ScenarioSpec::check_corner)?;
        let plan = Plan::new(&members, budget);
        let Plan {
            designs: design_specs,
            workloads,
            loop_jobs,
            member_loop,
            sweeps,
            member_sweep,
            compile_jobs,
            compile_sweep,
            loop_sweep,
            own_sweeps,
            ..
        } = &plan;

        let mut prebuilt: Vec<(DesignSpec, Option<DvsBusDesign>)> = prebuilt
            .into_iter()
            .map(|(spec, design)| (spec, Some(design)))
            .collect();
        let designs = design_specs
            .iter()
            .map(
                |spec| match prebuilt.iter_mut().find(|(s, d)| s == spec && d.is_some()) {
                    Some((_, slot)) => Ok(slot.take().expect("checked is_some")),
                    None => spec.build(),
                },
            )
            .collect::<Result<Vec<_>, _>>()?;

        // Aggregate ranks: each aggregate-mode member folds into the
        // campaign digest at its position among the set's aggregate
        // members (expansion order). A shared loop job may carry
        // several ranks; the rank order — not the completion order —
        // fixes the fold order.
        let mut job_agg: Vec<Vec<usize>> = vec![Vec::new(); loop_jobs.len()];
        let mut agg_count = 0usize;
        for (mi, m) in members.iter().enumerate() {
            if m.analysis.wants_aggregate() {
                let i = member_loop[mi].expect("aggregate members plan a loop job");
                job_agg[i].push(agg_count);
                agg_count += 1;
            }
        }
        // Aggregate-only loop data is dropped at the fold; a job is
        // materialized only if a member keeps its data.
        let mut materialize = vec![false; loop_jobs.len()];
        for (mi, m) in members.iter().enumerate() {
            if m.analysis.wants_loop() {
                materialize[member_loop[mi].expect("loop wanted")] = true;
            }
        }

        // Build governors (and validate recipes) before spawning, so
        // every spec-level error surfaces as a clean Err. A recipe's
        // errors do not depend on the seed, so each distinct workload
        // is validated once, at its first job.
        let mut validated = vec![false; workloads.len()];
        let mut validate = |w: usize, seed: u64| {
            if let (WorkloadSpec::Recipe(recipe), false) = (&workloads[w], validated[w]) {
                recipe.build_trace(seed)?;
            }
            validated[w] = true;
            Ok::<(), String>(())
        };
        let mut governors: Vec<Option<BoxedGovernor>> = Vec::with_capacity(loop_jobs.len());
        for job in loop_jobs {
            let design = &designs[job.design_idx];
            governors.push(Some(job.controller.build(design, job.corner)?));
            validate(job.workload, job.seed)?;
        }
        for &s in own_sweeps {
            validate(sweeps[s].workload, sweeps[s].seed)?;
        }

        // Drain the plan on the work-stealing pool, fed in
        // `initial_feed` order; a finished compile spawns one `Replay`
        // continuation per waiting loop (the compiled stream
        // `Arc`-shared, one clone per job). Compiles and summaries run
        // one job per workload stream, and the last stream to finish
        // assembles the slot-ordered whole. Every job writes its
        // pre-assigned slot — and aggregate metrics fold through the
        // rank-ordered `DigestBuilder` — so worker count and steal
        // order never affect the assembled result.
        let replayers = plan.replayers();
        let governors: Vec<Mutex<Option<BoxedGovernor>>> =
            governors.into_iter().map(Mutex::new).collect();
        let take_governor = |i: usize| {
            governors[i]
                .lock()
                .expect("governor slot")
                .take()
                .expect("governor built above, taken once")
        };
        let loops: Mutex<Vec<LoopSlot>> = Mutex::new((0..loop_jobs.len()).map(|_| None).collect());
        let swept: Mutex<Vec<Option<Result<SweepData, String>>>> =
            Mutex::new((0..sweeps.len()).map(|_| None).collect());
        let folder: Option<Mutex<DigestBuilder>> =
            (agg_count > 0).then(|| Mutex::new(DigestBuilder::new(&self.name)));
        let streams = |key: &SummaryKey| stream_count(&workloads[key.workload]);
        let compiled_streams: Vec<Mutex<BenchSlots<Arc<CompiledTrace>>>> = compile_jobs
            .iter()
            .map(|key| Mutex::new(BenchSlots::new(streams(key))))
            .collect();
        let summary_streams: Vec<Mutex<BenchSlots<(Benchmark, TraceSummary)>>> = sweeps
            .iter()
            .map(|key| Mutex::new(BenchSlots::new(streams(key))))
            .collect();

        // A finished loop (live or replayed): fold its metrics into the
        // digest for every rank it carries, then keep or drop the data
        // as planned.
        let finish_loop = |i: usize, data: Result<LoopData, String>| {
            let slot = data.map(|data| {
                if !job_agg[i].is_empty() {
                    let metrics = MemberMetrics::of(&data);
                    let mut folder = folder
                        .as_ref()
                        .expect("aggregate ranks imply a folder")
                        .lock()
                        .expect("digest folder");
                    for &rank in &job_agg[i] {
                        folder.submit(rank, metrics.clone());
                    }
                }
                materialize[i].then_some(data)
            });
            loops.lock().expect("loop results")[i] = Some(slot);
        };
        let set_sweep = |s: usize, sweep: Result<SweepData, String>| {
            swept.lock().expect("sweep results")[s] = Some(sweep);
        };
        // One stream's summary, from a compile or a dedicated pass; the
        // last stream of a sweep assembles it.
        let fill_sweep = |s: usize, stream: usize, summary: TraceSummary| {
            let done = summary_streams[s]
                .lock()
                .expect("sweep stream slots")
                .fill(stream, (Benchmark::ALL[stream], summary));
            if let Some(per) = done {
                set_sweep(s, Ok(sweep_of(per)));
            }
        };

        // A materialized compiled stream: summarize it if the compile
        // sources a sweep, and once the workload's last stream lands,
        // spawn its replays — solo for a suite, planned into fused
        // groups for a single stream.
        let finish_compile = |c: usize,
                              stream: usize,
                              compiled: Arc<CompiledTrace>,
                              spawner: &pool::Spawner<'_, Job>| {
            let done = compiled_streams[c]
                .lock()
                .expect("compile stream slots")
                .fill(stream, Arc::clone(&compiled));
            if let Some(s) = compile_sweep[c] {
                fill_sweep(s, stream, compiled.summary());
            }
            let Some(per) = done else { return };
            match <[Arc<CompiledTrace>; 1]>::try_from(per) {
                Ok([trace]) => {
                    for plan in plan_replay_groups(&replayers[c], loop_jobs) {
                        spawner.spawn(match plan {
                            ReplayPlan::Solo(i) => {
                                Job::Replay(i, CompiledWorkload::Stream(Arc::clone(&trace)))
                            }
                            ReplayPlan::Fused(group) => Job::FusedReplay(group, Arc::clone(&trace)),
                        });
                    }
                }
                Err(per) => {
                    let workload = CompiledWorkload::Suite(per);
                    for &i in &replayers[c] {
                        spawner.spawn(Job::Replay(i, workload.clone()));
                    }
                }
            }
        };

        // Starts stream `stream` of compile `c`: stream it in one pass
        // when nothing can run beside it or one chunk covers it,
        // otherwise drain its words and spawn one `CompileChunk`
        // continuation per chunk — stolen by idle workers like any
        // other job.
        let start_compile = |c: usize, stream: usize, spawner: &pool::Spawner<'_, Job>| {
            let key = &compile_jobs[c];
            let design = &designs[key.design_idx];
            let mut trace = match open_trace(&workloads[key.workload], key.seed, stream) {
                Ok(trace) => trace,
                Err(e) => {
                    let mut slots = loops.lock().expect("loop results");
                    for &i in &replayers[c] {
                        slots[i] = Some(Err(e.clone()));
                    }
                    return;
                }
            };
            if n_workers == 1 || key.cycles <= chunk_cycles as u64 {
                let compiled = CompiledTrace::compile(design, &mut trace, key.cycles);
                finish_compile(c, stream, Arc::new(compiled), spawner);
                return;
            }
            let words = CompiledTrace::drain_words(&mut trace, key.cycles);
            let n_chunks = (words.len() - 1).div_ceil(chunk_cycles);
            let job = Arc::new(ChunkJob {
                c,
                stream,
                words,
                slots: Mutex::new(BenchSlots::new(n_chunks)),
            });
            for k in 0..n_chunks {
                spawner.spawn(Job::CompileChunk(Arc::clone(&job), k));
            }
        };

        let initial = plan.initial_feed();
        pool::run(n_workers, initial, |job, spawner| match job {
            Job::Compile(c, stream) => start_compile(c, stream, spawner),
            Job::CompileChunk(job, k) => {
                let key = &compile_jobs[job.c];
                let design = &designs[key.design_idx];
                let start = k * chunk_cycles;
                let len = chunk_cycles.min(job.words.len() - 1 - start);
                let chunk = CompiledTrace::analyze_chunk(design, &job.words, start, len);
                let done = job
                    .slots
                    .lock()
                    .expect("chunk assembly slots")
                    .fill(k, chunk);
                if let Some(chunks) = done {
                    let compiled = Arc::new(CompiledTrace::from_chunks(design, key.cycles, chunks));
                    finish_compile(job.c, job.stream, compiled, spawner);
                }
            }
            Job::Loop(i) => {
                let job = &loop_jobs[i];
                let product = run_loop_job(
                    &designs[job.design_idx],
                    job,
                    &workloads[job.workload],
                    take_governor(i),
                    loop_sweep[i].is_some(),
                );
                match product {
                    Ok((data, sweep)) => {
                        if let (Some(s), Some(sweep)) = (loop_sweep[i], sweep) {
                            set_sweep(s, Ok(sweep));
                        }
                        finish_loop(i, Ok(data));
                    }
                    Err(e) => finish_loop(i, Err(e)),
                }
            }
            Job::Replay(i, workload) => {
                let job = &loop_jobs[i];
                let data =
                    run_replay_job(&designs[job.design_idx], job, take_governor(i), &workload);
                finish_loop(i, Ok(data));
            }
            Job::FusedReplay(group, trace) => {
                // Every member in a fused group shares the sampling
                // window and design (same compile job), differing
                // only in its planned corner and pinned supply; the
                // fused kernel judges them all in one pass over the
                // trace.
                let lead = &loop_jobs[group[0].0];
                let ops: Vec<FusedOp> = group.iter().map(|&(_, op)| op).collect();
                let reports =
                    trace.replay_fused(&designs[lead.design_idx], &ops, lead.controller.sampling);
                for (&(i, op), report) in group.iter().zip(reports) {
                    let run = StreamRun {
                        corner: op.pvt,
                        report,
                    };
                    finish_loop(i, Ok(LoopData::Stream(run)));
                }
            }
            Job::Summary(s, stream) => {
                let key = &sweeps[s];
                match open_trace(&workloads[key.workload], key.seed, stream) {
                    Ok(mut trace) => {
                        let design = &designs[key.design_idx];
                        let summary = TraceSummary::collect(design, &mut trace, key.cycles);
                        fill_sweep(s, stream, summary);
                    }
                    Err(e) => set_sweep(s, Err(e)),
                }
            }
        });

        let loop_data = loops
            .into_inner()
            .expect("loop results")
            .into_iter()
            .map(|p| p.expect("every loop job produced or errored"))
            .collect::<Result<Vec<_>, String>>()?;
        // A compile's or live loop's sweep fails only with that job's
        // loops, whose errors return above.
        let sweep_products = swept
            .into_inner()
            .expect("sweep results")
            .into_iter()
            .map(|p| p.expect("every sweep produced or errored"))
            .collect::<Result<Vec<_>, String>>()?;
        let digest: Option<CampaignDigest> =
            folder.map(|f| f.into_inner().expect("digest folder").finish());

        // Assemble member results in expansion order, through the
        // member→job maps fixed at planning time; each spec moves into
        // its result.
        let mut results = Vec::with_capacity(members.len());
        for (mi, m) in members.into_iter().enumerate() {
            let closed_loop = if m.analysis.wants_loop() {
                let i = member_loop[mi].expect("loop job planned above");
                let data = loop_data[i]
                    .as_ref()
                    .expect("loop-wanting members materialize their job");
                Some(data.clone())
            } else {
                None
            };
            results.push(MemberResult {
                spec: m,
                closed_loop,
                sweep: member_sweep[mi].map(|s| sweep_products[s].clone()),
            });
        }

        Ok(ScenarioSetRun {
            design_specs: design_specs.clone(),
            designs,
            result: ScenarioSetResult {
                name: self.name.clone(),
                members: results,
                digest,
            },
        })
    }
}

/// Opens stream `stream` of a workload's trace at `seed`: benchmark
/// `stream` of a suite, or a single workload's only stream. Recipe
/// errors surface here as an `Err`.
fn open_trace(
    workload: &WorkloadSpec,
    seed: u64,
    stream: usize,
) -> Result<Box<dyn TraceSource + Send>, String> {
    match workload {
        WorkloadSpec::Suite => Ok(Box::new(Benchmark::ALL[stream].trace(seed))),
        WorkloadSpec::Single(benchmark) => Ok(Box::new(benchmark.trace(seed))),
        WorkloadSpec::Recipe(recipe) => recipe.build_trace(seed),
    }
}

/// Replays one loop job against a shared compiled workload (phase B) —
/// bit-identical to [`run_loop_job`] over the live trace, pinned by the
/// replay differential tests in `razorbus-core` and the reference
/// differential in [`crate::reference`].
fn run_replay_job(
    design: &DvsBusDesign,
    job: &LoopKey,
    governor: BoxedGovernor,
    workload: &CompiledWorkload,
) -> LoopData {
    let (corner, sampling) = (job.corner, job.controller.sampling);
    match workload {
        CompiledWorkload::Suite(per) => {
            let (data, _) = fig8::replay_protocol(design, corner, per, governor, sampling, false);
            LoopData::Suite(data)
        }
        CompiledWorkload::Stream(trace) => {
            let (report, _governor) = trace.replay(design, corner, governor, sampling, false);
            LoopData::Stream(StreamRun { corner, report })
        }
    }
}

/// Runs one loop job against the live trace; `with_hist` also collects
/// the workload's sweep product in the same pass.
fn run_loop_job(
    design: &DvsBusDesign,
    job: &LoopKey,
    workload: &WorkloadSpec,
    governor: BoxedGovernor,
    with_hist: bool,
) -> Result<(LoopData, Option<SweepData>), String> {
    match workload {
        WorkloadSpec::Suite => {
            let (data, per) = fig8::run_protocol(
                design,
                job.corner,
                job.cycles,
                job.seed,
                governor,
                job.controller.sampling,
                with_hist,
            );
            let sweep = with_hist.then(|| SweepData::Bank(SummaryBank::from_per_benchmark(per)));
            Ok((LoopData::Suite(data), sweep))
        }
        WorkloadSpec::Single(benchmark) => Ok(run_stream_job(
            design,
            job,
            benchmark.trace(job.seed),
            governor,
            with_hist,
        )),
        WorkloadSpec::Recipe(recipe) => Ok(run_stream_job(
            design,
            job,
            recipe.build_trace(job.seed)?,
            governor,
            with_hist,
        )),
    }
}

fn run_stream_job<S: TraceSource>(
    design: &DvsBusDesign,
    job: &LoopKey,
    trace: S,
    governor: BoxedGovernor,
    with_hist: bool,
) -> (LoopData, Option<SweepData>) {
    let mut sim = BusSimulator::new(design, job.corner, trace, governor);
    if let Some(window) = job.controller.sampling {
        sim = sim.with_sampling(window);
    }
    if with_hist {
        sim = sim.with_histogram();
    }
    let mut report = sim.run(job.cycles);
    let sweep = report.summary.take().map(SweepData::Summary);
    let run = StreamRun {
        corner: job.corner,
        report,
    };
    (LoopData::Stream(run), sweep)
}

impl ScenarioSetRun {
    /// The design built for `spec` during this run.
    ///
    /// # Errors
    ///
    /// Errors when no member of the set uses `spec`.
    pub fn design_for(&self, spec: &DesignSpec) -> Result<&DvsBusDesign, String> {
        self.design_specs
            .iter()
            .position(|d| d == spec)
            .map(|i| &self.designs[i])
            .ok_or_else(|| format!("no member of `{}` uses design {spec:?}", self.result.name))
    }

    /// Reattaches designs to a reloaded [`ScenarioSetResult`], so a
    /// persisted scenario run re-renders without re-simulating (designs
    /// rebuild in milliseconds; the simulations they gate do not).
    ///
    /// # Errors
    ///
    /// Propagates design-build errors.
    pub fn from_result(result: ScenarioSetResult) -> Result<Self, String> {
        let (design_specs, _) = distinct_designs(result.members.iter().map(|m| &m.spec.design));
        let designs = design_specs
            .iter()
            .map(DesignSpec::build)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            design_specs,
            designs,
            result,
        })
    }

    /// [`ScenarioSetRun::from_result`] for a result that is about to be
    /// rendered as the run of `set`: the result must carry the set's
    /// name and exactly the member specs `set` expands to — same
    /// members, same cycles/benchmark, same seed — so a result saved at
    /// one geometry never renders under another's banner.
    ///
    /// # Errors
    ///
    /// Names the first mismatch (set name, member count, or the first
    /// differing member and what differs); propagates expansion and
    /// design-build errors.
    pub fn reload(result: ScenarioSetResult, set: &ScenarioSet) -> Result<Self, String> {
        if result.name != set.name {
            return Err(format!(
                "result is for scenario set `{}`, not `{}`",
                result.name, set.name
            ));
        }
        let expected = set.expand()?;
        if result.members.len() != expected.len() {
            return Err(format!(
                "result holds {} members, but `{}` expands to {}",
                result.members.len(),
                set.name,
                expected.len()
            ));
        }
        for (stored, wanted) in result.members.iter().map(|m| &m.spec).zip(&expected) {
            let what = if stored.name != wanted.name {
                format!("member `{}` where `{}` belongs", stored.name, wanted.name)
            } else if stored.run.cycles_per_benchmark != wanted.run.cycles_per_benchmark {
                format!(
                    "member `{}` ran {} cycles/benchmark, this run wants {}",
                    wanted.name, stored.run.cycles_per_benchmark, wanted.run.cycles_per_benchmark
                )
            } else if stored.run.seed != wanted.run.seed {
                format!(
                    "member `{}` ran seed {}, this run wants {}",
                    wanted.name, stored.run.seed, wanted.run.seed
                )
            } else if stored != wanted {
                format!("member `{}` was produced by a different spec", wanted.name)
            } else {
                continue;
            };
            return Err(format!("stale result: {what}"));
        }
        Self::from_result(result)
    }

    /// Prints a generic render of every member: closed-loop aggregates
    /// and/or static-sweep gains at the paper's 0 / 2 / 5 % targets.
    /// Aggregate-mode members are rendered collectively through the
    /// campaign digest table instead of one line each.
    pub fn print(&self) {
        println!("scenario set `{}`:", self.result.name);
        for member in &self.result.members {
            let spec = &member.spec;
            if spec.analysis.wants_aggregate() {
                continue;
            }
            println!(
                "\n  {} [{} / {} / {} / {}]",
                spec.name,
                spec.design.label(),
                spec.workload.label(),
                spec.run.corner.label(),
                spec.controller.governor.label(),
            );
            if let Some(loop_data) = &member.closed_loop {
                println!(
                    "    closed loop: gain {:>5.1}%  avg err {:>5.2}%  peak err {:>5.1}%  \
                     min VDD {} mV  shadow violations {}",
                    loop_data.energy_gain() * 100.0,
                    loop_data.error_rate() * 100.0,
                    loop_data.peak_window_error_rate() * 100.0,
                    loop_data.min_voltage_mv(),
                    loop_data.shadow_violations(),
                );
            }
            if let Some(sweep) = &member.sweep {
                if let Ok(design) = self.design_for(&spec.design) {
                    let corner = spec.run.corner.resolve();
                    let summary = sweep.combined();
                    let mut cells = Vec::new();
                    for target in razorbus_core::experiments::fig5::TARGETS {
                        let v = summary.lowest_voltage_for_error_rate(design, corner, target);
                        let gain = summary.energy_gain(design, corner, v);
                        cells.push(format!(
                            "{:.0}%: {:>4.1}% @ {} mV",
                            target * 100.0,
                            gain * 100.0,
                            v.mv()
                        ));
                    }
                    println!("    static gains:  {}", cells.join("   "));
                }
            }
        }
        if let Some(digest) = &self.result.digest {
            println!();
            print!("{}", digest.table());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_all_set;
    use crate::spec::{AnalysisSpec, CornerSpec, RunSpec, SweepAxis};
    use razorbus_ctrl::GovernorSpec;

    fn member(name: &str, analysis: AnalysisSpec, corner: CornerSpec) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            design: DesignSpec::Paper,
            workload: WorkloadSpec::Suite,
            controller: ControllerSpec::paper(),
            run: RunSpec {
                corner,
                cycles_per_benchmark: 1_000,
                seed: 3,
            },
            analysis,
            sweep: vec![],
        }
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let set = ScenarioSet {
            name: "dup".to_string(),
            members: vec![
                member("a", AnalysisSpec::ClosedLoop, CornerSpec::Typical),
                member("a", AnalysisSpec::ClosedLoop, CornerSpec::Worst),
            ],
        };
        assert!(set.expand().unwrap_err().contains("duplicate"));
    }

    /// A product-free result carrying exactly `set`'s expanded specs —
    /// all [`ScenarioSetRun::reload`] checks.
    fn bare_result(set: &ScenarioSet) -> ScenarioSetResult {
        ScenarioSetResult {
            name: set.name.clone(),
            members: set
                .expand()
                .unwrap()
                .into_iter()
                .map(|spec| MemberResult {
                    spec,
                    closed_loop: None,
                    sweep: None,
                })
                .collect(),
            digest: None,
        }
    }

    #[test]
    fn reload_accepts_the_same_campaign() {
        let set = paper_all_set(1_000, 7);
        let run = ScenarioSetRun::reload(bare_result(&set), &set).unwrap();
        assert_eq!(run.result.members.len(), 8);
        assert!(run.design_for(&DesignSpec::ModifiedCoupling).is_ok());
    }

    #[test]
    fn reload_rejects_a_wrong_set_name() {
        let saved = bare_result(&paper_all_set(1_000, 7));
        let mut other = paper_all_set(1_000, 7);
        other.name = "paper-some".to_string();
        let err = ScenarioSetRun::reload(saved, &other).unwrap_err();
        assert!(err.contains("`paper-all`, not `paper-some`"), "{err}");
    }

    #[test]
    fn reload_rejects_wrong_cycles_per_benchmark() {
        let saved = bare_result(&paper_all_set(1_000, 7));
        let err = ScenarioSetRun::reload(saved, &paper_all_set(2_000, 7)).unwrap_err();
        assert!(
            err.contains("1000 cycles/benchmark, this run wants 2000"),
            "{err}"
        );
    }

    #[test]
    fn reload_rejects_a_wrong_seed() {
        let saved = bare_result(&paper_all_set(1_000, 7));
        let err = ScenarioSetRun::reload(saved, &paper_all_set(1_000, 8)).unwrap_err();
        assert!(err.contains("seed 7, this run wants 8"), "{err}");
    }

    #[test]
    fn identical_members_share_one_loop_run() {
        // Two members over the same loop + one sweep-only member: one
        // loop job carries the histogram, zero extra passes.
        let set = ScenarioSet {
            name: "shared".to_string(),
            members: vec![
                member("loop-a", AnalysisSpec::ClosedLoop, CornerSpec::Typical),
                member("loop-b", AnalysisSpec::Full, CornerSpec::Typical),
                member("sweep-only", AnalysisSpec::StaticSweep, CornerSpec::Worst),
            ],
        };
        let run = set.run().unwrap();
        let a = run.result.member("loop-a").unwrap();
        let b = run.result.member("loop-b").unwrap();
        let s = run.result.member("sweep-only").unwrap();
        // Shared loop product: bit-identical.
        assert_eq!(a.closed_loop, b.closed_loop);
        // The sweep-only member's bank came from the loop's histogram
        // (corner-independent), not a separate pass.
        assert_eq!(b.sweep, s.sweep);
        assert!(s.closed_loop.is_none());
    }

    #[test]
    fn histogram_attachment_is_member_order_independent() {
        // A sweep-only member listed *before* the loop it could ride
        // must still ride it (no redundant summary pass), producing the
        // same products as the loop-first ordering.
        let forward = ScenarioSet {
            name: "fwd".to_string(),
            members: vec![
                member("loop", AnalysisSpec::ClosedLoop, CornerSpec::Typical),
                member("sweep", AnalysisSpec::StaticSweep, CornerSpec::Typical),
            ],
        }
        .run()
        .unwrap();
        let reversed = ScenarioSet {
            name: "rev".to_string(),
            members: vec![
                member("sweep", AnalysisSpec::StaticSweep, CornerSpec::Typical),
                member("loop", AnalysisSpec::ClosedLoop, CornerSpec::Typical),
            ],
        }
        .run()
        .unwrap();
        assert_eq!(
            forward.result.member("sweep").unwrap().sweep,
            reversed.result.member("sweep").unwrap().sweep,
        );
        assert_eq!(
            forward.result.member("loop").unwrap().closed_loop,
            reversed.result.member("loop").unwrap().closed_loop,
        );
    }

    #[test]
    fn governor_sweep_produces_distinct_loops() {
        let mut spec = member("duel", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
        spec.sweep = vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Fixed(razorbus_units::Millivolts::new(1_200)),
        ])];
        let run = ScenarioSet::single(spec).run().unwrap();
        assert_eq!(run.result.members.len(), 2);
        let dvs = run.result.member("duel+threshold").unwrap();
        let fixed = run.result.member("duel+fixed-1200mV").unwrap();
        // At nominal the fixed governor gains nothing; the controller does.
        let fixed_gain = fixed.closed_loop.as_ref().unwrap().energy_gain();
        assert!(fixed_gain.abs() < 1e-9, "{fixed_gain}");
        assert!(dvs.closed_loop.as_ref().unwrap().energy_gain() >= 0.0);
    }

    #[test]
    fn shared_compiled_run_is_bit_identical_to_live_run() {
        // A governor sweep (the canonical >=2-jobs-per-trace shape) must
        // produce the exact same member results whether the executor
        // compiles the workload once and replays it, or runs every
        // member against the live trace.
        let mut spec = member("duel", AnalysisSpec::Full, CornerSpec::Typical);
        spec.run.cycles_per_benchmark = 3_000;
        spec.sweep = vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
            GovernorSpec::Fixed(razorbus_units::Millivolts::new(1_100)),
        ])];
        let set = ScenarioSet::single(spec);
        let shared = set.run_with_workers(Vec::new(), true, None).unwrap();
        let live = set.run_with_workers(Vec::new(), false, None).unwrap();
        assert_eq!(shared.result, live.result);
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        // The full job mix — a compile feeding three replays plus a
        // sweep-only summary pass — must assemble the exact same result
        // on 1 worker (pure FIFO), 2 workers (stealing active) and the
        // hardware default. Worker count is pinned via the explicit
        // parameter, so the test is immune to `RAZORBUS_THREADS`.
        let mut spec = member("pooled", AnalysisSpec::Full, CornerSpec::Typical);
        spec.run.cycles_per_benchmark = 2_000;
        spec.sweep = vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
            GovernorSpec::Fixed(razorbus_units::Millivolts::new(1_100)),
        ])];
        let set = ScenarioSet {
            name: "pooled".to_string(),
            members: vec![
                spec,
                member("sweep-only", AnalysisSpec::StaticSweep, CornerSpec::Worst),
            ],
        };
        let one = set.run_with_workers(Vec::new(), true, Some(1)).unwrap();
        let two = set.run_with_workers(Vec::new(), true, Some(2)).unwrap();
        let many = set.run_with_workers(Vec::new(), true, None).unwrap();
        assert_eq!(one.result, two.result);
        assert_eq!(one.result, many.result);
    }

    #[test]
    fn results_are_bit_identical_across_compile_chunk_sizes() {
        // The compile route must be invisible in campaign results, on
        // both sides of the stream-or-chunk rule: chunks smaller than
        // the trace (many CompileChunk continuations interleaving with
        // replays), an awkward prime, and chunks that cover a whole
        // stream (it streams) — serial and pooled. Inputs: a suite, and
        // a single-stream mixed-traffic recipe at one length below and
        // one above the 2 000-cycle chunk, whose members mix fused
        // fixed-supply replays with a closed-loop solo replay. Every
        // run must equal the live path bitwise.
        use crate::spec::{DmaProfile, IdleProfile, MixProfile, StormProfile, TrafficRecipe};
        use razorbus_units::Millivolts;
        let mut suite = member("suite", AnalysisSpec::Full, CornerSpec::Typical);
        suite.run.cycles_per_benchmark = 2_000;
        suite.sweep = vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
        ])];
        let mut recipe = member("recipe", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
        recipe.workload = WorkloadSpec::Recipe(TrafficRecipe::Mixed(MixProfile {
            dma: DmaProfile {
                mean_burst: 200,
                mean_idle: 400,
                housekeeping_permille: 10,
            },
            dma_words: 300,
            idle: IdleProfile {
                nonzero_permille: 50,
            },
            idle_words: 300,
            storm: StormProfile {
                aggression_permille: 120,
            },
            storm_words: 200,
        }));
        recipe.sweep = vec![
            SweepAxis::Cycles(vec![1_500, 2_500]),
            SweepAxis::Governors(vec![
                GovernorSpec::Threshold,
                GovernorSpec::Fixed(Millivolts::new(1_000)),
                GovernorSpec::Fixed(Millivolts::new(960)),
            ]),
        ];
        let set = ScenarioSet {
            name: "chunked".to_string(),
            members: vec![suite, recipe],
        };
        let live = set.run_full(Vec::new(), None, Some(1), 65_536).unwrap();
        for chunk in [127usize, 500, 2_000, 65_536] {
            for workers in [Some(1), Some(2), None] {
                let run = set
                    .run_full(Vec::new(), Some(DEFAULT_COMPILE_BUDGET), workers, chunk)
                    .unwrap();
                assert_eq!(live.result, run.result, "chunk {chunk}, {workers:?}");
            }
        }
    }

    #[test]
    fn seed_axis_members_share_their_seed_compile() {
        // Two governors x two seeds: each seed compiles once and serves
        // both of its governors; results equal the live path exactly.
        let mut spec = member("bands", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
        spec.run.cycles_per_benchmark = 2_000;
        spec.sweep = vec![
            SweepAxis::Seeds(vec![3, 4]),
            SweepAxis::Governors(vec![GovernorSpec::Threshold, GovernorSpec::Proportional]),
        ];
        let set = ScenarioSet::single(spec);
        let shared = set.run_with_workers(Vec::new(), true, None).unwrap();
        assert_eq!(shared.result.members.len(), 4);
        let live = set.run_with_workers(Vec::new(), false, None).unwrap();
        assert_eq!(shared.result, live.result);
        // Different seeds really produce different trajectories.
        let a = shared.result.member("bands#seed3+threshold").unwrap();
        let b = shared.result.member("bands#seed4+threshold").unwrap();
        assert_ne!(a.closed_loop, b.closed_loop);
    }

    #[test]
    fn compile_plan_shares_only_multi_user_keys_within_budget() {
        let job = |corner: CornerSpec, cycles: u64| {
            let mut m = member("m", AnalysisSpec::ClosedLoop, corner);
            m.run.cycles_per_benchmark = cycles;
            m
        };
        // Two corners over one suite: one compile key. The single-user
        // 7 k-cycle job stays live.
        let members = vec![
            job(CornerSpec::Typical, 5_000),
            job(CornerSpec::Worst, 5_000),
            job(CornerSpec::Typical, 7_000),
        ];
        let plan = Plan::new(&members, Some(DEFAULT_COMPILE_BUDGET));
        let first = plan.loop_jobs[0].summary_key();
        assert_eq!(plan.compile_jobs, vec![first]);
        assert_eq!(plan.loop_compile, vec![Some(0), Some(0), None]);
        // A zero budget compiles nothing — the executor falls back to
        // the live path — and so does no budget at all.
        assert!(Plan::new(&members, Some(0)).compile_jobs.is_empty());
        assert!(Plan::new(&members, None).compile_jobs.is_empty());
        // The budget is cumulative: once the suite's footprint is
        // spent, a second shareable key is left on the live path.
        let mut more = members.clone();
        more.push(job(CornerSpec::Worst, 7_000));
        let footprint = compiled_footprint(&first, &plan.workloads);
        assert_eq!(Plan::new(&more, Some(footprint)).compile_jobs, vec![first]);
        // A budget no memory holds saturates the footprint instead of
        // wrapping it into a small one.
        let huge = vec![
            job(CornerSpec::Typical, u64::MAX),
            job(CornerSpec::Worst, u64::MAX),
        ];
        let plan = Plan::new(&huge, Some(DEFAULT_COMPILE_BUDGET));
        assert_eq!(
            compiled_footprint(&plan.loop_jobs[0].summary_key(), &plan.workloads),
            u64::MAX
        );
        assert!(plan.compile_jobs.is_empty());
    }

    /// A fed job as a plain, comparable value (`Job` holds `Arc`s).
    #[derive(Debug, PartialEq)]
    enum Fed {
        Loop(usize),
        Compile(usize, usize),
        Summary(usize, usize),
    }

    fn fed(feed: Vec<Job>) -> Vec<Fed> {
        feed.into_iter()
            .map(|job| match job {
                Job::Loop(i) => Fed::Loop(i),
                Job::Compile(c, b) => Fed::Compile(c, b),
                Job::Summary(s, b) => Fed::Summary(s, b),
                Job::CompileChunk(..) | Job::Replay(..) | Job::FusedReplay(..) => {
                    panic!("continuations are spawned, never fed")
                }
            })
            .collect()
    }

    /// `set`'s expanded members and their plan, as `run_full` plans
    /// them; asserts that a compile or live loop reads every sweep, so
    /// the plan has no summary pass.
    fn plan_of(set: &ScenarioSet, share_compiled: bool) -> (Vec<ScenarioSpec>, Plan) {
        let members = set.expand().unwrap();
        let plan = Plan::new(&members, share_compiled.then_some(DEFAULT_COMPILE_BUDGET));
        assert!(plan.own_sweeps.is_empty());
        (members, plan)
    }

    #[test]
    fn live_loops_are_fed_before_compiles_and_summaries() {
        // paper-all: the modified bus's single-user suite loop runs
        // live and is fed first, ahead of the paper bus's suite compile
        // (shared by its typical and worst loops), one job per
        // benchmark stream.
        let (members, mut plan) = plan_of(&paper_all_set(1_000, 7), true);
        let modified = members.iter().find(|m| m.name == "fig10-modified").unwrap();
        let suite = plan
            .workloads
            .iter()
            .position(|w| *w == modified.workload)
            .unwrap();
        let live = plan
            .loop_jobs
            .iter()
            .position(|job| *job == LoopKey::of(modified, 1, suite)) // second design
            .unwrap();
        assert_eq!(plan.compile_jobs.len(), 1);
        let mut expected = vec![Fed::Loop(live)];
        expected.extend((0..Benchmark::ALL.len()).map(|b| Fed::Compile(0, b)));
        assert_eq!(fed(plan.initial_feed()), expected);

        // Each bank has one source: the paper bus's comes from its
        // suite compile, the modified bus's from its live loop, and no
        // sweep needs a pass of its own.
        let sweep_of = |name: &str| {
            let mi = members.iter().position(|m| m.name == name).unwrap();
            plan.member_sweep[mi].unwrap()
        };
        let paper = sweep_of("fig5");
        let modified_bank = sweep_of("fig10-modified");
        assert_eq!(plan.sweeps[paper], plan.compile_jobs[0]);
        assert_eq!(plan.compile_sweep, vec![Some(paper)]);
        let mut loop_sweep = vec![None; plan.loop_jobs.len()];
        loop_sweep[live] = Some(modified_bank);
        assert_eq!(plan.loop_sweep, loop_sweep);
        assert!(plan.own_sweeps.is_empty());

        // Summary passes come last, in plan order: a suite pass one job
        // per benchmark, a single-stream pass one job.
        plan.workloads.push(WorkloadSpec::Single(Benchmark::ALL[0]));
        plan.sweeps.push(SummaryKey {
            workload: plan.workloads.len() - 1,
            ..plan.compile_jobs[0]
        });
        plan.own_sweeps = vec![modified_bank, plan.sweeps.len() - 1];
        expected.extend((0..Benchmark::ALL.len()).map(|b| Fed::Summary(modified_bank, b)));
        expected.push(Fed::Summary(plan.sweeps.len() - 1, 0));
        assert_eq!(fed(plan.initial_feed()), expected);

        // Without sharing, the three suite loops all run live, in plan
        // order.
        let (_, plan) = plan_of(&paper_all_set(1_000, 7), false);
        assert_eq!(plan.loop_jobs.len(), 3);
        assert_eq!(
            fed(plan.initial_feed()),
            vec![Fed::Loop(0), Fed::Loop(1), Fed::Loop(2)]
        );

        // A Monte-Carlo campaign compiles every seed's stream and runs
        // no loop live: its feed is the compiles, in plan order.
        let set = crate::catalog::by_name("monte-carlo-dvs-1k", 1_000, 7).unwrap();
        let (_, plan) = plan_of(&set, true);
        assert_eq!(plan.compile_jobs.len(), 125);
        assert_eq!(
            fed(plan.initial_feed()),
            (0..plan.compile_jobs.len())
                .map(|c| Fed::Compile(c, 0))
                .collect::<Vec<_>>()
        );
    }

    /// Each key's first-appearance group index under `K`'s `Hash`/`Eq`.
    fn partition<K: Hash + Eq>(keys: impl IntoIterator<Item = K>) -> Vec<usize> {
        let mut groups: HashMap<K, usize> = HashMap::new();
        keys.into_iter()
            .map(|k| {
                let next = groups.len();
                *groups.entry(k).or_insert(next)
            })
            .collect()
    }

    #[test]
    fn typed_plan_keys_group_exactly_as_debug_strings() {
        // The planner once keyed its maps by `format!("{:?}")` of keys
        // holding whole workload specs; the interned keys must split
        // loop and summary jobs into the very same groups — over every
        // catalog set, over synthetic corners where `-0.0` °C and
        // `0.0` °C render (and so group) apart, over members alternating
        // between two recipes (the last-seen fast path misses every
        // time), and over suite, single-program and recipe workloads
        // at one seed.
        use crate::spec::{IdleProfile, StormProfile, TrafficRecipe};
        let mut cases: Vec<(String, Vec<ScenarioSpec>)> = crate::catalog::NAMES
            .iter()
            .map(|name| {
                let set = crate::catalog::by_name(name, 1_000, 7).unwrap();
                (set.name.clone(), set.expand().unwrap())
            })
            .collect();
        let temperatures = [-0.0, 0.0, 25.0, -0.0, 0.0, 0.1 + 0.2, 0.3, 100.0];
        let mut synthetic = member("corners", AnalysisSpec::Full, CornerSpec::Typical);
        synthetic.sweep = vec![
            SweepAxis::Corners(
                temperatures
                    .iter()
                    .map(|&t| {
                        CornerSpec::Pvt(PvtCorner::new(
                            ProcessCorner::Typical,
                            razorbus_units::Celsius::new(t),
                            IrDrop::None,
                        ))
                    })
                    .collect(),
            ),
            SweepAxis::Governors(vec![GovernorSpec::Threshold, GovernorSpec::Proportional]),
        ];
        cases.push(("synthetic corners".to_string(), synthetic.expand().unwrap()));
        let idle = WorkloadSpec::Recipe(TrafficRecipe::IdleDominated(IdleProfile {
            nonzero_permille: 50,
        }));
        let storm = WorkloadSpec::Recipe(TrafficRecipe::CrosstalkStorm(StormProfile {
            aggression_permille: 120,
        }));
        let with = |k: usize, workload: &WorkloadSpec, corner: CornerSpec, seed: u64| {
            let mut m = member(&format!("m{k}"), AnalysisSpec::Full, corner);
            m.workload = workload.clone();
            m.run.seed = seed;
            m
        };
        let alternating = (0..8)
            .map(|k| {
                let workload = [&idle, &storm][k % 2];
                with(k, workload, CornerSpec::Typical, 3 + (k / 4) as u64)
            })
            .collect();
        cases.push(("alternating recipes".to_string(), alternating));
        let single = WorkloadSpec::Single(Benchmark::Crafty);
        let kinds = [
            &WorkloadSpec::Suite,
            &single,
            &idle,
            &single,
            &WorkloadSpec::Suite,
            &idle,
        ]
        .into_iter()
        .enumerate()
        .map(|(k, workload)| {
            let corner = [CornerSpec::Typical, CornerSpec::Worst][k / 3];
            with(k, workload, corner, 3)
        })
        .collect();
        cases.push(("mixed kinds at one seed".to_string(), kinds));

        for (name, members) in &cases {
            let (_, designs) = distinct_designs(members.iter().map(|m| &m.design));
            let mut workloads = Interner::with_capacity(1);
            let keys: Vec<(LoopKey, SummaryKey)> = members
                .iter()
                .zip(designs)
                .map(|(m, d)| {
                    let w = workloads.id(&m.workload);
                    let key = LoopKey::of(m, d, w);
                    (key, key.summary_key())
                })
                .collect();
            // The old keys' Debug renderings: whole workload specs, no
            // interned ids.
            let spelled: Vec<(String, String)> = members
                .iter()
                .zip(&keys)
                .map(|(m, (l, _))| {
                    (
                        format!(
                            "{:?}",
                            (
                                l.design_idx,
                                l.corner,
                                &m.workload,
                                l.controller,
                                l.cycles,
                                l.seed
                            )
                        ),
                        format!("{:?}", (l.design_idx, &m.workload, l.cycles, l.seed)),
                    )
                })
                .collect();
            let loop_groups = partition(spelled.iter().map(|(l, _)| l));
            assert_eq!(
                partition(keys.iter().map(|(l, _)| l)),
                loop_groups,
                "loop keys of {name}"
            );
            assert_eq!(
                partition(keys.iter().map(|(_, s)| s)),
                partition(spelled.iter().map(|(_, s)| s)),
                "summary keys of {name}"
            );
            // The executor's plan numbers loop jobs by first appearance,
            // so every member's job is its group index.
            let plan = Plan::new(members, None);
            let wanted = |mi: &usize| {
                let a = members[*mi].analysis;
                a.wants_loop() || a.wants_aggregate()
            };
            let groups = partition((0..members.len()).filter(wanted).map(|mi| &spelled[mi].0));
            let jobs: Vec<usize> = plan.member_loop.iter().flatten().copied().collect();
            assert_eq!(jobs, groups, "plan of {name}");
        }

        // Members 0/1 run at -0.0 °C, 2/3 at 0.0 °C, 6/7 again at
        // -0.0 °C (two governors per corner).
        let corners = &cases[cases.len() - 3].1;
        let groups = partition(corners.iter().map(|m| LoopKey::of(m, 0, 0)));
        assert_ne!(groups[0], groups[2], "-0.0 and 0.0 must key apart");
        assert_eq!(groups[0], groups[6]);
    }

    #[test]
    fn unparsable_knobs_name_the_variable_and_value() {
        let var = "RAZORBUS_COMPILE_BUDGET_MB";
        assert_eq!(parse_knob::<usize>(var, None), Ok(None));
        assert_eq!(parse_knob::<usize>(var, Some("4".into())), Ok(Some(4)));
        for bad in ["abc", "", "-1", "2.5"] {
            let err = parse_knob::<usize>(var, Some(bad.into())).unwrap_err();
            assert!(err.contains(var), "{err}");
            assert!(err.contains(&format!("\"{bad}\"")), "{err}");
        }
    }

    #[test]
    fn compiled_footprint_matches_memory_estimate() {
        // The planner's per-cycle byte constant must track the real
        // compiled layout, or the budget gate silently skews.
        let d = DvsBusDesign::paper_default();
        let compiled =
            CompiledTrace::compile(&d, &mut razorbus_traces::Benchmark::Crafty.trace(1), 1_000);
        assert_eq!(
            compiled.memory_bytes() as u64,
            1_000 * COMPILED_BYTES_PER_CYCLE
        );
    }

    #[test]
    fn bench_slots_assemble_in_slot_order_whatever_the_fill_order() {
        let mut slots = BenchSlots::new(3);
        assert!(slots.fill(2, "c").is_none());
        assert!(slots.fill(0, "a").is_none());
        let done = slots.fill(1, "b").expect("last fill completes");
        assert_eq!(done, vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn bench_slots_reject_a_double_fill() {
        let mut slots = BenchSlots::new(2);
        slots.fill(0, "a");
        slots.fill(0, "b");
    }

    #[test]
    fn aggregate_members_fold_without_materializing() {
        // Suite members in aggregate mode: per-benchmark compile jobs
        // feed replays whose metrics fold into the digest, and no
        // products are kept. The digest is identical on every worker
        // count and on the live path (order independence through the
        // real executor).
        let mut spec = member("agg", AnalysisSpec::Aggregate, CornerSpec::Typical);
        spec.sweep = vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
        ])];
        let set = ScenarioSet::single(spec);
        let one = set.run_with_workers(Vec::new(), true, Some(1)).unwrap();
        let digest = one.result.digest.as_ref().expect("digest produced");
        assert_eq!(digest.members, 2);
        assert!(one
            .result
            .members
            .iter()
            .all(|m| m.closed_loop.is_none() && m.sweep.is_none()));
        let two = set.run_with_workers(Vec::new(), true, Some(2)).unwrap();
        assert_eq!(one.result, two.result);
        let live = set.run_with_workers(Vec::new(), false, None).unwrap();
        assert_eq!(one.result, live.result);
    }

    #[test]
    fn rerendering_a_result_rebuilds_designs() {
        let set = ScenarioSet::single(member(
            "solo",
            AnalysisSpec::ClosedLoop,
            CornerSpec::Typical,
        ));
        let run = set.run().unwrap();
        let reloaded = ScenarioSetRun::from_result(run.result.clone()).unwrap();
        assert!(reloaded.design_for(&DesignSpec::Paper).is_ok());
        assert_eq!(reloaded.result, run.result);
    }

    #[test]
    fn spec_errors_surface_cleanly() {
        // Fixed governor off the grid: Err, not panic.
        let mut spec = member("bad", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
        spec.controller.governor = GovernorSpec::Fixed(razorbus_units::Millivolts::new(905));
        assert!(ScenarioSet::single(spec).run().is_err());
        // Malformed recipe: Err, not panic.
        let mut spec = member("bad2", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
        spec.workload = WorkloadSpec::Recipe(crate::spec::TrafficRecipe::IdleDominated(
            crate::spec::IdleProfile {
                nonzero_permille: 9_999,
            },
        ));
        assert!(ScenarioSet::single(spec).run().is_err());
    }

    #[test]
    fn untabulated_corners_are_refused_before_any_job() {
        // The design tables hold 25 °C and 100 °C only; any other
        // temperature (or none) must be an `Err` naming the member and
        // the condition, in every analysis mode and from both runners —
        // never a panic inside a pool worker.
        let analyses = [
            AnalysisSpec::ClosedLoop,
            AnalysisSpec::StaticSweep,
            AnalysisSpec::Full,
            AnalysisSpec::Aggregate,
        ];
        for celsius in [50.0, f64::NAN] {
            let corner = CornerSpec::Pvt(PvtCorner::new(
                ProcessCorner::Slow,
                razorbus_units::Celsius::new(celsius),
                IrDrop::None,
            ));
            for analysis in analyses {
                let mut off = member("off-table", analysis, CornerSpec::Typical);
                off.sweep = vec![SweepAxis::Corners(vec![CornerSpec::Typical, corner])];
                let set = ScenarioSet::single(off);
                for (runner, result) in [
                    (
                        "executor",
                        set.run_full(Vec::new(), Some(u64::MAX), Some(2), 64),
                    ),
                    ("reference", set.run_reference()),
                ] {
                    let err = result.unwrap_err();
                    assert!(err.contains("`off-table@slow`"), "{runner}: {err}");
                    assert!(err.contains("Slow process"), "{runner}: {err}");
                    assert!(err.contains("not tabulated"), "{runner}: {err}");
                }
            }
        }
    }

    #[test]
    fn fused_replays_are_bit_identical_to_solo_replays() {
        // A voltage sweep crossed with two corners over one compiled
        // stream — six open-loop members sharing one trace, judged in
        // one fused pass — must produce the exact same bytes as each
        // member run solo against the live trace, at every worker count
        // and on both compile routes. A closed-loop member rides along
        // to prove mixing fused and solo replays is safe. With the
        // swept members in `Full` mode the compile also summarizes the
        // sweep, and every fixed-supply member still fuses.
        for analysis in [AnalysisSpec::ClosedLoop, AnalysisSpec::Full] {
            let mut spec = member("fused", analysis, CornerSpec::Typical);
            spec.workload = WorkloadSpec::Single(razorbus_traces::Benchmark::Crafty);
            spec.run.cycles_per_benchmark = 3_000;
            spec.sweep = vec![
                SweepAxis::Corners(vec![CornerSpec::Typical, CornerSpec::Worst]),
                SweepAxis::Voltages(crate::spec::VoltageSweep {
                    from: razorbus_units::Millivolts::new(960),
                    to: razorbus_units::Millivolts::new(1_040),
                    step: razorbus_units::Millivolts::new(40),
                }),
            ];
            let mut closed = member("closed", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
            closed.workload = WorkloadSpec::Single(razorbus_traces::Benchmark::Crafty);
            closed.run.cycles_per_benchmark = 3_000;
            let set = ScenarioSet {
                name: "fused-vs-solo".to_string(),
                members: vec![spec, closed],
            };
            let (members, plan) = plan_of(&set, true);
            assert_eq!(members.len(), 7);
            assert_eq!(plan.compile_jobs.len(), 1, "one shared compiled stream");
            let swept = analysis.wants_sweep();
            assert_eq!(plan.compile_sweep, vec![swept.then_some(0)], "{analysis:?}");
            assert!(plan.loop_sweep.iter().all(Option::is_none), "{analysis:?}");
            let groups = plan_replay_groups(&plan.replayers()[0], &plan.loop_jobs);
            assert!(
                matches!(&groups[..], [ReplayPlan::Solo(_), ReplayPlan::Fused(six)] if six.len() == 6),
                "{analysis:?}: {groups:?}"
            );
            let solo = set.run_reference().unwrap();
            for chunk in [1_000usize, 65_536] {
                for workers in [Some(1), Some(2), None] {
                    let fused = set
                        .run_full(Vec::new(), Some(DEFAULT_COMPILE_BUDGET), workers, chunk)
                        .unwrap();
                    assert_eq!(
                        solo.result, fused.result,
                        "{analysis:?}, chunk {chunk}, {workers:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_plans_partition_members_into_valid_groups() {
        // Property test over randomized member sets: the planner must
        // emit every replayer exactly once, keep closed-loop members
        // solo and never plan a fixed-supply member solo, group only
        // same-sampling open-loop members, give each sampling window one
        // group, and fix each fused member's operating point to its
        // loop key's corner and supply.
        struct Rng(u64);
        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                self.0
            }
        }
        let mut rng = Rng(0x9e37_79b9);
        let samplings = [None, Some(500u64), Some(10_000)];
        let corners = [PvtCorner::TYPICAL, PvtCorner::WORST];
        for _case in 0..200 {
            let n = (rng.next() % 12) as usize + 1;
            let mut loop_jobs = Vec::new();
            for _ in 0..n {
                let open = rng.next().is_multiple_of(2);
                let governor = if open {
                    let mv = 960 + 40 * (rng.next() % 3) as i32;
                    GovernorSpec::Fixed(razorbus_units::Millivolts::new(mv))
                } else {
                    GovernorSpec::Threshold
                };
                let sampling = samplings[(rng.next() % 3) as usize];
                loop_jobs.push(LoopKey {
                    design_idx: 0,
                    corner: corners[(rng.next() % 2) as usize],
                    workload: 0,
                    controller: ControllerSpec {
                        governor,
                        sampling,
                        ..ControllerSpec::paper()
                    },
                    cycles: 1_000,
                    seed: 3,
                });
            }
            let replayers: Vec<usize> = (0..n).collect();
            let plans = plan_replay_groups(&replayers, &loop_jobs);
            let mut seen = vec![0usize; n];
            let mut windows = HashSet::new();
            for plan in &plans {
                match plan {
                    ReplayPlan::Solo(i) => {
                        seen[*i] += 1;
                        let open =
                            matches!(loop_jobs[*i].controller.governor, GovernorSpec::Fixed(_));
                        assert!(!open, "fixed-supply member replayed solo");
                    }
                    ReplayPlan::Fused(group) => {
                        assert!(!group.is_empty());
                        let sampling = loop_jobs[group[0].0].controller.sampling;
                        assert!(windows.insert(sampling), "sampling window split");
                        for &(i, op) in group {
                            seen[i] += 1;
                            let job = &loop_jobs[i];
                            assert_eq!(
                                job.controller.governor,
                                GovernorSpec::Fixed(op.supply),
                                "fused op off its member's supply"
                            );
                            assert_eq!(op.pvt, job.corner, "fused op off its member's corner");
                            assert_eq!(job.controller.sampling, sampling);
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "not a partition: {seen:?}");
        }
    }

    #[test]
    fn monte_carlo_digest_is_identical_with_and_without_fusing() {
        // The 1k Monte-Carlo campaign is the fused path's production
        // shape: every member is an open-loop supply point sharing its
        // seed's compiled trace. Its digest (the only output an
        // Aggregate campaign keeps) must not move when nothing is
        // compiled — every member then runs unfused against the live
        // trace.
        let set = crate::catalog::by_name("monte-carlo-dvs-1k", 1_500, 7).unwrap();
        let chunk = compile_chunk_knob().unwrap();
        let fused = set
            .run_full(Vec::new(), Some(DEFAULT_COMPILE_BUDGET), Some(2), chunk)
            .unwrap();
        let unfused = set.run_full(Vec::new(), None, Some(2), chunk).unwrap();
        assert!(fused.result.digest.is_some());
        assert_eq!(fused.result, unfused.result);
    }
}
