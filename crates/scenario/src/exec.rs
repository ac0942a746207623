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
//!   and a member that only needs the sweep histogram rides along as a
//!   `with_histogram` by-product of *any* loop over the same
//!   (design, workload, cycles, seed) — the histogram is corner- and
//!   governor-independent, and bit-identical to a dedicated
//!   `TraceSummary::collect` pass (pinned in `razorbus-core`).
//!
//! The planned jobs then drain on a bounded work-stealing pool
//! ([`crate::pool`]) instead of one OS thread per job: the worker count
//! comes from `--threads` / `RAZORBUS_THREADS` / available parallelism,
//! live loops are fed ahead of compile and summary jobs, and each
//! finished compile spawns its replay continuations onto the finishing
//! worker's own deque, where idle workers steal them. Suite compiles
//! and suite summary passes split into one job per benchmark with a
//! slot-ordered merge (the last finisher assembles in
//! [`razorbus_traces::Benchmark::ALL`] order), so a small campaign's
//! parallelism is no longer capped at its member count. Every job
//! writes into a pre-assigned result slot, so scheduling order never
//! touches the output — results are bit-identical at any worker count
//! (pinned by a test below).
//!
//! Members in [`AnalysisSpec::Aggregate`] mode never materialize
//! products: as their loops complete, the executor extracts
//! [`MemberMetrics`] and folds them into one streaming
//! [`CampaignDigest`] through a rank-ordered reorder buffer
//! ([`DigestBuilder`]), keeping memory constant at Monte-Carlo scale
//! while preserving the same bit-identical-at-any-worker-count
//! contract.
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
    design_specs: Vec<DesignSpec>,
    designs: Vec<DvsBusDesign>,
    /// The persistable products.
    pub result: ScenarioSetResult,
}

/// Everything that identifies one closed-loop simulation. Compares and
/// hashes through [`LoopKey::identity`].
#[derive(Debug, Clone)]
struct LoopKey {
    design_idx: usize,
    corner: PvtCorner,
    workload: WorkloadSpec,
    controller: ControllerSpec,
    cycles: u64,
    seed: u64,
}

/// Everything that identifies one sweep histogram (corner- and
/// controller-independent).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SummaryKey {
    design_idx: usize,
    workload: WorkloadSpec,
    cycles: u64,
    seed: u64,
}

impl SummaryKey {
    fn of(m: &ScenarioSpec, design_idx: usize) -> Self {
        Self {
            design_idx,
            workload: m.workload.clone(),
            cycles: m.run.cycles_per_benchmark,
            seed: m.run.seed,
        }
    }
}

/// A [`PvtCorner`] as a hashable value: the temperature goes by its
/// bit pattern.
type CornerId = (ProcessCorner, u64, IrDrop);

impl LoopKey {
    fn of(m: &ScenarioSpec, design_idx: usize) -> Self {
        Self {
            design_idx,
            corner: m.run.corner.resolve(),
            workload: m.workload.clone(),
            controller: m.controller,
            cycles: m.run.cycles_per_benchmark,
            seed: m.run.seed,
        }
    }

    /// The fields a loop key compares and hashes by. The corner's f64
    /// temperature is keyed by `to_bits`: for every non-NaN value that
    /// groups exactly as its shortest-round-trip `Debug` rendering
    /// would, and it keeps `-0.0` apart from `0.0`.
    fn identity(&self) -> (usize, CornerId, &WorkloadSpec, ControllerSpec, u64, u64) {
        let c = self.corner;
        (
            self.design_idx,
            (c.process, c.temperature.celsius().to_bits(), c.ir),
            &self.workload,
            self.controller,
            self.cycles,
            self.seed,
        )
    }

    fn summary_key(&self) -> SummaryKey {
        SummaryKey {
            design_idx: self.design_idx,
            workload: self.workload.clone(),
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

struct LoopProduct {
    data: LoopData,
    sweep: Option<SweepData>,
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
/// the slot-ordered chunk assembly. `Compile`/`CompileBench` handlers
/// build one of these when a stream spans more than one chunk, spawn a
/// [`Job::CompileChunk`] per chunk, and the last chunk to finish
/// assembles the trace and completes the compile exactly as the
/// unchunked path would.
struct ChunkJob {
    /// Index into the plan's `compile_jobs`.
    c: usize,
    /// Suite benchmark slot for [`Job::CompileBench`] parents, `None`
    /// for single-stream compiles.
    bench: Option<usize>,
    /// `cycles + 1` words: cycle `k` reads `(words[k], words[k + 1])`.
    words: Vec<u32>,
    /// Cycles per chunk (every chunk but the last).
    chunk_cycles: usize,
    /// Per-chunk assembly slots, filled in any order, taken whole by
    /// the last finisher in chunk (= cycle) order.
    slots: Mutex<BenchSlots<CompiledChunk>>,
}

/// One schedulable unit of a campaign, indexing into the plan's job
/// vectors. [`initial_feed`] builds the pool's starting list; `Replay`s
/// are continuations a finished compile spawns for each waiting loop index,
/// and `CompileChunk`s are continuations a compile's serial drain
/// spawns for each cycle chunk — both interleave with every other job
/// on the pool.
enum Job {
    /// Drain `compile_jobs[i]`'s single-stream workload and spawn its
    /// analysis chunks (or finish directly when one chunk covers it).
    Compile(usize),
    /// Drain benchmark `b` of suite compile job `c` and spawn its
    /// analysis chunks; the last bench to finish assembles the suite
    /// and spawns its replays.
    CompileBench(usize, usize),
    /// Analyze chunk `k` of an in-flight chunked compile; the last
    /// chunk to finish assembles the trace and completes the compile.
    CompileChunk(Arc<ChunkJob>, usize),
    /// Run `loop_jobs[i]` against the live trace.
    Loop(usize),
    /// Run single-stream `summary_jobs[i]` (a histogram-only pass no
    /// loop provides).
    Summary(usize),
    /// Summarize benchmark `b` of suite summary job `s`; the last
    /// bench to finish merges the bank in `Benchmark::ALL` order.
    SummaryBench(usize, usize),
    /// Replay `loop_jobs[i]` against its shared compiled workload.
    Replay(usize, CompiledWorkload),
    /// Judge a whole group of open-loop loop jobs in one fused pass
    /// over their shared compiled stream
    /// ([`CompiledTrace::replay_fused`]).
    FusedReplay(Vec<usize>, Arc<CompiledTrace>),
}

/// How one finished compile's waiting loop jobs replay: solo
/// continuations, or fused groups judged in a single pass over the
/// stream. Fixed before the pool starts, so grouping is independent of
/// worker count and completion order.
#[derive(Debug, Clone, PartialEq)]
enum ReplayPlan {
    /// One [`Job::Replay`] continuation — closed-loop governors (their
    /// voltage trajectories are feedback-driven, so their chunk
    /// boundaries diverge per member) and histogram riders (the
    /// by-product's array increments must land in per-member collection
    /// order).
    Solo(usize),
    /// One [`Job::FusedReplay`] over these loop indices — open-loop
    /// fixed-supply members sharing the stream *and* the sampling
    /// window (shared chunk boundaries are what make the fused fold
    /// bit-identical to each solo replay).
    Fused(Vec<usize>),
}

/// Partitions one compile's waiting loop indices into replay groups.
///
/// A loop job is fusable when fusing is enabled, the workload is a
/// single stream (suite replays thread one governor across benchmarks),
/// its governor is [`GovernorSpec::Fixed`] and it carries no histogram
/// rider. Fusable jobs group by sampling window in replayer order;
/// `fanin > 0` caps the group width (first-fit, so a capped group
/// splits deterministically). Everything else replays solo, and a
/// fusable singleton still takes the fused path — one code path to
/// trust, whatever the group width.
fn plan_replay_groups(
    replayers: &[usize],
    loop_jobs: &[LoopKey],
    loop_hist: &[bool],
    stream: bool,
    fuse: bool,
    fanin: usize,
) -> Vec<ReplayPlan> {
    let mut plans = Vec::new();
    let mut groups: Vec<(Option<u64>, Vec<usize>)> = Vec::new();
    for &i in replayers {
        let job = &loop_jobs[i];
        let open_loop = matches!(job.controller.governor, GovernorSpec::Fixed(_));
        if !(fuse && stream && open_loop && !loop_hist[i]) {
            plans.push(ReplayPlan::Solo(i));
            continue;
        }
        let sampling = job.controller.sampling;
        match groups
            .iter_mut()
            .find(|(s, g)| *s == sampling && (fanin == 0 || g.len() < fanin))
        {
            Some((_, group)) => group.push(i),
            None => groups.push((sampling, vec![i])),
        }
    }
    plans.extend(groups.into_iter().map(|(_, g)| ReplayPlan::Fused(g)));
    plans
}

/// Group-width cap for fused replays (`RAZORBUS_REPLAY_FANIN`): `0` (or
/// unset) leaves groups unbounded — the whole sweep sharing a stream is
/// judged in one pass. CI pins a small value to exercise group
/// splitting; `bench_report` reads it to label its fused components
/// honestly.
///
/// # Errors
///
/// Names the variable and its value when it is set but not an unsigned
/// integer.
pub fn replay_fanin() -> Result<usize, String> {
    const VAR: &str = "RAZORBUS_REPLAY_FANIN";
    Ok(parse_knob(VAR, std::env::var_os(VAR))?.unwrap_or(0))
}

/// Whether fused replays are enabled (`RAZORBUS_NO_FUSED` unset, empty
/// or `0`). `repro --no-fused` sets the variable, forcing every member
/// onto its solo replay — the comparison baseline CI `cmp`s against the
/// fused default.
pub(crate) fn fused_replays_enabled() -> bool {
    !matches!(std::env::var("RAZORBUS_NO_FUSED"), Ok(v) if !v.is_empty() && v != "0")
}

/// Slot-ordered assembly of a suite's per-benchmark products: each
/// finishing bench job fills its pre-assigned slot, and the **last**
/// finisher takes the completed list — always in
/// [`Benchmark::ALL`] order, so the merged value is bit-identical to
/// the old serial pass regardless of completion order.
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
    /// was the last empty slot.
    fn fill(&mut self, b: usize, value: T) -> Option<Vec<T>> {
        assert!(self.slots[b].is_none(), "bench slot {b} filled twice");
        self.slots[b] = Some(value);
        self.remaining -= 1;
        (self.remaining == 0).then(|| {
            self.slots
                .iter_mut()
                .map(|s| s.take().expect("all slots filled"))
                .collect()
        })
    }
}

/// How a sweep-wanting member's product is sourced: riding a loop
/// job's histogram by-product, or a dedicated summary job.
#[derive(Clone, Copy)]
enum SweepSource {
    Loop(usize),
    Job(usize),
}

/// One loop job's result slot: `None` until the job finishes; the
/// product itself is kept only for members that materialize it.
type LoopSlot = Option<Result<Option<LoopProduct>, String>>;

/// Per-benchmark assembly slots for one suite job (`None` for stream
/// jobs, which produce their single result in one piece).
type SuiteSlots<T> = Option<Mutex<BenchSlots<T>>>;

/// Default ceiling (bytes) on the resident size of shared compiled
/// traces; above it the executor falls back to direct (live) runs so a
/// paper-scale 10 M-cycle campaign cannot exhaust memory. Override with
/// `RAZORBUS_COMPILE_BUDGET_MB`.
const DEFAULT_COMPILE_BUDGET: u64 = 768 * 1024 * 1024;

/// Per-cycle resident bytes of one compiled stream (u8 toggle, u16 bin,
/// f64 switched capacitance) — kept in sync with
/// [`CompiledTrace::memory_bytes`] by a test.
const COMPILED_BYTES_PER_CYCLE: u64 = 11;

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

/// Estimated resident bytes of compiling `key`'s workload.
fn compiled_footprint(key: &SummaryKey) -> u64 {
    let streams = match &key.workload {
        WorkloadSpec::Suite => razorbus_traces::Benchmark::ALL.len() as u64,
        WorkloadSpec::Single(_) | WorkloadSpec::Recipe(_) => 1,
    };
    streams * key.cycles * COMPILED_BYTES_PER_CYCLE
}

/// The compile plan: a (design, workload, cycles, seed) analyzed by two
/// or more loop jobs (a governor shootout, a corner sweep, `repro
/// all`'s typical+worst pair, ...) is compiled once and replayed per
/// job, so the `analyze_cycle` cost is paid once instead of N times.
/// Single-user keys stay on the live path — compiling would only add
/// work — as does anything that would blow the compiled-memory
/// `budget` (bytes).
fn plan_compile_jobs(loop_jobs: &[LoopKey], budget: u64) -> Vec<SummaryKey> {
    // Typed hash maps keep planning linear at Monte-Carlo member counts.
    let mut users: HashMap<SummaryKey, usize> = HashMap::new();
    for job in loop_jobs {
        *users.entry(job.summary_key()).or_insert(0) += 1;
    }
    let mut compile_jobs: Vec<SummaryKey> = Vec::new();
    let mut planned: HashSet<SummaryKey> = HashSet::new();
    let mut footprint = 0u64;
    for job in loop_jobs {
        let skey = job.summary_key();
        if planned.contains(&skey) || users[&skey] < 2 {
            continue;
        }
        let bytes = compiled_footprint(&skey);
        if footprint + bytes > budget {
            continue;
        }
        footprint += bytes;
        planned.insert(skey.clone());
        compile_jobs.push(skey);
    }
    compile_jobs
}

/// The deduplicated loop jobs in first-appearance order, and each
/// member's job (`None` if it needs none). A typed hash map keeps this
/// linear at Monte-Carlo member counts.
fn plan_loop_jobs(
    members: &[ScenarioSpec],
    design_idx: impl Fn(&DesignSpec) -> usize,
) -> (Vec<LoopKey>, Vec<Option<usize>>) {
    let mut loop_jobs: Vec<LoopKey> = Vec::new();
    let mut loop_idx_by_key: HashMap<LoopKey, usize> = HashMap::new();
    let mut member_loop: Vec<Option<usize>> = Vec::with_capacity(members.len());
    for m in members {
        if !(m.analysis.wants_loop() || m.analysis.wants_aggregate()) {
            member_loop.push(None);
            continue;
        }
        let key = LoopKey::of(m, design_idx(&m.design));
        let i = *loop_idx_by_key.entry(key).or_insert_with_key(|key| {
            loop_jobs.push(key.clone());
            loop_jobs.len() - 1
        });
        member_loop.push(Some(i));
    }
    (loop_jobs, member_loop)
}

/// The initial pool feed, each block in plan order: live (uncompiled)
/// loops, then compiles, then summary passes, suites split per
/// benchmark. A live loop cannot split below a whole workload — a suite
/// loop threads one governor through every benchmark — so it starts
/// first, and the compiles' stealable chunk jobs fill the pool around it.
fn initial_feed(
    loop_jobs: &[LoopKey],
    compile_jobs: &[SummaryKey],
    summary_jobs: &[SummaryKey],
) -> Vec<Job> {
    let split = |keys: &[SummaryKey], whole: fn(usize) -> Job, bench: fn(usize, usize) -> Job| {
        let per_key = |(i, key): (usize, &SummaryKey)| match key.workload {
            WorkloadSpec::Suite => (0..Benchmark::ALL.len()).map(|b| bench(i, b)).collect(),
            _ => vec![whole(i)],
        };
        Vec::from_iter(keys.iter().enumerate().flat_map(per_key))
    };
    let compiled: HashSet<&SummaryKey> = compile_jobs.iter().collect();
    (0..loop_jobs.len())
        .filter(|&i| !compiled.contains(&loop_jobs[i].summary_key()))
        .map(Job::Loop)
        .chain(split(compile_jobs, Job::Compile, Job::CompileBench))
        .chain(split(summary_jobs, Job::Summary, Job::SummaryBench))
        .collect()
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
        let mut out: Vec<ScenarioSpec> = Vec::new();
        let mut names: HashSet<String> = HashSet::new();
        for member in &self.members {
            for resolved in member.expand()? {
                if !names.insert(resolved.name.clone()) {
                    return Err(format!(
                        "scenario set `{}` expands to duplicate member `{}`",
                        self.name, resolved.name
                    ));
                }
                out.push(resolved);
            }
        }
        if out.is_empty() {
            return Err(format!("scenario set `{}` has no members", self.name));
        }
        Ok(out)
    }

    /// Executes the set: builds each unique design once, deduplicates
    /// loop runs and summary passes across members, drains the
    /// remaining jobs on the work-stealing pool, and assembles
    /// per-member results in expansion order.
    ///
    /// # Errors
    ///
    /// Propagates expansion, design-build, governor-build and trace
    /// construction errors. A malformed (but decodable) spec artifact
    /// surfaces here as an `Err`, never a panic, and so does an
    /// unparsable `RAZORBUS_REPLAY_FANIN` or
    /// `RAZORBUS_COMPILE_BUDGET_MB`, or a `RAZORBUS_THREADS` or
    /// `RAZORBUS_COMPILE_CHUNK` that is not a positive integer.
    pub fn run(&self) -> Result<ScenarioSetRun, String> {
        self.run_with_designs(Vec::new())
    }

    /// Like [`ScenarioSet::run`], with caller-supplied designs for some
    /// (or all) of the member [`DesignSpec`]s, so a caller that already
    /// holds a design skips its `BusTables::build`. Specs without a
    /// prebuilt entry are built as usual.
    ///
    /// # Errors
    ///
    /// Same as [`ScenarioSet::run`].
    pub fn run_with_designs(
        &self,
        prebuilt: Vec<(DesignSpec, DvsBusDesign)>,
    ) -> Result<ScenarioSetRun, String> {
        self.run_with_options(prebuilt, true)
    }

    /// The fully-parameterized executor entry point:
    /// `share_compiled = false` disables compiled-trace sharing, forcing
    /// every loop job onto the live `analyze_cycle` path — the
    /// comparison baseline CI uses to pin the shared path bit-identical
    /// (`repro scenario <name> --no-compiled`).
    ///
    /// # Errors
    ///
    /// Same as [`ScenarioSet::run`].
    pub fn run_with_options(
        &self,
        prebuilt: Vec<(DesignSpec, DvsBusDesign)>,
        share_compiled: bool,
    ) -> Result<ScenarioSetRun, String> {
        self.run_with_workers(prebuilt, share_compiled, None)
    }

    /// [`ScenarioSet::run_with_options`] with an explicit pool size:
    /// `workers = Some(n)` pins the executor to `n` workers, bypassing
    /// `RAZORBUS_THREADS` and the hardware default — how `bench_report`
    /// measures 1/2/N-worker scaling in one process, and how the tests
    /// pin results bit-identical across worker counts.
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
        self.run_full(
            prebuilt,
            share_compiled,
            workers,
            compile_chunk_knob()?,
            None,
            None,
        )
    }

    /// [`ScenarioSet::run_with_workers`] with an explicit compile chunk
    /// size (the `RAZORBUS_COMPILE_CHUNK` default otherwise) and
    /// explicit fused-replay controls (`fuse` overrides
    /// `RAZORBUS_NO_FUSED`, `fanin` overrides `RAZORBUS_REPLAY_FANIN`)
    /// — lets the chunk-size and fused/solo differential tests run
    /// without mutating process globals.
    fn run_full(
        &self,
        prebuilt: Vec<(DesignSpec, DvsBusDesign)>,
        share_compiled: bool,
        workers: Option<usize>,
        chunk_cycles: usize,
        fuse: Option<bool>,
        fanin: Option<usize>,
    ) -> Result<ScenarioSetRun, String> {
        let budget = compile_budget()?;
        // Resolved once: a one-worker pool also routes compiles onto
        // the streaming serial path (no chunk bookkeeping to win back).
        let n_workers = pool::worker_count(workers)?;
        let fanin = match fanin {
            Some(fanin) => fanin,
            None => replay_fanin()?,
        };
        let members = self.expand()?;

        // Unique designs, first-appearance order.
        let mut design_specs: Vec<DesignSpec> = Vec::new();
        for m in &members {
            if !design_specs.contains(&m.design) {
                design_specs.push(m.design);
            }
        }
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

        let design_idx = |spec: &DesignSpec| {
            design_specs
                .iter()
                .position(|d| d == spec)
                .expect("design collected above")
        };

        // Job plan: deduplicated loop runs, histogram attachment, and
        // summary-only passes for banks no loop can provide. Loop jobs
        // are planned over *all* members first so histogram attachment
        // is member-order-independent: a sweep-only member rides a loop
        // planned later in the set rather than spawning a redundant
        // trace pass.
        let (loop_jobs, member_loop) = plan_loop_jobs(&members, design_idx);
        let mut loop_by_skey: HashMap<SummaryKey, usize> = HashMap::new();
        for (i, job) in loop_jobs.iter().enumerate() {
            loop_by_skey.entry(job.summary_key()).or_insert(i);
        }
        let mut loop_hist = vec![false; loop_jobs.len()];
        let mut summary_jobs: Vec<SummaryKey> = Vec::new();
        let mut summary_idx_by_key: HashMap<SummaryKey, usize> = HashMap::new();
        let mut member_sweep: Vec<Option<SweepSource>> = Vec::with_capacity(members.len());
        for m in &members {
            if !m.analysis.wants_sweep() {
                member_sweep.push(None);
                continue;
            }
            let skey = SummaryKey::of(m, design_idx(&m.design));
            match loop_by_skey.get(&skey) {
                Some(&i) => {
                    loop_hist[i] = true;
                    member_sweep.push(Some(SweepSource::Loop(i)));
                }
                None => {
                    let s = *summary_idx_by_key.entry(skey).or_insert_with_key(|skey| {
                        summary_jobs.push(skey.clone());
                        summary_jobs.len() - 1
                    });
                    member_sweep.push(Some(SweepSource::Job(s)));
                }
            }
        }

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
        // Aggregate-only loop products are dropped at the fold; a job
        // is materialized only if a member keeps its data or its
        // histogram rider feeds a sweep product.
        let mut materialize = loop_hist.clone();
        for (mi, m) in members.iter().enumerate() {
            if m.analysis.wants_loop() {
                materialize[member_loop[mi].expect("loop wanted")] = true;
            }
        }

        // Build governors (and validate recipes) before spawning, so
        // every spec-level error surfaces as a clean Err.
        let mut governors: Vec<Option<BoxedGovernor>> = Vec::new();
        for job in &loop_jobs {
            let design = &designs[job.design_idx];
            governors.push(Some(job.controller.build(design, job.corner)?));
            if let WorkloadSpec::Recipe(recipe) = &job.workload {
                recipe.build_trace(job.seed)?;
            }
        }
        for job in &summary_jobs {
            if let WorkloadSpec::Recipe(recipe) = &job.workload {
                recipe.build_trace(job.seed)?;
            }
        }

        let compile_jobs = if share_compiled {
            plan_compile_jobs(&loop_jobs, budget)
        } else {
            Vec::new()
        };
        let compile_idx_by_key: HashMap<&SummaryKey, usize> = compile_jobs
            .iter()
            .enumerate()
            .map(|(c, k)| (k, c))
            .collect();
        let compiled_idx = |job: &LoopKey| compile_idx_by_key.get(&job.summary_key()).copied();

        // Which loop indices replay each compiled workload — fixed
        // before the pool starts, drained when the compile finishes.
        let mut replayers: Vec<Vec<usize>> = vec![Vec::new(); compile_jobs.len()];
        for (i, job) in loop_jobs.iter().enumerate() {
            if let Some(c) = compiled_idx(job) {
                replayers[c].push(i);
            }
        }
        // ... and how each compile's waiters replay: open-loop
        // fixed-supply members fuse into single-pass groups, everything
        // else keeps its solo continuation. Planned up front, so
        // grouping never depends on scheduling.
        let fuse = fuse.unwrap_or_else(fused_replays_enabled);
        let replay_plans: Vec<Vec<ReplayPlan>> = compile_jobs
            .iter()
            .enumerate()
            .map(|(c, key)| {
                let stream = !matches!(key.workload, WorkloadSpec::Suite);
                plan_replay_groups(&replayers[c], &loop_jobs, &loop_hist, stream, fuse, fanin)
            })
            .collect();
        // Drain the plan on the work-stealing pool, fed in
        // `initial_feed` order; a finished compile spawns one `Replay`
        // continuation per waiting loop (the compiled stream
        // `Arc`-shared, one clone per job). Suite compiles and
        // summaries split into per-benchmark jobs whose last finisher
        // assembles the slot-ordered whole. Every job
        // writes its pre-assigned slot — and aggregate metrics fold
        // through the rank-ordered `DigestBuilder` — so worker count
        // and steal order never affect the assembled result.
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
        let summaries: Mutex<Vec<Option<Result<SweepData, String>>>> =
            Mutex::new((0..summary_jobs.len()).map(|_| None).collect());
        let folder: Option<Mutex<DigestBuilder>> =
            (agg_count > 0).then(|| Mutex::new(DigestBuilder::new(&self.name)));
        let suite_compiles: Vec<SuiteSlots<Arc<CompiledTrace>>> = compile_jobs
            .iter()
            .map(|k| {
                matches!(k.workload, WorkloadSpec::Suite)
                    .then(|| Mutex::new(BenchSlots::new(Benchmark::ALL.len())))
            })
            .collect();
        let suite_summaries: Vec<SuiteSlots<(Benchmark, TraceSummary)>> = summary_jobs
            .iter()
            .map(|k| {
                matches!(k.workload, WorkloadSpec::Suite)
                    .then(|| Mutex::new(BenchSlots::new(Benchmark::ALL.len())))
            })
            .collect();

        // A finished loop (live or replayed): fold its metrics into the
        // digest for every rank it carries, then keep or drop the
        // product as planned.
        let finish_loop = |i: usize, product: Result<LoopProduct, String>| {
            let slot = match product {
                Ok(product) => {
                    if !job_agg[i].is_empty() {
                        let metrics = MemberMetrics::of(&product.data);
                        let mut folder = folder
                            .as_ref()
                            .expect("aggregate ranks imply a folder")
                            .lock()
                            .expect("digest folder");
                        for &rank in &job_agg[i] {
                            folder.submit(rank, metrics.clone());
                        }
                    }
                    Ok(materialize[i].then_some(product))
                }
                Err(e) => Err(e),
            };
            loops.lock().expect("loop results")[i] = Some(slot);
        };

        // A materialized compiled stream: hand it to the suite assembly
        // (bench compiles) or directly to the waiting replays.
        let finish_compile =
            |c: usize,
             bench: Option<usize>,
             compiled: Arc<CompiledTrace>,
             spawner: &pool::Spawner<'_, Job>| match bench {
                Some(b) => {
                    let done = suite_compiles[c]
                        .as_ref()
                        .expect("suite compile assembly")
                        .lock()
                        .expect("suite compile slots")
                        .fill(b, compiled);
                    if let Some(per) = done {
                        let workload = CompiledWorkload::Suite(per);
                        for &i in &replayers[c] {
                            spawner.spawn(Job::Replay(i, workload.clone()));
                        }
                    }
                }
                None => {
                    for plan in &replay_plans[c] {
                        match plan {
                            ReplayPlan::Solo(i) => spawner.spawn(Job::Replay(
                                *i,
                                CompiledWorkload::Stream(Arc::clone(&compiled)),
                            )),
                            ReplayPlan::Fused(group) => spawner
                                .spawn(Job::FusedReplay(group.clone(), Arc::clone(&compiled))),
                        }
                    }
                }
            };

        // A serially drained word buffer: classify it in one piece when
        // a single chunk covers it (no assembly detour), otherwise
        // spawn one `CompileChunk` continuation per chunk — stolen by
        // idle workers like any other job.
        let spawn_chunks =
            |c: usize, bench: Option<usize>, words: Vec<u32>, spawner: &pool::Spawner<'_, Job>| {
                let key = &compile_jobs[c];
                let design = &designs[key.design_idx];
                let n = words.len() - 1;
                let n_chunks = n.div_ceil(chunk_cycles.max(1));
                if n_chunks <= 1 {
                    let chunk = CompiledTrace::analyze_chunk(design, &words, 0, n);
                    let compiled =
                        Arc::new(CompiledTrace::from_chunks(design, key.cycles, vec![chunk]));
                    finish_compile(c, bench, compiled, spawner);
                    return;
                }
                let job = Arc::new(ChunkJob {
                    c,
                    bench,
                    words,
                    chunk_cycles: chunk_cycles.max(1),
                    slots: Mutex::new(BenchSlots::new(n_chunks)),
                });
                for k in 0..n_chunks {
                    spawner.spawn(Job::CompileChunk(Arc::clone(&job), k));
                }
            };

        let initial = initial_feed(&loop_jobs, &compile_jobs, &summary_jobs);
        pool::run(n_workers, initial, |job, spawner| match job {
            Job::Compile(c) => {
                let key = &compile_jobs[c];
                // One worker: no chunk parallelism to exploit, so
                // stream the compile in a single pass (no word
                // buffer, no chunk assembly) — bit-identical by the
                // chunk differentials.
                if n_workers == 1 {
                    match compile_stream_serial(&designs[key.design_idx], key) {
                        Ok(compiled) => finish_compile(c, None, Arc::new(compiled), spawner),
                        Err(e) => {
                            let mut slots = loops.lock().expect("loop results");
                            for &i in &replayers[c] {
                                slots[i] = Some(Err(e.clone()));
                            }
                        }
                    }
                    return;
                }
                match drain_stream_words(key) {
                    Ok(words) => spawn_chunks(c, None, words, spawner),
                    Err(e) => {
                        let mut slots = loops.lock().expect("loop results");
                        for &i in &replayers[c] {
                            slots[i] = Some(Err(e.clone()));
                        }
                    }
                }
            }
            Job::CompileBench(c, b) => {
                let key = &compile_jobs[c];
                if n_workers == 1 {
                    let compiled = CompiledTrace::compile(
                        &designs[key.design_idx],
                        &mut Benchmark::ALL[b].trace(key.seed),
                        key.cycles,
                    );
                    finish_compile(c, Some(b), Arc::new(compiled), spawner);
                    return;
                }
                let words =
                    CompiledTrace::drain_words(&mut Benchmark::ALL[b].trace(key.seed), key.cycles);
                spawn_chunks(c, Some(b), words, spawner);
            }
            Job::CompileChunk(job, k) => {
                let key = &compile_jobs[job.c];
                let design = &designs[key.design_idx];
                let start = k * job.chunk_cycles;
                let len = job.chunk_cycles.min(job.words.len() - 1 - start);
                let chunk = CompiledTrace::analyze_chunk(design, &job.words, start, len);
                let done = job
                    .slots
                    .lock()
                    .expect("chunk assembly slots")
                    .fill(k, chunk);
                if let Some(chunks) = done {
                    let compiled = Arc::new(CompiledTrace::from_chunks(design, key.cycles, chunks));
                    finish_compile(job.c, job.bench, compiled, spawner);
                }
            }
            Job::Loop(i) => {
                let job = &loop_jobs[i];
                let product = run_loop_job(
                    &designs[job.design_idx],
                    job,
                    take_governor(i),
                    loop_hist[i],
                );
                finish_loop(i, product);
            }
            Job::Replay(i, workload) => {
                let job = &loop_jobs[i];
                let product = run_replay_job(
                    &designs[job.design_idx],
                    job,
                    take_governor(i),
                    loop_hist[i],
                    &workload,
                );
                finish_loop(i, product);
            }
            Job::FusedReplay(group, trace) => {
                // Every member in a fused group shares the sampling
                // window and design (same compile job), differing
                // only in corner and pinned supply; the fused kernel
                // judges them all in one pass over the trace.
                let lead = &loop_jobs[group[0]];
                let design = &designs[lead.design_idx];
                let ops: Vec<FusedOp> = group
                    .iter()
                    .map(|&i| {
                        let job = &loop_jobs[i];
                        match job.controller.governor {
                            GovernorSpec::Fixed(supply) => FusedOp {
                                pvt: job.corner,
                                supply,
                            },
                            _ => unreachable!("fused groups hold only fixed-supply members"),
                        }
                    })
                    .collect();
                let reports = trace.replay_fused(design, &ops, lead.controller.sampling);
                for (&i, report) in group.iter().zip(reports) {
                    finish_loop(
                        i,
                        Ok(LoopProduct {
                            data: LoopData::Stream(StreamRun {
                                corner: loop_jobs[i].corner,
                                report,
                            }),
                            sweep: None,
                        }),
                    );
                }
            }
            Job::Summary(s) => {
                let job = &summary_jobs[s];
                summaries.lock().expect("summary results")[s] =
                    Some(run_summary_job(&designs[job.design_idx], job));
            }
            Job::SummaryBench(s, b) => {
                let key = &summary_jobs[s];
                let benchmark = Benchmark::ALL[b];
                let summary = TraceSummary::collect(
                    &designs[key.design_idx],
                    &mut benchmark.trace(key.seed),
                    key.cycles,
                );
                let done = suite_summaries[s]
                    .as_ref()
                    .expect("suite summary assembly")
                    .lock()
                    .expect("suite summary slots")
                    .fill(b, (benchmark, summary));
                if let Some(per) = done {
                    summaries.lock().expect("summary results")[s] =
                        Some(Ok(SweepData::Bank(SummaryBank::from_per_benchmark(per))));
                }
            }
        });

        let loop_products = loops
            .into_inner()
            .expect("loop results")
            .into_iter()
            .map(|p| p.expect("every loop job produced or errored"))
            .collect::<Result<Vec<_>, String>>()?;
        let summary_products = summaries
            .into_inner()
            .expect("summary results")
            .into_iter()
            .map(|p| p.expect("every summary job produced"))
            .collect::<Result<Vec<_>, String>>()?;
        let digest: Option<CampaignDigest> =
            folder.map(|f| f.into_inner().expect("digest folder").finish());

        // Assemble member results in expansion order, through the
        // member→job maps fixed at planning time.
        let mut results = Vec::with_capacity(members.len());
        for (mi, m) in members.iter().enumerate() {
            let closed_loop = if m.analysis.wants_loop() {
                let i = member_loop[mi].expect("loop job planned above");
                let product = loop_products[i]
                    .as_ref()
                    .expect("loop-wanting members materialize their job");
                Some(product.data.clone())
            } else {
                None
            };
            let sweep = match member_sweep[mi] {
                Some(SweepSource::Loop(i)) => Some(
                    loop_products[i]
                        .as_ref()
                        .expect("histogram riders materialize their job")
                        .sweep
                        .clone()
                        .expect("histogram requested on this job"),
                ),
                Some(SweepSource::Job(s)) => Some(summary_products[s].clone()),
                None => None,
            };
            results.push(MemberResult {
                spec: m.clone(),
                closed_loop,
                sweep,
            });
        }

        Ok(ScenarioSetRun {
            design_specs,
            designs,
            result: ScenarioSetResult {
                name: self.name.clone(),
                members: results,
                digest,
            },
        })
    }
}

/// Drains one shared single-stream workload's words (the serial phase
/// of a chunked compile — RNG streams stay sequential, so seeds
/// produce exactly the live path's words). Suite workloads never reach
/// here — they split into per-benchmark [`Job::CompileBench`] jobs.
fn drain_stream_words(key: &SummaryKey) -> Result<Vec<u32>, String> {
    match &key.workload {
        WorkloadSpec::Suite => unreachable!("suite compiles split into per-benchmark jobs"),
        WorkloadSpec::Single(benchmark) => Ok(CompiledTrace::drain_words(
            &mut benchmark.trace(key.seed),
            key.cycles,
        )),
        WorkloadSpec::Recipe(recipe) => {
            let mut trace = recipe.build_trace(key.seed)?;
            Ok(CompiledTrace::drain_words(&mut trace, key.cycles))
        }
    }
}

/// Compiles one single-stream workload in one streaming pass — the
/// one-worker fast path, where chunk assembly buys nothing (pinned
/// bit-identical to the chunked path by the differential tests in
/// `compile.rs` and `razorbus-core`).
fn compile_stream_serial(design: &DvsBusDesign, key: &SummaryKey) -> Result<CompiledTrace, String> {
    match &key.workload {
        WorkloadSpec::Suite => unreachable!("suite compiles split into per-benchmark jobs"),
        WorkloadSpec::Single(benchmark) => Ok(CompiledTrace::compile(
            design,
            &mut benchmark.trace(key.seed),
            key.cycles,
        )),
        WorkloadSpec::Recipe(recipe) => {
            let mut trace = recipe.build_trace(key.seed)?;
            Ok(CompiledTrace::compile(design, &mut trace, key.cycles))
        }
    }
}

/// Replays one loop job against a shared compiled workload (phase B) —
/// bit-identical to [`run_loop_job`] over the live trace, pinned by the
/// replay differential tests in `razorbus-core` and the executor tests
/// below.
fn run_replay_job(
    design: &DvsBusDesign,
    job: &LoopKey,
    governor: BoxedGovernor,
    with_hist: bool,
    workload: &CompiledWorkload,
) -> Result<LoopProduct, String> {
    match workload {
        CompiledWorkload::Suite(per) => {
            let (data, per_summaries) = fig8::replay_protocol(
                design,
                job.corner,
                per,
                governor,
                job.controller.sampling,
                with_hist,
            );
            let sweep =
                with_hist.then(|| SweepData::Bank(SummaryBank::from_per_benchmark(per_summaries)));
            Ok(LoopProduct {
                data: LoopData::Suite(data),
                sweep,
            })
        }
        CompiledWorkload::Stream(trace) => {
            let (mut report, _governor) = trace.replay(
                design,
                job.corner,
                governor,
                job.controller.sampling,
                with_hist,
            );
            let sweep = report.summary.take().map(SweepData::Summary);
            Ok(LoopProduct {
                data: LoopData::Stream(StreamRun {
                    corner: job.corner,
                    report,
                }),
                sweep,
            })
        }
    }
}

fn run_loop_job(
    design: &DvsBusDesign,
    job: &LoopKey,
    governor: BoxedGovernor,
    with_hist: bool,
) -> Result<LoopProduct, String> {
    match &job.workload {
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
            Ok(LoopProduct {
                data: LoopData::Suite(data),
                sweep,
            })
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
) -> LoopProduct {
    let mut sim = BusSimulator::new(design, job.corner, trace, governor);
    if let Some(window) = job.controller.sampling {
        sim = sim.with_sampling(window);
    }
    if with_hist {
        sim = sim.with_histogram();
    }
    let mut report = sim.run(job.cycles);
    let sweep = report.summary.take().map(SweepData::Summary);
    LoopProduct {
        data: LoopData::Stream(StreamRun {
            corner: job.corner,
            report,
        }),
        sweep,
    }
}

fn run_summary_job(design: &DvsBusDesign, job: &SummaryKey) -> Result<SweepData, String> {
    match &job.workload {
        WorkloadSpec::Suite => unreachable!("suite summaries split into per-benchmark jobs"),
        WorkloadSpec::Single(benchmark) => {
            let mut trace = benchmark.trace(job.seed);
            Ok(SweepData::Summary(TraceSummary::collect(
                design, &mut trace, job.cycles,
            )))
        }
        WorkloadSpec::Recipe(recipe) => {
            let mut trace = recipe.build_trace(job.seed)?;
            Ok(SweepData::Summary(TraceSummary::collect(
                design, &mut trace, job.cycles,
            )))
        }
    }
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
        let mut design_specs: Vec<DesignSpec> = Vec::new();
        for m in &result.members {
            if !design_specs.contains(&m.spec.design) {
                design_specs.push(m.spec.design);
            }
        }
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
        let shared = set.run_with_options(Vec::new(), true).unwrap();
        let live = set.run_with_options(Vec::new(), false).unwrap();
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
        // The chunked compile path must be invisible in campaign
        // results: a chunk smaller than the trace (many CompileChunk
        // continuations interleaving with replays), an awkward prime,
        // and the 64k default (one chunk covers everything — the
        // unchunked fast path) all assemble the same bytes, serial and
        // pooled.
        let mut spec = member("chunked", AnalysisSpec::Full, CornerSpec::Typical);
        spec.run.cycles_per_benchmark = 2_000;
        spec.sweep = vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
        ])];
        let set = ScenarioSet::single(spec);
        let baseline = set
            .run_full(Vec::new(), true, Some(1), 65_536, None, None)
            .unwrap();
        for chunk in [127usize, 500] {
            for workers in [Some(1), Some(2), None] {
                let run = set
                    .run_full(Vec::new(), true, workers, chunk, None, None)
                    .unwrap();
                assert_eq!(baseline.result, run.result, "chunk {chunk}, {workers:?}");
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
        let shared = set.run_with_options(Vec::new(), true).unwrap();
        assert_eq!(shared.result.members.len(), 4);
        let live = set.run_with_options(Vec::new(), false).unwrap();
        assert_eq!(shared.result, live.result);
        // Different seeds really produce different trajectories.
        let a = shared.result.member("bands#seed3+threshold").unwrap();
        let b = shared.result.member("bands#seed4+threshold").unwrap();
        assert_ne!(a.closed_loop, b.closed_loop);
    }

    #[test]
    fn compile_plan_shares_only_multi_user_keys_within_budget() {
        let job = |corner: PvtCorner, cycles: u64| LoopKey {
            design_idx: 0,
            corner,
            workload: WorkloadSpec::Suite,
            controller: ControllerSpec::paper(),
            cycles,
            seed: 3,
        };
        // Two corners over one suite: one compile key. The single-user
        // 7 k-cycle job stays live.
        let jobs = [
            job(PvtCorner::TYPICAL, 5_000),
            job(PvtCorner::WORST, 5_000),
            job(PvtCorner::TYPICAL, 7_000),
        ];
        let plan = plan_compile_jobs(&jobs, DEFAULT_COMPILE_BUDGET);
        assert_eq!(plan, vec![jobs[0].summary_key()]);
        // A zero budget compiles nothing — the executor falls back to
        // the live path (which `run_with_options(.., false)` pins
        // bit-identical to the shared one above).
        assert!(plan_compile_jobs(&jobs, 0).is_empty());
        // The budget is cumulative: once the suite's footprint is
        // spent, a second shareable key is left on the live path.
        let mut more = jobs.to_vec();
        more.push(job(PvtCorner::WORST, 7_000));
        let footprint = compiled_footprint(&jobs[0].summary_key());
        let tight = plan_compile_jobs(&more, footprint);
        assert_eq!(tight, vec![jobs[0].summary_key()]);
    }

    /// A fed job as a plain, comparable value (`Job` holds `Arc`s).
    #[derive(Debug, PartialEq)]
    enum Fed {
        Loop(usize),
        Compile(usize),
        CompileBench(usize, usize),
        Summary(usize),
        SummaryBench(usize, usize),
    }

    fn fed(feed: Vec<Job>) -> Vec<Fed> {
        feed.into_iter()
            .map(|job| match job {
                Job::Loop(i) => Fed::Loop(i),
                Job::Compile(c) => Fed::Compile(c),
                Job::CompileBench(c, b) => Fed::CompileBench(c, b),
                Job::Summary(s) => Fed::Summary(s),
                Job::SummaryBench(s, b) => Fed::SummaryBench(s, b),
                Job::CompileChunk(..) | Job::Replay(..) | Job::FusedReplay(..) => {
                    panic!("continuations are spawned, never fed")
                }
            })
            .collect()
    }

    /// `set`'s expanded members, loop plan and compile plan, as
    /// `run_full` plans them; asserts that every sweep rides a loop, so
    /// the plan has no summary job.
    fn plan_of(
        set: &ScenarioSet,
        share_compiled: bool,
    ) -> (Vec<ScenarioSpec>, Vec<LoopKey>, Vec<SummaryKey>) {
        let members = set.expand().unwrap();
        let mut designs: Vec<DesignSpec> = Vec::new();
        for m in &members {
            if !designs.contains(&m.design) {
                designs.push(m.design);
            }
        }
        let design_idx = |d: &DesignSpec| designs.iter().position(|s| s == d).unwrap();
        let (loops, _) = plan_loop_jobs(&members, design_idx);
        let skeys: HashSet<SummaryKey> = loops.iter().map(LoopKey::summary_key).collect();
        assert!(members
            .iter()
            .filter(|m| m.analysis.wants_sweep())
            .all(|m| skeys.contains(&SummaryKey::of(m, design_idx(&m.design)))));
        let compiles = if share_compiled {
            plan_compile_jobs(&loops, DEFAULT_COMPILE_BUDGET)
        } else {
            Vec::new()
        };
        (members, loops, compiles)
    }

    #[test]
    fn live_loops_are_fed_before_compiles_and_summaries() {
        // paper-all: the modified bus's single-user suite loop runs
        // live and is fed first, ahead of the paper bus's suite compile
        // (shared by its typical and worst loops), split per benchmark.
        let (members, loops, compiles) = plan_of(&paper_all_set(1_000, 7), true);
        let modified = members.iter().find(|m| m.name == "fig10-modified").unwrap();
        let live = loops
            .iter()
            .position(|job| *job == LoopKey::of(modified, 1)) // second design
            .unwrap();
        assert_eq!(compiles.len(), 1);
        let mut expected = vec![Fed::Loop(live)];
        expected.extend((0..Benchmark::ALL.len()).map(|b| Fed::CompileBench(0, b)));
        assert_eq!(fed(initial_feed(&loops, &compiles, &[])), expected);

        // Summary passes come last, in plan order: a suite pass split
        // per benchmark, a single-stream pass whole.
        let single = SummaryKey {
            workload: WorkloadSpec::Single(Benchmark::ALL[0]),
            ..compiles[0].clone()
        };
        let summaries = [loops[live].summary_key(), single];
        expected.extend((0..Benchmark::ALL.len()).map(|b| Fed::SummaryBench(0, b)));
        expected.push(Fed::Summary(1));
        assert_eq!(fed(initial_feed(&loops, &compiles, &summaries)), expected);

        // Without sharing, the three suite loops all run live, in plan
        // order.
        let (_, loops, compiles) = plan_of(&paper_all_set(1_000, 7), false);
        assert_eq!(loops.len(), 3);
        assert_eq!(
            fed(initial_feed(&loops, &compiles, &[])),
            vec![Fed::Loop(0), Fed::Loop(1), Fed::Loop(2)]
        );

        // A Monte-Carlo campaign compiles every seed's stream and runs
        // no loop live: its feed is the compiles, in plan order.
        let set = crate::catalog::by_name("monte-carlo-dvs-1k", 1_000, 7).unwrap();
        let (_, loops, compiles) = plan_of(&set, true);
        assert_eq!(compiles.len(), 125);
        assert_eq!(
            fed(initial_feed(&loops, &compiles, &[])),
            (0..compiles.len()).map(Fed::Compile).collect::<Vec<_>>()
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
        // The planner once keyed its maps by `format!("{:?}")`; the
        // typed keys must split loop and summary jobs into the very
        // same groups — over every catalog set, and over synthetic
        // corners where `-0.0` °C and `0.0` °C render (and so group)
        // apart.
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

        for (name, members) in &cases {
            let mut designs: Vec<DesignSpec> = Vec::new();
            let keys: Vec<(LoopKey, SummaryKey)> = members
                .iter()
                .map(|m| {
                    let d = designs
                        .iter()
                        .position(|s| *s == m.design)
                        .unwrap_or_else(|| {
                            designs.push(m.design);
                            designs.len() - 1
                        });
                    (LoopKey::of(m, d), SummaryKey::of(m, d))
                })
                .collect();
            let loops = || keys.iter().map(|(l, _)| l);
            let sums = || keys.iter().map(|(_, s)| s);
            assert_eq!(
                partition(loops()),
                partition(loops().map(|k| format!("{k:?}"))),
                "loop keys of {name}"
            );
            assert_eq!(
                partition(sums()),
                partition(sums().map(|k| format!("{k:?}"))),
                "summary keys of {name}"
            );
        }

        // Members 0/1 run at -0.0 °C, 2/3 at 0.0 °C, 6/7 again at
        // -0.0 °C (two governors per corner).
        let groups = partition(cases.last().unwrap().1.iter().map(|m| LoopKey::of(m, 0)));
        assert_ne!(groups[0], groups[2], "-0.0 and 0.0 must key apart");
        assert_eq!(groups[0], groups[6]);
    }

    #[test]
    fn unparsable_knobs_name_the_variable_and_value() {
        let var = "RAZORBUS_REPLAY_FANIN";
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
    fn fused_replays_are_bit_identical_to_solo_replays() {
        // The tentpole differential: a voltage sweep crossed with two
        // corners over one compiled stream — six open-loop members
        // sharing one trace — must produce the exact same bytes whether
        // the executor judges them one fused pass, capped fused groups,
        // or solo replays, at every worker count. Closed-loop members
        // ride along to prove mixing fused and solo paths is safe.
        let mut spec = member("fused", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
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
        let chunk = compile_chunk_knob().unwrap();
        let solo = set
            .run_full(Vec::new(), true, Some(1), chunk, Some(false), None)
            .unwrap();
        for fanin in [0usize, 1, 2] {
            for workers in [Some(1), Some(2), None] {
                let fused = set
                    .run_full(Vec::new(), true, workers, chunk, Some(true), Some(fanin))
                    .unwrap();
                assert_eq!(
                    solo.result, fused.result,
                    "fan-in {fanin}, workers {workers:?}"
                );
            }
        }
    }

    #[test]
    fn replay_plans_partition_members_into_valid_groups() {
        // Property test over randomized member sets: the planner must
        // emit every replayer exactly once, keep closed-loop and
        // histogram-carrying members solo, group only same-sampling
        // open-loop members, and respect the fan-in cap.
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
        for _case in 0..200 {
            let n = (rng.next() % 12) as usize + 1;
            let mut loop_jobs = Vec::new();
            let mut loop_hist = Vec::new();
            for _ in 0..n {
                let open = rng.next().is_multiple_of(2);
                let governor = if open {
                    GovernorSpec::Fixed(razorbus_units::Millivolts::new(1_000))
                } else {
                    GovernorSpec::Threshold
                };
                let sampling = samplings[(rng.next() % 3) as usize];
                loop_jobs.push(LoopKey {
                    design_idx: 0,
                    corner: PvtCorner::TYPICAL,
                    workload: WorkloadSpec::Single(razorbus_traces::Benchmark::Crafty),
                    controller: ControllerSpec {
                        governor,
                        sampling,
                        ..ControllerSpec::paper()
                    },
                    cycles: 1_000,
                    seed: 3,
                });
                loop_hist.push(rng.next().is_multiple_of(4));
            }
            let replayers: Vec<usize> = (0..n).collect();
            for fanin in [0usize, 1, 3] {
                let plans =
                    plan_replay_groups(&replayers, &loop_jobs, &loop_hist, true, true, fanin);
                let mut seen = vec![0usize; n];
                for plan in &plans {
                    match plan {
                        ReplayPlan::Solo(i) => seen[*i] += 1,
                        ReplayPlan::Fused(group) => {
                            assert!(!group.is_empty());
                            if fanin > 0 {
                                assert!(group.len() <= fanin, "fan-in cap violated");
                            }
                            let sampling = loop_jobs[group[0]].controller.sampling;
                            for &i in group {
                                seen[i] += 1;
                                assert!(
                                    matches!(
                                        loop_jobs[i].controller.governor,
                                        GovernorSpec::Fixed(_)
                                    ),
                                    "closed-loop member fused"
                                );
                                assert!(!loop_hist[i], "histogram member fused");
                                assert_eq!(loop_jobs[i].controller.sampling, sampling);
                            }
                        }
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "not a partition: {seen:?}");
                // Solo-only modes collapse everything to solo plans.
                for no_fuse in [
                    plan_replay_groups(&replayers, &loop_jobs, &loop_hist, true, false, fanin),
                    plan_replay_groups(&replayers, &loop_jobs, &loop_hist, false, true, fanin),
                ] {
                    assert_eq!(no_fuse.len(), n);
                    assert!(no_fuse.iter().all(|p| matches!(p, ReplayPlan::Solo(_))));
                }
            }
        }
    }

    #[test]
    fn monte_carlo_digest_is_identical_with_and_without_fusing() {
        // The 1k Monte-Carlo campaign is the fused path's production
        // shape: every member is an open-loop supply point sharing its
        // seed's compiled trace. Its digest (the only output an
        // Aggregate campaign keeps) must not move when fusing is
        // disabled or the fan-in is pinned small.
        let set = crate::catalog::by_name("monte-carlo-dvs-1k", 1_500, 7).unwrap();
        let chunk = compile_chunk_knob().unwrap();
        let fused = set
            .run_full(Vec::new(), true, Some(2), chunk, Some(true), Some(0))
            .unwrap();
        let capped = set
            .run_full(Vec::new(), true, Some(2), chunk, Some(true), Some(2))
            .unwrap();
        let solo = set
            .run_full(Vec::new(), true, Some(2), chunk, Some(false), None)
            .unwrap();
        assert!(fused.result.digest.is_some());
        assert_eq!(fused.result, solo.result);
        assert_eq!(fused.result, capped.result);
    }
}
