//! The scenario executor: sweep expansion → deduplicated job plan →
//! work-stealing pool → per-member results.
//!
//! A run is two steps. Planning is total: it expands the set and
//! refuses every bad spec — an untabulated corner, a design that does
//! not build, a malformed recipe, a governor off the design grid —
//! naming the first member that needs it, before any job exists. The
//! plan also fixes everything the run needs: built designs, checked
//! recipes and governor configurations, each member's jobs, aggregate
//! ranks, the compile plan and each compile's replay groups. Executing
//! the plan then cannot fail on a spec; worker count and compile chunk
//! size change only the route a compile takes, never the plan.
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
//!   bit-identical (pinned in `razorbus-core`). A windowed product
//!   ([`AnalysisSpec::WindowedSweep`], Fig. 6's input) always takes a
//!   pass of its own, one `WindowedSummary::collect` job: each window
//!   reads one more word than it has cycles, so no other pass holds
//!   its windows.
//! * **Words** — a key with a single loop (`paper-all`'s §6 modified
//!   bus) whose words a compile already reads, on a design of the same
//!   layout, rides that compile as its *co-analysis*: the compile drains
//!   the words once and classifies each cycle for both designs in one
//!   [`CompiledTrace::compile_each`] / `analyze_chunk_each` kernel pass,
//!   instead of a second, live pass over the same words.
//!
//! The planned jobs drain on a bounded work-stealing pool
//! ([`crate::pool`]; workers from `--threads` / `RAZORBUS_THREADS` /
//! available parallelism): live loops are fed ahead of compile and
//! summary jobs, and each finished compile spawns its replays onto the
//! finishing worker's own deque, where idle workers steal them. A suite
//! is ten streams, one per benchmark: compiles and summary passes run
//! one job per stream, summaries with a slot-ordered merge (the last
//! finisher assembles in [`razorbus_traces::Benchmark::ALL`] order). A
//! suite loop replays each compiled stream as it lands, through an
//! in-order window that holds the streams its governor has not reached
//! yet and drops each one once every loop has replayed it. A compile
//! stream streams in one pass when its stream fits in one chunk or at
//! least `workers − 1` compile streams are fed after it (so always on
//! one worker), and otherwise splits into chunk jobs. Open-loop
//! fixed-supply members replaying one compiled stream at one sampling
//! window are judged together in a single fused pass. Every job writes
//! into a pre-assigned result slot, so scheduling order never touches
//! the output.
//!
//! Members in [`AnalysisSpec::Aggregate`] mode never materialize
//! products: as their loops complete, the executor extracts
//! [`MemberMetrics`] and folds them into one streaming
//! [`CampaignDigest`] through a rank-ordered reorder buffer
//! ([`DigestBuilder`]), keeping memory constant at Monte-Carlo scale.
//! No worker waits on that fold, in the suite window's way: a job
//! extracts its metrics outside any lock, posts them to an inbox under
//! a short lock and `try_lock`s the builder. The winner folds the inbox
//! and looks at it again after letting go, so a post that lost the race
//! is folded by the worker that won it; the pool's last posts are
//! folded before `execute` returns.
//!
//! None of this sharing may show in the output: under any worker
//! count, compile chunk size and compile budget, a campaign equals
//! [`ScenarioSet::run_reference`] — every member run alone, serially
//! and live — bit for bit. One property test in [`crate::reference`]
//! pins that over generated sets.
//!
//! [`AnalysisSpec::Aggregate`]: crate::AnalysisSpec::Aggregate
//! [`AnalysisSpec::WindowedSweep`]: crate::AnalysisSpec::WindowedSweep
//! [`CampaignDigest`]: crate::CampaignDigest

use crate::aggregate::{DigestBuilder, MemberMetrics};
use crate::pool;
use crate::result::{LoopData, MemberResult, ScenarioSetResult, StreamRun, SweepData};
use crate::spec::{CheckedRecipe, ControllerSpec, DesignSpec, ScenarioSpec, WorkloadSpec};
use razorbus_core::experiments::fig8::{self, SuiteCursor};
use razorbus_core::experiments::{fig6::WINDOW_LEN, SummaryBank};
use razorbus_core::{
    compile_chunk_knob, parse_knob, BusSimulator, CompiledChunk, CompiledTrace, DvsBusDesign,
    FusedOp, TraceSummary, WindowedSummary,
};
use razorbus_ctrl::{BoxedGovernor, ControllerConfig, GovernorSpec};
use razorbus_process::{IrDrop, ProcessCorner, PvtCorner};
use razorbus_traces::{Benchmark, TraceSource};
use razorbus_units::Celsius;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

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

/// Everything that identifies one closed-loop simulation, as 32 bytes
/// of integers: the design, corner, workload and controller are
/// indices into the plan's distinct values of each, in
/// first-appearance order. An index is below the member count, which
/// a plan holding every member's spec keeps far under `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LoopKey {
    design_idx: u32,
    /// Index into the plan's interned corners.
    corner: u32,
    /// Index into the plan's interned workloads.
    workload: u32,
    /// Index into the plan's interned controllers.
    controller: u32,
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

/// A [`PvtCorner`] as a hashable value: the f64 temperature goes by
/// its bit pattern. For every non-NaN value that groups exactly as its
/// shortest-round-trip `Debug` rendering would, and it keeps `-0.0`
/// apart from `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CornerId(ProcessCorner, u64, IrDrop);

impl CornerId {
    fn of(c: PvtCorner) -> Self {
        Self(c.process, c.temperature.celsius().to_bits(), c.ir)
    }

    fn pvt(self) -> PvtCorner {
        PvtCorner::new(self.0, Celsius::new(f64::from_bits(self.1)), self.2)
    }
}

impl LoopKey {
    fn summary_key(&self) -> SummaryKey {
        SummaryKey {
            design_idx: self.design_idx as usize,
            workload: self.workload as usize,
            cycles: self.cycles,
            seed: self.seed,
        }
    }
}

impl SummaryKey {
    fn of(m: &ScenarioSpec, design_idx: usize, workload: usize) -> Self {
        Self {
            design_idx,
            workload,
            cycles: m.run.cycles_per_benchmark,
            seed: m.run.seed,
        }
    }

    /// The words the key reads, whatever the design: its workload,
    /// cycles and seed.
    fn words(&self) -> (usize, u64, u64) {
        (self.workload, self.cycles, self.seed)
    }
}

/// The interners' hasher: Fx (rustc's), one rotate, xor and multiply
/// per word, with no per-map random seed to draw. Plan keys are a few
/// integers per member; a spec crafted to collide them slows planning
/// no more than the simulation work any spec can already ask for.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Dense ids in first-appearance order: equal values share an id. A
/// run of equal values costs one comparison each instead of a hash.
/// The map grows as values arrive: reserving a slot per member up
/// front numbered `mc-10k-short`'s 10 000 distinct loop keys slower
/// (docs/performance.md, "Planning").
struct Interner<T> {
    ids: HashMap<T, usize, BuildHasherDefault<FxHasher>>,
    values: Vec<T>,
    last: Option<usize>,
}

impl<T: Hash + Eq + Clone> Interner<T> {
    fn new() -> Self {
        Self {
            ids: HashMap::default(),
            values: Vec::new(),
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

/// A workload whose streams open at any seed without error: the plan
/// checks a recipe's parameters once, when it first meets the recipe.
#[derive(Debug, Clone, PartialEq)]
enum Workload {
    Suite,
    Single(Benchmark),
    Recipe(CheckedRecipe),
}

impl Workload {
    fn check(spec: &WorkloadSpec) -> Result<Self, String> {
        Ok(match spec {
            WorkloadSpec::Suite => Self::Suite,
            WorkloadSpec::Single(benchmark) => Self::Single(*benchmark),
            WorkloadSpec::Recipe(recipe) => Self::Recipe(recipe.check()?),
        })
    }

    /// The streams the workload compiles and summarizes as: one per
    /// benchmark for a suite, one for anything else.
    fn streams(&self) -> usize {
        match self {
            Self::Suite => Benchmark::ALL.len(),
            Self::Single(_) | Self::Recipe(_) => 1,
        }
    }

    /// Stream `stream` at `seed`: benchmark `stream` of a suite, or a
    /// single workload's only stream.
    fn open(&self, seed: u64, stream: usize) -> Box<dyn TraceSource + Send> {
        match self {
            Self::Suite => Box::new(Benchmark::ALL[stream].trace(seed)),
            Self::Single(benchmark) => Box::new(benchmark.trace(seed)),
            Self::Recipe(recipe) => recipe.open(seed),
        }
    }
}

/// A chunked compile in flight: the serially drained word buffer plus
/// the slot-ordered chunk assembly. The [`Job::Compile`] handler builds
/// one of these when a stream spans more than one chunk on a pool of
/// more than one worker, spawns a [`Job::CompileChunk`] per chunk, and
/// the last chunk to finish assembles the stream, once per analysis,
/// and completes it exactly as the streaming route would.
struct ChunkJob {
    /// The compile (index into the plan's `compile_jobs`) and its
    /// stream (a suite's benchmark slot, or 0 for a single stream).
    c: usize,
    stream: usize,
    /// `cycles + 1` words: cycle `k` reads `(words[k], words[k + 1])`.
    words: Vec<u32>,
    /// Per-chunk assembly slots, one chunk per analysis, filled in any
    /// order, taken whole by the last finisher in chunk (= cycle) order.
    slots: BenchSlots<Vec<CompiledChunk>>,
}

/// One schedulable unit of a campaign, indexing into the plan's job
/// vectors. [`Plan::initial_feed`] builds the pool's starting list; `Replay`s
/// and `Land`s are continuations a finished compile spawns for each
/// waiting loop index or suite window,
/// and `CompileChunk`s are continuations a compile's serial drain
/// spawns for each cycle chunk — both interleave with every other job
/// on the pool. A suite's compiles and summaries are ten jobs, one per
/// benchmark stream; any other workload's are one job on stream 0.
enum Job<'p> {
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
    /// Collect windowed sweep `sweeps[s]` in a pass of its own.
    Windows(usize),
    /// Replay `loop_jobs[i]` against its shared compiled stream.
    Replay(usize, Arc<CompiledTrace>),
    /// Land compiled stream `b` of a suite in window `w`, replaying
    /// it and every stream ready after it if the window's loop needs
    /// it next.
    Land(usize, usize, Arc<CompiledTrace>),
    /// Judge a whole group of open-loop loop jobs, each with its fixed
    /// operating point, in one fused pass over their shared compiled
    /// stream ([`CompiledTrace::replay_fused`]).
    FusedReplay(&'p FusedGroup, Arc<CompiledTrace>),
}

/// Loop indices judged in one fused pass, and index for index the fixed
/// operating point the planner read off each one's loop key — the slice
/// [`CompiledTrace::replay_fused`] takes.
#[derive(Debug, Clone, PartialEq)]
struct FusedGroup {
    loops: Vec<usize>,
    ops: Vec<FusedOp>,
}

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
/// `point` gives a loop's corner and controller.
fn plan_replay_groups(
    replayers: &[usize],
    point: impl Fn(usize) -> (PvtCorner, ControllerSpec),
) -> Vec<ReplayPlan> {
    let mut plans = Vec::new();
    let mut groups: Vec<(Option<u64>, FusedGroup)> = Vec::new();
    for &i in replayers {
        let (pvt, controller) = point(i);
        let sampling = controller.sampling;
        let GovernorSpec::Fixed(supply) = controller.governor else {
            plans.push(ReplayPlan::Solo(i));
            continue;
        };
        let k = (groups.iter().position(|(s, _)| *s == sampling)).unwrap_or_else(|| {
            // Reserved whole: grown by doubling, a 10 000-member plan's
            // groups leave freed fragments that raised the peak heap of
            // back-to-back campaigns by ~0.4 MB.
            let n = replayers.len();
            let (loops, ops) = (Vec::with_capacity(n), Vec::with_capacity(n));
            groups.push((sampling, FusedGroup { loops, ops }));
            groups.len() - 1
        });
        let group = &mut groups[k].1;
        group.loops.push(i);
        group.ops.push(FusedOp { pvt, supply });
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
struct BenchSlots<T>(Mutex<(Vec<Option<T>>, usize)>);

impl<T> BenchSlots<T> {
    fn new(n: usize) -> Self {
        Self(Mutex::new(((0..n).map(|_| None).collect(), n)))
    }

    /// Fills slot `b`, returning the full slot-ordered list when this
    /// was the last empty slot. The list reuses the slots' own buffer
    /// (a `map` collects in place, a `flatten` would not), allocated
    /// where the slots were built, so the finishing worker allocates
    /// nothing that outlives its job in its own heap.
    fn fill(&self, b: usize, value: T) -> Option<Vec<T>> {
        let (slots, remaining) = &mut *self.0.lock().expect("bench slots");
        assert!(slots[b].is_none(), "bench slot {b} filled twice");
        slots[b] = Some(value);
        *remaining -= 1;
        (*remaining == 0).then(|| {
            let slots = std::mem::take(slots).into_iter();
            slots.map(|s| s.expect("all slots filled")).collect()
        })
    }
}

/// A result table the pool fills slot by slot from any worker: the last
/// fill parks the slot-ordered list, which [`Table::into_vec`] hands
/// back once the pool has drained.
struct Table<T> {
    slots: BenchSlots<T>,
    done: OnceLock<Vec<T>>,
}

impl<T> Table<T> {
    fn new(n: usize) -> Self {
        let (slots, done) = (BenchSlots::new(n), OnceLock::new());
        Self { slots, done }
    }

    fn fill(&self, k: usize, value: T) {
        if let Some(all) = self.slots.fill(k, value) {
            // Only the last fill completes the slots: the one `set`.
            let _ = self.done.set(all);
        }
    }

    fn into_vec(self) -> Vec<T> {
        self.done.into_inner().unwrap_or_default()
    }
}

/// Default ceiling (bytes) on the resident size of shared compiled
/// traces; above it the executor falls back to direct (live) runs so a
/// paper-scale 10 M-cycle campaign cannot exhaust memory. Override with
/// `RAZORBUS_COMPILE_BUDGET_MB`.
pub(crate) const DEFAULT_COMPILE_BUDGET: u64 = 768 * 1024 * 1024;

/// Per-cycle resident bytes of one compiled stream (u8 toggle, u16 bin,
/// f64 switched capacitance) — kept in sync with
/// [`CompiledTrace::memory_bytes`] by a test.
pub(crate) const COMPILED_BYTES_PER_CYCLE: u64 = 11;

/// The environment variable behind [`compile_budget`].
const BUDGET_VAR: &str = "RAZORBUS_COMPILE_BUDGET_MB";

/// The compiled-trace budget in bytes.
///
/// # Errors
///
/// Names the variable and its value when it is set but not an unsigned
/// integer, or too large for a byte count.
pub(crate) fn compile_budget() -> Result<u64, String> {
    match parse_knob::<u64>(BUDGET_VAR, std::env::var_os(BUDGET_VAR))? {
        None => Ok(DEFAULT_COMPILE_BUDGET),
        Some(mb) => mb
            .checked_mul(1024 * 1024)
            .ok_or_else(|| format!("{BUDGET_VAR}={mb} overflows a byte count")),
    }
}

/// Estimated resident bytes of compiling `key`'s workload, saturating
/// for budgets no memory holds.
fn compiled_footprint(key: &SummaryKey, workloads: &[Workload]) -> u64 {
    let streams = workloads[key.workload].streams() as u64;
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

/// A plan's loops, numbered over its members.
struct Loops {
    /// The distinct corners and controllers, first-appearance order:
    /// loop keys index them.
    corners: Vec<CornerId>,
    controllers: Vec<ControllerSpec>,
    /// The distinct loop keys, first-appearance order.
    keys: Vec<LoopKey>,
    /// Each loop's governor setting: its (design, corner, controller),
    /// numbered by first appearance over the loops, so each distinct
    /// setting is configured once.
    setting: Vec<usize>,
    /// Each member's loop, for members that run one.
    member_loop: Vec<Option<usize>>,
}

/// Numbers the members' loops by first appearance. Corners and
/// controllers are interned to ids first, so the loop interner hashes
/// a 32-byte key.
fn number_loops(
    members: &[ScenarioSpec],
    member_design: &[usize],
    member_workload: &[usize],
) -> Loops {
    let (mut corners, mut controllers) = (Interner::new(), Interner::new());
    let (mut settings, mut loops) = (Interner::new(), Interner::new());
    let mut setting = Vec::new();
    let member_loop = members
        .iter()
        .zip(member_design.iter().zip(member_workload))
        .map(|(m, (&d, &w))| {
            (m.analysis.wants_loop() || m.analysis.wants_aggregate()).then(|| {
                let corner = corners.id(CornerId::of(m.run.corner.resolve()));
                let controller = controllers.id(m.controller);
                let i = loops.id(LoopKey {
                    design_idx: d as u32,
                    corner: corner as u32,
                    workload: w as u32,
                    controller: controller as u32,
                    cycles: m.run.cycles_per_benchmark,
                    seed: m.run.seed,
                });
                if i == setting.len() {
                    setting.push(settings.id([d, corner, controller]));
                }
                i
            })
        })
        .collect();
    Loops {
        corners: corners.values,
        controllers: controllers.values,
        keys: loops.values,
        setting,
        member_loop,
    }
}

/// One member's place in the plan.
struct MemberPlan {
    /// The kept-loop slot holding its closed loop, if it wants one.
    closed_loop: Option<usize>,
    /// Its sweep, if it wants one.
    sweep: Option<usize>,
}

/// One deduplicated closed loop and everything its job needs.
struct LoopJob {
    key: LoopKey,
    /// Its governor setting: the index of its checked configuration in
    /// the plan's `configs`.
    setting: usize,
    /// Its shared compile; `None` runs live.
    compile: Option<usize>,
    /// The sweep it collects as a histogram by-product (a live loop).
    sweep: Option<usize>,
    /// The kept-loop slot its data fills, if a member keeps it.
    keep: Option<usize>,
    /// Where the digest ranks its metrics fold at sit in the plan's
    /// `ranks`, ascending.
    ranks: Range<usize>,
}

/// One shared compile: the words it drains and the designs it
/// classifies them for.
struct CompileJob {
    /// The primary analysis's key; its workload, cycles and seed are
    /// the words.
    key: SummaryKey,
    /// The primary analysis, then the co-analysis, if one rides along.
    analyses: Vec<Analysis>,
}

/// One design's analysis of a compile's words and what its finished
/// streams feed.
struct Analysis {
    design_idx: usize,
    /// The sweep it summarizes, stream by stream.
    sweep: Option<usize>,
    replays: Replays,
}

/// The loop jobs a finished analysis spawns, by workload shape.
enum Replays {
    /// A suite's loops, by their in-order windows: a suite loop threads
    /// one governor through every benchmark, so each replays the
    /// streams in [`Benchmark::ALL`] order as they land, and no
    /// analysis holds a whole suite.
    Suite(Range<usize>),
    /// A single stream's replay plans.
    Stream(Vec<ReplayPlan>),
}

/// A campaign fixed before the pool starts: every design built, every
/// recipe and governor checked, and every member mapped onto the jobs
/// that produce its products. Keys name workloads by their index in
/// `workloads`, so planning hashes a few integers per member, never a
/// recipe.
struct Plan {
    name: String,
    /// The expanded members, expansion order, and their places.
    specs: Vec<ScenarioSpec>,
    members: Vec<MemberPlan>,
    /// The members' distinct designs, first-appearance order.
    design_specs: Vec<DesignSpec>,
    designs: Vec<DvsBusDesign>,
    /// The members' distinct workloads, corners and controllers,
    /// first-appearance order, and each distinct governor setting's
    /// configuration.
    workloads: Vec<Workload>,
    corners: Vec<CornerId>,
    controllers: Vec<ControllerSpec>,
    configs: Vec<ControllerConfig>,
    /// Deduplicated loop jobs, first-appearance order.
    loop_jobs: Vec<LoopJob>,
    /// Shared compiles, first-appearance order.
    compile_jobs: Vec<CompileJob>,
    /// The distinct sweep products, first-appearance order.
    sweeps: Vec<SummaryKey>,
    /// Sweeps no compile or live loop reads: one summary pass each.
    own_sweeps: Vec<usize>,
    /// Windowed sweeps: one windowed pass each.
    own_windows: Vec<usize>,
    /// How many loop jobs keep their data.
    kept: usize,
    /// Every loop job's digest ranks, loop by loop (`LoopJob::ranks`).
    ranks: Vec<usize>,
    /// The suite loop each in-order window replays, by window.
    windows: Vec<usize>,
    /// Keys the compile budget left on the live path — shared by two
    /// or more loops, or a co-analysis a compile had room for but the
    /// budget did not — with the bytes compiling each would have taken.
    live_fallbacks: Vec<(SummaryKey, u64)>,
}

impl ScenarioSet {
    /// A set named `name` of `members`.
    pub(crate) fn new(name: &str, members: Vec<ScenarioSpec>) -> Self {
        let name = name.to_string();
        Self { name, members }
    }

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
    /// Every spec error is raised before the first job runs, naming the
    /// member that needs the bad part: expansion errors, an untabulated
    /// corner, a design that does not build, a malformed recipe, a
    /// governor off the design grid. A malformed (but decodable) spec
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
    /// live), and `chunk_cycles` is the compile chunk size. A budget
    /// that leaves a shared workload live says so on stderr.
    pub(crate) fn run_full(
        &self,
        prebuilt: Vec<(DesignSpec, DvsBusDesign)>,
        budget: Option<u64>,
        workers: Option<usize>,
        chunk_cycles: usize,
    ) -> Result<ScenarioSetRun, String> {
        let workers = pool::worker_count(workers)?;
        let plan = self.plan(prebuilt, budget)?;
        if let (Some(budget), false) = (budget, plan.live_fallbacks.is_empty()) {
            let needed = plan
                .live_fallbacks
                .iter()
                .fold(0, |n: u64, f| n.saturating_add(f.1));
            eprintln!(
                "warning: {BUDGET_VAR} budget of {budget} bytes runs {} shared workload(s) live \
                 (slower, same results): compiling them needs {needed} bytes",
                plan.live_fallbacks.len()
            );
        }
        Ok(plan.execute(workers, chunk_cycles))
    }

    /// Expands the set and plans it, refusing every bad spec (module
    /// docs); `prebuilt` designs skip their builds. Loop runs are
    /// deduplicated, shared keys compiled within `compile_budget`, and
    /// each sweep product gets one source — its key's compile, else the
    /// key's first live loop, else a dedicated summary pass. Loop jobs
    /// are numbered over *all* members first, so a sweep-only member
    /// rides a loop planned later in the set rather than spawning a
    /// redundant trace pass. Every step is linear in the member count.
    fn plan(
        &self,
        mut prebuilt: Vec<(DesignSpec, DvsBusDesign)>,
        compile_budget: Option<u64>,
    ) -> Result<Plan, String> {
        let members = self.expand()?;
        // A run at an untabulated corner would panic inside a job, and
        // so would a windowing the windowed pass cannot cut.
        members.iter().try_for_each(ScenarioSpec::check_corner)?;
        members.iter().try_for_each(ScenarioSpec::check_windows)?;
        let (design_specs, member_design) = distinct_designs(members.iter().map(|m| &m.design));
        let mut interned = Interner::new();
        let member_workload: Vec<usize> =
            members.iter().map(|m| interned.id(&m.workload)).collect();
        let loops = number_loops(&members, &member_design, &member_workload);
        let keys = &loops.keys;
        let point = |i: usize| {
            let key = &keys[i];
            let corner = loops.corners[key.corner as usize].pvt();
            (corner, loops.controllers[key.controller as usize])
        };

        // Build and check what each member names, at the first member
        // that needs it, and map it onto its products. An aggregate
        // member folds into the digest at its rank among the aggregate
        // members: rank order, not completion order, fixes the fold. A
        // loop keeps its data only if a member wants it.
        let (mut designs, mut workloads, mut configs) = (Vec::new(), Vec::new(), Vec::new());
        let mut loop_jobs: Vec<LoopJob> = Vec::with_capacity(keys.len());
        let mut rank_loop = Vec::new();
        let mut sweeps = Interner::new();
        let mut kept = 0;
        let mut member_plans = Vec::with_capacity(members.len());
        for (mi, m) in members.iter().enumerate() {
            let named = |e: String| format!("member `{}`: {e}", m.name);
            let (d, w) = (member_design[mi], member_workload[mi]);
            if d == designs.len() {
                let spec = &design_specs[d];
                designs.push(match prebuilt.iter().position(|(s, _)| s == spec) {
                    Some(k) => prebuilt.swap_remove(k).1,
                    None => spec.build().map_err(named)?,
                });
            }
            if w == workloads.len() {
                workloads.push(Workload::check(&m.workload).map_err(named)?);
            }
            let mut closed_loop = None;
            if let Some(i) = loops.member_loop[mi] {
                if i == loop_jobs.len() {
                    let setting = loops.setting[i];
                    if setting == configs.len() {
                        let (corner, controller) = point(i);
                        configs.push(controller.configure(&designs[d], corner).map_err(named)?);
                    }
                    loop_jobs.push(LoopJob {
                        key: keys[i],
                        setting,
                        compile: None,
                        sweep: None,
                        keep: None,
                        ranks: 0..0,
                    });
                }
                let job = &mut loop_jobs[i];
                if m.analysis.wants_aggregate() {
                    rank_loop.push(i);
                } else {
                    closed_loop = Some(*job.keep.get_or_insert_with(|| {
                        kept += 1;
                        kept - 1
                    }));
                }
            }
            let (swept, windowed) = (m.analysis.wants_sweep(), m.analysis.wants_windows());
            let sweep = swept.then(|| sweeps.id((SummaryKey::of(m, d, w), windowed)));
            member_plans.push(MemberPlan { closed_loop, sweep });
        }

        // Each loop's digest ranks, ascending, as one range of `ranks`:
        // a counting sort of the ranks by loop.
        let mut next = vec![0; loop_jobs.len()];
        for &i in &rank_loop {
            next[i] += 1;
        }
        let mut end = 0;
        for (job, next) in loop_jobs.iter_mut().zip(&mut next) {
            job.ranks = end..end + *next;
            (*next, end) = (end, job.ranks.end);
        }
        let mut ranks = vec![0; rank_loop.len()];
        for (rank, &i) in rank_loop.iter().enumerate() {
            ranks[next[i]] = rank;
            next[i] += 1;
        }

        // Each loop job's summary key as a dense id, with each key's first
        // loop (ids count up in loop order) and its number of loops.
        let mut skeys = Interner::new();
        let (mut first_loop, mut users) = (Vec::new(), Vec::new());
        let loop_skey: Vec<usize> = (keys.iter().enumerate())
            .map(|(i, key)| {
                let s = skeys.id(key.summary_key());
                if s == users.len() {
                    first_loop.push(i);
                    users.push(0);
                }
                users[s] += 1;
                s
            })
            .collect();

        // A (design, workload, cycles, seed) analyzed by two or more
        // loop jobs (a governor shootout, a corner sweep, `repro all`'s
        // typical+worst pair, ...) is compiled once and replayed per
        // job, so the `analyze_cycle` cost is paid once instead of N
        // times. A single-user key whose words a compile already reads
        // — same workload, cycles and seed, a design of the same layout
        // (`paper-all`'s §6 modified bus) — rides that compile as its
        // co-analysis, at most one per compile: the words are drained
        // once and classified for both designs in one kernel pass.
        // Other single-user keys stay on the live path — compiling
        // would only add work — as does anything that would blow the
        // compiled-memory budget (bytes), which is recorded.
        let mut skey_compile: Vec<Option<(usize, usize)>> = vec![None; skeys.values.len()];
        let mut compile_keys = Vec::new();
        let mut co_skeys = Vec::new();
        let mut live_fallbacks = Vec::new();
        if let Some(budget) = compile_budget {
            let mut footprint = 0u64;
            let mut fits = |key: &SummaryKey| {
                let bytes = compiled_footprint(key, &workloads);
                let fits = bytes <= budget - footprint;
                if fits {
                    footprint += bytes;
                } else {
                    live_fallbacks.push((*key, bytes));
                }
                fits
            };
            for (s, key) in skeys.values.iter().enumerate() {
                if users[s] >= 2 && fits(key) {
                    skey_compile[s] = Some((compile_keys.len(), 0));
                    compile_keys.push(*key);
                    co_skeys.push(None);
                }
            }
            // Compiles without a co-analysis by their words, in
            // first-appearance order, built only when some key could
            // ride one.
            let mut open_by_words: HashMap<_, Vec<usize>, BuildHasherDefault<FxHasher>> =
                HashMap::default();
            if !compile_keys.is_empty() && users.contains(&1) {
                for (c, key) in compile_keys.iter().enumerate() {
                    open_by_words.entry(key.words()).or_default().push(c);
                }
            }
            for (s, key) in skeys.values.iter().enumerate() {
                if users[s] != 1 {
                    continue;
                }
                let Some(open) = open_by_words.get_mut(&key.words()) else {
                    continue;
                };
                let layout = designs[key.design_idx].bus().layout();
                let shares =
                    |c: &usize| designs[compile_keys[*c].design_idx].bus().layout() == layout;
                if let Some(k) = open.iter().position(shares).filter(|_| fits(key)) {
                    let c = open.remove(k);
                    skey_compile[s] = Some((c, 1));
                    co_skeys[c] = Some(s);
                }
            }
        }
        let mut replayers = vec![[Vec::new(), Vec::new()]; compile_keys.len()];
        for (i, &s) in loop_skey.iter().enumerate() {
            if let Some((c, t)) = skey_compile[s] {
                loop_jobs[i].compile = Some(c);
                replayers[c][t].push(i);
            }
        }

        // Each sweep's source: the pass that already reads its words,
        // or for a windowed sweep a pass of its own.
        let mut compile_sweep = vec![[None, None]; compile_keys.len()];
        let (mut own_sweeps, mut own_windows) = (Vec::new(), Vec::new());
        for (s, (key, windowed)) in sweeps.values.iter().enumerate() {
            if *windowed {
                own_windows.push(s);
                continue;
            }
            match skeys.ids.get(key).map(|&k| (k, skey_compile[k])) {
                Some((_, Some((c, t)))) => compile_sweep[c][t] = Some(s),
                Some((k, None)) => loop_jobs[first_loop[k]].sweep = Some(s),
                None => own_sweeps.push(s),
            }
        }

        // Each analysis's replays, by workload shape; each suite loop
        // gets an in-order window, numbered here.
        let mut windows = Vec::new();
        let mut analysis = |design_idx: usize, key: &SummaryKey, sweep, loops: Vec<usize>| {
            let replays = match workloads[key.workload] {
                Workload::Suite => {
                    windows.extend_from_slice(&loops);
                    Replays::Suite(windows.len() - loops.len()..windows.len())
                }
                _ => Replays::Stream(plan_replay_groups(&loops, point)),
            };
            Analysis {
                design_idx,
                sweep,
                replays,
            }
        };
        let compile_jobs = (compile_keys.into_iter().zip(co_skeys))
            .zip(compile_sweep.into_iter().zip(replayers))
            .map(|((key, co), ([sweep, co_sweep], [loops, co_loops]))| {
                let mut analyses = vec![analysis(key.design_idx, &key, sweep, loops)];
                if let Some(s) = co {
                    let co_key = &skeys.values[s];
                    analyses.push(analysis(co_key.design_idx, co_key, co_sweep, co_loops));
                }
                CompileJob { key, analyses }
            })
            .collect();

        Ok(Plan {
            name: self.name.clone(),
            specs: members,
            members: member_plans,
            design_specs,
            designs,
            workloads,
            corners: loops.corners,
            controllers: loops.controllers,
            configs,
            loop_jobs,
            compile_jobs,
            sweeps: sweeps.values.into_iter().map(|(key, _)| key).collect(),
            own_sweeps,
            own_windows,
            kept,
            ranks,
            windows,
            live_fallbacks,
        })
    }
}

impl Plan {
    /// A loop key's corner and controller.
    fn point(&self, key: &LoopKey) -> (PvtCorner, ControllerSpec) {
        let corner = self.corners[key.corner as usize].pvt();
        (corner, self.controllers[key.controller as usize])
    }

    /// A fresh governor for loop job `job`, at its checked setting.
    fn governor(&self, job: &LoopJob) -> BoxedGovernor {
        let (_, controller) = self.point(&job.key);
        controller.governor.build(self.configs[job.setting])
    }

    /// The designs compile `c` classifies its words for: the primary
    /// analysis's, and the co-analysis's if one rides along.
    fn analyzed_designs(&self, c: usize) -> (&DvsBusDesign, Option<&DvsBusDesign>) {
        let design = |a: &Analysis| &self.designs[a.design_idx];
        match &self.compile_jobs[c].analyses[..] {
            [primary] => (design(primary), None),
            [primary, co] => (design(primary), Some(design(co))),
            _ => unreachable!("a compile has one analysis, or two with a co-analysis"),
        }
    }

    /// The in-order windows, each holding its suite loop's cursor
    /// before the first program.
    fn windows(&self) -> Vec<SuiteWindow> {
        (self.windows.iter())
            .map(|&i| {
                let job = &self.loop_jobs[i];
                let (corner, _) = self.point(&job.key);
                let cursor = SuiteCursor::new(corner, job.key.cycles, self.governor(job));
                SuiteWindow::new(cursor)
            })
            .collect()
    }

    /// The initial pool feed, each block in plan order: live
    /// (uncompiled) loops, then compiles, then windowed passes, then
    /// summary passes, one job per workload stream. A live loop cannot
    /// split below a whole workload — a suite loop threads one governor
    /// through every benchmark — so it starts first, and the compiles'
    /// stealable chunk jobs fill the pool around it. A windowed pass is
    /// one whole stream, so it goes before the per-stream summaries.
    fn initial_feed(&self) -> Vec<Job<'_>> {
        let streams = |key: &SummaryKey| 0..self.workloads[key.workload].streams();
        let live = (self.loop_jobs.iter().enumerate()).filter(|(_, job)| job.compile.is_none());
        let compiles = self.compile_jobs.iter().enumerate();
        let compiles =
            compiles.flat_map(|(c, job)| streams(&job.key).map(move |b| Job::Compile(c, b)));
        let summaries = (self.own_sweeps.iter())
            .flat_map(|&s| streams(&self.sweeps[s]).map(move |b| Job::Summary(s, b)));
        let windows = self.own_windows.iter().map(|&s| Job::Windows(s));
        live.map(|(i, _)| Job::Loop(i))
            .chain(compiles)
            .chain(windows)
            .chain(summaries)
            .collect()
    }

    /// Drains the plan on a pool of `workers`, fed in
    /// [`Plan::initial_feed`] order, and moves it into per-member
    /// results in expansion order; the plan refused every bad spec, so
    /// nothing here fails. A shared compile stream streams through
    /// [`CompiledTrace::compile`] (or `compile_each`) unless it spans
    /// more than `chunk_cycles` and is among the feed's last
    /// `workers − 1` compile streams, which split into
    /// [`Job::CompileChunk`]s; both routes give the same bytes.
    fn execute(self, workers: usize, chunk_cycles: usize) -> ScenarioSetRun {
        let streams = |key: &SummaryKey| self.workloads[key.workload].streams();
        let mut fed = 0;
        let first_stream = (self.compile_jobs.iter())
            .map(|job| {
                fed += streams(&job.key);
                fed - streams(&job.key)
            })
            .collect();
        let run = Run {
            plan: &self,
            first_stream,
            split_from: (fed + 1).saturating_sub(workers),
            chunk_cycles,
            kept: Table::new(self.kept),
            sweeps: Table::new(self.sweeps.len()),
            digest: DigestFold::new(&self.name),
            windows: self.windows(),
            summaries: (self.sweeps.iter())
                .map(|key| BenchSlots::new(streams(key)))
                .collect(),
        };
        pool::run(workers, self.initial_feed(), |job, spawner| {
            run.job(job, spawner)
        });

        let (kept, sweeps) = (run.kept.into_vec(), run.sweeps.into_vec());
        let digest = (!self.ranks.is_empty()).then(|| run.digest.finish());
        // The jobs are done: free them before the results grow, and
        // move each spec into its result.
        drop((self.loop_jobs, self.compile_jobs, self.workloads));
        let members = (self.specs.into_iter().zip(self.members))
            .map(|(spec, m)| MemberResult {
                spec,
                closed_loop: m.closed_loop.map(|k| kept[k].clone()),
                sweep: m.sweep.map(|s| sweeps[s].clone()),
            })
            .collect();
        let result = ScenarioSetResult {
            name: self.name,
            members,
            digest,
        };
        ScenarioSetRun {
            design_specs: self.design_specs,
            designs: self.designs,
            result,
        }
    }
}

/// One execution of a [`Plan`]: the result tables its jobs fill.
struct Run<'p> {
    plan: &'p Plan,
    /// Each compile's first stream's position among the compile
    /// streams of the feed, which lists them in plan order.
    first_stream: Vec<usize>,
    /// The feed position from which a compile stream longer than one
    /// chunk splits into chunks: the last `workers − 1` streams.
    split_from: usize,
    chunk_cycles: usize,
    /// Kept loops' data by kept slot, and sweep products.
    kept: Table<LoopData>,
    sweeps: Table<SweepData>,
    /// The campaign digest's fold, which no job waits on.
    digest: DigestFold,
    /// The in-order windows of the suite loops compiles feed.
    windows: Vec<SuiteWindow>,
    /// Each sweep's per-stream summaries.
    summaries: Vec<BenchSlots<(Benchmark, TraceSummary)>>,
}

impl<'p> Run<'p> {
    fn job(&self, job: Job<'p>, spawner: &pool::Spawner<'_, Job<'p>>) {
        let plan = self.plan;
        match job {
            Job::Compile(c, stream) => self.start_compile(c, stream, spawner),
            Job::CompileChunk(job, k) => {
                let start = k * self.chunk_cycles;
                let len = self.chunk_cycles.min(job.words.len() - 1 - start);
                let chunk = match plan.analyzed_designs(job.c) {
                    (design, None) => {
                        vec![CompiledTrace::analyze_chunk(design, &job.words, start, len)]
                    }
                    (design, Some(co)) => {
                        CompiledTrace::analyze_chunk_each([design, co], &job.words, start, len)
                            .into()
                    }
                };
                if let Some(chunks) = job.slots.fill(k, chunk) {
                    self.assemble(job.c, job.stream, chunks, spawner);
                }
            }
            Job::Loop(i) => self.finish_loops([(&plan.loop_jobs[i], self.run_live(i))]),
            // Replays are bit-identical to the live run, pinned by the
            // replay differential tests in `razorbus-core` and the
            // reference differential in [`crate::reference`].
            Job::Replay(i, trace) => {
                let (job, design, corner, sampling) = self.loop_job(i);
                let governor = plan.governor(job);
                let (report, _) = trace.replay(design, corner, governor, sampling, false);
                self.finish_loops([(job, LoopData::Stream(StreamRun { corner, report }))]);
            }
            Job::Land(w, stream, trace) => {
                let (job, design, corner, sampling) = self.loop_job(plan.windows[w]);
                let done = self.windows[w].land(stream, trace, |cursor, trace| {
                    cursor
                        .feed(|_, governor| trace.replay(design, corner, governor, sampling, false))
                });
                if let Some(cursor) = done {
                    let (data, _) = cursor.finish();
                    self.finish_loops([(job, LoopData::Suite(data))]);
                }
            }
            Job::FusedReplay(group, trace) => {
                // Every member in a fused group shares the sampling
                // window and design (same compile job), differing
                // only in its planned corner and pinned supply; the
                // fused kernel judges them all in one pass over the
                // trace.
                let lead = &plan.loop_jobs[group.loops[0]].key;
                let design = &plan.designs[lead.design_idx as usize];
                let (_, controller) = plan.point(lead);
                let reports = trace.replay_fused(design, &group.ops, controller.sampling);
                let runs =
                    (group.loops.iter().zip(&group.ops).zip(reports)).map(|((&i, op), report)| {
                        let run = StreamRun {
                            corner: op.pvt,
                            report,
                        };
                        (&plan.loop_jobs[i], LoopData::Stream(run))
                    });
                self.finish_loops(runs);
            }
            Job::Summary(s, stream) => {
                let key = &plan.sweeps[s];
                let mut trace = plan.workloads[key.workload].open(key.seed, stream);
                let design = &plan.designs[key.design_idx];
                let summary = TraceSummary::collect(design, &mut trace, key.cycles);
                self.fill_sweep(s, stream, summary);
            }
            Job::Windows(s) => {
                let key = &plan.sweeps[s];
                let mut trace = plan.workloads[key.workload].open(key.seed, 0);
                let design = &plan.designs[key.design_idx];
                let n = usize::try_from(key.cycles / WINDOW_LEN).expect("planned windows fit");
                let windows = WindowedSummary::collect(design, &mut trace, n, WINDOW_LEN);
                self.sweeps.fill(s, SweepData::Windows(windows));
            }
        }
    }

    /// Loop job `i` with its design, corner and sampling window.
    fn loop_job(&self, i: usize) -> (&'p LoopJob, &'p DvsBusDesign, PvtCorner, Option<u64>) {
        let job = &self.plan.loop_jobs[i];
        let design = &self.plan.designs[job.key.design_idx as usize];
        let (corner, controller) = self.plan.point(&job.key);
        (job, design, corner, controller.sampling)
    }

    /// Runs loop job `i` against the live trace; a loop that sources a
    /// sweep also collects it in the same pass.
    fn run_live(&self, i: usize) -> LoopData {
        let (job, design, corner, sampling) = self.loop_job(i);
        let (key, with_hist) = (&job.key, job.sweep.is_some());
        let workload = &self.plan.workloads[key.workload as usize];
        let (data, sweep) = if let Workload::Suite = workload {
            let governor = self.plan.governor(job);
            let (data, per) = fig8::run_protocol(
                design, corner, key.cycles, key.seed, governor, sampling, with_hist,
            );
            let sweep = with_hist.then(|| SweepData::Bank(SummaryBank::from_per_benchmark(per)));
            (LoopData::Suite(data), sweep)
        } else {
            let trace = workload.open(key.seed, 0);
            let mut sim = BusSimulator::new(design, corner, trace, self.plan.governor(job));
            if let Some(window) = sampling {
                sim = sim.with_sampling(window);
            }
            if with_hist {
                sim = sim.with_histogram();
            }
            let mut report = sim.run(key.cycles);
            let sweep = report.summary.take().map(SweepData::Summary);
            (LoopData::Stream(StreamRun { corner, report }), sweep)
        };
        if let (Some(s), Some(sweep)) = (job.sweep, sweep) {
            self.sweeps.fill(s, sweep);
        }
        data
    }

    /// Finished loops (live or replayed): extract each one's metrics,
    /// outside any lock, for every digest rank it carries, post the
    /// whole batch (a fused group) to the digest fold at once, and keep
    /// each loop's data if planned.
    fn finish_loops<'a>(&self, done: impl IntoIterator<Item = (&'a LoopJob, LoopData)>) {
        let mut posts = Vec::new();
        for (job, data) in done {
            let ranks = &self.plan.ranks[job.ranks.clone()];
            if !ranks.is_empty() {
                let metrics = MemberMetrics::of(&data);
                posts.extend(ranks.iter().map(|&rank| (rank, metrics.clone())));
            }
            if let Some(k) = job.keep {
                self.kept.fill(k, data);
            }
        }
        if !posts.is_empty() {
            self.digest.post(posts);
        }
    }

    /// One stream's summary, from a compile or a dedicated pass; the
    /// last stream of a sweep assembles it, tagged `Benchmark::ALL[stream]`:
    /// a suite's ten merge into a bank, and a single stream's one is the
    /// summary itself (its tag unused).
    fn fill_sweep(&self, s: usize, stream: usize, summary: TraceSummary) {
        if let Some(per) = self.summaries[s].fill(stream, (Benchmark::ALL[stream], summary)) {
            let sweep = match <[_; 1]>::try_from(per) {
                Ok([(_, summary)]) => SweepData::Summary(summary),
                Err(per) => SweepData::Bank(SummaryBank::from_per_benchmark(per)),
            };
            self.sweeps.fill(s, sweep);
        }
    }

    /// Starts stream `stream` of compile `c`. It streams in one pass
    /// when one chunk covers it, or when at least `workers − 1`
    /// compile streams of the feed come after it: each other worker
    /// then takes a whole stream of its own from the injector, and
    /// splitting would only add the word buffer, the chunk arrays and
    /// the assembly copy. One worker therefore always streams. The
    /// last `workers − 1` streams drain their words and spawn one
    /// `CompileChunk` continuation per chunk, stolen by idle workers
    /// like any other job, so the pool finishes together. Either way
    /// the words are read once for every analysis.
    fn start_compile(&self, c: usize, stream: usize, spawner: &pool::Spawner<'_, Job<'p>>) {
        let key = &self.plan.compile_jobs[c].key;
        let mut trace = self.plan.workloads[key.workload].open(key.seed, stream);
        let position = self.first_stream[c] + stream;
        if position < self.split_from || key.cycles <= self.chunk_cycles as u64 {
            let compiled: Vec<_> = match self.plan.analyzed_designs(c) {
                (design, None) => vec![CompiledTrace::compile(design, &mut trace, key.cycles)],
                (design, Some(co)) => {
                    CompiledTrace::compile_each([design, co], &mut trace, key.cycles).into()
                }
            };
            for (t, compiled) in compiled.into_iter().enumerate() {
                self.finish_compile(c, t, stream, Arc::new(compiled), spawner);
            }
            return;
        }
        let words = CompiledTrace::drain_words(&mut trace, key.cycles);
        let n_chunks = (words.len() - 1).div_ceil(self.chunk_cycles);
        let job = Arc::new(ChunkJob {
            c,
            stream,
            words,
            slots: BenchSlots::new(n_chunks),
        });
        for k in 0..n_chunks {
            spawner.spawn(Job::CompileChunk(Arc::clone(&job), k));
        }
    }

    /// The last chunk of stream `stream` of compile `c` finished:
    /// assemble each analysis's chunks in cycle order and complete it,
    /// the primary first, whose chunks are freed as they are copied,
    /// before the co-analysis's are.
    fn assemble(
        &self,
        c: usize,
        stream: usize,
        chunks: Vec<Vec<CompiledChunk>>,
        spawner: &pool::Spawner<'_, Job<'p>>,
    ) {
        let job = &self.plan.compile_jobs[c];
        let mut per: Vec<Vec<CompiledChunk>> = (job.analyses.iter())
            .map(|_| Vec::with_capacity(chunks.len()))
            .collect();
        for chunk in chunks {
            for (t, chunk) in chunk.into_iter().enumerate() {
                per[t].push(chunk);
            }
        }
        for (t, (a, chunks)) in job.analyses.iter().zip(per).enumerate() {
            let design = &self.plan.designs[a.design_idx];
            let compiled = CompiledTrace::from_chunks(design, job.key.cycles, chunks);
            self.finish_compile(c, t, stream, Arc::new(compiled), spawner);
        }
    }

    /// A materialized compiled stream of analysis `t` of compile `c`:
    /// summarize it if the analysis sources a sweep, and spawn its
    /// replays — planned into fused groups for a single stream, and
    /// one landing per suite loop's window for a suite's.
    fn finish_compile(
        &self,
        c: usize,
        t: usize,
        stream: usize,
        compiled: Arc<CompiledTrace>,
        spawner: &pool::Spawner<'_, Job<'p>>,
    ) {
        let analysis = &self.plan.compile_jobs[c].analyses[t];
        if let Some(s) = analysis.sweep {
            self.fill_sweep(s, stream, compiled.summary());
        }
        match &analysis.replays {
            Replays::Stream(plans) => {
                for plan in plans {
                    spawner.spawn(match plan {
                        ReplayPlan::Solo(i) => Job::Replay(*i, Arc::clone(&compiled)),
                        ReplayPlan::Fused(group) => Job::FusedReplay(group, Arc::clone(&compiled)),
                    });
                }
            }
            Replays::Suite(windows) => {
                for w in windows.clone() {
                    spawner.spawn(Job::Land(w, stream, Arc::clone(&compiled)));
                }
            }
        }
    }
}

/// The in-order window of a suite loop replayed as its streams land.
/// The loop threads one governor through the ten programs in
/// [`Benchmark::ALL`] order, but its streams' compiles finish in any
/// order. The worker that lands the stream the loop's [`SuiteCursor`]
/// needs next replays it and every stream ready after it, dropping
/// each as soon as it is replayed. No job waits: a replaying worker
/// takes the cursor out of the window, and a stream that lands
/// meanwhile is left for that worker to find when it puts the cursor
/// back.
struct SuiteWindow {
    state: Mutex<WindowState>,
}

struct WindowState {
    /// Landed streams the cursor has not reached, by stream.
    ready: Vec<Option<Arc<CompiledTrace>>>,
    /// The loop's cursor; `None` while a worker replays.
    cursor: Option<SuiteCursor<BoxedGovernor>>,
}

impl SuiteWindow {
    fn new(cursor: SuiteCursor<BoxedGovernor>) -> Self {
        let ready = (0..Benchmark::ALL.len()).map(|_| None).collect();
        let cursor = Some(cursor);
        Self {
            state: Mutex::new(WindowState { ready, cursor }),
        }
    }

    /// Lands stream `stream`, then, while the cursor is free and its
    /// next stream is here, replays that stream through `feed` outside
    /// the lock and drops it. Returns the cursor once it has run the
    /// last program.
    fn land(
        &self,
        stream: usize,
        trace: Arc<CompiledTrace>,
        feed: impl Fn(SuiteCursor<BoxedGovernor>, &CompiledTrace) -> SuiteCursor<BoxedGovernor>,
    ) -> Option<SuiteCursor<BoxedGovernor>> {
        let mut state = self.state.lock().expect("suite window");
        assert!(
            state.ready[stream].is_none(),
            "stream {stream} landed twice"
        );
        state.ready[stream] = Some(trace);
        loop {
            let cursor = state.cursor.take()?;
            let next = cursor.next_program().expect("a finished cursor leaves");
            let Some(trace) = state.ready[next].take() else {
                state.cursor = Some(cursor);
                return None;
            };
            drop(state);
            let cursor = feed(cursor, &trace);
            drop(trace);
            if cursor.next_program().is_none() {
                return Some(cursor);
            }
            state = self.state.lock().expect("suite window");
            state.cursor = Some(cursor);
        }
    }
}

/// The campaign digest's rank-ordered fold, which no worker waits on
/// (the [`SuiteWindow`] pattern). A job posts its `(rank, metrics)`
/// pairs to the inbox under a short lock, then tries the folder's lock:
/// if it wins, it folds everything the inbox holds, lets go, and looks
/// at the inbox again, folding anew if anything arrived meanwhile. A
/// job that finds the folder taken leaves its posts behind: the worker
/// holding the folder looks at the inbox after it lets go, which is
/// after those posts, so none is left unfolded.
struct DigestFold {
    inbox: Mutex<Vec<(usize, MemberMetrics)>>,
    /// The builder, and the batch buffer it folds from: batches swap
    /// buffers with the inbox, so neither reallocates once grown.
    folder: Mutex<(DigestBuilder, Vec<(usize, MemberMetrics)>)>,
}

impl DigestFold {
    fn new(campaign: &str) -> Self {
        Self {
            inbox: Mutex::new(Vec::new()),
            folder: Mutex::new((DigestBuilder::new(campaign), Vec::new())),
        }
    }

    /// Posts `posts`, then folds the inbox unless another job is
    /// folding it.
    fn post(&self, mut posts: Vec<(usize, MemberMetrics)>) {
        self.inbox.lock().expect("digest inbox").append(&mut posts);
        while let Ok(mut folder) = self.folder.try_lock() {
            let (builder, batch) = &mut *folder;
            std::mem::swap(batch, &mut *self.inbox.lock().expect("digest inbox"));
            fold_batch(builder, batch);
            drop(folder);
            if self.inbox.lock().expect("digest inbox").is_empty() {
                return;
            }
        }
    }

    /// The digest, once the pool has drained: folds whatever the inbox
    /// still holds first.
    fn finish(self) -> crate::CampaignDigest {
        let (mut builder, _) = self.folder.into_inner().expect("digest folder");
        fold_batch(
            &mut builder,
            &mut self.inbox.into_inner().expect("digest inbox"),
        );
        builder.finish()
    }
}

/// Folds `batch` into `builder` and empties it. Sorted by rank, a batch
/// folds straight through the builder instead of parking in its
/// reorder buffer.
fn fold_batch(builder: &mut DigestBuilder, batch: &mut Vec<(usize, MemberMetrics)>) {
    batch.sort_unstable_by_key(|&(rank, _)| rank);
    for (rank, metrics) in batch.drain(..) {
        builder.submit(rank, metrics);
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
            let summary = match &member.sweep {
                Some(SweepData::Bank(bank)) => Some(bank.combined()),
                Some(SweepData::Summary(summary)) => Some(summary),
                // Fig. 6's windows keep no whole-run summary.
                Some(SweepData::Windows(_)) | None => None,
            };
            if let Some(summary) = summary {
                if let Ok(design) = self.design_for(&spec.design) {
                    let corner = spec.run.corner.resolve();
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

    /// A set that plans two co-analyses, each collecting a bank or
    /// summary too: the §6 modified bus's single suite loop on the
    /// paper bus's suite compile (typical and worst), and an
    /// Elmore-coupling closed loop on a single-program compile that two
    /// paper-bus governors share.
    fn co_analyzed_set(cycles: u64) -> ScenarioSet {
        let mut paper = member("paper", AnalysisSpec::Full, CornerSpec::Worst);
        paper.sweep = vec![SweepAxis::Corners(vec![
            CornerSpec::Worst,
            CornerSpec::Typical,
        ])];
        let mut modified = member("modified", AnalysisSpec::Full, CornerSpec::Worst);
        modified.design = DesignSpec::ModifiedCoupling;
        let mut vortex = member("vortex", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
        vortex.workload = WorkloadSpec::Single(Benchmark::Vortex);
        vortex.sweep = vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
        ])];
        let mut elmore = member("vortex-elmore", AnalysisSpec::Full, CornerSpec::Typical);
        elmore.workload = WorkloadSpec::Single(Benchmark::Vortex);
        elmore.design = DesignSpec::ElmoreCoupling;
        let mut members = vec![paper, modified, vortex, elmore];
        for m in &mut members {
            m.run.cycles_per_benchmark = cycles;
        }
        let set = ScenarioSet {
            name: "co-analyzed".to_string(),
            members,
        };
        let plan = set.plan(Vec::new(), Some(DEFAULT_COMPILE_BUDGET)).unwrap();
        let co = |job: &CompileJob| job.analyses.len() == 2;
        assert!(plan.compile_jobs.iter().all(co), "both compiles co-analyze");
        assert!(plan.loop_jobs.iter().all(|job| job.compile.is_some()));
        set
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

        // Co-analyses: the second design's streams come out of the
        // same kernel pass and its suite loop replays through an
        // in-order window, whichever worker lands which stream.
        let set = co_analyzed_set(2_000);
        let live = set.run_with_workers(Vec::new(), false, Some(1)).unwrap();
        for workers in [Some(1), Some(2), None] {
            let run = set.run_with_workers(Vec::new(), true, workers).unwrap();
            assert_eq!(live.result, run.result, "{workers:?}");
        }
    }

    #[test]
    fn results_are_bit_identical_across_compile_chunk_sizes() {
        // The compile route must be invisible in campaign results, on
        // both sides of the stream-or-chunk rule: chunks smaller than
        // the trace (many CompileChunk continuations interleaving with
        // replays), an awkward prime, and chunks that cover a whole
        // stream (it streams) — serial and pooled, where the feed's
        // last `workers − 1` compile streams split (4 workers split a
        // suite's last streams whatever the host's core count). Inputs:
        // a suite, and a single-stream mixed-traffic recipe at one
        // length below and one above the 2 000-cycle chunk, whose
        // members mix fused fixed-supply replays with a closed-loop
        // solo replay; then both co-analyses of `co_analyzed_set`.
        // Every run must equal the live path bitwise.
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
        let co = co_analyzed_set(2_500);
        for set in [set, co] {
            let live = set.run_full(Vec::new(), None, Some(1), 65_536).unwrap();
            for chunk in [127usize, 500, 1_000, 2_000, 65_536] {
                for workers in [Some(1), Some(2), Some(4), None] {
                    let run = set
                        .run_full(Vec::new(), Some(DEFAULT_COMPILE_BUDGET), workers, chunk)
                        .unwrap();
                    let name = &set.name;
                    assert_eq!(
                        live.result, run.result,
                        "{name}: chunk {chunk}, {workers:?}"
                    );
                }
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

    /// The plan of a set of `members` (distinctly named).
    fn plan_members(members: &[ScenarioSpec], budget: Option<u64>) -> Plan {
        let set = ScenarioSet {
            name: "planned".to_string(),
            members: members.to_vec(),
        };
        set.plan(Vec::new(), budget).unwrap()
    }

    fn compile_keys(plan: &Plan) -> Vec<SummaryKey> {
        plan.compile_jobs.iter().map(|job| job.key).collect()
    }

    #[test]
    fn compile_plan_shares_only_multi_user_keys_within_budget() {
        let job = |corner: CornerSpec, cycles: u64| {
            let name = format!("m-{}-{cycles}", corner.label());
            let mut m = member(&name, AnalysisSpec::ClosedLoop, corner);
            m.run.cycles_per_benchmark = cycles;
            m
        };
        // Two corners over one suite: one compile key. The single-user
        // 7 k-cycle job stays live, and is no budget fallback.
        let members = vec![
            job(CornerSpec::Typical, 5_000),
            job(CornerSpec::Worst, 5_000),
            job(CornerSpec::Typical, 7_000),
        ];
        let plan = plan_members(&members, Some(DEFAULT_COMPILE_BUDGET));
        let first = plan.loop_jobs[0].key.summary_key();
        assert_eq!(compile_keys(&plan), vec![first]);
        let loop_compile: Vec<_> = plan.loop_jobs.iter().map(|job| job.compile).collect();
        assert_eq!(loop_compile, vec![Some(0), Some(0), None]);
        assert!(plan.live_fallbacks.is_empty());
        // A zero budget compiles nothing — the executor falls back to
        // the live path, and records the shared key — and so does no
        // budget at all, which records nothing.
        let footprint = compiled_footprint(&first, &plan.workloads);
        let zero = plan_members(&members, Some(0));
        assert!(zero.compile_jobs.is_empty());
        assert_eq!(zero.live_fallbacks, vec![(first, footprint)]);
        let none = plan_members(&members, None);
        assert!(none.compile_jobs.is_empty());
        assert!(none.live_fallbacks.is_empty());
        // The budget is cumulative: once the suite's footprint is
        // spent, a second shareable key is left on the live path, and
        // recorded with the bytes it needed.
        let mut more = members.clone();
        more.push(job(CornerSpec::Worst, 7_000));
        let exhausted = plan_members(&more, Some(footprint));
        assert_eq!(compile_keys(&exhausted), vec![first]);
        let second = exhausted.loop_jobs[2].key.summary_key();
        let needed = compiled_footprint(&second, &exhausted.workloads);
        assert_eq!(exhausted.live_fallbacks, vec![(second, needed)]);
        assert!(plan_members(&more, None).live_fallbacks.is_empty());
        // A budget no memory holds saturates the footprint instead of
        // wrapping it into a small one.
        let huge = vec![
            job(CornerSpec::Typical, u64::MAX),
            job(CornerSpec::Worst, u64::MAX),
        ];
        let plan = plan_members(&huge, Some(DEFAULT_COMPILE_BUDGET));
        assert_eq!(
            compiled_footprint(&plan.loop_jobs[0].key.summary_key(), &plan.workloads),
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
        Windows(usize),
    }

    fn fed(feed: Vec<Job<'_>>) -> Vec<Fed> {
        feed.into_iter()
            .map(|job| match job {
                Job::Loop(i) => Fed::Loop(i),
                Job::Compile(c, b) => Fed::Compile(c, b),
                Job::Summary(s, b) => Fed::Summary(s, b),
                Job::Windows(s) => Fed::Windows(s),
                Job::CompileChunk(..) | Job::Replay(..) | Job::Land(..) | Job::FusedReplay(..) => {
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
        let budget = share_compiled.then_some(DEFAULT_COMPILE_BUDGET);
        let plan = set.plan(Vec::new(), budget).unwrap();
        assert!(plan.own_sweeps.is_empty());
        (members, plan)
    }

    /// The sweep each compile summarizes.
    fn compile_sweep(plan: &Plan) -> Vec<Option<usize>> {
        plan.compile_jobs
            .iter()
            .map(|job| job.analyses[0].sweep)
            .collect()
    }

    /// The sweep each live loop collects as a by-product.
    fn loop_sweep(plan: &Plan) -> Vec<Option<usize>> {
        plan.loop_jobs.iter().map(|job| job.sweep).collect()
    }

    #[test]
    fn paper_all_co_analyzes_the_modified_bus() {
        // paper-all: the §6 modified bus's single-user suite loop reads
        // the words of the paper bus's suite compile (shared by its
        // typical and worst loops), so it rides that compile as its
        // co-analysis: no loop runs live, the modified bank comes from
        // the co-analysis, and the loop replays through a window.
        let (members, plan) = plan_of(&paper_all_set(1_000, 7), true);
        let modified = members.iter().find(|m| m.name == "fig10-modified").unwrap();
        let suite = (plan.workloads.iter())
            .position(|w| *w == Workload::check(&modified.workload).unwrap())
            .unwrap();
        let key = SummaryKey::of(modified, 1, suite); // second design
        let co_loop = (plan.loop_jobs.iter())
            .position(|j| j.key.summary_key() == key)
            .unwrap();
        assert_eq!(plan.compile_jobs.len(), 1);
        let expected: Vec<_> = (0..Benchmark::ALL.len())
            .map(|b| Fed::Compile(0, b))
            .collect();
        assert_eq!(fed(plan.initial_feed()), expected);
        assert!(plan.live_fallbacks.is_empty());

        let job = &plan.compile_jobs[0];
        let [primary, co] = &job.analyses[..] else {
            panic!("the paper compile carries one co-analysis");
        };
        assert_eq!((primary.design_idx, co.design_idx), (0, key.design_idx));
        assert!(matches!(primary.replays, Replays::Suite(ref w) if *w == (0..2)));
        assert!(matches!(co.replays, Replays::Suite(ref w) if *w == (2..3)));
        assert_eq!(plan.windows[2], co_loop);
        assert_eq!(plan.loop_jobs[co_loop].compile, Some(0));
        let sweep_of = |name: &str| {
            let mi = members.iter().position(|m| m.name == name).unwrap();
            plan.members[mi].sweep.unwrap()
        };
        assert_eq!(primary.sweep, Some(sweep_of("fig5")));
        assert_eq!(co.sweep, Some(sweep_of("fig10-modified")));
        assert_eq!(loop_sweep(&plan), vec![None; plan.loop_jobs.len()]);

        // A budget with room for the paper suite alone leaves the
        // modified loop live, collecting its bank, and records it.
        let footprint = compiled_footprint(&job.key, &plan.workloads);
        let set = ScenarioSet {
            members: members.clone(),
            ..paper_all_set(1_000, 7)
        };
        let tight = set.plan(Vec::new(), Some(footprint)).unwrap();
        assert_eq!(tight.compile_jobs[0].analyses.len(), 1);
        assert_eq!(tight.loop_jobs[co_loop].compile, None);
        assert_eq!(tight.live_fallbacks, vec![(key, footprint)]);
        let mut expected = vec![Fed::Loop(co_loop)];
        expected.extend((0..Benchmark::ALL.len()).map(|b| Fed::Compile(0, b)));
        assert_eq!(fed(tight.initial_feed()), expected);
    }

    #[test]
    fn live_loops_are_fed_before_compiles_and_summaries() {
        // fig10 at another seed than table1: its two single-user suite
        // loops read words no compile reads, so both run live and are
        // fed first, ahead of table1's suite compile (shared by its
        // typical and worst loops), one job per benchmark stream.
        let mut members = crate::paper::table1_set(1_000, 7).members;
        members.extend(crate::paper::fig10_set(1_000, 8).members);
        let set = ScenarioSet {
            name: "live-and-compiled".to_string(),
            members,
        };
        let (members, mut plan) = plan_of(&set, true);
        let live: Vec<_> = ["fig10-original", "fig10-modified"]
            .map(|name| {
                let m = members.iter().find(|m| m.name == name).unwrap();
                let design = plan
                    .design_specs
                    .iter()
                    .position(|d| *d == m.design)
                    .unwrap();
                (plan.loop_jobs.iter())
                    .position(|job| job.key.seed == 8 && job.key.summary_key().design_idx == design)
                    .unwrap()
            })
            .into();
        assert_eq!(plan.compile_jobs.len(), 1);
        assert!(plan.compile_jobs[0].analyses.len() == 1);
        let mut expected: Vec<_> = live.iter().map(|&i| Fed::Loop(i)).collect();
        expected.extend((0..Benchmark::ALL.len()).map(|b| Fed::Compile(0, b)));
        assert_eq!(fed(plan.initial_feed()), expected);

        // Each bank has one source: table1's comes from its suite
        // compile, fig10's two from their live loops, and no sweep
        // needs a pass of its own.
        let sweep_of = |name: &str| {
            let mi = members.iter().position(|m| m.name == name).unwrap();
            plan.members[mi].sweep.unwrap()
        };
        let paper = sweep_of("table1@worst");
        let modified_bank = sweep_of("fig10-modified");
        assert_eq!(plan.sweeps[paper], plan.compile_jobs[0].key);
        assert_eq!(compile_sweep(&plan), vec![Some(paper)]);
        let mut loop_sweeps = vec![None; plan.loop_jobs.len()];
        loop_sweeps[live[0]] = Some(sweep_of("fig10-original"));
        loop_sweeps[live[1]] = Some(modified_bank);
        assert_eq!(loop_sweep(&plan), loop_sweeps);
        assert!(plan.own_sweeps.is_empty());

        // Windowed passes follow the compiles, one job each, and summary
        // passes come last, in plan order: a suite pass one job per
        // benchmark, a single-stream pass one job.
        plan.workloads.push(Workload::Single(Benchmark::ALL[0]));
        let single = SummaryKey {
            workload: plan.workloads.len() - 1,
            ..plan.compile_jobs[0].key
        };
        plan.sweeps.extend([single, single]);
        let (summary, windows) = (plan.sweeps.len() - 2, plan.sweeps.len() - 1);
        plan.own_sweeps = vec![modified_bank, summary];
        plan.own_windows = vec![windows];
        expected.push(Fed::Windows(windows));
        expected.extend((0..Benchmark::ALL.len()).map(|b| Fed::Summary(modified_bank, b)));
        expected.push(Fed::Summary(summary, 0));
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
            let (_, member_design) = distinct_designs(members.iter().map(|m| &m.design));
            let mut workloads = Interner::new();
            let member_workload: Vec<usize> =
                members.iter().map(|m| workloads.id(&m.workload)).collect();
            // The old keys' Debug renderings: whole corner, workload and
            // controller specs, no interned ids.
            let spelled: Vec<(String, String)> = members
                .iter()
                .zip(&member_design)
                .map(|(m, d)| {
                    let (cycles, seed) = (m.run.cycles_per_benchmark, m.run.seed);
                    let corner = m.run.corner.resolve();
                    (
                        format!("{:?}", (d, corner, &m.workload, m.controller, cycles, seed)),
                        format!("{:?}", (d, &m.workload, cycles, seed)),
                    )
                })
                .collect();
            // Every member keyed as a loop.
            let looped: Vec<ScenarioSpec> = (members.iter())
                .map(|m| ScenarioSpec {
                    analysis: AnalysisSpec::Full,
                    ..m.clone()
                })
                .collect();
            let all = number_loops(&looped, &member_design, &member_workload);
            assert_eq!(
                partition(all.member_loop),
                partition(spelled.iter().map(|(l, _)| l)),
                "loop keys of {name}"
            );
            let summaries = (members.iter().zip(&member_design).zip(&member_workload))
                .map(|((m, &d), &w)| SummaryKey::of(m, d, w));
            assert_eq!(
                partition(summaries),
                partition(spelled.iter().map(|(_, s)| s)),
                "summary keys of {name}"
            );
            // The executor's plan numbers loop jobs by first appearance,
            // so every member's job is its group index.
            let member_loop = number_loops(members, &member_design, &member_workload).member_loop;
            let wanted = |mi: &usize| {
                let a = members[*mi].analysis;
                a.wants_loop() || a.wants_aggregate()
            };
            let groups = partition((0..members.len()).filter(wanted).map(|mi| &spelled[mi].0));
            let jobs: Vec<usize> = member_loop.iter().flatten().copied().collect();
            assert_eq!(jobs, groups, "plan of {name}");
        }

        // Members 0/1 run at -0.0 °C, 2/3 at 0.0 °C, 6/7 again at
        // -0.0 °C (two governors per corner).
        let corners = &cases[cases.len() - 3].1;
        let zeros = vec![0; corners.len()];
        let groups = number_loops(corners, &zeros, &zeros).member_loop;
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
    fn suite_windows_replay_any_landing_order_as_the_suite_protocol() {
        // A suite loop's window lands its ten compiled streams in any
        // order, from one thread or two at once, and replays them in
        // suite order: the trajectory equals `replay_protocol`'s bit
        // for bit, the cursor finishes exactly once, on the last
        // landing, and no replayed stream is held.
        let design = DvsBusDesign::modified_paper_bus();
        let corner = PvtCorner::WORST;
        let (cycles, sampling) = (3_000, Some(700));
        let compiled: Vec<Arc<CompiledTrace>> = (Benchmark::ALL.into_iter())
            .map(|b| Arc::new(CompiledTrace::compile(&design, &mut b.trace(5), cycles)))
            .collect();
        let governor = || ControllerSpec::paper().build(&design, corner).unwrap();
        let (expected, _) =
            fig8::replay_protocol(&design, corner, &compiled, governor(), sampling, false);
        let replay = |cursor: SuiteCursor<BoxedGovernor>, trace: &CompiledTrace| {
            cursor.feed(|_, g| trace.replay(&design, corner, g, sampling, false))
        };
        let mut orders: Vec<Vec<usize>> =
            vec![(0..10).rev().collect(), vec![1, 0, 3, 2, 9, 4, 8, 5, 7, 6]];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..6 {
            let mut order: Vec<usize> = (0..10).collect();
            for i in (1..order.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                order.swap(i, (x % (i as u64 + 1)) as usize);
            }
            orders.push(order);
        }
        let check = |done: Vec<SuiteCursor<BoxedGovernor>>, what: &str| {
            let Ok([cursor]) = <[_; 1]>::try_from(done) else {
                panic!("{what}: the cursor must finish exactly once");
            };
            let (data, _) = cursor.finish();
            assert_eq!(format!("{data:?}"), format!("{expected:?}"), "{what}");
            assert!(compiled.iter().all(|t| Arc::strong_count(t) == 1), "{what}");
        };
        for order in &orders {
            let window = SuiteWindow::new(SuiteCursor::new(corner, cycles, governor()));
            let mut done = Vec::new();
            for (k, &b) in order.iter().enumerate() {
                let landed = window.land(b, Arc::clone(&compiled[b]), replay);
                assert_eq!(landed.is_some(), k == order.len() - 1, "{order:?}");
                done.extend(landed);
            }
            check(done, &format!("serial {order:?}"));

            let window = SuiteWindow::new(SuiteCursor::new(corner, cycles, governor()));
            let done = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for half in order.chunks(5) {
                    let (window, done, compiled) = (&window, &done, &compiled);
                    scope.spawn(move || {
                        for &b in half {
                            let landed = window.land(b, Arc::clone(&compiled[b]), replay);
                            done.lock().unwrap().extend(landed);
                        }
                    });
                }
            });
            check(
                done.into_inner().unwrap(),
                &format!("two threads {order:?}"),
            );
        }
    }

    #[test]
    fn bench_slots_assemble_in_slot_order_whatever_the_fill_order() {
        let slots = BenchSlots::new(3);
        assert!(slots.fill(2, "c").is_none());
        assert!(slots.fill(0, "a").is_none());
        let done = slots.fill(1, "b").expect("last fill completes");
        assert_eq!(done, vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn bench_slots_reject_a_double_fill() {
        let slots = BenchSlots::new(2);
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
    fn digest_fold_from_four_threads_equals_a_serial_rank_order_fold() {
        // Four threads post shuffled batches of ranks through the inbox
        // and the `try_lock` handoff, as finished fused groups do, over
        // many short campaigns, and race their last posts to each
        // campaign behind a barrier. Every post is folded by some poster
        // (the inbox is empty once they are done, before `finish` could
        // fold a leftover), and each digest's bytes equal a serial fold
        // in rank order.
        const ROUNDS: usize = 1_000;
        let metrics = |rank: usize| {
            let x = (rank as f64).mul_add(0.618_033_988_749, 0.1) % 1.0;
            MemberMetrics {
                energy_gain: x * 0.6 - 0.1,
                error_rate: x * 0.05,
                peak_window_error_rate: x * 0.08,
                mean_voltage_mv: 900.0 + x * 300.0,
                min_voltage_mv: 850 + (rank % 9) as i32 * 50,
                shadow_violations: 0,
                errors: rank as u64 * 3,
                cycles: 2_000,
                energy_fj: 1.0e6 + x * 1.0e5,
                baseline_energy_fj: 1.3e6,
            }
        };
        let bytes = |d: &crate::CampaignDigest| razorbus_artifact::binary::to_bytes(d).unwrap();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Each round's ranks, shuffled, in batches of 1 to 16 dealt
        // round robin: 64 or more ranks give every thread a batch.
        let mut dealt: [Vec<Vec<Vec<usize>>>; 4] = Default::default();
        let mut sizes = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            let n = 64 + round * 37 % 193;
            let mut ranks: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                ranks.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            dealt.iter_mut().for_each(|rounds| rounds.push(Vec::new()));
            let (mut rest, mut t) = (&ranks[..], 0);
            while !rest.is_empty() {
                let len = (1 + next() % 16).min(rest.len() as u64) as usize;
                dealt[t % 4][round].push(rest[..len].to_vec());
                (rest, t) = (&rest[len..], t + 1);
            }
            sizes.push(n);
        }
        let folds: Vec<DigestFold> = (0..ROUNDS).map(|_| DigestFold::new("fold")).collect();
        let last = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for rounds in &dealt {
                let (folds, last) = (&folds, &last);
                scope.spawn(move || {
                    for (fold, batches) in folds.iter().zip(rounds) {
                        for (k, batch) in batches.iter().enumerate() {
                            if k + 1 == batches.len() {
                                last.wait();
                            }
                            fold.post(batch.iter().map(|&rank| (rank, metrics(rank))).collect());
                        }
                    }
                });
            }
        });
        for (fold, n) in folds.into_iter().zip(sizes) {
            assert!(
                fold.inbox.lock().unwrap().is_empty(),
                "a post to the {n}-rank campaign was left unfolded"
            );
            let mut serial = DigestBuilder::new("fold");
            for rank in 0..n {
                serial.submit(rank, metrics(rank));
            }
            assert_eq!(bytes(&fold.finish()), bytes(&serial.finish()), "{n} ranks");
        }
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
        // Every refusal is an Err naming the first member that needs
        // the bad part, raised by the plan before any job runs.
        let named = |spec: ScenarioSpec, member: &str, what: &str| {
            let err = ScenarioSet::single(spec).run().unwrap_err();
            assert!(err.contains(&format!("member `{member}`")), "{err}");
            assert!(err.contains(what), "{err}");
        };
        // Fixed governor off the grid: Err, not panic.
        let mut spec = member("bad", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
        spec.controller.governor = GovernorSpec::Fixed(razorbus_units::Millivolts::new(905));
        assert!(ScenarioSet::single(spec.clone()).run().is_err());
        named(spec, "bad", "not on the design grid");
        // Malformed recipe: Err, not panic.
        let mut spec = member("bad2", AnalysisSpec::ClosedLoop, CornerSpec::Typical);
        spec.workload = WorkloadSpec::Recipe(crate::spec::TrafficRecipe::IdleDominated(
            crate::spec::IdleProfile {
                nonzero_permille: 9_999,
            },
        ));
        assert!(ScenarioSet::single(spec.clone()).run().is_err());
        // The same bad recipe under two governors: a shared compile.
        let mut shared = spec.clone();
        shared.sweep = vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
        ])];
        named(shared, "bad2+threshold", "non-zero rate 9999‰");
        // A sweep-only member over it: its own summary pass.
        spec.analysis = AnalysisSpec::StaticSweep;
        named(spec, "bad2", "non-zero rate 9999‰");
        // A design that does not build: a 0 % skew cap.
        let mut spec = member("bad3", AnalysisSpec::Full, CornerSpec::Typical);
        spec.design = DesignSpec::SkewCapPercent(0);
        named(spec, "bad3", "shadow-skew cap 0%");
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
    fn repro_all_plans_paper_all_plus_its_own_passes() {
        // The paper suite compile (co-analyzed for the modified bus) as
        // in `paper-all`, one ablation suite compile co-analyzed for a
        // skew-cap design, the other skew-cap loop live, three windowed
        // passes, and the four scaling banks plus the Elmore-coupling
        // bank as summary passes.
        let set = crate::paper::repro_all_set(1_000, 7);
        let plan = set.plan(Vec::new(), Some(DEFAULT_COMPILE_BUDGET)).unwrap();
        assert_eq!(plan.compile_jobs.len(), 2);
        assert!(plan.compile_jobs.iter().all(|job| job.analyses.len() == 2));
        let live = plan.loop_jobs.iter().filter(|job| job.compile.is_none());
        assert_eq!(live.count(), 1);
        assert_eq!(plan.own_windows.len(), 3);
        assert_eq!(plan.own_sweeps.len(), 5);
    }

    /// A windowed member on `workload` for `cycles`.
    fn windowed(workload: WorkloadSpec, cycles: u64) -> ScenarioSet {
        let mut m = member("windowed", AnalysisSpec::WindowedSweep, CornerSpec::Typical);
        m.workload = workload;
        m.run.cycles_per_benchmark = cycles;
        ScenarioSet::single(m)
    }

    #[test]
    fn windowed_sweep_on_the_suite_is_refused_before_any_job() {
        // The oracle's windows cut one stream, and a suite is ten.
        let set = windowed(WorkloadSpec::Suite, 2 * WINDOW_LEN);
        let planned = set.plan(Vec::new(), Some(DEFAULT_COMPILE_BUDGET));
        for (runner, result) in [
            ("planner", planned.err()),
            ("reference", set.run_reference().err()),
        ] {
            let err = result.expect("refused");
            assert!(err.contains("member `windowed`"), "{runner}: {err}");
            assert!(err.contains("not the ten-program suite"), "{runner}: {err}");
        }
    }

    #[test]
    fn windowed_sweep_off_the_window_grid_is_refused_before_any_job() {
        for cycles in [WINDOW_LEN / 2, 3 * WINDOW_LEN + 1] {
            let set = windowed(WorkloadSpec::Single(Benchmark::Crafty), cycles);
            let planned = set.plan(Vec::new(), Some(DEFAULT_COMPILE_BUDGET));
            for (runner, result) in [
                ("planner", planned.err()),
                ("reference", set.run_reference().err()),
            ] {
                let err = result.expect("refused");
                assert!(err.contains("member `windowed`"), "{runner}: {err}");
                let what = format!("multiple of {WINDOW_LEN} cycles, not {cycles}");
                assert!(err.contains(&what), "{runner}: {err}");
            }
        }
    }

    #[test]
    fn windowed_sweeps_take_a_pass_of_their_own() {
        // Two loops compile crafty's words and a static sweep rides the
        // compile; the windowed member on the same words still takes
        // its own pass, and every product equals the naive run's.
        let mut set = windowed(WorkloadSpec::Single(Benchmark::Crafty), 2 * WINDOW_LEN);
        let mut loops = member("loops", AnalysisSpec::Full, CornerSpec::Typical);
        loops.workload = WorkloadSpec::Single(Benchmark::Crafty);
        loops.run.cycles_per_benchmark = 2 * WINDOW_LEN;
        loops.sweep = vec![SweepAxis::Corners(vec![
            CornerSpec::Typical,
            CornerSpec::Worst,
        ])];
        set.members.push(loops);
        let (_, plan) = plan_of(&set, true);
        assert_eq!(plan.compile_jobs.len(), 1);
        assert_eq!(compile_sweep(&plan), vec![Some(1)]);
        assert_eq!(plan.own_windows, vec![0]);
        let reference = set.run_reference().unwrap();
        for workers in [Some(1), Some(2)] {
            let run = set.run_with_workers(Vec::new(), true, workers).unwrap();
            assert_eq!(run.result, reference.result, "{workers:?}");
        }
        let product = &reference.result.member("windowed").unwrap().sweep;
        let Some(SweepData::Windows(windows)) = product else {
            panic!("a windowed member carries windows: {product:?}");
        };
        assert_eq!(windows.windows().len(), 2);
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
            assert_eq!(
                compile_sweep(&plan),
                vec![swept.then_some(0)],
                "{analysis:?}"
            );
            assert!(
                loop_sweep(&plan).iter().all(Option::is_none),
                "{analysis:?}"
            );
            let Replays::Stream(groups) = &plan.compile_jobs[0].analyses[0].replays else {
                panic!("{analysis:?}: a single stream replays by plan");
            };
            assert!(
                matches!(&groups[..], [ReplayPlan::Solo(_), ReplayPlan::Fused(six)] if six.loops.len() == 6),
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
                let controller = ControllerSpec {
                    governor,
                    sampling,
                    ..ControllerSpec::paper()
                };
                loop_jobs.push((corners[(rng.next() % 2) as usize], controller));
            }
            let replayers: Vec<usize> = (0..n).collect();
            let plans = plan_replay_groups(&replayers, |i| loop_jobs[i]);
            let mut seen = vec![0usize; n];
            let mut windows = HashSet::new();
            for plan in &plans {
                match plan {
                    ReplayPlan::Solo(i) => {
                        seen[*i] += 1;
                        let open = matches!(loop_jobs[*i].1.governor, GovernorSpec::Fixed(_));
                        assert!(!open, "fixed-supply member replayed solo");
                    }
                    ReplayPlan::Fused(group) => {
                        assert!(!group.loops.is_empty());
                        assert_eq!(group.loops.len(), group.ops.len());
                        let sampling = loop_jobs[group.loops[0]].1.sampling;
                        assert!(windows.insert(sampling), "sampling window split");
                        for (&i, &op) in group.loops.iter().zip(&group.ops) {
                            seen[i] += 1;
                            let (corner, controller) = loop_jobs[i];
                            assert_eq!(
                                controller.governor,
                                GovernorSpec::Fixed(op.supply),
                                "fused op off its member's supply"
                            );
                            assert_eq!(op.pvt, corner, "fused op off its member's corner");
                            assert_eq!(controller.sampling, sampling);
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
