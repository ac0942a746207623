//! The declarative scenario vocabulary: what to build, what traffic to
//! drive, which controller to close the loop with, and how to sweep.
//!
//! Every type here is plain serializable data — a [`ScenarioSpec`] can
//! live in an `.rzba` artifact, a test, or the named catalog — and the
//! executor in [`crate::exec`] turns it into simulator runs. Validation
//! happens when a spec is *used* (`build`/`expand` return `Err` for
//! inconsistent knobs), so decoding a hostile spec artifact can never
//! panic the executor.

use razorbus_core::experiments::fig6::WINDOW_LEN;
use razorbus_core::DvsBusDesign;
use razorbus_ctrl::{BoxedGovernor, ControllerConfig, GovernorSpec};
use razorbus_process::{PvtCorner, TechnologyNode};
use razorbus_tables::EnvCondition;
use razorbus_traces::{AdversarialCrosstalk, Benchmark, BurstyDma, TraceSource, ZeroBurstWords};
use razorbus_units::{Gigahertz, Millivolts, VoltageGrid};
use razorbus_wire::BusPhysical;

/// Which bus design a scenario member runs on.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DesignSpec {
    /// The paper's §3 reference design.
    Paper,
    /// The §6 modified bus (coupling ratio × 1.95 at constant
    /// worst-case delay).
    ModifiedCoupling,
    /// The paper bus rebuilt with a shadow-skew cap of this many percent
    /// of the cycle (the paper uses 33; the skew ablation sweeps it).
    SkewCapPercent(u32),
    /// The paper bus with the idealized 0/1/2 Elmore coupling weights
    /// (coupling-model ablation).
    ElmoreCoupling,
    /// A §6 technology-node design.
    Technology(TechnologyNode),
}

impl DesignSpec {
    /// Builds the design (the heavy `BusTables::build` step included) —
    /// the executor calls this once per *unique* spec in a set.
    ///
    /// # Errors
    ///
    /// Returns a description for out-of-range knobs or unsizeable nodes.
    pub fn build(&self) -> Result<DvsBusDesign, String> {
        match self {
            Self::Paper => Ok(DvsBusDesign::paper_default()),
            Self::ModifiedCoupling => Ok(DvsBusDesign::modified_paper_bus()),
            Self::SkewCapPercent(p) => {
                if !(1..=50).contains(p) {
                    return Err(format!("shadow-skew cap {p}% outside (0, 50]"));
                }
                Ok(DvsBusDesign::with_skew_cap(
                    BusPhysical::paper_default(),
                    VoltageGrid::paper_default(),
                    f64::from(*p) / 100.0,
                ))
            }
            Self::ElmoreCoupling => {
                let base = BusPhysical::paper_default();
                let bus = BusPhysical::build(
                    base.layout().clone(),
                    *base.parasitics(),
                    razorbus_wire::CouplingModel::elmore_ideal(),
                    razorbus_wire::RepeatedLine::new(
                        4,
                        razorbus_units::Millimeters::new(1.5),
                        razorbus_process::Repeater::l130(1.0),
                        razorbus_units::OhmsPerMillimeter::new(85.0),
                    ),
                    Gigahertz::PAPER_CLOCK,
                    razorbus_units::Picoseconds::new(600.0),
                    PvtCorner::WORST,
                    razorbus_process::DroopModel::l130_default(),
                )
                .map_err(|e| format!("Elmore-coupling bus does not size: {e}"))?;
                Ok(DvsBusDesign::from_bus(bus, VoltageGrid::paper_default()))
            }
            Self::Technology(node) => DvsBusDesign::for_technology(*node)
                .map_err(|e| format!("technology design does not size: {e}")),
        }
    }

    /// Short label for member names and renders.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Paper => "paper".to_string(),
            Self::ModifiedCoupling => "modified".to_string(),
            Self::SkewCapPercent(p) => format!("skew{p}"),
            Self::ElmoreCoupling => "elmore".to_string(),
            Self::Technology(node) => format!("{node:?}").to_lowercase(),
        }
    }
}

/// The traffic a scenario member drives over the bus.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WorkloadSpec {
    /// The ten SPEC2000 programs run consecutively under one governor —
    /// the Fig. 8 / Table 1 protocol.
    Suite,
    /// One SPEC2000 program.
    Single(Benchmark),
    /// A synthetic generator recipe (the non-paper workloads).
    Recipe(TrafficRecipe),
}

impl WorkloadSpec {
    /// Short label for member names and renders.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Suite => "suite".to_string(),
            Self::Single(b) => b.name().to_string(),
            Self::Recipe(r) => r.label(),
        }
    }
}

/// A parameterized synthetic traffic generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TrafficRecipe {
    /// Idle-parked bus with dense DMA bursts
    /// ([`razorbus_traces::BurstyDma`]).
    BurstyDma(DmaProfile),
    /// Zero-dominated stream ([`razorbus_traces::ZeroBurstWords`]).
    IdleDominated(IdleProfile),
    /// Worst victim/aggressor coupling patterns at a dialed-in rate
    /// ([`razorbus_traces::AdversarialCrosstalk`]).
    CrosstalkStorm(StormProfile),
    /// Deterministic phase rotation through all three generators — the
    /// mixed-traffic workload Monte-Carlo campaigns sweep, so one seed
    /// exercises burst, idle and crosstalk regimes in a single stream.
    Mixed(MixProfile),
}

impl TrafficRecipe {
    /// Instantiates the generator. The seed is folded with a
    /// recipe-specific constant so different recipes never share
    /// streams at the same scenario seed.
    ///
    /// # Errors
    ///
    /// Returns a description for out-of-range parameters (a decoded
    /// spec must never panic the executor).
    pub fn build_trace(&self, seed: u64) -> Result<Box<dyn TraceSource + Send>, String> {
        Ok(self.check()?.open(seed))
    }

    /// Checks the recipe's parameters once, for every seed: the
    /// returned [`CheckedRecipe`] opens its stream without error.
    ///
    /// # Errors
    ///
    /// Returns a description for out-of-range parameters.
    pub(crate) fn check(&self) -> Result<CheckedRecipe, String> {
        fn fraction(permille: u32, what: &str) -> Result<(), String> {
            if permille > 1_000 {
                return Err(format!("{what} {permille}‰ above 1000‰"));
            }
            Ok(())
        }
        fn dma(p: &DmaProfile) -> Result<(), String> {
            if p.mean_burst == 0 || p.mean_idle == 0 {
                return Err("DMA burst/idle lengths must be positive".to_string());
            }
            fraction(p.housekeeping_permille, "housekeeping rate")
        }
        match self {
            Self::BurstyDma(p) => dma(p)?,
            Self::IdleDominated(p) => fraction(p.nonzero_permille, "non-zero rate")?,
            Self::CrosstalkStorm(p) => fraction(p.aggression_permille, "aggression")?,
            Self::Mixed(p) => {
                if [p.dma_words, p.idle_words, p.storm_words] == [0; 3] {
                    return Err("mixed recipe rotates zero words".to_string());
                }
                dma(&p.dma)?;
                fraction(p.idle.nonzero_permille, "non-zero rate")?;
                fraction(p.storm.aggression_permille, "aggression")?;
            }
        }
        Ok(CheckedRecipe(*self))
    }

    /// Short label for member names and renders.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::BurstyDma(_) => "bursty-dma".to_string(),
            Self::IdleDominated(_) => "idle".to_string(),
            Self::CrosstalkStorm(p) => format!("crosstalk{}", p.aggression_permille),
            Self::Mixed(_) => "mixed".to_string(),
        }
    }
}

/// A [`TrafficRecipe`] whose parameters [`TrafficRecipe::check`]
/// accepted: every rate is a fraction and every length positive, so
/// opening its stream at any seed cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CheckedRecipe(TrafficRecipe);

impl CheckedRecipe {
    /// The recipe's stream at `seed` (see [`TrafficRecipe::build_trace`]).
    pub(crate) fn open(&self, seed: u64) -> Box<dyn TraceSource + Send> {
        let rate = |permille: u32| f64::from(permille) / 1_000.0;
        let dma = |seed, p: &DmaProfile| {
            let housekeeping = rate(p.housekeeping_permille);
            BurstyDma::new(seed ^ 0xD3A_0001, p.mean_burst, p.mean_idle, housekeeping)
        };
        let idle = |seed, p: &IdleProfile| {
            ZeroBurstWords::new(seed ^ 0xD3A_0002, rate(p.nonzero_permille))
        };
        let storm = |seed, p: &StormProfile| {
            AdversarialCrosstalk::new(seed ^ 0xD3A_0003, rate(p.aggression_permille))
        };
        match &self.0 {
            TrafficRecipe::BurstyDma(p) => Box::new(dma(seed, p)),
            TrafficRecipe::IdleDominated(p) => Box::new(idle(seed, p)),
            TrafficRecipe::CrosstalkStorm(p) => Box::new(storm(seed, p)),
            TrafficRecipe::Mixed(p) => {
                // An extra fold keeps the mixed phases off the streams
                // the pure recipes would emit at the same scenario seed.
                let seed = seed ^ 0xD3A_0004;
                Box::new(MixedTraffic {
                    dma: dma(seed, &p.dma),
                    idle: idle(seed, &p.idle),
                    storm: storm(seed, &p.storm),
                    lens: [p.dma_words, p.idle_words, p.storm_words],
                    phase: 2,
                    remaining: 0,
                })
            }
        }
    }
}

/// The rotating source behind [`TrafficRecipe::Mixed`]: cycles through
/// DMA → idle → crosstalk phases of the configured word counts,
/// skipping zero-length phases. Each sub-generator keeps its own state
/// across phases, so the stream is a pure function of the seed — no
/// extra randomness enters the rotation.
struct MixedTraffic {
    dma: BurstyDma,
    idle: ZeroBurstWords,
    storm: AdversarialCrosstalk,
    /// Phase lengths in words: DMA, idle, crosstalk.
    lens: [u64; 3],
    /// Current phase index into `lens`.
    phase: usize,
    /// Words left in the current phase.
    remaining: u64,
}

impl TraceSource for MixedTraffic {
    fn next_word(&mut self) -> u32 {
        let mut word = [0];
        self.fill(&mut word);
        word[0]
    }

    /// Hands each phase's run to its generator's own `fill` in one call.
    fn fill(&mut self, mut out: &mut [u32]) {
        while !out.is_empty() {
            while self.remaining == 0 {
                self.phase = (self.phase + 1) % self.lens.len();
                self.remaining = self.lens[self.phase];
            }
            let n = self.remaining.min(out.len() as u64) as usize;
            let (run, rest) = std::mem::take(&mut out).split_at_mut(n);
            match self.phase {
                0 => self.dma.fill(run),
                1 => self.idle.fill(run),
                _ => self.storm.fill(run),
            }
            self.remaining -= n as u64;
            out = rest;
        }
    }
}

/// [`TrafficRecipe::BurstyDma`] parameters. Rates are permille so specs
/// stay integer-exact across every encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct DmaProfile {
    /// Mean burst length in cycles.
    pub mean_burst: u64,
    /// Mean idle gap in cycles.
    pub mean_idle: u64,
    /// Probability (‰) that an idle cycle carries a small housekeeping
    /// value instead of holding the bus.
    pub housekeeping_permille: u32,
}

/// [`TrafficRecipe::IdleDominated`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct IdleProfile {
    /// Probability (‰) of a non-zero word.
    pub nonzero_permille: u32,
}

/// [`TrafficRecipe::CrosstalkStorm`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct StormProfile {
    /// Fraction (‰) of cycles carrying the worst coupling pattern.
    pub aggression_permille: u32,
}

/// [`TrafficRecipe::Mixed`] parameters: the three sub-generator
/// profiles plus how many words each contributes per rotation.
/// Zero-length phases are skipped; at least one must be non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct MixProfile {
    /// The DMA phase's generator profile.
    pub dma: DmaProfile,
    /// Words per DMA phase.
    pub dma_words: u64,
    /// The idle phase's generator profile.
    pub idle: IdleProfile,
    /// Words per idle phase.
    pub idle_words: u64,
    /// The crosstalk phase's generator profile.
    pub storm: StormProfile,
    /// Words per crosstalk phase.
    pub storm_words: u64,
}

/// The control side of a member: governor choice plus optional
/// overrides of the paper controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ControllerSpec {
    /// Which governor closes the loop.
    pub governor: GovernorSpec,
    /// Decision-window override in cycles (`None` = the paper's 10 000).
    pub window: Option<u64>,
    /// Regulator ramp override in ns per 10 mV (`None` = the paper's
    /// 1 µs; `Some(0)` = an ideal instant regulator).
    pub ramp_ns_per_10mv: Option<u32>,
    /// Trajectory sampling window (`None` = no samples).
    pub sampling: Option<u64>,
}

impl ControllerSpec {
    /// The paper's §5 controller with Fig. 8's 10 k-cycle sampling.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            governor: GovernorSpec::Threshold,
            window: None,
            ramp_ns_per_10mv: None,
            sampling: Some(10_000),
        }
    }

    /// Builds the governor against `design`'s controller configuration
    /// for `corner`'s process, with the overrides applied.
    ///
    /// # Errors
    ///
    /// Returns a description for inconsistent overrides, and for a
    /// fixed supply or controller start voltage off the design's grid.
    pub fn build(&self, design: &DvsBusDesign, corner: PvtCorner) -> Result<BoxedGovernor, String> {
        Ok(self.governor.build(self.configure(design, corner)?))
    }

    /// The controller configuration [`ControllerSpec::build`] hands its
    /// governor: checked once, so building the governor from it cannot
    /// fail.
    ///
    /// # Errors
    ///
    /// The same as [`ControllerSpec::build`].
    pub(crate) fn configure(
        &self,
        design: &DvsBusDesign,
        corner: PvtCorner,
    ) -> Result<ControllerConfig, String> {
        if self.window == Some(0) {
            return Err("controller window must be positive".to_string());
        }
        if self.sampling == Some(0) {
            return Err("sampling window must be positive".to_string());
        }
        let mut config = design.controller_config(corner.process);
        if let Some(window) = self.window {
            config.window = window;
        }
        if let Some(ns) = self.ramp_ns_per_10mv {
            config.regulator =
                razorbus_ctrl::RegulatorModel::new(f64::from(ns), Gigahertz::PAPER_CLOCK);
        }
        match self.governor {
            GovernorSpec::Fixed(v) if design.grid().index_of(v).is_none() => {
                return Err(format!("fixed supply {v} is not on the design grid"));
            }
            // The paper controllers start at 1.2 V, which a design with
            // a lower nominal supply does not hold.
            GovernorSpec::Threshold | GovernorSpec::Proportional
                if design.grid().index_of(config.start).is_none() =>
            {
                return Err(format!(
                    "{} governor starts at {}, which is not on the design grid",
                    self.governor.label(),
                    config.start
                ));
            }
            _ => {}
        }
        Ok(config)
    }
}

/// The environment corner a member runs at.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum CornerSpec {
    /// Typical process, 100 °C, no IR drop ([`PvtCorner::TYPICAL`]).
    Typical,
    /// Slow process, 100 °C, 10 % IR drop ([`PvtCorner::WORST`]).
    Worst,
    /// Any explicit corner.
    Pvt(PvtCorner),
}

impl CornerSpec {
    /// The concrete corner.
    #[must_use]
    pub fn resolve(&self) -> PvtCorner {
        match self {
            Self::Typical => PvtCorner::TYPICAL,
            Self::Worst => PvtCorner::WORST,
            Self::Pvt(c) => *c,
        }
    }

    /// Short label for member names.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Typical => "typical".to_string(),
            Self::Worst => "worst".to_string(),
            Self::Pvt(c) => format!("{:?}", c.process).to_lowercase(),
        }
    }
}

/// The run geometry of a member.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunSpec {
    /// The environment corner.
    pub corner: CornerSpec,
    /// Cycles per benchmark (for [`WorkloadSpec::Suite`]) or total
    /// cycles (single-stream workloads).
    pub cycles_per_benchmark: u64,
    /// Trace seed.
    pub seed: u64,
}

/// Which products a member reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AnalysisSpec {
    /// The closed-loop run itself (trajectory, energies, errors).
    ClosedLoop,
    /// The workload's sweep-engine summary (static voltage analyses).
    StaticSweep,
    /// Both.
    Full,
    /// Streaming aggregation: the member's closed loop runs, but only
    /// its scalar metrics fold into the set's campaign digest — the
    /// per-member products are dropped, so campaigns scale to tens of
    /// thousands of members in constant memory.
    Aggregate,
    /// One sweep-engine summary per 10 000-cycle window of a single
    /// stream (Fig. 6's oracle input), collected in a pass of its own.
    /// The member's cycles must be a multiple of the window.
    WindowedSweep,
}

impl AnalysisSpec {
    /// Whether this member materializes a closed-loop product.
    #[must_use]
    pub fn wants_loop(self) -> bool {
        matches!(self, Self::ClosedLoop | Self::Full)
    }

    /// Whether this member materializes a sweep product (a summary, or
    /// windowed summaries).
    #[must_use]
    pub fn wants_sweep(self) -> bool {
        matches!(self, Self::StaticSweep | Self::Full | Self::WindowedSweep)
    }

    /// Whether this member's sweep product is windowed.
    #[must_use]
    pub fn wants_windows(self) -> bool {
        matches!(self, Self::WindowedSweep)
    }

    /// Whether this member folds into the campaign digest instead of
    /// materializing per-member products.
    #[must_use]
    pub fn wants_aggregate(self) -> bool {
        matches!(self, Self::Aggregate)
    }
}

/// One sweep dimension; a spec's axes expand as a cross product.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SweepAxis {
    /// Run the member at each of these corners.
    Corners(Vec<CornerSpec>),
    /// Run the member under each of these governors.
    Governors(Vec<GovernorSpec>),
    /// Run the member at each fixed supply of this range (replaces the
    /// governor with [`GovernorSpec::Fixed`]).
    Voltages(VoltageSweep),
    /// Run the member once per trace seed — variance bands through the
    /// executor. Every member of one seed shares that seed's compiled
    /// trace; different seeds compile separately.
    Seeds(Vec<u64>),
    /// Run the member at each of these cycle budgets — the per-member
    /// cycle override that lets one catalog entry cap a Monte-Carlo
    /// campaign's compiled footprint regardless of the CLI's global
    /// `RAZORBUS_CYCLES` budget.
    Cycles(Vec<u64>),
}

/// An inclusive fixed-supply range for [`SweepAxis::Voltages`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct VoltageSweep {
    /// Lowest supply.
    pub from: Millivolts,
    /// Highest supply.
    pub to: Millivolts,
    /// Step between members.
    pub step: Millivolts,
}

impl VoltageSweep {
    /// How many supplies the range holds, or why it holds none.
    fn count(&self) -> Result<usize, String> {
        if self.step.mv() <= 0 {
            return Err("voltage sweep step must be positive".to_string());
        }
        if self.from > self.to {
            return Err(format!(
                "voltage sweep range is empty ({} > {})",
                self.from, self.to
            ));
        }
        let span = i64::from(self.to.mv()) - i64::from(self.from.mv());
        Ok(usize::try_from(span / i64::from(self.step.mv()) + 1).unwrap_or(usize::MAX))
    }

    /// Supply `k` of a range holding more than `k`, computed in `i64`
    /// so no step can overflow.
    fn point(&self, k: usize) -> Millivolts {
        let k = i64::try_from(k).expect("a range holds fewer than 2^32 points");
        let mv = i64::from(self.from.mv()) + k * i64::from(self.step.mv());
        Millivolts::new(i32::try_from(mv).expect("point within the range"))
    }
}

impl SweepAxis {
    /// How many values the axis holds, or why `scenario` cannot sweep it.
    fn count(&self, scenario: &str) -> Result<usize, String> {
        let (n, what) = match self {
            Self::Corners(corners) => (corners.len(), "corners"),
            Self::Governors(governors) => (governors.len(), "governors"),
            Self::Voltages(range) => return range.count(),
            Self::Seeds(seeds) => (seeds.len(), "seeds"),
            Self::Cycles(budgets) => (budgets.len(), "budgets"),
        };
        if n == 0 {
            return Err(format!("scenario `{scenario}` sweeps zero {what}"));
        }
        if matches!(self, Self::Cycles(budgets) if budgets.contains(&0)) {
            return Err(format!("scenario `{scenario}` sweeps a zero cycle budget"));
        }
        Ok(n)
    }

    /// Sets value `k` of the axis on `member`.
    fn set(&self, k: usize, member: &mut ScenarioSpec) {
        match self {
            Self::Corners(corners) => member.run.corner = corners[k],
            Self::Governors(governors) => member.controller.governor = governors[k],
            Self::Voltages(range) => {
                member.controller.governor = GovernorSpec::Fixed(range.point(k))
            }
            Self::Seeds(seeds) => member.run.seed = seeds[k],
            Self::Cycles(budgets) => member.run.cycles_per_benchmark = budgets[k],
        }
    }

    /// The suffix value `k` of the axis appends to a member's name.
    fn suffix(&self, k: usize) -> String {
        match self {
            Self::Corners(corners) => format!("@{}", corners[k].label()),
            Self::Governors(governors) => format!("+{}", governors[k].label()),
            Self::Voltages(range) => format!("@{}mV", range.point(k).mv()),
            Self::Seeds(seeds) => format!("#seed{}", seeds[k]),
            Self::Cycles(budgets) => format!("^{}c", budgets[k]),
        }
    }
}

/// One declarative scenario: design + workload + controller + run
/// geometry + requested analysis, optionally swept along axes.
///
/// ```
/// use razorbus_scenario::{
///     AnalysisSpec, ControllerSpec, CornerSpec, DesignSpec, RunSpec, ScenarioSpec, WorkloadSpec,
/// };
///
/// let spec = ScenarioSpec {
///     name: "fig8".to_string(),
///     design: DesignSpec::Paper,
///     workload: WorkloadSpec::Suite,
///     controller: ControllerSpec::paper(),
///     run: RunSpec {
///         corner: CornerSpec::Typical,
///         cycles_per_benchmark: 10_000,
///         seed: 2005,
///     },
///     analysis: AnalysisSpec::ClosedLoop,
///     sweep: vec![],
/// };
/// assert_eq!(spec.expand().unwrap().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Base name; sweep expansion appends axis labels.
    pub name: String,
    /// The bus design.
    pub design: DesignSpec,
    /// The traffic.
    pub workload: WorkloadSpec,
    /// The control loop.
    pub controller: ControllerSpec,
    /// Corner, cycles, seed.
    pub run: RunSpec,
    /// Requested products.
    pub analysis: AnalysisSpec,
    /// Sweep axes (cross product; empty = one member).
    pub sweep: Vec<SweepAxis>,
}

impl ScenarioSpec {
    /// Errors unless the member's corner is one the design tables
    /// tabulate: their six (process, temperature) conditions at either
    /// IR drop. The error names the member and its condition.
    pub(crate) fn check_corner(&self) -> Result<(), String> {
        let condition = EnvCondition::from_pvt(self.run.corner.resolve());
        match condition.paper_index() {
            Some(_) => Ok(()),
            None => Err(format!(
                "member `{}` runs at condition {condition}, which is not tabulated",
                self.name
            )),
        }
    }

    /// Errors unless a windowed member reads a single stream for a
    /// positive whole number of windows: the oracle's windows do not
    /// span a suite's ten programs, and a partial window is no window.
    /// The error names the member.
    pub(crate) fn check_windows(&self) -> Result<(), String> {
        let cycles = self.run.cycles_per_benchmark;
        let why = if !self.analysis.wants_windows() {
            return Ok(());
        } else if self.workload == WorkloadSpec::Suite {
            "reads one stream, not the ten-program suite".to_string()
        } else if cycles == 0 || !cycles.is_multiple_of(WINDOW_LEN) {
            format!("runs a positive multiple of {WINDOW_LEN} cycles, not {cycles}")
        } else {
            return Ok(());
        };
        Err(format!("member `{}`: a windowed sweep {why}", self.name))
    }

    /// Expands the sweep axes into concrete members (`sweep` emptied,
    /// names suffixed per axis value).
    ///
    /// # Errors
    ///
    /// Returns a description for empty axes, zero budgets, malformed
    /// voltage ranges, or more members than fit in memory.
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, String> {
        if self.run.cycles_per_benchmark == 0 {
            return Err(format!("scenario `{}` has a zero cycle budget", self.name));
        }
        let counts = self
            .sweep
            .iter()
            .map(|axis| axis.count(&self.name))
            .collect::<Result<Vec<_>, _>>()?;
        let too_many = || {
            format!(
                "scenario `{}` expands to more members than fit in memory",
                self.name
            )
        };
        let total = counts
            .iter()
            .try_fold(1usize, |n, &c| n.checked_mul(c))
            .ok_or_else(too_many)?;
        let mut members = Vec::new();
        members.try_reserve_exact(total).map_err(|_| too_many())?;

        // A mixed-radix count over the axes, first axis outermost: the
        // order of a nested loop over them, with each suffix formatted
        // once per axis value rather than once per member.
        let suffixes: Vec<Vec<String>> = self
            .sweep
            .iter()
            .zip(&counts)
            .map(|(axis, &n)| (0..n).map(|k| axis.suffix(k)).collect())
            .collect();
        let name_len = self.name.len()
            + suffixes
                .iter()
                .filter_map(|axis| axis.iter().map(String::len).max())
                .sum::<usize>();
        let base = ScenarioSpec {
            name: String::new(),
            workload: self.workload.clone(),
            sweep: Vec::new(),
            ..*self
        };
        let mut digits = vec![0usize; counts.len()];
        for _ in 0..total {
            let mut member = base.clone();
            member.name.reserve_exact(name_len);
            member.name.push_str(&self.name);
            for ((axis, suffixes), &k) in self.sweep.iter().zip(&suffixes).zip(&digits) {
                axis.set(k, &mut member);
                member.name.push_str(&suffixes[k]);
            }
            members.push(member);
            for (k, &n) in digits.iter_mut().zip(&counts).rev() {
                *k += 1;
                if *k < n {
                    break;
                }
                *k = 0;
            }
        }
        Ok(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The nested-loop expansion [`ScenarioSpec::expand`] replaced: every
    /// member is cloned at every axis level and renamed there. The
    /// oracle the mixed-radix expansion must match, names and errors
    /// included.
    fn expand_reference(spec: &ScenarioSpec) -> Result<Vec<ScenarioSpec>, String> {
        if spec.run.cycles_per_benchmark == 0 {
            return Err(format!("scenario `{}` has a zero cycle budget", spec.name));
        }
        let mut members = vec![ScenarioSpec {
            sweep: vec![],
            ..spec.clone()
        }];
        for axis in &spec.sweep {
            let mut next = Vec::new();
            for member in &members {
                match axis {
                    SweepAxis::Corners(corners) => {
                        if corners.is_empty() {
                            return Err(format!("scenario `{}` sweeps zero corners", spec.name));
                        }
                        for corner in corners {
                            let mut m = member.clone();
                            m.run.corner = *corner;
                            m.name = format!("{}@{}", member.name, corner.label());
                            next.push(m);
                        }
                    }
                    SweepAxis::Governors(governors) => {
                        if governors.is_empty() {
                            return Err(format!("scenario `{}` sweeps zero governors", spec.name));
                        }
                        for governor in governors {
                            let mut m = member.clone();
                            m.controller.governor = *governor;
                            m.name = format!("{}+{}", member.name, governor.label());
                            next.push(m);
                        }
                    }
                    SweepAxis::Voltages(range) => {
                        range.count()?;
                        // Steps until the next supply would pass `to`
                        // or leave the `i32` range.
                        let points = std::iter::successors(Some(range.from), |v| {
                            let next = v.mv().checked_add(range.step.mv())?;
                            (next <= range.to.mv()).then_some(Millivolts::new(next))
                        });
                        for v in points {
                            let mut m = member.clone();
                            m.controller.governor = GovernorSpec::Fixed(v);
                            m.name = format!("{}@{}mV", member.name, v.mv());
                            next.push(m);
                        }
                    }
                    SweepAxis::Seeds(seeds) => {
                        if seeds.is_empty() {
                            return Err(format!("scenario `{}` sweeps zero seeds", spec.name));
                        }
                        for seed in seeds {
                            let mut m = member.clone();
                            m.run.seed = *seed;
                            m.name = format!("{}#seed{}", member.name, seed);
                            next.push(m);
                        }
                    }
                    SweepAxis::Cycles(budgets) => {
                        if budgets.is_empty() {
                            return Err(format!("scenario `{}` sweeps zero budgets", spec.name));
                        }
                        for budget in budgets {
                            if *budget == 0 {
                                return Err(format!(
                                    "scenario `{}` sweeps a zero cycle budget",
                                    spec.name
                                ));
                            }
                            let mut m = member.clone();
                            m.run.cycles_per_benchmark = *budget;
                            m.name = format!("{}^{}c", member.name, budget);
                            next.push(m);
                        }
                    }
                }
            }
            members = next;
        }
        Ok(members)
    }

    /// The set expansion `ScenarioSet::expand` replaced: members expand
    /// in order, and each resolved name is checked against the owned
    /// names before it, so an earlier duplicate outranks a later
    /// member's expansion error.
    fn expand_set_reference(set: &crate::ScenarioSet) -> Result<Vec<ScenarioSpec>, String> {
        let mut out: Vec<ScenarioSpec> = Vec::new();
        let mut names = std::collections::HashSet::new();
        for member in &set.members {
            for resolved in expand_reference(member)? {
                if !names.insert(resolved.name.clone()) {
                    return Err(format!(
                        "scenario set `{}` expands to duplicate member `{}`",
                        set.name, resolved.name
                    ));
                }
                out.push(resolved);
            }
        }
        if out.is_empty() {
            return Err(format!("scenario set `{}` has no members", set.name));
        }
        Ok(out)
    }

    /// A deterministic draw stream for building axes from one seed.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            // splitmix64
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[(self.next() % from.len() as u64) as usize]
        }
    }

    /// An axis of kind `kind % 5` with `n` values (0–4), drawn from
    /// `entropy`: repeated values, zero budgets, and inverted, zero-step
    /// or `i32`-edge voltage ranges all occur.
    fn arbitrary_axis(kind: u8, n: usize, entropy: u64) -> SweepAxis {
        let mut d = Draws(entropy);
        let corners = [
            CornerSpec::Typical,
            CornerSpec::Worst,
            CornerSpec::Pvt(PvtCorner::FIG5[0]),
            CornerSpec::Pvt(PvtCorner::FIG5[3]),
        ];
        let governors = [
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
            GovernorSpec::Fixed(Millivolts::new(900)),
            GovernorSpec::Fixed(Millivolts::new(-20)),
        ];
        match kind % 5 {
            0 => SweepAxis::Corners((0..n).map(|_| d.pick(&corners)).collect()),
            1 => SweepAxis::Governors((0..n).map(|_| d.pick(&governors)).collect()),
            2 => {
                let from = d.pick(&[-1_000i64, 0, 900, i64::from(i32::MAX) - 50]);
                let step = d.pick(&[-20i64, 0, 1, 20, 45]);
                // `n` points, or an inverted range when `n` is zero; the
                // end clamps to `i32::MAX`, so edge ranges hold fewer.
                let slack = (d.next() % step.unsigned_abs().max(1)) as i64;
                let to = if n == 0 {
                    from - 1 - slack
                } else {
                    from + step.max(0) * (n as i64 - 1) + slack
                };
                let mv = |v: i64| Millivolts::new(v.clamp(i32::MIN.into(), i32::MAX.into()) as i32);
                SweepAxis::Voltages(VoltageSweep {
                    from: mv(from),
                    to: mv(to),
                    step: mv(step),
                })
            }
            3 => SweepAxis::Seeds((0..n).map(|_| d.pick(&[0, 1, 7, d.0])).collect()),
            _ => SweepAxis::Cycles((0..n).map(|_| d.pick(&[0, 1, 2_000, u64::MAX])).collect()),
        }
    }

    fn arbitrary_spec(name: u8, zero_budget: bool, axes: &[(u8, usize, u64)]) -> ScenarioSpec {
        let mut spec = base();
        spec.name = ["m", "m@typical", "n", ""][usize::from(name % 4)].to_string();
        if zero_budget {
            spec.run.cycles_per_benchmark = 0;
        }
        spec.sweep = axes
            .iter()
            .map(|&(kind, n, entropy)| arbitrary_axis(kind, n, entropy))
            .collect();
        spec
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The mixed-radix expansion emits the nested loop's members —
        /// every field, names included, in the same order — or its
        /// error, word for word.
        #[test]
        fn expansion_matches_the_nested_loop_oracle(
            name in 0u8..4,
            zero_budget in 0u8..8,
            axes in proptest::collection::vec((0u8..5, 0usize..5, any::<u64>()), 0..5),
        ) {
            let spec = arbitrary_spec(name, zero_budget == 0, &axes);
            prop_assert_eq!(spec.expand(), expand_reference(&spec));
        }

        /// Set expansion keeps the reference's members and its error
        /// precedence: duplicates across and within members, against
        /// expansion errors of later members.
        #[test]
        fn set_expansion_matches_the_reference(
            picks in proptest::collection::vec((0u8..4, 0u8..16, any::<u64>()), 0..4),
        ) {
            let members = picks
                .iter()
                .map(|&(name, shape, entropy)| {
                    // Small axes so names often collide across members.
                    let axes = [(shape % 5, usize::from(shape / 5 % 3), entropy)];
                    arbitrary_spec(name, shape == 15, &axes[..usize::from(shape % 2)])
                })
                .collect();
            let set = crate::ScenarioSet { name: "set".to_string(), members };
            prop_assert_eq!(set.expand(), expand_set_reference(&set));
        }
    }

    #[test]
    fn one_point_voltage_range_at_the_top_of_i32_does_not_wrap() {
        let mut spec = base();
        spec.sweep = vec![SweepAxis::Voltages(VoltageSweep {
            from: Millivolts::new(i32::MAX - 500),
            to: Millivolts::new(i32::MAX),
            step: Millivolts::new(1_000),
        })];
        let members = spec.expand().unwrap();
        assert_eq!(members.len(), 1);
        assert_eq!(
            members[0].controller.governor,
            GovernorSpec::Fixed(Millivolts::new(i32::MAX - 500))
        );
        assert_eq!(members[0].name, format!("base@{}mV", i32::MAX - 500));
        assert_eq!(expand_reference(&spec), Ok(members));
    }

    #[test]
    fn an_overflowing_member_count_is_an_error_naming_the_scenario() {
        let mut spec = base();
        spec.name = "huge".to_string();
        let seeds: Vec<u64> = (0..1 << 16).collect();
        spec.sweep = vec![SweepAxis::Seeds(seeds); 4];
        let err = spec.expand().unwrap_err();
        assert!(err.contains("scenario `huge`"), "{err}");
        assert!(err.contains("more members than fit in memory"), "{err}");
    }

    /// The word-at-a-time rotation `fill` replaced: the oracle both of
    /// `MixedTraffic`'s entry points must match.
    fn next_word_reference(m: &mut MixedTraffic) -> u32 {
        while m.remaining == 0 {
            m.phase = (m.phase + 1) % m.lens.len();
            m.remaining = m.lens[m.phase];
        }
        m.remaining -= 1;
        match m.phase {
            0 => m.dma.next_word(),
            1 => m.idle.next_word(),
            _ => m.storm.next_word(),
        }
    }

    #[test]
    fn mixed_fill_matches_the_word_at_a_time_reference() {
        // Phases of 0 to 5 words (a zero-length one is skipped) put many
        // rotations inside each chunk; chunks of 1 word are `next_word`.
        let mixed = |seed: u64, lens: [u64; 3]| MixedTraffic {
            dma: BurstyDma::new(seed, 2, 3, 0.5),
            idle: ZeroBurstWords::new(seed, 0.3),
            storm: AdversarialCrosstalk::new(seed, 0.4),
            lens,
            phase: 2,
            remaining: 0,
        };
        for (seed, lens) in [
            (1, [1, 1, 1]),
            (2, [0, 3, 5]),
            (3, [4, 0, 1]),
            (4, [5, 2, 0]),
        ] {
            let (mut filled, mut reference) = (mixed(seed, lens), mixed(seed, lens));
            for len in [1, 7, 64, 1, 300, 2, 5] {
                let mut block = vec![0; len];
                filled.fill(&mut block);
                let words: Vec<u32> = (0..len)
                    .map(|_| next_word_reference(&mut reference))
                    .collect();
                assert_eq!(block, words, "seed {seed}, phases {lens:?}");
            }
        }
    }

    #[test]
    fn mixed_word_counts_that_overflow_a_sum_still_rotate() {
        let profile = MixProfile {
            dma: DmaProfile {
                mean_burst: 10,
                mean_idle: 10,
                housekeeping_permille: 0,
            },
            dma_words: u64::MAX,
            idle: IdleProfile {
                nonzero_permille: 0,
            },
            idle_words: 1,
            storm: StormProfile {
                aggression_permille: 0,
            },
            storm_words: 0,
        };
        let mut trace = TrafficRecipe::Mixed(profile).build_trace(3).unwrap();
        assert_eq!(trace.take_words(64).len(), 64);
        let idle = MixProfile {
            dma_words: 0,
            idle_words: 0,
            ..profile
        };
        let err = TrafficRecipe::Mixed(idle).build_trace(3).err().unwrap();
        assert!(err.contains("rotates zero words"), "{err}");
    }

    fn base() -> ScenarioSpec {
        ScenarioSpec {
            name: "base".to_string(),
            design: DesignSpec::Paper,
            workload: WorkloadSpec::Suite,
            controller: ControllerSpec::paper(),
            run: RunSpec {
                corner: CornerSpec::Typical,
                cycles_per_benchmark: 1_000,
                seed: 1,
            },
            analysis: AnalysisSpec::ClosedLoop,
            sweep: vec![],
        }
    }

    #[test]
    fn expansion_is_a_cross_product_with_labeled_names() {
        let mut spec = base();
        spec.sweep = vec![
            SweepAxis::Corners(vec![CornerSpec::Worst, CornerSpec::Typical]),
            SweepAxis::Governors(vec![GovernorSpec::Threshold, GovernorSpec::Proportional]),
        ];
        let members = spec.expand().unwrap();
        assert_eq!(members.len(), 4);
        let names: Vec<&str> = members.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "base@worst+threshold",
                "base@worst+proportional",
                "base@typical+threshold",
                "base@typical+proportional",
            ]
        );
        assert!(members.iter().all(|m| m.sweep.is_empty()));
    }

    #[test]
    fn voltage_axis_expands_to_fixed_governors() {
        let mut spec = base();
        spec.sweep = vec![SweepAxis::Voltages(VoltageSweep {
            from: Millivolts::new(900),
            to: Millivolts::new(940),
            step: Millivolts::new(20),
        })];
        let members = spec.expand().unwrap();
        assert_eq!(members.len(), 3);
        assert_eq!(
            members[0].controller.governor,
            GovernorSpec::Fixed(Millivolts::new(900))
        );
        assert_eq!(members[2].name, "base@940mV");
    }

    #[test]
    fn seed_axis_expands_to_labeled_members() {
        let mut spec = base();
        spec.sweep = vec![
            SweepAxis::Seeds(vec![1, 2, 3]),
            SweepAxis::Governors(vec![GovernorSpec::Threshold, GovernorSpec::Proportional]),
        ];
        let members = spec.expand().unwrap();
        assert_eq!(members.len(), 6);
        assert_eq!(members[0].name, "base#seed1+threshold");
        assert_eq!(members[0].run.seed, 1);
        assert_eq!(members[5].name, "base#seed3+proportional");
        assert_eq!(members[5].run.seed, 3);
        // Both governors of one seed share that seed's trace identity.
        assert_eq!(members[4].run.seed, members[5].run.seed);
    }

    #[test]
    fn empty_axes_and_zero_budgets_are_rejected() {
        let mut spec = base();
        spec.sweep = vec![SweepAxis::Corners(vec![])];
        assert!(spec.expand().unwrap_err().contains("zero corners"));
        let mut spec = base();
        spec.sweep = vec![SweepAxis::Seeds(vec![])];
        assert!(spec.expand().unwrap_err().contains("zero seeds"));
        let mut spec = base();
        spec.run.cycles_per_benchmark = 0;
        assert!(spec.expand().unwrap_err().contains("cycle budget"));
        let mut spec = base();
        spec.sweep = vec![SweepAxis::Voltages(VoltageSweep {
            from: Millivolts::new(1_000),
            to: Millivolts::new(900),
            step: Millivolts::new(20),
        })];
        assert!(spec.expand().unwrap_err().contains("empty"));
    }

    #[test]
    fn recipes_build_deterministic_traces() {
        let recipe = TrafficRecipe::BurstyDma(DmaProfile {
            mean_burst: 100,
            mean_idle: 500,
            housekeeping_permille: 10,
        });
        let mut a = recipe.build_trace(7).unwrap();
        let mut b = recipe.build_trace(7).unwrap();
        assert_eq!(a.take_words(256), b.take_words(256));
        // Out-of-range parameters error instead of panicking.
        let bad = TrafficRecipe::IdleDominated(IdleProfile {
            nonzero_permille: 2_000,
        });
        assert!(bad.build_trace(1).is_err());
        let bad = TrafficRecipe::BurstyDma(DmaProfile {
            mean_burst: 0,
            mean_idle: 1,
            housekeeping_permille: 0,
        });
        assert!(bad.build_trace(1).is_err());
    }

    #[test]
    fn design_specs_build_and_label() {
        // Cheap sanity on the knob validation; heavier builds are
        // covered by the executor tests.
        assert!(DesignSpec::SkewCapPercent(60).build().is_err());
        assert_eq!(DesignSpec::SkewCapPercent(25).label(), "skew25");
        assert_eq!(DesignSpec::Technology(TechnologyNode::L90).label(), "l90");
    }

    #[test]
    fn controller_spec_rejects_bad_overrides() {
        let design = DvsBusDesign::paper_default();
        let mut spec = ControllerSpec::paper();
        spec.window = Some(0);
        assert!(spec.build(&design, PvtCorner::TYPICAL).is_err());
        let mut spec = ControllerSpec::paper();
        spec.governor = GovernorSpec::Fixed(Millivolts::new(905));
        let err = match spec.build(&design, PvtCorner::TYPICAL) {
            Err(e) => e,
            Ok(_) => panic!("off-grid fixed supply was accepted"),
        };
        assert!(err.contains("not on the design grid"));
        // A 1.1 V node cannot start a paper controller at 1.2 V.
        let node = DvsBusDesign::for_technology(TechnologyNode::L90).unwrap();
        for governor in [GovernorSpec::Threshold, GovernorSpec::Proportional] {
            let spec = ControllerSpec {
                governor,
                ..ControllerSpec::paper()
            };
            let err = match spec.build(&node, PvtCorner::TYPICAL) {
                Err(e) => e,
                Ok(_) => panic!("{governor} started off the grid"),
            };
            assert!(err.contains("starts at 1200 mV"), "{err}");
        }
    }
}
