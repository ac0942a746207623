//! The declarative scenario vocabulary: what to build, what traffic to
//! drive, which controller to close the loop with, and how to sweep.
//!
//! Every type here is plain serializable data — a [`ScenarioSpec`] can
//! live in an `.rzba` artifact, a test, or the named catalog — and the
//! executor in [`crate::exec`] turns it into simulator runs. Validation
//! happens when a spec is *used* (`build`/`expand` return `Err` for
//! inconsistent knobs), so decoding a hostile spec artifact can never
//! panic the executor.

use razorbus_core::DvsBusDesign;
use razorbus_ctrl::{BoxedGovernor, GovernorSpec};
use razorbus_process::{PvtCorner, TechnologyNode};
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
        fn fraction(permille: u32, what: &str) -> Result<f64, String> {
            if permille > 1_000 {
                return Err(format!("{what} {permille}‰ above 1000‰"));
            }
            Ok(f64::from(permille) / 1_000.0)
        }
        match self {
            Self::BurstyDma(p) => {
                if p.mean_burst == 0 || p.mean_idle == 0 {
                    return Err("DMA burst/idle lengths must be positive".to_string());
                }
                let housekeeping = fraction(p.housekeeping_permille, "housekeeping rate")?;
                Ok(Box::new(BurstyDma::new(
                    seed ^ 0xD3A_0001,
                    p.mean_burst,
                    p.mean_idle,
                    housekeeping,
                )))
            }
            Self::IdleDominated(p) => {
                let nonzero = fraction(p.nonzero_permille, "non-zero rate")?;
                Ok(Box::new(ZeroBurstWords::new(seed ^ 0xD3A_0002, nonzero)))
            }
            Self::CrosstalkStorm(p) => {
                let aggression = fraction(p.aggression_permille, "aggression")?;
                Ok(Box::new(AdversarialCrosstalk::new(
                    seed ^ 0xD3A_0003,
                    aggression,
                )))
            }
            Self::Mixed(p) => {
                if p.dma_words + p.idle_words + p.storm_words == 0 {
                    return Err("mixed recipe rotates zero words".to_string());
                }
                if p.dma.mean_burst == 0 || p.dma.mean_idle == 0 {
                    return Err("DMA burst/idle lengths must be positive".to_string());
                }
                let housekeeping = fraction(p.dma.housekeeping_permille, "housekeeping rate")?;
                let nonzero = fraction(p.idle.nonzero_permille, "non-zero rate")?;
                let aggression = fraction(p.storm.aggression_permille, "aggression")?;
                // An extra fold keeps the mixed phases off the streams
                // the pure recipes would emit at the same scenario seed.
                let seed = seed ^ 0xD3A_0004;
                Ok(Box::new(MixedTraffic {
                    dma: BurstyDma::new(
                        seed ^ 0xD3A_0001,
                        p.dma.mean_burst,
                        p.dma.mean_idle,
                        housekeeping,
                    ),
                    idle: ZeroBurstWords::new(seed ^ 0xD3A_0002, nonzero),
                    storm: AdversarialCrosstalk::new(seed ^ 0xD3A_0003, aggression),
                    lens: [p.dma_words, p.idle_words, p.storm_words],
                    phase: 2,
                    remaining: 0,
                }))
            }
        }
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
        while self.remaining == 0 {
            self.phase = (self.phase + 1) % self.lens.len();
            self.remaining = self.lens[self.phase];
        }
        self.remaining -= 1;
        match self.phase {
            0 => self.dma.next_word(),
            1 => self.idle.next_word(),
            _ => self.storm.next_word(),
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
    /// Returns a description for inconsistent overrides.
    pub fn build(&self, design: &DvsBusDesign, corner: PvtCorner) -> Result<BoxedGovernor, String> {
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
        if let GovernorSpec::Fixed(v) = self.governor {
            if design.grid().index_of(v).is_none() {
                return Err(format!("fixed supply {v} is not on the design grid"));
            }
        }
        Ok(self.governor.build(config))
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
}

impl AnalysisSpec {
    /// Whether this member materializes a closed-loop product.
    #[must_use]
    pub fn wants_loop(self) -> bool {
        matches!(self, Self::ClosedLoop | Self::Full)
    }

    /// Whether this member materializes a sweep product.
    #[must_use]
    pub fn wants_sweep(self) -> bool {
        matches!(self, Self::StaticSweep | Self::Full)
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
    fn points(&self) -> Result<Vec<Millivolts>, String> {
        if self.step.mv() <= 0 {
            return Err("voltage sweep step must be positive".to_string());
        }
        if self.from > self.to {
            return Err(format!(
                "voltage sweep range is empty ({} > {})",
                self.from, self.to
            ));
        }
        let mut points = Vec::new();
        let mut v = self.from;
        while v <= self.to {
            points.push(v);
            v = v + self.step;
        }
        Ok(points)
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
    /// Expands the sweep axes into concrete members (`sweep` emptied,
    /// names suffixed per axis value).
    ///
    /// # Errors
    ///
    /// Returns a description for empty axes or malformed voltage ranges.
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, String> {
        if self.run.cycles_per_benchmark == 0 {
            return Err(format!("scenario `{}` has a zero cycle budget", self.name));
        }
        let mut members = vec![ScenarioSpec {
            sweep: vec![],
            ..self.clone()
        }];
        for axis in &self.sweep {
            let mut next = Vec::new();
            for member in &members {
                match axis {
                    SweepAxis::Corners(corners) => {
                        if corners.is_empty() {
                            return Err(format!("scenario `{}` sweeps zero corners", self.name));
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
                            return Err(format!("scenario `{}` sweeps zero governors", self.name));
                        }
                        for governor in governors {
                            let mut m = member.clone();
                            m.controller.governor = *governor;
                            m.name = format!("{}+{}", member.name, governor.label());
                            next.push(m);
                        }
                    }
                    SweepAxis::Voltages(range) => {
                        for v in range.points()? {
                            let mut m = member.clone();
                            m.controller.governor = GovernorSpec::Fixed(v);
                            m.name = format!("{}@{}mV", member.name, v.mv());
                            next.push(m);
                        }
                    }
                    SweepAxis::Seeds(seeds) => {
                        if seeds.is_empty() {
                            return Err(format!("scenario `{}` sweeps zero seeds", self.name));
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
                            return Err(format!("scenario `{}` sweeps zero budgets", self.name));
                        }
                        for budget in budgets {
                            if *budget == 0 {
                                return Err(format!(
                                    "scenario `{}` sweeps a zero cycle budget",
                                    self.name
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
