//! The benchmark's workloads, their set-up, the untraced executor
//! campaign and the output check every campaign must pass.

use razorbus_artifact::ContentDigest;
use razorbus_core::experiments::table1::Table1Data;
use razorbus_core::experiments::{fig10::Fig10Data, fig4::Fig4Data, fig5::Fig5Data};
use razorbus_core::DvsBusDesign;
use razorbus_scenario::{
    catalog, paper, DesignSpec, MemberMetrics, ScenarioSet, ScenarioSetResult, ScenarioSetRun,
    WorkloadSpec,
};
use razorbus_traces::Benchmark;
use std::fmt;
use std::time::{Duration, Instant};

/// One named workload: a catalog campaign at a fixed cycle budget.
pub struct Workload {
    /// The benchmark's name for it (`--workload`).
    pub name: &'static str,
    /// The catalog set it resolves to.
    pub catalog: &'static str,
    /// The cycle budget handed to the catalog.
    pub cycles: u64,
}

/// Every workload; see `README.md` for why each one is here.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "paper-all",
        catalog: "paper-all",
        cycles: 1_000_000,
    },
    Workload {
        name: "mc-10k-short",
        catalog: "monte-carlo-dvs",
        cycles: 2_000,
    },
];

impl Workload {
    /// Looks a workload up by its benchmark name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether a campaign also renders the paper's figures from its
    /// result, as `repro scenario paper-all` does.
    pub fn figures(&self) -> bool {
        self.catalog == "paper-all"
    }

    /// The campaign at `seed`.
    pub fn set(&self, seed: u64) -> Result<ScenarioSet, String> {
        catalog::by_name(self.catalog, self.cycles, seed)
            .ok_or_else(|| format!("catalog has no set `{}`", self.catalog))
    }
}

/// Everything a campaign needs before its first simulated cycle.
pub struct Setup {
    /// The resolved campaign.
    pub set: ScenarioSet,
    /// Each unique design of the set, built once.
    pub designs: Vec<(DesignSpec, DvsBusDesign)>,
    /// Expanded members.
    pub members: usize,
    /// Simulated member-cycles: Σ over members of streams × cycles.
    pub member_cycles: u64,
}

/// Host times of one set-up.
pub struct SetupTimes {
    /// Resolve + expand + design builds.
    pub total: Duration,
    /// The `DesignSpec::build` share of it.
    pub design_build: Duration,
}

impl Setup {
    /// Resolves the campaign, expands it and builds each unique design.
    pub fn new(
        resolve: impl FnOnce() -> Result<ScenarioSet, String>,
    ) -> Result<(Self, SetupTimes), String> {
        let start = Instant::now();
        let set = resolve()?;
        let members = set.expand()?;
        let mut designs: Vec<(DesignSpec, DvsBusDesign)> = Vec::new();
        let mut design_build = Duration::ZERO;
        for m in &members {
            if designs.iter().all(|(spec, _)| *spec != m.design) {
                let t = Instant::now();
                let design = m.design.build()?;
                design_build += t.elapsed();
                designs.push((m.design, design));
            }
        }
        let member_cycles = members
            .iter()
            .map(|m| streams(&m.workload) * m.run.cycles_per_benchmark)
            .sum();
        let setup = Self {
            set,
            designs,
            members: members.len(),
            member_cycles,
        };
        let times = SetupTimes {
            total: start.elapsed(),
            design_build,
        };
        Ok((setup, times))
    }

    /// The design built for `spec`.
    pub fn design(&self, spec: &DesignSpec) -> Result<&DvsBusDesign, String> {
        self.designs
            .iter()
            .find(|(s, _)| s == spec)
            .map(|(_, d)| d)
            .ok_or_else(|| format!("set-up built no design {spec:?}"))
    }
}

/// Word streams one member drives: ten for the suite, else one.
pub fn streams(workload: &WorkloadSpec) -> u64 {
    match workload {
        WorkloadSpec::Suite => Benchmark::ALL.len() as u64,
        WorkloadSpec::Single(_) | WorkloadSpec::Recipe(_) => 1,
    }
}

/// The paper figures `repro scenario paper-all` renders from a result.
/// Only their Debug rendering is read, by [`Check::of`].
#[allow(dead_code)]
#[derive(Debug)]
pub struct Figures {
    pub fig4_worst: Fig4Data,
    pub fig4_typical: Fig4Data,
    pub fig5: Fig5Data,
    pub table1: Table1Data,
    pub fig10: Fig10Data,
}

impl Figures {
    /// The figures through the scenario crate's own adapters.
    fn of_run(run: &ScenarioSetRun) -> Result<Self, String> {
        Ok(Self {
            fig4_worst: paper::fig4_panel(run, "fig4@worst")?,
            fig4_typical: paper::fig4_panel(run, "fig4@typical")?,
            fig5: paper::fig5_data(run)?,
            table1: paper::table1_data(run)?,
            fig10: paper::fig10_data(run)?,
        })
    }
}

/// One campaign through the public executor with `workers` pool
/// workers: its host wall time, result and (when asked) figures.
pub fn run_executor(
    setup: &Setup,
    workers: usize,
    figures: bool,
) -> Result<(Duration, ScenarioSetResult, Option<Figures>), String> {
    let designs = setup.designs.clone();
    let start = Instant::now();
    let run = setup.set.run_with_workers(designs, true, Some(workers))?;
    let figures = figures.then(|| Figures::of_run(&run)).transpose()?;
    let wall = start.elapsed();
    Ok((wall, run.result, figures))
}

/// The fingerprint a campaign's output is checked by: content digests
/// of the whole result, of its campaign digest (Monte-Carlo sets) and
/// of the rendered figures (`paper-all`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Check {
    pub result: ContentDigest,
    pub campaign: Option<ContentDigest>,
    pub figures: Option<ContentDigest>,
}

impl Check {
    /// Digests a campaign's output.
    pub fn of(result: &ScenarioSetResult, figures: Option<&Figures>) -> Result<Self, String> {
        let fail = |e: razorbus_artifact::ArtifactError| format!("cannot digest the result: {e}");
        Ok(Self {
            result: ContentDigest::of(result).map_err(fail)?,
            campaign: result
                .digest
                .as_ref()
                .map(ContentDigest::of)
                .transpose()
                .map_err(fail)?,
            // The figure types are not serializable; their Debug
            // rendering prints every f64 shortest-round-trip, so it
            // pins them bit for bit.
            figures: figures
                .map(|f| ContentDigest::of(&format!("{f:?}")))
                .transpose()
                .map_err(fail)?,
        })
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "result {}", self.result)?;
        if let Some(d) = self.campaign {
            write!(f, " campaign {d}")?;
        }
        if let Some(d) = self.figures {
            write!(f, " figures {d}")?;
        }
        Ok(())
    }
}

/// Simulated totals over a result's closed-loop members and its
/// campaign digest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim {
    energy_fj: f64,
    baseline_fj: f64,
    errors: u64,
    cycles: u64,
}

impl Sim {
    pub fn of(result: &ScenarioSetResult) -> Self {
        let mut sim = Self::default();
        for data in result.members.iter().filter_map(|m| m.closed_loop.as_ref()) {
            let m = MemberMetrics::of(data);
            sim.energy_fj += m.energy_fj;
            sim.baseline_fj += m.baseline_energy_fj;
            sim.errors += m.errors;
            sim.cycles += m.cycles;
        }
        if let Some(d) = &result.digest {
            sim.energy_fj += d.total_energy_fj;
            sim.baseline_fj += d.total_baseline_energy_fj;
            sim.errors += d.total_errors;
            sim.cycles += d.total_cycles;
        }
        sim
    }

    /// 1 − Σenergy / Σbaseline.
    pub fn energy_gain(&self) -> f64 {
        1.0 - self.energy_fj / self.baseline_fj
    }

    /// Σerrors / Σcycles: the paper's error-recovery rate.
    pub fn error_rate(&self) -> f64 {
        self.errors as f64 / self.cycles as f64
    }
}
