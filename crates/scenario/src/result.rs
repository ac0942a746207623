//! Scenario products: what the executor hands back per member, as
//! plain serializable data — a whole [`ScenarioSetResult`] persists
//! through the artifact layer and re-renders without re-simulating.

use crate::spec::ScenarioSpec;
use razorbus_core::experiments::fig8::Fig8Data;
use razorbus_core::experiments::SummaryBank;
use razorbus_core::{SimReport, TraceSummary, WindowedSummary};
use razorbus_process::PvtCorner;

/// A closed-loop product.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LoopData {
    /// The consecutive ten-benchmark protocol ([`WorkloadSpec::Suite`]
    /// members) — the exact [`Fig8Data`] the paper drivers consume.
    ///
    /// [`WorkloadSpec::Suite`]: crate::WorkloadSpec::Suite
    Suite(Fig8Data),
    /// A single-stream run (one benchmark or a synthetic recipe).
    Stream(StreamRun),
}

impl LoopData {
    /// Overall energy gain over the fixed-nominal baseline.
    #[must_use]
    pub fn energy_gain(&self) -> f64 {
        match self {
            Self::Suite(d) => d.total_energy_gain(),
            Self::Stream(s) => s.report.energy_gain(),
        }
    }

    /// Overall average error rate.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        match self {
            Self::Suite(d) => d.total_error_rate(),
            Self::Stream(s) => s.report.error_rate(),
        }
    }

    /// Peak per-window error rate (0 when sampling was off).
    #[must_use]
    pub fn peak_window_error_rate(&self) -> f64 {
        match self {
            Self::Suite(d) => d.peak_window_error_rate(),
            Self::Stream(s) => s
                .report
                .samples
                .iter()
                .map(|w| w.window_error_rate)
                .fold(0.0, f64::max),
        }
    }

    /// Silent-corruption cycles — must be zero for a sound design.
    #[must_use]
    pub fn shadow_violations(&self) -> u64 {
        match self {
            Self::Suite(d) => d.segments.iter().map(|s| s.report.shadow_violations).sum(),
            Self::Stream(s) => s.report.shadow_violations,
        }
    }

    /// Lowest supply visited (mV).
    #[must_use]
    pub fn min_voltage_mv(&self) -> i32 {
        match self {
            Self::Suite(d) => d
                .segments
                .iter()
                .map(|s| s.report.min_voltage.mv())
                .min()
                .unwrap_or(0),
            Self::Stream(s) => s.report.min_voltage.mv(),
        }
    }
}

/// One single-stream closed-loop run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StreamRun {
    /// The environment corner of the run.
    pub corner: PvtCorner,
    /// The run report (energy, errors, trajectory samples).
    pub report: SimReport,
}

/// A sweep-engine product: the histograms static voltage analyses
/// query. Corner- and governor-independent — the executor shares one
/// per (design, workload, cycles, seed) and kind.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum SweepData {
    /// Per-benchmark histograms plus their merge (suite workloads).
    Bank(SummaryBank),
    /// One stream's histogram (single/recipe workloads).
    Summary(TraceSummary),
    /// One stream's histogram per 10 000-cycle window
    /// ([`crate::AnalysisSpec::WindowedSweep`] members).
    Windows(WindowedSummary),
}

impl SweepData {
    /// The per-benchmark bank, when this is a suite product.
    #[must_use]
    pub fn bank(&self) -> Option<&SummaryBank> {
        match self {
            Self::Bank(bank) => Some(bank),
            Self::Summary(_) | Self::Windows(_) => None,
        }
    }
}

/// One member's products, alongside the resolved spec that produced
/// them (so a reloaded result is self-describing).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MemberResult {
    /// The member's resolved (sweep-expanded) spec; its `name` is the
    /// member label adapters look up.
    pub spec: ScenarioSpec,
    /// Closed-loop product, when the analysis asked for one.
    pub closed_loop: Option<LoopData>,
    /// Sweep product, when the analysis asked for one.
    pub sweep: Option<SweepData>,
}

/// Every member's products for one executed [`crate::ScenarioSet`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSetResult {
    /// The set's name.
    pub name: String,
    /// Member results in expansion order. Aggregate-mode members keep
    /// their resolved spec here but no products — their metrics live
    /// in the campaign digest.
    pub members: Vec<MemberResult>,
    /// The streaming digest of the set's aggregate-mode members
    /// (`None` when the set has none).
    pub digest: Option<crate::aggregate::CampaignDigest>,
}

impl ScenarioSetResult {
    /// Finds a member by its resolved name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&MemberResult> {
        self.members.iter().find(|m| m.spec.name == name)
    }

    /// Like [`ScenarioSetResult::find`], erroring with the available
    /// names — the adapter-friendly form.
    ///
    /// # Errors
    ///
    /// Returns a description listing the names that do exist.
    pub fn member(&self, name: &str) -> Result<&MemberResult, String> {
        self.find(name).ok_or_else(|| {
            let names: Vec<&str> = self.members.iter().map(|m| m.spec.name.as_str()).collect();
            format!(
                "scenario set `{}` has no member `{name}` (members: {})",
                self.name,
                names.join(", ")
            )
        })
    }
}
