//! Declarative scenario layer for razorbus: experiments, repro runs and
//! ablations described as data and executed by one spec-driven parallel
//! executor.
//!
//! The paper's evaluation is a fixed set of figure experiments, each of
//! which used to hand-wire its own design construction, trace selection
//! and run loop. This crate replaces that with a vocabulary:
//!
//! * [`ScenarioSpec`] — design knobs ([`DesignSpec`]), workload
//!   ([`WorkloadSpec`]: the SPEC2000 suite, one program, or a synthetic
//!   [`TrafficRecipe`]), controller ([`ControllerSpec`] over
//!   `razorbus_ctrl::GovernorSpec`), run geometry ([`RunSpec`]) and
//!   requested products ([`AnalysisSpec`]), optionally swept along
//!   [`SweepAxis`] dimensions (corner / governor / fixed supply).
//! * [`ScenarioSet`] — a campaign of specs; [`ScenarioSet::run`]
//!   expands sweeps, builds each unique design once, deduplicates loop
//!   runs and summary passes across members, and drains the remaining
//!   jobs on a bounded work-stealing pool (worker count from
//!   `RAZORBUS_THREADS` or the machine's parallelism).
//! * [`ScenarioSetResult`] — per-member products ([`LoopData`] /
//!   [`SweepData`]) as plain serializable data; specs, sets and results
//!   are [`razorbus_artifact::Artifact`] kinds, so a scenario run can
//!   be saved, reloaded ([`ScenarioSetRun::from_result`]) and
//!   re-rendered without re-simulating.
//! * [`aggregate`] — streaming campaign aggregation: members in
//!   [`AnalysisSpec::Aggregate`] mode fold their scalar metrics into
//!   one constant-memory [`CampaignDigest`] (count / mean / variance /
//!   extrema / histogram / quantile sketch per metric) in member-rank
//!   order, bit-identical at any worker count — the `campaign-digest`
//!   artifact kind that makes 10 k-member Monte-Carlo campaigns
//!   reportable without materializing 10 k results.
//! * [`record`] — campaign record/replay: [`CampaignRecording`] binds a
//!   set, its seeds, tool/format versions and per-member/per-component
//!   result digests into one `campaign-recording` manifest that replays
//!   bit-identically or reports the first diverging member and
//!   component.
//! * [`paper`] — the paper's figures as named sets plus adapters that
//!   render them into `razorbus_core::experiments` data structures.
//! * [`ScenarioSet::run_reference`] — the oracle: the same campaign run
//!   naively, member by member, which [`ScenarioSet::run`] must equal
//!   bit for bit at any worker count, chunk size and compile budget.
//! * [`catalog`] — named scenarios: the five paper figures, the
//!   combined `paper-all` pipeline, and four non-paper workloads
//!   (bursty DMA, idle-dominated, adversarial crosstalk, a governor
//!   shootout).
//!
//! # Example
//!
//! ```
//! use razorbus_scenario::catalog;
//!
//! let run = catalog::by_name("idle-churn", 50_000, 2005)
//!     .expect("catalog name")
//!     .run()
//!     .expect("valid spec");
//! let member = &run.result.members[0];
//! // The controller scales an idle-dominated bus without corruption.
//! let loop_data = member.closed_loop.as_ref().unwrap();
//! assert!(loop_data.energy_gain() > 0.0);
//! assert_eq!(loop_data.shadow_violations(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod catalog;
mod exec;
pub mod paper;
mod pool;
pub mod record;
mod reference;
mod result;
mod spec;

pub use aggregate::{CampaignDigest, DigestBuilder, MemberMetrics, QuantileSketch, ScalarAgg};
pub use exec::{ScenarioSet, ScenarioSetRun};
pub use pool::worker_count;
pub use record::{CampaignRecording, Divergence, MemberRecord, ReplayReport};
pub use result::{LoopData, MemberResult, ScenarioSetResult, StreamRun, SweepData};
pub use spec::{
    AnalysisSpec, ControllerSpec, CornerSpec, DesignSpec, DmaProfile, IdleProfile, MixProfile,
    RunSpec, ScenarioSpec, StormProfile, SweepAxis, TrafficRecipe, VoltageSweep, WorkloadSpec,
};

use razorbus_artifact::Artifact;

impl Artifact for ScenarioSpec {
    const KIND: &'static str = "scenario-spec";
}

impl Artifact for ScenarioSet {
    const KIND: &'static str = "scenario-set";
}

impl Artifact for ScenarioSetResult {
    const KIND: &'static str = "scenario-result";
}

impl Artifact for CampaignRecording {
    const KIND: &'static str = "campaign-recording";
}

impl Artifact for CampaignDigest {
    const KIND: &'static str = "campaign-digest";
}
