//! The named scenario catalog: every paper figure plus the non-paper
//! workloads, one `repro scenario <name>` away.

use crate::exec::ScenarioSet;
use crate::paper;
use crate::spec::{
    AnalysisSpec, ControllerSpec, CornerSpec, DesignSpec, DmaProfile, IdleProfile, MixProfile,
    RunSpec, ScenarioSpec, StormProfile, SweepAxis, TrafficRecipe, VoltageSweep, WorkloadSpec,
};
use razorbus_ctrl::GovernorSpec;
use razorbus_units::Millivolts;

/// Every named scenario, paper and non-paper.
pub const NAMES: [&str; 13] = [
    "fig4",
    "fig5",
    "fig8",
    "table1",
    "fig10",
    "paper-all",
    "repro-all",
    "bursty-dma",
    "idle-churn",
    "crosstalk-storm",
    "governor-shootout",
    "monte-carlo-dvs-1k",
    "monte-carlo-dvs",
];

/// Per-member cycle ceiling of the Monte-Carlo campaigns: the `Cycles`
/// sweep axis pins every member to `min(cli_cycles, this)`, so the 10 k
/// campaign's shared compiled footprint (625 seeds × cycles × 11 B)
/// stays within the default `RAZORBUS_COMPILE_BUDGET_MB` no matter what
/// global cycle budget the CLI asks for.
const MONTE_CARLO_MAX_CYCLES: u64 = 50_000;

/// Resolves a catalog name into a runnable set at the given cycle
/// budget and seed. Returns `None` for unknown names (the CLI prints
/// [`NAMES`]).
#[must_use]
pub fn by_name(name: &str, cycles: u64, seed: u64) -> Option<ScenarioSet> {
    match name {
        "fig4" => Some(paper::fig4_set(cycles, seed)),
        "fig5" => Some(paper::fig5_set(cycles, seed)),
        "fig8" => Some(paper::fig8_set(cycles, seed)),
        "table1" => Some(paper::table1_set(cycles, seed)),
        "fig10" => Some(paper::fig10_set(cycles, seed)),
        "paper-all" => Some(paper::paper_all_set(cycles, seed)),
        "repro-all" => Some(paper::repro_all_set(cycles, seed)),
        "bursty-dma" => Some(bursty_dma_set(cycles, seed)),
        "idle-churn" => Some(idle_churn_set(cycles, seed)),
        "crosstalk-storm" => Some(crosstalk_storm_set(cycles, seed)),
        "governor-shootout" => Some(governor_shootout_set(cycles, seed)),
        "monte-carlo-dvs-1k" => Some(monte_carlo_dvs_1k_set(cycles, seed)),
        "monte-carlo-dvs" => Some(monte_carlo_dvs_set(cycles, seed)),
        _ => None,
    }
}

fn recipe_member(
    name: &str,
    recipe: TrafficRecipe,
    corner: CornerSpec,
    cycles: u64,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        design: DesignSpec::Paper,
        workload: WorkloadSpec::Recipe(recipe),
        controller: ControllerSpec::paper(),
        run: RunSpec {
            corner,
            cycles_per_benchmark: cycles,
            seed,
        },
        analysis: AnalysisSpec::Full,
        sweep: vec![],
    }
}

/// Bursty DMA: the bus idles ~40 k cycles between ~2 k-cycle bursts of
/// dense random payloads. The controller walks deep during the quiet
/// stretches (four decision windows per gap), so every burst arrives
/// at whatever supply it drifted to — the regulator-lag stress the
/// paper's program traces never apply this hard.
#[must_use]
pub fn bursty_dma_set(cycles: u64, seed: u64) -> ScenarioSet {
    ScenarioSet::single(recipe_member(
        "bursty-dma",
        TrafficRecipe::BurstyDma(DmaProfile {
            mean_burst: 2_000,
            mean_idle: 40_000,
            housekeeping_permille: 10,
        }),
        CornerSpec::Typical,
        cycles,
        seed,
    ))
}

/// Idle-dominated traffic: 95 % zero words. The error-driven controller
/// should pin the regulator floor and hold it — the upper bound on what
/// DVS can harvest from this bus.
#[must_use]
pub fn idle_churn_set(cycles: u64, seed: u64) -> ScenarioSet {
    ScenarioSet::single(recipe_member(
        "idle-churn",
        TrafficRecipe::IdleDominated(IdleProfile {
            nonzero_permille: 50,
        }),
        CornerSpec::Typical,
        cycles,
        seed,
    ))
}

/// Adversarial crosstalk at the worst corner: 30 % of cycles carry the
/// Fig. 9 worst victim/aggressor pattern, the traffic the §3 sizing
/// guards against. The controller must hold at (or oscillate just
/// below) nominal — gains collapse, errors stay bounded.
#[must_use]
pub fn crosstalk_storm_set(cycles: u64, seed: u64) -> ScenarioSet {
    ScenarioSet::single(recipe_member(
        "crosstalk-storm",
        TrafficRecipe::CrosstalkStorm(StormProfile {
            aggression_permille: 300,
        }),
        CornerSpec::Worst,
        cycles,
        seed,
    ))
}

/// Governor shootout: the full benchmark suite under the paper's
/// threshold controller, the proportional §5 variant, and a static
/// 1.1 V undervolt — one sweep axis, three members, same traffic.
#[must_use]
pub fn governor_shootout_set(cycles: u64, seed: u64) -> ScenarioSet {
    let mut spec = ScenarioSpec {
        name: "shootout".to_string(),
        design: DesignSpec::Paper,
        workload: WorkloadSpec::Suite,
        controller: ControllerSpec::paper(),
        run: RunSpec {
            corner: CornerSpec::Typical,
            cycles_per_benchmark: cycles,
            seed,
        },
        analysis: AnalysisSpec::ClosedLoop,
        sweep: vec![],
    };
    spec.sweep = vec![SweepAxis::Governors(vec![
        GovernorSpec::Threshold,
        GovernorSpec::Proportional,
        GovernorSpec::Fixed(Millivolts::new(1_100)),
    ])];
    ScenarioSet::new("governor-shootout", vec![spec])
}

/// The shared skeleton of the Monte-Carlo campaigns: mixed traffic
/// (DMA bursts, idle stretches, crosstalk storms in rotation) under
/// fixed supplies across seeds × corners × voltages, every member in
/// [`AnalysisSpec::Aggregate`] mode so the executor folds the whole
/// campaign into one streaming [`crate::CampaignDigest`] instead of
/// materializing thousands of results.
fn monte_carlo_member(
    set: &str,
    n_seeds: u64,
    from_mv: i32,
    to_mv: i32,
    cycles: u64,
    seed: u64,
) -> ScenarioSet {
    let spec = ScenarioSpec {
        name: "mc".to_string(),
        design: DesignSpec::Paper,
        workload: WorkloadSpec::Recipe(TrafficRecipe::Mixed(MixProfile {
            dma: DmaProfile {
                mean_burst: 2_000,
                mean_idle: 40_000,
                housekeeping_permille: 10,
            },
            dma_words: 6_000,
            idle: IdleProfile {
                nonzero_permille: 50,
            },
            idle_words: 6_000,
            storm: StormProfile {
                aggression_permille: 120,
            },
            storm_words: 4_000,
        })),
        controller: ControllerSpec::paper(),
        run: RunSpec {
            corner: CornerSpec::Typical,
            cycles_per_benchmark: cycles,
            seed,
        },
        analysis: AnalysisSpec::Aggregate,
        sweep: vec![
            // First axis so every downstream member shares the capped
            // budget: seeds × cycles decide the compiled footprint.
            SweepAxis::Cycles(vec![cycles.min(MONTE_CARLO_MAX_CYCLES)]),
            SweepAxis::Seeds((0..n_seeds).map(|i| seed.wrapping_add(i)).collect()),
            SweepAxis::Corners(vec![CornerSpec::Typical, CornerSpec::Worst]),
            SweepAxis::Voltages(VoltageSweep {
                from: Millivolts::new(from_mv),
                to: Millivolts::new(to_mv),
                step: Millivolts::new(20),
            }),
        ],
    };
    ScenarioSet::new(set, vec![spec])
}

/// The 10 000-member Monte-Carlo DVS campaign: 625 trace seeds × 2
/// corners × 8 fixed supplies (900–1040 mV). Members run at most
/// `MONTE_CARLO_MAX_CYCLES` cycles each, so the 625 shared compiled
/// traces fit the default compile budget, and the only output is the
/// streaming campaign digest.
#[must_use]
pub fn monte_carlo_dvs_set(cycles: u64, seed: u64) -> ScenarioSet {
    monte_carlo_member("monte-carlo-dvs", 625, 900, 1_040, cycles, seed)
}

/// The 1 000-member variant (125 seeds × 2 corners × 4 supplies,
/// 920–980 mV) — small enough for the golden corpus and CI's
/// digest-determinism legs while exercising the same streaming path.
#[must_use]
pub fn monte_carlo_dvs_1k_set(cycles: u64, seed: u64) -> ScenarioSet {
    monte_carlo_member("monte-carlo-dvs-1k", 125, 920, 980, cycles, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_expands() {
        for name in NAMES {
            let set = by_name(name, 1_000, 7).unwrap_or_else(|| panic!("{name} missing"));
            let members = set.expand().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!members.is_empty(), "{name}");
        }
        assert!(by_name("no-such-scenario", 1_000, 7).is_none());
    }

    #[test]
    fn new_workloads_run_end_to_end_at_small_scale() {
        // The four non-paper scenarios all the way through the executor
        // (CI runs them bigger; this pins the wiring).
        for name in [
            "bursty-dma",
            "idle-churn",
            "crosstalk-storm",
            "governor-shootout",
        ] {
            let run = by_name(name, 2_000, 7).unwrap().run().unwrap();
            for member in &run.result.members {
                let loop_data = member.closed_loop.as_ref().expect("closed loop requested");
                assert_eq!(
                    loop_data.shadow_violations(),
                    0,
                    "{name}: silent corruption"
                );
            }
        }
    }

    #[test]
    fn monte_carlo_campaigns_expand_to_their_advertised_sizes() {
        let big = monte_carlo_dvs_set(1_000_000, 2005);
        assert_eq!(big.expand().unwrap().len(), 10_000);
        let small = monte_carlo_dvs_1k_set(1_000_000, 2005);
        assert_eq!(small.expand().unwrap().len(), 1_000);
    }

    #[test]
    fn monte_carlo_campaign_digests_instead_of_materializing() {
        // A scaled-down run through the real executor: every member is
        // aggregate-mode, so the result carries specs + one digest and
        // no products.
        let mut set = monte_carlo_dvs_1k_set(2_000, 7);
        set.members[0].sweep[1] = SweepAxis::Seeds(vec![7, 8]);
        let run = set.run().unwrap();
        let digest = run.result.digest.as_ref().expect("aggregate set digests");
        assert_eq!(digest.members, 2 * 2 * 4);
        assert_eq!(run.result.members.len(), digest.members as usize);
        for member in &run.result.members {
            assert!(member.closed_loop.is_none(), "{}", member.spec.name);
            assert!(member.sweep.is_none(), "{}", member.spec.name);
        }
        // Every member's cycles are accounted for, and the campaign
        // sees both sides of the undervolt trade-off: energy gains in
        // range, and real corruption at the worst corner's deepest
        // supplies (exactly what the Monte-Carlo sweep measures).
        assert_eq!(digest.total_cycles, 16 * 2_000);
        assert!(digest.energy_gain.min().unwrap() >= -1.0);
        assert!(digest.energy_gain.max().unwrap() < 1.0);
        assert!(digest.total_shadow_violations > 0, "worst@920mV corrupts");
    }

    #[test]
    fn idle_churn_scales_far_deeper_than_crosstalk_storm() {
        // The two extremes bracket the paper's program traces: an idle
        // bus harvests close to the floor, an adversarial one cannot
        // scale at all at the worst corner. The horizon must cover the
        // controller's full descent (one -20 mV step per 13 k cycles).
        let idle = idle_churn_set(300_000, 7).run().unwrap();
        let storm = crosstalk_storm_set(300_000, 7).run().unwrap();
        let idle_gain = idle.result.members[0]
            .closed_loop
            .as_ref()
            .unwrap()
            .energy_gain();
        let storm_gain = storm.result.members[0]
            .closed_loop
            .as_ref()
            .unwrap()
            .energy_gain();
        assert!(
            idle_gain > storm_gain + 0.2,
            "idle {idle_gain} vs storm {storm_gain}"
        );
    }
}
