//! Property tests for the scenario artifact kinds: specs, sets and
//! result sets round-trip bit-exactly through both encodings, and the
//! corruption contract (any byte flip or truncation errors, never
//! panics) holds for the new kinds too.

use proptest::prelude::*;
use razorbus_artifact::{decode, encode, Artifact, Encoding};
use razorbus_ctrl::GovernorSpec;
use razorbus_scenario::{
    AnalysisSpec, ControllerSpec, CornerSpec, DesignSpec, DmaProfile, IdleProfile, MixProfile,
    RunSpec, ScenarioSet, ScenarioSetResult, ScenarioSpec, StormProfile, SweepAxis, TrafficRecipe,
    VoltageSweep, WorkloadSpec,
};
use razorbus_traces::{Benchmark, TraceSource};
use razorbus_units::Millivolts;

use std::sync::OnceLock;

/// One executed small scenario set, shared across cases (running the
/// simulator per proptest case would dominate the suite's wall clock).
fn sample_result() -> &'static ScenarioSetResult {
    static RESULT: OnceLock<ScenarioSetResult> = OnceLock::new();
    RESULT.get_or_init(|| {
        razorbus_scenario::catalog::by_name("governor-shootout", 1_000, 7)
            .expect("catalog name")
            .run()
            .expect("valid spec")
            .result
    })
}

/// One executed aggregate-mode set (two seeds folded into a campaign
/// digest), shared across cases — the result-with-digest shape.
fn aggregate_result() -> &'static ScenarioSetResult {
    static RESULT: OnceLock<ScenarioSetResult> = OnceLock::new();
    RESULT.get_or_init(|| {
        // analysis_pick 2 → Aggregate, sweep_pick 3 → a two-seed sweep.
        let spec = spec_from(0, 3, 0, 0, 2, 3, 1_000, 7, 100);
        ScenarioSet {
            name: "prop-agg".to_string(),
            members: vec![spec],
        }
        .run()
        .expect("valid spec")
        .result
    })
}

/// Deterministically builds a spec from drawn integers — the substitute
/// for `prop_map` composition under the reduced offline proptest.
#[allow(clippy::too_many_arguments)]
fn spec_from(
    design_pick: u8,
    workload_pick: u8,
    governor_pick: u8,
    corner_pick: u8,
    analysis_pick: u8,
    sweep_pick: u8,
    cycles: u64,
    seed: u64,
    permille: u32,
) -> ScenarioSpec {
    let design = match design_pick % 5 {
        0 => DesignSpec::Paper,
        1 => DesignSpec::ModifiedCoupling,
        2 => DesignSpec::SkewCapPercent(20 + u32::from(design_pick) % 30),
        3 => DesignSpec::ElmoreCoupling,
        _ => DesignSpec::Technology(
            razorbus_process::TechnologyNode::ALL[usize::from(design_pick) % 4],
        ),
    };
    let workload = match workload_pick % 6 {
        0 => WorkloadSpec::Suite,
        1 => WorkloadSpec::Single(Benchmark::ALL[usize::from(workload_pick) % 10]),
        2 => WorkloadSpec::Recipe(TrafficRecipe::BurstyDma(DmaProfile {
            mean_burst: 1 + cycles % 5_000,
            mean_idle: 1 + seed % 50_000,
            housekeeping_permille: permille,
        })),
        3 => WorkloadSpec::Recipe(TrafficRecipe::IdleDominated(IdleProfile {
            nonzero_permille: permille,
        })),
        4 => WorkloadSpec::Recipe(TrafficRecipe::CrosstalkStorm(StormProfile {
            aggression_permille: permille,
        })),
        _ => WorkloadSpec::Recipe(TrafficRecipe::Mixed(MixProfile {
            dma: DmaProfile {
                mean_burst: 1 + cycles % 5_000,
                mean_idle: 1 + seed % 50_000,
                housekeeping_permille: permille,
            },
            dma_words: 1 + u64::from(workload_pick) * 100,
            idle: IdleProfile {
                nonzero_permille: permille,
            },
            idle_words: 1 + seed % 10_000,
            storm: StormProfile {
                aggression_permille: permille,
            },
            storm_words: u64::from(workload_pick) % 2 * 4_000,
        })),
    };
    let governor = match governor_pick % 3 {
        0 => GovernorSpec::Threshold,
        1 => GovernorSpec::Proportional,
        _ => GovernorSpec::Fixed(Millivolts::new(760 + i32::from(governor_pick) * 20)),
    };
    let corner = match corner_pick % 3 {
        0 => CornerSpec::Typical,
        1 => CornerSpec::Worst,
        _ => CornerSpec::Pvt(razorbus_process::PvtCorner::FIG5[usize::from(corner_pick) % 5]),
    };
    let analysis = match analysis_pick % 4 {
        0 => AnalysisSpec::ClosedLoop,
        1 => AnalysisSpec::StaticSweep,
        2 => AnalysisSpec::Aggregate,
        _ => AnalysisSpec::Full,
    };
    let sweep = match sweep_pick % 6 {
        0 => vec![],
        1 => vec![SweepAxis::Corners(vec![CornerSpec::Worst, corner])],
        2 => vec![SweepAxis::Governors(vec![
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
        ])],
        3 => vec![SweepAxis::Seeds(vec![seed, seed.wrapping_add(1)])],
        4 => vec![SweepAxis::Cycles(vec![1 + cycles % 10_000, cycles])],
        _ => vec![SweepAxis::Voltages(VoltageSweep {
            from: Millivolts::new(900),
            to: Millivolts::new(1_000),
            step: Millivolts::new(20),
        })],
    };
    ScenarioSpec {
        name: format!("prop-{design_pick}-{workload_pick}"),
        design,
        workload,
        controller: ControllerSpec {
            governor,
            window: governor_pick
                .is_multiple_of(2)
                .then_some(1 + u64::from(corner_pick) * 1_000),
            ramp_ns_per_10mv: corner_pick
                .is_multiple_of(2)
                .then_some(u32::from(analysis_pick) * 500),
            sampling: analysis_pick.is_multiple_of(2).then_some(1 + cycles),
        },
        run: RunSpec {
            corner,
            cycles_per_benchmark: cycles,
            seed,
        },
        analysis,
        sweep,
    }
}

fn assert_round_trip<T>(value: &T)
where
    T: Artifact + PartialEq + std::fmt::Debug,
{
    for encoding in [Encoding::Binary, Encoding::Json] {
        let bytes = encode(T::KIND, encoding, value).expect("encode");
        let back: T = decode(T::KIND, &bytes).expect("decode");
        assert_eq!(&back, value, "{encoding:?} round trip drifted");
    }
}

/// Every distinct recipe the catalog's sets expand to.
fn catalog_recipes() -> &'static [TrafficRecipe] {
    static RECIPES: OnceLock<Vec<TrafficRecipe>> = OnceLock::new();
    RECIPES.get_or_init(|| {
        let mut recipes = Vec::new();
        for name in razorbus_scenario::catalog::NAMES {
            let set = razorbus_scenario::catalog::by_name(name, 1_000, 7).expect("catalog name");
            for member in set.expand().expect("catalog sets expand") {
                if let WorkloadSpec::Recipe(recipe) = member.workload {
                    if !recipes.contains(&recipe) {
                        recipes.push(recipe);
                    }
                }
            }
        }
        recipes
    })
}

/// A recipe with short phases, so a few hundred words cross many of
/// `Mixed`'s rotations and `BurstyDma`'s bursts. `pick` chooses the
/// kind; a housekeeping rate of 0 ‰ holds idle words without a draw.
fn short_recipe(pick: u8, lens: (u64, u64, u64), permille: u32) -> TrafficRecipe {
    let (a, b, c) = lens;
    let dma = DmaProfile {
        mean_burst: a + 1,
        mean_idle: b + 1,
        housekeeping_permille: [0, 10, 500, 1_000][(c % 4) as usize],
    };
    let idle = IdleProfile {
        nonzero_permille: permille,
    };
    let storm = StormProfile {
        aggression_permille: permille,
    };
    match pick % 4 {
        0 => TrafficRecipe::BurstyDma(dma),
        1 => TrafficRecipe::IdleDominated(idle),
        2 => TrafficRecipe::CrosstalkStorm(storm),
        // Zero-length phases are skipped; at least one word rotates.
        _ => TrafficRecipe::Mixed(MixProfile {
            dma,
            dma_words: a % 25,
            idle,
            idle_words: b % 25,
            storm,
            storm_words: c % 25 + 1,
        }),
    }
}

/// Draws chunks of `chunks`' lengths through `fill` from `recipe`'s
/// stream at `seed`, and as many words one at a time from a twin: the
/// words must agree chunk by chunk, and so must the next word.
fn assert_recipe_fill_is_next_word(recipe: &TrafficRecipe, seed: u64, chunks: &[usize]) {
    let mut filled = recipe.build_trace(seed).expect("a valid recipe");
    let mut stepped = recipe.build_trace(seed).expect("a valid recipe");
    for (k, &len) in chunks.iter().enumerate() {
        let mut block = vec![0; len];
        filled.fill(&mut block);
        let words: Vec<u32> = (0..len).map(|_| stepped.next_word()).collect();
        assert_eq!(block, words, "{recipe:?}: chunk {k} of {chunks:?}");
    }
    let next = (filled.next_word(), stepped.next_word());
    assert_eq!(next.0, next.1, "{recipe:?}: the word after {chunks:?}");
}

proptest! {
    /// `fill` is repeated `next_word` for every catalog recipe and for
    /// short-phase recipes of every kind, over any split into chunks.
    #[test]
    fn recipe_fill_equals_repeated_next_word(
        pick in 0u8..=255,
        lens in (0u64..60, 0u64..60, 0u64..60),
        permille in 0u32..=1_000,
        seed in any::<u64>(),
        chunks in proptest::collection::vec(0usize..700, 0..10),
    ) {
        for recipe in catalog_recipes() {
            assert_recipe_fill_is_next_word(recipe, seed, &chunks);
        }
        assert_recipe_fill_is_next_word(&short_recipe(pick, lens, permille), seed, &chunks);
    }

    /// Every reachable spec shape round-trips bit-exactly in both
    /// encodings, standalone and inside a set.
    #[test]
    fn scenario_specs_round_trip(
        picks in (0u8..=255u8, 0u8..=255u8, 0u8..=255u8, 0u8..=255u8, 0u8..=255u8, 0u8..=255u8),
        cycles in 1u64..100_000,
        seed in any::<u64>(),
        permille in 0u32..=1_000,
    ) {
        let (a, b, c, d, e, f) = picks;
        let spec = spec_from(a, b, c, d, e, f, cycles, seed, permille);
        assert_round_trip(&spec);
        let set = ScenarioSet { name: "prop-set".to_string(), members: vec![spec] };
        assert_round_trip(&set);
    }

    /// A full executed result set (loops, samples, banks) round-trips
    /// bit-exactly in both encodings.
    #[test]
    fn scenario_results_round_trip(_nonce in 0u8..4) {
        assert_round_trip(sample_result());
    }

    /// A result set carrying a campaign digest (aggregate-mode members)
    /// round-trips bit-exactly in both encodings.
    #[test]
    fn aggregate_results_round_trip(_nonce in 0u8..4) {
        let result = aggregate_result();
        prop_assert!(result.digest.is_some());
        assert_round_trip(result);
    }

    /// Corruption contract for the result kind: any single-byte flip of
    /// the framed artifact errors, never panics — with and without an
    /// embedded campaign digest.
    #[test]
    fn any_result_byte_flip_is_detected(position in any::<usize>(), mask in 1u8..=255) {
        for result in [sample_result(), aggregate_result()] {
            let mut corrupt =
                encode(ScenarioSetResult::KIND, Encoding::Binary, result).unwrap();
            let position = position % corrupt.len();
            corrupt[position] ^= mask;
            prop_assert!(decode::<ScenarioSetResult>(ScenarioSetResult::KIND, &corrupt).is_err());
        }
    }

    /// Corruption contract: every strict prefix of a framed spec
    /// artifact errors.
    #[test]
    fn any_spec_truncation_is_detected(
        picks in (0u8..=255u8, 0u8..=255u8, 0u8..=255u8, 0u8..=255u8, 0u8..=255u8, 0u8..=255u8),
        cut in any::<usize>(),
    ) {
        let (a, b, c, d, e, f) = picks;
        let spec = spec_from(a, b, c, d, e, f, 1_000, 7, 100);
        let bytes = encode(ScenarioSpec::KIND, Encoding::Binary, &spec).unwrap();
        let cut = cut % bytes.len();
        prop_assert!(decode::<ScenarioSpec>(ScenarioSpec::KIND, &bytes[..cut]).is_err());
    }
}
