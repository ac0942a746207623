//! The reference runner: a campaign executed the naive way, every
//! member alone, serially and live, in expansion order.
//!
//! [`ScenarioSet::run_reference`] shares nothing between members — no
//! loop dedup, no compiled traces, no chunking, no fused replays, no
//! histogram riders, no pool. It is slow by design and exists as the
//! oracle the executor must equal bit for bit: the property test below
//! generates small sets over every spec axis and runs them through the
//! executor under random worker counts, chunk sizes and compile
//! budgets.

use crate::aggregate::{DigestBuilder, MemberMetrics};
use crate::exec::{distinct_designs, ScenarioSet, ScenarioSetRun};
use crate::result::{LoopData, MemberResult, ScenarioSetResult, StreamRun, SweepData};
use crate::spec::{DesignSpec, ScenarioSpec, WorkloadSpec};
use razorbus_core::experiments::{fig6::WINDOW_LEN, fig8, SummaryBank};
use razorbus_core::{BusSimulator, DvsBusDesign, TraceSummary, WindowedSummary};
use razorbus_traces::TraceSource;

impl ScenarioSet {
    /// Executes the set the naive way: expands it, builds each distinct
    /// design once, then runs every member on its own, in expansion
    /// order — suite loops through [`fig8::run_protocol`], single
    /// streams through [`BusSimulator::run`], sweeps through
    /// [`SummaryBank::collect`] / [`TraceSummary::collect`] /
    /// [`WindowedSummary::collect`], and
    /// aggregate members through [`MemberMetrics::of`] into a
    /// [`DigestBuilder`] in rank order.
    ///
    /// [`ScenarioSet::run`] must return exactly this result; this
    /// function is the oracle that pins it, not a faster path.
    ///
    /// # Errors
    ///
    /// The same spec errors as [`ScenarioSet::run`]; no environment
    /// knob is read.
    pub fn run_reference(&self) -> Result<ScenarioSetRun, String> {
        let members = self.expand()?;
        members.iter().try_for_each(ScenarioSpec::check_corner)?;
        members.iter().try_for_each(ScenarioSpec::check_windows)?;
        let (design_specs, member_design) = distinct_designs(members.iter().map(|m| &m.design));
        let designs = design_specs
            .iter()
            .map(DesignSpec::build)
            .collect::<Result<Vec<_>, _>>()?;

        let mut folder = members
            .iter()
            .any(|m| m.analysis.wants_aggregate())
            .then(|| DigestBuilder::new(&self.name));
        let mut rank = 0;
        let mut results = Vec::with_capacity(members.len());
        for (spec, d) in members.into_iter().zip(member_design) {
            let design = &designs[d];
            let mut closed_loop = None;
            if spec.analysis.wants_loop() || spec.analysis.wants_aggregate() {
                closed_loop = Some(run_loop(design, &spec)?);
            }
            if let Some(folder) = folder.as_mut().filter(|_| spec.analysis.wants_aggregate()) {
                let data = closed_loop.take().expect("aggregate members run a loop");
                folder.submit(rank, MemberMetrics::of(&data));
                rank += 1;
            }
            let sweep = if spec.analysis.wants_sweep() {
                Some(collect_sweep(design, &spec)?)
            } else {
                None
            };
            results.push(MemberResult {
                spec,
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
                digest: folder.map(DigestBuilder::finish),
            },
        })
    }
}

/// One member's closed loop over its live trace.
fn run_loop(design: &DvsBusDesign, spec: &ScenarioSpec) -> Result<LoopData, String> {
    let corner = spec.run.corner.resolve();
    let governor = spec.controller.build(design, corner)?;
    let (cycles, seed) = (spec.run.cycles_per_benchmark, spec.run.seed);
    let sampling = spec.controller.sampling;
    let trace: Box<dyn TraceSource + Send> = match &spec.workload {
        WorkloadSpec::Suite => {
            let (data, _) =
                fig8::run_protocol(design, corner, cycles, seed, governor, sampling, false);
            return Ok(LoopData::Suite(data));
        }
        WorkloadSpec::Single(benchmark) => Box::new(benchmark.trace(seed)),
        WorkloadSpec::Recipe(recipe) => recipe.build_trace(seed)?,
    };
    let mut sim = BusSimulator::new(design, corner, trace, governor);
    if let Some(window) = sampling {
        sim = sim.with_sampling(window);
    }
    let report = sim.run(cycles);
    Ok(LoopData::Stream(StreamRun { corner, report }))
}

/// One member's sweep histograms, collected in a pass of their own.
fn collect_sweep(design: &DvsBusDesign, spec: &ScenarioSpec) -> Result<SweepData, String> {
    let (cycles, seed) = (spec.run.cycles_per_benchmark, spec.run.seed);
    let mut trace: Box<dyn TraceSource + Send> = match &spec.workload {
        WorkloadSpec::Suite => {
            return Ok(SweepData::Bank(SummaryBank::collect(design, cycles, seed)));
        }
        WorkloadSpec::Single(benchmark) => Box::new(benchmark.trace(seed)),
        WorkloadSpec::Recipe(recipe) => recipe.build_trace(seed)?,
    };
    Ok(if spec.analysis.wants_windows() {
        let n = usize::try_from(cycles / WINDOW_LEN).map_err(|e| e.to_string())?;
        SweepData::Windows(WindowedSummary::collect(design, &mut trace, n, WINDOW_LEN))
    } else {
        SweepData::Summary(TraceSummary::collect(design, &mut trace, cycles))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{COMPILED_BYTES_PER_CYCLE, DEFAULT_COMPILE_BUDGET};
    use crate::spec::{
        AnalysisSpec, ControllerSpec, CornerSpec, DmaProfile, IdleProfile, MixProfile, RunSpec,
        StormProfile, SweepAxis, TrafficRecipe, VoltageSweep,
    };
    use proptest::prelude::*;
    use razorbus_artifact::ContentDigest;
    use razorbus_ctrl::GovernorSpec;
    use razorbus_process::{IrDrop, ProcessCorner, PvtCorner, TechnologyNode};
    use razorbus_traces::Benchmark;
    use razorbus_units::{Celsius, Millivolts};

    /// Cycles per benchmark: mostly short, so suites stay cheap in debug
    /// builds, and uneven, so chunk seams fall everywhere. The long
    /// budgets give concurrent jobs time to finish out of order.
    const CYCLES: [u64; 6] = [24, 61, 100, 157, 1_000, 2_500];

    /// SplitMix64 over one drawn seed: the vendored proptest has no
    /// mapping combinators, so a whole set is built from one stream.
    struct Entropy(u64);

    impl Entropy {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())].clone()
        }

        /// One to `max` distinct values of `from`, in drawn order.
        fn some<T: Clone>(&mut self, from: &[T], max: usize) -> Vec<T> {
            let mut pool = from.to_vec();
            let n = 1 + self.below(max);
            (0..n)
                .map(|_| pool.remove(self.below(pool.len())))
                .collect()
        }
    }

    /// One of the corners the design tables hold for `process`.
    fn pvt(e: &mut Entropy, process: ProcessCorner) -> CornerSpec {
        let temperature = e.pick(&[Celsius::ROOM, Celsius::HOT]);
        let ir = e.pick(&[IrDrop::None, IrDrop::TenPercent]);
        CornerSpec::Pvt(PvtCorner::new(process, temperature, ir))
    }

    fn corner(e: &mut Entropy) -> CornerSpec {
        let process = e.pick(&[
            ProcessCorner::Slow,
            ProcessCorner::Typical,
            ProcessCorner::Fast,
        ]);
        let table = pvt(e, process);
        e.pick(&[CornerSpec::Typical, CornerSpec::Worst, table, table])
    }

    fn design(e: &mut Entropy) -> DesignSpec {
        // A 0 % skew cap is refused, and nodes below 130 nm hold neither
        // 1.2 V nor most of the drawn fixed supplies.
        let other = [
            DesignSpec::ModifiedCoupling,
            DesignSpec::SkewCapPercent(e.pick(&[10, 33, 50, 0])),
            DesignSpec::ElmoreCoupling,
            DesignSpec::Technology(e.pick(&TechnologyNode::ALL)),
        ];
        if e.below(2) == 0 {
            DesignSpec::Paper
        } else {
            e.pick(&other)
        }
    }

    /// Mostly valid recipe rates; 1 001 ‰ is refused.
    fn permille(e: &mut Entropy, values: [u32; 3]) -> u32 {
        if e.below(24) == 0 {
            1_001
        } else {
            e.pick(&values)
        }
    }

    fn workload(e: &mut Entropy) -> WorkloadSpec {
        let dma = DmaProfile {
            // A zero burst length is refused.
            mean_burst: e.pick(&[1, 8, 40]) * u64::from(e.below(24) != 0),
            mean_idle: e.pick(&[1, 20, 60]),
            housekeeping_permille: permille(e, [0, 30, 1_000]),
        };
        let idle = IdleProfile {
            nonzero_permille: permille(e, [0, 50, 400]),
        };
        let storm = StormProfile {
            aggression_permille: permille(e, [0, 120, 1_000]),
        };
        // Zero words in every phase is refused.
        let mut words = || e.pick(&[0, 7, 50]);
        let mixed = MixProfile {
            dma,
            dma_words: words(),
            idle,
            idle_words: words(),
            storm,
            storm_words: words(),
        };
        let recipes = [
            TrafficRecipe::BurstyDma(dma),
            TrafficRecipe::IdleDominated(idle),
            TrafficRecipe::CrosstalkStorm(storm),
            TrafficRecipe::Mixed(mixed),
        ];
        match e.below(9) {
            0..=3 => WorkloadSpec::Suite,
            4 => WorkloadSpec::Single(e.pick(&Benchmark::ALL)),
            _ => WorkloadSpec::Recipe(e.pick(&recipes)),
        }
    }

    fn governor(e: &mut Entropy) -> GovernorSpec {
        // 1 010 mV is off the paper's 20 mV grid.
        let mv = match e.below(24) {
            0 => 1_010,
            _ => e.pick(&[900, 960, 1_000, 1_040, 1_100, 1_200]),
        };
        let fixed = GovernorSpec::Fixed(Millivolts::new(mv));
        e.pick(&[
            GovernorSpec::Threshold,
            GovernorSpec::Proportional,
            fixed,
            fixed,
        ])
    }

    /// A window in cycles, or `None`; a zero window is refused.
    fn window(e: &mut Entropy, windows: [Option<u64>; 4]) -> Option<u64> {
        if e.below(40) == 0 {
            Some(0)
        } else {
            e.pick(&windows)
        }
    }

    fn analysis(e: &mut Entropy) -> AnalysisSpec {
        e.pick(&[
            AnalysisSpec::ClosedLoop,
            AnalysisSpec::StaticSweep,
            AnalysisSpec::Full,
            AnalysisSpec::Aggregate,
        ])
    }

    fn axis(e: &mut Entropy, kind: usize) -> SweepAxis {
        match kind {
            // One corner per label: labels name the members.
            0 => {
                let slow = pvt(e, ProcessCorner::Slow);
                let fast = pvt(e, ProcessCorner::Fast);
                SweepAxis::Corners(e.some(&[CornerSpec::Typical, CornerSpec::Worst, slow, fast], 3))
            }
            1 => SweepAxis::Governors(e.some(
                &[
                    GovernorSpec::Threshold,
                    GovernorSpec::Proportional,
                    GovernorSpec::Fixed(Millivolts::new(1_000)),
                    GovernorSpec::Fixed(Millivolts::new(1_100)),
                ],
                3,
            )),
            2 => {
                let (from, step) = (e.pick(&[960, 1_000, 1_100]), e.pick(&[20, 40]));
                SweepAxis::Voltages(VoltageSweep {
                    from: Millivolts::new(from),
                    to: Millivolts::new(from + step * e.below(3) as i32),
                    step: Millivolts::new(step),
                })
            }
            3 => SweepAxis::Seeds(e.some(&[1, 2, 3, 4], 3)),
            _ => SweepAxis::Cycles(e.some(&CYCLES[..4], 2)),
        }
    }

    fn axes(e: &mut Entropy) -> Vec<SweepAxis> {
        let kinds = e.some(&[0, 1, 2, 3, 4], 5);
        let n = e.pick(&[0, 1, 1, 2]);
        kinds
            .into_iter()
            .take(n)
            .map(|kind| axis(e, kind))
            .collect()
    }

    /// One to three members: a drawn spec plus siblings that change one
    /// or two of its fields — mostly fields that keep the base's trace,
    /// so loops share compiles and sweeps ride them — or, in a third of
    /// the sets, a set that plans a co-analysis. Rarely one member
    /// moves to a corner no table holds.
    fn arbitrary_set(e: &mut Entropy) -> ScenarioSet {
        let base = ScenarioSpec {
            name: "m0".to_string(),
            design: design(e),
            workload: workload(e),
            controller: ControllerSpec {
                governor: governor(e),
                window: window(e, [None, None, Some(64), Some(300)]),
                ramp_ns_per_10mv: e.pick(&[None, Some(0), Some(200)]),
                sampling: window(e, [None, Some(16), Some(50), Some(128)]),
            },
            run: RunSpec {
                corner: corner(e),
                cycles_per_benchmark: e.pick(&CYCLES),
                seed: e.pick(&[1, 2, 3]),
            },
            analysis: analysis(e),
            sweep: axes(e),
        };
        let mut members = vec![base.clone()];
        for k in 1..=e.pick(&[0, 1, 2, 2]) {
            let mut m = ScenarioSpec {
                name: format!("m{k}"),
                ..base.clone()
            };
            for _ in 0..=e.below(2) {
                match e.below(12) {
                    0 | 1 => m.analysis = analysis(e),
                    2 | 3 => {
                        m.controller.sampling = window(e, [None, Some(16), Some(50), Some(128)])
                    }
                    4 | 5 => m.controller.governor = governor(e),
                    6 | 7 => m.run.corner = corner(e),
                    8 => m.run.seed = e.pick(&[1, 2, 3]),
                    9 => m.run.cycles_per_benchmark = e.pick(&CYCLES),
                    10 => m.design = design(e),
                    _ if e.below(2) == 0 => m.workload = workload(e),
                    _ => m.sweep = axes(e),
                }
            }
            members.push(m);
        }
        if e.below(3) == 0 {
            members = co_analyzed(e, base.clone());
        }
        if e.below(4) == 0 {
            members.push(windowed(e, &base));
        }
        if e.below(12) == 0 {
            let k = e.below(members.len());
            let celsius = e.pick(&[50.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
            let off_table =
                PvtCorner::new(ProcessCorner::Slow, Celsius::new(celsius), IrDrop::None);
            members[k].run.corner = CornerSpec::Pvt(off_table);
        }
        ScenarioSet {
            name: "oracle".to_string(),
            members,
        }
    }

    /// A set that plans a co-analysis: the base and a twin on its
    /// words and design at the other headline corner (a key with two
    /// loops, which compiles), and a member on another design reading
    /// the same words, whose loop key has no other user. The base may
    /// sweep governors, which keeps its words.
    fn co_analyzed(e: &mut Entropy, mut base: ScenarioSpec) -> Vec<ScenarioSpec> {
        let loops = [
            AnalysisSpec::ClosedLoop,
            AnalysisSpec::Full,
            AnalysisSpec::Aggregate,
        ];
        base.analysis = e.pick(&loops);
        base.sweep = match e.below(2) {
            0 => vec![],
            _ => vec![axis(e, 1)],
        };
        let mut twin = ScenarioSpec {
            name: "twin".to_string(),
            ..base.clone()
        };
        twin.run.corner = match base.run.corner {
            CornerSpec::Typical => CornerSpec::Worst,
            _ => CornerSpec::Typical,
        };
        let mut co = ScenarioSpec {
            name: "co".to_string(),
            analysis: e.pick(&loops),
            sweep: vec![],
            ..base.clone()
        };
        while co.design == base.design {
            co.design = design(e);
        }
        vec![base, twin, co]
    }

    /// A windowed-sweep member for one or two windows, on the base's
    /// words when they are one stream, else on a drawn program or
    /// recipe. Rarely it asks for the suite or a partial window, which
    /// both runners refuse.
    fn windowed(e: &mut Entropy, base: &ScenarioSpec) -> ScenarioSpec {
        let mut m = ScenarioSpec {
            name: "windowed".to_string(),
            analysis: AnalysisSpec::WindowedSweep,
            sweep: vec![],
            ..base.clone()
        };
        while m.workload == WorkloadSpec::Suite {
            m.workload = workload(e);
        }
        m.run.cycles_per_benchmark = WINDOW_LEN * e.pick(&[1, 2]);
        match e.below(16) {
            0 => m.workload = WorkloadSpec::Suite,
            1 => m.run.cycles_per_benchmark += e.pick(&[1, WINDOW_LEN / 2]),
            _ => {}
        }
        m
    }

    proptest! {
        /// THE executor contract: at any worker count (1–4), compile
        /// chunk (1 cycle up to past the longest stream) and compile
        /// budget (none, zero, tight, default), with or without a
        /// prebuilt design, a campaign is bit-identical to its naive
        /// member-by-member run — and when the reference refuses a set,
        /// so does the executor. Each set runs under two drawn options,
        /// sized by its longest windowless member.
        #[test]
        fn executor_equals_reference(entropy in any::<u64>()) {
            let mut e = Entropy(entropy);
            let set = arbitrary_set(&mut e);
            let reference = set.run_reference();
            let off_table = set
                .expand()
                .is_ok_and(|members| members.iter().any(|m| m.check_corner().is_err()));
            let windowless = set.members.iter().filter(|m| !m.analysis.wants_windows());
            let longest = windowless.map(|m| m.run.cycles_per_benchmark).max();
            let longest = longest.expect("sets hold members");
            for _ in 0..2 {
                let workers = 1 + e.below(4);
                let chunk = match e.below(4) {
                    0 => 1,
                    1 => 1 + e.below(longest as usize),
                    2 => longest as usize,
                    _ => longest as usize + 1 + e.below(64),
                };
                // Room for about one or two suites of the longest
                // stream: some compile keys fit, later ones run live.
                let tight = COMPILED_BYTES_PER_CYCLE * longest * e.pick(&[1, 10, 20]);
                let default = DEFAULT_COMPILE_BUDGET;
                let budget = e.pick(&[None, Some(0), Some(tight), Some(tight)]);
                let budget = if e.below(2) == 0 { Some(default) } else { budget };
                let prebuilt = match e.below(4) {
                    0 => vec![(DesignSpec::Paper, DvsBusDesign::paper_default())],
                    _ => Vec::new(),
                };
                let context = format!("workers {workers}, chunk {chunk}, budget {budget:?}, {set:?}");
                match (set.run_full(prebuilt, budget, Some(workers), chunk), &reference) {
                    (Ok(executor), Ok(reference)) => {
                        prop_assert!(!off_table, "an off-table corner ran: {}", context);
                        prop_assert_eq!(
                            ContentDigest::of(&executor.result).expect("digest"),
                            ContentDigest::of(&reference.result).expect("digest"),
                            "{}", context
                        );
                        prop_assert_eq!(&executor.result, &reference.result, "{}", context);
                    }
                    (Err(_), Err(_)) => {}
                    (executor, reference) => panic!(
                        "runners disagree: executor {:?}, reference {:?}; {context}",
                        executor.err(),
                        reference.as_ref().err(),
                    ),
                }
            }
        }
    }
}
