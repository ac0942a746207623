//! Fig. 8: the closed-loop trajectory — supply voltage and instantaneous
//! error rate while the ten benchmarks run consecutively under the §5
//! controller.

use crate::design::DvsBusDesign;
use crate::sim::{BusSimulator, SimReport, VoltageSample};
use razorbus_ctrl::ThresholdController;
use razorbus_process::PvtCorner;
use razorbus_traces::Benchmark;

/// Per-program slice of the consecutive run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig8Segment {
    /// The program (regions 1–10 of the figure).
    pub benchmark: Benchmark,
    /// First cycle of this program's region.
    pub start_cycle: u64,
    /// The program's run report (energy, errors, voltages).
    pub report: SimReport,
}

/// The trajectory data.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Fig8Data {
    /// The environment corner of the run.
    pub corner: PvtCorner,
    /// Program regions in execution order.
    pub segments: Vec<Fig8Segment>,
    /// Window samples across the whole run (cycle numbers are global).
    pub samples: Vec<VoltageSample>,
}

/// Runs the ten benchmarks consecutively (each `cycles_per_benchmark`
/// cycles) under one controller that is *not* reset between programs —
/// exactly the Fig. 8 setup, starting from the nominal supply.
#[must_use]
pub fn run(
    design: &DvsBusDesign,
    corner: PvtCorner,
    cycles_per_benchmark: u64,
    seed: u64,
) -> Fig8Data {
    let controller = ThresholdController::new(design.controller_config(corner.process));
    let (data, _) = run_protocol(
        design,
        corner,
        cycles_per_benchmark,
        seed,
        controller,
        Some(10_000),
        false,
    );
    data
}

/// The Fig. 8 *protocol* over an arbitrary governor: the ten benchmarks
/// run consecutively, each `cycles_per_benchmark` cycles, with the
/// governor carried (not reset) across program boundaries.
///
/// [`run`] is this with the paper's threshold controller and the 10 k
/// sampling window; the scenario layer calls it with spec-built governors
/// (`razorbus_ctrl::GovernorSpec::build`) so governor sweeps reuse the
/// exact closed-loop machinery the paper figures are generated by —
/// differential tests pin the boxed-governor path bit-identical to the
/// concrete one.
#[must_use]
pub fn run_protocol<G: razorbus_ctrl::VoltageGovernor>(
    design: &DvsBusDesign,
    corner: PvtCorner,
    cycles_per_benchmark: u64,
    seed: u64,
    governor: G,
    sampling: Option<u64>,
    with_summaries: bool,
) -> (Fig8Data, Vec<(Benchmark, crate::TraceSummary)>) {
    let mut cursor = SuiteCursor::new(corner, cycles_per_benchmark, governor);
    for _ in Benchmark::ALL {
        cursor = cursor.feed(|benchmark, governor| {
            let mut sim = BusSimulator::new(design, corner, benchmark.trace(seed), governor);
            if let Some(window) = sampling {
                sim = sim.with_sampling(window);
            }
            if with_summaries {
                sim = sim.with_histogram();
            }
            let report = sim.run(cycles_per_benchmark);
            (report, sim.into_governor())
        });
    }
    cursor.finish()
}

/// The Fig. 8 protocol replayed from compiled traces: the same
/// consecutive ten-benchmark run as [`run_protocol`], but each program's
/// cycles come from its [`crate::CompiledTrace`] (one per benchmark, in
/// [`Benchmark::ALL`] order) instead of a live `analyze_cycle` pass —
/// bit-identical by construction (the replay shares the simulator's
/// chunked loop), so a sweep of N governors over the same traffic pays
/// the analysis cost once.
///
/// # Panics
///
/// Panics unless `compiled` holds one trace per benchmark, all with the
/// same cycle count and stamped for `design`.
#[must_use]
pub fn replay_protocol<G: razorbus_ctrl::VoltageGovernor>(
    design: &DvsBusDesign,
    corner: PvtCorner,
    compiled: &[std::sync::Arc<crate::CompiledTrace>],
    governor: G,
    sampling: Option<u64>,
    with_summaries: bool,
) -> (Fig8Data, Vec<(Benchmark, crate::TraceSummary)>) {
    assert_eq!(
        compiled.len(),
        Benchmark::ALL.len(),
        "suite replay needs one compiled trace per benchmark"
    );
    let cycles_per_benchmark = compiled[0].cycles();
    let mut cursor = SuiteCursor::new(corner, cycles_per_benchmark, governor);
    for trace in compiled {
        assert_eq!(
            trace.cycles(),
            cycles_per_benchmark,
            "compiled suite traces must share one cycle budget"
        );
        cursor = cursor
            .feed(|_, governor| trace.replay(design, corner, governor, sampling, with_summaries));
    }
    cursor.finish()
}

/// The suite stitching behind [`run_protocol`] and [`replay_protocol`],
/// fed one program at a time, so a caller can run each program as soon
/// as its input is ready: [`SuiteCursor::feed`] runs the next program of
/// [`Benchmark::ALL`] and carries the governor into the one after it.
/// Each report's histogram by-product is taken out, its samples are
/// shifted to global cycle numbers, and it becomes one segment.
#[derive(Debug)]
pub struct SuiteCursor<G> {
    corner: PvtCorner,
    cycles_per_benchmark: u64,
    governor: G,
    segments: Vec<Fig8Segment>,
    samples: Vec<VoltageSample>,
    summaries: Vec<(Benchmark, crate::TraceSummary)>,
}

impl<G> SuiteCursor<G> {
    /// A cursor before the first program, holding the governor the
    /// suite starts with.
    #[must_use]
    pub fn new(corner: PvtCorner, cycles_per_benchmark: u64, governor: G) -> Self {
        Self {
            corner,
            cycles_per_benchmark,
            governor,
            segments: Vec::with_capacity(Benchmark::ALL.len()),
            samples: Vec::new(),
            summaries: Vec::new(),
        }
    }

    /// The index in [`Benchmark::ALL`] of the program
    /// [`SuiteCursor::feed`] runs next; `None` once every program ran.
    #[must_use]
    pub fn next_program(&self) -> Option<usize> {
        let i = self.segments.len();
        (i < Benchmark::ALL.len()).then_some(i)
    }

    /// Runs the next program: `run_program(benchmark, governor)` runs it
    /// for `cycles_per_benchmark` cycles and hands the governor back.
    ///
    /// # Panics
    ///
    /// Panics if every program already ran.
    #[must_use]
    pub fn feed(mut self, run_program: impl FnOnce(Benchmark, G) -> (SimReport, G)) -> Self {
        let i = self.next_program().expect("every program of the suite ran");
        let benchmark = Benchmark::ALL[i];
        let (mut report, governor) = run_program(benchmark, self.governor);
        self.governor = governor;
        if let Some(summary) = report.summary.take() {
            self.summaries.push((benchmark, summary));
        }
        let offset = i as u64 * self.cycles_per_benchmark;
        for s in &mut report.samples {
            s.cycle += offset;
        }
        self.samples.extend(report.samples.iter().copied());
        self.segments.push(Fig8Segment {
            benchmark,
            start_cycle: offset,
            report,
        });
        self
    }

    /// The finished trajectory and the programs' histogram by-products.
    ///
    /// # Panics
    ///
    /// Panics unless every program ran.
    #[must_use]
    pub fn finish(self) -> (Fig8Data, Vec<(Benchmark, crate::TraceSummary)>) {
        assert!(
            self.next_program().is_none(),
            "the suite stopped after {} of {} programs",
            self.segments.len(),
            Benchmark::ALL.len()
        );
        let data = Fig8Data {
            corner: self.corner,
            segments: self.segments,
            samples: self.samples,
        };
        (data, self.summaries)
    }
}

impl Fig8Data {
    /// Overall energy gain across the whole consecutive run.
    #[must_use]
    pub fn total_energy_gain(&self) -> f64 {
        let energy: f64 = self.segments.iter().map(|s| s.report.energy.fj()).sum();
        let base: f64 = self
            .segments
            .iter()
            .map(|s| s.report.baseline_energy.fj())
            .sum();
        1.0 - energy / base
    }

    /// Overall average error rate.
    #[must_use]
    pub fn total_error_rate(&self) -> f64 {
        let errors: u64 = self.segments.iter().map(|s| s.report.errors).sum();
        let cycles: u64 = self.segments.iter().map(|s| s.report.cycles).sum();
        errors as f64 / cycles as f64
    }

    /// Peak instantaneous (per-window) error rate — the paper observes
    /// spikes up to ~6 % caused by the regulator ramp delay.
    #[must_use]
    pub fn peak_window_error_rate(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.window_error_rate)
            .fold(0.0, f64::max)
    }

    /// Prints a decimated trajectory plus the per-program summary.
    pub fn print(&self) {
        println!("Fig. 8 — closed-loop trajectory ({})", self.corner);
        println!("{:>12} {:>9} {:>10}", "cycle", "VDD(mV)", "err(%)");
        let stride = (self.samples.len() / 60).max(1);
        for s in self.samples.iter().step_by(stride) {
            println!(
                "{:>12} {:>9} {:>10.2}",
                s.cycle,
                s.voltage.mv(),
                s.window_error_rate * 100.0
            );
        }
        println!("  per-program regions:");
        for (i, seg) in self.segments.iter().enumerate() {
            println!(
                "  {:>2}. {:<8} gain {:>5.1}%  avg err {:>5.2}%  min VDD {} mV",
                i + 1,
                seg.benchmark.name(),
                seg.report.energy_gain() * 100.0,
                seg.report.error_rate() * 100.0,
                seg.report.min_voltage.mv(),
            );
        }
        println!(
            "  TOTAL: gain {:.1}%, err {:.2}%, peak window err {:.1}%",
            self.total_energy_gain() * 100.0,
            self.total_error_rate() * 100.0,
            self.peak_window_error_rate() * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One compiled trace per program in [`Benchmark::ALL`] order, ready
    /// for [`replay_protocol`].
    fn compile_suite(
        design: &DvsBusDesign,
        cycles_per_benchmark: u64,
        seed: u64,
    ) -> Vec<std::sync::Arc<crate::CompiledTrace>> {
        Benchmark::ALL
            .into_iter()
            .map(|benchmark| {
                std::sync::Arc::new(crate::CompiledTrace::compile(
                    design,
                    &mut benchmark.trace(seed),
                    cycles_per_benchmark,
                ))
            })
            .collect()
    }

    #[test]
    fn consecutive_run_adapts_per_program() {
        let d = DvsBusDesign::paper_default();
        let data = run(&d, PvtCorner::TYPICAL, 60_000, 3);
        assert_eq!(data.segments.len(), 10);
        // No silent corruption anywhere.
        assert!(data
            .segments
            .iter()
            .all(|s| s.report.shadow_violations == 0));
        // The controller finds gains overall and per the light programs.
        assert!(
            data.total_energy_gain() > 0.2,
            "{}",
            data.total_energy_gain()
        );
        // Average error rate near the band.
        assert!(
            data.total_error_rate() < 0.03,
            "{}",
            data.total_error_rate()
        );
        // mgrid (region 3, heavy) must run hotter than gap (region 9,
        // light) — both inherit a converged controller from their
        // predecessor, unlike region 1 which pays the 1.2 V descent.
        let mgrid = &data.segments[2].report;
        let gap = &data.segments[8].report;
        assert!(
            mgrid.mean_voltage_mv > gap.mean_voltage_mv,
            "mgrid {} !> gap {}",
            mgrid.mean_voltage_mv,
            gap.mean_voltage_mv
        );
    }

    #[test]
    fn protocol_with_boxed_governor_matches_concrete() {
        // The scenario executor drives this protocol through spec-built
        // boxed governors; the indirection must not change a single bit.
        let d = DvsBusDesign::paper_default();
        let concrete = run(&d, PvtCorner::TYPICAL, 30_000, 3);
        let boxed = razorbus_ctrl::GovernorSpec::Threshold
            .build(d.controller_config(PvtCorner::TYPICAL.process));
        let (data, per) =
            run_protocol(&d, PvtCorner::TYPICAL, 30_000, 3, boxed, Some(10_000), true);
        assert_eq!(data, concrete);
        assert_eq!(per.len(), Benchmark::ALL.len());
    }

    #[test]
    fn replayed_protocol_matches_live_protocol() {
        // Compile the suite once, replay under two governors: each
        // replay must be bit-identical to the live protocol under the
        // same governor — the whole point of sharing compiled traces
        // across sweep members.
        let d = DvsBusDesign::paper_default();
        let compiled = compile_suite(&d, 30_000, 3);
        let live = run(&d, PvtCorner::TYPICAL, 30_000, 3);
        let boxed = razorbus_ctrl::GovernorSpec::Threshold
            .build(d.controller_config(PvtCorner::TYPICAL.process));
        let (replayed, per) =
            replay_protocol(&d, PvtCorner::TYPICAL, &compiled, boxed, Some(10_000), true);
        assert_eq!(replayed, live);
        // The histogram by-products are the collect-identical summaries.
        assert_eq!(per.len(), Benchmark::ALL.len());
        for (bench, summary) in &per {
            let collected = crate::TraceSummary::collect(&d, &mut bench.trace(3), 30_000);
            assert_eq!(*summary, collected, "{bench}");
        }
        // A second governor over the same compiled traces.
        let fixed = razorbus_ctrl::GovernorSpec::Fixed(razorbus_units::Millivolts::new(1_100))
            .build(d.controller_config(PvtCorner::TYPICAL.process));
        let (replayed_fixed, _) = replay_protocol(
            &d,
            PvtCorner::TYPICAL,
            &compiled,
            fixed,
            Some(10_000),
            false,
        );
        let live_fixed = run_protocol(
            &d,
            PvtCorner::TYPICAL,
            30_000,
            3,
            razorbus_ctrl::GovernorSpec::Fixed(razorbus_units::Millivolts::new(1_100))
                .build(d.controller_config(PvtCorner::TYPICAL.process)),
            Some(10_000),
            false,
        )
        .0;
        assert_eq!(replayed_fixed, live_fixed);
    }

    #[test]
    fn samples_are_globally_ordered() {
        let d = DvsBusDesign::paper_default();
        let data = run(&d, PvtCorner::TYPICAL, 30_000, 1);
        assert!(data.samples.windows(2).all(|w| w[0].cycle < w[1].cycle));
        // 3 windows of 10k per 30k-cycle program, 10 programs.
        assert_eq!(data.samples.len(), 30);
    }
}
