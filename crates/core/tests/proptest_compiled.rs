//! Property tests for the chunked compile route: any chunking of any
//! trace, drained with `drain_words`, analyzed with `analyze_chunk` and
//! assembled with `from_chunks`, is bit-identical to the streaming
//! `CompiledTrace::compile`, with the chunk-boundary `prev`-word seams
//! (cycle `k*chunk` reading the last word of the previous chunk)
//! exercised at randomized cycle counts and chunk sizes, on random and
//! on quiet-heavy traffic (so seams also fall inside runs of repeated
//! words). A fused replay of any operating-point set equals each
//! member's solo replay. A histogram replay's summary equals the
//! collected and the live closed-loop summaries over the same words.

use proptest::prelude::*;
use razorbus_core::{BusSimulator, CompiledTrace, DvsBusDesign, FusedOp, SimReport, TraceSummary};
use razorbus_ctrl::{FixedVoltage, GovernorSpec};
use razorbus_process::{IrDrop, PvtCorner};
use razorbus_tables::EnvCondition;
use razorbus_traces::{BurstyDma, RandomWords, TraceRecording, TraceSource, ZeroBurstWords};

use std::sync::OnceLock;

fn designs() -> &'static Vec<(&'static str, DvsBusDesign)> {
    static DESIGNS: OnceLock<Vec<(&'static str, DvsBusDesign)>> = OnceLock::new();
    DESIGNS.get_or_init(|| {
        vec![
            ("paper", DvsBusDesign::paper_default()),
            ("modified", DvsBusDesign::modified_paper_bus()),
        ]
    })
}

/// A recorded word stream replayable any number of times: the chunked
/// and streaming compiles must consume identical words. `family` 0 is
/// uniform random (essentially never quiet); 1 and 2 are quiet-heavy:
/// zero runs broken by short non-zero words, and short DMA bursts
/// between idle gaps that hold the last word.
fn record(family: usize, seed: u64, cycles: u64) -> TraceRecording {
    let words = usize::try_from(cycles).unwrap() + 1;
    match family {
        0 => TraceRecording::capture(&mut RandomWords::new(seed), words),
        1 => TraceRecording::capture(&mut ZeroBurstWords::new(seed, 0.1), words),
        _ => TraceRecording::capture(&mut BurstyDma::new(seed, 6, 30, 0.05), words),
    }
}

proptest! {
    /// Chunked ≡ streaming at arbitrary (cycles, chunk) combinations —
    /// including chunk = 1 (every cycle a seam), chunks that divide the
    /// count, chunks that leave a short tail, and chunks beyond the
    /// whole trace — over random and quiet-heavy recordings, so seams
    /// also split runs of repeated words. `PartialEq` covers every
    /// array element and stamp, so any seam that mis-primes its `prev`
    /// word fails here.
    #[test]
    fn chunk_seams_never_show(
        family in 0usize..3,
        seed in any::<u64>(),
        cycles in 1u64..400,
        chunk in 1usize..512,
    ) {
        let recording = record(family, seed, cycles);
        for (name, design) in designs() {
            let serial = CompiledTrace::compile(design, &mut recording.replay(), cycles);
            let words = CompiledTrace::drain_words(&mut recording.replay(), cycles);
            let n = words.len() - 1;
            let chunks = (0..n)
                .step_by(chunk)
                .map(|start| CompiledTrace::analyze_chunk(design, &words, start, chunk.min(n - start)))
                .collect();
            let chunked = CompiledTrace::from_chunks(design, cycles, chunks);
            prop_assert_eq!(&serial, &chunked, "{}: family {}, cycles {}, chunk {}", name, family, cycles, chunk);
        }
    }

    /// The drained word buffer is exactly the streaming path's word
    /// protocol: `cycles + 1` words in stream order, the first priming
    /// `prev`.
    #[test]
    fn drained_words_match_the_stream(seed in any::<u64>(), cycles in 1u64..400) {
        let recording = record(0, seed, cycles);
        let words = CompiledTrace::drain_words(&mut recording.replay(), cycles);
        prop_assert_eq!(words.len() as u64, cycles + 1);
        let mut replay = recording.replay();
        for (c, &w) in words.iter().enumerate() {
            prop_assert_eq!(w, replay.next_word(), "word {}", c);
        }
    }

    /// Any set of open-loop operating points — tabulated corners × grid
    /// supplies, repeats allowed — fused in one pass reports for each
    /// member exactly its solo `replay` under `FixedVoltage`, to the
    /// bit. The designs live across cases, so later cases read replay
    /// tables an earlier case (or the solo replays) built.
    #[test]
    fn fused_replay_equals_solo_replays(
        which in 0usize..2,
        seed in any::<u64>(),
        cycles in 1u64..2_000,
        picks in proptest::collection::vec((0usize..12, any::<usize>()), 1..=16),
        window in 0u64..600,
    ) {
        let (name, design) = &designs()[which];
        let supplies: Vec<_> = design.grid().iter().collect();
        let ops: Vec<FusedOp> = picks
            .iter()
            .map(|&(corner, supply)| {
                let c = EnvCondition::PAPER_SET[corner / IrDrop::ALL.len()];
                let ir = IrDrop::ALL[corner % IrDrop::ALL.len()];
                FusedOp {
                    pvt: PvtCorner::new(c.corner, c.temperature, ir),
                    supply: supplies[supply % supplies.len()],
                }
            })
            .collect();
        let sampling = (window > 0).then_some(window);
        let compiled = CompiledTrace::compile(design, &mut RandomWords::new(seed), cycles);
        let fused = compiled.replay_fused(design, &ops, sampling);
        prop_assert_eq!(fused.len(), ops.len());
        for (op, f) in ops.iter().zip(&fused) {
            let (s, _) = compiled.replay(design, op.pvt, FixedVoltage::new(op.supply), sampling, false);
            let ctx = format!("{name} @ {} {}, {cycles} cycles, sampling {sampling:?}", op.pvt, op.supply);
            prop_assert_eq!(f.energy.fj().to_bits(), s.energy.fj().to_bits(), "{}", ctx);
            prop_assert_eq!(f.baseline_energy.fj().to_bits(), s.baseline_energy.fj().to_bits(), "{}", ctx);
            prop_assert_eq!(f.mean_voltage_mv.to_bits(), s.mean_voltage_mv.to_bits(), "{}", ctx);
            prop_assert_eq!(f, &s, "{}", ctx);
        }
    }

    /// Every histogram source agrees: under a closed-loop governor, on
    /// random and quiet-heavy recordings, `replay(.., true)`'s summary
    /// equals `TraceSummary::collect` over the same words and the live
    /// `with_histogram` by-product, and asking for it leaves every
    /// other field of the report as `replay(.., false)` has it, to the
    /// bit.
    #[test]
    fn histogram_replays_equal_the_collected_summary(
        which in 0usize..2,
        family in 0usize..3,
        seed in any::<u64>(),
        cycles in 1u64..3_000,
        window in 0u64..600,
        proportional in any::<bool>(),
        worst in any::<bool>(),
    ) {
        let (name, design) = &designs()[which];
        let recording = record(family, seed, cycles);
        let pvt = if worst { PvtCorner::WORST } else { PvtCorner::TYPICAL };
        let spec = if proportional { GovernorSpec::Proportional } else { GovernorSpec::Threshold };
        let governor = || spec.build(design.controller_config(pvt.process));
        let sampling = (window > 0).then_some(window);
        let ctx = format!("{name} @ {pvt}, {spec:?}, family {family}, {cycles} cycles, sampling {sampling:?}");

        let compiled = CompiledTrace::compile(design, &mut recording.replay(), cycles);
        let (with, _) = compiled.replay(design, pvt, governor(), sampling, true);
        let (without, _) = compiled.replay(design, pvt, governor(), sampling, false);
        let collected = TraceSummary::collect(design, &mut recording.replay(), cycles);
        let mut live = BusSimulator::new(design, pvt, recording.replay(), governor()).with_histogram();
        if let Some(w) = sampling {
            live = live.with_sampling(w);
        }
        let live = live.run(cycles);
        prop_assert_eq!(with.summary.as_ref(), Some(&collected), "{}", ctx);
        prop_assert_eq!(live.summary.as_ref(), Some(&collected), "{}", ctx);

        prop_assert_eq!(without.summary.as_ref(), None, "{}", ctx);
        prop_assert_eq!(with.energy.fj().to_bits(), without.energy.fj().to_bits(), "{}", ctx);
        prop_assert_eq!(with.baseline_energy.fj().to_bits(), without.baseline_energy.fj().to_bits(), "{}", ctx);
        prop_assert_eq!(with.mean_voltage_mv.to_bits(), without.mean_voltage_mv.to_bits(), "{}", ctx);
        prop_assert_eq!(SimReport { summary: None, ..with }, without, "{}", ctx);
    }
}
