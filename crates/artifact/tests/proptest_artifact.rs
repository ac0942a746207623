//! Property tests for the artifact layer: serialize → deserialize →
//! bit-exact equality for every persisted workspace type, in both
//! encodings, plus the no-panic corruption contract (any single-byte
//! flip or truncation of a framed artifact must surface as an error).

use proptest::prelude::*;
use razorbus_artifact::{binary, decode, encode, json, Artifact, Encoding};
use razorbus_core::experiments::SummaryBank;
use razorbus_core::{CompiledTrace, DvsBusDesign, TraceSummary, WindowedSummary};
use razorbus_process::{IrDrop, PvtCorner};
use razorbus_tables::{BusTables, EnvCondition};
use razorbus_traces::{Benchmark, TraceRecording};
use razorbus_units::{Millivolts, Picoseconds, VoltageGrid};
use razorbus_wire::BusPhysical;

use std::sync::OnceLock;

fn design() -> &'static DvsBusDesign {
    static DESIGN: OnceLock<DvsBusDesign> = OnceLock::new();
    DESIGN.get_or_init(DvsBusDesign::paper_default)
}

fn tables() -> &'static BusTables {
    static TABLES: OnceLock<BusTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        BusTables::build(
            &BusPhysical::paper_default(),
            VoltageGrid::paper_default(),
            Picoseconds::new(220.0),
        )
    })
}

fn benchmarks() -> impl Strategy<Value = Benchmark> {
    proptest::sample::select(Benchmark::ALL.to_vec())
}

fn conditions() -> impl Strategy<Value = EnvCondition> {
    proptest::sample::select(EnvCondition::PAPER_SET.to_vec())
}

/// Round-trips through the framed container in both encodings, asserting
/// bit-exact equality each way.
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

proptest! {
    /// Captured word streams round-trip bit-exactly.
    #[test]
    fn trace_recording_round_trips(words in proptest::collection::vec(any::<u32>(), 1..300)) {
        let recording = TraceRecording::from_words(words);
        assert_round_trip(&recording);
        // The raw payload codecs round-trip too (no container).
        let bin = binary::to_bytes(&recording).unwrap();
        prop_assert_eq!(binary::from_bytes::<TraceRecording>(&bin).unwrap(), recording.clone());
        let text = json::to_string(&recording).unwrap();
        prop_assert_eq!(json::from_str::<TraceRecording>(&text).unwrap(), recording);
    }

    /// Collected summaries (and their histograms' exact u64/f64 content)
    /// round-trip bit-exactly.
    #[test]
    fn trace_summary_round_trips(benchmark in benchmarks(), seed in 0u64..1_000, cycles in 64u64..512) {
        let summary = TraceSummary::collect(design(), &mut benchmark.trace(seed), cycles);
        assert_round_trip(&summary);
    }

    /// Windowed summaries round-trip bit-exactly through both codecs.
    #[test]
    fn windowed_summary_round_trips(
        benchmark in benchmarks(),
        seed in 0u64..1_000,
        windows in 1usize..4,
        window_len in 16u64..128,
    ) {
        let windowed = WindowedSummary::collect(design(), &mut benchmark.trace(seed), windows, window_len);
        let bin = binary::to_bytes(&windowed).unwrap();
        prop_assert_eq!(binary::from_bytes::<WindowedSummary>(&bin).unwrap(), windowed.clone());
        let text = json::to_string(&windowed).unwrap();
        prop_assert_eq!(json::from_str::<WindowedSummary>(&text).unwrap(), windowed);
    }

    /// Summary banks rebuild their combined merge on load and still
    /// compare equal to the original.
    #[test]
    fn summary_bank_round_trips(seed in 0u64..1_000, cycles in 64u64..256, n in 1usize..4) {
        let per: Vec<_> = Benchmark::ALL[..n]
            .iter()
            .map(|&b| (b, TraceSummary::collect(design(), &mut b.trace(seed), cycles)))
            .collect();
        let bank = SummaryBank::from_per_benchmark(per);
        assert_round_trip(&bank);
    }

    /// Threshold (pass-limit) tables round-trip bit-exactly, for both the
    /// main-flop and shadow-latch budgets at every tabulated condition.
    #[test]
    fn threshold_matrix_round_trips(
        cond in conditions(),
        ir in proptest::sample::select(IrDrop::ALL.to_vec()),
        shadow in any::<bool>(),
    ) {
        let matrix = if shadow {
            tables().shadow_threshold_matrix(cond, ir)
        } else {
            tables().threshold_matrix(cond, ir)
        };
        assert_round_trip(matrix);
    }

    /// Delay-factor tables round-trip bit-exactly.
    #[test]
    fn device_factor_table_round_trips(cond in conditions()) {
        assert_round_trip(tables().factor_table(cond));
    }

    /// Compiled traces round-trip bit-exactly (the f64 switched
    /// capacitances included) and keep answering replay-side queries
    /// identically.
    #[test]
    fn compiled_trace_round_trips(benchmark in benchmarks(), seed in 0u64..1_000, cycles in 64u64..512) {
        let compiled = CompiledTrace::compile(design(), &mut benchmark.trace(seed), cycles);
        assert_round_trip(&compiled);
        let bytes = encode(CompiledTrace::KIND, Encoding::Binary, &compiled).unwrap();
        let reloaded: CompiledTrace = decode(CompiledTrace::KIND, &bytes).unwrap();
        // The reloaded trace still stamps clean against its design and
        // yields the identical histogram.
        prop_assert!(reloaded.matches(design()).is_ok());
        prop_assert_eq!(reloaded.summary(), compiled.summary());
    }

    /// Corruption contract for compiled traces: any single-byte flip of
    /// the framed artifact errors (CRC or validation), never panics and
    /// never yields a trace that silently replays wrong.
    #[test]
    fn compiled_trace_byte_flip_is_detected(
        seed in 0u64..200,
        cycles in 64u64..256,
        position in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let compiled = CompiledTrace::compile(design(), &mut Benchmark::Crafty.trace(seed), cycles);
        let mut bytes = encode(CompiledTrace::KIND, Encoding::Binary, &compiled).unwrap();
        let position = position % bytes.len();
        bytes[position] ^= mask;
        prop_assert!(decode::<CompiledTrace>(CompiledTrace::KIND, &bytes).is_err());
    }

    /// Corruption contract for compiled traces: every strict prefix of
    /// the framed artifact fails to decode, and never panics.
    #[test]
    fn compiled_trace_truncation_is_detected(
        seed in 0u64..200,
        cycles in 64u64..256,
        cut in any::<usize>(),
    ) {
        let compiled = CompiledTrace::compile(design(), &mut Benchmark::Crafty.trace(seed), cycles);
        let bytes = encode(CompiledTrace::KIND, Encoding::Binary, &compiled).unwrap();
        let cut = cut % bytes.len();
        prop_assert!(decode::<CompiledTrace>(CompiledTrace::KIND, &bytes[..cut]).is_err());
    }

    /// Corruption contract: flipping any single byte of a framed artifact
    /// makes decoding fail — the CRC-32 catches whatever the header
    /// checks miss — and never panics.
    #[test]
    fn any_byte_flip_is_detected(
        words in proptest::collection::vec(any::<u32>(), 1..64),
        position in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let recording = TraceRecording::from_words(words);
        let mut bytes = encode(TraceRecording::KIND, Encoding::Binary, &recording).unwrap();
        let position = position % bytes.len();
        bytes[position] ^= mask;
        prop_assert!(decode::<TraceRecording>(TraceRecording::KIND, &bytes).is_err());
    }

    /// Corruption contract: every strict prefix of a framed artifact
    /// fails to decode, and never panics.
    #[test]
    fn any_truncation_is_detected(
        words in proptest::collection::vec(any::<u32>(), 1..64),
        cut in any::<usize>(),
    ) {
        let recording = TraceRecording::from_words(words);
        let bytes = encode(TraceRecording::KIND, Encoding::Binary, &recording).unwrap();
        let cut = cut % bytes.len();
        prop_assert!(decode::<TraceRecording>(TraceRecording::KIND, &bytes[..cut]).is_err());
    }

    /// The summary a closed-loop run emits as a by-product survives the
    /// full save → load → query pipeline with identical sweep answers.
    #[test]
    fn persisted_summary_answers_identically(benchmark in benchmarks(), seed in 0u64..100) {
        let d = design();
        let summary = TraceSummary::collect(d, &mut benchmark.trace(seed), 2_000);
        let bytes = encode(TraceSummary::KIND, Encoding::Binary, &summary).unwrap();
        let reloaded: TraceSummary = decode(TraceSummary::KIND, &bytes).unwrap();
        for v in [Millivolts::new(900), Millivolts::new(1_100), Millivolts::new(1_200)] {
            prop_assert_eq!(
                summary.error_cycles(d, PvtCorner::TYPICAL, v),
                reloaded.error_cycles(d, PvtCorner::TYPICAL, v)
            );
            prop_assert_eq!(
                summary.energy(d, PvtCorner::TYPICAL, v, true).fj(),
                reloaded.energy(d, PvtCorner::TYPICAL, v, true).fj()
            );
        }
    }
}
