//! Property tests for the trace generators: determinism, statistical
//! bounds and the per-benchmark shape invariants the calibration relies
//! on.

use proptest::prelude::*;
use razorbus_traces::{
    AdversarialCrosstalk, Benchmark, BurstyDma, Mixture, MixtureWeights, PhaseModulated,
    RandomWords, SmallIntWords, StrideWords, TraceRecording, TraceSource, TraceStats,
    ValueLocalityWords, ZeroBurstWords,
};

fn benchmarks() -> impl Strategy<Value = Benchmark> {
    proptest::sample::select(Benchmark::ALL.to_vec())
}

/// Generators a [`fill_equals_repeated_next_word`] case draws from.
const GENERATORS: usize = 10;

/// Generator `kind` at `seed`, with `a` and `b` as its lengths or
/// sizes and `rate` as its probability. Short phases make a few hundred
/// words cross many phase boundaries.
fn generator(kind: usize, seed: u64, a: u64, b: u64, rate: f64) -> Box<dyn TraceSource> {
    let weights = MixtureWeights::new(rate, 0.3, 0.2, 0.1, 0.05);
    match kind {
        0 => Box::new(RandomWords::new(seed)),
        1 => Box::new(SmallIntWords::new(seed, 1 + (a % 31) as u32)),
        2 => Box::new(StrideWords::new(seed, rate)),
        3 => Box::new(ValueLocalityWords::new(
            seed,
            SmallIntWords::new(seed ^ 1, 8),
            a as usize,
            rate,
        )),
        4 => Box::new(ZeroBurstWords::new(seed, rate)),
        5 => Box::new(BurstyDma::new(seed, a, b, rate)),
        6 => Box::new(AdversarialCrosstalk::new(seed, rate)),
        7 => Box::new(Mixture::new(seed, weights)),
        8 => Box::new(PhaseModulated::new(
            seed,
            weights,
            weights.with_random_boost(8.0),
            a,
            rate,
        )),
        _ => Box::new(Benchmark::ALL[(a % 10) as usize].trace(seed)),
    }
}

/// Draws chunks of `chunks`' lengths through `fill` from `filled`, and
/// as many words one at a time from `stepped`, its twin: the words must
/// agree chunk by chunk, and so must the word after the last chunk.
fn assert_fill_is_next_word(
    mut filled: impl TraceSource,
    mut stepped: impl TraceSource,
    chunks: &[usize],
) {
    for (k, &len) in chunks.iter().enumerate() {
        let mut block = vec![0; len];
        filled.fill(&mut block);
        let words: Vec<u32> = (0..len).map(|_| stepped.next_word()).collect();
        assert_eq!(block, words, "chunk {k} of {chunks:?}");
    }
    assert_eq!(
        filled.next_word(),
        stepped.next_word(),
        "the word after {chunks:?}"
    );
}

proptest! {
    /// `fill` is repeated `next_word` for every generator, through the
    /// boxed forwarder the executor calls, over any split into chunks
    /// (empty ones too). Half the cases draw a zero rate: `BurstyDma`
    /// then holds its idle word without a housekeeping draw.
    #[test]
    fn fill_equals_repeated_next_word(
        kind in 0..GENERATORS,
        seed in any::<u64>(),
        (a, b) in (1u64..40, 1u64..40),
        rate in 0u32..2_000,
        chunks in proptest::collection::vec(0usize..600, 0..10),
    ) {
        let rate = f64::from(rate.saturating_sub(1_000)) / 1_000.0;
        let open = || generator(kind, seed, a, b, rate);
        assert_fill_is_next_word(open(), open(), &chunks);
    }

    /// `BurstyDma` fills across bursts and idle runs of any length, at
    /// a zero, a partial and a certain housekeeping rate, called on the
    /// bare generator as well as boxed.
    #[test]
    fn bursty_dma_fill_crosses_bursts_and_idle_runs(
        seed in any::<u64>(),
        (burst, idle) in (1u64..60, 1u64..60),
        housekeeping in proptest::sample::select(vec![0.0, 0.01, 0.5, 1.0]),
        chunks in proptest::collection::vec(0usize..400, 1..12),
    ) {
        let open = || BurstyDma::new(seed, burst, idle, housekeeping);
        assert_fill_is_next_word(open(), open(), &chunks);
        let boxed = || -> Box<dyn TraceSource> { Box::new(open()) };
        assert_fill_is_next_word(boxed(), open(), &chunks);
    }

    /// Same seed, same stream — for every benchmark.
    #[test]
    fn benchmark_traces_deterministic(b in benchmarks(), seed in any::<u64>()) {
        let a: Vec<u32> = b.trace(seed).take_words(128);
        let c: Vec<u32> = b.trace(seed).take_words(128);
        prop_assert_eq!(a, c);
    }

    /// Different benchmarks with the same seed produce different streams.
    #[test]
    fn benchmarks_do_not_alias(seed in any::<u64>()) {
        let crafty: Vec<u32> = Benchmark::Crafty.trace(seed).take_words(256);
        let mgrid: Vec<u32> = Benchmark::Mgrid.trace(seed).take_words(256);
        prop_assert_ne!(crafty, mgrid);
    }

    /// Statistics are always within physical bounds.
    #[test]
    fn stats_bounds(b in benchmarks(), seed in 0u64..500) {
        let stats = TraceStats::collect(&mut b.trace(seed), 5_000);
        prop_assert!(stats.mean_toggles >= 0.0 && stats.mean_toggles <= 32.0);
        prop_assert!((0.0..=1.0).contains(&stats.opposing_adjacent_fraction));
        prop_assert!((0.0..=1.0).contains(&stats.quiet_fraction));
        prop_assert!(stats.mean_popcount >= 0.0 && stats.mean_popcount <= 32.0);
    }

    /// The Table 1 grouping invariant: every locality-rich program has a
    /// lighter worst-pattern tail than every dense-FP program, at any
    /// seed.
    #[test]
    fn light_heavy_group_separation(seed in 0u64..50) {
        let frac = |b: Benchmark| {
            TraceStats::collect(&mut b.trace(seed), 60_000).opposing_adjacent_fraction
        };
        for light in [Benchmark::Crafty, Benchmark::Mesa, Benchmark::Gap] {
            for heavy in [Benchmark::Mgrid, Benchmark::Swim] {
                prop_assert!(
                    frac(light) < frac(heavy),
                    "{light} ({}) !< {heavy} ({})", frac(light), frac(heavy)
                );
            }
        }
    }

    /// A mixture with zero `random` weight never produces a cycle pair of
    /// full-entropy words (the high-entropy path is the only one emitting
    /// dense 32-bit toggles from arbitrary state).
    #[test]
    fn no_random_weight_no_dense_bursts(seed in any::<u64>()) {
        let w = MixtureWeights::new(0.4, 0.3, 0.3, 0.0, 0.0);
        let mut m = Mixture::new(seed, w);
        let stats = TraceStats::collect(&mut m, 20_000);
        // Without high-entropy pairs, mean toggles stay moderate.
        prop_assert!(stats.mean_toggles < 12.0, "{stats:?}");
    }

    /// Recording round-trip: replay reproduces the captured stream, and
    /// wraps deterministically.
    #[test]
    fn recording_replay_roundtrip(b in benchmarks(), seed in any::<u64>(), n in 2usize..300) {
        let rec = TraceRecording::capture(&mut b.trace(seed), n);
        let direct: Vec<u32> = b.trace(seed).take_words(n);
        prop_assert_eq!(rec.words(), direct.as_slice());
        let mut replay = rec.replay();
        let twice: Vec<u32> = replay.take_words(2 * n);
        prop_assert_eq!(&twice[..n], rec.words());
        prop_assert_eq!(&twice[n..], rec.words());
        prop_assert_eq!(replay.wraps(), 2);
    }

    /// Splicing preserves content and length.
    #[test]
    fn splice_preserves(b in benchmarks(), seed in any::<u64>(), n in 1usize..100, m in 1usize..100) {
        let first = TraceRecording::capture(&mut b.trace(seed), n);
        let second = TraceRecording::capture(&mut b.trace(seed ^ 1), m);
        let spliced = TraceRecording::splice([&first, &second]);
        prop_assert_eq!(spliced.len(), n + m);
        prop_assert_eq!(&spliced.words()[..n], first.words());
        prop_assert_eq!(&spliced.words()[n..], second.words());
    }

    /// Phase modulation only ever raises the high-entropy weight in hot
    /// phases (the boost is multiplicative and ≥ 1 for all profiles).
    #[test]
    fn profiles_boost_at_least_one(b in benchmarks()) {
        let p = b.profile();
        prop_assert!(p.hot_boost >= 1.0);
        prop_assert!((0.0..=1.0).contains(&p.hot_fraction));
        prop_assert!(p.phase_period > 0);
        prop_assert!(p.effective_random_weight() >= p.calm.random * 0.999);
    }
}
