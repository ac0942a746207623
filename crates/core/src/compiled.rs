//! Compiled traces: the governor-independent part of a closed-loop run,
//! computed once and replayed everywhere.
//!
//! The paper's evaluation is one trace under many operating points — the
//! same benchmark words are re-judged under different supplies, corners
//! and controllers. But the *physical* classification of a cycle (how
//! many wires toggle, the worst Miller-weighted load, the switched
//! capacitance) depends only on the bus and the words, never on the
//! governor or the supply. [`CompiledTrace`] captures exactly that: a
//! struct-of-arrays stream of per-cycle `(toggle count, quantized load
//! bin, switched capacitance)` tuples — everything the simulator's hot
//! loop consumes — so a sweep over N governors/corners pays the
//! `analyze_cycle` cost once instead of N times.
//!
//! Replaying a compiled trace (`CompiledTrace::replay`, in `sim.rs`) is
//! **bit-identical** to simulating the original words: the replay path
//! shares the simulator's chunked loop verbatim, reading stored tuples
//! where the live path calls `analyze_cycle`. Errors and violations
//! match bitwise, energies are exact (same per-cycle add sequence) —
//! pinned by differential tests across governors × corners.
//!
//! A trace compiles by one of two routes over the same per-cycle
//! classification loop. [`CompiledTrace::compile`] streams: it pulls
//! words straight from the trace, with no word buffer. The chunked route
//! splits the same work into three phases: [`CompiledTrace::drain_words`]
//! drains the words serially (RNG streams stay sequential, so seeds
//! produce the same words), [`CompiledTrace::analyze_chunk`] classifies
//! independent cycle ranges on any thread, and
//! [`CompiledTrace::from_chunks`] assembles them in cycle order. Both
//! routes give the same bytes for every chunk size. The scenario
//! executor streams unless its pool has more than one worker and the
//! trace spans more than one chunk.
//!
//! Compiled traces persist through `razorbus-artifact` as the
//! `compiled-trace` kind; the embedded bus stamps refuse replay against
//! a design the trace was not compiled for (see [`CompiledTrace::matches`]).

use crate::design::DvsBusDesign;
use crate::summary::{bin_of, bucket_of, N_BUCKETS, N_CEFF_BINS};
use razorbus_traces::TraceSource;
use razorbus_wire::CycleAnalysis;

/// Default cycles per compile chunk.
const DEFAULT_COMPILE_CHUNK: usize = 65_536;

/// The environment variable that overrides [`DEFAULT_COMPILE_CHUNK`].
const COMPILE_CHUNK_VAR: &str = "RAZORBUS_COMPILE_CHUNK";

/// Cycles per chunk for the chunked compile route
/// (`RAZORBUS_COMPILE_CHUNK`, default 64k). Each chunk is one
/// independent analysis sub-job; smaller chunks expose more parallelism
/// at more per-chunk overhead, and a trace no longer than one chunk
/// streams through [`CompiledTrace::compile`] instead.
///
/// # Errors
///
/// Names the variable and its value when it is set but is not a
/// positive integer.
pub fn compile_chunk_knob() -> Result<usize, String> {
    compile_chunk_from(std::env::var_os(COMPILE_CHUNK_VAR))
}

/// [`compile_chunk_knob`] for callers without an error path (the
/// `razorbench` harness's traced compile).
///
/// # Panics
///
/// Panics with [`compile_chunk_knob`]'s message when
/// `RAZORBUS_COMPILE_CHUNK` is set but is not a positive integer.
#[must_use]
pub fn compile_chunk_cycles() -> usize {
    compile_chunk_cycles_from(std::env::var_os(COMPILE_CHUNK_VAR))
}

/// [`compile_chunk_cycles`] for a raw `RAZORBUS_COMPILE_CHUNK` value.
fn compile_chunk_cycles_from(raw: Option<std::ffi::OsString>) -> usize {
    compile_chunk_from(raw).unwrap_or_else(|e| panic!("{e}"))
}

/// Resolves a raw `RAZORBUS_COMPILE_CHUNK` value: the default when it
/// is unset, an error naming the variable and value when it is not a
/// positive integer.
fn compile_chunk_from(raw: Option<std::ffi::OsString>) -> Result<usize, String> {
    Ok(crate::knob::parse_count_knob(COMPILE_CHUNK_VAR, raw)?.unwrap_or(DEFAULT_COMPILE_CHUNK))
}

/// The classification of one contiguous cycle range, produced by
/// [`CompiledTrace::analyze_chunk`] and assembled slot-ordered by
/// [`CompiledTrace::from_chunks`]. Opaque on purpose: the only valid
/// use is handing it back to `from_chunks` in cycle order.
#[derive(Debug)]
pub struct CompiledChunk {
    toggles: Vec<u8>,
    bins: Vec<u16>,
    switched: Vec<f64>,
}

impl CompiledChunk {
    /// Cycles classified in this chunk.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.toggles.len()
    }
}

/// A trace compiled against one bus design: per-cycle physical
/// classification, ready to replay under any governor/corner/supply.
///
/// ```
/// use razorbus_core::{CompiledTrace, DvsBusDesign};
/// use razorbus_ctrl::FixedVoltage;
/// use razorbus_process::PvtCorner;
/// use razorbus_traces::Benchmark;
/// use razorbus_units::Millivolts;
///
/// let design = DvsBusDesign::paper_default();
/// let compiled = CompiledTrace::compile(&design, &mut Benchmark::Crafty.trace(7), 5_000);
/// // One compile, any number of replays — here two supplies.
/// let (hi, _) = compiled.replay(
///     &design, PvtCorner::TYPICAL, FixedVoltage::new(Millivolts::new(1_200)), None, false);
/// let (lo, _) = compiled.replay(
///     &design, PvtCorner::TYPICAL, FixedVoltage::new(Millivolts::new(900)), None, false);
/// assert_eq!(hi.errors, 0);
/// assert!(lo.energy < hi.energy);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CompiledTrace {
    /// Cycles compiled (each array below holds exactly this many).
    cycles: u64,
    /// Per-cycle toggle counts (the bus is ≤32 bits wide).
    toggles: Vec<u8>,
    /// Per-cycle quantized worst-load bins (`bin_of(worst_ceff_per_mm)`),
    /// the value the error comparison consumes.
    bins: Vec<u16>,
    /// Per-cycle charge-weighted switched capacitance (fF/mm), bit-exact.
    switched: Vec<f64>,
    /// Stamp: bus width the trace was compiled against.
    n_bits: u32,
    /// Stamp: the bus's worst-case Miller-weighted load (fF/mm).
    worst_load_ff: f64,
    /// Stamp: the bus's best-case load (fF/mm).
    best_load_ff: f64,
    /// Stamp: the parasitics' coupling ratio (distinguishes the §6
    /// boosted-coupling bus from the paper bus).
    coupling_ratio: f64,
}

/// Validating deserialization: a compiled trace read back from an
/// artifact must hold arrays of consistent length, in-range toggle
/// counts and bins, and finite capacitances — corrupt cache files error
/// instead of panicking (or silently mis-simulating) mid-replay.
impl<'de> serde::Deserialize<'de> for CompiledTrace {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            cycles: u64,
            toggles: Vec<u8>,
            bins: Vec<u16>,
            switched: Vec<f64>,
            n_bits: u32,
            worst_load_ff: f64,
            best_load_ff: f64,
            coupling_ratio: f64,
        }
        use serde::de::Error;
        let r = Repr::deserialize(deserializer)?;
        if r.cycles == 0 {
            return Err(D::Error::custom("compiled trace over zero cycles"));
        }
        let n = usize::try_from(r.cycles)
            .map_err(|_| D::Error::custom("compiled trace cycle count overflows this platform"))?;
        if r.toggles.len() != n || r.bins.len() != n || r.switched.len() != n {
            return Err(D::Error::custom(format!(
                "compiled trace arrays disagree with the cycle count: \
                 {} toggles / {} bins / {} switched for {} cycles",
                r.toggles.len(),
                r.bins.len(),
                r.switched.len(),
                r.cycles
            )));
        }
        if !(1..=32).contains(&r.n_bits) {
            return Err(D::Error::custom(format!(
                "compiled trace claims a {}-bit bus",
                r.n_bits
            )));
        }
        if let Some(t) = r.toggles.iter().find(|&&t| u32::from(t) > r.n_bits) {
            return Err(D::Error::custom(format!(
                "toggle count {t} exceeds the {}-bit bus width",
                r.n_bits
            )));
        }
        if let Some(b) = r.bins.iter().find(|&&b| usize::from(b) >= N_CEFF_BINS) {
            return Err(D::Error::custom(format!(
                "load bin {b} outside the {N_CEFF_BINS}-bin histogram range"
            )));
        }
        if r.switched.iter().any(|s| !s.is_finite() || *s < 0.0) {
            return Err(D::Error::custom(
                "non-finite or negative switched capacitance",
            ));
        }
        // A quiet cycle classifies to exactly (bin 0, 0 fF/mm); a
        // CRC-clean payload claiming otherwise would silently skew
        // replayed energy or error counts, so it errors here.
        for c in 0..r.toggles.len() {
            if r.toggles[c] == 0 && (r.bins[c] != 0 || r.switched[c] != 0.0) {
                return Err(D::Error::custom(format!(
                    "cycle {c} toggles no wire but carries load bin {} and {} fF/mm",
                    r.bins[c], r.switched[c]
                )));
            }
        }
        for (name, v) in [
            ("worst_load_ff", r.worst_load_ff),
            ("best_load_ff", r.best_load_ff),
            ("coupling_ratio", r.coupling_ratio),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(D::Error::custom(format!("bad bus stamp {name}: {v}")));
            }
        }
        Ok(Self {
            cycles: r.cycles,
            toggles: r.toggles,
            bins: r.bins,
            switched: r.switched,
            n_bits: r.n_bits,
            worst_load_ff: r.worst_load_ff,
            best_load_ff: r.best_load_ff,
            coupling_ratio: r.coupling_ratio,
        })
    }
}

impl CompiledTrace {
    /// Drains `cycles` words from `trace` through `design`'s bus —
    /// exactly the word protocol of [`crate::BusSimulator::new`] (the
    /// first word primes `prev`) — and records each cycle's
    /// classification in one streaming pass, with no word buffer.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    #[must_use]
    pub fn compile<S: TraceSource>(design: &DvsBusDesign, trace: &mut S, cycles: u64) -> Self {
        assert!(cycles > 0, "need at least one cycle");
        let n = usize::try_from(cycles).expect("cycle count fits in memory");
        let words = std::iter::repeat_with(|| trace.next_word()).take(n + 1);
        Self::from_arrays(design, cycles, classify_words(design, n, words))
    }

    /// Phase one of the chunked compile: drains `cycles + 1` words
    /// from `trace` — the priming `prev` word plus one per cycle,
    /// exactly the word protocol of [`CompiledTrace::compile`] — into a
    /// buffer the analysis chunks index into (`words[c]`/`words[c + 1]`
    /// are cycle `c`'s `(prev, cur)` pair).
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    #[must_use]
    pub fn drain_words<S: TraceSource>(trace: &mut S, cycles: u64) -> Vec<u32> {
        assert!(cycles > 0, "need at least one cycle");
        let n = usize::try_from(cycles).expect("cycle count fits in memory");
        let mut words = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            words.push(trace.next_word());
        }
        words
    }

    /// Phase two of the chunked compile: classifies the `len` cycles
    /// starting at `start` against `design`'s bus, through the same
    /// per-cycle loop as [`CompiledTrace::compile`]. Pure in
    /// `(design, words, start, len)` — safe to run chunks in any order
    /// on any thread. Each chunk gets its own cycle cache (results are
    /// cache-invariant, so chunk boundaries cannot show).
    ///
    /// # Panics
    ///
    /// Panics if `start + len + 1 > words.len()`.
    #[must_use]
    pub fn analyze_chunk(
        design: &DvsBusDesign,
        words: &[u32],
        start: usize,
        len: usize,
    ) -> CompiledChunk {
        classify_words(design, len, words[start..=start + len].iter().copied())
    }

    /// Final phase of the chunked compile: concatenates slot-ordered
    /// chunks into the struct-of-arrays layout. `chunks` must cover
    /// exactly `cycles` cycles in cycle order.
    ///
    /// # Panics
    ///
    /// Panics if the chunks' cycle counts do not sum to `cycles`.
    #[must_use]
    pub fn from_chunks(design: &DvsBusDesign, cycles: u64, chunks: Vec<CompiledChunk>) -> Self {
        assert!(cycles > 0, "need at least one cycle");
        let n = usize::try_from(cycles).expect("cycle count fits in memory");
        let mut whole = CompiledChunk {
            toggles: Vec::with_capacity(n),
            bins: Vec::with_capacity(n),
            switched: Vec::with_capacity(n),
        };
        for c in chunks {
            whole.toggles.extend_from_slice(&c.toggles);
            whole.bins.extend_from_slice(&c.bins);
            whole.switched.extend_from_slice(&c.switched);
        }
        assert_eq!(
            whole.cycles(),
            n,
            "assembled chunks do not cover the cycle count"
        );
        Self::from_arrays(design, cycles, whole)
    }

    fn from_arrays(design: &DvsBusDesign, cycles: u64, arrays: CompiledChunk) -> Self {
        Self {
            cycles,
            toggles: arrays.toggles,
            bins: arrays.bins,
            switched: arrays.switched,
            n_bits: design.bus().layout().n_bits() as u32,
            worst_load_ff: design.bus().worst_effective_cap_per_mm().ff(),
            best_load_ff: design.bus().best_effective_cap_per_mm().ff(),
            coupling_ratio: design.bus().parasitics().coupling_ratio(),
        }
    }

    /// Cycles compiled.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Checks the embedded bus stamps against `design` — a compiled
    /// trace must only ever replay against the design it was compiled
    /// for (the load bins and switched capacitances are functions of the
    /// bus parasitics and coupling model).
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching stamp.
    pub fn matches(&self, design: &DvsBusDesign) -> Result<(), String> {
        let bus = design.bus();
        if self.n_bits != bus.layout().n_bits() as u32 {
            return Err(format!(
                "compiled trace is for a {}-bit bus, design has {} bits",
                self.n_bits,
                bus.layout().n_bits()
            ));
        }
        let checks = [
            (
                "worst-case load",
                self.worst_load_ff,
                bus.worst_effective_cap_per_mm().ff(),
            ),
            (
                "best-case load",
                self.best_load_ff,
                bus.best_effective_cap_per_mm().ff(),
            ),
            (
                "coupling ratio",
                self.coupling_ratio,
                bus.parasitics().coupling_ratio(),
            ),
        ];
        for (name, stamped, actual) in checks {
            if stamped != actual {
                return Err(format!(
                    "compiled trace {name} stamp {stamped} does not match the design's {actual}"
                ));
            }
        }
        Ok(())
    }

    /// The sweep-engine histogram of the compiled stream — bit-identical
    /// to [`crate::TraceSummary::collect`] over the same words (same
    /// per-cycle accumulation in the same order), without touching the
    /// bus again.
    #[must_use]
    pub fn summary(&self) -> crate::TraceSummary {
        let mut hist = vec![0u64; N_BUCKETS * N_CEFF_BINS];
        let mut total_cap = 0.0f64;
        let mut total_toggles = 0u64;
        for c in 0..self.toggles.len() {
            let t = u32::from(self.toggles[c]);
            if t == 0 {
                continue;
            }
            hist[bucket_of(t) * N_CEFF_BINS + usize::from(self.bins[c])] += 1;
            total_cap += self.switched[c];
            total_toggles += u64::from(t);
        }
        crate::TraceSummary::from_parts(hist, total_cap, total_toggles, self.cycles)
    }

    /// Per-cycle tuple access for the scalar replay loop in `sim.rs`.
    #[inline]
    pub(crate) fn cycle(&self, c: usize) -> (u32, usize, f64) {
        (
            u32::from(self.toggles[c]),
            usize::from(self.bins[c]),
            self.switched[c],
        )
    }

    /// The raw struct-of-arrays view the lane-vectorized replay path
    /// consumes directly (`sim.rs`): per-cycle toggle counts, load bins
    /// and switched capacitances, all exactly [`CompiledTrace::cycles`]
    /// long.
    #[inline]
    pub(crate) fn arrays(&self) -> (&[u8], &[u16], &[f64]) {
        (&self.toggles, &self.bins, &self.switched)
    }

    /// Approximate resident size (bytes) of the compiled arrays — lets
    /// planners reason about memory before compiling long traces.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.toggles.len()
            + self.bins.len() * core::mem::size_of::<u16>()
            + self.switched.len() * core::mem::size_of::<f64>()
    }
}

/// The per-cycle classification loop behind both compile routes:
/// `words` yields the priming `prev` word, then one word per cycle; the
/// loop reads exactly `len` more words, so a streaming source is drawn
/// no further. [`CompiledTrace::compile`] feeds it straight from the
/// trace, [`CompiledTrace::analyze_chunk`] from a drained word slice.
///
/// The arrays start zero-filled, which is exactly a quiet cycle's tuple
/// (`CycleAnalysis::default()` classifies to `(0, 0, +0.0)`), so a
/// cycle whose word repeats costs one compare and nothing else.
///
/// # Panics
///
/// Panics if `words` ends before `len + 1` words.
fn classify_words(
    design: &DvsBusDesign,
    len: usize,
    mut words: impl Iterator<Item = u32>,
) -> CompiledChunk {
    let mut analyzer = design.bus().analyzer();
    let mut toggles = vec![0; len];
    let mut bins = vec![0; len];
    let mut switched = vec![0.0; len];
    let mut prev = words.next().expect("a priming word");
    let mut arrived = 0;
    // The range goes first: `zip` polls it first, so it stops after the
    // last cycle without drawing one more word from the source.
    for (c, cur) in (0..len).zip(words) {
        arrived = c + 1;
        if cur == prev {
            continue;
        }
        (toggles[c], bins[c], switched[c]) = classify(&analyzer.analyze(prev, cur));
        prev = cur;
    }
    assert_eq!(
        arrived, len,
        "the word source ended after {arrived} of {len} cycles"
    );
    CompiledChunk {
        toggles,
        bins,
        switched,
    }
}

/// One cycle's analysis as the stored tuple. The narrowings are
/// checked: a bus wider than `u8::MAX` wires or a histogram wider than
/// `u16::MAX` bins must fail loudly here, not wrap into silently wrong
/// replay results.
fn classify(a: &CycleAnalysis) -> (u8, u16, f64) {
    let t = u8::try_from(a.toggled_wires)
        .expect("toggle count exceeds u8 — compiled layout caps the bus at 255 wires");
    let bin = bin_of(a.worst_ceff_per_mm);
    debug_assert!(bin < N_CEFF_BINS, "bin_of broke its {N_CEFF_BINS} bound");
    let b = u16::try_from(bin)
        .expect("load bin exceeds u16 — compiled layout caps N_CEFF_BINS at 65_535");
    (t, b, a.switched_cap_per_mm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_traces::Benchmark;

    #[test]
    fn compile_chunk_defaults_when_unset_and_refuses_bad_values() {
        assert_eq!(compile_chunk_cycles_from(None), DEFAULT_COMPILE_CHUNK);
        assert_eq!(compile_chunk_cycles_from(Some("5000".into())), 5_000);
        let err = compile_chunk_from(Some("abc".into())).unwrap_err();
        assert!(err.contains("RAZORBUS_COMPILE_CHUNK"), "{err}");
    }

    #[test]
    #[should_panic(expected = "RAZORBUS_COMPILE_CHUNK=\"0\"")]
    fn compile_chunk_cycles_panics_on_a_bad_value() {
        let _ = compile_chunk_cycles_from(Some("0".into()));
    }

    /// The chunked route by hand: drain, analyze `chunk`-cycle ranges,
    /// assemble in cycle order.
    fn staged<S: TraceSource>(
        design: &DvsBusDesign,
        trace: &mut S,
        cycles: u64,
        chunk: usize,
    ) -> CompiledTrace {
        let words = CompiledTrace::drain_words(trace, cycles);
        let n = words.len() - 1;
        let chunks = (0..n)
            .step_by(chunk)
            .map(|start| CompiledTrace::analyze_chunk(design, &words, start, chunk.min(n - start)))
            .collect();
        CompiledTrace::from_chunks(design, cycles, chunks)
    }

    #[test]
    fn chunked_compile_matches_serial_bitwise() {
        // The chunked route's contract: any chunk size — one cycle per
        // chunk, a prime that never divides the cycle count, the
        // default, larger than the whole trace — assembles to exactly
        // the streaming compile, across designs and generator families
        // (benchmark mixtures, adversarial storm traffic, uniform
        // random). PartialEq covers every array element and stamp.
        type Open = fn() -> Box<dyn TraceSource>;
        let traces: [(&str, Open); 3] = [
            ("Gap", || Box::new(Benchmark::Gap.trace(11))),
            ("storm", || {
                Box::new(razorbus_traces::AdversarialCrosstalk::new(5, 0.9))
            }),
            ("random", || Box::new(razorbus_traces::RandomWords::new(17))),
        ];
        let cycles = 4_096u64;
        for design in [
            DvsBusDesign::paper_default(),
            DvsBusDesign::modified_paper_bus(),
        ] {
            for (name, open) in traces {
                let serial = CompiledTrace::compile(&design, &mut open(), cycles);
                for chunk in [1usize, 7, 65_536, 5_000] {
                    let chunked = staged(&design, &mut open(), cycles, chunk);
                    assert_eq!(serial, chunked, "{name}, chunk {chunk}");
                }
            }
        }
    }

    /// A stream that mixes every shape a quiet skip must get right:
    /// repeated words, runs of zeros, single-bit flips of the previous
    /// word, and uniform random words, switching shape every few
    /// cycles so the runs start and end at every offset.
    fn mixed_words(seed: u64, n: usize) -> Vec<u32> {
        // Xorshift, as in the lane kernel's tests; `seed` must be non-zero.
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut words = vec![0u32];
        let (mut shape, mut left) = (0, 0);
        while words.len() < n {
            if left == 0 {
                let r = next();
                (shape, left) = (r % 4, 1 + (r >> 8) % 24);
            }
            left -= 1;
            let prev = *words.last().expect("primed");
            let r = next();
            words.push(match shape {
                0 => prev,
                1 => 0,
                2 => prev ^ (1 << (r % 32)),
                _ => r as u32,
            });
        }
        words
    }

    #[test]
    fn quiet_skip_matches_the_reference_analysis_at_every_cycle() {
        // Every cycle the loop classifies — or skips as quiet — holds
        // exactly the tuple of the cache-free reference analysis, signed
        // zeros included, through chunks that start and end anywhere.
        let designs = [
            DvsBusDesign::paper_default(),
            DvsBusDesign::modified_paper_bus(),
            DvsBusDesign::with_skew_cap(
                razorbus_wire::BusPhysical::paper_default(),
                razorbus_units::VoltageGrid::paper_default(),
                0.2,
            ),
        ];
        let words = mixed_words(23, 6_001);
        let n = words.len() - 1;
        let quiet = words.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(quiet > n / 5 && quiet < n * 4 / 5, "{quiet} of {n} quiet");
        for (k, design) in designs.iter().enumerate() {
            for chunk in [1, 13, 997, n] {
                for start in (0..n).step_by(chunk) {
                    let len = chunk.min(n - start);
                    let got = CompiledTrace::analyze_chunk(design, &words, start, len);
                    assert_eq!(got.cycles(), len);
                    for i in 0..len {
                        let c = start + i;
                        let (t, b, s) =
                            classify(&design.bus().analyze_cycle_reference(words[c], words[c + 1]));
                        assert_eq!(
                            (got.toggles[i], got.bins[i], got.switched[i].to_bits()),
                            (t, b, s.to_bits()),
                            "design {k}, chunk {chunk}, cycle {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "the word source ended after 3 of 5 cycles")]
    fn a_short_word_source_is_refused() {
        let d = DvsBusDesign::paper_default();
        let _ = classify_words(&d, 5, [1, 2, 2, 3].into_iter());
    }

    #[test]
    fn the_loop_draws_exactly_one_word_per_cycle_past_the_primer() {
        // An unbounded source is read no further than the cycle count,
        // so a streaming compile leaves the next word in the RNG.
        let d = DvsBusDesign::paper_default();
        let mut drawn = 0u32;
        let chunk = classify_words(
            &d,
            5,
            std::iter::repeat_with(|| {
                drawn += 1;
                drawn / 2
            }),
        );
        assert_eq!((chunk.cycles(), drawn), (5, 6));
    }

    #[test]
    fn drain_words_primes_prev_like_the_serial_path() {
        // words[0] primes prev; each cycle c reads (words[c], words[c+1]).
        let words = CompiledTrace::drain_words(&mut Benchmark::Mcf.trace(3), 100);
        assert_eq!(words.len(), 101);
        let mut t = Benchmark::Mcf.trace(3);
        for (c, &w) in words.iter().enumerate() {
            assert_eq!(w, t.next_word(), "word {c}");
        }
    }

    #[test]
    fn summary_matches_collect_bitwise() {
        let d = DvsBusDesign::paper_default();
        let compiled = CompiledTrace::compile(&d, &mut Benchmark::Swim.trace(3), 20_000);
        let collected = crate::TraceSummary::collect(&d, &mut Benchmark::Swim.trace(3), 20_000);
        assert_eq!(compiled.summary(), collected);
    }

    #[test]
    fn stamps_refuse_the_wrong_design() {
        let d = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        let compiled = CompiledTrace::compile(&d, &mut Benchmark::Crafty.trace(1), 1_000);
        assert!(compiled.matches(&d).is_ok());
        let err = compiled.matches(&modified).unwrap_err();
        assert!(err.contains("stamp"), "{err}");
    }

    #[test]
    fn memory_estimate_tracks_cycles() {
        let d = DvsBusDesign::paper_default();
        let compiled = CompiledTrace::compile(&d, &mut Benchmark::Crafty.trace(1), 1_000);
        assert_eq!(compiled.cycles(), 1_000);
        assert_eq!(compiled.memory_bytes(), 1_000 * (1 + 2 + 8));
    }
}
