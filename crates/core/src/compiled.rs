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
//! Compiled traces persist through `razorbus-artifact` as the
//! `compiled-trace` kind; the embedded bus stamps refuse replay against
//! a design the trace was not compiled for (see [`CompiledTrace::matches`]).

use crate::design::DvsBusDesign;
use crate::summary::{bin_of, bucket_of, N_BUCKETS, N_CEFF_BINS};
use razorbus_traces::TraceSource;
use razorbus_wire::CycleAnalysis;
use std::sync::Mutex;

/// Default cycles per parallel-compile chunk.
const DEFAULT_COMPILE_CHUNK: usize = 65_536;

/// Cycles per chunk for the parallel compile pipeline
/// (`RAZORBUS_COMPILE_CHUNK`, default 64k). Each chunk is one
/// independent analysis sub-job; smaller chunks expose more parallelism
/// at more per-chunk overhead.
///
/// # Errors
///
/// Names the variable and its value when it is set but is not a
/// positive integer.
pub fn compile_chunk_knob() -> Result<usize, String> {
    const VAR: &str = "RAZORBUS_COMPILE_CHUNK";
    Ok(crate::knob::parse_count_knob(VAR, std::env::var_os(VAR))?.unwrap_or(DEFAULT_COMPILE_CHUNK))
}

/// [`compile_chunk_knob`] for infallible callers (the `razorbench`
/// harness's traced compile): a bad value reads as the default here.
/// Entry points refuse it first — the scenario executor returns the
/// knob's error, and `repro` and `bench_report` exit with it.
#[must_use]
pub fn compile_chunk_cycles() -> usize {
    compile_chunk_knob().unwrap_or(DEFAULT_COMPILE_CHUNK)
}

/// Executes the independent per-chunk analysis jobs of a parallel
/// compile ([`CompiledTrace::compile_chunked`]). `razorbus-core` stays
/// thread-pool-free: callers inject whatever execution resource they
/// have — [`SerialChunks`] here, the scenario executor's work-stealing
/// pool downstream.
pub trait ChunkRunner {
    /// Runs every job exactly once, in any order, possibly
    /// concurrently, returning only after all of them finish. Jobs may
    /// borrow from the caller's stack, so implementations must not
    /// outlive the call (scoped threads are fine, detached ones are
    /// not).
    fn run_chunks<'a>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'a>>);

    /// Whether this runner executes chunk jobs strictly one at a time
    /// on the calling thread. An opt-in fast-path hint:
    /// [`CompiledTrace::compile_chunked`] gains nothing from the
    /// drain-then-chunk pipeline on a single-threaded runner, so it
    /// routes to the streaming single-pass [`CompiledTrace::compile`]
    /// instead (bit-identical — pinned by the chunk differentials).
    /// [`SerialChunks`] deliberately keeps the default `false`: its job
    /// is exercising the chunk pipeline itself in tests.
    fn single_threaded(&self) -> bool {
        false
    }
}

/// The no-parallelism [`ChunkRunner`]: runs chunk jobs in order on the
/// calling thread.
pub struct SerialChunks;

impl ChunkRunner for SerialChunks {
    fn run_chunks<'a>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        for job in jobs {
            job();
        }
    }
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
    /// classification.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    #[must_use]
    pub fn compile<S: TraceSource>(design: &DvsBusDesign, trace: &mut S, cycles: u64) -> Self {
        assert!(cycles > 0, "need at least one cycle");
        let mut analyzer = design.bus().analyzer();
        let n = usize::try_from(cycles).expect("cycle count fits in memory");
        let mut toggles = Vec::with_capacity(n);
        let mut bins = Vec::with_capacity(n);
        let mut switched = Vec::with_capacity(n);
        let mut prev = trace.next_word();
        for _ in 0..cycles {
            let cur = trace.next_word();
            let a = analyzer.analyze(prev, cur);
            prev = cur;
            let (t, b, s) = classify(&a);
            toggles.push(t);
            bins.push(b);
            switched.push(s);
        }
        Self::from_arrays(design, cycles, toggles, bins, switched)
    }

    /// Parallel compile: drains the trace serially (RNG streams stay
    /// sequential, so seeds produce the same words), then classifies
    /// `chunk_cycles`-sized cycle chunks as independent jobs on
    /// `runner`. Bit-identical to [`CompiledTrace::compile`] for every
    /// chunk size and runner — each cycle's classification is a pure
    /// function of its `(prev, cur)` word pair, and assembly preserves
    /// cycle order — pinned by differential and property tests.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0` or `chunk_cycles == 0`.
    #[must_use]
    pub fn compile_chunked<S: TraceSource>(
        design: &DvsBusDesign,
        trace: &mut S,
        cycles: u64,
        chunk_cycles: usize,
        runner: &dyn ChunkRunner,
    ) -> Self {
        assert!(chunk_cycles > 0, "need at least one cycle per chunk");
        if runner.single_threaded() {
            // No parallelism to exploit: skip the word buffer and chunk
            // bookkeeping entirely and stream the compile in one pass.
            return Self::compile(design, trace, cycles);
        }
        let words = Self::drain_words(trace, cycles);
        let n = words.len() - 1;
        let n_chunks = n.div_ceil(chunk_cycles);
        let slots: Vec<Mutex<Option<CompiledChunk>>> =
            (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n_chunks)
            .map(|k| {
                let start = k * chunk_cycles;
                let len = chunk_cycles.min(n - start);
                let words = &words;
                let slot = &slots[k];
                Box::new(move || {
                    let chunk = Self::analyze_chunk(design, words, start, len);
                    *slot.lock().expect("chunk slot poisoned") = Some(chunk);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        runner.run_chunks(jobs);
        let chunks = slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("chunk slot poisoned")
                    .expect("runner dropped a chunk job")
            })
            .collect();
        Self::from_chunks(design, cycles, chunks)
    }

    /// Phase one of the parallel compile: drains `cycles + 1` words
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

    /// Phase two of the parallel compile: classifies the `len` cycles
    /// starting at `start` against `design`'s bus. Pure in
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
        let mut analyzer = design.bus().analyzer();
        let mut toggles = Vec::with_capacity(len);
        let mut bins = Vec::with_capacity(len);
        let mut switched = Vec::with_capacity(len);
        for c in start..start + len {
            let a = analyzer.analyze(words[c], words[c + 1]);
            let (t, b, s) = classify(&a);
            toggles.push(t);
            bins.push(b);
            switched.push(s);
        }
        CompiledChunk {
            toggles,
            bins,
            switched,
        }
    }

    /// Final phase of the parallel compile: concatenates slot-ordered
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
        let mut toggles = Vec::with_capacity(n);
        let mut bins = Vec::with_capacity(n);
        let mut switched = Vec::with_capacity(n);
        for c in chunks {
            toggles.extend_from_slice(&c.toggles);
            bins.extend_from_slice(&c.bins);
            switched.extend_from_slice(&c.switched);
        }
        assert_eq!(
            toggles.len(),
            n,
            "assembled chunks do not cover the cycle count"
        );
        Self::from_arrays(design, cycles, toggles, bins, switched)
    }

    fn from_arrays(
        design: &DvsBusDesign,
        cycles: u64,
        toggles: Vec<u8>,
        bins: Vec<u16>,
        switched: Vec<f64>,
    ) -> Self {
        Self {
            cycles,
            toggles,
            bins,
            switched,
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
    fn chunked_compile_matches_serial_bitwise() {
        // The parallel pipeline's contract: any chunk size — one cycle
        // per chunk, a prime that never divides the cycle count, the
        // default, larger than the whole trace — assembles to exactly
        // the serial compile, across designs and generator families
        // (benchmark mixtures, adversarial storm traffic, uniform
        // random). PartialEq covers every array element and stamp.
        let cycles = 4_096u64;
        for design in [
            DvsBusDesign::paper_default(),
            DvsBusDesign::modified_paper_bus(),
        ] {
            for chunk in [1usize, 7, 65_536, 5_000] {
                let serial = CompiledTrace::compile(&design, &mut Benchmark::Gap.trace(11), cycles);
                let chunked = CompiledTrace::compile_chunked(
                    &design,
                    &mut Benchmark::Gap.trace(11),
                    cycles,
                    chunk,
                    &SerialChunks,
                );
                assert_eq!(serial, chunked, "Gap, chunk {chunk}");

                let serial = CompiledTrace::compile(
                    &design,
                    &mut razorbus_traces::AdversarialCrosstalk::new(5, 0.9),
                    cycles,
                );
                let chunked = CompiledTrace::compile_chunked(
                    &design,
                    &mut razorbus_traces::AdversarialCrosstalk::new(5, 0.9),
                    cycles,
                    chunk,
                    &SerialChunks,
                );
                assert_eq!(serial, chunked, "storm, chunk {chunk}");

                let serial = CompiledTrace::compile(
                    &design,
                    &mut razorbus_traces::RandomWords::new(17),
                    cycles,
                );
                let chunked = CompiledTrace::compile_chunked(
                    &design,
                    &mut razorbus_traces::RandomWords::new(17),
                    cycles,
                    chunk,
                    &SerialChunks,
                );
                assert_eq!(serial, chunked, "random, chunk {chunk}");
            }
        }
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
