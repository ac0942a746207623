//! Streaming closed-loop simulation: trace → bus → error detection →
//! governor, with full energy accounting.
//!
//! The loop is organized around two ideas that keep the paper's
//! 10 M-cycle runs fast without changing a single observable number:
//!
//! 1. **Per-voltage precomputation.** Everything the loop looks up by
//!    supply grid index — pass limits per activity bucket, shadow
//!    limits, `V²`, leakage, recovery energy — is hoisted into one
//!    [`VoltageRow`] per grid point, next to the lane kernel's
//!    requantized thresholds. A design builds these replay tables once
//!    per tabulated corner, on first use, and every run borrows them.
//! 2. **Window batching.** Governors advertise how long the supply is
//!    guaranteed steady ([`razorbus_ctrl::VoltageGovernor::steady_cycles`]);
//!    the simulator evaluates that whole chunk in a tight inner loop with
//!    no grid/table lookups and reports outcomes in one
//!    `record_batch` call, re-entering the slow path only when the
//!    set-point can move or a sample boundary hits.
//!
//! [`BusSimulator::run_reference`] keeps the original cycle-at-a-time
//! loop; differential tests pin the batched path to it cycle-for-cycle.
//!
//! The batched loop itself is generic over a [`ChunkStream`]: asked for
//! a chunk of cycles at one supply, the live path classifies words
//! through `analyze_cycle` on the fly (the scalar per-cycle body over a
//! [`CycleStream`]), while the compiled path
//! ([`crate::CompiledTrace::replay`]) runs the lane-vectorized kernel
//! (`lane.rs`) directly over the stored struct-of-arrays tuples. The
//! chunk accumulators and everything around them — energy folds,
//! sampling, governor batching — are one shared function, and the lane
//! kernel is pinned bit-identical to the scalar body
//! ([`CompiledTrace::replay_scalar`]) by differential tests, so every
//! path reports the same numbers to the last bit.
//!
//! No chunk body touches a histogram. The live path's
//! [`BusSimulator::with_histogram`] by-product folds each classified
//! cycle as the stream yields it, and a histogram replay attaches
//! [`CompiledTrace::summary`]; both go through the same fold as
//! [`crate::TraceSummary::collect`], so every summary agrees to the bit.

use crate::compiled::CompiledTrace;
use crate::design::DvsBusDesign;
use crate::lane::{self, LaneAccum, LaneThresholds};
use razorbus_ctrl::VoltageGovernor;
use razorbus_process::PvtCorner;
use razorbus_tables::EnvCondition;
use razorbus_traces::TraceSource;
use razorbus_units::{Femtojoules, Millivolts};

use crate::summary::{bin_of, bucket_of, HistogramFold, CEFF_BIN_WIDTH, N_BUCKETS};

/// Everything the hot loop needs about one supply grid point, gathered so
/// the steady-state inner loop runs without any matrix/table indexing.
#[derive(Debug, Clone, Copy)]
struct VoltageRow {
    /// Main-flop pass limit (fF/mm) per activity bucket.
    pass: [f64; N_BUCKETS],
    /// Shadow-latch pass limit (fF/mm) per activity bucket.
    shadow: [f64; N_BUCKETS],
    /// Supply squared (V²) — multiplied by switched capacitance for
    /// dynamic energy.
    v2: f64,
    /// Whole-bus leakage per cycle (fJ).
    leak_fj: f64,
    /// Error-recovery energy (fJ) — the extra bank clock + restored bit
    /// at this supply.
    recovery_fj: f64,
}

/// One sampled point of the supply/error trajectory (Fig. 8 material).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VoltageSample {
    /// Cycle index at the *end* of the sampled window.
    pub cycle: u64,
    /// Supply set-point at the sample instant.
    pub voltage: Millivolts,
    /// Error rate over the sampled window.
    pub window_error_rate: f64,
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Error (recovery) cycles.
    pub errors: u64,
    /// Silent-corruption cycles — must be zero for a sound design.
    pub shadow_violations: u64,
    /// Total energy with DVS (bus + flops + leakage + recovery).
    pub energy: Femtojoules,
    /// Energy the same trace would draw at the fixed nominal supply.
    pub baseline_energy: Femtojoules,
    /// Cycle-weighted mean supply (mV).
    pub mean_voltage_mv: f64,
    /// Lowest supply visited.
    pub min_voltage: Millivolts,
    /// Window-sampled trajectory (empty unless sampling was enabled).
    pub samples: Vec<VoltageSample>,
    /// The trace's sweep-engine histogram, identical to what
    /// [`crate::TraceSummary::collect`] would gather over the same words
    /// — present only when [`BusSimulator::with_histogram`] was enabled.
    pub summary: Option<crate::TraceSummary>,
}

impl SimReport {
    /// Average error rate.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.errors as f64 / self.cycles as f64
        }
    }

    /// Energy gain over the nominal-supply baseline.
    #[must_use]
    pub fn energy_gain(&self) -> f64 {
        1.0 - self.energy / self.baseline_energy
    }

    /// IPC degradation under the paper's 1-cycle-penalty model (§3:
    /// "translate this to a reduction in performance (IPC) that is the
    /// same as the error-rate").
    #[must_use]
    pub fn performance_loss(&self) -> f64 {
        self.error_rate()
    }
}

/// The closed-loop simulator.
///
/// Generic over the trace source and the governor so the same loop runs
/// static sweeps ([`razorbus_ctrl::FixedVoltage`]), the paper controller
/// ([`razorbus_ctrl::ThresholdController`]) and the proportional variant.
#[derive(Debug)]
pub struct BusSimulator<'d, S, G> {
    design: &'d DvsBusDesign,
    pvt: PvtCorner,
    trace: S,
    governor: G,
    prev_word: u32,
    sample_every: Option<u64>,
    collect_histogram: bool,
}

impl<'d, S: TraceSource, G: VoltageGovernor> BusSimulator<'d, S, G> {
    /// Creates a simulator at the true environment `pvt`.
    #[must_use]
    pub fn new(design: &'d DvsBusDesign, pvt: PvtCorner, mut trace: S, governor: G) -> Self {
        let prev_word = trace.next_word();
        Self {
            design,
            pvt,
            trace,
            governor,
            prev_word,
            sample_every: None,
            collect_histogram: false,
        }
    }

    /// Enables trajectory sampling every `window` cycles (Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_sampling(mut self, window: u64) -> Self {
        assert!(window > 0, "sampling window must be positive");
        self.sample_every = Some(window);
        self
    }

    /// Also collect the trace's sweep-engine histogram during the run.
    ///
    /// The closed-loop simulator classifies every cycle by (activity
    /// bucket, quantized worst-wire load) anyway, so each classified
    /// cycle is folded into the histogram as the word stream yields it,
    /// through the same fold as [`crate::TraceSummary::collect`] — one
    /// array increment per active cycle, and no second pass over the
    /// trace when a caller needs both (Table 1, `repro all`). The
    /// result arrives in [`SimReport::summary`], bit-identical to
    /// `collect` over the same words.
    #[must_use]
    pub fn with_histogram(mut self) -> Self {
        self.collect_histogram = true;
        self
    }

    /// Access to the governor (e.g. to read controller statistics).
    #[must_use]
    pub fn governor(&self) -> &G {
        &self.governor
    }

    /// Consumes the simulator, returning the governor.
    #[must_use]
    pub fn into_governor(self) -> G {
        self.governor
    }

    /// Runs `cycles` cycles and reports.
    ///
    /// This is the batched fast path: per-voltage rows are precomputed
    /// once per design and corner, and the governor's steady-state
    /// guarantee lets whole chunks run in a tight inner loop with
    /// per-chunk (not per-cycle) grid lookups, energy scaling and
    /// governor bookkeeping. It is pinned to
    /// [`BusSimulator::run_reference`] by differential tests: identical
    /// error/violation counts cycle-for-cycle, energies equal to ≤1e-9
    /// relative (the accumulation order differs). The loop body
    /// (`run_stream`) is shared verbatim with the compiled-trace replay
    /// path, [`crate::CompiledTrace::replay`].
    ///
    /// # Panics
    ///
    /// Panics if the governor commands a voltage off the design grid.
    pub fn run(&mut self, cycles: u64) -> SimReport {
        let mut fold = self.collect_histogram.then(HistogramFold::new);
        let stream = ScalarChunks(AnalyzeStream {
            bus: self.design.bus(),
            trace: &mut self.trace,
            prev: &mut self.prev_word,
            fold: fold.as_mut(),
        });
        let mut report = run_stream(
            self.design,
            self.pvt,
            &mut self.governor,
            self.sample_every,
            stream,
            cycles,
        );
        report.summary = fold.filter(|_| cycles > 0).map(|f| f.finish(cycles));
        report
    }

    /// Runs `cycles` cycles through the original cycle-at-a-time loop:
    /// one grid lookup, two threshold-matrix probes, two energy-table
    /// probes and one `record_cycle` per cycle.
    ///
    /// This is the semantic reference for [`BusSimulator::run`] — slower,
    /// but trivially correct — kept so differential tests can pin the
    /// batched loop to it (and so future loop changes have a baseline to
    /// diff against).
    ///
    /// # Panics
    ///
    /// Panics if the governor commands a voltage off the design grid.
    pub fn run_reference(&mut self, cycles: u64) -> SimReport {
        let design = self.design;
        let grid = design.grid();
        let tables = design.tables();
        let cond = EnvCondition::from_pvt(self.pvt);
        let matrix = tables.threshold_matrix(cond, self.pvt.ir);
        let shadow_matrix = tables.shadow_threshold_matrix(cond, self.pvt.ir);
        let energy_table = tables.energy_table(cond);
        let bus = design.bus();
        let fe = design.flop_energy();

        let n_flops = tables.n_bits();
        let length_mm = bus.line().total_length().mm();
        let rep_cap = tables.repeater_cap_per_toggle().ff();
        let clock_cap = fe.clock_capacitance(n_flops).ff();
        let data_cap = fe.data_capacitance().ff();
        let recovery_cap = clock_cap + data_cap;

        let nominal_idx = grid.index_of(design.nominal()).expect("nominal on grid");
        let v2_nominal = energy_table.v_squared_at(nominal_idx);
        let leak_nominal = energy_table.leakage_per_cycle_at(nominal_idx).fj();

        let mut errors = 0u64;
        let mut shadow_violations = 0u64;
        let mut energy_fj = 0.0f64;
        let mut baseline_fj = 0.0f64;
        let mut mv_sum = 0.0f64;
        let mut min_v = self.governor.voltage();
        let mut samples = Vec::new();
        let mut window_errors = 0u64;
        let mut window_cycles = 0u64;

        for cycle in 0..cycles {
            let v = self.governor.voltage();
            let vi = grid
                .index_of(v)
                .unwrap_or_else(|| panic!("governor voltage {v} off grid"));
            let cur = self.trace.next_word();
            let analysis = bus.analyze_cycle(self.prev_word, cur);
            self.prev_word = cur;

            let bucket = bucket_of(analysis.toggled_wires);
            let error = analysis.toggled_wires > 0
                && crate::summary::ceff_bin_floor(analysis.worst_ceff_per_mm)
                    > matrix.pass_limit_at(vi, bucket);
            if error {
                errors += 1;
                if crate::summary::ceff_bin_floor(analysis.worst_ceff_per_mm)
                    > shadow_matrix.pass_limit_at(vi, bucket)
                {
                    shadow_violations += 1;
                }
            }

            let v2 = energy_table.v_squared_at(vi);
            let toggles = f64::from(analysis.toggled_wires);
            let switched = analysis.switched_cap_per_mm * length_mm
                + toggles * (rep_cap + data_cap)
                + clock_cap;
            energy_fj += switched * v2 + energy_table.leakage_per_cycle_at(vi).fj();
            if error {
                energy_fj += recovery_cap * v2;
            }
            baseline_fj += switched * v2_nominal + leak_nominal;

            mv_sum += f64::from(v.mv());
            min_v = min_v.min(v);
            self.governor.record_cycle(error);

            if let Some(window) = self.sample_every {
                window_errors += u64::from(error);
                window_cycles += 1;
                if window_cycles == window {
                    samples.push(VoltageSample {
                        cycle: cycle + 1,
                        voltage: self.governor.voltage(),
                        window_error_rate: window_errors as f64 / window as f64,
                    });
                    window_errors = 0;
                    window_cycles = 0;
                }
            }
        }
        if window_cycles > 0 {
            samples.push(VoltageSample {
                cycle: cycles,
                voltage: self.governor.voltage(),
                window_error_rate: window_errors as f64 / window_cycles as f64,
            });
        }

        SimReport {
            cycles,
            errors,
            shadow_violations,
            energy: Femtojoules::new(energy_fj),
            baseline_energy: Femtojoules::new(baseline_fj),
            mean_voltage_mv: if cycles == 0 {
                0.0
            } else {
                mv_sum / cycles as f64
            },
            min_voltage: min_v,
            samples,
            summary: None,
        }
    }
}

/// Everything a replay reads at one supply grid point: the hot row the
/// energy fold and the scalar body use, and the lane kernel's
/// requantization of its limits.
#[derive(Debug, Clone)]
pub(crate) struct ReplayPoint {
    row: VoltageRow,
    thr: LaneThresholds,
}

/// Builds a design's replay tables at `pvt`'s corner: one
/// [`ReplayPoint`] per grid point. [`DvsBusDesign::replay_points`]
/// calls it once per tabulated corner and keeps the result.
pub(crate) fn build_replay_points(design: &DvsBusDesign, pvt: PvtCorner) -> Box<[ReplayPoint]> {
    voltage_rows(design, pvt)
        .into_iter()
        .map(|row| ReplayPoint {
            row,
            thr: LaneThresholds::from_limits(&row.pass, &row.shadow),
        })
        .collect()
}

/// Builds the per-voltage hot rows: one [`VoltageRow`] per grid point,
/// so the steady-state inner loop never touches the matrices or energy
/// tables.
fn voltage_rows(design: &DvsBusDesign, pvt: PvtCorner) -> Vec<VoltageRow> {
    let tables = design.tables();
    let fe = design.flop_energy();
    // Recovery ~ one extra bank clock + one restored bit (paper: the
    // extra clocking dominates).
    let recovery_cap = fe.clock_capacitance(tables.n_bits()).ff() + fe.data_capacitance().ff();
    let cond = EnvCondition::from_pvt(pvt);
    let matrix = tables.threshold_matrix(cond, pvt.ir);
    let shadow_matrix = tables.shadow_threshold_matrix(cond, pvt.ir);
    let energy_table = tables.energy_table(cond);
    (0..design.grid().len())
        .map(|vi| {
            let mut pass = [0.0; N_BUCKETS];
            let mut shadow = [0.0; N_BUCKETS];
            for b in 0..N_BUCKETS {
                pass[b] = matrix.pass_limit_at(vi, b);
                shadow[b] = shadow_matrix.pass_limit_at(vi, b);
            }
            let v2 = energy_table.v_squared_at(vi);
            VoltageRow {
                pass,
                shadow,
                v2,
                leak_fj: energy_table.leakage_per_cycle_at(vi).fj(),
                recovery_fj: recovery_cap * v2,
            }
        })
        .collect()
}

/// The per-cycle input of the batched loop: one `(toggle count,
/// quantized load bin, switched capacitance fF/mm)` tuple per cycle.
/// The live path computes it through `analyze_cycle`; the compiled path
/// reads it back from a [`CompiledTrace`]. Keeping the loop body
/// generic over this trait (instead of duplicating it) is what makes
/// the replay bit-identical to the live run by construction.
trait CycleStream {
    fn next_cycle(&mut self) -> (u32, usize, f64);
}

/// Live classification: words → `analyze_cycle` → tuple, folded into
/// the run's histogram when [`BusSimulator::with_histogram`] asked for
/// one.
struct AnalyzeStream<'a, S> {
    bus: &'a razorbus_wire::BusPhysical,
    trace: &'a mut S,
    prev: &'a mut u32,
    fold: Option<&'a mut HistogramFold>,
}

impl<S: TraceSource> CycleStream for AnalyzeStream<'_, S> {
    #[inline]
    fn next_cycle(&mut self) -> (u32, usize, f64) {
        let cur = self.trace.next_word();
        let a = self.bus.analyze_cycle(*self.prev, cur);
        *self.prev = cur;
        // Quantized exactly like the histogram engine (1 fF/mm bins) so
        // the two agree cycle-for-cycle.
        let toggles = a.toggled_wires;
        let bin = bin_of(a.worst_ceff_per_mm);
        if let Some(fold) = self.fold.as_deref_mut() {
            fold.add(toggles, bin, a.switched_cap_per_mm);
        }
        (toggles, bin, a.switched_cap_per_mm)
    }
}

/// The chunk-granular input of the batched loop: advance `chunk` cycles
/// at one supply grid point (whose replay tables are `point`) and
/// return the chunk's accumulators. [`run_stream`] owns everything
/// around the chunk (energy folds, sampling, governor batching);
/// implementations own only the per-cycle classification — scalar for
/// live streams, lane-vectorized for compiled arrays.
trait ChunkStream {
    fn run_chunk(&mut self, chunk: u64, point: &ReplayPoint) -> LaneAccum;
}

/// Scalar chunking over any [`CycleStream`]: the original per-cycle
/// inner loop. The live path always runs it; over a compiled cursor it
/// is the pinned reference for the lane kernel
/// ([`CompiledTrace::replay_scalar`]).
struct ScalarChunks<C>(C);

impl<C: CycleStream> ChunkStream for ScalarChunks<C> {
    fn run_chunk(&mut self, chunk: u64, point: &ReplayPoint) -> LaneAccum {
        let row = &point.row;
        let mut acc = LaneAccum::default();
        for _ in 0..chunk {
            let (toggles, bin, switched_cap) = self.0.next_cycle();
            let bucket = bucket_of(toggles);
            let load = bin as f64 * CEFF_BIN_WIDTH;
            let error = toggles > 0 && load > row.pass[bucket];
            acc.errors += u64::from(error);
            acc.shadow += u64::from(error && load > row.shadow[bucket]);
            acc.wire_cap += switched_cap;
            acc.toggles += u64::from(toggles);
        }
        acc
    }
}

/// Lane-vectorized chunking over the compiled struct-of-arrays stream:
/// the grid point's integer thresholds from the design's replay tables,
/// eight cycles per step through the u64 kernel in `lane.rs`. Wrapped
/// in [`ScalarChunks`], the same cursor is the per-cycle reference
/// `replay_scalar` runs.
struct LaneChunks<'a> {
    toggles: &'a [u8],
    bins: &'a [u16],
    switched: &'a [f64],
    cursor: usize,
}

impl<'a> LaneChunks<'a> {
    fn new(trace: &'a CompiledTrace) -> Self {
        let (toggles, bins, switched) = trace.arrays();
        Self {
            toggles,
            bins,
            switched,
            cursor: 0,
        }
    }
}

impl CycleStream for LaneChunks<'_> {
    #[inline]
    fn next_cycle(&mut self) -> (u32, usize, f64) {
        let c = self.cursor;
        self.cursor += 1;
        (
            u32::from(self.toggles[c]),
            usize::from(self.bins[c]),
            self.switched[c],
        )
    }
}

impl ChunkStream for LaneChunks<'_> {
    fn run_chunk(&mut self, chunk: u64, point: &ReplayPoint) -> LaneAccum {
        let start = self.cursor;
        let end = start + usize::try_from(chunk).expect("chunk fits in memory");
        let acc = lane::process(
            &self.toggles[start..end],
            &self.bins[start..end],
            &self.switched[start..end],
            &point.thr,
        );
        self.cursor = end;
        acc
    }
}

/// The batched closed-loop body shared by [`BusSimulator::run`] and
/// [`CompiledTrace::replay`]: per-voltage rows borrowed from the
/// design's replay tables, governor-guaranteed-steady chunks evaluated
/// by the stream's chunk body (scalar or lane-vectorized). See
/// [`BusSimulator::run`] for the contract.
fn run_stream<C: ChunkStream, G: VoltageGovernor>(
    design: &DvsBusDesign,
    pvt: PvtCorner,
    governor: &mut G,
    sample_every: Option<u64>,
    mut stream: C,
    cycles: u64,
) -> SimReport {
    let grid = design.grid();
    let tables = design.tables();
    let fe = design.flop_energy();

    let n_flops = tables.n_bits();
    let length_mm = design.bus().line().total_length().mm();
    let rep_cap = tables.repeater_cap_per_toggle().ff();
    let clock_cap = fe.clock_capacitance(n_flops).ff();
    let data_cap = fe.data_capacitance().ff();
    let points = design.replay_points(pvt);

    let nominal_idx = grid.index_of(design.nominal()).expect("nominal on grid");
    let v2_nominal = points[nominal_idx].row.v2;
    let leak_nominal = points[nominal_idx].row.leak_fj;

    let mut errors = 0u64;
    let mut shadow_violations = 0u64;
    let mut energy_fj = 0.0f64;
    let mut baseline_fj = 0.0f64;
    let mut mv_sum = 0.0f64;
    let mut min_v = governor.voltage();
    let mut samples = Vec::new();
    let mut window_errors = 0u64;
    let mut window_cycles = 0u64;

    let mut cycle = 0u64;
    while cycle < cycles {
        // Slow path: re-resolve the supply and chunk length. The
        // chunk never outlives the governor's steady guarantee, the
        // sample window, or the run itself.
        let v = governor.voltage();
        let vi = grid
            .index_of(v)
            .unwrap_or_else(|| panic!("governor voltage {v} off grid"));
        let point = &points[vi];
        let row = &point.row;
        let mut chunk = governor.steady_cycles().max(1).min(cycles - cycle);
        if let Some(window) = sample_every {
            chunk = chunk.min(window - window_cycles);
        }

        // Fast path: the whole chunk at one supply, no table lookups.
        let acc = stream.run_chunk(chunk, point);

        let switched = acc.wire_cap * length_mm
            + acc.toggles as f64 * (rep_cap + data_cap)
            + chunk as f64 * clock_cap;
        energy_fj +=
            switched * row.v2 + chunk as f64 * row.leak_fj + acc.errors as f64 * row.recovery_fj;
        baseline_fj += switched * v2_nominal + chunk as f64 * leak_nominal;
        errors += acc.errors;
        shadow_violations += acc.shadow;
        mv_sum += f64::from(v.mv()) * chunk as f64;
        min_v = min_v.min(v);
        governor.record_batch(chunk, acc.errors);
        cycle += chunk;

        if let Some(window) = sample_every {
            window_errors += acc.errors;
            window_cycles += chunk;
            if window_cycles == window {
                samples.push(VoltageSample {
                    cycle,
                    voltage: governor.voltage(),
                    window_error_rate: window_errors as f64 / window as f64,
                });
                window_errors = 0;
                window_cycles = 0;
            }
        }
    }
    if window_cycles > 0 {
        // Trailing partial window: report it rather than dropping the
        // tail of the trajectory.
        samples.push(VoltageSample {
            cycle: cycles,
            voltage: governor.voltage(),
            window_error_rate: window_errors as f64 / window_cycles as f64,
        });
    }

    SimReport {
        cycles,
        errors,
        shadow_violations,
        energy: Femtojoules::new(energy_fj),
        baseline_energy: Femtojoules::new(baseline_fj),
        mean_voltage_mv: if cycles == 0 {
            0.0
        } else {
            mv_sum / cycles as f64
        },
        min_voltage: min_v,
        samples,
        summary: None,
    }
}

/// One member of a fused replay group: an *open-loop* operating point —
/// environment corner plus fixed supply — judged over a compiled trace
/// in the same pass as every other member of its group
/// ([`CompiledTrace::replay_fused`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedOp {
    /// The true environment corner the member runs at.
    pub pvt: PvtCorner,
    /// The member's fixed supply (must be on the design grid).
    pub supply: Millivolts,
}

/// Per-member running state of a fused replay: the member's hot row
/// (borrowed from the design's replay tables) and nominal constants
/// plus exactly the accumulators [`run_stream`] folds per chunk.
struct FusedMember<'d> {
    supply: Millivolts,
    v_mv: f64,
    row: &'d VoltageRow,
    v2_nominal: f64,
    leak_nominal: f64,
    errors: u64,
    shadow: u64,
    energy_fj: f64,
    baseline_fj: f64,
    mv_sum: f64,
    window_errors: u64,
    samples: Vec<VoltageSample>,
}

impl CompiledTrace {
    /// Replays the compiled stream through the batched closed-loop body
    /// — the exact loop [`BusSimulator::run`] executes, with the
    /// per-cycle classification running through the lane-vectorized
    /// kernel (`lane.rs`): integer bin-threshold compares in eight-cycle
    /// u64 lanes, float accumulation untouched. Bit-identical to running
    /// [`BusSimulator`] over the original trace with the same governor
    /// — and to [`CompiledTrace::replay_scalar`] — errors, violations
    /// and samples match bitwise, energies are exact (same per-cycle add
    /// sequence). With `with_summary`, the report also carries
    /// [`CompiledTrace::summary`], equal to the live
    /// [`BusSimulator::with_histogram`] by-product; the replay itself
    /// runs the same lane kernel either way.
    ///
    /// Replays all [`CompiledTrace::cycles`] cycles and returns the
    /// governor (carried across program boundaries by suite protocols).
    ///
    /// # Panics
    ///
    /// Panics when the trace's bus stamps do not match `design` (see
    /// [`CompiledTrace::matches`]), when `sampling` is `Some(0)`, or if
    /// the governor commands a voltage off the design grid.
    #[must_use]
    pub fn replay<G: VoltageGovernor>(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        mut governor: G,
        sampling: Option<u64>,
        with_summary: bool,
    ) -> (SimReport, G) {
        self.check_replay(design, sampling);
        let stream = LaneChunks::new(self);
        let mut report = run_stream(design, pvt, &mut governor, sampling, stream, self.cycles());
        report.summary = with_summary.then(|| self.summary());
        (report, governor)
    }

    /// Replays through the scalar per-cycle loop body — the pinned
    /// semantic reference for the lane-vectorized
    /// [`CompiledTrace::replay`]. Same contract, same numbers to the
    /// last bit (differential tests enforce `to_bits()` equality across
    /// designs, governors and corners); kept callable so any future
    /// kernel change always has an executable baseline to diff against.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CompiledTrace::replay`].
    #[must_use]
    pub fn replay_scalar<G: VoltageGovernor>(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        mut governor: G,
        sampling: Option<u64>,
    ) -> (SimReport, G) {
        self.check_replay(design, sampling);
        let stream = ScalarChunks(LaneChunks::new(self));
        let report = run_stream(design, pvt, &mut governor, sampling, stream, self.cycles());
        (report, governor)
    }

    /// Replays *every* operating point of `ops` in **one pass** over the
    /// compiled stream: the fused kernel (`lane.rs`) applies each
    /// member's requantized integer thresholds to every 8-cycle lane
    /// while the lane's words are hot in registers/L1, so a group of N
    /// open-loop members streams the 11 B/cycle arrays once instead of
    /// N times.
    ///
    /// Each member's report is **bit-identical** to its solo replay
    /// under [`razorbus_ctrl::FixedVoltage`] at the same corner, supply
    /// and sampling, by construction: a fixed supply is steady forever
    /// (`steady_cycles` is `u64::MAX`), so the solo chunk sequence is
    /// exactly the sampling windows (or one whole-trace chunk) — shared
    /// by every member — and the fused loop folds each member's
    /// accumulators per chunk in that same order, from the same
    /// member-independent toggle/capacitance sums the solo kernel
    /// produces. Pinned by `to_bits()` differential tests across
    /// designs × corners × fan-ins.
    ///
    /// Closed-loop governors are *not* expressible here — their voltage
    /// trajectories are feedback-driven, so their chunk boundaries
    /// diverge per member; callers keep those on solo replays.
    ///
    /// # Panics
    ///
    /// Panics when the trace's bus stamps do not match `design`, when
    /// `sampling` is `Some(0)`, or when any member's supply is off the
    /// design grid.
    #[must_use]
    pub fn replay_fused(
        &self,
        design: &DvsBusDesign,
        ops: &[FusedOp],
        sampling: Option<u64>,
    ) -> Vec<SimReport> {
        self.check_replay(design, sampling);
        if ops.is_empty() {
            return Vec::new();
        }
        let grid = design.grid();
        let tables = design.tables();
        let fe = design.flop_energy();
        let n_flops = tables.n_bits();
        let length_mm = design.bus().line().total_length().mm();
        let rep_cap = tables.repeater_cap_per_toggle().ff();
        let clock_cap = fe.clock_capacitance(n_flops).ff();
        let data_cap = fe.data_capacitance().ff();
        let nominal_idx = grid.index_of(design.nominal()).expect("nominal on grid");

        // Every member borrows its row and thresholds from the design's
        // replay tables, exactly as its solo replay would.
        let mut thrs = Vec::with_capacity(ops.len());
        let mut members = Vec::with_capacity(ops.len());
        for op in ops {
            let points = design.replay_points(op.pvt);
            let vi = grid
                .index_of(op.supply)
                .unwrap_or_else(|| panic!("fused member supply {} off the design grid", op.supply));
            thrs.push(&points[vi].thr);
            members.push(FusedMember {
                supply: op.supply,
                v_mv: f64::from(op.supply.mv()),
                row: &points[vi].row,
                v2_nominal: points[nominal_idx].row.v2,
                leak_nominal: points[nominal_idx].row.leak_fj,
                errors: 0,
                shadow: 0,
                energy_fj: 0.0,
                baseline_fj: 0.0,
                mv_sum: 0.0,
                window_errors: 0,
                samples: Vec::new(),
            });
        }

        let (toggles, bins, switched) = self.arrays();
        let cycles = self.cycles();
        let mut counts = vec![lane::FusedCounts::default(); ops.len()];
        let mut cycle = 0u64;
        let mut window_cycles = 0u64;
        let mut cursor = 0usize;
        while cycle < cycles {
            // A fixed supply is steady forever, so — exactly as in each
            // member's solo replay — chunks are the sampling windows,
            // or one whole-trace chunk without sampling.
            let mut chunk = cycles - cycle;
            if let Some(window) = sampling {
                chunk = chunk.min(window - window_cycles);
            }
            let end = cursor + usize::try_from(chunk).expect("chunk fits in memory");
            let (toggle_sum, wire_cap) = lane::process_fused(
                &toggles[cursor..end],
                &bins[cursor..end],
                &switched[cursor..end],
                &thrs,
                &mut counts,
            );
            cursor = end;
            let switched_cap = wire_cap * length_mm
                + toggle_sum as f64 * (rep_cap + data_cap)
                + chunk as f64 * clock_cap;
            for (m, cnt) in members.iter_mut().zip(&counts) {
                m.energy_fj += switched_cap * m.row.v2
                    + chunk as f64 * m.row.leak_fj
                    + cnt.errors as f64 * m.row.recovery_fj;
                m.baseline_fj += switched_cap * m.v2_nominal + chunk as f64 * m.leak_nominal;
                m.errors += cnt.errors;
                m.shadow += cnt.shadow;
                m.mv_sum += m.v_mv * chunk as f64;
            }
            cycle += chunk;
            if let Some(window) = sampling {
                window_cycles += chunk;
                for (m, cnt) in members.iter_mut().zip(&counts) {
                    m.window_errors += cnt.errors;
                }
                if window_cycles == window {
                    for m in &mut members {
                        m.samples.push(VoltageSample {
                            cycle,
                            voltage: m.supply,
                            window_error_rate: m.window_errors as f64 / window as f64,
                        });
                        m.window_errors = 0;
                    }
                    window_cycles = 0;
                }
            }
        }
        if window_cycles > 0 {
            for m in &mut members {
                m.samples.push(VoltageSample {
                    cycle: cycles,
                    voltage: m.supply,
                    window_error_rate: m.window_errors as f64 / window_cycles as f64,
                });
            }
        }

        members
            .into_iter()
            .map(|m| SimReport {
                cycles,
                errors: m.errors,
                shadow_violations: m.shadow,
                energy: Femtojoules::new(m.energy_fj),
                baseline_energy: Femtojoules::new(m.baseline_fj),
                mean_voltage_mv: if cycles == 0 {
                    0.0
                } else {
                    m.mv_sum / cycles as f64
                },
                min_voltage: m.supply,
                samples: m.samples,
                summary: None,
            })
            .collect()
    }

    fn check_replay(&self, design: &DvsBusDesign, sampling: Option<u64>) {
        if let Err(e) = self.matches(design) {
            panic!("refusing to replay a compiled trace against the wrong design: {e}");
        }
        assert!(sampling != Some(0), "sampling window must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_ctrl::{FixedVoltage, ThresholdController};
    use razorbus_process::ProcessCorner;
    use razorbus_traces::Benchmark;

    fn design() -> DvsBusDesign {
        DvsBusDesign::paper_default()
    }

    #[test]
    fn nominal_fixed_run_is_error_free_everywhere() {
        let d = design();
        for pvt in PvtCorner::FIG5 {
            let mut sim = BusSimulator::new(
                &d,
                pvt,
                Benchmark::Swim.trace(3),
                FixedVoltage::new(Millivolts::new(1_200)),
            );
            let r = sim.run(20_000);
            assert_eq!(r.errors, 0, "{pvt}");
            assert_eq!(r.shadow_violations, 0);
            // At nominal with no errors, DVS energy == baseline.
            assert!((r.energy_gain()).abs() < 1e-9);
        }
    }

    #[test]
    fn controller_run_keeps_error_rate_near_band() {
        let d = design();
        let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Typical));
        let mut sim = BusSimulator::new(&d, PvtCorner::TYPICAL, Benchmark::Crafty.trace(5), ctrl);
        let r = sim.run(300_000);
        assert_eq!(r.shadow_violations, 0);
        assert!(r.error_rate() < 0.03, "rate {}", r.error_rate());
        assert!(r.energy_gain() > 0.15, "gain {}", r.energy_gain());
        assert!(r.min_voltage < Millivolts::new(1_100));
    }

    /// Differential harness: batched [`BusSimulator::run`] against the
    /// cycle-at-a-time [`BusSimulator::run_reference`] over the same
    /// trace/governor. Error and violation counts must be bit-identical,
    /// energies within 1e-9 relative (accumulation order differs), and
    /// the sampled trajectory must match window-for-window.
    fn assert_batched_matches_reference<G: VoltageGovernor + Clone>(
        d: &DvsBusDesign,
        pvt: PvtCorner,
        bench: Benchmark,
        seed: u64,
        governor: G,
        cycles: u64,
        sampling: Option<u64>,
    ) {
        let build = |g: G| {
            let sim = BusSimulator::new(d, pvt, bench.trace(seed), g);
            match sampling {
                Some(w) => sim.with_sampling(w),
                None => sim,
            }
        };
        let fast = build(governor.clone()).run(cycles);
        let slow = build(governor).run_reference(cycles);

        let ctx = format!("{bench} @ {pvt}, {cycles} cycles");
        assert_eq!(fast.errors, slow.errors, "errors diverged: {ctx}");
        assert_eq!(
            fast.shadow_violations, slow.shadow_violations,
            "violations diverged: {ctx}"
        );
        assert_eq!(fast.min_voltage, slow.min_voltage, "min V diverged: {ctx}");
        let rel_energy = (fast.energy.fj() - slow.energy.fj()).abs() / slow.energy.fj();
        assert!(rel_energy < 1e-9, "energy diverged {rel_energy}: {ctx}");
        let rel_base = (fast.baseline_energy.fj() - slow.baseline_energy.fj()).abs()
            / slow.baseline_energy.fj();
        assert!(rel_base < 1e-9, "baseline diverged {rel_base}: {ctx}");
        assert!(
            (fast.mean_voltage_mv - slow.mean_voltage_mv).abs() < 1e-9,
            "mean V diverged: {ctx}"
        );
        assert_eq!(
            fast.samples.len(),
            slow.samples.len(),
            "sample count diverged: {ctx}"
        );
        for (f, s) in fast.samples.iter().zip(&slow.samples) {
            assert_eq!(f.cycle, s.cycle, "{ctx}");
            assert_eq!(f.voltage, s.voltage, "sampled V diverged: {ctx}");
            assert!(
                (f.window_error_rate - s.window_error_rate).abs() < 1e-12,
                "window rate diverged at cycle {}: {ctx}",
                f.cycle
            );
        }
    }

    #[test]
    fn batched_matches_reference_fixed_voltage_300k() {
        let d = design();
        for (bench, v, seed) in [
            (Benchmark::Vortex, 940, 11),
            (Benchmark::Mgrid, 900, 5),
            (Benchmark::Crafty, 1_000, 7),
        ] {
            assert_batched_matches_reference(
                &d,
                PvtCorner::TYPICAL,
                bench,
                seed,
                FixedVoltage::new(Millivolts::new(v)),
                300_000,
                None,
            );
        }
    }

    #[test]
    fn batched_matches_reference_threshold_controller_300k() {
        let d = design();
        for (bench, seed) in [(Benchmark::Crafty, 5), (Benchmark::Mgrid, 3)] {
            let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Typical));
            assert_batched_matches_reference(
                &d,
                PvtCorner::TYPICAL,
                bench,
                seed,
                ctrl,
                300_000,
                Some(10_000),
            );
        }
    }

    #[test]
    fn batched_matches_reference_proportional_and_corners() {
        let d = design();
        // The proportional governor exercises its own batch override; the
        // worst corner exercises a different threshold matrix, and the
        // 17_500-cycle sampling window lands chunk boundaries away from
        // the controller's 10 k decision windows.
        let prop = razorbus_ctrl::ProportionalController::paper_band(
            d.controller_config(ProcessCorner::Typical),
        );
        assert_batched_matches_reference(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Gap,
            9,
            prop,
            300_000,
            Some(17_500),
        );
        let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Slow));
        assert_batched_matches_reference(
            &d,
            PvtCorner::WORST,
            Benchmark::Swim,
            2,
            ctrl,
            300_000,
            None,
        );
    }

    #[test]
    fn sim_matches_summary_for_fixed_voltage() {
        // The streaming simulator and the histogram engine must agree on
        // error counts and (closely) on energy for a fixed supply —
        // across benchmarks, corners and supplies.
        let d = design();
        for (bench, seed, pvt, v_mv) in [
            (Benchmark::Vortex, 11, PvtCorner::TYPICAL, 940),
            (Benchmark::Crafty, 3, PvtCorner::TYPICAL, 880),
            (Benchmark::Mgrid, 8, PvtCorner::WORST, 1_120),
            (Benchmark::Gap, 1, PvtCorner::TYPICAL, 1_200),
        ] {
            let v = Millivolts::new(v_mv);
            let mut sim = BusSimulator::new(&d, pvt, bench.trace(seed), FixedVoltage::new(v));
            let r = sim.run(50_000);
            let mut trace = bench.trace(seed);
            let s = crate::TraceSummary::collect(&d, &mut trace, 50_000);
            assert_eq!(r.errors, s.error_cycles(&d, pvt, v), "{bench} @ {v}");
            let e_summary = s.energy(&d, pvt, v, true);
            let rel = (r.energy.fj() - e_summary.fj()).abs() / e_summary.fj();
            assert!(rel < 1e-9, "energy mismatch {rel}: {bench} @ {v}");
        }
    }

    #[test]
    fn histogram_byproduct_matches_summary_collect() {
        // with_histogram must yield exactly what TraceSummary::collect
        // gathers over the same words — same integer counts, same float
        // accumulation order — even while a controller moves the supply.
        let d = design();
        let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Typical));
        let mut sim = BusSimulator::new(&d, PvtCorner::TYPICAL, Benchmark::Crafty.trace(7), ctrl)
            .with_histogram();
        let r = sim.run(80_000);
        let from_sim = r.summary.expect("histogram requested");
        let mut trace = Benchmark::Crafty.trace(7);
        let collected = crate::TraceSummary::collect(&d, &mut trace, 80_000);
        assert_eq!(from_sim.cycles(), collected.cycles());
        assert_eq!(from_sim.mean_toggles(), collected.mean_toggles());
        for v in d.grid().iter() {
            for pvt in [PvtCorner::TYPICAL, PvtCorner::WORST] {
                assert_eq!(
                    from_sim.error_cycles(&d, pvt, v),
                    collected.error_cycles(&d, pvt, v),
                    "{pvt} @ {v}"
                );
            }
            let a = from_sim.energy(&d, PvtCorner::TYPICAL, v, true);
            let b = collected.energy(&d, PvtCorner::TYPICAL, v, true);
            assert_eq!(a.fj(), b.fj(), "energy at {v}");
        }
        // Without the flag, no summary is produced.
        let mut sim = BusSimulator::new(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Crafty.trace(7),
            FixedVoltage::new(Millivolts::new(1_200)),
        );
        assert!(sim.run(1_000).summary.is_none());
    }

    #[test]
    fn sampling_produces_expected_window_count() {
        let d = design();
        let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Typical));
        let mut sim = BusSimulator::new(&d, PvtCorner::TYPICAL, Benchmark::Gap.trace(1), ctrl)
            .with_sampling(10_000);
        let r = sim.run(100_000);
        assert_eq!(r.samples.len(), 10);
        assert!(r.samples.iter().all(|s| s.voltage >= Millivolts::new(760)));
    }

    #[test]
    fn sampling_emits_trailing_partial_window() {
        // run(105_000) with 10 k sampling used to silently drop the last
        // 5 k cycles of trajectory; they now arrive as a final partial
        // sample whose rate is normalized by the partial length.
        let d = design();
        let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Typical));
        let mut sim = BusSimulator::new(&d, PvtCorner::TYPICAL, Benchmark::Gap.trace(1), ctrl)
            .with_sampling(10_000);
        let r = sim.run(105_000);
        assert_eq!(r.samples.len(), 11);
        let last = r.samples.last().unwrap();
        assert_eq!(last.cycle, 105_000);
        assert!(last.window_error_rate >= 0.0 && last.window_error_rate <= 1.0);
        // A partial window of 1 cycle is still reported, with a 0-or-1 rate.
        let mut sim = BusSimulator::new(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Gap.trace(1),
            FixedVoltage::new(Millivolts::new(1_200)),
        )
        .with_sampling(10_000);
        let r = sim.run(10_001);
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.samples[1].cycle, 10_001);
    }

    /// Differential harness for the compiled-replay path: compiling a
    /// trace once and replaying it must be **bit-identical** to running
    /// the simulator over the live words — errors, violations and
    /// samples bitwise, energies exact (same per-cycle add sequence),
    /// histogram by-product included.
    fn assert_replay_matches_run<G: VoltageGovernor + Clone>(
        d: &DvsBusDesign,
        pvt: PvtCorner,
        bench: Benchmark,
        seed: u64,
        governor: G,
        cycles: u64,
        sampling: Option<u64>,
    ) {
        let mut sim = BusSimulator::new(d, pvt, bench.trace(seed), governor.clone());
        if let Some(w) = sampling {
            sim = sim.with_sampling(w);
        }
        let live = sim.with_histogram().run(cycles);

        let compiled = crate::CompiledTrace::compile(d, &mut bench.trace(seed), cycles);
        let (replayed, _) = compiled.replay(d, pvt, governor, sampling, true);

        let ctx = format!("{bench} @ {pvt}, {cycles} cycles");
        assert_eq!(live.errors, replayed.errors, "errors diverged: {ctx}");
        assert_eq!(
            live.shadow_violations, replayed.shadow_violations,
            "violations diverged: {ctx}"
        );
        assert_eq!(
            live.energy.fj().to_bits(),
            replayed.energy.fj().to_bits(),
            "energy not exact: {ctx}"
        );
        assert_eq!(
            live.baseline_energy.fj().to_bits(),
            replayed.baseline_energy.fj().to_bits(),
            "baseline not exact: {ctx}"
        );
        assert_eq!(live.min_voltage, replayed.min_voltage, "{ctx}");
        assert_eq!(
            live.mean_voltage_mv.to_bits(),
            replayed.mean_voltage_mv.to_bits(),
            "mean V not exact: {ctx}"
        );
        assert_eq!(live.samples, replayed.samples, "samples diverged: {ctx}");
        assert_eq!(
            live.summary, replayed.summary,
            "histogram by-product diverged: {ctx}"
        );
    }

    #[test]
    fn replay_matches_run_across_governors() {
        let d = design();
        assert_replay_matches_run(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Crafty,
            5,
            ThresholdController::new(d.controller_config(ProcessCorner::Typical)),
            120_000,
            Some(10_000),
        );
        assert_replay_matches_run(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Gap,
            9,
            razorbus_ctrl::ProportionalController::paper_band(
                d.controller_config(ProcessCorner::Typical),
            ),
            120_000,
            Some(17_500),
        );
        assert_replay_matches_run(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Mgrid,
            5,
            FixedVoltage::new(Millivolts::new(900)),
            60_000,
            None,
        );
    }

    #[test]
    fn replay_matches_run_across_corners_and_designs() {
        // The worst corner exercises a different threshold matrix; the
        // modified bus exercises rebuilt tables and a different compile.
        let d = design();
        assert_replay_matches_run(
            &d,
            PvtCorner::WORST,
            Benchmark::Swim,
            2,
            ThresholdController::new(d.controller_config(ProcessCorner::Slow)),
            120_000,
            None,
        );
        let modified = DvsBusDesign::modified_paper_bus();
        assert_replay_matches_run(
            &modified,
            PvtCorner::WORST,
            Benchmark::Vortex,
            11,
            ThresholdController::new(modified.controller_config(ProcessCorner::Slow)),
            60_000,
            Some(10_000),
        );
    }

    #[test]
    fn one_compile_serves_many_operating_points() {
        // The cross-sweep reuse contract: a single compiled trace
        // replayed at several supplies reproduces each fixed-voltage
        // live run exactly.
        let d = design();
        let compiled = crate::CompiledTrace::compile(&d, &mut Benchmark::Mgrid.trace(8), 40_000);
        for v_mv in [880, 940, 1_000, 1_200] {
            let v = Millivolts::new(v_mv);
            let mut sim = BusSimulator::new(
                &d,
                PvtCorner::TYPICAL,
                Benchmark::Mgrid.trace(8),
                FixedVoltage::new(v),
            );
            let live = sim.run(40_000);
            let (replayed, _) =
                compiled.replay(&d, PvtCorner::TYPICAL, FixedVoltage::new(v), None, false);
            assert_eq!(live.errors, replayed.errors, "{v}");
            assert_eq!(
                live.energy.fj().to_bits(),
                replayed.energy.fj().to_bits(),
                "{v}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "wrong design")]
    fn replay_refuses_mismatched_design() {
        let d = design();
        let modified = DvsBusDesign::modified_paper_bus();
        let compiled = crate::CompiledTrace::compile(&d, &mut Benchmark::Crafty.trace(1), 1_000);
        let _ = compiled.replay(
            &modified,
            PvtCorner::TYPICAL,
            FixedVoltage::new(Millivolts::new(1_200)),
            None,
            false,
        );
    }

    #[test]
    fn worst_corner_nominal_baseline_sane() {
        // At the design corner with a fixed 1.2 V supply, gain is ~0 and
        // errors are impossible.
        let d = design();
        let mut sim = BusSimulator::new(
            &d,
            PvtCorner::WORST,
            Benchmark::Mgrid.trace(2),
            FixedVoltage::new(Millivolts::new(1_200)),
        );
        let r = sim.run(20_000);
        assert_eq!(r.errors, 0);
        assert!(r.energy.fj() > 0.0);
    }

    /// Differential harness for the lane-vectorized kernel: `replay`
    /// (u64 lanes) against `replay_scalar` (the per-cycle reference
    /// body) over the same compiled trace and governor — every reported
    /// number must match to the bit, including the sampled trajectory.
    fn assert_vectorized_matches_scalar<G: VoltageGovernor + Clone>(
        d: &DvsBusDesign,
        pvt: PvtCorner,
        bench: Benchmark,
        seed: u64,
        governor: G,
        cycles: u64,
        sampling: Option<u64>,
    ) {
        let compiled = crate::CompiledTrace::compile(d, &mut bench.trace(seed), cycles);
        let (fast, _) = compiled.replay(d, pvt, governor.clone(), sampling, false);
        let (slow, _) = compiled.replay_scalar(d, pvt, governor, sampling);
        let ctx = format!("{bench} @ {pvt}, {cycles} cycles");
        assert_eq!(fast.errors, slow.errors, "errors diverged: {ctx}");
        assert_eq!(
            fast.shadow_violations, slow.shadow_violations,
            "violations diverged: {ctx}"
        );
        assert_eq!(
            fast.energy.fj().to_bits(),
            slow.energy.fj().to_bits(),
            "energy not exact: {ctx}"
        );
        assert_eq!(
            fast.baseline_energy.fj().to_bits(),
            slow.baseline_energy.fj().to_bits(),
            "baseline not exact: {ctx}"
        );
        assert_eq!(fast.min_voltage, slow.min_voltage, "{ctx}");
        assert_eq!(
            fast.mean_voltage_mv.to_bits(),
            slow.mean_voltage_mv.to_bits(),
            "mean V not exact: {ctx}"
        );
        assert_eq!(fast.samples.len(), slow.samples.len(), "{ctx}");
        for (f, s) in fast.samples.iter().zip(&slow.samples) {
            assert_eq!(f.cycle, s.cycle, "{ctx}");
            assert_eq!(f.voltage, s.voltage, "{ctx}");
            assert_eq!(
                f.window_error_rate.to_bits(),
                s.window_error_rate.to_bits(),
                "window rate not exact at cycle {}: {ctx}",
                f.cycle
            );
        }
    }

    #[test]
    fn vectorized_replay_matches_scalar_across_governors() {
        // Each governor shapes chunks differently: the threshold
        // controller's decision windows, the proportional variant's
        // batch override, and a fixed supply's single maximal chunk
        // (one lane run over the whole trace, tail included).
        let d = design();
        assert_vectorized_matches_scalar(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Crafty,
            5,
            ThresholdController::new(d.controller_config(ProcessCorner::Typical)),
            120_000,
            Some(10_000),
        );
        assert_vectorized_matches_scalar(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Gap,
            9,
            razorbus_ctrl::ProportionalController::paper_band(
                d.controller_config(ProcessCorner::Typical),
            ),
            120_000,
            Some(17_500),
        );
        assert_vectorized_matches_scalar(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Mgrid,
            5,
            FixedVoltage::new(Millivolts::new(900)),
            60_007, // deliberately not a multiple of the 8-cycle lane
            None,
        );
    }

    #[test]
    fn vectorized_replay_matches_scalar_across_corners_and_designs() {
        // The worst corner requantizes a different threshold matrix;
        // the modified bus stresses different bins; idle-heavy swim
        // exercises the quiet-lane skip at scale.
        let d = design();
        assert_vectorized_matches_scalar(
            &d,
            PvtCorner::WORST,
            Benchmark::Swim,
            2,
            ThresholdController::new(d.controller_config(ProcessCorner::Slow)),
            120_000,
            None,
        );
        let modified = DvsBusDesign::modified_paper_bus();
        assert_vectorized_matches_scalar(
            &modified,
            PvtCorner::WORST,
            Benchmark::Vortex,
            11,
            ThresholdController::new(modified.controller_config(ProcessCorner::Slow)),
            60_000,
            Some(10_000),
        );
        assert_vectorized_matches_scalar(
            &modified,
            PvtCorner::TYPICAL,
            Benchmark::Gap,
            1,
            FixedVoltage::new(Millivolts::new(1_000)),
            40_000,
            None,
        );
    }

    #[test]
    fn vectorized_replay_matches_live_run_without_histogram() {
        // The lane path end-to-end against the live simulator, without
        // the histogram by-product the replay harness also compares.
        let d = design();
        let cycles = 80_000;
        let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Typical));
        let mut sim = BusSimulator::new(&d, PvtCorner::TYPICAL, Benchmark::Crafty.trace(7), ctrl);
        let live = sim.run(cycles);
        let compiled = crate::CompiledTrace::compile(&d, &mut Benchmark::Crafty.trace(7), cycles);
        let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Typical));
        let (replayed, _) = compiled.replay(&d, PvtCorner::TYPICAL, ctrl, None, false);
        assert_eq!(live.errors, replayed.errors);
        assert_eq!(live.shadow_violations, replayed.shadow_violations);
        assert_eq!(live.energy.fj().to_bits(), replayed.energy.fj().to_bits());
        assert_eq!(
            live.baseline_energy.fj().to_bits(),
            replayed.baseline_energy.fj().to_bits()
        );
        assert_eq!(
            live.mean_voltage_mv.to_bits(),
            replayed.mean_voltage_mv.to_bits()
        );
    }

    #[test]
    fn histogram_replay_takes_the_scalar_body_and_matches() {
        // Every histogram source folds through one `HistogramFold`: the
        // live `with_histogram` by-product, a histogram replay and the
        // compiled trace's own summary must be equal, and the replay's
        // other numbers must equal the plain replay's exactly.
        let d = design();
        let ctrl = ThresholdController::new(d.controller_config(ProcessCorner::Typical));
        let live = BusSimulator::new(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Mgrid.trace(8),
            ctrl.clone(),
        )
        .with_sampling(10_000)
        .with_histogram()
        .run(40_000);
        let compiled = crate::CompiledTrace::compile(&d, &mut Benchmark::Mgrid.trace(8), 40_000);
        let (with, _) = compiled.replay(&d, PvtCorner::TYPICAL, ctrl.clone(), Some(10_000), true);
        let (without, _) = compiled.replay(&d, PvtCorner::TYPICAL, ctrl, Some(10_000), false);
        let summary = compiled.summary();
        assert_eq!(live.summary.as_ref(), Some(&summary));
        assert_eq!(with.summary.as_ref(), Some(&summary));
        assert_eq!(without.summary, None);
        for report in [live, with] {
            assert_eq!(report.energy.fj().to_bits(), without.energy.fj().to_bits());
            assert_eq!(
                SimReport {
                    summary: None,
                    ..report
                },
                without
            );
        }
    }

    /// Differential harness for the fused replay: one
    /// [`CompiledTrace::replay_fused`] pass over an operating-point
    /// matrix against each member's solo [`CompiledTrace::replay`]
    /// under [`FixedVoltage`] — every reported number must match to the
    /// bit, sampled trajectories included.
    fn assert_fused_matches_solo(
        d: &DvsBusDesign,
        bench: Benchmark,
        seed: u64,
        ops: &[FusedOp],
        cycles: u64,
        sampling: Option<u64>,
    ) {
        let compiled = crate::CompiledTrace::compile(d, &mut bench.trace(seed), cycles);
        let fused = compiled.replay_fused(d, ops, sampling);
        assert_eq!(fused.len(), ops.len());
        for (op, f) in ops.iter().zip(&fused) {
            let (s, _) = compiled.replay(d, op.pvt, FixedVoltage::new(op.supply), sampling, false);
            let ctx = format!(
                "{bench} @ {} {}, fan-in {}, {cycles} cycles",
                op.pvt,
                op.supply,
                ops.len()
            );
            assert_eq!(f.cycles, s.cycles, "{ctx}");
            assert_eq!(f.errors, s.errors, "errors diverged: {ctx}");
            assert_eq!(
                f.shadow_violations, s.shadow_violations,
                "violations diverged: {ctx}"
            );
            assert_eq!(
                f.energy.fj().to_bits(),
                s.energy.fj().to_bits(),
                "energy not exact: {ctx}"
            );
            assert_eq!(
                f.baseline_energy.fj().to_bits(),
                s.baseline_energy.fj().to_bits(),
                "baseline not exact: {ctx}"
            );
            assert_eq!(f.min_voltage, s.min_voltage, "{ctx}");
            assert_eq!(
                f.mean_voltage_mv.to_bits(),
                s.mean_voltage_mv.to_bits(),
                "mean V not exact: {ctx}"
            );
            assert_eq!(f.samples.len(), s.samples.len(), "{ctx}");
            for (a, b) in f.samples.iter().zip(&s.samples) {
                assert_eq!(a.cycle, b.cycle, "{ctx}");
                assert_eq!(a.voltage, b.voltage, "{ctx}");
                assert_eq!(
                    a.window_error_rate.to_bits(),
                    b.window_error_rate.to_bits(),
                    "window rate not exact at cycle {}: {ctx}",
                    a.cycle
                );
            }
            assert!(f.summary.is_none(), "{ctx}");
        }
    }

    /// The Monte-Carlo-shaped matrix: `corners × supplies`, supplies on
    /// the 20 mV grid starting at 900 mV.
    fn op_matrix(corners: &[PvtCorner], supplies: usize) -> Vec<FusedOp> {
        corners
            .iter()
            .flat_map(|&pvt| {
                (0..supplies).map(move |k| FusedOp {
                    pvt,
                    supply: Millivolts::new(900 + 20 * k as i32),
                })
            })
            .collect()
    }

    #[test]
    fn fused_replay_matches_solo_across_fan_ins() {
        // Fan-in 1 (a singleton group still takes the fused path), 4
        // and 16 (the monte-carlo-dvs shape: 2 corners × 8 supplies),
        // with and without sampling, on an odd cycle count so the
        // trailing partial window and the lane tail are both exercised.
        let d = design();
        let corners = [PvtCorner::TYPICAL, PvtCorner::WORST];
        assert_fused_matches_solo(
            &d,
            Benchmark::Crafty,
            5,
            &op_matrix(&corners[..1], 1),
            60_007,
            Some(10_000),
        );
        assert_fused_matches_solo(
            &d,
            Benchmark::Mgrid,
            8,
            &op_matrix(&corners, 2),
            60_007,
            Some(10_000),
        );
        assert_fused_matches_solo(&d, Benchmark::Gap, 9, &op_matrix(&corners, 8), 60_007, None);
        assert_fused_matches_solo(
            &d,
            Benchmark::Swim,
            2,
            &op_matrix(&corners, 8),
            40_000,
            Some(17_500),
        );
    }

    #[test]
    fn fused_replay_matches_solo_on_the_modified_design() {
        // The modified bus rebuilds tables and stresses different bins;
        // its replay tables must key corners correctly there too.
        let modified = DvsBusDesign::modified_paper_bus();
        assert_fused_matches_solo(
            &modified,
            Benchmark::Vortex,
            11,
            &op_matrix(&[PvtCorner::TYPICAL, PvtCorner::WORST], 4),
            60_000,
            Some(10_000),
        );
    }

    #[test]
    fn fused_replay_of_no_ops_is_empty() {
        let d = design();
        let compiled = crate::CompiledTrace::compile(&d, &mut Benchmark::Crafty.trace(1), 1_000);
        assert!(compiled.replay_fused(&d, &[], None).is_empty());
    }

    #[test]
    #[should_panic(expected = "off the design grid")]
    fn fused_replay_refuses_an_off_grid_supply() {
        let d = design();
        let compiled = crate::CompiledTrace::compile(&d, &mut Benchmark::Crafty.trace(1), 1_000);
        let ops = [FusedOp {
            pvt: PvtCorner::TYPICAL,
            supply: Millivolts::new(905),
        }];
        let _ = compiled.replay_fused(&d, &ops, None);
    }

    /// Every tabulated corner: each paper condition at each IR drop.
    fn tabulated_corners() -> impl Iterator<Item = PvtCorner> {
        EnvCondition::PAPER_SET.into_iter().flat_map(|c| {
            razorbus_process::IrDrop::ALL.map(|ir| PvtCorner::new(c.corner, c.temperature, ir))
        })
    }

    fn row_bits(row: &VoltageRow) -> Vec<u64> {
        (row.pass.iter().chain(&row.shadow))
            .chain([&row.v2, &row.leak_fj, &row.recovery_fj])
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn cached_replay_tables_equal_a_fresh_build() {
        // The tables a design keeps are exactly what a run would build
        // for itself, at every tabulated corner and grid point.
        let designs = [
            design(),
            DvsBusDesign::modified_paper_bus(),
            DvsBusDesign::with_skew_cap(
                razorbus_wire::BusPhysical::paper_default(),
                razorbus_units::VoltageGrid::paper_default(),
                0.2,
            ),
        ];
        for (k, d) in designs.iter().enumerate() {
            for pvt in tabulated_corners() {
                let cached = d.replay_points(pvt);
                let fresh = voltage_rows(d, pvt);
                assert_eq!(cached.len(), d.grid().len(), "design {k} @ {pvt}");
                for (vi, (point, row)) in cached.iter().zip(&fresh).enumerate() {
                    let ctx = format!("design {k} @ {pvt}, grid point {vi}");
                    assert_eq!(row_bits(&point.row), row_bits(row), "{ctx}");
                    let thr = LaneThresholds::from_limits(&row.pass, &row.shadow);
                    assert_eq!(point.thr, thr, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn replay_tables_are_built_once_per_corner() {
        // Two threads touching a corner first at the same moment get one
        // table, and every later call returns that same table.
        let d = design();
        let addr = |pvt| d.replay_points(pvt).as_ptr() as usize;
        let barrier = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|s| {
            let touch = || {
                barrier.wait();
                addr(PvtCorner::WORST)
            };
            [s.spawn(touch), s.spawn(touch)].map(|h| h.join().expect("first-touch thread"))
        });
        assert_eq!(a, b, "a simultaneous first touch built two tables");
        assert_eq!(addr(PvtCorner::WORST), a, "a second call rebuilt the table");
        assert_ne!(addr(PvtCorner::SLOW_HOT), a, "IR drop shares a slot");
        assert_ne!(addr(PvtCorner::TYPICAL), a, "conditions share a slot");
    }

    #[test]
    fn performance_loss_equals_error_rate() {
        let d = design();
        let mut sim = BusSimulator::new(
            &d,
            PvtCorner::TYPICAL,
            Benchmark::Mgrid.trace(8),
            FixedVoltage::new(Millivolts::new(900)),
        );
        let r = sim.run(20_000);
        assert!(r.errors > 0, "expected errors at 900 mV for mgrid");
        assert!((r.performance_loss() - r.error_rate()).abs() < 1e-15);
    }
}
