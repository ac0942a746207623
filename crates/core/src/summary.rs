//! Compact per-trace summaries: the sweep engine.
//!
//! The paper's methodology tabulates per-pattern delay/energy once and
//! then replays traces against the tables. We compress further: a trace's
//! entire interaction with the timing model is captured by a 2-D
//! histogram over (activity bucket, worst-wire effective capacitance) — a
//! few kilobytes — after which evaluating *any* supply voltage, corner or
//! target error rate is a table walk, independent of trace length.

use crate::design::DvsBusDesign;
use razorbus_process::PvtCorner;
use razorbus_tables::EnvCondition;
use razorbus_traces::TraceSource;
use razorbus_units::Femtojoules;

/// Width of one effective-capacitance histogram bin (fF/mm).
pub const CEFF_BIN_WIDTH: f64 = 1.0;
/// Number of capacitance bins (covers 0 – 512 fF/mm, beyond any load the
/// paper bus can present).
pub const N_CEFF_BINS: usize = 512;
/// Activity buckets (must match the threshold matrix). Also the bucket
/// count of every fixed-range campaign-digest histogram in
/// `razorbus-scenario`, which quantizes through [`bucket_of`] so the
/// whole stack shares one bucketing rule.
pub const N_BUCKETS: usize = 9;

#[inline]
pub(crate) fn bin_of(ceff: f64) -> usize {
    ((ceff / CEFF_BIN_WIDTH) as usize).min(N_CEFF_BINS - 1)
}

/// Activity bucket of a cycle's toggle count — the single quantization
/// rule shared by the histogram engine ([`TraceSummary::collect`]), the
/// streaming simulator's hot loops, the compiled-trace replay path and
/// the scenario layer's campaign-digest histograms, so none of them can
/// drift apart. The unit is a *quarter step*: four consecutive units
/// per bucket, everything past the last edge clamped into the top
/// bucket.
#[inline]
#[must_use]
pub fn bucket_of(toggled_wires: u32) -> usize {
    ((toggled_wires / 4) as usize).min(N_BUCKETS - 1)
}

/// Lower edge (fF/mm) of the histogram bin containing `ceff` — the
/// quantized load both the histogram engine and the streaming simulator
/// compare against pass limits, keeping them in exact agreement.
#[inline]
#[must_use]
pub(crate) fn ceff_bin_floor(ceff: f64) -> f64 {
    bin_of(ceff) as f64 * CEFF_BIN_WIDTH
}

/// Whole-trace histogram summary.
///
/// ```
/// use razorbus_core::{DvsBusDesign, TraceSummary};
/// use razorbus_process::PvtCorner;
/// use razorbus_traces::Benchmark;
/// use razorbus_units::Millivolts;
///
/// let design = DvsBusDesign::paper_default();
/// let summary = TraceSummary::collect(&design, &mut Benchmark::Crafty.trace(1), 50_000);
/// // At nominal supply the typical corner is error-free.
/// let rate = summary.error_rate(&design, PvtCorner::TYPICAL, Millivolts::new(1_200));
/// assert_eq!(rate, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TraceSummary {
    /// `hist[bucket * N_CEFF_BINS + bin]` — cycles by (activity, load).
    hist: Vec<u64>,
    /// Sum over cycles of charge-weighted switched capacitance (fF/mm).
    total_switched_cap_per_mm: f64,
    /// Total wire toggles.
    total_toggles: u64,
    cycles: u64,
}

/// Validating deserialization: a summary read back from an artifact must
/// hold the exact histogram shape every query method indexes into, at
/// least one cycle, and a finite capacitance sum — corrupt cache files
/// error instead of panicking mid-sweep.
impl<'de> serde::Deserialize<'de> for TraceSummary {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            hist: Vec<u64>,
            total_switched_cap_per_mm: f64,
            total_toggles: u64,
            cycles: u64,
        }
        use serde::de::Error;
        let Repr {
            hist,
            total_switched_cap_per_mm,
            total_toggles,
            cycles,
        } = Repr::deserialize(deserializer)?;
        if hist.len() != N_BUCKETS * N_CEFF_BINS {
            return Err(D::Error::custom(format!(
                "summary histogram shape mismatch: {} bins, expected {}",
                hist.len(),
                N_BUCKETS * N_CEFF_BINS
            )));
        }
        if cycles == 0 {
            return Err(D::Error::custom("summary over zero cycles"));
        }
        if !total_switched_cap_per_mm.is_finite() {
            return Err(D::Error::custom("non-finite switched capacitance"));
        }
        Ok(Self {
            hist,
            total_switched_cap_per_mm,
            total_toggles,
            cycles,
        })
    }
}

impl TraceSummary {
    /// Drains `cycles` words from `trace` through `design`'s bus and
    /// accumulates the histogram.
    ///
    /// # Panics
    ///
    /// Panics if `cycles == 0`.
    #[must_use]
    pub fn collect<S: TraceSource>(design: &DvsBusDesign, trace: &mut S, cycles: u64) -> Self {
        assert!(cycles > 0, "need at least one cycle");
        let mut analyzer = design.bus().analyzer();
        let mut hist = vec![0u64; N_BUCKETS * N_CEFF_BINS];
        let mut total_cap = 0.0f64;
        let mut toggles = 0u64;
        let mut prev = trace.next_word();
        for _ in 0..cycles {
            let cur = trace.next_word();
            let a = analyzer.analyze(prev, cur);
            prev = cur;
            if a.toggled_wires == 0 {
                continue;
            }
            let bucket = bucket_of(a.toggled_wires);
            hist[bucket * N_CEFF_BINS + bin_of(a.worst_ceff_per_mm)] += 1;
            total_cap += a.switched_cap_per_mm;
            toggles += u64::from(a.toggled_wires);
        }
        Self {
            hist,
            total_switched_cap_per_mm: total_cap,
            total_toggles: toggles,
            cycles,
        }
    }

    /// Assembles a summary from raw accumulators — used by the streaming
    /// simulator, whose batched loop computes the identical per-cycle
    /// (bucket, load-bin) classification and can therefore produce the
    /// histogram as a by-product of a closed-loop run.
    ///
    /// # Panics
    ///
    /// Panics if the histogram shape is wrong or `cycles == 0`.
    #[must_use]
    pub(crate) fn from_parts(
        hist: Vec<u64>,
        total_switched_cap_per_mm: f64,
        total_toggles: u64,
        cycles: u64,
    ) -> Self {
        assert_eq!(hist.len(), N_BUCKETS * N_CEFF_BINS, "histogram shape");
        assert!(cycles > 0, "need at least one cycle");
        Self {
            hist,
            total_switched_cap_per_mm,
            total_toggles,
            cycles,
        }
    }

    /// Merges another summary (same design) into this one — used to
    /// combine the ten benchmarks for Figs. 4/5/10.
    ///
    /// # Panics
    ///
    /// Panics if the histograms have different shapes.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.hist.len(), other.hist.len(), "summary shapes differ");
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
        self.total_switched_cap_per_mm += other.total_switched_cap_per_mm;
        self.total_toggles += other.total_toggles;
        self.cycles += other.cycles;
    }

    /// Cycles summarized.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Mean toggling wires per cycle.
    #[must_use]
    pub fn mean_toggles(&self) -> f64 {
        self.total_toggles as f64 / self.cycles as f64
    }

    /// Number of cycles whose worst wire misses the *main* flop setup at
    /// supply `v` under corner `pvt` — i.e. Razor error cycles.
    ///
    /// # Panics
    ///
    /// Panics if `v` is off-grid.
    #[must_use]
    pub fn error_cycles(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        v: razorbus_units::Millivolts,
    ) -> u64 {
        let matrix = design
            .tables()
            .threshold_matrix(EnvCondition::from_pvt(pvt), pvt.ir);
        let vi = design
            .grid()
            .index_of(v)
            .unwrap_or_else(|| panic!("voltage {v} off grid"));
        let row = matrix.row(vi);
        let mut errors = 0u64;
        for (bucket, &limit) in row.iter().enumerate().take(N_BUCKETS) {
            let start = if limit < 0.0 {
                0
            } else {
                ((limit / CEFF_BIN_WIDTH).floor() as usize + 1).min(N_CEFF_BINS)
            };
            errors += self.hist[bucket * N_CEFF_BINS + start..(bucket + 1) * N_CEFF_BINS]
                .iter()
                .sum::<u64>();
        }
        errors
    }

    /// Error rate at `(pvt, v)`.
    #[must_use]
    pub fn error_rate(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        v: razorbus_units::Millivolts,
    ) -> f64 {
        self.error_cycles(design, pvt, v) as f64 / self.cycles as f64
    }

    /// Same against the *shadow* budget: cycles that would corrupt even
    /// the shadow latch (must be zero wherever the regulator may sit).
    #[must_use]
    pub fn shadow_violation_cycles(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        v: razorbus_units::Millivolts,
    ) -> u64 {
        let matrix = design
            .tables()
            .shadow_threshold_matrix(EnvCondition::from_pvt(pvt), pvt.ir);
        let vi = design
            .grid()
            .index_of(v)
            .unwrap_or_else(|| panic!("voltage {v} off grid"));
        let row = matrix.row(vi);
        let mut violations = 0u64;
        for (bucket, &limit) in row.iter().enumerate().take(N_BUCKETS) {
            let start = if limit < 0.0 {
                0
            } else {
                ((limit / CEFF_BIN_WIDTH).floor() as usize + 1).min(N_CEFF_BINS)
            };
            violations += self.hist[bucket * N_CEFF_BINS + start..(bucket + 1) * N_CEFF_BINS]
                .iter()
                .sum::<u64>();
        }
        violations
    }

    /// Total bus energy of replaying this trace at fixed supply `v`
    /// under `pvt`, including dynamic wire + repeater energy, flop
    /// clocking/data, leakage, and (optionally) error-recovery overhead.
    #[must_use]
    pub fn energy(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        v: razorbus_units::Millivolts,
        include_recovery: bool,
    ) -> Femtojoules {
        let tables = design.tables();
        let cond = EnvCondition::from_pvt(pvt);
        let energy = tables.energy_table(cond);
        let vi = design.grid().index_of(v).expect("voltage on grid");
        let v2 = energy.v_squared_at(vi);
        let volts = v.to_volts();

        let length_mm = design.bus().line().total_length().mm();
        let wire_fj = self.total_switched_cap_per_mm * length_mm * v2;
        let repeater_fj = self.total_toggles as f64 * tables.repeater_cap_per_toggle().ff() * v2;
        let n_flops = tables.n_bits();
        let fe = design.flop_energy();
        let flop_clock_fj = fe.clock_capacitance(n_flops).ff() * v2 * self.cycles as f64;
        let flop_data_fj = fe.data_capacitance().ff() * v2 * self.total_toggles as f64;
        let leak_fj = energy.leakage_per_cycle_at(vi).fj() * self.cycles as f64;

        let mut total = wire_fj + repeater_fj + flop_clock_fj + flop_data_fj + leak_fj;
        if include_recovery {
            let errors = self.error_cycles(design, pvt, v);
            total += errors as f64 * fe.recovery_energy(n_flops, 1, volts).fj();
        }
        Femtojoules::new(total)
    }

    /// Energy gain (fraction) of running at `v` versus the nominal
    /// supply, recovery overhead included.
    #[must_use]
    pub fn energy_gain(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        v: razorbus_units::Millivolts,
    ) -> f64 {
        let base = self.energy(design, pvt, design.nominal(), false);
        let at_v = self.energy(design, pvt, v, true);
        1.0 - at_v / base
    }

    /// Lowest grid voltage whose error rate stays within `target`,
    /// respecting the corner's static shadow floor (§4's sweep rule).
    /// Returns the nominal voltage when no scaling is possible.
    #[must_use]
    pub fn lowest_voltage_for_error_rate(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        target: f64,
    ) -> razorbus_units::Millivolts {
        let floor = design.static_shadow_floor(pvt);
        design
            .grid()
            .iter()
            .filter(|&v| v >= floor)
            .find(|&v| self.error_rate(design, pvt, v) <= target)
            .unwrap_or_else(|| design.nominal())
    }
}

/// Per-window (10 000-cycle) summaries for the oracle analysis of Fig. 6.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct WindowedSummary {
    /// One [`TraceSummary`] per window, in trace order.
    windows: Vec<TraceSummary>,
    window_len: u64,
}

/// Validating deserialization: at least one window, a positive window
/// length, and every window (itself a validated [`TraceSummary`])
/// summarizing exactly that many cycles.
impl<'de> serde::Deserialize<'de> for WindowedSummary {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            windows: Vec<TraceSummary>,
            window_len: u64,
        }
        use serde::de::Error;
        let Repr {
            windows,
            window_len,
        } = Repr::deserialize(deserializer)?;
        if windows.is_empty() || windows.iter().any(|w| w.cycles != window_len) {
            return Err(D::Error::custom(format!(
                "windowing must hold one or more windows of {window_len} cycles each"
            )));
        }
        Ok(Self {
            windows,
            window_len,
        })
    }
}

impl WindowedSummary {
    /// Collects `n_windows` windows of `window_len` cycles each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn collect<S: TraceSource>(
        design: &DvsBusDesign,
        trace: &mut S,
        n_windows: usize,
        window_len: u64,
    ) -> Self {
        assert!(n_windows > 0 && window_len > 0, "empty windowing");
        let windows = (0..n_windows)
            .map(|_| TraceSummary::collect(design, trace, window_len))
            .collect();
        Self {
            windows,
            window_len,
        }
    }

    /// Window length in cycles.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// The per-window summaries.
    #[must_use]
    pub fn windows(&self) -> &[TraceSummary] {
        &self.windows
    }

    /// The §5/Fig. 6 oracle: for each window, the lowest voltage (at or
    /// above the corner's shadow floor) keeping that window's error rate
    /// within `target`. This is "optimal supply voltage selection (with
    /// the knowledge of future program switching behavior)".
    #[must_use]
    pub fn oracle_voltages(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        target: f64,
    ) -> Vec<razorbus_units::Millivolts> {
        self.windows
            .iter()
            .map(|w| w.lowest_voltage_for_error_rate(design, pvt, target))
            .collect()
    }

    /// Residency histogram: fraction of time the oracle spends at each
    /// grid voltage (only voltages with non-zero residency are returned,
    /// ascending).
    #[must_use]
    pub fn oracle_residency(
        &self,
        design: &DvsBusDesign,
        pvt: PvtCorner,
        target: f64,
    ) -> Vec<(razorbus_units::Millivolts, f64)> {
        let choices = self.oracle_voltages(design, pvt, target);
        let grid = design.grid();
        let mut counts = vec![0u64; grid.len()];
        for v in &choices {
            counts[grid.index_of(*v).expect("oracle picks grid points")] += 1;
        }
        counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (grid.at(i), c as f64 / choices.len() as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_traces::Benchmark;
    use razorbus_units::Millivolts;

    fn design() -> DvsBusDesign {
        DvsBusDesign::paper_default()
    }

    #[test]
    fn error_rate_monotone_in_voltage() {
        let d = design();
        let s = TraceSummary::collect(&d, &mut Benchmark::Mgrid.trace(3), 30_000);
        // Monotone check ascending: rate must not increase with V.
        let rates: Vec<f64> = d
            .grid()
            .iter()
            .map(|v| s.error_rate(&d, PvtCorner::TYPICAL, v))
            .collect();
        assert!(rates.windows(2).all(|w| w[1] <= w[0] + 1e-12), "{rates:?}");
    }

    #[test]
    fn design_corner_is_error_free_at_nominal() {
        let d = design();
        let s = TraceSummary::collect(&d, &mut Benchmark::Mgrid.trace(5), 30_000);
        assert_eq!(
            s.error_cycles(&d, PvtCorner::WORST, Millivolts::new(1_200)),
            0
        );
        assert_eq!(
            s.shadow_violation_cycles(&d, PvtCorner::WORST, Millivolts::new(1_200)),
            0
        );
    }

    #[test]
    fn energy_shrinks_quadratically_with_voltage() {
        let d = design();
        let s = TraceSummary::collect(&d, &mut Benchmark::Crafty.trace(7), 20_000);
        let hi = s.energy(&d, PvtCorner::TYPICAL, Millivolts::new(1_200), false);
        let lo = s.energy(&d, PvtCorner::TYPICAL, Millivolts::new(900), false);
        let ratio = lo / hi;
        // Dynamic part scales by (0.9/1.2)^2 = 0.5625; leakage softens it.
        assert!((0.5..0.65).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn merge_combines_cycles_and_histograms() {
        let d = design();
        let mut a = TraceSummary::collect(&d, &mut Benchmark::Crafty.trace(1), 10_000);
        let b = TraceSummary::collect(&d, &mut Benchmark::Mgrid.trace(1), 10_000);
        let ea = a.error_cycles(&d, PvtCorner::TYPICAL, Millivolts::new(900));
        let eb = b.error_cycles(&d, PvtCorner::TYPICAL, Millivolts::new(900));
        a.merge(&b);
        assert_eq!(a.cycles(), 20_000);
        assert_eq!(
            a.error_cycles(&d, PvtCorner::TYPICAL, Millivolts::new(900)),
            ea + eb
        );
    }

    #[test]
    fn crafty_scales_deeper_than_mgrid() {
        let d = design();
        let crafty = TraceSummary::collect(&d, &mut Benchmark::Crafty.trace(2), 60_000);
        let mgrid = TraceSummary::collect(&d, &mut Benchmark::Mgrid.trace(2), 60_000);
        let v_crafty = crafty.lowest_voltage_for_error_rate(&d, PvtCorner::TYPICAL, 0.02);
        let v_mgrid = mgrid.lowest_voltage_for_error_rate(&d, PvtCorner::TYPICAL, 0.02);
        assert!(v_crafty < v_mgrid, "crafty {v_crafty} !< mgrid {v_mgrid}");
    }

    #[test]
    fn oracle_residency_sums_to_one() {
        let d = design();
        let mut trace = Benchmark::Vortex.trace(9);
        let w = WindowedSummary::collect(&d, &mut trace, 20, 5_000);
        let residency = w.oracle_residency(&d, PvtCorner::TYPICAL, 0.02);
        let total: f64 = residency.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Looser target never needs a higher voltage in any window.
        let tight = w.oracle_voltages(&d, PvtCorner::TYPICAL, 0.02);
        let loose = w.oracle_voltages(&d, PvtCorner::TYPICAL, 0.05);
        for (t, l) in tight.iter().zip(&loose) {
            assert!(l <= t);
        }
    }
}
