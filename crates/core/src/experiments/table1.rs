//! Table 1: per-benchmark energy gains of fixed voltage scaling vs. the
//! proposed DVS scheme at the two headline corners.

use crate::design::DvsBusDesign;
use crate::experiments::{fig8, SummaryBank};
use razorbus_process::PvtCorner;
use razorbus_traces::Benchmark;
use razorbus_units::Millivolts;

/// One benchmark's row at one corner.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// The program.
    pub benchmark: Benchmark,
    /// Fixed-VS energy gain (zero-error guarantee), fraction.
    pub fixed_gain: f64,
    /// Proposed-DVS energy gain, fraction.
    pub dvs_gain: f64,
    /// Proposed-DVS average error rate, fraction.
    pub dvs_error_rate: f64,
}

/// Table 1 for one corner.
#[derive(Debug, Clone)]
pub struct Table1Corner {
    /// The corner.
    pub corner: PvtCorner,
    /// The fixed-VS supply used (same for every program).
    pub fixed_voltage: Millivolts,
    /// Per-program rows in Table 1 order.
    pub rows: Vec<Table1Row>,
    /// Totals row: combined fixed gain, DVS gain, DVS error rate.
    pub total: Table1Row,
}

/// The full table (both corners).
#[derive(Debug, Clone)]
pub struct Table1Data {
    /// (slow, 100 °C, 10 % IR) and (typical, 100 °C, no IR).
    pub corners: Vec<Table1Corner>,
}

/// Builds Table 1: fixed-VS gains from the per-benchmark summaries of
/// the shared (corner-independent) bank, DVS gains from the two
/// corners' consecutive closed-loop runs (the Fig. 8 protocol).
#[must_use]
pub fn from_parts(
    design: &DvsBusDesign,
    bank: &SummaryBank,
    worst_dvs: &fig8::Fig8Data,
    typical_dvs: &fig8::Fig8Data,
) -> Table1Data {
    let corners = [
        (PvtCorner::WORST, worst_dvs),
        (PvtCorner::TYPICAL, typical_dvs),
    ]
    .into_iter()
    .map(|(corner, dvs)| one_corner(design, corner, bank, dvs))
    .collect();
    Table1Data { corners }
}

fn one_corner(
    design: &DvsBusDesign,
    corner: PvtCorner,
    bank: &SummaryBank,
    dvs: &fig8::Fig8Data,
) -> Table1Corner {
    let fixed_v = design.fixed_vs_voltage(corner.process);
    let summaries = bank.per_benchmark();

    let mut rows = Vec::with_capacity(Benchmark::ALL.len());
    let mut total_fixed_e = 0.0;
    let mut total_fixed_base = 0.0;
    let mut total_dvs_e = 0.0;
    let mut total_dvs_base = 0.0;
    let mut total_errors = 0u64;
    let mut total_cycles = 0u64;
    for ((benchmark, summary), segment) in summaries.iter().zip(&dvs.segments) {
        assert_eq!(*benchmark, segment.benchmark, "order mismatch");
        // Fixed VS guarantees zero errors, so no recovery term.
        let base = summary.energy(design, corner, design.nominal(), false);
        let at_fixed = summary.energy(design, corner, fixed_v, false);
        debug_assert_eq!(
            summary.error_cycles(design, corner, fixed_v),
            0,
            "fixed VS must be error-free"
        );
        let fixed_gain = 1.0 - at_fixed / base;
        total_fixed_e += at_fixed.fj();
        total_fixed_base += base.fj();

        let r = &segment.report;
        total_dvs_e += r.energy.fj();
        total_dvs_base += r.baseline_energy.fj();
        total_errors += r.errors;
        total_cycles += r.cycles;
        rows.push(Table1Row {
            benchmark: *benchmark,
            fixed_gain,
            dvs_gain: r.energy_gain(),
            dvs_error_rate: r.error_rate(),
        });
    }
    let total = Table1Row {
        benchmark: Benchmark::Crafty, // placeholder; totals carry no program
        fixed_gain: 1.0 - total_fixed_e / total_fixed_base,
        dvs_gain: 1.0 - total_dvs_e / total_dvs_base,
        dvs_error_rate: total_errors as f64 / total_cycles as f64,
    };
    Table1Corner {
        corner,
        fixed_voltage: fixed_v,
        rows,
        total,
    }
}

impl Table1Data {
    /// Prints the table in the paper's layout.
    pub fn print(&self) {
        println!("Table 1 — energy gains with the two voltage-scaling schemes");
        for c in &self.corners {
            println!(
                "\n  {}  (fixed VS supply: {} mV)",
                c.corner,
                c.fixed_voltage.mv()
            );
            println!(
                "  {:<12} {:>14} {:>12} {:>14}",
                "benchmark", "fixed VS gain", "DVS gain", "DVS err rate"
            );
            for (i, r) in c.rows.iter().enumerate() {
                println!(
                    "  {:>2}. {:<9} {:>13.1}% {:>11.1}% {:>13.2}%",
                    i + 1,
                    r.benchmark.name(),
                    r.fixed_gain * 100.0,
                    r.dvs_gain * 100.0,
                    r.dvs_error_rate * 100.0
                );
            }
            println!(
                "  {:<13} {:>13.1}% {:>11.1}% {:>13.2}%",
                "Total",
                c.total.fixed_gain * 100.0,
                c.total.dvs_gain * 100.0,
                c.total.dvs_error_rate * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_structure() {
        let d = DvsBusDesign::paper_default();
        let t = from_parts(
            &d,
            &SummaryBank::collect(&d, 40_000, 2),
            &fig8::run(&d, PvtCorner::WORST, 40_000, 2),
            &fig8::run(&d, PvtCorner::TYPICAL, 40_000, 2),
        );
        assert_eq!(t.corners.len(), 2);
        let worst = &t.corners[0];
        let typical = &t.corners[1];

        // Worst corner: fixed VS gains exactly zero (supply stays 1.2 V).
        assert_eq!(worst.fixed_voltage, Millivolts::new(1_200));
        for r in &worst.rows {
            assert!(r.fixed_gain.abs() < 1e-9);
        }
        // Typical corner: fixed VS gains are real but uniform-ish.
        assert!(typical.fixed_voltage < Millivolts::new(1_200));
        for r in &typical.rows {
            assert!(r.fixed_gain > 0.10, "{:?}", r);
        }
        // DVS beats fixed VS on total at both corners.
        for c in &t.corners {
            assert!(
                c.total.dvs_gain > c.total.fixed_gain,
                "{}: DVS {} vs fixed {}",
                c.corner,
                c.total.dvs_gain,
                c.total.fixed_gain
            );
        }
        // Typical-corner DVS gains dwarf worst-corner DVS gains.
        assert!(typical.total.dvs_gain > worst.total.dvs_gain + 0.10);
    }
}
