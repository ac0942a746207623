//! Fig. 6: distribution of the *optimal* (oracle) supply voltage over
//! time for three programs at fixed target error rates, typical corner.

use crate::design::DvsBusDesign;
use crate::summary::WindowedSummary;
use razorbus_process::PvtCorner;
use razorbus_traces::Benchmark;
use razorbus_units::Millivolts;

/// The programs the paper plots.
pub const PROGRAMS: [Benchmark; 3] = [Benchmark::Crafty, Benchmark::Vortex, Benchmark::Mgrid];

/// The oracle's window: it picks one supply per 10 000 cycles.
pub const WINDOW_LEN: u64 = 10_000;

/// The two target error rates of the figure's panels.
pub const TARGETS: [f64; 2] = [0.02, 0.05];

/// One (program, target) residency histogram.
#[derive(Debug, Clone)]
pub struct Fig6Entry {
    /// Program.
    pub benchmark: Benchmark,
    /// Target error rate for the oracle.
    pub target: f64,
    /// (voltage, fraction of time) pairs, ascending voltage.
    pub residency: Vec<(Millivolts, f64)>,
}

impl Fig6Entry {
    /// Time-weighted mean voltage.
    #[must_use]
    pub fn mean_voltage_mv(&self) -> f64 {
        self.residency
            .iter()
            .map(|(v, f)| f64::from(v.mv()) * f)
            .sum()
    }
}

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig6Data {
    /// The analyzed corner (typical process, 100 °C, no IR in the paper).
    pub corner: PvtCorner,
    /// One entry per (program, target).
    pub entries: Vec<Fig6Entry>,
}

/// The figure's data at `corner`: each program's windowed summary
/// (windows of [`WINDOW_LEN`] cycles) read by the oracle at both
/// [`TARGETS`], one entry per (program, target), program-major.
#[must_use]
pub fn from_windows(
    design: &DvsBusDesign,
    corner: PvtCorner,
    programs: &[(Benchmark, &WindowedSummary)],
) -> Fig6Data {
    let entries = programs
        .iter()
        .flat_map(|&(benchmark, windows)| {
            TARGETS.iter().map(move |&target| Fig6Entry {
                benchmark,
                target,
                residency: windows.oracle_residency(design, corner, target),
            })
        })
        .collect();
    Fig6Data { corner, entries }
}

impl Fig6Data {
    /// Prints both panels.
    pub fn print(&self) {
        println!("Fig. 6 — optimal supply residency ({})", self.corner);
        for &target in &TARGETS {
            println!("  target error rate {:.0}%:", target * 100.0);
            for e in self.entries.iter().filter(|e| e.target == target) {
                let cells: Vec<String> = e
                    .residency
                    .iter()
                    .map(|(v, f)| format!("{}:{:.0}%", v.mv(), f * 100.0))
                    .collect();
                println!("    {:<8} {}", e.benchmark.name(), cells.join("  "));
            }
        }
    }
}
