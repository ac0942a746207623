//! The paper's headline scenario (§5, Fig. 8 / Table 1): ten SPEC2000
//! programs run consecutively on the memory read bus while the DVS
//! controller rides the error-rate band — at the worst corner and at the
//! typical corner.
//!
//! ```sh
//! cargo run --release --example dvs_memory_bus
//! # more cycles per program:
//! RAZORBUS_CYCLES=10000000 cargo run --release --example dvs_memory_bus
//! ```

use razorbus::core::{experiments, parse_count_knob, DvsBusDesign};
use razorbus::process::PvtCorner;

fn main() {
    let cycles = match parse_count_knob("RAZORBUS_CYCLES", std::env::var_os("RAZORBUS_CYCLES")) {
        Ok(n) => n.map_or(1_000_000, |n| n as u64),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let design = DvsBusDesign::paper_default();

    for corner in [PvtCorner::WORST, PvtCorner::TYPICAL] {
        println!("================ {corner} ================");
        let data = experiments::fig8::run(&design, corner, cycles, 7);
        for (i, seg) in data.segments.iter().enumerate() {
            println!(
                "{:>2}. {:<8} gain {:>5.1}%  err {:>5.2}%  V in [{}, {:.0}] mV",
                i + 1,
                seg.benchmark.name(),
                seg.report.energy_gain() * 100.0,
                seg.report.error_rate() * 100.0,
                seg.report.min_voltage.mv(),
                seg.report.mean_voltage_mv,
            );
        }
        println!(
            "TOTAL gain {:.1}%  err {:.2}%  peak window err {:.1}%\n",
            data.total_energy_gain() * 100.0,
            data.total_error_rate() * 100.0,
            data.peak_window_error_rate() * 100.0,
        );
    }
}
