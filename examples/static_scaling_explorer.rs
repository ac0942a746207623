//! Static voltage-scaling exploration (§4, Figs. 4–5): sweep the supply
//! across every PVT corner and print where errors start, how fast they
//! grow, and what energy each target error rate buys.
//!
//! ```sh
//! cargo run --release --example static_scaling_explorer
//! ```

use razorbus::core::{experiments, parse_count_knob, DvsBusDesign};
use razorbus::process::PvtCorner;

fn main() {
    let cycles = match parse_count_knob("RAZORBUS_CYCLES", std::env::var_os("RAZORBUS_CYCLES")) {
        Ok(n) => n.map_or(200_000, |n| n as u64),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let design = DvsBusDesign::paper_default();
    // One all-benchmarks histogram serves every corner below: it is
    // corner-independent.
    let summary = experiments::combined_summary(&design, cycles, 11);

    // Fig. 4: the two corners the paper plots.
    for corner in [PvtCorner::WORST, PvtCorner::TYPICAL] {
        let data = experiments::fig4::from_summary(&design, corner, &summary);
        data.print();
        match data.first_failure_voltage() {
            Some(v) => println!("  first failures appear at {v}\n"),
            None => println!("  error-free across the whole sweep\n"),
        }
    }

    // Fig. 5: all five corners, three target error rates.
    let fig5 = experiments::fig5::from_summary(&design, &summary);
    fig5.print();

    // The §4 observation that 0% and 2% targets often coincide on the
    // 20 mV grid ("the error rates jump directly from 0 to above 2%").
    let coincident = fig5
        .rows
        .iter()
        .filter(|r| r.voltage[0] == r.voltage[1])
        .count();
    println!("\ncorners where the 0% and 2% supplies coincide on the 20 mV grid: {coincident}/5");
}
