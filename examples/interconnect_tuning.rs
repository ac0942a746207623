//! The §6 interconnect-architecture study: boost the coupling ratio at
//! constant worst-case delay (Fig. 10) and project the technique across
//! technology nodes.
//!
//! ```sh
//! cargo run --release --example interconnect_tuning
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

    let base = DvsBusDesign::paper_default();
    let modified = DvsBusDesign::modified_paper_bus();

    println!(
        "coupling ratio: {:.2} -> {:.2} (x{:.2}) at constant worst-case load {:.0} fF/mm",
        base.bus().parasitics().coupling_ratio(),
        modified.bus().parasitics().coupling_ratio(),
        modified.bus().parasitics().coupling_ratio() / base.bus().parasitics().coupling_ratio(),
        modified.worst_ceff().ff(),
    );
    println!(
        "fastest path: {:.0} -> {:.0} (the §6 hold-time trade-off)",
        base.bus().min_path_delay(),
        modified.bus().min_path_delay(),
    );

    let fig10 = experiments::fig10::from_parts(
        &base,
        &modified,
        &experiments::combined_summary(&base, cycles, 13),
        &experiments::combined_summary(&modified, cycles, 13),
        &experiments::fig8::run(&base, PvtCorner::WORST, cycles, 13),
        &experiments::fig8::run(&modified, PvtCorner::WORST, cycles, 13),
    );
    fig10.print();

    println!();
    let scaling = experiments::scaling::run(cycles / 2, 13);
    scaling.print();
}
