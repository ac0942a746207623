//! The §6 interconnect-architecture study: boost the coupling ratio at
//! constant worst-case delay (Fig. 10) and project the technique across
//! technology nodes.
//!
//! ```sh
//! cargo run --release --example interconnect_tuning
//! ```

use razorbus::core::{parse_count_knob, DvsBusDesign};
use razorbus::scenario::paper;

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

    // Fig. 10's two buses and the four technology nodes (at half the
    // cycles) as one campaign through the scenario executor.
    let mut set = paper::fig10_set(cycles, 13);
    set.members
        .extend(paper::scaling_set(2 * cycles, 13).members);
    let run = set.run().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    paper::fig10_data(&run).expect("fig10 members").print();

    println!();
    paper::scaling_data(&run).expect("scaling members").print();
}
