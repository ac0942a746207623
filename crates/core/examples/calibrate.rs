//! Developer probe: prints the calibration quantities DESIGN.md §4
//! anchors against (per-benchmark error onset, closed-loop equilibrium,
//! floors and fixed-VS baselines).

use razorbus_core::{parse_count_knob, BusSimulator, DvsBusDesign, TraceSummary};
use razorbus_ctrl::ThresholdController;
use razorbus_process::{ProcessCorner, PvtCorner};
use razorbus_traces::Benchmark;

fn main() {
    let cycles = match parse_count_knob("RAZORBUS_CYCLES", std::env::var_os("RAZORBUS_CYCLES")) {
        Ok(n) => n.map_or(300_000, |n| n as u64),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let design = DvsBusDesign::paper_default();

    println!("shadow skew: {:.1}", design.skew().chosen_skew());
    for p in ProcessCorner::ALL {
        println!(
            "{p:?}: regulator floor {}, fixed VS {}",
            design.regulator_floor(p),
            design.fixed_vs_voltage(p)
        );
    }

    for corner in [PvtCorner::WORST, PvtCorner::TYPICAL] {
        println!("\n=== {corner} (cycles/bench: {cycles}) ===");
        println!(
            "{:<9} {:>7} {:>8} {:>8} {:>7} | {:>8} {:>7} {:>7} {:>8}",
            "bench",
            "P(err)@",
            "V(2%)",
            "V(5%)",
            "tgl/cyc",
            "DVS gain",
            "DVS err",
            "minV",
            "fixedVS"
        );
        let fixed_v = design.fixed_vs_voltage(corner.process);
        for b in Benchmark::ALL {
            let mut trace = b.trace(7);
            let s = TraceSummary::collect(&design, &mut trace, cycles);
            // error rate one step below the zero-error onset
            let v0 = s.lowest_voltage_for_error_rate(&design, corner, 0.0);
            let below = design.grid().snap_up(v0 - design.grid().step());
            let p_below = s.error_rate(&design, corner, below);
            let v2 = s.lowest_voltage_for_error_rate(&design, corner, 0.02);
            let v5 = s.lowest_voltage_for_error_rate(&design, corner, 0.05);

            let ctrl = ThresholdController::new(design.controller_config(corner.process));
            let mut sim = BusSimulator::new(&design, corner, b.trace(7), ctrl);
            let r = sim.run(cycles);
            let fixed_gain = {
                let base = s.energy(&design, corner, design.nominal(), false);
                1.0 - s.energy(&design, corner, fixed_v, false) / base
            };
            println!(
                "{:<9} {:>6.2}% {:>8} {:>8} {:>7.1} | {:>7.1}% {:>6.2}% {:>7} {:>7.1}%",
                b.name(),
                p_below * 100.0,
                v2.mv(),
                v5.mv(),
                s.mean_toggles(),
                r.energy_gain() * 100.0,
                r.error_rate() * 100.0,
                r.min_voltage.mv(),
                fixed_gain * 100.0,
            );
            assert_eq!(r.shadow_violations, 0, "{b} shadow violation!");
        }
    }
}
