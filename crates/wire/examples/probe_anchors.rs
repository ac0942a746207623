//! Developer probe: prints the calibration anchor numbers for the paper
//! bus (used while tuning the device model).

use razorbus_process::PvtCorner;
use razorbus_units::{Picoseconds, Volts};
use razorbus_wire::BusPhysical;

fn main() {
    let bus = BusPhysical::paper_default();
    println!("repeater width: {:.1}", bus.repeater_width());
    println!(
        "worst ceff: {:.1} fF/mm, best: {:.1} fF/mm",
        bus.worst_effective_cap_per_mm().ff(),
        bus.best_effective_cap_per_mm().ff()
    );
    println!(
        "min path delay (fast/25C/1.2V/best): {:.1}",
        bus.min_path_delay()
    );

    for corner in PvtCorner::FIG5 {
        let v_eff = Volts::new(1.2) * (1.0 - corner.ir.fraction());
        let d = bus.delay(
            bus.worst_effective_cap_per_mm(),
            v_eff,
            corner.process,
            corner.temperature,
        );
        println!("{corner}: worst-pattern delay @1.2V = {d:.1}");
    }

    // Zero-error static-scaling voltage at the typical corner: highest V
    // (20 mV grid) where even the worst pattern misses 600 ps.
    for corner in PvtCorner::FIG5 {
        let mut zero_err = 1_200;
        let mut v = 1_200;
        while v >= 700 {
            let vv = Volts::new(f64::from(v) / 1_000.0) * (1.0 - corner.ir.fraction());
            let d = bus.delay(
                bus.worst_effective_cap_per_mm(),
                vv,
                corner.process,
                corner.temperature,
            );
            if d <= Picoseconds::new(600.0) {
                zero_err = v;
            } else {
                break;
            }
            v -= 20;
        }
        println!("{corner}: zero-error VDD = {zero_err} mV");
    }
}
