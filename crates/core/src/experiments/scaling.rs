//! §6's technology-scaling argument, made quantitative: "With scaled
//! technologies … the delay spread on wires due to neighbor switching
//! activity increases (since the R × Cc term increases). The proposed bus
//! design results in a higher energy savings with an increased difference
//! in delay between worst-case and more typical switching activities and,
//! therefore, can be expected to scale well with technology."

use crate::design::DvsBusDesign;
use crate::summary::TraceSummary;
use razorbus_process::{ProcessCorner, PvtCorner, TechnologyNode};
use razorbus_units::Picoseconds;

/// One technology node's row.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// The node.
    pub node: TechnologyNode,
    /// The §6 figure of merit `R·Cc` (ps per mm²).
    pub pattern_spread_per_mm2: f64,
    /// Worst-case vs. best-case pattern delay ratio at the node's design
    /// point (how much data-dependent slack exists).
    pub pattern_delay_ratio: f64,
    /// Design target delay (10 % slack over the achievable optimum).
    pub target_delay: Picoseconds,
    /// Static energy gain at the typical corner, 2 % error target.
    pub typical_gain_2pct: f64,
    /// DVS supply range: nominal − lowest usable grid voltage, in mV
    /// (normalized by nominal in `relative_range`).
    pub relative_scaling_range: f64,
}

/// The scaling study.
#[derive(Debug, Clone)]
pub struct ScalingData {
    /// Rows, oldest node first.
    pub rows: Vec<ScalingRow>,
}

/// One node's row, from its design and its all-programs summary at
/// the typical corner.
#[must_use]
pub fn row(node: TechnologyNode, design: &DvsBusDesign, summary: &TraceSummary) -> ScalingRow {
    let bus = design.bus();
    let corner = PvtCorner::TYPICAL;
    let v = summary.lowest_voltage_for_error_rate(design, corner, 0.02);
    let gain = summary.energy_gain(design, corner, v);
    let worst = bus.worst_case_delay_at_design_corner();
    let best = bus.delay(
        bus.best_effective_cap_per_mm(),
        design.nominal().to_volts() * (1.0 - design.bus().design_corner().ir.fraction()),
        ProcessCorner::Slow,
        razorbus_units::Celsius::HOT,
    );
    let floor = design.static_shadow_floor(corner);
    ScalingRow {
        node,
        pattern_spread_per_mm2: node.pattern_delay_spread_per_mm2(),
        pattern_delay_ratio: worst.ps() / best.ps(),
        target_delay: bus.max_path_delay(),
        typical_gain_2pct: gain,
        relative_scaling_range: f64::from((design.nominal() - floor).mv())
            / f64::from(design.nominal().mv()),
    }
}

impl ScalingData {
    /// Prints the study.
    pub fn print(&self) {
        println!("§6 — technology scaling of the DVS bus");
        println!(
            "{:>8} {:>14} {:>14} {:>12} {:>16} {:>14}",
            "node", "R*Cc(ps/mm2)", "worst/best", "target(ps)", "typ gain@2%", "DVS range"
        );
        for r in &self.rows {
            println!(
                "{:>8} {:>14.2} {:>14.2} {:>12.0} {:>15.1}% {:>13.1}%",
                r.node.to_string(),
                r.pattern_spread_per_mm2,
                r.pattern_delay_ratio,
                r.target_delay.ps(),
                r.typical_gain_2pct * 100.0,
                r.relative_scaling_range * 100.0
            );
        }
    }
}
