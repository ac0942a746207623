//! Fig. 10 and the §6 modified-bus analysis: boost the coupling ratio
//! (Cc/Cg × 1.95) at constant worst-case delay, re-run the static-gain
//! and DVS analyses, and compare against the original bus.

use crate::design::DvsBusDesign;
use crate::experiments::{fig5, fig8};

/// The modified-vs-original comparison.
#[derive(Debug, Clone)]
pub struct Fig10Data {
    /// Fig. 5 rows for the original bus.
    pub original: Vec<fig5::Fig5Row>,
    /// Fig. 5 rows for the modified (Cc/Cg × 1.95) bus.
    pub modified: Vec<fig5::Fig5Row>,
    /// §6's headline: worst-corner consecutive-DVS average gain,
    /// original vs. modified (paper: 6.3 % → 8.2 %).
    pub worst_corner_dvs_gain: (f64, f64),
    /// Worst-corner DVS error rates for both buses (must stay ≤ ~2 %).
    pub worst_corner_dvs_error: (f64, f64),
    /// Shadow skews (ps): the modified bus's faster short path tightens
    /// the skew (§6's noted trade-off).
    pub shadow_skew_ps: (f64, f64),
}

/// Builds the §6 comparison from each bus's combined all-benchmarks
/// summary and worst-corner consecutive DVS run — the base-bus inputs
/// are shared with Fig. 4/5 and Table 1 by `repro all`.
#[must_use]
pub fn from_parts(
    base: &DvsBusDesign,
    modified: &DvsBusDesign,
    base_summary: &crate::summary::TraceSummary,
    mod_summary: &crate::summary::TraceSummary,
    base_dvs: &fig8::Fig8Data,
    mod_dvs: &fig8::Fig8Data,
) -> Fig10Data {
    let original_rows = fig5::rows_from_summary(base, base_summary);
    let modified_rows = fig5::rows_from_summary(modified, mod_summary);

    Fig10Data {
        original: original_rows,
        modified: modified_rows,
        worst_corner_dvs_gain: (base_dvs.total_energy_gain(), mod_dvs.total_energy_gain()),
        worst_corner_dvs_error: (base_dvs.total_error_rate(), mod_dvs.total_error_rate()),
        shadow_skew_ps: (
            base.skew().chosen_skew().ps(),
            modified.skew().chosen_skew().ps(),
        ),
    }
}

impl Fig10Data {
    /// Prints the comparison.
    pub fn print(&self) {
        println!("Fig. 10 — modified bus (Cc/Cg x1.95, same worst-case delay)");
        println!(
            "  shadow skew: original {:.0} ps -> modified {:.0} ps",
            self.shadow_skew_ps.0, self.shadow_skew_ps.1
        );
        println!(
            "  {:<38} {:>22} {:>22} {:>22}",
            "corner", "gain@0% orig->mod", "gain@2% orig->mod", "gain@5% orig->mod"
        );
        for (o, m) in self.original.iter().zip(&self.modified) {
            println!(
                "  {:<38} {:>9.1}% ->{:>8.1}% {:>9.1}% ->{:>8.1}% {:>9.1}% ->{:>8.1}%",
                o.corner.to_string(),
                o.gain[0] * 100.0,
                m.gain[0] * 100.0,
                o.gain[1] * 100.0,
                m.gain[1] * 100.0,
                o.gain[2] * 100.0,
                m.gain[2] * 100.0,
            );
        }
        println!(
            "  worst-corner DVS average gain: {:.1}% -> {:.1}% (err {:.2}% -> {:.2}%)",
            self.worst_corner_dvs_gain.0 * 100.0,
            self.worst_corner_dvs_gain.1 * 100.0,
            self.worst_corner_dvs_error.0 * 100.0,
            self.worst_corner_dvs_error.1 * 100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::combined_summary;
    use razorbus_process::PvtCorner;

    #[test]
    fn modified_bus_improves_error_limited_gains() {
        let base = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        let data = from_parts(
            &base,
            &modified,
            &combined_summary(&base, 20_000, 4),
            &combined_summary(&modified, 20_000, 4),
            &fig8::run(&base, PvtCorner::WORST, 20_000, 4),
            &fig8::run(&modified, PvtCorner::WORST, 20_000, 4),
        );

        // §6: the paper reports "slightly higher" 2%/5% gains (about one
        // 20 mV grid step at most corners). In our continuum coupling
        // model the shift is sub-quantization at some corners, so the
        // robust invariants are: never materially worse at the 2% target,
        // identical 0% gains (worst-case delay preserved), and the
        // headline worst-corner DVS average not degrading.
        for (o, m) in data.original.iter().zip(&data.modified) {
            assert!(m.gain[1] >= o.gain[1] - 0.02, "{}", o.corner);
            assert!(
                (m.gain[0] - o.gain[0]).abs() < 0.02,
                "{}: 0%-gain moved {} -> {}",
                o.corner,
                o.gain[0],
                m.gain[0]
            );
        }
        assert!(
            data.worst_corner_dvs_gain.1 > data.worst_corner_dvs_gain.0 - 0.01,
            "modified {} much worse than original {}",
            data.worst_corner_dvs_gain.1,
            data.worst_corner_dvs_gain.0
        );
        // The noted trade-off: the shadow skew shrinks.
        assert!(data.shadow_skew_ps.1 <= data.shadow_skew_ps.0);
    }
}
