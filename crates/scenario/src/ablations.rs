//! Ablation studies of the model's own design choices: the shadow-skew
//! cap, the controller window and kind, the regulator ramp and the
//! coupling model.
//!
//! Each study varies exactly one knob of the paper's system and reports
//! the energy/error consequences, quantifying claims the paper makes in
//! prose (regulator lag causes the Fig. 8 error spikes; the simple
//! threshold controller "works reasonably well" vs. a proportional one;
//! the hold constraint limits the useful shadow skew).
//!
//! A study is a few members of one [`ScenarioSet`], one per knob
//! setting. The paper-default configuration appears in studies 1–4 but
//! is *measured once*, and the coupling study's default-bus bank comes
//! from the pass that already reads the paper-default words. `repro
//! all` runs these members inside its `repro-all` campaign; `repro
//! ablations` runs them alone.

use crate::exec::{ScenarioSet, ScenarioSetRun};
use crate::paper::paper_member;
use crate::spec::{AnalysisSpec, CornerSpec, DesignSpec};
use razorbus_core::experiments::fig5;

/// One ablation result row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Knob setting.
    pub setting: String,
    /// Total energy gain across the consecutive-benchmark run.
    pub energy_gain: f64,
    /// Average error rate.
    pub error_rate: f64,
    /// Peak instantaneous (10 k-window) error rate.
    pub peak_window_error: f64,
}

/// One study: its title and its rows, in print order.
pub type Study = (&'static str, Vec<AblationRow>);

/// Prints every study.
pub fn print(studies: &[Study]) {
    for (title, rows) in studies {
        println!("{title}");
        println!(
            "  {:<34} {:>10} {:>10} {:>12}",
            "setting", "gain", "avg err", "peak err"
        );
        for r in rows {
            println!(
                "  {:<34} {:>9.1}% {:>9.2}% {:>11.1}%",
                r.setting,
                r.energy_gain * 100.0,
                r.error_rate * 100.0,
                r.peak_window_error * 100.0
            );
        }
    }
}

/// The member every study shares: the paper-default configuration
/// (paper bus, threshold controller, 10 k window, 1 µs/10 mV ramp,
/// typical corner).
const PAPER_MEMBER: &str = "paper-default";

/// The ablation campaign `repro ablations` runs: every study's members
/// at `cycles / 4` per benchmark, the geometry `repro all` prints them
/// at. Each member is a closed loop of the paper design's suite at the
/// typical corner unless it says otherwise.
#[must_use]
pub fn ablations_set(cycles: u64, seed: u64) -> ScenarioSet {
    let (cycles, typical, closed) = (cycles / 4, CornerSpec::Typical, AnalysisSpec::ClosedLoop);
    let loop_member = |name: &str| paper_member(name, typical, closed, cycles, seed);
    let mut members = vec![loop_member(PAPER_MEMBER)];
    // Study 1. The 33 % cap rebuilds the paper design exactly (the
    // paper's own skew recipe), so its row is the shared paper-default
    // measurement: no member needed.
    for cap in [20u32, 25] {
        let mut m = loop_member(&format!("skew{cap}"));
        m.design = DesignSpec::SkewCapPercent(cap);
        members.push(m);
    }
    // Study 2.
    for window in [1_000u64, 100_000] {
        let mut m = loop_member(&format!("window{window}"));
        m.controller.window = Some(window);
        members.push(m);
    }
    // Study 3.
    for ns in [0u32, 5_000] {
        let mut m = loop_member(&format!("ramp{ns}"));
        m.controller.ramp_ns_per_10mv = Some(ns);
        members.push(m);
    }
    // Study 4.
    let mut m = loop_member("proportional");
    m.controller.governor = razorbus_ctrl::GovernorSpec::Proportional;
    members.push(m);
    // Study 5: static Fig. 5 analysis on the two coupling models. The
    // default-coupling design *is* the paper design, so its bank comes
    // from the paper-default workload's compile (or first loop).
    let mut m = loop_member("coupling-default");
    m.analysis = AnalysisSpec::StaticSweep;
    members.push(m);
    let mut m = loop_member("coupling-elmore");
    m.design = DesignSpec::ElmoreCoupling;
    m.analysis = AnalysisSpec::StaticSweep;
    members.push(m);
    ScenarioSet::new("ablations", members)
}

fn loop_row(run: &ScenarioSetRun, member: &str, setting: &str) -> Result<AblationRow, String> {
    let m = run.result.member(member)?;
    let what = || format!("member `{member}` carries no closed loop (ablation)");
    let loop_data = m.closed_loop.as_ref().ok_or_else(what)?;
    Ok(AblationRow {
        setting: setting.to_string(),
        energy_gain: loop_data.energy_gain(),
        error_rate: loop_data.error_rate(),
        peak_window_error: loop_data.peak_window_error_rate(),
    })
}

fn skew_rows(run: &ScenarioSetRun) -> Result<Vec<AblationRow>, String> {
    let corner = razorbus_process::PvtCorner::TYPICAL;
    let label = |cap: u32, design: &DesignSpec| -> Result<String, String> {
        let floor = run.design_for(design)?.regulator_floor(corner.process);
        Ok(format!("skew cap {cap}% (floor {floor})"))
    };
    Ok(vec![
        loop_row(run, "skew20", &label(20, &DesignSpec::SkewCapPercent(20))?)?,
        loop_row(run, "skew25", &label(25, &DesignSpec::SkewCapPercent(25))?)?,
        loop_row(run, PAPER_MEMBER, &label(33, &DesignSpec::Paper)?)?,
    ])
}

fn window_rows(run: &ScenarioSetRun) -> Result<Vec<AblationRow>, String> {
    Ok(vec![
        loop_row(run, "window1000", "window 1000")?,
        loop_row(run, PAPER_MEMBER, "window 10000")?,
        loop_row(run, "window100000", "window 100000")?,
    ])
}

fn ramp_rows(run: &ScenarioSetRun) -> Result<Vec<AblationRow>, String> {
    Ok(vec![
        loop_row(run, "ramp0", "instant")?,
        loop_row(run, PAPER_MEMBER, "1 us / 10 mV (paper)")?,
        loop_row(run, "ramp5000", "5 us / 10 mV")?,
    ])
}

fn kind_rows(run: &ScenarioSetRun) -> Result<Vec<AblationRow>, String> {
    Ok(vec![
        loop_row(run, PAPER_MEMBER, "threshold (paper)")?,
        loop_row(run, "proportional", "proportional (3-step cap)")?,
    ])
}

fn coupling_rows(run: &ScenarioSetRun) -> Result<Vec<AblationRow>, String> {
    ["coupling-default", "coupling-elmore"]
        .iter()
        .zip(["slew-aware continuum (default)", "idealized Elmore 0/1/2"])
        .map(|(member, label)| {
            let m = run.result.member(member)?;
            let bank = m.sweep.as_ref().and_then(|s| s.bank());
            let bank = bank.ok_or_else(|| format!("member `{member}` carries no summary bank"))?;
            let design = run.design_for(&m.spec.design)?;
            let typical = &fig5::rows_from_summary(design, bank.combined())[2];
            Ok(AblationRow {
                setting: format!("{label}: V@2% {}", typical.voltage[1]),
                energy_gain: typical.gain[1],
                error_rate: 0.02,
                peak_window_error: 0.0,
            })
        })
        .collect()
}

/// Every study's rows, titled, from a run holding the ablation members
/// ([`ablations_set`], or `repro-all`). Study 5 reports static Fig. 5
/// typical-corner gains.
///
/// # Errors
///
/// Errors when a member or its products are missing.
pub fn studies(run: &ScenarioSetRun) -> Result<Vec<Study>, String> {
    Ok(vec![
        ("Ablation 1 — shadow-skew cap", skew_rows(run)?),
        ("\nAblation 2 — controller window", window_rows(run)?),
        ("\nAblation 3 — regulator ramp", ramp_rows(run)?),
        ("\nAblation 4 — controller kind", kind_rows(run)?),
        (
            "\nAblation 5 — coupling model (gain column = static gain @2%)",
            coupling_rows(run)?,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_core::experiments;
    use razorbus_core::DvsBusDesign;
    use razorbus_process::PvtCorner;

    const CYCLES: u64 = 30_000;
    const SEED: u64 = 2005;

    /// Runs the named ablation members alone at `cycles` per benchmark.
    fn study(cycles: u64, names: &[&str]) -> ScenarioSetRun {
        let mut set = ablations_set(4 * cycles, SEED);
        set.members.retain(|m| names.contains(&m.name.as_str()));
        set.run().unwrap()
    }

    #[test]
    fn skew_ablation_orders_floors() {
        let rows = skew_rows(&study(CYCLES, &["skew20", "skew25", PAPER_MEMBER])).unwrap();
        assert_eq!(rows.len(), 3);
        // Wider skew cap never hurts the gain.
        assert!(rows[2].energy_gain >= rows[0].energy_gain - 0.02);
    }

    #[test]
    fn regulator_ablation_shows_lag_overshoot() {
        // Needs a horizon long enough for the 5 us/10 mV regulator (7500
        // cycles per 10 mV step at 1.5 GHz) to actually reach the operating
        // point and overshoot; at 30 k cycles it never gets there and its
        // peak error is trivially *lower* than the instant regulator's.
        let run = study(4 * CYCLES, &["ramp0", "ramp5000", PAPER_MEMBER]);
        let rows = ramp_rows(&run).unwrap();
        // The sluggish regulator's peak error is at least the instant one's.
        assert!(rows[2].peak_window_error >= rows[0].peak_window_error - 1e-9);
    }

    #[test]
    fn controller_kinds_both_converge() {
        let rows = kind_rows(&study(CYCLES, &["proportional", PAPER_MEMBER])).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.energy_gain > 0.05, "{}: {}", r.setting, r.energy_gain);
            assert!(r.error_rate < 0.05);
        }
    }

    #[test]
    fn paper_row_matches_legacy_fig8_protocol() {
        // The shared paper-default measurement must be exactly the
        // Fig. 8 protocol at the typical corner (same seed, sampling
        // and controller) — the identity the pre-scenario ablations
        // relied on implicitly.
        let run = study(CYCLES, &["window1000", "window100000", PAPER_MEMBER]);
        let rows = window_rows(&run).unwrap();
        let paper_row = &rows[1];
        let d = DvsBusDesign::paper_default();
        let data = experiments::fig8::run(&d, PvtCorner::TYPICAL, CYCLES, SEED);
        assert!((paper_row.energy_gain - data.total_energy_gain()).abs() < 1e-15);
        assert!((paper_row.error_rate - data.total_error_rate()).abs() < 1e-15);
        assert!((paper_row.peak_window_error - data.peak_window_error_rate()).abs() < 1e-15);
    }
}
