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
//! Since the scenario layer landed, a study is just a
//! [`razorbus_scenario::ScenarioSet`]: one member per knob setting, and
//! the executor's deduplication gives the old hand-rolled sharing for
//! free — the paper-default configuration appears in studies 1–4 under
//! different labels but is *measured once*, and the coupling study's
//! default-bus summary comes from the pass that already reads the
//! paper-default workload — its shared compile, or the first
//! paper-default loop when the compile is over budget — instead of a
//! second trace pass.

use razorbus_core::experiments::fig5;
use razorbus_scenario::{
    AnalysisSpec, ControllerSpec, CornerSpec, DesignSpec, RunSpec, ScenarioSet, ScenarioSetRun,
    ScenarioSpec, SweepData, WorkloadSpec,
};

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

fn print_rows(title: &str, rows: &[AblationRow]) {
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

/// The member every study shares: the paper-default configuration
/// (paper bus, threshold controller, 10 k window, 1 µs/10 mV ramp,
/// typical corner).
const PAPER_MEMBER: &str = "paper-default";

/// A closed-loop member of the ablation campaign: paper design unless
/// overridden, ten-benchmark suite at the typical corner.
fn loop_member(name: &str, cycles: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        design: DesignSpec::Paper,
        workload: WorkloadSpec::Suite,
        controller: ControllerSpec::paper(),
        run: RunSpec {
            corner: CornerSpec::Typical,
            cycles_per_benchmark: cycles,
            seed: crate::REPRO_SEED,
        },
        analysis: AnalysisSpec::ClosedLoop,
        sweep: vec![],
    }
}

/// Which studies a set covers (each study function runs its own subset;
/// [`collect_all`] runs the union so shared members dedupe).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Studies {
    skew: bool,
    window: bool,
    ramp: bool,
    kind: bool,
    coupling: bool,
}

impl Studies {
    const ALL: Self = Self {
        skew: true,
        window: true,
        ramp: true,
        kind: true,
        coupling: true,
    };

    const fn only(which: u8) -> Self {
        Self {
            skew: which == 1,
            window: which == 2,
            ramp: which == 3,
            kind: which == 4,
            coupling: which == 5,
        }
    }

    fn needs_paper_row(self) -> bool {
        self.skew || self.window || self.ramp || self.kind
    }
}

/// Builds the ablation campaign as one scenario set.
fn ablation_set(cycles: u64, studies: Studies) -> ScenarioSet {
    let mut members = Vec::new();
    if studies.needs_paper_row() {
        members.push(loop_member(PAPER_MEMBER, cycles));
    }
    if studies.skew {
        for cap in [20u32, 25] {
            let mut m = loop_member(&format!("skew{cap}"), cycles);
            m.design = DesignSpec::SkewCapPercent(cap);
            members.push(m);
        }
        // The 33 % cap rebuilds the paper design exactly (the paper's
        // own skew recipe), so its row is the shared paper-default
        // measurement — no member needed.
    }
    if studies.window {
        for window in [1_000u64, 100_000] {
            let mut m = loop_member(&format!("window{window}"), cycles);
            m.controller.window = Some(window);
            members.push(m);
        }
    }
    if studies.ramp {
        for ns in [0u32, 5_000] {
            let mut m = loop_member(&format!("ramp{ns}"), cycles);
            m.controller.ramp_ns_per_10mv = Some(ns);
            members.push(m);
        }
    }
    if studies.kind {
        let mut m = loop_member("proportional", cycles);
        m.controller.governor = razorbus_ctrl::GovernorSpec::Proportional;
        members.push(m);
    }
    if studies.coupling {
        // Static Fig. 5 analysis on the two coupling models. The
        // default-coupling design *is* the paper design, so its bank
        // comes from the paper-default workload's compile (or first
        // loop) when studies 1–4 run alongside.
        let mut m = loop_member("coupling-default", cycles);
        m.analysis = AnalysisSpec::StaticSweep;
        members.push(m);
        let mut m = loop_member("coupling-elmore", cycles);
        m.design = DesignSpec::ElmoreCoupling;
        m.analysis = AnalysisSpec::StaticSweep;
        members.push(m);
    }
    ScenarioSet {
        name: "ablations".to_string(),
        members,
    }
}

fn loop_row(run: &ScenarioSetRun, member: &str, setting: &str) -> AblationRow {
    let loop_data = match &run
        .result
        .member(member)
        .expect("ablation member planned")
        .closed_loop
    {
        Some(data) => data,
        None => unreachable!("ablation loop member without a loop product"),
    };
    AblationRow {
        setting: setting.to_string(),
        energy_gain: loop_data.energy_gain(),
        error_rate: loop_data.error_rate(),
        peak_window_error: loop_data.peak_window_error_rate(),
    }
}

fn skew_rows(run: &ScenarioSetRun) -> Vec<AblationRow> {
    let corner = razorbus_process::PvtCorner::TYPICAL;
    let label = |cap: u32, design: &DesignSpec| {
        let floor = run
            .design_for(design)
            .expect("skew design built")
            .regulator_floor(corner.process);
        format!("skew cap {cap}% (floor {floor})")
    };
    vec![
        loop_row(run, "skew20", &label(20, &DesignSpec::SkewCapPercent(20))),
        loop_row(run, "skew25", &label(25, &DesignSpec::SkewCapPercent(25))),
        loop_row(run, PAPER_MEMBER, &label(33, &DesignSpec::Paper)),
    ]
}

fn window_rows(run: &ScenarioSetRun) -> Vec<AblationRow> {
    vec![
        loop_row(run, "window1000", "window 1000"),
        loop_row(run, PAPER_MEMBER, "window 10000"),
        loop_row(run, "window100000", "window 100000"),
    ]
}

fn ramp_rows(run: &ScenarioSetRun) -> Vec<AblationRow> {
    vec![
        loop_row(run, "ramp0", "instant"),
        loop_row(run, PAPER_MEMBER, "1 us / 10 mV (paper)"),
        loop_row(run, "ramp5000", "5 us / 10 mV"),
    ]
}

fn kind_rows(run: &ScenarioSetRun) -> Vec<AblationRow> {
    vec![
        loop_row(run, PAPER_MEMBER, "threshold (paper)"),
        loop_row(run, "proportional", "proportional (3-step cap)"),
    ]
}

fn coupling_rows(run: &ScenarioSetRun) -> Vec<AblationRow> {
    ["coupling-default", "coupling-elmore"]
        .iter()
        .zip(["slew-aware continuum (default)", "idealized Elmore 0/1/2"])
        .map(|(member, label)| {
            let m = run.result.member(member).expect("coupling member planned");
            let summary = match &m.sweep {
                Some(SweepData::Bank(bank)) => bank.combined(),
                _ => unreachable!("coupling member without a bank"),
            };
            let design = run.design_for(&m.spec.design).expect("coupling design");
            let typical = &fig5::rows_from_summary(design, summary)[2];
            AblationRow {
                setting: format!("{label}: V@2% {}", typical.voltage[1]),
                energy_gain: typical.gain[1],
                error_rate: 0.02,
                peak_window_error: 0.0,
            }
        })
        .collect()
}

fn run_studies(cycles: u64, studies: Studies) -> ScenarioSetRun {
    ablation_set(cycles, studies)
        .run()
        .expect("ablation campaign specs are valid")
}

/// Ablation 1: shadow-skew cap 0.20 / 0.25 / 0.33 of the
/// cycle. A tighter cap raises the regulator floor and clips the deep
/// scalers.
#[must_use]
pub fn shadow_skew(cycles: u64) -> Vec<AblationRow> {
    skew_rows(&run_studies(cycles, Studies::only(1)))
}

/// Ablation 2: controller window length 1 k / 10 k / 100 k cycles.
#[must_use]
pub fn controller_window(cycles: u64) -> Vec<AblationRow> {
    window_rows(&run_studies(cycles, Studies::only(2)))
}

/// Ablation 3: regulator ramp rate — instant / the paper's 1 µs/10 mV /
/// a sluggish 5 µs/10 mV. Slower regulators overshoot harder (the Fig. 8
/// spikes).
#[must_use]
pub fn regulator_ramp(cycles: u64) -> Vec<AblationRow> {
    ramp_rows(&run_studies(cycles, Studies::only(3)))
}

/// Ablation 4: the paper's threshold controller vs. the proportional
/// controller §5 declines to build.
#[must_use]
pub fn controller_kind(cycles: u64) -> Vec<AblationRow> {
    kind_rows(&run_studies(cycles, Studies::only(4)))
}

/// Ablation 5: the coupling model — slew-aware continuum (default) vs.
/// the idealized 3-level Elmore weights. Reported as the static Fig. 5
/// typical-corner gains, where the staircase vs. continuum difference is
/// visible in where the 2 % target lands.
#[must_use]
pub fn coupling_model(cycles: u64) -> Vec<AblationRow> {
    coupling_rows(&run_studies(cycles, Studies::only(5)))
}

/// Computes every ablation without printing, as **one** scenario set:
/// the executor measures the shared paper-default row a single time
/// across studies 1–4 and feeds study 5's default-coupling bank off the
/// same workload's compile or loop. Returns `(title, rows)` pairs for
/// [`run_all`] to print.
fn collect_all(cycles: u64) -> Vec<(&'static str, Vec<AblationRow>)> {
    let run = run_studies(cycles, Studies::ALL);
    vec![
        ("Ablation 1 — shadow-skew cap", skew_rows(&run)),
        ("\nAblation 2 — controller window", window_rows(&run)),
        ("\nAblation 3 — regulator ramp", ramp_rows(&run)),
        ("\nAblation 4 — controller kind", kind_rows(&run)),
        (
            "\nAblation 5 — coupling model (gain column = static gain @2%)",
            coupling_rows(&run),
        ),
    ]
}

/// Runs and prints every ablation as one scenario set, so the shared
/// paper-default row is measured once across studies.
pub fn run_all(cycles: u64) {
    for (title, rows) in collect_all(cycles) {
        print_rows(title, &rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_core::experiments;
    use razorbus_core::DvsBusDesign;
    use razorbus_process::PvtCorner;

    const CYCLES: u64 = 30_000;

    #[test]
    fn skew_ablation_orders_floors() {
        let rows = shadow_skew(CYCLES);
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
        let rows = regulator_ramp(4 * CYCLES);
        // The sluggish regulator's peak error is at least the instant one's.
        assert!(rows[2].peak_window_error >= rows[0].peak_window_error - 1e-9);
    }

    #[test]
    fn controller_kinds_both_converge() {
        let rows = controller_kind(CYCLES);
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
        let rows = controller_window(CYCLES);
        let paper_row = &rows[1];
        let d = DvsBusDesign::paper_default();
        let data = experiments::fig8::run(&d, PvtCorner::TYPICAL, CYCLES, crate::REPRO_SEED);
        assert!((paper_row.energy_gain - data.total_energy_gain()).abs() < 1e-15);
        assert!((paper_row.error_rate - data.total_error_rate()).abs() < 1e-15);
        assert!((paper_row.peak_window_error - data.peak_window_error_rate()).abs() < 1e-15);
    }
}
