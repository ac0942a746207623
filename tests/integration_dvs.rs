//! Cross-crate integration tests of the closed-loop DVS system against
//! the paper's §4–§5 result bands. Cycle counts are kept moderate so the
//! suite stays fast; the bands account for the controller's descent
//! transient from 1.2 V (the full-length `repro` runs land closer still).

use razorbus::core::{experiments, BusSimulator, DvsBusDesign};
use razorbus::ctrl::{FixedVoltage, ThresholdController};
use razorbus::process::PvtCorner;
use razorbus::scenario::paper;
use razorbus::traces::Benchmark;
use razorbus::units::Millivolts;

const CYCLES: u64 = 400_000;

#[test]
fn worst_corner_dvs_band() {
    // Paper Table 1 (slow, 100C, 10% IR): per-benchmark DVS gains 1.2%
    // to 17.5%, combined error < 2.3%, light programs far above heavy.
    let design = DvsBusDesign::paper_default();
    let data = experiments::fig8::run(&design, PvtCorner::WORST, CYCLES, 5);
    let gain = |b: Benchmark| {
        data.segments
            .iter()
            .find(|s| s.benchmark == b)
            .unwrap()
            .report
            .energy_gain()
    };
    for light in [Benchmark::Crafty, Benchmark::Mesa] {
        assert!(
            (0.06..0.30).contains(&gain(light)),
            "{light}: {}",
            gain(light)
        );
    }
    for heavy in [Benchmark::Mgrid, Benchmark::Swim, Benchmark::Wupwise] {
        assert!(
            gain(heavy) < 0.08,
            "{heavy} should barely gain at the worst corner: {}",
            gain(heavy)
        );
    }
    assert!(gain(Benchmark::Crafty) > 2.0 * gain(Benchmark::Mgrid));
    let total = data.total_energy_gain();
    assert!((0.02..0.20).contains(&total), "total {total}");
    assert!(data.total_error_rate() < 0.025);
}

#[test]
fn typical_corner_dvs_band() {
    // Paper Table 1 (typical, 100C, no IR): gains 34.6-45.2%, total
    // 38.6%, error ~1.4%. With the descent transient at 400k cycles we
    // accept 25-50%.
    let design = DvsBusDesign::paper_default();
    let data = experiments::fig8::run(&design, PvtCorner::TYPICAL, CYCLES, 5);
    for seg in &data.segments {
        let g = seg.report.energy_gain();
        assert!(
            (0.22..0.50).contains(&g),
            "{}: gain {g}",
            seg.benchmark.name()
        );
        assert!(seg.report.shadow_violations == 0);
    }
    let total = data.total_energy_gain();
    assert!((0.25..0.50).contains(&total), "total {total}");
    assert!(
        data.total_error_rate() < 0.02,
        "{}",
        data.total_error_rate()
    );
    // DVS dominates the fixed-VS baseline by a wide margin (paper:
    // 38.6% vs 17%).
    assert!(total > 0.22);
}

#[test]
fn instantaneous_error_spikes_from_regulator_lag() {
    // Fig. 8: instantaneous error rates overshoot the 2% band (up to
    // ~6%) because the regulator takes 3000 cycles to ramp.
    let design = DvsBusDesign::paper_default();
    let data = experiments::fig8::run(&design, PvtCorner::TYPICAL, CYCLES, 5);
    let peak = data.peak_window_error_rate();
    assert!(peak > 0.02, "no overshoot observed: peak {peak}");
    assert!(peak < 0.25, "implausible overshoot: peak {peak}");
}

#[test]
fn oracle_fig6_separates_programs() {
    let run = paper::fig6_set(30 * experiments::fig6::WINDOW_LEN, 5)
        .run()
        .unwrap();
    let data = paper::fig6_data(&run).unwrap();
    let mean = |b: Benchmark, t: f64| {
        data.entries
            .iter()
            .find(|e| e.benchmark == b && e.target == t)
            .unwrap()
            .mean_voltage_mv()
    };
    // Paper Fig. 6 at 2%: crafty ~900, vortex intermediate, mgrid ~980.
    assert!(mean(Benchmark::Crafty, 0.02) < mean(Benchmark::Vortex, 0.02));
    assert!(mean(Benchmark::Vortex, 0.02) < mean(Benchmark::Mgrid, 0.02) + 1.0);
    assert!(mean(Benchmark::Crafty, 0.02) + 40.0 < mean(Benchmark::Mgrid, 0.02));
    // mgrid cannot use a looser target (the paper: "the supply cannot be
    // reduced below 980mV even with a target error rate of 5%") — allow
    // it one grid step.
    assert!(mean(Benchmark::Mgrid, 0.02) - mean(Benchmark::Mgrid, 0.05) <= 20.0);
}

#[test]
fn fixed_voltage_at_fixed_vs_point_is_error_free() {
    // The Table 1 baseline: zero errors guaranteed at the fixed-VS
    // supply at its own corner, for every benchmark.
    let design = DvsBusDesign::paper_default();
    let corner = PvtCorner::TYPICAL;
    let v = design.fixed_vs_voltage(corner.process);
    for b in [Benchmark::Crafty, Benchmark::Mgrid, Benchmark::Vortex] {
        let mut sim = BusSimulator::new(&design, corner, b.trace(3), FixedVoltage::new(v));
        let r = sim.run(100_000);
        assert_eq!(r.errors, 0, "{b} errored at the fixed-VS supply");
    }
}

#[test]
fn controller_recovers_after_hot_phase() {
    // Drive vortex long enough to cross several phases: the controller
    // must climb during hot phases and come back down after, without
    // ever breaching the floor/ceiling.
    let design = DvsBusDesign::paper_default();
    let corner = PvtCorner::TYPICAL;
    let floor = design.regulator_floor(corner.process);
    let ctrl = ThresholdController::new(design.controller_config(corner.process));
    let mut sim =
        BusSimulator::new(&design, corner, Benchmark::Vortex.trace(9), ctrl).with_sampling(10_000);
    let r = sim.run(2_000_000);
    let voltages: Vec<i32> = r.samples.iter().map(|s| s.voltage.mv()).collect();
    assert!(voltages.iter().all(|&v| v >= floor.mv() && v <= 1_200));
    // It moved both ways.
    let ctrl = sim.governor();
    assert!(ctrl.steps_down() > 10);
    assert!(ctrl.steps_up() > 0, "never had to back off");
}

#[test]
fn modified_bus_beats_original_at_worst_corner() {
    // §6: worst-corner DVS average gain 6.3% -> 8.2% for the modified
    // bus; we assert the direction with margin for trace scale.
    let base = DvsBusDesign::paper_default();
    let modified = DvsBusDesign::modified_paper_bus();
    let d_base = experiments::fig8::run(&base, PvtCorner::WORST, 200_000, 5);
    let d_mod = experiments::fig8::run(&modified, PvtCorner::WORST, 200_000, 5);
    assert!(
        d_mod.total_energy_gain() > d_base.total_energy_gain() - 0.005,
        "modified {} vs base {}",
        d_mod.total_energy_gain(),
        d_base.total_energy_gain()
    );
    assert!(d_mod.total_error_rate() < 0.03);
}

#[test]
fn fig4_combined_curves_have_paper_shape() {
    let design = DvsBusDesign::paper_default();
    let summary = experiments::combined_summary(&design, 50_000, 7);
    for (corner, early_fail) in [(PvtCorner::WORST, true), (PvtCorner::TYPICAL, false)] {
        let data = experiments::fig4::from_summary(&design, corner, &summary);
        let first_fail = data.first_failure_voltage().unwrap();
        if early_fail {
            assert!(
                first_fail >= Millivolts::new(1_160),
                "{corner}: {first_fail}"
            );
        } else {
            assert!(
                first_fail <= Millivolts::new(1_000),
                "{corner}: {first_fail}"
            );
        }
        // Normalized energy reaches well below 0.8 at the sweep floor.
        assert!(data.points[0].bus_energy_norm < 0.8, "{corner}");
    }
}
