//! The paper's evaluation as named scenario sets, plus the result
//! adapters that turn executor products back into the exact figure data
//! structures of `razorbus_core::experiments`.
//!
//! Each adapter feeds a member's heavy inputs (summary bank, suite
//! closed loop) to the `from_summary`/`from_parts` kernels, so a figure
//! rendered from the shared, deduplicated campaign is **bit-identical**
//! to the same figure rendered from [`ScenarioSet::run_reference`] —
//! pinned by the differential tests in `tests/differential.rs`.

use crate::exec::{ScenarioSet, ScenarioSetRun};
use crate::result::{LoopData, MemberResult, SweepData};
use crate::spec::{
    AnalysisSpec, ControllerSpec, CornerSpec, DesignSpec, RunSpec, ScenarioSpec, SweepAxis,
    WorkloadSpec,
};
use razorbus_core::experiments::{self, fig10::Fig10Data, fig4::Fig4Data, fig5::Fig5Data};
use razorbus_core::experiments::{fig8::Fig8Data, table1::Table1Data, SummaryBank};
use razorbus_traces::Benchmark;

fn paper_member(
    name: &str,
    corner: CornerSpec,
    analysis: AnalysisSpec,
    cycles: u64,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        design: DesignSpec::Paper,
        workload: WorkloadSpec::Suite,
        controller: ControllerSpec::paper(),
        run: RunSpec {
            corner,
            cycles_per_benchmark: cycles,
            seed,
        },
        analysis,
        sweep: vec![],
    }
}

/// Fig. 4: both panels as one corner-swept static-sweep scenario.
#[must_use]
pub fn fig4_set(cycles: u64, seed: u64) -> ScenarioSet {
    let mut spec = paper_member(
        "fig4",
        CornerSpec::Worst,
        AnalysisSpec::StaticSweep,
        cycles,
        seed,
    );
    spec.sweep = vec![SweepAxis::Corners(vec![
        CornerSpec::Worst,
        CornerSpec::Typical,
    ])];
    ScenarioSet::single(spec)
}

/// Fig. 5: one static-sweep scenario (the adapter walks every corner).
#[must_use]
pub fn fig5_set(cycles: u64, seed: u64) -> ScenarioSet {
    ScenarioSet::single(paper_member(
        "fig5",
        CornerSpec::Typical,
        AnalysisSpec::StaticSweep,
        cycles,
        seed,
    ))
}

/// Fig. 8: the typical-corner consecutive closed loop.
#[must_use]
pub fn fig8_set(cycles: u64, seed: u64) -> ScenarioSet {
    ScenarioSet::single(paper_member(
        "fig8",
        CornerSpec::Typical,
        AnalysisSpec::ClosedLoop,
        cycles,
        seed,
    ))
}

/// Table 1: closed loops at both headline corners plus the shared bank.
#[must_use]
pub fn table1_set(cycles: u64, seed: u64) -> ScenarioSet {
    let mut spec = paper_member(
        "table1",
        CornerSpec::Worst,
        AnalysisSpec::Full,
        cycles,
        seed,
    );
    spec.sweep = vec![SweepAxis::Corners(vec![
        CornerSpec::Worst,
        CornerSpec::Typical,
    ])];
    ScenarioSet::single(spec)
}

/// Fig. 10 / §6: original vs. modified bus at the worst corner.
#[must_use]
pub fn fig10_set(cycles: u64, seed: u64) -> ScenarioSet {
    let original = paper_member(
        "fig10-original",
        CornerSpec::Worst,
        AnalysisSpec::Full,
        cycles,
        seed,
    );
    let mut modified = paper_member(
        "fig10-modified",
        CornerSpec::Worst,
        AnalysisSpec::Full,
        cycles,
        seed,
    );
    modified.design = DesignSpec::ModifiedCoupling;
    ScenarioSet {
        name: "fig10".to_string(),
        members: vec![original, modified],
    }
}

/// The whole `repro all` figure pipeline as one set. The executor plans
/// exactly three heavy loop jobs over one pass of the suite's words:
/// paper/typical and paper/worst replay one shared suite compile, which
/// also summarizes the paper bank, and the compile co-analyzes the same
/// words for the modified bus, whose worst-corner loop replays them and
/// whose bank they summarize. Without compile sharing all three loops
/// run live, and each bus's bank rides its first loop (`fig8` for the
/// paper bus).
#[must_use]
pub fn paper_all_set(cycles: u64, seed: u64) -> ScenarioSet {
    let mut members = vec![paper_member(
        "fig8",
        CornerSpec::Typical,
        AnalysisSpec::ClosedLoop,
        cycles,
        seed,
    )];
    members.extend(fig4_set(cycles, seed).members);
    members.extend(fig5_set(cycles, seed).members);
    members.extend(table1_set(cycles, seed).members);
    members.extend(fig10_set(cycles, seed).members);
    ScenarioSet {
        name: "paper-all".to_string(),
        members,
    }
}

fn sweep_bank<'a>(member: &'a MemberResult, what: &str) -> Result<&'a SummaryBank, String> {
    member
        .sweep
        .as_ref()
        .and_then(SweepData::bank)
        .ok_or_else(|| {
            format!(
                "member `{}` carries no summary bank ({what})",
                member.spec.name
            )
        })
}

fn suite_loop<'a>(member: &'a MemberResult, what: &str) -> Result<&'a Fig8Data, String> {
    match &member.closed_loop {
        Some(LoopData::Suite(data)) => Ok(data),
        _ => Err(format!(
            "member `{}` carries no suite closed loop ({what})",
            member.spec.name
        )),
    }
}

/// One Fig. 4 panel from the member named `member` (e.g. `fig4@worst`).
///
/// # Errors
///
/// Errors when the member or its products are missing.
pub fn fig4_panel(run: &ScenarioSetRun, member: &str) -> Result<Fig4Data, String> {
    let m = run.result.member(member)?;
    let bank = sweep_bank(m, "fig4 panel")?;
    let design = run.design_for(&m.spec.design)?;
    Ok(experiments::fig4::from_summary(
        design,
        m.spec.run.corner.resolve(),
        bank.combined(),
    ))
}

/// Fig. 5 from the `fig5` member.
///
/// # Errors
///
/// Errors when the member or its products are missing.
pub fn fig5_data(run: &ScenarioSetRun) -> Result<Fig5Data, String> {
    let m = run.result.member("fig5")?;
    let bank = sweep_bank(m, "fig5")?;
    let design = run.design_for(&m.spec.design)?;
    Ok(experiments::fig5::from_summary(design, bank.combined()))
}

/// Fig. 8 (the `fig8` member's trajectory, by reference).
///
/// # Errors
///
/// Errors when the member or its products are missing.
pub fn fig8_data(run: &ScenarioSetRun) -> Result<&Fig8Data, String> {
    suite_loop(run.result.member("fig8")?, "fig8")
}

/// Errors unless `programs` lists the ten benchmarks in Table 1
/// ([`Benchmark::ALL`]) order.
fn in_table1_order(
    member: &MemberResult,
    what: &str,
    programs: impl Iterator<Item = Benchmark>,
) -> Result<(), String> {
    if programs.eq(Benchmark::ALL) {
        Ok(())
    } else {
        Err(format!(
            "member `{}`: {what} does not list the ten benchmarks in Table 1 order",
            member.spec.name
        ))
    }
}

/// Table 1 from the `table1@worst` / `table1@typical` members.
///
/// # Errors
///
/// Errors when the members or their products are missing, or when the
/// bank or either loop is not in [`Benchmark::ALL`] order (a decodable
/// but reordered reloaded result).
pub fn table1_data(run: &ScenarioSetRun) -> Result<Table1Data, String> {
    let worst = run.result.member("table1@worst")?;
    let typical = run.result.member("table1@typical")?;
    let bank = sweep_bank(typical, "table1")?;
    let worst_loop = suite_loop(worst, "table1 worst loop")?;
    let typical_loop = suite_loop(typical, "table1 typical loop")?;
    in_table1_order(
        typical,
        "bank",
        bank.per_benchmark().iter().map(|(b, _)| *b),
    )?;
    for (member, data) in [(worst, worst_loop), (typical, typical_loop)] {
        in_table1_order(
            member,
            "closed loop",
            data.segments.iter().map(|s| s.benchmark),
        )?;
    }
    let design = run.design_for(&worst.spec.design)?;
    Ok(experiments::table1::from_parts(
        design,
        bank,
        worst_loop,
        typical_loop,
    ))
}

/// Fig. 10 from the `fig10-original` / `fig10-modified` members.
///
/// # Errors
///
/// Errors when the members or their products are missing.
pub fn fig10_data(run: &ScenarioSetRun) -> Result<Fig10Data, String> {
    let original = run.result.member("fig10-original")?;
    let modified = run.result.member("fig10-modified")?;
    let base_design = run.design_for(&original.spec.design)?;
    let mod_design = run.design_for(&modified.spec.design)?;
    Ok(experiments::fig10::from_parts(
        base_design,
        mod_design,
        sweep_bank(original, "fig10 original")?.combined(),
        sweep_bank(modified, "fig10 modified")?.combined(),
        suite_loop(original, "fig10 original loop")?,
        suite_loop(modified, "fig10 modified loop")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_all_set_plans_exactly_three_heavy_jobs() {
        // The dedup contract behind "repro all wall time must not
        // regress": eight members, three unique loop jobs (the same
        // three the hand-wired pipeline fanned out), two histograms.
        let set = paper_all_set(1_000, 7);
        let members = set.expand().unwrap();
        assert_eq!(members.len(), 8);
        let run = set.run().unwrap();
        // fig8 and table1@typical share a loop product bit-identically.
        let fig8 = run.result.member("fig8").unwrap();
        let t1_typ = run.result.member("table1@typical").unwrap();
        assert_eq!(fig8.closed_loop, t1_typ.closed_loop);
        // table1@worst and fig10-original share the worst loop.
        let t1_worst = run.result.member("table1@worst").unwrap();
        let f10_orig = run.result.member("fig10-original").unwrap();
        assert_eq!(t1_worst.closed_loop, f10_orig.closed_loop);
        // fig4/fig5/table1/fig10-original share one paper bank.
        let f4 = run.result.member("fig4@worst").unwrap();
        let f5 = run.result.member("fig5").unwrap();
        assert_eq!(f4.sweep, f5.sweep);
        assert_eq!(f4.sweep, f10_orig.sweep);
        // The modified bus has its own bank.
        let f10_mod = run.result.member("fig10-modified").unwrap();
        assert_ne!(f10_mod.sweep, f10_orig.sweep);
    }

    #[test]
    fn adapters_produce_every_figure() {
        let run = paper_all_set(1_000, 7).run().unwrap();
        assert!(!fig4_panel(&run, "fig4@worst").unwrap().points.is_empty());
        assert_eq!(fig5_data(&run).unwrap().rows.len(), 5);
        assert_eq!(fig8_data(&run).unwrap().segments.len(), 10);
        assert_eq!(table1_data(&run).unwrap().corners.len(), 2);
        assert_eq!(fig10_data(&run).unwrap().original.len(), 5);
    }

    #[test]
    fn table1_refuses_a_reordered_bank() {
        // A decodable result whose bank is out of step with the loops'
        // segments must error here, not panic in `table1::from_parts`.
        let mut run = paper_all_set(1_000, 7).run().unwrap();
        let member = run
            .result
            .members
            .iter_mut()
            .find(|m| m.spec.name == "table1@typical")
            .unwrap();
        let Some(SweepData::Bank(bank)) = &member.sweep else {
            panic!("table1@typical carries a bank");
        };
        let mut reversed = bank.per_benchmark().to_vec();
        reversed.reverse();
        member.sweep = Some(SweepData::Bank(SummaryBank::from_per_benchmark(reversed)));
        let err = table1_data(&run).unwrap_err();
        assert!(err.contains("`table1@typical`: bank"), "{err}");
    }
}
