//! Differential pins on the paper figures: every figure produced
//! through the scenario executor must be **bit-identical** to the
//! legacy hand-wired composition of the `experiments` kernels (one
//! summary collection and one `fig8::run` per input, no sharing), and
//! every figure `repro all` renders from the shared, deduplicated
//! `paper-all` campaign must equal the same figure rendered from the
//! naive member-by-member reference run, from the figure's standalone
//! set, and from a saved-and-reloaded result.
//!
//! Identity is asserted on the full `Debug` rendering — every voltage,
//! energy ratio and error count, not a summary statistic.

use razorbus_artifact::{decode, encode, Artifact, Encoding};
use razorbus_core::experiments::{combined_summary, fig10, fig4, fig5, fig8, table1, SummaryBank};
use razorbus_core::DvsBusDesign;
use razorbus_process::PvtCorner;
use razorbus_scenario::{paper, ScenarioSetResult, ScenarioSetRun};

const CYCLES: u64 = 10_000;
const SEED: u64 = 2005;

fn debug<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

#[test]
fn fig4_both_panels_match_legacy() {
    let design = DvsBusDesign::paper_default();
    let run = paper::fig4_set(CYCLES, SEED).run().unwrap();
    let summary = combined_summary(&design, CYCLES, SEED);
    for (member, corner) in [
        ("fig4@worst", PvtCorner::WORST),
        ("fig4@typical", PvtCorner::TYPICAL),
    ] {
        let scenario = paper::fig4_panel(&run, member).unwrap();
        let legacy = fig4::from_summary(&design, corner, &summary);
        assert_eq!(debug(&scenario), debug(&legacy), "{member}");
    }
}

#[test]
fn fig5_matches_legacy() {
    let design = DvsBusDesign::paper_default();
    let run = paper::fig5_set(CYCLES, SEED).run().unwrap();
    let scenario = paper::fig5_data(&run).unwrap();
    let legacy = fig5::from_summary(&design, &combined_summary(&design, CYCLES, SEED));
    assert_eq!(debug(&scenario), debug(&legacy));
}

#[test]
fn fig8_matches_legacy() {
    let design = DvsBusDesign::paper_default();
    let run = paper::fig8_set(CYCLES, SEED).run().unwrap();
    let scenario = paper::fig8_data(&run).unwrap();
    let legacy = fig8::run(&design, PvtCorner::TYPICAL, CYCLES, SEED);
    // Fig8Data derives PartialEq: assert true bit-identity, then the
    // rendering too (what `repro` prints).
    assert_eq!(*scenario, legacy);
    assert_eq!(debug(scenario), debug(&legacy));
}

#[test]
fn table1_matches_legacy() {
    let design = DvsBusDesign::paper_default();
    let run = paper::table1_set(CYCLES, SEED).run().unwrap();
    let scenario = paper::table1_data(&run).unwrap();
    let legacy = table1::from_parts(
        &design,
        &SummaryBank::collect(&design, CYCLES, SEED),
        &fig8::run(&design, PvtCorner::WORST, CYCLES, SEED),
        &fig8::run(&design, PvtCorner::TYPICAL, CYCLES, SEED),
    );
    assert_eq!(debug(&scenario), debug(&legacy));
}

#[test]
fn fig10_matches_legacy() {
    let design = DvsBusDesign::paper_default();
    let modified = DvsBusDesign::modified_paper_bus();
    let run = paper::fig10_set(CYCLES, SEED).run().unwrap();
    let scenario = paper::fig10_data(&run).unwrap();
    let legacy = fig10::from_parts(
        &design,
        &modified,
        &combined_summary(&design, CYCLES, SEED),
        &combined_summary(&modified, CYCLES, SEED),
        &fig8::run(&design, PvtCorner::WORST, CYCLES, SEED),
        &fig8::run(&modified, PvtCorner::WORST, CYCLES, SEED),
    );
    assert_eq!(debug(&scenario), debug(&legacy));
}

#[test]
fn paper_all_figures_match_reference() {
    let set = paper::paper_all_set(CYCLES, SEED);
    let executor = set.run().unwrap();
    let reference = set.run_reference().unwrap();
    assert_eq!(paper_all_figures(&executor), paper_all_figures(&reference));
}

#[test]
fn paper_all_set_figures_match_standalone_sets() {
    // The combined `repro all` set shares heavy inputs across figures;
    // sharing must not change a single figure relative to running each
    // set on its own.
    let all = paper::paper_all_set(CYCLES, SEED).run().unwrap();
    let fig4 = paper::fig4_set(CYCLES, SEED).run().unwrap();
    assert_eq!(
        debug(&paper::fig4_panel(&all, "fig4@typical").unwrap()),
        debug(&paper::fig4_panel(&fig4, "fig4@typical").unwrap()),
    );
    let table1 = paper::table1_set(CYCLES, SEED).run().unwrap();
    assert_eq!(
        debug(&paper::table1_data(&all).unwrap()),
        debug(&paper::table1_data(&table1).unwrap()),
    );
    let fig10 = paper::fig10_set(CYCLES, SEED).run().unwrap();
    assert_eq!(
        debug(&paper::fig10_data(&all).unwrap()),
        debug(&paper::fig10_data(&fig10).unwrap()),
    );
}

/// Every figure `repro all` prints from a `paper-all` run, rendered.
fn paper_all_figures(run: &ScenarioSetRun) -> Vec<String> {
    vec![
        debug(&paper::fig4_panel(run, "fig4@worst").unwrap()),
        debug(&paper::fig4_panel(run, "fig4@typical").unwrap()),
        debug(&paper::fig5_data(run).unwrap()),
        debug(paper::fig8_data(run).unwrap()),
        debug(&paper::table1_data(run).unwrap()),
        debug(&paper::fig10_data(run).unwrap()),
    ]
}

/// `result` after an encode/decode round trip in `encoding`.
fn round_trip(result: &ScenarioSetResult, encoding: Encoding) -> ScenarioSetResult {
    let bytes = encode(ScenarioSetResult::KIND, encoding, result).unwrap();
    decode(ScenarioSetResult::KIND, &bytes).unwrap()
}

#[test]
fn paper_all_result_round_trips_both_encodings() {
    // `repro all --save-result` writes a `paper-all` result in either
    // encoding; decoding it must give back the identical result.
    let live = paper::paper_all_set(1_000, 7).run().unwrap();
    for encoding in [Encoding::Binary, Encoding::Json] {
        let back = round_trip(&live.result, encoding);
        assert_eq!(back, live.result, "{encoding:?} round trip drifted");
    }
}

#[test]
fn reloaded_paper_all_renders_identically() {
    // `repro all --load-result` renders a saved `paper-all` result: after
    // a round trip in either encoding, every figure must equal the live
    // run's.
    let live = paper::paper_all_set(1_000, 7).run().unwrap();
    let expected = paper_all_figures(&live);
    for encoding in [Encoding::Binary, Encoding::Json] {
        let reloaded = ScenarioSetRun::from_result(round_trip(&live.result, encoding)).unwrap();
        assert_eq!(paper_all_figures(&reloaded), expected, "{encoding:?}");
    }
}
