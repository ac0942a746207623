//! Property tests pinning the group-table `analyze_cycle` hot path
//! bitwise against the full-slot-loop references
//! (`analyze_cycle_reference` and `per_wire_effective_caps`) on random
//! buses and word patterns — dense, sparse and mixed.

use proptest::prelude::*;
use razorbus_wire::{BusLayout, BusPhysical, CouplingModel};

use std::sync::OnceLock;

/// The buses under test: the paper bus, its §6 boosted-coupling variant
/// (rebuilt tables), an Elmore-ideal-coupling build, and three narrower
/// layouts — 16 bits in groups of 4 (fewer groups than the word), 8 bits
/// in groups of 2 and 8 fully shielded bits (other slot shapes and
/// group-table widths).
///
/// The `atom` builds pin the fold's two misalignment scalings: an atom
/// of 0.3 leaves a divisor of 0.7, which is not a power of two, so the
/// fold divides; an atom of 0 leaves 1, so it multiplies by the exact
/// reciprocal. Both keep a nonzero spread, and the 0.3 atom also runs
/// on 32 bits in pairs and 30 bits in triples, the 0 atom on 32 fully
/// shielded bits, whose last group writes class codes past bit 31.
fn buses() -> &'static Vec<(&'static str, BusPhysical)> {
    static BUSES: OnceLock<Vec<(&'static str, BusPhysical)>> = OnceLock::new();
    BUSES.get_or_init(|| {
        let paper = BusPhysical::paper_default();
        let boosted = paper.with_boosted_coupling(1.95);
        let elmore =
            rebuild_with_coupling(CouplingModel::elmore_ideal(), BusLayout::paper_default());
        let half = rebuild_with_coupling(CouplingModel::default(), BusLayout::new(16, 4));
        let narrow = rebuild_with_coupling(CouplingModel::default(), BusLayout::new(8, 2));
        let shielded = rebuild_with_coupling(CouplingModel::default(), BusLayout::new(8, 1));
        let atom_03 = CouplingModel::new(0.3, 1.0, 2.2, 0.10, 0.3);
        let atom_0 = CouplingModel::new(0.3, 1.0, 2.2, 0.10, 0.0);
        vec![
            ("paper", paper),
            ("boosted", boosted),
            ("elmore", elmore),
            ("half", half),
            ("narrow", narrow),
            ("shielded", shielded),
            (
                "atom-0.3",
                rebuild_with_coupling(atom_03, BusLayout::paper_default()),
            ),
            (
                "atom-0.3-pairs",
                rebuild_with_coupling(atom_03, BusLayout::new(32, 2)),
            ),
            (
                "atom-0.3-triples",
                rebuild_with_coupling(atom_03, BusLayout::new(30, 3)),
            ),
            (
                "atom-0",
                rebuild_with_coupling(atom_0, BusLayout::paper_default()),
            ),
            (
                "atom-0-shielded",
                rebuild_with_coupling(atom_0, BusLayout::new(32, 1)),
            ),
        ]
    })
}

fn rebuild_with_coupling(coupling: CouplingModel, layout: BusLayout) -> BusPhysical {
    let geometry = razorbus_wire::WireGeometry::paper_default();
    let parasitics = razorbus_wire::CapExtractor::default().extract(&geometry);
    let proto = razorbus_wire::RepeatedLine::new(
        4,
        razorbus_units::Millimeters::new(1.5),
        razorbus_process::Repeater::l130(1.0),
        razorbus_units::OhmsPerMillimeter::new(85.0),
    );
    BusPhysical::build(
        layout,
        parasitics,
        coupling,
        proto,
        razorbus_units::Gigahertz::PAPER_CLOCK,
        razorbus_units::Picoseconds::new(600.0),
        razorbus_process::PvtCorner::WORST,
        razorbus_process::DroopModel::l130_default(),
    )
    .expect("test bus sizes")
}

/// Word pairs spanning the interesting densities, derived from raw
/// draws: identical words (quiet), single-bit flips, sparse nibble
/// toggles, and dense random transitions (alignment folds).
fn word_pair(w: u32, m: u32, mode: u32) -> (u32, u32) {
    match mode {
        0 => (w, w),
        1 => (w, w ^ (1 << (m % 32))),
        2 => (w, w ^ (m & 0x1111_1111)),
        _ => (w, m),
    }
}

proptest! {
    /// The group-table hot path reproduces the reference slot loop
    /// bitwise — worst load, switched capacitance and toggle count — on
    /// every bus and pattern class.
    #[test]
    fn analyze_matches_reference_bitwise(w in any::<u32>(), m in any::<u32>(), mode in 0u32..4) {
        let (prev, cur) = word_pair(w, m, mode);
        for (name, bus) in buses() {
            let fast = bus.analyze_cycle(prev, cur);
            let slow = bus.analyze_cycle_reference(prev, cur);
            prop_assert_eq!(
                fast.worst_ceff_per_mm.to_bits(),
                slow.worst_ceff_per_mm.to_bits(),
                "{}: worst load drifted on {:#010x} -> {:#010x}", name, prev, cur
            );
            prop_assert_eq!(
                fast.switched_cap_per_mm.to_bits(),
                slow.switched_cap_per_mm.to_bits(),
                "{}: switched cap drifted on {:#010x} -> {:#010x}", name, prev, cur
            );
            prop_assert_eq!(fast.toggled_wires, slow.toggled_wires, "{}", name);
        }
    }

    /// The per-wire detail view agrees with the aggregate on every bus:
    /// its max is the worst load (bitwise), its count the toggle count.
    #[test]
    fn analyze_matches_per_wire_caps(w in any::<u32>(), m in any::<u32>(), mode in 0u32..4) {
        let (prev, cur) = word_pair(w, m, mode);
        for (name, bus) in buses() {
            let a = bus.analyze_cycle(prev, cur);
            let per_wire = bus.per_wire_effective_caps(prev, cur);
            let worst = per_wire.iter().flatten().map(|c| c.ff()).fold(0.0f64, f64::max);
            prop_assert_eq!(
                a.worst_ceff_per_mm.to_bits(),
                worst.to_bits(),
                "{}: per-wire max drifted on {:#010x} -> {:#010x}", name, prev, cur
            );
            prop_assert_eq!(a.toggled_wires as usize, per_wire.iter().flatten().count(), "{}", name);
        }
    }

    /// Short random walks (correlated consecutive words, as real traces
    /// produce) stay pinned too — this exercises alignment-hash inputs
    /// where `prev` and `cur` share most bits.
    #[test]
    fn random_walks_stay_pinned(seed in any::<u64>(), flips in proptest::collection::vec(0u32..32, 1..24)) {
        let mut prev = (seed >> 32) as u32;
        for (step, flip) in flips.iter().enumerate() {
            let cur = prev ^ (1u32 << flip) ^ ((seed as u32) & 0x0101_0101u32.rotate_left(step as u32));
            for (name, bus) in buses() {
                let fast = bus.analyze_cycle(prev, cur);
                let slow = bus.analyze_cycle_reference(prev, cur);
                prop_assert_eq!(fast, slow, "{} step {}", name, step);
            }
            prev = cur;
        }
    }
}
