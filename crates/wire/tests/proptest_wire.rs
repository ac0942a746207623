//! Property tests pinning the group-table `analyze_cycle` hot path
//! bitwise against the full-slot-loop references
//! (`analyze_cycle_reference` and `per_wire_effective_caps`) on random
//! buses and word patterns — dense, sparse and mixed — and its
//! multi-bus form `analyze_cycles` against one reference call per bus.

use proptest::prelude::*;
use razorbus_wire::{BusLayout, BusPhysical, CouplingModel, CycleAnalysis, CycleAnalyzer};

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

/// Buses that share the paper layout, as the multi-bus kernel
/// [`BusPhysical::analyze_cycles`] requires: the paper bus (also the
/// skew-cap designs' bus), its §6 boosted-coupling variant (the
/// modified design's bus), the Elmore-coupling build, every technology
/// node's bus (each sized for its own node, all on the paper layout),
/// and both alignment-atom builds.
fn co_buses() -> &'static Vec<(String, BusPhysical)> {
    static BUSES: OnceLock<Vec<(String, BusPhysical)>> = OnceLock::new();
    BUSES.get_or_init(|| {
        let paper = BusPhysical::paper_default();
        let mut buses = vec![
            ("modified".to_string(), paper.with_boosted_coupling(1.95)),
            (
                "elmore".to_string(),
                rebuild_with_coupling(CouplingModel::elmore_ideal(), BusLayout::paper_default()),
            ),
            (
                "atom-0.3".to_string(),
                rebuild_with_coupling(
                    CouplingModel::new(0.3, 1.0, 2.2, 0.10, 0.3),
                    BusLayout::paper_default(),
                ),
            ),
            (
                "atom-0".to_string(),
                rebuild_with_coupling(
                    CouplingModel::new(0.3, 1.0, 2.2, 0.10, 0.0),
                    BusLayout::paper_default(),
                ),
            ),
        ];
        for node in razorbus_process::TechnologyNode::ALL {
            let (bus, _) = BusPhysical::for_technology(node, 1.10).expect("node sizes");
            buses.push((format!("{node:?}"), bus));
        }
        buses.insert(0, ("paper".to_string(), paper));
        for (name, bus) in &buses {
            assert_eq!(bus.layout(), buses[0].1.layout(), "{name}");
        }
        buses
    })
}

/// Word pairs of the three traffic shapes the kernel meets: random;
/// quiet-heavy (the word repeats, or one wire or one nibble moves);
/// and storm-like (every wire toggles against its complement, or the
/// 0101… / 1010… alternation with a few wires held).
fn traffic(w: u32, m: u32, mode: u32) -> (u32, u32) {
    match mode {
        0 => (w, m),
        1 | 2 => (w, w),
        3 => (w, w ^ (1 << (m % 32))),
        4 => (w, w ^ (m & 0x000F_0000)),
        5 => (w, !w),
        _ => {
            let held = w & m & 0x0101_0101;
            (0x5555_5555 ^ held, 0xAAAA_AAAA ^ held)
        }
    }
}

/// One bus's result against its reference, bit for bit.
fn same_bits(got: &CycleAnalysis, want: &CycleAnalysis) -> bool {
    got.worst_ceff_per_mm.to_bits() == want.worst_ceff_per_mm.to_bits()
        && got.switched_cap_per_mm.to_bits() == want.switched_cap_per_mm.to_bits()
        && got.toggled_wires == want.toggled_wires
}

proptest! {
    /// The two-bus kernel equals two single-bus reference calls, bit
    /// for bit, on every ordered pair of layout-sharing buses and every
    /// traffic shape.
    #[test]
    fn analyze_cycles_pair_matches_two_reference_calls(
        w in any::<u32>(),
        m in any::<u32>(),
        mode in 0u32..7,
    ) {
        let (prev, cur) = traffic(w, m, mode);
        let buses = co_buses();
        let reference: Vec<_> =
            buses.iter().map(|(_, b)| b.analyze_cycle_reference(prev, cur)).collect();
        for (i, (a_name, a)) in buses.iter().enumerate() {
            for (j, (b_name, b)) in buses.iter().enumerate() {
                let [x, y] = BusPhysical::analyze_cycles([a, b], prev, cur);
                prop_assert!(
                    same_bits(&x, &reference[i]) && same_bits(&y, &reference[j]),
                    "({}, {}) on {:#010x} -> {:#010x}: {:?} {:?} vs {:?} {:?}",
                    a_name, b_name, prev, cur, x, y, reference[i], reference[j]
                );
            }
        }
    }

    /// A two-bus analyzer fed a run of mixed traffic (its cycle cache
    /// hits on the storm's repeats) stays equal to the two buses'
    /// reference calls at every cycle.
    #[test]
    fn co_analyzer_runs_match_reference(seed in any::<u64>(), pair in 0usize..81) {
        let buses = co_buses();
        let (a, b) = (&buses[pair / 9 % buses.len()].1, &buses[pair % buses.len()].1);
        let mut analyzer = CycleAnalyzer::new([a, b]);
        let mut x = seed;
        let mut prev = (seed >> 32) as u32;
        for step in 0..96u32 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (_, cur) = traffic(prev, (x >> 32) as u32, (x >> 29) as u32 % 7);
            let [p, q] = analyzer.analyze_each(prev, cur);
            prop_assert!(
                same_bits(&p, &a.analyze_cycle_reference(prev, cur))
                    && same_bits(&q, &b.analyze_cycle_reference(prev, cur)),
                "pair {} step {} on {:#010x} -> {:#010x}", pair, step, prev, cur
            );
            prev = cur;
        }
    }
}
