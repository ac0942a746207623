//! The assembled physical bus: layout + parasitics + coupling + repeatered
//! line, sized per the paper's §3 design recipe.

use razorbus_process::{DroopModel, ProcessCorner, PvtCorner, Repeater, TechnologyNode};
use razorbus_units::{
    Celsius, Femtofarads, Femtojoules, Gigahertz, Millimeters, OhmsPerMillimeter, Picoseconds,
    Volts,
};

use crate::coupling::{CouplingModel, NeighborKind};
use crate::layout::BusLayout;
use crate::line::{DelayCoefficients, RepeatedLine};
use crate::parasitics::WireParasitics;
use crate::sizing::{size_repeater_for_delay, SizingError};

/// Per-cycle electrical summary of the whole bus, produced by
/// [`BusPhysical::analyze_cycle`] and, bit for bit, by
/// [`BusPhysical::analyze_cycle_reference`]. This is the only
/// trace-dependent input the timing/energy tables need — exactly the
/// role of the per-pattern HSPICE tables in §3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CycleAnalysis {
    /// The largest Miller-weighted effective capacitance (fF/mm) over all
    /// toggling wires, each opposing aggressor weighted by its alignment
    /// draw — the slowest wire's load this cycle. Zero when no wire
    /// toggles.
    pub worst_ceff_per_mm: f64,
    /// Sum over toggling wires of charge-weighted capacitance (fF/mm):
    /// the data-dependent part of this cycle's switched energy.
    pub switched_cap_per_mm: f64,
    /// Number of wires that toggled.
    pub toggled_wires: u32,
}

impl CycleAnalysis {
    /// Fraction of the bus switching this cycle.
    #[must_use]
    pub fn activity(&self, n_bits: usize) -> f64 {
        f64::from(self.toggled_wires) / n_bits as f64
    }
}

/// Word mask selecting the `n` bus bits of a 32-bit trace word.
#[inline]
fn word_mask(n: usize) -> u32 {
    if n == 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// Sentinel-coded neighbor of the reference slot loop and the table build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Signal(u8),
    Shield,
    Open,
}

impl From<NeighborKind> for Slot {
    fn from(n: NeighborKind) -> Self {
        match n {
            NeighborKind::Signal(i) => Slot::Signal(i as u8),
            NeighborKind::Shield => Slot::Shield,
            NeighborKind::Open => Slot::Open,
        }
    }
}

/// The paper's bus as a physical object: 32 signals at minimum pitch with
/// shields every 4, four 1.5 mm repeatered segments, repeaters sized for
/// 600 ps at (slow, 100 °C, 10 % IR, full-activity droop).
///
/// ```
/// use razorbus_wire::BusPhysical;
/// let bus = BusPhysical::paper_default();
/// assert_eq!(bus.layout().n_bits(), 32);
/// assert!(bus.repeater_width() > 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct BusPhysical {
    layout: BusLayout,
    parasitics: WireParasitics,
    coupling: CouplingModel,
    line: RepeatedLine,
    clock: Gigahertz,
    max_path_delay: Picoseconds,
    design_corner: PvtCorner,
    droop: DroopModel,
    /// Flattened neighbor tables of the reference slot loop.
    slots: Vec<[Slot; 4]>,
    /// The shield-group tables behind [`BusPhysical::analyze_cycle`].
    groups: GroupTables,
}

/// Slot class of a shield or quiet signal neighbor: static Miller weight.
const CLASS_STATIC: u8 = 0;
/// Slot class of a neighbor toggling with the victim.
const CLASS_SAME: u8 = 1;
/// Slot class of a neighbor toggling against the victim.
const CLASS_OPPOSITE: u8 = 2;
/// Slot class of an empty (screened or off-edge) slot.
const CLASS_OPEN: u8 = 3;

/// What the reference slot loop computes for one toggling wire whose
/// four slots (left, right, left2, right2) fall in one class
/// combination, folded in slot order so the sums are bit-identical.
#[derive(Debug, Clone, Copy, Default)]
struct SlotClass {
    /// `cg + k_delay` with every opposing aggressor perfectly aligned
    /// (`u = 0`). Exact when `opp_mask == 0`; otherwise an upper bound
    /// (alignment only ever lowers the opposing weight).
    ceff: f64,
    /// `cg + k_energy` — never alignment-dependent, always exact.
    switched: f64,
    /// Per-slot delay terms: the constant weight of static/same slots,
    /// `opp_w[side]` of opposing slots (scaled by the per-cycle
    /// alignment draw), `+0.0` for open slots.
    terms: [f64; 4],
    /// Which slots oppose the victim.
    opp_mask: u8,
}

/// One `(toggled, cur)` pattern of one shield group, pre-folded.
#[derive(Debug, Clone, Copy, Default)]
struct GroupPattern {
    /// `switched` of the toggling wires in ascending wire order, padded
    /// with `+0.0`.
    switched: [f64; 4],
    /// Max exact load over toggling wires with no opposing aggressor.
    exact: f64,
    /// Max perfect-alignment bound over toggling wires with an opposing
    /// aggressor.
    bound: f64,
    /// Which wires of the group have an opposing aggressor.
    opp: u8,
    /// Each wire's [`SlotClass`] code (2 bits per slot).
    class: [u8; 4],
}

/// The shield-group tables behind [`BusPhysical::analyze_cycle`].
///
/// Shields screen all coupling, so a wire's slot classes depend only on
/// the `toggled`/`cur` bits of its own group, and every group of a
/// [`BusLayout`] repeats the same slot pattern. A group of at most 4
/// signals has at most 256 patterns; each is folded once here, and a
/// cycle costs one lookup per group.
#[derive(Debug, Clone)]
struct GroupTables {
    group_size: usize,
    classes: Vec<SlotClass>,
    patterns: Vec<GroupPattern>,
    /// The coupling model's exact misalignment reciprocal, if any, for
    /// [`CouplingModel::misalignment_with`].
    recip: Option<f64>,
}

impl GroupTables {
    /// Builds both tables from the first group's slots. Every
    /// expression mirrors the reference slot loop
    /// ([`BusPhysical::analyze_cycle_reference`]) operand for operand.
    fn build(group: &[[Slot; 4]], parasitics: &WireParasitics, coupling: &CouplingModel) -> Self {
        let cg = parasitics.cg_per_mm().ff();
        let cc = parasitics.cc_per_mm().ff();
        let cc2 = parasitics.cc2_per_mm().ff();
        let m = coupling;
        let static_w = [cc * m.miller_static, cc2 * m.miller_static];
        let same_w = [cc * m.miller_same, cc2 * m.miller_same];
        let opp_w = [cc * m.miller_opposite, cc2 * m.miller_opposite];
        let energy_w = [cc, cc2];
        let energy_2w = [cc * 2.0, cc2 * 2.0];

        let classes = (0..256usize)
            .map(|code| {
                let mut k_delay = 0.0f64;
                let mut k_energy = 0.0f64;
                let mut terms = [0.0f64; 4];
                let mut opp_mask = 0u8;
                for (t, term) in terms.iter_mut().enumerate() {
                    let side = usize::from(t >= 2);
                    match (code >> (2 * t)) as u8 & 3 {
                        CLASS_STATIC => {
                            *term = static_w[side];
                            k_delay += static_w[side];
                            k_energy += energy_w[side];
                        }
                        CLASS_SAME => {
                            *term = same_w[side];
                            k_delay += same_w[side];
                            // aligned: no charge across the coupling cap
                        }
                        CLASS_OPPOSITE => {
                            *term = opp_w[side];
                            opp_mask |= 1 << t;
                            k_delay += opp_w[side];
                            k_energy += energy_2w[side];
                        }
                        _ => {}
                    }
                }
                SlotClass {
                    ceff: cg + k_delay,
                    switched: cg + k_energy,
                    terms,
                    opp_mask,
                }
            })
            .collect::<Vec<_>>();

        let gs = group.len();
        let patterns = (0..1usize << (2 * gs))
            .map(|key| {
                let toggled = key & ((1 << gs) - 1);
                let cur = key >> gs;
                let mut p = GroupPattern::default();
                let mut n = 0;
                for (l, wire) in group.iter().enumerate() {
                    if (toggled >> l) & 1 == 0 {
                        continue;
                    }
                    let rising = (cur >> l) & 1;
                    let mut code = 0u8;
                    for (t, slot) in wire.iter().enumerate() {
                        let class = match *slot {
                            Slot::Open => CLASS_OPEN,
                            Slot::Shield => CLASS_STATIC,
                            Slot::Signal(j) if (toggled >> j) & 1 == 0 => CLASS_STATIC,
                            Slot::Signal(j) if (cur >> j) & 1 == rising => CLASS_SAME,
                            Slot::Signal(_) => CLASS_OPPOSITE,
                        };
                        code |= class << (2 * t);
                    }
                    let c = &classes[usize::from(code)];
                    p.switched[n] = c.switched;
                    n += 1;
                    p.class[l] = code;
                    if c.opp_mask == 0 {
                        p.exact = p.exact.max(c.ceff);
                    } else {
                        p.opp |= 1 << l;
                        p.bound = p.bound.max(c.ceff);
                    }
                }
                p
            })
            .collect();

        Self {
            group_size: gs,
            classes,
            patterns,
            recip: m.misalignment_reciprocal(),
        }
    }

    /// The pattern index of the group whose lowest wire is bit `base`.
    #[inline]
    fn key(&self, toggled: u32, cur: u32, base: usize) -> usize {
        let mask = (1u32 << self.group_size) - 1;
        ((toggled >> base) & mask | ((cur >> base) & mask) << self.group_size) as usize
    }
}

impl BusPhysical {
    /// Assembles and sizes a bus.
    ///
    /// `line_proto`'s repeater width is replaced by the sizing result.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SizingError`] when no repeater width meets
    /// `max_path_delay` at the design corner.
    // The constructor takes the full physical parameter set of a bus; a
    // builder would only rename the same eight knobs.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        layout: BusLayout,
        parasitics: WireParasitics,
        coupling: CouplingModel,
        line_proto: RepeatedLine,
        clock: Gigahertz,
        max_path_delay: Picoseconds,
        design_corner: PvtCorner,
        droop: DroopModel,
    ) -> Result<Self, SizingError> {
        assert!(
            layout.n_bits() <= 32,
            "word-oriented analysis supports at most 32 bits"
        );
        assert!(
            layout.group_size() <= 4,
            "group-table analysis supports shield groups of at most 4 signals, got group size {}",
            layout.group_size()
        );
        let worst_ceff = worst_effective_cap(&layout, &parasitics, &coupling);
        let v_design = nominal_of(&line_proto)
            * (1.0 - design_corner.ir.fraction() - droop.droop_fraction(1.0));
        let width = size_repeater_for_delay(
            &line_proto,
            worst_ceff,
            v_design,
            design_corner.process,
            design_corner.temperature,
            max_path_delay,
        )?;
        let line = line_proto.with_repeater_width(width);
        let slots: Vec<[Slot; 4]> = layout
            .positions()
            .map(|p| {
                [
                    p.left.into(),
                    p.right.into(),
                    p.left2.into(),
                    p.right2.into(),
                ]
            })
            .collect();
        let groups = GroupTables::build(&slots[..layout.group_size()], &parasitics, &coupling);
        Ok(Self {
            layout,
            parasitics,
            coupling,
            line,
            clock,
            max_path_delay,
            design_corner,
            droop,
            slots,
            groups,
        })
    }

    /// The paper's bus (§3): 6 mm, 32 bits, shields every 4 signals,
    /// 1.5 mm repeater spacing, 1.5 GHz clock, 600 ps worst-case target at
    /// (slow, 100 °C, 10 % IR).
    ///
    /// # Panics
    ///
    /// Panics if the reference design fails to size — that would be a bug
    /// in the crate's own defaults, covered by tests.
    #[must_use]
    pub fn paper_default() -> Self {
        let geometry = crate::geometry::WireGeometry::paper_default();
        let parasitics = crate::capextract::CapExtractor::default().extract(&geometry);
        let proto = RepeatedLine::new(
            4,
            Millimeters::new(1.5),
            Repeater::l130(1.0),
            OhmsPerMillimeter::new(85.0),
        );
        Self::build(
            BusLayout::paper_default(),
            parasitics,
            CouplingModel::default(),
            proto,
            Gigahertz::PAPER_CLOCK,
            Picoseconds::new(600.0),
            PvtCorner::WORST,
            DroopModel::l130_default(),
        )
        .expect("paper reference design must size")
    }

    /// The §6 modified bus: coupling ratio boosted by `ratio_boost`
    /// (1.95 in the paper) at constant worst-case load and unchanged
    /// repeaters.
    #[must_use]
    pub fn with_boosted_coupling(&self, ratio_boost: f64) -> Self {
        let (k1w, k2w) = worst_weights(&self.layout, &self.coupling);
        let parasitics = self.parasitics.boost_coupling_ratio(ratio_boost, k1w, k2w);
        // The coupling caps changed, so the group tables must be rebuilt
        // from the new parasitics.
        let groups = GroupTables::build(
            &self.slots[..self.groups.group_size],
            &parasitics,
            &self.coupling,
        );
        Self {
            parasitics,
            groups,
            ..self.clone()
        }
    }

    /// A bus in technology `node` for the §6 scaling study: same layout
    /// and length, node-specific wires and devices, repeaters sized to a
    /// node-specific target `slack_factor × (best achievable worst-case
    /// delay)` (the equivalent of the paper bus's 10 % cycle slack).
    ///
    /// Returns the bus together with its design target delay.
    ///
    /// # Errors
    ///
    /// Propagates [`SizingError`] if the node cannot drive the bus at all.
    pub fn for_technology(
        node: TechnologyNode,
        slack_factor: f64,
    ) -> Result<(Self, Picoseconds), SizingError> {
        assert!(slack_factor >= 1.0, "slack factor must be >= 1");
        let parasitics = WireParasitics::new(
            node.wire_ground_cap_per_mm(),
            node.wire_coupling_cap_per_mm(),
            node.wire_coupling_cap_per_mm() * 0.08,
        );
        let device = node.device_model();
        let leakage = razorbus_process::LeakageModel::new(0.012, 0.10, 1.4, device);
        let repeater = Repeater::new(
            1.0,
            node.unit_drive_resistance(),
            node.unit_input_cap(),
            node.unit_parasitic_cap(),
            device,
            leakage,
        );
        let proto = RepeatedLine::new(
            4,
            Millimeters::new(1.5),
            repeater,
            node.wire_resistance_per_mm(),
        );
        let layout = BusLayout::paper_default();
        let coupling = CouplingModel::default();
        let droop = DroopModel::l130_default();
        let corner = PvtCorner::WORST;
        let worst_ceff = worst_effective_cap(&layout, &parasitics, &coupling);
        let v_design =
            node.nominal_supply() * (1.0 - corner.ir.fraction() - droop.droop_fraction(1.0));
        let w_opt = crate::sizing::delay_optimal_width(
            &proto,
            worst_ceff,
            v_design,
            corner.process,
            corner.temperature,
        )?;
        let best = proto.with_repeater_width(w_opt).delay(
            worst_ceff,
            v_design,
            corner.process,
            corner.temperature,
        );
        let target = Picoseconds::new(best.ps() * slack_factor);
        let bus = Self::build(
            layout,
            parasitics,
            coupling,
            proto,
            Gigahertz::from_period(Picoseconds::new(target.ps() / 0.9)),
            target,
            corner,
            droop,
        )?;
        Ok((bus, target))
    }

    /// Track layout.
    #[must_use]
    pub fn layout(&self) -> &BusLayout {
        &self.layout
    }

    /// Extracted (possibly §6-transformed) parasitics.
    #[must_use]
    pub fn parasitics(&self) -> &WireParasitics {
        &self.parasitics
    }

    /// Coupling (Miller) model.
    #[must_use]
    pub fn coupling(&self) -> &CouplingModel {
        &self.coupling
    }

    /// The repeatered line of each bit.
    #[must_use]
    pub fn line(&self) -> &RepeatedLine {
        &self.line
    }

    /// Sized repeater width (unit-inverter multiples).
    #[must_use]
    pub fn repeater_width(&self) -> f64 {
        self.line.repeater().width()
    }

    /// Bus clock.
    #[must_use]
    pub fn clock(&self) -> Gigahertz {
        self.clock
    }

    /// Design worst-case path-delay budget (600 ps for the paper bus:
    /// 10 % of the cycle reserved for setup and clock skew).
    #[must_use]
    pub fn max_path_delay(&self) -> Picoseconds {
        self.max_path_delay
    }

    /// The corner the bus was sized at.
    #[must_use]
    pub fn design_corner(&self) -> PvtCorner {
        self.design_corner
    }

    /// Activity-dependent droop model.
    #[must_use]
    pub fn droop(&self) -> DroopModel {
        self.droop
    }

    /// Nominal supply voltage (the device model's anchor).
    #[must_use]
    pub fn nominal_supply(&self) -> Volts {
        nominal_of(&self.line)
    }

    /// Worst-case Miller-weighted load over all wire positions
    /// (every signal neighbor opposing).
    #[must_use]
    pub fn worst_effective_cap_per_mm(&self) -> Femtofarads {
        worst_effective_cap(&self.layout, &self.parasitics, &self.coupling)
    }

    /// Best-case load over all wire positions (every signal neighbor
    /// aligned) — the short-path load for the hold-time analysis.
    #[must_use]
    pub fn best_effective_cap_per_mm(&self) -> Femtofarads {
        best_effective_cap(&self.layout, &self.parasitics, &self.coupling)
    }

    /// Delay of a wire presenting `ceff_per_mm` at the given condition.
    #[must_use]
    pub fn delay(
        &self,
        ceff_per_mm: Femtofarads,
        v_eff: Volts,
        corner: ProcessCorner,
        t: Celsius,
    ) -> Picoseconds {
        self.line.delay(ceff_per_mm, v_eff, corner, t)
    }

    /// Affine delay decomposition (see [`RepeatedLine::delay_coefficients`]).
    #[must_use]
    pub fn delay_coefficients(&self, corner: ProcessCorner, t: Celsius) -> DelayCoefficients {
        self.line.delay_coefficients(corner, t)
    }

    /// Worst-case delay at the design corner and nominal supply — by
    /// construction equal to the design target (600 ps).
    #[must_use]
    pub fn worst_case_delay_at_design_corner(&self) -> Picoseconds {
        let v_eff = self.nominal_supply()
            * (1.0 - self.design_corner.ir.fraction() - self.droop.droop_fraction(1.0));
        self.delay(
            self.worst_effective_cap_per_mm(),
            v_eff,
            self.design_corner.process,
            self.design_corner.temperature,
        )
    }

    /// Fastest possible bus transit: best-case load, fast process, cold,
    /// full supply, no droop. This is the short-path input to the
    /// shadow-latch hold analysis in `razorbus-ff`.
    #[must_use]
    pub fn min_path_delay(&self) -> Picoseconds {
        self.delay(
            self.best_effective_cap_per_mm(),
            self.nominal_supply(),
            ProcessCorner::Fast,
            Celsius::ROOM,
        )
    }

    /// Leakage energy of the whole bus (all bits' repeaters) per cycle.
    #[must_use]
    pub fn leakage_energy_per_cycle(
        &self,
        v: Volts,
        corner: ProcessCorner,
        t: Celsius,
    ) -> Femtojoules {
        self.line
            .leakage_energy_per_cycle(v, corner, t, self.clock.period())
            * self.layout.n_bits() as f64
    }

    /// Classifies one bus cycle: per-wire transitions from `prev`/`cur`
    /// words, Miller-weighted worst load, charge-weighted switched
    /// capacitance and toggle count. The one-bus call of
    /// [`BusPhysical::analyze_cycles`], which documents the kernel.
    #[must_use]
    pub fn analyze_cycle(&self, prev: u32, cur: u32) -> CycleAnalysis {
        let [analysis] = Self::analyze_cycles([self], prev, cur);
        analysis
    }

    /// Classifies one bus cycle for each of `K` buses that share one
    /// layout, reading the words once: the result is, bus for bus,
    /// [`BusPhysical::analyze_cycle`] of that bus. Two designs analyzed
    /// over the same trace words (the paper bus and its §6 variant)
    /// share everything that depends only on the words and the layout.
    ///
    /// Pass 1 computes each shield group's `(toggled, cur)` pattern key
    /// once and reads every bus's pattern at it. Each pattern stores its
    /// toggling wires' switched capacitance, the max exact load of its
    /// wires without an opposing aggressor, the perfect-alignment bound
    /// of the rest, and every wire's slot class. Per bus, the pass sums
    /// the first and maxes the second and third, in independent add
    /// chains. Once per group it gathers the word mask of the wires
    /// with an opposing aggressor and their class codes, which depend
    /// on the layout alone. Only for a bus whose bound beats its exact
    /// max does the fold phase walk that mask, in ascending wire order,
    /// and run the alignment fold of each wire whose class bound still
    /// beats that bus's running worst; a skipped fold cannot change the
    /// max. Each bus hashes its own alignment draws: they are a pure
    /// function of the words and the slot, so both buses read the same
    /// values, and a per-bus fold keeps the one-bus kernel as fast as
    /// a dedicated one.
    ///
    /// Bit-identical to [`BusPhysical::analyze_cycle_reference`] of each
    /// bus by construction: every table entry stores the same
    /// slot-ordered f64 sums, the switched sum is added in ascending
    /// wire order (its `+0.0` pads are exact no-ops), each fold replays
    /// the slot-ordered term sequence, and the f64 max over per-wire
    /// loads is order-independent — pinned by unit and property tests.
    ///
    /// Always inlined, so [`BusPhysical::analyze_cycle`] is one call, as
    /// a dedicated one-bus kernel would be.
    ///
    /// # Panics
    ///
    /// Panics if `K == 0`, or if the buses' widths or shield-group sizes
    /// differ. Callers must pass buses with equal [`BusLayout`]s (a
    /// [`CycleAnalyzer`] checks the whole layout once, at construction);
    /// this per-cycle check is the cheap part of that.
    #[must_use]
    #[inline(always)]
    pub fn analyze_cycles<const K: usize>(
        buses: [&Self; K],
        prev: u32,
        cur: u32,
    ) -> [CycleAnalysis; K] {
        let lead = buses[0];
        let n = lead.layout.n_bits();
        let g = &lead.groups;
        for bus in &buses[1..] {
            assert!(
                bus.layout.n_bits() == n && bus.groups.group_size == g.group_size,
                "co-analyzed buses must share one layout"
            );
        }
        let toggled = (prev ^ cur) & word_mask(n);
        if toggled == 0 {
            return [CycleAnalysis::default(); K];
        }

        let mut worst = [0.0f64; K];
        let mut bound = [0.0f64; K];
        let mut switched = [0.0f64; K];
        let mut opp = 0u32;
        // Each group writes its four class codes at its base wire. A
        // narrower group's padding is overwritten by the next group, and
        // the last group's lands in the three spare bytes.
        let mut codes = [0u8; 32 + 3];
        for base in (0..n).step_by(g.group_size) {
            let key = g.key(toggled, cur, base);
            let p = &g.patterns[key];
            opp |= u32::from(p.opp) << base;
            codes[base..base + 4].copy_from_slice(&p.class);
            for (k, bus) in buses.iter().enumerate() {
                let p = &bus.groups.patterns[key];
                switched[k] += p.switched[0];
                switched[k] += p.switched[1];
                switched[k] += p.switched[2];
                switched[k] += p.switched[3];
                if p.exact > worst[k] {
                    worst[k] = p.exact;
                }
                if p.bound > bound[k] {
                    bound[k] = p.bound;
                }
            }
        }
        for (k, bus) in buses.iter().enumerate() {
            let mut w = worst[k];
            if bound[k] > w {
                let mut opp = opp;
                while opp != 0 {
                    let i = opp.trailing_zeros() as usize;
                    opp &= opp - 1;
                    let c = &bus.groups.classes[usize::from(codes[i])];
                    if c.ceff > w {
                        let ceff = bus.exact_load(prev, cur, i, c);
                        if ceff > w {
                            w = ceff;
                        }
                    }
                }
            }
            worst[k] = w;
        }

        let toggled_wires = toggled.count_ones();
        std::array::from_fn(|k| CycleAnalysis {
            worst_ceff_per_mm: worst[k],
            switched_cap_per_mm: switched[k],
            toggled_wires,
        })
    }

    /// Exact effective load of toggling wire `i` in slot class `c`: the
    /// slot-ordered term sum with each opposing term scaled by its
    /// alignment draw, as [`CouplingModel::misalignment`] maps it. With a
    /// power-of-two divisor the scaling multiplies by its exact
    /// reciprocal; only opposing slots hash their draw. Open slots add
    /// `+0.0` to a sum that is never `-0.0`, an exact no-op.
    #[inline]
    fn exact_load(&self, prev: u32, cur: u32, i: usize, c: &SlotClass) -> f64 {
        let m = &self.coupling;
        let mut k = 0.0f64;
        for (t, &v) in c.terms.iter().enumerate() {
            k += if c.opp_mask >> t & 1 != 0 {
                let h = crate::coupling::alignment_unit(prev, cur, i, t);
                v * (1.0 - m.alignment_spread * m.misalignment_with(h, self.groups.recip))
            } else {
                v
            };
        }
        self.parasitics.cg_per_mm().ff() + k
    }

    /// A reusable analysis context over this bus: same classification as
    /// [`BusPhysical::analyze_cycle`], behind a whole-cycle result cache.
    /// Opposing-dense traffic (crosstalk storms) cycles through a small
    /// set of worst patterns, so repeats are exact-key lookups that
    /// return the previously computed bits verbatim.
    #[must_use]
    pub fn analyzer(&self) -> CycleAnalyzer<'_> {
        CycleAnalyzer::new([self])
    }

    /// The reference implementation of [`BusPhysical::analyze_cycle`]:
    /// the full per-slot classification loop with no precomputed tables.
    /// Slower, but trivially auditable — kept so differential and
    /// property tests can pin the group-table hot path to it bitwise on
    /// every pattern.
    #[must_use]
    pub fn analyze_cycle_reference(&self, prev: u32, cur: u32) -> CycleAnalysis {
        let toggled = (prev ^ cur) & word_mask(self.layout.n_bits());
        if toggled == 0 {
            return CycleAnalysis::default();
        }

        let cg = self.parasitics.cg_per_mm().ff();
        let cc = self.parasitics.cc_per_mm().ff();
        let cc2 = self.parasitics.cc2_per_mm().ff();
        let m = &self.coupling;

        let mut worst: f64 = 0.0;
        let mut switched: f64 = 0.0;
        let mut count: u32 = 0;

        let mut bits = toggled;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            count += 1;
            let rising = (cur >> i) & 1 == 1;

            let mut k_delay = 0.0;
            let mut k_energy = 0.0;
            for (idx, slot) in self.slots[i].iter().enumerate() {
                let scale = if idx < 2 { cc } else { cc2 };
                match *slot {
                    Slot::Open => {}
                    Slot::Shield => {
                        k_delay += scale * m.miller_static;
                        k_energy += scale;
                    }
                    Slot::Signal(j) => {
                        let j = usize::from(j);
                        if (toggled >> j) & 1 == 0 {
                            k_delay += scale * m.miller_static;
                            k_energy += scale;
                        } else if ((cur >> j) & 1 == 1) == rising {
                            k_delay += scale * m.miller_same;
                            // aligned: no charge across the coupling cap
                        } else {
                            let u =
                                m.misalignment(crate::coupling::alignment_unit(prev, cur, i, idx));
                            k_delay += scale * m.miller_opposite * (1.0 - m.alignment_spread * u);
                            k_energy += scale * 2.0;
                        }
                    }
                }
            }
            let ceff = cg + k_delay;
            if ceff > worst {
                worst = ceff;
            }
            switched += cg + k_energy;
        }

        CycleAnalysis {
            worst_ceff_per_mm: worst,
            switched_cap_per_mm: switched,
            toggled_wires: count,
        }
    }

    /// Per-wire Miller-weighted effective capacitance (fF/mm) for one
    /// cycle; `None` for wires that do not toggle. Allocates — intended
    /// for validation and inspection, not the hot loop (use
    /// [`BusPhysical::analyze_cycle`] there).
    #[must_use]
    pub fn per_wire_effective_caps(&self, prev: u32, cur: u32) -> Vec<Option<Femtofarads>> {
        let n = self.layout.n_bits();
        let toggled = (prev ^ cur) & word_mask(n);
        let cg = self.parasitics.cg_per_mm().ff();
        let cc = self.parasitics.cc_per_mm().ff();
        let cc2 = self.parasitics.cc2_per_mm().ff();
        let m = &self.coupling;
        (0..n)
            .map(|i| {
                if (toggled >> i) & 1 == 0 {
                    return None;
                }
                let rising = (cur >> i) & 1 == 1;
                let mut k = 0.0;
                for (idx, slot) in self.slots[i].iter().enumerate() {
                    let scale = if idx < 2 { cc } else { cc2 };
                    k += match *slot {
                        Slot::Open => 0.0,
                        Slot::Shield => scale * m.miller_static,
                        Slot::Signal(j) => {
                            let j = usize::from(j);
                            if (toggled >> j) & 1 == 0 {
                                scale * m.miller_static
                            } else if ((cur >> j) & 1 == 1) == rising {
                                scale * m.miller_same
                            } else {
                                let u = m.misalignment(crate::coupling::alignment_unit(
                                    prev, cur, i, idx,
                                ));
                                scale * m.miller_opposite * (1.0 - m.alignment_spread * u)
                            }
                        }
                    };
                }
                Some(Femtofarads::new(cg + k))
            })
            .collect()
    }
}

/// Slots in the analyzer's cycle-level cache (direct-mapped, 8 + 24·K
/// bytes each: 8 KiB for one bus, 14 KiB for two). Only toggling
/// cycles reach it: quiet cycles return before the probe here, and both
/// compile routes skip a repeated word before calling the analyzer at
/// all. Crosstalk-storm generators alternate a handful of word pairs,
/// so a tiny cache catches nearly every repeat there; on the
/// benchmark's traffic it hits on about 2.5 % of the non-quiet
/// `paper-all` suite cycles and never on `mc-10k-short`, which pays one
/// hash + compare per toggling cycle. Whether the cache earns its place
/// is an open question on the roadmap (the cache-bypass item).
const CYCLE_SLOTS: usize = 256;

/// One cached whole-cycle classification, one result per bus.
/// `prev == cur` marks an empty slot: equal words toggle nothing, and
/// toggle-free cycles return before the cache is consulted.
#[derive(Clone, Copy)]
struct CycleSlot<const K: usize> {
    prev: u32,
    cur: u32,
    result: [CycleAnalysis; K],
}

/// A per-thread cycle-analysis context over `K` buses that share one
/// layout (one by default): [`BusPhysical::analyze_cycles`] behind an
/// exact-keyed whole-cycle cache. It caches the `K` results per
/// `(prev, cur)` word pair — the classification is a pure function of
/// exactly that pair — so pattern-repeating traffic (crosstalk storms
/// alternate between two worst-case words) collapses to one probe per
/// cycle. Quiet cycles (no wire toggles) never touch the cache. Create
/// one per compile/summary loop via [`BusPhysical::analyzer`] (one
/// bus) or [`CycleAnalyzer::new`] and feed it consecutive cycles;
/// results are bit-identical to the cache-free path at every cycle,
/// pinned by differential tests.
pub struct CycleAnalyzer<'a, const K: usize = 1> {
    buses: [&'a BusPhysical; K],
    cycles: Vec<CycleSlot<K>>,
}

impl<'a, const K: usize> CycleAnalyzer<'a, K> {
    /// An analyzer over `buses`, in the order its results come back.
    ///
    /// # Panics
    ///
    /// Panics if `K == 0` or the buses' layouts differ:
    /// [`BusPhysical::analyze_cycles`] reads one bus's layout for all.
    #[must_use]
    pub fn new(buses: [&'a BusPhysical; K]) -> Self {
        assert!(
            buses.iter().all(|b| b.layout == buses[0].layout),
            "co-analyzed buses must share one layout"
        );
        let empty = CycleSlot {
            prev: 0,
            cur: 0,
            result: [CycleAnalysis::default(); K],
        };
        Self {
            buses,
            cycles: vec![empty; CYCLE_SLOTS],
        }
    }

    /// Classifies one bus cycle for every bus; see
    /// [`BusPhysical::analyze_cycles`].
    #[must_use]
    pub fn analyze_each(&mut self, prev: u32, cur: u32) -> [CycleAnalysis; K] {
        if (prev ^ cur) & word_mask(self.buses[0].layout.n_bits()) == 0 {
            return [CycleAnalysis::default(); K];
        }
        let key = u64::from(prev) << 32 | u64::from(cur);
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize;
        let slot = &mut self.cycles[h % CYCLE_SLOTS];
        if slot.prev == prev && slot.cur == cur {
            return slot.result;
        }
        *slot = Self::miss(self.buses, prev, cur);
        slot.result
    }

    /// A cache miss, kept out of line so that a hit runs only the probe
    /// above: with the kernel inlined, every call paid its register
    /// saves, and cache-bound storm traffic ran ~20 % slower.
    #[inline(never)]
    fn miss(buses: [&'a BusPhysical; K], prev: u32, cur: u32) -> CycleSlot<K> {
        let result = BusPhysical::analyze_cycles(buses, prev, cur);
        CycleSlot { prev, cur, result }
    }
}

impl CycleAnalyzer<'_> {
    /// Classifies one bus cycle; see [`BusPhysical::analyze_cycle`].
    #[must_use]
    pub fn analyze(&mut self, prev: u32, cur: u32) -> CycleAnalysis {
        let [analysis] = self.analyze_each(prev, cur);
        analysis
    }
}

fn nominal_of(line: &RepeatedLine) -> Volts {
    line.repeater().device().v_nominal()
}

fn weight_of(slot: NeighborKind, signal_weight: f64, coupling: &CouplingModel) -> f64 {
    match slot {
        NeighborKind::Signal(_) => signal_weight,
        NeighborKind::Shield => coupling.miller_static,
        NeighborKind::Open => 0.0,
    }
}

/// Worst-case combined (first, second) neighbor delay weights over the
/// layout, with every signal opposing.
fn worst_weights(layout: &BusLayout, coupling: &CouplingModel) -> (f64, f64) {
    let mut best = (0.0f64, 0.0f64, 0.0f64);
    for p in layout.positions() {
        let k1 = weight_of(p.left, coupling.miller_opposite, coupling)
            + weight_of(p.right, coupling.miller_opposite, coupling);
        let k2 = weight_of(p.left2, coupling.miller_opposite, coupling)
            + weight_of(p.right2, coupling.miller_opposite, coupling);
        // Rank by what it does at the paper's cc2/cc ratio.
        let score = k1 + 0.1 * k2;
        if score > best.0 {
            best = (score, k1, k2);
        }
    }
    (best.1, best.2)
}

fn worst_effective_cap(
    layout: &BusLayout,
    parasitics: &WireParasitics,
    coupling: &CouplingModel,
) -> Femtofarads {
    layout
        .positions()
        .map(|p| {
            let k1 = weight_of(p.left, coupling.miller_opposite, coupling)
                + weight_of(p.right, coupling.miller_opposite, coupling);
            let k2 = weight_of(p.left2, coupling.miller_opposite, coupling)
                + weight_of(p.right2, coupling.miller_opposite, coupling);
            parasitics.effective_cap_per_mm(k1, k2)
        })
        .fold(Femtofarads::ZERO, Femtofarads::max)
}

fn best_effective_cap(
    layout: &BusLayout,
    parasitics: &WireParasitics,
    coupling: &CouplingModel,
) -> Femtofarads {
    layout
        .positions()
        .map(|p| {
            let k1 = weight_of(p.left, coupling.miller_same, coupling)
                + weight_of(p.right, coupling.miller_same, coupling);
            let k2 = weight_of(p.left2, coupling.miller_same, coupling)
                + weight_of(p.right2, coupling.miller_same, coupling);
            parasitics.effective_cap_per_mm(k1, k2)
        })
        .fold(Femtofarads::new(f64::INFINITY), Femtofarads::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> BusPhysical {
        BusPhysical::paper_default()
    }

    #[test]
    fn paper_bus_meets_600ps_at_design_corner() {
        let b = bus();
        let d = b.worst_case_delay_at_design_corner();
        assert!((d.ps() - 600.0).abs() < 0.5, "d = {d}");
    }

    #[test]
    fn typical_corner_is_faster_than_design_corner() {
        let b = bus();
        let d_typ = b.delay(
            b.worst_effective_cap_per_mm(),
            Volts::new(1.2),
            ProcessCorner::Typical,
            Celsius::HOT,
        );
        assert!(
            d_typ.ps() < 560.0,
            "typical 1.2V worst-pattern delay {d_typ}"
        );
    }

    #[test]
    fn min_path_is_well_below_max_path() {
        let b = bus();
        let min = b.min_path_delay();
        assert!(min.ps() < 400.0 && min.ps() > 50.0, "min path {min}");
    }

    #[test]
    fn quiet_cycle_analysis_is_zero() {
        let a = bus().analyze_cycle(0xDEAD_BEEF, 0xDEAD_BEEF);
        assert_eq!(a, CycleAnalysis::default());
    }

    #[test]
    fn single_bit_toggle_sees_static_neighbors() {
        let b = bus();
        // Bit 1 toggles alone: both signal neighbors quiet + shield at
        // distance 2 -> k1 = 2 static, k2 = static + quiet signal.
        let a = b.analyze_cycle(0, 1 << 1);
        let p = b.parasitics();
        let expect = p.cg_per_mm().ff() + 2.0 * p.cc_per_mm().ff() + 2.0 * p.cc2_per_mm().ff();
        assert!((a.worst_ceff_per_mm - expect).abs() < 1e-9);
        assert_eq!(a.toggled_wires, 1);
        // Energy: quiet neighbors contribute weight 1 each.
        assert!((a.switched_cap_per_mm - expect).abs() < 1e-9);
    }

    #[test]
    fn opposing_neighbors_hit_worst_class() {
        let b = bus();
        // Bits 0,1,2: 1 rises while 0 and 2 fall -> victim 1 sees both
        // neighbors opposite.
        let prev = 0b101;
        let cur = 0b010;
        let a = b.analyze_cycle(prev, cur);
        let p = b.parasitics();
        let m = b.coupling();
        // Victim bit 1: k1 = 2*opposite*cc (modulo alignment), second:
        // left2 shield static, right2 signal(3) quiet static.
        let base = p.cg_per_mm().ff() + 2.0 * m.miller_static * p.cc2_per_mm().ff();
        let full = base + 2.0 * m.miller_opposite * p.cc_per_mm().ff();
        let least =
            base + 2.0 * m.miller_opposite * (1.0 - m.alignment_spread) * p.cc_per_mm().ff();
        assert!(
            a.worst_ceff_per_mm <= full + 1e-9 && a.worst_ceff_per_mm >= least - 1e-9,
            "got {} expected within [{least}, {full}]",
            a.worst_ceff_per_mm
        );
        assert_eq!(a.toggled_wires, 3);
        // And the detailed per-wire view agrees with the cycle analysis.
        let details = b.per_wire_effective_caps(prev, cur);
        let max_detail = details
            .iter()
            .flatten()
            .fold(0.0f64, |acc, c| acc.max(c.ff()));
        assert!((max_detail - a.worst_ceff_per_mm).abs() < 1e-9);
    }

    #[test]
    fn aligned_neighbors_hit_best_class() {
        let b = bus();
        // All of group 0 rises together.
        let a = b.analyze_cycle(0, 0b1111);
        let p = b.parasitics();
        let m = b.coupling();
        // Interior victims (bits 1,2): both neighbors aligned; second
        // neighbors: one shield (static), one aligned signal.
        let interior = p.cg_per_mm().ff()
            + 2.0 * m.miller_same * p.cc_per_mm().ff()
            + (m.miller_static + m.miller_same) * p.cc2_per_mm().ff();
        // Edge victims (bits 0,3): shield static + aligned signal.
        let edge = p.cg_per_mm().ff()
            + (m.miller_static + m.miller_same) * p.cc_per_mm().ff()
            + m.miller_same * p.cc2_per_mm().ff();
        assert!((a.worst_ceff_per_mm - edge.max(interior)).abs() < 1e-9);
        // Aligned coupling caps carry no charge; shields do.
        assert!(a.switched_cap_per_mm > 0.0);
    }

    #[test]
    fn worst_cap_exceeds_best_cap_substantially() {
        let b = bus();
        let spread = b.worst_effective_cap_per_mm().ff() / b.best_effective_cap_per_mm().ff();
        assert!(spread > 2.0, "pattern spread {spread}");
    }

    #[test]
    fn analyze_cycle_fast_path_matches_per_wire_reference() {
        // per_wire_effective_caps and analyze_cycle_reference keep the
        // original full slot loop, so the group-table hot path must
        // reproduce their results *bitwise* on every pattern — isolated
        // toggles, dense toggles (alignment folds), and mixtures, on
        // both the paper bus and the boosted-coupling variant (whose
        // tables are rebuilt).
        for b in [bus(), bus().with_boosted_coupling(1.95)] {
            let mut x = 0x1234_5678_9ABC_DEFFu64;
            let mut prev = 0u32;
            for step in 0..2_000u32 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let cur = match step % 4 {
                    0 => prev ^ (1 << (x % 32)),             // isolated toggle
                    1 => (x >> 32) as u32,                   // dense random
                    2 => prev,                               // no toggle
                    _ => prev ^ ((x >> 32) as u32 & 0x1111), // scattered
                };
                let a = b.analyze_cycle(prev, cur);
                assert_eq!(a, b.analyze_cycle_reference(prev, cur), "step {step}");
                let per_wire = b.per_wire_effective_caps(prev, cur);
                let worst_ref = per_wire
                    .iter()
                    .flatten()
                    .map(|c| c.ff())
                    .fold(0.0f64, f64::max);
                assert_eq!(a.worst_ceff_per_mm, worst_ref, "step {step}");
                assert_eq!(
                    a.toggled_wires,
                    per_wire.iter().flatten().count() as u32,
                    "step {step}"
                );
                prev = cur;
            }
        }
    }

    #[test]
    fn analyzer_memo_matches_memo_free_path_bitwise() {
        // The whole-cycle cache must be invisible in the results: its
        // key is the exact (prev, cur) word pair, so a hit returns the
        // identical bits analyze_cycle would produce. Drive a pure
        // storm (two alternating opposing words: every cycle after the
        // first two hits), then interleaved storm, dense random and
        // random-walk sequences through a long-lived analyzer, and
        // require bitwise equality with the cache-free path at every
        // cycle, on both table variants.
        for b in [bus(), bus().with_boosted_coupling(1.95)] {
            let mut analyzer = b.analyzer();
            let mut x = 0xFEED_F00D_1234_5678u64;
            let mut prev = 0x5555_5555u32;
            for step in 0..4_000u32 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let cur = match step % 3 {
                    _ if step < 1_000 => !prev,                   // pure storm
                    0 => !prev,                                   // storm: every pair opposes
                    1 => (x >> 32) as u32,                        // dense random
                    _ => prev ^ ((x >> 32) as u32 & 0x8421_8421), // random walk
                };
                assert_eq!(
                    analyzer.analyze(prev, cur),
                    b.analyze_cycle(prev, cur),
                    "step {step}"
                );
                prev = cur;
            }
        }
    }

    /// The paper bus rebuilt with another coupling model and layout.
    fn rebuilt(coupling: CouplingModel, layout: BusLayout) -> BusPhysical {
        let b = bus();
        BusPhysical::build(
            layout,
            *b.parasitics(),
            coupling,
            *b.line(),
            b.clock(),
            b.max_path_delay(),
            b.design_corner(),
            b.droop(),
        )
        .expect("test bus sizes")
    }

    #[test]
    fn every_group_pattern_matches_reference_bitwise() {
        // Every (toggled, cur) pattern of a group at every group
        // position, alone (so the group's own folds decide the worst
        // load) and inside random context words (so neighboring groups
        // toggle too). Both table variants of the paper bus, plus
        // alignment atoms of 0.3 (a divisor of 0.7: the fold divides)
        // and 0 (a divisor of 1: it multiplies by the reciprocal) on
        // the paper layout, 32 bits in pairs and 32 fully shielded bits.
        let atom_03 = CouplingModel::new(0.3, 1.0, 2.2, 0.10, 0.3);
        let atom_0 = CouplingModel::new(0.3, 1.0, 2.2, 0.10, 0.0);
        for b in [
            bus(),
            bus().with_boosted_coupling(1.95),
            rebuilt(atom_03, BusLayout::paper_default()),
            rebuilt(atom_0, BusLayout::paper_default()),
            rebuilt(atom_03, BusLayout::new(32, 2)),
            rebuilt(atom_0, BusLayout::new(32, 1)),
        ] {
            let gs = b.layout().group_size();
            let group = (1u32 << gs) - 1;
            let mut x = 0x0DDB_A11C_AFE5_EED5u64;
            for base in (0..b.layout().n_bits()).step_by(gs) {
                for pattern in 0..1u32 << (2 * gs) {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let (toggled, cur_bits) = (pattern & group, pattern >> gs);
                    let outside = !(group << base);
                    for (context_prev, context_cur) in [(0, 0), ((x >> 32) as u32, x as u32)] {
                        let prev = context_prev & outside | (cur_bits ^ toggled) << base;
                        let cur = context_cur & outside | cur_bits << base;
                        let a = b.analyze_cycle(prev, cur);
                        let r = b.analyze_cycle_reference(prev, cur);
                        assert_eq!(
                            a.worst_ceff_per_mm.to_bits(),
                            r.worst_ceff_per_mm.to_bits(),
                            "worst, group {base} pattern {pattern:#04x}"
                        );
                        assert_eq!(
                            a.switched_cap_per_mm.to_bits(),
                            r.switched_cap_per_mm.to_bits(),
                            "switched, group {base} pattern {pattern:#04x}"
                        );
                        assert_eq!(a.toggled_wires, r.toggled_wires);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "co-analyzed buses must share one layout")]
    fn a_co_analyzer_refuses_buses_of_different_layouts() {
        let paired = rebuilt(CouplingModel::default(), BusLayout::new(32, 2));
        let _ = CycleAnalyzer::new([&bus(), &paired]);
    }

    #[test]
    #[should_panic(expected = "co-analyzed buses must share one layout")]
    fn the_kernel_refuses_buses_of_different_group_sizes() {
        let paired = rebuilt(CouplingModel::default(), BusLayout::new(32, 2));
        let _ = BusPhysical::analyze_cycles([&bus(), &paired], 0, 1);
    }

    #[test]
    #[should_panic(expected = "group size 8")]
    fn build_rejects_groups_wider_than_four() {
        let _ = rebuilt(CouplingModel::default(), BusLayout::new(16, 8));
    }

    #[test]
    fn boosted_bus_keeps_worst_case_delay() {
        let b = bus();
        let boosted = b.with_boosted_coupling(1.95);
        let before = b.worst_case_delay_at_design_corner();
        let after = boosted.worst_case_delay_at_design_corner();
        assert!(
            (before.ps() - after.ps()).abs() < 1.0,
            "worst-case delay moved: {before} -> {after}"
        );
        // But the fastest path gets faster (the §6 hold-time caveat).
        assert!(boosted.min_path_delay() < b.min_path_delay());
        // And the coupling ratio really is 1.95x.
        let ratio = boosted.parasitics().coupling_ratio() / b.parasitics().coupling_ratio();
        assert!((ratio - 1.95).abs() < 1e-9);
    }

    #[test]
    fn technology_nodes_all_size() {
        for node in TechnologyNode::ALL {
            let (bus, target) = BusPhysical::for_technology(node, 1.10).unwrap();
            let d = bus.worst_case_delay_at_design_corner();
            assert!(
                (d.ps() - target.ps()).abs() < 0.5,
                "{node}: {d} vs target {target}"
            );
        }
    }

    #[test]
    fn activity_fraction() {
        let a = bus().analyze_cycle(0, 0xFFFF_FFFF);
        assert_eq!(a.toggled_wires, 32);
        assert!((a.activity(32) - 1.0).abs() < 1e-12);
    }
}
