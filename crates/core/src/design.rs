//! The assembled DVS bus design.

use crate::sim::{build_replay_points, ReplayPoint};
use razorbus_ctrl::ControllerConfig;
use razorbus_ff::{FlopEnergyModel, ShadowSkewAnalysis};
use razorbus_process::{IrDrop, ProcessCorner, PvtCorner, TechnologyNode};
use razorbus_tables::{BusTables, EnvCondition};
use razorbus_units::{Femtofarads, Millivolts, Picoseconds, VoltageGrid};
use razorbus_wire::{BusPhysical, SizingError};
use std::sync::OnceLock;

/// Tabulated corners: every [`EnvCondition::PAPER_SET`] condition at
/// each IR drop.
const TABULATED_CORNERS: usize = EnvCondition::PAPER_SET.len() * IrDrop::ALL.len();

/// A complete DVS-capable bus design: physical bus, hold-analyzed shadow
/// skew, look-up tables and flop energy model.
///
/// Construction follows §2–§3 of the paper: size the repeaters for 600 ps
/// at the worst corner, derive the shadow-latch skew from the short-path
/// (hold) analysis capped at 33 % of the cycle, then tabulate
/// delay/energy across (corner, temperature, IR, VDD).
///
/// A design also keeps the replay tables every simulation at a
/// tabulated corner reads, built the first time a run needs them.
#[derive(Debug, Clone)]
pub struct DvsBusDesign {
    bus: BusPhysical,
    tables: BusTables,
    skew: ShadowSkewAnalysis,
    flop_energy: FlopEnergyModel,
    /// Replay tables per tabulated corner, slot `condition * 2 + IR`
    /// ([`DvsBusDesign::replay_points`]). Lazy, so a design that never
    /// runs at a corner never builds its tables.
    replay: [OnceLock<Box<[ReplayPoint]>>; TABULATED_CORNERS],
}

impl DvsBusDesign {
    /// Assembles a design from a sized physical bus over a supply grid.
    #[must_use]
    pub fn from_bus(bus: BusPhysical, grid: VoltageGrid) -> Self {
        let skew = ShadowSkewAnalysis::paper_default(bus.min_path_delay());
        let tables = BusTables::build(&bus, grid, skew.chosen_skew());
        Self {
            bus,
            tables,
            skew,
            flop_energy: FlopEnergyModel::l130_default(),
            replay: Default::default(),
        }
    }

    /// Like [`DvsBusDesign::from_bus`] but with an explicit cap on the
    /// shadow-skew fraction of the cycle (the paper uses 33 %); used by
    /// the skew ablation study.
    ///
    /// # Panics
    ///
    /// Panics if `skew_fraction_cap` is outside `(0, 0.5]`.
    #[must_use]
    pub fn with_skew_cap(bus: BusPhysical, grid: VoltageGrid, skew_fraction_cap: f64) -> Self {
        let skew = ShadowSkewAnalysis::new(
            bus.min_path_delay(),
            razorbus_units::Picoseconds::new(95.0),
            razorbus_units::Picoseconds::new(25.0),
            bus.clock().period(),
            skew_fraction_cap,
        );
        let tables = BusTables::build(&bus, grid, skew.chosen_skew());
        Self {
            bus,
            tables,
            skew,
            flop_energy: FlopEnergyModel::l130_default(),
            replay: Default::default(),
        }
    }

    /// The paper's reference design (§3).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::from_bus(BusPhysical::paper_default(), VoltageGrid::paper_default())
    }

    /// The §6 modified bus: coupling ratio × 1.95 at constant worst-case
    /// delay, with the shadow skew re-derived from the (now faster)
    /// short path.
    #[must_use]
    pub fn modified_paper_bus() -> Self {
        let bus = BusPhysical::paper_default().with_boosted_coupling(1.95);
        Self::from_bus(bus, VoltageGrid::paper_default())
    }

    /// A design in technology `node` for the §6 scaling study (10 %
    /// sizing slack, supply grid spanning 440 mV below the node's
    /// nominal).
    ///
    /// # Errors
    ///
    /// Propagates [`SizingError`] when the node cannot drive the bus.
    pub fn for_technology(node: TechnologyNode) -> Result<Self, SizingError> {
        let (bus, _target) = BusPhysical::for_technology(node, 1.10)?;
        let nominal = Millivolts::from_volts(node.nominal_supply());
        let grid = VoltageGrid::new(nominal - Millivolts::new(440), nominal, Millivolts::new(20));
        Ok(Self::from_bus(bus, grid))
    }

    /// The physical bus.
    #[must_use]
    pub fn bus(&self) -> &BusPhysical {
        &self.bus
    }

    /// The look-up tables.
    #[must_use]
    pub fn tables(&self) -> &BusTables {
        &self.tables
    }

    /// The shadow-skew (hold) analysis.
    #[must_use]
    pub fn skew(&self) -> &ShadowSkewAnalysis {
        &self.skew
    }

    /// The flop energy model.
    #[must_use]
    pub fn flop_energy(&self) -> &FlopEnergyModel {
        &self.flop_energy
    }

    /// The supply grid.
    #[must_use]
    pub fn grid(&self) -> VoltageGrid {
        self.tables.grid()
    }

    /// Nominal supply on the grid (the grid ceiling).
    #[must_use]
    pub fn nominal(&self) -> Millivolts {
        self.grid().ceiling()
    }

    /// §5 regulator floor for a known process corner (worst-case
    /// temperature/IR assumed), clamped to the grid floor when the tables
    /// report headroom beyond the regulator range.
    #[must_use]
    pub fn regulator_floor(&self, process: ProcessCorner) -> Millivolts {
        self.tables
            .regulator_floor(process)
            .unwrap_or_else(|| self.nominal())
    }

    /// Fixed-VS baseline voltage (Table 1) for a known process corner.
    #[must_use]
    pub fn fixed_vs_voltage(&self, process: ProcessCorner) -> Millivolts {
        self.tables
            .fixed_vs_voltage(process)
            .unwrap_or_else(|| self.nominal())
    }

    /// The static-analysis floor of §4: the lowest grid voltage at which
    /// the worst pattern still meets the *shadow* setup at the actual
    /// corner `pvt` (with its own static IR and full-activity droop) —
    /// "the supply voltage is scaled only up to the point where the
    /// longest bus delay can still meet the setup time of the shadow
    /// latch for the specific PVT corner".
    #[must_use]
    pub fn static_shadow_floor(&self, pvt: PvtCorner) -> Millivolts {
        let matrix = self
            .tables
            .shadow_threshold_matrix(EnvCondition::from_pvt(pvt), pvt.ir);
        let need = self.tables.worst_ceff().ff() * (1.0 - 1e-9);
        let n = self.tables.n_bits() as u32;
        self.grid()
            .iter()
            .find(|&v| matrix.pass_limit(v, n) >= need)
            .unwrap_or_else(|| self.nominal())
    }

    /// Worst-pattern bus delay at nominal supply for a PVT corner (the
    /// x-axis of Figs. 5/10).
    #[must_use]
    pub fn delay_at_nominal(&self, pvt: PvtCorner) -> Picoseconds {
        let v_eff = self.nominal().to_volts() * (1.0 - pvt.ir.fraction());
        self.bus.delay(
            self.bus.worst_effective_cap_per_mm(),
            v_eff,
            pvt.process,
            pvt.temperature,
        )
    }

    /// The paper's §5 controller configuration for a known process
    /// corner.
    #[must_use]
    pub fn controller_config(&self, process: ProcessCorner) -> ControllerConfig {
        ControllerConfig::paper_default(self.regulator_floor(process))
    }

    /// Design worst-case effective capacitance (fF/mm).
    #[must_use]
    pub fn worst_ceff(&self) -> Femtofarads {
        self.tables.worst_ceff()
    }

    /// The replay tables at `pvt`'s corner, one point per grid point:
    /// built on the first call for the corner (by whichever thread gets
    /// there first), then borrowed by every later call.
    ///
    /// # Panics
    ///
    /// Panics if `pvt`'s condition is not tabulated.
    pub(crate) fn replay_points(&self, pvt: PvtCorner) -> &[ReplayPoint] {
        let condition = EnvCondition::from_pvt(pvt);
        let c = condition
            .paper_index()
            .unwrap_or_else(|| panic!("condition {condition} is not tabulated"));
        let ir = match pvt.ir {
            IrDrop::None => 0,
            IrDrop::TenPercent => 1,
        };
        self.replay[c * IrDrop::ALL.len() + ir].get_or_init(|| build_replay_points(self, pvt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_assembles_consistently() {
        let d = DvsBusDesign::paper_default();
        d.tables().validate().unwrap();
        // Shadow skew: positive, no more than 33% of the cycle.
        let skew = d.skew().chosen_skew();
        assert!(skew.ps() > 50.0);
        assert!(skew.ps() <= 0.33 * 666.67 + 1e-6);
    }

    #[test]
    fn floors_and_baselines_are_ordered() {
        let d = DvsBusDesign::paper_default();
        for p in ProcessCorner::ALL {
            let floor = d.regulator_floor(p);
            let fixed = d.fixed_vs_voltage(p);
            assert!(floor <= fixed, "{p:?}: floor {floor} above fixed {fixed}");
        }
        assert_eq!(d.fixed_vs_voltage(ProcessCorner::Slow), d.nominal());
    }

    #[test]
    fn static_shadow_floor_below_main_floor_logic() {
        let d = DvsBusDesign::paper_default();
        // At the typical corner (no IR), the static floor must leave
        // scaling room below the fixed-VS point.
        let static_floor = d.static_shadow_floor(PvtCorner::TYPICAL);
        let fixed = d.fixed_vs_voltage(ProcessCorner::Typical);
        assert!(static_floor < fixed, "{static_floor} !< {fixed}");
    }

    #[test]
    fn delay_at_nominal_spans_fig5_axis() {
        let d = DvsBusDesign::paper_default();
        let delays: Vec<f64> = PvtCorner::FIG5
            .iter()
            .map(|&c| d.delay_at_nominal(c).ps())
            .collect();
        // Monotone decreasing from the design corner to the best corner.
        assert!(delays.windows(2).all(|w| w[1] < w[0]), "{delays:?}");
        assert!(delays[0] < 600.0 + 1.0);
        assert!(delays[4] > 250.0);
    }

    #[test]
    fn modified_bus_shrinks_skew_but_keeps_budget() {
        let base = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        // §6: the faster short path tightens the shadow skew.
        assert!(modified.skew().chosen_skew() <= base.skew().chosen_skew());
        assert!(
            (modified.bus().worst_case_delay_at_design_corner().ps()
                - base.bus().worst_case_delay_at_design_corner().ps())
            .abs()
                < 1.0
        );
    }

    #[test]
    fn technology_designs_build() {
        for node in TechnologyNode::ALL {
            let d = DvsBusDesign::for_technology(node).unwrap();
            d.tables().validate().unwrap();
        }
    }
}
