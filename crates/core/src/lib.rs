//! Cycle-level DVS bus simulator and paper-experiment drivers — the top
//! of the razorbus stack, reproducing Kaul et al., *"DVS for On-Chip Bus
//! Designs Based on Timing Error Correction"* (DATE 2005).
//!
//! * [`DvsBusDesign`] — the complete design object: the physical bus
//!   (`razorbus-wire`), its hold-analyzed shadow skew (`razorbus-ff`),
//!   the SPICE-style tables (`razorbus-tables`) and the flop energy
//!   model, assembled per the paper's §2–§3 recipe.
//! * [`BusSimulator`] — streaming closed-loop simulation: trace in,
//!   per-cycle error/energy out, any [`razorbus_ctrl::VoltageGovernor`]
//!   in the loop.
//! * [`TraceSummary`] / [`WindowedSummary`] — compact per-trace
//!   histograms that make whole voltage sweeps O(1) per grid point
//!   (the same trick as the paper's per-pattern tables).
//! * [`experiments`] — one driver per table/figure of the paper's
//!   evaluation (Fig. 4, 5, 6, 8, 10, Table 1, and the §6 scaling
//!   study), each returning printable structured data.
//!
//! # Quickstart
//!
//! ```
//! use razorbus_core::{BusSimulator, DvsBusDesign};
//! use razorbus_ctrl::{ThresholdController, VoltageGovernor};
//! use razorbus_process::PvtCorner;
//! use razorbus_traces::Benchmark;
//!
//! let design = DvsBusDesign::paper_default();
//! let controller = ThresholdController::new(design.controller_config(PvtCorner::TYPICAL.process));
//! let mut sim = BusSimulator::new(&design, PvtCorner::TYPICAL,
//!                                 Benchmark::Crafty.trace(42), controller);
//! let report = sim.run(200_000);
//! assert!(report.error_rate() < 0.05);
//! assert!(report.energy_gain() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod design;
pub mod experiments;
mod knob;
mod lane;
mod sim;
mod summary;

pub use compiled::{compile_chunk_cycles, compile_chunk_knob, CompiledChunk, CompiledTrace};
pub use design::DvsBusDesign;
pub use knob::{parse_count_knob, parse_knob};
pub use sim::{BusSimulator, FusedOp, SimReport, VoltageSample};
pub use summary::{
    bucket_of, TraceSummary, WindowedSummary, CEFF_BIN_WIDTH, N_BUCKETS, N_CEFF_BINS,
};
