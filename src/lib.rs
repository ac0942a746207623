//! # razorbus
//!
//! A full reproduction of **Kaul, Sylvester, Blaauw, Mudge, Austin —
//! "DVS for On-Chip Bus Designs Based on Timing Error Correction"
//! (DATE 2005)**: dynamic voltage scaling for on-chip buses built on
//! Razor-style double-sampling flip-flops that detect and correct timing
//! errors *without retransmitting on the bus*.
//!
//! The workspace models the complete system described in the paper:
//!
//! * a 6 mm, 32-bit, 1.5 GHz memory read bus in a 0.13 µm process, with
//!   shields every four signals and repeaters sized for 600 ps at the
//!   worst PVT corner ([`wire`]),
//! * an alpha-power-law device/corner/leakage model and vector-dependent
//!   supply droop ([`process`]),
//! * SPICE-style per-pattern delay/energy look-up tables ([`tables`]),
//! * the double-sampling flip-flop, its bank, recovery FSM and hold-time
//!   analysis ([`ff`]),
//! * statistically shaped SPEC2000 memory-read traces ([`traces`]),
//! * the §5 threshold controller with a 1 µs/10 mV regulator ([`ctrl`]),
//! * the cycle-level simulator and one driver per paper figure/table
//!   ([`core`]),
//! * a declarative scenario layer that runs experiments, repro
//!   pipelines and ablations from data ([`scenario`]).
//!
//! # Quickstart
//!
//! ```
//! use razorbus::core::{BusSimulator, DvsBusDesign};
//! use razorbus::ctrl::ThresholdController;
//! use razorbus::process::PvtCorner;
//! use razorbus::traces::Benchmark;
//!
//! // Build the paper's bus and run crafty under the DVS controller at
//! // the typical corner.
//! let design = DvsBusDesign::paper_default();
//! let controller =
//!     ThresholdController::new(design.controller_config(PvtCorner::TYPICAL.process));
//! let mut sim = BusSimulator::new(&design, PvtCorner::TYPICAL,
//!                                 Benchmark::Crafty.trace(42), controller);
//! let report = sim.run(200_000);
//! assert!(report.energy_gain() > 0.15);
//! assert!(report.error_rate() < 0.02);
//! assert_eq!(report.shadow_violations, 0);
//! ```
//!
//! See `docs/architecture.md` for the layer stack and data flow, and
//! `PAPER.md` for the source paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Typed physical quantities (ps, mV, fF, Ω, fJ, °C, GHz).
pub mod units {
    pub use razorbus_units::*;
}

/// Process corners, alpha-power devices, leakage, IR drop and
/// technology nodes.
pub mod process {
    pub use razorbus_process::*;
}

/// Interconnect: geometry, capacitance extraction, layout, coupling,
/// repeatered lines and repeater sizing.
pub mod wire {
    pub use razorbus_wire::*;
}

/// SPICE-style delay/energy look-up tables.
pub mod tables {
    pub use razorbus_tables::*;
}

/// Double-sampling (Razor) flip-flops, banks, recovery and hold analysis.
pub mod ff {
    pub use razorbus_ff::*;
}

/// Synthetic SPEC2000-like memory-read-bus traces.
pub mod traces {
    pub use razorbus_traces::*;
}

/// DVS governors: threshold/proportional controllers, regulator model,
/// fixed-VS baseline.
pub mod ctrl {
    pub use razorbus_ctrl::*;
}

/// The assembled design, cycle-level simulator and paper experiments.
pub mod core {
    pub use razorbus_core::*;
}

/// Persistent artifacts: versioned, checksummed binary/JSON storage for
/// recordings, summary banks and tables.
///
/// ```
/// use razorbus::artifact::{decode, encode, Artifact, Encoding};
/// use razorbus::traces::{Benchmark, TraceRecording};
///
/// let recording = TraceRecording::capture(&mut Benchmark::Gap.trace(1), 128);
/// let bytes = encode(TraceRecording::KIND, Encoding::Json, &recording).unwrap();
/// let reloaded: TraceRecording = decode(TraceRecording::KIND, &bytes).unwrap();
/// assert_eq!(reloaded, recording);
/// ```
pub mod artifact {
    pub use razorbus_artifact::*;
}

/// Declarative scenarios: spec-driven, deduplicated, parallel execution
/// of experiments, repro runs and ablations.
///
/// ```
/// use razorbus::scenario::catalog;
///
/// let run = catalog::by_name("crosstalk-storm", 2_000, 1)
///     .expect("catalog name")
///     .run()
///     .expect("valid spec");
/// // Even under adversarial worst-pattern traffic, no silent corruption.
/// let member = &run.result.members[0];
/// assert_eq!(member.closed_loop.as_ref().unwrap().shadow_violations(), 0);
/// ```
pub mod scenario {
    pub use razorbus_scenario::*;
}

pub use razorbus_artifact::{Artifact, ArtifactError};
pub use razorbus_core::{BusSimulator, CompiledTrace, DvsBusDesign, SimReport, TraceSummary};
pub use razorbus_ctrl::{ThresholdController, VoltageGovernor};
pub use razorbus_process::PvtCorner;
pub use razorbus_traces::Benchmark;
