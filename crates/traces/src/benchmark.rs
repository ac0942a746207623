//! The ten SPEC2000 benchmark profiles of the paper's Table 1.
//!
//! Each profile blends the five word populations so the *coupling tail*
//! (how often a cycle produces near-worst-case adjacent opposite toggles)
//! lands where the paper's measurements put that program: the integer
//! codes with strong value locality (`crafty`, `mesa`, `mcf`, `gap`)
//! scale deeply before hitting the error target; the dense-FP codes
//! (`mgrid`, `swim`, `applu`, `wupwise`) barely scale below the
//! zero-error voltage; `vortex` and `vpr` sit between.

use crate::mixture::{MixtureWeights, PhaseModulated};

/// A benchmark's statistical trace profile.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchmarkProfile {
    /// Calm-phase mixture weights.
    pub calm: MixtureWeights,
    /// Multiplier on the high-entropy weight during hot phases.
    pub hot_boost: f64,
    /// Average phase length in cycles.
    pub phase_period: u64,
    /// Fraction of time in the hot phase.
    pub hot_fraction: f64,
}

impl BenchmarkProfile {
    /// Long-run average weight of high-entropy words — the single biggest
    /// determinant of how deep DVS can push this program.
    #[must_use]
    pub fn effective_random_weight(&self) -> f64 {
        self.calm.random * (1.0 - self.hot_fraction)
            + self.calm.random * self.hot_boost * self.hot_fraction
    }

    /// Builds the trace generator for this profile.
    #[must_use]
    pub fn trace(&self, seed: u64) -> PhaseModulated {
        PhaseModulated::new(
            seed,
            self.calm,
            self.calm.with_random_boost(self.hot_boost),
            self.phase_period,
            self.hot_fraction,
        )
    }
}

/// The ten SPEC2000 programs the paper evaluates, in Table 1 order.
///
/// ```
/// use razorbus_traces::Benchmark;
/// assert_eq!(Benchmark::ALL.len(), 10);
/// assert_eq!(Benchmark::Crafty.name(), "crafty");
/// // crafty's coupling tail is far lighter than mgrid's.
/// assert!(Benchmark::Crafty.profile().effective_random_weight()
///     < Benchmark::Mgrid.profile().effective_random_weight() / 4.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Benchmark {
    /// 186.crafty — chess engine, strong value locality.
    Crafty,
    /// 255.vortex — object database, moderate entropy.
    Vortex,
    /// 172.mgrid — multigrid FP solver, dense mantissa traffic.
    Mgrid,
    /// 171.swim — shallow-water FP code.
    Swim,
    /// 181.mcf — network-simplex pointer chasing.
    Mcf,
    /// 177.mesa — software 3-D rendering (mostly fixed-point paths).
    Mesa,
    /// 175.vpr — FPGA place & route.
    Vpr,
    /// 173.applu — FP PDE solver.
    Applu,
    /// 254.gap — group-theory interpreter, strong locality.
    Gap,
    /// 168.wupwise — FP quantum chromodynamics.
    Wupwise,
}

impl Benchmark {
    /// All programs in Table 1 order.
    pub const ALL: [Self; 10] = [
        Self::Crafty,
        Self::Vortex,
        Self::Mgrid,
        Self::Swim,
        Self::Mcf,
        Self::Mesa,
        Self::Vpr,
        Self::Applu,
        Self::Gap,
        Self::Wupwise,
    ];

    /// SPEC short name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Crafty => "crafty",
            Self::Vortex => "vortex",
            Self::Mgrid => "mgrid",
            Self::Swim => "swim",
            Self::Mcf => "mcf",
            Self::Mesa => "mesa",
            Self::Vpr => "vpr",
            Self::Applu => "applu",
            Self::Gap => "gap",
            Self::Wupwise => "wupwise",
        }
    }

    /// Table 1 row number (1-based), used to label Fig. 8 regions.
    #[must_use]
    pub fn table1_index(self) -> usize {
        Self::ALL.iter().position(|b| *b == self).expect("in ALL") + 1
    }

    /// The tuned statistical profile (see the module docs for the
    /// calibration targets).
    #[must_use]
    pub fn profile(self) -> BenchmarkProfile {
        // Weights are (repeat, near, value, random, zero) transition
        // kinds; `random` is the worst-pattern knob.
        let (calm, hot_boost, phase_period, hot_fraction) = match self {
            // Integer, locality-rich: tiny high-entropy tails.
            Self::Crafty => (
                MixtureWeights::new(0.42, 0.30, 0.20, 0.005, 0.075),
                6.0,
                1_500_000,
                0.25,
            ),
            Self::Mesa => (
                MixtureWeights::new(0.44, 0.30, 0.20, 0.003, 0.057),
                3.0,
                1_000_000,
                0.15,
            ),
            Self::Mcf => (
                MixtureWeights::new(0.32, 0.28, 0.34, 0.0035, 0.0565),
                4.0,
                600_000,
                0.20,
            ),
            Self::Gap => (
                MixtureWeights::new(0.40, 0.30, 0.22, 0.006, 0.074),
                4.0,
                1_200_000,
                0.25,
            ),
            // Mid-entropy integer codes.
            Self::Vortex => (
                MixtureWeights::new(0.30, 0.26, 0.36, 0.045, 0.035),
                2.5,
                900_000,
                0.30,
            ),
            Self::Vpr => (
                MixtureWeights::new(0.28, 0.28, 0.36, 0.050, 0.030),
                2.5,
                700_000,
                0.25,
            ),
            // FP codes: heavy mantissa traffic.
            Self::Applu => (
                MixtureWeights::new(0.16, 0.18, 0.42, 0.20, 0.04),
                1.5,
                800_000,
                0.25,
            ),
            Self::Wupwise => (
                MixtureWeights::new(0.15, 0.17, 0.40, 0.22, 0.06),
                1.5,
                1_000_000,
                0.25,
            ),
            Self::Swim => (
                MixtureWeights::new(0.12, 0.15, 0.41, 0.26, 0.06),
                1.5,
                700_000,
                0.25,
            ),
            Self::Mgrid => (
                MixtureWeights::new(0.10, 0.14, 0.41, 0.30, 0.05),
                1.6,
                800_000,
                0.20,
            ),
        };
        BenchmarkProfile {
            calm,
            hot_boost,
            phase_period,
            hot_fraction,
        }
    }

    /// Builds the trace generator for this benchmark; the seed is folded
    /// with the benchmark identity so different programs never share
    /// streams.
    #[must_use]
    pub fn trace(self, seed: u64) -> PhaseModulated {
        self.profile()
            .trace(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.table1_index() as u64)
    }
}

impl core::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::TraceSource;

    #[test]
    fn table1_indices_are_1_to_10() {
        let idx: Vec<usize> = Benchmark::ALL.iter().map(|b| b.table1_index()).collect();
        assert_eq!(idx, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn locality_programs_have_light_tails() {
        for b in [
            Benchmark::Crafty,
            Benchmark::Mesa,
            Benchmark::Mcf,
            Benchmark::Gap,
        ] {
            assert!(
                b.profile().effective_random_weight() < 0.04,
                "{b}: {}",
                b.profile().effective_random_weight()
            );
        }
        for b in [Benchmark::Mgrid, Benchmark::Swim] {
            assert!(
                b.profile().effective_random_weight() > 0.12,
                "{b}: {}",
                b.profile().effective_random_weight()
            );
        }
    }

    #[test]
    fn traces_are_deterministic_and_distinct() {
        let a: Vec<u32> = Benchmark::Crafty.trace(1).take_words(32);
        let b: Vec<u32> = Benchmark::Crafty.trace(1).take_words(32);
        assert_eq!(a, b);
        let c: Vec<u32> = Benchmark::Vortex.trace(1).take_words(32);
        assert_ne!(a, c);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::Wupwise.to_string(), "wupwise");
    }
}
