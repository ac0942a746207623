//! Switching transitions and the coupling (Miller) model.
//!
//! The paper's Fig. 9 analyzes two patterns: pattern I (both neighbors
//! switch opposite to the victim, Elmore load `Cg + 4Cc`) and pattern II
//! (one step less coupling, `ΔtD = R·Cc`). A real bus sees a continuum:
//! a same-direction neighbor still leaves some residual coupling current
//! (slew mismatch), a quiet neighbor presents exactly `Cc`, and an
//! opposing neighbor presents slightly more than the ideal `2Cc` once
//! slew alignment is accounted for. [`CouplingModel`] captures this with
//! three delay weights and the standard 0/1/2 charge weights for energy.

/// The per-cycle transition of one wire.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Transition {
    /// Wire rises (0 → 1).
    Rise,
    /// Wire falls (1 → 0).
    Fall,
    /// Wire holds its value.
    Steady,
}

impl Transition {
    /// Transition of a bit given its previous and current values.
    #[inline]
    #[must_use]
    pub fn from_bits(prev: bool, cur: bool) -> Self {
        match (prev, cur) {
            (false, true) => Self::Rise,
            (true, false) => Self::Fall,
            _ => Self::Steady,
        }
    }

    /// Whether this wire toggles this cycle.
    #[inline]
    #[must_use]
    pub fn toggles(self) -> bool {
        !matches!(self, Self::Steady)
    }

    /// Whether two transitions move in opposite directions.
    #[inline]
    #[must_use]
    pub fn opposes(self, other: Self) -> bool {
        matches!(
            (self, other),
            (Self::Rise, Self::Fall) | (Self::Fall, Self::Rise)
        )
    }

    /// Whether two transitions move in the same direction.
    #[inline]
    #[must_use]
    pub fn aligns(self, other: Self) -> bool {
        matches!(
            (self, other),
            (Self::Rise, Self::Rise) | (Self::Fall, Self::Fall)
        )
    }
}

/// What occupies a neighboring track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NeighborKind {
    /// Another bus signal, identified by bit index.
    Signal(usize),
    /// A grounded shield wire (always [`Transition::Steady`]).
    Shield,
    /// Nothing (screened by an intervening shield, or beyond the bus edge).
    Open,
}

/// Slew-aware Miller weights for delay, and charge weights for energy.
///
/// ```
/// use razorbus_wire::{CouplingModel, Transition};
/// let m = CouplingModel::default();
/// let worst = m.delay_weight(Transition::Rise, Transition::Fall);
/// let best = m.delay_weight(Transition::Rise, Transition::Rise);
/// let quiet = m.delay_weight(Transition::Rise, Transition::Steady);
/// assert!(worst > quiet && quiet > best);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CouplingModel {
    /// Delay weight of a same-direction neighbor (ideal 0; >0 from slew
    /// mismatch).
    pub miller_same: f64,
    /// Delay weight of a quiet neighbor (exactly 1 in the Elmore model).
    pub miller_static: f64,
    /// Delay weight of an opposite-direction neighbor (ideal 2; slightly
    /// more with realistic slews) — the value at *perfect* aggressor
    /// alignment; see `alignment_spread`.
    pub miller_opposite: f64,
    /// Slew/arrival-alignment spread of the opposing-aggressor weight:
    /// the effective weight per aggressor is
    /// `miller_opposite · (1 − alignment_spread · u)` with `u ∈ [0, 1)`
    /// drawn deterministically per (cycle, victim, side). A perfectly
    /// aligned aggressor (u = 0) yields the full Miller effect; an
    /// early/late one couples less. This reproduces the *continuum* of
    /// per-pattern delays a transistor-level characterization (the
    /// paper's HSPICE tables) exhibits, instead of a 3-level staircase.
    /// Worst-case analyses (sizing, floors) always assume u = 0.
    pub alignment_spread: f64,
    /// Probability mass at perfect alignment (u = 0): cycles launch from
    /// a common clock, so a large fraction of opposing aggressors *are*
    /// perfectly aligned; the remainder spread uniformly. This is what
    /// puts error mass right at the zero-error onset (the sharp jumps
    /// the paper sees at its 20 mV grid, §4).
    pub alignment_atom: f64,
}

impl CouplingModel {
    /// Creates a coupling model with the given alignment spread.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ same < static < opposite` and
    /// `alignment_spread ∈ [0, 0.5]` (beyond half, an "opposing" aggressor
    /// would couple less than a quiet one).
    #[must_use]
    pub fn new(
        miller_same: f64,
        miller_static: f64,
        miller_opposite: f64,
        alignment_spread: f64,
        alignment_atom: f64,
    ) -> Self {
        assert!(
            0.0 <= miller_same && miller_same < miller_static && miller_static < miller_opposite,
            "Miller weights must be ordered same < static < opposite"
        );
        assert!(
            (0.0..=0.5).contains(&alignment_spread),
            "alignment spread out of range"
        );
        assert!(
            (0.0..=1.0).contains(&alignment_atom),
            "alignment atom out of range"
        );
        Self {
            miller_same,
            miller_static,
            miller_opposite,
            alignment_spread,
            alignment_atom,
        }
    }

    /// The paper's idealized Elmore weights (0 / 1 / 2) with no alignment
    /// spread, yielding exactly the Fig. 9 pattern-I load `Cg + 4Cc`.
    #[must_use]
    pub fn elmore_ideal() -> Self {
        Self::new(0.0, 1.0, 2.0, 0.0, 1.0)
    }

    /// Effective misalignment `u` for a raw hash draw `h ∈ [0, 1)`:
    /// zero within the perfect-alignment atom, uniform beyond it.
    #[inline]
    #[must_use]
    pub fn misalignment(&self, h: f64) -> f64 {
        if h < self.alignment_atom {
            0.0
        } else {
            (h - self.alignment_atom) / self.misalignment_divisor()
        }
    }

    /// The reciprocal of [`misalignment`](Self::misalignment)'s divisor
    /// when that divisor is a power of two (`0.5` at the default atom),
    /// so multiplying by it rounds exactly as dividing does. The divisor
    /// lies in `[1e-12, 1]`, a normal range, so a zero mantissa makes it
    /// a power of two and its reciprocal exact.
    pub(crate) fn misalignment_reciprocal(&self) -> Option<f64> {
        let d = self.misalignment_divisor();
        (d.to_bits() & ((1u64 << 52) - 1) == 0).then(|| 1.0 / d)
    }

    /// [`misalignment`](Self::misalignment), bit for bit, given this
    /// model's [`misalignment_reciprocal`](Self::misalignment_reciprocal):
    /// a multiply in place of the division when it is `Some`.
    #[inline]
    pub(crate) fn misalignment_with(&self, h: f64, recip: Option<f64>) -> f64 {
        match recip {
            Some(_) if h < self.alignment_atom => 0.0,
            Some(r) => (h - self.alignment_atom) * r,
            None => self.misalignment(h),
        }
    }

    fn misalignment_divisor(&self) -> f64 {
        (1.0 - self.alignment_atom).max(1e-12)
    }

    /// Delay-weight contribution of `neighbor` on a toggling `victim`.
    ///
    /// Returns 0 for a steady victim (no delay to speak of).
    #[inline]
    #[must_use]
    pub fn delay_weight(&self, victim: Transition, neighbor: Transition) -> f64 {
        if !victim.toggles() {
            return 0.0;
        }
        if victim.aligns(neighbor) {
            self.miller_same
        } else if victim.opposes(neighbor) {
            self.miller_opposite
        } else {
            self.miller_static
        }
    }

    /// Charge (energy) weight of `neighbor` on a toggling `victim`:
    /// 0 when aligned (coupling cap sees no swing), 1 when the neighbor
    /// is quiet, 2 when opposed (double swing).
    #[inline]
    #[must_use]
    pub fn energy_weight(&self, victim: Transition, neighbor: Transition) -> f64 {
        if !victim.toggles() {
            return 0.0;
        }
        if victim.aligns(neighbor) {
            0.0
        } else if victim.opposes(neighbor) {
            2.0
        } else {
            1.0
        }
    }

    /// Combined worst-case first-neighbor delay weight (both sides
    /// opposing): the `4` of the paper's `Cg + 4Cc` generalized.
    #[inline]
    #[must_use]
    pub fn worst_first_neighbor_weight(&self) -> f64 {
        2.0 * self.miller_opposite
    }

    /// Combined best-case first-neighbor delay weight (both sides
    /// aligned).
    #[inline]
    #[must_use]
    pub fn best_first_neighbor_weight(&self) -> f64 {
        2.0 * self.miller_same
    }
}

impl Default for CouplingModel {
    /// Slew-aware defaults: same = 0.3, static = 1.0, opposite = 2.2,
    /// a 10 % alignment spread and a 50 % perfect-alignment atom
    /// (calibrated so the error-onset band below the zero-error voltage
    /// spans a few 20 mV grid steps with real mass at the onset, as the
    /// paper's Fig. 4 curves show).
    fn default() -> Self {
        Self::new(0.3, 1.0, 2.2, 0.10, 0.5)
    }
}

/// Deterministic per-(cycle, victim, side) alignment draw in `[0, 1)`:
/// a SplitMix64-style hash of the transition words and position, so the
/// streaming simulator and the histogram engine always agree.
#[inline]
#[must_use]
pub fn alignment_unit(prev: u32, cur: u32, bit: usize, side: usize) -> f64 {
    let mut x = (u64::from(prev) << 32 | u64::from(cur))
        ^ (bit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((side as u64) << 61);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_from_bits() {
        assert_eq!(Transition::from_bits(false, true), Transition::Rise);
        assert_eq!(Transition::from_bits(true, false), Transition::Fall);
        assert_eq!(Transition::from_bits(true, true), Transition::Steady);
        assert_eq!(Transition::from_bits(false, false), Transition::Steady);
    }

    #[test]
    fn oppose_align_relations() {
        assert!(Transition::Rise.opposes(Transition::Fall));
        assert!(!Transition::Rise.opposes(Transition::Steady));
        assert!(Transition::Fall.aligns(Transition::Fall));
        assert!(!Transition::Steady.toggles());
    }

    #[test]
    fn elmore_ideal_reproduces_paper_pattern_weights() {
        let m = CouplingModel::elmore_ideal();
        // Pattern I: both neighbors opposite -> combined weight 4.
        assert_eq!(m.worst_first_neighbor_weight(), 4.0);
        // Pattern II is one Cc less: one neighbor opposite, one quiet.
        let w2 = m.delay_weight(Transition::Rise, Transition::Fall)
            + m.delay_weight(Transition::Rise, Transition::Steady);
        assert_eq!(w2, 3.0);
    }

    #[test]
    fn steady_victim_has_no_weights() {
        let m = CouplingModel::default();
        assert_eq!(m.delay_weight(Transition::Steady, Transition::Fall), 0.0);
        assert_eq!(m.energy_weight(Transition::Steady, Transition::Fall), 0.0);
    }

    #[test]
    fn energy_weights_are_0_1_2() {
        let m = CouplingModel::default();
        assert_eq!(m.energy_weight(Transition::Rise, Transition::Rise), 0.0);
        assert_eq!(m.energy_weight(Transition::Rise, Transition::Steady), 1.0);
        assert_eq!(m.energy_weight(Transition::Rise, Transition::Fall), 2.0);
    }

    #[test]
    #[should_panic(expected = "ordered same < static < opposite")]
    fn rejects_unordered_weights() {
        let _ = CouplingModel::new(1.0, 0.5, 2.0, 0.2, 0.5);
    }

    #[test]
    #[should_panic(expected = "alignment spread out of range")]
    fn rejects_large_spread() {
        let _ = CouplingModel::new(0.3, 1.0, 2.2, 0.8, 0.5);
    }

    #[test]
    fn misalignment_reciprocal_only_for_power_of_two_divisors() {
        let model = |atom| CouplingModel::new(0.3, 1.0, 2.2, 0.10, atom);
        for (atom, recip) in [(0.5, Some(2.0)), (0.0, Some(1.0)), (0.3, None), (1.0, None)] {
            let m = model(atom);
            assert_eq!(m.misalignment_reciprocal(), recip, "atom {atom}");
            for i in 0..1_000 {
                let h = alignment_unit(i, !i, (i % 32) as usize, 0);
                assert_eq!(
                    m.misalignment_with(h, recip).to_bits(),
                    m.misalignment(h).to_bits(),
                    "atom {atom}, h {h}"
                );
            }
        }
    }

    #[test]
    fn alignment_unit_is_deterministic_and_uniform() {
        let a = alignment_unit(0xDEAD_BEEF, 0x1234_5678, 7, 0);
        let b = alignment_unit(0xDEAD_BEEF, 0x1234_5678, 7, 0);
        assert_eq!(a, b);
        assert_ne!(a, alignment_unit(0xDEAD_BEEF, 0x1234_5678, 7, 1));
        // Roughly uniform over many draws.
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|i| alignment_unit(i, i.wrapping_mul(2_654_435_761), (i % 32) as usize, 0))
            .sum::<f64>()
            / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let all_in_range = (0..1_000).all(|i| {
            let u = alignment_unit(i, !i, (i % 32) as usize, 1);
            (0.0..1.0).contains(&u)
        });
        assert!(all_in_range);
    }
}
