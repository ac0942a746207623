//! Traffic shapes the paper never ran: bursty DMA streams and
//! adversarial crosstalk patterns.
//!
//! The SPEC2000 profiles in [`crate::Benchmark`] cover *program*-shaped
//! load traffic; the scenario layer also wants the extremes around it:
//!
//! * [`BurstyDma`] — a bus that is parked most of the time and then
//!   streams dense, high-entropy DMA blocks back to back. The
//!   idle/burst duty cycle is what stresses a DVS controller's ramp:
//!   long quiet stretches invite deep scaling, and each burst arrives
//!   at whatever supply the controller drifted down to.
//! * [`AdversarialCrosstalk`] — the worst-case victim/aggressor pattern
//!   (every adjacent wire pair toggling in opposite directions) applied
//!   for a controllable fraction of cycles. At full aggression every
//!   cycle carries the Fig. 9 worst pattern, pinning the error-driven
//!   controller against its ceiling.
//!
//! Both are deterministic for a given seed, like every generator in
//! this crate.

use crate::source::TraceSource;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Idle-parked bus with periodic high-entropy DMA bursts.
///
/// The stream alternates between an *idle* phase — the bus holds its
/// last word (zero toggles), with an occasional small housekeeping
/// value — and a *burst* phase of dense random words (fresh cache-line
/// payloads every cycle). Phase lengths are jittered ±50 % around their
/// means so the stream does not look periodic to a windowed controller.
///
/// ```
/// use razorbus_traces::{BurstyDma, TraceSource};
///
/// let mut a = BurstyDma::new(7, 400, 6_000, 0.02);
/// let mut b = BurstyDma::new(7, 400, 6_000, 0.02);
/// assert_eq!(a.take_words(64), b.take_words(64));
/// ```
#[derive(Debug, Clone)]
pub struct BurstyDma {
    rng: SmallRng,
    mean_burst: u64,
    mean_idle: u64,
    housekeeping: f64,
    in_burst: bool,
    remaining: u64,
    prev: u32,
}

impl BurstyDma {
    /// Creates a bursty-DMA stream: bursts of ~`mean_burst` cycles of
    /// random words separated by ~`mean_idle` idle cycles, where an idle
    /// cycle emits a small housekeeping value with probability
    /// `housekeeping` (and otherwise holds the previous word).
    ///
    /// # Panics
    ///
    /// Panics if either mean length is zero or `housekeeping` is outside
    /// `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, mean_burst: u64, mean_idle: u64, housekeeping: f64) -> Self {
        assert!(mean_burst > 0, "burst length must be positive");
        assert!(mean_idle > 0, "idle length must be positive");
        assert!(
            (0.0..=1.0).contains(&housekeeping),
            "probability out of range"
        );
        let mut s = Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_3000),
            mean_burst,
            mean_idle,
            housekeeping,
            in_burst: false,
            remaining: 0,
            prev: 0,
        };
        s.start_phase(false);
        s
    }

    fn start_phase(&mut self, burst: bool) {
        self.in_burst = burst;
        let mean = if burst {
            self.mean_burst
        } else {
            self.mean_idle
        } as f64;
        // ±50% jitter, like the SimPoint-ish phase modulation.
        let jitter = self.rng.random_range(0.5..1.5);
        self.remaining = (mean * jitter).max(1.0) as u64;
    }

    /// Whether the generator is currently inside a DMA burst.
    #[must_use]
    pub fn in_burst(&self) -> bool {
        self.in_burst
    }
}

impl TraceSource for BurstyDma {
    fn next_word(&mut self) -> u32 {
        let mut word = [0];
        self.fill(&mut word);
        word[0]
    }

    /// Emits whole phase runs: a burst draws one random word per cycle,
    /// an idle cycle one housekeeping trial (none at a zero rate) and,
    /// on a hit, its value — the draws a word at a time would make, in
    /// the same order.
    fn fill(&mut self, mut out: &mut [u32]) {
        while !out.is_empty() {
            if self.remaining == 0 {
                let next_burst = !self.in_burst;
                self.start_phase(next_burst);
            }
            let n = self.remaining.min(out.len() as u64) as usize;
            let (run, rest) = std::mem::take(&mut out).split_at_mut(n);
            if self.in_burst {
                run.iter_mut().for_each(|word| *word = self.rng.random());
            } else if self.housekeeping > 0.0 {
                for word in run.iter_mut() {
                    if self.rng.random_bool(self.housekeeping) {
                        self.prev = self.rng.random::<u32>() & 0x0000_00FF;
                    }
                    *word = self.prev;
                }
            } else {
                run.fill(self.prev);
            }
            self.prev = run[n - 1];
            self.remaining -= n as u64;
            out = rest;
        }
    }
}

/// The Fig. 9 worst victim/aggressor pattern, applied for a
/// controllable fraction of cycles.
///
/// An adversarial cycle alternates the bus between `0x5555_5555` and
/// `0xAAAA_AAAA`: all 32 wires toggle and every adjacent pair toggles
/// in *opposite* directions, the maximum-Miller-coupling transition.
/// The remaining cycles hold the previous word, so `aggression` is the
/// long-run fraction of worst-pattern cycles.
///
/// ```
/// use razorbus_traces::{AdversarialCrosstalk, TraceSource, TraceStats};
///
/// let mut storm = AdversarialCrosstalk::new(3, 1.0);
/// let stats = TraceStats::collect(&mut storm, 1_000);
/// assert_eq!(stats.mean_toggles, 32.0);
/// assert_eq!(stats.opposing_adjacent_fraction, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct AdversarialCrosstalk {
    rng: SmallRng,
    aggression: f64,
    phase: bool,
    prev: u32,
}

impl AdversarialCrosstalk {
    /// Creates a crosstalk storm emitting the worst pattern on a
    /// `aggression` fraction of cycles.
    ///
    /// # Panics
    ///
    /// Panics if `aggression` is outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, aggression: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&aggression),
            "probability out of range"
        );
        Self {
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_4000),
            aggression,
            phase: false,
            prev: 0x5555_5555,
        }
    }
}

impl TraceSource for AdversarialCrosstalk {
    fn next_word(&mut self) -> u32 {
        let word = if self.aggression > 0.0 && self.rng.random_bool(self.aggression) {
            self.phase = !self.phase;
            if self.phase {
                0xAAAA_AAAA
            } else {
                0x5555_5555
            }
        } else {
            self.prev
        };
        self.prev = word;
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn bursty_dma_is_deterministic() {
        let mut a = BurstyDma::new(11, 300, 4_000, 0.01);
        let mut b = BurstyDma::new(11, 300, 4_000, 0.01);
        assert_eq!(a.take_words(2_048), b.take_words(2_048));
        let mut c = BurstyDma::new(12, 300, 4_000, 0.01);
        assert_ne!(a.take_words(2_048), c.take_words(2_048));
    }

    /// The word-at-a-time body `fill` replaced: the oracle both of
    /// `BurstyDma`'s entry points must match, draw for draw.
    fn next_word_reference(g: &mut BurstyDma) -> u32 {
        if g.remaining == 0 {
            let next_burst = !g.in_burst;
            g.start_phase(next_burst);
        }
        g.remaining -= 1;
        let word = if g.in_burst {
            g.rng.random()
        } else if g.housekeeping > 0.0 && g.rng.random_bool(g.housekeeping) {
            g.rng.random::<u32>() & 0x0000_00FF
        } else {
            g.prev
        };
        g.prev = word;
        word
    }

    #[test]
    fn fill_matches_the_word_at_a_time_reference() {
        // Short phases put many burst/idle boundaries inside each chunk,
        // and chunks of 1 word are `next_word` itself.
        for housekeeping in [0.0, 0.01, 0.5, 1.0] {
            for (seed, burst, idle) in [(1, 1, 1), (2, 3, 17), (3, 40, 5), (4, 300, 4_000)] {
                let mut filled = BurstyDma::new(seed, burst, idle, housekeeping);
                let mut reference = filled.clone();
                for len in [1, 7, 64, 1, 300, 2, 1_000, 5] {
                    let mut block = vec![0; len];
                    filled.fill(&mut block);
                    let words: Vec<u32> = (0..len)
                        .map(|_| next_word_reference(&mut reference))
                        .collect();
                    assert_eq!(block, words, "{seed} {burst} {idle} {housekeeping}");
                }
            }
        }
    }

    #[test]
    fn bursty_dma_alternates_quiet_and_dense_phases() {
        let mut g = BurstyDma::new(5, 500, 5_000, 0.0);
        let stats = TraceStats::collect(&mut g, 120_000);
        // Idle dominates the duty cycle (~10:1), so most cycles are
        // toggle-free, yet the bursts carry full random-word density.
        assert!(stats.quiet_fraction > 0.7, "{stats:?}");
        assert!(stats.mean_toggles > 0.8, "{stats:?}");
        // The burst share of cycles carries ~16 toggles/cycle.
        let burst_share = 1.0 - stats.quiet_fraction;
        let toggles_per_burst_cycle = stats.mean_toggles / burst_share;
        assert!(
            (10.0..=22.0).contains(&toggles_per_burst_cycle),
            "{toggles_per_burst_cycle} toggles per burst cycle"
        );
    }

    #[test]
    fn bursty_dma_reports_phase() {
        let mut g = BurstyDma::new(9, 200, 2_000, 0.02);
        let (mut saw_idle, mut saw_burst) = (false, false);
        for _ in 0..30_000 {
            let _ = g.next_word();
            if g.in_burst() {
                saw_burst = true;
            } else {
                saw_idle = true;
            }
        }
        assert!(saw_idle && saw_burst);
    }

    #[test]
    fn crosstalk_storm_aggression_scales_worst_cycles() {
        let mut mild = AdversarialCrosstalk::new(2, 0.10);
        let stats = TraceStats::collect(&mut mild, 100_000);
        assert!(
            (0.08..=0.12).contains(&stats.opposing_adjacent_fraction),
            "{stats:?}"
        );
        // Every adversarial cycle toggles all 32 wires.
        let toggles_per_hot_cycle = stats.mean_toggles / stats.opposing_adjacent_fraction;
        assert!((toggles_per_hot_cycle - 32.0).abs() < 1e-9, "{stats:?}");
    }

    #[test]
    fn crosstalk_storm_is_deterministic() {
        let mut a = AdversarialCrosstalk::new(4, 0.5);
        let mut b = AdversarialCrosstalk::new(4, 0.5);
        assert_eq!(a.take_words(512), b.take_words(512));
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn crosstalk_rejects_bad_aggression() {
        let _ = AdversarialCrosstalk::new(0, 1.5);
    }

    #[test]
    #[should_panic(expected = "burst length must be positive")]
    fn bursty_dma_rejects_zero_burst() {
        let _ = BurstyDma::new(0, 0, 100, 0.0);
    }
}
