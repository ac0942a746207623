//! Lane-vectorized replay kernel: the integer half of the compiled-trace
//! inner loop, processed eight cycles at a time with u64 bit-tricks.
//!
//! The compiled stream is branch-free struct-of-arrays data — per-cycle
//! `(toggles u8, load-bin u16, switched-cap f64)` — and the per-cycle
//! classification the hot loop performs on it reduces to integers once
//! the supply row's float pass limits are requantized:
//!
//! * `load > pass[bucket]` with `load = bin · CEFF_BIN_WIDTH` is
//!   monotone in the bin, so each `(supply, toggle count)` pair has a
//!   **minimal erroring bin**; the float comparison becomes
//!   `bin >= err_bin[toggles]` — exactly, for every representable bin
//!   (see [`LaneThresholds`]).
//! * Eight toggle bytes load as one `u64`; their sum folds with two
//!   masked adds and a multiply. Four 16-bit bins compare against four
//!   packed thresholds in one borrow-free SWAR subtraction, yielding one
//!   result bit per field ([`swar_ge4`]); one more multiply
//!   ([`count8`]) turns two masks into an error/violation count.
//!
//! There is one kernel, [`process_fused`], which judges every lane
//! against any number of members' threshold tables — a solo replay is
//! one member, a fused replay one per operating point.
//!
//! The float work is deliberately **not** vectorized: the switched-cap
//! accumulation keeps the scalar loop's exact add sequence (f64 addition
//! is not associative), so replay results stay bit-identical to the
//! scalar body — pinned by the differential tests in `sim.rs` and by the
//! unit tests below. The only elision is whole-lanes of quiet cycles,
//! whose contributions are all `+0.0` by the format's quiet-cycle
//! invariant and therefore cannot change a non-negative accumulator
//! bitwise.

use crate::summary::{bucket_of, CEFF_BIN_WIDTH, N_BUCKETS, N_CEFF_BINS};

/// Cycles per vector lane: eight `u8` toggle counts per `u64`.
const LANE: usize = 8;

/// Widest bus the compiled format admits (toggle counts are validated
/// `<= n_bits <= 32` on both compile and deserialize), so threshold
/// tables indexed directly by toggle count need `MAX_TOGGLES + 1` slots.
pub(crate) const MAX_TOGGLES: usize = 32;

/// Sentinel threshold meaning "no stored bin errors here": every valid
/// bin is `< N_CEFF_BINS`, so `bin >= NEVER` is false for all of them.
/// Doubles as the toggle-count-zero entry (a quiet cycle never errors).
const NEVER: u16 = N_CEFF_BINS as u16;

/// Alternating-byte mask for the pairwise step of the toggle-byte sum.
const PAIR_MASK: u64 = 0x00FF_00FF_00FF_00FF;

/// The spare top bit of each 16-bit field — both operands of
/// [`swar_ge4`] stay below `0x8000`, so the bit is free to carry the
/// per-field comparison result.
const FIELD_TOP: u64 = 0x8000_8000_8000_8000;

/// Per-cycle error/shadow decisions of one supply grid point, requantized
/// to integer bin thresholds and indexed directly by toggle count.
///
/// `err_bin[t]` is the smallest bin whose reconstructed load
/// (`bin as f64 * CEFF_BIN_WIDTH`) exceeds the row's pass limit for
/// toggle count `t`'s activity bucket — so `bin >= err_bin[t]`
/// reproduces the scalar loop's `toggles > 0 && load > pass[bucket]`
/// exactly: the reconstruction is monotone in the bin, the threshold is
/// found with the *same* float comparison, and `t == 0` maps to
/// [`NEVER`]. `shadow_bin` is the same requantization of the shadow
/// limits; the shadow decision additionally requires the error decision
/// (the scalar loop short-circuits on `error`), which the caller
/// preserves by AND-ing the two masks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LaneThresholds {
    err_bin: [u16; MAX_TOGGLES + 1],
    shadow_bin: [u16; MAX_TOGGLES + 1],
}

impl LaneThresholds {
    /// Requantizes one supply row's per-bucket float limits: once per
    /// bucket, then fanned out to the toggle counts through
    /// [`bucket_of`].
    pub(crate) fn from_limits(pass: &[f64; N_BUCKETS], shadow: &[f64; N_BUCKETS]) -> Self {
        let err = pass.map(min_exceeding_bin);
        let sh = shadow.map(min_exceeding_bin);
        let mut thr = Self {
            err_bin: [NEVER; MAX_TOGGLES + 1],
            shadow_bin: [NEVER; MAX_TOGGLES + 1],
        };
        for toggles in 1..=MAX_TOGGLES {
            let bucket = bucket_of(toggles as u32);
            thr.err_bin[toggles] = err[bucket];
            thr.shadow_bin[toggles] = sh[bucket];
        }
        thr
    }
}

/// The smallest bin whose reconstructed load exceeds `limit`, using the
/// identical float comparison the scalar loop performs — or [`NEVER`]
/// when no representable bin does.
///
/// The comparison is monotone in the bin (the reconstruction is, and
/// `x > limit` is monotone in `x` for every limit, NaN and ±inf
/// included), so a binary search over it finds exactly the bin a linear
/// scan would.
fn min_exceeding_bin(limit: f64) -> u16 {
    // Every bin below `lo` stays at or under the limit; `hi` is either
    // `NEVER` or a bin that exceeds it.
    let (mut lo, mut hi) = (0, NEVER);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if f64::from(mid) * CEFF_BIN_WIDTH > limit {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// One member's integer counts over one chunk. The toggle sum and the
/// capacitance sum never consult a threshold table, so [`process_fused`]
/// computes them once for all members and returns them alongside these.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct MemberCounts {
    /// Error (recovery) cycles in the chunk, for this member.
    pub errors: u64,
    /// Shadow-latch violations in the chunk, for this member.
    pub shadow: u64,
}

/// The lane kernel: classifies `toggles.len()` cycles against *every*
/// member's thresholds in one pass, while each lane's words are hot in
/// registers/L1. Returns the member-independent `(toggle sum,
/// switched-capacitance sum)` pair and writes each member's
/// error/violation counts into its `counts` slot.
///
/// Bit-identical to the scalar loop body over the same slices, for every
/// member: the integer counts are exact by construction (one bin pack
/// serves every member, each compares it against its own gathered
/// thresholds), and the capacitance sum visits the same values in the
/// same order — quiet lanes are skipped only because all-zero toggles
/// imply all-`+0.0` capacitances, which cannot change a non-negative f64
/// accumulator bitwise, and `err_bin[0]` is [`NEVER`] in every table.
/// Called with one-element arrays (as `run_stream` does for a lone
/// member), the member loop unrolls after inlining and the counts stay
/// in registers.
#[inline(always)]
pub(crate) fn process_fused<T: AsRef<LaneThresholds>>(
    toggles: &[u8],
    bins: &[u16],
    switched: &[f64],
    thrs: &[T],
    counts: &mut [MemberCounts],
) -> (u64, f64) {
    debug_assert_eq!(toggles.len(), bins.len());
    debug_assert_eq!(toggles.len(), switched.len());
    debug_assert_eq!(thrs.len(), counts.len());
    counts.fill(MemberCounts::default());
    let mut toggle_sum = 0u64;
    let mut wire_cap = 0.0f64;
    let lanes = toggles.len() / LANE;
    for lane in 0..lanes {
        let base = lane * LANE;
        let t8: [u8; LANE] = toggles[base..base + LANE].try_into().expect("lane width");
        let t64 = u64::from_le_bytes(t8);
        if t64 == 0 {
            continue;
        }
        // Toggle sum: fold eight bytes (each <= 32) into adjacent 16-bit
        // fields, then sum the four fields with one widening multiply
        // (total <= 256, no field overflow at any step).
        let pairs = (t64 & PAIR_MASK) + ((t64 >> 8) & PAIR_MASK);
        toggle_sum += pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48;

        // Error/shadow: one bin pack serves every member; each gathers
        // its own thresholds by toggle count and compares four packed
        // bins per SWAR op, one decision bit per field. The shadow
        // decision is gated on the error decision, exactly like the
        // scalar short-circuit.
        let bins_lo = pack4(bins[base..base + 4].try_into().expect("lane half"));
        let bins_hi = pack4(bins[base + 4..base + LANE].try_into().expect("lane half"));
        for (thr, cnt) in thrs.iter().zip(counts.iter_mut()) {
            let thr = thr.as_ref();
            let err_lo = gather4(&t8[0..4], &thr.err_bin);
            let err_hi = gather4(&t8[4..LANE], &thr.err_bin);
            let sh_lo = gather4(&t8[0..4], &thr.shadow_bin);
            let sh_hi = gather4(&t8[4..LANE], &thr.shadow_bin);
            let ge_err_lo = swar_ge4(bins_lo, err_lo);
            let ge_err_hi = swar_ge4(bins_hi, err_hi);
            cnt.errors += count8(ge_err_lo, ge_err_hi);
            cnt.shadow += count8(
                ge_err_lo & swar_ge4(bins_lo, sh_lo),
                ge_err_hi & swar_ge4(bins_hi, sh_hi),
            );
        }

        // The float half stays serial: same values, same add order.
        for &cap in &switched[base..base + LANE] {
            wire_cap += cap;
        }
    }
    for c in lanes * LANE..toggles.len() {
        toggle_sum += u64::from(toggles[c]);
        wire_cap += switched[c];
        for (thr, cnt) in thrs.iter().zip(counts.iter_mut()) {
            let thr = thr.as_ref();
            let error = bins[c] >= thr.err_bin[usize::from(toggles[c])];
            cnt.errors += u64::from(error);
            cnt.shadow += u64::from(error && bins[c] >= thr.shadow_bin[usize::from(toggles[c])]);
        }
    }
    (toggle_sum, wire_cap)
}

/// The number of set decision bits in two [`swar_ge4`] results: each
/// field's top bit shifts down to the field's bottom, and one widening
/// multiply sums the eight 0/1 fields (total <= 8, no field overflow).
/// Equal to `lo.count_ones() + hi.count_ones()`, without two software
/// popcounts on targets that lack the instruction.
#[inline]
fn count8(lo: u64, hi: u64) -> u64 {
    ((lo >> 15) + (hi >> 15)).wrapping_mul(0x0001_0001_0001_0001) >> 48
}

/// Packs four 16-bit bins into one u64, field 0 in the low bits.
#[inline]
fn pack4(v: [u16; 4]) -> u64 {
    u64::from(v[0]) | u64::from(v[1]) << 16 | u64::from(v[2]) << 32 | u64::from(v[3]) << 48
}

/// Gathers four threshold fields by toggle count and packs them.
#[inline]
fn gather4(t: &[u8], table: &[u16; MAX_TOGGLES + 1]) -> u64 {
    pack4([
        table[usize::from(t[0])],
        table[usize::from(t[1])],
        table[usize::from(t[2])],
        table[usize::from(t[3])],
    ])
}

/// Per-field `a >= b` over four 16-bit fields, one result bit (the
/// field's top bit) per field.
///
/// Both operands hold values `< 0x8000` (bins and thresholds are
/// `<= 512`), so setting each `a`-field's spare top bit guarantees the
/// per-field subtraction never borrows across fields; the bit survives
/// exactly when `a_field >= b_field`.
#[inline]
fn swar_ge4(a: u64, b: u64) -> u64 {
    ((a | FIELD_TOP) - b) & FIELD_TOP
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AsRef<LaneThresholds> for LaneThresholds {
        fn as_ref(&self) -> &Self {
            self
        }
    }

    /// The scalar loop body over the same slices — the semantic
    /// reference the kernel is pinned to, written with the *original*
    /// float comparison so the requantization itself is under test.
    /// Returns `(counts, toggle sum, capacitance sum)`.
    fn scalar_reference(
        toggles: &[u8],
        bins: &[u16],
        switched: &[f64],
        pass: &[f64; N_BUCKETS],
        shadow: &[f64; N_BUCKETS],
    ) -> (MemberCounts, u64, f64) {
        let mut counts = MemberCounts::default();
        let (mut toggle_sum, mut wire_cap) = (0u64, 0.0f64);
        for c in 0..toggles.len() {
            let t = u32::from(toggles[c]);
            let bucket = bucket_of(t);
            let load = usize::from(bins[c]) as f64 * CEFF_BIN_WIDTH;
            let error = t > 0 && load > pass[bucket];
            counts.errors += u64::from(error);
            counts.shadow += u64::from(error && load > shadow[bucket]);
            toggle_sum += u64::from(t);
            wire_cap += switched[c];
        }
        (counts, toggle_sum, wire_cap)
    }

    /// The kernel for one member, through one-element arrays as
    /// `run_stream` calls it, shaped like [`scalar_reference`].
    fn solo(
        toggles: &[u8],
        bins: &[u16],
        switched: &[f64],
        thr: &LaneThresholds,
    ) -> (MemberCounts, u64, f64) {
        let mut one = [MemberCounts::default()];
        let (toggle_sum, wire_cap) = process_fused(toggles, bins, switched, &[thr], &mut one);
        (one[0], toggle_sum, wire_cap)
    }

    /// Deterministic xorshift so the differential sweeps need no crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    fn random_cycles(
        rng: &mut Rng,
        n: usize,
        quiet_permille: u64,
    ) -> (Vec<u8>, Vec<u16>, Vec<f64>) {
        let mut toggles = Vec::with_capacity(n);
        let mut bins = Vec::with_capacity(n);
        let mut switched = Vec::with_capacity(n);
        for _ in 0..n {
            if rng.next() % 1_000 < quiet_permille {
                toggles.push(0);
                bins.push(0);
                switched.push(0.0);
            } else {
                let t = (rng.next() % 32 + 1) as u8;
                toggles.push(t);
                bins.push((rng.next() % N_CEFF_BINS as u64) as u16);
                switched.push((rng.next() % 4_096) as f64 * 0.125);
            }
        }
        (toggles, bins, switched)
    }

    fn limits(rng: &mut Rng) -> ([f64; N_BUCKETS], [f64; N_BUCKETS]) {
        let mut pass = [0.0; N_BUCKETS];
        let mut shadow = [0.0; N_BUCKETS];
        for b in 0..N_BUCKETS {
            // Mix representable-on-the-grid limits (integer fF/mm, which
            // land exactly on bin boundaries) with fractional ones.
            pass[b] = (rng.next() % 600) as f64 - 30.0 + (rng.next() % 4) as f64 * 0.25;
            shadow[b] = pass[b] + (rng.next() % 64) as f64 * 0.5;
        }
        (pass, shadow)
    }

    #[test]
    fn thresholds_reproduce_the_float_comparison_exactly() {
        // Every (toggle count, bin) cell of the decision table, for
        // limits below, inside and above the bin range — including
        // limits exactly on a bin boundary, where `>` (not `>=`) must
        // be preserved.
        let mut rng = Rng(0x5eed);
        for _ in 0..50 {
            let (pass, shadow) = limits(&mut rng);
            let thr = LaneThresholds::from_limits(&pass, &shadow);
            for t in 0..=MAX_TOGGLES {
                for bin in 0..N_CEFF_BINS as u16 {
                    let load = f64::from(bin) * CEFF_BIN_WIDTH;
                    let bucket = bucket_of(t as u32);
                    let want_err = t > 0 && load > pass[bucket];
                    assert_eq!(bin >= thr.err_bin[t], want_err, "t={t} bin={bin}");
                    let want_shadow = want_err && load > shadow[bucket];
                    assert_eq!(
                        bin >= thr.err_bin[t] && bin >= thr.shadow_bin[t],
                        want_shadow,
                        "t={t} bin={bin}"
                    );
                }
            }
        }
    }

    /// The original requantization: a linear scan for the first
    /// exceeding bin, repeated per toggle count — the reference the
    /// binary search and the per-bucket fan-out are pinned to.
    fn min_exceeding_bin_linear(limit: f64) -> u16 {
        (0..NEVER)
            .find(|&bin| f64::from(bin) * CEFF_BIN_WIDTH > limit)
            .unwrap_or(NEVER)
    }

    fn from_limits_linear(
        pass: &[f64; N_BUCKETS],
        shadow: &[f64; N_BUCKETS],
    ) -> ([u16; MAX_TOGGLES + 1], [u16; MAX_TOGGLES + 1]) {
        let mut err_bin = [NEVER; MAX_TOGGLES + 1];
        let mut shadow_bin = [NEVER; MAX_TOGGLES + 1];
        for toggles in 1..=MAX_TOGGLES {
            let bucket = bucket_of(toggles as u32);
            err_bin[toggles] = min_exceeding_bin_linear(pass[bucket]);
            shadow_bin[toggles] = min_exceeding_bin_linear(shadow[bucket]);
        }
        (err_bin, shadow_bin)
    }

    /// NaN, ±inf, ±0.0, every integer bin edge 0..=512 with its float
    /// neighbours, and limits past the top bin.
    fn oracle_limits() -> Vec<f64> {
        let mut limits = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            511.5,
            600.0,
            1e9,
            f64::MAX,
            -f64::MAX,
        ];
        for k in 0..=N_CEFF_BINS {
            let x = k as f64;
            limits.extend([x, x.next_up(), x.next_down()]);
        }
        limits
    }

    #[test]
    fn requantization_matches_the_linear_scan_oracle() {
        let limits = oracle_limits();
        for &limit in &limits {
            assert_eq!(
                min_exceeding_bin(limit),
                min_exceeding_bin_linear(limit),
                "limit {limit:?}"
            );
        }
        // Whole rows: every window of nine consecutive oracle limits as
        // the pass row, the same window reversed as the shadow row.
        for window in limits.windows(N_BUCKETS) {
            let pass: [f64; N_BUCKETS] = window.try_into().expect("window width");
            let mut shadow = pass;
            shadow.reverse();
            let thr = LaneThresholds::from_limits(&pass, &shadow);
            let (err_bin, shadow_bin) = from_limits_linear(&pass, &shadow);
            assert_eq!(thr.err_bin, err_bin, "pass {pass:?}");
            assert_eq!(thr.shadow_bin, shadow_bin, "shadow {shadow:?}");
        }
    }

    #[test]
    fn boundary_limits_requantize_exactly() {
        // A pass limit exactly equal to a reconstructed load must NOT
        // error at that bin (`>` in the scalar loop), and the sentinel
        // must engage when every bin is below the limit.
        let mut pass = [0.0; N_BUCKETS];
        let mut shadow = [0.0; N_BUCKETS];
        for b in 0..N_BUCKETS {
            pass[b] = 100.0; // exactly bin 100's load at width 1.0
            shadow[b] = f64::from(NEVER) * CEFF_BIN_WIDTH + 1.0; // above all bins
        }
        let thr = LaneThresholds::from_limits(&pass, &shadow);
        for t in 1..=MAX_TOGGLES {
            assert_eq!(thr.err_bin[t], 101);
            assert_eq!(thr.shadow_bin[t], NEVER);
        }
        assert_eq!(thr.err_bin[0], NEVER, "quiet cycles never error");
    }

    #[test]
    fn process_matches_scalar_reference_across_lengths_and_densities() {
        // Exact-lane, tail-only and mixed lengths; dense, sparse and
        // all-quiet traffic (the quiet-lane skip included).
        let mut rng = Rng(2005);
        for quiet_permille in [0, 300, 950, 1_000] {
            for n in [0, 1, 7, 8, 9, 16, 1_000, 4_097] {
                let (toggles, bins, switched) = random_cycles(&mut rng, n, quiet_permille);
                let (pass, shadow) = limits(&mut rng);
                let thr = LaneThresholds::from_limits(&pass, &shadow);
                let (fast, fast_toggles, fast_cap) = solo(&toggles, &bins, &switched, &thr);
                let (slow, slow_toggles, slow_cap) =
                    scalar_reference(&toggles, &bins, &switched, &pass, &shadow);
                assert_eq!(fast.errors, slow.errors, "n={n} quiet={quiet_permille}");
                assert_eq!(fast.shadow, slow.shadow, "n={n} quiet={quiet_permille}");
                assert_eq!(fast_toggles, slow_toggles, "n={n} quiet={quiet_permille}");
                assert_eq!(
                    fast_cap.to_bits(),
                    slow_cap.to_bits(),
                    "n={n} quiet={quiet_permille}"
                );
            }
        }
    }

    #[test]
    fn fused_kernel_matches_solo_process_per_member() {
        // One pass over K member threshold tables must reproduce each
        // member's one-member run exactly: integer counts equal,
        // and the shared toggle/capacitance sums bit-equal to any solo
        // member's (they are member-independent) — across fan-ins,
        // lengths and traffic densities, tails and quiet lanes included.
        let mut rng = Rng(0x000f_05ed);
        for fan_in in [1usize, 3, 4, 16] {
            for quiet_permille in [0, 300, 950, 1_000] {
                for n in [0usize, 1, 7, 8, 9, 16, 1_000, 4_097] {
                    let (toggles, bins, switched) = random_cycles(&mut rng, n, quiet_permille);
                    let thrs: Vec<LaneThresholds> = (0..fan_in)
                        .map(|_| {
                            let (pass, shadow) = limits(&mut rng);
                            LaneThresholds::from_limits(&pass, &shadow)
                        })
                        .collect();
                    let refs: Vec<&LaneThresholds> = thrs.iter().collect();
                    let mut counts = vec![MemberCounts::default(); fan_in];
                    let (toggle_sum, wire_cap) =
                        process_fused(&toggles, &bins, &switched, &refs, &mut counts);
                    for (m, (thr, cnt)) in thrs.iter().zip(&counts).enumerate() {
                        let (alone, alone_toggles, alone_cap) =
                            solo(&toggles, &bins, &switched, thr);
                        let ctx = format!("member {m}/{fan_in}, n={n} quiet={quiet_permille}");
                        assert_eq!(cnt.errors, alone.errors, "{ctx}");
                        assert_eq!(cnt.shadow, alone.shadow, "{ctx}");
                        assert_eq!(toggle_sum, alone_toggles, "{ctx}");
                        assert_eq!(wire_cap.to_bits(), alone_cap.to_bits(), "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn swar_compare_handles_field_extremes() {
        // 0 vs 0, max bin vs sentinel, equal fields, and a mix — one
        // decision bit per field, no cross-field borrows.
        let a = pack4([0, 511, 100, 512]);
        let b = pack4([0, 512, 100, 512]);
        let ge = swar_ge4(a, b);
        assert_eq!(ge.count_ones(), 3); // fields 0, 2, 3 are >=
        assert_eq!(count8(ge, ge), 6);
        assert_eq!(count8(ge, FIELD_TOP), 7);
        assert_eq!(ge & 0x8000, 0x8000);
        assert_eq!(ge & 0x8000_0000, 0);
    }

    #[test]
    fn toggle_sum_folds_saturated_lanes() {
        // Eight maximal toggle counts: the SWAR sum must carry 256
        // without overflowing a field.
        let toggles = [MAX_TOGGLES as u8; LANE];
        let bins = [0u16; LANE];
        let switched = [0.0f64; LANE];
        let thr = LaneThresholds::from_limits(&[1e9; N_BUCKETS], &[1e9; N_BUCKETS]);
        let (acc, toggle_sum, _) = solo(&toggles, &bins, &switched, &thr);
        assert_eq!(toggle_sum, (MAX_TOGGLES * LANE) as u64);
        assert_eq!(acc.errors, 0);
    }
}
