//! Stored expected outputs: each workload's campaign fingerprint at the
//! default seed and at one held-out seed, recorded from the executor and
//! reproduced bit for bit by the traced run. Other seeds are checked
//! against the traced run instead.

use crate::workload::Check;
use razorbus_artifact::ContentDigest;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2005;

/// A second seed with stored digests, so a claimed gain can be rechecked
/// on a seed the change was not written against.
pub const HELD_OUT_SEED: u64 = 4242;

const fn d(crc32: u32, len: u64) -> ContentDigest {
    ContentDigest { crc32, len }
}

/// (workload, seed, cycles) → the expected fingerprint.
const EXPECTED: [(&str, u64, u64, Check); 4] = [
    (
        "paper-all",
        DEFAULT_SEED,
        1_000_000,
        Check {
            result: d(0x022c_13e5, 2_787_544),
            campaign: None,
            figures: Some(d(0xf300_4278, 11_811)),
        },
    ),
    (
        "paper-all",
        HELD_OUT_SEED,
        1_000_000,
        Check {
            result: d(0x00db_fcce, 2_787_544),
            campaign: None,
            figures: Some(d(0xa6cf_4dde, 11_814)),
        },
    ),
    (
        "mc-10k-short",
        DEFAULT_SEED,
        2_000,
        Check {
            result: d(0x7044_8256, 1_560_703),
            campaign: Some(d(0x028d_ffca, 6_921)),
            figures: None,
        },
    ),
    (
        "mc-10k-short",
        HELD_OUT_SEED,
        2_000,
        Check {
            result: d(0x42e2_df6c, 1_560_703),
            campaign: Some(d(0x23cc_4457, 6_921)),
            figures: None,
        },
    ),
];

/// The stored fingerprint of `workload` at `seed` and `cycles`, if any.
pub fn lookup(workload: &str, seed: u64, cycles: u64) -> Option<Check> {
    EXPECTED
        .iter()
        .find(|(w, s, c, _)| *w == workload && *s == seed && *c == cycles)
        .map(|(_, _, _, check)| *check)
}
