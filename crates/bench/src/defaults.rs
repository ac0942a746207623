//! The harness's shared artifact defaults: one copy of the default
//! on-disk paths, the `repro` artifact-name vocabulary and the golden
//! corpus geometry.
//!
//! `repro` (and its tests, and the golden runner) used to each carry
//! their own copies of these strings; a renamed default path then
//! meant chasing literals across files. This module is the single
//! source.

/// Default path for `repro`'s `--save-result`/`--load-result`
/// (`scenario` and `all`).
pub const RESULT_PATH: &str = "scenario-result.rzba";

/// Default path for `repro record`'s `--manifest`.
pub const MANIFEST_PATH: &str = "campaign.rzba";

/// Default path for `repro scenario`'s `--save-digest` (the framed
/// `campaign-digest` artifact of an aggregate campaign).
pub const DIGEST_PATH: &str = "campaign-digest.rzba";

/// Default path for `repro scenario`'s `--digest-csv` (one row per
/// aggregated metric, machine-readable).
pub const DIGEST_CSV_PATH: &str = "campaign-digest.csv";

/// Default path for `repro digest-merge`'s `--out` (the combined
/// `campaign-digest` artifact).
pub const MERGED_DIGEST_PATH: &str = "campaign-digest-merged.rzba";

/// The committed golden-corpus directory (workspace-relative).
pub const GOLDEN_DIR: &str = "GOLDEN_TESTS";

/// Cycles per benchmark the golden corpus is recorded at: CI-scale —
/// large enough that every governor actually moves, small enough that
/// replaying the whole catalog stays in seconds. `repro golden` pins
/// this (it deliberately ignores `RAZORBUS_CYCLES`) so the committed
/// manifests and the replays always agree on geometry.
pub const GOLDEN_CYCLES: u64 = 20_000;

/// The artifact names `repro` accepts (`all` is accepted on top).
pub const REPRO_ARTIFACTS: [&str; 14] = [
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "table1",
    "fig10",
    "scaling",
    "ablations",
    "scenario",
    "scenarios",
    "record",
    "replay",
    "golden",
    "digest-merge",
];
