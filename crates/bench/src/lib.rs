//! Shared plumbing for the razorbus benchmark harness: cycle budgets,
//! artifact defaults and the golden corpus.
//!
//! The `repro` binary (`cargo run -p razorbus-bench --bin repro --release`)
//! regenerates every table and figure of the paper, and `bench_report`
//! measures the simulator's kernel throughputs ([`report`] holds its
//! JSON format and regression guard). The [`golden`] module records and replays
//! the committed `GOLDEN_TESTS/` corpus of campaign recordings, and
//! [`defaults`] is the single copy of the harness's artifact paths and
//! name vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod defaults;
pub mod golden;
pub mod report;

/// Cycles per benchmark for full reproductions: `default` unless
/// `RAZORBUS_CYCLES` overrides (the paper uses 10 M; the `repro` binary
/// defaults lower, see its `--help`).
///
/// # Errors
///
/// Names the variable and its value when it is set but is not a
/// positive integer.
pub fn cycles_from_env(default: u64) -> Result<u64, String> {
    const VAR: &str = "RAZORBUS_CYCLES";
    Ok(razorbus_core::parse_count_knob(VAR, std::env::var_os(VAR))?.map_or(default, |n| n as u64))
}

/// Seed used across the harness so reproduction runs are comparable.
pub const REPRO_SEED: u64 = 2005;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_parses() {
        // Not setting the variable: default wins.
        std::env::remove_var("RAZORBUS_CYCLES_TEST_SENTINEL");
        assert_eq!(cycles_from_env(123), Ok(123));
    }
}
