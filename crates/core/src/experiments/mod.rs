//! One module per table/figure of the paper's evaluation.
//!
//! | Paper artifact | Function | Output |
//! |---|---|---|
//! | Fig. 4a/4b | [`fig4::from_summary`] | energy & error rate vs. VDD |
//! | Fig. 5 | [`fig5::from_summary`] | energy gain vs. delay@1.2 V per corner/target |
//! | Fig. 6 | [`fig6::from_windows`] | oracle voltage residency per program |
//! | Fig. 8 | [`fig8::run`] | closed-loop VDD / error-rate trajectory |
//! | Table 1 | [`table1::from_parts`] | fixed-VS vs. proposed-DVS gains per program |
//! | Fig. 10 + §6 | [`fig10::from_parts`] | modified-bus gains |
//! | §6 scaling | [`scaling::row`] | technology-node trends |
//!
//! Figs. 4, 5, 6 and 10, Table 1 and the scaling rows are built from
//! heavy inputs collected elsewhere — a [`SummaryBank`] or
//! [`combined_summary`], a [`crate::WindowedSummary`] per program, and
//! Fig. 8 closed loops — which the scenario executor's `repro-all`
//! campaign collects once and shares across figures. Every function
//! returns a printable data structure; the `razorbus-bench` crate's
//! `repro` binary prints them.

pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod scaling;
pub mod table1;

use crate::design::DvsBusDesign;
use crate::summary::TraceSummary;
use razorbus_traces::Benchmark;

/// The per-benchmark histograms plus their all-programs merge, collected
/// once and then reused across every static sweep.
///
/// A summary depends only on `(design, benchmark, seed, cycles)` — not on
/// the PVT corner or supply voltage, which are applied at query time — so
/// one bank serves Fig. 4 (both panels), Fig. 5, Table 1 (both corners)
/// and Fig. 10's original-bus side. `repro all` used to recollect the
/// identical set five times.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryBank {
    per: Vec<(Benchmark, TraceSummary)>,
    combined: TraceSummary,
}

/// Only the per-benchmark summaries are persisted; the merge is
/// recomputed on load (`combined` is derived state, and merging is
/// bit-exact integer/float addition in a fixed order).
impl serde::Serialize for SummaryBank {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut state = serializer.serialize_struct("SummaryBank", 1)?;
        state.serialize_field("per", &self.per)?;
        state.end()
    }
}

/// Validating deserialization: rebuilds the combined summary from the
/// persisted per-benchmark list, erroring (not panicking) when the list
/// is empty or the histograms disagree in shape.
impl<'de> serde::Deserialize<'de> for SummaryBank {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Repr {
            per: Vec<(Benchmark, TraceSummary)>,
        }
        use serde::de::Error;
        let Repr { per } = Repr::deserialize(deserializer)?;
        if per.is_empty() {
            return Err(D::Error::custom("summary bank with no benchmarks"));
        }
        // Every TraceSummary that deserialized successfully already has
        // the canonical histogram shape, so the merge cannot panic.
        Ok(Self::from_per_benchmark(per))
    }
}

impl SummaryBank {
    /// Collects all ten benchmarks, one after another, and merges them
    /// in [`Benchmark::ALL`] order.
    #[must_use]
    pub fn collect(design: &DvsBusDesign, cycles_per_benchmark: u64, seed: u64) -> Self {
        let per = Benchmark::ALL
            .iter()
            .map(|&b| {
                let summary =
                    TraceSummary::collect(design, &mut b.trace(seed), cycles_per_benchmark);
                (b, summary)
            })
            .collect();
        Self::from_per_benchmark(per)
    }

    /// Builds a bank from already-collected per-benchmark summaries —
    /// e.g. the by-product of [`fig8::run_protocol`] with histograms on,
    /// which shares one trace pass between the closed loop and the sweep
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if `per` is empty.
    #[must_use]
    pub fn from_per_benchmark(per: Vec<(Benchmark, TraceSummary)>) -> Self {
        let mut iter = per.iter();
        let (_, first) = iter.next().expect("at least one benchmark");
        let mut combined = first.clone();
        for (_, s) in iter {
            combined.merge(s);
        }
        Self { per, combined }
    }

    /// Per-benchmark summaries in [`Benchmark::ALL`] order.
    #[must_use]
    pub fn per_benchmark(&self) -> &[(Benchmark, TraceSummary)] {
        &self.per
    }

    /// The all-programs merge (the "running all the benchmark programs"
    /// aggregation of Figs. 4/5).
    #[must_use]
    pub fn combined(&self) -> &TraceSummary {
        &self.combined
    }
}

/// Merges all ten benchmarks into one combined summary (the "running all
/// the benchmark programs" aggregation of Figs. 4/5).
#[must_use]
pub fn combined_summary(
    design: &DvsBusDesign,
    cycles_per_benchmark: u64,
    seed: u64,
) -> TraceSummary {
    SummaryBank::collect(design, cycles_per_benchmark, seed).combined
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_summary_spans_all_benchmarks() {
        let d = DvsBusDesign::paper_default();
        let s = combined_summary(&d, 2_000, 1);
        assert_eq!(s.cycles(), 20_000);
    }

    #[test]
    fn summary_bank_combined_matches_manual_merge() {
        let d = DvsBusDesign::paper_default();
        let bank = SummaryBank::collect(&d, 2_000, 3);
        assert_eq!(bank.per_benchmark().len(), Benchmark::ALL.len());
        let mut iter = bank.per_benchmark().iter();
        let mut merged = iter.next().unwrap().1.clone();
        for (_, s) in iter {
            merged.merge(s);
        }
        assert_eq!(bank.combined().cycles(), merged.cycles());
        let v = razorbus_units::Millivolts::new(900);
        let pvt = razorbus_process::PvtCorner::TYPICAL;
        assert_eq!(
            bank.combined().error_cycles(&d, pvt, v),
            merged.error_cycles(&d, pvt, v)
        );
    }
}
