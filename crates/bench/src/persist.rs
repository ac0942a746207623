//! Persistence of the `repro all` shared heavy inputs.
//!
//! `repro all` spends nearly all of its wall clock collecting three
//! inputs (see `run_everything` in the `repro` binary): the
//! typical-corner consecutive closed loop whose by-product histograms
//! form the [`SummaryBank`], the worst-corner closed loop, and the
//! modified bus's worst-corner loop plus combined summary. Everything
//! printed afterwards is a cheap table walk over these. [`ReproSummaries`]
//! bundles the three with their collection parameters so
//! `repro all --save-summaries` / `--load-summaries` can collect once and
//! reuse across runs — bit-identically, which the differential tests in
//! this module's test suite and CI's cache-reuse smoke job both pin.

use razorbus_artifact::{Artifact, ArtifactError, Encoding};
use razorbus_core::experiments::{self, fig8, fig8::Fig8Data, SummaryBank};
use razorbus_core::{CompiledTrace, DvsBusDesign, TraceSummary};
use razorbus_ctrl::ThresholdController;
use razorbus_process::PvtCorner;
use razorbus_scenario::{LoopData, ScenarioSetRun, SweepData};
use razorbus_tables::BusTables;
use razorbus_traces::Benchmark;
use razorbus_units::VoltageGrid;
use razorbus_wire::BusPhysical;
use std::sync::Arc;

/// The three shared heavy inputs of `repro all`, plus the parameters
/// they were collected under.
///
/// ```
/// use razorbus_artifact::{decode, encode, Artifact, Encoding};
/// use razorbus_bench::persist::{collect_shared_inputs, ReproSummaries};
/// use razorbus_core::DvsBusDesign;
///
/// let design = DvsBusDesign::paper_default();
/// let modified = DvsBusDesign::modified_paper_bus();
/// let summaries = collect_shared_inputs(&design, &modified, 2_000, 42);
///
/// // Round-trips bit-exactly through the framed binary artifact.
/// let bytes = encode(ReproSummaries::KIND, Encoding::Binary, &summaries).unwrap();
/// let reloaded: ReproSummaries = decode(ReproSummaries::KIND, &bytes).unwrap();
/// assert_eq!(reloaded, summaries);
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReproSummaries {
    /// Cycles per benchmark the inputs were collected at.
    pub cycles_per_benchmark: u64,
    /// Trace seed in force during collection.
    pub seed: u64,
    /// Paper bus, typical corner: the Fig. 8 trajectory.
    pub dvs_typical: Fig8Data,
    /// Per-benchmark histograms + merge from the typical-corner pass
    /// (serves Fig. 4 both panels, Fig. 5, Table 1, Fig. 10 original).
    pub bank: SummaryBank,
    /// Paper bus, worst corner (serves Table 1 and Fig. 10).
    pub dvs_worst: Fig8Data,
    /// Modified bus, worst corner.
    pub mod_dvs: Fig8Data,
    /// Modified bus combined summary (Fig. 10's modified-bus sweep).
    pub mod_summary: TraceSummary,
}

impl Artifact for ReproSummaries {
    const KIND: &'static str = "repro-summaries";
}

impl ReproSummaries {
    /// Saves to `path` as a framed binary artifact.
    ///
    /// # Errors
    ///
    /// Propagates encoding and filesystem errors.
    pub fn save(&self, path: &str) -> Result<(), ArtifactError> {
        self.save_file(path, Encoding::Binary)
    }

    /// Loads from `path`, requiring the stored collection parameters to
    /// match the current run's — reusing summaries collected at a
    /// different cycle budget or seed would silently change every figure.
    ///
    /// # Errors
    ///
    /// Propagates artifact errors; reports parameter mismatches as
    /// [`ArtifactError::Malformed`] with both values.
    pub fn load(path: &str, cycles_per_benchmark: u64, seed: u64) -> Result<Self, ArtifactError> {
        let loaded = Self::load_file(path)?;
        if loaded.cycles_per_benchmark != cycles_per_benchmark {
            return Err(ArtifactError::Malformed(format!(
                "summaries were collected at {} cycles/benchmark but this run wants {} \
                 (set RAZORBUS_CYCLES to match or re-save)",
                loaded.cycles_per_benchmark, cycles_per_benchmark
            )));
        }
        if loaded.seed != seed {
            return Err(ArtifactError::Malformed(format!(
                "summaries were collected with seed {} but this run wants {}",
                loaded.seed, seed
            )));
        }
        loaded.validate_program_order()?;
        Ok(loaded)
    }

    /// The downstream drivers (`table1::from_parts` zips the bank with
    /// the closed-loop segments) assert the canonical [`Benchmark::ALL`]
    /// program order at runtime; a decodable artifact that violates it
    /// must error here rather than panic there.
    fn validate_program_order(&self) -> Result<(), ArtifactError> {
        let check = |name: &str, programs: &mut dyn Iterator<Item = Benchmark>| {
            if programs.eq(Benchmark::ALL.iter().copied()) {
                Ok(())
            } else {
                Err(ArtifactError::Malformed(format!(
                    "summaries field `{name}` does not cover the ten benchmarks in \
                     Table 1 order"
                )))
            }
        };
        check(
            "bank",
            &mut self.bank.per_benchmark().iter().map(|(b, _)| *b),
        )?;
        for (name, data) in [
            ("dvs_typical", &self.dvs_typical),
            ("dvs_worst", &self.dvs_worst),
            ("mod_dvs", &self.mod_dvs),
        ] {
            check(name, &mut data.segments.iter().map(|s| s.benchmark))?;
        }
        Ok(())
    }
}

impl ReproSummaries {
    /// Extracts the `repro all` shared inputs from an executed
    /// `paper-all` scenario set — the scenario-layer twin of
    /// [`collect_shared_inputs`], bit-identical to it (the executor runs
    /// the same three heavy jobs; differential tests pin the figures).
    ///
    /// # Errors
    ///
    /// Errors when `run` is not a `paper-all`-shaped set.
    pub fn from_scenario_run(
        run: &ScenarioSetRun,
        cycles_per_benchmark: u64,
        seed: u64,
    ) -> Result<Self, String> {
        let suite_loop = |name: &str| -> Result<Fig8Data, String> {
            match &run.result.member(name)?.closed_loop {
                Some(LoopData::Suite(data)) => Ok(data.clone()),
                _ => Err(format!("member `{name}` carries no suite closed loop")),
            }
        };
        let bank_of = |name: &str| -> Result<SummaryBank, String> {
            match &run.result.member(name)?.sweep {
                Some(SweepData::Bank(bank)) => Ok(bank.clone()),
                _ => Err(format!("member `{name}` carries no summary bank")),
            }
        };
        Ok(Self {
            cycles_per_benchmark,
            seed,
            dvs_typical: suite_loop("fig8")?,
            bank: bank_of("table1@typical")?,
            dvs_worst: suite_loop("table1@worst")?,
            mod_dvs: suite_loop("fig10-modified")?,
            mod_summary: bank_of("fig10-modified")?.into_combined(),
        })
    }
}

/// The table cache of `repro --save-tables`/`--load-tables`: both
/// designs' `BusTables` (the output of the `BusTables::build` a warm
/// run skips), persisted as one artifact.
///
/// The tables carry no provenance, so
/// [`razorbus_core::DvsBusDesign::from_bus_with_tables`] re-derives
/// every cheap stamp from the actual bus (grid, width, setup budget,
/// shadow skew, worst-case load, repeater cap) and refuses tables built
/// for a different technology/corner calibration — the moral twin of
/// `--load-summaries` refusing a stale cycle budget.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReproTables {
    /// Tables of the paper's §3 reference design.
    pub paper: BusTables,
    /// Tables of the §6 modified (coupling × 1.95) bus.
    pub modified: BusTables,
}

impl Artifact for ReproTables {
    const KIND: &'static str = "repro-tables";
}

impl ReproTables {
    /// Captures the cache from already-built designs.
    #[must_use]
    pub fn capture(design: &DvsBusDesign, modified: &DvsBusDesign) -> Self {
        Self {
            paper: design.tables().clone(),
            modified: modified.tables().clone(),
        }
    }

    /// Saves to `path` as a framed binary artifact.
    ///
    /// # Errors
    ///
    /// Propagates encoding and filesystem errors.
    pub fn save(&self, path: &str) -> Result<(), ArtifactError> {
        self.save_file(path, Encoding::Binary)
    }

    /// Loads the cache and reassembles both designs around it, skipping
    /// their `BusTables::build`.
    ///
    /// # Errors
    ///
    /// Propagates artifact errors; reports stamp mismatches (tables
    /// built for a different bus) as [`ArtifactError::Malformed`].
    pub fn load_designs(path: &str) -> Result<(DvsBusDesign, DvsBusDesign), ArtifactError> {
        let cache = Self::load_file(path)?;
        let grid = VoltageGrid::paper_default();
        let design =
            DvsBusDesign::from_bus_with_tables(BusPhysical::paper_default(), grid, cache.paper)
                .map_err(|e| ArtifactError::Malformed(format!("paper tables: {e}")))?;
        let modified = DvsBusDesign::from_bus_with_tables(
            BusPhysical::paper_default().with_boosted_coupling(1.95),
            grid,
            cache.modified,
        )
        .map_err(|e| ArtifactError::Malformed(format!("modified-bus tables: {e}")))?;
        Ok((design, modified))
    }
}

/// The compiled-trace cache of `repro all --save-compiled` /
/// `--load-compiled`: the governor-independent per-cycle classification
/// of both designs' ten-benchmark suites, persisted as one artifact.
/// A warm run replays these instead of re-running `analyze_cycle` —
/// bit-identically, like the other caches (pinned by the differential
/// test below and CI's `artifact-cache` job).
///
/// Each embedded [`CompiledTrace`] carries its own bus stamps, so
/// [`ReproCompiled::load`] refuses traces compiled against a different
/// bus (the moral twin of `--load-tables` refusing foreign tables) on
/// top of the cycle-budget/seed staleness contract.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReproCompiled {
    /// Cycles per benchmark the traces were compiled at.
    pub cycles_per_benchmark: u64,
    /// Trace seed in force during compilation.
    pub seed: u64,
    /// Paper-bus suite, one trace per benchmark in Table 1 order.
    pub paper: Vec<CompiledTrace>,
    /// Modified (§6 coupling × 1.95) bus suite, same order.
    pub modified: Vec<CompiledTrace>,
}

impl Artifact for ReproCompiled {
    const KIND: &'static str = "repro-compiled";
}

impl ReproCompiled {
    /// Compiles both designs' suites through the parallel compile
    /// pipeline ([`fig8::compile_suite_with`] on a
    /// [`razorbus_scenario::PoolChunks`] pool sized by
    /// `--threads`/`RAZORBUS_THREADS`/the hardware) — the same compile
    /// the scenario executor shares, so the persisted cache can never
    /// drift from the in-memory protocol. Bit-identical at every
    /// worker count and chunk size; CI's compile-determinism leg
    /// `cmp`s the saved bytes at 1 vs N threads to prove it.
    ///
    /// # Errors
    ///
    /// Names the variable and its value when `RAZORBUS_THREADS` is not
    /// a positive integer.
    pub fn compile(
        design: &DvsBusDesign,
        modified: &DvsBusDesign,
        cycles_per_benchmark: u64,
        seed: u64,
    ) -> Result<Self, String> {
        let runner = razorbus_scenario::PoolChunks::new(razorbus_scenario::worker_count(None)?);
        let owned = |design: &DvsBusDesign| {
            fig8::compile_suite_with(design, cycles_per_benchmark, seed, &runner)
                .into_iter()
                .map(|trace| Arc::try_unwrap(trace).expect("freshly compiled, sole owner"))
                .collect::<Vec<_>>()
        };
        Ok(Self {
            cycles_per_benchmark,
            seed,
            paper: owned(design),
            modified: owned(modified),
        })
    }

    /// Saves to `path` as a framed binary artifact.
    ///
    /// # Errors
    ///
    /// Propagates encoding and filesystem errors.
    pub fn save(&self, path: &str) -> Result<(), ArtifactError> {
        self.save_file(path, Encoding::Binary)
    }

    /// Loads from `path`, requiring the stored cycle budget and seed to
    /// match the current run's and every trace's bus stamps to match
    /// the design it will replay against.
    ///
    /// # Errors
    ///
    /// Propagates artifact errors; reports parameter and stamp
    /// mismatches as [`ArtifactError::Malformed`].
    pub fn load(
        path: &str,
        design: &DvsBusDesign,
        modified: &DvsBusDesign,
        cycles_per_benchmark: u64,
        seed: u64,
    ) -> Result<Self, ArtifactError> {
        let loaded = Self::load_file(path)?;
        if loaded.cycles_per_benchmark != cycles_per_benchmark {
            return Err(ArtifactError::Malformed(format!(
                "compiled traces cover {} cycles/benchmark but this run wants {} \
                 (set RAZORBUS_CYCLES to match or re-save)",
                loaded.cycles_per_benchmark, cycles_per_benchmark
            )));
        }
        if loaded.seed != seed {
            return Err(ArtifactError::Malformed(format!(
                "compiled traces used seed {} but this run wants {}",
                loaded.seed, seed
            )));
        }
        for (name, suite, against) in [
            ("paper", &loaded.paper, design),
            ("modified", &loaded.modified, modified),
        ] {
            if suite.len() != Benchmark::ALL.len() {
                return Err(ArtifactError::Malformed(format!(
                    "{name} suite holds {} traces, expected one per benchmark",
                    suite.len()
                )));
            }
            for (benchmark, trace) in Benchmark::ALL.iter().zip(suite) {
                if trace.cycles() != cycles_per_benchmark {
                    return Err(ArtifactError::Malformed(format!(
                        "{name}/{benchmark} trace covers {} cycles, expected {}",
                        trace.cycles(),
                        cycles_per_benchmark
                    )));
                }
                trace
                    .matches(against)
                    .map_err(|e| ArtifactError::Malformed(format!("{name}/{benchmark}: {e}")))?;
            }
        }
        Ok(loaded)
    }

    /// Replays the compiled suites into the three shared heavy inputs —
    /// bit-identical to [`collect_shared_inputs`] over the live traces
    /// (the replay path shares the simulator's loop), with zero
    /// `analyze_cycle` work. Consumes `self`: the arrays move into the
    /// replay jobs without copying.
    #[must_use]
    pub fn into_shared_inputs(
        self,
        design: &DvsBusDesign,
        modified: &DvsBusDesign,
    ) -> ReproSummaries {
        let cycles_per_benchmark = self.cycles_per_benchmark;
        let seed = self.seed;
        let paper: Vec<Arc<CompiledTrace>> = self.paper.into_iter().map(Arc::new).collect();
        let mod_suite: Vec<Arc<CompiledTrace>> = self.modified.into_iter().map(Arc::new).collect();
        let controller = |design: &DvsBusDesign, corner: PvtCorner| {
            ThresholdController::new(design.controller_config(corner.process))
        };
        let ((dvs_typical, bank), dvs_worst, (mod_dvs, mod_summary)) = std::thread::scope(|s| {
            let (paper_typ, paper_wst, mod_ref) = (&paper, &paper, &mod_suite);
            let h_typ = s.spawn(move || {
                let (data, per) = fig8::replay_protocol(
                    design,
                    PvtCorner::TYPICAL,
                    paper_typ,
                    controller(design, PvtCorner::TYPICAL),
                    Some(10_000),
                    true,
                );
                (data, SummaryBank::from_per_benchmark(per))
            });
            let h_wst = s.spawn(move || {
                fig8::replay_protocol(
                    design,
                    PvtCorner::WORST,
                    paper_wst,
                    controller(design, PvtCorner::WORST),
                    Some(10_000),
                    false,
                )
                .0
            });
            let h_mod = s.spawn(move || {
                let (data, per) = fig8::replay_protocol(
                    modified,
                    PvtCorner::WORST,
                    mod_ref,
                    controller(modified, PvtCorner::WORST),
                    Some(10_000),
                    true,
                );
                (data, SummaryBank::from_per_benchmark(per).into_combined())
            });
            (
                h_typ.join().expect("typical replay + summary bank"),
                h_wst.join().expect("worst replay"),
                h_mod.join().expect("modified replay + summary"),
            )
        });
        ReproSummaries {
            cycles_per_benchmark,
            seed,
            dvs_typical,
            bank,
            dvs_worst,
            mod_dvs,
            mod_summary,
        }
    }
}

/// Collects the three shared heavy inputs exactly as `repro all` does,
/// fanned out on scoped threads: the closed-loop runs double as the
/// summary passes (one for the paper bus at the typical corner, one for
/// the modified bus at its worst corner), and the worst-corner paper-bus
/// loop runs alongside.
#[must_use]
pub fn collect_shared_inputs(
    design: &DvsBusDesign,
    modified: &DvsBusDesign,
    cycles_per_benchmark: u64,
    seed: u64,
) -> ReproSummaries {
    let ((dvs_typical, bank), dvs_worst, (mod_dvs, mod_summary)) = std::thread::scope(|s| {
        let h_typ = s.spawn(move || {
            let (data, per) = experiments::fig8::run_with_summaries(
                design,
                PvtCorner::TYPICAL,
                cycles_per_benchmark,
                seed,
            );
            (data, SummaryBank::from_per_benchmark(per))
        });
        let h_wst = s.spawn(move || {
            experiments::fig8::run(design, PvtCorner::WORST, cycles_per_benchmark, seed)
        });
        let h_mod = s.spawn(move || {
            let (data, per) = experiments::fig8::run_with_summaries(
                modified,
                PvtCorner::WORST,
                cycles_per_benchmark,
                seed,
            );
            (data, SummaryBank::from_per_benchmark(per).into_combined())
        });
        (
            h_typ.join().expect("fig8 typical + summary bank"),
            h_wst.join().expect("fig8 worst"),
            h_mod.join().expect("fig8 modified + summary"),
        )
    });
    ReproSummaries {
        cycles_per_benchmark,
        seed,
        dvs_typical,
        bank,
        dvs_worst,
        mod_dvs,
        mod_summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_artifact::{decode, encode};

    fn small_inputs() -> ReproSummaries {
        let design = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        collect_shared_inputs(&design, &modified, 1_000, 7)
    }

    #[test]
    fn shared_inputs_round_trip_both_encodings() {
        let inputs = small_inputs();
        for encoding in [Encoding::Binary, Encoding::Json] {
            let bytes = encode(ReproSummaries::KIND, encoding, &inputs).unwrap();
            let back: ReproSummaries = decode(ReproSummaries::KIND, &bytes).unwrap();
            assert_eq!(back, inputs, "{encoding:?} round trip drifted");
        }
    }

    #[test]
    fn figures_from_reloaded_inputs_are_identical() {
        let design = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        let fresh = collect_shared_inputs(&design, &modified, 1_000, 7);
        let bytes = encode(ReproSummaries::KIND, Encoding::Binary, &fresh).unwrap();
        let cached: ReproSummaries = decode(ReproSummaries::KIND, &bytes).unwrap();

        // Every downstream driver must see bit-identical inputs.
        let t1_fresh = experiments::table1::from_parts(
            &design,
            &fresh.bank,
            &fresh.dvs_worst,
            &fresh.dvs_typical,
        );
        let t1_cached = experiments::table1::from_parts(
            &design,
            &cached.bank,
            &cached.dvs_worst,
            &cached.dvs_typical,
        );
        assert_eq!(format!("{t1_fresh:?}"), format!("{t1_cached:?}"));

        let f10_fresh = experiments::fig10::from_parts(
            &design,
            &modified,
            fresh.bank.combined(),
            &fresh.mod_summary,
            &fresh.dvs_worst,
            &fresh.mod_dvs,
        );
        let f10_cached = experiments::fig10::from_parts(
            &design,
            &modified,
            cached.bank.combined(),
            &cached.mod_summary,
            &cached.dvs_worst,
            &cached.mod_dvs,
        );
        assert_eq!(format!("{f10_fresh:?}"), format!("{f10_cached:?}"));
    }

    #[test]
    fn scenario_run_shared_inputs_match_hand_collected() {
        // The scenario executor is now the collection path of
        // `repro all`; its products must be bit-identical to the
        // hand-wired collect_shared_inputs it replaced.
        let run = razorbus_scenario::paper::paper_all_set(1_000, 7)
            .run()
            .unwrap();
        let via_scenario = ReproSummaries::from_scenario_run(&run, 1_000, 7).unwrap();
        assert_eq!(via_scenario, small_inputs());
    }

    #[test]
    fn table_cache_round_trips_bit_identically() {
        let design = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        let cache = ReproTables::capture(&design, &modified);
        let path = std::env::temp_dir().join("razorbus-test-tables.rzba");
        let path = path.to_str().unwrap();
        cache.save(path).unwrap();
        let (d2, m2) = ReproTables::load_designs(path).unwrap();
        // A figure driven off the reassembled designs is bit-identical.
        let fresh = experiments::fig4::run(&design, PvtCorner::TYPICAL, 2_000, 3);
        let warm = experiments::fig4::run(&d2, PvtCorner::TYPICAL, 2_000, 3);
        assert_eq!(format!("{fresh:?}"), format!("{warm:?}"));
        assert_eq!(m2.skew().chosen_skew(), modified.skew().chosen_skew());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn table_cache_refuses_mismatched_stamps() {
        // Paper tables under the modified bus (and vice versa) carry
        // the wrong shadow-skew/worst-load stamps and must be refused.
        let design = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        let swapped = ReproTables {
            paper: modified.tables().clone(),
            modified: design.tables().clone(),
        };
        let path = std::env::temp_dir().join("razorbus-test-tables-swapped.rzba");
        let path = path.to_str().unwrap();
        swapped.save(path).unwrap();
        let err = ReproTables::load_designs(path).unwrap_err();
        assert!(err.to_string().contains("tables"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn compiled_replay_matches_live_collection_bitwise() {
        // `repro all --load-compiled` must be indistinguishable from a
        // cold run: replaying the compiled suites yields the exact
        // ReproSummaries the live collection produces.
        let design = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        let compiled = ReproCompiled::compile(&design, &modified, 1_000, 7).unwrap();
        let via_replay = compiled.into_shared_inputs(&design, &modified);
        assert_eq!(via_replay, small_inputs());
    }

    #[test]
    fn compiled_bundle_round_trips_and_validates() {
        let design = DvsBusDesign::paper_default();
        let modified = DvsBusDesign::modified_paper_bus();
        let compiled = ReproCompiled::compile(&design, &modified, 500, 7).unwrap();
        let path = std::env::temp_dir().join("razorbus-test-compiled.rzba");
        let path = path.to_str().unwrap();
        compiled.save(path).unwrap();
        let back = ReproCompiled::load(path, &design, &modified, 500, 7).unwrap();
        assert_eq!(back, compiled);
        // Stale parameters are refused.
        let wrong_cycles = ReproCompiled::load(path, &design, &modified, 600, 7).unwrap_err();
        assert!(wrong_cycles.to_string().contains("cycles/benchmark"));
        let wrong_seed = ReproCompiled::load(path, &design, &modified, 500, 8).unwrap_err();
        assert!(wrong_seed.to_string().contains("seed"));
        // Traces compiled for the other bus are refused by their stamps.
        let swapped = ReproCompiled {
            paper: compiled.modified.clone(),
            modified: compiled.paper.clone(),
            ..compiled
        };
        swapped.save(path).unwrap();
        let err = ReproCompiled::load(path, &design, &modified, 500, 7).unwrap_err();
        assert!(err.to_string().contains("stamp"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn load_rejects_reordered_programs() {
        let mut inputs = small_inputs();
        // A decodable artifact whose bank disagrees with the closed-loop
        // segment order must be refused at load, not panic in table1.
        let mut reversed: Vec<_> = inputs.bank.per_benchmark().to_vec();
        reversed.reverse();
        inputs.bank = SummaryBank::from_per_benchmark(reversed);
        let path = std::env::temp_dir().join("razorbus-test-reordered.rzba");
        let path = path.to_str().unwrap();
        inputs.save(path).unwrap();
        let err = ReproSummaries::load(path, 1_000, 7).unwrap_err();
        assert!(err.to_string().contains("bank"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn load_rejects_parameter_mismatch() {
        let inputs = small_inputs();
        let path = std::env::temp_dir().join("razorbus-test-mismatch.rzba");
        let path = path.to_str().unwrap();
        inputs.save(path).unwrap();
        assert!(ReproSummaries::load(path, 1_000, 7).is_ok());
        let wrong_cycles = ReproSummaries::load(path, 2_000, 7).unwrap_err();
        assert!(wrong_cycles.to_string().contains("cycles/benchmark"));
        let wrong_seed = ReproSummaries::load(path, 1_000, 8).unwrap_err();
        assert!(wrong_seed.to_string().contains("seed"));
        std::fs::remove_file(path).unwrap();
    }
}
