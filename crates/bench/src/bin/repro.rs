//! `repro` — regenerates every table and figure of Kaul et al., DATE
//! 2005, and runs named scenarios from the catalog — all through the
//! declarative scenario layer (`razorbus-scenario`).
//!
//! ```sh
//! cargo run -p razorbus-bench --bin repro --release -- all
//! cargo run -p razorbus-bench --bin repro --release -- table1
//! RAZORBUS_CYCLES=10000000 cargo run -p razorbus-bench --bin repro --release -- fig8
//!
//! # Named scenarios (paper figures and the non-paper workloads):
//! cargo run -p razorbus-bench --bin repro --release -- scenario bursty-dma
//! cargo run -p razorbus-bench --bin repro --release -- scenario governor-shootout --save-result
//! cargo run -p razorbus-bench --bin repro --release -- scenario governor-shootout --load-result
//!
//! # A 10 000-member Monte-Carlo campaign, streamed into one digest:
//! cargo run -p razorbus-bench --bin repro --release -- scenario monte-carlo-dvs \
//!     --save-digest --digest-csv
//!
//! # Combine digests of the same campaign recorded in separate runs
//! # (e.g. seed-partitioned shards on different machines):
//! cargo run -p razorbus-bench --bin repro --release -- digest-merge \
//!     shard-a.rzba shard-b.rzba --out=combined.rzba
//!
//! # Collect the shared heavy inputs once, then reuse them (bit-identical):
//! cargo run -p razorbus-bench --bin repro --release -- all --save-summaries
//! cargo run -p razorbus-bench --bin repro --release -- all --load-summaries
//!
//! # Cache the design tables so warm runs skip BusTables::build:
//! cargo run -p razorbus-bench --bin repro --release -- all --save-tables
//! cargo run -p razorbus-bench --bin repro --release -- all --load-tables
//!
//! # Cache the compiled traces so warm runs skip the cycle analysis:
//! cargo run -p razorbus-bench --bin repro --release -- all --save-compiled
//! cargo run -p razorbus-bench --bin repro --release -- all --load-compiled
//!
//! # Record a campaign manifest, then verify a later build replays it
//! # bit-identically (exit 1 + a localized report on divergence):
//! cargo run -p razorbus-bench --bin repro --release -- record fig8 --manifest=fig8.rzba
//! cargo run -p razorbus-bench --bin repro --release -- replay fig8.rzba
//!
//! # Replay (or regenerate) the committed GOLDEN_TESTS/ corpus:
//! cargo run -p razorbus-bench --bin repro --release -- golden
//! cargo run -p razorbus-bench --bin repro --release -- golden --record
//! ```
//!
//! Artifacts: `fig4`, `fig5`, `fig6`, `fig8`, `table1`, `fig10`,
//! `scaling`, `ablations`, `scenario <name>`, `scenarios` (list),
//! `record <name>`, `replay <manifest>`, `golden`,
//! `digest-merge <digest...>`, or `all`.
//! `RAZORBUS_CYCLES` sets the cycles per benchmark (default 2,000,000;
//! the paper uses 10,000,000 — expect a few minutes at full scale).
//! `replay` takes its geometry from the manifest and `golden` pins the
//! corpus geometry, so neither uses `RAZORBUS_CYCLES`. A
//! `RAZORBUS_CYCLES`, `RAZORBUS_THREADS` or `RAZORBUS_COMPILE_CHUNK`
//! that is not a positive integer exits 2 before any work, naming the
//! variable and its value.
//!
//! `--save-summaries[=PATH]` / `--load-summaries[=PATH]` (valid with
//! `all` only) persist/reuse the three shared heavy inputs; loaded
//! summaries must match the current `RAZORBUS_CYCLES` and seed, and the
//! reused run's output is bit-identical to a cold run (pinned by CI's
//! cache-reuse job). `--save-tables[=PATH]` / `--load-tables[=PATH]`
//! (also `all` only) persist/reuse the two designs' look-up tables;
//! tables stamped for a different bus are refused.
//! `--save-compiled[=PATH]` / `--load-compiled[=PATH]` (also `all`
//! only) persist/reuse both suites' compiled traces, so a warm run
//! replays the stored per-cycle classification instead of re-running
//! the cycle analysis — bit-identically; stale budgets/seeds and
//! foreign-bus stamps are refused. `--save-result[=PATH]` /
//! `--load-result[=PATH]` (with `scenario` only) persist/reload a
//! scenario run so it re-renders without re-simulating.
//! `--save-digest[=PATH]` / `--digest-csv[=PATH]` (with `scenario`
//! only) write an aggregate campaign's streaming digest as a framed
//! `campaign-digest` artifact / a one-row-per-metric CSV; both fail if
//! the set has no aggregate-mode members. `digest-merge <digest...>
//! --out=PATH` folds two or more saved digests of the *same campaign*
//! into one combined digest (see [`CampaignDigest::merge`] for the
//! exact/approximate contract). `--no-compiled`
//! (with `scenario` or `all`) disables compiled-trace sharing inside
//! the executor — the live-path baseline CI diffs the shared path
//! against. `--no-fused` (same subcommands) keeps trace sharing but
//! disables the fused multi-member replay, so every open-loop member
//! replays solo — the one-pass-per-member baseline CI diffs the fused
//! path against (sets `RAZORBUS_NO_FUSED`; `RAZORBUS_REPLAY_FANIN=N`
//! instead caps fused group width without disabling fusion).
//! `--threads=N` pins the executor's work-stealing pool to
//! `N` workers for the whole run, overriding `RAZORBUS_THREADS`
//! (default: available parallelism); `N` must be at least 1, and any
//! worker count produces bit-identical results — the flag only trades
//! wall-clock time.

use razorbus_bench::cli::CliArgs;
use razorbus_bench::defaults::{
    COMPILED_PATH, DIGEST_CSV_PATH, DIGEST_PATH, GOLDEN_CYCLES, GOLDEN_DIR, MANIFEST_PATH,
    MERGED_DIGEST_PATH, REPRO_ARTIFACTS, RESULT_PATH, SUMMARIES_PATH, TABLES_PATH,
};
use razorbus_bench::persist::{ReproCompiled, ReproSummaries, ReproTables};
use razorbus_bench::{ablations, cycles_from_env, golden, REPRO_SEED};
use razorbus_core::{experiments, DvsBusDesign};
use razorbus_process::PvtCorner;
use razorbus_scenario::{
    catalog, paper, CampaignDigest, CampaignRecording, DesignSpec, ScenarioSetResult,
    ScenarioSetRun,
};

fn main() {
    let args = CliArgs::parse(
        std::env::args().skip(1),
        &[
            "save-summaries",
            "load-summaries",
            "save-tables",
            "load-tables",
            "save-result",
            "load-result",
            "save-digest",
            "digest-csv",
            "save-compiled",
            "load-compiled",
            "no-compiled",
            "no-fused",
            "manifest",
            "record",
            "dir",
            "threads",
            "out",
        ],
    )
    .unwrap_or_else(|e| usage_error(&e));

    // `digest-merge` is the one variadic subcommand: every positional
    // after it is an input digest path.
    let (what, operand, merge_inputs) = match args.positionals() {
        [] => ("all".to_string(), None, Vec::new()),
        [what, inputs @ ..] if what == "digest-merge" => (what.clone(), None, inputs.to_vec()),
        [what] => (what.clone(), None, Vec::new()),
        [what, operand] if matches!(what.as_str(), "scenario" | "record" | "replay") => {
            (what.clone(), Some(operand.clone()), Vec::new())
        }
        [what, _, extra, ..] if matches!(what.as_str(), "scenario" | "record" | "replay") => {
            usage_error(&format!("unexpected extra argument '{extra}'"))
        }
        [_, extra, ..] => usage_error(&format!("unexpected extra artifact '{extra}'")),
    };
    let what = what.as_str();
    if !REPRO_ARTIFACTS.contains(&what) && what != "all" {
        usage_error(&format!(
            "unknown artifact '{what}'; expected one of {} all",
            REPRO_ARTIFACTS.join(" ")
        ));
    }

    let save_path = args.valued_flag("save-summaries", SUMMARIES_PATH);
    let load_path = args.valued_flag("load-summaries", SUMMARIES_PATH);
    let save_tables = args.valued_flag("save-tables", TABLES_PATH);
    let load_tables = args.valued_flag("load-tables", TABLES_PATH);
    let save_result = args.valued_flag("save-result", RESULT_PATH);
    let load_result = args.valued_flag("load-result", RESULT_PATH);
    let save_digest = args.valued_flag("save-digest", DIGEST_PATH);
    let digest_csv = args.valued_flag("digest-csv", DIGEST_CSV_PATH);
    let save_compiled = args.valued_flag("save-compiled", COMPILED_PATH);
    let load_compiled = args.valued_flag("load-compiled", COMPILED_PATH);
    let no_compiled = args.has("no-compiled");
    let manifest = args.valued_flag("manifest", MANIFEST_PATH);
    let golden_record = args.has("record");
    let golden_dir = args.valued_flag("dir", GOLDEN_DIR);
    let merge_out = args.valued_flag("out", MERGED_DIGEST_PATH);

    if (save_path.is_some() || load_path.is_some()) && what != "all" {
        usage_error("--save-summaries/--load-summaries are only valid with `all`");
    }
    if (save_tables.is_some() || load_tables.is_some()) && what != "all" {
        usage_error("--save-tables/--load-tables are only valid with `all`");
    }
    if save_path.is_some() && load_path.is_some() {
        usage_error("--save-summaries and --load-summaries are mutually exclusive");
    }
    if save_tables.is_some() && load_tables.is_some() {
        usage_error("--save-tables and --load-tables are mutually exclusive");
    }
    if (save_result.is_some() || load_result.is_some()) && what != "scenario" {
        usage_error("--save-result/--load-result are only valid with `scenario`");
    }
    if save_result.is_some() && load_result.is_some() {
        usage_error("--save-result and --load-result are mutually exclusive");
    }
    if (save_digest.is_some() || digest_csv.is_some()) && what != "scenario" {
        usage_error("--save-digest/--digest-csv are only valid with `scenario`");
    }
    if (save_compiled.is_some() || load_compiled.is_some()) && what != "all" {
        usage_error("--save-compiled/--load-compiled are only valid with `all`");
    }
    if save_compiled.is_some() && load_compiled.is_some() {
        usage_error("--save-compiled and --load-compiled are mutually exclusive");
    }
    if (save_compiled.is_some() || load_compiled.is_some()) && load_path.is_some() {
        usage_error("--load-summaries already skips the simulations a compiled cache would feed");
    }
    if no_compiled && !matches!(what, "scenario" | "all" | "record" | "replay") {
        usage_error("--no-compiled is only valid with `scenario`, `all`, `record` or `replay`");
    }
    if no_compiled && (save_compiled.is_some() || load_compiled.is_some()) {
        usage_error("--no-compiled contradicts --save-compiled/--load-compiled");
    }
    let no_fused = args.has("no-fused");
    if no_fused && !matches!(what, "scenario" | "all" | "record" | "replay") {
        usage_error("--no-fused is only valid with `scenario`, `all`, `record` or `replay`");
    }
    if manifest.is_some() && what != "record" {
        usage_error("--manifest is only valid with `record`");
    }
    if (golden_record || golden_dir.is_some()) && what != "golden" {
        usage_error("--record/--dir are only valid with `golden`");
    }
    if merge_out.is_some() && what != "digest-merge" {
        usage_error("--out is only valid with `digest-merge`");
    }
    // `--threads=N` pins the executor pool for the whole process: the
    // env var is how every run path (scenario, record, golden, all)
    // reaches the pool, so the flag simply takes precedence over it.
    if let Some(value) = args.valued_flag("threads", "") {
        match value.parse::<usize>() {
            Ok(n) if n >= 1 => std::env::set_var("RAZORBUS_THREADS", n.to_string()),
            Ok(_) => usage_error("--threads=0 is refused; use --threads=1 for a serial run"),
            Err(_) => usage_error(&format!(
                "--threads needs a positive integer worker count, got '{value}'"
            )),
        }
    }
    // `--no-fused` reaches the executor the same way: open-loop replay
    // groups collapse back to one solo replay per member (bit-identical
    // by construction — the flag only exists so CI can diff the paths).
    if no_fused {
        std::env::set_var("RAZORBUS_NO_FUSED", "1");
    }

    // Knobs fail loudly, before any work: an unparsable or zero value
    // is an error naming the variable, on every artifact's path.
    let knobs = razorbus_scenario::worker_count(None)
        .and_then(|_| razorbus_core::compile_chunk_knob())
        .and_then(|_| cycles_from_env(2_000_000));
    let cycles = knobs.unwrap_or_else(|e| fail(&e));
    match what {
        // The replayed geometry is pinned by the manifest / corpus, not
        // the environment — don't print a misleading cycle count.
        "replay" => eprintln!("# razorbus repro: replay (geometry from the manifest)"),
        "golden" => eprintln!(
            "# razorbus repro: golden ({GOLDEN_CYCLES} cycles/benchmark pinned, seed {REPRO_SEED})"
        ),
        // Pure artifact surgery — no simulation, no geometry to echo.
        "digest-merge" => eprintln!(
            "# razorbus repro: digest-merge ({} input digests)",
            merge_inputs.len()
        ),
        _ => eprintln!("# razorbus repro: {what} ({cycles} cycles/benchmark, seed {REPRO_SEED})"),
    }

    match what {
        "scenarios" => {
            println!("named scenarios:");
            for name in catalog::NAMES {
                println!("  {name}");
            }
        }
        "scenario" => {
            let name = operand
                .unwrap_or_else(|| usage_error("`scenario` needs a name (see `repro scenarios`)"));
            run_scenario(
                &name,
                cycles,
                &ScenarioOutputs {
                    save_result,
                    load_result,
                    save_digest,
                    digest_csv,
                },
                !no_compiled,
            );
        }
        "record" => {
            let name = operand.unwrap_or_else(|| {
                usage_error("`record` needs a scenario name (see `repro scenarios`)")
            });
            let path = manifest.unwrap_or_else(|| MANIFEST_PATH.to_string());
            run_record(&name, cycles, &path, !no_compiled);
        }
        "replay" => {
            let path = operand.unwrap_or_else(|| usage_error("`replay` needs a manifest path"));
            run_replay(&path, no_compiled);
        }
        "golden" => {
            let dir = golden_dir.unwrap_or_else(|| GOLDEN_DIR.to_string());
            run_golden(std::path::Path::new(&dir), golden_record);
        }
        "digest-merge" => {
            let out = merge_out.unwrap_or_else(|| MERGED_DIGEST_PATH.to_string());
            run_digest_merge(&merge_inputs, &out);
        }
        "all" => run_all(
            cycles,
            save_path,
            load_path,
            save_tables,
            load_tables,
            save_compiled,
            load_compiled,
            !no_compiled,
        ),
        "fig4" => {
            banner("Fig. 4 (energy & error rate vs. static VDD)");
            let run = run_set(paper::fig4_set(cycles, REPRO_SEED));
            adapter(paper::fig4_panel(&run, "fig4@worst")).print();
            println!();
            adapter(paper::fig4_panel(&run, "fig4@typical")).print();
        }
        "fig5" => {
            banner("Fig. 5 (gains vs. PVT delay spread)");
            let run = run_set(paper::fig5_set(cycles, REPRO_SEED));
            adapter(paper::fig5_data(&run)).print();
        }
        "fig6" => {
            banner("Fig. 6 (optimal supply residency)");
            let design = DvsBusDesign::paper_default();
            let windows = (cycles / 10_000).max(10) as usize;
            experiments::fig6::run(&design, windows, 10_000, REPRO_SEED).print();
        }
        "fig8" => {
            banner("Fig. 8 (closed-loop trajectory, typical corner)");
            let run = run_set(paper::fig8_set(cycles, REPRO_SEED));
            adapter(paper::fig8_data(&run)).print();
        }
        "table1" => {
            banner("Table 1 (fixed VS vs. proposed DVS)");
            let run = run_set(paper::table1_set(cycles, REPRO_SEED));
            adapter(paper::table1_data(&run)).print();
        }
        "fig10" => {
            banner("Fig. 10 / §6 (modified bus)");
            let run = run_set(paper::fig10_set(cycles, REPRO_SEED));
            adapter(paper::fig10_data(&run)).print();
        }
        "scaling" => {
            banner("§6 technology scaling");
            experiments::scaling::run(cycles / 4, REPRO_SEED).print();
        }
        "ablations" => {
            banner("Ablations (DESIGN.md §6)");
            ablations::run_all(cycles / 4);
        }
        _ => unreachable!("artifact validated above"),
    }
}

/// The scenario subcommand's output flags, bundled.
struct ScenarioOutputs {
    save_result: Option<String>,
    load_result: Option<String>,
    save_digest: Option<String>,
    digest_csv: Option<String>,
}

/// Runs (or reloads) one named scenario and renders it.
fn run_scenario(name: &str, cycles: u64, outputs: &ScenarioOutputs, share_compiled: bool) {
    let ScenarioOutputs {
        save_result,
        load_result,
        save_digest,
        digest_csv,
    } = outputs;
    let Some(set) = catalog::by_name(name, cycles, REPRO_SEED) else {
        usage_error(&format!(
            "unknown scenario '{name}'; known: {}",
            catalog::NAMES.join(" ")
        ));
    };
    let run = match &load_result {
        Some(path) => {
            use razorbus_artifact::Artifact;
            let result = ScenarioSetResult::load_file(path)
                .unwrap_or_else(|e| fail(&format!("cannot reload scenario result {path}: {e}")));
            if result.name != set.name {
                fail(&format!(
                    "result in {path} is for scenario set `{}`, not `{}`",
                    result.name, set.name
                ));
            }
            // A result rendered under this banner must be the result of
            // *this* campaign: same members, same cycles/benchmark, same
            // seed — the same staleness contract `--load-summaries`
            // enforces (a 1 000-cycle result must not silently render
            // under a 10 M-cycle banner).
            let expected = set.expand().unwrap_or_else(|e| fail(&e));
            let stored: Vec<_> = result.members.iter().map(|m| &m.spec).collect();
            if !stored.iter().copied().eq(expected.iter()) {
                fail(&format!(
                    "result in {path} was produced by different member specs \
                     (likely another RAZORBUS_CYCLES cycles/benchmark or seed) — \
                     re-save or match the environment"
                ));
            }
            eprintln!("# reloaded scenario result from {path} (no simulation)");
            ScenarioSetRun::from_result(result).unwrap_or_else(|e| fail(&e))
        }
        None => set
            .run_with_options(Vec::new(), share_compiled)
            .unwrap_or_else(|e| fail(&e)),
    };
    if let Some(path) = &save_result {
        use razorbus_artifact::Artifact;
        run.result
            .save_file(path, razorbus_artifact::Encoding::Binary)
            .unwrap_or_else(|e| fail(&format!("cannot save scenario result to {path}: {e}")));
        eprintln!("# saved scenario result to {path}");
    }
    let digest = run.result.digest.as_ref();
    if (save_digest.is_some() || digest_csv.is_some()) && digest.is_none() {
        fail(&format!(
            "scenario `{name}` has no aggregate-mode members, so there is no campaign \
             digest to write (--save-digest/--digest-csv need one)"
        ));
    }
    if let (Some(path), Some(digest)) = (&save_digest, digest) {
        use razorbus_artifact::Artifact;
        digest
            .save_file(path, razorbus_artifact::Encoding::Binary)
            .unwrap_or_else(|e| fail(&format!("cannot save campaign digest to {path}: {e}")));
        eprintln!("# saved campaign digest to {path}");
    }
    if let (Some(path), Some(digest)) = (&digest_csv, digest) {
        std::fs::write(path, digest.csv())
            .unwrap_or_else(|e| fail(&format!("cannot write digest CSV to {path}: {e}")));
        eprintln!("# wrote campaign digest CSV to {path}");
    }
    // Paper sets render through the exact figure adapters; everything
    // else gets the generic member render.
    match name {
        "fig4" => {
            adapter(paper::fig4_panel(&run, "fig4@worst")).print();
            println!();
            adapter(paper::fig4_panel(&run, "fig4@typical")).print();
        }
        "fig5" => adapter(paper::fig5_data(&run)).print(),
        "fig8" => adapter(paper::fig8_data(&run)).print(),
        "table1" => adapter(paper::table1_data(&run)).print(),
        "fig10" => adapter(paper::fig10_data(&run)).print(),
        "paper-all" => {
            adapter(paper::fig4_panel(&run, "fig4@worst")).print();
            println!();
            adapter(paper::fig4_panel(&run, "fig4@typical")).print();
            adapter(paper::fig5_data(&run)).print();
            adapter(paper::fig8_data(&run)).print();
            adapter(paper::table1_data(&run)).print();
            adapter(paper::fig10_data(&run)).print();
        }
        _ => run.print(),
    }
}

/// Records one named campaign: runs it and writes the
/// `campaign-recording` manifest that `repro replay` verifies against.
fn run_record(name: &str, cycles: u64, manifest_path: &str, share_compiled: bool) {
    use razorbus_artifact::{Artifact, Encoding};
    let Some(set) = catalog::by_name(name, cycles, REPRO_SEED) else {
        usage_error(&format!(
            "unknown scenario '{name}'; known: {}",
            catalog::NAMES.join(" ")
        ));
    };
    let (recording, _) =
        CampaignRecording::record(&set, share_compiled).unwrap_or_else(|e| fail(&e));
    for member in &recording.members {
        println!(
            "recorded member `{}` ({} component digests)",
            member.name,
            member.components.len()
        );
    }
    if recording.digest.is_some() {
        println!("recorded campaign-digest stamp (aggregate members fold into one digest)");
    }
    recording
        .save_file(manifest_path, Encoding::Json)
        .unwrap_or_else(|e| {
            fail(&format!(
                "cannot save campaign manifest {manifest_path}: {e}"
            ))
        });
    eprintln!("# saved campaign recording to {manifest_path}");
}

/// Replays a recorded campaign manifest and exits non-zero on any
/// digest divergence (exit 1; refusals and usage problems exit 2).
fn run_replay(manifest_path: &str, no_compiled: bool) {
    use razorbus_artifact::Artifact;
    let recording = CampaignRecording::load_file(manifest_path).unwrap_or_else(|e| {
        fail(&format!(
            "cannot load campaign manifest {manifest_path}: {e}"
        ))
    });
    let report = if no_compiled {
        recording.replay_with_sharing(false)
    } else {
        recording.replay()
    }
    .unwrap_or_else(|e| fail(&e));
    println!("{report}");
    if !report.is_clean() {
        std::process::exit(1);
    }
}

/// Merges two or more saved `campaign-digest` artifacts of the same
/// campaign into one combined digest, saved to `out_path` and printed.
///
/// This is [`CampaignDigest::merge`] on the CLI, with its contract:
/// counts, totals, extrema, histograms and the quantile sketch's
/// weight combine exactly; the running moments (mean/variance) combine
/// by the numerically stable pooled formula, so they can differ in the
/// last bits from a single-machine run over the same members. The
/// merged artifact is therefore an honest cross-machine combination,
/// *not* the canonical single-run digest — for a bit-reproducible
/// digest, run the whole campaign in one process.
fn run_digest_merge(inputs: &[String], out_path: &str) {
    use razorbus_artifact::{Artifact, Encoding};
    if inputs.len() < 2 {
        usage_error("`digest-merge` needs at least two input digest paths");
    }
    let digests: Vec<(&String, CampaignDigest)> = inputs
        .iter()
        .map(|path| {
            let digest = CampaignDigest::load_file(path)
                .unwrap_or_else(|e| fail(&format!("cannot load campaign digest {path}: {e}")));
            (path, digest)
        })
        .collect();
    // Pre-validate what `CampaignDigest::merge` would otherwise panic
    // on: every shard must come from the same campaign.
    let (first_path, first) = &digests[0];
    if let Some((path, other)) = digests[1..]
        .iter()
        .find(|(_, d)| d.campaign != first.campaign)
    {
        fail(&format!(
            "digests are from different campaigns: {first_path} is `{}`, {path} is `{}`",
            first.campaign, other.campaign
        ));
    }
    let mut merged = first.clone();
    for (path, digest) in &digests[1..] {
        merged.merge(digest);
        eprintln!("# merged {path} ({} members)", digest.members);
    }
    merged
        .save_file(out_path, Encoding::Binary)
        .unwrap_or_else(|e| fail(&format!("cannot save merged digest to {out_path}: {e}")));
    eprintln!("# saved merged campaign digest to {out_path}");
    print!("{}", merged.table());
    println!(
        "note: counts, totals, extrema, histograms and sketch weight merge exactly; \
         means/stddevs are pooled (not bit-identical to a single-machine run)"
    );
}

/// Replays (or, with `--record`, regenerates) the committed golden
/// corpus. Replay exits 1 if any campaign diverged.
fn run_golden(dir: &std::path::Path, record: bool) {
    if record {
        let written = golden::record_full_corpus(dir).unwrap_or_else(|e| fail(&e));
        for path in &written {
            eprintln!("# recorded {}", path.display());
        }
        println!(
            "golden corpus recorded: {} manifests in {}",
            written.len(),
            dir.display()
        );
        return;
    }
    let outcomes = golden::replay_full_corpus(dir).unwrap_or_else(|e| fail(&e));
    let mut diverged = 0usize;
    for outcome in &outcomes {
        println!("{}", outcome.report);
        if !outcome.report.is_clean() {
            diverged += 1;
        }
    }
    if diverged > 0 {
        eprintln!(
            "error: {diverged} of {} golden campaigns diverged",
            outcomes.len()
        );
        std::process::exit(1);
    }
    println!(
        "golden corpus clean: {} campaigns bit-identical",
        outcomes.len()
    );
}

/// The `all` pipeline: the `paper-all` scenario set supplies every
/// shared heavy input (deduplicated and fanned out by the executor —
/// the same three concurrent jobs the old hand-wired collection ran),
/// then the figures print from those inputs exactly as before.
#[allow(clippy::too_many_arguments)] // one parameter per CLI cache flag
fn run_all(
    cycles: u64,
    save_path: Option<String>,
    load_path: Option<String>,
    save_tables: Option<String>,
    load_tables: Option<String>,
    save_compiled: Option<String>,
    load_compiled: Option<String>,
    share_compiled: bool,
) {
    let (design, modified) = match &load_tables {
        Some(path) => match ReproTables::load_designs(path) {
            Ok(pair) => {
                eprintln!("# loaded design tables from {path} (BusTables::build skipped)");
                pair
            }
            Err(e) => fail(&format!("cannot reuse tables from {path}: {e}")),
        },
        None => (
            DvsBusDesign::paper_default(),
            DvsBusDesign::modified_paper_bus(),
        ),
    };
    if let Some(path) = &save_tables {
        ReproTables::capture(&design, &modified)
            .save(path)
            .unwrap_or_else(|e| fail(&format!("cannot save tables to {path}: {e}")));
        eprintln!("# saved design tables to {path}");
    }

    let shared = if let Some(path) = &load_path {
        match ReproSummaries::load(path, cycles, REPRO_SEED) {
            Ok(shared) => {
                eprintln!("# loaded shared summaries from {path}");
                shared
            }
            Err(e) => fail(&format!("cannot reuse summaries from {path}: {e}")),
        }
    } else if let Some(path) = &load_compiled {
        let bundle = ReproCompiled::load(path, &design, &modified, cycles, REPRO_SEED)
            .unwrap_or_else(|e| fail(&format!("cannot reuse compiled traces from {path}: {e}")));
        eprintln!("# loaded compiled traces from {path} (cycle analysis skipped)");
        bundle.into_shared_inputs(&design, &modified)
    } else if let Some(path) = &save_compiled {
        let bundle = ReproCompiled::compile(&design, &modified, cycles, REPRO_SEED)
            .unwrap_or_else(|e| fail(&e));
        bundle
            .save(path)
            .unwrap_or_else(|e| fail(&format!("cannot save compiled traces to {path}: {e}")));
        eprintln!("# saved compiled traces to {path}");
        bundle.into_shared_inputs(&design, &modified)
    } else {
        let run = paper::paper_all_set(cycles, REPRO_SEED)
            .run_with_options(
                vec![
                    (DesignSpec::Paper, design.clone()),
                    (DesignSpec::ModifiedCoupling, modified.clone()),
                ],
                share_compiled,
            )
            .unwrap_or_else(|e| fail(&e));
        ReproSummaries::from_scenario_run(&run, cycles, REPRO_SEED).unwrap_or_else(|e| fail(&e))
    };
    if let Some(path) = &save_path {
        shared
            .save(path)
            .unwrap_or_else(|e| fail(&format!("cannot save summaries to {path}: {e}")));
        eprintln!("# saved shared summaries to {path}");
    }
    run_everything(&design, &modified, cycles, &shared);
}

fn adapter<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| fail(&e))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage_error(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: repro [fig4|fig5|fig6|fig8|table1|fig10|scaling|ablations|\
         scenario <name>|scenarios|record <name>|replay <manifest>|golden|\
         digest-merge <digest...>|all] \
         [--save-summaries[=PATH] | --load-summaries[=PATH]] \
         [--save-tables[=PATH] | --load-tables[=PATH]] \
         [--save-compiled[=PATH] | --load-compiled[=PATH]] \
         [--save-result[=PATH] | --load-result[=PATH]] \
         [--save-digest[=PATH]] [--digest-csv[=PATH]] [--no-compiled] \
         [--no-fused] [--manifest[=PATH]] [--record] [--dir[=PATH]] \
         [--threads=N] [--out[=PATH]]"
    );
    std::process::exit(2);
}

/// Prints every figure/table of the paper from one shared set of heavy
/// inputs.
///
/// The expensive inputs arrive pre-collected (through the scenario
/// executor) or pre-loaded as a [`ReproSummaries`]: one
/// [`experiments::SummaryBank`] (reused by Fig. 4's two panels, Fig. 5,
/// Table 1's two corners and Fig. 10's original-bus side), the modified
/// bus's combined summary, and one consecutive closed-loop run per
/// unique (design, corner) pair (the typical-corner run serves both
/// Fig. 8 and Table 1; the worst-corner run serves both Table 1 and
/// Fig. 10).
fn run_everything(
    design: &DvsBusDesign,
    modified: &DvsBusDesign,
    cycles: u64,
    shared: &ReproSummaries,
) {
    banner("Fig. 4 (energy & error rate vs. static VDD)");
    experiments::fig4::from_summary(design, PvtCorner::WORST, shared.bank.combined()).print();
    println!();
    experiments::fig4::from_summary(design, PvtCorner::TYPICAL, shared.bank.combined()).print();

    banner("Fig. 5 (gains vs. PVT delay spread)");
    experiments::fig5::from_summary(design, shared.bank.combined()).print();

    banner("Fig. 6 (optimal supply residency)");
    let windows = (cycles / 10_000).max(10) as usize;
    experiments::fig6::run(design, windows, 10_000, REPRO_SEED).print();

    banner("Fig. 8 (closed-loop trajectory, typical corner)");
    shared.dvs_typical.print();

    banner("Table 1 (fixed VS vs. proposed DVS)");
    experiments::table1::from_parts(design, &shared.bank, &shared.dvs_worst, &shared.dvs_typical)
        .print();

    banner("Fig. 10 / §6 (modified bus)");
    experiments::fig10::from_parts(
        design,
        modified,
        shared.bank.combined(),
        &shared.mod_summary,
        &shared.dvs_worst,
        &shared.mod_dvs,
    )
    .print();

    banner("§6 technology scaling");
    experiments::scaling::run(cycles / 4, REPRO_SEED).print();

    banner("Ablations (DESIGN.md §6)");
    ablations::run_all(cycles / 4);
}

fn run_set(set: razorbus_scenario::ScenarioSet) -> ScenarioSetRun {
    set.run().unwrap_or_else(|e| fail(&e))
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}
