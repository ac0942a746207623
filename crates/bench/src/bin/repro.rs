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
//! # Run the repro-all campaign once, then re-render it (bit-identical):
//! cargo run -p razorbus-bench --bin repro --release -- all --save-result
//! cargo run -p razorbus-bench --bin repro --release -- all --load-result
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
//! `all` is one `repro-all` campaign through the scenario executor:
//! every figure, Fig. 6, §6 scaling and the ablations, rendered by the
//! scenario crate's adapters. `fig6`, `scaling` and `ablations` run
//! their own members of it through the same builders and adapters.
//! `--save-result[=PATH]` / `--load-result[=PATH]` (with `scenario` or
//! `all`) persist/reload the campaign's `scenario-result` so it
//! re-renders without re-simulating — bit-identically, pinned by CI's
//! `artifact-cache` job. A reloaded result must carry exactly the
//! member specs the current run would expand to (same set, same
//! `RAZORBUS_CYCLES`, same seed); a stale one exits 2. `all` and
//! `scenario repro-all` share the same result and print the same
//! bytes.
//! `--save-digest[=PATH]` / `--digest-csv[=PATH]` (with `scenario`
//! only) write an aggregate campaign's streaming digest as a framed
//! `campaign-digest` artifact / a one-row-per-metric CSV; both fail if
//! the set has no aggregate-mode members. `digest-merge <digest...>
//! --out=PATH` folds two or more saved digests of the *same campaign*
//! into one combined digest (see [`CampaignDigest::merge`] for the
//! exact/approximate contract). `--no-compiled`
//! (with `scenario` or `all`) disables compiled-trace sharing inside
//! the executor — the live-path baseline CI diffs the shared path
//! against. `--threads=N` pins the executor's work-stealing pool to
//! `N` workers for the whole run, overriding `RAZORBUS_THREADS`
//! (default: available parallelism); `N` must be at least 1, and any
//! worker count produces bit-identical results — the flag only trades
//! wall-clock time.

use razorbus_bench::cli::CliArgs;
use razorbus_bench::defaults::{
    DIGEST_CSV_PATH, DIGEST_PATH, GOLDEN_CYCLES, GOLDEN_DIR, MANIFEST_PATH, MERGED_DIGEST_PATH,
    REPRO_ARTIFACTS, RESULT_PATH,
};
use razorbus_bench::{cycles_from_env, golden, REPRO_SEED};
use razorbus_scenario::{
    ablations, catalog, paper, CampaignDigest, CampaignRecording, ScenarioSet, ScenarioSetResult,
    ScenarioSetRun,
};

fn main() {
    let args = CliArgs::parse(
        std::env::args().skip(1),
        &[
            "save-result",
            "load-result",
            "save-digest",
            "digest-csv",
            "no-compiled",
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

    let save_result = args.valued_flag("save-result", RESULT_PATH);
    let load_result = args.valued_flag("load-result", RESULT_PATH);
    let save_digest = args.valued_flag("save-digest", DIGEST_PATH);
    let digest_csv = args.valued_flag("digest-csv", DIGEST_CSV_PATH);
    let no_compiled = args.has("no-compiled");
    let manifest = args.valued_flag("manifest", MANIFEST_PATH);
    let golden_record = args.has("record");
    let golden_dir = args.valued_flag("dir", GOLDEN_DIR);
    let merge_out = args.valued_flag("out", MERGED_DIGEST_PATH);

    if (save_result.is_some() || load_result.is_some()) && !matches!(what, "scenario" | "all") {
        usage_error("--save-result/--load-result are only valid with `scenario` or `all`");
    }
    if save_result.is_some() && load_result.is_some() {
        usage_error("--save-result and --load-result are mutually exclusive");
    }
    if (save_digest.is_some() || digest_csv.is_some()) && what != "scenario" {
        usage_error("--save-digest/--digest-csv are only valid with `scenario`");
    }
    if no_compiled && !matches!(what, "scenario" | "all" | "record" | "replay") {
        usage_error("--no-compiled is only valid with `scenario`, `all`, `record` or `replay`");
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
            save_result.as_deref(),
            load_result.as_deref(),
            !no_compiled,
        ),
        figure => {
            let seed = REPRO_SEED;
            let (title, set) = match figure {
                "fig4" => (TITLES[0], paper::fig4_set(cycles, seed)),
                "fig5" => (TITLES[1], paper::fig5_set(cycles, seed)),
                "fig6" => (TITLES[2], paper::fig6_set(cycles, seed)),
                "fig8" => (TITLES[3], paper::fig8_set(cycles, seed)),
                "table1" => (TITLES[4], paper::table1_set(cycles, seed)),
                "fig10" => (TITLES[5], paper::fig10_set(cycles, seed)),
                "scaling" => (TITLES[6], paper::scaling_set(cycles, seed)),
                "ablations" => (TITLES[7], ablations::ablations_set(cycles, seed)),
                _ => unreachable!("artifact validated above"),
            };
            banner(title);
            render(figure, &run_set(set));
        }
    }
}

/// The banner over each figure, in `repro all`'s print order.
const TITLES: [&str; 8] = [
    "Fig. 4 (energy & error rate vs. static VDD)",
    "Fig. 5 (gains vs. PVT delay spread)",
    "Fig. 6 (optimal supply residency)",
    "Fig. 8 (closed-loop trajectory, typical corner)",
    "Table 1 (fixed VS vs. proposed DVS)",
    "Fig. 10 / §6 (modified bus)",
    "§6 technology scaling",
    "Ablations",
];

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
    let run = run_or_reload(
        &set,
        save_result.as_deref(),
        load_result.as_deref(),
        share_compiled,
    );
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
    render(name, &run);
}

/// Renders a run of the set `name` names: paper sets and figure
/// subsets through the exact figure adapters, everything else through
/// the generic member render.
fn render(name: &str, run: &ScenarioSetRun) {
    match name {
        "fig4" => {
            adapter(paper::fig4_panel(run, "fig4@worst")).print();
            println!();
            adapter(paper::fig4_panel(run, "fig4@typical")).print();
        }
        "fig5" => adapter(paper::fig5_data(run)).print(),
        "fig6" => adapter(paper::fig6_data(run)).print(),
        "fig8" => adapter(paper::fig8_data(run)).print(),
        "table1" => adapter(paper::table1_data(run)).print(),
        "fig10" => adapter(paper::fig10_data(run)).print(),
        "scaling" => adapter(paper::scaling_data(run)).print(),
        "ablations" => ablations::print(&adapter(ablations::studies(run))),
        "paper-all" => {
            render("fig4", run);
            for figure in ["fig5", "fig8", "table1", "fig10"] {
                render(figure, run);
            }
        }
        "repro-all" => print_all(run),
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

/// Runs `set` through the executor — or, with `load_result`, reloads a
/// saved result of the same campaign ([`ScenarioSetRun::reload`]
/// refuses a stale one) — then saves it when `save_result` is given.
fn run_or_reload(
    set: &ScenarioSet,
    save_result: Option<&str>,
    load_result: Option<&str>,
    share_compiled: bool,
) -> ScenarioSetRun {
    use razorbus_artifact::Artifact;
    let run = match load_result {
        Some(path) => {
            let result = ScenarioSetResult::load_file(path)
                .unwrap_or_else(|e| fail(&format!("cannot reload scenario result {path}: {e}")));
            let run = ScenarioSetRun::reload(result, set).unwrap_or_else(|e| {
                fail(&format!(
                    "cannot reuse scenario result {path}: {e} (re-save it, or rerun with \
                     the RAZORBUS_CYCLES and scenario it was saved under)"
                ))
            });
            eprintln!("# reloaded scenario result from {path} (no simulation)");
            run
        }
        None => set
            .run_with_workers(Vec::new(), share_compiled, None)
            .unwrap_or_else(|e| fail(&e)),
    };
    if let Some(path) = save_result {
        run.result
            .save_file(path, razorbus_artifact::Encoding::Binary)
            .unwrap_or_else(|e| fail(&format!("cannot save scenario result to {path}: {e}")));
        eprintln!("# saved scenario result to {path}");
    }
    run
}

/// The `all` pipeline: one `repro-all` campaign (run, or reloaded with
/// `--load-result`) supplies everything it prints.
fn run_all(
    cycles: u64,
    save_result: Option<&str>,
    load_result: Option<&str>,
    share_compiled: bool,
) {
    let run = run_or_reload(
        &paper::repro_all_set(cycles, REPRO_SEED),
        save_result,
        load_result,
        share_compiled,
    );
    print_all(&run);
}

/// Prints a `repro-all` run under the figure banners. Every adapter
/// resolves before the first line prints, so a malformed reloaded
/// result exits 2 with no partial output.
fn print_all(run: &ScenarioSetRun) {
    let fig4 = ["fig4@worst", "fig4@typical"].map(|m| adapter(paper::fig4_panel(run, m)));
    let fig5 = adapter(paper::fig5_data(run));
    let fig6 = adapter(paper::fig6_data(run));
    let fig8 = adapter(paper::fig8_data(run));
    let table1 = adapter(paper::table1_data(run));
    let fig10 = adapter(paper::fig10_data(run));
    let scaling = adapter(paper::scaling_data(run));
    let studies = adapter(ablations::studies(run));
    banner(TITLES[0]);
    fig4[0].print();
    println!();
    fig4[1].print();
    banner(TITLES[1]);
    fig5.print();
    banner(TITLES[2]);
    fig6.print();
    banner(TITLES[3]);
    fig8.print();
    banner(TITLES[4]);
    table1.print();
    banner(TITLES[5]);
    fig10.print();
    banner(TITLES[6]);
    scaling.print();
    banner(TITLES[7]);
    ablations::print(&studies);
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
         [--save-result[=PATH] | --load-result[=PATH]] \
         [--save-digest[=PATH]] [--digest-csv[=PATH]] [--no-compiled] \
         [--manifest[=PATH]] [--record] [--dir[=PATH]] \
         [--threads=N] [--out[=PATH]]"
    );
    std::process::exit(2);
}

fn run_set(set: ScenarioSet) -> ScenarioSetRun {
    set.run().unwrap_or_else(|e| fail(&e))
}

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}
