//! `bench_report` — measures the perf-critical paths and writes a
//! `BENCH_<pr>.json` artifact in the committed format tracked PR-over-PR
//! by CI's `bench` job.
//!
//! ```sh
//! RAZORBUS_CYCLES=50000 cargo run -p razorbus-bench --bin bench_report --release -- BENCH_2.json
//! ```
//!
//! The report measures kernels, not the end-to-end campaign (the
//! `razorbench` harness owns that). It has two sections (all wall-clock,
//! single process):
//!
//! * `components` — steady-state throughputs of the simulator's batched
//!   loop, its cycle-at-a-time reference loop (their ratio is the
//!   fast-path speedup), the sweep-engine collector, the wire analyzer
//!   (and its crosstalk-storm worst case, `analyze_cycle_storm`), the
//!   compile/replay split, the fused multi-member replay at fan-in 1, 4
//!   and 16 (`fused_replay_f*` — member-cycles per second, growing with
//!   fan-in as one streaming pass judges more members), and the
//!   executor's aggregate sweep throughput at 1, 2 and N pool workers
//!   (`sweep_aggregate_w*` — the multi-core scaling record; N and
//!   therefore the `w2`/`wmax` numbers depend on the runner's core
//!   count),
//! * environment echoes (`cycles_per_benchmark`, `threads` — the
//!   resolved pool worker count — `component_threads`, the resolved
//!   thread count behind each runner-bound component, and
//!   `component_fanin`, the group width behind each fused replay leg)
//!   so numbers from different runners can be compared honestly.
//!
//! The JSON is produced by [`razorbus_bench::report::BenchReport`]
//! through the `razorbus-artifact` writer. See README.md ("Benchmarks in
//! CI") for the schema.

use razorbus_bench::cli::CliArgs;
use razorbus_bench::report::{check_components, BenchReport, CHECK_TOLERANCE};
use razorbus_bench::{cycles_from_env, REPRO_SEED};
use razorbus_core::{BusSimulator, CompiledTrace, DvsBusDesign, FusedOp, TraceSummary};
use razorbus_ctrl::ThresholdController;
use razorbus_process::{ProcessCorner, PvtCorner};
use razorbus_scenario::catalog;
use razorbus_traces::{AdversarialCrosstalk, Benchmark, TraceSource};
use razorbus_units::Millivolts;
use std::time::Instant;

fn main() {
    let args = CliArgs::parse(std::env::args().skip(1), &["check"]).unwrap_or_else(|e| {
        eprintln!(
            "error: {e}\nusage: bench_report [OUT_PATH] | bench_report --check BASELINE CURRENT"
        );
        std::process::exit(2);
    });
    if args.has("check") {
        run_check(args.positionals());
        return;
    }
    let out_path = args
        .positionals()
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH.json".to_string());
    let knob_error = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2);
    };
    let cycles = cycles_from_env(50_000).unwrap_or_else(|e| knob_error(e));
    let max_workers = razorbus_scenario::worker_count(None).unwrap_or_else(|e| knob_error(e));
    razorbus_core::compile_chunk_knob().unwrap_or_else(|e| knob_error(e));
    eprintln!("# bench_report: {cycles} cycles/benchmark -> {out_path}");

    let design = DvsBusDesign::paper_default();

    // Component throughputs (Mcycles/s), warmup + best-of-3 so one
    // scheduler hiccup doesn't pollute the tracked ratio. The
    // batched-vs-reference ratio is the headline number the batching
    // tentpole is accountable for.
    let comp_cycles = 200_000u64;
    let batched = best_of_3(&mut || closed_loop_throughput(&design, comp_cycles, false));
    let reference = best_of_3(&mut || closed_loop_throughput(&design, comp_cycles, true));
    let collect = best_of_3(&mut || {
        let start = Instant::now();
        let mut trace = Benchmark::Swim.trace(REPRO_SEED);
        let s = TraceSummary::collect(&design, &mut trace, comp_cycles);
        std::hint::black_box(s.cycles());
        comp_cycles as f64 / 1e6 / start.elapsed().as_secs_f64()
    });
    let analyze = best_of_3(&mut || {
        let mut trace = Benchmark::Vortex.trace(REPRO_SEED);
        let words = trace.take_words(65_536);
        let bus = design.bus();
        let start = Instant::now();
        let mut acc = 0.0f64;
        for pair in words.windows(2) {
            acc += bus.analyze_cycle(pair[0], pair[1]).worst_ceff_per_mm;
        }
        std::hint::black_box(acc);
        (words.len() - 1) as f64 / 1e6 / start.elapsed().as_secs_f64()
    });
    // The analyzer's crosstalk-storm worst case: a 90 %-aggression
    // adversarial stream keeps the opposing-neighbour fold path hot on
    // nearly every cycle, so this leg tracks what the analyzer's cycle
    // cache buys on hostile traffic.
    let analyze_storm = best_of_3(&mut || {
        let mut trace = AdversarialCrosstalk::new(REPRO_SEED, 0.9);
        let words = trace.take_words(65_536);
        let bus = design.bus();
        let mut analyzer = bus.analyzer();
        let start = Instant::now();
        let mut acc = 0.0f64;
        for pair in words.windows(2) {
            acc += analyzer.analyze(pair[0], pair[1]).worst_ceff_per_mm;
        }
        std::hint::black_box(acc);
        (words.len() - 1) as f64 / 1e6 / start.elapsed().as_secs_f64()
    });
    // Compile-vs-replay split on the same trace as the closed loop: the
    // compile pass is an analyze-dominated one-off, the replay is what
    // every additional sweep member pays.
    let compile = best_of_3(&mut || {
        let start = Instant::now();
        let c = CompiledTrace::compile(&design, &mut Benchmark::Gap.trace(REPRO_SEED), comp_cycles);
        std::hint::black_box(c.cycles());
        comp_cycles as f64 / 1e6 / start.elapsed().as_secs_f64()
    });
    let compiled =
        CompiledTrace::compile(&design, &mut Benchmark::Gap.trace(REPRO_SEED), comp_cycles);
    let replay = best_of_3(&mut || {
        let ctrl = ThresholdController::new(design.controller_config(ProcessCorner::Typical));
        let start = Instant::now();
        let (r, _) = compiled.replay(&design, PvtCorner::TYPICAL, ctrl, None, false);
        std::hint::black_box(r.errors);
        comp_cycles as f64 / 1e6 / start.elapsed().as_secs_f64()
    });
    // Fused replay at fan-in 1, 4 and 16: one pass over the compiled
    // trace judges F open-loop members (alternating corners, distinct
    // supplies — the Monte-Carlo campaign shape). Throughput counts
    // member-cycles (cycles × fan-in) per wall second, so the numbers
    // grow with fan-in as the shared stream amortizes. The fan-in is
    // recorded in `component_fanin` so `--check` never gates a leg
    // across different group widths.
    let fused_at = |fanin: usize| {
        let ops: Vec<FusedOp> = (0..fanin)
            .map(|k| FusedOp {
                pvt: if k % 2 == 0 {
                    PvtCorner::TYPICAL
                } else {
                    PvtCorner::WORST
                },
                supply: Millivolts::new(920 + 20 * (k as i32 % 8)),
            })
            .collect();
        best_of_3(&mut || {
            let start = Instant::now();
            let reports = compiled.replay_fused(&design, &ops, None);
            std::hint::black_box(reports.len());
            (comp_cycles * fanin as u64) as f64 / 1e6 / start.elapsed().as_secs_f64()
        })
    };
    let fused_f1 = fused_at(1);
    let fused_f4 = fused_at(4);
    let fused_f16 = fused_at(16);
    eprintln!(
        "  components: batched {batched:.1} / reference {reference:.1} Mcyc/s (x{:.2}), collect {collect:.1}, analyze {analyze:.1} (storm {analyze_storm:.1}), compile {compile:.1}, replay {replay:.1} (fused f1 {fused_f1:.1} / f4 {fused_f4:.1} / f16 {fused_f16:.1})",
        batched / reference
    );

    // Multi-core executor scaling: the governor shootout (three members
    // sharing one compiled 10-benchmark suite) through the
    // work-stealing pool, pinned to 1, 2 and N workers. Aggregate
    // Mcyc/s counts every member's simulated cycles against the whole
    // campaign's wall clock — compile pass, pool overheads and all — so
    // the number is the throughput a sweep user actually sees. The
    // wmax leg records this runner's core-count ceiling; on a
    // single-core runner it duplicates w1 by construction.
    let shootout = catalog::by_name("governor-shootout", cycles, REPRO_SEED).expect("catalog name");
    let sweep_members = shootout.expand().expect("valid spec").len() as u64;
    let sweep_cycles = sweep_members * Benchmark::ALL.len() as u64 * cycles;
    let sweep_at = |workers: usize| {
        best_of_3(&mut || {
            let start = Instant::now();
            let run = shootout
                .run_with_workers(Vec::new(), true, Some(workers))
                .expect("valid spec");
            std::hint::black_box(run.result.members.len());
            sweep_cycles as f64 / 1e6 / start.elapsed().as_secs_f64()
        })
    };
    let sweep_w1 = sweep_at(1);
    let sweep_w2 = sweep_at(2);
    let sweep_wmax = sweep_at(max_workers);
    eprintln!(
        "  sweep aggregate: w1 {sweep_w1:.1} / w2 {sweep_w2:.1} / w{max_workers} {sweep_wmax:.1} Mcyc/s"
    );

    let report = BenchReport {
        cycles_per_benchmark: cycles,
        threads: max_workers,
        components_mcycles_per_s: vec![
            ("closed_loop_batched", round2(batched)),
            ("closed_loop_reference", round2(reference)),
            ("batched_speedup", round2(batched / reference)),
            ("summary_collect", round2(collect)),
            ("analyze_cycle", round2(analyze)),
            ("analyze_cycle_storm", round2(analyze_storm)),
            ("trace_compile", round2(compile)),
            ("compiled_replay", round2(replay)),
            ("replay_speedup", round2(replay / batched)),
            ("fused_replay_f1", round2(fused_f1)),
            ("fused_replay_f4", round2(fused_f4)),
            ("fused_replay_f16", round2(fused_f16)),
            ("sweep_aggregate_w1", round2(sweep_w1)),
            ("sweep_aggregate_w2", round2(sweep_w2)),
            ("sweep_aggregate_wmax", round2(sweep_wmax)),
        ],
        component_threads: vec![
            ("sweep_aggregate_w1", resolved_threads(1)),
            ("sweep_aggregate_w2", resolved_threads(2)),
            ("sweep_aggregate_wmax", resolved_threads(max_workers)),
        ],
        component_fanin: vec![
            ("fused_replay_f1", 1),
            ("fused_replay_f4", 4),
            ("fused_replay_f16", 16),
        ],
    };
    let json = report.to_json().expect("render bench report");
    std::fs::write(&out_path, &json).expect("write bench report");
    eprintln!("# wrote {out_path}");
}

/// `bench_report --check BASELINE CURRENT`: the bench-job regression
/// guard. Compares the two reports' component throughputs with the
/// ±40 % tolerance and exits non-zero (listing the offenders) when the
/// trajectory drifted — a regression, or a stale committed baseline
/// that needs re-recording.
fn run_check(paths: &[String]) {
    let [baseline_path, current_path] = paths else {
        eprintln!("error: --check needs exactly BASELINE and CURRENT paths");
        std::process::exit(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read(baseline_path);
    let current = read(current_path);
    match check_components(&baseline, &current, CHECK_TOLERANCE) {
        Ok(table) => {
            eprintln!("# component throughputs within ±40% of {baseline_path}:");
            eprintln!("{table}");
        }
        Err(report) => {
            eprintln!("error: {report}");
            std::process::exit(1);
        }
    }
}

/// The thread count a `Some(workers)`-pinned pool leg actually gets to
/// run on: the requested count capped by the runner's hardware
/// parallelism. Recorded per component so `--check` can tell a real
/// regression from a baseline recorded on a different-width runner
/// (a 1-core runner's `w2` leg is a 1-thread measurement no matter
/// what the pool was asked for).
fn resolved_threads(requested: usize) -> usize {
    requested.min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Rounds to two decimals (throughputs keep the old `{:.2}` precision).
fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// One warmup call, then the best throughput of three timed calls.
fn best_of_3(f: &mut dyn FnMut() -> f64) -> f64 {
    std::hint::black_box(f());
    (0..3).map(|_| f()).fold(0.0f64, f64::max)
}

/// Mcycles/s of one closed-loop run (Gap under the paper controller).
fn closed_loop_throughput(design: &DvsBusDesign, cycles: u64, reference: bool) -> f64 {
    let ctrl = ThresholdController::new(design.controller_config(ProcessCorner::Typical));
    let mut sim = BusSimulator::new(
        design,
        PvtCorner::TYPICAL,
        Benchmark::Gap.trace(REPRO_SEED),
        ctrl,
    );
    let start = Instant::now();
    let r = if reference {
        sim.run_reference(cycles)
    } else {
        sim.run(cycles)
    };
    std::hint::black_box(r.errors);
    cycles as f64 / 1e6 / start.elapsed().as_secs_f64()
}
