//! `razorbench`: end-to-end and per-layer timing of razorbus campaigns.
//!
//! ```text
//! cargo run --release --manifest-path razorbench/Cargo.toml -- \
//!     --workload paper-all --seed 2005 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload's campaign through the public executor
//! at a pinned worker count for `--seconds` and reports the end-to-end
//! metrics. `--trace 1` alternates the executor at the pinned count and
//! at one worker with the traced run (`traced.rs`) and reports the
//! per-layer metrics. Every campaign's output is checked against stored
//! digests (`expected.rs`), or against the traced run for a seed without
//! any. Human-readable lines go first; the last stdout line is one JSON
//! object. `README.md` describes the metrics and workloads.

mod expected;
mod traced;
mod workload;

use razorbus_scenario::ScenarioSet;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::Layers;
use workload::{Check, Setup, Sim, Workload, WORKLOADS};

/// Pool workers of the measured executor campaigns, pinned so the
/// program path does not depend on the host's core count.
const WORKERS: usize = 2;

/// Set-ups timed before each campaign, which runs on the last of them.
/// Spreading them over the run makes `setup_s` sample the same host
/// conditions as the campaigns.
const SETUPS_PER_CAMPAIGN: usize = 5;

/// Campaigns an untraced run measures at least, however short
/// `--seconds` is.
const MIN_CAMPAIGNS: usize = 3;

/// Environment knobs that change the executor's path (or, for
/// `RAZORBUS_CYCLES`, silently change sizes in the repro binary). A run
/// refuses to start while any is set.
const KNOBS: [&str; 6] = [
    "RAZORBUS_THREADS",
    "RAZORBUS_COMPILE_CHUNK",
    "RAZORBUS_REPLAY_FANIN",
    "RAZORBUS_NO_FUSED",
    "RAZORBUS_COMPILE_BUDGET_MB",
    "RAZORBUS_CYCLES",
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = expected::DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::by_name(&value).ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{value}` (known: {})", names.join(", "))
                    })?);
                }
                "--seed" => {
                    seed = value
                        .parse()
                        .map_err(|_| format!("--seed `{value}` is not an unsigned integer"))?;
                }
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds `{value}` is not a positive number"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace `{value}` is neither 0 nor 1")),
                    };
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run measured: every campaign's output check, the check they
/// must all equal, and the metrics.
struct Outcome {
    checks: Vec<Check>,
    expected: Check,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    match Args::parse(std::env::args().skip(1)).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("razorbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The first of [`KNOBS`] that `is_set` reports set.
fn refused_knob(is_set: impl Fn(&str) -> bool) -> Option<&'static str> {
    KNOBS.into_iter().find(|knob| is_set(knob))
}

/// Runs one workload and prints its result; `Ok(false)` when an output
/// check failed.
fn run(args: &Args) -> Result<bool, String> {
    if let Some(knob) = refused_knob(|k| std::env::var_os(k).is_some()) {
        return Err(format!(
            "{knob} is set; it changes what the executor runs, so the benchmark refuses \
             to start (unset it)"
        ));
    }
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "razorbench workload={} set={} cycles={} seed={} workers={WORKERS} nproc={nproc} \
         seconds={} trace={} rev={}",
        w.name,
        w.catalog,
        w.cycles,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_revision()
    );

    let resolve = || w.set(args.seed);
    let stored = expected::lookup(w.name, args.seed, w.cycles);
    let outcome = if args.trace {
        traced_run(args, &resolve, stored)?
    } else {
        measured_run(args, &resolve, stored)?
    };
    let attempted = outcome.checks.len();
    let failed = outcome
        .checks
        .iter()
        .filter(|c| **c != outcome.expected)
        .count();
    println!(
        "expected {} ({}); campaign_fail_ratio {failed}/{attempted}",
        outcome.expected,
        if stored.is_some() {
            "stored"
        } else {
            "no stored digest for this seed: the traced run's"
        }
    );
    print_json(failed == 0, attempted, failed, &outcome.metrics)?;
    Ok(failed == 0)
}

/// A campaign's resolver: the workload's catalog set at the run's seed.
type Resolve<'a> = &'a dyn Fn() -> Result<ScenarioSet, String>;

/// Set-ups timed so far in a run.
#[derive(Default)]
struct Setups {
    total: Vec<f64>,
    design_build: Vec<f64>,
}

impl Setups {
    /// [`SETUPS_PER_CAMPAIGN`] timed set-ups; returns the last.
    fn next(&mut self, resolve: Resolve) -> Result<Setup, String> {
        let mut last = None;
        for _ in 0..SETUPS_PER_CAMPAIGN {
            let (setup, times) = Setup::new(resolve)?;
            self.total.push(times.total.as_secs_f64());
            self.design_build.push(times.design_build.as_secs_f64());
            last = Some(setup);
        }
        let setup = last.expect("SETUPS_PER_CAMPAIGN is positive");
        if self.total.len() == SETUPS_PER_CAMPAIGN {
            println!(
                "set-up: {} members, {} member-cycles, {} designs",
                setup.members,
                setup.member_cycles,
                setup.designs.len()
            );
        }
        Ok(setup)
    }
}

/// The untraced run: set-ups and executor campaigns for `--seconds`,
/// end-to-end metrics.
fn measured_run(args: &Args, resolve: Resolve, stored: Option<Check>) -> Result<Outcome, String> {
    let w = args.workload;
    let start = Instant::now();
    let mut setups = Setups::default();
    let mut walls = Vec::new();
    let mut checks = Vec::new();
    let mut sim = None;
    let mut setup;
    loop {
        let iteration = Instant::now();
        setup = setups.next(resolve)?;
        let (wall, result, figures) = workload::run_executor(&setup, WORKERS, w.figures())?;
        let check = Check::of(&result, figures.as_ref())?;
        println!(
            "campaign {}: {:.4} s, {check}",
            walls.len() + 1,
            wall.as_secs_f64()
        );
        if sim.is_none() {
            sim = Some(Sim::of(&result));
            if let Some(figures) = &figures {
                print_accuracy(&figures.table1);
            }
        }
        walls.push(wall.as_secs_f64());
        checks.push(check);
        if walls.len() >= MIN_CAMPAIGNS && !time_for_another(start, iteration, args.seconds) {
            break;
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    let expected = match stored {
        Some(check) => check,
        None => {
            let (_, result, figures) = traced::run(&setup, w.figures())?;
            Check::of(&result, figures.as_ref())?
        }
    };
    let sim = sim.expect("at least one campaign ran");
    let campaign_s = median(&walls);
    let metrics = vec![
        metric("campaign_s", "s", campaign_s),
        metric(
            "sim_mcyc_per_s",
            "Mcycles/s",
            setup.member_cycles as f64 / campaign_s / 1e6,
        ),
        metric("setup_s", "s", median(&setups.total)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("sim.energy_gain", "ratio", sim.energy_gain()),
        metric("sim.error_rate", "ratio", sim.error_rate()),
    ];
    Ok(Outcome {
        checks,
        expected,
        metrics,
    })
}

/// The traced run: rounds of (set-ups, executor at [`WORKERS`], executor
/// at one worker, traced run) for `--seconds`, per-layer metrics as
/// the median over the rounds.
fn traced_run(args: &Args, resolve: Resolve, stored: Option<Check>) -> Result<Outcome, String> {
    let figures = args.workload.figures();
    let start = Instant::now();
    let mut setups = Setups::default();
    let mut pool_walls = Vec::new();
    let mut serial_walls = Vec::new();
    let mut rounds: Vec<Layers> = Vec::new();
    let mut checks = Vec::new();
    let mut traced_check = None;
    loop {
        let round = Instant::now();
        let setup = setups.next(resolve)?;
        for (workers, walls) in [(WORKERS, &mut pool_walls), (1, &mut serial_walls)] {
            let (wall, result, figs) = workload::run_executor(&setup, workers, figures)?;
            let check = Check::of(&result, figs.as_ref())?;
            println!(
                "executor at {workers} worker(s): {:.4} s, {check}",
                wall.as_secs_f64()
            );
            walls.push(wall.as_secs_f64());
            checks.push(check);
        }
        let (mut layers, result, figs) = traced::run(&setup, figures)?;
        let t = Instant::now();
        let check = Check::of(&result, figs.as_ref())?;
        layers.digest = t.elapsed();
        let in_layers: Duration = layers.campaign().iter().map(|(_, d)| *d).sum();
        println!(
            "traced: {:.4} s in layers, {check}",
            in_layers.as_secs_f64()
        );
        traced_check.get_or_insert(check);
        checks.push(check);
        rounds.push(layers);
        if !time_for_another(start, round, args.seconds) {
            break;
        }
    }

    let mid = |f: &dyn Fn(&Layers) -> Duration| {
        median(
            &rounds
                .iter()
                .map(|l| f(l).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let count = |v: u64| v as f64;
    let first = &rounds[0];
    let serial_s = median(&serial_walls);
    let mut metrics: Vec<Metric> = Vec::new();
    let mut in_layers = 0.0;
    for k in 0..first.campaign().len() {
        let (name, _) = first.campaign()[k];
        let value = mid(&|l: &Layers| l.campaign()[k].1);
        in_layers += value;
        metrics.push(metric(name, "s", value));
    }
    let analyze_s = mid(&|l: &Layers| l.analyze);
    let fused_s = mid(&|l: &Layers| l.fused);
    // An idle layer's one empty span stands for its calls, so the ratio
    // stays a measured time.
    let per = |total: f64, n: u64| total / n.max(1) as f64;
    metrics.extend([
        metric("traces.words", "count", count(first.words)),
        metric("wire.cycles", "count", count(first.analyzed_cycles)),
        metric(
            "wire.analyze_mcyc_per_s",
            "Mcycles/s",
            first.analyzed_cycles as f64 / analyze_s / 1e6,
        ),
        metric("core.compiled_bytes", "bytes", count(first.compiled_bytes)),
        metric("core.fused_calls", "count", count(first.fused_calls)),
        metric(
            "core.fused_member_cycles",
            "count",
            count(first.fused_member_cycles),
        ),
        metric(
            "core.fused_ms_per_call",
            "ms",
            per(fused_s * 1e3, first.fused_calls),
        ),
        metric("core.replay_cycles", "count", count(first.replay_cycles)),
        metric("core.live_cycles", "count", count(first.live_cycles)),
        metric("core.design_build_s", "s", median(&setups.design_build)),
        metric("scenario.members", "count", count(first.members)),
        metric("scenario.campaign_1w_s", "s", serial_s),
        metric("scenario.exec_residual_s", "s", serial_s - in_layers),
        metric(
            "scenario.pool_speedup",
            "ratio",
            serial_s / median(&pool_walls),
        ),
        metric("artifact.digest_s", "s", mid(&|l: &Layers| l.digest)),
    ]);
    println!(
        "1-worker campaign {serial_s:.4} s = {in_layers:.4} s in layers + {:.4} s residual",
        serial_s - in_layers
    );
    Ok(Outcome {
        checks,
        expected: stored.unwrap_or_else(|| traced_check.expect("at least one round ran")),
        metrics,
    })
}

/// Table 1's totals next to the paper's, the one place the model meets
/// a reference.
fn print_accuracy(table1: &razorbus_core::experiments::table1::Table1Data) {
    for corner in &table1.corners {
        println!(
            "table1 {}: fixed-VS gain {:.1}%, DVS gain {:.1}%, DVS error rate {:.2}%",
            corner.corner,
            corner.total.fixed_gain * 100.0,
            corner.total.dvs_gain * 100.0,
            corner.total.dvs_error_rate * 100.0
        );
    }
    println!("paper: DVS gain up to 17% worst, 35-45% typical, error rate under 2.3%");
}

fn print_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<(), String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// Whether one more iteration as long as the one begun at `iteration`
/// still ends within `seconds` of `start`, so a run stays within its
/// budget instead of overrunning it by up to one slow iteration.
fn time_for_another(start: Instant, iteration: Instant, seconds: f64) -> bool {
    (start.elapsed() + iteration.elapsed()).as_secs_f64() <= seconds
}

/// The median of a run's host times. On a host shared with other
/// tenants, single campaigns swing by tens of percent either way as
/// their memory and cache traffic comes and goes; the fastest sample of
/// a run follows whichever lull the run happened to catch, while the
/// median of its many campaigns moves far less from run to run.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MB. Each run is its own
/// process, so this is the workload's peak.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for the peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (never above it); a checkout without one reports so.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown(no-.git)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved({reference})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_scenario::{catalog, ScenarioSet, SweepAxis};

    /// `w` at the self-test size: 1 k cycles, Monte-Carlo sets cut to
    /// two seeds.
    fn small(w: &Workload, seed: u64) -> Result<ScenarioSet, String> {
        let mut set = catalog::by_name(w.catalog, 1_000, seed).expect("catalog name");
        for axis in &mut set.members[0].sweep {
            if let SweepAxis::Seeds(seeds) = axis {
                *seeds = vec![seed, seed + 1];
            }
        }
        Ok(set)
    }

    #[test]
    fn traced_run_reproduces_the_executor_at_small_size() {
        for w in &WORKLOADS {
            let (setup, _) = Setup::new(|| small(w, 7)).unwrap();
            let (layers, result, figures) = traced::run(&setup, w.figures()).unwrap();
            let traced = Check::of(&result, figures.as_ref()).unwrap();
            for workers in [1, 2] {
                let (_, result, figures) =
                    workload::run_executor(&setup, workers, w.figures()).unwrap();
                let check = Check::of(&result, figures.as_ref()).unwrap();
                assert_eq!(check, traced, "{} at {workers} worker(s)", w.name);
            }
            if w.figures() {
                // Paper bus compiled and replayed at both corners; the
                // modified bus has one user, so it runs live.
                assert_eq!(layers.replay_cycles, 2 * 10 * 1_000);
                assert_eq!(layers.live_cycles, 10 * 1_000);
                assert_eq!(layers.fused_calls, 0);
            } else {
                // One fused pass per seed over 2 corners × 8 supplies.
                assert_eq!(layers.fused_calls, 2);
                assert_eq!(layers.fused_member_cycles, 2 * 16 * 1_000);
                assert_eq!(layers.live_cycles + layers.replay_cycles, 0);
            }
        }
    }

    #[test]
    fn reported_metrics_are_the_ones_benchmark_json_declares() {
        let declared =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        for w in &WORKLOADS {
            let resolve = || small(w, 7);
            let args = |trace| Args {
                workload: w,
                seed: 7,
                seconds: 1e-3,
                trace,
            };
            let measured = measured_run(&args(false), &resolve, None).unwrap();
            let traced = traced_run(&args(true), &resolve, None).unwrap();
            let mut reported = 0;
            for outcome in [&measured, &traced] {
                assert!(outcome.checks.iter().all(|c| *c == outcome.expected));
                for m in &outcome.metrics {
                    let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                    assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
                    // Idle layers too report a measured time, never 0.
                    if m.unit == "s" || m.unit == "ms" {
                        assert_ne!(m.value, 0.0, "{} on {}", m.name, w.name);
                    }
                    reported += 1;
                }
            }
            assert_eq!(declared.matches("\"unit\":").count(), reported);
        }
    }

    #[test]
    fn path_changing_knobs_are_refused_by_name() {
        assert_eq!(refused_knob(|_| false), None);
        assert_eq!(
            refused_knob(|k| k == "RAZORBUS_CYCLES"),
            Some("RAZORBUS_CYCLES")
        );
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(str::to_string));
        let args = parse("--workload mc-10k-short --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (args.workload.name, args.seed, args.trace),
            ("mc-10k-short", 9, true)
        );
        assert_eq!(
            parse("--workload mc-10k-short").unwrap().seed,
            expected::DEFAULT_SEED
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload mc-10k-short --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
