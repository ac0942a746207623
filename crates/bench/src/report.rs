//! The `BENCH_<pr>.json` perf report, written with the artifact layer's
//! JSON writer and read back with its parser.
//!
//! The schema (`razorbus-bench/v1`, documented in README.md "Benchmarks
//! in CI") predates the artifact layer, so the report is written as bare
//! pretty-printed JSON — no `RZBA` container framing — to stay diffable
//! against the committed `BENCH_*.json` reference files.

use razorbus_artifact::json::JsonValue;
use razorbus_artifact::ArtifactError;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "razorbus-bench/v1";

/// Tolerance of the `--check` regression guard: component throughputs
/// may deviate ±40 % from the committed baseline before the bench job
/// fails (generous, because CI runners vary — but loud, so the perf
/// trajectory cannot drift silently).
pub const CHECK_TOLERANCE: f64 = 0.40;

/// One perf report: component throughputs plus the thread counts and
/// fan-ins behind them.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Cycles per benchmark in force (`RAZORBUS_CYCLES`).
    pub cycles_per_benchmark: u64,
    /// Available parallelism on the machine that produced the report.
    pub threads: usize,
    /// Steady-state component throughputs (Mcycles/s), best-of-3.
    pub components_mcycles_per_s: Vec<(&'static str, f64)>,
    /// Resolved thread count per *runner-bound* component (requested
    /// workers clamped to the recording machine's parallelism). A
    /// multi-worker leg recorded on a one-core runner is flat by
    /// construction, so [`check_components`] only gates a component
    /// across reports whose resolved counts match — anything else is
    /// skipped with a loud note instead of gating on noise.
    /// Thread-independent components carry no entry and always gate.
    pub component_threads: Vec<(&'static str, usize)>,
    /// Fan-in (group width) per *fused replay* component. Throughput scales
    /// with how many members one pass judges, so [`check_components`]
    /// only gates a fused leg across reports whose resolved fan-ins
    /// match — mirroring the thread-count rule above. Non-fused
    /// components carry no entry and always gate.
    pub component_fanin: Vec<(&'static str, usize)>,
}

/// An ordered list of named measurements serialized as a JSON object —
/// component names are `&'static str`, which is exactly what the struct
/// serializer's field keys require.
struct NamedValues<'a, T>(&'a [(&'static str, T)]);

impl<T: serde::Serialize> serde::Serialize for NamedValues<'_, T> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut state = serializer.serialize_struct("NamedValues", self.0.len())?;
        for (name, value) in self.0 {
            state.serialize_field(name, value)?;
        }
        state.end()
    }
}

impl serde::Serialize for BenchReport {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut state = serializer.serialize_struct("BenchReport", 6)?;
        state.serialize_field("schema", SCHEMA)?;
        state.serialize_field("cycles_per_benchmark", &self.cycles_per_benchmark)?;
        state.serialize_field("threads", &self.threads)?;
        state.serialize_field(
            "components_mcycles_per_s",
            &NamedValues(&self.components_mcycles_per_s),
        )?;
        state.serialize_field("component_threads", &NamedValues(&self.component_threads))?;
        state.serialize_field("component_fanin", &NamedValues(&self.component_fanin))?;
        state.end()
    }
}

impl BenchReport {
    /// Renders the report as pretty-printed JSON (the on-disk format).
    ///
    /// # Errors
    ///
    /// Propagates [`ArtifactError`] from the JSON writer.
    pub fn to_json(&self) -> Result<String, ArtifactError> {
        razorbus_artifact::json::to_string_pretty(self)
    }
}

/// Extracts the `components_mcycles_per_s` entries from a rendered
/// `BENCH_*.json` report.
///
/// # Errors
///
/// Returns a description when the report is not JSON, has no
/// components object, or holds a non-numeric throughput (e.g. the
/// writer's `"NaN"` spelling — a pathological measurement must fail the
/// comparison loudly, naming the component).
pub fn parse_components(json: &str) -> Result<Vec<(String, f64)>, String> {
    named_values(
        json,
        "components_mcycles_per_s",
        "throughput",
        |v| match *v {
            JsonValue::F64(x) => Some(x),
            JsonValue::I64(x) => Some(x as f64),
            JsonValue::U64(x) => Some(x as f64),
            _ => None,
        },
    )?
    .ok_or_else(|| "report has no components_mcycles_per_s object".to_string())
}

/// Extracts the `component_threads` entries from a rendered report.
/// Reports written before the field existed (≤ `BENCH_7.json`) have no
/// object at all — that parses as the empty list, making every
/// component thread-independent by default.
///
/// # Errors
///
/// Returns a description when the report is not JSON or a present
/// object holds a non-integer thread count.
fn parse_component_threads(json: &str) -> Result<Vec<(String, usize)>, String> {
    Ok(named_values(json, "component_threads", "thread count", as_usize)?.unwrap_or_default())
}

/// Extracts the `component_fanin` entries from a rendered report.
/// Reports written before fused replay existed (≤ `BENCH_9.json`) have
/// no object at all — that parses as the empty list, making every
/// component fan-in-independent by default.
///
/// # Errors
///
/// Returns a description when the report is not JSON or a present
/// object holds a non-integer fan-in.
fn parse_component_fanin(json: &str) -> Result<Vec<(String, usize)>, String> {
    Ok(named_values(json, "component_fanin", "fan-in", as_usize)?.unwrap_or_default())
}

fn as_usize(value: &JsonValue) -> Option<usize> {
    match *value {
        JsonValue::I64(x) => usize::try_from(x).ok(),
        JsonValue::U64(x) => usize::try_from(x).ok(),
        _ => None,
    }
}

/// The entries of the report's top-level `field` object, each value
/// converted by `convert`; `None` when the report has no such field.
fn named_values<T>(
    json: &str,
    field: &str,
    what: &str,
    convert: impl Fn(&JsonValue) -> Option<T>,
) -> Result<Option<Vec<(String, T)>>, String> {
    let report = razorbus_artifact::json::parse(json).map_err(|e| e.to_string())?;
    let JsonValue::Obj(fields) = report else {
        return Err("report is not a JSON object".to_string());
    };
    let Some((_, value)) = fields.iter().find(|(key, _)| key == field) else {
        return Ok(None);
    };
    let JsonValue::Obj(entries) = value else {
        return Err(format!("{field} is not an object"));
    };
    entries
        .iter()
        .map(|(name, value)| {
            convert(value)
                .map(|t| (name.clone(), t))
                .ok_or_else(|| format!("invalid {what} for `{name}`: {value:?}"))
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// The bench-job regression guard: compares the component throughputs
/// of `current` against the committed `baseline` report, allowing a
/// multiplicative deviation of `tolerance` (0.40 = ±40 %) per
/// component.
///
/// Deviations in *either* direction fail: a drop is a perf regression,
/// a large gain means the committed baseline no longer reflects reality
/// and must be re-recorded deliberately — both beat silent drift. A
/// component present only in `current` is reported but tolerated (new
/// measurements need a baseline refresh to become binding); a component
/// that disappeared fails.
///
/// Runner-bound components (those with a `component_threads` entry —
/// multi-worker sweep and compile legs) only gate when both reports
/// resolved the same thread count; otherwise the throughputs measure
/// different machines shapes, not a regression, and the comparison is
/// skipped with a loud per-line and summary note.
///
/// Returns the rendered comparison table on success.
///
/// # Errors
///
/// Returns the rendered table with per-component failure markers.
pub fn check_components(baseline: &str, current: &str, tolerance: f64) -> Result<String, String> {
    let base = parse_components(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = parse_components(current).map_err(|e| format!("current: {e}"))?;
    let base_threads = parse_component_threads(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur_threads = parse_component_threads(current).map_err(|e| format!("current: {e}"))?;
    let base_fanin = parse_component_fanin(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur_fanin = parse_component_fanin(current).map_err(|e| format!("current: {e}"))?;
    let lookup = |list: &[(String, usize)], name: &str| {
        list.iter().find(|(n, _)| n == name).map(|&(_, t)| t)
    };
    let render = |t: Option<usize>, unit: &str| {
        t.map_or("unrecorded".to_string(), |t| format!("{t} {unit}"))
    };
    let mut lines = Vec::new();
    let mut failed = false;
    let mut skipped = 0usize;
    for (name, base_value) in &base {
        match cur.iter().find(|(n, _)| n == name) {
            None => {
                failed = true;
                lines.push(format!("  {name:<24} {base_value:>8.2} -> MISSING  FAIL"));
            }
            Some((_, cur_value)) => {
                let bt = lookup(&base_threads, name);
                let ct = lookup(&cur_threads, name);
                if bt != ct {
                    skipped += 1;
                    lines.push(format!(
                        "  {name:<24} {base_value:>8.2} -> {cur_value:>8.2}  SKIPPED \
                         (runner-bound: baseline {}, current {})",
                        render(bt, "threads"),
                        render(ct, "threads")
                    ));
                    continue;
                }
                let bf = lookup(&base_fanin, name);
                let cf = lookup(&cur_fanin, name);
                if bf != cf {
                    let show =
                        |f: Option<usize>| f.map_or("unrecorded".to_string(), |f| f.to_string());
                    skipped += 1;
                    lines.push(format!(
                        "  {name:<24} {base_value:>8.2} -> {cur_value:>8.2}  SKIPPED \
                         (fused leg: baseline fan-in {}, current fan-in {})",
                        show(bf),
                        show(cf)
                    ));
                    continue;
                }
                let lo = base_value * (1.0 - tolerance);
                let hi = base_value * (1.0 + tolerance);
                let ok = (lo..=hi).contains(cur_value);
                failed |= !ok;
                lines.push(format!(
                    "  {name:<24} {base_value:>8.2} -> {cur_value:>8.2}  ({:+5.1}%){}",
                    (cur_value / base_value - 1.0) * 100.0,
                    if ok { "" } else { "  FAIL" }
                ));
            }
        }
    }
    for (name, value) in &cur {
        if !base.iter().any(|(n, _)| n == name) {
            lines.push(format!(
                "  {name:<24}   (new)  -> {value:>8.2}  (not in baseline)"
            ));
        }
    }
    if skipped > 0 {
        lines.push(format!(
            "  NOTE: {skipped} comparison(s) SKIPPED — resolved thread counts or replay \
             fan-ins differ between the baseline and current runs, so those legs measure \
             machine shape or group width, not code. Re-record the baseline on a matching \
             configuration to re-arm them."
        ));
    }
    let table = lines.join("\n");
    if failed {
        Err(format!(
            "component throughputs drifted beyond ±{:.0}% of the committed baseline \
             (regression, or a stale baseline that needs re-recording):\n{table}",
            tolerance * 100.0
        ))
    } else {
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_schema_shape() {
        let report = BenchReport {
            cycles_per_benchmark: 50_000,
            threads: 8,
            components_mcycles_per_s: vec![("closed_loop_batched", 13.7)],
            component_threads: vec![("sweep_aggregate_wmax", 8)],
            component_fanin: vec![("fused_replay_f4", 4)],
        };
        let json = report.to_json().unwrap();
        let expected = "{\n  \"schema\": \"razorbus-bench/v1\",\n  \"cycles_per_benchmark\": 50000,\n  \"threads\": 8,\n  \"components_mcycles_per_s\": {\n    \"closed_loop_batched\": 13.7\n  },\n  \"component_threads\": {\n    \"sweep_aggregate_wmax\": 8\n  },\n  \"component_fanin\": {\n    \"fused_replay_f4\": 4\n  }\n}\n";
        assert_eq!(json, expected);
    }

    fn report_with(components: Vec<(&'static str, f64)>) -> String {
        report_with_threads(components, Vec::new())
    }

    fn report_with_threads(
        components: Vec<(&'static str, f64)>,
        component_threads: Vec<(&'static str, usize)>,
    ) -> String {
        report_with_extras(components, component_threads, Vec::new())
    }

    fn report_with_extras(
        components: Vec<(&'static str, f64)>,
        component_threads: Vec<(&'static str, usize)>,
        component_fanin: Vec<(&'static str, usize)>,
    ) -> String {
        BenchReport {
            cycles_per_benchmark: 50_000,
            threads: 1,
            components_mcycles_per_s: components,
            component_threads,
            component_fanin,
        }
        .to_json()
        .unwrap()
    }

    #[test]
    fn parse_components_round_trips_the_writer() {
        // A whole-number throughput is written without a fraction
        // (`2`) and parses as an integer; it still reads as a number.
        let json = report_with(vec![
            ("analyze_cycle", 10.69),
            ("batched_speedup", 1.03),
            ("whole", 2.0),
        ]);
        let parsed = parse_components(&json).unwrap();
        assert_eq!(
            parsed,
            vec![
                ("analyze_cycle".to_string(), 10.69),
                ("batched_speedup".to_string(), 1.03),
                ("whole".to_string(), 2.0)
            ]
        );
        assert!(parse_components("{}").is_err());
        assert!(parse_components("not json").is_err());
        // Absent thread and fan-in objects read as empty.
        assert_eq!(parse_component_threads("{}").unwrap(), vec![]);
        assert_eq!(parse_component_fanin("{}").unwrap(), vec![]);
        // A NaN throughput (written as a string) must not parse silently.
        let bad = report_with(vec![("broken", f64::NAN)]);
        assert!(parse_components(&bad).unwrap_err().contains("broken"));
    }

    #[test]
    fn check_components_tolerates_noise_but_catches_drift() {
        let base = report_with(vec![("analyze_cycle", 10.0), ("summary_collect", 4.0)]);
        // Within ±40%: fine, in both directions.
        let ok = report_with(vec![("analyze_cycle", 13.9), ("summary_collect", 2.9)]);
        assert!(check_components(&base, &ok, 0.40).is_ok());
        // A 2x regression on one component fails loudly, naming it.
        let slow = report_with(vec![("analyze_cycle", 5.0), ("summary_collect", 4.0)]);
        let err = check_components(&base, &slow, 0.40).unwrap_err();
        assert!(
            err.contains("analyze_cycle") && err.contains("FAIL"),
            "{err}"
        );
        // A disappeared component fails; a new one is tolerated.
        let missing = report_with(vec![("analyze_cycle", 10.0)]);
        assert!(check_components(&base, &missing, 0.40).is_err());
        let extra = report_with(vec![
            ("analyze_cycle", 10.0),
            ("summary_collect", 4.0),
            ("trace_compile", 9.0),
        ]);
        let table = check_components(&base, &extra, 0.40).unwrap();
        assert!(table.contains("trace_compile"));
    }

    #[test]
    fn runner_bound_legs_skip_across_thread_counts() {
        // A wmax leg recorded at 8 threads compared against a 1-thread
        // runner is machine shape, not a regression: the comparison
        // must skip with a loud note even when the values differ by
        // far more than the tolerance — while same-thread-count legs
        // keep gating normally.
        let base = report_with_threads(
            vec![("analyze_cycle", 10.0), ("sweep_aggregate_wmax", 80.0)],
            vec![("sweep_aggregate_wmax", 8)],
        );
        let cur = report_with_threads(
            vec![("analyze_cycle", 10.5), ("sweep_aggregate_wmax", 11.0)],
            vec![("sweep_aggregate_wmax", 1)],
        );
        let table = check_components(&base, &cur, 0.40).unwrap();
        assert!(
            table.contains("SKIPPED") && table.contains("NOTE:"),
            "{table}"
        );
        // Same resolved count on both sides: the leg gates again.
        let cur_same = report_with_threads(
            vec![("analyze_cycle", 10.5), ("sweep_aggregate_wmax", 11.0)],
            vec![("sweep_aggregate_wmax", 8)],
        );
        let err = check_components(&base, &cur_same, 0.40).unwrap_err();
        assert!(
            err.contains("sweep_aggregate_wmax") && err.contains("FAIL"),
            "{err}"
        );
        // A baseline predating the field (no component_threads object,
        // e.g. BENCH_7.json) vs a current that records one: skipped,
        // not gated — the baseline cannot vouch for its thread count.
        let old = report_with(vec![("sweep_aggregate_wmax", 80.0)]);
        let table = check_components(&old, &cur, 0.40).unwrap();
        assert!(table.contains("unrecorded"), "{table}");
    }

    #[test]
    fn non_finite_measurements_stay_visible() {
        // A pathological measurement must not silently vanish or crash
        // the report: the JSON writer spells it out as a string.
        let report = BenchReport {
            cycles_per_benchmark: 1,
            threads: 1,
            components_mcycles_per_s: vec![("bad", f64::NAN)],
            component_threads: vec![],
            component_fanin: vec![],
        };
        assert!(report.to_json().unwrap().contains("\"bad\": \"NaN\""));
    }

    #[test]
    fn fused_legs_skip_across_fan_ins() {
        // A fused replay leg recorded at fan-in 16 compared against a
        // fan-in-2-capped run measures group width, not code: skipped
        // with a loud note, exactly like the thread-count rule. A
        // baseline predating the field (≤ BENCH_9.json) is likewise
        // skipped, and matching fan-ins gate normally.
        let base = report_with_extras(
            vec![("analyze_cycle", 10.0), ("fused_replay_f16", 160.0)],
            Vec::new(),
            vec![("fused_replay_f16", 16)],
        );
        let capped = report_with_extras(
            vec![("analyze_cycle", 10.5), ("fused_replay_f16", 21.0)],
            Vec::new(),
            vec![("fused_replay_f16", 2)],
        );
        let table = check_components(&base, &capped, 0.40).unwrap();
        assert!(
            table.contains("SKIPPED") && table.contains("fan-in") && table.contains("NOTE:"),
            "{table}"
        );
        let old = report_with(vec![("fused_replay_f16", 160.0)]);
        let table = check_components(&old, &capped, 0.40).unwrap();
        assert!(table.contains("unrecorded"), "{table}");
        // Same fan-in on both sides: the leg gates again.
        let same = report_with_extras(
            vec![("analyze_cycle", 10.5), ("fused_replay_f16", 21.0)],
            Vec::new(),
            vec![("fused_replay_f16", 16)],
        );
        let err = check_components(&base, &same, 0.40).unwrap_err();
        assert!(
            err.contains("fused_replay_f16") && err.contains("FAIL"),
            "{err}"
        );
    }

    #[test]
    fn committed_reports_parse_and_pass_against_themselves() {
        // Every committed baseline, including the legacy shapes: no
        // thread or fan-in objects (≤ BENCH_9.json), and the retired
        // `stages_ms`/`total_ms` fields that nothing reads any more.
        let reports = [
            ("BENCH_2.json", include_str!("../../../BENCH_2.json")),
            ("BENCH_5.json", include_str!("../../../BENCH_5.json")),
            ("BENCH_7.json", include_str!("../../../BENCH_7.json")),
            ("BENCH_9.json", include_str!("../../../BENCH_9.json")),
            ("BENCH_10.json", include_str!("../../../BENCH_10.json")),
            ("BENCH_13.json", include_str!("../../../BENCH_13.json")),
            ("BENCH_17.json", include_str!("../../../BENCH_17.json")),
        ];
        for (name, json) in reports {
            assert!(!parse_components(json).unwrap().is_empty(), "{name}");
            if let Err(e) = check_components(json, json, CHECK_TOLERANCE) {
                panic!("{name}: {e}");
            }
        }
    }
}
