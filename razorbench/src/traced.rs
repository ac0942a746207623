//! The traced run: one campaign replayed outside-in, as a serial
//! sequence of calls into the public functions of each layer, with
//! every call timed from the benchmark's side.
//!
//! The plan mirrors the executor's (`ScenarioSet::run_with_workers`):
//! members with equal loop keys share one loop; a sweep member rides the
//! first loop over its (design, workload, cycles, seed) stream; a stream
//! with two or more loop users compiles (serial word drain, chunked
//! `analyze_chunk`, `from_chunks` assembly) while the compile budget
//! allows, and everything else runs live; open-loop fixed-supply members
//! of one compiled stream replay fused; aggregate members fold into the
//! campaign digest in rank order. The result must equal the executor's
//! bit for bit, which [`crate::workload::Check`] verifies; otherwise the
//! layer numbers would describe a different program.

use crate::workload::{streams, Figures, Setup};
use razorbus_core::experiments::fig8::{self, Fig8Data};
use razorbus_core::experiments::{fig10, fig4, fig5, table1, SummaryBank};
use razorbus_core::{compile_chunk_cycles, BusSimulator, CompiledTrace, DvsBusDesign, FusedOp};
use razorbus_ctrl::{BoxedGovernor, GovernorSpec};
use razorbus_process::PvtCorner;
use razorbus_scenario::{
    ControllerSpec, DigestBuilder, LoopData, MemberMetrics, MemberResult, ScenarioSetResult,
    StreamRun, SweepData, WorkloadSpec,
};
use razorbus_traces::{Benchmark, TraceSource};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The executor's default ceiling on resident compiled traces. The
/// benchmark refuses `RAZORBUS_COMPILE_BUDGET_MB`, so the default holds.
const COMPILE_BUDGET: u64 = 768 * 1024 * 1024;

/// Resident bytes per compiled cycle (u8 toggles, u16 bin, f64
/// switched capacitance): the executor's footprint estimate.
const COMPILED_BYTES_PER_CYCLE: u64 = 11;

/// Host time (self time of the timed calls) and work done per layer in
/// one traced campaign.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `ScenarioSet::expand`.
    pub expand: Duration,
    pub members: u64,
    /// Trace construction plus `CompiledTrace::drain_words`.
    pub drain: Duration,
    pub words: u64,
    /// `CompiledTrace::analyze_chunk` (the wire layer's `analyze`).
    pub analyze: Duration,
    pub analyzed_cycles: u64,
    /// `CompiledTrace::from_chunks`.
    pub assemble: Duration,
    /// Peak Σ `memory_bytes` of the compiled traces resident at once.
    pub compiled_bytes: u64,
    /// `CompiledTrace::replay_fused`.
    pub fused: Duration,
    pub fused_calls: u64,
    pub fused_member_cycles: u64,
    /// Solo replays (`fig8::replay_protocol`, `CompiledTrace::replay`)
    /// without and with the histogram rider.
    pub replay: Duration,
    pub replay_hist: Duration,
    pub replay_cycles: u64,
    /// Live loops (`fig8::run_protocol`, `BusSimulator::run`).
    pub live: Duration,
    pub live_cycles: u64,
    /// `MemberMetrics::of` and `DigestBuilder::submit`/`finish`.
    pub fold: Duration,
    /// `fig4`/`fig5::from_summary`, `table1`/`fig10::from_parts`.
    pub experiments: Duration,
    /// `ContentDigest::of` over the output. Verification, not part of
    /// the campaign.
    pub digest: Duration,
}

impl Layers {
    /// The campaign's layers, as (name, self time). Together with the
    /// executor's residual they make up its 1-worker campaign time.
    pub fn campaign(&self) -> [(&'static str, Duration); 10] {
        [
            ("scenario.expand_s", self.expand),
            ("traces.drain_s", self.drain),
            ("wire.analyze_s", self.analyze),
            ("core.assemble_s", self.assemble),
            ("core.fused_replay_s", self.fused),
            ("core.replay_s", self.replay),
            ("core.replay_hist_s", self.replay_hist),
            ("core.live_s", self.live),
            ("scenario.fold_s", self.fold),
            ("core.experiments_s", self.experiments),
        ]
    }

    /// Opens one empty span on each campaign layer that made no call, so
    /// a layer idle on a workload reports a measured time (the span's own
    /// cost) rather than a constant zero.
    fn open_idle_spans(&mut self) {
        for span in [
            &mut self.expand,
            &mut self.drain,
            &mut self.analyze,
            &mut self.assemble,
            &mut self.fused,
            &mut self.replay,
            &mut self.replay_hist,
            &mut self.live,
            &mut self.fold,
            &mut self.experiments,
        ] {
            if span.is_zero() {
                timed(span, || ());
            }
        }
    }
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// Everything that identifies one closed-loop simulation.
#[derive(Debug)]
struct LoopKey {
    design: usize,
    corner: PvtCorner,
    workload: WorkloadSpec,
    controller: ControllerSpec,
    cycles: u64,
    seed: u64,
}

/// The identity of a word stream: what compiles and histograms key by.
/// Keys compare through their Debug rendering, as the executor's do
/// (`f64` renders shortest-round-trip, so it agrees with `PartialEq`).
fn stream_key(design: usize, workload: &WorkloadSpec, cycles: u64, seed: u64) -> String {
    format!("{:?}", (design, workload, cycles, seed))
}

impl LoopKey {
    fn stream(&self) -> String {
        stream_key(self.design, &self.workload, self.cycles, self.seed)
    }
}

/// Runs `setup`'s campaign as timed layer calls; also renders the paper
/// figures when `figures` is set.
pub fn run(
    setup: &Setup,
    figures: bool,
) -> Result<(Layers, ScenarioSetResult, Option<Figures>), String> {
    let mut l = Layers::default();
    let set = &setup.set;
    let members = timed(&mut l.expand, || set.expand())?;
    l.members = members.len() as u64;
    let design_idx = |spec| {
        setup
            .designs
            .iter()
            .position(|(s, _)| s == spec)
            .ok_or_else(|| format!("set-up built no design {spec:?}"))
    };
    let design = |i: usize| &setup.designs[i].1;

    // Loop jobs, deduplicated in first-appearance order.
    let mut jobs: Vec<LoopKey> = Vec::new();
    let mut job_by_key: HashMap<String, usize> = HashMap::new();
    let mut member_job: Vec<Option<usize>> = Vec::with_capacity(members.len());
    for m in &members {
        if !(m.analysis.wants_loop() || m.analysis.wants_aggregate()) {
            member_job.push(None);
            continue;
        }
        let key = LoopKey {
            design: design_idx(&m.design)?,
            corner: m.run.corner.resolve(),
            workload: m.workload.clone(),
            controller: m.controller,
            cycles: m.run.cycles_per_benchmark,
            seed: m.run.seed,
        };
        let i = *job_by_key.entry(format!("{key:?}")).or_insert_with(|| {
            jobs.push(key);
            jobs.len() - 1
        });
        member_job.push(Some(i));
    }

    // Sweep members ride the first loop over their stream.
    let mut first_loop: HashMap<String, usize> = HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        first_loop.entry(job.stream()).or_insert(i);
    }
    let mut hist = vec![false; jobs.len()];
    let mut member_sweep: Vec<Option<usize>> = Vec::with_capacity(members.len());
    for m in &members {
        if !m.analysis.wants_sweep() {
            member_sweep.push(None);
            continue;
        }
        let stream = stream_key(
            design_idx(&m.design)?,
            &m.workload,
            m.run.cycles_per_benchmark,
            m.run.seed,
        );
        let i = *first_loop.get(&stream).ok_or_else(|| {
            format!(
                "member `{}` wants a sweep no loop provides; summary-only passes \
                 are not part of the traced plan",
                m.name
            )
        })?;
        hist[i] = true;
        member_sweep.push(Some(i));
    }

    // Aggregate ranks in expansion order, and which loop products
    // outlive the fold.
    let mut ranks: Vec<Vec<usize>> = vec![Vec::new(); jobs.len()];
    let mut n_aggregate = 0;
    let mut keep = hist.clone();
    for (m, job) in members.iter().zip(&member_job) {
        if m.analysis.wants_aggregate() {
            ranks[job.expect("aggregate members plan a loop")].push(n_aggregate);
            n_aggregate += 1;
        }
        if m.analysis.wants_loop() {
            keep[job.expect("loop members plan a loop")] = true;
        }
    }

    let mut governors: Vec<Option<BoxedGovernor>> = jobs
        .iter()
        .map(|job| {
            job.controller
                .build(design(job.design), job.corner)
                .map(Some)
        })
        .collect::<Result<_, _>>()?;
    let mut governor = |i: usize| governors[i].take().expect("one governor per loop job");

    // Streams with two or more loop users compile, in first-appearance
    // order, while the budget allows; the other loops run live.
    let mut users: HashMap<String, usize> = HashMap::new();
    for job in &jobs {
        *users.entry(job.stream()).or_insert(0) += 1;
    }
    let mut compiles: Vec<usize> = Vec::new();
    let mut compile_of: HashMap<String, usize> = HashMap::new();
    let mut footprint = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        let stream = job.stream();
        if compile_of.contains_key(&stream) || users[&stream] < 2 {
            continue;
        }
        let bytes = streams(&job.workload) * job.cycles * COMPILED_BYTES_PER_CYCLE;
        if footprint + bytes > COMPILE_BUDGET {
            continue;
        }
        footprint += bytes;
        compile_of.insert(stream, compiles.len());
        compiles.push(i);
    }
    let mut replayers: Vec<Vec<usize>> = vec![Vec::new(); compiles.len()];
    let mut live: Vec<usize> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match compile_of.get(&job.stream()) {
            Some(&c) => replayers[c].push(i),
            None => live.push(i),
        }
    }

    let mut folder = (n_aggregate > 0).then(|| DigestBuilder::new(&set.name));
    let mut products: Vec<Option<(LoopData, Option<SweepData>)>> =
        (0..jobs.len()).map(|_| None).collect();
    let mut finish = |i: usize, data: LoopData, sweep: Option<SweepData>, l: &mut Layers| {
        if let Some(folder) = folder.as_mut().filter(|_| !ranks[i].is_empty()) {
            timed(&mut l.fold, || {
                let metrics = MemberMetrics::of(&data);
                for &rank in &ranks[i] {
                    folder.submit(rank, metrics.clone());
                }
            });
        }
        if keep[i] {
            products[i] = Some((data, sweep));
        }
    };

    for (c, &lead) in compiles.iter().enumerate() {
        let key = &jobs[lead];
        let d = design(key.design);
        let trace = match &key.workload {
            WorkloadSpec::Suite => {
                let per = Benchmark::ALL
                    .iter()
                    .map(|b| compile(d, || Ok(b.trace(key.seed)), key.cycles, &mut l).map(Arc::new))
                    .collect::<Result<Vec<_>, String>>()?;
                let bytes = per.iter().map(|t| t.memory_bytes() as u64).sum();
                l.compiled_bytes = l.compiled_bytes.max(bytes);
                for &i in &replayers[c] {
                    let job = &jobs[i];
                    let g = governor(i);
                    let acc = if hist[i] {
                        &mut l.replay_hist
                    } else {
                        &mut l.replay
                    };
                    let (data, sweep) = timed(acc, || {
                        let (data, per) = fig8::replay_protocol(
                            d,
                            job.corner,
                            &per,
                            g,
                            job.controller.sampling,
                            hist[i],
                        );
                        let sweep =
                            hist[i].then(|| SweepData::Bank(SummaryBank::from_per_benchmark(per)));
                        (LoopData::Suite(data), sweep)
                    });
                    l.replay_cycles += streams(&job.workload) * job.cycles;
                    finish(i, data, sweep, &mut l);
                }
                continue;
            }
            WorkloadSpec::Single(b) => compile(d, || Ok(b.trace(key.seed)), key.cycles, &mut l)?,
            WorkloadSpec::Recipe(r) => compile(d, || r.build_trace(key.seed), key.cycles, &mut l)?,
        };
        l.compiled_bytes = l.compiled_bytes.max(trace.memory_bytes() as u64);

        // Open-loop fixed-supply members without a histogram rider fuse,
        // grouped by sampling window; the rest replay solo.
        let mut groups: Vec<(Option<u64>, Vec<usize>, Vec<FusedOp>)> = Vec::new();
        for &i in &replayers[c] {
            let job = &jobs[i];
            match job.controller.governor {
                GovernorSpec::Fixed(supply) if !hist[i] => {
                    let op = FusedOp {
                        pvt: job.corner,
                        supply,
                    };
                    let sampling = job.controller.sampling;
                    match groups.iter_mut().find(|(s, _, _)| *s == sampling) {
                        Some((_, group, ops)) => {
                            group.push(i);
                            ops.push(op);
                        }
                        None => groups.push((sampling, vec![i], vec![op])),
                    }
                }
                _ => {
                    let g = governor(i);
                    let acc = if hist[i] {
                        &mut l.replay_hist
                    } else {
                        &mut l.replay
                    };
                    let (mut report, _) = timed(acc, || {
                        trace.replay(d, job.corner, g, job.controller.sampling, hist[i])
                    });
                    l.replay_cycles += job.cycles;
                    let sweep = report.summary.take().map(SweepData::Summary);
                    let data = LoopData::Stream(StreamRun {
                        corner: job.corner,
                        report,
                    });
                    finish(i, data, sweep, &mut l);
                }
            }
        }
        for (sampling, group, ops) in groups {
            let reports = timed(&mut l.fused, || trace.replay_fused(d, &ops, sampling));
            l.fused_calls += 1;
            l.fused_member_cycles += ops.len() as u64 * key.cycles;
            for (&i, report) in group.iter().zip(reports) {
                let data = LoopData::Stream(StreamRun {
                    corner: jobs[i].corner,
                    report,
                });
                finish(i, data, None, &mut l);
            }
        }
    }

    for &i in &live {
        let job = &jobs[i];
        let d = design(job.design);
        let g = governor(i);
        let (data, sweep) = match &job.workload {
            WorkloadSpec::Suite => timed(&mut l.live, || {
                let (data, per) = fig8::run_protocol(
                    d,
                    job.corner,
                    job.cycles,
                    job.seed,
                    g,
                    job.controller.sampling,
                    hist[i],
                );
                let sweep = hist[i].then(|| SweepData::Bank(SummaryBank::from_per_benchmark(per)));
                (LoopData::Suite(data), sweep)
            }),
            WorkloadSpec::Single(b) => live_stream(d, job, b.trace(job.seed), g, hist[i], &mut l),
            WorkloadSpec::Recipe(r) => {
                live_stream(d, job, r.build_trace(job.seed)?, g, hist[i], &mut l)
            }
        };
        l.live_cycles += streams(&job.workload) * job.cycles;
        finish(i, data, sweep, &mut l);
    }

    let digest = folder.map(|f| timed(&mut l.fold, || f.finish()));
    let members = members
        .into_iter()
        .zip(member_job.into_iter().zip(member_sweep))
        .map(|(spec, (job, sweep))| {
            let product = |i: usize| products[i].as_ref().expect("kept loop product");
            MemberResult {
                closed_loop: spec
                    .analysis
                    .wants_loop()
                    .then(|| product(job.expect("loop planned")).0.clone()),
                sweep: sweep.map(|i| product(i).1.clone().expect("histogram rider")),
                spec,
            }
        })
        .collect();
    let result = ScenarioSetResult {
        name: set.name.clone(),
        members,
        digest,
    };
    let figures = figures
        .then(|| timed(&mut l.experiments, || paper_figures(&result, setup)))
        .transpose()?;
    l.open_idle_spans();
    Ok((l, result, figures))
}

/// Compiles one stream the way the multi-worker executor does: serial
/// drain, `analyze_chunk` per compile chunk, slot-ordered assembly.
fn compile<S: TraceSource>(
    design: &DvsBusDesign,
    trace: impl FnOnce() -> Result<S, String>,
    cycles: u64,
    l: &mut Layers,
) -> Result<CompiledTrace, String> {
    let words = timed(&mut l.drain, || {
        trace().map(|mut t| CompiledTrace::drain_words(&mut t, cycles))
    })?;
    l.words += words.len() as u64;
    let n = words.len() - 1;
    let chunk = compile_chunk_cycles();
    let chunks = timed(&mut l.analyze, || {
        (0..n.div_ceil(chunk))
            .map(|k| {
                let start = k * chunk;
                CompiledTrace::analyze_chunk(design, &words, start, chunk.min(n - start))
            })
            .collect()
    });
    l.analyzed_cycles += n as u64;
    Ok(timed(&mut l.assemble, || {
        CompiledTrace::from_chunks(design, cycles, chunks)
    }))
}

/// One single-stream loop on the live path.
fn live_stream<S: TraceSource>(
    design: &DvsBusDesign,
    job: &LoopKey,
    trace: S,
    governor: BoxedGovernor,
    hist: bool,
    l: &mut Layers,
) -> (LoopData, Option<SweepData>) {
    let mut report = timed(&mut l.live, || {
        let mut sim = BusSimulator::new(design, job.corner, trace, governor);
        if let Some(window) = job.controller.sampling {
            sim = sim.with_sampling(window);
        }
        if hist {
            sim = sim.with_histogram();
        }
        sim.run(job.cycles)
    });
    let sweep = report.summary.take().map(SweepData::Summary);
    let data = LoopData::Stream(StreamRun {
        corner: job.corner,
        report,
    });
    (data, sweep)
}

/// The paper figures straight from the experiment kernels, member by
/// member as the scenario crate's adapters pick their inputs.
fn paper_figures(result: &ScenarioSetResult, setup: &Setup) -> Result<Figures, String> {
    let member = |name: &str| result.member(name);
    fn bank(m: &MemberResult) -> Result<&SummaryBank, String> {
        m.sweep
            .as_ref()
            .and_then(SweepData::bank)
            .ok_or_else(|| format!("member `{}` carries no summary bank", m.spec.name))
    }
    fn suite(m: &MemberResult) -> Result<&Fig8Data, String> {
        match &m.closed_loop {
            Some(LoopData::Suite(data)) => Ok(data),
            _ => Err(format!("member `{}` carries no suite loop", m.spec.name)),
        }
    }
    let panel = |name: &str| -> Result<fig4::Fig4Data, String> {
        let m = member(name)?;
        Ok(fig4::from_summary(
            setup.design(&m.spec.design)?,
            m.spec.run.corner.resolve(),
            bank(m)?.combined(),
        ))
    };
    let f5 = member("fig5")?;
    let worst = member("table1@worst")?;
    let typical = member("table1@typical")?;
    let original = member("fig10-original")?;
    let modified = member("fig10-modified")?;
    Ok(Figures {
        fig4_worst: panel("fig4@worst")?,
        fig4_typical: panel("fig4@typical")?,
        fig5: fig5::from_summary(setup.design(&f5.spec.design)?, bank(f5)?.combined()),
        table1: table1::from_parts(
            setup.design(&worst.spec.design)?,
            bank(typical)?,
            suite(worst)?,
            suite(typical)?,
        ),
        fig10: fig10::from_parts(
            setup.design(&original.spec.design)?,
            setup.design(&modified.spec.design)?,
            bank(original)?.combined(),
            bank(modified)?.combined(),
            suite(original)?,
            suite(modified)?,
        ),
    })
}
