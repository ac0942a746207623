//! The scenario-side [`ChunkRunner`]: parallel trace compilation on the
//! executor's work-stealing pool.
//!
//! `razorbus-core` owns the two-phase compile pipeline
//! ([`razorbus_core::CompiledTrace::compile_chunked`]) but stays
//! thread-pool-free; this adapter injects the pool from
//! [`crate::pool`] as the chunk executor. Standalone compiles (the
//! `bench_report` components) go through [`PoolChunks`];
//! campaign runs instead interleave chunk jobs with replays inside the
//! executor's own pool invocation (`Job::CompileChunk` in `exec.rs`).

use razorbus_core::ChunkRunner;

/// Runs compile chunks on a work-stealing pool of a fixed worker count.
///
/// Results are bit-identical to [`razorbus_core::SerialChunks`] at any
/// worker count: every chunk is a pure function of its word range and
/// writes its own slot, so scheduling order cannot show (pinned by the
/// differential tests below).
pub struct PoolChunks {
    workers: usize,
}

impl PoolChunks {
    /// A runner over `workers` pool threads (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }
}

impl ChunkRunner for PoolChunks {
    fn run_chunks<'a>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'a>>) {
        crate::pool::run(self.workers, jobs, |job, _| job());
    }

    /// A one-worker pool executes chunks strictly in order on one
    /// thread, so the compile routes onto the streaming single-pass
    /// path instead of paying for the word buffer and chunk assembly
    /// (the measured ~8 % `trace_compile_par_w1` penalty).
    fn single_threaded(&self) -> bool {
        self.workers == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use razorbus_core::{CompiledTrace, DvsBusDesign};
    use razorbus_traces::{AdversarialCrosstalk, Benchmark};

    #[test]
    fn pool_compile_matches_serial_at_any_worker_count() {
        // The satellite differential matrix's worker axis: chunked
        // compile on 1, 2 and many pool workers must equal the serial
        // compile bitwise (PartialEq covers all arrays and stamps),
        // across designs × generators × an awkward chunk size.
        let cycles = 6_000u64;
        for design in [
            DvsBusDesign::paper_default(),
            DvsBusDesign::modified_paper_bus(),
        ] {
            let serial = CompiledTrace::compile(&design, &mut Benchmark::Vortex.trace(2), cycles);
            let storm_serial =
                CompiledTrace::compile(&design, &mut AdversarialCrosstalk::new(9, 0.8), cycles);
            for workers in [1usize, 2, 8] {
                let runner = PoolChunks::new(workers);
                let pooled = CompiledTrace::compile_chunked(
                    &design,
                    &mut Benchmark::Vortex.trace(2),
                    cycles,
                    513,
                    &runner,
                );
                assert_eq!(serial, pooled, "Vortex, workers {workers}");
                let storm_pooled = CompiledTrace::compile_chunked(
                    &design,
                    &mut AdversarialCrosstalk::new(9, 0.8),
                    cycles,
                    513,
                    &runner,
                );
                assert_eq!(storm_serial, storm_pooled, "storm, workers {workers}");
            }
        }
    }

    #[test]
    fn one_worker_pool_takes_the_streaming_fast_path() {
        // The hint itself, plus the contract that the fast path cannot
        // show in the output (the worker-count differential above
        // already pins workers == 1 against the serial compile).
        assert!(PoolChunks::new(1).single_threaded());
        assert!(!PoolChunks::new(2).single_threaded());
        assert!(!razorbus_core::SerialChunks.single_threaded());
    }

    #[test]
    fn single_chunk_degenerates_to_one_job() {
        // Chunk size beyond the trace: one job, still identical.
        let design = DvsBusDesign::paper_default();
        let serial = CompiledTrace::compile(&design, &mut Benchmark::Mcf.trace(4), 1_000);
        let pooled = CompiledTrace::compile_chunked(
            &design,
            &mut Benchmark::Mcf.trace(4),
            1_000,
            1 << 20,
            &PoolChunks::new(4),
        );
        assert_eq!(serial, pooled);
    }
}
