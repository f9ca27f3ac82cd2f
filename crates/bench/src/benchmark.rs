//! The [`Bench`] convenience wrapper: one ready-to-simulate benchmark.

use std::fmt;
use std::sync::{Arc, OnceLock};

use specmt_sim::{SimConfig, SimError, SimResult, Simulator};
use specmt_spawn::{
    heuristic_pairs, profile_pairs, HeuristicSet, ProfileConfig, ProfileResult, SpawnTable,
};
use specmt_trace::{DepGraph, Trace, TraceError};
use specmt_workloads::{Scale, Workload};

/// A ready-to-simulate benchmark: the workload, its dynamic trace, and a
/// lazily-computed single-threaded baseline.
///
/// Wraps the common experiment steps — generate the trace once, derive spawn
/// tables from it, run simulator configurations against it, and convert
/// cycles to speed-ups over the sequential baseline — so examples and the
/// figure harness stay small.
///
/// # Examples
///
/// ```
/// use specmt_bench::Bench;
/// use specmt_sim::SimConfig;
/// use specmt_spawn::ProfileConfig;
/// use specmt_workloads::Scale;
///
/// let bench = Bench::load("ijpeg", Scale::Small)?;
/// let profile = bench.profile_table(&ProfileConfig::default());
/// let result = bench.run(SimConfig::paper(16), &profile.table)?;
/// let speedup = bench.speedup(&result)?;
/// assert!(speedup > 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Bench {
    workload: Workload,
    /// The trace. Set at construction, except after a warm store load
    /// (see [`Bench::from_manifest`]): then [`Bench::trace`] generates it
    /// on first use, so a run served entirely from the store never
    /// builds trace columns.
    trace: OnceLock<Trace>,
    /// The trace's record count, known from the store manifest: the
    /// column reservation for a generation on first use.
    records_hint: u64,
    baseline: OnceLock<u64>,
    /// The trace's dependence graph, built on first simulation and shared
    /// by every subsequent run (it is a pure function of the trace).
    deps: OnceLock<Arc<DepGraph>>,
}

impl Bench {
    /// Loads a named workload at `scale` and generates its trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] if emulation faults; unknown names yield the
    /// same error domain via a missing-workload panic-free path.
    pub fn load(name: &str, scale: Scale) -> Result<Bench, BenchError> {
        let workload =
            specmt_workloads::by_name(name, scale).ok_or_else(|| BenchError::UnknownWorkload {
                name: name.to_owned(),
            })?;
        Bench::from_workload(workload)
    }

    /// Wraps an already-built workload, generating its trace.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Trace`] if emulation faults or exceeds the
    /// workload's step budget.
    pub fn from_workload(workload: Workload) -> Result<Bench, BenchError> {
        let trace = Trace::generate(workload.program.clone(), workload.step_budget)
            .map_err(BenchError::Trace)?;
        Ok(Bench::with_trace(workload, trace))
    }

    /// A bench over an already built trace.
    fn with_trace(workload: Workload, trace: Trace) -> Bench {
        Bench {
            workload,
            records_hint: trace.len() as u64,
            trace: OnceLock::from(trace),
            baseline: OnceLock::new(),
            deps: OnceLock::new(),
        }
    }

    /// Reassembles a benchmark from an already built trace, optionally
    /// seeding the baseline cycle count.
    ///
    /// No pipeline path calls this: warm loads regenerate the trace from
    /// a store manifest instead (see the [`cache`](crate::cache) module).
    /// It remains solely because the benchmark's per-layer replay
    /// (`perfbench/src/replay.rs`) builds its benches from decoded trace
    /// images, and it goes when that replay stage does.
    ///
    /// The trace is never trusted: it must be structurally valid for the
    /// workload's program and must reproduce the workload's expected
    /// checksum, so a corrupted image is rejected here rather than
    /// silently polluting results.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Trace`] if the trace references instructions
    /// outside the program, or [`BenchError::ChecksumMismatch`] if it does
    /// not reproduce the workload's checksum.
    pub fn from_cached(
        workload: Workload,
        trace: Trace,
        baseline: Option<u64>,
    ) -> Result<Bench, BenchError> {
        trace.validate().map_err(BenchError::Trace)?;
        check_checksum(&workload, trace.final_reg(specmt_isa::Reg::R10))?;
        let bench = Bench::with_trace(workload, trace);
        if let Some(cycles) = baseline {
            let _ = bench.baseline.set(cycles);
        }
        Ok(bench)
    }

    /// A benchmark whose trace is generated on first use of
    /// [`Bench::trace`], into columns reserved for `records` records.
    ///
    /// Only a trace-stage store hit may build one: the manifest it read
    /// proves that generating `workload`'s trace under the same key
    /// (program, step budget, checksum, trace code revision) succeeded
    /// and left the workload's checksum (see `cache::bench_via_store`).
    pub(crate) fn from_manifest(workload: Workload, records: u64) -> Bench {
        Bench {
            workload,
            trace: OnceLock::new(),
            records_hint: records,
            baseline: OnceLock::new(),
            deps: OnceLock::new(),
        }
    }

    /// Seeds the baseline cycle count from a store hit (no-op if already
    /// computed). The value must come from a key that covers the
    /// single-threaded configuration and the simulator revision.
    pub(crate) fn seed_baseline(&self, cycles: u64) {
        let _ = self.baseline.set(cycles);
    }

    /// The whole suite at `scale`, in the paper's reporting order.
    ///
    /// # Errors
    ///
    /// Returns the first workload's error, if any fails to trace.
    pub fn suite(scale: Scale) -> Result<Vec<Bench>, BenchError> {
        specmt_workloads::suite(scale)
            .into_iter()
            .map(Bench::from_workload)
            .collect()
    }

    /// The underlying workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The benchmark's name.
    pub fn name(&self) -> &'static str {
        self.workload.name
    }

    /// The dynamic trace (shared by profiling and simulation, like the
    /// paper's use of the same training input for both). After a warm
    /// store load, the first call generates it.
    pub fn trace(&self) -> &Trace {
        self.trace.get_or_init(|| {
            let w = &self.workload;
            // Only `from_manifest` leaves the trace unset, and only after a
            // store hit proving that this very generation (same program and
            // step budget, same trace code revision) succeeded before. The
            // emulator is deterministic, so it succeeds again: failing here
            // means emulation is no longer a function of its inputs.
            Trace::generate_with_hint(w.program.clone(), w.step_budget, self.records_hint)
                .expect("trace generation is deterministic: a stored manifest proves it succeeds")
        })
    }

    /// Whether [`Bench::trace`] has been generated yet.
    #[cfg(test)]
    pub(crate) fn has_trace(&self) -> bool {
        self.trace.get().is_some()
    }

    /// The trace's dependence graph, built once on first use and shared by
    /// every simulation this bench runs (sweeps over configurations and
    /// spawn tables re-analyse nothing).
    pub fn deps(&self) -> Arc<DepGraph> {
        Arc::clone(
            self.deps
                .get_or_init(|| Arc::new(DepGraph::build(self.trace()))),
        )
    }

    /// Cycles of the single-threaded baseline (computed once, cached).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Sim`] if the baseline simulation fails (it
    /// cannot, for suite workloads, unless the model itself is broken).
    pub fn baseline_cycles(&self) -> Result<u64, BenchError> {
        if let Some(&cycles) = self.baseline.get() {
            return Ok(cycles);
        }
        let cycles = Simulator::with_deps(
            self.trace(),
            self.deps(),
            SimConfig::single_threaded(),
            &SpawnTable::empty(),
        )
        .run()
        .map_err(BenchError::Sim)?
        .cycles;
        Ok(*self.baseline.get_or_init(|| cycles))
    }

    /// Runs the profile-based selector (§3.1) on this benchmark's trace.
    pub fn profile_table(&self, config: &ProfileConfig) -> ProfileResult {
        profile_pairs(self.trace(), config)
    }

    /// Builds the construct-heuristic table for this benchmark.
    pub fn heuristic_table(&self, set: HeuristicSet) -> SpawnTable {
        heuristic_pairs(&self.workload.program, set)
    }

    /// Simulates this benchmark under `config` with the given spawn table.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Sim`] for an invalid configuration or a failed
    /// post-run invariant audit (see [`SimError`]).
    pub fn run(&self, config: SimConfig, table: &SpawnTable) -> Result<SimResult, BenchError> {
        Simulator::with_deps(self.trace(), self.deps(), config, table)
            .run()
            .map_err(BenchError::Sim)
    }

    /// As [`Bench::run`], additionally streaming the run's lifecycle events
    /// into `sink` (see `specmt_sim::obs`). Timing and statistics are
    /// bit-identical to an unobserved run.
    ///
    /// # Errors
    ///
    /// As [`Bench::run`].
    pub fn run_observed(
        &self,
        config: SimConfig,
        table: &SpawnTable,
        sink: &mut dyn specmt_sim::EventSink,
    ) -> Result<SimResult, BenchError> {
        Simulator::with_deps(self.trace(), self.deps(), config, table)
            .run_with_sink(sink)
            .map_err(BenchError::Sim)
    }

    /// Speed-up of `result` over the single-threaded baseline.
    ///
    /// # Errors
    ///
    /// As [`Bench::baseline_cycles`].
    pub fn speedup(&self, result: &SimResult) -> Result<f64, BenchError> {
        Ok(self.baseline_cycles()? as f64 / result.cycles as f64)
    }
}

/// Checks a trace's final `r10` against the workload's expected checksum:
/// the one policy for every path that trusts no trace (cached traces, and
/// generations the store is about to vouch for).
pub(crate) fn check_checksum(workload: &Workload, actual: u64) -> Result<(), BenchError> {
    if actual == workload.expected_checksum {
        return Ok(());
    }
    Err(BenchError::ChecksumMismatch {
        name: workload.name,
        expected: workload.expected_checksum,
        actual,
    })
}

impl fmt::Debug for Bench {
    /// A summary: the columns would dump megabytes through every `Debug`
    /// that contains a bench.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Bench");
        d.field("name", &self.name());
        match self.trace.get() {
            Some(trace) => d.field("trace_len", &trace.len()),
            None => d.field("trace", &format_args!("not generated")),
        };
        d.finish_non_exhaustive()
    }
}

/// Errors from [`Bench`] construction.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// The workload name is not part of the suite.
    UnknownWorkload {
        /// The unrecognised name.
        name: String,
    },
    /// Trace generation failed.
    Trace(TraceError),
    /// Simulation failed (invalid configuration or a broken invariant).
    Sim(SimError),
    /// A supplied trace does not reproduce the workload's checksum (via
    /// [`Bench::from_cached`]), or a store-backed load generated one that
    /// does not (the store then keeps nothing).
    ChecksumMismatch {
        /// The workload the trace claimed to belong to.
        name: &'static str,
        /// The workload's reference checksum.
        expected: u64,
        /// The checksum the trace actually left in `r10`.
        actual: u64,
    },
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::UnknownWorkload { name } => {
                write!(
                    f,
                    "unknown workload `{name}` (see specmt::workloads::SUITE_NAMES)"
                )
            }
            BenchError::Trace(e) => write!(f, "trace generation failed: {e}"),
            BenchError::Sim(e) => write!(f, "simulation failed: {e}"),
            BenchError::ChecksumMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "trace for `{name}` left checksum {actual:#x}, expected {expected:#x}"
            ),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Trace(e) => Some(e),
            BenchError::Sim(e) => Some(e),
            BenchError::UnknownWorkload { .. } | BenchError::ChecksumMismatch { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_unknown_workload_errors() {
        let err = Bench::load("eon", Scale::Tiny).unwrap_err();
        assert!(err.to_string().contains("eon"));
    }

    #[test]
    fn bench_round_trip() {
        let b = Bench::load("compress", Scale::Tiny).unwrap();
        assert_eq!(b.name(), "compress");
        let base = b.baseline_cycles().unwrap();
        assert!(base > 0);
        // Baseline is cached and stable.
        assert_eq!(b.baseline_cycles().unwrap(), base);
        let heur = b.heuristic_table(HeuristicSet::all());
        let r = b.run(SimConfig::paper(4), &heur).unwrap();
        assert!(b.speedup(&r).unwrap() >= 1.0);
    }

    #[test]
    fn checksum_matches_reference_through_bench() {
        let b = Bench::load("go", Scale::Tiny).unwrap();
        assert_eq!(
            b.trace().final_reg(specmt_isa::Reg::R10),
            b.workload().expected_checksum
        );
    }
}
