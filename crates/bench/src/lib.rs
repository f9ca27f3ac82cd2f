//! # specmt-bench
//!
//! The experiment harness: the [`Bench`] wrapper around one workload, the
//! suite-wide [`Harness`], the declarative [`ExperimentSpec`] runner, and a
//! registry of every figure of the paper's evaluation (§4), each
//! regenerating the corresponding table/series from scratch on the
//! synthetic SpecInt95 suite. The figures are exposed through the
//! `specmt bench` CLI subcommand; `specmt bench all` runs everything and
//! persists machine-readable results.
//!
//! Spawning policies are addressed by name through the
//! [`specmt_spawn::SchemeRegistry`]; each [`BenchCtx`] memoizes the spawn
//! table a scheme selects for its benchmark, so one process builds each
//! table at most once however many figures request it.
//!
//! ## Protocol notes (divergences are listed in EXPERIMENTS.md)
//!
//! * Speed-ups are against a single-threaded run of the same trace, like
//!   the paper; averages are harmonic for speed-ups and arithmetic for
//!   counts.
//! * The paper's "50-cycle removal (200 for compress)" scheme is reproduced
//!   as [`standard_removal`], with an 8-occurrence delay (Figure 5b's
//!   variant): with our small synthetic pair tables, first-occurrence
//!   removal collapses several benchmarks the way the paper's compress
//!   collapses, and the delayed variant is the paper's own remedy.
//! * "Best profile" for Figures 8-12 is the base policy plus the Figure 7b
//!   minimum-size enforcement (32 instructions).
//! * The workload scale is `SPECMT_SCALE` = `tiny` / `small` / `medium`
//!   (default) / `large`.

#![warn(missing_docs)]

mod benchmark;
pub mod cache;
pub mod experiment;
pub mod figures;

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use specmt_exec::{CellOutcome, ExecConfig, Executor, Task};
use specmt_sim::{RemovalPolicy, SimConfig, SimResult};
use specmt_spawn::{
    HeuristicSet, ProfileConfig, ProfileResult, SchemeError, SchemeParams, SchemeRegistry,
    SpawnScheme, SpawnTable,
};
use specmt_stats::Table;
use specmt_store::{Namespace, StageKey, Store, StoreHandle};
use specmt_workloads::{InputSet, Scale};

pub use benchmark::{Bench, BenchError};
pub use experiment::{ExperimentGrid, ExperimentSpec, MeanKind, Metric, Variant};

/// Errors from the experiment harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// `SPECMT_SCALE` held an unrecognised value.
    Scale {
        /// The offending value.
        value: String,
    },
    /// A benchmark failed to load, trace, or simulate.
    Bench {
        /// The benchmark's name.
        name: String,
        /// The underlying failure.
        source: BenchError,
    },
    /// A spawning scheme could not be resolved or failed to select.
    Scheme(SchemeError),
    /// A figure failed to persist its results.
    Persist {
        /// The figure's id.
        id: String,
        /// The underlying I/O failure.
        source: std::io::Error,
    },
    /// A batch cell panicked where the caller needed a complete batch.
    Supervised {
        /// The panicked cell's label.
        label: String,
        /// How the cell ended.
        outcome: CellOutcome,
    },
}

impl HarnessError {
    fn bench(name: impl Into<String>, source: BenchError) -> HarnessError {
        HarnessError::Bench {
            name: name.into(),
            source,
        }
    }
}

impl From<SchemeError> for HarnessError {
    fn from(e: SchemeError) -> HarnessError {
        HarnessError::Scheme(e)
    }
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Scale { value } => {
                write!(
                    f,
                    "unknown SPECMT_SCALE `{value}` (expected tiny|small|medium|large)"
                )
            }
            HarnessError::Bench { name, source } => write!(f, "benchmark `{name}`: {source}"),
            HarnessError::Scheme(e) => write!(f, "{e}"),
            HarnessError::Persist { id, source } => {
                write!(f, "could not persist `{id}`: {source}")
            }
            HarnessError::Supervised { label, outcome } => {
                write!(f, "cell `{label}` degraded: {outcome}")
            }
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Bench { source, .. } => Some(source),
            HarnessError::Scheme(e) => Some(e),
            HarnessError::Persist { source, .. } => Some(source),
            HarnessError::Scale { .. } | HarnessError::Supervised { .. } => None,
        }
    }
}

/// One benchmark with everything the figures need precomputed.
#[derive(Debug)]
pub struct BenchCtx {
    /// The benchmark (workload + trace + baseline).
    pub bench: Bench,
    /// Profile-based selection with the paper's default parameters.
    pub profile: ProfileResult,
    /// The combined construct heuristics (Figure 8's baseline).
    pub heuristics: SpawnTable,
    /// Per-scheme spawn tables, built on first use and shared by every
    /// figure that names the scheme (`profile` and `heuristics` are seeded
    /// from the disk-cacheable results above).
    tables: Mutex<HashMap<String, Arc<SpawnTable>>>,
    /// When set, [`BenchCtx::sim`] forces `SimConfig::observe` on so every
    /// result carries a metrics snapshot (see [`Harness::set_observe`]).
    observe: AtomicBool,
    /// The artifact store every pipeline stage consults before computing.
    store: StoreHandle,
    /// This benchmark's trace stage key — the root every downstream stage
    /// key chains from. `None` when the workload is unkeyable (the store is
    /// then bypassed for this context).
    trace_key: Option<StageKey>,
    /// Logical store name for this context's artifacts: `{name}-{scale}`,
    /// or `{name}-ref-{scale}` on the reference input.
    label: String,
}

impl BenchCtx {
    fn new(
        bench: Bench,
        profile: ProfileResult,
        heuristics: SpawnTable,
        store: StoreHandle,
        trace_key: Option<StageKey>,
        label: String,
    ) -> BenchCtx {
        let mut tables = HashMap::new();
        tables.insert("profile".to_owned(), Arc::new(profile.table.clone()));
        tables.insert("heuristics".to_owned(), Arc::new(heuristics.clone()));
        BenchCtx {
            bench,
            profile,
            heuristics,
            tables: Mutex::new(tables),
            observe: AtomicBool::new(false),
            store,
            trace_key,
            label,
        }
    }

    /// Loads one benchmark's training input, consulting `store` stage by
    /// stage: the trace, the default-parameter profile, the all-heuristics
    /// table and the single-threaded baseline are each served from the
    /// store when their input closure matches, and stored after being
    /// computed otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Bench`] for an unknown name or a failed
    /// trace/baseline build.
    pub fn load_with(
        name: &'static str,
        scale: Scale,
        store: StoreHandle,
    ) -> Result<BenchCtx, HarnessError> {
        BenchCtx::load_input(name, scale, InputSet::Train, store)
    }

    /// As [`BenchCtx::load_with`] for either input set.
    fn load_input(
        name: &'static str,
        scale: Scale,
        input: InputSet,
        store: StoreHandle,
    ) -> Result<BenchCtx, HarnessError> {
        let workload =
            specmt_workloads::by_name_with_input(name, scale, input).ok_or_else(|| {
                HarnessError::bench(
                    name,
                    BenchError::UnknownWorkload {
                        name: name.to_owned(),
                    },
                )
            })?;
        let label = store_label(name, scale, input);
        let (bench, trace_key) = cache::bench_via_store(&store, workload, &label)
            .map_err(|e| HarnessError::bench(name, e))?;

        let profile_cfg = ProfileConfig::default();
        let pkey = trace_key.as_ref().map(|t| cache::profile_stage(t, &profile_cfg));
        let profile =
            cache::read_through(&store, Namespace::Profile, &label, pkey.as_ref(), || {
                Ok(bench.profile_table(&profile_cfg))
            })?;

        let hkey = trace_key
            .as_ref()
            .map(|t| cache::table_stage(t, "builtin/heuristics", &SchemeParams::default()));
        let heuristics =
            cache::read_through(&store, Namespace::SpawnTable, &label, hkey.as_ref(), || {
                Ok(bench.heuristic_table(HeuristicSet::all()))
            })?;

        let akey = trace_key.as_ref().map(cache::baseline_stage);
        let baseline =
            cache::read_through(&store, Namespace::Analysis, &label, akey.as_ref(), || {
                bench
                    .baseline_cycles()
                    .map(|cycles| cache::BaselineDoc { cycles })
                    .map_err(|e| HarnessError::bench(name, e))
            })?;
        bench.seed_baseline(baseline.cycles);
        Ok(BenchCtx::new(
            bench, profile, heuristics, store, trace_key, label,
        ))
    }

    /// This benchmark on another input set, loaded through the same store
    /// and carrying this context's observe flag — the cross-input figures
    /// evaluate training-selected tables on the reference input this way.
    ///
    /// # Errors
    ///
    /// As [`BenchCtx::load_with`].
    pub(crate) fn on_input(
        &self,
        scale: Scale,
        input: InputSet,
    ) -> Result<BenchCtx, HarnessError> {
        let ctx = BenchCtx::load_input(self.bench.name(), scale, input, Arc::clone(&self.store))?;
        ctx.observe
            .store(self.observe.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(ctx)
    }

    /// The spawn table scheme `name` selects for this benchmark, resolved
    /// through `registry` and memoized per context. Schemes that declare a
    /// cache identity (see [`SpawnScheme::cache_identity`]) are additionally
    /// served from / stored to the artifact store.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Scheme`] for an unknown scheme or a failed
    /// selection.
    pub fn table_for(
        &self,
        name: &str,
        registry: &SchemeRegistry,
        params: &SchemeParams,
    ) -> Result<Arc<SpawnTable>, HarnessError> {
        if let Some(t) = self.tables.lock().expect("table lock").get(name) {
            return Ok(Arc::clone(t));
        }
        let scheme = registry.get(name).ok_or_else(|| {
            let mut known: Vec<String> =
                registry.names().iter().map(|&n| n.to_owned()).collect();
            known.sort_unstable();
            SchemeError::UnknownScheme { name: name.to_owned(), known }
        })?;
        // Selection (and store I/O) runs outside the lock: it can be
        // expensive, and other schemes' lookups should not serialise
        // behind it.
        let table = Arc::new(self.select_stored(scheme, params)?);
        let mut tables = self.tables.lock().expect("table lock");
        let entry = tables
            .entry(name.to_owned())
            .or_insert_with(|| Arc::clone(&table));
        Ok(Arc::clone(entry))
    }

    /// As [`BenchCtx::table_for`] but unmemoized: parameter sweeps
    /// (ablations) call this with varying `params`, and each variant is
    /// store-addressed by its own key instead of fighting over the
    /// per-name memo slot.
    ///
    /// # Errors
    ///
    /// As [`BenchCtx::table_for`].
    pub fn table_with_params(
        &self,
        name: &str,
        registry: &SchemeRegistry,
        params: &SchemeParams,
    ) -> Result<SpawnTable, HarnessError> {
        let scheme = registry.get(name).ok_or_else(|| {
            let mut known: Vec<String> =
                registry.names().iter().map(|&n| n.to_owned()).collect();
            known.sort_unstable();
            SchemeError::UnknownScheme { name: name.to_owned(), known }
        })?;
        self.select_stored(scheme, params)
    }

    fn select_stored(
        &self,
        scheme: &dyn SpawnScheme,
        params: &SchemeParams,
    ) -> Result<SpawnTable, HarnessError> {
        let skey = match (&self.trace_key, scheme.cache_identity()) {
            (Some(t), Some(identity)) => Some(cache::table_stage(t, &identity, params)),
            _ => None,
        };
        cache::read_through(
            &self.store,
            Namespace::SpawnTable,
            &self.label,
            skey.as_ref(),
            || {
                scheme
                    .select(self.bench.trace(), params)
                    .map_err(HarnessError::Scheme)
            },
        )
    }

    /// Simulates this benchmark, naming it in any error. The result is
    /// served from the store when the full input closure (trace, table
    /// content, effective configuration, simulator revision) matches a
    /// previous run; fault-injected runs bypass the store so chaos sweeps
    /// never pollute it.
    ///
    /// # Errors
    ///
    /// As [`Bench::run`], wrapped in [`HarnessError::Bench`].
    pub fn sim(&self, config: SimConfig, table: &SpawnTable) -> Result<SimResult, HarnessError> {
        let mut config = config;
        if self.observe.load(Ordering::Relaxed) {
            config.observe = true;
        }
        let key = match (&self.trace_key, config.faults.is_some()) {
            (Some(t), false) => Some(cache::sim_stage(t, table, &config)),
            _ => None,
        };
        cache::read_through(
            &self.store,
            Namespace::SimResult,
            &self.label,
            key.as_ref(),
            || {
                self.bench
                    .run(config, table)
                    .map_err(|e| HarnessError::bench(self.bench.name(), e))
            },
        )
    }

    /// Speed-up of `result` over the baseline, naming the benchmark in any
    /// error.
    ///
    /// # Errors
    ///
    /// As [`Bench::speedup`], wrapped in [`HarnessError::Bench`].
    pub fn speedup(&self, result: &SimResult) -> Result<f64, HarnessError> {
        self.bench
            .speedup(result)
            .map_err(|e| HarnessError::bench(self.bench.name(), e))
    }
}

/// Logical store name for one benchmark's artifacts: `{name}-{scale}` for
/// the training input, `{name}-ref-{scale}` for the reference input.
fn store_label(name: &str, scale: Scale, input: InputSet) -> String {
    let scale = format!("{scale:?}").to_lowercase();
    match input {
        InputSet::Train => format!("{name}-{scale}"),
        InputSet::Ref => format!("{name}-ref-{scale}"),
    }
}

/// The loaded suite.
#[derive(Debug)]
pub struct Harness {
    /// Per-benchmark contexts, in the paper's reporting order. `Arc`'d so
    /// batch tasks, which are `'static` closures, can capture a context
    /// without borrowing the harness.
    pub benches: Vec<Arc<BenchCtx>>,
    /// The scale everything was generated at.
    pub scale: Scale,
    /// The spawning schemes experiments may reference by name.
    pub registry: SchemeRegistry,
    /// Shared selection parameters for [`BenchCtx::table_for`].
    pub params: SchemeParams,
    /// Pool width for the parallel batches the harness runs (scheme
    /// sweeps, experiment grids, metrics collection). Defaults to one
    /// thread per CPU; `specmt bench --jobs N` overrides it. Suite loading
    /// always runs at the default width.
    pub exec: ExecConfig,
    /// The artifact store every context of this harness runs against.
    pub store: StoreHandle,
}

/// Run a batch of fallible tasks on `exec` and demand a complete batch:
/// values come back in submission order, and the first cell that panicked
/// becomes a structured [`HarnessError::Supervised`] instead of a
/// propagated panic.
///
/// # Errors
///
/// Returns [`HarnessError::Supervised`] naming the first panicked cell.
pub fn run_supervised<T: Send>(
    exec: &Executor,
    tasks: Vec<Task<T>>,
) -> Result<Vec<T>, HarnessError> {
    let batch = exec.run_batch(tasks);
    let mut values = Vec::with_capacity(batch.values.len());
    for (value, cell) in batch.values.into_iter().zip(&batch.report.cells) {
        match value {
            Some(v) => values.push(v),
            None => {
                return Err(HarnessError::Supervised {
                    label: cell.label.clone(),
                    outcome: cell.outcome.clone(),
                })
            }
        }
    }
    Ok(values)
}

/// Reads the scale from `SPECMT_SCALE` (default: medium).
///
/// # Errors
///
/// Returns [`HarnessError::Scale`] on an unrecognised value.
pub fn scale_from_env() -> Result<Scale, HarnessError> {
    match std::env::var("SPECMT_SCALE").as_deref() {
        Ok("tiny") => Ok(Scale::Tiny),
        Ok("small") => Ok(Scale::Small),
        Ok("medium") | Err(_) => Ok(Scale::Medium),
        Ok("large") => Ok(Scale::Large),
        Ok(other) => Err(HarnessError::Scale {
            value: other.to_owned(),
        }),
    }
}

impl Harness {
    /// Loads the whole suite at `scale`, building traces and spawn tables
    /// in parallel. Previously generated artifacts are served from the
    /// process-default store (see [`Store::default_handle`] and the
    /// [`cache`] module) when their input closure matches.
    ///
    /// # Errors
    ///
    /// Returns the first benchmark's failure.
    pub fn load_at(scale: Scale) -> Result<Harness, HarnessError> {
        Harness::load_at_with(scale, Arc::clone(Store::default_handle()))
    }

    /// As [`Harness::load_at`] with an explicit artifact store — the
    /// injection point tests and tools use to run against a private (or
    /// disabled) store without touching process state.
    ///
    /// # Errors
    ///
    /// As [`Harness::load_at`].
    pub fn load_at_with(scale: Scale, store: StoreHandle) -> Result<Harness, HarnessError> {
        let exec = ExecConfig::default();
        let tasks = specmt_workloads::SUITE_NAMES
            .iter()
            .map(|&name| {
                let store = Arc::clone(&store);
                Task::new(name, move || BenchCtx::load_with(name, scale, store))
            })
            .collect();
        let benches = run_supervised(&Executor::new(exec), tasks)?
            .into_iter()
            .map(|loaded| loaded.map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Harness {
            benches,
            scale,
            registry: SchemeRegistry::builtin(),
            params: SchemeParams::default(),
            exec,
            store,
        })
    }

    /// The executor harness batches run on, configured by
    /// [`Harness::exec`].
    pub fn executor(&self) -> Executor {
        Executor::new(self.exec)
    }

    /// Runs `config` with each benchmark's profile table, returning
    /// `(name, speedup, result)` triples.
    ///
    /// # Errors
    ///
    /// The first benchmark's simulation failure, if any.
    pub fn run_profile(
        &self,
        config: &SimConfig,
    ) -> Result<Vec<(&'static str, f64, SimResult)>, HarnessError> {
        self.run_scheme(config, "profile")
    }

    /// Runs `config` with the tables a named scheme selects per benchmark.
    ///
    /// # Errors
    ///
    /// As [`Harness::run_profile`], plus [`HarnessError::Scheme`] for an
    /// unknown scheme.
    pub fn run_scheme(
        &self,
        config: &SimConfig,
        scheme: &str,
    ) -> Result<Vec<(&'static str, f64, SimResult)>, HarnessError> {
        let tables = self
            .benches
            .iter()
            .map(|ctx| ctx.table_for(scheme, &self.registry, &self.params))
            .collect::<Result<Vec<_>, _>>()?;
        self.run_with(config, |i, _| Arc::clone(&tables[i]))
    }

    /// Runs `config` against a per-benchmark table selector (called with
    /// the benchmark's suite index and context).
    ///
    /// # Errors
    ///
    /// As [`Harness::run_profile`].
    pub fn run_with(
        &self,
        config: &SimConfig,
        table: impl Fn(usize, &BenchCtx) -> Arc<SpawnTable> + Sync,
    ) -> Result<Vec<(&'static str, f64, SimResult)>, HarnessError> {
        let tasks = self
            .benches
            .iter()
            .enumerate()
            .map(|(i, ctx)| {
                let t = table(i, ctx.as_ref());
                let ctx = Arc::clone(ctx);
                let cfg = config.clone();
                Task::new(ctx.bench.name(), move || {
                    let r = ctx.sim(cfg, &t)?;
                    let sp = ctx.speedup(&r)?;
                    Ok((ctx.bench.name(), sp, r))
                })
            })
            .collect();
        run_supervised(&self.executor(), tasks)?.into_iter().collect()
    }

    /// Force `SimConfig::observe` on (or stop forcing it) for every
    /// simulation routed through this harness's contexts, so figure
    /// builders pick up metrics without each one threading a flag. Never
    /// turns observation *off* for a config that asked for it explicitly.
    pub fn set_observe(&self, on: bool) {
        for ctx in &self.benches {
            ctx.observe.store(on, Ordering::Relaxed);
        }
    }
}

/// Metrics for one benchmark × scheme cell of [`collect_metrics`].
#[derive(Debug, Clone)]
pub struct MetricsRow {
    /// Benchmark name.
    pub bench: &'static str,
    /// Scheme name (as registered).
    pub scheme: String,
    /// Speed-up over the single-threaded baseline.
    pub speedup: f64,
    /// The run's metrics snapshot.
    pub metrics: specmt_sim::Metrics,
}

/// Runs `config` (with observation forced on) for every benchmark × scheme
/// combination and returns the per-cell metrics snapshots — the aggregation
/// behind `specmt bench --metrics json`. The cells run as one batch on
/// [`Harness::exec`]; rows come back benchmark-major, in `schemes` order
/// within each benchmark.
///
/// # Errors
///
/// The first failed table selection or simulation, or
/// [`HarnessError::Supervised`] for a degraded cell.
pub fn collect_metrics(
    h: &Harness,
    config: &SimConfig,
    schemes: &[&str],
) -> Result<Vec<MetricsRow>, HarnessError> {
    let mut tasks = Vec::with_capacity(h.benches.len() * schemes.len());
    for ctx in &h.benches {
        for &scheme in schemes {
            let table = ctx.table_for(scheme, &h.registry, &h.params)?;
            let ctx = Arc::clone(ctx);
            let cfg = config.clone().with_observe(true);
            let scheme = scheme.to_owned();
            tasks.push(Task::new(format!("{}/{scheme}", ctx.bench.name()), move || {
                let r = ctx.sim(cfg, &table)?;
                let speedup = ctx.speedup(&r)?;
                Ok(MetricsRow {
                    bench: ctx.bench.name(),
                    scheme,
                    speedup,
                    metrics: r.metrics.unwrap_or_default(),
                })
            }));
        }
    }
    run_supervised(&h.executor(), tasks)?.into_iter().collect()
}

/// [`collect_metrics`] rendered as the JSON document `specmt bench
/// --metrics json` writes: one row per benchmark × scheme with the counters
/// and histograms inlined.
///
/// # Errors
///
/// As [`collect_metrics`].
pub fn metrics_report(
    h: &Harness,
    config: &SimConfig,
    schemes: &[&str],
) -> Result<serde_json::Value, HarnessError> {
    let rows = collect_metrics(h, config, schemes)?;
    let rows: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "bench": r.bench,
                "scheme": r.scheme,
                "speedup": r.speedup,
                "metrics": serde::Serialize::to_value(&r.metrics),
            })
        })
        .collect();
    Ok(serde_json::json!({
        "schema": "specmt-metrics/v1",
        "scale": format!("{:?}", h.scale).to_lowercase(),
        "rows": rows,
    }))
}

/// The paper's removal scheme for Figures 6+: 50 cycles executing alone
/// (200 for compress), delayed to 8 occurrences (see the module docs).
pub fn standard_removal(bench_name: &str) -> RemovalPolicy {
    RemovalPolicy {
        alone_cycles: if bench_name == "compress" { 200 } else { 50 },
        occurrences: 8,
        reinstate_after: None,
        max_companions: 0,
    }
}

/// Adds the Figure 7b minimum observed thread size (32) to a configuration.
pub fn with_min_size(mut config: SimConfig) -> SimConfig {
    config.min_observed_size = Some(32);
    config
}

/// The "best profile" configuration used for Figures 8-12: the paper
/// configuration plus minimum-size enforcement.
pub fn best_profile_config(thread_units: usize) -> SimConfig {
    with_min_size(SimConfig::paper(thread_units))
}

/// One regenerated figure: a rendered table plus machine-readable values.
#[derive(Debug)]
pub struct Figure {
    /// Identifier, e.g. `fig3`.
    pub id: String,
    /// Human title echoing the paper's caption.
    pub title: String,
    /// The rendered data.
    pub table: Table,
    /// Summary line(s): means, paper reference points.
    pub notes: Vec<String>,
    /// Machine-readable results.
    pub json: serde_json::Value,
}

impl Figure {
    /// The figure's full text block: header, table, notes, and a trailing
    /// blank line (the canonical format the golden tests pin down).
    pub fn render_block(&self) -> String {
        let mut s = format!("=== {} — {}\n", self.id, self.title);
        s.push_str(&self.table.render());
        s.push('\n');
        for n in &self.notes {
            s.push_str(n);
            s.push('\n');
        }
        s.push('\n');
        s
    }

    /// Prints the figure to stdout.
    pub fn print(&self) {
        print!("{}", self.render_block());
    }

    /// Persists the JSON payload under `target/specmt-results/`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = PathBuf::from("target/specmt-results");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        writeln!(
            f,
            "{}",
            serde_json::to_string_pretty(&self.json).expect("json")
        )?;
        Ok(path)
    }

    /// As [`Figure::save`], wrapping failures in [`HarnessError::Persist`]
    /// so batch runs can fail hard instead of continuing past a lost
    /// result.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Persist`] naming the figure.
    pub fn save_or_fail(&self) -> Result<PathBuf, HarnessError> {
        self.save().map_err(|e| HarnessError::Persist {
            id: self.id.clone(),
            source: e,
        })
    }
}

/// Formats a float with two decimals (the figures' common format).
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a percentage with one decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}
