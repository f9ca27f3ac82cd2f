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
//! table a scheme selects for its benchmark under each parameter set, so
//! one process builds each table at most once however many figures
//! request it. Every batch of simulations goes through
//! [`ExperimentSpec::run_on`].
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
use specmt_sim::{ConfigDelta, RemovalPolicy, SimConfig, SimResult};
use specmt_spawn::{
    HeuristicSet, ProfileConfig, ProfileResult, SchemeError, SchemeParams, SchemeRegistry,
    SpawnScheme, SpawnTable,
};
use specmt_stats::Table;
use specmt_store::{
    Fingerprint, FingerprintHasher, Namespace, StageKey, Store, StoreHandle, StoreKey,
};
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
    /// Spawn tables by (scheme name, [`SchemeParams`] digest), built on
    /// first use and shared by every figure that names the scheme with
    /// those parameters (`profile` and `heuristics` under the default
    /// parameters are seeded from the disk-cacheable results above).
    tables: Mutex<HashMap<(String, StoreKey), Arc<SpawnTable>>>,
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
        let defaults = params_digest(&SchemeParams::default());
        let mut tables = HashMap::new();
        tables.insert(("profile".to_owned(), defaults), Arc::new(profile.table.clone()));
        tables.insert(("heuristics".to_owned(), defaults), Arc::new(heuristics.clone()));
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

    /// The spawn table scheme `name` selects for this benchmark under
    /// `params`, resolved through `registry` and memoized per context by
    /// name and parameter digest. Schemes that declare a cache identity
    /// (see [`SpawnScheme::cache_identity`]) are additionally served from /
    /// stored to the artifact store.
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
        let memo_key = (name.to_owned(), params_digest(params));
        if let Some(t) = self.tables.lock().expect("table lock").get(&memo_key) {
            return Ok(Arc::clone(t));
        }
        let scheme = registry.resolve(name)?;
        // Selection (and store I/O) runs outside the lock: it can be
        // expensive, and other schemes' lookups should not serialise
        // behind it.
        let table = Arc::new(self.select_stored(scheme, params)?);
        let mut tables = self.tables.lock().expect("table lock");
        let entry = tables.entry(memo_key).or_insert_with(|| Arc::clone(&table));
        Ok(Arc::clone(entry))
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

/// The memo digest of a parameter set: the same fingerprint the
/// spawn-table store key hashes.
fn params_digest(params: &SchemeParams) -> StoreKey {
    let mut h = FingerprintHasher::new();
    params.fingerprint(&mut h);
    h.finish()
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
    /// Pool width for the experiment grids the harness runs. Defaults to
    /// one thread per CPU; `specmt bench --jobs N` overrides it. Loading
    /// the suite in [`Harness::load_at_with`] always runs at the default
    /// width; [`Harness::on_input`] loads at this width.
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

/// Loads every suite benchmark on `input` as one batch on a pool of
/// `exec`'s width, in the paper's reporting order.
fn load_suite(
    scale: Scale,
    input: InputSet,
    store: &StoreHandle,
    exec: ExecConfig,
) -> Result<Vec<Arc<BenchCtx>>, HarnessError> {
    let tasks = specmt_workloads::SUITE_NAMES
        .iter()
        .map(|&name| {
            let store = Arc::clone(store);
            Task::new(name, move || BenchCtx::load_input(name, scale, input, store))
        })
        .collect();
    run_supervised(&Executor::new(exec), tasks)?
        .into_iter()
        .map(|loaded| loaded.map(Arc::new))
        .collect()
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
        let benches = load_suite(scale, InputSet::Train, &store, exec)?;
        Ok(Harness {
            benches,
            scale,
            registry: SchemeRegistry::builtin(),
            params: SchemeParams::default(),
            exec,
            store,
        })
    }

    /// The same suite on another input set, loaded as one batch through
    /// this harness's store, at its scale, parameters and pool width, with
    /// each context carrying its counterpart's observe flag. The
    /// cross-input figures select tables here and simulate them there
    /// (see [`ExperimentSpec::run_on`]). The new harness has the built-in
    /// scheme registry.
    ///
    /// # Errors
    ///
    /// As [`Harness::load_at`].
    pub fn on_input(&self, input: InputSet) -> Result<Harness, HarnessError> {
        let benches = load_suite(self.scale, input, &self.store, self.exec)?;
        for (ctx, this) in benches.iter().zip(&self.benches) {
            ctx.observe
                .store(this.observe.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        Ok(Harness {
            benches,
            scale: self.scale,
            registry: SchemeRegistry::builtin(),
            params: self.params.clone(),
            exec: self.exec,
            store: Arc::clone(&self.store),
        })
    }

    /// The executor harness batches run on, configured by
    /// [`Harness::exec`].
    pub fn executor(&self) -> Executor {
        Executor::new(self.exec)
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

/// Runs `config` with observation on for every benchmark × scheme
/// combination, as one [`ExperimentSpec`], and renders the per-cell
/// metrics snapshots as the JSON document `specmt bench --metrics json`
/// writes: one row per benchmark × scheme, benchmark-major and in
/// `schemes` order within each benchmark, with the counters and
/// histograms inlined.
///
/// # Errors
///
/// As [`ExperimentSpec::run`].
pub fn metrics_report(
    h: &Harness,
    config: &SimConfig,
    schemes: &[&str],
) -> Result<serde_json::Value, HarnessError> {
    let variants = schemes
        .iter()
        .map(|&s| Variant::speedup(s, s, vec![ConfigDelta::Observe(true)]))
        .collect();
    let grid = ExperimentSpec::new(config.clone(), variants).run(h)?;
    let mut rows = Vec::with_capacity(grid.bench_names.len() * schemes.len());
    for (bi, bench) in grid.bench_names.iter().enumerate() {
        for (vi, scheme) in schemes.iter().enumerate() {
            let metrics = grid.results[vi][bi].metrics.clone().unwrap_or_default();
            rows.push(serde_json::json!({
                "bench": bench,
                "scheme": scheme,
                "speedup": grid.values[vi][bi],
                "metrics": serde::Serialize::to_value(&metrics),
            }));
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_for_selects_with_the_params_it_is_given() {
        let h = Harness::load_at_with(Scale::Tiny, Store::disabled()).expect("tiny suite loads");
        let params = SchemeParams {
            profile: ProfileConfig {
                min_prob: 0.5,
                ..ProfileConfig::default()
            },
            ..SchemeParams::default()
        };
        let mut changed = 0;
        for ctx in &h.benches {
            let want = h
                .registry
                .select("profile", ctx.bench.trace(), &params)
                .expect("profile selects");
            let got = ctx.table_for("profile", &h.registry, &params).expect("memo");
            assert_eq!(*got, want, "{}: table_for ignored its params", ctx.bench.name());
            let default = ctx
                .table_for("profile", &h.registry, &SchemeParams::default())
                .expect("memo");
            assert_eq!(*default, ctx.profile.table, "{}", ctx.bench.name());
            changed += usize::from(want != ctx.profile.table);
        }
        assert!(changed > 0, "min_prob 0.5 must change some benchmark's table");
    }
}
