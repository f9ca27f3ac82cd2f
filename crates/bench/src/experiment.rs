//! Declarative experiment specifications.
//!
//! Every figure of the paper's evaluation is, at heart, the same shape:
//! *benchmarks × variants*, where a variant names a spawning scheme and a
//! handful of [`ConfigDelta`]s over a base [`SimConfig`], and each cell of
//! the grid reduces one simulation to a single [`Metric`]. An
//! [`ExperimentSpec`] states that shape; [`ExperimentSpec::run`] executes
//! the whole grid with one shared parallel runner (every cell is an
//! independent deterministic simulation) and returns an
//! [`ExperimentGrid`] of raw values the figure builders format.
//!
//! Keeping the spec declarative is what lets fifteen figures share one
//! runner: the figure registry in [`crate::figures`] is mostly data.

use std::sync::Arc;

use specmt_exec::Task;
use specmt_sim::{ConfigDelta, SimConfig, SimResult};
use specmt_spawn::{SchemeParams, SpawnTable};
use specmt_stats::{arithmetic_mean, harmonic_mean, Table};
use specmt_store::StoreKey;

use crate::{BenchCtx, Harness, HarnessError};

/// What one grid cell reduces its simulation to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Metric {
    /// Speed-up over the single-threaded baseline.
    Speedup,
    /// Average number of active threads per cycle.
    ActiveThreads,
    /// Live-in value-prediction hit ratio.
    ValueHitRatio,
    /// Mean committed thread size, in instructions.
    MeanThreadSize,
    /// Median committed thread size, in instructions.
    MedianThreadSize,
    /// Raw cycle count (for derived measures such as Figure 11's
    /// slow-down).
    Cycles,
}

impl Metric {
    fn measure(self, ctx: &BenchCtx, r: &SimResult) -> Result<f64, HarnessError> {
        Ok(match self {
            Metric::Speedup => ctx.speedup(r)?,
            Metric::ActiveThreads => r.avg_active_threads(),
            Metric::ValueHitRatio => r.value_hit_ratio(),
            Metric::MeanThreadSize => r.avg_thread_size(),
            Metric::MedianThreadSize => r.median_thread_size(),
            Metric::Cycles => r.cycles as f64,
        })
    }
}

/// Which mean summarises a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeanKind {
    /// Harmonic mean (the paper's convention for speed-ups), labelled
    /// `Hmean`.
    Harmonic,
    /// Arithmetic mean (counts and ratios), labelled `Amean`.
    Arithmetic,
}

impl MeanKind {
    /// The summary row's label.
    pub fn label(self) -> &'static str {
        match self {
            MeanKind::Harmonic => "Hmean",
            MeanKind::Arithmetic => "Amean",
        }
    }

    /// The mean of `values`.
    pub fn of(self, values: &[f64]) -> f64 {
        match self {
            MeanKind::Harmonic => harmonic_mean(values),
            MeanKind::Arithmetic => arithmetic_mean(values),
        }
    }
}

/// One column of an experiment: a spawning scheme plus configuration
/// deltas, reduced through a metric.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Column label (table header).
    pub label: String,
    /// Spawning-scheme name, resolved through the selecting harness's
    /// registry.
    pub scheme: String,
    /// Selection parameters for this column's tables.
    pub params: SchemeParams,
    /// Deltas applied to the spec's base configuration, in order.
    pub deltas: Vec<ConfigDelta>,
    /// Benchmark-dependent deltas (e.g. the paper's compress-specific
    /// removal threshold), applied after [`Variant::deltas`].
    pub per_bench: Option<fn(&str) -> Vec<ConfigDelta>>,
    /// The value this column reports.
    pub metric: Metric,
}

impl Variant {
    /// A variant of the given scheme/deltas reporting speed-up.
    pub fn speedup(
        label: impl Into<String>,
        scheme: impl Into<String>,
        deltas: Vec<ConfigDelta>,
    ) -> Variant {
        Variant {
            label: label.into(),
            scheme: scheme.into(),
            params: SchemeParams::default(),
            deltas,
            per_bench: None,
            metric: Metric::Speedup,
        }
    }

    /// The same variant with a different metric.
    pub fn with_metric(mut self, metric: Metric) -> Variant {
        self.metric = metric;
        self
    }

    /// The same variant with benchmark-dependent deltas.
    pub fn with_per_bench(mut self, f: fn(&str) -> Vec<ConfigDelta>) -> Variant {
        self.per_bench = Some(f);
        self
    }

    /// The same variant selecting its tables with `params` instead of the
    /// defaults (selection-threshold sweeps). Each parameter set is
    /// memoized and store-addressed under its own key.
    pub fn with_params(mut self, params: SchemeParams) -> Variant {
        self.params = params;
        self
    }

    fn config(&self, base: &SimConfig, bench_name: &str) -> SimConfig {
        let mut cfg = base.clone().with_deltas(&self.deltas);
        if let Some(f) = self.per_bench {
            cfg = cfg.with_deltas(&f(bench_name));
        }
        cfg
    }
}

/// A declarative experiment: benchmarks × variants over a base
/// configuration.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// The configuration every variant starts from.
    pub base: SimConfig,
    /// The columns.
    pub variants: Vec<Variant>,
    /// How columns are summarised in the mean row.
    pub mean: MeanKind,
}

impl ExperimentSpec {
    /// A spec over `base` with the given variants, harmonic-mean summary.
    pub fn new(base: SimConfig, variants: Vec<Variant>) -> ExperimentSpec {
        ExperimentSpec {
            base,
            variants,
            mean: MeanKind::Harmonic,
        }
    }

    /// The same spec with an arithmetic-mean summary row.
    pub fn amean(mut self) -> ExperimentSpec {
        self.mean = MeanKind::Arithmetic;
        self
    }

    /// Runs the whole grid as one batch on the harness's executor
    /// ([`Harness::exec`]); shorthand for `run_on(h, h)`.
    ///
    /// # Errors
    ///
    /// As [`ExperimentSpec::run_on`].
    pub fn run(&self, h: &Harness) -> Result<ExperimentGrid, HarnessError> {
        self.run_on(h, h)
    }

    /// Runs the whole grid with spawn tables selected on `select`'s
    /// contexts and simulated on the same benchmarks' contexts in
    /// `simulate` (the cross-input figures select on the training input
    /// and simulate on the reference input; see [`Harness::on_input`]).
    ///
    /// Every (benchmark, variant) cell is an independent deterministic
    /// simulation, run as one batch on `simulate`'s executor with per-cell
    /// panic isolation: a panicking cell becomes a structured error
    /// instead of taking the sweep down, and results are bit-identical at
    /// any `jobs` count. Spawn tables are resolved first, as one batch on
    /// `select`'s executor through its registry: one cell per benchmark and
    /// distinct (scheme, parameters) key, so variants that share a key
    /// share one selection, and later specs reuse it via the per-benchmark
    /// memo.
    ///
    /// # Errors
    ///
    /// The first cell's failure: [`HarnessError::Scheme`] for an unknown
    /// scheme, [`HarnessError::Bench`] for a simulation failure, or
    /// [`HarnessError::Supervised`] for a cell that panicked.
    pub fn run_on(
        &self,
        select: &Harness,
        simulate: &Harness,
    ) -> Result<ExperimentGrid, HarnessError> {
        let tables = self.select_tables(select)?;
        let mut tasks = Vec::with_capacity(simulate.benches.len() * self.variants.len());
        for (bench_tables, ctx) in tables.iter().zip(&simulate.benches) {
            for (variant, table) in self.variants.iter().zip(bench_tables) {
                let cfg = variant.config(&self.base, ctx.bench.name());
                tasks.push(Task::new(
                    format!("{}/{}", ctx.bench.name(), variant.label),
                    move || -> Result<(f64, SimResult), HarnessError> {
                        let r = ctx.sim(cfg, table)?;
                        let v = variant.metric.measure(ctx, &r)?;
                        Ok((v, r))
                    },
                ));
            }
        }
        let cells = crate::run_supervised(&simulate.executor(), tasks)?;
        let mut values = vec![Vec::with_capacity(simulate.benches.len()); self.variants.len()];
        let mut results = vec![Vec::with_capacity(simulate.benches.len()); self.variants.len()];
        for (i, cell) in cells.into_iter().enumerate() {
            let (v, r) = cell?;
            let vi = i % self.variants.len();
            values[vi].push(v);
            results[vi].push(r);
        }
        let means = values.iter().map(|col| self.mean.of(col)).collect();
        Ok(ExperimentGrid {
            bench_names: simulate.benches.iter().map(|c| c.bench.name()).collect(),
            labels: self.variants.iter().map(|v| v.label.clone()).collect(),
            values,
            results,
            means,
            mean: self.mean,
        })
    }

    /// Every benchmark's spawn table for every variant, `[bench][variant]`,
    /// selected on `select`'s contexts as one batch with one cell per
    /// benchmark and distinct (scheme, parameters) key.
    fn select_tables(&self, select: &Harness) -> Result<Vec<Vec<Arc<SpawnTable>>>, HarnessError> {
        // Each variant's index into the distinct keys, in first-use order.
        let mut keys: Vec<(&str, &SchemeParams, StoreKey)> = Vec::new();
        let key_of: Vec<usize> = self
            .variants
            .iter()
            .map(|v| {
                let digest = crate::params_digest(&v.params);
                keys.iter()
                    .position(|&(scheme, _, d)| scheme == v.scheme && d == digest)
                    .unwrap_or_else(|| {
                        keys.push((&v.scheme, &v.params, digest));
                        keys.len() - 1
                    })
            })
            .collect();
        let registry = &select.registry;
        let tasks = select
            .benches
            .iter()
            .flat_map(|ctx| {
                keys.iter().map(move |&(scheme, params, _)| {
                    Task::new(format!("{}/select {scheme}", ctx.bench.name()), move || {
                        ctx.table_for(scheme, registry, params)
                    })
                })
            })
            .collect();
        let selected = crate::run_supervised(&select.executor(), tasks)?
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(selected
            .chunks(keys.len().max(1))
            .map(|bench| key_of.iter().map(|&k| Arc::clone(&bench[k])).collect())
            .collect())
    }
}

/// The raw results of one executed [`ExperimentSpec`].
#[derive(Debug)]
pub struct ExperimentGrid {
    /// Benchmarks, in the paper's reporting order.
    pub bench_names: Vec<&'static str>,
    /// Column labels, in variant order.
    pub labels: Vec<String>,
    /// `values[variant][bench]`: the metric for each cell.
    pub values: Vec<Vec<f64>>,
    /// `results[variant][bench]`: the full simulation results.
    pub results: Vec<Vec<SimResult>>,
    /// Per-column means (of [`ExperimentGrid::mean`] kind).
    pub means: Vec<f64>,
    /// Which mean summarised the columns.
    pub mean: MeanKind,
}

impl ExperimentGrid {
    /// One column's per-benchmark values.
    pub fn column(&self, variant: usize) -> &[f64] {
        &self.values[variant]
    }

    /// Renders the standard figure table — a `bench` column, one column
    /// per variant formatted with `fmt`, and a final mean row.
    pub fn table_with(&self, fmt: impl Fn(f64) -> String) -> Table {
        let headers: Vec<&str> = std::iter::once("bench")
            .chain(self.labels.iter().map(String::as_str))
            .collect();
        let mut table = Table::new(&headers);
        for (bi, name) in self.bench_names.iter().enumerate() {
            let cells = std::iter::once((*name).to_string())
                .chain(self.values.iter().map(|col| fmt(col[bi])))
                .collect();
            table.row_owned(cells);
        }
        table.row_owned(
            std::iter::once(self.mean.label().to_string())
                .chain(self.means.iter().map(|&m| fmt(m)))
                .collect(),
        );
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_workloads::Scale;

    #[test]
    fn grid_matches_direct_runs() {
        let h = Harness::load_at(Scale::Tiny).unwrap();
        let spec = ExperimentSpec::new(
            SimConfig::paper(4),
            vec![
                Variant::speedup("profile", "profile", vec![]),
                Variant::speedup("heuristics", "heuristics", vec![]),
            ],
        );
        let grid = spec.run(&h).unwrap();
        assert_eq!(grid.bench_names.len(), h.benches.len());
        for (i, ctx) in h.benches.iter().enumerate() {
            let r = ctx.sim(SimConfig::paper(4), &ctx.profile.table).unwrap();
            assert_eq!(grid.values[0][i], ctx.speedup(&r).unwrap());
            assert_eq!(grid.results[0][i], r);
        }
        assert_eq!(grid.means.len(), 2);
    }

    #[test]
    fn run_on_selects_on_one_harness_and_simulates_on_the_other() {
        let train = Harness::load_at_with(Scale::Tiny, specmt_store::Store::disabled()).unwrap();
        let reference = train.on_input(specmt_workloads::InputSet::Ref).unwrap();
        let spec = ExperimentSpec::new(
            SimConfig::paper(4),
            vec![Variant::speedup("profile", "profile", vec![])],
        );
        let grid = spec.run_on(&train, &reference).unwrap();
        for (i, (t, r)) in train.benches.iter().zip(&reference.benches).enumerate() {
            let result = r.sim(SimConfig::paper(4), &t.profile.table).unwrap();
            assert_eq!(grid.values[0][i], r.speedup(&result).unwrap());
        }
        assert_ne!(
            grid.values[0],
            spec.run(&reference).unwrap().values[0],
            "reference-selected tables must differ from training-selected ones"
        );
    }

    #[test]
    fn with_params_selects_with_its_own_parameters() {
        let h = Harness::load_at_with(Scale::Tiny, specmt_store::Store::disabled()).unwrap();
        let params = SchemeParams {
            profile: specmt_spawn::ProfileConfig {
                min_prob: 0.5,
                ..specmt_spawn::ProfileConfig::default()
            },
        };
        let spec = ExperimentSpec::new(
            SimConfig::paper(4),
            vec![
                Variant::speedup("default", "profile", vec![]),
                Variant::speedup("min-prob 0.5", "profile", vec![]).with_params(params.clone()),
            ],
        );
        let grid = spec.run(&h).unwrap();
        for (i, ctx) in h.benches.iter().enumerate() {
            let table = h
                .registry
                .select("profile", ctx.bench.trace(), &params)
                .unwrap();
            let r = ctx.sim(SimConfig::paper(4), &table).unwrap();
            assert_eq!(grid.results[1][i], r);
        }
        assert_ne!(grid.values[0], grid.values[1]);
    }

    /// Selection runs as a parallel batch with one call per benchmark and
    /// distinct key, however many variants share that key.
    #[test]
    fn tables_are_selected_once_per_key_in_parallel() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        use specmt_spawn::{SchemeError, SpawnScheme};
        use specmt_trace::Trace;

        /// Records `(trace address, selecting thread)` per call.
        #[derive(Debug, Default)]
        struct Counting(Arc<Mutex<Vec<(usize, ThreadId)>>>);

        impl SpawnScheme for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn describe(&self) -> String {
                "records each selection, then sleeps".into()
            }
            fn select(&self, trace: &Trace, _: &SchemeParams) -> Result<SpawnTable, SchemeError> {
                let at = trace as *const Trace as usize;
                self.0
                    .lock()
                    .unwrap()
                    .push((at, std::thread::current().id()));
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(SpawnTable::empty())
            }
        }

        let mut h = Harness::load_at_with(Scale::Tiny, specmt_store::Store::disabled()).unwrap();
        let calls = Arc::new(Mutex::new(Vec::new()));
        h.registry
            .register(Box::new(Counting(Arc::clone(&calls))))
            .unwrap();
        h.exec.jobs = 4;
        let spec = ExperimentSpec::new(
            SimConfig::paper(4),
            vec![
                Variant::speedup("a", "counting", vec![]),
                Variant::speedup("b", "counting", vec![]),
            ],
        );
        spec.run(&h).unwrap();
        let calls = calls.lock().unwrap();
        let traces: HashSet<usize> = calls.iter().map(|&(t, _)| t).collect();
        assert_eq!(calls.len(), h.benches.len(), "one selection per benchmark");
        assert_eq!(
            traces.len(),
            h.benches.len(),
            "each benchmark selected once"
        );
        let threads: HashSet<ThreadId> = calls.iter().map(|&(_, t)| t).collect();
        assert!(
            threads.len() >= 2,
            "selection ran on {} thread(s)",
            threads.len()
        );
    }

    #[test]
    fn per_bench_deltas_apply() {
        let h = Harness::load_at(Scale::Tiny).unwrap();
        let spec = ExperimentSpec::new(
            SimConfig::paper(4),
            vec![
                Variant::speedup("removal", "profile", vec![]).with_per_bench(|name| {
                    vec![ConfigDelta::Removal(Some(crate::standard_removal(name)))]
                }),
            ],
        );
        let grid = spec.run(&h).unwrap();
        // Same cells computed directly.
        for (i, ctx) in h.benches.iter().enumerate() {
            let cfg = SimConfig::paper(4).with_removal(crate::standard_removal(ctx.bench.name()));
            let r = ctx.sim(cfg, &ctx.profile.table).unwrap();
            assert_eq!(grid.values[0][i], ctx.speedup(&r).unwrap());
        }
    }

    #[test]
    fn table_has_mean_row() {
        let h = Harness::load_at(Scale::Tiny).unwrap();
        let spec = ExperimentSpec::new(
            SimConfig::paper(4),
            vec![Variant::speedup("speed-up", "profile", vec![])],
        )
        .amean();
        let grid = spec.run(&h).unwrap();
        let rendered = grid.table_with(crate::f2).render();
        assert!(rendered.contains("Amean"));
        assert!(rendered.starts_with("bench"));
    }
}
