//! The layer replay: a fixed grid (8 suite workloads × the 11 built-in
//! schemes × `SimConfig::paper(16)`) driven through each layer crate's
//! public functions, with a span around every call.
//!
//! Span names are the per-layer metric names without their unit; `run.py`
//! sums each name's self time. Counts that must repeat exactly
//! (`sim.insts`, `spawn.pairs`, `obs.events`, `exec.cells`) are returned
//! beside the spans.

use std::path::Path;
use std::sync::Arc;

use serde_json::{json, Value};
use specmt_analysis::{BasicBlocks, BlockStream, DynCfg, ReachingAnalysis};
use specmt_bench::{cache, Bench};
use specmt_exec::{ExecConfig, Executor, Task};
use specmt_obs::EventLog;
use specmt_predict::ValuePredictorKind;
use specmt_sim::{SimConfig, SimResult};
use specmt_spawn::{
    profile_pairs, ProfileConfig, SchemeParams, SchemeRegistry, SpawnTable, BUILTIN_SCHEME_NAMES,
};
use specmt_store::{Namespace, Store, StoreConfig};
use specmt_trace::Trace;
use specmt_workloads::{InputSet, Scale, SUITE_NAMES};

use crate::span::{self, Recorder};

/// One suite workload, traced, decoded back from its encoding, and with
/// every built-in scheme's table selected.
struct Prepared {
    bench: Arc<Bench>,
    label: String,
    trace_key: specmt_store::StageKey,
    trace_bytes: Vec<u8>,
    tables: Vec<Arc<SpawnTable>>,
}

/// A small deterministic generator for the cell visiting order.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = usize::try_from((state >> 33) % (i as u64 + 1)).unwrap_or(0);
        items.swap(i, j);
    }
}

fn prepare(
    rec: &Recorder,
    parent: usize,
    name: &str,
    input: InputSet,
    registry: &SchemeRegistry,
) -> Result<(Prepared, u64), String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{name}: {what}: {e}");
    let workload = specmt_workloads::by_name_with_input(name, Scale::Medium, input)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = rec
        .time("trace.generate", Some(parent), || {
            Trace::generate(workload.program.clone(), workload.step_budget)
        })
        .map_err(|e| fail("trace generation", &e))?;
    let trace_bytes = rec
        .time("trace.encode", Some(parent), || {
            let mut bytes = Vec::new();
            trace.write_to(&mut bytes).map(|()| bytes)
        })
        .map_err(|e| fail("trace encoding", &e))?;
    drop(trace);
    // Decode and validate exactly as a warm suite load does; every later
    // stage runs on the decoded trace.
    let bench = rec
        .time("trace.decode", Some(parent), || {
            let trace = Trace::from_bytes(&trace_bytes).map_err(|e| e.to_string())?;
            Bench::from_cached(workload.clone(), trace, None).map_err(|e| e.to_string())
        })
        .map_err(|e| fail("trace decoding", &e))?;

    let profile_cfg = ProfileConfig::default();
    let trace = bench.trace();
    let (bbs, stream) = rec.time("analysis.blockstream", Some(parent), || {
        let bbs = BasicBlocks::of(trace.program());
        let stream = BlockStream::new(trace, &bbs);
        (bbs, stream)
    });
    rec.time("analysis.reach", Some(parent), || {
        let mut cfg = DynCfg::build(&stream, &bbs);
        cfg.prune_to_coverage(profile_cfg.coverage);
        std::hint::black_box(ReachingAnalysis::compute(&stream, &cfg.kept_blocks()));
    });
    rec.time("spawn.profile", Some(parent), || {
        std::hint::black_box(profile_pairs(trace, &profile_cfg));
    });
    let params = SchemeParams::default();
    let mut tables = Vec::new();
    let mut pairs = 0;
    for scheme in BUILTIN_SCHEME_NAMES {
        let table = rec
            .time("spawn.select", Some(parent), || {
                registry.select(scheme, trace, &params)
            })
            .map_err(|e| fail(scheme, &e))?;
        pairs += table.num_pairs() as u64;
        tables.push(Arc::new(table));
    }
    rec.time("sim.deps", Some(parent), || bench.deps());
    rec.time("sim.baseline", Some(parent), || bench.baseline_cycles())
        .map_err(|e| fail("baseline", &e))?;
    let trace_key = rec
        .time("store.key", Some(parent), || cache::trace_stage(&workload))
        .ok_or_else(|| format!("{name}: workload has no trace key"))?;
    Ok((
        Prepared {
            bench: Arc::new(bench),
            label: format!("{name}-medium"),
            trace_key,
            trace_bytes,
            tables,
        },
        pairs,
    ))
}

/// Runs one executor batch over every cell at `width`, each cell inside
/// an `exec.cell<width>` span under the batch's span. Returns (cells,
/// degraded).
fn exec_batch(
    rec: &'static Recorder,
    parent: usize,
    width: usize,
    cells: &[(usize, usize)],
    prepared: &[Prepared],
) -> (u64, u64) {
    let batch = rec.open(format!("exec.batch{width}"), Some(parent));
    let batch_id = batch.id();
    let tasks = cells
        .iter()
        .map(|&(w, s)| {
            let bench = Arc::clone(&prepared[w].bench);
            let table = Arc::clone(&prepared[w].tables[s]);
            Task::new(format!("{w}/{s}"), move || {
                let open = rec.open(format!("exec.cell{width}"), Some(batch_id));
                let r = bench.run(SimConfig::paper(16), &table);
                rec.close(open);
                r.is_ok()
            })
        })
        .collect();
    let executor = Executor::new(ExecConfig {
        jobs: width,
        ..ExecConfig::default()
    });
    let result = executor.run_batch(tasks);
    rec.close(batch);
    // A cell whose simulation returned an error counts as degraded too.
    let sim_errors = result.values.iter().filter(|v| **v == Some(false)).count() as u64;
    (
        result.report.cells.len() as u64,
        result.report.degraded() + sim_errors,
    )
}

/// Runs the replay on `input` with the cell order drawn from `seed`,
/// using `scratch` as a throwaway store. Spans go to the global recorder.
pub fn run(input: InputSet, seed: u64, scratch: &Path) -> Result<Value, String> {
    let rec = span::global();
    let root = rec.open("replay", None);
    let root_id = root.id();
    let registry = SchemeRegistry::builtin();

    let mut prepared = Vec::new();
    let mut pairs = 0;
    for name in SUITE_NAMES {
        let (p, n) = prepare(rec, root_id, name, input, &registry)?;
        prepared.push(p);
        pairs += n;
    }

    let mut cells: Vec<(usize, usize)> = (0..prepared.len())
        .flat_map(|w| (0..BUILTIN_SCHEME_NAMES.len()).map(move |s| (w, s)))
        .collect();
    shuffle(&mut cells, seed);

    let base = SimConfig::paper(16);
    let mut insts = 0u64;
    let mut events = 0u64;
    let mut results: Vec<(usize, specmt_store::StageKey, SimResult)> = Vec::new();
    let cell_error = |w: usize, s: usize, e: &dyn std::fmt::Display| {
        format!("{} / {}: {e}", prepared[w].label, BUILTIN_SCHEME_NAMES[s])
    };
    for &(w, s) in &cells {
        let p = &prepared[w];
        let table = p.tables[s].as_ref();
        let sim = |name: &str, cfg: SimConfig| {
            rec.time(name, Some(root_id), || p.bench.run(cfg, table))
                .map_err(|e| cell_error(w, s, &e))
        };
        let r = sim("sim.run", base.clone())?;
        sim(
            "predict.stride",
            base.clone()
                .with_value_predictor(ValuePredictorKind::Stride),
        )?;
        sim(
            "predict.fcm",
            base.clone().with_value_predictor(ValuePredictorKind::Fcm),
        )?;
        sim("obs.observe", base.clone().with_observe(true))?;
        let mut log = EventLog::new();
        rec.time("obs.event_log", Some(root_id), || {
            p.bench.run_observed(base.clone(), table, &mut log)
        })
        .map_err(|e| cell_error(w, s, &e))?;
        events += log.len() as u64;
        insts += r.committed_instructions;
        let key = rec.time("store.key", Some(root_id), || {
            cache::sim_stage(&p.trace_key, table, &base)
        });
        results.push((w, key, r));
    }

    // Executor overhead: the same cells as a plain loop and through the
    // executor at width 1, twice each in the order plain, executor,
    // executor, plain (run.py compares the faster pass of each, so a
    // burst of load from other processes on the host is not read as
    // overhead); then at width 2.
    let plain_loop = || -> Result<(), String> {
        let pass = rec.open("exec.plain", Some(root_id));
        for &(w, s) in &cells {
            let p = &prepared[w];
            rec.time("exec.plain_cell", Some(pass.id()), || {
                p.bench.run(base.clone(), &p.tables[s])
            })
            .map_err(|e| cell_error(w, s, &e))?;
        }
        rec.close(pass);
        Ok(())
    };
    let (mut exec_cells, mut exec_degraded) = (0, 0);
    let mut batch = |width| {
        let (n, degraded) = exec_batch(rec, root_id, width, &cells, &prepared);
        exec_cells += n;
        exec_degraded += degraded;
    };
    plain_loop()?;
    batch(1);
    batch(1);
    plain_loop()?;
    batch(2);

    // Store round trip through a scratch store: every trace, then every
    // grid result, written and read back.
    let _ = std::fs::remove_dir_all(scratch);
    let store = Store::open(StoreConfig::at(scratch));
    for p in &prepared {
        rec.time("store.put", Some(root_id), || {
            store.put_bytes(Namespace::Trace, &p.label, &p.trace_key, &p.trace_bytes);
        });
    }
    for (w, key, r) in &results {
        rec.time("store.put", Some(root_id), || {
            store.put_json(Namespace::SimResult, &prepared[*w].label, key, r);
        });
    }
    let mut round_trip_errors = 0u64;
    for p in &prepared {
        let got = rec.time("store.get", Some(root_id), || {
            store.get_bytes(Namespace::Trace, &p.label, &p.trace_key)
        });
        if got.as_deref() != Some(p.trace_bytes.as_slice()) {
            round_trip_errors += 1;
        }
    }
    for (w, key, r) in &results {
        let got = rec.time("store.get", Some(root_id), || {
            store.get_json::<SimResult>(Namespace::SimResult, &prepared[*w].label, key)
        });
        if got.as_ref() != Some(r) {
            round_trip_errors += 1;
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
    rec.close(root);

    let trace_bytes: u64 = prepared.iter().map(|p| p.trace_bytes.len() as u64).sum();
    Ok(json!({
        "input": match input {
            InputSet::Train => "train",
            InputSet::Ref => "ref",
        },
        "counts": {
            "exec.cells": exec_cells,
            "exec.degraded": exec_degraded,
            "sim.insts": insts,
            "spawn.pairs": pairs,
            "obs.events": events,
            "trace.bytes": trace_bytes,
        },
        "store_round_trip_errors": round_trip_errors,
    }))
}
