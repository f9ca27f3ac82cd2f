//! One sample of an end-to-end workload: load the suite through the
//! artifact store, then build the 15 paper figures, exactly as
//! `specmt bench all` does.
//!
//! The store directory is prepared by `run.py` (empty for `paper_cold`,
//! filled for `paper_warm` and `paper_observed`); this process only runs
//! against it and reports what it saw. Traced samples additionally
//! record a `bench.setup` span around `Harness::load_at_with` and one
//! `bench.<figure>` span per figure, with the store's hit/miss delta.

use std::sync::Arc;
use std::time::Instant;

use serde_json::{json, Value};
use specmt_bench::figures::{self, FigureGroup};
use specmt_bench::Harness;
use specmt_store::{Namespace, Store, StoreConfig, NAMESPACES};
use specmt_workloads::Scale;

use crate::span;

/// Executor width for the figure sweeps.
const FIGURE_JOBS: usize = 2;

/// 64-bit FNV-1a, the figure-output digest (independent of any hash the
/// program itself uses, so a change to the program's hashing cannot move
/// the reference digest).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn store_totals(store: &Store) -> (u64, u64) {
    NAMESPACES.iter().fold((0, 0), |(h, m), &ns| {
        (h + store.hits(ns), m + store.misses(ns))
    })
}

/// The Hmean speed-ups printed beside the paper's values.
fn hmeans(id: &str, json: &Value) -> Vec<(String, f64)> {
    let num = |v: Option<&Value>| match v {
        Some(Value::Float(x)) => Some(*x),
        _ => None,
    };
    match id {
        "fig3" => num(json.get("hmean"))
            .map(|v| vec![("fig3_hmean".to_owned(), v)])
            .unwrap_or_default(),
        "fig8" => match (num(json.get("profile")), num(json.get("heuristics"))) {
            (Some(p), Some(h)) => vec![("fig8_profile_over_heuristics".to_owned(), p / h)],
            _ => Vec::new(),
        },
        "fig12" => match json {
            Value::Array(rows) => rows
                .iter()
                .filter_map(|row| {
                    let Some(Value::Str(config)) = row.get("config") else {
                        return None;
                    };
                    let name = format!("fig12_{}_hmean", config.replace(['/', '+'], "_"));
                    num(row.get("hmean")).map(|v| (name, v))
                })
                .collect(),
            _ => Vec::new(),
        },
        _ => Vec::new(),
    }
}

/// Runs one sample against the store at `store_dir` and returns its
/// report. With `spans` set, the sample is traced and its spans are
/// written there when it ends.
pub fn run(store_dir: &str, observe: bool, spans: Option<&str>) -> Result<Value, String> {
    let rec = span::global();
    let traced = spans.is_some();
    let store = Store::open(StoreConfig::at(store_dir));

    let start = Instant::now();
    let root = traced.then(|| rec.open("sample", None));
    let root_id = root.as_ref().map(span::Open::id);
    let setup = traced.then(|| rec.open("bench.setup", root_id));
    let mut h = Harness::load_at_with(Scale::Medium, Arc::clone(&store))
        .map_err(|e| format!("suite load failed: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    if let Some(open) = setup {
        rec.close(open);
    }
    h.exec.jobs = FIGURE_JOBS;
    h.set_observe(observe);

    let mut figs = Vec::new();
    let mut errors = Vec::new();
    let mut repro = Vec::new();
    let mut all_blocks = String::new();
    for def in figures::registry()
        .iter()
        .filter(|d| d.group == FigureGroup::Paper)
    {
        let before = traced.then(|| store_totals(&store));
        let open = traced.then(|| rec.open(format!("bench.{}", def.id), root_id));
        let out = figures::run_defs(&h, &[def], false);
        if let Some(open) = open {
            rec.close(open);
        }
        let delta = before.map(|(h0, m0)| {
            let (h1, m1) = store_totals(&store);
            (h1 - h0, m1 - m0)
        });
        for fig in &out.figures {
            let block = fig.render_block();
            all_blocks.push_str(&block);
            repro.extend(hmeans(&fig.id, &fig.json));
            let mut entry = json!({
                "id": fig.id.as_str(),
                "digest": format!("{:016x}", fnv1a(block.as_bytes())),
            });
            if let (Some((hits, misses)), Value::Object(fields)) = (delta, &mut entry) {
                fields.push(("hits".to_owned(), json!(hits)));
                fields.push(("misses".to_owned(), json!(misses)));
            }
            figs.push(entry);
        }
        for (id, e) in &out.errors {
            errors.push(json!({"id": id.as_str(), "error": e.to_string()}));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(open) = root {
        rec.close(open);
    }

    let namespaces: Vec<(String, Value)> = NAMESPACES
        .iter()
        .map(|&ns: &Namespace| {
            (
                ns.dir_name().to_owned(),
                json!({
                    "hits": store.hits(ns),
                    "misses": store.misses(ns),
                    "writes": store.stores(ns),
                    "invalidations": store.invalidations(ns),
                }),
            )
        })
        .collect();
    let store_bytes: u64 = store.usage().iter().map(|u| u.bytes).sum();
    if let Some(path) = spans {
        rec.write(path)
            .map_err(|e| format!("could not write spans to {path}: {e}"))?;
    }
    Ok(json!({
        "wall_s": wall_s,
        "setup_s": setup_s,
        "digest": format!("{:016x}", fnv1a(all_blocks.as_bytes())),
        "figures": Value::Array(figs),
        "errors": Value::Array(errors),
        "store": Value::Object(namespaces),
        "store_bytes": store_bytes,
        "repro": Value::Object(repro.into_iter().map(|(k, v)| (k, json!(v))).collect()),
    }))
}
