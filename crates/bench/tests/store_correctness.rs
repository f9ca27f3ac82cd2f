//! The artifact store must be invisible: a warm load returns bit-identical
//! results to a cold one, a damaged store silently falls back to
//! regeneration, and a localized input change invalidates exactly the
//! stages that read it. Every test runs against its own explicit
//! [`StoreHandle`] — no process environment is touched.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Value;
use specmt_bench::{cache, figures, BenchCtx, Harness};
use specmt_sim::SimConfig;
use specmt_store::{Namespace, StageKey, Store, StoreConfig, StoreHandle};
use specmt_workloads::Scale;

/// Everything a figure derives from one benchmark, in exactly-comparable
/// form. `ProfileResult` and `SpawnTable` are integer/f64 state computed
/// from integer trace data, so equality is exact.
#[derive(Debug, PartialEq)]
struct Products {
    baseline: u64,
    profile: specmt_spawn::ProfileResult,
    heuristics: specmt_spawn::SpawnTable,
    paper16_cycles: u64,
    paper16_speedup: f64,
}

fn products(ctx: &BenchCtx) -> Products {
    let result = ctx
        .sim(SimConfig::paper(16), &ctx.profile.table)
        .expect("simulation");
    Products {
        baseline: ctx.bench.baseline_cycles().expect("baseline"),
        profile: ctx.profile.clone(),
        heuristics: ctx.heuristics.clone(),
        paper16_cycles: result.cycles,
        paper16_speedup: ctx.speedup(&result).expect("speedup"),
    }
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specmt-store-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> StoreHandle {
    Store::open(StoreConfig::at(dir))
}

/// The file names in the store directory `dir`.
fn store_files(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    out.sort();
    out
}

/// The trace entry a fresh handle on `dir` reads for `bench`: the
/// manifest, not a trace image. The store directory holds only its log.
fn trace_entry(dir: &Path, bench: &BenchCtx) -> Vec<u8> {
    assert_eq!(store_files(dir), ["store.log"], "one log, no entry files");
    let (label, key) = trace_slot(bench);
    open(dir)
        .get_bytes(Namespace::Trace, &label, &key)
        .expect("a trace entry")
}

/// The logical name and key the trace stage stores `bench`'s manifest
/// under.
fn trace_slot(bench: &BenchCtx) -> (String, StageKey) {
    let workload = bench.bench.workload();
    let key = cache::trace_stage(workload).expect("suite workloads are keyable");
    (format!("{}-tiny", workload.name), key)
}

#[test]
fn warm_loads_are_bit_identical_and_corruption_is_survived() {
    let dir = test_dir("correctness");

    // Cold load populates every namespace the loader owns. The trace entry
    // is a manifest, not a trace image.
    let store = open(&dir);
    let cold = BenchCtx::load_with("gcc", Scale::Tiny, Arc::clone(&store)).expect("cold load");
    let cold_products = products(&cold);
    let intact = trace_entry(&dir, &cold);
    assert!(
        intact.len() < 1024,
        "the trace entry must be a manifest, got {} bytes",
        intact.len()
    );
    assert_eq!(store.hits(Namespace::Trace), 0, "cold store cannot hit");
    assert_eq!(store.stores(Namespace::Trace), 1);
    assert!(store.stores(Namespace::Profile) >= 1);
    assert!(store.stores(Namespace::SpawnTable) >= 1);
    assert!(store.stores(Namespace::Analysis) >= 1);

    // Warm load (fresh handle, fresh counters) serves every stage from the
    // store and reproduces every product exactly.
    let store = open(&dir);
    let warm = BenchCtx::load_with("gcc", Scale::Tiny, Arc::clone(&store)).expect("warm load");
    assert_eq!(
        products(&warm),
        cold_products,
        "warm load must be bit-identical"
    );
    for ns in [
        Namespace::Trace,
        Namespace::Profile,
        Namespace::SpawnTable,
        Namespace::Analysis,
        Namespace::SimResult,
    ] {
        assert_eq!(store.misses(ns), 0, "warm {ns:?} load must not miss");
        assert!(store.hits(ns) >= 1, "warm {ns:?} load must hit");
    }
    assert_eq!(store.stores(Namespace::Trace), 0, "a valid manifest stays");

    // Every damaged trace entry, planted under the current key, is
    // rejected by the load itself: the load regenerates the trace and
    // rewrites the entry exactly once before anything simulates, and the
    // products are the cold ones.
    let alien = {
        let alien_dir = test_dir("correctness-alien");
        let ctx =
            BenchCtx::load_with("compress", Scale::Tiny, open(&alien_dir)).expect("alien load");
        let bytes = trace_entry(&alien_dir, &ctx);
        let _ = fs::remove_dir_all(&alien_dir);
        bytes
    };
    assert_ne!(alien, intact, "compress and gcc manifests must differ");
    let unbounded = {
        let mut doc: Value = serde_json::from_slice(&intact).expect("manifest JSON");
        let Value::Object(fields) = &mut doc else {
            panic!("the manifest is a JSON object");
        };
        let (_, records) = fields
            .iter_mut()
            .find(|(k, _)| k == "records")
            .expect("a records field");
        *records = Value::UInt(u64::MAX);
        let bytes = serde_json::to_vec(&doc).expect("serialize");
        let back: Value = serde_json::from_slice(&bytes).expect("reparse");
        assert_eq!(back.get("records"), Some(&Value::UInt(u64::MAX)));
        bytes
    };
    let old_image = {
        let mut bytes = Vec::new();
        cold.bench.trace().write_to(&mut bytes).expect("serialize");
        bytes
    };
    let damaged = [
        ("garbage bytes", b"garbage".to_vec()),
        ("truncated manifest", intact[..intact.len() - 1].to_vec()),
        ("another workload's manifest", alien),
        ("records: u64::MAX", unbounded),
        ("a trace image under the current key", old_image),
    ];
    let (label, trace_key) = trace_slot(&cold);
    for (case, entry) in damaged {
        open(&dir).put_bytes(Namespace::Trace, &label, &trace_key, &entry);
        let store = open(&dir);
        let recovered = BenchCtx::load_with("gcc", Scale::Tiny, Arc::clone(&store))
            .unwrap_or_else(|e| panic!("load over {case}: {e}"));
        assert_eq!(
            store.stores(Namespace::Trace),
            1,
            "the load must rewrite the entry once after {case}"
        );
        assert_eq!(trace_entry(&dir, &recovered), intact, "{case}");
        assert_eq!(products(&recovered), cold_products, "{case}");
        for ns in [
            Namespace::Profile,
            Namespace::SpawnTable,
            Namespace::Analysis,
            Namespace::SimResult,
        ] {
            assert_eq!(store.misses(ns), 0, "{case}: {ns:?} must not recompute");
        }
    }

    // A log cut off inside its first record (a crash, a full disk) loses
    // every record: each entry is a silent miss, recomputed and appended
    // after the torn bytes, and the next handle is served everything.
    OpenOptions::new()
        .write(true)
        .open(dir.join("store.log"))
        .and_then(|f| f.set_len(10))
        .expect("truncate the log");
    let store = open(&dir);
    let recovered =
        BenchCtx::load_with("gcc", Scale::Tiny, Arc::clone(&store)).expect("load over a cut log");
    assert_eq!(products(&recovered), cold_products);
    for ns in [
        Namespace::Trace,
        Namespace::Profile,
        Namespace::SpawnTable,
        Namespace::Analysis,
        Namespace::SimResult,
    ] {
        assert!(store.stores(ns) >= 1, "the cut lost every {ns:?} entry");
    }
    let store = open(&dir);
    let warm = BenchCtx::load_with("gcc", Scale::Tiny, Arc::clone(&store)).expect("warm again");
    assert_eq!(products(&warm), cold_products);
    for ns in [
        Namespace::Trace,
        Namespace::Profile,
        Namespace::SpawnTable,
        Namespace::Analysis,
        Namespace::SimResult,
    ] {
        assert_eq!(store.misses(ns), 0, "after the cut, {ns:?} must not miss");
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn disabled_store_bypasses_disk_and_matches() {
    let dir = test_dir("disabled");

    let store = open(&dir);
    let stored = BenchCtx::load_with("li", Scale::Tiny, store).expect("stored load");
    let stored_products = products(&stored);

    let off_dir = test_dir("disabled-off");
    let off = Store::open(StoreConfig {
        enabled: false,
        dir: off_dir.clone(),
    });
    let uncached = BenchCtx::load_with("li", Scale::Tiny, off).expect("uncached load");
    assert_eq!(products(&uncached), stored_products);
    assert!(
        !off_dir.exists(),
        "a disabled store must not touch its directory"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// The ISSUE's acceptance criterion: changing a single `SimConfig` field
/// re-keys (and therefore recomputes) only the simulate stage — upstream
/// trace/profile/spawn-table/analysis entries keep hitting, and the store's
/// invalidation records name the changed component.
#[test]
fn sim_config_change_invalidates_only_the_simulate_stage() {
    let dir = test_dir("invalidation");

    // Populate: load + one simulation under the paper configuration.
    let store = open(&dir);
    let ctx = BenchCtx::load_with("compress", Scale::Tiny, Arc::clone(&store)).expect("cold");
    let table = ctx.profile.table.clone();
    let base = ctx.sim(SimConfig::paper(4), &table).expect("cold sim");
    assert_eq!(store.misses(Namespace::SimResult), 1);

    // Same closure, fresh handle: everything is served from the store.
    let store = open(&dir);
    let ctx = BenchCtx::load_with("compress", Scale::Tiny, Arc::clone(&store)).expect("warm");
    let warm = ctx.sim(SimConfig::paper(4), &table).expect("warm sim");
    assert_eq!(warm, base, "warm simulation must be bit-identical");
    assert_eq!(store.misses(Namespace::SimResult), 0);
    assert_eq!(store.hits(Namespace::SimResult), 1);

    // Perturb one simulate-stage input.
    let mut changed = SimConfig::paper(4);
    changed.forward_latency += 1;
    let _ = ctx.sim(changed, &table).expect("changed sim");

    // Upstream stages never miss...
    for ns in [
        Namespace::Trace,
        Namespace::Profile,
        Namespace::SpawnTable,
        Namespace::Analysis,
    ] {
        assert_eq!(store.misses(ns), 0, "{ns:?} must not be invalidated");
        assert_eq!(store.invalidations(ns), 0);
    }
    // ...the simulate stage misses, is recorded as an invalidation, and the
    // record blames exactly the configuration component.
    assert_eq!(store.misses(Namespace::SimResult), 1);
    assert_eq!(store.invalidations(Namespace::SimResult), 1);
    let records = store.invalidation_records();
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(records[0].namespace, "simresult");
    assert_eq!(records[0].stage, "simulate");
    assert_eq!(records[0].changed, vec!["sim-config".to_owned()]);

    let _ = fs::remove_dir_all(&dir);
}

/// The cross-input figures run their reference-input simulations through
/// the same contexts as the suite, so `Harness::set_observe` reaches them:
/// a second `fig_adaptation` run with observation on must re-simulate
/// instead of being served the unobserved results of the first.
#[test]
fn observe_reaches_cross_input_figures() {
    let dir = test_dir("observe-adaptation");
    let store = open(&dir);
    let h = Harness::load_at_with(Scale::Tiny, Arc::clone(&store)).expect("suite loads");
    figures::fig_adaptation(&h).expect("unobserved run");

    h.set_observe(true);
    let before = store.misses(Namespace::SimResult);
    figures::fig_adaptation(&h).expect("observed run");
    let misses = store.misses(Namespace::SimResult) - before;
    assert!(misses > 0, "the observed run was served unobserved results");

    let _ = fs::remove_dir_all(&dir);
}

/// `crossinput` reuses the suite's training traces: the only traces it
/// adds to the store are the 8 reference inputs.
#[test]
fn crossinput_adds_only_reference_traces() {
    let dir = test_dir("crossinput-traces");
    let store = open(&dir);
    let h = Harness::load_at_with(Scale::Tiny, Arc::clone(&store)).expect("suite loads");
    let before = store.misses(Namespace::Trace);
    figures::crossinput(&h).expect("crossinput builds");
    assert_eq!(store.misses(Namespace::Trace) - before, 8);

    let _ = fs::remove_dir_all(&dir);
}
