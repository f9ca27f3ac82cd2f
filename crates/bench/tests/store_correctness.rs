//! The artifact store must be invisible: a warm load returns bit-identical
//! results to a cold one, a damaged store silently falls back to
//! regeneration, and a localized input change invalidates exactly the
//! stages that read it. Every test runs against its own explicit
//! [`StoreHandle`] — no process environment is touched.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use specmt_bench::{figures, BenchCtx, Harness};
use specmt_sim::SimConfig;
use specmt_store::{Namespace, Store, StoreConfig, StoreHandle};
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

fn entries_with_ext(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(namespaces) = fs::read_dir(dir) else {
        return out;
    };
    for ns in namespaces.flatten() {
        let Ok(entries) = fs::read_dir(ns.path()) else {
            continue;
        };
        out.extend(
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == ext)),
        );
    }
    out.sort();
    out
}

/// `image` with the continuation bit set on a byte in the middle of its
/// value column, the last column of the container.
fn value_column_continued(image: &[u8]) -> Vec<u8> {
    let word = |at: usize, n: usize| {
        image[at..at + n]
            .iter()
            .rev()
            .fold(0u64, |w, &b| w << 8 | u64::from(b))
    };
    // magic, version, program-JSON length, program JSON, record count.
    let plen = word(8, 4) as usize;
    let count = word(12 + plen, 8);
    // The value column is the image's last `count` varints; each ends in a
    // byte with the continuation bit clear.
    let mut ends = 0;
    let mut out = image.to_vec();
    for (i, &b) in image.iter().enumerate().rev() {
        if b & 0x80 == 0 {
            ends += 1;
            if ends == count / 2 + 1 {
                out[i] |= 0x80;
                return out;
            }
        }
    }
    panic!("no value column in the image");
}

#[test]
fn warm_loads_are_bit_identical_and_corruption_is_survived() {
    let dir = test_dir("correctness");

    // Cold load populates every namespace the loader owns.
    let store = open(&dir);
    let cold = BenchCtx::load_with("gcc", Scale::Tiny, Arc::clone(&store)).expect("cold load");
    let cold_products = products(&cold);
    assert!(
        !entries_with_ext(&dir, "smtr").is_empty(),
        "cold load must write a trace entry"
    );
    assert_eq!(store.hits(Namespace::Trace), 0, "cold store cannot hit");
    assert!(store.stores(Namespace::Trace) >= 1);
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

    // Corrupted trace entries are ignored and regenerated.
    for path in entries_with_ext(&dir, "smtr") {
        fs::write(&path, b"garbage").expect("corrupt trace");
    }
    let recovered =
        BenchCtx::load_with("gcc", Scale::Tiny, open(&dir)).expect("load over corrupt trace");
    assert_eq!(products(&recovered), cold_products);
    for path in entries_with_ext(&dir, "smtr") {
        let len = fs::metadata(&path).expect("trace entry").len();
        assert!(len > 100, "corrupt entry must be rewritten, len {len}");
    }

    // Damage inside the columns is caught by the load itself, not by the
    // first use of the trace: the load rewrites the entry before anything
    // simulates. Setting the continuation bit of a value-column byte merges
    // two values, so the column runs out of bytes; a one-byte truncation
    // cuts the last value.
    let (trace_path, intact) = {
        let paths = entries_with_ext(&dir, "smtr");
        assert_eq!(paths.len(), 1, "one gcc trace entry");
        let bytes = fs::read(&paths[0]).expect("trace entry");
        (paths[0].clone(), bytes)
    };
    let damaged = [
        value_column_continued(&intact),
        intact[..intact.len() - 1].to_vec(),
    ];
    for (case, image) in ["value-column byte", "truncation"].into_iter().zip(damaged) {
        fs::write(&trace_path, &image).expect("damage trace");
        let store = open(&dir);
        let recovered = BenchCtx::load_with("gcc", Scale::Tiny, Arc::clone(&store))
            .unwrap_or_else(|e| panic!("load over {case}: {e}"));
        assert_eq!(
            store.stores(Namespace::Trace),
            1,
            "the load must rewrite the entry after a {case}"
        );
        assert_eq!(
            store.misses(Namespace::SimResult),
            0,
            "nothing simulated yet"
        );
        assert_eq!(fs::read(&trace_path).expect("rewritten entry"), intact);
        assert_eq!(products(&recovered), cold_products, "{case}");
    }

    // Truncated JSON artifacts are likewise silent misses.
    for path in entries_with_ext(&dir, "json") {
        let bytes = fs::read(&path).expect("artifact");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate artifact");
    }
    let recovered =
        BenchCtx::load_with("gcc", Scale::Tiny, open(&dir)).expect("load over truncated json");
    assert_eq!(products(&recovered), cold_products);

    // A stale-layout entry (valid container, wrong content) is rejected by
    // the checksum re-validation: swap in a different workload's trace.
    let alien = BenchCtx::load_with("compress", Scale::Tiny, Store::disabled()).expect("alien");
    let mut alien_bytes = Vec::new();
    alien
        .bench
        .trace()
        .write_to(&mut alien_bytes)
        .expect("serialize");
    for path in entries_with_ext(&dir, "smtr") {
        if path.to_string_lossy().contains("gcc-") {
            fs::write(&path, &alien_bytes).expect("swap trace");
        }
    }
    let recovered =
        BenchCtx::load_with("gcc", Scale::Tiny, open(&dir)).expect("load over swapped trace");
    assert_eq!(products(&recovered), cold_products);

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
    changed.squash_penalty += 1;
    let _ = ctx.sim(changed, &table).expect("changed sim");

    // Upstream stages never miss...
    for ns in [Namespace::Trace, Namespace::Profile, Namespace::SpawnTable, Namespace::Analysis] {
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
