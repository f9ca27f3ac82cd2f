//! Concurrent store population must be safe and invisible: eight threads
//! racing to populate the same store (two per benchmark, same keys) produce
//! exactly the results a store-off run produces, and leave a store a fresh
//! handle serves entirely from disk — no torn entries, nothing but the
//! store's log in its directory.

use std::fs;
use std::sync::Arc;

use specmt_bench::BenchCtx;
use specmt_sim::{SimConfig, SimResult};
use specmt_store::{Namespace, Store, StoreConfig};
use specmt_workloads::Scale;

const BENCHES: [&str; 4] = ["go", "compress", "li", "ijpeg"];

fn run_one(ctx: &BenchCtx) -> (u64, SimResult) {
    let baseline = ctx.bench.baseline_cycles().expect("baseline");
    let r = ctx
        .sim(SimConfig::paper(4), &ctx.profile.table)
        .expect("simulation");
    (baseline, r)
}

#[test]
fn eight_way_concurrent_population_is_bit_identical_and_clean() {
    let dir = std::env::temp_dir().join(format!("specmt-store-race-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Reference: the same cells with the store disabled.
    let reference: Vec<(u64, SimResult)> = BENCHES
        .iter()
        .map(|name| {
            let ctx = BenchCtx::load_with(name, Scale::Tiny, Store::disabled()).expect("reference");
            run_one(&ctx)
        })
        .collect();

    // Eight threads, two racing writers per benchmark: both compute the
    // same keys cold and race their puts (each put is one append, the last
    // record for a key wins, and readers never index a torn record).
    let store = Store::open(StoreConfig::at(&dir));
    let results: Vec<(usize, (u64, SimResult))> = std::thread::scope(|s| {
        // Spawn all eight before joining any — the intermediate Vec is what
        // makes the writers actually race.
        let mut handles = Vec::new();
        for i in 0..8 {
            let store = Arc::clone(&store);
            handles.push(s.spawn(move || {
                let name = BENCHES[i % BENCHES.len()];
                let ctx = BenchCtx::load_with(name, Scale::Tiny, store).expect("concurrent load");
                (i % BENCHES.len(), run_one(&ctx))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });
    for (bench_idx, products) in &results {
        assert_eq!(
            products, &reference[*bench_idx],
            "concurrent run of `{}` diverged from the store-off reference",
            BENCHES[*bench_idx]
        );
    }

    // Every writer appended to the one log: no entry or temp files.
    let files: Vec<_> = fs::read_dir(&dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.file_name())
        .collect();
    assert_eq!(
        files,
        ["store.log"],
        "the store directory holds only the log"
    );

    // A fresh handle serves every stage of every benchmark from the store.
    let store = Store::open(StoreConfig::at(&dir));
    for name in BENCHES {
        let ctx = BenchCtx::load_with(name, Scale::Tiny, Arc::clone(&store)).expect("warm load");
        let i = BENCHES.iter().position(|&n| n == name).expect("bench");
        assert_eq!(run_one(&ctx), reference[i]);
    }
    for ns in [
        Namespace::Trace,
        Namespace::Profile,
        Namespace::SpawnTable,
        Namespace::Analysis,
        Namespace::SimResult,
    ] {
        assert_eq!(store.misses(ns), 0, "warm {ns:?} pass must not miss");
        assert!(store.hits(ns) >= BENCHES.len() as u64);
    }

    let _ = fs::remove_dir_all(&dir);
}
