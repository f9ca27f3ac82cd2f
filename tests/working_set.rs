//! Working-set bounds: a simulation and a profile selection allocate
//! scratch that scales with registers, blocks and memory records, never
//! with trace length.
//!
//! A counting global allocator tracks live heap bytes and their peak. Each
//! check first builds what a run shares with later runs (the trace, its
//! dependence graph, the spawn table), then measures the heap peak of one
//! `Bench::run` or one `profile_pairs` above the live bytes at its start.
//! Some of that peak is fixed machine state whatever the trace length (16
//! L1 tag stores, 16 gshare tables, the value predictor's table), so each
//! workload runs at two trace lengths, tiny and small, and the peak may grow
//! by less than one byte per record the small trace adds. Scratch of one
//! `u32` per record, such as a completion time per dynamic instruction,
//! grows by four.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use specmt::predict::ValuePredictorKind;
use specmt::sim::SimConfig;
use specmt::spawn::{profile_pairs, OrderCriterion, ProfileConfig};
use specmt::workloads::Scale;
use specmt::Bench;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Serialises the tests of this binary: the counters are process-wide, so
/// one test's setup must not run inside another's measurement.
static SERIAL: Mutex<()> = Mutex::new(());

/// Peak heap bytes `f` allocated above the live bytes at its start.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// Runs `measure` on every workload at the tiny and small scales (trace
/// and dependence graph already built) and asserts that its peak heap
/// growth rises by less than one byte per record from one to the other.
fn assert_bounded(what: &str, measure: impl Fn(&Bench) -> usize) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut over = Vec::new();
    let tiny = Bench::suite(Scale::Tiny).expect("tiny suite traces");
    let small = Bench::suite(Scale::Small).expect("small suite traces");
    for (tiny, small) in tiny.iter().zip(&small) {
        let [(n0, g0), (n1, g1)] = [tiny, small].map(|bench| {
            let records = bench.trace().len();
            let _ = bench.deps();
            (records, measure(bench))
        });
        let slope = (g1 as f64 - g0 as f64) / (n1 - n0) as f64;
        println!(
            "{what} {}: {g0} B peak at {n0} records, {g1} B at {n1} ({slope:.3} B per added record)",
            small.name()
        );
        if slope >= 1.0 {
            over.push(small.name());
        }
    }
    assert!(
        over.is_empty(),
        "{what}: peak heap growth rises by 1 B or more per trace record on {over:?}"
    );
}

#[test]
fn a_simulation_allocates_under_a_byte_per_record() {
    let config = SimConfig::paper(16).with_value_predictor(ValuePredictorKind::Stride);
    assert_bounded("simulation", |bench| {
        let table = bench.profile_table(&ProfileConfig::default()).table;
        let (result, growth) = peak_growth(|| bench.run(config.clone(), &table));
        result.expect("simulation succeeds");
        growth
    });
}

#[test]
fn a_profile_selection_allocates_under_a_byte_per_record() {
    let config = ProfileConfig {
        criterion: OrderCriterion::Independent,
        ..ProfileConfig::default()
    };
    assert_bounded("selection", |bench| {
        let (result, growth) = peak_growth(|| profile_pairs(bench.trace(), &config));
        std::hint::black_box(result);
        growth
    });
}
