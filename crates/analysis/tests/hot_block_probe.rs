//! How `ReachingAnalysis::compute` scales with hot blocks: a probe, not a
//! regression gate, so it is ignored by default. Run it with
//!
//! ```text
//! cargo test --release -p specmt-analysis --test hot_block_probe -- --ignored --nocapture
//! ```
//!
//! One loop body holds `N` two-way diamonds whose branches follow bits of
//! a linear congruential generator, and each trace has about 300 k
//! instructions. For each `N` the probe times `compute` on the blocks
//! kept at 90 % coverage and reads, through a counting global allocator,
//! the peak heap the call adds. The largest size allocates about 200 MiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use specmt_analysis::{BasicBlocks, BlockStream, DynCfg, ReachingAnalysis};
use specmt_isa::{Program, ProgramBuilder, Reg};
use specmt_trace::Trace;

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

/// Instructions per trace, roughly.
const TRACE_INSTRUCTIONS: usize = 300_000;

/// A loop over `n` two-way diamonds: each draws the next LCG state and
/// branches on one of its bits, so both arms of every diamond stay hot.
fn diamonds(n: usize) -> Program {
    let iterations = (TRACE_INSTRUCTIONS / (7 * n)).max(1) as i64;
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    b.li(Reg::R1, 0);
    b.li(Reg::R2, iterations);
    b.li(Reg::R3, 0x2545_F491);
    b.bind(top);
    for d in 0..n {
        let other = b.fresh_label(&format!("else{d}"));
        let join = b.fresh_label(&format!("join{d}"));
        b.muli(Reg::R3, Reg::R3, 1_103_515_245);
        b.addi(Reg::R3, Reg::R3, 12_345);
        b.shri(Reg::R4, Reg::R3, 16 + (d % 8) as i64);
        b.andi(Reg::R4, Reg::R4, 1);
        b.beq(Reg::R4, Reg::ZERO, other);
        b.addi(Reg::R5, Reg::R5, 1);
        b.j(join);
        b.bind(other);
        b.addi(Reg::R6, Reg::R6, 1);
        b.bind(join);
    }
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.build().expect("the probe program is structurally valid")
}

#[test]
#[ignore = "a scaling probe: about 200 MiB and a few seconds at the largest size"]
fn compute_scales_with_hot_blocks() {
    println!("| diamonds | records | kept blocks | `compute` | extra heap peak | bytes per pair | pairs at (0.95, 32) |");
    println!("|---|---|---|---|---|---|---|");
    for n in [16, 64, 150, 300, 600, 1200, 2000] {
        let program = diamonds(n);
        let bbs = BasicBlocks::of(&program);
        let trace = Trace::generate(program, 10_000_000).expect("the probe halts");
        let stream = BlockStream::new(&trace, &bbs);
        let mut cfg = DynCfg::build(&stream, &bbs);
        cfg.prune_to_coverage(0.9);
        let kept = cfg.kept_blocks();

        let base = LIVE.load(Ordering::Relaxed);
        PEAK.store(base, Ordering::Relaxed);
        let start = Instant::now();
        let reach = ReachingAnalysis::compute(&stream, &kept);
        let elapsed = start.elapsed();
        let peak = PEAK.load(Ordering::Relaxed) - base;

        let pairs = reach.pairs(0.95, 32.0).len();
        let cells = kept.len() * kept.len();
        println!(
            "| {n} | {} | {} | {:.1} ms | {:.1} MiB | {:.1} | {pairs} |",
            trace.len(),
            kept.len(),
            elapsed.as_secs_f64() * 1e3,
            peak as f64 / (1 << 20) as f64,
            peak as f64 / cells as f64,
        );
        // One `[reach, dist]` cell of 16 bytes per tracked pair, plus
        // window state of one bit per pair and per-block vectors.
        assert!(
            peak <= 17 * cells + (1 << 16),
            "{n} diamonds: {peak} B peak for {cells} tracked pairs"
        );
    }
}
