//! Call→return-point pair mining.

use std::collections::HashMap;

use specmt_isa::Pc;
use specmt_trace::Trace;

use crate::{PairOrigin, SpawnPair};

/// Per-call-site statistics gathered while matching calls to returns in a
/// trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReturnPairStats {
    /// The call instruction (the spawning point).
    pub call_pc: Pc,
    /// Dynamic executions of the call.
    pub calls: u64,
    /// Calls whose matching return was observed.
    pub returns: u64,
    /// Average instructions from the call to the instruction after it
    /// (i.e. across the whole callee execution), over matched calls.
    pub avg_dist: f64,
}

/// Mines call→return-point spawning pairs from a trace (§3.1's final step).
///
/// The paper adds all pairs of subroutine calls and their return points that
/// satisfy the minimum size constraint, because functions called from
/// multiple sites dilute each site's reaching probability below the
/// threshold even though a call virtually always reaches its own return
/// point.
///
/// Calls and returns are matched by nesting depth in one pass over the
/// trace. Unreturned calls (still open when the program halts) count
/// against the pair's probability.
///
/// Returns the pairs with `avg_dist >= min_distance` plus the raw per-site
/// statistics.
pub fn return_pairs(trace: &Trace, min_distance: f64) -> (Vec<SpawnPair>, Vec<ReturnPairStats>) {
    // Open calls: stack of (call pc, dynamic index).
    let mut stack: Vec<(Pc, usize)> = Vec::new();
    // Per call-site: (calls, matched returns, total distance).
    let mut sites: HashMap<u32, (u64, u64, u64)> = HashMap::new();

    let insts = trace.program().insts();
    for (k, pc) in trace.pcs().enumerate() {
        let inst = &insts[pc.index()];
        if inst.is_call() {
            sites.entry(pc.0).or_default().0 += 1;
            stack.push((pc, k));
        } else if inst.is_ret() {
            if let Some((call_pc, call_k)) = stack.pop() {
                let e = sites.entry(call_pc.0).or_default();
                e.1 += 1;
                // The return point executes at dynamic index k + 1.
                e.2 += (k + 1 - call_k) as u64;
            }
        }
    }

    let mut stats: Vec<ReturnPairStats> = sites
        .into_iter()
        .map(|(pc, (calls, returns, dist))| ReturnPairStats {
            call_pc: Pc(pc),
            calls,
            returns,
            avg_dist: if returns == 0 {
                0.0
            } else {
                dist as f64 / returns as f64
            },
        })
        .collect();
    stats.sort_by_key(|s| s.call_pc);

    let pairs = stats
        .iter()
        .filter(|s| s.returns > 0 && s.avg_dist >= min_distance)
        .map(|s| SpawnPair {
            sp: s.call_pc,
            cqip: s.call_pc.next(),
            prob: s.returns as f64 / s.calls as f64,
            avg_dist: s.avg_dist,
            score: s.avg_dist,
            origin: PairOrigin::ReturnPair,
        })
        .collect();
    (pairs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};

    /// A driver calling a 40-instruction leaf function 10 times.
    fn call_heavy() -> Trace {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 10);
        b.bind(top);
        b.call("leaf");
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.begin_func("leaf");
        for _ in 0..40 {
            b.addi(Reg::R3, Reg::R3, 1);
        }
        b.ret();
        b.end_func();
        Trace::generate(b.build().unwrap(), 100_000).unwrap()
    }

    #[test]
    fn finds_call_site_with_correct_distance() {
        let trace = call_heavy();
        let (pairs, stats) = return_pairs(&trace, 32.0);
        assert_eq!(pairs.len(), 1);
        let p = pairs[0];
        assert_eq!(p.sp, Pc(2)); // the call instruction
        assert_eq!(p.cqip, Pc(3)); // the instruction after it
                                   // call + 40 body + ret = 42 dynamic instructions to the return point.
        assert_eq!(p.avg_dist, 42.0);
        assert_eq!(p.prob, 1.0);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].calls, 10);
        assert_eq!(stats[0].returns, 10);
    }

    #[test]
    fn short_callees_are_filtered() {
        let trace = call_heavy();
        let (pairs, _) = return_pairs(&trace, 100.0);
        assert!(pairs.is_empty());
    }

    #[test]
    fn nested_calls_match_by_depth() {
        let mut b = ProgramBuilder::new();
        b.call("outer");
        b.halt();
        b.begin_func("outer");
        b.prologue();
        for _ in 0..20 {
            b.nop();
        }
        b.call("inner");
        b.epilogue_ret();
        b.end_func();
        b.begin_func("inner");
        for _ in 0..35 {
            b.nop();
        }
        b.ret();
        b.end_func();
        let trace = Trace::generate(b.build().unwrap(), 10_000).unwrap();
        let (pairs, stats) = return_pairs(&trace, 30.0);
        // Both call sites qualify; distances nest correctly.
        assert_eq!(stats.len(), 2);
        assert_eq!(pairs.len(), 2);
        let outer = pairs.iter().find(|p| p.sp == Pc(0)).unwrap();
        let inner = pairs.iter().find(|p| p.sp != Pc(0)).unwrap();
        assert!(outer.avg_dist > inner.avg_dist);
        // inner: call + 35 nops + ret = 37.
        assert_eq!(inner.avg_dist, 37.0);
    }

    #[test]
    fn unreturned_calls_lower_probability() {
        // A function that halts instead of returning half the time.
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 4);
        b.bind(top);
        b.call("maybe");
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.begin_func("maybe");
        let fine = b.fresh_label("fine");
        b.li(Reg::R5, 3);
        for _ in 0..40 {
            b.nop();
        }
        b.blt(Reg::R1, Reg::R5, fine);
        b.halt(); // the 4th call never returns
        b.bind(fine);
        b.ret();
        b.end_func();
        let trace = Trace::generate(b.build().unwrap(), 10_000).unwrap();
        let (pairs, _) = return_pairs(&trace, 32.0);
        assert_eq!(pairs.len(), 1);
        assert!((pairs[0].prob - 0.75).abs() < 1e-12);
    }
}
