//! The CQIP next-occurrence oracle: where a spawned thread starts.

use std::collections::VecDeque;

use specmt_isa::Pc;
use specmt_trace::{Run, Runs, Trace};

/// For every CQIP of a spawn table, its next dynamic occurrence after a
/// spawn point, found by one forward walk of the trace shared by all CQIPs.
///
/// Spawn attempts arrive at non-decreasing dynamic indices (windows are
/// processed in program order), so the walk only ever advances, and only as
/// far as some query needs. Each CQIP keeps a queue of the occurrences the
/// walk has passed; an occurrence at or before the latest query point can
/// never answer again and is dropped whenever its queue is touched. The
/// queues therefore hold only occurrences between the latest spawn point
/// and the walk's frontier, not the whole trace's. A CQIP's last occurrence
/// is the trace's own per-pc entry ([`Trace::last_occurrence`]), so a
/// query for one that never recurs answers at once instead of walking to
/// the trace end, and building the oracle walks nothing.
#[derive(Debug)]
pub(crate) struct CqipOccurrences<'a> {
    /// Dense CQIP index per static pc (`u32::MAX` for other pcs).
    dense: Vec<u32>,
    /// The first CQIP pc at or after each pc (the program length when
    /// none): a run visits only the CQIPs inside its pc range.
    next_cqip: Vec<u32>,
    /// The last occurrence of each CQIP, if any.
    last: Vec<Option<u32>>,
    /// The walk, and the dynamic index just past the records it has passed.
    runs: Runs<'a>,
    frontier: usize,
    /// Per CQIP, its passed occurrences after `floor`, ascending (entries
    /// at or before `floor` may linger until the queue is next touched).
    queues: Vec<VecDeque<u32>>,
    /// The latest query point.
    floor: usize,
}

impl<'a> CqipOccurrences<'a> {
    /// The oracle for the CQIP pcs `cqip_pcs` (ascending, distinct; dense
    /// CQIP `c` is `cqip_pcs[c]`) over `trace`. A pc beyond the program
    /// simply never occurs.
    pub(crate) fn new(trace: &'a Trace, cqip_pcs: &[u32]) -> CqipOccurrences<'a> {
        let program_len = trace.program().len();
        let mut dense = vec![u32::MAX; program_len];
        for (i, &pc) in cqip_pcs.iter().enumerate() {
            if let Some(d) = dense.get_mut(pc as usize) {
                *d = i as u32;
            }
        }
        let mut next_cqip = vec![program_len as u32; program_len + 1];
        for pc in (0..program_len).rev() {
            next_cqip[pc] = if dense[pc] == u32::MAX {
                next_cqip[pc + 1]
            } else {
                pc as u32
            };
        }
        CqipOccurrences {
            dense,
            next_cqip,
            last: cqip_pcs
                .iter()
                .map(|&pc| trace.last_occurrence(Pc(pc)).map(|k| k as u32))
                .collect(),
            runs: trace.runs(),
            frontier: 0,
            queues: vec![VecDeque::new(); cqip_pcs.len()],
            floor: 0,
        }
    }

    /// Calls `f` with each (dense CQIP, dynamic index) occurrence in `run`.
    fn each_hit(&mut self, run: &Run, mut f: impl FnMut(&mut Self, usize, u32)) {
        let mut pc = self.next_cqip[run.pcs.start as usize];
        while pc < run.pcs.end {
            let k = run.start + (pc - run.pcs.start) as usize;
            let d = self.dense[pc as usize] as usize;
            f(self, d, k as u32);
            pc = self.next_cqip[pc as usize + 1];
        }
    }

    /// The first occurrence of dense CQIP `c` after dynamic index `k`,
    /// provided it comes before `bound` (the next more-speculative
    /// thread's start, if any). `k` must not decrease across calls.
    pub(crate) fn next_after(&mut self, c: usize, k: usize, bound: Option<usize>) -> Option<u32> {
        debug_assert!(k >= self.floor, "spawn points must not go backwards");
        self.floor = k;
        if self.last[c].is_none_or(|l| l as usize <= k) {
            return None;
        }
        loop {
            let floor = self.floor;
            let queue = &mut self.queues[c];
            while queue.front().is_some_and(|&j| j as usize <= floor) {
                queue.pop_front();
            }
            if let Some(&j) = queue.front() {
                return bound.is_none_or(|b| (j as usize) < b).then_some(j);
            }
            // Nothing passed yet: walk on, unless any later occurrence
            // would fall at or beyond the bound anyway.
            if bound.is_some_and(|b| self.frontier >= b) {
                return None;
            }
            let run = self.runs.next()?;
            self.frontier = run.start + run.pcs.len();
            self.each_hit(&run, |oracle, d, j| {
                if j as usize > floor {
                    let queue = &mut oracle.queues[d];
                    while queue.front().is_some_and(|&x| x as usize <= floor) {
                        queue.pop_front();
                    }
                    queue.push_back(j);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};

    /// Nested counted loops: pcs recur at short (inner body), long (outer
    /// body) and no (prologue, exit) distances.
    fn nested_loops() -> Trace {
        let mut b = ProgramBuilder::new();
        let outer = b.fresh_label("outer");
        let inner = b.fresh_label("inner");
        b.li(Reg::R1, 0);
        b.bind(outer);
        b.li(Reg::R2, 0);
        b.bind(inner);
        b.addi(Reg::R2, Reg::R2, 1);
        b.slt(Reg::R3, Reg::R2, Reg::R1);
        b.blt(Reg::R2, Reg::R1, inner);
        b.addi(Reg::R1, Reg::R1, 1);
        b.li(Reg::R4, 12);
        b.blt(Reg::R1, Reg::R4, outer);
        b.halt();
        Trace::generate(b.build().unwrap(), 100_000).unwrap()
    }

    #[test]
    fn answers_match_a_scan_of_the_pc_stream() {
        let trace = nested_loops();
        let pcs: Vec<Pc> = trace.pcs().collect();
        let program_len = trace.program().len() as u32;
        // Every pc is a CQIP, plus one beyond the program.
        let cqip_pcs: Vec<u32> = (0..=program_len).collect();
        let check = |oracle: &mut CqipOccurrences, c: usize, k: usize, bound: Option<usize>| {
            let expected = pcs[k + 1..]
                .iter()
                .position(|&pc| pc.0 == cqip_pcs[c])
                .map(|i| (k + 1 + i) as u32)
                .filter(|&j| bound.is_none_or(|b| (j as usize) < b));
            assert_eq!(
                oracle.next_after(c, k, bound),
                expected,
                "CQIP pc {} after {k} (bound {bound:?})",
                cqip_pcs[c]
            );
        };
        let bound = |k: usize, salt: usize| (!salt.is_multiple_of(3)).then_some(k + 1 + salt % 50);
        for stride in [1, 3, 7, 40] {
            // One oracle answering every CQIP at each spawn point, whose
            // walk runs ahead of most queries...
            let mut shared = CqipOccurrences::new(&trace, &cqip_pcs);
            for (step, k) in (0..trace.len()).step_by(stride).enumerate() {
                for c in 0..cqip_pcs.len() {
                    check(&mut shared, c, k, bound(k, step + c));
                }
            }
            // ...and one per CQIP, whose walk stops right where its
            // queries need it.
            for c in 0..cqip_pcs.len() {
                let mut single = CqipOccurrences::new(&trace, &cqip_pcs);
                for (step, k) in (0..trace.len()).step_by(stride).enumerate() {
                    check(&mut single, c, k, bound(k, step));
                }
            }
        }
    }
}
