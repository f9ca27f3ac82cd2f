//! Dynamic traces re-expressed as basic-block execution streams.

use specmt_isa::Pc;
use specmt_trace::{Runs, Trace};

use crate::{BasicBlocks, BlockId};

/// One dynamic execution of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEvent {
    /// Which block executed.
    pub block: BlockId,
    /// Instructions executed in this occurrence (equals the block's static
    /// length except possibly for the final, truncated event of a
    /// step-limited trace).
    pub len: u32,
    /// Dynamic index (into the trace) of the block's first instruction.
    pub first_dyn: u32,
}

/// A [`Trace`] grouped into basic-block execution events: a view that
/// walks the trace's straight-line runs afresh on every call to
/// [`BlockStream::events`], so it holds no per-event state.
///
/// Because all static control targets are block leaders, a block is
/// entered at its first instruction except through a return to a computed
/// address, so a new event begins when the dynamic pc is some block's
/// start (see [`BlockStream::new`] for the exception).
///
/// The stream borrows the trace and keeps its own copy of the (static,
/// program-sized) block decomposition.
///
/// # Examples
///
/// ```
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::Trace;
/// use specmt_analysis::{BasicBlocks, BlockStream};
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 3);
/// b.halt();
/// let program = b.build()?;
/// let bbs = BasicBlocks::of(&program);
/// let trace = Trace::generate(program, 100)?;
/// let stream = BlockStream::new(&trace, &bbs);
/// assert_eq!(stream.events().count(), 1);
/// assert_eq!(stream.total_instructions(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockStream<'t> {
    trace: &'t Trace,
    bbs: BasicBlocks,
}

impl<'t> BlockStream<'t> {
    /// The block events of `trace` under the decomposition `bbs`.
    ///
    /// A record that enters its block mid-way (only a return to a computed
    /// address can) extends the open event when that event is of the same
    /// block, and otherwise opens a fresh event at its own pc rather than
    /// corrupting a neighbour's length.
    pub fn new(trace: &'t Trace, bbs: &BasicBlocks) -> BlockStream<'t> {
        BlockStream {
            trace,
            bbs: bbs.clone(),
        }
    }

    /// The block events, in execution order: one walk over the trace.
    pub fn events(&self) -> impl Iterator<Item = BlockEvent> + '_ {
        Events {
            bbs: &self.bbs,
            runs: self.trace.runs(),
            k: 0,
            raw: 0,
            end: 0,
            pending: None,
        }
    }

    /// Number of blocks in the underlying decomposition.
    pub fn num_blocks(&self) -> usize {
        self.bbs.num_blocks()
    }

    /// Total dynamic instructions covered by the stream.
    pub fn total_instructions(&self) -> u64 {
        self.trace.len() as u64
    }
}

/// The walk behind [`BlockStream::events`]: a straight-line run crosses
/// blocks only at their ends, so it splits into one stretch per block it
/// passes through, and each stretch opens an event (or, entering its
/// block mid-way, extends the open one).
struct Events<'s> {
    bbs: &'s BasicBlocks,
    runs: Runs<'s>,
    /// Dynamic index and pc of the current run's next record, and the
    /// run's pc end.
    k: usize,
    raw: u32,
    end: u32,
    /// The open event: complete once the next stretch opens another.
    pending: Option<BlockEvent>,
}

impl Iterator for Events<'_> {
    type Item = BlockEvent;

    fn next(&mut self) -> Option<BlockEvent> {
        loop {
            if self.raw == self.end {
                let Some(run) = self.runs.next() else {
                    return self.pending.take();
                };
                self.k = run.start;
                self.raw = run.pcs.start;
                self.end = run.pcs.end;
            }
            let pc = Pc(self.raw);
            let block = self.bbs.block_of(pc);
            let start = self.bbs.start(block);
            let n = (start.0 + self.bbs.len_of(block)).min(self.end) - self.raw;
            let first_dyn = self.k as u32;
            self.raw += n;
            self.k += n as usize;
            match &mut self.pending {
                Some(cur) if start != pc && cur.block == block => cur.len += n,
                pending => {
                    let open = BlockEvent {
                        block,
                        len: n,
                        first_dyn,
                    };
                    if let Some(done) = pending.replace(open) {
                        return Some(done);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};

    fn loop_trace(n: i64) -> (Trace, BasicBlocks) {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let program = b.build().unwrap();
        let bbs = BasicBlocks::of(&program);
        (Trace::generate(program, 100_000).unwrap(), bbs)
    }

    #[test]
    fn loop_produces_one_event_per_iteration() {
        let (trace, bbs) = loop_trace(5);
        let stream = BlockStream::new(&trace, &bbs);
        let events: Vec<BlockEvent> = stream.events().collect();
        // entry block, 5 loop-body events, halt block
        assert_eq!(events.len(), 7);
        let body_events: Vec<&BlockEvent> = events.iter().filter(|e| e.block == 1).collect();
        assert_eq!(body_events.len(), 5);
        assert!(body_events.iter().all(|e| e.len == 2));
        let sum: u64 = events.iter().map(|e| e.len as u64).sum();
        assert_eq!(sum, trace.len() as u64);
        assert_eq!(stream.total_instructions(), trace.len() as u64);
    }

    #[test]
    fn first_dyn_indices_are_strictly_increasing() {
        let (trace, bbs) = loop_trace(10);
        let events: Vec<BlockEvent> = BlockStream::new(&trace, &bbs).events().collect();
        for w in events.windows(2) {
            assert!(w[0].first_dyn < w[1].first_dyn);
        }
    }

    #[test]
    fn block_totals_match_events() {
        let (trace, bbs) = loop_trace(4);
        let cfg = crate::DynCfg::build(&BlockStream::new(&trace, &bbs), &bbs);
        let totals = |b| (cfg.node(b).occurrences, cfg.node(b).instructions);
        assert_eq!(totals(0), (1, 2)); // entry executes once, 2 instructions
        assert_eq!(totals(1), (4, 8)); // body: 4 occurrences of 2 instructions
        assert_eq!(totals(2), (1, 1)); // halt
    }

    #[test]
    fn every_walk_yields_the_same_events() {
        let (trace, bbs) = loop_trace(6);
        let stream = BlockStream::new(&trace, &bbs);
        let first: Vec<BlockEvent> = stream.events().collect();
        assert_eq!(first, stream.events().collect::<Vec<_>>());
    }
}
