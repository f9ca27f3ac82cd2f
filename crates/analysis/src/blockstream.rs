//! Dynamic traces re-expressed as basic-block execution streams.

use specmt_trace::Trace;

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

/// A [`Trace`] grouped into basic-block execution events.
///
/// Because all control targets are block leaders, every block is entered at
/// its first instruction, so the grouping is unambiguous: a new event begins
/// exactly when the dynamic pc equals some block's start.
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
/// assert_eq!(stream.events().len(), 1);
/// assert_eq!(stream.total_instructions(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockStream {
    events: Vec<BlockEvent>,
    num_blocks: usize,
    total_instructions: u64,
}

impl BlockStream {
    /// Groups `trace` into block events using the decomposition `bbs`.
    ///
    /// A trace generated from the same program the decomposition came from
    /// always enters blocks at their start; a record that does not (possible
    /// only for hand-assembled record streams) opens a fresh event at its
    /// own pc rather than corrupting a neighbour's length.
    pub fn new(trace: &Trace, bbs: &BasicBlocks) -> BlockStream {
        let mut events: Vec<BlockEvent> = Vec::new();
        // A straight-line run crosses blocks only at their ends, so it
        // splits into one stretch per block it passes through.
        for run in trace.runs() {
            let mut k = run.start;
            let mut raw = run.pcs.start;
            while raw < run.pcs.end {
                let pc = specmt_isa::Pc(raw);
                let block = bbs.block_of(pc);
                let block_end = bbs.start(block).0 + bbs.len_of(block);
                let n = block_end.min(run.pcs.end) - raw;
                match events.last_mut() {
                    Some(cur) if bbs.start(block) != pc && cur.block == block => cur.len += n,
                    _ => {
                        debug_assert_eq!(bbs.start(block), pc, "mid-block entry in trace");
                        events.push(BlockEvent {
                            block,
                            len: n,
                            first_dyn: k as u32,
                        });
                    }
                }
                raw += n;
                k += n as usize;
            }
        }
        BlockStream {
            events,
            num_blocks: bbs.num_blocks(),
            total_instructions: trace.len() as u64,
        }
    }

    /// The block events, in execution order.
    pub fn events(&self) -> &[BlockEvent] {
        &self.events
    }

    /// Number of blocks in the underlying decomposition.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Total dynamic instructions covered by the stream.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Per-block totals: `(occurrences, instructions executed)`.
    pub fn block_totals(&self) -> Vec<(u64, u64)> {
        let mut totals = vec![(0u64, 0u64); self.num_blocks];
        for e in &self.events {
            let t = &mut totals[e.block as usize];
            t.0 += 1;
            t.1 += e.len as u64;
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};

    fn loop_stream(n: i64) -> (BlockStream, usize) {
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
        let trace = Trace::generate(program, 100_000).unwrap();
        let len = trace.len();
        (BlockStream::new(&trace, &bbs), len)
    }

    #[test]
    fn loop_produces_one_event_per_iteration() {
        let (stream, trace_len) = loop_stream(5);
        // entry block, 5 loop-body events, halt block
        assert_eq!(stream.events().len(), 7);
        let body_events: Vec<&BlockEvent> =
            stream.events().iter().filter(|e| e.block == 1).collect();
        assert_eq!(body_events.len(), 5);
        assert!(body_events.iter().all(|e| e.len == 2));
        let sum: u64 = stream.events().iter().map(|e| e.len as u64).sum();
        assert_eq!(sum, trace_len as u64);
        assert_eq!(stream.total_instructions(), trace_len as u64);
    }

    #[test]
    fn first_dyn_indices_are_strictly_increasing() {
        let (stream, _) = loop_stream(10);
        for w in stream.events().windows(2) {
            assert!(w[0].first_dyn < w[1].first_dyn);
        }
    }

    #[test]
    fn block_totals_match_events() {
        let (stream, _) = loop_stream(4);
        let totals = stream.block_totals();
        assert_eq!(totals[0], (1, 2)); // entry executes once, 2 instructions
        assert_eq!(totals[1], (4, 8)); // body: 4 occurrences of 2 instructions
        assert_eq!(totals[2], (1, 1)); // halt
    }
}
