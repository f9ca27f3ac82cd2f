//! Dynamic data-dependence graphs over traces.

use crate::record::MemRank;
use crate::Trace;

/// Sentinel producer index meaning "no producer in the trace" (the operand's
/// value predates execution: an initial register value or pre-loaded
/// memory).
pub const NO_PRODUCER: u32 = u32::MAX;

/// For every dynamic instruction of a [`Trace`], the dynamic indices of the
/// instructions that produced its operands.
///
/// * `reg_producer(k, s)` — producer of the `s`-th register source operand
///   of dynamic instruction `k` (matching [`Inst::srcs`]), or
///   [`NO_PRODUCER`].
/// * `mem_producer(k)` — for loads, the most recent earlier store to the
///   same word address, or [`NO_PRODUCER`].
///
/// Reads of the hardwired-zero register have no producer. Register
/// producers take 8 bytes per record; memory producers are kept for loads
/// and stores only (stores hold [`NO_PRODUCER`]), on the same rank as the
/// trace's [`Trace::mem_addrs`], so they cost 4 bytes per memory record.
///
/// This is the raw material for the paper's *independent* and *predictable*
/// CQIP-ordering criteria (§3.1 criteria b/c) and for the simulator's
/// inter-thread register/memory communication model.
///
/// [`Inst::srcs`]: specmt_isa::Inst::srcs
///
/// # Examples
///
/// ```
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::{DepGraph, Trace, NO_PRODUCER};
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 2); // dyn 0
/// b.addi(Reg::R2, Reg::R1, 1); // dyn 1: consumes dyn 0
/// b.halt();
/// let trace = Trace::generate(b.build()?, 100)?;
/// let deps = DepGraph::build(&trace);
/// assert_eq!(deps.reg_producer(1, 0), 0);
/// assert_eq!(deps.reg_producer(0, 0), NO_PRODUCER);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DepGraph {
    reg_producers: Vec<[u32; 2]>,
    /// One entry per load or store, in trace order; `mem` ranks them.
    mem_producers: Vec<u32>,
    mem: MemRank,
    /// Largest address in the trace, computed once at build so consumers
    /// sizing address-indexed structures (e.g. the compact cache tag
    /// store) need no extra scan per simulation run.
    max_addr: u64,
}

/// Per-static-instruction facts predecoded once per [`DepGraph::build`],
/// so the per-dynamic-instruction pass reads one flat byte-packed entry
/// instead of interrogating the `Inst` enum four times.
#[derive(Clone, Copy)]
struct DepPre {
    /// Source register index per operand slot (`NO_REG` = absent or the
    /// hardwired zero register, which never has a producer).
    src: [u8; 2],
    /// Destination register index, or `NO_REG`.
    dst: u8,
    is_load: bool,
    is_store: bool,
}

const NO_REG: u8 = u8::MAX;

/// Open-addressing `address -> last store index` map with linear probing.
/// Exact-key semantics only (no iteration), so it computes exactly what the
/// `HashMap` it replaces did, minus the hashing and branching overhead.
struct AddrMap {
    /// Slot keys; an empty slot holds `u64::MAX`. Split from the values so
    /// probing scans key words only.
    keys: Vec<u64>,
    vals: Vec<u32>,
    mask: usize,
    /// Out-of-line entry for the one key that collides with the empty
    /// marker (an address of `u64::MAX` is degenerate but must stay
    /// correct).
    max_key: Option<u32>,
}

impl AddrMap {
    fn with_capacity(entries: usize) -> AddrMap {
        // ≤ 50% load factor keeps probe chains short.
        let cap = (entries * 2).next_power_of_two().max(16);
        AddrMap {
            keys: vec![u64::MAX; cap],
            vals: vec![0; cap],
            mask: cap - 1,
            max_key: None,
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing: multiplicative spread of aligned addresses.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        if key == u64::MAX {
            return self.max_key;
        }
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == u64::MAX {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    fn insert(&mut self, key: u64, value: u32) {
        if key == u64::MAX {
            self.max_key = Some(value);
            return;
        }
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key || k == u64::MAX {
                self.keys[i] = key;
                self.vals[i] = value;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }
}

impl DepGraph {
    /// Computes producers for every dynamic instruction of `trace`.
    ///
    /// Runs in a single pass: `O(len)` time, `O(len + distinct addresses)`
    /// space. Static instructions are predecoded up front and the
    /// last-store map is a purpose-built open-addressing table, so the
    /// pass itself is a tight scan over the trace's pc column, with one
    /// cursor into its memory column that advances on each load or store.
    pub fn build(trace: &Trace) -> DepGraph {
        let n = trace.len();
        let addrs = trace.mem_addrs();
        let mut reg_producers = vec![[NO_PRODUCER; 2]; n];
        let mut mem_producers = vec![NO_PRODUCER; addrs.len()];
        let mut last_reg_write = [NO_PRODUCER; specmt_isa::NUM_REGS];

        let program = trace.program();
        let mut pre: Vec<DepPre> = Vec::with_capacity(program.len());
        let mut store_pcs = 0usize;
        for inst in program.insts() {
            let mut p = DepPre {
                src: [NO_REG; 2],
                dst: NO_REG,
                is_load: inst.is_load(),
                is_store: inst.is_store(),
            };
            for (s, r) in inst.srcs().into_iter().enumerate() {
                if let Some(r) = r {
                    if !r.is_zero() {
                        p.src[s] = r.index() as u8;
                    }
                }
            }
            if let Some(d) = inst.dst() {
                if !d.is_zero() {
                    p.dst = d.index() as u8;
                }
            }
            store_pcs += usize::from(p.is_store);
            pre.push(p);
        }
        // Size the map by the dynamic store count — an upper bound on
        // distinct store addresses — so it never needs to grow.
        let dyn_stores = if store_pcs > 0 {
            trace
                .pcs()
                .iter()
                .filter(|&&pc| pre[pc as usize].is_store)
                .count()
        } else {
            0
        };
        let mut last_store = AddrMap::with_capacity(dyn_stores);

        let mut m = 0usize;
        for (k, &pc) in trace.pcs().iter().enumerate() {
            let p = pre[pc as usize];
            if p.src[0] != NO_REG {
                reg_producers[k][0] = last_reg_write[p.src[0] as usize];
            }
            if p.src[1] != NO_REG {
                reg_producers[k][1] = last_reg_write[p.src[1] as usize];
            }
            if p.is_load {
                if let Some(v) = last_store.get(addrs[m]) {
                    mem_producers[m] = v;
                }
                m += 1;
            } else if p.is_store {
                last_store.insert(addrs[m], k as u32);
                m += 1;
            }
            if p.dst != NO_REG {
                last_reg_write[p.dst as usize] = k as u32;
            }
        }

        DepGraph {
            reg_producers,
            mem_producers,
            mem: trace.mem_index().clone(),
            max_addr: addrs.iter().copied().max().unwrap_or(0),
        }
    }

    /// The largest address any dynamic instruction touches (0 for an empty
    /// trace).
    pub fn max_addr(&self) -> u64 {
        self.max_addr
    }

    /// Number of dynamic instructions covered.
    pub fn len(&self) -> usize {
        self.reg_producers.len()
    }

    /// Whether the graph covers an empty trace.
    pub fn is_empty(&self) -> bool {
        self.reg_producers.is_empty()
    }

    /// Producer of the `s`-th register source operand of dynamic
    /// instruction `k` (`s` in `0..2`), or [`NO_PRODUCER`].
    pub fn reg_producer(&self, k: usize, s: usize) -> u32 {
        self.reg_producers[k][s]
    }

    /// Both register-operand producers of dynamic instruction `k`.
    pub fn reg_producers(&self, k: usize) -> [u32; 2] {
        self.reg_producers[k]
    }

    /// Producer store of a load at dynamic index `k`, or [`NO_PRODUCER`].
    /// O(1), through the trace's memory rank index.
    pub fn mem_producer(&self, k: usize) -> u32 {
        self.mem
            .rank(k)
            .map_or(NO_PRODUCER, |r| self.mem_producers[r])
    }

    /// The memory producers of the trace's loads and stores, one per memory
    /// record in trace order (stores hold [`NO_PRODUCER`]): entry
    /// `trace.mem_rank(k)` belongs to dynamic index `k`, as in
    /// [`Trace::mem_addrs`].
    pub fn mem_producers(&self) -> &[u32] {
        &self.mem_producers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};

    fn mem_chain_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x100); // 0
        b.li(Reg::R2, 5); // 1
        b.st(Reg::R2, Reg::R1, 0); // 2: store 5 -> 0x100
        b.ld(Reg::R3, Reg::R1, 0); // 3: load from 0x100 (producer = 2)
        b.st(Reg::R3, Reg::R1, 8); // 4: store -> 0x108
        b.ld(Reg::R4, Reg::R1, 8); // 5: load (producer = 4)
        b.ld(Reg::R5, Reg::R1, 16); // 6: load from untouched memory
        b.halt();
        Trace::generate(b.build().unwrap(), 100).unwrap()
    }

    #[test]
    fn memory_producers_track_addresses() {
        let trace = mem_chain_trace();
        let deps = DepGraph::build(&trace);
        assert_eq!(deps.mem_producer(3), 2);
        assert_eq!(deps.mem_producer(5), 4);
        assert_eq!(deps.mem_producer(6), NO_PRODUCER);
        // Non-loads have no memory producer.
        assert_eq!(deps.mem_producer(2), NO_PRODUCER);
    }

    #[test]
    fn register_producers_follow_last_writer() {
        let trace = mem_chain_trace();
        let deps = DepGraph::build(&trace);
        // Store at dyn 4: srcs = [R3 (from load 3), R1 (from li 0)]
        assert_eq!(deps.reg_producer(4, 0), 3);
        assert_eq!(deps.reg_producer(4, 1), 0);
    }

    #[test]
    fn producers_always_precede_consumers() {
        let trace = mem_chain_trace();
        let deps = DepGraph::build(&trace);
        for k in 0..deps.len() {
            for s in 0..2 {
                let p = deps.reg_producer(k, s);
                if p != NO_PRODUCER {
                    assert!((p as usize) < k);
                }
            }
            let m = deps.mem_producer(k);
            if m != NO_PRODUCER {
                assert!((m as usize) < k);
            }
        }
    }

    #[test]
    fn zero_register_reads_have_no_producer() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1); // dyn 0 (irrelevant)
        b.add(Reg::R2, Reg::ZERO, Reg::ZERO); // dyn 1
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 100).unwrap();
        let deps = DepGraph::build(&trace);
        assert_eq!(deps.reg_producer(1, 0), NO_PRODUCER);
        assert_eq!(deps.reg_producer(1, 1), NO_PRODUCER);
    }
}
