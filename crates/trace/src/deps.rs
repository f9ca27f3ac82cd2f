//! Dynamic data-dependence graphs over traces.

use std::sync::Arc;

use crate::record::Rank;
use crate::Trace;

/// Sentinel producer index meaning "no producer in the trace" (the operand's
/// value predates execution: an initial register value or pre-loaded
/// memory).
pub const NO_PRODUCER: u32 = u32::MAX;

/// For every load of a [`Trace`], the dynamic index of the most recent
/// earlier store to the same word address ([`DepGraph::mem_producer`]), or
/// [`NO_PRODUCER`].
///
/// Memory producers are kept for loads and stores only (stores hold
/// [`NO_PRODUCER`]), on the same rank as the trace's [`Trace::mem_addrs`]
/// and through the trace's own rank index, so the graph costs 4 bytes per
/// memory record and nothing per other record. Register producers are not
/// stored: a register's producer is its last writer, which the passes that
/// need it (the simulator and the dependence scorer) track with a
/// 32-entry table as they walk the trace forward.
///
/// This is the memory half of the raw material for the paper's
/// *independent* and *predictable* CQIP-ordering criteria (§3.1 criteria
/// b/c) and for the simulator's inter-thread memory communication model.
///
/// # Examples
///
/// ```
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::{DepGraph, Trace, NO_PRODUCER};
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 0x100); // dyn 0
/// b.st(Reg::R1, Reg::R1, 0); // dyn 1: store to 0x100
/// b.ld(Reg::R2, Reg::R1, 0); // dyn 2: reads what dyn 1 stored
/// b.ld(Reg::R3, Reg::R1, 8); // dyn 3: untouched memory
/// b.halt();
/// let trace = Trace::generate(b.build()?, 100)?;
/// let deps = DepGraph::build(&trace);
/// assert_eq!(deps.mem_producer(2), 1);
/// assert_eq!(deps.mem_producer(3), NO_PRODUCER);
/// assert_eq!(deps.mem_producers().len(), trace.mem_addrs().len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// One entry per load or store, in trace order; `mem` ranks them.
    mem_producers: Vec<u32>,
    /// The trace's rank index, shared rather than copied.
    mem: Arc<Rank>,
    /// Largest address in the trace, computed once at build so consumers
    /// sizing address-indexed structures (e.g. the compact cache tag
    /// store) need no extra scan per simulation run.
    max_addr: u64,
}

/// Per-static-instruction facts predecoded once per [`DepGraph::build`],
/// so the per-dynamic-instruction pass reads one flat entry instead of
/// interrogating the `Inst` enum.
#[derive(Clone, Copy)]
struct DepPre {
    is_load: bool,
    is_store: bool,
}

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
    /// Computes the memory producer of every load of `trace`.
    ///
    /// Runs in a single pass: `O(len)` time, `O(memory records + distinct
    /// store addresses)` space. Static instructions are predecoded up front
    /// and the last-store map is a purpose-built open-addressing table, so
    /// the pass itself is a tight scan over the trace's straight-line runs
    /// of pcs, with one cursor into its memory column that advances on each
    /// load or store.
    pub fn build(trace: &Trace) -> DepGraph {
        let addrs = trace.mem_addrs();
        let mut mem_producers = vec![NO_PRODUCER; addrs.len()];

        let program = trace.program();
        let mut pre: Vec<DepPre> = Vec::with_capacity(program.len());
        // Stores among the static instructions before each pc.
        let mut stores_before: Vec<usize> = Vec::with_capacity(program.len() + 1);
        stores_before.push(0);
        for inst in program.insts() {
            let p = DepPre {
                is_load: inst.is_load(),
                is_store: inst.is_store(),
            };
            stores_before.push(stores_before[pre.len()] + usize::from(p.is_store));
            pre.push(p);
        }
        // Size the map by the dynamic store count — an upper bound on
        // distinct store addresses — so it never needs to grow. A run's
        // stores are its pc range's.
        let dyn_stores = if stores_before[program.len()] > 0 {
            trace
                .runs()
                .map(|run| {
                    stores_before[run.pcs.end as usize] - stores_before[run.pcs.start as usize]
                })
                .sum()
        } else {
            0
        };
        let mut last_store = AddrMap::with_capacity(dyn_stores);

        let mut m = 0usize;
        for run in trace.runs() {
            for (k, pc) in (run.start..).zip(run.pcs) {
                let p = pre[pc as usize];
                if p.is_load {
                    if let Some(v) = last_store.get(addrs[m]) {
                        mem_producers[m] = v;
                    }
                    m += 1;
                } else if p.is_store {
                    last_store.insert(addrs[m], k as u32);
                    m += 1;
                }
            }
        }

        DepGraph {
            mem_producers,
            mem: Arc::clone(trace.mem_index()),
            max_addr: addrs.iter().copied().max().unwrap_or(0),
        }
    }

    /// The largest address any dynamic instruction touches (0 for an empty
    /// trace).
    pub fn max_addr(&self) -> u64 {
        self.max_addr
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
    fn producers_always_precede_consumers() {
        let trace = mem_chain_trace();
        let deps = DepGraph::build(&trace);
        for k in 0..trace.len() {
            let m = deps.mem_producer(k);
            if m != NO_PRODUCER {
                assert!((m as usize) < k);
            }
        }
    }

    #[test]
    fn graph_grows_with_memory_records_only() {
        // No loads or stores: the producer column is empty however long
        // the trace.
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 500);
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 10_000).unwrap();
        assert!(trace.len() > 1000);
        let deps = DepGraph::build(&trace);
        assert!(deps.mem_producers().is_empty());
        assert!((0..trace.len()).all(|k| deps.mem_producer(k) == NO_PRODUCER));

        // In general, one entry per load or store.
        let trace = mem_chain_trace();
        let deps = DepGraph::build(&trace);
        assert_eq!(trace.mem_addrs().len(), 5);
        assert_eq!(deps.mem_producers().len(), trace.mem_addrs().len());
        // The rank index is the trace's own, not a copy.
        assert!(Arc::ptr_eq(&deps.mem, trace.mem_index()));
    }
}
