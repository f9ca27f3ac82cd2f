//! Dynamic instruction records and traces.

use std::sync::{Arc, OnceLock};

use specmt_isa::{Inst, Pc, Program, Reg};

use crate::{DepGraph, Emulator, StepOutcome, TraceError};

/// One executed (dynamic) instruction.
///
/// The record captures everything the downstream analyses and the timing
/// simulator need to replay the instruction without re-emulating:
///
/// * `pc` — the static instruction it came from,
/// * `taken` — whether the instruction redirected fetch (taken conditional
///   branch, jump, call or return),
/// * `addr` — the effective byte address for loads and stores (zero
///   otherwise), and
/// * `result` — the value written to the destination register, or the value
///   stored to memory for stores (zero for instructions with no result).
///
/// `DynInst` is the *logical* record: [`Trace`] stores the four fields in
/// parallel structure-of-arrays columns (see the type docs) and assembles a
/// `DynInst` on demand. It is `Copy`; accessors hand it out by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInst {
    /// Static instruction address.
    pub pc: Pc,
    /// Whether fetch was redirected by this instruction.
    pub taken: bool,
    /// Effective address of the memory access, if any.
    pub addr: u64,
    /// Produced (register or stored) value.
    pub result: u64,
}

/// A complete dynamic instruction stream from one program execution,
/// together with the program that produced it and the final register file.
///
/// Traces are the interchange format of the whole toolkit: the profile
/// analyses in `specmt-analysis` read the block structure out of them, the
/// spawning-pair selectors in `specmt-spawn` mine them for candidate pairs,
/// and the processor model in `specmt-sim` replays them under a timing
/// model.
///
/// # Data layout
///
/// Records are stored as a structure of arrays — `pc` as a `u32` column,
/// `result` as a `u64` column, `taken` as packed bits — instead of an array
/// of 24-byte structs. Only loads and stores have an address, so the
/// address column is sparse: one `u64` per memory record, in execution
/// order, found by rank through a per-64-record index (a "load or store"
/// bit per record plus a `u32` count of the memory records before each
/// 64-record word). Membership comes from the static instruction, so the
/// index costs 12 bytes per 64 records and [`Trace::addr_at`] stays O(1).
/// A trace holds about 12.3 bytes per record plus 8 per load or store.
///
/// The hot consumers are column-selective: block streaming and spawn-point
/// scans read only pcs (4 bytes/record instead of 24), the dependence
/// builder and the timing model walk pcs and the memory column with one
/// cursor, and the value-prediction path reads single results by index.
/// The split keeps each scan from dragging the cold columns through cache.
///
/// # Examples
///
/// ```
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::Trace;
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 7);
/// b.halt();
/// let trace = Trace::generate(b.build()?, 100)?;
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.record(0).map(|r| r.result), Some(7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    program: Arc<Program>,
    pcs: Vec<u32>,
    /// Taken flags, 64 records per word (bit `k % 64` of word `k / 64`).
    taken: Vec<u64>,
    /// Effective addresses of the loads and stores only, in execution
    /// order; `mem` maps a dynamic index to its entry.
    addrs: Vec<u64>,
    /// Shared with the dependence graph, which ranks its memory producers
    /// by the same index.
    mem: Arc<MemRank>,
    results: Vec<u64>,
    final_regs: [u64; specmt_isa::NUM_REGS],
    /// The dependence graph, built on the first [`Trace::deps`] call.
    deps: OnceLock<Arc<DepGraph>>,
}

/// Which records of a trace are loads or stores, and the rank of each among
/// them: bit `k % 64` of `mask[k / 64]` marks record `k`, and `before[w]`
/// counts the memory records in words `0..w`. A column with one entry per
/// memory record (a trace's addresses, a dependence graph's memory
/// producers) is then indexed by dynamic index with one popcount.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemRank {
    mask: Vec<u64>,
    before: Vec<u32>,
}

impl MemRank {
    /// The index of `pcs`, whose memory records are those whose static
    /// instruction `is_mem` marks.
    pub(crate) fn build(is_mem: &[bool], pcs: &[u32]) -> MemRank {
        let mut mask = Vec::with_capacity(pcs.len().div_ceil(64));
        let mut before = Vec::with_capacity(mask.capacity());
        let mut count = 0u32;
        for chunk in pcs.chunks(64) {
            let mut word = 0u64;
            for (i, &pc) in chunk.iter().enumerate() {
                word |= u64::from(is_mem[pc as usize]) << i;
            }
            mask.push(word);
            before.push(count);
            count += word.count_ones();
        }
        MemRank { mask, before }
    }

    /// The number of memory records before record `k`, or `None` when `k`
    /// lies beyond the last 64-record word.
    #[inline]
    fn below(&self, k: usize) -> Option<usize> {
        let w = k / 64;
        let word = *self.mask.get(w)?;
        let lower = word & ((1u64 << (k % 64)) - 1);
        Some(self.before[w] as usize + lower.count_ones() as usize)
    }

    /// Whether record `k` is a load or store (`false` beyond the trace).
    #[inline]
    fn is_mem(&self, k: usize) -> bool {
        self.mask
            .get(k / 64)
            .is_some_and(|w| w & (1u64 << (k % 64)) != 0)
    }

    /// The rank of record `k` among the memory records, or `None` when it
    /// is not a load or store.
    #[inline]
    pub(crate) fn rank(&self, k: usize) -> Option<usize> {
        if self.is_mem(k) {
            self.below(k)
        } else {
            None
        }
    }
}

/// Per static instruction, whether it is a load or store: the records that
/// own an entry in the sparse memory columns.
pub(crate) fn mem_pcs(program: &Program) -> Vec<bool> {
    program
        .insts()
        .iter()
        .map(|i| i.is_load() || i.is_store())
        .collect()
}

/// The bytes a trace's columns hold for `records` records of which
/// `mem_records` are loads or stores: 4 (pc) + 8 (result) per record,
/// 8 (address) per memory record, and per 64 records one taken word, one
/// memory-mask word and one `u32` rank count.
fn column_bytes(records: u64, mem_records: u64) -> u64 {
    12 * records + 8 * mem_records + 20 * records.div_ceil(64)
}

impl Trace {
    /// Executes `program` to completion and records its dynamic instruction
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::StepLimitExceeded`] if the program does not
    /// halt within `max_steps`, or any emulation fault
    /// ([`TraceError::BadPc`], [`TraceError::UnalignedAccess`]).
    pub fn generate(program: Program, max_steps: u64) -> Result<Trace, TraceError> {
        Trace::record_from(Emulator::new(program), max_steps, 0, None)
    }

    /// As [`Trace::generate`], but additionally caps both the emulated
    /// memory footprint (see [`Emulator::set_memory_limit`]) and the
    /// recorded trace columns (about 12.3 bytes per record plus 8 per load
    /// or store) at
    /// `max_mem_bytes` each — the bounded-resource entry point for running
    /// untrusted or fuzzed programs, whose step budget alone would let a
    /// spin loop record gigabytes before it ran out.
    ///
    /// # Errors
    ///
    /// As [`Trace::generate`], plus [`TraceError::Limit`] when the program
    /// touches more memory than allowed (`"memory"`) or its trace would
    /// outgrow the cap (`"trace memory"`).
    pub fn generate_bounded(
        program: Program,
        max_steps: u64,
        max_mem_bytes: u64,
    ) -> Result<Trace, TraceError> {
        let mut emu = Emulator::new(program);
        emu.set_memory_limit(max_mem_bytes);
        Trace::record_from(emu, max_steps, 0, Some(max_mem_bytes))
    }

    /// As [`Trace::generate`], reserving the per-record columns for
    /// `records` records up front (clamped to `max_steps`). With the trace's
    /// true length as the hint, those columns never grow and hold no slack;
    /// any other hint only changes how much is reserved, never the trace.
    /// The sparse address column, whose length no hint gives, grows as
    /// loads and stores are recorded and is trimmed to fit at the end.
    ///
    /// # Errors
    ///
    /// As [`Trace::generate`].
    ///
    /// # Examples
    ///
    /// ```
    /// use specmt_isa::{ProgramBuilder, Reg};
    /// use specmt_trace::Trace;
    ///
    /// let mut b = ProgramBuilder::new();
    /// b.li(Reg::R1, 7);
    /// b.halt();
    /// let program = b.build()?;
    /// let trace = Trace::generate_with_hint(program.clone(), 100, 2)?;
    /// assert_eq!(trace.records_vec(), Trace::generate(program, 100)?.records_vec());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn generate_with_hint(
        program: Program,
        max_steps: u64,
        records: u64,
    ) -> Result<Trace, TraceError> {
        Trace::record_from(Emulator::new(program), max_steps, records, None)
    }

    /// Drives `emu` to completion, recording every executed instruction
    /// into columns reserved for `reserve` records (clamped to
    /// `max_steps`). With `max_trace_bytes`, a trace whose columns would
    /// outgrow it fails with [`TraceError::Limit`].
    fn record_from(
        mut emu: Emulator,
        max_steps: u64,
        reserve: u64,
        max_trace_bytes: Option<u64>,
    ) -> Result<Trace, TraceError> {
        let program = Arc::clone(emu.program());
        let is_mem = mem_pcs(&program);
        let mut trace = Trace {
            program,
            pcs: Vec::new(),
            taken: Vec::new(),
            addrs: Vec::new(),
            mem: Arc::default(),
            results: Vec::new(),
            final_regs: [0u64; specmt_isa::NUM_REGS],
            deps: OnceLock::new(),
        };
        // A reservation is only a hint: one the allocator refuses leaves
        // the columns to grow as they would without it.
        let n = usize::try_from(reserve.min(max_steps)).unwrap_or(usize::MAX);
        let _ = trace.pcs.try_reserve_exact(n);
        let _ = trace.taken.try_reserve_exact(n.div_ceil(64));
        let _ = trace.results.try_reserve_exact(n);
        loop {
            if trace.pcs.len() as u64 >= max_steps {
                return Err(TraceError::StepLimitExceeded { limit: max_steps });
            }
            match emu.step()? {
                StepOutcome::Executed(rec) => trace.push(rec, is_mem[rec.pc.0 as usize]),
                StepOutcome::Halted => break,
            }
            if let Some(limit) = max_trace_bytes {
                if column_bytes(trace.pcs.len() as u64, trace.addrs.len() as u64) > limit {
                    return Err(TraceError::Limit {
                        resource: "trace memory",
                        limit,
                    });
                }
            }
        }
        trace.addrs.shrink_to_fit();
        trace.mem = Arc::new(MemRank::build(&is_mem, &trace.pcs));
        for r in Reg::all() {
            trace.final_regs[r.index()] = emu.reg(r);
        }
        Ok(trace)
    }

    /// Reassembles a trace directly from its column store (used by the
    /// binary deserializer, whose column lengths are consistent by
    /// construction); trailing bits of the last `taken` word are masked off
    /// so equal traces compare equal regardless of serialization history.
    pub(crate) fn from_columns(
        program: Arc<Program>,
        columns: crate::io::Columns,
        final_regs: [u64; specmt_isa::NUM_REGS],
    ) -> Trace {
        let crate::io::Columns {
            pcs,
            mut taken,
            addrs,
            mem,
            results,
        } = columns;
        debug_assert_eq!(results.len(), pcs.len());
        debug_assert_eq!(taken.len(), pcs.len().div_ceil(64));
        if !pcs.len().is_multiple_of(64) {
            if let Some(last) = taken.last_mut() {
                *last &= (1u64 << (pcs.len() % 64)) - 1;
            }
        }
        Trace {
            program,
            pcs,
            taken,
            addrs,
            mem: Arc::new(mem),
            results,
            final_regs,
            deps: OnceLock::new(),
        }
    }

    /// The trace's dependence graph, built once on first use and shared by
    /// every later caller: selection's dependence scoring and every
    /// simulation of this trace analyse it only once.
    pub fn deps(&self) -> &Arc<DepGraph> {
        self.deps.get_or_init(|| Arc::new(DepGraph::build(self)))
    }

    /// The packed taken-flag words backing [`Trace::taken_at`] (bit
    /// `k % 64` of word `k / 64`).
    pub(crate) fn taken_words(&self) -> &[u64] {
        &self.taken
    }

    /// The memory-record rank index.
    pub(crate) fn mem_index(&self) -> &Arc<MemRank> {
        &self.mem
    }

    /// Every record's effective address in execution order, zero for the
    /// records that are not loads or stores: one cursor walks the sparse
    /// column.
    pub(crate) fn dense_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        let mut addrs = self.addrs.iter();
        (0..self.pcs.len()).map(move |k| {
            if self.mem.is_mem(k) {
                addrs.next().copied().unwrap_or(0)
            } else {
                0
            }
        })
    }

    /// The result-value column.
    pub(crate) fn results_col(&self) -> &[u64] {
        &self.results
    }

    /// Appends one record to the column store; `is_mem` says whether its
    /// static instruction is a load or store, which alone owns an address
    /// entry. (The rank index is built once recording ends.)
    fn push(&mut self, rec: DynInst, is_mem: bool) {
        let k = self.pcs.len();
        self.pcs.push(rec.pc.0);
        if k.is_multiple_of(64) {
            self.taken.push(0);
        }
        if rec.taken {
            self.taken[k / 64] |= 1u64 << (k % 64);
        }
        if is_mem {
            self.addrs.push(rec.addr);
        }
        self.results.push(rec.result);
    }

    /// The program this trace was recorded from.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Number of dynamic instructions (including the final `halt`).
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the trace is empty (never true for a generated trace — the
    /// `halt` itself is recorded).
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The static pc column, in execution order — the cheapest way to scan
    /// control flow (4 bytes per record).
    pub fn pcs(&self) -> &[u32] {
        &self.pcs
    }

    /// The static pc executed at dynamic index `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn pc_at(&self, k: usize) -> Pc {
        Pc(self.pcs[k])
    }

    /// Whether the instruction at dynamic index `k` redirected fetch.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn taken_at(&self, k: usize) -> bool {
        assert!(k < self.pcs.len(), "dynamic index out of range");
        self.taken[k / 64] & (1u64 << (k % 64)) != 0
    }

    /// The effective addresses of the trace's loads and stores, one per
    /// memory record in execution order — the cheapest way to scan the
    /// trace's memory footprint. The entry of dynamic index `k` is
    /// `mem_addrs()[trace.mem_rank(k)]` when `k` is a load or store.
    pub fn mem_addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The number of loads and stores before dynamic index `k` (`k` may be
    /// the trace length): the position of record `k`'s entry in
    /// [`Trace::mem_addrs`] when it is a memory record. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `k` is beyond the trace length.
    #[inline]
    pub fn mem_rank(&self, k: usize) -> usize {
        assert!(k <= self.pcs.len(), "dynamic index out of range");
        self.mem.below(k).unwrap_or(self.addrs.len())
    }

    /// The effective memory address of the instruction at dynamic index `k`
    /// (zero for non-memory instructions). O(1), through the rank index.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn addr_at(&self, k: usize) -> u64 {
        assert!(k < self.pcs.len(), "dynamic index out of range");
        self.mem.rank(k).map_or(0, |r| self.addrs[r])
    }

    /// The produced (register or stored) value of the instruction at
    /// dynamic index `k` (zero for instructions with no result).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn result_at(&self, k: usize) -> u64 {
        self.results[k]
    }

    /// The record at dynamic index `k`, assembled from the columns.
    pub fn record(&self, k: usize) -> Option<DynInst> {
        if k >= self.pcs.len() {
            return None;
        }
        Some(DynInst {
            pc: Pc(self.pcs[k]),
            taken: self.taken_at(k),
            addr: self.addr_at(k),
            result: self.results[k],
        })
    }

    /// Iterates over all dynamic records, in execution order.
    pub fn iter_records(&self) -> impl Iterator<Item = DynInst> + '_ {
        self.dense_addrs().enumerate().map(|(k, addr)| DynInst {
            pc: Pc(self.pcs[k]),
            taken: self.taken[k / 64] & (1u64 << (k % 64)) != 0,
            addr,
            result: self.results[k],
        })
    }

    /// All dynamic records materialised into a vector (test and
    /// interchange convenience — hot paths should use the columnar
    /// accessors or [`Trace::iter_records`]).
    pub fn records_vec(&self) -> Vec<DynInst> {
        self.iter_records().collect()
    }

    /// The static instruction executed at dynamic index `k`.
    ///
    /// Every generated or deserialized trace keeps its pcs inside the
    /// program ([`Trace::validate`] checks exactly this), so the inner
    /// lookup is a plain slice index.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn inst(&self, k: usize) -> &Inst {
        &self.program.insts()[self.pcs[k] as usize]
    }

    /// Checks the structural invariant every downstream consumer relies on:
    /// each recorded pc names an instruction of the program.
    ///
    /// Generated traces satisfy this by construction and the binary reader
    /// re-checks it record by record; call this when records arrive from any
    /// other source.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadPc`] naming the first out-of-range pc.
    pub fn validate(&self) -> Result<(), TraceError> {
        let len = self.program.len();
        for &pc in &self.pcs {
            if pc as usize >= len {
                return Err(TraceError::BadPc { pc: Pc(pc), len });
            }
        }
        Ok(())
    }

    /// The final architectural value of `reg` after the program halted.
    pub fn final_reg(&self, reg: Reg) -> u64 {
        self.final_regs[reg.index()]
    }

    /// Counts the dynamic occurrences of each static instruction.
    ///
    /// The returned vector is indexed by [`Pc`] index and has one entry per
    /// static instruction.
    pub fn execution_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.program.len()];
        for &pc in &self.pcs {
            counts[pc as usize] += 1;
        }
        counts
    }

    /// Summarises the dynamic instruction mix.
    pub fn mix(&self) -> TraceMix {
        let mut mix = TraceMix::default();
        let insts = self.program.insts();
        for (k, &pc) in self.pcs.iter().enumerate() {
            let inst = &insts[pc as usize];
            mix.total += 1;
            if inst.is_load() {
                mix.loads += 1;
            } else if inst.is_store() {
                mix.stores += 1;
            } else if inst.is_cond_branch() {
                mix.cond_branches += 1;
                if self.taken[k / 64] & (1u64 << (k % 64)) != 0 {
                    mix.taken_cond_branches += 1;
                }
            } else if inst.is_call() {
                mix.calls += 1;
            }
        }
        mix
    }
}

/// Aggregate dynamic instruction-mix statistics for a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMix {
    /// Total dynamic instructions.
    pub total: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Dynamic conditional branches that were taken.
    pub taken_cond_branches: u64,
    /// Dynamic subroutine calls.
    pub calls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::ProgramBuilder;

    fn loop_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn generate_counts_every_dynamic_instruction() {
        let trace = Trace::generate(loop_program(4), 1000).unwrap();
        // 2 setup + 4*2 loop + 1 halt
        assert_eq!(trace.len(), 11);
        assert_eq!(trace.final_reg(Reg::R1), 4);
    }

    #[test]
    fn step_limit_is_enforced() {
        let err = Trace::generate(loop_program(1_000_000), 100).unwrap_err();
        assert_eq!(err, TraceError::StepLimitExceeded { limit: 100 });
    }

    #[test]
    fn generated_traces_validate() {
        let trace = Trace::generate(loop_program(4), 1000).unwrap();
        trace.validate().unwrap();
    }

    #[test]
    fn hinted_generation_reserves_exactly_and_matches() {
        let plain = Trace::generate(loop_program(40), 1000).unwrap();
        let n = plain.len() as u64;
        let hinted = Trace::generate_with_hint(loop_program(40), 1000, n).unwrap();
        assert_eq!(hinted.records_vec(), plain.records_vec());
        assert_eq!(hinted.final_regs, plain.final_regs);
        assert_eq!(hinted.pcs.capacity(), hinted.pcs.len());
        assert_eq!(hinted.taken.capacity(), hinted.taken.len());
        assert_eq!(hinted.addrs.capacity(), hinted.addrs.len());
        assert_eq!(hinted.results.capacity(), hinted.results.len());
        // A wrong hint changes the reservation only; one beyond the step
        // budget is clamped to it.
        for hint in [0, 1, n - 1, n + 1, u64::MAX] {
            let t = Trace::generate_with_hint(loop_program(40), 1000, hint).unwrap();
            assert_eq!(t.records_vec(), plain.records_vec(), "hint {hint}");
            assert!(t.pcs.capacity() <= 1000, "hint {hint}");
        }
    }

    #[test]
    fn bounded_generation_matches_unbounded_when_within_limits() {
        let a = Trace::generate(loop_program(4), 1000).unwrap();
        let b = Trace::generate_bounded(loop_program(4), 1000, 1 << 20).unwrap();
        assert_eq!(a.records_vec(), b.records_vec());
    }

    #[test]
    fn bounded_generation_caps_the_trace_columns() {
        // `top: addi r1, r1, 1; j top; halt` never halts; its ten million
        // steps would record ~200 MB of columns.
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.bind(top);
        b.addi(Reg::R1, Reg::R1, 1);
        b.j(top);
        b.halt();
        let spin = b.build().unwrap();
        let err = Trace::generate_bounded(spin, 10_000_000, 1 << 20).unwrap_err();
        assert_eq!(
            err,
            TraceError::Limit {
                resource: "trace memory",
                limit: 1 << 20
            }
        );
    }

    #[test]
    fn bounded_generation_caps_a_storing_spin_loop() {
        // `top: st r1, 0(r2); j top` stores to one word forever: the
        // emulated memory stays one page, so only the trace cap, which
        // counts each store's address entry, can stop it.
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R2, 0x1000);
        b.bind(top);
        b.st(Reg::R1, Reg::R2, 0);
        b.j(top);
        b.halt();
        let spin = b.build().unwrap();
        let limit = 1 << 20;
        let err = Trace::generate_bounded(spin.clone(), 10_000_000, limit).unwrap_err();
        assert_eq!(
            err,
            TraceError::Limit {
                resource: "trace memory",
                limit
            }
        );
        // The cap binds exactly at the column bytes, stores included: record
        // 0 is the `li`, then every other record is a store. A step budget
        // of exactly the records that fit runs out first; one more record
        // outgrows the cap.
        let fit = (1..)
            .take_while(|&r| column_bytes(r, r / 2) <= limit)
            .last()
            .unwrap();
        assert!(fit < limit / 16, "stores must count: {fit} records fit");
        let err = Trace::generate_bounded(spin.clone(), fit, limit).unwrap_err();
        assert_eq!(err, TraceError::StepLimitExceeded { limit: fit });
        let err = Trace::generate_bounded(spin, fit + 1, limit).unwrap_err();
        assert_eq!(
            err,
            TraceError::Limit {
                resource: "trace memory",
                limit
            }
        );
    }

    #[test]
    fn execution_counts_sum_to_trace_length() {
        let trace = Trace::generate(loop_program(7), 1000).unwrap();
        let counts = trace.execution_counts();
        assert_eq!(counts.iter().sum::<u64>(), trace.len() as u64);
        // The loop body executed 7 times.
        assert_eq!(counts[2], 7);
        assert_eq!(counts[3], 7);
    }

    #[test]
    fn mix_classifies_branches() {
        let trace = Trace::generate(loop_program(3), 1000).unwrap();
        let mix = trace.mix();
        assert_eq!(mix.total, trace.len() as u64);
        assert_eq!(mix.cond_branches, 3);
        assert_eq!(mix.taken_cond_branches, 2); // last iteration falls through
        assert_eq!(mix.loads + mix.stores + mix.calls, 0);
    }

    #[test]
    fn branch_records_mark_taken() {
        let trace = Trace::generate(loop_program(2), 1000).unwrap();
        let branch_records: Vec<DynInst> = trace
            .iter_records()
            .filter(|r| trace.program().inst(r.pc).unwrap().is_cond_branch())
            .collect();
        assert_eq!(branch_records.len(), 2);
        assert!(branch_records[0].taken);
        assert!(!branch_records[1].taken);
    }

    /// A loop whose iterations load, bump and store one array word, then
    /// store and reload the next, between address-free ALU and branch
    /// records: over 64 records, so memory ranks cross index words.
    fn memory_loop_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R14, 0x10000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, n);
        b.bind(top);
        b.shli(Reg::R3, Reg::R1, 3);
        b.add(Reg::R3, Reg::R14, Reg::R3);
        b.ld(Reg::R4, Reg::R3, 0);
        b.addi(Reg::R4, Reg::R4, 3);
        b.st(Reg::R4, Reg::R3, 0);
        b.st(Reg::R1, Reg::R3, 8);
        b.ld(Reg::R5, Reg::R3, 8);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn columnar_accessors_agree_with_records() {
        for program in [loop_program(9), memory_loop_program(40)] {
            let trace = Trace::generate(program.clone(), 1000).unwrap();
            // The records the emulator produced, one step at a time.
            let mut emu = Emulator::new(program);
            let mut mem = 0;
            for (k, rec) in trace.iter_records().enumerate() {
                assert_eq!(emu.step(), Ok(StepOutcome::Executed(rec)), "record {k}");
                assert_eq!(trace.pc_at(k), rec.pc);
                assert_eq!(trace.taken_at(k), rec.taken);
                assert_eq!(trace.addr_at(k), rec.addr);
                assert_eq!(trace.result_at(k), rec.result);
                assert_eq!(trace.record(k), Some(rec));
                assert_eq!(trace.mem_rank(k), mem, "record {k}");
                let inst = trace.inst(k);
                if inst.is_load() || inst.is_store() {
                    assert_eq!(trace.mem_addrs()[mem], rec.addr);
                    mem += 1;
                } else {
                    assert_eq!(rec.addr, 0);
                }
            }
            assert_eq!(emu.step(), Ok(StepOutcome::Halted));
            assert_eq!(trace.mem_rank(trace.len()), mem);
            assert_eq!(trace.mem_addrs().len(), mem);
            assert_eq!(trace.record(trace.len()), None);
            assert_eq!(trace.pcs().len(), trace.len());
        }
        let mix = Trace::generate(memory_loop_program(40), 1000)
            .unwrap()
            .mix();
        assert_eq!((mix.loads, mix.stores), (80, 80));
    }

    #[test]
    fn taken_bits_pack_beyond_one_word() {
        // >64 records so the taken bitmap spans multiple words.
        let trace = Trace::generate(loop_program(40), 1000).unwrap();
        assert!(trace.len() > 64);
        let records = trace.records_vec();
        for (k, rec) in records.iter().enumerate() {
            assert_eq!(trace.taken_at(k), rec.taken, "record {k}");
        }
    }
}
