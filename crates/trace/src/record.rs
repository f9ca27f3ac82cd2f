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
/// `addr` and `result` as `u64` columns, `taken` as packed bits — instead of
/// an array of 24-byte structs. The hot consumers are column-selective:
/// block streaming and spawn-point scans read only pcs (4 bytes/record
/// instead of 24), the dependence builder reads pcs and addresses, and the
/// timing model's value-prediction path reads single results by index. The
/// split keeps each scan from dragging the cold columns through cache.
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
    addrs: Vec<u64>,
    results: Vec<u64>,
    final_regs: [u64; specmt_isa::NUM_REGS],
    /// The dependence graph, built on the first [`Trace::deps`] call.
    deps: OnceLock<Arc<DepGraph>>,
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
    /// recorded trace columns (about 20 bytes per record) at
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

    /// As [`Trace::generate`], reserving the columns for `records` records
    /// up front (clamped to `max_steps`). With the trace's true length as
    /// the hint, the columns never grow and hold no slack; any other hint
    /// only changes how much is reserved, never the trace.
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
        // Every 64 records cost 64 * (4 + 8 + 8) column bytes plus one
        // taken word: 1,288 bytes.
        let trace_cap = max_trace_bytes.map(|bytes| (bytes / 1288 * 64, bytes));
        let program = Arc::clone(emu.program());
        let mut trace = Trace {
            program,
            pcs: Vec::new(),
            taken: Vec::new(),
            addrs: Vec::new(),
            results: Vec::new(),
            final_regs: [0u64; specmt_isa::NUM_REGS],
            deps: OnceLock::new(),
        };
        // A reservation is only a hint: one the allocator refuses leaves
        // the columns to grow as they would without it.
        let n = usize::try_from(reserve.min(max_steps)).unwrap_or(usize::MAX);
        let _ = trace.pcs.try_reserve_exact(n);
        let _ = trace.taken.try_reserve_exact(n.div_ceil(64));
        let _ = trace.addrs.try_reserve_exact(n);
        let _ = trace.results.try_reserve_exact(n);
        loop {
            let recorded = trace.pcs.len() as u64;
            if recorded >= max_steps {
                return Err(TraceError::StepLimitExceeded { limit: max_steps });
            }
            if let Some((max_records, limit)) = trace_cap {
                if recorded >= max_records {
                    return Err(TraceError::Limit {
                        resource: "trace memory",
                        limit,
                    });
                }
            }
            match emu.step()? {
                StepOutcome::Executed(rec) => trace.push(rec),
                StepOutcome::Halted => break,
            }
        }
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
            results,
        } = columns;
        debug_assert_eq!(addrs.len(), pcs.len());
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

    /// The effective-address column.
    pub(crate) fn addrs_col(&self) -> &[u64] {
        &self.addrs
    }

    /// The result-value column.
    pub(crate) fn results_col(&self) -> &[u64] {
        &self.results
    }

    /// Appends one record to the column store.
    fn push(&mut self, rec: DynInst) {
        let k = self.pcs.len();
        self.pcs.push(rec.pc.0);
        if k.is_multiple_of(64) {
            self.taken.push(0);
        }
        if rec.taken {
            self.taken[k / 64] |= 1u64 << (k % 64);
        }
        self.addrs.push(rec.addr);
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

    /// The effective-address column, in execution order (zero for
    /// non-memory instructions) — the cheapest way to scan the trace's
    /// memory footprint.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The effective memory address of the instruction at dynamic index `k`
    /// (zero for non-memory instructions).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn addr_at(&self, k: usize) -> u64 {
        self.addrs[k]
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
            addr: self.addrs[k],
            result: self.results[k],
        })
    }

    /// Iterates over all dynamic records, in execution order.
    pub fn iter_records(&self) -> impl Iterator<Item = DynInst> + '_ {
        (0..self.pcs.len()).map(|k| DynInst {
            pc: Pc(self.pcs[k]),
            taken: self.taken[k / 64] & (1u64 << (k % 64)) != 0,
            addr: self.addrs[k],
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

    #[test]
    fn columnar_accessors_agree_with_records() {
        let trace = Trace::generate(loop_program(9), 1000).unwrap();
        for (k, rec) in trace.iter_records().enumerate() {
            assert_eq!(trace.pc_at(k), rec.pc);
            assert_eq!(trace.taken_at(k), rec.taken);
            assert_eq!(trace.addr_at(k), rec.addr);
            assert_eq!(trace.result_at(k), rec.result);
            assert_eq!(trace.record(k), Some(rec));
        }
        assert_eq!(trace.record(trace.len()), None);
        assert_eq!(trace.pcs().len(), trace.len());
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
