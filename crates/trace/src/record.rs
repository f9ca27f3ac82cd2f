//! Dynamic instruction records and traces.

use std::ops::Range;
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
/// `DynInst` is the *logical* record: [`Trace`] stores it in parallel
/// structure-of-arrays columns, derives the pc from control flow (see the
/// type docs) and assembles a `DynInst` on demand. It is `Copy`; accessors
/// hand it out by value.
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
/// Records are stored as a structure of arrays instead of an array of
/// 24-byte structs. The pc stream is not stored: control flow is the
/// static program plus each record's `taken` flag, kept as packed bits.
/// A record that did not redirect fetch is followed by the next static
/// instruction, a taken branch, jump or call by its static target, and a
/// taken return by the pc it returned to, the one target the program
/// does not fix, kept in a `u32` column with one entry per return. A
/// checkpoint per 64-record word, the pc of its first record and the
/// returns before it, lets [`Trace::pc_at`] start from the nearest word
/// and step over at most its taken records.
///
/// Two more columns are sparse, each found by rank through the same
/// per-64-record index (a flag bit per record plus a `u32` count of the
/// flagged records before each 64-record word, 12 bytes per 64 records):
///
/// * only loads and stores have an address, so the address column holds
///   one `u64` per memory record; membership comes from the static
///   instruction;
/// * a result is stored as its low 32 bits, and only a result that is not
///   the sign extension of those bits also keeps its high 32 bits, in a
///   `u32` column flagged by value.
///
/// [`Trace::addr_at`] and [`Trace::result_at`] stay O(1). A trace holds
/// about 4.6 bytes per record plus 8 per load or store, 4 per result that
/// does not fit in 32 signed bits and 4 per return.
///
/// The hot consumers walk the stream forward: block streaming, spawn-point
/// scans and the dependence builder step over straight-line runs
/// ([`Trace::runs`]), the timing model and the windowed passes carry a pc
/// cursor ([`Trace::pcs_from`]) beside one cursor into the memory column,
/// and the value-prediction path reads single results by index.
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
    /// Per static instruction, where its taken records continue (see
    /// [`taken_targets`]).
    targets: Box<[u32]>,
    /// Taken flags, 64 records per word (bit `k % 64` of word `k / 64`).
    taken: Vec<u64>,
    /// The pc of the first record of each 64-record word, and the returns
    /// before it.
    marks: Vec<Mark>,
    /// The pc each taken return went to, in execution order.
    rets: Vec<u32>,
    /// Effective addresses of the loads and stores only, in execution
    /// order; `mem` maps a dynamic index to its entry.
    addrs: Vec<u64>,
    /// Shared with the dependence graph, which ranks its memory producers
    /// by the same index.
    mem: Arc<Rank>,
    /// Every record's low result half, and the high halves of the wide
    /// results; its length is the trace's.
    results: Results,
    /// Per static instruction, the dynamic index of its last record
    /// ([`NEVER`] if it never executed), recorded as the records arrive.
    last: Box<[u32]>,
    final_regs: [u64; specmt_isa::NUM_REGS],
    /// The dependence graph, built on the first [`Trace::deps`] call.
    deps: OnceLock<Arc<DepGraph>>,
}

/// The checkpoint of one 64-record word of the pc stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    /// The pc of the word's first record.
    pc: u32,
    /// The taken returns before that record.
    rets: u32,
}

/// [`taken_targets`]' entry for a return: its target is dynamic.
pub(crate) const RET_TARGET: u32 = u32::MAX;

/// Per static instruction, the pc its taken records continue at: the
/// static target of a branch, jump or call, [`RET_TARGET`] for a return,
/// and the next instruction for everything else, which never redirects
/// fetch.
pub(crate) fn taken_targets(program: &Program) -> Box<[u32]> {
    (0..)
        .zip(program.insts())
        .map(|(pc, inst): (u32, &Inst)| match inst {
            Inst::Ret => RET_TARGET,
            _ => inst.control_target().map_or(pc + 1, |t| t.0),
        })
        .collect()
}

/// The index of a sparse column: which records own an entry, and the rank
/// of each among them. Bit `k % 64` of `mask[k / 64]` flags record `k`,
/// and `before[w]` counts the flagged records in words `0..w`, so a column
/// with one entry per flagged record is indexed by dynamic index with one
/// popcount. It ranks a trace's memory records (for its addresses and a
/// dependence graph's memory producers) and its wide results.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rank {
    mask: Vec<u64>,
    before: Vec<u32>,
}

impl Rank {
    /// Reserves room for `records` records; a reservation the allocator
    /// refuses leaves the index to grow as it would without it.
    fn reserve(&mut self, records: usize) {
        let words = records.div_ceil(64);
        let _ = self.mask.try_reserve_exact(words);
        let _ = self.before.try_reserve_exact(words);
    }

    /// Appends the flag of record `k`, the number of records already
    /// indexed.
    #[inline]
    fn push(&mut self, k: usize, flag: bool) {
        if k.is_multiple_of(64) {
            let count = match (self.before.last(), self.mask.last()) {
                (Some(&b), Some(w)) => b + w.count_ones(),
                _ => 0,
            };
            self.mask.push(0);
            self.before.push(count);
        }
        if flag {
            if let Some(w) = self.mask.last_mut() {
                *w |= 1u64 << (k % 64);
            }
        }
    }

    /// Releases the reservation beyond the indexed records.
    fn shrink_to_fit(&mut self) {
        self.mask.shrink_to_fit();
        self.before.shrink_to_fit();
    }

    /// The number of flagged records before record `k`, or `None` when `k`
    /// lies beyond the last 64-record word.
    #[inline]
    fn below(&self, k: usize) -> Option<usize> {
        let w = k / 64;
        let word = *self.mask.get(w)?;
        let lower = word & ((1u64 << (k % 64)) - 1);
        Some(self.before[w] as usize + lower.count_ones() as usize)
    }

    /// Whether record `k` is flagged (`false` beyond the index).
    #[inline]
    fn is_set(&self, k: usize) -> bool {
        self.mask
            .get(k / 64)
            .is_some_and(|w| w & (1u64 << (k % 64)) != 0)
    }

    /// The rank of record `k` among the flagged records, or `None` when it
    /// is not flagged.
    #[inline]
    pub(crate) fn rank(&self, k: usize) -> Option<usize> {
        if self.is_set(k) {
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

/// The result column: every record's value as its low 32 bits, plus the
/// high 32 bits of each value that is not the sign extension of its low
/// half, ranked by `wide`. Most results (counters, small data, addresses
/// below 2 GiB, zero for records without one) need no high half.
#[derive(Debug, Clone, Default)]
pub(crate) struct Results {
    lo: Vec<u32>,
    hi: Vec<u32>,
    wide: Rank,
}

impl Results {
    /// Reserves room for `records` records, every one of them wide; a
    /// reservation the allocator refuses leaves the columns to grow.
    pub(crate) fn reserve(&mut self, records: usize) {
        let _ = self.lo.try_reserve_exact(records);
        let _ = self.hi.try_reserve_exact(records);
        self.wide.reserve(records);
    }

    /// Appends the next record's value.
    #[inline]
    pub(crate) fn push(&mut self, value: u64) {
        let lo = value as u32;
        let wide = sign_extend(lo) != value;
        self.wide.push(self.lo.len(), wide);
        self.lo.push(lo);
        if wide {
            self.hi.push((value >> 32) as u32);
        }
    }

    /// Releases the reservation beyond the recorded values.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.lo.shrink_to_fit();
        self.hi.shrink_to_fit();
        self.wide.shrink_to_fit();
    }

    /// The number of values recorded.
    pub(crate) fn len(&self) -> usize {
        self.lo.len()
    }

    /// The number of values that keep a high half.
    fn wide_len(&self) -> usize {
        self.hi.len()
    }

    /// The value of record `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    fn get(&self, k: usize) -> u64 {
        let lo = self.lo[k];
        match self.wide.rank(k) {
            Some(r) => (u64::from(self.hi[r]) << 32) | u64::from(lo),
            None => sign_extend(lo),
        }
    }

    /// Every value in order: one cursor walks the high halves.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut hi = self.hi.iter();
        self.lo.iter().enumerate().map(move |(k, &lo)| {
            if self.wide.is_set(k) {
                (u64::from(hi.next().copied().unwrap_or(0)) << 32) | u64::from(lo)
            } else {
                sign_extend(lo)
            }
        })
    }
}

/// `lo` sign-extended to 64 bits: the value a narrow result stands for.
#[inline]
fn sign_extend(lo: u32) -> u64 {
    i64::from(lo as i32) as u64
}

/// The bytes a trace's columns hold for `records` records of which
/// `mem_records` are loads or stores, `wide_records` keep a result's high
/// half and `returns` are taken returns: 4 (result low half) per record,
/// 8 (address) per memory record, 4 per high half, 4 per return target,
/// and per 64 records one taken word, one checkpoint (two `u32`s) and,
/// for each of the two rank indexes, one mask word and one `u32` count.
fn column_bytes(records: u64, mem_records: u64, wide_records: u64, returns: u64) -> u64 {
    4 * records + 8 * mem_records + 4 * wide_records + 4 * returns + 40 * records.div_ceil(64)
}

/// The last-occurrence entry of a static instruction that never executed.
const NEVER: u32 = u32::MAX;

/// A trace's columns while they are recorded or decoded, as
/// [`Trace::from_columns`] takes them: `addrs` holds the loads' and
/// stores' addresses only, ranked by `mem`, and `last` each static
/// instruction's latest record.
#[derive(Debug)]
pub(crate) struct Columns {
    pub(crate) taken: Vec<u64>,
    marks: Vec<Mark>,
    /// Pushed when the pc a return went to is known: by the recorder at
    /// the return, by the reader at the record after it.
    pub(crate) rets: Vec<u32>,
    pub(crate) addrs: Vec<u64>,
    pub(crate) mem: Rank,
    pub(crate) results: Results,
    last: Vec<u32>,
}

impl Columns {
    /// Empty columns for a program of `program_len` static instructions.
    pub(crate) fn new(program_len: usize) -> Columns {
        Columns {
            taken: Vec::new(),
            marks: Vec::new(),
            rets: Vec::new(),
            addrs: Vec::new(),
            mem: Rank::default(),
            results: Results::default(),
            last: vec![NEVER; program_len],
        }
    }

    /// Reserves every column for `records` records; `returns` says whether
    /// the program has a return, the only records with a target entry.
    pub(crate) fn reserve(&mut self, records: usize, returns: bool) {
        let words = records.div_ceil(64);
        let _ = self.taken.try_reserve_exact(words);
        let _ = self.marks.try_reserve_exact(words);
        if returns {
            let _ = self.rets.try_reserve_exact(records);
        }
        let _ = self.addrs.try_reserve_exact(records);
        self.mem.reserve(records);
        self.results.reserve(records);
    }

    /// Appends the taken flag of record `k`, the number of records already
    /// pushed.
    #[inline]
    fn push_taken(&mut self, k: usize, taken: bool) {
        if k.is_multiple_of(64) {
            self.taken.push(0);
        }
        if taken {
            if let Some(w) = self.taken.last_mut() {
                *w |= 1u64 << (k % 64);
            }
        }
    }

    /// Appends the rest of record `k`'s control flow: its pc, kept only as
    /// the checkpoint of a word it opens (with the return targets pushed
    /// so far, those of the returns before `k`) and as `pc`'s latest
    /// record, and whether it is a load or store.
    #[inline]
    pub(crate) fn push_flow(&mut self, k: usize, pc: u32, is_mem: bool) {
        if k.is_multiple_of(64) {
            self.marks.push(Mark {
                pc,
                rets: self.rets.len() as u32,
            });
        }
        if let Some(last) = self.last.get_mut(pc as usize) {
            *last = k as u32;
        }
        self.mem.push(k, is_mem);
    }

    /// The bytes the columns hold: the figure
    /// [`Trace::generate_bounded`] caps.
    fn bytes(&self) -> u64 {
        column_bytes(
            self.results.len() as u64,
            self.addrs.len() as u64,
            self.results.wide_len() as u64,
            self.rets.len() as u64,
        )
    }

    /// Releases every reservation beyond the recorded records.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.taken.shrink_to_fit();
        self.marks.shrink_to_fit();
        self.rets.shrink_to_fit();
        self.addrs.shrink_to_fit();
        self.mem.shrink_to_fit();
        self.results.shrink_to_fit();
    }
}

impl Trace {
    /// Executes `program` to completion and records its dynamic instruction
    /// stream.
    ///
    /// `program` is a [`Program`] or an [`Arc`] of one, as
    /// [`Emulator::new`] takes it: an `Arc` is shared, so the trace holds
    /// the caller's program rather than a copy of it.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::StepLimitExceeded`] if the program does not
    /// halt within `max_steps`, or any emulation fault
    /// ([`TraceError::BadPc`], [`TraceError::UnalignedAccess`]).
    pub fn generate(program: impl Into<Arc<Program>>, max_steps: u64) -> Result<Trace, TraceError> {
        Trace::record_from(Emulator::new(program), max_steps, None, None)
    }

    /// As [`Trace::generate`], but additionally caps both the emulated
    /// memory footprint (see [`Emulator::set_memory_limit`]) and the
    /// recorded trace columns (about 4.6 bytes per record plus 8 per load
    /// or store, 4 per result that does not fit in 32 signed bits and 4 per
    /// return) at `max_mem_bytes` each — the bounded-resource entry point
    /// for running untrusted or fuzzed programs, whose step budget alone
    /// would let a spin loop record gigabytes before it ran out.
    ///
    /// # Errors
    ///
    /// As [`Trace::generate`], plus [`TraceError::Limit`] when the program
    /// touches more memory than allowed (`"memory"`) or its trace would
    /// outgrow the cap (`"trace memory"`).
    pub fn generate_bounded(
        program: impl Into<Arc<Program>>,
        max_steps: u64,
        max_mem_bytes: u64,
    ) -> Result<Trace, TraceError> {
        let mut emu = Emulator::new(program);
        emu.set_memory_limit(max_mem_bytes);
        Trace::record_from(emu, max_steps, None, Some(max_mem_bytes))
    }

    /// As [`Trace::generate`], reserving the columns for `records` records
    /// up front (clamped to `max_steps`) in place of the step budget. Any
    /// hint only changes how much is reserved, never the trace: the
    /// columns are trimmed to fit when recording ends.
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
        program: impl Into<Arc<Program>>,
        max_steps: u64,
        records: u64,
    ) -> Result<Trace, TraceError> {
        Trace::record_from(Emulator::new(program), max_steps, Some(records), None)
    }

    /// Drives `emu` to completion, recording every executed instruction.
    /// With `max_trace_bytes`, a trace whose columns would outgrow it fails
    /// with [`TraceError::Limit`].
    ///
    /// Every column is reserved once, for the most records the recording
    /// can hold: `hint` when given, otherwise `max_steps`, and no more than
    /// `max_trace_bytes` can hold at 4 bytes or more per record. Pages of a
    /// reservation that no record reaches are never touched, so they cost
    /// address space, not memory; the columns never grow by copying, and
    /// each is trimmed to its length when recording ends. The memory rank
    /// index, the checkpoints and the return targets are built as the
    /// records arrive.
    fn record_from(
        mut emu: Emulator,
        max_steps: u64,
        hint: Option<u64>,
        max_trace_bytes: Option<u64>,
    ) -> Result<Trace, TraceError> {
        let program = Arc::clone(emu.program());
        let is_mem = mem_pcs(&program);
        let targets = taken_targets(&program);
        let mut columns = Columns::new(program.len());
        let mut bound = hint.unwrap_or(max_steps).min(max_steps);
        if let Some(limit) = max_trace_bytes {
            // The record that outgrows the cap is pushed before the check
            // fails, hence the one extra.
            bound = bound.min(limit / 4 + 1);
        }
        // A reservation is only a hint: one the allocator refuses leaves
        // the columns to grow as they would without it.
        let n = usize::try_from(bound).unwrap_or(usize::MAX);
        columns.reserve(n, targets.contains(&RET_TARGET));
        loop {
            let k = columns.results.len();
            if k as u64 >= max_steps {
                return Err(TraceError::StepLimitExceeded { limit: max_steps });
            }
            let rec = match emu.step()? {
                StepOutcome::Executed(rec) => rec,
                StepOutcome::Halted => break,
            };
            let pc = rec.pc.index();
            let is_mem = is_mem[pc];
            columns.push_taken(k, rec.taken);
            columns.push_flow(k, rec.pc.0, is_mem);
            if rec.taken && targets[pc] == RET_TARGET {
                columns.rets.push(emu.pc().0);
            }
            if is_mem {
                columns.addrs.push(rec.addr);
            }
            columns.results.push(rec.result);
            if let Some(limit) = max_trace_bytes {
                if columns.bytes() > limit {
                    return Err(TraceError::Limit {
                        resource: "trace memory",
                        limit,
                    });
                }
            }
        }
        columns.shrink_to_fit();
        let mut final_regs = [0u64; specmt_isa::NUM_REGS];
        for r in Reg::all() {
            final_regs[r.index()] = emu.reg(r);
        }
        Ok(Trace::from_columns(program, columns, final_regs))
    }

    /// The bytes the trace's columns hold, rank indexes, checkpoints and
    /// return targets included: the figure [`Trace::generate_bounded`]
    /// caps.
    #[cfg(test)]
    fn column_bytes(&self) -> u64 {
        column_bytes(
            self.len() as u64,
            self.addrs.len() as u64,
            self.results.wide_len() as u64,
            self.rets.len() as u64,
        )
    }

    /// Reassembles a trace from its columns (recorded by
    /// [`Trace::record_from`] or decoded by the binary reader, which checks
    /// them against the program); trailing bits of the last `taken` word
    /// are masked off so equal traces compare equal regardless of
    /// serialization history.
    pub(crate) fn from_columns(
        program: Arc<Program>,
        columns: Columns,
        final_regs: [u64; specmt_isa::NUM_REGS],
    ) -> Trace {
        let Columns {
            mut taken,
            marks,
            rets,
            addrs,
            mem,
            results,
            last,
        } = columns;
        let len = results.len();
        debug_assert_eq!(taken.len(), len.div_ceil(64));
        debug_assert_eq!(marks.len(), len.div_ceil(64));
        if !len.is_multiple_of(64) {
            if let Some(last) = taken.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        Trace {
            targets: taken_targets(&program),
            program,
            taken,
            marks,
            rets,
            addrs,
            mem: Arc::new(mem),
            results,
            last: last.into_boxed_slice(),
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
    pub(crate) fn mem_index(&self) -> &Arc<Rank> {
        &self.mem
    }

    /// Every record's effective address in execution order, zero for the
    /// records that are not loads or stores: one cursor walks the sparse
    /// column.
    pub(crate) fn dense_addrs(&self) -> impl Iterator<Item = u64> + '_ {
        let mut addrs = self.addrs.iter();
        (0..self.len()).map(move |k| {
            if self.mem.is_set(k) {
                addrs.next().copied().unwrap_or(0)
            } else {
                0
            }
        })
    }

    /// Every record's result value in execution order.
    pub(crate) fn dense_results(&self) -> impl Iterator<Item = u64> + '_ {
        self.results.iter()
    }

    /// The program this trace was recorded from.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The dynamic index of `pc`'s last record, or `None` if `pc` never
    /// executed or lies beyond the program. The trace keeps one entry per
    /// static instruction, filled as the records arrive, so no walk of the
    /// trace answers this.
    ///
    /// It is public for the simulator's CQIP occurrence oracle, which
    /// lives in `specmt-sim` and answers "this CQIP never occurs again"
    /// from it instead of walking the trace once more per simulation.
    pub fn last_occurrence(&self, pc: Pc) -> Option<usize> {
        self.last
            .get(pc.index())
            .filter(|&&k| k != NEVER)
            .map(|&k| k as usize)
    }

    /// Number of dynamic instructions (including the final `halt`).
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the trace is empty (never true for a generated trace — the
    /// `halt` itself is recorded).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pc that follows the record at `pc` whose taken flag is `taken`;
    /// `ret` counts the returns already passed and advances past a taken
    /// return. A return without a recorded target (the last record of a
    /// trace that does not end in `halt`) continues at pc 0, which no
    /// record reads.
    #[inline]
    fn successor(&self, pc: u32, taken: bool, ret: &mut usize) -> u32 {
        if !taken {
            return pc + 1;
        }
        let target = self.targets[pc as usize];
        if target != RET_TARGET {
            return target;
        }
        let to = self.rets.get(*ret).copied().unwrap_or(0);
        *ret += 1;
        to
    }

    /// The pc of record `k` and the returns before it, from the checkpoint
    /// of `k`'s 64-record word; `k` may be the trace length. Steps over the
    /// word's taken records before `k` only: at most 63.
    fn locate(&self, k: usize) -> (u32, usize) {
        assert!(k <= self.len(), "dynamic index out of range");
        // An index at the end of a whole last word starts from that word.
        let w = (k / 64).min(self.marks.len().saturating_sub(1));
        let Some(&Mark { pc, rets }) = self.marks.get(w) else {
            // An empty trace.
            return (self.program.entry().0, 0);
        };
        let (mut pc, mut ret) = (pc, rets as usize);
        let span = (k - w * 64) as u32;
        let mask = if span == 64 {
            u64::MAX
        } else {
            (1u64 << span) - 1
        };
        let mut bits = self.taken[w] & mask;
        let mut at = 0u32;
        while bits != 0 {
            let b = bits.trailing_zeros();
            pc = self.successor(pc + (b - at), true, &mut ret);
            at = b + 1;
            bits &= bits - 1;
        }
        (pc + (span - at), ret)
    }

    /// The static pc executed at dynamic index `k`: O(1) from the
    /// checkpoint of `k`'s 64-record word plus a step per taken record
    /// before `k` in that word. A loop over the trace should walk
    /// [`Trace::pcs`] or [`Trace::runs`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn pc_at(&self, k: usize) -> Pc {
        assert!(k < self.len(), "dynamic index out of range");
        Pc(self.locate(k).0)
    }

    /// The pcs of records `k..`, in execution order: a cursor that starts
    /// from `k`'s checkpoint and then follows the taken flags.
    ///
    /// # Panics
    ///
    /// Panics if `k` is beyond the trace length.
    pub fn pcs_from(&self, k: usize) -> Pcs<'_> {
        let (pc, ret) = self.locate(k);
        Pcs {
            trace: self,
            k,
            pc,
            ret,
        }
    }

    /// Every record's pc, in execution order.
    pub fn pcs(&self) -> Pcs<'_> {
        self.pcs_from(0)
    }

    /// The pc stream as straight-line runs, in execution order: each run's
    /// records executed consecutive pcs, and only its last record may have
    /// redirected fetch.
    pub fn runs(&self) -> Runs<'_> {
        let (pc, ret) = self.locate(0);
        Runs {
            trace: self,
            k: 0,
            pc,
            ret,
        }
    }

    /// The pc each taken return went to, one per return in execution order
    /// (a return that ends the trace has none). The entry of a return at
    /// dynamic index `k` is `ret_targets()[trace.ret_rank(k)]`.
    pub fn ret_targets(&self) -> &[u32] {
        &self.rets
    }

    /// The number of taken returns before dynamic index `k` (`k` may be the
    /// trace length): the position of record `k`'s entry in
    /// [`Trace::ret_targets`] when it is a return. As cheap as
    /// [`Trace::pc_at`].
    ///
    /// # Panics
    ///
    /// Panics if `k` is beyond the trace length.
    pub fn ret_rank(&self, k: usize) -> usize {
        self.locate(k).1
    }

    /// Whether the instruction at dynamic index `k` redirected fetch.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn taken_at(&self, k: usize) -> bool {
        assert!(k < self.len(), "dynamic index out of range");
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
        assert!(k <= self.len(), "dynamic index out of range");
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
        assert!(k < self.len(), "dynamic index out of range");
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
        self.results.get(k)
    }

    /// The record at dynamic index `k`, assembled from the columns.
    pub fn record(&self, k: usize) -> Option<DynInst> {
        if k >= self.len() {
            return None;
        }
        Some(DynInst {
            pc: self.pc_at(k),
            taken: self.taken_at(k),
            addr: self.addr_at(k),
            result: self.results.get(k),
        })
    }

    /// Iterates over all dynamic records, in execution order.
    pub fn iter_records(&self) -> impl Iterator<Item = DynInst> + '_ {
        self.pcs()
            .zip(self.dense_addrs())
            .zip(self.results.iter())
            .enumerate()
            .map(|(k, ((pc, addr), result))| DynInst {
                pc,
                taken: self.taken[k / 64] & (1u64 << (k % 64)) != 0,
                addr,
                result,
            })
    }

    /// All dynamic records materialised into a vector (test and
    /// interchange convenience — hot paths should use the columnar
    /// accessors or [`Trace::iter_records`]).
    pub fn records_vec(&self) -> Vec<DynInst> {
        self.iter_records().collect()
    }

    /// The static instruction executed at dynamic index `k`, found through
    /// [`Trace::pc_at`].
    ///
    /// Every generated or deserialized trace keeps its pcs inside the
    /// program ([`Trace::validate`] checks exactly this), so the inner
    /// lookup is a plain slice index.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn inst(&self, k: usize) -> &Inst {
        &self.program.insts()[self.pc_at(k).index()]
    }

    /// Checks the structural invariant every downstream consumer relies on:
    /// each record's pc names an instruction of the program.
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
        for run in self.runs() {
            if run.pcs.end as usize > len {
                let pc = run.pcs.start.max(len as u32);
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
        for run in self.runs() {
            for pc in run.pcs {
                counts[pc as usize] += 1;
            }
        }
        counts
    }

    /// Summarises the dynamic instruction mix.
    pub fn mix(&self) -> TraceMix {
        let mut mix = TraceMix::default();
        let insts = self.program.insts();
        for (k, pc) in self.pcs().enumerate() {
            let inst = &insts[pc.index()];
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

/// A cursor over a trace's pc stream, from [`Trace::pcs_from`]: each step
/// reads one taken flag, and a taken record's static target or return
/// target.
#[derive(Debug, Clone)]
pub struct Pcs<'a> {
    trace: &'a Trace,
    /// The dynamic index of the next record.
    k: usize,
    /// That record's pc.
    pc: u32,
    /// The taken returns before it.
    ret: usize,
}

impl Iterator for Pcs<'_> {
    type Item = Pc;

    #[inline]
    fn next(&mut self) -> Option<Pc> {
        let k = self.k;
        if k >= self.trace.len() {
            return None;
        }
        let pc = self.pc;
        let taken = self.trace.taken[k / 64] & (1u64 << (k % 64)) != 0;
        self.pc = self.trace.successor(pc, taken, &mut self.ret);
        self.k = k + 1;
        Some(Pc(pc))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.len() - self.k;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Pcs<'_> {}

/// A straight-line stretch of a trace's pc stream: records
/// `start..start + pcs.len()` executed the consecutive pcs `pcs`, and only
/// the last of them may have redirected fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// The dynamic index of the run's first record.
    pub start: usize,
    /// The pcs the run's records executed, in order.
    pub pcs: Range<u32>,
}

/// The straight-line runs of a trace's pc stream, from [`Trace::runs`]:
/// each step finds the next taken flag with one scan over the packed words.
#[derive(Debug, Clone)]
pub struct Runs<'a> {
    trace: &'a Trace,
    /// The dynamic index of the next run's first record.
    k: usize,
    /// That record's pc.
    pc: u32,
    /// The taken returns before it.
    ret: usize,
}

impl Iterator for Runs<'_> {
    type Item = Run;

    #[inline]
    fn next(&mut self) -> Option<Run> {
        let (start, n) = (self.k, self.trace.len());
        if start >= n {
            return None;
        }
        let taken = &self.trace.taken;
        let mut w = start / 64;
        let mut word = taken[w] & (u64::MAX << (start % 64));
        while word == 0 && w + 1 < taken.len() {
            w += 1;
            word = taken[w];
        }
        // The run ends after the next taken record, or at the trace end
        // (the last word's bits beyond it are clear).
        let (end, redirected) = if word == 0 {
            (n, false)
        } else {
            (w * 64 + word.trailing_zeros() as usize + 1, true)
        };
        let last = self.pc + (end - start - 1) as u32;
        let run = Run {
            start,
            pcs: self.pc..last + 1,
        };
        self.pc = self.trace.successor(last, redirected, &mut self.ret);
        self.k = end;
        Some(run)
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

    /// Asserts that no column of `trace`, rank indexes included, keeps
    /// capacity beyond its length.
    fn assert_tight(trace: &Trace, what: &str) {
        let caps = [
            ("taken", trace.taken.capacity(), trace.taken.len()),
            ("marks", trace.marks.capacity(), trace.marks.len()),
            ("rets", trace.rets.capacity(), trace.rets.len()),
            ("addrs", trace.addrs.capacity(), trace.addrs.len()),
            ("mem.mask", trace.mem.mask.capacity(), trace.mem.mask.len()),
            (
                "mem.before",
                trace.mem.before.capacity(),
                trace.mem.before.len(),
            ),
            ("lo", trace.results.lo.capacity(), trace.results.lo.len()),
            ("hi", trace.results.hi.capacity(), trace.results.hi.len()),
            (
                "wide.mask",
                trace.results.wide.mask.capacity(),
                trace.results.wide.mask.len(),
            ),
            (
                "wide.before",
                trace.results.wide.before.capacity(),
                trace.results.wide.before.len(),
            ),
        ];
        for (column, capacity, len) in caps {
            assert_eq!(capacity, len, "{what}: {column}");
        }
    }

    /// The bytes `trace`'s columns hold, counted from the columns
    /// themselves.
    fn held_bytes(trace: &Trace) -> u64 {
        let r = &trace.results;
        let words = trace.taken.len() + trace.mem.mask.len() + r.wide.mask.len();
        let u32s = 2 * trace.marks.len()
            + trace.rets.len()
            + trace.mem.before.len()
            + r.lo.len()
            + r.hi.len()
            + r.wide.before.len();
        (8 * (words + trace.addrs.len()) + 4 * u32s) as u64
    }

    #[test]
    fn hinted_generation_reserves_exactly_and_matches() {
        let plain = Trace::generate(loop_program(40), 1000).unwrap();
        let n = plain.len() as u64;
        let hinted = Trace::generate_with_hint(loop_program(40), 1000, n).unwrap();
        assert_eq!(hinted.records_vec(), plain.records_vec());
        assert_eq!(hinted.final_regs, plain.final_regs);
        assert_tight(&hinted, "hinted");
        // A wrong hint changes the reservation only; one beyond the step
        // budget is clamped to it.
        for hint in [0, 1, n - 1, n + 1, u64::MAX] {
            let t = Trace::generate_with_hint(loop_program(40), 1000, hint).unwrap();
            assert_eq!(t.records_vec(), plain.records_vec(), "hint {hint}");
            assert_tight(&t, &format!("hint {hint}"));
        }
    }

    #[test]
    fn no_column_keeps_spare_capacity() {
        for program in [loop_program(40), memory_loop_program(40)] {
            let n = Trace::generate(program.clone(), 10_000).unwrap().len() as u64;
            assert_tight(
                &Trace::generate(program.clone(), 10_000).unwrap(),
                "unhinted",
            );
            assert_tight(
                &Trace::generate_with_hint(program.clone(), 10_000, n).unwrap(),
                "hinted",
            );
            assert_tight(
                &Trace::generate_bounded(program, 10_000, 1 << 20).unwrap(),
                "bounded",
            );
        }
        for w in specmt_workloads::suite(specmt_workloads::Scale::Tiny) {
            let t = Trace::generate(w.program.clone(), w.step_budget).unwrap();
            assert_tight(&t, w.name);
            let hinted =
                Trace::generate_with_hint(w.program.clone(), w.step_budget, t.len() as u64)
                    .unwrap();
            assert_tight(&hinted, w.name);
        }
    }

    /// The cap `generate_bounded` enforces is the bytes the columns really
    /// hold, on every tiny suite trace: the count the recording loop keeps
    /// agrees with one taken from the finished columns, and a cap of
    /// exactly that many bytes admits the trace while one byte less
    /// refuses it.
    #[test]
    fn the_trace_cap_counts_the_columns_bytes() {
        let (mut bounded, mut returns) = (0, 0);
        for w in specmt_workloads::suite(specmt_workloads::Scale::Tiny) {
            let t = Trace::generate(w.program.clone(), w.step_budget).unwrap();
            let bytes = held_bytes(&t);
            assert_eq!(t.column_bytes(), bytes, "{}", w.name);
            assert!(t.results.wide_len() > 0, "{}: no wide result", w.name);
            returns += t.rets.len();
            // The emulated-memory cap is the same figure, so it is checked
            // only as far as the workload's memory fits under it.
            let mut emu = Emulator::new(w.program.clone());
            emu.set_memory_limit(bytes);
            if emu.run(w.step_budget).is_err() {
                continue;
            }
            let fits = Trace::generate_bounded(w.program.clone(), w.step_budget, bytes).unwrap();
            assert_eq!(fits.records_vec(), t.records_vec(), "{}", w.name);
            assert_tight(&fits, w.name);
            let err =
                Trace::generate_bounded(w.program.clone(), w.step_budget, bytes - 1).unwrap_err();
            assert_eq!(
                err,
                TraceError::Limit {
                    resource: "trace memory",
                    limit: bytes - 1
                },
                "{}",
                w.name
            );
            bounded += 1;
        }
        assert!(
            bounded > 0,
            "no workload's memory fits under its trace bytes"
        );
        assert!(returns > 0, "no tiny workload's cap counts a return");
    }

    /// Every tiny suite trace's last-occurrence table agrees with a scan of
    /// its pc stream, for every static pc and one beyond the program, and
    /// a codec round trip rebuilds the same table.
    #[test]
    fn last_occurrences_match_a_scan_on_the_tiny_suite() {
        for w in specmt_workloads::suite(specmt_workloads::Scale::Tiny) {
            let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
            let mut want = vec![None; trace.program().len() + 1];
            for (k, pc) in trace.pcs().enumerate() {
                want[pc.index()] = Some(k);
            }
            let mut bytes = Vec::new();
            trace.write_to(&mut bytes).unwrap();
            let copy = Trace::from_bytes(&bytes).unwrap();
            for (pc, &want) in want.iter().enumerate() {
                let pc = Pc(pc as u32);
                assert_eq!(trace.last_occurrence(pc), want, "{}: {pc:?}", w.name);
                assert_eq!(copy.last_occurrence(pc), want, "{}: {pc:?}", w.name);
            }
        }
    }

    /// Every tiny suite trace reads back, through `result_at`, `record`
    /// and `iter_records`, the values the emulator produced.
    #[test]
    fn results_match_the_emulator_on_the_tiny_suite() {
        for w in specmt_workloads::suite(specmt_workloads::Scale::Tiny) {
            let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
            let mut emu = Emulator::new(w.program.clone());
            for (k, rec) in trace.iter_records().enumerate() {
                let Ok(StepOutcome::Executed(want)) = emu.step() else {
                    panic!("{}: emulator stopped before record {k}", w.name);
                };
                assert_eq!(rec, want, "{}: record {k}", w.name);
                assert_eq!(trace.result_at(k), want.result, "{}: record {k}", w.name);
                assert_eq!(trace.record(k), Some(want), "{}: record {k}", w.name);
            }
            assert_eq!(emu.step(), Ok(StepOutcome::Halted), "{}", w.name);
        }
    }

    /// Every tiny suite trace derives the emulator's pc stream: `pc_at` at
    /// every record, a cursor started at every 64-record word boundary (the
    /// trace end included) and at pseudo-random indices, `ret_rank`, and
    /// the straight-line runs, each of which only its last record may
    /// leave by a taken flag.
    #[test]
    fn derived_pcs_match_the_emulator_on_the_tiny_suite() {
        let mut returns = 0;
        for w in specmt_workloads::suite(specmt_workloads::Scale::Tiny) {
            let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
            let insts = trace.program().insts();
            let mut emu = Emulator::new(w.program.clone());
            // The emulator's pcs, and the returns before each record.
            let (mut pcs, mut rets_before, mut targets) = (Vec::new(), vec![0], Vec::new());
            while let Ok(StepOutcome::Executed(rec)) = emu.step() {
                pcs.push(rec.pc);
                let mut r = rets_before[rets_before.len() - 1];
                if insts[rec.pc.index()].is_ret() {
                    targets.push(emu.pc().0);
                    r += 1;
                }
                rets_before.push(r);
            }
            let n = trace.len();
            assert_eq!(pcs.len(), n, "{}", w.name);
            assert_eq!(trace.ret_targets(), &targets[..], "{}", w.name);
            returns += targets.len();
            for (k, &pc) in pcs.iter().enumerate() {
                assert_eq!(trace.pc_at(k), pc, "{}: pc_at({k})", w.name);
            }
            assert_eq!(trace.pcs().collect::<Vec<_>>(), pcs, "{}", w.name);
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
            let random = (0..64).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % (n as u64 + 1)) as usize
            });
            for k in (0..=n).step_by(64).chain([n]).chain(random) {
                let from: Vec<Pc> = trace.pcs_from(k).take(130).collect();
                let want = &pcs[k..(k + 130).min(n)];
                assert_eq!(from, want, "{}: cursor from {k}", w.name);
                assert_eq!(
                    trace.ret_rank(k),
                    rets_before[k],
                    "{}: ret_rank({k})",
                    w.name
                );
            }
            let mut next = 0;
            for run in trace.runs() {
                assert_eq!(run.start, next, "{}", w.name);
                let len = run.pcs.len();
                assert!(len > 0, "{}: empty run at {next}", w.name);
                for (i, pc) in run.pcs.enumerate() {
                    assert_eq!(Pc(pc), pcs[next + i], "{}: run record {}", w.name, next + i);
                    if i + 1 < len {
                        assert!(!trace.taken_at(next + i), "{}: taken mid-run", w.name);
                    }
                }
                next += len;
            }
            assert_eq!(next, n, "{}", w.name);
        }
        assert!(returns > 0, "no tiny workload returns");
    }

    /// A value is narrow exactly when it is the sign extension of its low
    /// 32 bits.
    const BOUNDARIES: [(u64, bool); 11] = [
        (0, false),
        (1, false),
        (u64::MAX, false),
        (i32::MIN as i64 as u64, false),
        (i32::MAX as i64 as u64, false),
        (1 << 31, true),
        ((1 << 32) - 1, true),
        (1 << 32, true),
        (u64::MAX - 1, false),
        ((i32::MIN as i64 - 1) as u64, true),
        (0x8000_0000_0000_0000, true),
    ];

    /// The values of the narrow-encoding checks: 200 of them, boundary
    /// values first and wide values at indices 63, 64, 127 and 128, so the
    /// high-half rank crosses index words; the rest deterministic
    /// pseudo-random 64-bit values.
    fn encoding_values() -> Vec<u64> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut values: Vec<u64> = (0..200)
            .map(|_| {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect();
        for (i, &(v, _)) in BOUNDARIES.iter().enumerate() {
            values[i] = v;
        }
        values[62] = 5;
        values[63] = 1 << 32;
        values[64] = u64::MAX << 1 >> 1;
        values[65] = u64::MAX;
        values[126] = 0;
        values[127] = (1 << 32) - 1;
        values[128] = 1 << 31;
        values[129] = i32::MIN as i64 as u64;
        values
    }

    #[test]
    fn the_narrow_result_encoding_is_exact() {
        for (v, wide) in BOUNDARIES {
            assert_eq!(sign_extend(v as u32) != v, wide, "{v:#x}");
        }
        let values = encoding_values();
        let mut results = Results::default();
        for &v in &values {
            results.push(v);
        }
        let wide: Vec<usize> = (0..values.len())
            .filter(|&k| sign_extend(values[k] as u32) != values[k])
            .collect();
        for k in [63, 64, 127, 128] {
            assert!(wide.contains(&k), "record {k} must be wide");
        }
        assert!(!wide.contains(&62) && !wide.contains(&65) && !wide.contains(&129));
        assert_eq!(results.wide_len(), wide.len());
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(results.get(k), v, "record {k}");
            assert_eq!(
                results.wide.rank(k).is_some(),
                wide.contains(&k),
                "record {k}"
            );
        }
        assert_eq!(results.iter().collect::<Vec<_>>(), values);

        // The same values recorded by `li`, read back through the trace.
        let mut b = ProgramBuilder::new();
        for &v in &values {
            b.li(Reg::R1, v as i64);
        }
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 1000).unwrap();
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(trace.result_at(k), v, "record {k}");
            assert_eq!(trace.record(k).map(|r| r.result), Some(v), "record {k}");
        }
        let read: Vec<u64> = trace.iter_records().map(|r| r.result).collect();
        assert_eq!(read[..values.len()], values[..]);
        assert_eq!(trace.final_reg(Reg::R1), values[values.len() - 1]);
        assert_tight(&trace, "li");
    }

    proptest::proptest! {
        #[test]
        fn random_results_read_back_bit_for_bit(
            values in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..300)
        ) {
            let mut results = Results::default();
            for &v in &values {
                results.push(v);
            }
            for (k, &v) in values.iter().enumerate() {
                proptest::prop_assert_eq!(results.get(k), v);
            }
            proptest::prop_assert_eq!(results.iter().collect::<Vec<_>>(), values);
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
        // steps would record ~46 MB of columns.
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
            .take_while(|&r| column_bytes(r, r / 2, 0, 0) <= limit)
            .last()
            .unwrap();
        // Without their addresses, about limit / 4.6 records would fit.
        assert!(fit < limit / 8, "stores must count: {fit} records fit");
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
            assert_eq!(trace.pcs().count(), trace.len());
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
