//! The functional emulator.

use std::sync::Arc;

use specmt_isa::{Inst, Pc, Program, Reg, WORD_BYTES};

use crate::{DynInst, Memory, TraceError, STACK_TOP};

/// Outcome of a single [`Emulator::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction executed; its dynamic record is returned.
    Executed(DynInst),
    /// The machine is halted; no instruction executed.
    Halted,
}

/// Architectural-level emulator: registers, sparse memory, a program counter.
///
/// The emulator is purely functional with respect to timing — it models no
/// pipeline, caches or speculation. It is used to generate [`Trace`]s and as
/// the golden reference the speculative simulator's committed state is
/// checked against.
///
/// The stack pointer is initialised to [`STACK_TOP`], and the program's
/// memory image is applied before execution starts.
///
/// [`Trace`]: crate::Trace
///
/// # Examples
///
/// ```
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::{Emulator, StepOutcome};
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 5);
/// b.halt();
/// let mut emu = Emulator::new(b.build()?);
/// emu.run(10)?;
/// assert!(emu.halted());
/// assert_eq!(emu.reg(Reg::R1), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Emulator {
    program: Arc<Program>,
    regs: [u64; specmt_isa::NUM_REGS],
    mem: Memory,
    pc: Pc,
    halted: bool,
    steps: u64,
    /// Cap on resident memory pages (`None` = unbounded).
    max_pages: Option<usize>,
}

impl Emulator {
    /// Creates an emulator for `program`, applying its memory image.
    ///
    /// Takes a [`Program`] or an [`Arc`] of one: an `Arc` is shared, not
    /// copied, so a workload, its emulator and the trace recorded from it
    /// hold one program between them.
    pub fn new(program: impl Into<Arc<Program>>) -> Emulator {
        let program = program.into();
        let mut mem = Memory::new();
        for &(addr, value) in program.memory_image() {
            mem.store(addr, value);
        }
        let mut regs = [0u64; specmt_isa::NUM_REGS];
        regs[Reg::SP.index()] = STACK_TOP;
        let pc = program.entry();
        Emulator {
            program,
            regs,
            mem,
            pc,
            halted: false,
            steps: 0,
            max_pages: None,
        }
    }

    /// Caps emulated memory at roughly `bytes` (rounded up to whole 32 KiB
    /// pages, minimum one). A store that grows the footprint past the cap
    /// faults with [`TraceError::Limit`] — a runaway program cannot exhaust
    /// host memory.
    pub fn set_memory_limit(&mut self, bytes: u64) {
        let page_bytes = crate::Memory::PAGE_BYTES;
        self.max_pages = Some((bytes.div_ceil(page_bytes).max(1)) as usize);
    }

    /// The value of `reg` (always zero for [`Reg::ZERO`]).
    pub fn reg(&self, reg: Reg) -> u64 {
        self.regs[reg.index()]
    }

    /// Overwrites `reg`; writes to [`Reg::ZERO`] are discarded.
    pub fn set_reg(&mut self, reg: Reg, value: u64) {
        if !reg.is_zero() {
            self.regs[reg.index()] = value;
        }
    }

    /// Reads the memory word at `addr`.
    pub fn load_word(&self, addr: u64) -> u64 {
        self.mem.load(addr)
    }

    /// Writes the memory word at `addr`.
    pub fn store_word(&mut self, addr: u64, value: u64) {
        self.mem.store(addr, value)
    }

    /// The current program counter.
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Whether the machine has executed a `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The program being executed.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadPc`] if control has been transferred outside
    /// the program and [`TraceError::UnalignedAccess`] for misaligned memory
    /// operands.
    pub fn step(&mut self) -> Result<StepOutcome, TraceError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let inst = *self.program.inst(pc).ok_or(TraceError::BadPc {
            pc,
            len: self.program.len(),
        })?;

        let mut taken = false;
        let mut addr = 0u64;
        let mut result = 0u64;
        let mut next = pc.next();

        match inst {
            Inst::Alu { op, dst, a, b } => {
                result = op.apply(self.reg(a), self.reg(b));
                self.set_reg(dst, result);
            }
            Inst::AluImm { op, dst, a, imm } => {
                result = op.apply(self.reg(a), imm as u64);
                self.set_reg(dst, result);
            }
            Inst::Li { dst, imm } => {
                result = imm as u64;
                self.set_reg(dst, result);
            }
            Inst::Load { dst, base, offset } => {
                addr = self.reg(base).wrapping_add(offset as u64);
                if !addr.is_multiple_of(WORD_BYTES) {
                    return Err(TraceError::UnalignedAccess { at: pc, addr });
                }
                result = self.mem.load(addr);
                self.set_reg(dst, result);
            }
            Inst::Store { src, base, offset } => {
                addr = self.reg(base).wrapping_add(offset as u64);
                if !addr.is_multiple_of(WORD_BYTES) {
                    return Err(TraceError::UnalignedAccess { at: pc, addr });
                }
                result = self.reg(src);
                self.mem.store(addr, result);
                if let Some(max) = self.max_pages {
                    if self.mem.resident_pages() > max {
                        return Err(TraceError::Limit {
                            resource: "memory",
                            limit: max as u64 * crate::Memory::PAGE_BYTES,
                        });
                    }
                }
            }
            Inst::Branch { cond, a, b, target } => {
                if cond.eval(self.reg(a), self.reg(b)) {
                    taken = true;
                    next = target;
                }
            }
            Inst::Jump { target } => {
                taken = true;
                next = target;
            }
            Inst::Call { target } => {
                taken = true;
                result = pc.next().0 as u64;
                self.set_reg(Reg::RA, result);
                next = target;
            }
            Inst::Ret => {
                taken = true;
                let ra = self.reg(Reg::RA);
                next = Pc(ra as u32);
                if ra >= self.program.len() as u64 {
                    return Err(TraceError::BadPc {
                        pc: Pc(ra as u32),
                        len: self.program.len(),
                    });
                }
            }
            Inst::Halt => {
                self.halted = true;
            }
            Inst::Nop => {}
        }

        if !self.halted {
            self.pc = next;
        }
        self.steps += 1;
        Ok(StepOutcome::Executed(DynInst {
            pc,
            taken,
            addr,
            result,
        }))
    }

    /// Runs until `halt` or until `max_steps` further instructions have
    /// executed.
    ///
    /// Returns the number of instructions executed by this call.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::StepLimitExceeded`] if the program is still
    /// running after `max_steps`, or any fault from [`Emulator::step`].
    pub fn run(&mut self, max_steps: u64) -> Result<u64, TraceError> {
        let mut executed = 0;
        while !self.halted {
            if executed >= max_steps {
                return Err(TraceError::StepLimitExceeded { limit: max_steps });
            }
            self.step()?;
            executed += 1;
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::ProgramBuilder;

    #[test]
    fn zero_register_is_immutable() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::ZERO, 99);
        b.addi(Reg::R1, Reg::ZERO, 1);
        b.halt();
        let mut emu = Emulator::new(b.build().unwrap());
        emu.run(10).unwrap();
        assert_eq!(emu.reg(Reg::ZERO), 0);
        assert_eq!(emu.reg(Reg::R1), 1);
    }

    #[test]
    fn memory_image_is_applied() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x2000);
        b.ld(Reg::R2, Reg::R1, 8);
        b.halt();
        b.data_block(0x2000, &[10, 20]);
        let mut emu = Emulator::new(b.build().unwrap());
        emu.run(10).unwrap();
        assert_eq!(emu.reg(Reg::R2), 20);
    }

    #[test]
    fn call_and_ret_round_trip() {
        let mut b = ProgramBuilder::new();
        b.call("f"); // @0
        b.halt(); // @1
        b.begin_func("f");
        b.li(Reg::R1, 42); // @2
        b.ret(); // @3
        b.end_func();
        let mut emu = Emulator::new(b.build().unwrap());
        emu.run(10).unwrap();
        assert!(emu.halted());
        assert_eq!(emu.reg(Reg::R1), 42);
        assert_eq!(emu.reg(Reg::RA), 1);
    }

    #[test]
    fn nested_calls_with_stack_discipline() {
        // outer calls inner twice, saving ra on the stack.
        let mut b = ProgramBuilder::new();
        b.call("outer");
        b.halt();
        b.begin_func("outer");
        b.prologue();
        b.call("inner");
        b.call("inner");
        b.epilogue_ret();
        b.end_func();
        b.begin_func("inner");
        b.addi(Reg::R1, Reg::R1, 1);
        b.ret();
        b.end_func();
        let mut emu = Emulator::new(b.build().unwrap());
        emu.run(100).unwrap();
        assert!(emu.halted());
        assert_eq!(emu.reg(Reg::R1), 2);
        assert_eq!(emu.reg(Reg::SP), STACK_TOP);
    }

    #[test]
    fn unaligned_access_faults() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 3);
        b.ld(Reg::R2, Reg::R1, 0);
        b.halt();
        let mut emu = Emulator::new(b.build().unwrap());
        let err = emu.run(10).unwrap_err();
        assert!(matches!(err, TraceError::UnalignedAccess { addr: 3, .. }));
    }

    #[test]
    fn bad_return_address_faults() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::RA, 999);
        b.ret();
        b.halt();
        let mut emu = Emulator::new(b.build().unwrap());
        let err = emu.run(10).unwrap_err();
        assert!(matches!(err, TraceError::BadPc { .. }));
    }

    #[test]
    fn step_after_halt_reports_halted() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let mut emu = Emulator::new(b.build().unwrap());
        emu.run(10).unwrap();
        assert_eq!(emu.step().unwrap(), StepOutcome::Halted);
        assert_eq!(emu.steps(), 1);
    }

    #[test]
    fn memory_limit_faults_runaway_writer() {
        // Touch a fresh 32 KiB page per iteration, forever.
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0x10000);
        b.bind(top);
        b.st(Reg::R1, Reg::R1, 0);
        b.addi(Reg::R1, Reg::R1, 32 * 1024);
        b.j(top);
        b.halt();
        let mut emu = Emulator::new(b.build().unwrap());
        emu.set_memory_limit(4 * 32 * 1024);
        let err = emu.run(1_000_000).unwrap_err();
        assert!(
            matches!(
                err,
                TraceError::Limit {
                    resource: "memory",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn store_records_effective_address_and_value() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x100);
        b.li(Reg::R2, 77);
        b.st(Reg::R2, Reg::R1, 16);
        b.halt();
        let mut emu = Emulator::new(b.build().unwrap());
        emu.step().unwrap();
        emu.step().unwrap();
        match emu.step().unwrap() {
            StepOutcome::Executed(rec) => {
                assert_eq!(rec.addr, 0x110);
                assert_eq!(rec.result, 77);
            }
            StepOutcome::Halted => panic!("expected store to execute"),
        }
        assert_eq!(emu.load_word(0x110), 77);
    }
}
