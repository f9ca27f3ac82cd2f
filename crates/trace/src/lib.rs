//! # specmt-trace
//!
//! Functional emulation and dynamic-trace generation for the `specmt`
//! speculative-multithreading toolkit.
//!
//! The HPCA 2002 paper this project reproduces drove both its profile pass
//! and its timing simulator from dynamic instruction streams produced by
//! ATOM-instrumented Alpha binaries. This crate plays ATOM's role:
//!
//! * [`Emulator`] executes a [`Program`](specmt_isa::Program) with full
//!   architectural state (registers + sparse word memory),
//! * [`Trace`] is the recorded dynamic instruction stream — one
//!   [`DynInst`] per executed instruction, carrying the branch outcome, the
//!   effective address and the produced value, and
//! * [`DepGraph`] precomputes, for every load, which earlier store
//!   produced its memory operand — the memory half of the raw material for
//!   both the independence/predictability spawning criteria and the timing
//!   model. Register producers are not stored: each is its register's last
//!   writer, which those passes track themselves as they walk the trace.
//!
//! # Examples
//!
//! ```
//! use specmt_isa::{ProgramBuilder, Reg};
//! use specmt_trace::Trace;
//!
//! // sum = 1 + 2 + ... + 5
//! let mut b = ProgramBuilder::new();
//! let top = b.fresh_label("top");
//! b.li(Reg::R1, 0); // i
//! b.li(Reg::R2, 0); // sum
//! b.li(Reg::R3, 5); // n
//! b.bind(top);
//! b.addi(Reg::R1, Reg::R1, 1);
//! b.add(Reg::R2, Reg::R2, Reg::R1);
//! b.blt(Reg::R1, Reg::R3, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let trace = Trace::generate(program, 1_000)?;
//! assert_eq!(trace.final_reg(Reg::R2), 15);
//! assert_eq!(trace.len(), 3 + 3 * 5 + 1); // setup + 5 iterations + halt
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod deps;
mod emulator;
mod error;
mod io;
mod memory;
mod record;

/// Code revision of the trace-generation stage, a component of every
/// trace-namespace store key (see `specmt-store`). Bump when the emulator
/// or trace recording *semantics* change — i.e. when an identical program
/// would now produce a different trace — so stored traces miss cleanly
/// instead of requiring a workspace version bump.
pub const CODE_REV: u32 = 1;

pub use deps::{DepGraph, NO_PRODUCER};
pub use emulator::{Emulator, StepOutcome};
pub use error::TraceError;
pub use memory::Memory;
pub use record::{DynInst, Pcs, Run, Runs, Trace, TraceMix};

/// Initial stack-pointer value given to every emulated program.
///
/// The stack grows downward from here; workloads place their data well below
/// it.
pub const STACK_TOP: u64 = 0x4000_0000;
