//! # specmt-analysis
//!
//! Profile analyses over dynamic traces: the machinery of §3.1 of
//! *Thread-Spawning Schemes for Speculative Multithreading* (Marcuello &
//! González, HPCA 2002).
//!
//! The pipeline is:
//!
//! 1. [`BasicBlocks`] — static decomposition of a program into basic blocks.
//! 2. [`BlockStream`] — the dynamic trace re-expressed as a stream of basic
//!    block executions: a walk over the trace's straight-line runs, taken
//!    afresh by each analysis that reads it, never stored as a vector.
//! 3. [`DynCfg`] — the *dynamic control-flow graph*: blocks as nodes, edge
//!    weights from observed transition frequencies. Supports the paper's
//!    90 %-coverage pruning, splicing edges around pruned nodes with
//!    proportional weight splitting.
//! 4. Reaching probabilities and expected distances, computed two ways:
//!    * [`ReachingAnalysis`] measures them *empirically* from the block
//!      stream (the semantics the paper defines: the probability of
//!      executing block `j` after block `i`, where `i` and `j` appear in the
//!      dynamic sequence only as its endpoints), and
//!    * [`MarkovReach`] computes them *analytically* on the (pruned) CFG via
//!      absorbing-walk solves — the paper's matrix formulation.
//!
//! The two agree on well-covered pairs; the empirical path is the default
//! used by `specmt-spawn`, the analytical path reproduces the paper's
//! methodology and cross-validates the empirical one (see the integration
//! tests).
//!
//! # Examples
//!
//! ```
//! use specmt_isa::{ProgramBuilder, Reg};
//! use specmt_trace::Trace;
//! use specmt_analysis::{BasicBlocks, BlockStream};
//!
//! let mut b = ProgramBuilder::new();
//! let top = b.fresh_label("top");
//! b.li(Reg::R1, 0);
//! b.li(Reg::R2, 8);
//! b.bind(top);
//! b.addi(Reg::R1, Reg::R1, 1);
//! b.blt(Reg::R1, Reg::R2, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let bbs = BasicBlocks::of(&program);
//! assert_eq!(bbs.num_blocks(), 3); // entry, loop body, halt
//!
//! let trace = Trace::generate(program, 1_000)?;
//! let stream = BlockStream::new(&trace, &bbs);
//! assert_eq!(stream.events().count(), 1 + 8 + 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bbs;
mod blockstream;
mod cfg;
mod markov;
mod reach;

/// Code revision of the profile-analysis stage (CFG construction, pruning,
/// reaching probabilities), a component of profile-namespace store keys.
/// Bump when these analyses change output for identical inputs.
pub const CODE_REV: u32 = 1;

pub use bbs::BasicBlocks;
pub use blockstream::{BlockEvent, BlockStream};
pub use cfg::{CfgEdge, CfgNode, DynCfg, PruneSummary};
pub use markov::MarkovReach;
pub use reach::{PairStat, ReachingAnalysis};

/// Identifier of a basic block within a [`BasicBlocks`] decomposition.
pub type BlockId = u32;
