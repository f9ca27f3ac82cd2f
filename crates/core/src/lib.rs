//! # specmt — speculative multithreading toolkit
//!
//! A from-scratch reproduction of **“Thread-Spawning Schemes for Speculative
//! Multithreading”** (Pedro Marcuello and Antonio González, HPCA-8, 2002):
//! the profile-based spawning-pair selection algorithm, the construct-based
//! heuristics it is compared against, and a trace-driven timing model of the
//! Clustered Speculative Multithreaded Processor, together with a synthetic
//! SpecInt95-like workload suite to drive it all.
//!
//! This crate is a facade: it re-exports the component crates, the
//! [`Bench`] convenience wrapper, and the experiment harness (the
//! [`mod@bench`] module) that regenerates the paper's figures behind the
//! `specmt bench` CLI.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `specmt-isa` | instruction set, programs, assembler |
//! | [`trace`] | `specmt-trace` | emulator, dynamic traces, dependence graphs |
//! | [`workloads`] | `specmt-workloads` | the eight SpecInt95 analogues |
//! | [`analysis`] | `specmt-analysis` | CFG, pruning, reaching probabilities |
//! | [`spawn`] | `specmt-spawn` | spawning-pair selection policies + the [`spawn::SchemeRegistry`] |
//! | [`predict`] | `specmt-predict` | gshare + value predictors |
//! | [`obs`] | `specmt-obs` | lifecycle events, metrics, Chrome trace export, conservation-law auditor |
//! | [`sim`] | `specmt-sim` | the CSMP timing model |
//! | [`exec`] | `specmt-exec` | scoped thread pool for sweeps: per-cell panic isolation, width-independent results |
//! | [`store`] | `specmt-store` | content-addressed artifact store: stage keys, incremental recomputation |
//! | [`stats`] | `specmt-stats` | means, tables, charts |
//! | [`mod@bench`] | `specmt-bench` | [`Bench`], the suite [`bench::Harness`], experiment specs, the figure registry |
//!
//! # Quick start
//!
//! Reproduce the paper's headline experiment on one benchmark:
//!
//! ```
//! use specmt::Bench;
//! use specmt::sim::SimConfig;
//! use specmt::spawn::ProfileConfig;
//! use specmt::workloads::Scale;
//!
//! let bench = Bench::load("ijpeg", Scale::Small)?;
//! let profile = bench.profile_table(&ProfileConfig::default());
//! let result = bench.run(SimConfig::paper(16), &profile.table)?;
//! let speedup = bench.speedup(&result)?;
//! assert!(speedup > 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub use specmt_analysis as analysis;
pub use specmt_exec as exec;
pub use specmt_isa as isa;
pub use specmt_obs as obs;
pub use specmt_predict as predict;
pub use specmt_sim as sim;
pub use specmt_spawn as spawn;
pub use specmt_stats as stats;
pub use specmt_store as store;
pub use specmt_trace as trace;
pub use specmt_workloads as workloads;

pub use specmt_bench as bench;
pub use specmt_bench::{Bench, BenchError};
