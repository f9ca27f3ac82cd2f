//! # specmt-sim
//!
//! A trace-driven timing model of the **Clustered Speculative Multithreaded
//! Processor** (Marcuello & González), configured per §4.1 of the HPCA 2002
//! paper:
//!
//! * 4-to-16 thread units, each a 4-wide out-of-order core: fetch up to 4
//!   instructions per cycle or up to the first taken branch, 4-wide issue, a
//!   64-entry reorder buffer, and the paper's functional-unit mix (2 simple
//!   integer, 2 load/store, 1 integer multiplier, 2 FP, 1 FP multiplier,
//!   1 FP divider);
//! * a per-unit 10-bit gshare whose tables persist across thread
//!   assignments;
//! * a per-unit 32 KB 2-way L1 data cache (32-byte blocks, 3-cycle hits,
//!   8-cycle misses, 4 outstanding misses);
//! * inter-thread register communication with configurable value prediction
//!   (perfect / stride / FCM / last-value / none) and a 3-cycle forwarding
//!   latency;
//! * speculative-versioning memory: cross-thread load-store violations
//!   squash and restart the offending thread;
//! * the paper's dynamic policies: spawning-pair removal after executing
//!   alone (§4.2, Figure 5), CQIP reassignment (Figure 6), minimum observed
//!   thread size (Figure 7b) and an 8-cycle thread-initialisation overhead
//!   (§4.3.2, Figure 11).
//!
//! The simulator replays the sequential dynamic [`Trace`] as the oracle:
//! committed thread windows always partition the trace exactly (a tested
//! invariant), so speculation policies change *timing*, never results.
//!
//! [`Trace`]: specmt_trace::Trace
//!
//! # Examples
//!
//! Single-threaded baseline vs. a 16-unit speculative run:
//!
//! ```
//! use specmt_sim::{SimConfig, Simulator};
//! use specmt_spawn::{profile_pairs, ProfileConfig};
//! use specmt_trace::Trace;
//! use specmt_workloads::{ijpeg, Scale};
//!
//! let w = ijpeg(Scale::Small);
//! let trace = Trace::generate(w.program.clone(), w.step_budget)?;
//!
//! let baseline = Simulator::new(&trace, SimConfig::single_threaded()).run()?;
//!
//! let pairs = profile_pairs(&trace, &ProfileConfig::default());
//! let speculative = Simulator::with_table(&trace, SimConfig::paper(16), &pairs.table).run()?;
//!
//! assert!(speculative.cycles <= baseline.cycles);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Robustness
//!
//! [`Simulator::run`] returns a [`SimError`] instead of panicking: the
//! configuration is validated up front, and hard model invariants (window
//! partition, commit completeness, thread-unit accounting) are audited after
//! every run. A seeded [`FaultPlan`] can inject deterministic hardware
//! misbehaviour — see the [`faults`](crate::FaultPlan) docs — which the
//! audit must survive.
//!
//! # Observability
//!
//! The engine can narrate a run as structured lifecycle events (spawns,
//! squashes with reasons, commits, violations, cache accesses, injected
//! faults) from the [`obs`] layer: pass a sink to
//! [`Simulator::run_with_sink`], or set [`SimConfig::observe`] to aggregate
//! a [`Metrics`] snapshot onto [`SimResult::metrics`]. Observation never
//! perturbs the simulation — results are bit-identical either way (a tested
//! invariant) — and when disabled costs one branch per emission site.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod config;
mod engine;
mod error;
mod faults;
mod occurrences;
mod result;

/// Code revision of the timing model, a component of every
/// simresult-namespace store key. Bump on any change that alters cycle
/// counts or statistics for identical inputs (the golden differential
/// suites define "identical"); forgetting to bump serves stale results.
pub const CODE_REV: u32 = 3;

pub use cache::L1Cache;
pub use config::{
    ConfigDelta, RemovalPolicy, SimConfig, FETCH_WIDTH, GSHARE_BITS, ISSUE_WIDTH, L1_BLOCK_BYTES,
    L1_HIT_LATENCY, L1_MISS_LATENCY, L1_MSHRS, L1_SIZE_BYTES, L1_WAYS, MAX_THREAD_UNITS,
    MISPREDICT_PENALTY, PHYS_REGS, ROB_ENTRIES, SQUASH_PENALTY,
};
pub use engine::Simulator;
pub use error::SimError;
pub use faults::FaultPlan;
pub use result::SimResult;

pub use specmt_obs as obs;
pub use specmt_obs::{EventSink, Metrics};
