//! # specmt-obs
//!
//! Observability layer for the specmt CSMP simulator.
//!
//! The simulator's end-of-run totals ([`SimResult`]) answer *what* a run
//! produced; this crate answers *why*, by exposing the engine's internal
//! thread lifecycle as a stream of structured [`Event`]s:
//!
//! * [`EventSink`] — the zero-cost-when-disabled hook the engine emits
//!   into. With no sink attached and `SimConfig::observe` off, the engine
//!   pays a single branch per would-be emission site.
//! * [`EventLog`] — a sink that records every event in emission order, for
//!   tests and timeline export.
//! * [`MetricsRegistry`] — a sink that folds events into fixed counter
//!   slots and power-of-two histograms (threads in flight, squash reasons,
//!   thread sizes, spawn-to-commit latency); [`MetricsRegistry::snapshot`]
//!   freezes it into a serialisable [`Metrics`] value.
//! * [`chrome`] — export an event log in Chrome's `trace_event` JSON format
//!   for timeline viewing in `chrome://tracing` / Perfetto.
//! * [`audit`](audit()) — replay an event stream through a per-thread state
//!   machine and check the conservation laws that totals alone cannot
//!   express: every spawned thread ends exactly once, squash reasons
//!   partition squashes, and committed window sizes sum to the committed
//!   instruction count.
//!
//! Events are "torn off" facts, not handles: each carries the thread id,
//! thread-unit index and cycle it happened at, so sinks never need access
//! to engine internals.
//!
//! [`SimResult`]: ../specmt_sim/struct.SimResult.html

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod auditor;
pub mod chrome;
mod event;
mod metrics;
mod sink;

pub use auditor::{audit, AuditError, AuditReport, ExpectedTotals};
pub use event::{Event, FaultKind, GateReason, SquashReason};
pub use metrics::{CounterSnapshot, HistogramSnapshot, Metrics, MetricsRegistry};
pub use sink::{EventLog, EventSink, NullSink};
