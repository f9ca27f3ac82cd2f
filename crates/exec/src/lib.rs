//! # specmt-exec
//!
//! Parallel batch runner for simulation sweeps: a scoped thread pool with
//! per-cell panic isolation.
//!
//! The harness runs experiment grids of hundreds of (workload × scheme ×
//! config) cells. Each cell is pure — a deterministic simulation over
//! `Arc`'d immutable artifacts — so a sweep needs exactly two things from
//! its runner: results that do not depend on the pool width, and a
//! panicking cell that cannot take the sweep down.
//!
//! * **Scoped pool.** [`Executor::run_batch`] runs one batch on
//!   [`ExecConfig::jobs`] threads inside `std::thread::scope` (the calling
//!   thread is one of them). Threads claim cells in submission order from
//!   an atomic next-cell index, and cell `i`'s value lands in slot `i`, so
//!   batch results are bit-identical at any width.
//! * **Panic isolation.** Each cell runs inside `catch_unwind`. A panic
//!   becomes [`CellOutcome::Panicked`] with the panic's message, the
//!   cell's value slot stays `None`, and the batch still returns. The
//!   process's panic hook prints its usual banner for the panic, once:
//!   a deterministic cell that panicked would panic again, so nothing is
//!   retried.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Pool settings for [`Executor::run_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads. `0` means one per available CPU.
    pub jobs: usize,
}

impl ExecConfig {
    /// Threads for a batch of `cells`: `jobs` (or the machine's available
    /// parallelism when `jobs` is 0), at most one per cell, at least one.
    fn threads_for(self, cells: usize) -> usize {
        let jobs = if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        jobs.min(cells).max(1)
    }
}

/// The closure one cell runs.
type Run<T> = Box<dyn FnOnce() -> T + Send>;

/// One unit of batch work: a label for the report plus the closure that
/// computes the cell's value.
pub struct Task<T> {
    label: String,
    run: Run<T>,
}

impl<T> Task<T> {
    /// A task from its report label and closure.
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Task<T> {
        Task {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

impl<T> std::fmt::Debug for Task<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// How one batch cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell returned a value.
    Ok,
    /// The cell panicked; its value slot is `None`.
    Panicked {
        /// The panic's message (see [`panic_message`]).
        message: String,
    },
}

impl std::fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellOutcome::Ok => write!(f, "ok"),
            CellOutcome::Panicked { message } => write!(f, "panicked: {message}"),
        }
    }
}

/// One cell's entry in the [`BatchReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The task's label.
    pub label: String,
    /// How the cell ended.
    pub outcome: CellOutcome,
}

/// Every cell's outcome, in submission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// One entry per submitted cell, in submission order.
    pub cells: Vec<CellReport>,
}

impl BatchReport {
    /// Cells that panicked instead of returning a value.
    pub fn degraded(&self) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.outcome != CellOutcome::Ok)
            .count() as u64
    }
}

/// What a batch run hands back: one value slot per cell (in submission
/// order, `None` where the cell panicked) plus the [`BatchReport`].
pub struct BatchResult<T> {
    /// Per-cell values; `values[i]` is `Some` iff `report.cells[i]`
    /// ended [`CellOutcome::Ok`].
    pub values: Vec<Option<T>>,
    /// The per-cell outcome record.
    pub report: BatchReport,
}

impl<T> std::fmt::Debug for BatchResult<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchResult")
            .field("values", &format_args!("[{} cells]", self.values.len()))
            .field("report", &self.report)
            .finish()
    }
}

/// Runs batches with [`Executor::run_batch`]. Holds only its
/// configuration: each batch builds its pool and tears it down.
#[derive(Debug, Default)]
pub struct Executor {
    cfg: ExecConfig,
}

/// A cell's slot: its closure until a thread claims it, then its result.
enum Slot<T> {
    Queued(Run<T>),
    Claimed,
    Done(Result<T, String>),
}

impl Executor {
    /// An executor with the given configuration.
    pub fn new(cfg: ExecConfig) -> Executor {
        Executor { cfg }
    }

    /// Runs every cell and reports each one's outcome. Returns once all
    /// cells have ended; a panicking cell degrades into a `None` value with
    /// its message on record and never aborts the batch.
    pub fn run_batch<T: Send>(&self, tasks: Vec<Task<T>>) -> BatchResult<T> {
        let threads = self.cfg.threads_for(tasks.len());
        let (labels, slots): (Vec<String>, Vec<Mutex<Slot<T>>>) = tasks
            .into_iter()
            .map(|t| (t.label, Mutex::new(Slot::Queued(t.run))))
            .unzip();
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                // The index hands each slot to exactly one thread, so this
                // lock is never contended; it only makes the slot shareable.
                let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                if let Slot::Queued(run) = std::mem::replace(&mut *slot, Slot::Claimed) {
                    let result = catch_unwind(AssertUnwindSafe(run));
                    *slot = Slot::Done(result.map_err(|payload| panic_message(payload.as_ref())));
                }
            }
        };
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(work);
            }
            work();
        });

        let mut values = Vec::with_capacity(labels.len());
        let mut cells = Vec::with_capacity(labels.len());
        for (label, slot) in labels.into_iter().zip(slots) {
            let outcome = match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Slot::Done(Ok(value)) => {
                    values.push(Some(value));
                    CellOutcome::Ok
                }
                Slot::Done(Err(message)) => {
                    values.push(None);
                    CellOutcome::Panicked { message }
                }
                Slot::Queued(_) | Slot::Claimed => {
                    unreachable!(
                        "the scope joins every thread after the index passes the last cell"
                    )
                }
            };
            cells.push(CellReport { label, outcome });
        }
        BatchResult {
            values,
            report: BatchReport { cells },
        }
    }
}

/// The message of a caught panic payload: the `&str` or `String` that
/// `panic!` formats, or a placeholder for any other payload type.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_tasks(n: usize) -> Vec<Task<u64>> {
        (0..n as u64)
            .map(|i| Task::new(format!("sq{i}"), move || i * i))
            .collect()
    }

    #[test]
    fn clean_batch_completes_with_values_in_order() {
        let out = Executor::new(ExecConfig { jobs: 4 }).run_batch(square_tasks(50));
        let want: Vec<Option<u64>> = (0..50u64).map(|i| Some(i * i)).collect();
        assert_eq!(out.values, want);
        assert_eq!(out.report.degraded(), 0);
        assert_eq!(out.report.cells.len(), 50);
        assert_eq!(out.report.cells[7].label, "sq7");
        assert!(out
            .report
            .cells
            .iter()
            .all(|c| c.outcome == CellOutcome::Ok));
    }

    #[test]
    fn empty_batch_is_complete() {
        let out = Executor::default().run_batch(Vec::<Task<u8>>::new());
        assert!(out.values.is_empty());
        assert_eq!(out.report, BatchReport::default());
    }

    #[test]
    fn panicking_cell_degrades_and_neighbours_complete() {
        for jobs in [1, 3] {
            let mut tasks = square_tasks(9);
            tasks[4] = Task::new("boom", || panic!("cell four exploded"));
            tasks[6] = Task::new("boxed", || std::panic::panic_any(17u8));
            let out = Executor::new(ExecConfig { jobs }).run_batch(tasks);
            assert_eq!(out.report.degraded(), 2, "jobs {jobs}");
            assert_eq!(
                out.report.cells[4],
                CellReport {
                    label: "boom".into(),
                    outcome: CellOutcome::Panicked {
                        message: "cell four exploded".into()
                    },
                }
            );
            assert_eq!(
                out.report.cells[6].outcome.to_string(),
                "panicked: non-string panic payload"
            );
            for (i, v) in out.values.iter().enumerate() {
                let want = (i != 4 && i != 6).then(|| (i * i) as u64);
                assert_eq!(*v, want, "jobs {jobs} cell {i}");
            }
        }
    }

    #[test]
    fn values_are_identical_at_any_parallelism() {
        let serial = Executor::new(ExecConfig { jobs: 1 })
            .run_batch(square_tasks(33))
            .values;
        for jobs in [0, 2, 5, 64] {
            let wide = Executor::new(ExecConfig { jobs })
                .run_batch(square_tasks(33))
                .values;
            assert_eq!(serial, wide, "jobs {jobs}");
        }
    }

    #[test]
    fn threads_are_capped_by_cells_and_never_zero() {
        assert_eq!(ExecConfig { jobs: 8 }.threads_for(3), 3);
        assert_eq!(ExecConfig { jobs: 2 }.threads_for(100), 2);
        assert_eq!(ExecConfig { jobs: 4 }.threads_for(0), 1);
        assert!(ExecConfig::default().threads_for(1000) >= 1);
    }
}
