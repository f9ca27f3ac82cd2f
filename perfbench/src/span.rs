//! In-memory span recorder for the traced runs.
//!
//! A span is a named host-time interval with an optional parent. Spans
//! are kept in memory, safe to record from executor worker threads, and
//! written out as one JSON array when the run ends; `run.py` folds them
//! into per-layer self times (a span's duration minus the part of it
//! that its child spans cover).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
struct Span {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing it records the interval.
pub struct Open {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_ns: u64,
}

impl Open {
    /// The id children of this span pass as their parent.
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: impl Into<String>, parent: Option<usize>) -> Open {
        Open {
            // Ids only need to be unique, so no ordering with other data.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open`, recording its interval.
    pub fn close(&self, open: Open) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span lock poisoned").push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span and returns its value.
    pub fn time<T>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, parent);
        let value = f();
        self.close(open);
        value
    }

    /// Every recorded span as a JSON array, in closing order.
    pub fn to_json(&self) -> serde_json::Value {
        let spans = self.spans.lock().expect("span lock poisoned");
        serde_json::Value::Array(
            spans
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "id": s.id as u64,
                        "parent": s.parent.map(|p| p as u64),
                        "name": s.name.as_str(),
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                    })
                })
                .collect(),
        )
    }

    /// Writes the spans to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        let text = serde_json::to_string(&self.to_json())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, text)
    }
}

/// Process-wide recorder shared with executor tasks (which must be
/// `'static`).
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}
