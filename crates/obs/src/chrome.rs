//! Chrome `trace_event` export of an event log.
//!
//! The output loads directly into `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev): each thread unit becomes a timeline
//! lane (`tid`), every thread's spawn-to-retire lifetime becomes a complete
//! (`"ph": "X"`) slice on its unit's lane, and violations/faults become
//! instant (`"ph": "i"`) markers. Timestamps are simulated cycles.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::{Event, SquashReason};

/// Lifetime of one thread, reassembled from its spawn and terminal events.
struct Lifetime {
    unit: u32,
    start: u64,
    speculative: bool,
    end: Option<(u64, &'static str)>,
    size: u64,
}

/// Build the Chrome `trace_event` JSON document for an event log.
///
/// Events in the `traceEvents` array are sorted by `(pid, tid, ts)`, so
/// within each thread-unit lane timestamps are monotone non-decreasing — a
/// property the viewers do not strictly require but that makes the export
/// diff-stable and easy to assert on.
pub fn trace(events: &[Event]) -> Value {
    let mut lives: BTreeMap<u64, Lifetime> = BTreeMap::new();
    let mut horizon = 0u64;
    for ev in events {
        horizon = horizon.max(ev.cycle());
        match *ev {
            Event::ThreadSpawned {
                thread,
                unit,
                cycle,
                speculative,
            } => {
                lives.insert(
                    thread,
                    Lifetime {
                        unit,
                        start: cycle,
                        speculative,
                        end: None,
                        size: 0,
                    },
                );
            }
            Event::ThreadSquashed {
                thread,
                cycle,
                reason,
                ..
            } => {
                if let Some(l) = lives.get_mut(&thread) {
                    l.end = Some((
                        cycle,
                        match reason {
                            SquashReason::ControlMisspeculation => "squashed (control)",
                            SquashReason::InjectedFault => "squashed (fault)",
                        },
                    ));
                }
            }
            Event::ThreadCommitted {
                thread,
                cycle,
                size,
                ..
            } => {
                if let Some(l) = lives.get_mut(&thread) {
                    l.end = Some((cycle, "committed"));
                    l.size = size;
                }
            }
            _ => {}
        }
    }

    // (tid lane, ts, record) triples, sorted at the end so each lane's
    // timestamps are monotone.
    let mut rows: Vec<(u32, u64, Value)> = Vec::new();
    for (thread, l) in &lives {
        let (end, outcome) = l.end.unwrap_or((horizon, "in-flight"));
        rows.push((
            l.unit,
            l.start,
            json!({
                "name": format!("thread {thread} ({outcome})"),
                "cat": if l.speculative { "speculative" } else { "root" },
                "ph": "X",
                "ts": l.start,
                "dur": end.saturating_sub(l.start),
                "pid": 0,
                "tid": l.unit,
                "args": { "thread": *thread, "outcome": outcome, "size": l.size },
            }),
        ));
    }
    for ev in events {
        let marker = match ev {
            Event::ViolationDetected { .. } => {
                Some(("violation", json!({ "thread": ev.thread() })))
            }
            Event::FaultInjected { kind, .. } => Some((
                "fault",
                json!({ "thread": ev.thread(), "kind": kind.counter() }),
            )),
            _ => None,
        };
        if let Some((name, args)) = marker {
            rows.push((
                ev.unit(),
                ev.cycle(),
                json!({
                    "name": name,
                    "cat": name,
                    "ph": "i",
                    "s": "t",
                    "ts": ev.cycle(),
                    "pid": 0,
                    "tid": ev.unit(),
                    "args": args,
                }),
            ));
        }
    }
    rows.sort_by_key(|r| (r.0, r.1));

    json!({
        "displayTimeUnit": "ms",
        "otherData": { "clock": "simulated cycles", "source": "specmt-obs" },
        "traceEvents": rows.into_iter().map(|r| r.2).collect::<Vec<Value>>(),
    })
}

/// [`trace`] serialised to a JSON string (pretty-printed).
pub fn trace_string(events: &[Event]) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(&trace(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;

    fn sample() -> Vec<Event> {
        vec![
            Event::ThreadSpawned {
                thread: 0,
                unit: 0,
                cycle: 0,
                speculative: false,
            },
            Event::ThreadSpawned {
                thread: 1,
                unit: 1,
                cycle: 5,
                speculative: true,
            },
            Event::ViolationDetected {
                thread: 1,
                unit: 1,
                cycle: 9,
            },
            Event::FaultInjected {
                thread: 1,
                unit: 1,
                cycle: 11,
                kind: FaultKind::CacheJitter { cycles: 2 },
            },
            Event::ThreadCommitted {
                thread: 0,
                unit: 0,
                cycle: 20,
                spawn_cycle: 0,
                size: 40,
            },
            Event::ThreadSquashed {
                thread: 1,
                unit: 1,
                cycle: 20,
                reason: SquashReason::ControlMisspeculation,
            },
        ]
    }

    fn ts_of(v: &Value) -> u64 {
        match v.get("ts") {
            Some(Value::UInt(u)) => *u,
            Some(Value::Int(i)) => *i as u64,
            other => panic!("bad ts: {other:?}"),
        }
    }

    fn tid_of(v: &Value) -> u64 {
        match v.get("tid") {
            Some(Value::UInt(u)) => *u,
            Some(Value::Int(i)) => *i as u64,
            other => panic!("bad tid: {other:?}"),
        }
    }

    #[test]
    fn lanes_are_monotone_and_complete() {
        let doc = trace(&sample());
        let Some(Value::Array(evs)) = doc.get("traceEvents") else {
            panic!("missing traceEvents");
        };
        // 2 lifetimes + 2 instants.
        assert_eq!(evs.len(), 4);
        let mut last: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in evs {
            let (tid, ts) = (tid_of(ev), ts_of(ev));
            let prev = last.entry(tid).or_insert(0);
            assert!(ts >= *prev, "lane {tid} went backwards: {prev} -> {ts}");
            *prev = ts;
        }
    }

    #[test]
    fn export_round_trips_through_serde_json() {
        let s = trace_string(&sample()).expect("serialize");
        let v: Value = serde_json::from_str(&s).expect("parse");
        let s2 = serde_json::to_string_pretty(&v).expect("re-serialize");
        assert_eq!(s, s2);
    }

    #[test]
    fn unterminated_threads_extend_to_the_horizon() {
        let events = vec![
            Event::ThreadSpawned {
                thread: 0,
                unit: 0,
                cycle: 0,
                speculative: false,
            },
            Event::ThreadSpawned {
                thread: 1,
                unit: 2,
                cycle: 8,
                speculative: true,
            },
            Event::ThreadCommitted {
                thread: 0,
                unit: 0,
                cycle: 30,
                spawn_cycle: 0,
                size: 12,
            },
        ];
        let doc = trace(&events);
        let s = serde_json::to_string(&doc).expect("serialize");
        assert!(s.contains("in-flight"));
        assert!(s.contains("\"dur\":22")); // 30 (horizon) - 8 (spawn)
    }
}
