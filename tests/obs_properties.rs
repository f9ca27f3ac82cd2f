//! Property-based tests for the observability layer: on *arbitrary*
//! generated programs under adversarial spawn tables,
//!
//! * the event stream always audits cleanly and reproduces the run's own
//!   totals (the conservation laws hold off the curated suite too),
//! * the Chrome `trace_event` export is a serde fixed point — serialising,
//!   reparsing and reserialising yields the identical string — and
//! * within every `(pid, tid)` lane of the export, timestamps are monotone
//!   non-decreasing in array order.
//!
//! The program/table strategies mirror `random_program_invariants.rs`:
//! straight-line blocks and counted loops over random ALU/memory ops, with
//! spawn tables drawn from arbitrary program points.

use std::collections::BTreeMap;

use proptest::prelude::*;

use serde_json::Value;
use specmt::isa::{Pc, Program, ProgramBuilder, Reg};
use specmt::obs::{audit, chrome, EventLog};
use specmt::sim::{SimConfig, Simulator};
use specmt::spawn::{PairOrigin, SpawnPair, SpawnTable};
use specmt::trace::Trace;

const DATA: i64 = 0x2_0000;

#[derive(Debug, Clone)]
enum Op {
    Alu(u8, u8, u8, u8), // kind, dst, a, b
    Load(u8, u8),        // dst, slot
    Store(u8, u8),       // src, slot
}

#[derive(Debug, Clone)]
enum Segment {
    Block(Vec<Op>),
    /// Counted loop: `trips` iterations over the body.
    Loop(u8, Vec<Op>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, 1u8..9, 1u8..9, 1u8..9).prop_map(|(k, d, a, b)| Op::Alu(k, d, a, b)),
        (1u8..9, 0u8..32).prop_map(|(d, s)| Op::Load(d, s)),
        (1u8..9, 0u8..32).prop_map(|(s, slot)| Op::Store(s, slot)),
    ]
}

fn segment_strategy() -> impl Strategy<Value = Segment> {
    prop_oneof![
        prop::collection::vec(op_strategy(), 1..10).prop_map(Segment::Block),
        (2u8..8, prop::collection::vec(op_strategy(), 1..8))
            .prop_map(|(t, body)| Segment::Loop(t, body)),
    ]
}

fn reg(i: u8) -> Reg {
    Reg::new(i).expect("generated registers are in range")
}

fn emit_op(b: &mut ProgramBuilder, op: &Op) {
    use specmt::isa::AluOp;
    let kinds = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Xor,
        AluOp::And,
        AluOp::Or,
    ];
    match op {
        Op::Alu(k, d, a, x) => {
            b.alu(kinds[*k as usize], reg(*d), reg(*a), reg(*x));
        }
        Op::Load(d, slot) => {
            b.ld(reg(*d), Reg::R26, *slot as i64 * 8);
        }
        Op::Store(s, slot) => {
            b.st(reg(*s), Reg::R26, *slot as i64 * 8);
        }
    }
}

fn build_program(segments: &[Segment]) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R26, DATA);
    for (si, seg) in segments.iter().enumerate() {
        match seg {
            Segment::Block(ops) => {
                for op in ops {
                    emit_op(&mut b, op);
                }
            }
            Segment::Loop(trips, body) => {
                let top = b.fresh_label(&format!("loop{si}"));
                b.li(Reg::R27, 0);
                b.li(Reg::R28, *trips as i64);
                b.bind(top);
                for op in body {
                    emit_op(&mut b, op);
                }
                b.addi(Reg::R27, Reg::R27, 1);
                b.blt(Reg::R27, Reg::R28, top);
            }
        }
    }
    b.halt();
    b.build().expect("generated program is structurally valid")
}

/// Random spawn tables over arbitrary program points.
fn table_strategy(len: usize) -> impl Strategy<Value = SpawnTable> {
    prop::collection::vec((0..len as u32, 0..len as u32, 0.0f64..100.0), 0..8).prop_map(|raw| {
        SpawnTable::from_pairs(
            raw.into_iter()
                .map(|(sp, cqip, score)| SpawnPair {
                    sp: Pc(sp),
                    cqip: Pc(cqip),
                    prob: 1.0,
                    avg_dist: 40.0,
                    score,
                    origin: PairOrigin::Profile,
                })
                .collect(),
        )
    })
}

fn number(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) => u64::try_from(*i).expect("non-negative"),
        other => panic!("`{key}` is not an integer: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn event_streams_audit_and_exports_round_trip(
        segments in prop::collection::vec(segment_strategy(), 1..4),
        seed_table in (0usize..1).prop_flat_map(|_| table_strategy(400)),
        tus in 2usize..9,
    ) {
        let program = build_program(&segments);
        let len = program.len();
        let trace = Trace::generate(program, 50_000).expect("generated programs halt");
        // Clamp generated pcs into the program.
        let table = SpawnTable::from_pairs(
            seed_table
                .iter()
                .map(|p| SpawnPair { sp: Pc(p.sp.0 % len as u32), cqip: Pc(p.cqip.0 % len as u32), ..*p })
                .collect(),
        );

        let mut log = EventLog::new();
        let r = Simulator::with_table(&trace, SimConfig::paper(tus), &table)
            .run_with_sink(&mut log)
            .expect("simulation");

        // Conservation laws hold on arbitrary programs too.
        let report = audit(log.events()).expect("stream is well-formed");
        prop_assert!(report.verify(&r.observed_totals()).is_ok());

        // The Chrome export is a serde fixed point: serialise, reparse,
        // reserialise, compare strings (Value-level equality would mask
        // Int/UInt re-typing introduced by the parser).
        let s = chrome::trace_string(log.events()).expect("serialise");
        let reparsed: Value = serde_json::from_str(&s).expect("the export must reparse");
        let s2 = serde_json::to_string_pretty(&reparsed).expect("reserialise");
        prop_assert_eq!(&s, &s2, "export is not a serde fixed point");

        // Per-(pid, tid) lane, timestamps never go backwards.
        let doc = chrome::trace(log.events());
        let Some(Value::Array(rows)) = doc.get("traceEvents") else {
            panic!("missing traceEvents array");
        };
        prop_assert!(!rows.is_empty(), "at least the root thread must appear");
        let mut last: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for row in rows {
            let lane = (number(row, "pid"), number(row, "tid"));
            let ts = number(row, "ts");
            if let Some(prev) = last.insert(lane, ts) {
                prop_assert!(
                    ts >= prev,
                    "lane {:?} went backwards: {} -> {}", lane, prev, ts
                );
            }
        }
    }
}
