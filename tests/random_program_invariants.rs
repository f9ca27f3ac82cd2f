//! Property-based tests: the toolkit's invariants must hold on *arbitrary*
//! programs, not just the curated workloads.
//!
//! A proptest strategy generates random-but-always-terminating programs
//! (sequences of straight-line blocks and counted loops over random ALU and
//! memory instructions), then checks:
//!
//! * the emulator halts, the trace replays it record for record, and the
//!   dependence graph is causally ordered with exactly the memory producers
//!   a naive last-store map finds,
//! * the block stream tiles the trace and the CFG conserves edge weight,
//! * reaching probabilities are probabilities,
//! * and — the big one — the simulator commits exactly the sequential
//!   trace under *adversarial* spawn tables built from random program
//!   points, with random policies enabled, and computes the same result
//!   whether its run is plain, streamed to a sink or observed.
//!
//! The block stream, walked from the trace's straight-line runs, must also
//! equal a record-by-record reference, and the dynamic CFG's totals and
//! edges must be that reference's, on both kinds of program.
//!
//! A second strategy adds calls to random functions that return through a
//! link register the call set, one reloaded from the stack, or one set by
//! `li` or moved past the next instruction by `addi`, and checks that the
//! pc stream the trace derives from its taken flags and return targets is
//! the emulator's.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use proptest::TestCaseResult;

use specmt::analysis::{BasicBlocks, BlockEvent, BlockStream, DynCfg, ReachingAnalysis};
use specmt::isa::{Pc, Program, ProgramBuilder, Reg};
use specmt::obs::EventLog;
use specmt::predict::ValuePredictorKind;
use specmt::sim::{RemovalPolicy, SimConfig, Simulator};
use specmt::spawn::{PairOrigin, SpawnPair, SpawnTable};
use specmt::trace::{DepGraph, Emulator, StepOutcome, Trace, NO_PRODUCER};

const DATA: i64 = 0x2_0000;

/// One generated instruction for a loop/block body.
#[derive(Debug, Clone)]
enum Op {
    Alu(u8, u8, u8, u8), // kind, dst, a, b
    AluImm(u8, u8, u8, i8),
    Load(u8, u8),  // dst, slot
    Store(u8, u8), // src, slot
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
        (0u8..6, 1u8..9, 1u8..9, any::<i8>()).prop_map(|(k, d, a, i)| Op::AluImm(k, d, a, i)),
        (1u8..9, 0u8..32).prop_map(|(d, s)| Op::Load(d, s)),
        (1u8..9, 0u8..32).prop_map(|(s, slot)| Op::Store(s, slot)),
    ]
}

fn segment_strategy() -> impl Strategy<Value = Segment> {
    prop_oneof![
        prop::collection::vec(op_strategy(), 1..12).prop_map(Segment::Block),
        (2u8..9, prop::collection::vec(op_strategy(), 1..10))
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
        Op::AluImm(k, d, a, i) => {
            b.alu_imm(kinds[*k as usize], reg(*d), reg(*a), *i as i64);
        }
        Op::Load(d, slot) => {
            b.ld(reg(*d), Reg::R26, *slot as i64 * 8);
        }
        Op::Store(s, slot) => {
            b.st(reg(*s), Reg::R26, *slot as i64 * 8);
        }
    }
}

/// Lowers the generated segments to a program that always halts.
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

/// How a generated function returns.
#[derive(Debug, Clone, Copy)]
enum Return {
    /// Through the link register its call set.
    Link,
    /// Saves the link register on the stack, calls a leaf, reloads it.
    Reloaded,
    /// `addi ra, ra, 1`: skips the instruction after its call site.
    Skip,
    /// `li ra, ...`: to the instruction after its call site, by address.
    Li,
}

#[derive(Debug, Clone)]
enum CallSegment {
    Block(Vec<Op>),
    /// A call to a function of its own that runs the body and returns so.
    Call(Return, Vec<Op>),
    /// Counted loop whose body is such a call.
    LoopCall(u8, Return, Vec<Op>),
}

fn return_strategy() -> impl Strategy<Value = Return> {
    prop_oneof![
        Just(Return::Link),
        Just(Return::Reloaded),
        Just(Return::Skip),
        Just(Return::Li),
    ]
}

fn call_segment_strategy() -> impl Strategy<Value = CallSegment> {
    prop_oneof![
        prop::collection::vec(op_strategy(), 1..12).prop_map(CallSegment::Block),
        (
            return_strategy(),
            prop::collection::vec(op_strategy(), 0..8)
        )
            .prop_map(|(r, body)| CallSegment::Call(r, body)),
        (
            2u8..9,
            return_strategy(),
            prop::collection::vec(op_strategy(), 0..6)
        )
            .prop_map(|(t, r, body)| CallSegment::LoopCall(t, r, body)),
    ]
}

/// Lowers call segments to a program that always halts: the main body first,
/// then one function per call site (so an `li` return knows its site's
/// address), then the leaf the `Reloaded` functions call.
fn build_call_program(segments: &[CallSegment]) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::R26, DATA);
    // Per call site: the callee's name, how it returns, its body and the
    // site's address.
    let mut sites: Vec<(String, Return, &[Op], Pc)> = Vec::new();
    let call = |b: &mut ProgramBuilder, ret: Return, si: usize| {
        let site = b.call(&format!("f{si}"));
        if let Return::Skip = ret {
            // Skipped by the return.
            b.addi(Reg::R10, Reg::R10, 1);
        }
        site
    };
    for (si, seg) in segments.iter().enumerate() {
        match seg {
            CallSegment::Block(ops) => {
                for op in ops {
                    emit_op(&mut b, op);
                }
            }
            CallSegment::Call(ret, body) => {
                let site = call(&mut b, *ret, si);
                sites.push((format!("f{si}"), *ret, body, site));
            }
            CallSegment::LoopCall(trips, ret, body) => {
                let top = b.fresh_label(&format!("loop{si}"));
                b.li(Reg::R27, 0);
                b.li(Reg::R28, *trips as i64);
                b.bind(top);
                let site = call(&mut b, *ret, si);
                sites.push((format!("f{si}"), *ret, body, site));
                b.addi(Reg::R27, Reg::R27, 1);
                b.blt(Reg::R27, Reg::R28, top);
            }
        }
    }
    b.halt();
    for (name, ret, body, site) in sites {
        b.begin_func(&name);
        if let Return::Reloaded = ret {
            b.prologue();
        }
        for op in body {
            emit_op(&mut b, op);
        }
        match ret {
            Return::Link => {
                b.ret();
            }
            Return::Reloaded => {
                b.call("leaf");
                b.epilogue_ret();
            }
            Return::Skip => {
                b.addi(Reg::RA, Reg::RA, 1);
                b.ret();
            }
            Return::Li => {
                b.li(Reg::RA, i64::from(site.0) + 1);
                b.ret();
            }
        }
        b.end_func();
    }
    b.begin_func("leaf");
    b.addi(Reg::R11, Reg::R11, 1);
    b.ret();
    b.end_func();
    b.build().expect("generated program is structurally valid")
}

/// The block events of `trace`, one record at a time from its pc cursor: a
/// record at its block's start opens an event, and so does one entering a
/// block mid-way (a return to a computed address) unless the open event is
/// of that same block, which it then extends.
fn reference_block_events(trace: &Trace, bbs: &BasicBlocks) -> Vec<BlockEvent> {
    let mut events: Vec<BlockEvent> = Vec::new();
    for (k, pc) in trace.pcs().enumerate() {
        let block = bbs.block_of(pc);
        match events.last_mut() {
            Some(cur) if cur.block == block && !bbs.is_block_start(pc) => cur.len += 1,
            _ => events.push(BlockEvent {
                block,
                len: 1,
                first_dyn: k as u32,
            }),
        }
    }
    events
}

/// The walked block stream equals the record-by-record reference, and the
/// dynamic CFG's per-block totals and transition edges are the reference's.
fn check_block_walk(program: Program) -> TestCaseResult {
    let trace = Trace::generate(program, 50_000).expect("generated programs halt");
    let bbs = BasicBlocks::of(trace.program());
    let stream = BlockStream::new(&trace, &bbs);
    let reference = reference_block_events(&trace, &bbs);
    prop_assert_eq!(stream.events().collect::<Vec<_>>(), reference.clone());
    // A second walk of the same view yields the same events.
    prop_assert_eq!(stream.events().count(), reference.len());

    let cfg = DynCfg::build(&stream, &bbs);
    let mut totals = vec![(0u64, 0u64); bbs.num_blocks()];
    let mut edges: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for (i, e) in reference.iter().enumerate() {
        totals[e.block as usize].0 += 1;
        totals[e.block as usize].1 += u64::from(e.len);
        if let Some(prev) = i.checked_sub(1).map(|p| reference[p].block) {
            *edges.entry((prev, e.block)).or_default() += 1;
        }
    }
    for (b, &(occurrences, instructions)) in totals.iter().enumerate() {
        let node = cfg.node(b as u32);
        prop_assert_eq!(node.occurrences, occurrences, "occurrences of block {}", b);
        prop_assert_eq!(
            node.instructions,
            instructions,
            "instructions of block {}",
            b
        );
    }
    let mut cfg_edges: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for b in 0..bbs.num_blocks() as u32 {
        for (to, edge) in cfg.out_edges(b) {
            cfg_edges.insert((b, to), edge.weight);
        }
    }
    let expected: BTreeMap<(u32, u32), f64> =
        edges.into_iter().map(|(k, n)| (k, n as f64)).collect();
    prop_assert_eq!(cfg_edges, expected);
    Ok(())
}

/// Random spawn tables over arbitrary program points — far more hostile
/// than anything the selectors produce.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn emulator_and_dependences_are_causal(segments in prop::collection::vec(segment_strategy(), 1..5)) {
        let program = build_program(&segments);
        let trace = Trace::generate(program.clone(), 50_000).expect("generated programs halt");
        prop_assert!(trace.len() >= 2);
        let deps = DepGraph::build(&trace);
        // A second emulator replays the program alongside the trace, and a
        // naive map from address to last store is the memory-producer
        // oracle: every load's producer must match it, present or absent.
        let mut emu = Emulator::new(program);
        let mut last_store: HashMap<u64, u32> = HashMap::new();
        for k in 0..trace.len() {
            let rec = trace.record(k).expect("in range");
            prop_assert_eq!(emu.step(), Ok(StepOutcome::Executed(rec)), "record {}", k);
            // The result column keeps most values as their low 32 bits
            // alone; each must still read back as the emulator wrote it.
            prop_assert_eq!(trace.result_at(k), rec.result, "result {}", k);
            let inst = trace.inst(k);
            let m = deps.mem_producer(k);
            if m != NO_PRODUCER {
                prop_assert!((m as usize) < k, "producer after consumer");
            }
            if inst.is_load() {
                let naive = last_store.get(&rec.addr).copied().unwrap_or(NO_PRODUCER);
                prop_assert_eq!(m, naive, "load {}", k);
            } else {
                prop_assert_eq!(m, NO_PRODUCER, "non-load {}", k);
            }
            if inst.is_store() {
                last_store.insert(rec.addr, k as u32);
            }
        }
        prop_assert_eq!(emu.step(), Ok(StepOutcome::Halted));
        // One producer entry per load or store, none for other records.
        prop_assert_eq!(deps.mem_producers().len(), trace.mem_addrs().len());
    }

    #[test]
    fn analysis_invariants_hold(segments in prop::collection::vec(segment_strategy(), 1..5), coverage in 0.5f64..1.0) {
        let program = build_program(&segments);
        let trace = Trace::generate(program, 50_000).expect("halts");
        let bbs = BasicBlocks::of(trace.program());
        let stream = BlockStream::new(&trace, &bbs);
        // Events tile the trace.
        let total: u64 = stream.events().map(|e| e.len as u64).sum();
        prop_assert_eq!(total, trace.len() as u64);
        // Pruning conserves (never creates) edge weight.
        let mut cfg = DynCfg::build(&stream, &bbs);
        let summary = cfg.prune_to_coverage(coverage);
        prop_assert!(summary.coverage >= coverage - 1e-9 || summary.pruned == 0);
        prop_assert!(cfg.check_weight_sanity(1e-6));
        // Reaching probabilities are probabilities.
        let reach = ReachingAnalysis::compute(&stream, &cfg.kept_blocks());
        for &i in reach.tracked() {
            for &j in reach.tracked() {
                let p = reach.prob(i, j);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
                prop_assert!(reach.avg_distance(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn simulator_commits_the_trace_under_adversarial_tables(
        segments in prop::collection::vec(segment_strategy(), 1..5),
        seed_table in (0usize..1).prop_flat_map(|_| table_strategy(400)),
        tus in 1usize..9,
        removal in proptest::bool::ANY,
        reassign in proptest::bool::ANY,
        min_size in proptest::option::of(8u32..64),
        predictor in prop_oneof![
            Just(ValuePredictorKind::Perfect),
            Just(ValuePredictorKind::Stride),
            Just(ValuePredictorKind::Fcm),
            Just(ValuePredictorKind::None),
        ],
    ) {
        let program = build_program(&segments);
        let len = program.len();
        let trace = Trace::generate(program, 50_000).expect("halts");
        // Clamp generated pcs into the program.
        let table = SpawnTable::from_pairs(
            seed_table
                .iter()
                .map(|p| SpawnPair {
                    sp: Pc(p.sp.0 % len as u32),
                    cqip: Pc(p.cqip.0 % len as u32),
                    ..*p
                })
                .collect(),
        );
        let mut cfg = SimConfig::paper(tus).with_value_predictor(predictor);
        if removal {
            cfg = cfg.with_removal(RemovalPolicy { alone_cycles: 20, occurrences: 2 });
        }
        cfg.reassign = reassign;
        cfg.min_observed_size = min_size;
        let r = Simulator::with_table(&trace, cfg.clone(), &table).run().expect("simulation");
        prop_assert_eq!(r.committed_instructions, trace.len() as u64);
        prop_assert!(r.cycles > 0);
        // Sequential semantics imply the cycle count is at least the
        // depth-bound of the fetch stage.
        prop_assert!(r.cycles as usize >= trace.len() / (4 * tus.max(1)) / 2);
        // The engine's window loop is compiled once per combination of
        // observed, long enough to fill the ROB or rename ring, and
        // perfectly predicted live-ins; every observed run must compute
        // exactly what the plain run does.
        let mut log = EventLog::new();
        let sunk = Simulator::with_table(&trace, cfg.clone(), &table)
            .run_with_sink(&mut log)
            .expect("sink run");
        prop_assert_eq!(&sunk, &r, "streaming events changed the result");
        let mut observed = Simulator::with_table(&trace, cfg.with_observe(true), &table)
            .run()
            .expect("observed run");
        prop_assert!(observed.metrics.take().is_some(), "observe = true kept no metrics");
        prop_assert_eq!(&observed, &r, "observe = true changed the result");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The trace keeps no pc column: every record's pc is derived from the
    /// taken flags, the static targets and the return targets. Whatever
    /// way a function returns, the derived stream is the emulator's,
    /// through the cursor, `pc_at`, the straight-line runs and the codec;
    /// the engine's own pc cursor is checked against `pc_at` at every
    /// window start (a debug assertion) under a table of random pairs.
    /// The block walk over straight-line runs against the per-record
    /// reference, on loop programs and on call programs, whose computed
    /// returns can enter a block mid-way.
    #[test]
    fn block_walk_matches_a_per_record_reference(
        segments in prop::collection::vec(segment_strategy(), 1..5),
        calls in prop::collection::vec(call_segment_strategy(), 1..6),
    ) {
        check_block_walk(build_program(&segments))?;
        check_block_walk(build_call_program(&calls))?;
    }

    #[test]
    fn derived_pcs_follow_calls_and_returns(
        segments in prop::collection::vec(call_segment_strategy(), 1..6),
        seed_table in table_strategy(400),
    ) {
        let program = build_call_program(&segments);
        let len = program.len() as u32;
        let trace = Trace::generate(program.clone(), 50_000).expect("generated programs halt");
        let mut emu = Emulator::new(program);
        let mut pcs = trace.pcs();
        let mut returns = 0;
        for k in 0..trace.len() {
            let Ok(StepOutcome::Executed(rec)) = emu.step() else {
                panic!("the emulator stopped before record {k}");
            };
            prop_assert_eq!(pcs.next(), Some(rec.pc), "cursor at record {}", k);
            prop_assert_eq!(trace.pc_at(k), rec.pc, "pc_at({})", k);
            prop_assert_eq!(trace.ret_rank(k), returns, "ret_rank({})", k);
            prop_assert_eq!(trace.record(k), Some(rec), "record {}", k);
            if trace.program().insts()[rec.pc.index()].is_ret() {
                prop_assert_eq!(trace.ret_targets()[returns], emu.pc().0, "return {}", returns);
                returns += 1;
            }
        }
        prop_assert_eq!(pcs.next(), None);
        prop_assert_eq!(emu.step(), Ok(StepOutcome::Halted));
        prop_assert_eq!(trace.ret_targets().len(), returns);
        prop_assert_eq!(trace.ret_rank(trace.len()), returns);
        let from_runs: Vec<Pc> = trace.runs().flat_map(|run| run.pcs.map(Pc)).collect();
        prop_assert_eq!(from_runs, trace.pcs().collect::<Vec<_>>());
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).expect("serialize");
        let copy = Trace::from_bytes(&bytes).expect("a written trace reads back");
        prop_assert_eq!(copy.records_vec(), trace.records_vec());
        let table = SpawnTable::from_pairs(
            seed_table
                .iter()
                .map(|p| SpawnPair {
                    sp: Pc(p.sp.0 % len),
                    cqip: Pc(p.cqip.0 % len),
                    ..*p
                })
                .collect(),
        );
        let r = Simulator::with_table(&trace, SimConfig::paper(4), &table)
            .run()
            .expect("simulation");
        prop_assert_eq!(r.committed_instructions, trace.len() as u64);
    }
}
