//! `perl`: interpreter dispatch with rare expensive opcodes.
//!
//! SpecInt95's perl interprets opcodes whose costs vary wildly — most are
//! cheap, a few (string/hash operations) run long inner loops. That work
//! imbalance is exactly what makes perl the one benchmark where the paper's
//! profile-based policy *loses* to the heuristics (Figure 8, an 8 %
//! slow-down). The analogue dispatches over a synthetic opcode stream where
//! 2 of 16 opcode classes call a string-hash routine with a data-dependent
//! trip count of 24–87 iterations.

use std::sync::Arc;

use specmt_isa::{Program, ProgramBuilder, Reg};

use crate::common::{random_words, DATA_BASE};
use crate::{InputSet, Scale, Workload};

const SEED_OPS: u64 = 0x9e51;
const SEED_STR: u64 = 0x9e52;
const OPS: u64 = DATA_BASE;
const STR: u64 = DATA_BASE + 0x10_0000;
const STR_MASK: u64 = 255;

fn ops_count(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 256,
        Scale::Small => 2_048,
        Scale::Medium => 4_096,
        Scale::Large => 20_000,
    }
}

fn hashstr(strdata: &[u64], w: u64) -> u64 {
    let len = ((w >> 4) & 63) + 24;
    let idx0 = (w >> 10) & STR_MASK;
    let mut h = 5381u64;
    for t in 0..len {
        h = h
            .wrapping_mul(33)
            .wrapping_add(strdata[((idx0 + t) & STR_MASK) as usize]);
    }
    h
}

fn reference(ops: &[u64], strdata: &[u64]) -> u64 {
    let mut acc = 0u64;
    for (i, &w) in ops.iter().enumerate() {
        let op = w & 15;
        if op >= 14 {
            acc = acc.wrapping_add(hashstr(strdata, w));
        } else if op >= 8 {
            let v = strdata[((w >> 4) & STR_MASK) as usize];
            acc = acc.wrapping_add(w >> 4).wrapping_add(v);
        } else if op >= 4 {
            acc ^= w.wrapping_mul(5);
        } else {
            acc = acc.wrapping_add(w & 0xffff);
        }
        acc = acc.wrapping_add(i as u64);
    }
    acc
}

fn build(ops: &[u64], strdata: &[u64]) -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    let class_b = b.fresh_label("class_b");
    let class_c = b.fresh_label("class_c");
    let class_d = b.fresh_label("class_d");
    let join = b.fresh_label("join");

    b.li(Reg::R14, OPS as i64);
    b.li(Reg::R15, STR as i64);
    b.li(Reg::R21, 0); // accumulator
    b.li(Reg::R1, 0);
    b.li(Reg::R2, ops.len() as i64);

    b.bind(top);
    b.shli(Reg::R5, Reg::R1, 3);
    b.add(Reg::R5, Reg::R14, Reg::R5);
    b.ld(Reg::R6, Reg::R5, 0); // w
    b.andi(Reg::R7, Reg::R6, 15); // op class
    b.li(Reg::R8, 14);
    b.bge(Reg::R7, Reg::R8, class_d); // expensive: 2 of 16
    b.li(Reg::R8, 8);
    b.bge(Reg::R7, Reg::R8, class_b);
    b.li(Reg::R8, 4);
    b.bge(Reg::R7, Reg::R8, class_c);
    // class a: trivially cheap
    b.andi(Reg::R9, Reg::R6, 0xffff);
    b.add(Reg::R21, Reg::R21, Reg::R9);
    b.j(join);
    b.bind(class_b); // cheap with one memory touch
    b.shri(Reg::R9, Reg::R6, 4);
    b.add(Reg::R21, Reg::R21, Reg::R9);
    b.andi(Reg::R9, Reg::R9, STR_MASK as i64);
    b.shli(Reg::R9, Reg::R9, 3);
    b.add(Reg::R9, Reg::R15, Reg::R9);
    b.ld(Reg::R9, Reg::R9, 0);
    b.add(Reg::R21, Reg::R21, Reg::R9);
    b.j(join);
    b.bind(class_c); // cheap ALU
    b.muli(Reg::R9, Reg::R6, 5);
    b.xor(Reg::R21, Reg::R21, Reg::R9);
    b.j(join);
    b.bind(class_d); // the rare, expensive opcode
    b.mv(Reg::R3, Reg::R6);
    b.call("hashstr");
    b.add(Reg::R21, Reg::R21, Reg::R4);
    b.bind(join);
    b.add(Reg::R21, Reg::R21, Reg::R1);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.mv(Reg::R10, Reg::R21);
    b.halt();

    // hashstr: arg w in r3, result in r4. djb2-style hash with a
    // data-dependent trip count.
    b.begin_func("hashstr");
    let looph = b.fresh_label("loop");
    b.shri(Reg::R5, Reg::R3, 4);
    b.andi(Reg::R5, Reg::R5, 63);
    b.addi(Reg::R5, Reg::R5, 24); // len
    b.shri(Reg::R6, Reg::R3, 10);
    b.andi(Reg::R6, Reg::R6, STR_MASK as i64); // idx0
    b.li(Reg::R4, 5381);
    b.li(Reg::R7, 0); // t
    b.bind(looph);
    b.add(Reg::R8, Reg::R6, Reg::R7);
    b.andi(Reg::R8, Reg::R8, STR_MASK as i64);
    b.shli(Reg::R8, Reg::R8, 3);
    b.add(Reg::R8, Reg::R15, Reg::R8);
    b.ld(Reg::R8, Reg::R8, 0);
    b.muli(Reg::R4, Reg::R4, 33);
    b.add(Reg::R4, Reg::R4, Reg::R8);
    b.addi(Reg::R7, Reg::R7, 1);
    b.blt(Reg::R7, Reg::R5, looph);
    b.ret();
    b.end_func();

    b.data_block(OPS, ops);
    b.data_block(STR, strdata);
    b.build().expect("perl program is valid")
}

/// Builds the `perl` workload at the given scale.
pub fn perl(scale: Scale) -> Workload {
    perl_with_input(scale, InputSet::Train)
}

/// As [`perl`], with an explicit input set (see
/// [`InputSet`]).
pub fn perl_with_input(scale: Scale, input: InputSet) -> Workload {
    let n = input.work(ops_count(scale) as u64) as usize;
    let ops = random_words(SEED_OPS ^ input.salt(), n);
    let strdata = random_words(SEED_STR ^ input.salt(), (STR_MASK + 1) as usize);
    let expected = reference(&ops, &strdata);
    let program = build(&ops, &strdata);
    Workload {
        name: "perl",
        program: Arc::new(program),
        expected_checksum: expected,
        step_budget: (n as u64 * 80 + 10_000) * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_trace::Trace;

    #[test]
    fn emulated_checksum_matches_reference() {
        let w = perl(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.final_reg(Reg::R10), w.expected_checksum);
    }

    #[test]
    fn expensive_opcodes_are_rare() {
        let ops = random_words(SEED_OPS, 4096);
        let expensive = ops.iter().filter(|&&w| w & 15 >= 14).count();
        let frac = expensive as f64 / 4096.0;
        assert!(frac > 0.08 && frac < 0.18, "expensive fraction {frac}");
    }

    #[test]
    fn hashstr_trip_counts_vary() {
        let strdata = random_words(SEED_STR, 256);
        // Different encodings yield different lengths, hence different work.
        assert_ne!(hashstr(&strdata, 0), hashstr(&strdata, 63 << 4));
    }
}
