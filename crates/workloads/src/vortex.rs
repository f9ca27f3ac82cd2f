//! `vortex`: call-heavy transactions over a hash-table object store.
//!
//! SpecInt95's vortex runs database transactions against an in-memory
//! object store — deep call chains with mostly-independent transactions.
//! The paper reports its largest profile-vs-heuristics win on vortex
//! (Figure 8). The analogue drives insert/update/lookup transactions against
//! an open-addressing hash table through dedicated functions, so both
//! subroutine continuations and the profile-selected pairs have plenty to
//! work with.

use std::sync::Arc;

use specmt_isa::{Program, ProgramBuilder, Reg};

use crate::common::{random_words, DATA_BASE};
use crate::{InputSet, Scale, Workload};

const SEED_KEYS: u64 = 0x7038;
const TBL: u64 = DATA_BASE;
const KEYS: u64 = DATA_BASE + 0x40_0000;
const OUT: u64 = DATA_BASE + 0x50_0000;
const KEYS_MASK: u64 = 8191;
const OUT_MASK: u64 = 2047;
/// Slots are `[key, val]` pairs, 16 bytes; key 0 means empty.
const SLOT_BYTES: u64 = 16;
const TBL_MASK: u64 = 8191;
const KEY_MASK: u64 = 1023;
const HASH_MUL: u64 = 2654435761;

fn transactions(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 384,
        Scale::Small => 3_000,
        Scale::Medium => 6_000,
        Scale::Large => 30_000,
    }
}

fn hash(key: u64) -> u64 {
    (key.wrapping_mul(HASH_MUL) >> 16) & TBL_MASK
}

fn reference(keys_data: &[u64], m: u64) -> u64 {
    let mut table = vec![(0u64, 0u64); (TBL_MASK + 1) as usize];
    // Transaction results land in a per-transaction log slot (vortex writes
    // query results into its output buffers), avoiding a register-carried
    // serial chain across transactions.
    let mut out = vec![0u64; (OUT_MASK + 1) as usize];
    for i in 0..m {
        let s = keys_data[(i & KEYS_MASK) as usize];
        let key = ((s >> 20) & KEY_MASK) | 1;
        let r = if s & 7 < 3 {
            // insert-or-update
            let val = s >> 13;
            let mut h = hash(key);
            loop {
                let (k, _) = table[h as usize];
                if k == 0 {
                    table[h as usize] = (key, val);
                    break 1;
                }
                if k == key {
                    table[h as usize].1 = val;
                    break 2;
                }
                h = (h + 1) & TBL_MASK;
            }
        } else {
            // lookup
            let mut h = hash(key);
            loop {
                let (k, v) = table[h as usize];
                if k == key {
                    break v;
                }
                if k == 0 {
                    break 0;
                }
                h = (h + 1) & TBL_MASK;
            }
        };
        let slot = (i & OUT_MASK) as usize;
        out[slot] = out[slot].wrapping_add(r.wrapping_add(i));
    }
    out.iter()
        .fold(0u64, |acc, &s| acc.wrapping_mul(31).wrapping_add(s))
}

fn build(m: u64, keys_data: &[u64]) -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    let do_lookup = b.fresh_label("do_lookup");
    let join = b.fresh_label("join");
    let reduce = b.fresh_label("reduce");

    b.li(Reg::R14, TBL as i64);
    b.li(Reg::R21, KEYS as i64);
    b.li(Reg::R22, OUT as i64);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, m as i64);

    b.bind(top);
    b.andi(Reg::R20, Reg::R1, KEYS_MASK as i64);
    b.shli(Reg::R20, Reg::R20, 3);
    b.add(Reg::R20, Reg::R21, Reg::R20);
    b.ld(Reg::R20, Reg::R20, 0); // transaction descriptor
    b.shri(Reg::R3, Reg::R20, 20);
    b.andi(Reg::R3, Reg::R3, KEY_MASK as i64);
    b.alu_imm(specmt_isa::AluOp::Or, Reg::R3, Reg::R3, 1); // key
    b.andi(Reg::R6, Reg::R20, 7);
    b.li(Reg::R7, 3);
    b.bge(Reg::R6, Reg::R7, do_lookup);
    b.shri(Reg::R5, Reg::R20, 13); // value
    b.call("insert");
    b.j(join);
    b.bind(do_lookup);
    b.call("lookup");
    b.bind(join);
    b.add(Reg::R4, Reg::R4, Reg::R1);
    b.andi(Reg::R11, Reg::R1, OUT_MASK as i64);
    b.shli(Reg::R11, Reg::R11, 3);
    b.add(Reg::R11, Reg::R22, Reg::R11);
    b.ld(Reg::R12, Reg::R11, 0);
    b.add(Reg::R12, Reg::R12, Reg::R4);
    b.st(Reg::R12, Reg::R11, 0);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);

    // Final reduction over the transaction log.
    b.li(Reg::R10, 0);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, (OUT_MASK + 1) as i64);
    b.bind(reduce);
    b.shli(Reg::R11, Reg::R1, 3);
    b.add(Reg::R11, Reg::R22, Reg::R11);
    b.ld(Reg::R12, Reg::R11, 0);
    b.muli(Reg::R10, Reg::R10, 31);
    b.add(Reg::R10, Reg::R10, Reg::R12);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, reduce);
    b.halt();

    // Shared probe-address computation: h in r6 -> slot address in r7.
    // insert(key=r3, val=r5) -> r4 in {1 inserted, 2 updated}
    b.begin_func("insert");
    let iprobe = b.fresh_label("probe");
    let iupdate = b.fresh_label("update");
    let inext = b.fresh_label("next");
    b.muli(Reg::R6, Reg::R3, HASH_MUL as i64);
    b.shri(Reg::R6, Reg::R6, 16);
    b.andi(Reg::R6, Reg::R6, TBL_MASK as i64);
    b.bind(iprobe);
    b.muli(Reg::R7, Reg::R6, SLOT_BYTES as i64);
    b.add(Reg::R7, Reg::R14, Reg::R7);
    b.ld(Reg::R8, Reg::R7, 0); // key slot
    b.beq(Reg::R8, Reg::R3, iupdate);
    b.bne(Reg::R8, Reg::ZERO, inext);
    // empty: claim it
    b.st(Reg::R3, Reg::R7, 0);
    b.st(Reg::R5, Reg::R7, 8);
    b.li(Reg::R4, 1);
    b.ret();
    b.bind(iupdate);
    b.st(Reg::R5, Reg::R7, 8);
    b.li(Reg::R4, 2);
    b.ret();
    b.bind(inext);
    b.addi(Reg::R6, Reg::R6, 1);
    b.andi(Reg::R6, Reg::R6, TBL_MASK as i64);
    b.j(iprobe);
    b.end_func();

    // lookup(key=r3) -> r4 = value or 0
    b.begin_func("lookup");
    let lprobe = b.fresh_label("probe");
    let lhit = b.fresh_label("hit");
    let lnext = b.fresh_label("next");
    b.muli(Reg::R6, Reg::R3, HASH_MUL as i64);
    b.shri(Reg::R6, Reg::R6, 16);
    b.andi(Reg::R6, Reg::R6, TBL_MASK as i64);
    b.bind(lprobe);
    b.muli(Reg::R7, Reg::R6, SLOT_BYTES as i64);
    b.add(Reg::R7, Reg::R14, Reg::R7);
    b.ld(Reg::R8, Reg::R7, 0);
    b.beq(Reg::R8, Reg::R3, lhit);
    b.bne(Reg::R8, Reg::ZERO, lnext);
    b.li(Reg::R4, 0);
    b.ret();
    b.bind(lhit);
    b.ld(Reg::R4, Reg::R7, 8);
    b.ret();
    b.bind(lnext);
    b.addi(Reg::R6, Reg::R6, 1);
    b.andi(Reg::R6, Reg::R6, TBL_MASK as i64);
    b.j(lprobe);
    b.end_func();

    b.data_block(KEYS, keys_data);
    b.build().expect("vortex program is valid")
}

/// Builds the `vortex` workload at the given scale.
pub fn vortex(scale: Scale) -> Workload {
    vortex_with_input(scale, InputSet::Train)
}

/// As [`vortex`], with an explicit input set (see
/// [`InputSet`]).
pub fn vortex_with_input(scale: Scale, input: InputSet) -> Workload {
    let m = input.work(transactions(scale));
    let keys_data = random_words(SEED_KEYS ^ input.salt(), (KEYS_MASK + 1) as usize);
    let expected = reference(&keys_data, m);
    let program = build(m, &keys_data);
    Workload {
        name: "vortex",
        program: Arc::new(program),
        expected_checksum: expected,
        step_budget: (m * 60 + 10_000) * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_trace::Trace;

    #[test]
    fn emulated_checksum_matches_reference() {
        let w = vortex(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.final_reg(Reg::R10), w.expected_checksum);
    }

    #[test]
    fn is_call_heavy() {
        let w = vortex(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        // Exactly one call per transaction.
        assert_eq!(trace.mix().calls, 384);
    }

    #[test]
    fn hash_spreads_keys() {
        let h1 = hash(1);
        let h2 = hash(2);
        assert_ne!(h1, h2);
        assert!(h1 <= TBL_MASK && h2 <= TBL_MASK);
    }
}
