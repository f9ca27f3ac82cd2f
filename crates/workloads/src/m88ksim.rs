//! `m88ksim`: a fetch/decode/dispatch CPU-simulator loop.
//!
//! SpecInt95's m88ksim simulates a Motorola 88100: its hot code is a
//! fetch/decode/execute loop whose state (simulated registers and data
//! memory) lives in memory and whose dispatch is a branch tree over the
//! decoded opcode. The analogue interprets a fixed stream of six synthetic
//! opcodes over a 16-entry simulated register file and a small data memory —
//! serial through the in-memory machine state, with predictable decode
//! control flow but data-dependent dispatch targets.

use std::sync::Arc;

use specmt_isa::{Program, ProgramBuilder, Reg};

use crate::common::{random_words, DATA_BASE};
use crate::{InputSet, Scale, Workload};

const SEED: u64 = 0x88;
const IMEM: u64 = DATA_BASE;
const SREGS: u64 = DATA_BASE + 0x10_0000;
const DMEM: u64 = DATA_BASE + 0x20_0000;
const STATS: u64 = DATA_BASE + 0x30_0000;
const IMEM_WORDS: usize = 256;
const DMEM_MASK: u64 = 255;
const STATS_MASK: u64 = 255;

fn rounds(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 2,
        Scale::Small => 8,
        Scale::Medium => 32,
        Scale::Large => 160,
    }
}

/// Builds the synthetic instruction stream: opcode pre-masked to 0..6.
fn encode_imem(salt: u64) -> Vec<u64> {
    random_words(SEED ^ salt, IMEM_WORDS)
        .into_iter()
        .map(|r| {
            let op = r % 6;
            (r >> 11 << 11) | ((r >> 7 & 15) << 7) | ((r >> 3 & 15) << 3) | op
        })
        .collect()
}

fn reference(imem: &[u64], rounds: u64) -> u64 {
    let mut sregs = [0u64; 16];
    let mut dmem = vec![0u64; (DMEM_MASK + 1) as usize];
    let mut stats = vec![0u64; (STATS_MASK + 1) as usize];
    let mut acc = 0u64;
    let mut cycles = 0u64;
    for _ in 0..rounds {
        for (i, &w) in imem.iter().enumerate() {
            let op = w & 7;
            let rd = (w >> 3 & 15) as usize;
            let rs = (w >> 7 & 15) as usize;
            let imm = w >> 11;
            let rs_val = sregs[rs];
            // Per-instruction statistics land in a per-pc slot, the way
            // m88ksim's profiling counters do — not in a register-carried
            // global that would serialise iterations.
            let mix = ((rs_val >> 17) ^ rs_val).wrapping_mul(0x9e3779b97f4a7c15) ^ w;
            let slot = i & STATS_MASK as usize;
            stats[slot] = stats[slot].wrapping_add(mix) ^ (mix >> 29).wrapping_mul(31);
            cycles = cycles.wrapping_add(op + 1);
            match op {
                0 => sregs[rd] = rs_val.wrapping_add(imm),
                1 => sregs[rd] = rs_val ^ imm,
                2 => sregs[rd] = rs_val >> (imm & 31),
                3 => sregs[rd] = dmem[((rs_val.wrapping_add(imm)) & DMEM_MASK) as usize],
                4 => {
                    let idx = ((rs_val.wrapping_add(imm)) & DMEM_MASK) as usize;
                    dmem[idx] = sregs[rd].wrapping_add(imm);
                }
                _ => acc ^= rs_val.wrapping_add(imm),
            }
        }
    }
    let mut check = acc ^ cycles;
    for &s in &sregs {
        check = check.wrapping_mul(31).wrapping_add(s);
    }
    for &s in &stats {
        check = check.wrapping_mul(31).wrapping_add(s);
    }
    check
}

fn build(rounds: u64, imem: &[u64]) -> Program {
    let mut b = ProgramBuilder::new();
    let round = b.fresh_label("round");
    let fetch = b.fresh_label("fetch");
    let next = b.fresh_label("next");
    let sites: Vec<_> = (0..6).map(|k| b.fresh_label(&format!("op{k}"))).collect();
    let sum = b.fresh_label("sum");

    b.li(Reg::R14, IMEM as i64);
    b.li(Reg::R15, SREGS as i64);
    b.li(Reg::R16, DMEM as i64);
    b.li(Reg::R21, STATS as i64);
    b.li(Reg::R4, 0); // acc
    b.li(Reg::R22, 0); // simulated cycles
    b.li(Reg::R3, 0); // round
    b.li(Reg::R17, rounds as i64);

    b.bind(round);
    b.li(Reg::R1, 0); // simulated pc
    b.li(Reg::R2, imem.len() as i64);

    b.bind(fetch);
    b.shli(Reg::R5, Reg::R1, 3);
    b.add(Reg::R5, Reg::R14, Reg::R5);
    b.ld(Reg::R5, Reg::R5, 0); // w
    b.andi(Reg::R6, Reg::R5, 7); // op
    b.shri(Reg::R7, Reg::R5, 3);
    b.andi(Reg::R7, Reg::R7, 15); // rd
    b.shri(Reg::R8, Reg::R5, 7);
    b.andi(Reg::R8, Reg::R8, 15); // rs
    b.shri(Reg::R9, Reg::R5, 11); // imm
                                  // rs_val = sregs[rs]
    b.shli(Reg::R11, Reg::R8, 3);
    b.add(Reg::R11, Reg::R15, Reg::R11);
    b.ld(Reg::R11, Reg::R11, 0);
    // Decode-time accounting: mix the operand into this pc's statistics
    // slot (models m88ksim's per-instruction profiling counters, and keeps
    // the fetch block above the paper's 32-instruction minimum thread
    // size). Slot-local read-modify-write: no cross-iteration register
    // chain.
    b.shri(Reg::R18, Reg::R11, 17);
    b.xor(Reg::R18, Reg::R18, Reg::R11);
    b.muli(Reg::R18, Reg::R18, 0x9e3779b97f4a7c15u64 as i64);
    b.xor(Reg::R18, Reg::R18, Reg::R5);
    b.andi(Reg::R19, Reg::R1, STATS_MASK as i64);
    b.shli(Reg::R19, Reg::R19, 3);
    b.add(Reg::R19, Reg::R21, Reg::R19);
    b.ld(Reg::R20, Reg::R19, 0);
    b.add(Reg::R20, Reg::R20, Reg::R18);
    b.shri(Reg::R18, Reg::R18, 29);
    b.muli(Reg::R18, Reg::R18, 31);
    b.xor(Reg::R20, Reg::R20, Reg::R18);
    b.st(Reg::R20, Reg::R19, 0);
    // rd slot address
    b.shli(Reg::R12, Reg::R7, 3);
    b.add(Reg::R12, Reg::R15, Reg::R12);
    // Dispatch tree.
    for (k, &site) in sites.iter().enumerate().take(5) {
        b.li(Reg::R13, k as i64);
        b.beq(Reg::R6, Reg::R13, site);
    }
    b.j(sites[5]);

    // op0: add
    b.bind(sites[0]);
    b.add(Reg::R13, Reg::R11, Reg::R9);
    b.st(Reg::R13, Reg::R12, 0);
    b.j(next);
    // op1: xor
    b.bind(sites[1]);
    b.xor(Reg::R13, Reg::R11, Reg::R9);
    b.st(Reg::R13, Reg::R12, 0);
    b.j(next);
    // op2: shift
    b.bind(sites[2]);
    b.andi(Reg::R13, Reg::R9, 31);
    b.alu(specmt_isa::AluOp::Shr, Reg::R13, Reg::R11, Reg::R13);
    b.st(Reg::R13, Reg::R12, 0);
    b.j(next);
    // op3: load from dmem
    b.bind(sites[3]);
    b.add(Reg::R13, Reg::R11, Reg::R9);
    b.andi(Reg::R13, Reg::R13, DMEM_MASK as i64);
    b.shli(Reg::R13, Reg::R13, 3);
    b.add(Reg::R13, Reg::R16, Reg::R13);
    b.ld(Reg::R13, Reg::R13, 0);
    b.st(Reg::R13, Reg::R12, 0);
    b.j(next);
    // op4: store to dmem (value = sregs[rd] + imm)
    b.bind(sites[4]);
    b.add(Reg::R13, Reg::R11, Reg::R9);
    b.andi(Reg::R13, Reg::R13, DMEM_MASK as i64);
    b.shli(Reg::R13, Reg::R13, 3);
    b.add(Reg::R13, Reg::R16, Reg::R13);
    b.ld(Reg::R18, Reg::R12, 0); // sregs[rd]
    b.add(Reg::R18, Reg::R18, Reg::R9);
    b.st(Reg::R18, Reg::R13, 0);
    b.j(next);
    // op5: accumulate
    b.bind(sites[5]);
    b.add(Reg::R13, Reg::R11, Reg::R9);
    b.xor(Reg::R4, Reg::R4, Reg::R13);

    b.bind(next);
    b.addi(Reg::R13, Reg::R6, 1);
    b.add(Reg::R22, Reg::R22, Reg::R13); // simulated cycle count
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, fetch);
    b.addi(Reg::R3, Reg::R3, 1);
    b.blt(Reg::R3, Reg::R17, round);

    // Fold the cycle count, register file and statistics slots into the
    // checksum.
    let sum2 = b.fresh_label("sum2");
    b.xor(Reg::R10, Reg::R4, Reg::R22);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, 16);
    b.bind(sum);
    b.shli(Reg::R5, Reg::R1, 3);
    b.add(Reg::R5, Reg::R15, Reg::R5);
    b.ld(Reg::R6, Reg::R5, 0);
    b.muli(Reg::R10, Reg::R10, 31);
    b.add(Reg::R10, Reg::R10, Reg::R6);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, sum);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, (STATS_MASK + 1) as i64);
    b.bind(sum2);
    b.shli(Reg::R5, Reg::R1, 3);
    b.add(Reg::R5, Reg::R21, Reg::R5);
    b.ld(Reg::R6, Reg::R5, 0);
    b.muli(Reg::R10, Reg::R10, 31);
    b.add(Reg::R10, Reg::R10, Reg::R6);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, sum2);
    b.halt();

    b.data_block(IMEM, imem);
    b.build().expect("m88ksim program is valid")
}

/// Builds the `m88ksim` workload at the given scale.
pub fn m88ksim(scale: Scale) -> Workload {
    m88ksim_with_input(scale, InputSet::Train)
}

/// As [`m88ksim`], with an explicit input set (see
/// [`InputSet`]).
pub fn m88ksim_with_input(scale: Scale, input: InputSet) -> Workload {
    let r = input.work(rounds(scale));
    let imem = encode_imem(input.salt());
    let expected = reference(&imem, r);
    let program = build(r, &imem);
    Workload {
        name: "m88ksim",
        program: Arc::new(program),
        expected_checksum: expected,
        step_budget: (r * IMEM_WORDS as u64 * 35 + 10_000) * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_trace::Trace;

    #[test]
    fn emulated_checksum_matches_reference() {
        let w = m88ksim(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.final_reg(Reg::R10), w.expected_checksum);
    }

    #[test]
    fn all_opcodes_appear_in_imem() {
        let imem = encode_imem(0);
        let mut seen = [false; 6];
        for &w in &imem {
            seen[(w & 7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reference_changes_with_rounds() {
        let imem = encode_imem(0);
        assert_ne!(reference(&imem, 1), reference(&imem, 2));
    }
}
