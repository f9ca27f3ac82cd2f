//! `compress`: one dominant loop carrying a serial register/memory chain.
//!
//! SpecInt95's compress (LZW) is the suite's most serial program: each
//! iteration's hash state depends on the previous iteration through both a
//! register accumulator and hash tables in memory. Its tiny static footprint
//! gives the profile analysis very few candidate spawning pairs (the paper
//! reports only ~30 selected pairs), which is why aggressive pair removal
//! collapses its performance in Figure 5a. This analogue reproduces exactly
//! that shape: one hot loop, a data-dependent state chain through registers
//! and two tables, a rarely-taken hit path.

use std::sync::Arc;

use specmt_isa::{Program, ProgramBuilder, Reg};

use crate::common::{random_words, DATA_BASE};
use crate::{InputSet, Scale, Workload};

const SEED: u64 = 0xc0_4e55;
const INPUT: u64 = DATA_BASE;
const TABLE: u64 = DATA_BASE + 0x20_0000;
const TABLE2: u64 = DATA_BASE + 0x40_0000;
const TABLE_MASK: u64 = 4095;
const STATE_MUL: u64 = 2654435761;

fn iterations(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 512,
        Scale::Small => 3_000,
        Scale::Medium => 6_000,
        Scale::Large => 32_000,
    }
}

fn reference(input: &[u64]) -> u64 {
    let mut table = vec![0u64; (TABLE_MASK + 1) as usize];
    let mut table2 = vec![0u64; (TABLE_MASK + 1) as usize];
    let mut state = 12345u64;
    let mut out = 0u64;
    for &inw in input {
        state = state.wrapping_mul(31).wrapping_add(inw);
        state ^= state >> 13;
        state = state.wrapping_mul(STATE_MUL);
        let h = ((state >> 7) ^ state) & TABLE_MASK;
        let h2 = ((inw >> 9) ^ inw) & TABLE_MASK;
        let t = table[h as usize];
        let t2 = table2[h2 as usize];
        if t == inw {
            out = out.wrapping_add(1);
        } else {
            table[h as usize] = state;
            let mix = t ^ state;
            table2[h2 as usize] = mix;
            out = out.wrapping_add(mix).wrapping_add(t2);
            out ^= out >> 11;
            out = out.wrapping_mul(5).wrapping_add(inw);
        }
    }
    out ^ state
}

fn build(n: usize, input: &[u64]) -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    let hit = b.fresh_label("hit");
    let cont = b.fresh_label("cont");

    b.li(Reg::R14, INPUT as i64);
    b.li(Reg::R15, TABLE as i64);
    b.li(Reg::R16, TABLE2 as i64);
    b.li(Reg::R5, 12345); // hash state
    b.li(Reg::R4, 0); // output accumulator
    b.li(Reg::R1, 0); // index
    b.li(Reg::R2, n as i64);

    b.bind(top);
    b.shli(Reg::R9, Reg::R1, 3);
    b.add(Reg::R9, Reg::R14, Reg::R9);
    b.ld(Reg::R6, Reg::R9, 0); // in
                               // The serial state chain: two mixing stages.
    b.muli(Reg::R5, Reg::R5, 31);
    b.add(Reg::R5, Reg::R5, Reg::R6);
    b.shri(Reg::R7, Reg::R5, 13);
    b.xor(Reg::R5, Reg::R5, Reg::R7);
    b.muli(Reg::R5, Reg::R5, STATE_MUL as i64);
    // Primary probe.
    b.shri(Reg::R7, Reg::R5, 7);
    b.xor(Reg::R7, Reg::R7, Reg::R5);
    b.andi(Reg::R7, Reg::R7, TABLE_MASK as i64);
    b.shli(Reg::R7, Reg::R7, 3);
    b.add(Reg::R9, Reg::R15, Reg::R7);
    b.ld(Reg::R8, Reg::R9, 0); // t
                               // Secondary probe, indexed by the input word.
    b.shri(Reg::R11, Reg::R6, 9);
    b.xor(Reg::R11, Reg::R11, Reg::R6);
    b.andi(Reg::R11, Reg::R11, TABLE_MASK as i64);
    b.shli(Reg::R11, Reg::R11, 3);
    b.add(Reg::R11, Reg::R16, Reg::R11);
    b.ld(Reg::R12, Reg::R11, 0); // t2
    b.beq(Reg::R8, Reg::R6, hit);
    // Miss (the common case): install state, mix the evicted entries.
    b.st(Reg::R5, Reg::R9, 0);
    b.xor(Reg::R13, Reg::R8, Reg::R5);
    b.st(Reg::R13, Reg::R11, 0);
    b.add(Reg::R4, Reg::R4, Reg::R13);
    b.add(Reg::R4, Reg::R4, Reg::R12);
    b.shri(Reg::R13, Reg::R4, 11);
    b.xor(Reg::R4, Reg::R4, Reg::R13);
    b.muli(Reg::R4, Reg::R4, 5);
    b.add(Reg::R4, Reg::R4, Reg::R6);
    b.j(cont);
    b.bind(hit);
    b.addi(Reg::R4, Reg::R4, 1);
    b.bind(cont);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);

    b.xor(Reg::R10, Reg::R4, Reg::R5);
    b.halt();

    b.data_block(INPUT, input);
    b.build().expect("compress program is valid")
}

/// Builds the `compress` workload at the given scale.
pub fn compress(scale: Scale) -> Workload {
    compress_with_input(scale, InputSet::Train)
}

/// As [`compress`], with an explicit input set (see
/// [`InputSet`]).
pub fn compress_with_input(scale: Scale, input: InputSet) -> Workload {
    let n = input.work(iterations(scale) as u64) as usize;
    let data = random_words(SEED ^ input.salt(), n);
    let expected = reference(&data);
    let program = build(n, &data);
    Workload {
        name: "compress",
        program: Arc::new(program),
        expected_checksum: expected,
        step_budget: (n as u64 * 45 + 10_000) * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_trace::Trace;

    #[test]
    fn emulated_checksum_matches_reference() {
        let w = compress(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.final_reg(Reg::R10), w.expected_checksum);
    }

    #[test]
    fn hit_path_is_rare_but_tables_mutate() {
        // The reference mutates the tables on (nearly) every iteration; two
        // different inputs must change the checksum.
        let a = reference(&random_words(1, 256));
        let b = reference(&random_words(2, 256));
        assert_ne!(a, b);
    }

    #[test]
    fn static_footprint_is_small() {
        // compress must remain a tiny program: one hot loop.
        let w = compress(Scale::Medium);
        assert!(w.program.len() < 50);
    }

    #[test]
    fn loop_body_clears_min_thread_size() {
        // The dominant loop iteration must exceed the paper's 32-instruction
        // minimum distance so compress selects (a few) spawning pairs.
        let w = compress(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        let per_iter = trace.len() as f64 / 512.0;
        assert!(per_iter > 32.0, "per-iteration length {per_iter}");
    }
}
