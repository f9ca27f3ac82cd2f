//! `ijpeg`: regular nested loops over independent data blocks.
//!
//! SpecInt95's ijpeg is the most regular program of the suite — image
//! compression over independent 8×8 blocks — and posts the paper's highest
//! speed-up (11.9 with 16 thread units). This synthetic analogue transforms
//! independent 16-word blocks in a perfectly regular outer loop whose only
//! cross-iteration values are the (stride-predictable) induction variable
//! and base addresses; partial checksums go through a per-block array and a
//! final reduction so no serial register chain crosses iterations.

use std::sync::Arc;

use specmt_isa::{Program, ProgramBuilder, Reg};

use crate::common::{random_words, DATA_BASE};
use crate::{InputSet, Scale, Workload};

const SEED: u64 = 0x1_0a61;
const SEED_Q: u64 = 0x1_0a62;
const BLOCK: usize = 16;
const IN: u64 = DATA_BASE;
const OUT: u64 = DATA_BASE + 0x20_0000;
const PARTIAL: u64 = DATA_BASE + 0x40_0000;
const QTAB: u64 = DATA_BASE + 0x60_0000;
const QTAB_WORDS: usize = 64;
/// Rounds of per-block scalar mixing in the outer-loop header. Besides
/// modelling ijpeg's per-block quantisation setup, this keeps the inner
/// loop below the 90 % instruction-coverage pruning threshold so the outer
/// loop head survives as a spawning point.
const MIX_ROUNDS: usize = 8;

fn blocks(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 16,
        Scale::Small => 64,
        Scale::Medium => 768,
        Scale::Large => 4096,
    }
}

/// The per-element transform, shared by the program and the reference.
#[inline]
fn transform(x: u64) -> u64 {
    let mut v = x.wrapping_mul(3).wrapping_add(7);
    v ^= x >> 2;
    v.wrapping_add(x.wrapping_mul(x))
}

/// The per-block header mixing, shared by the program and the reference.
#[inline]
fn header_mix(q: u64, ib: u64) -> u64 {
    let mut v = q;
    for _ in 0..MIX_ROUNDS {
        v = v.wrapping_mul(3).wrapping_add(ib) ^ (v >> 5);
    }
    v
}

fn reference(input: &[u64], qtab: &[u64], nb: usize) -> u64 {
    let mut total = 0u64;
    for ib in 0..nb {
        let q = qtab[ib & (QTAB_WORDS - 1)];
        let mut partial = header_mix(q, ib as u64);
        for j in 0..BLOCK {
            partial = partial.wrapping_add(transform(input[ib * BLOCK + j]));
        }
        total = total.wrapping_add(partial);
    }
    total
}

fn build(nb: usize, input: &[u64], qtab: &[u64]) -> Program {
    let mut b = ProgramBuilder::new();
    let outer = b.fresh_label("outer");
    let inner = b.fresh_label("inner");
    let red = b.fresh_label("reduce");

    b.li(Reg::R14, IN as i64);
    b.li(Reg::R15, OUT as i64);
    b.li(Reg::R16, PARTIAL as i64);
    b.li(Reg::R17, QTAB as i64);
    b.li(Reg::R1, 0); // block index
    b.li(Reg::R2, nb as i64);

    b.bind(outer);
    b.shli(Reg::R3, Reg::R1, 7); // byte offset of the block (16 words)
    b.add(Reg::R4, Reg::R15, Reg::R3);
    b.add(Reg::R3, Reg::R14, Reg::R3);
    // Per-block quantisation setup: load the table entry and mix it with
    // the block index; the result seeds the partial checksum.
    b.andi(Reg::R9, Reg::R1, QTAB_WORDS as i64 - 1);
    b.shli(Reg::R9, Reg::R9, 3);
    b.add(Reg::R9, Reg::R17, Reg::R9);
    b.ld(Reg::R5, Reg::R9, 0); // q
    for _ in 0..MIX_ROUNDS {
        b.muli(Reg::R18, Reg::R5, 3);
        b.add(Reg::R18, Reg::R18, Reg::R1);
        b.shri(Reg::R19, Reg::R5, 5);
        b.xor(Reg::R5, Reg::R18, Reg::R19);
    }
    b.li(Reg::R6, 0); // element index
    b.li(Reg::R7, BLOCK as i64);

    b.bind(inner);
    b.shli(Reg::R9, Reg::R6, 3);
    b.add(Reg::R11, Reg::R3, Reg::R9);
    b.ld(Reg::R8, Reg::R11, 0);
    b.muli(Reg::R12, Reg::R8, 3);
    b.addi(Reg::R12, Reg::R12, 7);
    b.shri(Reg::R13, Reg::R8, 2);
    b.xor(Reg::R12, Reg::R12, Reg::R13);
    b.fmul(Reg::R13, Reg::R8, Reg::R8);
    b.add(Reg::R12, Reg::R12, Reg::R13);
    b.add(Reg::R11, Reg::R4, Reg::R9);
    b.st(Reg::R12, Reg::R11, 0);
    b.add(Reg::R5, Reg::R5, Reg::R12);
    b.addi(Reg::R6, Reg::R6, 1);
    b.blt(Reg::R6, Reg::R7, inner);

    b.shli(Reg::R9, Reg::R1, 3);
    b.add(Reg::R11, Reg::R16, Reg::R9);
    b.st(Reg::R5, Reg::R11, 0);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, outer);

    // Final reduction over the per-block partials.
    b.li(Reg::R5, 0);
    b.li(Reg::R6, 0);
    b.bind(red);
    b.shli(Reg::R9, Reg::R6, 3);
    b.add(Reg::R11, Reg::R16, Reg::R9);
    b.ld(Reg::R8, Reg::R11, 0);
    b.add(Reg::R5, Reg::R5, Reg::R8);
    b.addi(Reg::R6, Reg::R6, 1);
    b.blt(Reg::R6, Reg::R2, red);
    b.mv(Reg::R10, Reg::R5);
    b.halt();

    b.data_block(IN, input);
    b.data_block(QTAB, qtab);
    b.build().expect("ijpeg program is valid")
}

/// Builds the `ijpeg` workload at the given scale.
pub fn ijpeg(scale: Scale) -> Workload {
    ijpeg_with_input(scale, InputSet::Train)
}

/// As [`ijpeg`], with an explicit input set (see
/// [`InputSet`]).
pub fn ijpeg_with_input(scale: Scale, input: InputSet) -> Workload {
    let nb = input.work(blocks(scale) as u64) as usize;
    let data = random_words(SEED ^ input.salt(), nb * BLOCK);
    let qtab = random_words(SEED_Q ^ input.salt(), QTAB_WORDS);
    let expected = reference(&data, &qtab, nb);
    let program = build(nb, &data, &qtab);
    Workload {
        name: "ijpeg",
        program: Arc::new(program),
        expected_checksum: expected,
        step_budget: (nb as u64 * 300 + 10_000) * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::Reg;
    use specmt_trace::Trace;

    #[test]
    fn emulated_checksum_matches_reference() {
        let w = ijpeg(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.final_reg(Reg::R10), w.expected_checksum);
    }

    #[test]
    fn transform_is_nontrivial() {
        assert_ne!(transform(1), transform(2));
        assert_eq!(transform(0), 7);
    }

    #[test]
    fn scales_are_monotonic() {
        let t = ijpeg(Scale::Tiny).program.len();
        let l = ijpeg(Scale::Large).program.len();
        // Static size is scale-independent; dynamic budget is not.
        assert_eq!(t, l);
        assert!(ijpeg(Scale::Tiny).step_budget < ijpeg(Scale::Large).step_budget);
    }
}
