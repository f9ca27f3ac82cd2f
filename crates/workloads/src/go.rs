//! `go`: irregular, data-dependent branching over a board array.
//!
//! SpecInt95's go is the suite's most branch-irregular program: move
//! evaluation over a 19×19 board with deeply data-dependent control flow.
//! This analogue evaluates pseudo-random board positions with nested
//! data-dependent branches, short variable-trip inner loops and occasional
//! board mutation — lots of basic blocks, mediocre branch predictability,
//! moderate thread-level parallelism.

use std::sync::Arc;

use specmt_isa::{Program, ProgramBuilder, Reg};

use crate::common::{random_words, DATA_BASE};
use crate::{InputSet, Scale, Workload};

const SEED: u64 = 0x60;
const SEED_MOVES: u64 = 0x61;
const BOARD: u64 = DATA_BASE;
const MOVES: u64 = DATA_BASE + 0x10_0000;
const SCORES: u64 = DATA_BASE + 0x20_0000;
const BOARD_CELLS: usize = 361;
const MOVES_MASK: u64 = 4095;
const SCORES_MASK: u64 = 2047;

fn moves(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 256,
        Scale::Small => 2_048,
        Scale::Medium => 4_500,
        Scale::Large => 24_000,
    }
}

fn reference(board_init: &[u64], move_data: &[u64], moves: u64) -> u64 {
    let mut board = board_init.to_vec();
    let mut scores = vec![0u64; (SCORES_MASK + 1) as usize];
    for i in 0..moves {
        let r5 = move_data[(i & MOVES_MASK) as usize] >> 33;
        let pos = (r5 % BOARD_CELLS as u64) as usize;
        let v = board[pos];
        // Per-move score: accumulated locally, then written to the move's
        // slot in the score log (real evaluators record per-move results;
        // a register-carried global sum would also be an artificial serial
        // chain across iterations).
        let mut score = 0u64;
        if v & 1 != 0 {
            score = score.wrapping_add(pos as u64);
            if v & 6 != 0 {
                score ^= v;
            }
        } else {
            score ^= v >> 3;
        }
        let trips = pos as u64 & 7;
        for t in 0..trips {
            let mut idx = pos as u64 + t;
            if idx >= BOARD_CELLS as u64 {
                idx -= BOARD_CELLS as u64;
            }
            score = score.wrapping_add(board[idx as usize]);
        }
        if i & 15 == 0 {
            board[pos] = v.wrapping_add(1);
        }
        let slot = (i & SCORES_MASK) as usize;
        scores[slot] = scores[slot].wrapping_add(score).rotate_left(1);
    }
    scores
        .iter()
        .fold(0u64, |acc, &s| acc.wrapping_mul(31).wrapping_add(s))
}

fn build(moves: u64, board_init: &[u64], move_data: &[u64]) -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    let even = b.fresh_label("even");
    let skipodd = b.fresh_label("skipodd");
    let after = b.fresh_label("after");
    let inner = b.fresh_label("inner");
    let nowrap = b.fresh_label("nowrap");
    let innerdone = b.fresh_label("innerdone");
    let noupd = b.fresh_label("noupd");

    let reduce = b.fresh_label("reduce");
    b.li(Reg::R14, BOARD as i64);
    b.li(Reg::R21, MOVES as i64);
    b.li(Reg::R22, SCORES as i64);
    b.li(Reg::R1, 0); // move counter
    b.li(Reg::R2, moves as i64);

    b.bind(top);
    b.li(Reg::R4, 0); // per-move score
    b.andi(Reg::R5, Reg::R1, MOVES_MASK as i64);
    b.shli(Reg::R5, Reg::R5, 3);
    b.add(Reg::R5, Reg::R21, Reg::R5);
    b.ld(Reg::R5, Reg::R5, 0);
    b.shri(Reg::R5, Reg::R5, 33);
    b.li(Reg::R6, BOARD_CELLS as i64);
    b.div(Reg::R7, Reg::R5, Reg::R6);
    b.muli(Reg::R7, Reg::R7, BOARD_CELLS as i64);
    b.sub(Reg::R7, Reg::R5, Reg::R7); // position
    b.shli(Reg::R8, Reg::R7, 3);
    b.add(Reg::R8, Reg::R14, Reg::R8);
    b.ld(Reg::R9, Reg::R8, 0); // v = board[pos]
    b.andi(Reg::R11, Reg::R9, 1);
    b.beq(Reg::R11, Reg::ZERO, even);
    b.add(Reg::R4, Reg::R4, Reg::R7);
    b.andi(Reg::R11, Reg::R9, 6);
    b.beq(Reg::R11, Reg::ZERO, skipodd);
    b.xor(Reg::R4, Reg::R4, Reg::R9);
    b.bind(skipodd);
    b.j(after);
    b.bind(even);
    b.shri(Reg::R11, Reg::R9, 3);
    b.xor(Reg::R4, Reg::R4, Reg::R11);
    b.bind(after);

    // Variable-trip neighbourhood scan: t in 0..(pos & 7).
    b.li(Reg::R12, 0);
    b.andi(Reg::R13, Reg::R7, 7);
    b.bind(inner);
    b.bge(Reg::R12, Reg::R13, innerdone);
    b.add(Reg::R15, Reg::R7, Reg::R12);
    b.li(Reg::R6, BOARD_CELLS as i64);
    b.blt(Reg::R15, Reg::R6, nowrap);
    b.sub(Reg::R15, Reg::R15, Reg::R6);
    b.bind(nowrap);
    b.shli(Reg::R16, Reg::R15, 3);
    b.add(Reg::R16, Reg::R14, Reg::R16);
    b.ld(Reg::R17, Reg::R16, 0);
    b.add(Reg::R4, Reg::R4, Reg::R17);
    b.addi(Reg::R12, Reg::R12, 1);
    b.j(inner);
    b.bind(innerdone);

    // Occasional board mutation.
    b.andi(Reg::R11, Reg::R1, 15);
    b.bne(Reg::R11, Reg::ZERO, noupd);
    b.addi(Reg::R9, Reg::R9, 1);
    b.st(Reg::R9, Reg::R8, 0);
    b.bind(noupd);
    // Log the move's score into its slot (read-modify-write keeps the
    // slot's history without a cross-iteration register chain).
    b.andi(Reg::R11, Reg::R1, SCORES_MASK as i64);
    b.shli(Reg::R11, Reg::R11, 3);
    b.add(Reg::R11, Reg::R22, Reg::R11);
    b.ld(Reg::R12, Reg::R11, 0);
    b.add(Reg::R12, Reg::R12, Reg::R4);
    b.alu_imm(specmt_isa::AluOp::Shl, Reg::R13, Reg::R12, 1);
    b.shri(Reg::R12, Reg::R12, 63);
    b.or(Reg::R12, Reg::R13, Reg::R12); // rotate_left(1)
    b.st(Reg::R12, Reg::R11, 0);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);

    // Final reduction over the score log.
    b.li(Reg::R10, 0);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, (SCORES_MASK + 1) as i64);
    b.bind(reduce);
    b.shli(Reg::R11, Reg::R1, 3);
    b.add(Reg::R11, Reg::R22, Reg::R11);
    b.ld(Reg::R12, Reg::R11, 0);
    b.muli(Reg::R10, Reg::R10, 31);
    b.add(Reg::R10, Reg::R10, Reg::R12);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, reduce);
    b.halt();

    b.data_block(BOARD, board_init);
    b.data_block(MOVES, move_data);
    b.build().expect("go program is valid")
}

/// Builds the `go` workload at the given scale.
pub fn go(scale: Scale) -> Workload {
    go_with_input(scale, InputSet::Train)
}

/// As [`go`], with an explicit input set (see
/// [`InputSet`]).
pub fn go_with_input(scale: Scale, input: InputSet) -> Workload {
    let m = input.work(moves(scale));
    let board = random_words(SEED ^ input.salt(), BOARD_CELLS);
    let move_data = random_words(SEED_MOVES ^ input.salt(), (MOVES_MASK + 1) as usize);
    let expected = reference(&board, &move_data, m);
    let program = build(m, &board, &move_data);
    Workload {
        name: "go",
        program: Arc::new(program),
        expected_checksum: expected,
        step_budget: (m * 70 + 10_000) * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_trace::Trace;

    #[test]
    fn emulated_checksum_matches_reference() {
        let w = go(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.final_reg(Reg::R10), w.expected_checksum);
    }

    #[test]
    fn branches_are_data_dependent() {
        let w = go(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        let mix = trace.mix();
        // A healthy share of conditional branches, neither all-taken nor
        // never-taken.
        assert!(mix.cond_branches > 1000);
        let taken_frac = mix.taken_cond_branches as f64 / mix.cond_branches as f64;
        assert!(taken_frac > 0.2 && taken_frac < 0.8, "taken {taken_frac}");
    }

    #[test]
    fn reference_is_sensitive_to_board_contents() {
        let moves = random_words(SEED_MOVES, (MOVES_MASK + 1) as usize);
        let a = reference(&random_words(1, BOARD_CELLS), &moves, 100);
        let b = reference(&random_words(2, BOARD_CELLS), &moves, 100);
        assert_ne!(a, b);
    }
}
