//! `li`: recursive tree traversal with call-continuation parallelism.
//!
//! SpecInt95's li is a Lisp interpreter dominated by recursive list/tree
//! walks and garbage-collector sweeps. This analogue alternates a recursive
//! binary-tree sum (deep call chains whose sibling-subtree continuations are
//! the classic subroutine-continuation spawning opportunity) with a flat
//! mutation sweep over the node array (regular loop parallelism).

use std::sync::Arc;

use specmt_isa::{Program, ProgramBuilder, Reg};

use crate::common::{random_words, DATA_BASE};
use crate::{InputSet, Scale, Workload};

const SEED: u64 = 0x11_5b;
const NODES: u64 = DATA_BASE;
/// Node record: `[value, left, right]`, 24 bytes.
const NODE_BYTES: u64 = 24;

fn params(scale: Scale) -> (u32, u64) {
    // (tree depth, rounds)
    match scale {
        Scale::Tiny => (6, 3),
        Scale::Small => (8, 5),
        Scale::Medium => (9, 10),
        Scale::Large => (11, 12),
    }
}

fn node_addr(i: usize) -> u64 {
    NODES + i as u64 * NODE_BYTES
}

fn reference(values: &[u64], rounds: u64) -> u64 {
    fn tree_sum(values: &[u64], i: usize) -> u64 {
        if i >= values.len() {
            return 0;
        }
        values[i]
            .wrapping_add(tree_sum(values, 2 * i + 1))
            .wrapping_add(tree_sum(values, 2 * i + 2))
    }
    let mut values = values.to_vec();
    let mut check = 0u64;
    for k in 0..rounds {
        let s = tree_sum(&values, 0).wrapping_add(k);
        check ^= s;
        for v in values.iter_mut() {
            let mut x = v.wrapping_add(k);
            for _ in 0..10 {
                x = x.wrapping_mul(7) ^ (x >> 11);
            }
            *v = x;
        }
    }
    check
}

fn build(depth: u32, rounds: u64, values: &[u64]) -> Program {
    let nn = values.len();
    let mut b = ProgramBuilder::new();
    let round = b.fresh_label("round");
    let mutate = b.fresh_label("mutate");

    // Driver.
    b.li(Reg::R20, NODES as i64);
    b.li(Reg::R10, 0); // checksum
    b.li(Reg::R21, 0); // round counter k
    b.li(Reg::R22, rounds as i64);
    b.bind(round);
    b.mv(Reg::R3, Reg::R20);
    b.call("treesum");
    b.add(Reg::R4, Reg::R4, Reg::R21);
    b.xor(Reg::R10, Reg::R10, Reg::R4);
    // Mutation sweep: values[i] += k.
    b.li(Reg::R24, 0);
    b.li(Reg::R25, nn as i64);
    b.bind(mutate);
    b.muli(Reg::R26, Reg::R24, NODE_BYTES as i64);
    b.add(Reg::R26, Reg::R20, Reg::R26);
    b.ld(Reg::R27, Reg::R26, 0);
    b.add(Reg::R27, Reg::R27, Reg::R21);
    // A GC-sweep-like value scrub: ten mixing rounds per node keep the
    // sweep's loop body above the 32-instruction minimum thread size.
    for _ in 0..10 {
        b.muli(Reg::R28, Reg::R27, 7);
        b.shri(Reg::R27, Reg::R27, 11);
        b.xor(Reg::R27, Reg::R28, Reg::R27);
    }
    b.st(Reg::R27, Reg::R26, 0);
    b.addi(Reg::R24, Reg::R24, 1);
    b.blt(Reg::R24, Reg::R25, mutate);
    b.addi(Reg::R21, Reg::R21, 1);
    b.blt(Reg::R21, Reg::R22, round);
    b.halt();

    // Recursive tree sum: argument node pointer in r3 (0 = nil), result in
    // r4. r5/r6 are callee-saved scratch.
    b.begin_func("treesum");
    let rec = b.fresh_label("rec");
    b.bne(Reg::R3, Reg::ZERO, rec);
    b.li(Reg::R4, 0);
    b.ret();
    b.bind(rec);
    b.push(Reg::RA);
    b.push(Reg::R5);
    b.push(Reg::R6);
    b.ld(Reg::R5, Reg::R3, 0); // value
    b.push(Reg::R3);
    b.ld(Reg::R3, Reg::R3, 8); // left child
    b.call("treesum");
    b.mv(Reg::R6, Reg::R4);
    b.pop(Reg::R3);
    b.ld(Reg::R3, Reg::R3, 16); // right child
    b.call("treesum");
    b.add(Reg::R4, Reg::R4, Reg::R6);
    b.add(Reg::R4, Reg::R4, Reg::R5);
    b.pop(Reg::R6);
    b.pop(Reg::R5);
    b.pop(Reg::RA);
    b.ret();
    b.end_func();

    // Lay out the complete binary tree.
    for (i, &v) in values.iter().enumerate() {
        let left = 2 * i + 1;
        let right = 2 * i + 2;
        b.data(node_addr(i), v);
        b.data(
            node_addr(i) + 8,
            if left < nn { node_addr(left) } else { 0 },
        );
        b.data(
            node_addr(i) + 16,
            if right < nn { node_addr(right) } else { 0 },
        );
    }
    let _ = depth;
    b.build().expect("li program is valid")
}

/// Builds the `li` workload at the given scale.
pub fn li(scale: Scale) -> Workload {
    li_with_input(scale, InputSet::Train)
}

/// As [`li`], with an explicit input set (see
/// [`InputSet`]).
pub fn li_with_input(scale: Scale, input: InputSet) -> Workload {
    let (depth, rounds) = params(scale);
    let rounds = input.work(rounds);
    let nn = (1usize << depth) - 1;
    let values = random_words(SEED ^ input.salt(), nn);
    let expected = reference(&values, rounds);
    let program = build(depth, rounds, &values);
    Workload {
        name: "li",
        program: Arc::new(program),
        expected_checksum: expected,
        step_budget: (nn as u64 * 80 + 2_000) * rounds * 2 + 20_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_trace::Trace;

    #[test]
    fn emulated_checksum_matches_reference() {
        let w = li(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.final_reg(Reg::R10), w.expected_checksum);
    }

    #[test]
    fn recursion_exercises_calls() {
        let w = li(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        let mix = trace.mix();
        // 2n+1 calls per round: every node plus every nil child.
        let nn = (1u64 << 6) - 1;
        assert_eq!(mix.calls, (2 * nn + 1) * 3);
    }

    #[test]
    fn reference_depends_on_rounds() {
        let values = random_words(SEED, 63);
        assert_ne!(reference(&values, 2), reference(&values, 3));
    }
}
