//! `gcc`: many small functions dispatched from a driver loop.
//!
//! SpecInt95's gcc has the largest static footprint of the suite: hundreds
//! of small pass functions invoked from dispatch-heavy drivers, several from
//! multiple call sites. This analogue dispatches over six leaf "passes" with
//! distinct access patterns (two of them called from two different sites, so
//! their return points have the low per-site reaching probability that
//! motivates the paper's explicit return-pair injection).

use std::sync::Arc;

use specmt_isa::{Program, ProgramBuilder, Reg};

use crate::common::{random_words, DATA_BASE};
use crate::{InputSet, Scale, Workload};

const SEED_ARR: u64 = 0x6cc0;
const SEED_SEL: u64 = 0x6cc1;
const ARR: u64 = DATA_BASE;
const SEL: u64 = DATA_BASE + 0x10_0000;
const OUT: u64 = DATA_BASE + 0x20_0000;
const ARR_MASK: u64 = 1023;
const SEL_MASK: u64 = 511;
const OUT_MASK: u64 = 1023;

fn dispatches(scale: Scale) -> u64 {
    match scale {
        Scale::Tiny => 128,
        Scale::Small => 1_024,
        Scale::Medium => 2_048,
        Scale::Large => 10_000,
    }
}

mod passes {
    use super::ARR_MASK;

    pub fn f0(arr: &[u64], x: u64) -> u64 {
        (0..8).fold(0u64, |r, t| {
            r.wrapping_add(arr[((x.wrapping_add(t)) & ARR_MASK) as usize])
        })
    }

    pub fn f1(arr: &[u64], x: u64) -> u64 {
        (0..12).fold(0u64, |r, t| {
            r ^ arr[((x.wrapping_add(3 * t)) & ARR_MASK) as usize]
        })
    }

    pub fn f2(arr: &[u64], x: u64) -> u64 {
        (0..6).fold(0u64, |r, t| {
            r.wrapping_mul(3)
                .wrapping_add(arr[((x.wrapping_add(5 * t)) & ARR_MASK) as usize])
        })
    }

    pub fn f3(arr: &mut [u64], x: u64) -> u64 {
        let mut r = 0u64;
        for t in 0..8 {
            let idx = ((x.wrapping_add(7 * t)) & ARR_MASK) as usize;
            arr[idx] = arr[idx].wrapping_add(x);
            r = r.wrapping_add(arr[idx]);
        }
        r
    }

    pub fn f4(arr: &[u64], x: u64) -> u64 {
        let mut r = 0u64;
        for t in 0..16 {
            let v = arr[((x.wrapping_add(t)) & ARR_MASK) as usize];
            if v & 1 != 0 {
                r = r.wrapping_add(v);
            } else {
                r ^= v;
            }
        }
        r
    }

    pub fn f5(arr: &[u64], x: u64) -> u64 {
        (0..4).fold(0u64, |r, t| {
            r.wrapping_add(arr[((x.wrapping_add(9 * t)) & ARR_MASK) as usize] / (t + 1))
        })
    }
}

fn reference(arr_init: &[u64], sel: &[u64], m: u64) -> u64 {
    let mut arr = arr_init.to_vec();
    // Pass results land in a per-iteration log slot (like gcc writing pass
    // output into IR), not a register-carried checksum that would
    // serialise the driver loop.
    let mut out = vec![0u64; (OUT_MASK + 1) as usize];
    for i in 0..m {
        let s = sel[(i & SEL_MASK) as usize] & 7;
        let r = match s {
            0 => passes::f0(&arr, i),
            1 => passes::f1(&arr, i),
            2 => passes::f2(&arr, i),
            3 => passes::f3(&mut arr, i),
            4 => passes::f4(&arr, i),
            5 => passes::f5(&arr, i),
            6 => passes::f0(&arr, i.wrapping_add(17)),
            _ => passes::f2(&arr, i.wrapping_add(29)),
        };
        let slot = (i & OUT_MASK) as usize;
        out[slot] ^= r.wrapping_add(i);
    }
    out.iter()
        .fold(0u64, |acc, &s| acc.wrapping_mul(31).wrapping_add(s))
}

/// Emits a leaf loop `for t in 0..trips` over `arr[(x + stride*t) & mask]`.
/// The per-element op is supplied by `body`, which receives the loaded
/// element in `R8` and must accumulate into `R4`. `x` arrives in `R3`.
fn emit_scan_loop(
    b: &mut ProgramBuilder,
    name: &str,
    trips: i64,
    stride: i64,
    body: impl Fn(&mut ProgramBuilder),
) {
    b.begin_func(name);
    let looph = b.fresh_label("loop");
    b.li(Reg::R4, 0);
    b.li(Reg::R5, 0); // t
    b.li(Reg::R6, trips);
    b.mv(Reg::R9, Reg::R3); // running index
    b.bind(looph);
    b.andi(Reg::R7, Reg::R9, ARR_MASK as i64);
    b.shli(Reg::R7, Reg::R7, 3);
    b.add(Reg::R7, Reg::R14, Reg::R7);
    b.ld(Reg::R8, Reg::R7, 0);
    body(b);
    b.addi(Reg::R9, Reg::R9, stride);
    b.addi(Reg::R5, Reg::R5, 1);
    b.blt(Reg::R5, Reg::R6, looph);
    b.ret();
    b.end_func();
}

fn build(m: u64, arr_init: &[u64], sel: &[u64]) -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    let join = b.fresh_label("join");
    let sites: Vec<_> = (0..8).map(|k| b.fresh_label(&format!("site{k}"))).collect();

    let reduce = b.fresh_label("reduce");
    b.li(Reg::R14, ARR as i64); // global: array base (read by all passes)
    b.li(Reg::R15, SEL as i64);
    b.li(Reg::R16, OUT as i64);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, m as i64);

    b.bind(top);
    b.andi(Reg::R5, Reg::R1, SEL_MASK as i64);
    b.shli(Reg::R5, Reg::R5, 3);
    b.add(Reg::R5, Reg::R15, Reg::R5);
    b.ld(Reg::R6, Reg::R5, 0);
    b.andi(Reg::R6, Reg::R6, 7);
    // Dispatch chain (gcc-style switch lowering).
    for (k, &site) in sites.iter().enumerate().take(7) {
        b.li(Reg::R7, k as i64);
        b.beq(Reg::R6, Reg::R7, site);
    }
    b.j(sites[7]);

    let funcs = ["f0", "f1", "f2", "f3", "f4", "f5", "f0", "f2"];
    let arg_offsets = [0i64, 0, 0, 0, 0, 0, 17, 29];
    for k in 0..8 {
        b.bind(sites[k]);
        if arg_offsets[k] == 0 {
            b.mv(Reg::R3, Reg::R1);
        } else {
            b.addi(Reg::R3, Reg::R1, arg_offsets[k]);
        }
        b.call(funcs[k]);
        b.j(join);
    }

    b.bind(join);
    b.add(Reg::R4, Reg::R4, Reg::R1);
    b.andi(Reg::R11, Reg::R1, OUT_MASK as i64);
    b.shli(Reg::R11, Reg::R11, 3);
    b.add(Reg::R11, Reg::R16, Reg::R11);
    b.ld(Reg::R12, Reg::R11, 0);
    b.xor(Reg::R12, Reg::R12, Reg::R4);
    b.st(Reg::R12, Reg::R11, 0);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);

    // Final reduction over the result log.
    b.li(Reg::R10, 0);
    b.li(Reg::R1, 0);
    b.li(Reg::R2, (OUT_MASK + 1) as i64);
    b.bind(reduce);
    b.shli(Reg::R11, Reg::R1, 3);
    b.add(Reg::R11, Reg::R16, Reg::R11);
    b.ld(Reg::R12, Reg::R11, 0);
    b.muli(Reg::R10, Reg::R10, 31);
    b.add(Reg::R10, Reg::R10, Reg::R12);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, reduce);
    b.halt();

    // Pass bodies.
    emit_scan_loop(&mut b, "f0", 8, 1, |b| {
        b.add(Reg::R4, Reg::R4, Reg::R8);
    });
    emit_scan_loop(&mut b, "f1", 12, 3, |b| {
        b.xor(Reg::R4, Reg::R4, Reg::R8);
    });
    emit_scan_loop(&mut b, "f2", 6, 5, |b| {
        b.muli(Reg::R4, Reg::R4, 3);
        b.add(Reg::R4, Reg::R4, Reg::R8);
    });
    // f3: read-modify-write pass (creates cross-call memory dependences).
    {
        b.begin_func("f3");
        let looph = b.fresh_label("loop");
        b.li(Reg::R4, 0);
        b.li(Reg::R5, 0);
        b.li(Reg::R6, 8);
        b.mv(Reg::R9, Reg::R3);
        b.bind(looph);
        b.andi(Reg::R7, Reg::R9, ARR_MASK as i64);
        b.shli(Reg::R7, Reg::R7, 3);
        b.add(Reg::R7, Reg::R14, Reg::R7);
        b.ld(Reg::R8, Reg::R7, 0);
        b.add(Reg::R8, Reg::R8, Reg::R3);
        b.st(Reg::R8, Reg::R7, 0);
        b.add(Reg::R4, Reg::R4, Reg::R8);
        b.addi(Reg::R9, Reg::R9, 7);
        b.addi(Reg::R5, Reg::R5, 1);
        b.blt(Reg::R5, Reg::R6, looph);
        b.ret();
        b.end_func();
    }
    // f4: conditional accumulate (data-dependent branch in the hot loop).
    {
        b.begin_func("f4");
        let looph = b.fresh_label("loop");
        let odd = b.fresh_label("odd");
        let next = b.fresh_label("next");
        b.li(Reg::R4, 0);
        b.li(Reg::R5, 0);
        b.li(Reg::R6, 16);
        b.mv(Reg::R9, Reg::R3);
        b.bind(looph);
        b.andi(Reg::R7, Reg::R9, ARR_MASK as i64);
        b.shli(Reg::R7, Reg::R7, 3);
        b.add(Reg::R7, Reg::R14, Reg::R7);
        b.ld(Reg::R8, Reg::R7, 0);
        b.andi(Reg::R11, Reg::R8, 1);
        b.bne(Reg::R11, Reg::ZERO, odd);
        b.xor(Reg::R4, Reg::R4, Reg::R8);
        b.j(next);
        b.bind(odd);
        b.add(Reg::R4, Reg::R4, Reg::R8);
        b.bind(next);
        b.addi(Reg::R9, Reg::R9, 1);
        b.addi(Reg::R5, Reg::R5, 1);
        b.blt(Reg::R5, Reg::R6, looph);
        b.ret();
        b.end_func();
    }
    // f5: divide-heavy pass (long-latency functional units).
    {
        b.begin_func("f5");
        let looph = b.fresh_label("loop");
        b.li(Reg::R4, 0);
        b.li(Reg::R5, 0);
        b.li(Reg::R6, 4);
        b.mv(Reg::R9, Reg::R3);
        b.bind(looph);
        b.andi(Reg::R7, Reg::R9, ARR_MASK as i64);
        b.shli(Reg::R7, Reg::R7, 3);
        b.add(Reg::R7, Reg::R14, Reg::R7);
        b.ld(Reg::R8, Reg::R7, 0);
        b.addi(Reg::R11, Reg::R5, 1);
        b.div(Reg::R8, Reg::R8, Reg::R11);
        b.add(Reg::R4, Reg::R4, Reg::R8);
        b.addi(Reg::R9, Reg::R9, 9);
        b.addi(Reg::R5, Reg::R5, 1);
        b.blt(Reg::R5, Reg::R6, looph);
        b.ret();
        b.end_func();
    }

    b.data_block(ARR, arr_init);
    b.data_block(SEL, sel);
    b.build().expect("gcc program is valid")
}

/// Builds the `gcc` workload at the given scale.
pub fn gcc(scale: Scale) -> Workload {
    gcc_with_input(scale, InputSet::Train)
}

/// As [`gcc`], with an explicit input set (see
/// [`InputSet`]).
pub fn gcc_with_input(scale: Scale, input: InputSet) -> Workload {
    let m = input.work(dispatches(scale));
    let arr = random_words(SEED_ARR ^ input.salt(), (ARR_MASK + 1) as usize);
    let sel = random_words(SEED_SEL ^ input.salt(), (SEL_MASK + 1) as usize);
    let expected = reference(&arr, &sel, m);
    let program = build(m, &arr, &sel);
    Workload {
        name: "gcc",
        program: Arc::new(program),
        expected_checksum: expected,
        step_budget: (m * 160 + 10_000) * 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_trace::Trace;

    #[test]
    fn emulated_checksum_matches_reference() {
        let w = gcc(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.final_reg(Reg::R10), w.expected_checksum);
    }

    #[test]
    fn has_six_functions() {
        let w = gcc(Scale::Tiny);
        let names: Vec<&str> = w
            .program
            .functions()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["f0", "f1", "f2", "f3", "f4", "f5"]);
    }

    #[test]
    fn every_dispatch_calls_something() {
        let w = gcc(Scale::Tiny);
        let trace = Trace::generate(w.program.clone(), w.step_budget).unwrap();
        assert_eq!(trace.mix().calls, 128);
    }
}
