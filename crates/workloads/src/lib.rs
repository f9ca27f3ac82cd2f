//! # specmt-workloads
//!
//! A synthetic benchmark suite standing in for SpecInt95.
//!
//! The HPCA 2002 paper this project reproduces evaluates its thread-spawning
//! schemes on the eight SpecInt95 programs compiled for Alpha. Those
//! binaries (and their inputs) are not reproducible here, so this crate
//! provides one deterministic synthetic program per benchmark, written in
//! the `specmt-isa` instruction set and engineered to mimic the structural
//! character that drives each benchmark's published behaviour:
//!
//! | Workload | Mimics | Character |
//! |---|---|---|
//! | [`go`] | go | irregular data-dependent branching over a board array |
//! | [`m88ksim`] | m88ksim | fetch/decode/dispatch simulator loop over in-memory state |
//! | [`gcc`] | gcc | many small functions dispatched from a driver, large CFG |
//! | [`compress`] | compress | one dominant loop with a serial register/memory chain |
//! | [`li`] | li | recursive tree traversal, call-continuation parallelism |
//! | [`ijpeg`] | ijpeg | regular nested loops over independent blocks |
//! | [`perl`] | perl | interpreter dispatch with rare expensive opcodes (imbalance) |
//! | [`vortex`] | vortex | call-heavy transactions over a hash-table store |
//!
//! Each workload carries a reference checksum computed by a Rust
//! transliteration of the same algorithm; the test suite asserts the
//! emulated program reproduces it exactly, pinning the emulator and the
//! generators to each other.
//!
//! # Examples
//!
//! ```
//! use specmt_workloads::{Scale, Workload};
//!
//! let w = specmt_workloads::ijpeg(Scale::Tiny);
//! assert_eq!(w.name, "ijpeg");
//! assert!(w.program.len() > 10);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common;
mod compress;
mod gcc;
mod go;
mod ijpeg;
mod li;
mod m88ksim;
mod perl;
mod vortex;

pub use common::InputSet;
pub use compress::compress;
pub use compress::compress_with_input;
pub use gcc::{gcc, gcc_with_input};
pub use go::{go, go_with_input};
pub use ijpeg::{ijpeg, ijpeg_with_input};
pub use li::{li, li_with_input};
pub use m88ksim::{m88ksim, m88ksim_with_input};
pub use perl::{perl, perl_with_input};
pub use vortex::{vortex, vortex_with_input};

use std::sync::Arc;

use specmt_isa::Program;

/// Problem-size presets.
///
/// Sizes target dynamic instruction counts of roughly 10–30 k
/// ([`Scale::Tiny`], unit tests), ~100 k ([`Scale::Small`]), ~0.5 M
/// ([`Scale::Medium`], the default for figure regeneration) and several
/// million ([`Scale::Large`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Smallest: fast enough for debug-mode unit tests.
    Tiny,
    /// Small: quick experiments.
    Small,
    /// Medium: the default evaluation size.
    Medium,
    /// Large: long traces for stable statistics.
    Large,
}

/// A synthetic benchmark: a program plus the checksum a correct execution
/// must produce (left in register `r10` at halt).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (matches its SpecInt95 namesake).
    pub name: &'static str,
    /// The program, wrapped once: pass it (or a clone of the `Arc`) to
    /// `Trace::generate*` or `Emulator::new` and the trace shares this
    /// allocation instead of copying the instructions and memory image.
    pub program: Arc<Program>,
    /// Expected final value of `r10`, computed by the Rust reference
    /// implementation.
    pub expected_checksum: u64,
    /// A generous step budget for trace generation (several times the
    /// expected dynamic length).
    pub step_budget: u64,
}

/// The full suite in the paper's reporting order:
/// go, m88ksim, gcc, compress, li, ijpeg, perl, vortex.
pub fn suite(scale: Scale) -> Vec<Workload> {
    vec![
        go(scale),
        m88ksim(scale),
        gcc(scale),
        compress(scale),
        li(scale),
        ijpeg(scale),
        perl(scale),
        vortex(scale),
    ]
}

/// Names of the suite in reporting order.
pub const SUITE_NAMES: [&str; 8] = [
    "go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex",
];

/// Looks up a single workload by name.
///
/// Returns `None` for unknown names.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    by_name_with_input(name, scale, InputSet::Train)
}

/// As [`by_name`], selecting the input set (training vs reference data).
pub fn by_name_with_input(name: &str, scale: Scale, input: InputSet) -> Option<Workload> {
    match name {
        "go" => Some(go_with_input(scale, input)),
        "m88ksim" => Some(m88ksim_with_input(scale, input)),
        "gcc" => Some(gcc_with_input(scale, input)),
        "compress" => Some(compress_with_input(scale, input)),
        "li" => Some(li_with_input(scale, input)),
        "ijpeg" => Some(ijpeg_with_input(scale, input)),
        "perl" => Some(perl_with_input(scale, input)),
        "vortex" => Some(vortex_with_input(scale, input)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_workloads_in_paper_order() {
        let s = suite(Scale::Tiny);
        let names: Vec<&str> = s.iter().map(|w| w.name).collect();
        assert_eq!(names, SUITE_NAMES.to_vec());
    }

    #[test]
    fn by_name_round_trips() {
        for name in SUITE_NAMES {
            assert_eq!(by_name(name, Scale::Tiny).unwrap().name, name);
        }
        assert!(by_name("eon", Scale::Tiny).is_none());
    }

    #[test]
    fn scales_change_the_computation() {
        // Different scales must produce different checksums (more work is
        // actually being done, not just re-run).
        for name in SUITE_NAMES {
            let a = by_name(name, Scale::Tiny).unwrap().expected_checksum;
            let b = by_name(name, Scale::Small).unwrap().expected_checksum;
            assert_ne!(a, b, "{name} checksum scale-insensitive");
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for name in SUITE_NAMES {
            let a = by_name(name, Scale::Tiny).unwrap();
            let b = by_name(name, Scale::Tiny).unwrap();
            assert_eq!(a.expected_checksum, b.expected_checksum);
            assert_eq!(a.program.insts(), b.program.insts());
        }
    }

    #[test]
    fn reference_inputs_differ_and_are_bigger() {
        use specmt_isa::Reg;
        let _ = Reg::ZERO;
        for name in SUITE_NAMES {
            let train = by_name_with_input(name, Scale::Tiny, InputSet::Train).unwrap();
            let reference = by_name_with_input(name, Scale::Tiny, InputSet::Ref).unwrap();
            assert_ne!(
                train.expected_checksum, reference.expected_checksum,
                "{name}: ref input identical to train"
            );
        }
    }

    #[test]
    fn every_workload_declares_functions_or_loops() {
        // The suite must exercise both spawning-source kinds across the
        // board: calls exist in at least half the suite, every program has
        // a backward branch.
        let mut with_calls = 0;
        for w in suite(Scale::Tiny) {
            let has_backward = w.program.insts().iter().enumerate().any(|(i, inst)| {
                inst.control_target().is_some_and(|t| t.index() <= i) && !inst.is_call()
            });
            assert!(has_backward, "{} has no loop", w.name);
            if w.program.insts().iter().any(|i| i.is_call()) {
                with_calls += 1;
            }
        }
        assert!(with_calls >= 4, "only {with_calls} workloads make calls");
    }
}
