//! Fuzz the untrusted input surfaces: the binary trace decoder and the
//! assembly parser. Whatever bytes arrive, they must return an error —
//! never panic, and never allocate proportionally to a length field an
//! attacker controls rather than to the input itself. An assembly file
//! that parses must also not exhaust the host when the CLI runs it.

use std::process::Command;

use proptest::prelude::*;

use specmt::isa::{parse_program, ProgramBuilder, Reg};
use specmt::trace::Trace;

/// A small but real trace, serialized.
fn serialized_trace() -> Vec<u8> {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    b.li(Reg::R1, 0);
    b.li(Reg::R2, 20);
    b.li(Reg::R3, 0x1000);
    b.bind(top);
    b.st(Reg::R1, Reg::R3, 0);
    b.ld(Reg::R4, Reg::R3, 0);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    let trace = Trace::generate(b.build().expect("program"), 1000).expect("trace");
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("serialize");
    bytes
}

proptest! {
    /// Arbitrary garbage: the decoder returns Ok or Err, never panics.
    #[test]
    fn from_bytes_arbitrary_bytes_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Trace::from_bytes(&data);
    }

    /// Point mutations of a genuine trace: still no panic, and anything the
    /// decoder accepts must satisfy the trace's structural invariant.
    #[test]
    fn from_bytes_mutated_trace_never_panics(
        flips in prop::collection::vec((any::<u64>(), any::<u8>()), 1..8)
    ) {
        let mut data = serialized_trace();
        for (idx, x) in flips {
            let i = idx as usize % data.len();
            data[i] ^= x;
        }
        if let Ok(trace) = Trace::from_bytes(&data) {
            trace.validate().expect("accepted trace must be structurally valid");
        }
    }

    /// Truncations at every length: no panic, no bogus success beyond the
    /// container header.
    #[test]
    fn from_bytes_truncated_trace_never_panics(cut in any::<u64>()) {
        let data = serialized_trace();
        let n = cut as usize % data.len();
        let _ = Trace::from_bytes(&data[..n]);
    }

    /// Mutated assembly text: the parser errors, it does not panic.
    #[test]
    fn parse_program_never_panics_on_mutated_assembly(
        flips in prop::collection::vec((any::<u64>(), 0u32..0x11_0000), 1..6)
    ) {
        let mut text = String::from(
            "start:\n  li r1, 0\n  li r2, 9\nloop:\n  addi r1, r1, 1\n  blt r1, r2, loop\n  halt\n",
        );
        for (idx, raw) in flips {
            let c = char::from_u32(raw).unwrap_or('\u{fffd}');
            let mut chars: Vec<char> = text.chars().collect();
            let i = idx as usize % chars.len();
            chars[i] = c;
            text = chars.into_iter().collect();
        }
        let _ = parse_program(&text);
    }

    /// Arbitrary text through the parser, for good measure.
    #[test]
    fn parse_program_never_panics_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..200)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_program(&text);
    }
}

/// A crafted header claiming u64::MAX records must be rejected up front —
/// before `Vec::with_capacity` turns the length field into an allocation.
#[test]
fn huge_record_count_is_rejected_without_allocating() {
    let data = serialized_trace();
    // Locate the count field: magic(4) + version(4) + plen(4) + program + count(8).
    let plen = u32::from_le_bytes([data[8], data[9], data[10], data[11]]) as usize;
    let count_at = 12 + plen;
    let mut evil = data.clone();
    evil[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = Trace::from_bytes(&evil).expect_err("absurd count must not parse");
    assert!(
        err.to_string().contains("count"),
        "unexpected error: {err}"
    );
}

/// An assembly program that touches 4,096 distinct 32 KiB pages (128 MiB)
/// and halts: `specmt run` must stop it at the CLI's 64 MiB emulated-memory
/// cap with a memory-limit error instead of letting it take the host's
/// memory.
#[test]
fn assembly_input_is_memory_capped() {
    let dir = std::env::temp_dir().join(format!("specmt-memcap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("page_stride.s");
    std::fs::write(
        &path,
        "        li   r1, 0x100000\n\
                 li   r2, 0\n\
                 li   r3, 4096\n\
                 li   r4, 32768\n\
         loop:   st   r2, 0(r1)\n\
                 add  r1, r1, r4\n\
                 addi r2, r2, 1\n\
                 blt  r2, r3, loop\n\
                 halt\n",
    )
    .expect("write program");
    let out = Command::new(env!("CARGO_BIN_EXE_specmt"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("specmt run runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "a 128 MiB program must not run to completion");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("memory limit"),
        "error must name the memory limit, got: {stderr}"
    );
}

/// A three-line spin loop never halts: within its 100 M step budget it
/// would record ~2 GB of trace columns. `specmt run` must stop it at the
/// CLI's 64 MiB trace cap with a limit error.
#[test]
fn assembly_input_trace_is_capped() {
    let dir = std::env::temp_dir().join(format!("specmt-tracecap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("spin.s");
    std::fs::write(&path, "top:    addi r1, r1, 1\n        j    top\n        halt\n")
        .expect("write program");
    let out = Command::new(env!("CARGO_BIN_EXE_specmt"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("specmt run runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success(), "a spin loop must not run to its step budget");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("trace memory limit of 67108864 exceeded"),
        "error must name the trace limit, got: {stderr}"
    );
}
