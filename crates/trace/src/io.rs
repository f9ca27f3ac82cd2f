//! Compact binary serialization for traces.
//!
//! No pipeline path stores or reads a trace image any more: a trace is a
//! pure function of its program and step budget, so the figure pipeline
//! regenerates it (see `specmt-bench`'s `cache` module) and the CLI takes
//! workloads and assembly files only. [`Trace::write_to`] and
//! [`Trace::from_bytes`] remain solely because the benchmark's per-layer
//! replay (`perfbench/src/replay.rs`) times its `trace.encode` and
//! `trace.decode` stages through them; they go when that replay stage does.
//!
//! The container:
//!
//! ```text
//! magic "SMTR" | version u32 LE | program-JSON length u32 LE | program JSON
//! | record count u64 LE | final regs (32 x u64 LE)
//! | pc column | taken column | addr column | result column
//! ```
//!
//! The payload mirrors the in-memory structure-of-arrays layout, one column
//! at a time, so encode is four tight loops rather than a per-record flag
//! dispatch, and decode two walks after a skip to the taken words (pc,
//! taken flag and address together, then results):
//!
//! * **pc** — zigzag-varint deltas from the previous pc (the overwhelmingly
//!   common sequential step encodes as one byte);
//! * **taken** — the packed 64-flags-per-word bitmap, raw `u64` LE words;
//! * **addr**, **result** — plain varints (zero, the common case for
//!   non-memory and non-producing instructions, is one byte).
//!
//! The pc column is dense on disk, while the in-memory trace derives
//! each pc from the previous record's taken flag and the program: the
//! reader keeps only the first pc of each 64-record word and the pc each
//! return went to, and rejects an image whose pcs the derivation would
//! not reproduce (a taken flag on an instruction that cannot redirect
//! fetch or a missing one on a jump, call or return, or a pc that is
//! neither the next instruction nor the taken target). The addr column is
//! dense on disk, one varint per record, while the in-memory trace keeps
//! addresses for loads and stores only; a nonzero address on any other
//! record cannot be held, so the reader rejects it. The result column is
//! likewise one whole 64-bit varint per record on disk, whatever split
//! into low and high halves the in-memory trace keeps.
//!
//! Typical traces compress to 3–6 bytes per dynamic instruction.

use std::io::{self, Write};
use std::sync::Arc;

use specmt_isa::{Program, Reg, NUM_REGS};

use crate::record::{mem_pcs, taken_targets, Columns, RET_TARGET};
use crate::Trace;

const MAGIC: &[u8; 4] = b"SMTR";
const VERSION: u32 = 2;

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, rest)) = buf.split_first() else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated varint",
            ));
        };
        *buf = rest;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflow",
            ));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The bytes the first `n` varints of `buf` span.
fn varints_len(buf: &[u8], n: usize) -> io::Result<usize> {
    if n == 0 {
        return Ok(0);
    }
    let mut seen = 0;
    for (i, &byte) in buf.iter().enumerate() {
        if byte & 0x80 == 0 {
            seen += 1;
            if seen == n {
                return Ok(i + 1);
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "truncated varint",
    ))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Splits `N` bytes off the front of `buf`; too few left is a truncated
/// `what`.
fn take<const N: usize>(buf: &mut &[u8], what: &str) -> io::Result<[u8; N]> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| bad(&format!("truncated {what}")))?;
    *buf = rest;
    Ok(*head)
}

impl Trace {
    /// Serializes the trace (including its program and final register file)
    /// to `w` in the compact binary container format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    ///
    /// # Examples
    ///
    /// ```
    /// use specmt_isa::{ProgramBuilder, Reg};
    /// use specmt_trace::Trace;
    ///
    /// let mut b = ProgramBuilder::new();
    /// b.li(Reg::R1, 3);
    /// b.halt();
    /// let trace = Trace::generate(b.build()?, 100)?;
    ///
    /// let mut bytes = Vec::new();
    /// trace.write_to(&mut bytes)?;
    /// let copy = Trace::from_bytes(&bytes)?;
    /// assert_eq!(copy.records_vec(), trace.records_vec());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        let program_json = serde_json::to_vec(self.program().as_ref())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut buf = Vec::with_capacity(self.len() * 5 + program_json.len() + 64);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(program_json.len() as u32).to_le_bytes());
        buf.extend_from_slice(&program_json);
        buf.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for r in Reg::all() {
            buf.extend_from_slice(&self.final_reg(r).to_le_bytes());
        }

        let mut prev = 0i64;
        for pc in self.pcs() {
            put_varint(&mut buf, zigzag(i64::from(pc.0) - prev));
            prev = i64::from(pc.0);
        }
        for &word in self.taken_words() {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for addr in self.dense_addrs() {
            put_varint(&mut buf, addr);
        }
        for result in self.dense_results() {
            put_varint(&mut buf, result);
        }
        w.write_all(&buf)
    }

    /// Deserializes a trace written by [`Trace::write_to`], decoding
    /// straight from the caller's buffer into the trace's columns.
    ///
    /// # Errors
    ///
    /// Returns an error for an unrecognised container (bad magic or
    /// version) or corrupt contents, including a nonzero address on a
    /// record that is not a load or store and pcs that contradict the
    /// taken flags and the program's static targets.
    pub fn from_bytes(data: &[u8]) -> io::Result<Trace> {
        let Some(mut buf) = data.strip_prefix(MAGIC) else {
            return Err(bad("not a specmt trace (bad magic)"));
        };
        let version = u32::from_le_bytes(take(&mut buf, "header")?);
        if version != VERSION {
            return Err(bad(&format!("unsupported trace version {version}")));
        }
        let plen = u32::from_le_bytes(take(&mut buf, "header")?) as usize;
        if buf.len() < plen {
            return Err(bad("truncated program header"));
        }
        let (program_json, mut buf) = buf.split_at(plen);
        let count = u64::from_le_bytes(take(&mut buf, "trailer")?) as usize;
        let mut final_regs = [0u64; NUM_REGS];
        for slot in &mut final_regs {
            *slot = u64::from_le_bytes(take(&mut buf, "trailer")?);
        }
        // Every record costs at least one pc byte, so a count beyond the
        // remaining bytes is corrupt — reject it before reserving, or a
        // crafted header could demand an unbounded allocation.
        if count > buf.len() {
            return Err(bad("record count exceeds available data"));
        }

        let program: Program =
            serde_json::from_slice(program_json).map_err(|e| bad(&e.to_string()))?;
        let program_len = i64::try_from(program.len()).map_err(|_| bad("program too large"))?;
        // The pc column's varints end where the taken words begin: skip to
        // those first, so that one walk reads each record's pc, taken flag
        // and address (the column after the taken words).
        let (mut pc_column, mut buf) = buf.split_at(varints_len(buf, count)?);
        let mut taken = Vec::with_capacity(count.div_ceil(64));
        for _ in 0..count.div_ceil(64) {
            taken.push(u64::from_le_bytes(take(&mut buf, "taken column")?));
        }
        let is_mem = mem_pcs(&program);
        let targets = taken_targets(&program);
        // Per static instruction, the taken flag its records must carry:
        // set on jumps, calls and returns, clear on all but branches.
        let redirects: Vec<Option<bool>> = program
            .insts()
            .iter()
            .map(|i| (!i.is_cond_branch()).then(|| i.is_control()))
            .collect();
        let mut columns = Columns::new(program.len());
        columns.reserve(count, targets.contains(&RET_TARGET));
        columns.taken = taken;
        let mut prev = 0i64;
        // The pc the previous record continues at; `RET_TARGET` before the
        // first record and after a return, whose target the program leaves
        // open.
        let mut want = RET_TARGET;
        for k in 0..count {
            let pc = prev
                .checked_add(unzigzag(get_varint(&mut pc_column)?))
                .filter(|pc| (0..program_len).contains(pc))
                .ok_or_else(|| bad("record pc outside program"))?;
            prev = pc;
            let pc = pc as u32;
            let p = pc as usize;
            if want == RET_TARGET {
                if k > 0 {
                    columns.rets.push(pc);
                }
            } else if want != pc {
                return Err(bad(
                    "record pc contradicts the taken flag and target before it",
                ));
            }
            let taken = columns.taken[k / 64] & (1u64 << (k % 64)) != 0;
            if redirects[p].is_some_and(|r| r != taken) {
                return Err(bad("taken flag contradicts the instruction"));
            }
            want = if taken { targets[p] } else { pc + 1 };
            columns.push_flow(k, pc, is_mem[p]);
            let addr = get_varint(&mut buf)?;
            if is_mem[p] {
                columns.addrs.push(addr);
            } else if addr != 0 {
                return Err(bad("address on a record that is not a load or store"));
            }
        }
        for _ in 0..count {
            columns.results.push(get_varint(&mut buf)?);
        }
        columns.shrink_to_fit();
        Ok(Trace::from_columns(Arc::new(program), columns, final_regs))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};

    fn sample_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R14, 0x10000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 37);
        b.bind(top);
        b.shli(Reg::R3, Reg::R1, 3);
        b.add(Reg::R3, Reg::R14, Reg::R3);
        b.st(Reg::R1, Reg::R3, 0);
        b.ld(Reg::R4, Reg::R3, 0);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        Trace::generate(b.build().unwrap(), 10_000).unwrap()
    }

    #[test]
    fn round_trips_exactly() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let copy = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(copy.records_vec(), trace.records_vec());
        assert_eq!(copy.program().insts(), trace.program().insts());
        for r in Reg::all() {
            assert_eq!(copy.final_reg(r), trace.final_reg(r));
        }
    }

    /// The container's bytes are a format: the encoding of the sample
    /// trace is pinned by length and FNV-1a digest, so a rewrite of the
    /// encoder cannot change a single byte unnoticed.
    #[test]
    fn encoding_bytes_are_pinned() {
        let mut bytes = Vec::new();
        sample_trace().write_to(&mut bytes).unwrap();
        let fnv1a = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(bytes.len(), 1634);
        assert_eq!(fnv1a, 0x6295_9b29_9af3_b7db);
    }

    #[test]
    fn encoding_is_compact() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        // The in-memory record is 24+ bytes; on disk it must average under 8.
        let per_record = bytes.len() as f64 / trace.len() as f64;
        assert!(per_record < 8.0, "{per_record:.1} bytes/record");
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();

        let mut corrupt = bytes.clone();
        corrupt[0] = b'X';
        assert!(Trace::from_bytes(&corrupt).is_err());

        let truncated = &bytes[..bytes.len() - 3];
        assert!(Trace::from_bytes(truncated).is_err());

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        assert!(Trace::from_bytes(&bad_version).is_err());
    }

    /// The sparse address column cannot hold an address on a record that
    /// is not a load or store, so such an image is rejected rather than
    /// read back with the address silently dropped.
    #[test]
    fn rejects_an_address_on_a_non_memory_record() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0x100);
        b.st(Reg::R1, Reg::R1, 0);
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 100).unwrap();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        // The tail is the pc column (3 one-byte deltas), one taken word,
        // the addr column (li: 0, st: 0x100 as two bytes, halt: 0) and the
        // result column (0x100 twice as two bytes, then 0).
        let n = bytes.len();
        assert_eq!(&bytes[n - 9..n - 5], &[0x00, 0x80, 0x02, 0x00]);
        assert!(Trace::from_bytes(&bytes).is_ok());
        // Give the `li` an address of 7 in place of 0.
        let mut corrupt = bytes.clone();
        corrupt[n - 9] = 7;
        let err = Trace::from_bytes(&corrupt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not a load or store"), "{err}");
        // The same on the `halt`.
        let mut corrupt = bytes;
        corrupt[n - 6] = 7;
        assert!(Trace::from_bytes(&corrupt).is_err());
    }

    /// The reader derives pcs from taken flags and static targets, so an
    /// image whose pc column says otherwise is rejected, not read back as
    /// a different trace.
    #[test]
    fn rejects_pcs_that_contradict_the_taken_flags() {
        let mut b = ProgramBuilder::new();
        let skip = b.fresh_label("skip");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 1);
        b.blt(Reg::R2, Reg::R1, skip); // not taken
        b.nop();
        b.bind(skip);
        b.halt();
        let trace = Trace::generate(b.build().unwrap(), 100).unwrap();
        assert_eq!(trace.len(), 5);
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        // The tail is the pc column (5 one-byte deltas), one taken word,
        // the addr column (5 zeros) and the result column (0, 1, 0, 0, 0).
        let n = bytes.len();
        assert_eq!(&bytes[n - 23..n - 18], &[0, 2, 2, 2, 2]);
        assert_eq!(&bytes[n - 18..n - 10], &[0; 8]);
        assert!(Trace::from_bytes(&bytes).is_ok());
        for (bit, what) in [
            // The branch taken, yet the next pc is the `nop`, not `skip`.
            (2, "contradicts the taken flag and target"),
            // An `li` cannot redirect fetch.
            (0, "contradicts the instruction"),
            // The `halt` neither.
            (4, "contradicts the instruction"),
        ] {
            let mut corrupt = bytes.clone();
            corrupt[n - 18] = 1 << bit;
            let err = Trace::from_bytes(&corrupt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bit {bit}");
            assert!(err.to_string().contains(what), "bit {bit}: {err}");
        }
        // A pc column that skips the `nop` while the branch falls through.
        let mut corrupt = bytes;
        corrupt[n - 20] = 4;
        corrupt[n - 19] = 0;
        let err = Trace::from_bytes(&corrupt).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("taken flag and target"), "{err}");
    }

    /// Returns go wherever their link register says: the reader keeps each
    /// return's target from the pc column and reads the stream back.
    #[test]
    fn round_trips_returns() {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 50);
        b.bind(top);
        b.call("leaf");
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.begin_func("leaf");
        b.addi(Reg::R3, Reg::R3, 1);
        b.ret();
        b.end_func();
        let trace = Trace::generate(b.build().unwrap(), 10_000).unwrap();
        assert_eq!(trace.ret_targets().len(), 50);
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let copy = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(copy.records_vec(), trace.records_vec());
        assert_eq!(copy.ret_targets(), trace.ret_targets());
    }

    #[test]
    fn rejects_out_of_range_pcs() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        // Corrupt bytes throughout the columns: read must fail cleanly or
        // succeed with in-range pcs — never panic.
        for i in (200..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[i] = 0xff;
            if let Ok(t) = Trace::from_bytes(&corrupt) {
                assert!(t.validate().is_ok());
            }
        }
    }
}
