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
//! at a time, so encode and decode are four tight loops rather than a
//! per-record flag dispatch:
//!
//! * **pc** — zigzag-varint deltas from the previous pc (the overwhelmingly
//!   common sequential step encodes as one byte);
//! * **taken** — the packed 64-flags-per-word bitmap, raw `u64` LE words;
//! * **addr**, **result** — plain varints (zero, the common case for
//!   non-memory and non-producing instructions, is one byte).
//!
//! Typical traces compress to 3–6 bytes per dynamic instruction.

use std::io::{self, Write};
use std::sync::Arc;

use specmt_isa::{Program, Reg, NUM_REGS};

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
        for &pc in self.pcs() {
            put_varint(&mut buf, zigzag(i64::from(pc) - prev));
            prev = i64::from(pc);
        }
        for &word in self.taken_words() {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for &addr in self.addrs_col() {
            put_varint(&mut buf, addr);
        }
        for &result in self.results_col() {
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
    /// version) or corrupt contents.
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
        let mut columns = Columns {
            pcs: Vec::with_capacity(count),
            taken: Vec::with_capacity(count.div_ceil(64)),
            addrs: Vec::with_capacity(count),
            results: Vec::with_capacity(count),
        };
        let program_len = i64::try_from(program.len()).map_err(|_| bad("program too large"))?;
        let mut prev = 0i64;
        for _ in 0..count {
            let pc = prev
                .checked_add(unzigzag(get_varint(&mut buf)?))
                .filter(|pc| (0..program_len).contains(pc))
                .ok_or_else(|| bad("record pc outside program"))?;
            columns.pcs.push(pc as u32);
            prev = pc;
        }
        for _ in 0..count.div_ceil(64) {
            columns
                .taken
                .push(u64::from_le_bytes(take(&mut buf, "taken column")?));
        }
        for _ in 0..count {
            columns.addrs.push(get_varint(&mut buf)?);
        }
        for _ in 0..count {
            columns.results.push(get_varint(&mut buf)?);
        }
        Ok(Trace::from_columns(Arc::new(program), columns, final_regs))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// A trace's four columns, as [`Trace::from_columns`] takes them.
pub(crate) struct Columns {
    pub(crate) pcs: Vec<u32>,
    pub(crate) taken: Vec<u64>,
    pub(crate) addrs: Vec<u64>,
    pub(crate) results: Vec<u64>,
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
