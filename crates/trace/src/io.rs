//! Compact binary serialization for traces.
//!
//! Traces can be saved and reloaded (`specmt trace --out`, `specmt
//! simulate x.smtr`) in a self-contained container:
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

use std::io::{self, Read, Write};
use std::sync::Arc;

use bytes::{Buf, BufMut, BytesMut};
use specmt_isa::{Program, Reg, NUM_REGS};

use crate::Trace;

const MAGIC: &[u8; 4] = b"SMTR";
const VERSION: u32 = 2;

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
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
    /// let copy = Trace::read_from(&bytes[..])?;
    /// assert_eq!(copy.records_vec(), trace.records_vec());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        let program_json = serde_json::to_vec(self.program().as_ref())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut buf = BytesMut::with_capacity(self.len() * 5 + program_json.len() + 64);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(program_json.len() as u32);
        buf.put_slice(&program_json);
        buf.put_u64_le(self.len() as u64);
        for r in Reg::all() {
            buf.put_u64_le(self.final_reg(r));
        }

        let mut prev = 0i64;
        for &pc in self.pcs() {
            put_varint(&mut buf, zigzag(i64::from(pc) - prev));
            prev = i64::from(pc);
        }
        for &word in self.taken_words() {
            buf.put_u64_le(word);
        }
        for &addr in self.addrs_col() {
            put_varint(&mut buf, addr);
        }
        for &result in self.results_col() {
            put_varint(&mut buf, result);
        }
        w.write_all(&buf)
    }

    /// Deserializes a trace previously written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures, an unrecognised container (bad
    /// magic or version), or corrupt contents.
    pub fn read_from(mut r: impl Read) -> io::Result<Trace> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        Trace::from_bytes(&data)
    }

    /// Deserializes a trace from an in-memory container image, decoding
    /// straight from the caller's buffer into the trace's columns.
    ///
    /// This avoids the copy [`Trace::read_from`] makes via `read_to_end`
    /// when the bytes are already resident.
    ///
    /// # Errors
    ///
    /// Returns an error for an unrecognised container (bad magic or
    /// version) or corrupt contents.
    pub fn from_bytes(data: &[u8]) -> io::Result<Trace> {
        let mut buf: &[u8] = data;
        if buf.remaining() < 12 || &buf[..4] != MAGIC {
            return Err(bad("not a specmt trace (bad magic)"));
        }
        buf.advance(4);
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(bad(&format!("unsupported trace version {version}")));
        }
        let plen = buf.get_u32_le() as usize;
        if buf.remaining() < plen {
            return Err(bad("truncated program header"));
        }
        let (program_json, mut buf) = buf.split_at(plen);
        if buf.remaining() < 8 + NUM_REGS * 8 {
            return Err(bad("truncated trailer"));
        }
        let count = buf.get_u64_le() as usize;
        let mut final_regs = [0u64; NUM_REGS];
        for slot in &mut final_regs {
            *slot = buf.get_u64_le();
        }
        // Every record costs at least one pc byte, so a count beyond the
        // remaining bytes is corrupt — reject it before reserving, or a
        // crafted header could demand an unbounded allocation.
        if count > buf.remaining() {
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
            let (word, rest) = buf
                .split_first_chunk::<8>()
                .ok_or_else(|| bad("truncated taken column"))?;
            columns.taken.push(u64::from_le_bytes(*word));
            buf = rest;
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
        let copy = Trace::read_from(&bytes[..]).unwrap();
        assert_eq!(copy.records_vec(), trace.records_vec());
        assert_eq!(copy.program().insts(), trace.program().insts());
        for r in Reg::all() {
            assert_eq!(copy.final_reg(r), trace.final_reg(r));
        }
    }

    #[test]
    fn from_bytes_matches_read_from() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let a = Trace::from_bytes(&bytes).unwrap();
        let b = Trace::read_from(&bytes[..]).unwrap();
        assert_eq!(a.records_vec(), b.records_vec());
        assert_eq!(a.records_vec(), trace.records_vec());
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
        assert!(Trace::read_from(&corrupt[..]).is_err());

        let truncated = &bytes[..bytes.len() - 3];
        assert!(Trace::read_from(truncated).is_err());

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        assert!(Trace::read_from(&bad_version[..]).is_err());
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
            if let Ok(t) = Trace::read_from(&corrupt[..]) {
                assert!(t.validate().is_ok());
            }
        }
    }
}
