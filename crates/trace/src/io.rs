//! Compact binary serialization for traces.
//!
//! Traces are expensive to regenerate for large workloads, so they can be
//! persisted in a self-contained container:
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
    /// when the bytes are already resident. To check an image against a
    /// known program now and decode it later, use [`CheckedImage`].
    ///
    /// # Errors
    ///
    /// Returns an error for an unrecognised container (bad magic or
    /// version) or corrupt contents.
    pub fn from_bytes(data: &[u8]) -> io::Result<Trace> {
        let header = Header::split(data)?;
        let program: Program =
            serde_json::from_slice(header.program_json).map_err(|e| bad(&e.to_string()))?;
        let mut columns = Columns::with_capacity(header.count);
        walk_columns(header.columns, header.count, program.len(), &mut columns)?;
        Ok(Trace::from_columns(
            Arc::new(program),
            columns,
            header.final_regs,
        ))
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The fixed fields of a container image, with the program header and
/// the column payload left as slices of it.
struct Header<'a> {
    program_json: &'a [u8],
    count: usize,
    final_regs: [u64; NUM_REGS],
    /// The columns, plus any trailing bytes (ignored).
    columns: &'a [u8],
}

impl<'a> Header<'a> {
    fn split(data: &'a [u8]) -> io::Result<Header<'a>> {
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
        Ok(Header {
            program_json,
            count,
            final_regs,
            columns: buf,
        })
    }
}

/// A trace's four columns, as [`Trace::from_columns`] takes them.
pub(crate) struct Columns {
    pub(crate) pcs: Vec<u32>,
    pub(crate) taken: Vec<u64>,
    pub(crate) addrs: Vec<u64>,
    pub(crate) results: Vec<u64>,
}

impl Columns {
    fn with_capacity(count: usize) -> Columns {
        Columns {
            pcs: Vec::with_capacity(count),
            taken: Vec::with_capacity(count.div_ceil(64)),
            addrs: Vec::with_capacity(count),
            results: Vec::with_capacity(count),
        }
    }
}

/// Where [`walk_columns`] puts the values it reads, one column at a time.
trait Sink {
    fn pc(&mut self, pc: u32);
    fn taken(&mut self, word: u64);
    fn addr(&mut self, addr: u64);
    fn result(&mut self, result: u64);
}

/// The check-only sink: discards every value, so the scan allocates nothing.
impl Sink for () {
    fn pc(&mut self, _: u32) {}
    fn taken(&mut self, _: u64) {}
    fn addr(&mut self, _: u64) {}
    fn result(&mut self, _: u64) {}
}

impl Sink for Columns {
    fn pc(&mut self, pc: u32) {
        self.pcs.push(pc);
    }
    fn taken(&mut self, word: u64) {
        self.taken.push(word);
    }
    fn addr(&mut self, addr: u64) {
        self.addrs.push(addr);
    }
    fn result(&mut self, result: u64) {
        self.results.push(result);
    }
}

/// Reads the column payload of `count` records into `out`, checking every
/// varint's termination and width, every pc against `program_len`, and the
/// taken column's length. The one reader of the column format: decoding,
/// checking ([`CheckedImage::check`]) and decoding a checked image all go
/// through it.
fn walk_columns(
    mut buf: &[u8],
    count: usize,
    program_len: usize,
    out: &mut impl Sink,
) -> io::Result<()> {
    let program_len = i64::try_from(program_len).map_err(|_| bad("program too large"))?;
    let mut prev = 0i64;
    for _ in 0..count {
        let pc = prev
            .checked_add(unzigzag(get_varint(&mut buf)?))
            .filter(|pc| (0..program_len).contains(pc))
            .ok_or_else(|| bad("record pc outside program"))?;
        out.pc(pc as u32);
        prev = pc;
    }
    for _ in 0..count.div_ceil(64) {
        let (word, rest) = buf
            .split_first_chunk::<8>()
            .ok_or_else(|| bad("truncated taken column"))?;
        out.taken(u64::from_le_bytes(*word));
        buf = rest;
    }
    for _ in 0..count {
        out.addr(get_varint(&mut buf)?);
    }
    for _ in 0..count {
        out.result(get_varint(&mut buf)?);
    }
    Ok(())
}

/// A trace container image that has passed every check
/// [`Trace::from_bytes`] makes, against a known program, with no column
/// decoded yet.
///
/// [`CheckedImage::check`] is the only constructor, and it scans the whole
/// image without allocating, so a checked image always decodes: the
/// decode cannot fail. A store hands back the image at load time, where a
/// failed check can still fall back to regeneration, and the columns are
/// built only when a consumer first needs the trace.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use specmt_isa::{ProgramBuilder, Reg};
/// use specmt_trace::{CheckedImage, Trace};
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R10, 3);
/// b.halt();
/// let program = Arc::new(b.build()?);
/// let trace = Trace::generate_arc(Arc::clone(&program), 100)?;
/// let mut bytes = Vec::new();
/// trace.write_to(&mut bytes)?;
///
/// let program_json = serde_json::to_vec(&*program)?;
/// let image = CheckedImage::check(bytes, program, &program_json)?;
/// assert_eq!(image.final_reg(Reg::R10), 3);
/// assert_eq!(image.decode().records_vec(), trace.records_vec());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CheckedImage {
    data: Vec<u8>,
    /// Offset of the column payload in `data`.
    columns: usize,
    count: usize,
    program: Arc<Program>,
    final_regs: [u64; NUM_REGS],
}

impl CheckedImage {
    /// Checks `data` as a container image of a trace of `program`, making
    /// every check [`Trace::from_bytes`] makes. The program header is
    /// compared byte for byte against `program_json`, which must be
    /// `program` serialized with `serde_json::to_vec` (the header
    /// [`Trace::write_to`] writes), instead of being parsed.
    ///
    /// # Errors
    ///
    /// As [`Trace::from_bytes`], plus a mismatched program header.
    pub fn check(
        data: Vec<u8>,
        program: Arc<Program>,
        program_json: &[u8],
    ) -> io::Result<CheckedImage> {
        let header = Header::split(&data)?;
        if header.program_json != program_json {
            return Err(bad("program header does not match the program"));
        }
        walk_columns(header.columns, header.count, program.len(), &mut ())?;
        let columns = data.len() - header.columns.len();
        let (count, final_regs) = (header.count, header.final_regs);
        Ok(CheckedImage {
            data,
            columns,
            count,
            program,
            final_regs,
        })
    }

    /// The final architectural value of `reg`, read from the image's
    /// trailer (see [`Trace::final_reg`]).
    pub fn final_reg(&self, reg: Reg) -> u64 {
        self.final_regs[reg.index()]
    }

    /// Decodes the columns into a [`Trace`] of the checked program,
    /// consuming (and freeing) the image.
    pub fn decode(self) -> Trace {
        let data = self.data.get(self.columns..).unwrap_or_default();
        let mut columns = Columns::with_capacity(self.count);
        // `check` walked these same bytes against the same program and
        // found no error, so this walk cannot fail either.
        let _ = walk_columns(data, self.count, self.program.len(), &mut columns);
        Trace::from_columns(self.program, columns, self.final_regs)
    }
}

impl std::fmt::Debug for CheckedImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckedImage")
            .field("records", &self.count)
            .field("bytes", &self.data.len())
            .finish_non_exhaustive()
    }
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

    /// Every single-byte corruption and every truncation of the sample
    /// image: [`CheckedImage::check`] accepts exactly the images
    /// [`Trace::from_bytes`] decodes to the sample's program, and each
    /// accepted image decodes to the same trace.
    #[test]
    fn check_accepts_exactly_what_from_bytes_accepts() {
        let trace = sample_trace();
        let program = Arc::clone(trace.program());
        let program_json = serde_json::to_vec(&*program).unwrap();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();

        let mut images = Vec::new();
        for i in 0..bytes.len() {
            for v in [0x00, 0xff, bytes[i] ^ 0x01, bytes[i] ^ 0x80] {
                if v != bytes[i] {
                    let mut corrupt = bytes.clone();
                    corrupt[i] = v;
                    images.push((format!("byte {i} = {v:#04x}"), corrupt));
                }
            }
        }
        for n in 0..bytes.len() {
            images.push((format!("truncated to {n}"), bytes[..n].to_vec()));
        }
        images.push(("intact".to_string(), bytes));

        let mut accepted = 0;
        for (what, image) in images {
            let decoded = Trace::from_bytes(&image)
                .ok()
                .filter(|t| **t.program() == *program);
            let checked = CheckedImage::check(image, Arc::clone(&program), &program_json);
            assert_eq!(checked.is_ok(), decoded.is_some(), "{what}");
            let (Ok(checked), Some(decoded)) = (checked, decoded) else {
                continue;
            };
            accepted += 1;
            for r in Reg::all() {
                assert_eq!(checked.final_reg(r), decoded.final_reg(r), "{what}");
            }
            let lazy = checked.decode();
            assert_eq!(lazy.records_vec(), decoded.records_vec(), "{what}");
            assert_eq!(lazy.program(), decoded.program(), "{what}");
            for r in Reg::all() {
                assert_eq!(lazy.final_reg(r), decoded.final_reg(r), "{what}");
            }
        }
        // The intact image, plus corruptions that only change a value.
        assert!(accepted > 1, "only {accepted} images accepted");
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
