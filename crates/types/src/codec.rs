//! A compact, hand-rolled binary codec for the disk-backed result store.
//!
//! The workspace builds offline with no serialization crates, so the
//! persistent cell cache frames its entries with this module instead of
//! serde: little-endian primitives behind a checked reader that can
//! never panic on hostile bytes, plus a versioned envelope
//! ([`encode_entry`]/[`decode_entry`]) carrying a magic number, format
//! version, payload kind, length, and a content checksum. A truncated,
//! bit-flipped, or stale-format file decodes to an [`Err`] — the store
//! deletes it and recomputes — never to a wrong value.
//!
//! # Examples
//!
//! ```
//! use nuca_types::codec::{decode_entry, encode_entry, ByteReader, ByteWriter};
//!
//! let mut w = ByteWriter::new();
//! w.u64(7);
//! w.f64(1.5);
//! w.str("xapian");
//! let file = encode_entry(3, w.into_bytes());
//!
//! let payload = decode_entry(3, &file).unwrap();
//! let mut r = ByteReader::new(payload);
//! assert_eq!(r.u64().unwrap(), 7);
//! assert_eq!(r.f64().unwrap(), 1.5);
//! assert_eq!(r.str().unwrap(), "xapian");
//! r.finish().unwrap();
//! ```

use crate::hash::fingerprint128;

/// Magic number opening every store entry (`"JMNJ"` little-endian).
pub const MAGIC: u32 = 0x4A4E_4D4A;

/// Format version of the envelope *and* every payload codec behind it.
///
/// Bump this whenever any persisted payload layout changes; old files
/// then fail [`decode_entry`] with [`CodecError::WrongVersion`] and are
/// dropped and recomputed instead of being misread.
///
/// Version history: 1 — initial layout (runs, allocs, model, costs);
/// 2 — `MeasuredCosts` gained a detailed-simulator row and the store
/// gained `details/` entries carrying `DetailReport`-shaped payloads;
/// 3 — run entries dropped their per-interval timeline, which moved,
/// written flat, into a timeline scenario entry.
pub const FORMAT_VERSION: u16 = 3;

/// Why a decode was rejected. Every variant means "drop this entry and
/// recompute" — none is a caller bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value (or envelope) it should hold.
    Truncated,
    /// The envelope does not start with [`MAGIC`].
    BadMagic,
    /// The envelope was written by a different [`FORMAT_VERSION`].
    WrongVersion,
    /// The envelope's payload kind is not the one the caller expected.
    WrongKind,
    /// The payload bytes do not match the stored checksum.
    BadChecksum,
    /// A structurally invalid value (bad enum tag, non-finite float where
    /// one is required, absurd length, invalid UTF-8, trailing bytes).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "entry truncated"),
            CodecError::BadMagic => write!(f, "bad magic number"),
            CodecError::WrongVersion => write!(f, "wrong format version"),
            CodecError::WrongKind => write!(f, "wrong entry kind"),
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Growable little-endian byte sink. Infallible: writing only appends.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with room for `bytes` bytes before it grows.
    pub fn with_capacity(bytes: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (lossless on every supported target).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern — the round trip is bit-exact, so
    /// values formatted downstream (TSVs) come back byte-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.f64(*v);
        }
    }
}

/// Checked little-endian reader over a borrowed payload. Every accessor
/// returns `Err` instead of panicking when the bytes run out.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        let b = self.take(16)?;
        let mut w = [0u8; 16];
        w.copy_from_slice(b);
        Ok(u128::from_le_bytes(w))
    }

    /// Reads a `u64` written by [`ByteWriter::usize`] back into `usize`.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Malformed("usize overflow"))
    }

    /// Reads an `f64` by bit pattern (bit-exact round trip).
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix written by a `u32` count, bounded so a
    /// corrupt length cannot trigger a huge allocation: the count may
    /// never exceed the bytes actually remaining.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::Malformed("invalid utf-8"))
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Succeeds only when every byte has been consumed — trailing bytes
    /// mean the payload layout disagrees with the decoder.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }
}

/// Envelope header size: magic (4) + version (2) + kind (2) + payload
/// length (8) + checksum (8).
const HEADER_BYTES: usize = 24;

/// Checksum of a payload: the low half of its 128-bit content
/// fingerprint. 64 bits is far beyond what bit-rot detection needs.
fn checksum(payload: &[u8]) -> u64 {
    fingerprint128(payload) as u64
}

/// Wraps `payload` in the versioned, checksummed store envelope.
///
/// `kind` tags what the payload encodes (run cell, allocation, model
/// memo, cost table) so a file renamed across namespaces cannot be
/// misparsed as the wrong type.
pub fn encode_entry(kind: u16, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates the envelope of `bytes` and returns the payload slice.
///
/// Checks, in order: header present, magic, format version, expected
/// `kind`, exact payload length (no truncation, no trailing garbage),
/// and content checksum. Any failure is a [`CodecError`], never a panic.
pub fn decode_entry(kind: u16, bytes: &[u8]) -> Result<&[u8], CodecError> {
    if bytes.len() < HEADER_BYTES {
        return Err(CodecError::Truncated);
    }
    let mut r = ByteReader::new(bytes);
    if r.u32()? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if r.u16()? != FORMAT_VERSION {
        return Err(CodecError::WrongVersion);
    }
    if r.u16()? != kind {
        return Err(CodecError::WrongKind);
    }
    let len = r.u64()?;
    let sum = r.u64()?;
    let payload = &bytes[HEADER_BYTES..];
    if (payload.len() as u64) != len {
        return Err(CodecError::Truncated);
    }
    if checksum(payload) != sum {
        return Err(CodecError::BadChecksum);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(5);
        w.u16(1234);
        w.u32(7);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX / 3);
        w.usize(42);
        w.f64(-0.0);
        w.str("moses⚡");
        w.f64s(&[1.0, f64::NAN, f64::INFINITY]);
        encode_entry(9, w.into_bytes())
    }

    #[test]
    fn round_trips_every_primitive() {
        let file = sample_entry();
        let payload = decode_entry(9, &file).expect("valid entry");
        let mut r = ByteReader::new(payload);
        assert_eq!(r.u8().unwrap(), 5);
        assert_eq!(r.u16().unwrap(), 1234);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.usize().unwrap(), 42);
        // -0.0 round-trips by bits, not by value.
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "moses⚡");
        let fs = r.f64s().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0], 1.0);
        assert!(fs[1].is_nan());
        assert_eq!(fs[2], f64::INFINITY);
        r.finish().expect("fully consumed");
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let file = sample_entry();
        for cut in 0..file.len() {
            let err = decode_entry(9, &file[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    CodecError::Truncated | CodecError::BadMagic | CodecError::BadChecksum
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let file = sample_entry();
        for byte in 0..file.len() {
            let mut bad = file.clone();
            bad[byte] ^= 0x10;
            assert!(
                decode_entry(9, &bad).is_err(),
                "flip in byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn wrong_version_kind_and_magic_are_distinct_errors() {
        let file = sample_entry();
        let mut v = file.clone();
        v[4] ^= 0xFF; // version field
        assert_eq!(decode_entry(9, &v), Err(CodecError::WrongVersion));
        assert_eq!(decode_entry(8, &file), Err(CodecError::WrongKind));
        let mut m = file.clone();
        m[0] ^= 0xFF;
        assert_eq!(decode_entry(9, &m), Err(CodecError::BadMagic));
        assert_eq!(decode_entry(9, &[]), Err(CodecError::Truncated));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut file = sample_entry();
        file.push(0);
        assert_eq!(decode_entry(9, &file), Err(CodecError::Truncated));
    }

    #[test]
    fn corrupt_length_prefix_cannot_demand_a_huge_allocation() {
        // A payload claiming 2^31 floats but holding none must fail fast
        // on the count bound, not try to allocate gigabytes.
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let file = encode_entry(1, w.into_bytes());
        let payload = decode_entry(1, &file).unwrap();
        let mut r = ByteReader::new(payload);
        assert_eq!(r.f64s(), Err(CodecError::Truncated));
    }

    #[test]
    fn reader_never_reads_past_the_end() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), Err(CodecError::Truncated));
        // Failed reads consume nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u8(), Err(CodecError::Truncated));
        r.finish().unwrap();
    }

    #[test]
    fn strings_validate_utf8() {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.u8(0xFF);
        w.u8(0xFE);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str(), Err(CodecError::Malformed("invalid utf-8")));
    }
}
