//! Binary record codec for shard files.
//!
//! Records are stored as length-prefixed frames:
//!
//! ```text
//! [payload_len: varint u64][crc32(payload): u32 LE][payload bytes]
//! ```
//!
//! The CRC-32 (IEEE 802.3) checksum over the payload lets readers detect
//! torn writes and corruption — the failure-injection tests rely on it.
//! Field-level encoding helpers (varints, primitives, strings) read from a
//! `&mut &[u8]` cursor and append to a `Vec<u8>`, so record types can
//! implement [`Record`] without hand-rolling byte juggling. Every read goes
//! through a checked split: short input is [`CodecError::UnexpectedEof`],
//! never a panic.

use std::fmt;

/// Errors from decoding a record or frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// A varint ran past 10 bytes (not a valid u64).
    VarintOverflow,
    /// The frame checksum did not match the payload.
    ChecksumMismatch {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC computed over the payload read.
        actual: u32,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// An enum tag or similar discriminant was out of range.
    InvalidTag(u8),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
    /// The shard commit footer was absent or malformed — the file is
    /// torn, truncated, or still being written.
    MissingFooter,
    /// The footer's committed record count disagreed with the records
    /// actually framed in the file.
    RecordCountMismatch {
        /// Count recorded in the commit footer.
        expected: u64,
        /// Records actually decoded from the frames.
        actual: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            CodecError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: {expected:#010x} vs {actual:#010x}"
                )
            }
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::InvalidTag(t) => write!(f, "invalid discriminant tag {t}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after record"),
            CodecError::MissingFooter => {
                write!(f, "missing or malformed shard commit footer (torn file?)")
            }
            CodecError::RecordCountMismatch { expected, actual } => {
                write!(
                    f,
                    "shard footer promises {expected} records but {actual} were framed"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A type that can be serialized into (and out of) a shard-file frame.
pub trait Record: Sized + Send + 'static {
    /// Append this record's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode a record from exactly the bytes of `buf`.
    ///
    /// Implementations should consume the whole buffer; the shard reader
    /// treats leftover bytes as corruption.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE) — table-driven, computed once at startup.
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32 (IEEE 802.3) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    #[expect(
        clippy::indexing_slicing,
        reason = "index is masked to 0..=255 against a 256-entry table; per-byte hot loop"
    )]
    for &b in data {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Cursor reads
// ---------------------------------------------------------------------------

/// Take the next `len` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], CodecError> {
    let (head, tail) = buf.split_at_checked(len).ok_or(CodecError::UnexpectedEof)?;
    *buf = tail;
    Ok(head)
}

/// Take the next `N` bytes off the front of `buf` (a little-endian
/// primitive's worth).
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, tail) = buf
        .split_first_chunk::<N>()
        .ok_or(CodecError::UnexpectedEof)?;
    *buf = tail;
    Ok(*head)
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Append a LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint.
pub fn get_varint(buf: &mut &[u8]) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some((&byte, tail)) = buf.split_first() else {
            return Err(CodecError::UnexpectedEof);
        };
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        *buf = tail;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Field helpers
// ---------------------------------------------------------------------------

/// Append a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string.
pub fn get_string(buf: &mut &[u8]) -> Result<String, CodecError> {
    let len = get_varint(buf)? as usize;
    let s = std::str::from_utf8(take(buf, len)?).map_err(|_| CodecError::InvalidUtf8)?;
    Ok(s.to_owned())
}

/// Append an `f64` as little-endian bits.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `f64`.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, CodecError> {
    Ok(f64::from_le_bytes(take_array(buf)?))
}

/// ZigZag-encode a signed integer into a varint.
pub fn put_varint_i64(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Read a ZigZag-encoded signed varint.
pub fn get_varint_i64(buf: &mut &[u8]) -> Result<i64, CodecError> {
    let raw = get_varint(buf)?;
    Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Append a checksummed frame containing `payload`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Read one frame; returns the verified payload slice, advancing `buf`.
pub fn get_frame<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], CodecError> {
    let len = get_varint(buf)? as usize;
    let expected = u32::from_le_bytes(take_array(buf)?);
    let payload = take(buf, len)?;
    let actual = crc32(payload);
    if actual != expected {
        return Err(CodecError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Commit footer
// ---------------------------------------------------------------------------

/// Total size in bytes of the commit footer appended by [`put_footer`]:
/// an 8-byte magic, an 8-byte record count, and a 4-byte CRC-32 over
/// both.
pub const FOOTER_LEN: usize = 20;

/// Magic marking a committed shard file (`b"DRYBELLF"` little-endian).
const FOOTER_MAGIC: u64 = u64::from_le_bytes(*b"DRYBELLF");

/// Append the shard commit footer: magic, `record_count`, and a CRC-32
/// over both. `ShardWriter::finish` writes this as the last bytes of a
/// shard before the atomic rename; its absence marks a torn or
/// in-progress file that readers must reject.
pub fn put_footer(out: &mut Vec<u8>, record_count: u64) {
    let mut body = Vec::with_capacity(16);
    body.extend_from_slice(&FOOTER_MAGIC.to_le_bytes());
    body.extend_from_slice(&record_count.to_le_bytes());
    let crc = crc32(&body);
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Split a fully-buffered shard image into its frame bytes and the
/// committed record count, validating the footer's magic and checksum.
pub fn split_footer(buf: &[u8]) -> Result<(&[u8], u64), CodecError> {
    let Some(frames_len) = buf.len().checked_sub(FOOTER_LEN) else {
        return Err(CodecError::MissingFooter);
    };
    let (frames, footer) = buf.split_at(frames_len);
    let (body, mut crc_bytes) = footer.split_at(16);
    let mut cursor = body;
    let magic = u64::from_le_bytes(take_array(&mut cursor)?);
    let count = u64::from_le_bytes(take_array(&mut cursor)?);
    let stored = u32::from_le_bytes(take_array(&mut crc_bytes)?);
    if magic != FOOTER_MAGIC {
        return Err(CodecError::MissingFooter);
    }
    let actual = crc32(body);
    if actual != stored {
        return Err(CodecError::ChecksumMismatch {
            expected: stored,
            actual,
        });
    }
    Ok((frames, count))
}

// ---------------------------------------------------------------------------
// Record impls for common types
// ---------------------------------------------------------------------------

impl Record for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<u64, CodecError> {
        get_varint(buf)
    }
}

impl Record for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint_i64(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<i64, CodecError> {
        get_varint_i64(buf)
    }
}

impl Record for f64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_f64(buf, *self);
    }
    fn decode(buf: &mut &[u8]) -> Result<f64, CodecError> {
        get_f64(buf)
    }
}

impl Record for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_string(buf, self);
    }
    fn decode(buf: &mut &[u8]) -> Result<String, CodecError> {
        get_string(buf)
    }
}

impl<A: Record, B: Record> Record for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<(A, B), CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: Record> Record for Vec<T>
where
    T: Record,
{
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Vec<T>, CodecError> {
        let len = get_varint(buf)? as usize;
        // Guard against absurd lengths from corrupt data: each element
        // needs at least one byte.
        if len > buf.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

/// Encode a record to a standalone byte vector.
pub fn encode_record<R: Record>(r: &R) -> Vec<u8> {
    let mut buf = Vec::new();
    r.encode(&mut buf);
    buf
}

/// Decode a record from a byte slice, requiring full consumption.
pub fn decode_record<R: Record>(mut buf: &[u8]) -> Result<R, CodecError> {
    let r = R::decode(&mut buf)?;
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes(buf.len()));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn footer_roundtrips() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"payload");
        let frames_len = buf.len();
        put_footer(&mut buf, 7);
        assert_eq!(buf.len(), frames_len + FOOTER_LEN);
        let (frames, count) = split_footer(&buf).unwrap();
        assert_eq!(frames.len(), frames_len);
        assert_eq!(count, 7);
    }

    #[test]
    fn footer_missing_or_short_is_rejected() {
        // Too short to even hold a footer.
        assert_eq!(split_footer(b"abc"), Err(CodecError::MissingFooter));
        // Long enough but no magic: a torn file of well-formed frames.
        let mut buf = Vec::new();
        for _ in 0..8 {
            put_frame(&mut buf, b"frame without any commit marker");
        }
        assert_eq!(split_footer(&buf), Err(CodecError::MissingFooter));
    }

    #[test]
    fn footer_crc_corruption_is_detected() {
        let mut buf = Vec::new();
        put_footer(&mut buf, 3);
        // Flip a bit inside the count field: magic still matches, CRC no.
        buf[10] ^= 0x01;
        assert!(matches!(
            split_footer(&buf),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(get_varint(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
    }

    #[test]
    fn varint_overflow_detected() {
        let buf = [0xFFu8; 11];
        let mut s = buf.as_slice();
        assert_eq!(get_varint(&mut s), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn truncated_inputs_error() {
        let mut buf = Vec::new();
        put_string(&mut buf, "hello");
        let mut s = &buf[..3];
        assert_eq!(get_string(&mut s), Err(CodecError::UnexpectedEof));
        let mut s: &[u8] = &[];
        assert_eq!(get_varint(&mut s), Err(CodecError::UnexpectedEof));
        assert_eq!(get_f64(&mut s), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn frame_detects_corruption() {
        let mut out = Vec::new();
        put_frame(&mut out, b"payload-bytes");
        // Flip a payload bit.
        let idx = out.len() - 2;
        out[idx] ^= 0x01;
        let mut s = out.as_slice();
        assert!(matches!(
            get_frame(&mut s),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn frame_length_near_usize_max_is_eof_not_overflow() {
        // `4 + len` used to be computed unchecked before the bounds test.
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX - 1);
        out.extend_from_slice(&[0; 8]);
        let mut s = out.as_slice();
        assert_eq!(get_frame(&mut s), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn frame_roundtrip_multiple() {
        let mut out = Vec::new();
        put_frame(&mut out, b"one");
        put_frame(&mut out, b"");
        put_frame(&mut out, b"three");
        let mut s = out.as_slice();
        assert_eq!(get_frame(&mut s).unwrap(), b"one");
        assert_eq!(get_frame(&mut s).unwrap(), b"");
        assert_eq!(get_frame(&mut s).unwrap(), b"three");
        assert!(s.is_empty());
    }

    #[test]
    fn decode_record_rejects_trailing() {
        let mut buf = Vec::new();
        42u64.encode(&mut buf);
        buf.push(0);
        assert_eq!(
            decode_record::<u64>(&buf),
            Err(CodecError::TrailingBytes(1))
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut s = buf.as_slice();
        assert_eq!(get_string(&mut s), Err(CodecError::InvalidUtf8));
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut s = buf.as_slice();
            prop_assert_eq!(get_varint(&mut s).unwrap(), v);
            prop_assert!(s.is_empty());
        }

        #[test]
        fn prop_zigzag_roundtrip(v in any::<i64>()) {
            let mut buf = Vec::new();
            put_varint_i64(&mut buf, v);
            let mut s = buf.as_slice();
            prop_assert_eq!(get_varint_i64(&mut s).unwrap(), v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            let mut buf = Vec::new();
            put_string(&mut buf, &s);
            let mut r = buf.as_slice();
            prop_assert_eq!(get_string(&mut r).unwrap(), s);
        }

        #[test]
        fn prop_tuple_record_roundtrip(a in any::<u64>(), b in ".*", c in any::<f64>()) {
            let rec = (a, (b.clone(), c));
            let buf = encode_record(&rec);
            let back: (u64, (String, f64)) = decode_record(&buf).unwrap();
            prop_assert_eq!(back.0, a);
            prop_assert_eq!(back.1.0, b);
            prop_assert!(back.1.1 == c || (back.1.1.is_nan() && c.is_nan()));
        }

        #[test]
        fn prop_vec_record_roundtrip(xs in proptest::collection::vec(any::<i64>(), 0..50)) {
            let buf = encode_record(&xs);
            let back: Vec<i64> = decode_record(&buf).unwrap();
            prop_assert_eq!(back, xs);
        }

        #[test]
        fn prop_frame_roundtrip(payload in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut out = Vec::new();
            put_frame(&mut out, &payload);
            let mut s = out.as_slice();
            prop_assert_eq!(get_frame(&mut s).unwrap(), payload.as_slice());
        }

        #[test]
        fn prop_random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
            // Decoding arbitrary garbage must error, never panic.
            let _ = decode_record::<(u64, String)>(&bytes);
            let mut s = bytes.as_slice();
            let _ = get_frame(&mut s);
        }
    }
}
